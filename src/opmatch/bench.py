"""The engine table and seeded random permutations.

``ENGINES`` gives every engine one signature; ``opmatch search`` and
``opmatch bench`` dispatch through it.  ``random_permutation`` is
``random.Random(seed).shuffle`` of 1..n: CPython's shuffle is a
Fisher-Yates pass over its Mersenne Twister, drawing each index with
``getrandbits`` and rejection sampling, so identical (n, seed) give
identical sequences on every platform.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import add

from .core import (SearchStats, _occurrences, check_fits, naive_search,
                   rep_table)
from .forward_automaton import build_forward, forward_search
from .mp_automaton import build_mp, mp_search
from .multi_ac import ac_search, build_ac
from .sublinear import sublinear_search

PRNG_NOTE = "mt19937(random.Random.getrandbits)+fisher-yates+rejection"


def random_permutation(n: int, seed: int) -> tuple:
    """Uniform permutation of 1..n, deterministic for (n, seed).

    A negative seed raises ValueError: ``random.Random`` seeds an int by its
    absolute value, so -s would repeat the permutation of s.  The shuffled
    ints still lie in memory in value order, so a scan in text order would
    jump across memory; adding 0 to each makes fresh ints in text order
    (above 256, where CPython does not share small ints), with the same
    values.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    a = list(range(1, n + 1))
    random.Random(seed).shuffle(a)
    return tuple(map(add, a, repeat(0)))


def _naive(pattern, text, make=_occurrences):
    stats = SearchStats()
    return naive_search(pattern, text, stats, make), stats


def _ac(pattern, text, make=_occurrences):
    # ac_search alone accepts a text shorter than its patterns; validate the
    # pattern first so a bad one raises the same error as in the other engines.
    pattern = rep_table(pattern)
    check_fits(len(pattern), len(text))
    return ac_search(build_ac((pattern,)), text, make)


# Every engine as (pattern, text[, make]) -> (occurrences, stats), building
# what it needs from the pattern; make turns the engine's match runs into
# its result (see ``core``; ``_occurrences`` by default).  The bodies look
# the engine functions up by name at call time, so wrappers installed on
# the module attributes see them.
ENGINES = {
    "naive": _naive,
    "mp": lambda pattern, text, make=_occurrences: mp_search(
        build_mp(pattern), text, make),
    "forward": lambda pattern, text, make=_occurrences: forward_search(
        build_forward(build_mp(pattern)), text, make),
    "sublinear": lambda pattern, text, make=_occurrences: sublinear_search(
        pattern, text, make),
    "ac": _ac,
}

