"""The engine table and seeded random permutations.

``ENGINES`` gives every engine one signature; ``opmatch search`` and
``opmatch bench`` dispatch through it.  An entry imports its engine's
module when it is called, so a command loads only the engine it runs.
``random_permutation`` is ``random.Random(seed).shuffle`` of 1..n:
CPython's shuffle is a Fisher-Yates pass over its Mersenne Twister,
drawing each index with ``getrandbits`` and rejection sampling, so
identical (n, seed) give identical sequences on every platform.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import add

from .core import (SearchStats, _occurrences, check_fits, naive_search,
                   rep_table)

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


def _mp(pattern, text, make=_occurrences):
    from . import mp_automaton as mp
    return mp.mp_search(mp.build_mp(pattern), text, make)


def _forward(pattern, text, make=_occurrences):
    from . import forward_automaton as fw, mp_automaton as mp
    return fw.forward_search(fw.build_forward(mp.build_mp(pattern)), text, make)


def _sublinear(pattern, text, make=_occurrences):
    from . import sublinear
    return sublinear.sublinear_search(pattern, text, make)


def _ac(pattern, text, make=_occurrences):
    from . import multi_ac as ac
    # ac_search alone accepts a text shorter than its patterns; validate the
    # pattern first so a bad one raises the same error as in the other engines.
    pattern = rep_table(pattern)
    check_fits(len(pattern), len(text))
    return ac.ac_search(ac.build_ac((pattern,)), text, make)


# Every engine as (pattern, text[, make]) -> (occurrences, stats), building
# what it needs from the pattern; make turns the engine's match runs into
# its result (see ``core``; ``_occurrences`` by default).  Each entry
# imports its engine's module when called and reads the engine functions
# from the module's attributes then, so wrappers installed on those
# attributes see them, and a process loads only the engines it runs.
ENGINES = {
    "naive": _naive,
    "mp": _mp,
    "forward": _forward,
    "sublinear": _sublinear,
    "ac": _ac,
}

