"""Core types and reference algorithms for order-isomorphic sequence matching.

Two equal-length sequences of distinct integers are order-isomorphic when
every pair of positions compares the same way in both.  A pattern occurs in
a text at position i when it is order-isomorphic to the length-m text window
starting there.  This module holds the shared vocabulary (validated
sequences, the paper's rank normal form, which no engine needs, and rep
pairs: the distances back from each symbol to the largest smaller and the
smallest larger symbol before it) and one oracle, ``naive_search``, the
slow-but-obviously-correct scan that every search engine is tested against.

It also owns both edges of every engine.  A pattern enters only through
``rep_table``, which makes every value a Python int.  Every engine notes
the 0-based end index of each match while it scans and hands these ends,
in runs ``(ends, m, pattern_id)``, to ``_occurrences`` once the scan ends;
it alone turns an end into a 1-based start, and it makes the
``Occurrence`` list at C speed with the cyclic garbage collector paused,
so no Python code runs per match and no collection scans the new objects.

All positions in public contracts are 1-based.  Sentinel "no predecessor" /
"no successor" is represented as ``None``, never as a magic integer.
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, index
from typing import Iterable, NamedTuple, Optional, Sequence, Union


class InputError(ValueError):
    """Base class for malformed-input errors."""


class DuplicateValue(InputError):
    """Two positions hold the same value (1-based indices)."""

    def __init__(self, index_a: int, index_b: int, value: int):
        super().__init__(
            f"duplicate value {value} at positions {index_a} and {index_b}"
        )
        self.index_a = index_a
        self.index_b = index_b
        self.value = value


class EmptyInput(InputError):
    """An empty sequence was given where a non-empty pattern is required."""


class PatternLongerThanText(InputError):
    """Searching is undefined when the pattern is longer than the text."""


class Occurrence(NamedTuple):
    """A 1-based match position, tagged with a pattern id (0 if single)."""

    position: int
    pattern_id: int = 0


_gc_lock = threading.Lock()
_gc_depth = 0  # calls of _occurrences now making their lists
_gc_was_enabled = False  # the collector's state when the first one began


def _occurrences(runs: Iterable[tuple]) -> list:
    """One ``Occurrence`` per match end of the runs, at C speed.

    A run ``(ends, m, pattern_id)`` holds the 0-based end indexes of the
    matches of one length-m pattern; the match ending at i0 starts at the
    1-based position i0 - m + 2.  The occurrences come run by run, each
    run's in the order of its ends.
    ``tuple.__new__`` fills each instance directly, skipping the Python
    ``Occurrence.__new__``.  ``Occurrence`` is a tuple subclass, which the
    cyclic garbage collector never untracks, so making 1e5 of them would
    trigger collections that scan them all; the process-wide collector is
    therefore paused while the list is made.  The new objects hold only
    ints, so they cannot form cycles and no collection is missed.  Calls
    in concurrent threads share one pause: the first to begin saves the
    collector's state and turns it off, and the last to end restores it,
    also when ``runs`` raises.
    """
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        return list(map(tuple.__new__, repeat(Occurrence), chain.from_iterable(
            zip(map(add, ends, repeat(2 - m)), repeat(pid)) for ends, m, pid in runs)))
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()


@dataclass
class SearchStats:
    """Instrumentation counters accumulated during one search.

    symbols_read counts text-symbol inspections and transitions_taken
    automaton transition tests and failure steps.  verifications counts
    the checks an engine makes beyond its automaton: the backward-window
    search (m >= 16) counts one per start it verifies naively, and
    ``sublinear_search``'s up/down filter (6 <= m < 16) one per MP run
    started at a candidate; naive, mp, forward and ac leave it 0.  The
    filter counts the symbols its MP runs read, at most n; the C-level
    up/down encoding of the text reads every symbol once more and is not
    counted.
    All counters only ever increase while a search runs.
    """

    symbols_read: int = 0
    transitions_taken: int = 0
    verifications: int = 0


@dataclass(frozen=True)
class Pattern:
    """A validated pattern: its values and their rep pairs.

    Engines only compare ``values`` with each other, never with a constant,
    so any distinct integers serve.  ``back[j]`` is the rep pair of symbol
    j (0-based): ``(d1, d2)``, where symbol j-d1 is the largest of the
    symbols before j that is smaller than symbol j, and symbol j-d2 the
    smallest that is larger.  ``None`` means no such symbol exists on that
    side, so ``back[0]`` is always ``(None, None)``.  This one pair is
    enough to test in constant time whether extending an order-isomorphic
    window by one symbol keeps it order-isomorphic, and every engine reads
    the text through it: symbol t[i] is tested against t[i-d1] and
    t[i-d2], whatever the window's start.  Immutable and safe to share
    between concurrent searches.
    """

    values: tuple
    back: tuple

    def __len__(self) -> int:
        return len(self.values)


PatternLike = Union[Pattern, Sequence[int]]


def validate_seq(raw: Iterable[int]) -> tuple:
    """Check pairwise distinctness and return the sequence as a tuple.

    Raises DuplicateValue with the two offending 1-based indices.
    Comparing the size of the value set with the length settles a valid
    sequence at C speed; only a sequence that fails that test is scanned
    for the first repeated value and the position it repeats.
    """
    values = tuple(raw)
    if len(set(values)) < len(values):
        seen: dict = {}
        for i, v in enumerate(values):
            if v in seen:
                raise DuplicateValue(seen[v] + 1, i + 1, v)
            seen[v] = i
    return values


def rank_normalize(s: Sequence[int]) -> tuple:
    """Replace each value by its rank (1 = smallest) within the sequence.

    This is the paper's normal form of a sequence; no engine needs it, as
    they compare values only.  A repeated value has no rank: it raises
    DuplicateValue at the first two positions of the smallest such value.
    """
    order = sorted(s)
    rank = {v: i for i, v in enumerate(order, 1)}
    if len(rank) < len(s):
        v = next(a for a, b in zip(order, order[1:]) if a == b)
        first = s.index(v)
        raise DuplicateValue(first + 1, s.index(v, first + 1) + 1, v)
    return tuple(map(rank.__getitem__, s))


def back_pairs(values: Sequence[int]) -> list:
    """The rep pair of every symbol as distances back from it (``Pattern.back``).

    Runs in O(m log m): sort once, then sweep positions from last to first
    through a doubly linked list ordered by value.  Just before unlinking
    position j, its list neighbours are exactly the predecessor and
    successor of value j among the earlier positions.
    """
    m = len(values)
    order = sorted(range(m), key=values.__getitem__)
    prev = [None] * m
    nxt = [None] * m
    for a, b in zip(order, order[1:]):
        nxt[a] = b
        prev[b] = a
    back: list = [None] * m
    for j in range(m - 1, -1, -1):
        a = prev[j]
        b = nxt[j]
        back[j] = (None if a is None else j - a, None if b is None else j - b)
        if a is not None:
            nxt[a] = b
        if b is not None:
            prev[b] = a
    return back


def rep_table(p: PatternLike) -> Pattern:
    """Validate a sequence and build its Pattern with one sort (``back_pairs``).

    The only code that makes a Pattern.  Each value passes through
    ``operator.index``, so a numpy integer becomes an int and a float or a
    string raises TypeError; an empty sequence raises EmptyInput.  A
    Pattern is returned unchanged.
    """
    if isinstance(p, Pattern):
        return p
    values = validate_seq(map(index, p))
    if not values:
        raise EmptyInput("pattern must contain at least one integer")
    return Pattern(values, tuple(back_pairs(values)))


def check_fits(m: int, n: int) -> None:
    """Raise PatternLongerThanText unless a length-m pattern fits in n symbols."""
    if m > n:
        raise PatternLongerThanText(f"pattern length {m} exceeds text length {n}")


def scan_alignments(p: Pattern, t: Sequence[int], first: int, last: int):
    """Naive check of every start in [first, last] (1-based, inclusive).

    Each alignment is verified incrementally with the pattern's ``back``
    pairs, bailing out at the first symbol that breaks order-isomorphism.
    Returns (ends, symbols_inspected): the 0-based end index of every
    match, and how many window symbols were examined in total.
    """
    back = p.back
    m = len(back)
    ends = []
    reads = 0
    for s0 in range(first - 1, last):
        for j in range(m):
            i = s0 + j
            c = t[i]
            reads += 1
            d1, d2 = back[j]
            if not ((d1 is None or t[i - d1] < c) and (d2 is None or c < t[i - d2])):
                break
        else:
            ends.append(i)
    return ends, reads


def naive_search(p: PatternLike, t: Sequence[int],
                 stats: Optional[SearchStats] = None) -> list:
    """All occurrences of p in t by direct per-alignment verification.

    This is the oracle the automaton engines are compared against.  The
    text is assumed validated (pairwise distinct); pass a SearchStats to
    accumulate the number of symbols inspected.
    """
    pat = rep_table(p)
    m = len(pat)
    n = len(t)
    check_fits(m, n)
    ends, reads = scan_alignments(pat, t, 1, n - m + 1)
    if stats is not None:
        stats.symbols_read += reads
    return _occurrences([(ends, m, 0)])
