"""Core types and reference algorithms for order-isomorphic sequence matching.

Two equal-length sequences of distinct integers are order-isomorphic when
every pair of positions compares the same way in both.  A pattern occurs in
a text at position i when it is order-isomorphic to the length-m text window
starting there.  This module holds the shared vocabulary (validated
sequences, rank normalization, and rep pairs: the distances back from each
symbol to the largest smaller and the smallest larger symbol before it)
and one oracle, ``naive_search``, the slow-but-obviously-correct scan that
every search engine in the package is tested against.

All positions in public contracts are 1-based.  Sentinel "no predecessor" /
"no successor" is represented as ``None``, never as a magic integer.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class SearchStats:
    """Instrumentation counters accumulated during one search.

    symbols_read counts text-symbol inspections, transitions_taken counts
    automaton transition tests and failure steps, verifications counts
    naive per-start verification checks (backward-window engine only).
    All counters only ever increase while a search runs.
    """

    symbols_read: int = 0
    transitions_taken: int = 0
    verifications: int = 0


@dataclass(frozen=True)
class Pattern:
    """A validated pattern with its rank normalization and rep pairs.

    ``ranks`` is the permutation of 1..m obtained by replacing every value
    with its rank.  ``back[j]`` is the rep pair of symbol j (0-based):
    ``(d1, d2)``, where symbol j-d1 is the largest of the symbols before j
    that is smaller than symbol j, and symbol j-d2 the smallest that is
    larger.  ``None`` means no such symbol exists on that side, so
    ``back[0]`` is always ``(None, None)``.  This one pair is enough to
    test in constant time whether extending an order-isomorphic window by
    one symbol keeps it order-isomorphic, and every engine reads the text
    through it: symbol t[i] is tested against t[i-d1] and t[i-d2], whatever
    the window's start.  Immutable and safe to share between concurrent
    searches.
    """

    values: tuple
    ranks: tuple
    back: tuple

    def __len__(self) -> int:
        return len(self.values)


PatternLike = Union[Pattern, Sequence[int]]


def validate_seq(raw: Iterable[int], require_nonempty: bool = False) -> tuple:
    """Check pairwise distinctness and return the sequence as a tuple.

    Raises DuplicateValue with the two offending 1-based indices, or
    EmptyInput when ``require_nonempty`` is set and the sequence is empty.
    Comparing the size of the value set with the length settles a valid
    sequence at C speed; only a sequence that fails that test is scanned
    for the first repeated value and the position it repeats.
    """
    values = tuple(raw)
    if require_nonempty and not values:
        raise EmptyInput("pattern must contain at least one integer")
    if len(set(values)) < len(values):
        seen: dict = {}
        for i, v in enumerate(values):
            if v in seen:
                raise DuplicateValue(seen[v] + 1, i + 1, v)
            seen[v] = i
    return values


def rank_normalize(s: Sequence[int]) -> tuple:
    """Replace each value by its rank (1 = smallest) within the sequence."""
    order = sorted(s)
    rank = {}
    for i, v in enumerate(order):
        if v in rank:  # duplicates would silently corrupt every engine
            first = s.index(v)
            second = s.index(v, first + 1)
            raise DuplicateValue(first + 1, second + 1, v)
        rank[v] = i + 1
    return tuple(rank[v] for v in s)


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
    """Validate a sequence and build its Pattern (ranks plus rep pairs).

    A Pattern is returned unchanged.
    """
    if isinstance(p, Pattern):
        return p
    values = validate_seq(p, require_nonempty=True)
    return Pattern(values, rank_normalize(values), tuple(back_pairs(values)))


def check_fits(m: int, n: int) -> None:
    """Raise PatternLongerThanText unless a length-m pattern fits in n symbols."""
    if m > n:
        raise PatternLongerThanText(f"pattern length {m} exceeds text length {n}")


def scan_alignments(p: Pattern, t: Sequence[int], first: int, last: int):
    """Naive check of every start in [first, last] (1-based, inclusive).

    Each alignment is verified incrementally with the pattern's ``back``
    pairs, bailing out at the first symbol that breaks order-isomorphism.
    Returns (positions, symbols_inspected) where symbols_inspected counts
    how many window symbols were examined in total.
    """
    back = p.back
    m = len(back)
    positions = []
    reads = 0
    for s0 in range(first - 1, last):
        ok = True
        for j in range(m):
            i = s0 + j
            c = t[i]
            reads += 1
            d1, d2 = back[j]
            if d1 is not None and not t[i - d1] < c:
                ok = False
                break
            if d2 is not None and not c < t[i - d2]:
                ok = False
                break
        if ok:
            positions.append(s0 + 1)
    return positions, reads


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
    positions, reads = scan_alignments(pat, t, 1, n - m + 1)
    if stats is not None:
        stats.symbols_read += reads
    return [Occurrence(s) for s in positions]
