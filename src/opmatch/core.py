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
in runs ``(ends, m, pattern_id)``, to a maker once the scan ends, and only
the makers here turn an end into a 1-based start.  Each run's ends are in
scan order, and every maker here gives the matches by position, then
pattern id, so one run needs no sort and several are sorted once.
``_occurrences`` takes several runs in pattern-id order and sorts the
list stably by position alone: one id never matches twice at one
position, so ties are only between ids and keep the order the runs came
in.  An engine's optional ``make`` argument names its maker.  The
default of every engine, ``_occurrences``, makes the ``Occurrence`` list
at C speed with the cyclic garbage collector paused, so no Python code
runs per match and no collection scans the new objects.  The CLI passes
``_start_lines`` (``opmatch search``, one run) or ``_start_id_lines``
(``opmatch multisearch``), which turn the same runs into output lines
without making an ``Occurrence``.

All positions in public contracts are 1-based.  Sentinel "no predecessor" /
"no successor" is represented as ``None``, never as a magic integer.
"""

from __future__ import annotations

import gc
import threading
from itertools import chain, repeat, starmap
from operator import add, index, itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Sequence, Union


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
    """One ``Occurrence`` per match end of the runs, by position, then id.

    A run ``(ends, m, pattern_id)`` holds the 0-based end indexes of the
    matches of one length-m pattern, in order; the match ending at i0
    starts at the 1-based position i0 - m + 2.  One id may come in several
    runs (``ac_search`` reports an id from every trie node where one of its
    matches ends), but each match end is reached at one node, so one id
    never has two matches at one position.  The runs are taken in id order
    and the list is then sorted stably by position alone: ties at a
    position are only between ids, and the stable sort keeps them in the
    order their runs came in.  One run comes back as its ends come.  The
    sort compares exact int keys, not the ``Occurrence`` tuple subclass,
    which ``list.sort`` would compare item by item through tuple rich
    comparison.
    ``tuple.__new__`` fills each instance directly, skipping the Python
    ``Occurrence.__new__``; ``starmap`` passes each ``zip`` tuple as the
    argument tuple, so no tuple is made per match for the call.
    ``Occurrence`` is a tuple subclass, which the cyclic garbage collector
    never untracks, so making 1e5 of them would trigger collections that
    scan them all; the process-wide collector is therefore paused while
    the list is made.  The new objects hold only ints, so they cannot form
    cycles and no collection is missed.  Calls in concurrent threads share
    one pause: the first to begin saves the collector's state and turns it
    off, and the last to end restores it, also when ``runs`` raises.
    """
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        runs = sorted(runs, key=itemgetter(2))
        out = list(starmap(tuple.__new__, zip(repeat(Occurrence), chain.from_iterable(
            zip(map(add, ends, repeat(2 - m)), repeat(pid)) for ends, m, pid in runs))))
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()
    if len(runs) > 1:
        out.sort(key=itemgetter(0))
    return out


def _start_lines(runs: Iterable[tuple]) -> Iterator[str]:
    """One output line per match end: its start and a line break.

    It is for single-pattern engines, whose one run is in order already.
    The ends become starts at C speed; each line is made only when it is
    read.
    """
    return (f"{s}\n" for s in chain.from_iterable(
        map(add, ends, repeat(2 - m)) for ends, m, _ in runs))


def _start_id_lines(runs: Iterable[tuple]) -> Iterator[str]:
    """One output line per match end: its start, a tab, its 1-based id.

    Each match becomes one int key, ``start * r + pattern_id + 1`` with r
    above every ``pattern_id + 1``, so one sort of the keys orders the
    matches by start and then by id; ``divmod`` gives the start and the
    1-based id back.
    The keys are made and sorted at once, each line only when it is read.
    It keeps one int key per match, where ``_occurrences`` sorts by
    position alone: each line is formatted from the start and the id as
    ints, which one ``divmod`` of the key gives back, and the keys already
    sort on the exact-int fast path.  Each id's line end (a tab, the id
    and a line break) is made once, so a line formats only its start.
    """
    runs = list(runs)
    r = 2 + max((pid for _, _, pid in runs), default=0)
    keys = sorted(chain.from_iterable(
        map(add, map(mul, ends, repeat(r)), repeat((2 - m) * r + pid + 1))
        for ends, m, pid in runs))
    suffix = [f"\t{k}\n" for k in range(r)]
    return (f"{s}{suffix[k]}" for s, k in map(divmod, keys, repeat(r)))


class SearchStats(NamedTuple):
    """Instrumentation counters of one search.

    symbols_read counts text-symbol inspections and transitions_taken
    automaton transition tests and failure steps, in units that differ
    by engine.  mp, the up/down filter's MP runs and ac count every test
    and also every failure step (a step along a strong failure link), the
    step to the border after a match and ac's hop off a node without
    children, so each symbol costs at least 1 and a failed test 2.  An ac
    lookup resolved by an order tree (``multi_ac.AcNode.tree``) counts as
    one lookup plus the failure steps its leaf records, as the walk it
    stands for would.
    forward counts interval tests only; its moves need no failure steps.
    Compare forward with the others by tests: for mp they are
    n + failure steps = (transitions_taken + n - matches) / 2.

    verifications counts the checks an engine makes beyond its automaton:
    the backward-window search (m >= 16) counts one per start it verifies
    naively, and ``sublinear_search``'s up/down filter (6 <= m < 16) one
    per MP run started at a candidate; naive, mp, forward and ac leave it
    0.  The
    filter counts the symbols its MP runs read, at most n; the C-level
    up/down encoding of the text reads every symbol once more and is not
    counted.
    Every engine makes its stats once, when its search ends: an immutable
    value that compares equal to the plain tuple of its three counts.
    """

    symbols_read: int = 0
    transitions_taken: int = 0
    verifications: int = 0


class Pattern(NamedTuple):
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
    between concurrent searches.  A NamedTuple of its two fields, but its
    length is the pattern's, m, so ``_make`` and ``_replace``, which check
    the length against the field count, do not apply: ``rep_table`` makes
    every Pattern.
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
    they compare values only.  A repeated value has no rank: the sequence
    goes through ``validate_seq`` first, which raises DuplicateValue at the
    first value that repeats an earlier one, as every entry point does.
    """
    s = validate_seq(s)
    rank = {v: i for i, v in enumerate(sorted(s), 1)}
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


def _naive(p: PatternLike, t: Sequence[int], make=_occurrences):
    """``naive_search`` as an engine: ``(make([(ends, m, 0)]), SearchStats)``.

    ``bench.ENGINES["naive"]``; symbols_read counts the symbols inspected.
    """
    pat = rep_table(p)
    m = len(pat)
    n = len(t)
    check_fits(m, n)
    ends, reads = scan_alignments(pat, t, 1, n - m + 1)
    return make([(ends, m, 0)]), SearchStats(symbols_read=reads)


def naive_search(p: PatternLike, t: Sequence[int]) -> list:
    """All occurrences of p in t by direct per-alignment verification.

    This is the oracle the automaton engines are compared against.  The
    text is assumed validated (pairwise distinct).  ``_naive`` is the same
    scan with its stats.
    """
    return _naive(p, t)[0]
