"""Average-case sublinear search via backward factor recognition.

A factor index is built over all length-b factors of the reversed pattern.
Each factor is read symbol by symbol, and symbol d is keyed by its
insertion rank k_d: how many of the d symbols before it are smaller.  Since
0 <= k_d <= d, the ranks of the first d+1 symbols fold into one mixed-radix
code, code_d = code_{d-1} * (d+1) + k_d, and the index keeps one set of
codes per depth.  The text is examined through a window of length m whose
end advances by m-b+1 each round: up to b symbols are read backward from
the window end, each step folding the insertion rank of the new text
symbol among those read into the code.  If the code is ever missing from
its depth's set, no occurrence can contain those symbols and start within
the current verification range, so the whole range is skipped after only a
few reads.  If all b symbols are recognized, every start in the range is
checked naively.  Consecutive verification ranges tile the text exactly, so
each candidate start is examined once and the result equals the naive scan.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from math import ceil, log2
from operator import add, lt, mul
from typing import Optional, Sequence

from .core import (PatternLike, SearchStats, _occurrences, check_fits,
                   rep_table, scan_alignments)
from .mp_automaton import build_mp, mp_search


class FallbackRequired(Exception):
    """The pattern is too short for backward-window search; use mp_search."""


def choose_b(m: int) -> Optional[int]:
    """Backward read length for pattern length m, or None to decline.

    b = ceil(3.5 * log2(m) / log2(log2(m))).  Declines for m < 16 (log log
    degeneracy); from m = 16 on, b never exceeds m // 2.
    """
    if m < 16:
        return None
    return ceil(3.5 * log2(m) / log2(log2(m)))


def build_factor_tree(p: PatternLike, b: int) -> tuple:
    """Per-depth code sets of the length-b factors of the reversed pattern.

    Returns a tuple of b frozensets.  Level d holds code_d of every factor,
    where code_d = code_{d-1} * (d+1) + k_d and k_d is the insertion rank
    of the factor's symbol d among the d symbols before it (code_0 = 0).
    The ranks fix each new symbol's place among those before it, so a
    backward read t_e, t_{e-1}, ... whose code stays in its depth's set (to
    any depth up to b) is exactly one that is order-isomorphic to a prefix
    of some factor of the reversed pattern.  Level d holds at most
    min((d+1)!, m-b+1) codes.

    Each depth is one pass of C-level maps over the reversed ranks.  The
    list ``smaller`` holds, for every start s, the insertion rank of symbol
    s+d among symbols s..s+d-1.  It is the previous depth's list shifted by
    one start, plus whether symbol s is below symbol s+d; it loses one entry
    per depth, as the last start with a symbol at depth d moves down by one.
    Searches only read the sets, so concurrent searches over one index are
    safe.
    """
    pat = rep_table(p)
    m = len(pat)
    if not 1 <= b <= m:
        raise ValueError(f"factor length {b} is outside 1..{m}, the pattern length")
    rev = pat.ranks[::-1]
    starts = m - b + 1
    smaller = [0] * m
    code = [0] * starts
    levels = [frozenset(code)]
    for d in range(1, b):
        smaller = list(map(add, smaller[1:], map(lt, rev, rev[d:])))
        code = list(map(add, map(mul, code, repeat(d + 1)), smaller[:starts]))
        levels.append(frozenset(code))
    return tuple(levels)


def sublinear_search(p: PatternLike, t: Sequence[int]):
    """All occurrences of p in t; raises FallbackRequired for short patterns.

    symbols_read counts index reads plus verification reads; verifications
    counts naive per-start checks.
    """
    pat = rep_table(p)
    m = len(pat)
    n = len(t)
    check_fits(m, n)
    b = choose_b(m)
    if b is None:
        raise FallbackRequired(f"no backward read length for m={m}")
    shift = m - b + 1
    levels = build_factor_tree(pat, b)
    # Level 0 holds only code 0, so the first read always passes; the read
    # r symbols back from the window end folds its rank with radix r.
    steps = list(zip(range(2, b + 1), levels[1:]))
    last_start = n - m + 1
    starts = []
    reads = 0
    verifications = 0
    e = m
    while e <= n:
        seen = [t[e - 1]]  # values read so far, sorted
        code = 0
        for r, level in steps:
            c = t[e - r]
            k = bisect_left(seen, c)
            code = code * r + k
            if code not in level:
                reads += r
                break
            seen.insert(k, c)
        else:
            reads += b
            lo = e - m + 1
            hi = min(e - b + 1, last_start)
            positions, vreads = scan_alignments(pat, t, lo, hi)
            starts += positions
            reads += vreads
            verifications += hi - lo + 1
        e += shift
    stats = SearchStats(symbols_read=reads, verifications=verifications)
    return _occurrences(zip(starts, repeat(0))), stats


def search_or_fallback(p: PatternLike, t: Sequence[int]):
    """sublinear_search, or mp_search when the engine declines.

    Returns (occurrences, stats, fell_back).
    """
    pat = rep_table(p)
    try:
        occurrences, stats = sublinear_search(pat, t)
        return occurrences, stats, False
    except FallbackRequired:
        occurrences, stats = mp_search(build_mp(pat), t)
        return occurrences, stats, True
