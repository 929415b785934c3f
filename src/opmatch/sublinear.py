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

Patterns shorter than 16 have no backward read length, and
``sublinear_search`` searches them forward instead.  From m = 6 on it
filters: every occurrence is an exact occurrence of the pattern's up/down
code (one byte per adjacent pair, 1 for a rise), so C-level ``bytes.find``
over the text's code skips the windows that cannot match, and MP's
automaton verifies the candidates it finds, handing back to ``find`` each
time its state falls to 1 (Chhabra and Tarhio, "Order-preserving matching
with filtration", SEA 2014).  Shorter patterns use ``mp_search``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice, repeat
from math import ceil, log2
from operator import add, lt, mul, truth
from typing import Optional, Sequence

from .core import (Pattern, PatternLike, SearchStats, _occurrences,
                   check_fits, rep_table, scan_alignments)
from .mp_automaton import build_mp, mp_search


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

    Each depth is one pass of C-level maps over the reversed values.  The
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
    rev = pat.values[::-1]
    starts = m - b + 1
    smaller = [0] * m
    code = [0] * starts
    levels = [frozenset(code)]
    for d in range(1, b):
        smaller = list(map(add, smaller[1:], map(lt, rev, rev[d:])))
        code = list(map(add, map(mul, code, repeat(d + 1)), smaller[:starts]))
        levels.append(frozenset(code))
    return tuple(levels)


def sublinear_search(p: PatternLike, t: Sequence[int], make=_occurrences):
    """All occurrences of p in t, with statistics, for every m.

    Below m = 16, where ``choose_b`` gives no read length, it runs
    ``mp_search`` for m < ``FILTER_MIN_M`` and the up/down filter from
    there, counting as they do (``fallback_for`` names the pick).  From
    m = 16 on, symbols_read counts index reads plus verification reads,
    and verifications counts naive per-start checks.  Every path hands its
    match ends to ``make`` as in ``mp_search``.
    """
    pat = rep_table(p)
    m = len(pat)
    n = len(t)
    check_fits(m, n)
    b = choose_b(m)
    if b is None:
        return (mp_search(build_mp(pat), t, make) if m < FILTER_MIN_M
                else _filter_search(pat, t, make))
    shift = m - b + 1
    levels = build_factor_tree(pat, b)
    # Level 0 holds only code 0, so the first read always passes; the read
    # r symbols back from the window end folds its rank with radix r.
    steps = list(zip(range(2, b + 1), levels[1:]))
    last_start = n - m + 1
    ends = []
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
            found, vreads = scan_alignments(pat, t, lo, hi)
            ends += found
            reads += vreads
            verifications += hi - lo + 1
        e += shift
    stats = SearchStats(symbols_read=reads, verifications=verifications)
    return make([(ends, m, 0)]), stats


FILTER_MIN_M = 6  # random text, filter over mp: m=5 1.0-1.4x, m=6 1.3-1.8x (CHANGES.md)


def _filter_search(pat: Pattern, t: Sequence[int], make):
    """All occurrences of pat in t: up/down-code filter, MP verification.

    A candidate is a start s where the text's up/down code holds the
    pattern's; ``bytes.find`` finds the next one at C speed.  From s, MP's
    step (``mp_search``'s test and strong failure links) reads the text
    from state 0.  Once its state is 1 after a symbol i0 other than the
    run's first, every occurrence that starts before i0 is reported, so
    MP asks ``find`` for the next candidate from i0: at i0 itself it reads
    on, else it stops and the next run begins at the answer.  Runs are
    disjoint, so MP reads every symbol at most once.

    symbols_read counts the symbols MP read, at most n; verifications
    counts the runs, at most n-m+1; transitions_taken counts as in
    ``mp_search``, reads + 2 * failure steps + matches.
    """
    m = len(pat)
    n = len(t)
    v = pat.values
    pcode = bytes(map(lt, v, v[1:]))
    try:
        find = bytes(map(lt, t, islice(t, 1, None))).find
    except TypeError:  # numpy's bools are no ints; truth would slow int texts by ~40%
        find = bytes(map(truth, map(lt, t, islice(t, 1, None)))).find
    back = pat.back
    skip = build_mp(pat).skip
    ends = []
    reads = fails = runs = 0
    s = find(pcode)
    while s >= 0:
        runs += 1
        x = 0
        nxt = s  # the run's first symbol needs no find
        for i0 in range(s, n):  # islice(t, s, None) would walk s items
            c = t[i0]
            while True:  # state 0 extends on every symbol
                d1, d2 = back[x]
                if (d1 is None or t[i0 - d1] < c) and (d2 is None or c < t[i0 - d2]):
                    break
                x = skip[x]
                fails += 1
            x += 1
            if x == m:
                ends.append(i0)
                x = skip[m]
            if x == 1 and nxt < i0:
                nxt = find(pcode, i0)
                if nxt != i0:
                    break
        else:  # MP read to the end of the text
            nxt = -1
        reads += i0 - s + 1
        s = nxt
    trans = reads + 2 * fails + len(ends)
    stats = SearchStats(symbols_read=reads, transitions_taken=trans, verifications=runs)
    return make([(ends, m, 0)]), stats


def fallback_for(m: int) -> Optional[str]:
    """What sublinear_search runs for m in place of the factor index, or None."""
    if choose_b(m) is not None:
        return None
    return "the up/down filter with mp verification" if m >= FILTER_MIN_M else "mp"


def search_or_fallback(p: PatternLike, t: Sequence[int]):
    """(occurrences, stats, fell_back): sublinear_search, and whether it ran forward.

    Kept only because perfbench/run.py unpacks three items and counts
    fell_back; it goes when the benchmark reads what ran from the stats.
    """
    pat = rep_table(p)
    return (*sublinear_search(pat, t), fallback_for(len(pat)) is not None)
