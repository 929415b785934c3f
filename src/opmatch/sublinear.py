"""Average-case sublinear search via backward factor recognition.

A factor tree is built over all length-b factors of the reversed pattern.
Each edge is keyed by the insertion rank of the new symbol: the number of
symbols before it in the factor that are smaller.  The text is examined
through a window of length m whose end advances by m-b+1 each round: up to
b symbols are read backward from the window end through the tree, each step
keyed by the insertion rank of the new text symbol among those read.  If
the read prefix is ever rejected, no occurrence can contain those symbols
and start within the current verification range, so the whole range is
skipped after only a few reads.  If all b symbols are recognized, every
start in the range is checked naively.  Consecutive verification ranges
tile the text exactly, so each candidate start is examined once and the
result equals the naive scan.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, log2
from typing import Optional, Sequence

from .core import (Occurrence, PatternLike, PatternLongerThanText,
                   SearchStats, rep_table, scan_alignments)
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


def build_factor_tree(p: PatternLike, b: int) -> dict:
    """Trie of the length-b factors of the reversed pattern, keyed by rank.

    Returns the root as nested dicts.  The edge for the j-th symbol of a
    factor is keyed by its insertion rank: how many of the j-1 symbols
    before it are smaller.  Given the symbols before it, the rank fixes the
    new symbol's place among them, so a backward read t_e, t_{e-1}, ...
    that descends by the insertion rank of each new symbol is accepted (to
    any depth up to b) exactly when it is order-isomorphic to a prefix of
    some factor of the reversed pattern.  Searches only read the tree and
    keep their scratch state locally, so concurrent searches over one tree
    are safe.
    """
    pat = rep_table(p)
    m = len(pat)
    if b > m:
        raise ValueError(f"factor length {b} exceeds pattern length {m}")
    reversed_ranks = pat.ranks[::-1]
    root: dict = {}
    for s in range(m - b + 1):
        node = root
        seen: list = []
        for c in reversed_ranks[s:s + b]:
            k = bisect_left(seen, c)
            child = node.get(k)
            if child is None:
                child = node[k] = {}
            node = child
            seen.insert(k, c)
    return root


def sublinear_search(p: PatternLike, t: Sequence[int]):
    """All occurrences of p in t; raises FallbackRequired for short patterns.

    symbols_read counts tree reads plus verification reads; verifications
    counts naive per-start checks.
    """
    pat = rep_table(p)
    m = len(pat)
    n = len(t)
    if m > n:
        raise PatternLongerThanText(f"pattern length {m} exceeds text length {n}")
    b = choose_b(m)
    if b is None:
        raise FallbackRequired(f"no backward read length for m={m}")
    shift = m - b + 1
    root = build_factor_tree(pat, b)
    last_start = n - m + 1
    out = []
    reads = 0
    verifications = 0
    e = m
    while e <= n:
        node = root
        seen: list = []  # values read so far, sorted
        depth = 0
        while depth < b:
            c = t[e - 1 - depth]
            reads += 1
            k = bisect_left(seen, c)
            node = node.get(k)
            if node is None:
                break
            seen.insert(k, c)
            depth += 1
        if depth == b:
            lo = e - m + 1
            hi = min(e - b + 1, last_start)
            positions, vreads = scan_alignments(pat, t, lo, hi)
            out.extend(Occurrence(s) for s in positions)
            reads += vreads
            verifications += hi - lo + 1
        e += shift
    stats = SearchStats(symbols_read=reads, verifications=verifications)
    return out, stats


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
