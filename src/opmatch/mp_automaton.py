"""Morris-Pratt style automaton for order-isomorphic pattern search.

State j stands for "the last j text symbols are order-isomorphic to the
pattern prefix of length j".  The forward transition out of state j is
labelled by the rep pair of prefix j+1; a failure link sends j to the
longest proper prefix that is order-isomorphic to a suffix of prefix j
(its order-isomorphic border).  Search re-tests the held symbol after each
failure step, so every text symbol is read exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import (Occurrence, Pattern, PatternLike, PatternLongerThanText,
                   SearchStats, _rep0, rep_table)
from .predset import PredSet


@dataclass(frozen=True)
class MpAutomaton:
    """Failure-link representation of the forward search automaton.

    ``fail[j]`` (for j in 1..m, index 0 unused) is the length of the
    longest proper order-isomorphic border of the length-j prefix; forward
    labels are implied by ``pattern.rep``.  Immutable after build, safe for
    concurrent searches.  ``build_ops`` records how many predecessor-set
    operations the construction performed.
    """

    pattern: Pattern
    fail: tuple
    build_ops: int = field(default=0, repr=False)


def build_mp(p: PatternLike) -> MpAutomaton:
    """Build failure links with a sliding window in a predecessor set.

    Extending the border of prefix j-1 by symbol j is tested by querying
    the strict predecessor and successor of symbol j's rank within the set
    holding exactly the current candidate border window, re-basing their
    positions to window-relative ones, and comparing the pair against the
    rep pair of the candidate prefix.  On a mismatch the candidate border
    shrinks along the failure chain and the symbols that fall out of the
    window are deleted from the set.
    """
    pat = rep_table(p)
    m = len(pat)
    ranks = pat.ranks
    rep = pat.rep
    fail = [0] * (m + 1)
    ops = 0
    if m >= 2:
        window = PredSet(m)
        i = 0  # current candidate border length, window = positions j-i..j-1
        for j in range(2, m + 1):
            rj = ranks[j - 1]
            while True:
                pred, succ = window.query_strict(rj)
                base = j - i - 1  # window-relative position = absolute - base
                x1 = None if pred is None else pred[1] - base
                x2 = None if succ is None else succ[1] - base
                if (x1, x2) == rep[i]:
                    break
                k = fail[i]
                for pos in range(j - i, j - k):  # symbols leaving the window
                    window.delete(ranks[pos - 1])
                i = k
            i += 1
            fail[j] = i
            window.insert(rj, j)
        ops = window.ops
    return MpAutomaton(pat, tuple(fail), ops)


def mp_search(a: MpAutomaton, t: Sequence[int]):
    """All occurrences of the automaton's pattern in t, with statistics.

    At state x reading t[i], the forward test compares t[i] against the
    window symbols addressed by the rep pair of prefix x+1; on failure the
    state follows its failure link and the same symbol is re-tested.  A
    full match restarts from the border of the whole pattern, so
    overlapping occurrences are reported.  transitions_taken counts every
    forward test and every failure step; it never exceeds 3n.
    """
    m = len(a.pattern)
    n = len(t)
    if m > n:
        raise PatternLongerThanText(f"pattern length {m} exceeds text length {n}")
    reps = _rep0(a.pattern)
    fail = a.fail
    x = 0
    trans = 0
    out = []
    for i0 in range(n):
        c = t[i0]
        while True:
            x1, x2 = reps[x]
            trans += 1
            base = i0 - x
            if (x1 is None or t[base + x1] < c) and (x2 is None or c < t[base + x2]):
                x += 1
                break
            if x == 0:
                break
            x = fail[x]
            trans += 1
        if x == m:
            out.append(Occurrence(i0 - m + 2))
            x = fail[m]
            trans += 1
    return out, SearchStats(symbols_read=n, transitions_taken=trans)
