"""Morris-Pratt style automaton for order-isomorphic pattern search.

State j stands for "the last j text symbols are order-isomorphic to the
pattern prefix of length j".  The forward transition out of state j is
labelled by the rep pair of prefix j+1; a failure link sends j to the
longest proper prefix that is order-isomorphic to a suffix of prefix j
(its order-isomorphic border).  Search re-tests the held symbol after each
failure step, so every text symbol is read exactly once.  The build is the
same search run over the pattern itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import (Pattern, PatternLike, SearchStats, _occurrences, check_fits,
                   rep_table)


@dataclass(frozen=True)
class MpAutomaton:
    """Failure-link representation of the forward search automaton.

    ``fail[j]`` (for j in 1..m, index 0 unused) is the length of the
    longest proper order-isomorphic border of the length-j prefix; the
    forward label of state j is ``pattern.back[j]``.  Immutable after
    build, safe for concurrent searches.  ``build_ops`` counts the forward
    tests and failure steps of the construction, at most 3(m-1).
    """

    pattern: Pattern
    fail: tuple
    build_ops: int = field(repr=False)


def build_mp(p: PatternLike) -> MpAutomaton:
    """Build failure links by searching the pattern in itself.

    Reading symbols 2..m from state 0, the state after symbol j is the
    longest proper border of prefix j.  From state i, symbol j extends the
    border when it lies between the symbols ``pattern.back[i]`` addresses
    back from it, the test ``mp_search`` makes; otherwise the state follows
    its failure link, already set since it is below j.
    """
    pat = rep_table(p)
    vals = pat.values
    back = pat.back
    m = len(pat)
    fail = [0] * (m + 1)
    i = 0
    ops = 0
    for j in range(1, m):  # 0-based index of the symbol read
        c = vals[j]
        while True:  # state 0 extends on every symbol
            d1, d2 = back[i]
            ops += 1
            if (d1 is None or vals[j - d1] < c) and (d2 is None or c < vals[j - d2]):
                i += 1
                break
            i = fail[i]
            ops += 1
        fail[j + 1] = i
    return MpAutomaton(pat, tuple(fail), ops)


def mp_search(a: MpAutomaton, t: Sequence[int], make=_occurrences):
    """All occurrences of the automaton's pattern in t, with statistics.

    At state x reading t[i], the forward test compares t[i] against
    t[i-d1] and t[i-d2], where (d1, d2) = ``pattern.back[x]``; on failure
    the state follows its failure link and the same symbol is re-tested.
    A full match restarts from the border of the whole pattern, so
    overlapping occurrences are reported.
    transitions_taken counts every forward test and every failure step; it
    never exceeds 3n.  Only failure steps are counted in the loop: each
    one follows a failed test, every symbol ends with one passing test
    (state 0 always extends) and every match takes one step to the border,
    so transitions_taken = n + 2 * failure steps + matches.
    The loop notes each match's 0-based end index, and ``make`` (the
    core's ``_occurrences`` by default) makes the result from the run
    ``(ends, m, 0)`` after the scan.
    """
    m = len(a.pattern)
    n = len(t)
    check_fits(m, n)
    back = a.pattern.back
    fail = a.fail
    x = 0
    fails = 0
    ends = []
    for i0, c in enumerate(t):
        while True:  # state 0 extends on every symbol
            d1, d2 = back[x]
            if (d1 is None or t[i0 - d1] < c) and (d2 is None or c < t[i0 - d2]):
                break
            x = fail[x]
            fails += 1
        x += 1
        if x == m:
            ends.append(i0)
            x = fail[m]
    trans = n + 2 * fails + len(ends)
    return make([(ends, m, 0)]), SearchStats(symbols_read=n, transitions_taken=trans)
