"""Morris-Pratt style automaton for order-isomorphic pattern search.

State j stands for "the last j text symbols are order-isomorphic to the
pattern prefix of length j".  The forward transition out of state j is
labelled by the rep pair of prefix j+1; a failure link sends j to the
longest proper prefix that is order-isomorphic to a suffix of prefix j
(its order-isomorphic border).  Search re-tests the held symbol after each
failure step, so every text symbol is read exactly once.  The build is the
same search run over the pattern itself.

A failed test at state x compares the held symbol with the two text
symbols ``back[x]`` addresses, so a state q on x's failure chain with
``back[q] == back[x]`` would make the same comparisons and fail again.
The search and the build therefore step along strong failure links
(Knuth, Morris and Pratt, SIAM J. Comput. 1977): ``skip[x]`` is the first
state on x's failure chain whose rep pair differs from x's.  They reach
the same state after every symbol as a walk along ``fail``, with fewer
tests.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .core import (Pattern, PatternLike, SearchStats, _occurrences, check_fits,
                   rep_table)


class MpAutomaton(NamedTuple):
    """Failure-link representation of the forward search automaton.

    ``fail[j]`` (for j in 1..m, index 0 unused) is the length of the
    longest proper order-isomorphic border of the length-j prefix; the
    forward label of state j is ``pattern.back[j]``.  ``skip[j]`` (for j in
    0..m) is the strong failure link the walks follow: the first state on
    j's failure chain whose label differs from ``back[j]`` for j < m, and
    ``fail[m]`` for j = m; ``skip[0]`` is unused.  Immutable after build,
    safe for concurrent searches.  ``build_ops`` counts the forward tests
    and failure steps of the construction, at most 3(m-1).
    """

    pattern: Pattern
    fail: tuple
    skip: tuple
    build_ops: int


def build_mp(p: PatternLike) -> MpAutomaton:
    """Build failure links by searching the pattern in itself.

    Reading symbols 2..m from state 0, the state after symbol j is the
    longest proper border of prefix j.  From state i, symbol j extends the
    border when it lies between the symbols ``pattern.back[i]`` addresses
    back from it, the test ``mp_search`` makes; otherwise the state follows
    its strong failure link, already set since it is below j.

    The same loop sets the strong links.  Before symbol j is read, i is
    fail[j], and symbol j passes the test of its own label, so a first
    test that fails shows ``back[i] != back[j]`` and skip[j] = i; only when
    it passes are the labels compared.  build_ops counts the tests and
    failure steps: one passing test per symbol, and one failing test per
    failure step, so (m-1) + 2 * failure steps; the test at state 0,
    which always passes, is counted but not made.
    """
    pat = rep_table(p)
    vals = pat.values
    back = pat.back
    m = len(pat)
    fail = [0] * (m + 1)
    skip = [0] * (m + 1)
    i = 0
    fails = 0
    for j in range(1, m):  # 0-based index of the symbol read
        if i:  # state 0 extends on every symbol, and skip[j] stays 0
            c = vals[j]
            bi = back[i]
            d1, d2 = bi
            if (d1 is None or vals[j - d1] < c) and (d2 is None or c < vals[j - d2]):
                skip[j] = skip[i] if bi == back[j] else i
            else:
                skip[j] = i
                while True:
                    i = skip[i]
                    fails += 1
                    d1, d2 = back[i]
                    if ((d1 is None or vals[j - d1] < c)
                            and (d2 is None or c < vals[j - d2])):
                        break
        i += 1
        fail[j + 1] = i
    skip[m] = fail[m]
    return MpAutomaton(pat, tuple(fail), tuple(skip), m - 1 + 2 * fails)


def mp_search(a: MpAutomaton, t: Sequence[int], make=_occurrences):
    """All occurrences of the automaton's pattern in t, with statistics.

    At state x reading t[i], the forward test compares t[i] against
    t[i-d1] and t[i-d2], where (d1, d2) = ``pattern.back[x]``; on failure
    the state follows its strong failure link (``a.skip``) and the same
    symbol is re-tested.  A full match restarts from the border of the
    whole pattern, so overlapping occurrences are reported.
    transitions_taken counts every forward test and every failure step
    (a step along ``skip``); it never exceeds 3n.  Only failure steps are
    counted in the loop: each one follows a failed test, every symbol ends
    with one passing test (state 0 always extends) and every match takes
    one step to the border, so
    transitions_taken = n + 2 * failure steps + matches.
    The loop notes each match's 0-based end index, and ``make`` (the
    core's ``_occurrences`` by default) makes the result from the run
    ``(ends, m, 0)`` after the scan.
    """
    m = len(a.pattern)
    n = len(t)
    check_fits(m, n)
    back = a.pattern.back
    skip = a.skip
    x = 0
    fails = 0
    ends = []
    for i0, c in enumerate(t):
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
    trans = n + 2 * fails + len(ends)
    return make([(ends, m, 0)]), SearchStats(symbols_read=n, transitions_taken=trans)
