"""Fully expanded search automaton, stored as failure links, drops and skips.

Where the failure-link automaton may re-test one text symbol several times,
this automaton resolves every (state, symbol-order-class) pair to a single
consuming transition.  At state x < m the x window symbols split the value
axis into x+1 order classes, and the forward label accepts one of them.
The window of fail[x] is the suffix of x's window, so every class of x lies
inside one class of fail[x], and every class c that x's forward label does
not accept goes where fail[x] sends it: delta(x, c) = delta(fail[x], c),
the identity behind the failure-link representation.  State x therefore
inherits its backward moves: first fail[x]'s forward label, with target
fail[x]+1, then fail[x]'s own moves.  Of these, only the one for
fail[x+1], where fail[x] sends x's forward class, can be left unreached
by the other classes of x; the build drops it then.  Unrolled, the moves
of x are the forward labels (back[z], z+1) of the states z = fail[x],
fail[fail[x]], ..., 0 in that order, less the targets dropped at x or at
a chain state passed before z.  So the automaton is stored in O(m): the
failure links and, per state, the one dropped target or None.  Each label
is the class of some state on x's failure chain, a hull of fail[x]'s
classes, so it may span classes of other targets: backward moves are
tested in chain (increasing jump) order after the forward move, and the
first that accepts is taken, which resolves every class to its own
target.  The accepting state m has no moves of its own; after a match the
search moves to fail[m], as the failure-link automaton does.

A move's test is the forward test of its chain state, so the search takes
exactly the states of ``mp_search``; a dropped entry is a test that would
fail, and skipping it is all the drops save.  Expanded, every state has
one backward move per distinct target of its non-forward classes.  Random
patterns stay within 4m-5 moves in total for m >= 2, but the expanded size
is not linear in general: a two-track zig-zag (both tracks rising, every
low below every high) has about m*m/8.

Interval labels are distances back from the symbol being read, the format
of ``Pattern.back``, and are resolved against the text while searching,
so moves never mention concrete values.  Testing backward moves in
increasing jump length amortizes the search to at most 2n transition
tests.

Once x's forward test fails, the states its walk tests next depend on x
alone, so the build stores the walk as a link, as ``build_mp`` stores
mp's strong failure links: ``skip[x]`` is the chain state tested next.  It
is fail[x] when x drops nothing, and fail[x]'s own link when x drops
fail[x]+1, the target of fail[x]'s forward test, since x's walk is then
fail[x]'s.  A state that carries its drop past fail[x] gets the escape
code m+1+x instead, and the search walks its moves with the pending drop
(``_finish_walk``).  Escapes are rare: 4 of the 34,952 states 1..m-1 of
the benchmark's random patterns.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .core import Pattern, SearchStats, _occurrences, check_fits
from .mp_automaton import MpAutomaton


class ForwardAutomaton(NamedTuple):
    """Interval-transition automaton over states 0..m.

    The forward label of state x is ``pattern.back[x]``; ``fail`` holds the
    failure links of the MP automaton and ``drop[x]`` the target of the
    one inherited move that is dead at x, or None.  Both have m+1 entries
    and hold the whole automaton; ``moves(x)`` expands a state's backward
    moves from them.  ``skip[x]`` (m+1 entries) is the state whose test
    follows x's failed forward test, the source of ``moves(x)``'s first
    move, or the escape code m+1+x when x's walk carries its drop past
    fail[x]; the search follows it.  build_forward fills all three up
    front, so the automaton is immutable and concurrent searches are
    safe.  ``build_ops`` counts the chain steps and tiling steps of the
    build's dead-entry checks; it never exceeds 3m.
    """

    pattern: Pattern
    fail: tuple
    drop: tuple
    skip: tuple
    build_ops: int

    def moves(self, x: int) -> Iterator[tuple]:
        """State x's backward moves ``(low, high, target)`` in test order.

        A move accepts t[i] when t[i-low] < t[i] < t[i-high] (None for an
        unbounded side).  Its interval holds every order class sent to
        ``target`` and may include classes of other targets, so it is
        taken only when no earlier move accepts.  State m has no moves:
        the search delegates it to fail[m].
        """
        if x == len(self.pattern):
            return
        back = self.pattern.back
        fail = self.fail
        drop = self.drop
        dropped = set()
        while x:
            dropped.add(drop[x])
            x = fail[x]
            if x + 1 not in dropped:
                yield (*back[x], x + 1)

    def transition_count(self) -> int:
        """Forward transitions plus all expanded backward ones."""
        return len(self.pattern) + sum(1 for x in range(len(self.fail))
                                       for _ in self.moves(x))


def build_forward(a: MpAutomaton) -> ForwardAutomaton:
    """Find the one dead inherited move of every state.

    A label bound is a distance back from the symbol being read (None for
    an unbounded side: below everything as a low end, above everything as
    a high end), so the moves of q = fail[x] hold at x unchanged.  The only
    one that may be dead at x is the move to fail[x+1], where q sends x's
    forward class; ``build_mp`` reached fail[x+1]-1 from q by failure
    steps, so it is on x's chain.  When a bound of that class lies outside
    q's window (a distance above q), the class of q around it holds other
    classes of x, which reach fail[x+1] too.  Otherwise the move is dead
    when x's forward class and the labels tested before it tile its label.
    Labels are classes of states on x's failure chain, so any two are
    nested or disjoint, and of two that share a low end the later one is
    the wider: mapping each low end to the last high end seen keeps the
    widest, and the tiling is a walk from low end to high end.  The chain
    walk from q down to fail[x+1]-1 takes at most fail[x] - fail[x+1] + 1
    steps, less than m over all states, and a tiling walk at most one step
    per label, so ``build_ops`` stays below 3m.

    ``skip`` starts as a copy of ``fail`` and changes only where a drop is
    set: to fail[x]'s own link when the drop is fail[x]+1, else to the
    escape code m+1+x.
    """
    pat = a.pattern
    back = pat.back
    fail = a.fail
    m = len(pat)
    drop = [None] * len(fail)
    skip = list(fail)
    ops = 0
    for x in range(1, m):
        q = fail[x]
        d1, d2 = back[x]
        if (d1 is None or d1 <= q) and (d2 is None or d2 <= q):
            shadowed = fail[x + 1]
            ends = {d1: d2}
            dropped = set()
            z = q
            while z + 1 != shadowed:
                ops += 1
                if z + 1 not in dropped:
                    low, high = back[z]
                    ends[low] = high
                dropped.add(drop[z])
                z = fail[z]
            low, high = back[z]
            end = low
            while end in ends:
                end = ends[end]
                ops += 1
                if end == high:
                    drop[x] = shadowed
                    skip[x] = skip[q] if shadowed == q + 1 else m + 1 + x
                    break
    return ForwardAutomaton(pat, fail, tuple(drop), tuple(skip), ops)


def forward_search(f: ForwardAutomaton, t: Sequence[int], make=_occurrences):
    """All occurrences of the automaton's pattern in t, with statistics.

    Each symbol first tries the forward transition, then the moves of the
    current state in chain (increasing jump) order; the first that
    accepts consumes the symbol.  The loop is ``mp_search``'s: a failed
    test at state x steps to ``f.skip[x]``, the chain state whose test
    comes next, and tests the symbol again.  An escape code (above m)
    ends the walk at once, since ``back`` is padded with labels that
    accept everything, and ``_finish_walk`` walks the moves of the state
    it names with their pending drops.  On reaching state m the match is
    recorded and the state moves to fail[m] before the next symbol, which
    costs no transition test.  transitions_taken counts every interval
    test and never exceeds 2n: every symbol takes one forward test,
    counted up front as n, and the loop counts the backward tests, the
    steps along ``skip`` less those to an escape code plus the tests of
    each finished walk.  As in ``mp_search``, the loop notes 0-based match
    ends and ``make`` makes the result after the scan.
    """
    m = len(f.pattern)
    n = len(t)
    check_fits(m, n)
    back = f.pattern.back + ((None, None),) * (m + 1)  # escape codes pass
    skip = f.skip
    fail_m = f.fail[m]
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
        if x >= m:
            if x == m:
                ends.append(i0)
                x = fail_m
            else:  # the step to the escape code made no test
                x, tests = _finish_walk(f, x - m - 2, t, i0, c)
                fails += tests - 1
    return make([(ends, m, 0)]), SearchStats(symbols_read=n, transitions_taken=n + fails)


def _finish_walk(f: ForwardAutomaton, x: int, t: Sequence[int], i0: int, c: int):
    """The state t[i0] = c reaches from state x once x's forward test failed.

    Walks ``moves(x)`` inline and returns the state with the number of
    tests made.  The chain state whose move a passed state dropped is kept
    in ``dead`` (-1 for none), and a set is made only when a second is
    pending.
    """
    back = f.pattern.back
    fail = f.fail
    drop = f.drop
    tests = 0
    dead = -1
    more = None
    while x:
        if drop[x] is not None:
            if dead < 0:
                dead = drop[x] - 1
            elif more is None:
                more = {drop[x] - 1}
            else:
                more.add(drop[x] - 1)
        x = fail[x]
        if x == dead:
            dead = -1
        elif more is None or x not in more:
            tests += 1
            d1, d2 = back[x]
            if (d1 is None or t[i0 - d1] < c) and (d2 is None or c < t[i0 - d2]):
                return x + 1, tests
    else:  # pragma: no cover - hulls cover every non-forward class
        raise AssertionError("no transition accepted a distinct symbol")
