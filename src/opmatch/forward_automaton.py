"""Fully expanded search automaton with interval-labelled backward moves.

Where the failure-link automaton may re-test one text symbol several times,
this automaton resolves every (state, symbol-order-class) pair to a single
consuming transition.  At state x < m the x window symbols split the value
axis into x+1 order classes, and the forward label accepts one of them.
The window of fail[x] is the suffix of x's window, so every class of x lies
inside one class of fail[x], and every class c that x's forward label does
not accept goes where fail[x] sends it: delta(x, c) = delta(fail[x], c),
the identity behind the failure-link representation.  State x therefore
inherits its backward moves: first fail[x]'s forward label, with target
fail[x]+1, then fail[x]'s own list.  Of these, only the one for
fail[x+1], where fail[x] sends x's forward class, can be left unreached
by the other classes of x; the build drops it then.  Each label is the
class of some state on x's failure chain, a hull of fail[x]'s classes, so
it may span classes of other targets: backward transitions are tested in
list order (increasing jump length) after the forward move, and the first
that accepts is taken, which resolves every class to its own target.  The
accepting state m has no transitions of its own; after a match the search
moves to fail[m], as the failure-link automaton does.

Every state gets one backward transition per distinct target of its
non-forward classes.  Random patterns stay within 4m-5 transitions in
total for m >= 2, but the size is not linear in general: a two-track
zig-zag (both tracks rising, every low below every high) has about m*m/8.

Interval labels are stored as distances back from the symbol being read,
the format of ``Pattern.back``, and resolved against the text while
searching, so transitions never mention concrete values.  Testing backward
transitions in increasing jump length amortizes the search to at most 2n
transition tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import NamedTuple, Optional, Sequence

from .core import Pattern, SearchStats, _occurrences, check_fits
from .mp_automaton import MpAutomaton


class IntervalTransition(NamedTuple):
    """Backward move that accepts t[i] when t[i-low] < t[i] < t[i-high].

    ``low``/``high`` are distances back from the symbol t[i] being read, as
    in ``Pattern.back`` (None for an unbounded side); ``target`` is the
    state reached after consuming the symbol.  The interval holds every
    order class sent to ``target`` and may include classes of other
    targets, so it is taken only when no earlier transition of the state's
    list accepts.
    """

    low: Optional[int]
    high: Optional[int]
    target: int


@dataclass(frozen=True)
class ForwardAutomaton:
    """Interval-transition automaton over states 0..m.

    ``backward[x]`` lists state x's backward transitions in the order the
    search tests them; the forward label of state x is ``pattern.back[x]``.
    build_forward fills every list up front, so the automaton is immutable
    and concurrent searches are safe.  ``build_ops`` counts the
    entries the build copies from failure links plus the entries and steps
    of its dead-entry checks; it never exceeds 3 * transition_count().
    """

    pattern: Pattern
    fail: tuple
    backward: tuple
    build_ops: int = field(default=0, repr=False)

    def transition_count(self) -> int:
        """Forward transitions plus all backward ones."""
        return len(self.pattern) + sum(len(lst) for lst in self.backward)


def build_forward(a: MpAutomaton) -> ForwardAutomaton:
    """Inherit every state's backward transitions from its failure link.

    A label bound is a distance back from the symbol being read (None for
    an unbounded side: below everything as a low end, above everything as
    a high end), so the list of q = fail[x] holds at x unchanged, and x's
    list shares q's transition objects.  The only entry that may be dead
    at x is the one for fail[x+1], where q sends x's forward class.  When
    a bound of that class lies outside q's window (a distance above q),
    the class of q around it holds other classes of x, which reach
    fail[x+1] too.  Otherwise the entry is dead when x's forward class and
    the labels listed before it tile its label.  Labels
    are classes of states on x's failure chain, so any two are nested or
    disjoint, and of two that share a low end the later one is the wider:
    mapping each low end to the last high end seen keeps the widest, and
    the tiling is a walk from low end to high end.
    """
    pat = a.pattern
    back = pat.back
    fail = a.fail
    backward: list = [[]]
    ops = 0
    for x in range(1, len(pat)):
        q = fail[x]
        moves = [IntervalTransition(*back[q], q + 1)] + backward[q]
        ops += len(moves)
        d1, d2 = back[x]
        if (d1 is None or d1 <= q) and (d2 is None or d2 <= q):
            shadowed = fail[x + 1]
            ends = {d1: d2}
            for i, (low, high, target) in enumerate(moves):
                if target == shadowed:
                    break
                ends[low] = high
            ops += i
            end = low
            while end in ends:
                end = ends[end]
                ops += 1
                if end == high:
                    del moves[i]
                    break
        backward.append(moves)
    # state m has no moves: the search delegates it to fail[m]
    backward.append([])
    return ForwardAutomaton(pat, fail, tuple(backward), ops)


def forward_search(f: ForwardAutomaton, t: Sequence[int]):
    """All occurrences of the automaton's pattern in t, with statistics.

    Each symbol first tries the forward transition, then the backward
    transitions of the current state in list (increasing jump) order; the
    first that accepts consumes the symbol.  On reaching state m the match
    is recorded and the state moves to fail[m] before the next symbol,
    which costs no transition test.  transitions_taken counts every
    interval test and never exceeds 2n: every symbol takes one forward
    test, counted up front as n, and the loop counts the backward tests.
    As in ``mp_search``, the loop notes 0-based match ends and the
    occurrences are made after the scan.
    """
    m = len(f.pattern)
    n = len(t)
    check_fits(m, n)
    back = f.pattern.back
    backward = f.backward
    fail_m = f.fail[m]
    x = 0
    trans = n
    ends = []
    for i0, c in enumerate(t):
        d1, d2 = back[x]
        if (d1 is None or t[i0 - d1] < c) and (d2 is None or c < t[i0 - d2]):
            x += 1
            if x == m:
                ends.append(i0)
                x = fail_m
            continue
        for low, high, target in backward[x]:
            trans += 1
            if (low is None or t[i0 - low] < c) and \
               (high is None or c < t[i0 - high]):
                x = target
                break
        else:  # pragma: no cover - hulls cover every non-forward class
            raise AssertionError("no transition accepted a distinct symbol")
    pairs = zip(map(add, ends, repeat(2 - m)), repeat(0))  # end i0: start i0 - m + 2
    return _occurrences(pairs), SearchStats(symbols_read=n, transitions_taken=trans)
