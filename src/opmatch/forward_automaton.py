"""Fully expanded search automaton with interval-labelled backward moves.

Where the failure-link automaton may re-test one text symbol several times,
this automaton resolves every (state, symbol-order-class) pair to a single
consuming transition.  At state x < m the x prefix symbols split the value
axis into x+1 order classes; each class not accepted by the forward label
is sent to the target found by simulating the failure-link descent with a
virtual symbol planted inside that class.  Every distinct target gets one
backward transition labelled by the hull of its classes.  A hull may also
span classes of other targets: backward transitions are tested in list
order (increasing jump length) after the forward move, and the first that
accepts is taken, which resolves every class to its own target.  The
accepting state m has no transitions of its own; after a match the search
moves to fail[m], as the failure-link automaton does.  This keeps the total
within 4m-5 transitions for m >= 2.

Interval labels are stored as window positions and resolved against the
live text window while searching, so transitions never mention concrete
values.  Testing backward transitions in increasing jump length amortizes
the search to at most 2n transition tests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .core import (Occurrence, Pattern, PatternLongerThanText, SearchStats,
                   _rep0)
from .mp_automaton import MpAutomaton


class IntervalTransition(NamedTuple):
    """Backward move that accepts when window[low] < symbol < window[high].

    ``low``/``high`` are 1-based positions in the current window (None for
    an unbounded side); ``target`` is the state reached after consuming the
    symbol.  The interval is the hull of the order classes sent to
    ``target`` and may include classes of other targets, so it is taken
    only when no earlier transition of the state's list accepts.
    """

    low: Optional[int]
    high: Optional[int]
    target: int


@dataclass(frozen=True)
class ForwardAutomaton:
    """Interval-transition automaton over states 0..m.

    ``backward[x]`` lists state x's backward transitions in the order the
    search tests them; ``_rep0`` holds the forward labels as 0-based window
    positions.  build_forward fills both up front, so the automaton is
    immutable and concurrent searches are safe.
    """

    pattern: Pattern
    fail: tuple
    backward: tuple
    _rep0: list = field(repr=False)

    def transition_count(self) -> int:
        """Forward transitions plus all backward ones."""
        return len(self.pattern) + sum(len(lst) for lst in self.backward)


def _state_transitions(mp: MpAutomaton, d2: list, x: int, vals2: list,
                       positions: list) -> list:
    """Resolve all order classes of state x to one hull move per target.

    Classes are indexed 0..x in increasing value order; class r stands
    for a symbol falling between the (r-1)-th and r-th smallest window
    values (doubled-rank virtual value vals2[r-1] + 1, or below/above
    everything at the ends).  All classes descend the same failure
    chain, and at each chain state q the accepting classes form one
    contiguous range, so the descent processes whole index segments: a
    segment's part inside that range commits to target q+1, the rest
    falls through to the next chain state.  The committed parts of one
    chain state are stored as their hull, which lies inside q's
    accepting range; no class left for a later (lower) target can lie
    in it, so the first hull in list order that accepts a symbol is its
    class's own.  The descent visits targets in decreasing order, which
    is the increasing jump order the search tests them in.  State m
    gets no moves: the search delegates it to fail[m].
    """
    rep = mp.pattern.rep
    if x == len(rep):
        return []
    fail = mp.fail
    segments = []
    x1, x2 = rep[x]  # forward label of state x, its class gets no move
    if x1 is None:
        rf = 0
    elif x2 is None:
        rf = x
    else:
        rf = bisect_left(vals2, d2[x1]) + 1
    if rf > 0:
        segments.append((0, rf - 1))
    if rf < x:
        segments.append((rf + 1, x))
    hulls = []
    q = fail[x]
    while segments:
        if q == 0:
            hulls.append((segments[0][0], segments[-1][1], 1))
            break
        k, ell = rep[q]  # rep pair of prefix q+1
        base = x - q  # window position d maps to pattern position base+d
        # class r passes iff its virtual value lies in (w1, w2)
        if k is None:
            lo = 0
        else:
            lo = bisect_left(vals2, d2[base + k]) + 1
        if ell is None:
            hi = x
        else:
            hi = bisect_left(vals2, d2[base + ell])
        first = last = None
        remaining = []
        for a, b in segments:
            ca = a if a > lo else lo
            cb = b if b < hi else hi
            if ca <= cb:
                if first is None:
                    first = ca
                last = cb
                if a < ca:
                    remaining.append((a, ca - 1))
                if cb < b:
                    remaining.append((cb + 1, b))
            else:
                remaining.append((a, b))
        if first is not None:
            hulls.append((first, last, q + 1))
        segments = remaining
        q = fail[q]
    return [
        IntervalTransition(None if a == 0 else positions[a - 1],
                           None if b == x else positions[b],
                           target)
        for a, b, target in hulls
    ]


def build_forward(a: MpAutomaton) -> ForwardAutomaton:
    """Expand every state's backward transitions up front."""
    pat = a.pattern
    # doubled ranks by 1-based position; odd virtual values fall strictly
    # between two window values without ever colliding with one
    d2 = [0] + [2 * r for r in pat.ranks]
    vals2: list = []
    positions: list = []
    # state 0 needs no backward move: its forward label accepts anything
    backward = [[]]
    for x in range(1, len(pat) + 1):
        idx = bisect_left(vals2, d2[x])
        vals2.insert(idx, d2[x])
        positions.insert(idx, x)
        backward.append(_state_transitions(a, d2, x, vals2, positions))
    return ForwardAutomaton(pat, a.fail, tuple(backward), _rep0(pat))


def forward_search(f: ForwardAutomaton, t: Sequence[int]):
    """All occurrences of the automaton's pattern in t, with statistics.

    Each symbol first tries the forward transition, then the backward
    transitions of the current state in list (increasing jump) order; the
    first that accepts consumes the symbol.  On reaching state m the match
    is recorded and the state moves to fail[m] before the next symbol,
    which costs no transition test.  transitions_taken counts every
    interval test and never exceeds 2n.
    """
    m = len(f.pattern)
    n = len(t)
    if m > n:
        raise PatternLongerThanText(f"pattern length {m} exceeds text length {n}")
    reps = f._rep0
    backward = f.backward
    fail_m = f.fail[m]
    x = 0
    trans = 0
    out = []
    for i0 in range(n):
        c = t[i0]
        base = i0 - x
        x1, x2 = reps[x]
        trans += 1
        if (x1 is None or t[base + x1] < c) and (x2 is None or c < t[base + x2]):
            x += 1
            if x == m:
                out.append(Occurrence(i0 - m + 2))
                x = fail_m
            continue
        for low, high, target in backward[x]:
            trans += 1
            if (low is None or t[base + low - 1] < c) and \
               (high is None or c < t[base + high - 1]):
                x = target
                break
        else:  # pragma: no cover - hulls cover every non-forward class
            raise AssertionError("no transition accepted a distinct symbol")
    return out, SearchStats(symbols_read=n, transitions_taken=trans)
