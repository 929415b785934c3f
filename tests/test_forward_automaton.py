"""Expanded automaton: construction vs brute force, size and build work.

Every state's moves, state m included, are checked one order class at a
time against a definitional brute-force simulation: one step taken on a
concrete window (forward label first, then the first move of ``moves(x)``
that accepts; state m first moves to fail[m]) must reach the brute-force
target.  The size tests assert the documented 4m-5 transition bound on
random patterns; the two-track zig-zag expands to about m*m/8 transitions,
but what the build stores and the work it does stay linear in m.
"""

from __future__ import annotations

import random

from opmatch.bench import random_permutation
from opmatch.core import Occurrence, rep_table
from opmatch.forward_automaton import _finish_walk, build_forward, forward_search
from opmatch.mp_automaton import build_mp

from conftest import (chain_shapes, converging_zigzag, oracle_oi, rank_patterns,
                      two_track_zigzag)


def brute_class_targets(pat, x):
    """Target of every order class of state x via definitional OI simulation.

    For every order class a representative value is materialized as a
    fraction and the longest pattern prefix order-isomorphic to a suffix of
    prefix-x plus that value is found by exhaustive checking.  Returns the
    (representative, target) pairs in increasing value order and the index
    of the class the forward label accepts (None for x = m).
    """
    vals = pat.values
    m = len(vals)
    win = sorted(range(1, x + 1), key=lambda pos: vals[pos - 1])
    wvals = [vals[p - 1] for p in win]
    classes = []
    for r in range(x + 1):
        if r == 0:
            alpha = wvals[0] - 0.5
        elif r == x:
            alpha = wvals[-1] + 0.5
        else:
            alpha = (wvals[r - 1] + wvals[r]) / 2
        s = list(vals[:x]) + [alpha]
        q = 0
        for length in range(min(m, x + 1), 0, -1):
            if oracle_oi(vals[:length], s[-length:]):
                q = length
                break
        classes.append((alpha, q))
    forward_class = None
    if x < m:
        d1, d2 = pat.back[x]
        if d1 is None:
            forward_class = 0
        elif d2 is None:
            forward_class = x
        else:
            forward_class = win.index(x + 1 - d1) + 1
        assert classes[forward_class][1] == x + 1
    return classes, forward_class


def step(auto, window, c):
    """State reached from state len(window) on symbol c, as the search moves.

    State m first moves to fail[m] on the last fail[m] window symbols; then
    the forward label is tried, then the moves of ``moves(x)`` in order,
    and the first that accepts is taken.  A bound d is a distance
    back from c, which follows the window, so it names window[x - d].
    """
    x = len(window)
    if x == len(auto.pattern):
        x = auto.fail[x]
        window = window[len(window) - x:]
    d1, d2 = auto.pattern.back[x]
    if (d1 is None or window[x - d1] < c) and (d2 is None or c < window[x - d2]):
        return x + 1
    for low, high, target in auto.moves(x):
        if (low is None or window[x - low] < c) and \
           (high is None or c < window[x - high]):
            return target
    raise AssertionError(f"no transition of state {x} accepted {c}")


def assert_matches_brute(pat, f, exact_targets=False):
    """Every state's step on every order class reaches the brute target.

    With exact_targets, every state x < m must also have a move for
    exactly the brute targets of its non-forward classes, so no state keeps
    a move that no class takes.
    """
    m = len(pat)
    assert list(f.moves(m)) == []
    for x in range(1, m + 1):
        targets = [target for _, _, target in f.moves(x)]
        assert len(targets) == len(set(targets)), (pat.values, x)
        classes, forward_class = brute_class_targets(pat, x)
        for alpha, want in classes:
            assert step(f, pat.values[:x], alpha) == want, (pat.values, x, alpha)
        if exact_targets and x < m:
            assert set(targets) == {target for r, (_, target) in enumerate(classes)
                                    if r != forward_class}, (pat.values, x)


class TestBuildForward:
    def test_singleton_pattern(self):
        # state 1 = m delegates to fail[1] = 0, whose forward label accepts
        # every symbol: the forward move is the only transition
        f = build_forward(build_mp([7]))
        assert list(f.moves(1)) == []
        assert f.transition_count() == 1
        assert step(f, (7,), 3) == step(f, (7,), 9) == 1

    def test_ascending_pair_merged(self):
        # from state 2 the two classes below window[2] share target 1; they
        # merge through state fail[2] = 1, whose one move covers both.
        # State 1 inherits that move from state 0, whose forward label
        # accepts everything; its forward move takes the class above first
        f = build_forward(build_mp([1, 2]))
        assert list(f.moves(2)) == []
        assert list(f.moves(1)) == [(None, None, 1)]
        assert [step(f, (1, 2), c) for c in (0.5, 1.5, 2.5)] == [1, 1, 2]
        assert f.transition_count() == 3

    def test_backward_sorted_by_increasing_jump(self):
        rng = random.Random(40)
        for _ in range(50):
            m = rng.randint(2, 24)
            f = build_forward(build_mp(random_permutation(m, rng.getrandbits(30))))
            for x in range(1, m + 1):
                jumps = [x - target for _, _, target in f.moves(x)]
                assert jumps == sorted(jumps)
                assert all(j >= 0 for j in jumps)

    def test_matches_brute_simulation_exhaustive(self):
        for m in range(1, 7):
            for perm in rank_patterns(m):
                pat = rep_table(perm)
                assert_matches_brute(pat, build_forward(build_mp(pat)))

    def test_matches_brute_simulation_random(self):
        rng = random.Random(41)
        for _ in range(40):
            m = rng.randint(2, 40)
            pat = rep_table(random_permutation(m, rng.getrandbits(30)))
            assert_matches_brute(pat, build_forward(build_mp(pat)))
        # long failure chains: these exercise the entry a state drops
        # because only its forward class would reach it
        for m in (9, 20, 40):
            for vals in chain_shapes(m) + [two_track_zigzag(m)]:
                pat = rep_table(vals)
                assert_matches_brute(pat, build_forward(build_mp(pat)),
                                     exact_targets=True)

    def test_skip_is_the_first_test_of_each_walk(self):
        # skip[x] is the chain state whose test follows x's failed forward
        # test, the source of the first move moves(x) yields; an escape
        # code m+1+z stands for the walk of a state z that carries its drop
        # past fail[z], and x's moves are then z's
        inputs = [p for m in range(1, 9) for p in rank_patterns(m)]
        for m in (16, 64, 1024):
            inputs += chain_shapes(m) + [two_track_zigzag(m), converging_zigzag(m)]
        escapes = 0
        for vals in inputs:
            m = len(vals)
            f = build_forward(build_mp(vals))
            assert len(f.skip) == m + 1
            for x in range(1, m):
                s = f.skip[x]
                if s <= m:
                    assert next(f.moves(x))[2] == s + 1, (vals[:10], x)
                else:
                    escapes += 1
                    z = s - m - 1
                    assert f.drop[z] not in (None, f.fail[z] + 1), (vals[:10], x)
                    assert list(f.moves(x)) == list(f.moves(z)), (vals[:10], x)
        assert escapes

    def test_finish_walk_takes_the_first_accepting_move(self):
        # every escape state of every pattern with m <= 8, and one where two
        # drops are pending at once: on each non-forward class, the escape
        # walk reaches the brute target after as many tests as moves(x)
        # tries up to its first accepting move
        inputs = [p for m in range(1, 9) for p in rank_patterns(m)]
        inputs.append((10, 20, 0, 30, 40, 60, 70, 50, 81, 90, 130, 120))
        escapes = 0
        for vals in inputs:
            pat = rep_table(vals)
            m = len(pat)
            f = build_forward(build_mp(pat))
            for x in range(1, m):
                if f.skip[x] <= m:
                    continue
                escapes += 1
                window = list(pat.values[:x])
                classes, forward_class = brute_class_targets(pat, x)
                for r, (alpha, want) in enumerate(classes):
                    if r == forward_class:
                        continue
                    tests = next(k for k, (low, high, _) in enumerate(f.moves(x), 1)
                                 if (low is None or window[x - low] < alpha)
                                 and (high is None or alpha < window[x - high]))
                    assert _finish_walk(f, x, window + [alpha], x, alpha) == \
                        (want, tests), (vals, x, alpha)
        assert escapes

    def test_build_ops_linear(self):
        # the two-track zig-zag expands to about m*m/8 transitions (8.4
        # million at m = 8192, so transition_count() is not called here),
        # yet the build stores m+1 links and drops and walks O(m) steps
        rng = random.Random(45)
        inputs = [two_track_zigzag(m) for m in (2, 17, 256, 1024, 8192)]
        inputs += [converging_zigzag(m) for m in (17, 1024, 8192)]
        inputs += [random_permutation(m, rng.getrandbits(30))
                   for m in (1, 2, 7, 64, 1024)]
        inputs += chain_shapes(300) + chain_shapes(4096)
        for vals in inputs:
            m = len(vals)
            f = build_forward(build_mp(vals))
            assert len(f.fail) == len(f.drop) == m + 1
            assert f.build_ops <= 3 * m, (vals[:10], m, f.build_ops)

    def test_build_ops_linear_on_long_failure_chains(self):
        for m in (256, 1024, 4096):
            for vals in chain_shapes(m):
                f = build_forward(build_mp(vals))
                assert f.build_ops <= 8 * m, (vals[:10], m, f.build_ops)

    def test_build_ops_at_most_three_per_transition(self):
        # the two-track zig-zag's automaton itself has about m*m/8
        # transitions; the build stays within three steps per transition
        rng = random.Random(45)
        inputs = [two_track_zigzag(m) for m in (2, 17, 256, 1024)]
        inputs += [random_permutation(m, rng.getrandbits(30))
                   for m in (1, 2, 7, 64, 1024)]
        inputs += chain_shapes(300)
        for vals in inputs:
            f = build_forward(build_mp(vals))
            assert f.build_ops <= 3 * f.transition_count(), (vals[:10], f.build_ops)

    def test_linear_size_envelope(self):
        rng = random.Random(42)
        for m in (2, 5, 10, 50, 200, 1000):
            for _ in range(20):
                f = build_forward(build_mp(random_permutation(m, rng.getrandbits(30))))
                assert f.transition_count() <= 4 * m - 5

    def test_running_example_count(self):
        # m forward moves plus one backward move per distinct brute-force
        # target of the non-forward classes of every state x < m
        pat = rep_table([4, 12, 6, 16, 10])
        m = len(pat)
        want = m
        for x in range(1, m):
            classes, forward_class = brute_class_targets(pat, x)
            want += len({target for r, (_, target) in enumerate(classes)
                         if r != forward_class})
        f = build_forward(build_mp(pat))
        assert f.transition_count() == want
        assert want <= 4 * m - 5


class TestForwardSearch:
    def test_running_example(self):
        f = build_forward(build_mp([4, 12, 6, 16, 10]))
        occ, _ = forward_search(f, (1, 4, 2, 5, 3, 6))
        assert occ == [Occurrence(1)]
