"""Failure-link automaton: build correctness and linear-time search."""

from __future__ import annotations

import random

import pytest

from opmatch.bench import random_permutation
from opmatch.core import (Occurrence, PatternLongerThanText, naive_search,
                          rep_table)
from opmatch.mp_automaton import build_mp, mp_search

from conftest import oi_border_table, rank_patterns, random_distinct


def positions(occ):
    return [o.position for o in occ]


class TestBuildMp:
    def test_running_example(self):
        assert build_mp([4, 12, 6, 16, 10]).fail[1:] == (0, 1, 1, 2, 3)

    def test_ascending(self):
        assert build_mp([1, 2, 3, 4]).fail[1:] == (0, 1, 2, 3)

    def test_singleton(self):
        assert build_mp([7]).fail[1:] == (0,)

    def test_fail_below_state_index(self):
        a = build_mp([4, 12, 6, 16, 10])
        for j in range(1, len(a.pattern) + 1):
            assert a.fail[j] < j

    def test_matches_border_oracle_exhaustive(self):
        for m in range(1, 8):
            for perm in rank_patterns(m):
                assert build_mp(perm).fail[1:] == oi_border_table(perm)

    def test_matches_border_oracle_random(self):
        rng = random.Random(30)
        for _ in range(300):
            vals = random_distinct(rng, rng.randint(1, 256))
            a = build_mp(vals)
            assert a.fail[1:] == oi_border_table(vals)
            assert a.build_ops <= 3 * (len(vals) - 1)
        # shaped patterns whose borders are long, so the build walks long
        # failure chains: monotone, zig-zag and block-periodic ones
        for m in (2, 3, 17, 64, 255, 256):
            block = random_permutation(rng.randint(2, 6), rng.getrandbits(30))
            shaped = [list(range(m)), list(range(m, 0, -1)),
                      [k // 2 if k % 2 == 0 else m + k // 2 for k in range(m)],
                      [len(block) * (k // len(block)) + block[k % len(block)]
                       for k in range(m)]]
            for vals in shaped:
                a = build_mp(vals)
                assert a.fail[1:] == oi_border_table(vals), vals
                assert a.build_ops <= 3 * (m - 1), (vals, a.build_ops)

    def test_build_ops_linear(self):
        m = 5000
        a = build_mp(random_permutation(m, 3))
        assert a.build_ops <= 8 * m


class TestMpSearch:
    def test_running_example(self):
        a = build_mp([4, 12, 6, 16, 10])
        occ, stats = mp_search(a, (1, 4, 2, 5, 3, 6))
        assert occ == [Occurrence(1)]
        assert stats.symbols_read == 6

    def test_overlapping_matches(self):
        occ, _ = mp_search(build_mp([1, 2]), (1, 2, 3, 4))
        assert positions(occ) == [1, 2, 3]

    def test_no_descent(self):
        occ, _ = mp_search(build_mp([2, 1]), (1, 2, 3))
        assert occ == []

    def test_pattern_longer_than_text(self):
        with pytest.raises(PatternLongerThanText):
            mp_search(build_mp([1, 2]), (5,))

    def test_oracle_equality_exhaustive_small(self):
        rng = random.Random(31)
        for m in range(1, 5):
            for perm in rank_patterns(m):
                a = build_mp(perm)
                for _ in range(10):
                    t = random_permutation(32, rng.getrandbits(30))
                    occ, stats = mp_search(a, t)
                    assert positions(occ) == positions(naive_search(perm, t))
                    assert stats.transitions_taken <= 3 * 32

    def test_oracle_equality_fuzz(self):
        rng = random.Random(32)
        for _ in range(200):
            m = rng.randint(2, 64)
            n = rng.randint(2 * m, 2048)
            t = random_permutation(n, rng.getrandbits(30))
            p = rep_table(random_permutation(m, rng.getrandbits(30)))
            occ, stats = mp_search(build_mp(p), t)
            assert positions(occ) == positions(naive_search(p, t))
            assert stats.transitions_taken <= 3 * n
            assert stats.symbols_read == n

    def test_arbitrary_magnitudes(self):
        rng = random.Random(33)
        for _ in range(50):
            m = rng.randint(1, 12)
            n = rng.randint(m, 200)
            t = random_distinct(rng, n)
            p = random_distinct(rng, m)
            occ, _ = mp_search(build_mp(p), t)
            assert positions(occ) == positions(naive_search(p, t))
