"""Failure-link automaton: build correctness; searches are in test_engines."""

from __future__ import annotations

import random

from opmatch.bench import random_permutation
from opmatch.core import Occurrence
from opmatch.mp_automaton import build_mp, mp_search

from conftest import (block_periodic, chain_shapes, converging_zigzag, counted_mp,
                      oi_border_table, pairs_by_insertion, rank_patterns,
                      random_distinct, strong_links, two_track_zigzag)


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
            for vals in (list(range(m)), list(range(m, 0, -1)), two_track_zigzag(m),
                         block_periodic(m, block)):
                a = build_mp(vals)
                assert a.fail[1:] == oi_border_table(vals), vals
                assert a.build_ops <= 3 * (m - 1), (vals, a.build_ops)

    def test_build_ops_linear(self):
        m = 5000
        a = build_mp(random_permutation(m, 3))
        assert a.build_ops <= 8 * m


def assert_skip_by_definition(vals):
    """skip against strong_links, and the build's count against a search of
    the pattern's own symbols 2..m along those links."""
    a = build_mp(vals)
    rep = pairs_by_insertion(a.pattern.values)
    m = len(vals)
    assert list(a.skip) == strong_links(rep, a.fail), vals
    assert a.skip[0] == 0 and a.skip[m] == a.fail[m]
    assert a.build_ops == counted_mp(a, a.pattern.values[1:])[1], vals


class TestSkipLinks:
    def test_running_example(self):
        # no state's border has the state's pair, so skip is fail
        a = build_mp([4, 12, 6, 16, 10])
        assert a.skip == a.fail == (0, 0, 1, 1, 2, 3)

    def test_zigzag_skips_to_one(self):
        # from state 4 on, each state has the pair of its border two below,
        # so its link walks down to state 2 or 3 and takes their link, 1
        a = build_mp([2, 1, 4, 3, 6, 5, 8, 7])
        assert a.fail == (0, 0, 1, 1, 2, 3, 4, 5, 6)
        assert a.skip == (0, 0, 1, 1, 1, 1, 1, 1, 6)

    def test_ascending_skips_to_zero(self):
        # every state of an ascending pattern tests "above the last symbol"
        a = build_mp(range(1, 7))
        assert a.skip == (0, 0, 0, 0, 0, 0, 5)

    def test_exhaustive(self):
        for m in range(1, 8):
            for perm in rank_patterns(m):
                assert_skip_by_definition(perm)

    def test_shaped(self):
        for m in (2, 3, 8, 17, 64, 255):
            for vals in chain_shapes(m) + [two_track_zigzag(m), converging_zigzag(m)]:
                assert_skip_by_definition(vals)

    def test_random(self):
        rng = random.Random(29)
        for _ in range(300):
            assert_skip_by_definition(random_distinct(rng, rng.randint(1, 256)))


class TestMpSearch:
    def test_running_example(self):
        a = build_mp([4, 12, 6, 16, 10])
        occ, stats = mp_search(a, (1, 4, 2, 5, 3, 6))
        assert occ == [Occurrence(1)]
        assert stats.symbols_read == 6
