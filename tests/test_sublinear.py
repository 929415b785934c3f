"""Backward-window engine: window geometry, factor index, skipped windows."""

from __future__ import annotations

import random
from math import factorial, log2

import pytest

from opmatch.bench import random_permutation
from opmatch.core import naive_search, rank_normalize, rep_table
from opmatch.sublinear import (build_factor_tree, choose_b, search_or_fallback,
                               sublinear_search)

from conftest import (converging_zigzag, oracle_insertion_ranks, oracle_oi,
                      oracle_ranks, plant_copies, positions, random_distinct)


def match_depth(levels, symbols):
    """How many of the given symbols (in read order) the index accepts."""
    code = 0
    for depth, rank in enumerate(oracle_insertion_ranks(symbols)):
        code = code * (depth + 1) + rank
        if code not in levels[depth]:
            return depth
    return len(symbols)


def oracle_factor_tree(values, b):
    """Per-depth code sets of the reversed pattern's length-b factors, from
    definitions: code_d = code_{d-1} * (d+1) + insertion rank of symbol d."""
    rev = list(values)[::-1]
    levels = [set() for _ in range(b)]
    for s in range(len(rev) - b + 1):
        code = 0
        for depth, rank in enumerate(oracle_insertion_ranks(rev[s:s + b])):
            code = code * (depth + 1) + rank
            levels[depth].add(code)
    return tuple(frozenset(level) for level in levels)


class TestChooseB:
    def test_m_1024(self):
        assert choose_b(1024) == 11

    def test_m_16(self):
        assert choose_b(16) == 7

    def test_small_m_declines(self):
        assert choose_b(8) is None
        assert choose_b(15) is None

    def test_b_at_most_half(self):
        for m in [*range(16, 3000, 7), *range(3000, 2 * 10**6, 9973), 2 * 10**6]:
            b = choose_b(m)
            assert b is not None and 2 * b <= m


class TestFactorTree:
    def test_ascending_pattern_single_path(self):
        assert build_factor_tree([1, 2, 3, 4], 2) == (frozenset({0}), frozenset({0}))

    def test_two_shape_classes(self):
        levels = build_factor_tree([4, 12, 6, 16, 10], 2)
        assert len(levels) == 2
        assert len(levels[0]) == 1 and len(levels[1]) == 2

    def test_b_one_accepts_any_symbol(self):
        assert build_factor_tree([5, 1, 3], 1) == (frozenset({0}),)

    def test_factor_length_out_of_range(self):
        for b in (-1, 0, 4):
            with pytest.raises(ValueError):
                build_factor_tree([5, 1, 3], b)

    def test_level_sizes_bounded(self):
        # level d holds at most (d+1)! codes (the insertion-rank words of
        # length d+1) and at most one per factor start
        for m in (16, 64, 1024, 4096):
            b = choose_b(m)
            for vals in (random_permutation(m, m), list(range(m)),
                         converging_zigzag(m)):
                levels = build_factor_tree(vals, b)
                assert len(levels) == b
                for d, level in enumerate(levels):
                    assert 1 <= len(level) <= min(factorial(d + 1), m - b + 1)
                    assert all(0 <= code < factorial(d + 1) for code in level)

    def test_equals_tree_built_from_definitions(self):
        rng = random.Random(63)
        lengths = [1, 2, 3, 5, 15, 16, 17, 64, 300,
                   *(rng.randint(4, 300) for _ in range(6))]
        for m in lengths:
            shapes = {
                "random": random_distinct(rng, m, -10**12, 10**12),
                "ascending": list(range(m)),
                "descending": list(range(m, 0, -1)),
                "zigzag": converging_zigzag(m),
            }
            widths = {b for b in (1, 2, choose_b(m), m)
                      if b is not None and b <= m}
            for kind, vals in shapes.items():
                for b in sorted(widths):
                    assert build_factor_tree(vals, b) == oracle_factor_tree(vals, b), \
                        (kind, m, b)

    def test_values_and_their_ranks_give_one_index(self):
        # the index folds comparisons of the pattern's values only, so
        # negative and 60-bit values index as their rank normal form does
        rng = random.Random(67)
        for _ in range(200):
            m = rng.randint(16, 300)
            vals = random_distinct(rng, m, -2**60, 2**60)
            b = choose_b(m)
            assert build_factor_tree(vals, b) == build_factor_tree(rank_normalize(vals), b)

    def test_numpy_pattern_folds_int_codes(self):
        # rep_table makes every value an int, so a numpy pattern indexes as
        # its tuple does, with int codes: numpy.int64 codes fold slower and
        # wrap from b = 21 on, where a descending pattern reaches 21! - 1
        np = pytest.importorskip("numpy")
        for vals, b in ((random_permutation(1024, 68), choose_b(1024)),
                        (tuple(range(24, 0, -1)), 24)):
            p_np = np.array(vals) * 3 - 7
            assert all(type(v) is int for v in rep_table(p_np).values)
            levels = build_factor_tree(p_np, b)
            assert levels == build_factor_tree(tuple(map(int, p_np)), b)
            assert all(type(code) is int for level in levels for code in level)

    def test_accepts_exactly_reversed_factors(self):
        rng = random.Random(60)
        for _ in range(40):
            m = rng.randint(4, 24)
            b = rng.randint(1, m // 2)
            vals = random_permutation(m, rng.getrandbits(30))
            tree = build_factor_tree(vals, b)
            rev = vals[::-1]
            factors = [rev[s:s + b] for s in range(m - b + 1)]
            # every factor of the reversed pattern walks to depth b
            for f in factors:
                assert match_depth(tree, f) == b
            # random words are accepted iff shape-equal to some factor
            for _ in range(20):
                w = random_permutation(b, rng.getrandbits(30))
                accepted = match_depth(tree, w) == b
                assert accepted == any(oracle_oi(w, f) for f in factors)


def filter_runs(values, t):
    """How many MP runs the up/down filter makes, from its hand-off rule.

    A run starts at a candidate, a start where the text's up/down code
    holds the pattern's.  MP's state after symbol i0 is the length of the
    longest suffix of the run's symbols up to i0 that is order-isomorphic
    to a proper prefix of the pattern.  Once it is 1 after a symbol past the last
    candidate the run reached, the run reads on if i0 is a candidate and
    otherwise stops, and the next run starts at the next candidate.
    """
    def code(seq):
        return bytes(a < b for a, b in zip(seq, seq[1:]))

    m = len(values)
    pcode, tcode = code(values), code(t)
    runs = 0
    s = tcode.find(pcode)
    while s >= 0:
        runs += 1
        nxt = s
        for i0 in range(s, len(t)):
            state = max(k for k in range(1, m) if i0 - k + 1 >= s
                        and oracle_oi(t[i0 - k + 1:i0 + 1], values[:k]))
            if state == 1 and nxt < i0:
                nxt = tcode.find(pcode, i0)
                if nxt != i0:
                    break
        else:
            nxt = -1
        s = nxt
    return runs


class TestSublinearSearch:
    def test_pattern_is_text(self):
        # a single window, recognized, verifying exactly one start
        p = random_permutation(32, 3)
        occ, stats = sublinear_search(p, p)
        assert positions(occ) == [1]
        assert stats.verifications == 1

    def test_short_patterns_search_forward(self):
        # below m = 16 there is no backward read length; mp (m = 5) and the
        # up/down filter (m = 8) answer instead
        rng = random.Random(64)
        for m in (5, 8):
            values = random_permutation(m, 40 + m)
            t = plant_copies(rng, values, random_permutation(500, 50 + m))
            occ, _ = sublinear_search(values, t)
            assert occ and occ == naive_search(values, t), m

    def test_fallback_helper_adds_whether_it_searched_forward(self):
        # on both sides of m = 6 (mp, filter) and m = 16 (filter, index)
        rng = random.Random(66)
        t = random_permutation(2000, 61)
        for m in (5, 6, 15, 16, 40):
            p = random_permutation(m, 62 + m)
            tm = plant_copies(rng, p, t)
            assert search_or_fallback(p, tm) == (*sublinear_search(p, tm),
                                                 choose_b(m) is None), m

    def test_fallback_helper_routes_to_mp(self):
        t = random_permutation(256, 4)
        occ, stats, fell_back = search_or_fallback([4, 12, 6, 16, 10], t)
        assert fell_back
        assert positions(occ) == positions(naive_search([4, 12, 6, 16, 10], t))
        assert stats.symbols_read == len(t)  # below the filter's m = 6, mp reads all

    def test_each_regime_edge_runs_its_runner(self):
        # mp up to m = 5, the up/down filter from FILTER_MIN_M = 6 to 15,
        # the factor index from m = 16, on one text holding copies of all
        rng = random.Random(67)
        patterns = {m: random_permutation(m, 80 + m) for m in (5, 6, 15, 16)}
        t = random_permutation(3000, 81)
        for p in patterns.values():
            t = oracle_ranks(plant_copies(rng, p, t))
        n = len(t)
        for m, p in patterns.items():
            occ, stats = sublinear_search(p, t)
            want = naive_search(p, t)
            assert want and occ == want, m
            if m == 5:
                assert stats.symbols_read == n and stats.verifications == 0
            elif m < 16:
                assert stats.verifications == filter_runs(p, t) >= 1, m
                assert stats.symbols_read < n, m
            else:
                assert stats.transitions_taken == 0

    def test_filter_reads_nothing_without_candidates(self):
        # a near-miss pattern (seven rises, then a fall) has no candidate in
        # a monotone text, so MP never starts and no symbol is counted
        t = tuple(range(1, 1001))
        occ, stats, fell_back = search_or_fallback([2, 3, 4, 5, 6, 7, 8, 1], t)
        assert fell_back and occ == []
        assert stats.symbols_read == 0 and stats.verifications == 0

    def test_ranges_tile_the_text(self):
        # consecutive verification ranges are disjoint and cover all starts
        for m, n in ((16, 16), (16, 100), (32, 257), (64, 1000)):
            b = choose_b(m)
            shift = m - b + 1
            covered = []
            e = m
            while e <= n:
                covered.append((e - m + 1, min(e - b + 1, n - m + 1)))
                e += shift
            flat = [s for lo, hi in covered for s in range(lo, hi + 1)]
            assert flat == list(range(1, n - m + 2))

    def test_rejected_windows_are_safe_to_skip(self):
        # when the backward read is rejected, no occurrence overlaps the
        # window's tail while starting inside the verification range
        rng = random.Random(62)
        rejected = accepted = covering = 0
        for _ in range(40):
            m = rng.randint(16, 40)
            n = rng.randint(2 * m, 600)
            values = random_permutation(m, rng.getrandbits(30))
            p = rep_table(values)
            t = plant_copies(rng, values, random_permutation(n, rng.getrandbits(30)))
            assert len(set(t)) == n
            b = choose_b(m)
            tree = build_factor_tree(p, b)
            truth = set(positions(naive_search(p, t)))
            e = m
            while e <= n:
                backward = tuple(t[e - 1 - d] for d in range(b))
                lo, hi = e - m + 1, min(e - b + 1, n - m + 1)
                holds = bool(truth.intersection(range(lo, hi + 1)))
                covering += holds
                if match_depth(tree, backward) < b:
                    rejected += 1
                    assert not holds
                else:
                    accepted += 1
                e += m - b + 1
        # the planted copies put occurrences in range of some windows, and
        # the tree neither rejects nor accepts everything
        assert covering > 0
        assert rejected > 0 and accepted > 0

    def test_mean_reads_decrease_with_pattern_length(self):
        n = 100_000
        texts = [random_permutation(n, 900 + k) for k in range(3)]
        means = []
        for m in (64, 256, 1024):
            total = 0
            for k, t in enumerate(texts):
                p = random_permutation(m, 7000 + k)
                _, stats = sublinear_search(p, t)
                total += stats.symbols_read / n
            means.append(total / len(texts))
        assert means[0] > means[1] > means[2]


def test_reads_per_symbol_within_a_band_of_the_average_bound():
    # the paper's average reads per text symbol are O(log m / (m log log m));
    # on one n = 1e6 random text the ratio of the measured reads to that term
    # is 3.66 at m = 16 and 2.26-2.93 from m = 32 on, so a band of [2, 4]
    # holds it flat over three decades of m.  The counter is deterministic.
    n = 1_000_000
    t = random_permutation(n, 2026)
    ratios = {}
    for m in (16, 32, 64, 128, 256, 1024, 4096, 16384):
        occ, stats, fell_back = search_or_fallback(random_permutation(m, 7 + m), t)
        assert not fell_back
        ratios[m] = stats.symbols_read / n / (log2(m) / (m * log2(log2(m))))
    assert all(2 <= r <= 4 for r in ratios.values()), ratios
