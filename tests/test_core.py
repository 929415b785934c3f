"""Core types, validation, rank normalization, rep pairs, oracles, and the
package's public names."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import opmatch
from opmatch.core import (DuplicateValue, EmptyInput, Occurrence, Pattern,
                          SearchStats, naive_search, rank_normalize, rep_table,
                          validate_seq)

from conftest import (oi_border_table, oracle_border_table, oracle_oi,
                      oracle_positions, oracle_ranks, oracle_rep_pairs,
                      pairs_by_insertion, rank_patterns, random_distinct)

distinct_lists = st.lists(st.integers(-1000, 1000), min_size=1, max_size=40,
                          unique=True)


class TestValidateSeq:
    def test_example_pattern(self):
        assert validate_seq([4, 12, 6, 16, 10]) == (4, 12, 6, 16, 10)

    def test_singleton(self):
        assert validate_seq([7]) == (7,)

    def test_duplicate_reports_both_indices(self):
        with pytest.raises(DuplicateValue) as exc:
            validate_seq([3, 5, 3])
        assert (exc.value.index_a, exc.value.index_b) == (1, 3)
        assert exc.value.value == 3

    @pytest.mark.parametrize("values, indices", [
        ([1, 2, 2, 1], (2, 3)),  # the first repeat found, not the widest
        ([5, 7, 5, 7], (1, 3)),
        (list(range(1, 100_000)) + [40_000], (40_000, 100_000)),
    ])
    def test_duplicate_reports_first_repeat(self, values, indices):
        with pytest.raises(DuplicateValue) as exc:
            validate_seq(values)
        assert (exc.value.index_a, exc.value.index_b) == indices

    def test_empty_pattern_rejected(self):
        with pytest.raises(EmptyInput):
            validate_seq([], require_nonempty=True)

    def test_empty_text_allowed(self):
        assert validate_seq([]) == ()


class TestRankNormalize:
    def test_example(self):
        assert rank_normalize((4, 12, 6, 16, 10)) == (1, 4, 2, 5, 3)

    def test_identity_on_ascending(self):
        assert rank_normalize((1, 2, 3)) == (1, 2, 3)

    def test_two_element_swap(self):
        assert rank_normalize((9, 5)) == (2, 1)

    def test_matches_sort_and_rank_oracle(self):
        rng = random.Random(0)
        for _ in range(200):
            s = random_distinct(rng, rng.randint(1, 30))
            assert rank_normalize(s) == oracle_ranks(s)

    @given(distinct_lists)
    def test_idempotent(self, s):
        once = rank_normalize(tuple(s))
        assert rank_normalize(once) == once

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateValue):
            rank_normalize((1, 2, 1))


class TestOrderIsomorphic:
    """The test suite's order-isomorphism oracle against the definition."""

    def test_example(self):
        assert oracle_oi((4, 12, 6, 16, 10), (1, 4, 2, 5, 3))

    def test_swap_not_isomorphic(self):
        assert not oracle_oi((1, 2), (2, 1))

    def test_empty(self):
        assert oracle_oi((), ())

    def test_length_mismatch(self):
        assert not oracle_oi((1,), (1, 2))

    def test_equivalent_to_rank_equality_exhaustive(self):
        # all pairs of permutations of length <= 5
        for m in range(1, 6):
            perms = rank_patterns(m)
            for a in perms:
                for b in perms:
                    assert oracle_oi(a, b) == (a == b)

    def test_equivalent_to_rank_equality_on_values(self):
        # every position pair compares alike in both sequences
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(0, 12)
            a = random_distinct(rng, n)
            b = random_distinct(rng, n)
            pairwise = all((a[i] < a[j]) == (b[i] < b[j])
                           for i in range(n) for j in range(i + 1, n))
            assert oracle_oi(a, b) == pairwise


class TestRepTable:
    def test_example(self):
        p = rep_table([4, 12, 6, 16, 10])
        assert p.back == ((None, None), (1, None), (2, 1), (2, None), (2, 3))

    def test_singleton(self):
        assert rep_table([7]).back == ((None, None),)

    def test_ascending(self):
        assert rep_table([1, 2, 3]).back == ((None, None), (1, None), (1, None))

    def test_ranks_are_permutation(self):
        p = rep_table([40, -3, 17])
        assert sorted(p.ranks) == [1, 2, 3]

    def test_matches_brute_force_scan(self):
        rng = random.Random(2)
        for _ in range(300):
            vals = random_distinct(rng, rng.randint(1, 64))
            pat = rep_table(vals)
            want = oracle_rep_pairs(vals)
            assert pairs_by_insertion(vals) == want
            # back holds the same pairs as distances back from symbol j
            assert list(pat.back) == [
                (None if x1 is None else j + 1 - x1, None if x2 is None else j + 1 - x2)
                for j, (x1, x2) in enumerate(want)]

    def test_rep_positions_point_at_neighbours(self):
        p = rep_table([4, 12, 6, 16, 10])
        vals = p.values
        for j, (d1, d2) in enumerate(p.back):
            if d1 is not None:
                assert 0 < d1 <= j and vals[j - d1] < vals[j]
                assert not any(vals[j - d1] < vals[i] < vals[j] for i in range(j))
            if d2 is not None:
                assert 0 < d2 <= j and vals[j] < vals[j - d2]
                assert not any(vals[j] < vals[i] < vals[j - d2] for i in range(j))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            rep_table([])


class TestNaiveSearch:
    def test_example(self):
        occ = naive_search([4, 12, 6, 16, 10], (1, 4, 2, 5, 3, 6))
        assert occ == [Occurrence(1)]

    def test_length_one_matches_everywhere(self):
        assert [o.position for o in naive_search([7], (3, 1, 2))] == [1, 2, 3]

    def test_no_ascent_in_descending_text(self):
        assert naive_search([1, 2], (5, 4, 3)) == []

    @given(distinct_lists)
    def test_self_match_at_one(self, s):
        positions = [o.position for o in naive_search(s, tuple(s))]
        assert positions == [1]

    def test_matches_definitional_scan(self):
        rng = random.Random(4)
        for _ in range(150):
            m = rng.randint(1, 6)
            n = rng.randint(m, 40)
            t = random_distinct(rng, n, lo=0, hi=100)
            p = random_distinct(rng, m, lo=0, hi=100)
            got = [o.position for o in naive_search(p, t)]
            assert got == oracle_positions(p, t)

    def test_stats_reads_bounded(self):
        stats = SearchStats()
        t = tuple(range(100))
        naive_search([2, 1], t, stats)
        assert 0 < stats.symbols_read <= 2 * 99


class TestBorderTable:
    def test_running_example(self):
        # prefix (4,12,6) and suffix (6,16,10) share shape (1,3,2), so the
        # full pattern has a length-3 border
        assert oi_border_table([4, 12, 6, 16, 10]) == (0, 1, 1, 2, 3)

    def test_ascending_run(self):
        assert oi_border_table([1, 2, 3]) == (0, 1, 2)

    def test_singleton(self):
        assert oi_border_table([7]) == (0,)

    def test_matches_definitional_oracle_exhaustive(self):
        for m in range(1, 7):
            for perm in rank_patterns(m):
                assert oi_border_table(perm) == oracle_border_table(perm)

    def test_matches_definitional_oracle_random(self):
        rng = random.Random(5)
        for _ in range(100):
            vals = random_distinct(rng, rng.randint(1, 40))
            assert oi_border_table(vals) == oracle_border_table(vals)

    def test_border_of_border_is_border(self):
        rng = random.Random(6)
        for _ in range(100):
            vals = random_distinct(rng, rng.randint(1, 32))
            fail = oi_border_table(vals)
            for j in range(1, len(vals) + 1):
                k = fail[j - 1]
                if k > 0:
                    # the border's own border is a border of the prefix
                    kk = fail[k - 1]
                    assert oracle_oi(vals[:kk], vals[j - kk:j])


def test_public_names_resolve_and_removed_names_are_gone():
    for name in opmatch.__all__:
        getattr(opmatch, name)
    predset = importlib.import_module("opmatch.predset")
    namespaces = [vars(opmatch)]
    namespaces += [vars(cls) for cls in (opmatch.MpAutomaton, opmatch.ForwardAutomaton,
                                         opmatch.PatternSet, predset.PredSet)]
    namespaces += [vars(importlib.import_module(f"opmatch.{info.name}"))
                   for info in pkgutil.iter_modules(opmatch.__path__)]
    for name in ("build_forward_lazy", "as_pattern", "WindowPlan",
                 "materialized_states", "check_extension", "PositionOutOfRange",
                 "is_order_isomorphic", "IntSeq", "oi_border_table", "FactorTree",
                 "failure_targets", "match_depth", "backward_for", "m_total",
                 "normalize_set", "query", "__contains__", "_rep0", "RepPair",
                 "rep_sequence"):
        assert name not in opmatch.__all__
        assert not any(name in ns for ns in namespaces), name
    # vars() does not list dataclass fields without defaults
    assert [f.name for f in dataclasses.fields(Pattern)] == ["values", "ranks", "back"]
    # no engine uses the predecessor set, so the package does not export it
    for name in ("PredSet", "KeyAbsent", "KeyOutOfUniverse", "KeyPresent"):
        assert name not in opmatch.__all__
        assert name not in vars(opmatch), name
