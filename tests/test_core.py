"""Core types, validation, rank normalization, rep pairs, oracles, and the
package's public names."""

from __future__ import annotations

import ast
import gc
import importlib
import inspect
import pkgutil
import random
import re
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import opmatch
from opmatch import core
from opmatch.core import (DuplicateValue, EmptyInput, Occurrence, Pattern,
                          SearchStats, _occurrences, naive_search,
                          rank_normalize, rep_table, validate_seq)
from opmatch.forward_automaton import forward_search
from opmatch.mp_automaton import mp_search
from opmatch.multi_ac import ac_search
from opmatch.sublinear import sublinear_search

from conftest import (fresh_python, oi_border_table, oracle_border_table,
                      oracle_oi, oracle_positions, oracle_ranks,
                      oracle_rep_pairs, pairs_by_insertion, rank_patterns,
                      random_distinct)

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
        # validate_seq takes an empty text; only rep_table, which makes
        # every pattern, rejects an empty one
        with pytest.raises(EmptyInput):
            rep_table(iter(()))

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
        # validate_seq's rule: the first value that repeats an earlier one,
        # and the position it repeats
        for values, indices in (((1, 2, 1), (1, 3)), ((9, 1, 9, 1), (1, 3)),
                                ((1, 2, 2, 1), (2, 3))):
            with pytest.raises(DuplicateValue) as exc:
                rank_normalize(values)
            assert (exc.value.index_a, exc.value.index_b) == indices, values


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
        # naive_search returns only the occurrences; its engine form counts
        t = tuple(range(100))
        occ, stats = core._naive([2, 1], t)
        assert occ == naive_search([2, 1], t) == []
        assert 0 < stats.symbols_read <= 2 * 99

    def test_takes_only_pattern_and_text(self):
        assert list(inspect.signature(naive_search).parameters) == ["p", "t"]


class TestOccurrences:
    def test_exact_instances(self):
        # a run (ends, m, pattern_id): the match ending at 0-based index i0
        # starts at the 1-based position i0 - m + 2
        occ = _occurrences([([4, 2, 8], 3, 2), ([], 5, 1), ((0,), 1, 0)])
        assert occ == [(1, 0), (1, 2), (3, 2), (7, 2)]
        assert all(type(o) is Occurrence for o in occ)
        # runs out of order, and position 7 matched under ids 2 and 1
        occ = _occurrences([([7], 2, 2), ([3, 6], 2, 0), ([9], 4, 1)])
        assert occ == [(3, 0), (6, 0), (7, 1), (7, 2)]
        assert _occurrences(iter([(iter([5]), 2, 0)])) == [Occurrence(5, 0)]
        assert _occurrences([]) == []

    def test_merge_order_by_definition(self):
        # random run sets: ids 0-9 out of order, one id split over several
        # runs whose positions interleave, several ids ending a match at one
        # position, empty runs, and runs and ends given as iterators
        rng = random.Random(60)
        for trial in range(400):
            used = {pid: set() for pid in range(10)}
            runs = []
            for _ in range(rng.randint(1, 40)):
                pid = rng.randrange(10)
                m = rng.randint(1, 6)
                free = sorted(set(range(1, 50)) - used[pid])
                starts = rng.sample(free, min(len(free), rng.randint(0, 8)))
                used[pid].update(starts)
                runs.append((sorted(s + m - 2 for s in starts), m, pid))
            want = sorted((e - m + 2, pid) for ends, m, pid in runs for e in ends)
            given_runs = [(iter(ends) if rng.random() < 0.3 else ends, m, pid)
                          for ends, m, pid in runs]
            occ = _occurrences(iter(given_runs) if trial % 2 else given_runs)
            assert occ == want
            assert all(type(o) is Occurrence for o in occ)

    def test_merge_compares_no_occurrences(self, monkeypatch):
        # the merge sorts int positions, never the Occurrence tuples
        calls = []

        class CountedOccurrence(tuple):
            def __lt__(self, other):
                calls.append(1)
                return tuple.__lt__(self, other)

        monkeypatch.setattr(core, "Occurrence", CountedOccurrence)
        # position 3 matched under ids 4, 1, 0 and 2; id 4 in two runs
        runs = [([3, 5, 9], 2, 4), ([3], 2, 1), ([3, 5], 2, 0),
                ([2, 5, 8], 3, 4), ([], 2, 2), ([2, 6], 1, 2)]
        occ = _occurrences(runs)
        assert occ == sorted((e - m + 2, pid) for ends, m, pid in runs for e in ends)
        assert all(type(o) is CountedOccurrence for o in occ)
        assert calls == []

    def test_every_engine_makes_occurrences_by_default(self):
        # naive's engine form, core._naive, is the naive scan that takes make
        for engine in (core._naive, mp_search, forward_search,
                       sublinear_search, ac_search):
            make = inspect.signature(engine).parameters["make"].default
            assert make is _occurrences, engine.__name__

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        def runs():
            paused.append(not gc.isenabled())
            yield [3], 1, 0

        def failing():
            yield [0], 1, 0
            raise RuntimeError("runs failed")

        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            paused = []
            assert _occurrences(runs()) == [(4, 0)]
            assert paused == [True]  # the collector is off while it builds
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="runs failed"):
                _occurrences(failing())
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_overlapping_pauses_end_with_the_last(self):
        # Y begins, X begins while Y builds, Y ends while X builds: the
        # collector must stay off until X ends and then be on again
        def runs(entered, go_on):
            entered.set()
            assert go_on.wait(timeout=30)
            yield [0], 1, 0

        y_in, x_in, x_go = (threading.Event() for _ in range(3))
        y = threading.Thread(target=_occurrences, args=(runs(y_in, x_in),))
        x = threading.Thread(target=_occurrences, args=(runs(x_in, x_go),))
        was = gc.isenabled()
        try:
            gc.enable()
            y.start()
            assert y_in.wait(timeout=30)
            x.start()
            y.join(timeout=30)
            assert not y.is_alive()
            assert not gc.isenabled()  # X is still building
            x_go.set()
            x.join(timeout=30)
            assert not x.is_alive()
            assert gc.isenabled()
        finally:
            x_go.set()
            gc.enable() if was else gc.disable()


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


# Names the package once had; none may come back, in code or in README.md.
REMOVED_NAMES = (
    "build_forward_lazy", "as_pattern", "WindowPlan", "materialized_states",
    "check_extension", "PositionOutOfRange", "is_order_isomorphic", "IntSeq",
    "oi_border_table", "FactorTree", "failure_targets", "match_depth",
    "backward_for", "m_total", "normalize_set", "query", "__contains__", "_rep0",
    "RepPair", "rep_sequence", "_read", "IntervalTransition", "backward",
    "FallbackRequired", "PatternSet", "pattern_set", "BenchConfig", "BenchRecord",
    "run_bench", "write_csv", "CSV_HEADER", "csv_row",
)


def test_package_exports_exactly_the_engines_and_their_types():
    # a new export is a deliberate edit of this list; AcNode,
    # search_or_fallback and random_permutation stay in their modules
    assert sorted(opmatch.__all__) == [
        "AcAutomaton", "DuplicateValue", "EmptyInput", "ForwardAutomaton",
        "InputError", "MpAutomaton", "Occurrence", "Pattern",
        "PatternLongerThanText", "SearchStats", "ac_search", "build_ac",
        "build_factor_tree", "build_forward", "build_mp", "choose_b",
        "forward_search", "make_pattern_set", "mp_search", "naive_search",
        "rank_normalize", "rep_table", "sublinear_search", "validate_seq",
    ]
    for module, name in (("multi_ac", "AcNode"), ("sublinear", "search_or_fallback"),
                         ("bench", "random_permutation")):
        assert name not in vars(opmatch)
        assert callable(getattr(importlib.import_module(f"opmatch.{module}"), name))


def test_public_names_resolve_and_removed_names_are_gone():
    for name in opmatch.__all__:
        getattr(opmatch, name)
    predset = importlib.import_module("opmatch.predset")
    namespaces = [vars(opmatch)]
    namespaces += [vars(cls) for cls in (opmatch.MpAutomaton, opmatch.ForwardAutomaton,
                                         predset.PredSet)]
    namespaces += [vars(importlib.import_module(f"opmatch.{info.name}"))
                   for info in pkgutil.iter_modules(opmatch.__path__)]
    for name in REMOVED_NAMES:
        assert name not in opmatch.__all__
        assert not any(name in ns for ns in namespaces), name
    assert list(Pattern._fields) == ["values", "back"]
    assert list(opmatch.MpAutomaton._fields) == [
        "pattern", "fail", "skip", "build_ops"]
    assert list(opmatch.ForwardAutomaton._fields) == [
        "pattern", "fail", "drop", "skip", "build_ops"]
    assert list(opmatch.AcAutomaton._fields) == [
        "root", "patterns", "node_count", "build_ops", "hit_outputs"]


def test_exports_resolve_on_first_use_to_their_home_objects():
    for name in opmatch.__all__:
        obj = getattr(opmatch, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("opmatch.") and getattr(home, name) is obj, name
    namespace: dict = {}
    exec("from opmatch import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(opmatch.__all__)
    assert set(opmatch.__all__) <= set(dir(opmatch))
    with pytest.raises(AttributeError):
        opmatch.no_such_name
    # after a plain import no engine module is loaded, yet each resolves as
    # an attribute, as README's opmatch.sublinear.search_or_fallback needs
    code = ("import opmatch, sys\n"
            "assert 'opmatch.sublinear' not in sys.modules\n"
            "assert callable(opmatch.sublinear.search_or_fallback)\n"
            "for name in ('core', 'mp_automaton', 'forward_automaton', 'multi_ac'):\n"
            "    assert getattr(opmatch, name) is sys.modules['opmatch.' + name]\n")
    fresh_python(code)


def test_types_keep_their_behaviour():
    p = rep_table([3, 1, 2])
    mp = opmatch.build_mp(p)
    stats = core._naive([2, 1], (1, 3, 2, 5, 4))[1]
    reads = stats.symbols_read
    values = (p, mp, opmatch.build_forward(mp), opmatch.build_ac((p,)), stats)
    for obj in values:
        for field in type(obj)._fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
    assert len(p) == 3 and len(rep_table(range(17))) == 17
    assert p == Pattern((3, 1, 2), ((None, None), (None, 1), (1, 2)))
    assert SearchStats._fields == ("symbols_read", "transitions_taken", "verifications")
    assert SearchStats() == (0, 0, 0)
    # a value: equal to the plain tuple of its counts, and hashed as one
    assert reads > 0 and stats == (reads, 0, 0) and stats != SearchStats(reads, 0, 1)
    assert hash(stats) == hash((reads, 0, 0))
    assert repr(SearchStats(5, verifications=2)) == (
        "SearchStats(symbols_read=5, transitions_taken=0, verifications=2)")


def test_readme_names_no_removed_name():
    # every identifier in README's code spans and code blocks
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```.*?```", readme, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    assert blocks and spans
    named = {word for code in blocks + spans for word in re.findall(r"\w+", code)}
    assert not named.intersection(REMOVED_NAMES), sorted(named.intersection(REMOVED_NAMES))
    # no engine uses the predecessor set, so the package does not export it
    for name in ("PredSet", "KeyAbsent", "KeyOutOfUniverse", "KeyPresent"):
        assert name not in opmatch.__all__
        assert name not in vars(opmatch), name


def test_functions_the_benchmark_traces_exist():
    # perfbench/run.py times each LAYER_SPANS entry as the self time of the
    # named opmatch functions; one renamed away would read 0, not fail.  The
    # dict is read from the file's source, so the benchmark is not imported.
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text()
    spans = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYER_SPANS"])
    names = [name for targets in spans.values() for name in targets]
    assert "core.rank_normalize" in names
    for name in names:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"opmatch.{module}"), function, None)), name
