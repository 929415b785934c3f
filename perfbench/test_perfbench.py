"""Checks of the benchmark itself: inputs, expected answers, counters, spans.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import Span, Tracer

HERE = Path(__file__).resolve().parent
MODS = run.load_program()

SMALL = {
    "random": lambda seed: workloads.make_random(seed, n=3000, ms=(8, 64, 256),
                                                 dict_n=1500, cli_n=2000, cli_m=256),
    "periodic": lambda seed: workloads.make_periodic(seed, n=2000, cli_n=3000),
}

COUNTERS = [name for name, unit in run.PER_LAYER.items() if unit != "s" and unit != "ns"]


def traced_pass(workload, directory):
    directory.mkdir()
    workloads.write_inputs(workload, directory)
    bench = run.Bench(workload, MODS, directory, Tracer())
    bench.run_pass(traced=True)
    assert bench.failed == 0 and bench.attempted > 0
    return bench


@pytest.mark.parametrize("name", SMALL)
def test_inputs_repeat_for_a_seed(name):
    assert SMALL[name](5) == SMALL[name](5)
    assert SMALL[name](5).searches != SMALL[name](6).searches


@pytest.mark.parametrize("name", SMALL)
def test_expected_answers_match_naive_search(name):
    w = SMALL[name](3)
    naive = MODS.core.naive_search
    for job in w.searches:
        assert job.expected == run.positions(naive(job.pattern, job.text))
    for job in w.multi:
        want = sorted((o.position, pid) for pid, p in enumerate(w.dictionary)
                      for o in naive(p, job.text))
        assert job.expected == tuple(want)
    for job in w.cli:
        if job.args[0] == "multisearch":
            text = w.files[job.args[2]][1]
            want = sorted((o.position, pid + 1) for pid, p in enumerate(w.dictionary)
                          for o in naive(p, text))
            assert job.expected == tuple(want)


def test_random_multisearch_file_is_the_whole_dictionary_text():
    w = SMALL["random"](2)
    (job,) = [j for j in w.cli if j.args[0] == "multisearch"]
    assert w.files[job.args[2]][1] == w.searches[0].text[:1500]


def test_child_peak_memory_excludes_the_parent(tmp_path):
    held = b"x" * (96 << 20)  # resident in this process while the child starts
    bench = run.Bench(SMALL["random"](1), MODS, tmp_path)
    assert bench._child(["--help"], tmp_path / "help.txt") == 0
    assert 0 < bench._child_peak_kb() < (64 << 10)
    del held


def test_every_random_pattern_occurs():
    searches = SMALL["random"](4).searches
    for pattern in {job.pattern for job in searches}:
        assert any(job.expected for job in searches if job.pattern == pattern)


@pytest.mark.parametrize("name", SMALL)
def test_counters_repeat_and_meet_search_bounds(name, tmp_path):
    first = traced_pass(SMALL[name](7), tmp_path / "a")
    second = traced_pass(SMALL[name](7), tmp_path / "b")
    layers = first.per_layer()
    assert first.counters == second.counters
    assert {k: layers[k] for k in COUNTERS} == {k: second.per_layer()[k] for k in COUNTERS}
    assert set(layers) == set(run.PER_LAYER)
    assert layers["mp.tests_per_sym"] <= 3
    assert layers["forward.tests_per_sym"] <= 2


def test_periodic_exposes_worst_cases(tmp_path):
    layers = traced_pass(SMALL["periodic"](8), tmp_path / "a").per_layer()
    assert layers["mp.tests_per_sym"] > 2.9          # near-miss pattern
    assert layers["sublinear.reads_per_sym"] >= 32   # m=64 reads about m per symbol


def test_tracer_reports_missing_functions_as_absent():
    tracer = Tracer()
    original = MODS.mp.mp_search
    absent = tracer.install((("mp_automaton", "mp_search"),
                             ("mp_automaton", "no_such_function"),
                             ("no_such_module", "f")))
    try:
        assert absent == ["mp_automaton.no_such_function", "no_such_module.f"]
        with tracer.operation("probe"):
            MODS.mp.mp_search(MODS.mp.build_mp(MODS.core.rep_table((1, 3, 2))), (5, 9, 7, 8))
    finally:
        tracer.uninstall()
    assert MODS.mp.mp_search is original
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("op", -1, 0), ("mp_automaton.mp_search", 0, 0)]


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.ops = ["probe"]
    tracer.spans = [Span("op", 0, 100, -1, 0), Span("x", 10, 90, 0, 0),
                    Span("y", 20, 50, 1, 0), Span("y", 60, 70, 1, 0)]
    assert tracer.self_times() == {"x": 40, "y": 40}
    assert tracer.self_times(since=2) == {"y": 40}


def test_metric_table_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "random",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
