"""Benchmark of opmatch: library engines and the ``opmatch`` command line.

    python3 perfbench/run.py --workload {random,periodic} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout.  The program is imported from
``src/``, and each command runs as an ``opmatch.cli`` child process (started
through ``cli_child.py``, which records the child's own peak memory) with
the same source on ``PYTHONPATH``.  Without ``src/opmatch`` it exits
with status 1 and prints no result.

Load model: a closed loop.  One caller in one process issues its calls back
to back, without threads, and runs one child process at a time.  Inputs
come from ``workloads`` and the seed; making them is never timed.  Every
answer is checked after its call returns, outside the timed region.

A run repeats passes while the next one is due to end within ``--seconds``
(the first pass always runs).  Each pass compiles the workload's patterns,
runs every library search once and every command CLI_REPEATS times, and
checks each answer.  With ``--trace 0`` the result
holds the end-to-end metrics, built from per-call medians over the passes.
With ``--trace 1`` every library call runs twice, untraced and then traced
(spans around the program's public functions), commands run in-process
and traced, and the result holds the per-layer metrics.  The tracing
overhead is the ratio of traced to untraced time of the same calls.

Times are in reference seconds.  On a shared virtual machine the speed of
a CPU can swing by a factor of two within seconds, so each call's wall
time is scaled by ``CALIBRATION_REFERENCE_S`` over the time of a fixed
pure-Python kernel (``calibrate``) run just before and just after it, on
the same CPU.  A slower program still reads slower; a slower machine does
not.  The raw speed factors are in the provenance line.

The last line of standard output is the result object.  The line before it
holds provenance, sample counts, the deterministic counters of every search,
and figures that are reported but never compared.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 2         # setups per untraced pass
CLI_REPEATS = {"search": 2, "multisearch": 4}  # children per command per untraced pass
STARTUP_REPEATS = 3       # `opmatch --help` children per traced pass
PREDSET_REPLAY = 100_000  # text symbols replayed through PredSet per traced pass
PREDSET_WINDOW = 64       # replayed window: the longest dictionary pattern
CHILD_TIMEOUT_S = 120
CALIBRATION_REFERENCE_S = 0.0125
_CALIBRATION_DATA = tuple((i * 7919) % 10007 for i in range(4096))

ENGINES = ("mp", "forward", "sublinear", "multi")

END_TO_END = {
    "mp_msym_s": "Msym/s",
    "forward_msym_s": "Msym/s",
    "sublinear_msym_s": "Msym/s",
    "multi_msym_s": "Msym/s",
    "setup_s": "s",
    "cli_search_s": "s",
    "cli_multisearch_s": "s",
    "cli_peak_rss_mb": "MB",
}

# per-layer times: self time of these spans, summed over one traced pass
LAYER_SPANS = {
    "cli.self_s": ("cli.main",),
    "core.validate_s": ("core.validate_seq",),
    "core.rank_normalize_s": ("core.rank_normalize",),
    "core.rep_table_s": ("core.rep_table",),
    "mp.build_s": ("mp_automaton.build_mp",),
    "mp.search_s": ("mp_automaton.mp_search",),
    "forward.build_s": ("forward_automaton.build_forward",),
    "forward.search_s": ("forward_automaton.forward_search",),
    "sublinear.search_s": ("sublinear.search_or_fallback", "sublinear.sublinear_search",
                           "sublinear.build_factor_tree"),
    "multi.build_s": ("multi_ac.make_pattern_set", "multi_ac.build_ac"),
    "multi.search_s": ("multi_ac.ac_search",),
}

PER_LAYER = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.output_lines": "count",
    "core.validate_s": "s",
    "core.rank_normalize_s": "s",
    "core.rep_table_s": "s",
    "mp.build_s": "s",
    "mp.build_ops": "count",
    "mp.search_s": "s",
    "mp.tests_per_sym": "tests/sym",
    "forward.build_s": "s",
    "forward.transitions": "count",
    "forward.search_s": "s",
    "forward.tests_per_sym": "tests/sym",
    "sublinear.search_s": "s",
    "sublinear.reads_per_sym": "reads/sym",
    "sublinear.verify_yield": "ratio",
    "sublinear.fallbacks": "count",
    "multi.build_s": "s",
    "multi.nodes": "count",
    "multi.build_ops": "count",
    "multi.search_s": "s",
    "multi.tests_per_sym": "tests/sym",
    "predset.op_ns": "ns",
    "search.occurrences": "count",
}


def load_program() -> SimpleNamespace:
    """Import the opmatch modules from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "opmatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no opmatch package under {src}")
    sys.path.insert(0, str(src))
    from opmatch import (cli, core, forward_automaton, mp_automaton, multi_ac,
                         predset, sublinear)
    return SimpleNamespace(cli=cli, core=core, fw=forward_automaton, mp=mp_automaton,
                           multi=multi_ac, predset=predset, sub=sublinear)


def git_sha() -> str:
    """Commit of the checkout, or 'unknown' outside a git repository."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel that uses no opmatch code.

    The kernel mixes what the program spends its time on: indexing and
    comparing in loops, dict stores, small tuples, and parsing integers.
    Its time tracks how fast the machine runs Python at this moment.
    """
    t0 = perf_counter()
    xs = _CALIBRATION_DATA
    seen = {}
    out = []
    for r in range(10):
        prev = 0
        for i, x in enumerate(xs):
            if prev < x and (x ^ r) & 3:
                out.append((i, x))
            seen[x & 1023] = i
            prev = x
        out.clear()
        sum(int(tok) for tok in " ".join(map(str, xs[:1024])).split())
    return perf_counter() - t0


def parse_output(text: str) -> tuple:
    return tuple(tuple(int(tok) for tok in line.split())
                 for line in text.splitlines() if line and not line.startswith("#"))


def positions(occurrences) -> tuple:
    return tuple(o.position for o in occurrences)


def pairs(occurrences) -> tuple:
    return tuple((o.position, o.pattern_id) for o in occurrences)


class Bench:
    """Runs the passes of one workload and keeps their measurements."""

    def __init__(self, workload, mods, workdir, tracer=None):
        self.w = workload
        self.mods = mods
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.times = defaultdict(list)         # op key -> seconds, untraced passes
        self.traced_times = defaultdict(list)  # op key -> seconds, traced passes
        self.symbols = {}                      # search op key -> text length
        self.layers = defaultdict(list)        # per-layer metric -> one value per traced pass
        self.counters = None                   # deterministic counters of the last pass
        self.counters_repeat = True
        self.lazy_states = None
        self.speeds = []                       # per timed call, reference over measured
        self.cli_peak_kb = []                  # per untraced command child: its own VmHWM
        self.verified_output = {}              # command label -> output already checked
        self.absent = set()
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    # ------------------------------------------------------------ plumbing

    def _timed(self, key, fn, check, traced=False):
        """Run fn once, time it, then check its result; None on failure.

        The time is kept in reference seconds: wall seconds scaled by
        CALIBRATION_REFERENCE_S over the mean calibration time measured
        just before and just after the call.
        """
        self.attempted += 1
        gc.collect()
        before = calibrate()
        try:
            if traced:
                with self.tracer.operation(key):
                    t0 = perf_counter()
                    result = fn()
                    dt = perf_counter() - t0
            else:
                t0 = perf_counter()
                result = fn()
                dt = perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        speed = CALIBRATION_REFERENCE_S * 2 / (before + calibrate())
        self.speeds.append(speed)
        if not check(result):
            print(f"perfbench: wrong answer from {key}", file=sys.stderr)
            self.failed += 1
            return None
        (self.traced_times if traced else self.times)[key].append(dt * speed)
        return result

    def _op(self, key, fn, check, traced):
        """One library call; when tracing, an untraced twin runs first so
        the overhead is measured on the same state."""
        if not traced:
            return self._timed(key, fn, check)
        self._timed(key, fn, check)
        self.absent.update(self.tracer.install())
        try:
            return self._timed(key, fn, check, traced=True)
        finally:
            self.tracer.uninstall()

    def run_pass(self, traced: bool) -> None:
        counts = {}
        since = len(self.tracer.spans) if traced else 0
        first_speed = len(self.speeds)
        compiled = self._setup(traced)
        if compiled is not None:
            self._searches(compiled, counts, traced)
            if traced:
                self._lazy(compiled)
        self._commands(counts, traced)
        if traced:
            self._predset()
            self._startup()
            self._layer_times(since, statistics.median(self.speeds[first_speed:] or [1.0]))
        if self.counters is not None and counts != self.counters:
            self.counters_repeat = False
        self.counters = counts

    # ------------------------------------------------------------ library

    def _compile(self):
        """Every distinct pattern -> (Pattern, MP automaton, forward
        automaton), and the dictionary's AC automaton."""
        m = self.mods
        single = {}
        for job in self.w.searches:
            if job.pattern not in single:
                pat = m.core.rep_table(job.pattern)
                a = m.mp.build_mp(pat)
                single[job.pattern] = pat, a, m.fw.build_forward(a)
        return single, m.multi.build_ac(m.multi.make_pattern_set(self.w.dictionary))

    def _setup(self, traced):
        """Compile all patterns; repeated in untraced passes for setup_s."""
        compiled = None
        for _ in range(1 if traced else SETUP_REPEATS):
            compiled = self._op("setup", self._compile, lambda r: True, traced)
            if compiled is None:
                break
        return compiled

    def _searches(self, compiled, counts, traced):
        m = self.mods
        single, ac = compiled
        for job in self.w.searches:
            pat, a, fa = single[job.pattern]
            want = job.expected
            runs = (
                ("mp", lambda: m.mp.mp_search(a, job.text)),
                ("forward", lambda: m.fw.forward_search(fa, job.text)),
                ("sublinear", lambda: m.sub.search_or_fallback(pat, job.text)),
            )
            for engine, fn in runs:
                key = f"{engine}:{job.label}"
                self.symbols[key] = len(job.text)
                r = self._op(key, fn, lambda r: positions(r[0]) == want, traced)
                if r is not None:
                    self._count(counts, key, len(job.text), r)
        for job in self.w.multi:
            key = f"multi:{job.label}"
            self.symbols[key] = len(job.text)
            r = self._op(key, lambda: m.multi.ac_search(ac, job.text),
                         lambda r: pairs(r[0]) == job.expected, traced)
            if r is not None:
                self._count(counts, key, len(job.text), r)
        self._structure_counts(counts, single.values(), ac)

    def _count(self, counts, key, n, result):
        stats = result[1]
        counts[key] = {"symbols": n, "occurrences": len(result[0]),
                       "tests": stats.transitions_taken, "reads": stats.symbols_read,
                       "verifications": stats.verifications,
                       "fell_back": len(result) > 2 and bool(result[2])}

    def _structure_counts(self, counts, single, ac):
        for name, get in (
            ("mp.build_ops", lambda: sum(a.build_ops for _, a, _ in single)),
            ("forward.transitions", lambda: sum(fa.transition_count() for _, _, fa in single)),
            ("multi.nodes", lambda: ac.node_count),
            ("multi.build_ops", lambda: ac.build_ops),
        ):
            try:
                counts[name] = get()
            except AttributeError:
                self.absent.add(name)

    def _lazy(self, compiled):
        """Lazily expanded forward search, reported but never compared."""
        fw = self.mods.fw
        if not callable(getattr(fw, "build_forward_lazy", None)):
            self.absent.add("forward_automaton.build_forward_lazy")
            return
        states = 0
        for job in self.w.searches:
            a = compiled[0][job.pattern][1]
            def lazy():
                fa = fw.build_forward_lazy(a)
                return fw.forward_search(fa, job.text), fa
            r = self._timed(f"lazy:{job.label}", lazy,
                            lambda r: positions(r[0][0]) == job.expected)
            if r is not None:
                try:
                    states += len(r[1].materialized_states())
                except AttributeError:
                    self.absent.add("ForwardAutomaton.materialized_states")
        self.lazy_states = states

    def _predset(self):
        """Replay a sliding window of the text's ranks through one PredSet."""
        ranks = self.w.predset_ranks
        count = min(len(ranks), PREDSET_REPLAY)
        width = PREDSET_WINDOW
        PredSet = self.mods.predset.PredSet

        def replay():
            s = PredSet(len(ranks))
            for i in range(count):
                r = ranks[i]
                s.query_strict(r)
                s.insert(r, i)
                if i >= width:
                    s.delete(ranks[i - width])
            return s

        if self._timed("predset", replay, lambda s: len(s) == min(count, width)) is not None:
            ops = 2 * count + max(0, count - width)
            self.layers["predset.op_ns"].append(self.times["predset"][-1] * 1e9 / ops)

    # ------------------------------------------------------------ commands

    def _argv(self, job):
        return [str(self.workdir / a) if a in self.w.files else a for a in job.args]

    def _child(self, args, out) -> int:
        """Run one command with its output going to a file; its exit code.

        The child runs through ``cli_child.py``, which writes the child's own
        peak resident memory to a file read after the timed region."""
        peak = self.workdir / "peak.txt"
        peak.unlink(missing_ok=True)  # a child that writes none leaves none
        with open(out, "w", encoding="ascii") as fh:
            return subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(peak), *args],
                                  cwd=ROOT, env=self.env, stdout=fh,
                                  timeout=CHILD_TIMEOUT_S).returncode

    def _child_peak_kb(self) -> int:
        return int((self.workdir / "peak.txt").read_text())

    def _commands(self, counts, traced):
        """Every command: CLI_REPEATS child processes, or once in-process
        when traced.  Output goes to a file, so nothing reads it while the
        command runs."""
        out = self.workdir / "stdout.txt"
        lines = 0
        for job in self.w.cli:
            argv = self._argv(job)
            check = lambda code: code == 0 and self._output_ok(job, out.read_text())
            if traced:
                def run():
                    with open(out, "w", encoding="ascii") as fh, redirect_stdout(fh):
                        return self.mods.cli.main(argv)
                self.absent.update(self.tracer.install())
                try:
                    code = self._timed(f"cli-in-process:{job.label}", run, check, traced)
                finally:
                    self.tracer.uninstall()
            else:
                for _ in range(CLI_REPEATS[job.args[0]]):
                    code = self._timed(f"cli:{job.label}", lambda: self._child(argv, out),
                                       check)
                    if code is not None:
                        self.cli_peak_kb.append(self._child_peak_kb())
            if code is not None:
                lines += out.read_text().count("\n")
        counts["cli.output_lines"] = lines

    def _output_ok(self, job, text) -> bool:
        """Whether a command printed its expected answer; an output equal to
        one already checked for the same command is not parsed again."""
        if self.verified_output.get(job.label) == text:
            return True
        if parse_output(text) != job.expected:
            return False
        self.verified_output[job.label] = text
        return True

    def _startup(self):
        help_out = self.workdir / "help.txt"
        for _ in range(STARTUP_REPEATS):
            r = self._timed("cli:--help", lambda: self._child(["--help"], help_out),
                            lambda code: code == 0)
            if r is None:
                return
        self.layers["cli.startup_s"].append(
            statistics.median(self.times["cli:--help"][-STARTUP_REPEATS:]))

    # ------------------------------------------------------------ metrics

    def _layer_times(self, since, speed):
        """Span self times of one traced pass, scaled to reference seconds."""
        totals = self.tracer.self_times(since)
        for metric, names in LAYER_SPANS.items():
            present = [n for n in names if n not in self.absent]
            if present:
                self.layers[metric].append(
                    sum(totals.get(n, 0) for n in present) / 1e9 * speed)
        lazy = [self.times[k][-1] for k in self.times if k.startswith("lazy:")]
        if lazy:
            self.layers["forward.lazy_search_s"].append(sum(lazy))

    def _median(self, key, table=None):
        return statistics.median((self.times if table is None else table)[key])

    def end_to_end(self) -> dict:
        out = {}
        for engine in ENGINES:
            keys = [k for k in self.times if k.startswith(engine + ":")]
            if keys:
                n = sum(self.symbols[k] for k in keys)
                out[f"{engine}_msym_s"] = n / sum(self._median(k) for k in keys) / 1e6
        if self.times["setup"]:
            out["setup_s"] = self._median("setup")
        for metric, command in (("cli_search_s", "search"), ("cli_multisearch_s", "multisearch")):
            keys = [f"cli:{j.label}" for j in self.w.cli
                    if j.args[0] == command and self.times[f"cli:{j.label}"]]
            if keys:
                out[metric] = statistics.fmean(self._median(k) for k in keys)
        if self.cli_peak_kb:
            out["cli_peak_rss_mb"] = max(self.cli_peak_kb) / 1024
        return out

    def per_layer(self) -> dict:
        out = {m: statistics.median(v) for m, v in self.layers.items() if m in PER_LAYER and v}
        c = self.counters or {}
        searches = [(k, d) for k, d in c.items() if isinstance(d, dict)]

        def worst(engine, field):
            ratios = [d[field] / d["symbols"] for k, d in searches
                      if k.startswith(engine + ":") and not d["fell_back"]]
            return max(ratios) if ratios else None

        sub = [d for k, d in searches if k.startswith("sublinear:") and not d["fell_back"]]
        derived = {
            "mp.tests_per_sym": worst("mp", "tests"),
            "forward.tests_per_sym": worst("forward", "tests"),
            "multi.tests_per_sym": worst("multi", "tests"),
            "sublinear.reads_per_sym": worst("sublinear", "reads"),
            "sublinear.verify_yield": (sum(d["occurrences"] for d in sub)
                                       / sum(d["verifications"] for d in sub))
            if sub and any(d["verifications"] for d in sub) else None,
            "sublinear.fallbacks": sum(1 for k, d in searches
                                       if k.startswith("sublinear:") and d["fell_back"]),
            "search.occurrences": sum(d["occurrences"] for _, d in searches),
        }
        for name in ("mp.build_ops", "forward.transitions", "multi.nodes",
                     "multi.build_ops", "cli.output_lines"):
            derived[name] = c.get(name)
        out.update({k: v for k, v in derived.items() if v is not None})
        return out

    def samples(self) -> dict:
        """Number of timed calls behind each metric."""
        n = {f"{e}_msym_s": sum(len(v) for k, v in self.times.items() if k.startswith(e + ":"))
             for e in ENGINES}
        n["setup_s"] = len(self.times["setup"])
        for metric, command in (("cli_search_s", "search"), ("cli_multisearch_s", "multisearch")):
            n[metric] = sum(len(self.times[f"cli:{j.label}"])
                            for j in self.w.cli if j.args[0] == command)
        n["cli_peak_rss_mb"] = len(self.cli_peak_kb)
        n.update({m: len(v) for m, v in self.layers.items()})
        return {k: v for k, v in n.items() if v}

    def trace_overhead(self):
        """Traced over untraced time of the library calls made both ways."""
        keys = [k for k in self.traced_times if self.times.get(k)]
        if not keys:
            return None
        return (sum(self._median(k, self.traced_times) for k in keys)
                / sum(self._median(k) for k in keys))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = load_program()
    # one CPU for the run and its children, so that the calibration kernel
    # and every timed call run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    passes = 0
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workloads.write_inputs(workload, workdir)
        bench = Bench(workload, mods, workdir, tracer)
        start = perf_counter()
        while True:
            bench.run_pass(traced=tracer is not None)
            passes += 1
            elapsed = perf_counter() - start
            # start another pass only if it is due to end within seconds
            if elapsed + elapsed / passes > args.seconds:
                break

    if tracer:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics, units = bench.per_layer(), PER_LAYER
    else:
        metrics, units = bench.end_to_end(), END_TO_END
    info = {
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "passes": passes,
            "measured_s": elapsed,
            "speed_median": statistics.median(bench.speeds) if bench.speeds else None,
            "speed_range": [min(bench.speeds), max(bench.speeds)] if bench.speeds else None,
        },
        # the benchmark's own peak, beside the CLI children's (cli_peak_rss_mb)
        "self_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": bench.samples(),
        "failed_ratio": bench.failed / max(bench.attempted, 1),
        "absent": sorted(bench.absent),
        "counters_repeat": bench.counters_repeat,
        "counters": bench.counters,
        "call_medians_s": {k: statistics.median(v) for k, v in bench.times.items() if v},
    }
    if tracer:
        lazy = bench.layers.get("forward.lazy_search_s")
        info["unmetered"] = {
            "forward.lazy_search_s": statistics.median(lazy) if lazy else None,
            "forward.lazy_states": bench.lazy_states,
            "trace_overhead_ratio": bench.trace_overhead(),
        }
    print(json.dumps(info))
    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
