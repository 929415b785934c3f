"""In-memory spans around the public functions of ``opmatch``'s modules.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each target function, in every loaded ``opmatch`` module that binds it, by a
wrapper that records one span per call, and ``uninstall`` puts the
originals back.  A target that is missing (renamed or removed) is reported
as absent and skipped, so the program can drop functions without breaking
the traced run.

A span holds its name (``module.function``), start and end in ns, the index
of the enclosing span (-1 for none) and the id of the benchmark operation
it belongs to.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import NamedTuple

PACKAGE = "opmatch"

# (module, function): the layer of a span is the module the function is in
TARGETS = (
    ("core", "validate_seq"),
    ("core", "rank_normalize"),
    ("core", "rep_table"),
    ("mp_automaton", "build_mp"),
    ("mp_automaton", "mp_search"),
    ("forward_automaton", "build_forward"),
    ("forward_automaton", "build_forward_lazy"),
    ("forward_automaton", "forward_search"),
    ("sublinear", "search_or_fallback"),
    ("sublinear", "sublinear_search"),
    ("sublinear", "build_factor_tree"),
    ("multi_ac", "make_pattern_set"),
    ("multi_ac", "build_ac"),
    ("multi_ac", "ac_search"),
    ("cli", "main"),
)


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    op: int


class Tracer:
    """Records spans for calls made while installed; single-threaded."""

    def __init__(self):
        self.spans: list = []
        self.ops: list = []      # operation id -> label
        self._open: list = []    # indices of spans not yet ended
        self._patches: list = []

    def install(self, targets=TARGETS) -> list:
        """Wrap every target that exists; return the absent ones' names."""
        absent = []
        for module_name, func_name in targets:
            name = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                absent.append(name)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        return absent

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _begin(self) -> tuple:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        return index, parent

    def _end(self, name: str, index: int, parent: int, start: int) -> None:
        end = perf_counter_ns()
        self._open.pop()
        self.spans[index] = Span(name, start, end, parent, len(self.ops) - 1)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._begin()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(name, index, parent, start)
        return traced

    @contextmanager
    def operation(self, label: str):
        """Root span of one benchmark operation; later spans carry its id."""
        self.ops.append(label)
        index, parent = self._begin()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._end("op", index, parent, start)

    def self_times(self, since: int = 0) -> dict:
        """Total self time in ns per span name over the spans from index
        ``since`` on; operation spans are left out."""
        children = [0] * len(self.spans)
        for s in self.spans[since:]:
            if s.parent >= 0:
                children[s.parent] += s.end - s.start
        totals: dict = {}
        for i in range(since, len(self.spans)):
            s = self.spans[i]
            if s.name == "op":
                continue
            totals[s.name] = totals.get(s.name, 0) + (s.end - s.start) - children[i]
        return totals

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s._asdict(), "op_label": self.ops[s.op]}) + "\n")
