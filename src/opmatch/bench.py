"""Instrumented experiment runner: random inputs, counters, CSV emission.

Random permutations come from a Fisher-Yates shuffle driven by CPython's
Mersenne Twister through ``random.Random(seed).getrandbits`` with rejection
sampling, which produces identical sequences for identical (n, seed) on
every platform.  Elapsed time is reported but never asserted anywhere; all
repeatable conclusions rest on the search counters.
"""

from __future__ import annotations

import random
import time
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Optional, TextIO

from .core import SearchStats, check_fits, naive_search, rep_table
from .forward_automaton import build_forward, forward_search
from .mp_automaton import build_mp, mp_search
from .multi_ac import ac_search, build_ac, make_pattern_set
from .sublinear import search_or_fallback

PRNG_NOTE = "mt19937(random.Random.getrandbits)+fisher-yates+rejection"


def _randbelow(rng: random.Random, k: int) -> int:
    bits = k.bit_length()
    v = rng.getrandbits(bits)
    while v >= k:
        v = rng.getrandbits(bits)
    return v


def random_permutation(n: int, seed: int) -> tuple:
    """Uniform permutation of 1..n, deterministic for (n, seed)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    a = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = _randbelow(rng, i + 1)
        a[i], a[j] = a[j], a[i]
    return tuple(a)


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark batch: algorithm, sizes, trial count, base seed."""

    algo: str
    n: int
    trials: int
    seed: int
    m: Optional[int] = None
    pattern: Optional[tuple] = None  # fixed pattern instead of random ones

    def __post_init__(self):
        if self.algo not in ENGINES:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if (self.pattern is None) == (self.m is None):
            raise ValueError("give exactly one of m and a fixed pattern")
        m = len(self.pattern) if self.pattern is not None else self.m
        if m < 1 or m > self.n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={self.n}")


@dataclass(frozen=True)
class BenchRecord:
    algo: str
    m: int
    n: int
    seed: int
    occurrences: int
    symbols_read: int
    transitions: int
    verifications: int
    elapsed_ns: int

    def csv_row(self) -> str:
        return ",".join(map(str, astuple(self)))


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def _naive(pattern, text):
    stats = SearchStats()
    return naive_search(pattern, text, stats), stats


def _ac(pattern, text):
    # ac_search alone accepts a text shorter than its patterns; validate the
    # pattern first so a bad one raises the same error as in the other engines
    pattern = rep_table(pattern)
    check_fits(len(pattern), len(text))
    return ac_search(build_ac(make_pattern_set([pattern])), text)


# Every engine as (pattern, text) -> (occurrences, stats), building what it
# needs from the pattern.  The bodies look the engine functions up by name
# at call time, so wrappers installed on the module attributes see them.
ENGINES = {
    "naive": _naive,
    "mp": lambda pattern, text: mp_search(build_mp(pattern), text),
    "forward": lambda pattern, text: forward_search(
        build_forward(build_mp(pattern)), text),
    "sublinear": lambda pattern, text: search_or_fallback(pattern, text)[:2],
    "ac": _ac,
}


def run_bench(cfg: BenchConfig) -> list:
    """One BenchRecord per trial, deterministic apart from elapsed_ns.

    Trial k derives text seed base*1000003 + 2k and pattern seed one above
    it; the text seed is what lands in the record.  The pattern of each
    trial is a fresh random permutation of 1..m unless a fixed pattern was
    configured.  Elapsed time covers build plus search.
    """
    records = []
    fixed = None if cfg.pattern is None else rep_table(cfg.pattern)
    for k in range(cfg.trials):
        text_seed = cfg.seed * 1000003 + 2 * k
        pattern = (fixed if fixed is not None
                   else rep_table(random_permutation(cfg.m, text_seed + 1)))
        text = random_permutation(cfg.n, text_seed)
        t0 = time.perf_counter_ns()
        occ, stats = ENGINES[cfg.algo](pattern, text)
        elapsed = time.perf_counter_ns() - t0
        records.append(BenchRecord(
            algo=cfg.algo,
            m=len(pattern),
            n=cfg.n,
            seed=text_seed,
            occurrences=len(occ),
            symbols_read=stats.symbols_read,
            transitions=stats.transitions_taken,
            verifications=stats.verifications,
            elapsed_ns=elapsed,
        ))
    return records


def write_csv(records: Iterable[BenchRecord], sink: TextIO) -> None:
    """Comment line documenting the PRNG, the header row, one row per record."""
    sink.write(f"# prng={PRNG_NOTE}\n")
    sink.write(CSV_HEADER + "\n")
    for rec in records:
        sink.write(rec.csv_row() + "\n")
