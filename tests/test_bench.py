"""`opmatch bench`: deterministic inputs, counters, CSV shape."""

from __future__ import annotations

import hashlib

import pytest

from opmatch.bench import ENGINES, random_permutation
from opmatch.cli import EX_OK, EX_USAGE, main
from opmatch.core import rep_table

HEADER = "algo,m,n,seed,occurrences,symbols_read,transitions,verifications,elapsed_ns"


def bench_lines(capsys, *argv):
    """The output lines of one successful `opmatch bench` run."""
    code = main(["bench", *map(str, argv)])
    assert code == EX_OK
    return capsys.readouterr().out.splitlines()


def bench_rows(capsys, *argv):
    """The CSV rows of one run as dicts, every field but algo an int."""
    lines = bench_lines(capsys, *argv)
    assert lines[1] == HEADER
    return [{name: value if name == "algo" else int(value)
             for name, value in zip(HEADER.split(","), line.split(","))}
            for line in lines[2:]]


def strip_elapsed(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestRandomPermutation:
    def test_n_one(self):
        assert random_permutation(1, 12345) == (1,)

    def test_deterministic(self):
        assert random_permutation(5, 77) == random_permutation(5, 77)
        assert random_permutation(1000, 3) == random_permutation(1000, 3)

    def test_golden_values(self):
        # frozen outputs of the documented generator; a change here means
        # the determinism contract broke
        assert random_permutation(5, 1) == (3, 4, 5, 1, 2)
        assert random_permutation(5, 2) == (3, 2, 4, 5, 1)

    @pytest.mark.parametrize("n, seed, digest", [
        (4097, 2026, "191df63e22af6d8984680e027f628e755a104a5011b1ce9bfc8b9e72cd209a51"),
        (65536, 10**12, "f8fae7b0faf097f0b64c9d37fc1e04d27479823b023b8bd69258fc2d3aa1a1d4"),
    ])
    def test_golden_digests(self, n, seed, digest):
        # the n = 5 goldens only draw below 8; these frozen outputs of the
        # earlier hand-written Fisher-Yates loop draw up to 2**16, so any
        # change in how indexes are drawn shows here
        perm = ",".join(map(str, random_permutation(n, seed)))
        assert hashlib.sha256(perm.encode()).hexdigest() == digest

    def test_large_output_is_permutation(self):
        n = 1_000_000
        perm = random_permutation(n, 9)
        assert sum(perm) == n * (n + 1) // 2
        assert len(set(perm)) == n

    def test_seeds_differ(self):
        assert random_permutation(64, 1) != random_permutation(64, 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            random_permutation(0, 1)

    def test_rejects_negative_seed(self):
        # random.Random seeds an int by its absolute value, so -7 would
        # silently repeat the permutation of 7
        with pytest.raises(ValueError, match="seed must be >= 0"):
            random_permutation(8, -7)


class TestRunBench:
    def test_naive_read_bound(self, capsys):
        rows = bench_rows(capsys, "--algo", "naive", "--m", 4, "--n", 64,
                          "--trials", 2, "--seed", 1)
        assert len(rows) == 2
        for row in rows:
            assert row["symbols_read"] <= 4 * 61
            assert row["occurrences"] >= 0

    def test_mp_transition_bound(self, capsys):
        for row in bench_rows(capsys, "--algo", "mp", "--m", 8, "--n", 1024,
                              "--trials", 3, "--seed", 7):
            assert row["transitions"] <= 3 * 1024

    def test_forward_transition_bound(self, capsys):
        for row in bench_rows(capsys, "--algo", "forward", "--m", 8, "--n", 1024,
                              "--trials", 3, "--seed", 7):
            assert row["transitions"] <= 2 * 1024

    def test_all_algorithms_run(self, capsys):
        for algo in ENGINES:
            (row,) = bench_rows(capsys, "--algo", algo, "--m", 20, "--n", 400,
                                "--trials", 1, "--seed", 5)
            assert row["algo"] == algo and row["m"] == 20 and row["n"] == 400

    def test_engines_agree_on_occurrence_count(self, capsys):
        counts = set()
        for algo in ("naive", "mp", "forward", "sublinear"):
            rows = bench_rows(capsys, "--algo", algo, "--m", 6, "--n", 512,
                              "--trials", 2, "--seed", 11)
            counts.add(tuple(row["occurrences"] for row in rows))
        assert len(counts) == 1

    def test_fixed_pattern(self, tmp_path, capsys):
        pat = tmp_path / "p.txt"
        pat.write_text("4 12 6 16 10\n", encoding="ascii")
        rows = bench_rows(capsys, "--algo", "mp", "--pattern-file", pat,
                          "--n", 256, "--trials", 2, "--seed", 3)
        assert [row["m"] for row in rows] == [5, 5]

    def test_config_validation(self, tmp_path, capsys):
        # an unknown engine, zero trials, neither or both of --m and
        # --pattern-file: test_cli.py's TestBench
        pat = tmp_path / "p.txt"
        pat.write_text("4 12 6 16 10\n", encoding="ascii")
        for argv in (("--algo", "mp", "--m", 9, "--n", 8),
                     ("--algo", "mp", "--pattern-file", pat, "--n", 4)):
            assert main(["bench", *map(str, argv)]) == EX_USAGE, argv
            assert capsys.readouterr().out == "", argv

    def test_counter_sanity(self, capsys):
        for algo in ENGINES:
            for row in bench_rows(capsys, "--algo", algo, "--m", 3, "--n", 2048,
                                  "--trials", 2, "--seed", 13):
                assert row["symbols_read"] >= row["occurrences"]
                assert row["transitions"] >= 0
                assert row["verifications"] >= 0 and row["elapsed_ns"] >= 0


class TestCsv:
    def test_header_and_provenance(self, capsys):
        lines = bench_lines(capsys, "--algo", "mp", "--m", 4, "--n", 64,
                            "--trials", 2, "--seed", 1)
        assert lines[0].startswith("# prng=")
        assert lines[1] == HEADER
        assert len(lines) == 4

    def test_determinism_modulo_elapsed(self, capsys):
        argv = ("--algo", "forward", "--m", 8, "--n", 512, "--trials", 3,
                "--seed", 42)
        a = strip_elapsed(bench_lines(capsys, *argv))
        b = strip_elapsed(bench_lines(capsys, *argv))
        assert a == b

    def test_row_fields(self, capsys):
        # trial k searches random_permutation(m, s + 1) in
        # random_permutation(n, s) with s = seed*1000003 + 2k, and its row
        # is the engine's counts in header order
        for algo in ENGINES:
            rows = bench_rows(capsys, "--algo", algo, "--m", 4, "--n", 64,
                              "--trials", 2, "--seed", 9)
            for k, row in enumerate(rows):
                seed = 9 * 1000003 + 2 * k
                occ, stats = ENGINES[algo](
                    rep_table(random_permutation(4, seed + 1)),
                    random_permutation(64, seed))
                assert row == {
                    "algo": algo, "m": 4, "n": 64, "seed": seed,
                    "occurrences": len(occ), "symbols_read": stats.symbols_read,
                    "transitions": stats.transitions_taken,
                    "verifications": stats.verifications,
                    "elapsed_ns": row["elapsed_ns"]}
                assert row["elapsed_ns"] >= 0
