"""Command line interface: formats, exit codes, cross-engine agreement."""

from __future__ import annotations

import argparse
import random

import pytest

from opmatch.bench import ENGINES
from opmatch.cli import (EX_DATA, EX_IOERR, EX_OK, EX_USAGE, OUTPUT_BLOCK,
                         _read_tokens, build_parser, main)
from opmatch.core import InputError

from conftest import oracle_positions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


class TestGen:
    def test_writes_permutation(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        code, _, _ = run(capsys, "gen", "--n", "5", "--seed", "1", "--out", str(out))
        assert code == EX_OK
        values = [int(tok) for tok in out.read_text().split()]
        assert sorted(values) == [1, 2, 3, 4, 5]

    def test_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "0")
        assert code == EX_USAGE and err

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "gen", "--n", "64", "--seed", "9", "--out", str(a))
        run(capsys, "gen", "--n", "64", "--seed", "9", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "3", "--seed", "0")
        assert code == EX_OK and len(out.split()) == 3

    def test_round_trip_through_search(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        run(capsys, "gen", "--n", "40", "--seed", "2", "--out", str(out))
        code, printed, _ = run(capsys, "search", "--algo", "naive",
                               str(out), str(out))
        assert code == EX_OK and printed == "1\n"

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--n", "3",
                           "--out", str(tmp_path / "missing" / "t.txt"))
        assert code == EX_IOERR and err


class TestSearch:
    def test_mp_example(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "4 12 6 16 10\n")
        t = write(tmp_path / "t.txt", "1 4 2 5 3 6\n")
        code, out, _ = run(capsys, "search", "--algo", "mp", p, t)
        assert code == EX_OK and out == "1\n"

    def test_pattern_equals_text(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "8 1 5\n")
        code, out, _ = run(capsys, "search", "--algo", "naive", p, p)
        assert code == EX_OK and out == "1\n"

    def test_duplicate_text_value_is_data_error(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "1 2\n")
        t = write(tmp_path / "t.txt", "3 5 3\n")
        code, _, err = run(capsys, "search", p, t)
        assert code == EX_DATA
        assert f"{t}: duplicate value 3 at positions 1 and 3" in err

    def test_duplicate_pattern_value_is_data_error(self, tmp_path, capsys):
        # the error names the pattern file, also after a comment
        p = write(tmp_path / "p.txt", "1 2 3 # c\n4 5 4\n")
        t = write(tmp_path / "t.txt", "1 2 3 4 5 6 7\n")
        code, out, err = run(capsys, "search", p, t)
        assert code == EX_DATA and out == ""
        assert f"{p}: duplicate value 4 at positions 4 and 6" in err

    def test_all_engines_print_identical_positions(self, tmp_path, capsys):
        from opmatch.bench import random_permutation
        p = write(tmp_path / "p.txt",
                  " ".join(map(str, random_permutation(20, 5))))
        t = write(tmp_path / "t.txt",
                  " ".join(map(str, random_permutation(3000, 6))))
        outputs = set()
        for algo in ENGINES:
            code, out, _ = run(capsys, "search", "--algo", algo, p, t)
            assert code == EX_OK
            outputs.add(out)
        assert len(outputs) == 1

    def test_stats_trailer(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "1 2\n")
        t = write(tmp_path / "t.txt", "5 4 3\n")
        code, out, _ = run(capsys, "search", "--algo", "mp", "--stats", p, t)
        assert code == EX_OK
        assert out.startswith("# stats: symbols_read=3 ")

    def test_sublinear_fallback_notice(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "1 2 3\n")
        t = write(tmp_path / "t.txt", " ".join(map(str, range(1, 40))))
        code, out, err = run(capsys, "search", "--algo", "sublinear", p, t)
        assert code == EX_OK and "falling back to mp" in err
        # from m = 6 the notice names the up/down filter that ran instead
        p8 = write(tmp_path / "p8.txt", "1 2 3 4 5 6 8 7\n")
        code, out, err = run(capsys, "search", "--algo", "sublinear", p8, t)
        assert code == EX_OK and out == ""
        assert "falling back to the up/down filter" in err
        # m = 15 is the last length the filter takes; from m = 16 on the
        # factor index runs and nothing is said
        p15 = write(tmp_path / "p15.txt", " ".join(map(str, range(15, 0, -1))))
        code, out, err = run(capsys, "search", "--algo", "sublinear", p15, t)
        assert code == EX_OK and out == ""
        assert "falling back to the up/down filter" in err
        p16 = write(tmp_path / "p16.txt", " ".join(map(str, range(16, 0, -1))))
        code, out, err = run(capsys, "search", "--algo", "sublinear", p16, t)
        assert code == EX_OK and out == "" and err == ""
        # the notice cannot be silenced: the removed flag is a usage error
        code, out, _ = run(capsys, "search", "--algo", "sublinear", "--quiet", p, t)
        assert code == EX_USAGE and out == ""

    def test_read_length_option_is_usage_error(self, tmp_path, capsys):
        # the backward read length is fixed; the removed flag must not run
        # a different search silently
        p = write(tmp_path / "p.txt", " ".join(map(str, range(1, 17))))
        t = write(tmp_path / "t.txt", " ".join(map(str, range(1, 40))))
        code, out, _ = run(capsys, "search", "--algo", "sublinear",
                           "--b-factor", "1", p, t)
        assert code == EX_USAGE and out == ""

    def test_comments_and_whitespace(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "# the pattern\n2\n1\n")
        t = write(tmp_path / "t.txt", "9 5 # trailing comment\n3\n")
        code, out, _ = run(capsys, "search", p, t)
        assert code == EX_OK and out == "1\n2\n"

    def test_empty_pattern_file(self, tmp_path, capsys):
        t = write(tmp_path / "t.txt", "1 2\n")
        for body in ("\n", "# no pattern\n"):
            p = write(tmp_path / "p.txt", body)
            code, out, err = run(capsys, "search", p, t)
            assert code == EX_DATA and out == ""
            assert f"{p}: pattern must contain at least one integer" in err, body

    def test_pattern_longer_than_text(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "1 2 3\n")
        t = write(tmp_path / "t.txt", "1 2\n")
        for algo in ENGINES:
            code, _, _ = run(capsys, "search", "--algo", algo, p, t)
            assert code == EX_DATA, algo

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        t = write(tmp_path / "t.txt", "1 2\n")
        code, _, _ = run(capsys, "search", str(tmp_path / "nope.txt"), t)
        assert code == EX_IOERR

    def test_zero_occurrences_still_ok(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "1 2\n")
        t = write(tmp_path / "t.txt", "5 4 3\n")
        code, out, _ = run(capsys, "search", p, t)
        assert code == EX_OK and out == ""

    def test_bad_algo_is_usage_error(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "1 2\n")
        code, _, _ = run(capsys, "search", "--algo", "bogus", p, p)
        assert code == EX_USAGE

    def test_underscore_and_plus_in_pattern_are_data_errors(self, tmp_path, capsys):
        # int() would read these as 10 and 5
        p = write(tmp_path / "p.txt", "1_0 +5 -2\n")
        t = write(tmp_path / "t.txt", "3 1 4 2\n")
        code, out, err = run(capsys, "search", p, t)
        assert code == EX_DATA and out == ""
        assert p in err

    def test_underscore_in_text_is_data_error(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "1 2\n")
        t = write(tmp_path / "t.txt", "3 1_1 4 2\n")
        code, out, err = run(capsys, "search", p, t)
        assert code == EX_DATA and out == ""
        assert t in err

    def test_underscore_and_plus_in_comments_are_allowed(self, tmp_path, capsys):
        p = write(tmp_path / "p.txt", "# +1_0\n2 1 # a_b + c\n")
        t = write(tmp_path / "t.txt", "9 5 # 1_1\n3\n")
        code, out, _ = run(capsys, "search", p, t)
        assert code == EX_OK and out == "1\n2\n"


class TestMultisearch:
    def test_example(self, tmp_path, capsys):
        pats = write(tmp_path / "pats.txt", "1 2\n2 1\n")
        t = write(tmp_path / "t.txt", "3 1 4 2\n")
        code, out, _ = run(capsys, "multisearch", pats, t)
        assert code == EX_OK
        assert out == "1\t2\n2\t1\n3\t2\n"

    def test_single_pattern_matches_search(self, tmp_path, capsys):
        pats = write(tmp_path / "pats.txt", "4 12 6 16 10\n")
        t = write(tmp_path / "t.txt", "1 4 2 5 3 6\n")
        code, out, _ = run(capsys, "multisearch", pats, t)
        assert code == EX_OK
        _, search_out, _ = run(capsys, "search", "--algo", "mp", pats, t)
        assert [line.split("\t")[0] for line in out.splitlines()] == \
            search_out.split()

    def test_many_patterns_ending_at_one_position(self, tmp_path, capsys):
        # on an ascending text every ascending pattern matches at every
        # start, so up to four patterns end at each position; the output
        # must still be sorted by position, then by 1-based id
        seqs = [[2, 4, 6, 8, 10], [5, 4, 3, 2, 1], [1, 2], [10, 20, 30], [1, 2, 3]]
        text = list(range(1, 41))
        pats = write(tmp_path / "pats.txt",
                     "".join(" ".join(map(str, p)) + "\n" for p in seqs))
        t = write(tmp_path / "t.txt", " ".join(map(str, text)) + "\n")
        code, out, _ = run(capsys, "multisearch", pats, t)
        assert code == EX_OK
        want = sorted((pos, k) for k, p in enumerate(seqs, 1)
                      for pos in oracle_positions(p, text))
        assert out == "".join(f"{pos}\t{k}\n" for pos, k in want)

    def test_empty_pattern_line(self, tmp_path, capsys):
        pats = write(tmp_path / "pats.txt", "1 2\n\n2 1\n")
        t = write(tmp_path / "t.txt", "1 2\n")
        code, _, _ = run(capsys, "multisearch", pats, t)
        assert code == EX_DATA

    def test_comment_lines_skipped(self, tmp_path, capsys):
        pats = write(tmp_path / "pats.txt", "# set\n1 2\n2 1\n")
        t = write(tmp_path / "t.txt", "3 1 4 2\n")
        code, out, _ = run(capsys, "multisearch", pats, t)
        # the index counts pattern lines only, not the comment line
        assert code == EX_OK and out == "1\t2\n2\t1\n3\t2\n"

    def test_plus_in_pattern_line_is_data_error(self, tmp_path, capsys):
        pats = write(tmp_path / "pats.txt", "2 1\n1 2 3 +4\n")
        t = write(tmp_path / "t.txt", "3 1 4 2 5\n")
        code, out, err = run(capsys, "multisearch", pats, t)
        assert code == EX_DATA and out == ""
        assert pats in err

    def test_duplicate_text_value_is_data_error(self, tmp_path, capsys):
        pats = write(tmp_path / "pats.txt", "1 2\n2 1\n")
        t = write(tmp_path / "t.txt", "3 1 4 1 2\n")
        code, out, err = run(capsys, "multisearch", pats, t)
        assert code == EX_DATA and out == ""
        assert f"{t}: duplicate value 1 at positions 2 and 4" in err

    def test_duplicate_pattern_value_names_the_line(self, tmp_path, capsys):
        pats = write(tmp_path / "pats.txt", "1 2\n3 1 3\n")
        t = write(tmp_path / "t.txt", "3 1 4 2 5\n")
        code, out, err = run(capsys, "multisearch", pats, t)
        assert code == EX_DATA and out == ""
        assert f"{pats}:2: duplicate value 3 at positions 1 and 3" in err


def test_non_ascii_input_is_data_error(tmp_path, capsys):
    # a UTF-8 byte order mark in any input file a command reads
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf1 2 3\n")
    p = write(tmp_path / "p.txt", "1 2\n")
    t = write(tmp_path / "t.txt", "3 1 4 2\n")
    for argv in (("search", p, str(bom)), ("search", str(bom), t),
                 ("multisearch", p, str(bom)),
                 ("bench", "--algo", "mp", "--n", "8", "--pattern-file", str(bom))):
        code, out, err = run(capsys, *argv)
        assert code == EX_DATA and out == "", argv
        assert str(bom) in err, argv


def test_output_spanning_blocks_keeps_line_format_and_stats_last(tmp_path, capsys):
    # an ascending text matches "1 2" at every start: more than two blocks
    n = 2 * OUTPUT_BLOCK + 5
    p = write(tmp_path / "p.txt", "1 2\n")
    t = write(tmp_path / "t.txt", "\n".join(map(str, range(1, n + 1))) + "\n")
    for argv, line in ((("search", "--stats", p, t), "{}\n"),
                       (("multisearch", "--stats", p, t), "{}\t1\n")):
        code, out, _ = run(capsys, *argv)
        assert code == EX_OK
        lines = "".join(line.format(i) for i in range(1, n))
        assert out.startswith(lines)
        trailer = out[len(lines):]
        assert trailer.startswith("# stats: symbols_read=") and trailer.count("\n") == 1


class TestBench:
    def test_rows_and_header(self, capsys):
        code, out, _ = run(capsys, "bench", "--algo", "mp", "--m", "8",
                           "--n", "1024", "--trials", "3", "--seed", "7")
        assert code == EX_OK
        lines = out.splitlines()
        assert lines[0].startswith("# prng=")
        assert lines[1].startswith("algo,m,n,seed,")
        assert len(lines) == 5

    def test_repeat_identical_modulo_elapsed(self, capsys):
        argv = ("bench", "--algo", "naive", "--m", "4", "--n", "128",
                "--trials", "2", "--seed", "3")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        trim = lambda s: [",".join(l.split(",")[:-1]) for l in s.splitlines()]
        assert trim(out1) == trim(out2)

    def test_bad_algo_usage(self, capsys):
        code, _, _ = run(capsys, "bench", "--algo", "bogus", "--m", "4", "--n", "8")
        assert code == EX_USAGE

    def test_missing_m_usage(self, capsys):
        code, _, _ = run(capsys, "bench", "--algo", "mp", "--n", "8")
        assert code == EX_USAGE

    def test_m_with_pattern_file_usage(self, tmp_path, capsys):
        pat = tmp_path / "p.txt"
        pat.write_text("4 12 6 16 10\n")
        code, out, _ = run(capsys, "bench", "--algo", "mp", "--m", "3", "--n", "64",
                           "--pattern-file", str(pat))
        assert code == EX_USAGE and out == ""

    def test_duplicate_in_pattern_file_is_data_error(self, tmp_path, capsys):
        pat = write(tmp_path / "p.txt", "4 12 6 12\n")
        code, out, err = run(capsys, "bench", "--algo", "mp", "--n", "64",
                             "--pattern-file", pat)
        assert code == EX_DATA and out == ""
        assert f"{pat}: duplicate value 12 at positions 2 and 4" in err

    def test_zero_trials_usage(self, capsys):
        code, out, _ = run(capsys, "bench", "--algo", "mp", "--m", "4", "--n", "8",
                           "--trials", "0")
        assert code == EX_USAGE and out == ""

    def test_zero_n_usage(self, capsys):
        code, out, _ = run(capsys, "bench", "--algo", "mp", "--n", "0", "--m", "1")
        assert code == EX_USAGE and out == ""

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, "bench", "--algo", "ac", "--m", "4", "--n", "64",
                         "--out", str(out))
        assert code == EX_OK and out.read_text().count("\n") == 3


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EX_OK


def test_search_and_bench_offer_every_engine():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command in ("search", "bench"):
        algo = next(a for a in commands[command]._actions if a.dest == "algo")
        assert set(algo.choices) == set(ENGINES), command


def reference_tokens(path):
    """The reader's contract spelled out line by line, then token by token."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    tokens = [tok for line in text.splitlines()
              for tok in line.split("#", 1)[0].split()]
    for tok in tokens:
        if "_" in tok or "+" in tok:
            raise InputError(f"{path}: invalid integer {tok!r}")
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_outcome(reader, path):
    try:
        return reader(path)
    except InputError as exc:
        return str(exc)


FUZZ_ALPHABET = (list("0123456789") * 3 + list("-#_+x")
                 + list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f") + ["\r\n"])


@pytest.mark.parametrize("body, tokens", [
    ("# c\x0c5", [5]),    # a form feed ends the comment
    ("# c\x1f5", []),     # \x1f separates tokens but is no line break
    ("1\x1f2", [1, 2]),
])
def test_reader_line_breaks_and_separators(tmp_path, body, tokens):
    path = tmp_path / "t.txt"
    path.write_bytes(body.encode("ascii"))
    assert _read_tokens(str(path)) == reference_tokens(str(path)) == tokens


def test_reader_matches_reference_on_fuzzed_files(tmp_path):
    rng = random.Random(20131)
    path = tmp_path / "t.txt"
    parsed = rejected = 0
    for _ in range(3000):
        body = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 40)))
        path.write_bytes(body.encode("ascii"))
        got = read_outcome(_read_tokens, str(path))
        assert got == read_outcome(reference_tokens, str(path)), repr(body)
        if isinstance(got, list):
            parsed += 1
        else:
            rejected += 1
    # both outcomes are common, so neither comparison is vacuous
    assert parsed > 300 and rejected > 300
