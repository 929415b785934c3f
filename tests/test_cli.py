"""Command line interface: formats, exit codes, cross-engine agreement."""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from opmatch import (cli, core, forward_automaton, mp_automaton, multi_ac,
                     sublinear)
from opmatch.bench import ENGINES, random_permutation
from opmatch.cli import (EX_DATA, EX_IOERR, EX_OK, EX_USAGE, OUTPUT_BLOCK,
                         _read_text_values, _read_tokens, build_parser, main)
from opmatch.core import InputError, SearchStats, rep_table, validate_seq
from opmatch.multi_ac import ac_search, build_ac

from conftest import SRC, fresh_python, oracle_positions


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

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # random.Random would seed -7 as 7 and write the same file
        out = tmp_path / "t.txt"
        code, printed, err = run(capsys, "gen", "--n", "8", "--seed", "-7",
                                 "--out", str(out))
        assert code == EX_USAGE and printed == ""
        assert "--seed must be >= 0" in err and not out.exists()

    def test_output_spanning_blocks_is_unchanged(self, tmp_path, capsys):
        # written in blocks, the file is still the whole body in one piece
        n = 2 * OUTPUT_BLOCK + 5
        body = "\n".join(str(v) for v in random_permutation(n, 11)) + "\n"
        code, printed, _ = run(capsys, "gen", "--n", str(n), "--seed", "11")
        assert code == EX_OK and printed == body
        out = tmp_path / "t.txt"
        code, printed, _ = run(capsys, "gen", "--n", str(n), "--seed", "11",
                               "--out", str(out))
        assert code == EX_OK and printed == ""
        assert out.read_bytes() == body.encode("ascii")


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
            code, out, err = run(capsys, "search", "--algo", algo, p, t)
            assert code == EX_DATA and out == "", algo
            assert (f"{p}: pattern length 3 exceeds text length 2 of {t}"
                    in err), algo

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
        # [20, 40, 60, 80, 100] is an order-isomorphic scaled duplicate of
        # the first pattern, and the last is longer than the text
        seqs = [[2, 4, 6, 8, 10], [5, 4, 3, 2, 1], [1, 2], [10, 20, 30], [1, 2, 3],
                [20, 40, 60, 80, 100], list(range(1, 42))]
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

    @pytest.mark.parametrize("body", ["# set\n  # none yet\n", ""])
    def test_no_patterns_is_data_error(self, tmp_path, capsys, body):
        pats = write(tmp_path / "pats.txt", body)
        t = write(tmp_path / "t.txt", "3 1 4 2 5\n")
        code, out, err = run(capsys, "multisearch", pats, t)
        assert code == EX_DATA and out == ""
        assert err == f"opmatch: {pats}: no patterns\n"


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
    # an ascending text matches "1 2" at every start: more than two blocks;
    # with two such patterns both ids of a start are printed in order, also
    # where the start's two lines fall into different blocks
    n = 2 * OUTPUT_BLOCK + 5
    p = write(tmp_path / "p.txt", "1 2\n")
    p2 = write(tmp_path / "p2.txt", "1 2\n10 20\n")
    t = write(tmp_path / "t.txt", "\n".join(map(str, range(1, n + 1))) + "\n")
    for argv, line in ((("search", "--stats", p, t), "{0}\n"),
                       (("multisearch", "--stats", p, t), "{0}\t1\n"),
                       (("multisearch", "--stats", p2, t), "{0}\t1\n{0}\t2\n")):
        code, out, _ = run(capsys, *argv)
        assert code == EX_OK
        lines = "".join(line.format(i) for i in range(1, n))
        assert out.startswith(lines)
        trailer = out[len(lines):]
        assert trailer.startswith("# stats: symbols_read=") and trailer.count("\n") == 1


def test_commands_print_without_making_occurrences(tmp_path, capsys, monkeypatch):
    # search and multisearch print from the engines' match ends: with
    # Occurrence no tuple subclass, tuple.__new__ raises in any
    # _occurrences call, yet every command must print what it printed
    # before; m = 3, 8 and 20 take sublinear's mp, filter and factor-index
    # paths, and the zig-zag text matches every other start
    n = 300
    text = [v for i in range(1, n // 2 + 1) for v in (2 * i + 1000, 2 * i)]
    t = write(tmp_path / "t.txt", " ".join(map(str, text)) + "\n")
    pats = []
    for m in (3, 8, 20):
        shape = [v for i in range(1, m // 2 + 2) for v in (2 * i + 100, 2 * i)][:m]
        pats.append(write(tmp_path / f"p{m}.txt", " ".join(map(str, shape)) + "\n"))
    dictionary = write(tmp_path / "pats.txt", "2 1\n1 2 3\n4 1\n30 10 20 5\n")
    argvs = [("search", "--stats", "--algo", algo, p, t)
             for algo in ENGINES for p in pats]
    argvs.append(("multisearch", "--stats", dictionary, t))
    want = [run(capsys, *argv) for argv in argvs]
    assert all(code == EX_OK and out.count("\n") > 10 for code, out, _ in want)
    monkeypatch.setattr(core, "Occurrence", object)
    with pytest.raises(TypeError):
        core._occurrences([([0], 1, 0)])  # the patch is seen
    assert [run(capsys, *argv) for argv in argvs] == want


def test_commands_call_the_traced_engine_functions(tmp_path, capsys, monkeypatch):
    # the benchmark's traced command run times each engine by wrapping its
    # module attribute wherever an opmatch module binds it; the commands
    # must reach the engines through those names, once per command
    targets = ((mp_automaton, "mp_search"), (forward_automaton, "forward_search"),
               (sublinear, "sublinear_search"), (multi_ac, "ac_search"))
    counts = {name: 0 for _, name in targets}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in targets:
        original = getattr(module, name)
        wrapper = counting(name, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] == "opmatch":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
    # m = 20: sublinear uses its factor index and calls no other engine
    p = write(tmp_path / "p.txt", " ".join(map(str, range(1, 21))) + "\n")
    pats = write(tmp_path / "pats.txt", "1 2\n2 1\n")
    t = write(tmp_path / "t.txt", " ".join(map(str, range(1, 41))) + "\n")
    cases = [(("search", "--algo", algo, p, t), engine) for algo, engine in
             (("naive", None), ("mp", "mp_search"), ("forward", "forward_search"),
              ("sublinear", "sublinear_search"), ("ac", "ac_search"))]
    cases.append((("multisearch", pats, t), "ac_search"))
    for argv, engine in cases:
        counts.update(dict.fromkeys(counts, 0))
        code, out, _ = run(capsys, *argv)
        assert code == EX_OK and out.count("\n") >= 20, argv
        assert counts == {name: int(name == engine) for name in counts}, argv


def modules_held(tmp_path, code):
    """The modules a fresh interpreter holds after running code."""
    listing = tmp_path / "modules.txt"
    fresh_python(f"{code}\nimport sys\n"
                 f"open({str(listing)!r}, 'w').write(' '.join(sys.modules))\n", tmp_path)
    return set(listing.read_text().split())


# the engine modules each ENGINES key runs
ENGINE_MODULES = {
    "naive": set(),
    "mp": {"mp_automaton"},
    "forward": {"forward_automaton", "mp_automaton"},
    "sublinear": {"sublinear", "mp_automaton"},
    "ac": {"multi_ac"},
}


def test_each_command_loads_only_the_engine_it_runs(tmp_path):
    # by module set, not by time: importing the package loads no engine,
    # and a command adds to the CLI's own modules only the engine it runs.
    # Only what code adds to a bare interpreter counts, so a site hook that
    # imports a module does not change the sets.
    bare = modules_held(tmp_path, "pass")

    def added(code):
        return modules_held(tmp_path, code) - bare

    def package_modules(names):
        return {name.split(".", 1)[1] for name in names if name.startswith("opmatch.")}

    names = added("import opmatch")
    assert "opmatch" in names and package_modules(names) == set()
    assert not names & {"dataclasses", "inspect"}
    cli_modules = {"core", "bench", "cli"}
    names = added("import opmatch.cli")
    assert package_modules(names) == cli_modules and "dataclasses" not in names
    assert set(ENGINE_MODULES) == set(ENGINES)
    # m = 20: sublinear uses its factor index, so it runs no other engine
    p = write(tmp_path / "p.txt", " ".join(map(str, range(1, 21))) + "\n")
    pats = write(tmp_path / "pats.txt", "1 2\n2 1\n")
    t = write(tmp_path / "t.txt", " ".join(map(str, range(1, 41))) + "\n")
    cases = [(["search", "--algo", algo, p, t], wanted)
             for algo, wanted in ENGINE_MODULES.items()]
    cases.append((["multisearch", pats, t], {"multi_ac"}))
    for argv, wanted in cases:
        names = added(f"from opmatch.cli import main\nassert main({argv!r}) == 0")
        assert package_modules(names) == cli_modules | wanted, argv
        assert "dataclasses" not in names, argv


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

    def test_negative_seed_usage(self, capsys):
        code, out, err = run(capsys, "bench", "--algo", "mp", "--m", "4", "--n", "8",
                             "--seed", "-1")
        assert code == EX_USAGE and out == ""
        assert "--seed must be >= 0" in err

    def test_zero_n_usage(self, capsys):
        code, out, _ = run(capsys, "bench", "--algo", "mp", "--n", "0", "--m", "1")
        assert code == EX_USAGE and out == ""

    def test_golden_rows(self, tmp_path, capsys):
        # the seeds fix columns 1-8 of every row; only elapsed_ns may vary.
        # mp, ac and the m = 8 sublinear rows (the up/down filter's MP runs)
        # count steps along strong failure links
        pat = write(tmp_path / "p.txt",
                    "# sixteen values\n9 3 14 1 16 7 12 5\n2 15 8 11 4 13 6 10\n")
        runs = {
            ("--m", "8", "--n", "1024", "--trials", "3", "--seed", "7"): {
                "naive": ["8,1024,7000021,0,2781,0,0", "8,1024,7000023,0,2760,0,0",
                          "8,1024,7000025,0,2761,0,0"],
                "mp": ["8,1024,7000021,0,1024,2656,0", "8,1024,7000023,0,1024,2610,0",
                       "8,1024,7000025,0,1024,2702,0"],
                "forward": ["8,1024,7000021,0,1024,1840,0",
                            "8,1024,7000023,0,1024,1817,0",
                            "8,1024,7000025,0,1024,1863,0"],
                "sublinear": ["8,1024,7000021,0,158,326,23",
                              "8,1024,7000023,0,37,83,11",
                              "8,1024,7000025,0,77,165,18"],
                "ac": ["8,1024,7000021,0,1024,2656,0", "8,1024,7000023,0,1024,2610,0",
                       "8,1024,7000025,0,1024,2702,0"],
            },
            ("--pattern-file", pat, "--n", "4096", "--trials", "2", "--seed", "3"): {
                "naive": ["16,4096,3000009,0,11097,0,0", "16,4096,3000011,0,11073,0,0"],
                "mp": ["16,4096,3000009,0,4096,10610,0", "16,4096,3000011,0,4096,10644,0"],
                "forward": ["16,4096,3000009,0,4096,7353,0",
                            "16,4096,3000011,0,4096,7370,0"],
                "sublinear": ["16,4096,3000009,0,1777,0,20",
                              "16,4096,3000011,0,1711,0,0"],
                "ac": ["16,4096,3000009,0,4096,10610,0", "16,4096,3000011,0,4096,10644,0"],
            },
        }
        for argv, want in runs.items():
            assert set(want) == set(ENGINES)
            for algo, rows in want.items():
                code, out, _ = run(capsys, "bench", "--algo", algo, *argv)
                assert code == EX_OK, (algo, argv)
                lines = out.splitlines()
                assert lines[:2] == [
                    "# prng=mt19937(random.Random.getrandbits)+fisher-yates+rejection",
                    "algo,m,n,seed,occurrences,symbols_read,transitions,"
                    "verifications,elapsed_ns"]
                assert [line.rsplit(",", 1)[0] for line in lines[2:]] == [
                    f"{algo},{row}" for row in rows], (algo, argv)

    @pytest.mark.parametrize("m, ran", [
        ("4", "mp"), ("8", "the up/down filter with mp verification"), ("16", None)])
    def test_sublinear_fallback_notice(self, capsys, m, ran):
        # m is the same in every trial, so the notice comes once per command,
        # on stderr only, so the CSV on stdout keeps its header and rows
        code, out, err = run(capsys, "bench", "--algo", "sublinear", "--m", m,
                             "--n", "256", "--trials", "3")
        assert code == EX_OK and len(out.splitlines()) == 5
        assert err == ("" if ran is None else "sublinear: pattern too short for "
                       f"backward-window search; falling back to {ran}\n")

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run(capsys, "bench", "--algo", "ac", "--m", "4", "--n", "64",
                         "--out", str(out))
        assert code == EX_OK and out.read_text().count("\n") == 3


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EX_OK


def stats_line(out):
    """The '# stats:' line's counters as (names, values)."""
    trailer = out.splitlines()[-1]
    assert trailer.startswith("# stats: ")
    names, values = zip(*(tok.split("=") for tok in trailer.split()[2:]))
    return names, tuple(map(int, values))


@pytest.mark.parametrize("algo", list(ENGINES))
def test_stats_line_reads_the_fields_in_order(tmp_path, capsys, algo):
    # m = 8: sublinear runs the up/down filter, whose verifications are not 0
    pattern = (3, 1, 4, 2, 6, 5, 8, 7)
    text = random_permutation(600, 2)
    p = write(tmp_path / "p.txt", " ".join(map(str, pattern)))
    t = write(tmp_path / "t.txt", " ".join(map(str, text)))
    code, out, _ = run(capsys, "search", "--stats", "--algo", algo, p, t)
    assert code == EX_OK
    stats = ENGINES[algo](rep_table(pattern), text)[1]
    assert stats_line(out) == (SearchStats._fields, stats)
    if algo == "ac":
        code, out, _ = run(capsys, "multisearch", "--stats", p, t)
        want = ac_search(build_ac((rep_table(pattern),)), text)[1]
        assert code == EX_OK and stats_line(out) == (SearchStats._fields, want)


@pytest.mark.parametrize("argv", [
    ("search", "{p}", "{t}"), ("search", "--stats", "--algo", "naive", "{p}", "{t}"),
    ("gen", "--n", "5"), ("gen", "--n", "100000"), ("multisearch", "{pats}", "{t}"),
    ("bench", "--algo", "mp", "--m", "4", "--n", "64")],
    ids=["search", "search-stats", "gen-short", "gen-long", "multisearch", "bench"])
def test_closed_output_pipe_exits_quietly(tmp_path, argv):
    # the read end is closed before the command starts, so its first write
    # fails, whether mid-command or at the final flush of a short output
    files = {"p": write(tmp_path / "p.txt", "1 2\n"),
             "t": write(tmp_path / "t.txt", "1 3 2 5 4 6\n"),
             "pats": write(tmp_path / "pats.txt", "1 2\n2 1\n")}
    # buffered output, as usual, so a short one is written only at the end
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "opmatch.cli", *(a.format(**files) for a in argv)],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    # no "Broken pipe" message and no "Exception ignored" from the exit flush
    assert proc.returncode == EX_IOERR and proc.stderr == b"", argv


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


def reference_values(path):
    """A text file's contract: its tokens, then one duplicate check."""
    values = reference_tokens(path)
    try:
        return list(validate_seq(values))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_outcome(reader, path):
    try:
        return reader(path)
    except InputError as exc:
        return str(exc)


# the default and two sizes that cut nearly every token and comment
CHUNKS = (1, 3, cli.READ_CHUNK)

FUZZ_ALPHABET = (list("0123456789") * 3 + list("-#_+x")
                 + list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f") + ["\r\n"])
SEPARATORS = list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f") + ["\r\n", "  # c_+x\n"]


def long_fuzz_body(rng, k):
    """More than cli.READ_CHUNK characters of k distinct tokens with mixed
    separators and comments, where one character of FUZZ_ALPHABET may be
    put in at random."""
    body = "".join(f"{v}{rng.choice(SEPARATORS)}"
                   for v in rng.sample(range(-10 ** 6, 10 ** 6), k))
    at = rng.randrange(len(body))
    return body[:at] + rng.choice(["", *FUZZ_ALPHABET]) + body[at:]


@pytest.mark.parametrize("body, tokens", [
    ("# c\x0c5", [5]),    # a form feed ends the comment
    ("# c\x1f5", []),     # \x1f separates tokens but is no line break
    ("1\x1f2", [1, 2]),
])
def test_reader_line_breaks_and_separators(tmp_path, monkeypatch, body, tokens):
    path = tmp_path / "t.txt"
    path.write_bytes(body.encode("ascii"))
    assert _read_tokens(str(path)) == reference_tokens(str(path)) == tokens
    for chunk in CHUNKS:
        monkeypatch.setattr(cli, "READ_CHUNK", chunk)
        assert _read_text_values(str(path)) == tokens, chunk


def test_reader_matches_reference_on_fuzzed_files(tmp_path, monkeypatch):
    rng = random.Random(20131)
    path = tmp_path / "t.txt"
    parsed = rejected = 0
    bodies = ["".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 40)))
              for _ in range(3000)]
    bodies += [long_fuzz_body(rng, 12_000) for _ in range(8)]
    assert sum(len(body) > cli.READ_CHUNK for body in bodies) == 8
    for body in bodies:
        path.write_bytes(body.encode("ascii"))
        # the whole-file reader, which reads pattern files
        assert (read_outcome(_read_tokens, str(path))
                == read_outcome(reference_tokens, str(path))), repr(body)
        want = read_outcome(reference_values, str(path))
        # a one-character chunk adds nothing on a long body but time
        for chunk in CHUNKS if len(body) <= 40 else CHUNKS[1:]:
            monkeypatch.setattr(cli, "READ_CHUNK", chunk)
            got = read_outcome(_read_text_values, str(path))
            assert got == want, (chunk, repr(body[:80]))
        if isinstance(want, list):
            parsed += 1
        else:
            rejected += 1
    # both outcomes are common, so neither comparison is vacuous
    assert parsed > 300 and rejected > 300


@pytest.mark.parametrize("body, chunk, want", [
    # a token cut by the boundary
    ("123 456\n-78", 2, [123, 456, -78]),
    # a comment that spans boundaries, with characters that would be errors
    ("1 # a_b +c x\n2 #\n3", 3, [1, 2, 3]),
    # \r\n cut by the boundary, also inside a comment's end
    ("1\r\n2 #c\r\n3\r\n", 2, [1, 2, 3]),
    # \r\n cut where the file is read in blocks of bytes
    ("#" + "c" * 8190 + "\r\n7", 8192, [7]),
    # a '_' in a later piece beats a bad token in an earlier one
    ("1 x 2\n3 4_5\n", 3, "invalid integer '4_5'"),
    ("1 -\n2\n", 2, "invalid literal for int() with base 10: '-'"),
    # a repeated value in a later piece names both 1-based positions
    ("50 60 70 80 90 50\n", 3, "duplicate value 50 at positions 1 and 6"),
])
def test_reader_across_chunk_boundaries(tmp_path, monkeypatch, body, chunk, want):
    path = tmp_path / "t.txt"
    path.write_bytes(body.encode("ascii"))
    monkeypatch.setattr(cli, "READ_CHUNK", chunk)
    if isinstance(want, list):
        assert _read_text_values(str(path)) == want
    else:
        with pytest.raises(InputError) as info:
            _read_text_values(str(path))
        assert str(info.value) == f"{path}: {want}"


def test_reader_names_the_absolute_position_of_a_bad_byte(tmp_path, monkeypatch):
    # the byte lies past the first chunk; the error is the whole file's
    path = tmp_path / "t.txt"
    path.write_bytes(b"1 2 3 4\n\xff 5\n")
    monkeypatch.setattr(cli, "READ_CHUNK", 3)
    with pytest.raises(InputError) as info:
        _read_text_values(str(path))
    assert str(info.value) == (f"{path}: 'ascii' codec can't decode byte 0xff "
                               "in position 8: ordinal not in range(128)")


def test_reader_carries_only_the_hash_of_a_long_comment(tmp_path, monkeypatch):
    # a comment runs to the next line break, so a piece cut at its '#'
    # carries only the '#' and no piece outgrows a carried token plus a chunk
    path = tmp_path / "t.txt"
    path.write_text("1 2 #" + "c" * 10_000 + "\n3 4 # x\n5", encoding="ascii")
    monkeypatch.setattr(cli, "READ_CHUNK", 16)
    sizes = []
    cut = cli._cut
    monkeypatch.setattr(cli, "_cut", lambda buf: sizes.append(len(buf)) or cut(buf))
    assert (_read_text_values(str(path))
            == list(cli._read_seq(str(path), validate_seq)) == [1, 2, 3, 4, 5])
    assert len(sizes) > 600 and max(sizes) < 2 * cli.READ_CHUNK + 1


@pytest.mark.parametrize("header, sep", [("# one value per line\n", "\n"), ("", " ")])
def test_reader_peak_memory_stays_near_its_result(tmp_path, header, sep):
    # 1e5 values of the benchmark's width; the whole-file reader peaked at
    # 3.34 times the result on these files
    values = random.Random(2027).sample(range(-2 ** 60, 2 ** 60), 10 ** 5)
    path = tmp_path / "t.txt"
    path.write_text(header + sep.join(map(str, values)) + "\n", encoding="ascii")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = _read_text_values(str(path))
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == values
    assert peak - before < 3 * (after - before)
