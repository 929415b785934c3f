"""Command line surface: gen, search, multisearch, bench.

Exit codes: 0 success, 2 I/O failure, 64 usage error, 65 malformed data.
All positions printed are 1-based.
"""

from __future__ import annotations

import argparse
import re
import sys
from itertools import islice
from typing import Iterable, Optional, Sequence

from . import bench as bench_mod
from .core import InputError, SearchStats, rep_table, validate_seq
from .multi_ac import ac_search, build_ac, make_pattern_set
from .sublinear import fallback_for

EX_OK = 0
EX_IOERR = 2
EX_USAGE = 64
EX_DATA = 65
OUTPUT_BLOCK = 8192  # occurrence lines per write


def _read_text(path: str) -> str:
    """The file's contents; a byte outside ASCII is malformed data."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


# A comment runs to the next ASCII line break of str.splitlines.
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c-\x1e]*")


def _decimal_body(path: str, text: str) -> str:
    """The text with its comments removed.

    A '_' or '+' outside a comment is malformed data, although int()
    would read '1_0' and '+5'.
    """
    if "#" in text:
        text = _COMMENT.sub("", text)
    if "_" in text or "+" in text:
        tok = next(tok for tok in text.split() if "_" in tok or "+" in tok)
        raise InputError(f"{path}: invalid integer {tok!r}")
    return text


def _read_tokens(path: str) -> list:
    """Whitespace-separated decimal integers; '#' starts a comment."""
    text = _decimal_body(path, _read_text(path))
    try:
        return list(map(int, text.split()))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _read_seq(path: str, make):
    """make(the file's integers); an InputError from make names the file."""
    values = _read_tokens(path)
    try:
        return make(values)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _read_pattern_lines(path: str) -> list:
    """One Pattern per line; comment-only lines are skipped."""
    text = _read_text(path)
    # checked as a whole, but read from the raw lines: a comment-only line
    # is skipped, while a blank one is an error
    _decimal_body(path, text)
    patterns = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        if line.strip().startswith("#"):
            continue
        tokens = body.split()
        if not tokens:
            raise InputError(f"{path}:{lineno}: empty pattern line")
        try:
            patterns.append(rep_table([int(tok) for tok in tokens]))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    if not patterns:
        raise InputError(f"{path}: no patterns")
    return patterns


def _write_lines(lines: Iterable[str]) -> None:
    """Write the lines to standard output, one write per OUTPUT_BLOCK lines."""
    lines = iter(lines)
    while block := "".join(islice(lines, OUTPUT_BLOCK)):
        sys.stdout.write(block)


def _print_stats(stats: SearchStats, out) -> None:
    print(f"# stats: symbols_read={stats.symbols_read} "
          f"transitions_taken={stats.transitions_taken} "
          f"verifications={stats.verifications}", file=out)


def cmd_gen(args) -> int:
    if args.n < 1:
        print("opmatch: --n must be >= 1", file=sys.stderr)
        return EX_USAGE
    seq = bench_mod.random_permutation(args.n, args.seed)
    body = "\n".join(str(v) for v in seq) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    return EX_OK


def cmd_search(args) -> int:
    pattern = _read_seq(args.pattern, rep_table)  # rep_table validates
    text = _read_seq(args.text, validate_seq)
    occ, stats = bench_mod.ENGINES[args.algo](pattern, text)
    if args.algo == "sublinear" and (ran := fallback_for(len(pattern))):
        print("sublinear: pattern too short for backward-window search; "
              f"falling back to {ran}", file=sys.stderr)
    _write_lines(f"{o.position}\n" for o in occ)
    if args.stats:
        _print_stats(stats, sys.stdout)
    return EX_OK


def cmd_multisearch(args) -> int:
    patterns = make_pattern_set(_read_pattern_lines(args.patterns))
    text = _read_seq(args.text, validate_seq)
    occ, stats = ac_search(build_ac(patterns), text)
    _write_lines(f"{o.position}\t{o.pattern_id + 1}\n" for o in occ)
    if args.stats:
        _print_stats(stats, sys.stdout)
    return EX_OK


def cmd_bench(args) -> int:
    pattern = None
    if args.pattern_file:
        pattern = _read_seq(args.pattern_file, rep_table).values
    try:
        cfg = bench_mod.BenchConfig(algo=args.algo, n=args.n, trials=args.trials,
                                    seed=args.seed, m=args.m, pattern=pattern)
    except ValueError as exc:
        print(f"opmatch bench: {exc}", file=sys.stderr)
        return EX_USAGE
    records = bench_mod.run_bench(cfg)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            bench_mod.write_csv(records, fh)
    else:
        bench_mod.write_csv(records, sys.stdout)
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opmatch",
        description="Order-isomorphic (order-preserving) pattern matching. "
                    "Exit codes: 0 ok, 2 I/O error, 64 usage error, 65 bad data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a random permutation of 1..n")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_search = sub.add_parser("search", help="search one pattern in a text")
    p_search.add_argument("--algo", choices=bench_mod.ENGINES, default="mp")
    p_search.add_argument("--stats", action="store_true",
                          help="append a '# stats:' line")
    p_search.add_argument("pattern")
    p_search.add_argument("text")
    p_search.set_defaults(func=cmd_search)

    p_multi = sub.add_parser("multisearch",
                             help="search many patterns (one per line) at once; "
                                  "prints position<TAB>pattern index")
    p_multi.add_argument("--stats", action="store_true")
    p_multi.add_argument("patterns",
                         help="one pattern per line; the pattern index is the "
                              "1-based ordinal among pattern lines, "
                              "comment-only lines not counted")
    p_multi.add_argument("text")
    p_multi.set_defaults(func=cmd_multisearch)

    p_bench = sub.add_parser("bench", help="run timed trials, emit CSV")
    p_bench.add_argument("--algo", choices=bench_mod.ENGINES, required=True)
    p_bench.add_argument("--m", type=int, default=None)
    p_bench.add_argument("--pattern-file", default=None)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--trials", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage
        return EX_OK if exc.code == 0 else EX_USAGE
    try:
        return args.func(args)
    except InputError as exc:
        print(f"opmatch: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"opmatch: {exc}", file=sys.stderr)
        return EX_IOERR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
