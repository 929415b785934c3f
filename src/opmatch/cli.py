"""Command line surface: gen, search, multisearch, bench.

Exit codes: 0 success, 2 I/O failure (a closed output pipe too, without
a message), 64 usage error, 65 malformed data.
All positions printed are 1-based.  A command imports the engine module
it runs when it runs, so no command loads the others.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from contextlib import nullcontext
from itertools import islice
from typing import Iterable, Optional, Sequence

from . import bench as bench_mod
from .core import (InputError, SearchStats, _start_id_lines, _start_lines,
                   check_fits, rep_table, validate_seq)

EX_OK = 0
EX_IOERR = 2
EX_USAGE = 64
EX_DATA = 65
OUTPUT_BLOCK = 8192  # output lines per write
READ_CHUNK = 1 << 16  # characters per read of a text file


def _read_text(path: str) -> str:
    """The file's contents; a byte outside ASCII is malformed data."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


# A comment runs to the next ASCII line break of str.splitlines.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e"
_COMMENT = re.compile(f"#[^{_LINE_BREAKS}]*")


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


def _cut(buf: str) -> int:
    """Where a piece of read text may end, so that no token or comment spans it.

    The cut is at the start of a comment on the last line, or else just
    after the last whitespace; what follows it is carried to the next piece.
    """
    end = buf.rfind("\n")  # the usual break first: the rest scan only past it
    for ch in _LINE_BREAKS:
        end = max(end, buf.rfind(ch, end + 1))
    comment = buf.find("#", end + 1)
    if comment >= 0:
        return comment
    for ch in " \t\x1f":  # the whitespace that breaks no line
        end = max(end, buf.rfind(ch, end + 1))
    return end + 1


def _parse_into(path: str, piece: str, values: list, seen: set) -> None:
    """Append the piece's integers to values and to seen."""
    new = list(map(int, _decimal_body(path, piece).split()))
    values += new
    seen.update(new)


def _read_text_values(path: str) -> list:
    """The text file's integers, checked for distinctness as they arrive.

    The file is read READ_CHUNK characters at a time and cut into pieces
    that are parsed on their own (``_cut``), so beside the values and their
    set only one piece is held.  A malformed token or byte, or a repeated
    value, re-reads the file through ``_read_seq``, which raises the
    whole-file reader's error: its precedence and its byte positions.
    """
    values: list = []
    seen: set = set()
    try:
        with open(path, "r", encoding="ascii") as fh:
            carry = ""
            while chunk := fh.read(READ_CHUNK):
                buf = carry + chunk
                cut = _cut(buf)
                # a comment runs to the next line break: carry only its '#'
                carry = "#" if buf.startswith("#", cut) else buf[cut:]
                _parse_into(path, buf[:cut], values, seen)
            _parse_into(path, carry, values, seen)
    except ValueError:  # UnicodeDecodeError, int() or _decimal_body
        pass
    else:
        if len(seen) == len(values):
            return values
    return _read_seq(path, validate_seq)


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


def _write_lines(lines: Iterable[str], sink) -> None:
    """Write the lines to sink, one write per OUTPUT_BLOCK lines."""
    lines = iter(lines)
    while block := "".join(islice(lines, OUTPUT_BLOCK)):
        sink.write(block)


def _output(path: Optional[str]):
    """The file at path opened for writing, or standard output if no path."""
    return open(path, "w", encoding="ascii") if path else nullcontext(sys.stdout)


def _print_stats(stats: SearchStats, out) -> None:
    fields = " ".join(f"{k}={v}" for k, v in zip(SearchStats._fields, stats))
    print(f"# stats: {fields}", file=out)


def _note_fallback(algo: str, m: int) -> None:
    """Name on stderr what the sublinear engine runs for m, if not its own search."""
    if algo == "sublinear":
        from .sublinear import fallback_for
        if ran := fallback_for(m):
            print("sublinear: pattern too short for backward-window search; "
                  f"falling back to {ran}", file=sys.stderr)


def cmd_gen(args) -> int:
    if args.n < 1:
        print("opmatch: --n must be >= 1", file=sys.stderr)
        return EX_USAGE
    if args.seed < 0:
        print("opmatch: --seed must be >= 0", file=sys.stderr)
        return EX_USAGE
    seq = bench_mod.random_permutation(args.n, args.seed)
    with _output(args.out) as sink:
        _write_lines((f"{v}\n" for v in seq), sink)
    return EX_OK


def cmd_search(args) -> int:
    pattern = _read_seq(args.pattern, rep_table)  # rep_table validates
    text = _read_text_values(args.text)
    try:
        check_fits(len(pattern), len(text))
    except InputError as exc:
        raise InputError(f"{args.pattern}: {exc} of {args.text}") from None
    lines, stats = bench_mod.ENGINES[args.algo](pattern, text, _start_lines)
    _note_fallback(args.algo, len(pattern))
    _write_lines(lines, sys.stdout)
    if args.stats:
        _print_stats(stats, sys.stdout)
    return EX_OK


def cmd_multisearch(args) -> int:
    from .multi_ac import ac_search, build_ac, make_pattern_set
    patterns = make_pattern_set(_read_pattern_lines(args.patterns))
    text = _read_text_values(args.text)
    lines, stats = ac_search(build_ac(patterns), text, _start_id_lines)
    _write_lines(lines, sys.stdout)
    if args.stats:
        _print_stats(stats, sys.stdout)
    return EX_OK


def cmd_bench(args) -> int:
    """Run the trials and write CSV rows, deterministic apart from elapsed_ns.

    Trial k derives text seed seed*1000003 + 2k and pattern seed one above
    it; the text seed is the row's seed.  Each trial searches a fresh random
    permutation of 1..m unless a pattern file fixes the pattern.  Elapsed
    time covers build plus search.
    """
    fixed = _read_seq(args.pattern_file, rep_table) if args.pattern_file else None
    m = args.m if fixed is None else len(fixed)
    if args.trials < 1:
        print("opmatch bench: trials must be >= 1", file=sys.stderr)
        return EX_USAGE
    if args.seed < 0:
        print("opmatch bench: --seed must be >= 0", file=sys.stderr)
        return EX_USAGE
    if not 1 <= m <= args.n:
        print(f"opmatch bench: need 1 <= m <= n, got m={m}, n={args.n}",
              file=sys.stderr)
        return EX_USAGE
    engine = bench_mod.ENGINES[args.algo]
    _note_fallback(args.algo, m)  # m is the same in every trial
    with _output(args.out) as sink:
        sink.write(f"# prng={bench_mod.PRNG_NOTE}\n"
                   "algo,m,n,seed,occurrences,symbols_read,transitions,"
                   "verifications,elapsed_ns\n")
        for k in range(args.trials):
            seed = args.seed * 1000003 + 2 * k
            pattern = (rep_table(bench_mod.random_permutation(m, seed + 1))
                       if fixed is None else fixed)
            text = bench_mod.random_permutation(args.n, seed)
            t0 = time.perf_counter_ns()
            occ, stats = engine(pattern, text)
            elapsed = time.perf_counter_ns() - t0
            sink.write(f"{args.algo},{m},{args.n},{seed},{len(occ)},"
                       f"{stats.symbols_read},{stats.transitions_taken},"
                       f"{stats.verifications},{elapsed}\n")
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
    source = p_bench.add_mutually_exclusive_group(required=True)
    source.add_argument("--m", type=int, default=None)
    source.add_argument("--pattern-file", default=None)
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
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except InputError as exc:
        print(f"opmatch: {exc}", file=sys.stderr)
        return EX_DATA
    except BrokenPipeError:
        # the reader has gone: say nothing, and point standard output at
        # the null device so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    except OSError as exc:
        print(f"opmatch: {exc}", file=sys.stderr)
        return EX_IOERR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
