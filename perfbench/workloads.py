"""Seeded inputs and their expected answers for the benchmark's workloads.

Everything here is derived from the seed alone: the same seed gives the same
texts, patterns, files and answers.  The module imports nothing from
``opmatch``, so the engines under test never produce the answers they are
checked against, and the package's own generators can change without
changing these inputs.

Two workloads:

* ``random``: the average case.  Texts of ``RANDOM_N`` distinct integers
  from a wide signed range, and for each text one pattern per length in
  ``RANDOM_M`` that searches it.  Each pattern is an order-preserving copy
  of a window of its text, so it occurs at least once.  A dictionary of 50
  patterns (m = 5..8 with scaled duplicates, and two of m = 64) runs over
  the first ``RANDOM_DICT_N`` symbols of the first text: in
  ``RANDOM_SEGMENTS`` library calls, and in one ``opmatch multisearch``
  over the whole of them.  Expected answers come from
  ``filtered_positions``.
* ``periodic``: the adversarial case.  Monotone and zig-zag texts in which
  every window is a candidate, with increasing, near-miss and zig-zag
  patterns.  Expected answers are closed forms.

Both carry command-line jobs over files that ``write_inputs`` puts on disk.
The ``opmatch search`` texts are shorter than the library texts, so that a
run of the benchmark fits several calls of every command.  On ``periodic``,
``opmatch multisearch`` runs over two of the library's half texts, because
every window of them matches and the output grows with the text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RANDOM_N = 400_000
RANDOM_TEXTS = 2              # texts, each with its own patterns; more patterns steady the figures
RANDOM_M = (8, 64, 1024, 16384)
RANDOM_DICT_N = 200_000       # dictionary text: RANDOM_SEGMENTS library calls, one command
RANDOM_SEGMENTS = 4
RANDOM_DICT_BASES = 36        # distinct short patterns, m = 5..8
RANDOM_DICT_COPIES = 12       # scaled, order-isomorphic duplicates of bases
RANDOM_DICT_LONG = 2          # extra patterns with m = 64
RANDOM_CLI_N = 250_000
RANDOM_CLI_M = 1024

PERIODIC_N = 50_000
PERIODIC_TEXTS = 2            # texts of each shape; shorter calls steady the timings
PERIODIC_M = (8, 64)
PERIODIC_CLI_N = 250_000
PERIODIC_CLI_M = 8
PERIODIC_START = (-10 ** 18 + 10 ** 9, -10 ** 17)  # leaves room for 1e6 rises of <= 1000

VALUE_RANGE = 2 ** 60         # values are drawn from [-VALUE_RANGE, VALUE_RANGE)


@dataclass(frozen=True)
class SearchJob:
    """One single-pattern library search and its 1-based answer."""

    label: str
    pattern: tuple
    text: tuple
    expected: tuple


@dataclass(frozen=True)
class MultiJob:
    """One dictionary search; answer is sorted (position, 0-based id)."""

    label: str
    text: tuple
    expected: tuple


@dataclass(frozen=True)
class CliJob:
    """One ``opmatch`` command over files named in ``Workload.files``.

    ``args`` are the command-line arguments, with file names relative to
    the directory the inputs are written to; ``expected`` is the printed
    output as one tuple of integers per line.
    """

    label: str
    args: tuple
    expected: tuple


@dataclass
class Workload:
    name: str
    seed: int
    searches: list
    dictionary: tuple
    multi: list
    cli: list
    files: dict           # file name -> ("text", values) or ("patterns", patterns)
    predset_ranks: tuple  # ranks of one text, replayed through PredSet


# ---------------------------------------------------------------- helpers

def ranks(values) -> list:
    """Rank of every value (1 = smallest), by sorting."""
    out = [0] * len(values)
    for r, i in enumerate(sorted(range(len(values)), key=values.__getitem__), 1):
        out[i] = r
    return out


def updown(values) -> bytes:
    """One byte per adjacent pair: 1 if it rises, 0 if it falls."""
    return bytes(a < b for a, b in zip(values, values[1:]))


def filtered_positions(pattern, text, text_code: bytes) -> list:
    """1-based starts of the windows of ``text`` order-isomorphic to pattern.

    Every occurrence is an exact occurrence of the pattern's up/down code
    in the text's code, so candidates come from ``bytes.find`` and each is
    verified by checking that the window is increasing along the pattern's
    sorted order.  Independent of every engine in ``opmatch``.
    """
    m = len(pattern)
    order = sorted(range(m), key=pattern.__getitem__)
    steps = list(zip(order, order[1:]))
    code = updown(pattern)
    out = []
    i = text_code.find(code)
    while i != -1:
        if all(text[i + a] < text[i + b] for a, b in steps):
            out.append(i + 1)
        i = text_code.find(code, i + 1)
    return out


def _rising(rng: random.Random, count: int, start: int) -> list:
    """``count`` strictly increasing values from ``start``, random gaps."""
    out = []
    v = start
    for _ in range(count):
        v += rng.randint(1, 1000)
        out.append(v)
    return out


def _scaled(rng: random.Random, pattern) -> tuple:
    """An order-isomorphic copy: positive scale plus offset."""
    k = rng.randint(2, 1000)
    d = rng.randrange(-VALUE_RANGE, VALUE_RANGE)
    return tuple(k * v + d for v in pattern)


def _copy_window(rng: random.Random, text, m: int, limit: int) -> tuple:
    """Order-preserving copy of a random window of text[:limit]."""
    s = rng.randrange(limit - m + 1)
    a = rng.randint(1, 10 ** 6)
    c = rng.randrange(-VALUE_RANGE, VALUE_RANGE)
    return tuple(a * r + c for r in ranks(text[s:s + m]))


def _search_lines(positions) -> tuple:
    return tuple((p,) for p in positions)


def _multisearch_jobs(multi_jobs) -> list:
    """``opmatch multisearch`` of the dictionary over each job's text file."""
    return [CliJob(f"multisearch-{job.label}",
                   ("multisearch", "dictionary.txt", f"{job.label}.txt"),
                   tuple((p, pid + 1) for p, pid in job.expected))
            for job in multi_jobs]


# ---------------------------------------------------------------- random

def make_random(seed: int, n: int = RANDOM_N, ms=RANDOM_M, dict_n: int = RANDOM_DICT_N,
                cli_n: int = RANDOM_CLI_N, cli_m: int = RANDOM_CLI_M) -> Workload:
    rng = random.Random(seed)
    texts = [tuple(rng.sample(range(-VALUE_RANGE, VALUE_RANGE), n))
             for _ in range(RANDOM_TEXTS)]
    codes = [updown(t) for t in texts]
    text, code = texts[0], codes[0]

    # each text has its own pattern of every length: the cost of a search
    # depends on the pattern's shape, so more patterns steady the figures
    searches = []
    for m in ms:
        for k, (t, c) in enumerate(zip(texts, codes)):
            p = _copy_window(rng, t, m, n)
            searches.append(SearchJob(f"text{k + 1}-m{m}", p, t,
                                      tuple(filtered_positions(p, t, c))))

    bases = [_copy_window(rng, text, rng.randint(5, 8), dict_n)
             for _ in range(RANDOM_DICT_BASES)]
    copies = [_scaled(rng, rng.choice(bases)) for _ in range(RANDOM_DICT_COPIES)]
    longs = [_copy_window(rng, text, 64, dict_n) for _ in range(RANDOM_DICT_LONG)]
    dictionary = bases + copies + longs
    rng.shuffle(dictionary)
    dictionary = tuple(dictionary)

    # answers over the whole dictionary text; a segment keeps the
    # occurrences that lie inside it, shifted to its own positions
    answers: dict = {}  # order-isomorphic duplicates share one answer
    whole = []
    for pid, p in enumerate(dictionary):
        key = tuple(ranks(p))
        if key not in answers:
            answers[key] = filtered_positions(p, text[:dict_n], code[:dict_n - 1])
        whole.extend((pos, pid, len(p)) for pos in answers[key])
    whole.sort()
    dict_job = MultiJob("dictionary-text", text[:dict_n],
                        tuple((pos, pid) for pos, pid, _ in whole))
    multi = []
    length = dict_n // RANDOM_SEGMENTS
    for k in range(RANDOM_SEGMENTS):
        lo, hi = k * length, (k + 1) * length
        multi.append(MultiJob(f"segment{k + 1}", text[lo:hi],
                              tuple((pos - lo, pid) for pos, pid, m in whole
                                    if lo < pos and pos - 1 + m <= hi)))

    cli_pattern = _copy_window(rng, text, cli_m, cli_n)
    cli_expected = filtered_positions(cli_pattern, text[:cli_n], code[:cli_n - 1])
    cli = [CliJob(f"search-{algo}",
                  ("search", "--algo", algo, "pattern.txt", "text.txt"),
                  _search_lines(cli_expected))
           for algo in ("mp", "forward", "sublinear")]
    cli += _multisearch_jobs([dict_job])
    files = {
        "text.txt": ("text", text[:cli_n]),
        "pattern.txt": ("patterns", (cli_pattern,)),
        "dictionary.txt": ("patterns", dictionary),
        f"{dict_job.label}.txt": ("text", dict_job.text),
    }
    return Workload("random", seed, searches, dictionary, multi, cli, files,
                    tuple(ranks(text)))


# ---------------------------------------------------------------- periodic

def _start(rng: random.Random) -> int:
    """First value of a periodic sequence.  Every value then has 18 digits,
    so the size of the files and of the parsed texts is the same for every
    seed."""
    return rng.randrange(*PERIODIC_START)


def monotone(rng: random.Random, n: int) -> tuple:
    return tuple(_rising(rng, n, _start(rng)))


def zigzag(rng: random.Random, n: int) -> tuple:
    """low, high, low, high, ...: both tracks rise, every low < every high.

    A window is order-isomorphic to a zig-zag pattern of the same shape
    exactly when it starts on a low value, that is at every other start.
    """
    lows = _rising(rng, (n + 1) // 2, _start(rng))
    highs = _rising(rng, n // 2, lows[-1] + rng.randint(1, 1000))
    out = [0] * n
    out[0::2] = lows
    out[1::2] = highs
    return tuple(out)


def near_miss(rng: random.Random, m: int) -> tuple:
    """m-1 rising values, then a drop below all of them."""
    head = _rising(rng, m - 1, _start(rng))
    return tuple(head) + (head[0] - rng.randint(1, 1000),)


def every(m: int, n: int) -> tuple:
    return tuple(range(1, n - m + 2))


def every_other(m: int, n: int) -> tuple:
    return tuple(range(1, n - m + 2, 2))


def make_periodic(seed: int, n: int = PERIODIC_N, ms=PERIODIC_M,
                  cli_n: int = PERIODIC_CLI_N, cli_m: int = PERIODIC_CLI_M) -> Workload:
    rng = random.Random(seed)
    monos = [monotone(rng, n) for _ in range(PERIODIC_TEXTS)]
    zigzags = [zigzag(rng, n) for _ in range(PERIODIC_TEXTS)]

    searches = []
    for m in ms:
        increasing, miss, zz = monotone(rng, m), near_miss(rng, m), zigzag(rng, m)
        for k in range(PERIODIC_TEXTS):
            searches += [
                SearchJob(f"monotone{k + 1}-increasing-m{m}", increasing, monos[k], every(m, n)),
                SearchJob(f"monotone{k + 1}-near-miss-m{m}", miss, monos[k], ()),
                SearchJob(f"zigzag{k + 1}-m{m}", zz, zigzags[k], every_other(m, n)),
            ]

    # (shape, pattern); the shape decides the closed-form answer on each text
    entries = [("inc", monotone(rng, m)) for m in (5, 16, 64)]
    entries += [("miss", near_miss(rng, m)) for m in (6, 32, 64)]
    entries += [("zz", zigzag(rng, m)) for m in (5, 8, 33, 64)]
    entries += [("inc", _scaled(rng, entries[0][1])), ("zz", _scaled(rng, entries[7][1]))]
    rng.shuffle(entries)
    dictionary = tuple(p for _, p in entries)

    # each text is searched in two halves of even length, so every zig-zag
    # half starts on a low value
    length = n // 4 * 2
    multi = []
    for label, texts, shape, starts in (("monotone", monos, "inc", every),
                                        ("zigzag", zigzags, "zz", every_other)):
        pairs = tuple(sorted((pos, pid) for pid, (s, p) in enumerate(entries) if s == shape
                             for pos in starts(len(p), length)))
        halves = [t[k * length:(k + 1) * length] for t in texts for k in range(2)]
        multi += [MultiJob(f"{label}{i + 1}", half, pairs) for i, half in enumerate(halves)]

    cli_text = zigzag(rng, cli_n)
    cli_pattern = zigzag(rng, cli_m)
    cli_segments = [j for j in multi if j.label in ("monotone1", "zigzag1")]
    cli = [CliJob(f"search-{algo}-zigzag",
                  ("search", "--algo", algo, "pattern.txt", "text.txt"),
                  _search_lines(every_other(cli_m, cli_n)))
           for algo in ("mp", "forward")]
    cli += _multisearch_jobs(cli_segments)
    files = {
        "text.txt": ("text", cli_text),
        "pattern.txt": ("patterns", (cli_pattern,)),
        "dictionary.txt": ("patterns", dictionary),
        **{f"{job.label}.txt": ("text", job.text) for job in cli_segments},
    }
    return Workload("periodic", seed, searches, dictionary, multi, cli, files,
                    tuple(ranks(zigzags[0])))


WORKLOADS = {"random": make_random, "periodic": make_periodic}


def write_inputs(workload: Workload, directory) -> None:
    """Write the command-line input files: texts one value per line after a
    ``#`` comment line, patterns one per line."""
    for name, (kind, data) in workload.files.items():
        with open(f"{directory}/{name}", "w", encoding="ascii") as fh:
            if kind == "text":
                fh.write(f"# {workload.name} workload, seed {workload.seed}\n")
                fh.write("\n".join(map(str, data)))
            else:
                fh.write("\n".join(" ".join(map(str, p)) for p in data))
            fh.write("\n")
