"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with -rA or -s).  The
fuzz corpus behind criteria 2, 4 and 5 is generated once per session.

Criterion 3 asserts the documented 4m-5 transition bound verbatim and
reports the counterexamples it finds, should any pattern exceed it.  The
moves of the automaton it measures are checked against definitional brute
force in test_forward_automaton.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from opmatch.bench import ENGINES, random_permutation
from opmatch.cli import EX_OK, main
from opmatch.core import Occurrence, naive_search, rep_table
from opmatch.forward_automaton import build_forward
from opmatch.mp_automaton import build_mp
from opmatch.multi_ac import ac_search, build_ac, make_pattern_set
from opmatch.sublinear import choose_b, search_or_fallback

from conftest import oi_border_table

SINGLE_ENGINES = ("mp", "forward", "sublinear")


def positions(occ):
    return [o.position for o in occ]


def report(criterion, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {state} {detail}".rstrip())


@pytest.fixture(scope="session")
def fuzz_corpus():
    """1000 random cases; per case the naive result and per-engine stats."""
    rng = random.Random(20240)
    cases = []
    for _ in range(1000):
        m = rng.randint(2, 64)
        n = rng.randint(2 * m, 4096)
        pattern = rep_table(random_permutation(m, rng.getrandbits(31)))
        text = random_permutation(n, rng.getrandbits(31))
        want = positions(naive_search(pattern, text))
        engines = {}
        for name in SINGLE_ENGINES:
            occ, stats = ENGINES[name](pattern, text)
            engines[name] = (positions(occ), stats)
        cases.append({"m": m, "n": n, "want": want, "engines": engines})
    return cases


def test_criterion_1_oracle_equivalence_exhaustive():
    rng = random.Random(101)
    checked = 0
    for m in (3, 4):
        for pattern in permutations(range(1, m + 1)):
            pat = rep_table(pattern)
            for _ in range(100):
                text = random_permutation(64, rng.getrandbits(31))
                want = positions(naive_search(pat, text))
                for name in SINGLE_ENGINES:
                    got, _ = ENGINES[name](pat, text)
                    assert positions(got) == want, (name, pattern)
                checked += 1
    report(1, True, f"({checked} pattern/text pairs, 3 engines, exact)")


def test_criterion_2_oracle_equivalence_fuzz(fuzz_corpus):
    for case in fuzz_corpus:
        for name in SINGLE_ENGINES:
            got, _ = case["engines"][name]
            assert got == case["want"], (name, case["m"], case["n"])
    rng = random.Random(202)
    for _ in range(200):
        seqs = [random_permutation(rng.randint(1, 8), rng.getrandbits(31))
                for _ in range(rng.randint(1, 5))]
        ps = make_pattern_set(seqs)
        auto = build_ac(ps)
        for n in (128, 512):
            text = random_permutation(n, rng.getrandbits(31))
            want = []
            for pid, p in enumerate(ps):
                want.extend(Occurrence(o.position, pid)
                            for o in naive_search(p, text))
            want.sort()
            got, _ = ac_search(auto, text)
            assert got == want, seqs
    report(2, True, "(1000 single-pattern cases + 200 pattern sets, exact)")


def test_criterion_3_forward_automaton_size():
    violations = []
    checked = 0
    for m in (2, 5, 10, 50, 200, 1000):
        bound = 4 * m - 5
        for k in range(200):
            vals = random_permutation(m, 30_000 * m + k)
            count = build_forward(build_mp(vals)).transition_count()
            checked += 1
            if count > bound:
                violations.append((m, k, count, bound, vals[:12]))
    if violations:
        sample = violations[:5]
        lines = [f"  m={m} seed-index={k}: {count} transitions > {bound} "
                 f"(pattern prefix {prefix})" for m, k, count, bound, prefix in sample]
        report(3, False, f"({len(violations)}/{checked} patterns exceed 4m-5; "
                         "counterexamples below)")
        pytest.fail("forward automaton transition counts exceed 4m-5:\n"
                    + "\n".join(lines)
                    + f"\n  total violations: {len(violations)}/{checked}")
    report(3, True, f"({checked} patterns within 4m-5)")


def test_criterion_4_mp_amortization(fuzz_corpus):
    for case in fuzz_corpus:
        _, stats = case["engines"]["mp"]
        assert stats.transitions_taken <= 3 * case["n"]
        assert stats.symbols_read == case["n"]
    report(4, True, "(transitions <= 3n on all 1000 fuzz cases)")


def test_criterion_5_forward_amortization(fuzz_corpus):
    for case in fuzz_corpus:
        _, stats = case["engines"]["forward"]
        assert stats.transitions_taken <= 2 * case["n"]
    report(5, True, "(transitions <= 2n on all 1000 fuzz cases)")


def test_criterion_6_failure_table_correctness():
    rng = random.Random(606)
    for _ in range(10_000):
        m = rng.randint(1, 256)
        vals = random_permutation(m, rng.getrandbits(31))
        assert build_mp(vals).fail[1:] == oi_border_table(vals)
    report(6, True, "(10^4 random patterns m <= 256, exact)")


def test_criterion_7_sublinear_scaling():
    n = 1_000_000
    trials = 10
    texts = [random_permutation(n, 700_000 + k) for k in range(trials)]
    means = {}
    for m in (64, 256, 1024):
        total = 0.0
        for k, text in enumerate(texts):
            pattern = random_permutation(m, 800_000 + 1000 * m + k)
            occ, stats, fell_back = search_or_fallback(pattern, text)
            assert not fell_back
            total += stats.symbols_read / n
        means[m] = total / trials
    assert means[64] > means[256] > means[1024], means
    details = []
    for m, mean in means.items():
        b = choose_b(m)
        model = b / (m - b + 1)
        ratio = mean / model
        assert 1 / 3 <= ratio <= 3, (m, mean, model)
        details.append(f"m={m}: reads/n={mean:.5f} model={model:.5f} ratio={ratio:.2f}")
    report(7, True, "(" + "; ".join(details) + ")")


def test_criterion_8_build_cost_counters():
    limit = 8
    checks = []
    for m in (1000, 20_000, 100_000):
        a = build_mp(random_permutation(m, m))
        assert a.build_ops <= limit * m, (m, a.build_ops)
        checks.append(f"mp m={m}: {a.build_ops / m:.2f} ops/symbol")
    rng = random.Random(808)
    for target in (10_000, 100_000):
        seqs = []
        m_total = 0
        while m_total < target:
            length = rng.randint(1, 200)
            seqs.append(random_permutation(length, rng.getrandbits(31)))
            m_total += length
        auto = build_ac(make_pattern_set(seqs))
        assert auto.build_ops <= limit * m_total, (m_total, auto.build_ops)
        checks.append(f"ac m_total={m_total}: {auto.build_ops / m_total:.2f} ops/symbol")
    report(8, True, "(" + "; ".join(checks) + f"; all <= {limit})")


def test_criterion_9_bench_determinism(capsys):
    def render():
        assert main(["bench", "--algo", "mp", "--m", "8", "--n", "1024",
                     "--trials", "3", "--seed", "7"]) == EX_OK
        return [",".join(line.split(",")[:-1])
                for line in capsys.readouterr().out.splitlines()]

    assert render() == render()
    report(9, True, "(identical CSV modulo elapsed_ns)")
