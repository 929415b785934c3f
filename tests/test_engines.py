"""Every engine of ``opmatch.bench.ENGINES`` against one contract.

Each must give ``naive_search``'s occurrences, keep its counters within its
``BOUNDS`` row, and raise the same error class as the others on bad input.
A new engine is covered by adding its ``ENGINES`` key and a ``BOUNDS`` row.
"""

from __future__ import annotations

import random

import pytest

from opmatch import forward_automaton
from opmatch.bench import ENGINES, random_permutation
from opmatch.core import (DuplicateValue, EmptyInput, InputError, Occurrence,
                          PatternLongerThanText, naive_search, rep_table)
from opmatch.forward_automaton import build_forward, forward_search
from opmatch.mp_automaton import build_mp, mp_search
from opmatch.multi_ac import ac_search, build_ac, make_pattern_set
from opmatch.sublinear import build_factor_tree

from conftest import (chain_shapes, converging_zigzag, counted_forward, counted_mp,
                      mp_states, plant_copies, positions, random_distinct,
                      rank_patterns, shaped_texts, two_track_zigzag)

# The counters one search may reach, given the pattern and text lengths.
# Sublinear's backward search (m >= 16) reads O(nm) in the worst case, so
# only its verifications are bounded; below 16 it searches forward, with
# mp or with the up/down filter, whose MP runs read each symbol at most once.
BOUNDS = {
    "naive": lambda st, m, n: st.symbols_read <= m * (n - m + 1),
    "mp": lambda st, m, n: st.symbols_read == n and st.transitions_taken <= 3 * n,
    "forward": lambda st, m, n: st.symbols_read == n and st.transitions_taken <= 2 * n,
    "sublinear": lambda st, m, n: st.verifications <= n - m + 1 and (
        m >= 16 or (st.symbols_read <= n and st.transitions_taken <= 3 * n)),
    "ac": lambda st, m, n: st.symbols_read == n and st.transitions_taken <= 3 * n,
}

# (pattern, text, positions) by hand.  Engines note 0-based match ends and
# core shifts them to 1-based starts, so the edges are pinned: m == n (one window,
# matching or not) and a pattern that occurs only at the last start n-m+1,
# at m = 3, at m = 8, where sublinear filters by up/down code, and at
# m = 16, where it does not fall back.  In the sixth, every window matches.
# At m = 8, (1, 7, 2, 8, 3, 6, 4, 5) is a false candidate: the pattern's
# up/down code 1010101 in another order.  The last row's two overlapping
# occurrences of a zig-zag are found by one MP run.
KNOWN = [
    ([1, 2], (1, 2, 3, 4), [1, 2, 3]),
    ([2, 1], (1, 2, 3), []),
    ([1, 2], (3, 1, 4, 2, 5), [2, 4]),
    ([1], (2, 9), [1, 2]),
    ([1], (9, 8), [1, 2]),
    (range(1, 17), range(1, 2049), list(range(1, 2034))),
    ([2, 1, 3], (5, 4, 9), [1]),
    ([2, 1, 3], (4, 5, 9), []),
    (range(1, 17), range(1, 17), [1]),
    (range(1, 17), (*range(1, 15), 16, 15), []),
    ([3, 2, 1], (1, 2, 3, 4, 7, 6, 5), [5]),
    (range(16, 0, -1), (*range(1, 101), *range(200, 184, -1)), [101]),
    ((2, 7, 1, 8, 3, 6, 4, 5), (20, 70, 10, 80, 30, 60, 40, 50), [1]),
    ((2, 7, 1, 8, 3, 6, 4, 5), (1, 7, 2, 8, 3, 6, 4, 5), []),
    ((2, 7, 1, 8, 3, 6, 4, 5), (*range(100, 90, -1), 2, 7, 1, 8, 3, 6, 4, 5), [11]),
    ((2, 7, 1, 8, 3, 6, 4, 5), (1, 7, 2, 8, 3, 6, 4, 5, 102, 107, 101, 108,
                                103, 106, 104, 105), [9]),
    ((2, 1, 4, 3, 6, 5, 8, 7), (2, 1, 4, 3, 6, 5, 8, 7, 10, 9), [1, 3]),
]

ERRORS = [
    pytest.param([1, 2], (5,), PatternLongerThanText, id="longer"),
    pytest.param([1, 2, 3], (1, 2), PatternLongerThanText, id="longer-by-one"),
    pytest.param([], (), EmptyInput, id="empty-pattern-empty-text"),
    pytest.param([], (1, 2), EmptyInput, id="empty-pattern"),
    pytest.param([1, 1], (1, 2, 3), DuplicateValue, id="repeated"),
    pytest.param([1, 1], (5,), DuplicateValue, id="repeated-and-longer"),
]


def sorted_runs(rng, n, run):
    """A random permutation of 1..n, about a quarter of its run-blocks sorted."""
    t = list(random_permutation(n, rng.getrandbits(30)))
    for lo in range(0, n, run):
        if rng.random() < 0.25:
            t[lo:lo + run] = sorted(t[lo:lo + run])
    return t


def corpus_inputs():
    """Yield the (pattern values, text) pairs of the corpus."""
    rng = random.Random(31)
    for m in range(1, 5):
        for perm in rank_patterns(m):
            for _ in range(10):
                yield perm, random_permutation(32, rng.getrandbits(30))
    for seed in (32, 43):
        rng = random.Random(seed)
        for _ in range(200):
            m = rng.randint(2, 64)
            n = rng.randint(2 * m, 2048)
            t = random_permutation(n, rng.getrandbits(30))
            yield random_permutation(m, rng.getrandbits(30)), t
    rng = random.Random(44)
    for _ in range(100):
        m = rng.randint(1, 16)
        n = rng.randint(m, 512)
        t = random_permutation(n, rng.getrandbits(30))
        yield random_permutation(m, rng.getrandbits(30)), t
    rng = random.Random(61)
    for _ in range(120):
        m = rng.randint(16, 96)
        n = rng.randint(4 * m, 8192)
        yield (random_permutation(m, rng.getrandbits(30)),
               random_permutation(n, rng.getrandbits(30)))
    rng = random.Random(33)
    for _ in range(50):
        m = rng.randint(1, 12)
        n = rng.randint(m, 200)
        t = random_distinct(rng, n)
        yield random_distinct(rng, m), t
    t = random_permutation(4096, 42)
    # the running example padded to m=16 by a tail above or below all its values
    yield (4, 12, 6, 16, 10, 103, 101, 108, 102, 107, 104, 109, 105, 110, 100, 106), t
    yield range(1, 33), t
    # adversarial texts under patterns on both sides of sublinear's fallback
    # and of its up/down filter (m >= 6)
    rng = random.Random(64)
    n = 320
    for m in (5, 6, 8, 12, 15, 16, 40):
        texts = chain_shapes(n) + [two_track_zigzag(n), converging_zigzag(n),
                                   sorted_runs(rng, n, 2 * m),
                                   random_permutation(n, rng.getrandbits(30))]
        for p in chain_shapes(m) + [two_track_zigzag(m),
                                    random_permutation(m, rng.getrandbits(30))]:
            planted = plant_copies(rng, p, random_permutation(n, rng.getrandbits(30)))
            for t in texts + [planted]:
                yield p, t


@pytest.fixture(scope="module")
def corpus():
    """Each case with its answer, by hand for KNOWN and else naive_search's."""
    cases = [(rep_table(p), tuple(t), [Occurrence(s) for s in want])
             for p, t, want in KNOWN]
    for values, text in corpus_inputs():
        p = rep_table(values)
        cases.append((p, text, naive_search(p, text)))
    return cases


def test_every_engine_has_a_bound():
    assert set(BOUNDS) == set(ENGINES)


@pytest.mark.parametrize("name", list(ENGINES))
def test_agrees_with_naive_within_bound(name, corpus):
    for p, t, want in corpus:
        occ, stats = ENGINES[name](p, t)
        m, n = len(p), len(t)
        assert occ == want, (name, p.values[:8], m, n)
        # == cannot tell a bare (position, id) tuple from an Occurrence
        assert all(type(o) is Occurrence for o in occ), (name, p.values[:8], m, n)
        assert BOUNDS[name](stats, m, n), (name, p.values[:8], m, n, stats)


def test_occurrences_are_made_without_per_match_calls(monkeypatch):
    # engines make their result lists at C speed after the scan; a loop that
    # went back to calling Occurrence(...) per match would show up here
    calls = []
    new = Occurrence.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Occurrence, "__new__", staticmethod(counting_new))
    assert Occurrence(7) == (7, 0) and len(calls) == 1  # the wrapper counts
    calls.clear()
    pattern, text = range(1, 9), range(1, 2001)
    starts = list(range(1, 1994))
    results = {name: engine(pattern, text)[0] for name, engine in ENGINES.items()}
    two = build_ac(make_pattern_set([pattern, range(10, 90, 10)]))
    results["ac_search"] = ac_search(two, text)[0]
    assert calls == []
    for name, occ in results.items():
        ids = (0, 1) if name == "ac_search" else (0,)
        assert occ == [(s, i) for s in starts for i in ids], name
        assert all(type(o) is Occurrence for o in occ), name


@pytest.mark.parametrize("name", list(ENGINES))
def test_numpy_pattern_and_text(name):
    # numpy's comparisons give numpy bools, which bytes() does not take as
    # ints; m = 5, 8 run mp and the up/down filter, m = 16, 40 the factor
    # index built from the pattern's values
    np = pytest.importorskip("numpy")
    rng = random.Random(66)
    for m in (5, 8, 16, 40):
        p = random_permutation(m, rng.getrandbits(30))
        t = plant_copies(rng, p, random_permutation(2000, rng.getrandbits(30)))
        p_np, t_np = np.array(p) * 3 - 7, np.array(t) * 3 - 7
        want = naive_search(tuple(map(int, p_np)), tuple(map(int, t_np)))
        assert want, m
        assert ENGINES[name](p_np, t_np)[0] == want, (name, m)


@pytest.mark.parametrize("name", list(ENGINES))
@pytest.mark.parametrize("pattern, text, error", ERRORS)
def test_bad_input_raises_the_same_error(name, pattern, text, error):
    with pytest.raises(InputError) as exc:
        ENGINES[name](pattern, text)
    assert exc.type is error, (name, exc.value)


@pytest.mark.parametrize("entry", [*ENGINES, "make_pattern_set", "build_factor_tree"])
@pytest.mark.parametrize("pattern", [[1, 2.5], ["1", "2"]], ids=["float", "str"])
def test_non_integer_pattern_raises_type_error(entry, pattern):
    # rep_table passes every pattern value through operator.index, so no
    # entry point compares a float or a string with the text
    calls = {"make_pattern_set": lambda: make_pattern_set([pattern]),
             "build_factor_tree": lambda: build_factor_tree(pattern, 1)}
    with pytest.raises(TypeError):
        calls.get(entry, lambda: ENGINES[entry](pattern, (1, 2, 3)))()


@pytest.mark.parametrize("build, search, counted", [
    (build_mp, mp_search, counted_mp),
    (lambda p: build_forward(build_mp(p)), forward_search, counted_forward),
], ids=["mp", "forward"])
def test_counter_equals_counted_simulation(corpus, monkeypatch, build, search, counted):
    # mp_search counts only failure steps and derives the rest, and
    # forward_search follows its skip links and finishes escaped walks
    # inline; on the corpus and long monotone and zig-zag texts (where most
    # tests fail) each must give the count of a simulation that counts
    # every test and step, forward's stepping through the moves that
    # moves(x) expands
    cases = [(p, t) for p, t, _ in corpus]
    rng = random.Random(65)
    for m in (1, 2, 5, 16, 64):
        for p in chain_shapes(m) + [two_track_zigzag(m), converging_zigzag(m)]:
            for t in shaped_texts(2000, rng) + [converging_zigzag(2000)]:
                cases.append((rep_table(p), t))
    # in these patterns a walk can reach a state that drops a target while
    # it still holds an earlier state's drop (44 of the 45,360 patterns with
    # m = 7 or 8 can): only such walks make _finish_walk's set.  In the
    # last, two drops are pending at once, and a random text drives the
    # search through escape codes
    for p in ((2, 1, 4, 3, 7, 5, 6), (6, 7, 4, 5, 1, 3, 2),
              (10, 20, 0, 30, 40, 60, 70, 50, 81, 90, 130, 120)):
        for t in shaped_texts(2000, rng):
            cases.append((rep_table(p), t))
    escapes = []
    finish = forward_automaton._finish_walk
    monkeypatch.setattr(forward_automaton, "_finish_walk",
                        lambda f, x, *args: escapes.append(x) or finish(f, x, *args))
    for p, t in cases:
        a = build(p)
        occ, stats = search(a, t)
        assert (positions(occ), stats.transitions_taken) == counted(a, t), \
            (p.values[:8], len(p), len(t))
    if search is forward_search:
        assert escapes


def test_strong_links_keep_every_state(corpus):
    # mp_search's walk follows skip where a plain walk follows fail; on the
    # corpus and shaped texts it must hold the plain walk's state after
    # every symbol, so only its count of failure steps may fall
    cases = [(p, t) for p, t, _ in corpus]
    rng = random.Random(67)
    for m in (2, 5, 8, 16, 64):
        for p in chain_shapes(m) + [two_track_zigzag(m), converging_zigzag(m)]:
            for t in shaped_texts(2000, rng) + [converging_zigzag(2000)]:
                cases.append((rep_table(p), t))
    fewer = 0
    for p, t in cases:
        a = build_mp(p)
        back = a.pattern.back
        assert list(mp_states(back, a.skip, t)) == list(mp_states(back, a.fail, t)), \
            (p.values[:8], len(p), len(t))
        fewer += a.skip != a.fail
    assert fewer  # some patterns have a strong link that is not their failure link
