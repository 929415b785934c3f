"""Predecessor set: contract examples, errors, and reference equivalence."""

from __future__ import annotations

import bisect
import random

import pytest

from opmatch.bench import random_permutation
from opmatch.core import back_pairs
from opmatch.predset import (KeyAbsent, KeyOutOfUniverse, KeyPresent, PredSet)


def test_self_predecessor_convention():
    # a present key is never its own predecessor
    s = PredSet(10)
    s.insert(2, "q")
    s.insert(5, "p")
    pred, succ = s.query_strict(5)
    assert pred == (2, "q")
    assert succ is None


def test_between_two_keys():
    s = PredSet(10)
    s.insert(3, "a")
    s.insert(9, "b")
    assert s.query_strict(7) == ((3, "a"), (9, "b"))


def test_full_capacity_insert():
    u = 300
    s = PredSet(u)
    for k in range(1, u + 1):
        s.insert(k, -k)
    assert len(s) == u
    assert s.query_strict(u) == ((u - 1, 1 - u), None)


def test_delete_then_empty_query():
    s = PredSet(8)
    s.insert(4, None)
    s.delete(4)
    assert s.query_strict(5) == (None, None)


def test_delete_leaves_rest():
    s = PredSet(16)
    s.insert(2, "x")
    s.insert(6, "y")
    s.delete(6)
    assert s.query_strict(9) == ((2, "x"), None)


def test_strict_query_skips_equal_key():
    s = PredSet(4)
    for k in (1, 2, 3):
        s.insert(k, k * 10)
    assert s.query_strict(2) == ((1, 10), (3, 30))


def test_strict_query_single_key():
    s = PredSet(16)
    s.insert(10, "only")
    assert s.query_strict(10) == (None, None)


def test_error_cases():
    s = PredSet(5)
    s.insert(3, None)
    with pytest.raises(KeyPresent):
        s.insert(3, None)
    with pytest.raises(KeyAbsent):
        s.delete(4)
    with pytest.raises(KeyOutOfUniverse):
        s.insert(6, None)
    with pytest.raises(KeyOutOfUniverse):
        s.insert(0, None)
    with pytest.raises(KeyOutOfUniverse):
        s.query_strict(6)
    with pytest.raises(ValueError):
        PredSet(0)


def test_query_does_not_mutate():
    s = PredSet(64)
    s.insert(17, "a")
    before = (len(s), s.query_strict(18))
    s.query_strict(17)
    s.query_strict(40)
    assert (len(s), s.query_strict(18)) == before


def test_ops_counter_counts_every_operation():
    s = PredSet(8)
    s.insert(1, None)
    s.query_strict(1)
    s.query_strict(2)
    s.delete(1)
    assert s.ops == 4


def test_word_boundaries():
    # keys around 64-bit word edges exercise the summary level
    s = PredSet(200)
    for k in (1, 63, 64, 65, 128, 129, 200):
        s.insert(k, k)
    assert s.query_strict(62) == ((1, 1), (63, 63))
    assert s.query_strict(64) == ((63, 63), (65, 65))
    assert s.query_strict(65) == ((64, 64), (128, 128))
    assert s.query_strict(128) == ((65, 65), (129, 129))
    assert s.query_strict(200) == ((129, 129), None)
    s.delete(64)
    assert s.query_strict(65) == ((63, 63), (128, 128))


def test_randomized_equivalence_with_sorted_list():
    rng = random.Random(20)
    universe = 10_000
    s = PredSet(universe)
    keys: list = []
    payload: dict = {}
    for step in range(100_000):
        roll = rng.random()
        if roll < 0.35:
            k = rng.randint(1, universe)
            if k in payload:
                with pytest.raises(KeyPresent):
                    s.insert(k, step)
            else:
                s.insert(k, step)
                bisect.insort(keys, k)
                payload[k] = step
        elif roll < 0.55 and keys:
            k = rng.choice(keys) if rng.random() < 0.8 else rng.randint(1, universe)
            if k in payload:
                s.delete(k)
                keys.remove(k)
                del payload[k]
            else:
                with pytest.raises(KeyAbsent):
                    s.delete(k)
        else:
            y = rng.randint(1, universe)
            i = bisect.bisect_right(keys, y)
            want_succ = None if i == len(keys) else (keys[i], payload[keys[i]])
            j = bisect.bisect_left(keys, y)
            want_pred = None if j == 0 else (keys[j - 1], payload[keys[j - 1]])
            assert s.query_strict(y) == (want_pred, want_succ)
        assert len(s) == len(keys)


def predset_rep_pairs(values):
    """Rep pairs of a permutation of 1..m by one PredSet sweep, no sort.

    Each value is its own rank, so the strict predecessor and successor
    among the values inserted so far are the rep pair's two symbols.  This
    is the sweep README's MP row times against ``back_pairs``.
    """
    s = PredSet(len(values))
    back = []
    for j, v in enumerate(values):
        pred, succ = s.query_strict(v)
        back.append((None if pred is None else j - pred[1],
                     None if succ is None else j - succ[1]))
        s.insert(v, j)
    return back


def test_sweep_gives_back_pairs():
    rng = random.Random(21)
    cases = [random_permutation(m, rng.getrandbits(30))
             for m in (1, 2, 3, 63, 64, 65, 129, 2000)]
    cases += [tuple(range(1, 200)), tuple(range(199, 0, -1))]
    for values in cases:
        assert predset_rep_pairs(values) == back_pairs(values), len(values)
