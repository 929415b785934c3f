"""Multi-pattern automaton: normalization, trie shape, failure links, search."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from opmatch.bench import random_permutation
from opmatch.core import (EmptyInput, Occurrence, naive_search,
                          rank_normalize, rep_table)
from opmatch.mp_automaton import build_mp, mp_search
from opmatch.multi_ac import ac_search, build_ac, make_pattern_set

from conftest import counted_ac, random_distinct, shaped_patterns, shaped_texts


def per_pattern_oracle(ps, t):
    out = []
    for pid, p in enumerate(ps):
        if len(p) <= len(t):
            out.extend(Occurrence(o.position, pid) for o in naive_search(p, t))
    out.sort()
    return out


def collect_nodes(root):
    nodes = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children.values():
            nodes.append(child)
            stack.append(child)
    return nodes


def node_string(auto, node):
    """The node's string: the prefix of a pattern whose path passes through it."""
    for p in auto.patterns:
        walk = auto.root
        for key in p.back[:node.depth]:
            walk = walk.children[key]
        if walk is node:
            return p.values[:node.depth]
    raise AssertionError("node lies on no pattern's path")


def assert_same_build(a_mp, a_ac):
    """On one pattern the trie is a path: the AC build takes the MP build's
    tests, and the fail depths along the path are the MP failure links."""
    assert a_ac.build_ops == a_mp.build_ops, a_mp.pattern.values
    depths = []
    node = a_ac.root
    while node.children:
        (node,) = node.children.values()
        depths.append(node.fail.depth)
    assert tuple(depths) == a_mp.fail[1:], a_mp.pattern.values


class TestNormalizeSet:
    def test_running_example(self):
        ps = make_pattern_set([[4, 12, 6, 16, 10]])
        assert ps[0].back == ((None, None), (1, None), (2, 1),
                              (2, None), (2, 3))

    def test_isomorphic_patterns_share_form(self):
        first, second = make_pattern_set([[4, 12, 6, 16, 10], [1, 4, 2, 5, 3]])
        assert first.back == second.back

    def test_descending_pair(self):
        ps = make_pattern_set([[2, 1]])
        assert ps[0].back == ((None, None), (None, 1))

    def test_empty_set_and_empty_pattern_raise_empty_input(self):
        for seqs in ([], [[1, 2], []]):
            with pytest.raises(EmptyInput):
                make_pattern_set(seqs)


class TestBuildAc:
    def test_first_symbols_share_one_child(self):
        auto = build_ac(make_pattern_set([[1, 2], [2, 1]]))
        assert len(auto.root.children) == 1
        first = next(iter(auto.root.children.values()))
        assert len(first.children) == 2
        assert auto.node_count == 4

    def test_single_pattern_path_fails_to_previous_depth(self):
        auto = build_ac(make_pattern_set([[1, 2, 3]]))
        node = auto.root
        prev = auto.root
        for depth in range(1, 4):
            node = next(iter(node.children.values()))
            assert node.depth == depth
            assert node.fail is prev
            prev = node

    def test_duplicate_patterns_collapse_with_both_ids(self):
        auto = build_ac(make_pattern_set([[4, 12, 6, 16, 10], [1, 4, 2, 5, 3]]))
        assert auto.node_count == 6
        leaves = [n for n in collect_nodes(auto.root) if not n.children]
        assert len(leaves) == 1
        assert sorted(leaves[0].outputs) == [0, 1]

    def test_node_count_bound(self):
        rng = random.Random(50)
        for _ in range(30):
            seqs = [random_permutation(rng.randint(1, 8), rng.getrandbits(30))
                    for _ in range(rng.randint(1, 5))]
            ps = make_pattern_set(seqs)
            auto = build_ac(ps)
            assert auto.node_count <= sum(len(p) for p in ps) + 1

    def test_fail_links_against_suffix_oracle(self):
        rng = random.Random(51)
        sets = [[random_permutation(rng.randint(1, 6), rng.getrandbits(30))
                 for _ in range(rng.randint(1, 4))] for _ in range(60)]
        # nested prefixes of one base pattern and a scaled copy of it: readers
        # share nodes and patterns end at different depths
        for _ in range(30):
            base = random_permutation(rng.randint(2, 12), rng.getrandbits(30))
            seqs = [base[:rng.randint(1, len(base))] for _ in range(rng.randint(1, 4))]
            sets.append(seqs + [base, tuple(5 * v + 3 for v in base)])
        # monotone and zig-zag patterns, whose borders are long, with some of
        # their prefixes: readers walk long failure chains across patterns
        for m in (2, 5, 13, 27, 40):
            shaped = shaped_patterns(m)
            sets.append(shaped)
            sets.append([p[:rng.randint(1, m)] for p in shaped for _ in range(2)]
                        + [shaped[rng.randrange(3)]])
        for seqs in sets:
            auto = build_ac(make_pattern_set(seqs))
            nodes = collect_nodes(auto.root)
            by_string = {}
            for node in nodes:
                by_string[rank_normalize(node_string(auto, node))] = node
            for node in nodes:
                if node.depth == 0:
                    continue
                s = node_string(auto, node)
                want = auto.root
                for k in range(node.depth - 1, 0, -1):
                    key = rank_normalize(s[node.depth - k:])
                    if key in by_string:
                        want = by_string[key]
                        break
                assert node.fail is want, (seqs, s)

    def test_order_isomorphic_copies_add_no_build_work(self):
        # a reader takes the failure link of a prefix node another reader
        # has already read, so copies change neither the trie nor build_ops
        rng = random.Random(58)
        for _ in range(30):
            seqs = [random_permutation(rng.randint(1, 12), rng.getrandbits(30))
                    for _ in range(rng.randint(1, 6))]
            copies = [[3 * v - 7 for v in p] for p in seqs if rng.random() < 0.5]
            base = build_ac(make_pattern_set(seqs))
            more = build_ac(make_pattern_set(copies + seqs + copies))
            assert (more.node_count, more.build_ops) == (base.node_count, base.build_ops)

    def test_build_ops_linear(self):
        rng = random.Random(52)
        seqs = [random_permutation(rng.randint(1, 40), rng.getrandbits(30))
                for _ in range(200)]
        ps = make_pattern_set(seqs)
        auto = build_ac(ps)
        assert auto.build_ops <= 8 * sum(len(p) for p in ps)


class TestAcSearch:
    def test_running_example(self):
        auto = build_ac(make_pattern_set([[1, 2], [2, 1]]))
        occ, _ = ac_search(auto, (3, 1, 4, 2))
        assert occ == [Occurrence(1, 1), Occurrence(2, 0), Occurrence(3, 1)]

    def test_duplicates_both_reported(self):
        auto = build_ac(make_pattern_set([[1, 3, 2], [10, 30, 20]]))
        occ, _ = ac_search(auto, (5, 1, 8, 6))
        assert occ == [Occurrence(2, 0), Occurrence(2, 1)]

    def test_empty_text(self):
        auto = build_ac(make_pattern_set([[1, 2]]))
        occ, stats = ac_search(auto, ())
        assert occ == [] and stats.symbols_read == 0

    def test_non_prefix_free_sets(self):
        auto = build_ac(make_pattern_set([[1, 2], [1, 2, 3], [2, 1]]))
        t = (1, 3, 5, 2, 4)
        occ, _ = ac_search(auto, t)
        assert occ == per_pattern_oracle(auto.patterns, t)

    def test_oracle_equality_fuzz(self):
        rng = random.Random(53)
        for _ in range(150):
            d = rng.randint(1, 5)
            seqs = [random_permutation(rng.randint(1, 6), rng.getrandbits(30))
                    for _ in range(d)]
            n = rng.randint(8, 256)
            t = random_permutation(n, rng.getrandbits(30))
            ps = make_pattern_set(seqs)
            occ, _ = ac_search(build_ac(ps), t)
            assert occ == per_pattern_oracle(ps, t)

    def test_arbitrary_magnitudes(self):
        rng = random.Random(54)
        for _ in range(40):
            seqs = [random_distinct(rng, rng.randint(1, 5)) for _ in range(3)]
            t = random_distinct(rng, 64)
            ps = make_pattern_set(seqs)
            occ, _ = ac_search(build_ac(ps), t)
            assert occ == per_pattern_oracle(ps, t)

    def test_transition_parity_with_mp_on_single_patterns(self):
        # random texts, plus monotone and zig-zag ones that drive long
        # failure chains and the dead-end hop
        rng = random.Random(55)
        for _ in range(80):
            m = rng.randint(1, 12)
            n = rng.randint(m, 256)
            p = rep_table(random_permutation(m, rng.getrandbits(30)))
            a_mp, a_ac = build_mp(p), build_ac(make_pattern_set([p]))
            assert_same_build(a_mp, a_ac)
            for t in shaped_texts(n, rng):
                _, st_mp = mp_search(a_mp, t)
                _, st_ac = ac_search(a_ac, t)
                assert st_ac.transitions_taken == st_mp.transitions_taken, (p.values, t)
                assert st_ac.symbols_read == st_mp.symbols_read
        for p in ([1, 2, 3, 4], [4, 3, 2, 1], [1, 3, 2, 4], [2, 1, 4, 3, 6, 5]):
            a_mp, a_ac = build_mp(rep_table(p)), build_ac(make_pattern_set([p]))
            assert_same_build(a_mp, a_ac)
            for t in shaped_texts(300, rng):
                _, st_mp = mp_search(a_mp, t)
                _, st_ac = ac_search(a_ac, t)
                assert st_ac.transitions_taken == st_mp.transitions_taken, (p, t)
        for m in (1, 2, 7, 40, 129):
            for p in shaped_patterns(m):
                assert_same_build(build_mp(p), build_ac(make_pattern_set([p])))

    def test_every_gap_of_every_short_permutation(self):
        # all 33 permutations of length 1..4: every node of depth < 4 has a
        # child for every gap of its prefix, so the binary search over the
        # children sorted by gap takes every probe path
        seqs = [p for m in range(1, 5) for p in permutations(range(1, m + 1))]
        ps = make_pattern_set(seqs)
        auto = build_ac(ps)
        for node in collect_nodes(auto.root):
            if node.depth < 4:
                assert len(node.kids) == node.depth + 1
        for t in shaped_texts(400, random.Random(56)):
            occ, _ = ac_search(auto, t)
            assert occ == per_pattern_oracle(ps, t)

    def test_overlapping_failure_chains_match_oracle(self):
        # overlapping patterns whose failure chains interleave: the search
        # follows links between them at every depth and must still agree
        # with the per-pattern oracle
        auto = build_ac(make_pattern_set([[1, 2, 3, 4], [2, 1], [3, 4, 1, 2]]))
        t = random_permutation(500, 77)
        occ, _ = ac_search(auto, t)
        assert occ == per_pattern_oracle(auto.patterns, t)


def test_ac_counter_equals_counted_simulation():
    # ac_search derives its count from failure steps and hops; on random
    # sets, nested prefixes with a scaled copy and shaped patterns, over
    # random, monotone and zig-zag texts, it must give the count of a
    # simulation that counts every lookup, failure step and hop.  Each set
    # also reads the empty text and its longest pattern itself, whose last
    # symbol ends on a node without children (the hop after the last symbol)
    rng = random.Random(57)
    sets = [[random_permutation(rng.randint(1, 8), rng.getrandbits(30))
             for _ in range(rng.randint(2, 6))] for _ in range(20)]
    for _ in range(10):
        base = random_permutation(rng.randint(2, 12), rng.getrandbits(30))
        seqs = [base[:rng.randint(1, len(base))] for _ in range(rng.randint(1, 4))]
        sets.append(seqs + [base, tuple(5 * v + 3 for v in base)])
    for m in (2, 5, 13):
        sets.append(shaped_patterns(m))
        sets.append(shaped_patterns(m) + shaped_patterns(m + 3))
    for seqs in sets:
        auto = build_ac(make_pattern_set(seqs))
        longest = max(seqs, key=len)
        for t in shaped_texts(rng.randint(20, 300), rng) + [(), tuple(longest)]:
            occ, stats = ac_search(auto, t)
            assert (occ, stats.transitions_taken) == counted_ac(auto, t), (seqs, t)
