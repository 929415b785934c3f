"""Shared brute-force oracles, input generators and helpers for the test suite.

The oracles here deliberately re-derive everything from definitions
(sorting, exhaustive scans) instead of reusing package internals, so they
stay independent of the code paths they certify.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from bisect import bisect, insort
from itertools import permutations
from pathlib import Path

from opmatch.bench import random_permutation

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code, cwd=None):
    """Run code in a new interpreter with this checkout's src first on
    PYTHONPATH; a failed run raises CalledProcessError."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)


def oracle_ranks(seq):
    """Rank vector computed by sorting, 1 = smallest."""
    order = sorted(seq)
    return tuple(order.index(v) + 1 for v in seq)


def oracle_oi(a, b):
    """Order-isomorphy as equality of rank vectors."""
    return len(a) == len(b) and oracle_ranks(a) == oracle_ranks(b)


def oracle_rep_pairs(values):
    """Predecessor/successor positions per prefix by exhaustive scan."""
    out = []
    for j, v in enumerate(values):
        x1 = x2 = None
        for i in range(j):
            if values[i] < v and (x1 is None or values[i] > values[x1 - 1]):
                x1 = i + 1
            if values[i] > v and (x2 is None or values[i] < values[x2 - 1]):
                x2 = i + 1
        out.append((x1, x2))
    return out


def pairs_by_insertion(values):
    """Predecessor/successor positions per prefix by binary search.

    The same 1-based pairs as ``oracle_rep_pairs``: symbol j's pair is the
    neighbours of its insertion point in the sorted (value, position)
    pairs of the symbols before it.  Fast enough for the border and MP
    oracles.
    """
    seen = []
    out = []
    for j, v in enumerate(values, 1):
        k = bisect(seen, (v, j))
        out.append((seen[k - 1][1] if k else None,
                    seen[k][1] if k < len(seen) else None))
        insort(seen, (v, j))
    return out


def oracle_insertion_ranks(values):
    """Per symbol, how many of the symbols before it are smaller."""
    return [sum(1 for u in values[:j] if u < v) for j, v in enumerate(values)]


def oracle_border_table(values):
    """Longest proper order-isomorphic border of every prefix, by ranks."""
    m = len(values)
    out = []
    for j in range(1, m + 1):
        best = 0
        for k in range(j - 1, 0, -1):
            if oracle_oi(values[:k], values[j - k:j]):
                best = k
                break
        out.append(best)
    return tuple(out)


def oi_border_table(p):
    """Longest proper order-isomorphic border of every prefix, by brute force.

    For each prefix length j, candidate border lengths are tried from j-1
    downward; each candidate suffix is re-verified from scratch against the
    prefix rep pairs of ``pairs_by_insertion``.  Test oracle for the
    failure-link construction; no border structure is reused between
    candidates.
    """
    vals = tuple(p)
    m = len(vals)
    reps = [(None if x1 is None else x1 - 1, None if x2 is None else x2 - 1)
            for x1, x2 in pairs_by_insertion(vals)]
    fail = [0] * m
    for j in range(2, m + 1):
        best = 0
        for k in range(j - 1, 0, -1):
            base = j - k
            ok = True
            for d in range(k):
                c = vals[base + d]
                x1, x2 = reps[d]
                if x1 is not None and not vals[base + x1] < c:
                    ok = False
                    break
                if x2 is not None and not c < vals[base + x2]:
                    ok = False
                    break
            if ok:
                best = k
                break
        fail[j - 1] = best
    return tuple(fail)


def strong_links(rep, fail):
    """Strong failure links of an MP automaton, by their definition.

    ``rep`` holds the 1-based rep pairs of ``pairs_by_insertion`` and
    ``fail`` the failure links.  State x < m tests pattern symbol x+1, so
    its pair, as distances back from the symbol read, is x+1 minus each
    position.  The link of x is the first state on x's failure chain whose
    distances differ from x's (state 0's pair is empty, so the walk stops
    there at the latest); the link of m is fail[m].
    """
    def distances(x):
        return tuple(None if pos is None else x + 1 - pos for pos in rep[x])

    m = len(rep)
    links = [0] * (m + 1)
    for x in range(1, m):
        q = fail[x]
        while distances(q) == distances(x):
            q = fail[q]
        links[x] = q
    links[m] = fail[m]
    return links


def mp_states(back, links, t):
    """The state of an MP walk after every symbol of t.

    The walk makes ``mp_search``'s test with the 0-based ``back`` pairs and
    follows ``links`` (failure or strong failure links) after every failed
    test and after every match.
    """
    m = len(back)
    x = 0
    for i, c in enumerate(t):
        while True:
            d1, d2 = back[x]
            if (d1 is None or t[i - d1] < c) and (d2 is None or c < t[i - d2]):
                break
            x = links[x]
        x += 1
        if x == m:
            x = links[m]
        yield x


def counted_mp(a, t):
    """Occurrence positions and transition count of an MP automaton's search.

    Walks the pattern's strong failure links, derived by ``strong_links``
    from ``a.fail`` and the pattern's 1-based rep pairs from
    ``pairs_by_insertion``, and counts as it goes: one for every forward
    test, one for every failure step, and one for the step to the border
    after every match.  The count that ``mp_search`` derives must equal
    this one.
    """
    m = len(a.pattern)
    rep = pairs_by_insertion(a.pattern.values)
    skip = strong_links(rep, a.fail)
    x = 0
    count = 0
    found = []
    for i, c in enumerate(t):
        while True:
            x1, x2 = rep[x]
            start = i - x  # 0-based start of the window that state x holds
            count += 1  # forward test
            if ((x1 is None or t[start + x1 - 1] < c)
                    and (x2 is None or c < t[start + x2 - 1])):
                x += 1
                break
            x = skip[x]
            count += 1  # failure step
        if x == m:
            found.append(i - m + 2)
            x = skip[m]
            count += 1  # step to the border
    return found, count


def counted_forward(f, t):
    """Occurrence positions and transition count of a forward automaton's search.

    Makes the forward test with the pattern's 1-based rep pairs from
    ``pairs_by_insertion``; when it fails, steps through the moves that
    ``f.moves(x)`` expands, in order, until one accepts.  Counts one for
    every interval test, forward or backward; after a match the state
    moves to fail[m] without a test.  The count that ``forward_search``
    derives must equal this one.
    """
    m = len(f.pattern)
    rep = pairs_by_insertion(f.pattern.values)
    x = 0
    count = 0
    found = []
    for i, c in enumerate(t):
        x1, x2 = rep[x]
        start = i - x  # 0-based start of the window that state x holds
        count += 1  # forward test
        if ((x1 is None or t[start + x1 - 1] < c)
                and (x2 is None or c < t[start + x2 - 1])):
            x += 1
        else:
            for low, high, target in f.moves(x):
                count += 1  # backward test
                if (low is None or t[i - low] < c) and (high is None or c < t[i - high]):
                    x = target
                    break
            else:
                raise AssertionError(f"no move of state {x} accepted {c}")
        if x == m:
            found.append(i - m + 2)
            x = f.fail[m]
    return found, count


def ac_strong_link(node, root):
    """The strong failure link of an AC trie node, by the subset rule.

    Walks the node's failure chain from its failure link, passing every
    node other than the root whose child keys are all child keys of the
    node before it on the chain: a symbol that node misses, it misses too.
    """
    before, f = node, node.fail
    while f is not root and f.children.keys() <= before.children.keys():
        before, f = f, f.fail
    return f


def ac_step(node, t, i, root):
    """The child that a lookup of t[i] from node ends at, and its failure steps.

    Finds a node's child by a linear scan of its ``kids`` and, on a miss,
    steps along the strong failure link derived by ``ac_strong_link``
    from the trie's ``children`` and ``fail``.  The symbols before t[i]
    must spell node's string.
    """
    c = t[i]
    steps = 0
    while True:
        for d1, d2, child in node.kids:
            if (d1 is None or t[i - d1] < c) and (d2 is None or c < t[i - d2]):
                return child, steps
        node = ac_strong_link(node, root)
        steps += 1


def counted_ac(auto, t):
    """Sorted (position, pattern id) pairs and transition count of an AC search.

    Walks ``auto``'s trie by ``ac_step`` and collects outputs along the
    failure chain of every node it reaches.  It counts as it goes: one for
    every child lookup, one for every failure step, and one for the hop
    off a node without children after each symbol (the last symbol
    included).  The count that ``ac_search`` derives must equal this one.
    """
    lengths = [len(p) for p in auto.patterns]
    root = auto.root
    node = root
    count = 0
    found = []
    for i in range(len(t)):
        node, steps = ac_step(node, t, i, root)
        count += 1 + 2 * steps  # a lookup per node tried, a step per miss
        out = node
        while out is not root:
            found += [(i - lengths[pid] + 2, pid) for pid in out.outputs]
            out = out.fail
        if not node.kids:
            node = node.fail
            count += 1  # hop off a dead end
    return sorted(found), count


def oracle_positions(pattern_values, text):
    """All 1-based occurrence positions by definitional window comparison."""
    m = len(pattern_values)
    pref = oracle_ranks(pattern_values)
    return [s + 1 for s in range(len(text) - m + 1)
            if oracle_ranks(text[s:s + m]) == pref]


def rank_patterns(m):
    """Every pattern shape of length m, one representative per OI class."""
    return [perm for perm in permutations(range(1, m + 1))]


def random_distinct(rng: random.Random, length, lo=-10**6, hi=10**6):
    """Random pairwise-distinct integers, arbitrary magnitudes."""
    return rng.sample(range(lo, hi), length)


def positions(occ):
    return [o.position for o in occ]


def two_track_zigzag(m):
    """Low, high, low, high, ...: both tracks rise, every low < every high."""
    return [k // 2 if k % 2 == 0 else m + k // 2 for k in range(m)]


def converging_zigzag(m):
    """0, m, 1, m-1, 2, ...: every symbol turns the direction."""
    return [k // 2 if k % 2 == 0 else m - k // 2 for k in range(m)]


def block_periodic(m, block):
    """Blocks of len(block) symbols, each of block's shape above the last."""
    b = len(block)
    return [b * (k // b) + block[k % b] for k in range(m)]


def chain_shapes(m):
    """Patterns with long failure chains: ascending, descending, alternating
    zig-zag (1, 0, 3, 2, ...) and block-periodic with blocks 3, 5 and 8."""
    return ([list(range(1, m + 1)), list(range(m, 0, -1)),
             [k + 1 if k % 2 == 0 else k - 1 for k in range(m)]]
            + [block_periodic(m, random_permutation(b, b)) for b in (3, 5, 8)])


def shaped_patterns(m):
    """An ascending, a descending and a two-track zig-zag sequence of length m."""
    return [list(range(1, m + 1)), list(range(m, 0, -1)), two_track_zigzag(m)]


def shaped_texts(n, rng):
    """A random text of length n, then the three shaped sequences."""
    return [random_permutation(n, rng.getrandbits(30))] + shaped_patterns(n)


def plant_copies(rng, values, text):
    """text (a permutation of 1..n) with 1-3 copies a*r + c of the ranks r of
    values in disjoint slots, each above the text and the earlier copies."""
    t = list(text)
    values = oracle_ranks(values)
    m, n = len(values), len(t)
    copies = rng.randint(1, min(3, n // m))
    slot = n // copies
    a = rng.randint(1, 3)
    for k in range(copies):
        at = k * slot + rng.randint(0, slot - m)
        c = n + k * 3 * m
        t[at:at + m] = [a * v + c for v in values]
    return t
