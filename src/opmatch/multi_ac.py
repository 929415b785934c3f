"""Aho-Corasick style automaton for sets of order-isomorphic patterns.

Patterns are first normalized symbol by symbol into their ``back`` pairs:
each symbol's rep pair, the distances back to the largest smaller and the
smallest larger symbol before it.  This makes order-isomorphic patterns
literally identical; the trie is built over these normalized forms, so
duplicates collapse onto one path and every colliding pattern id is
reported from the shared node.  Failure links come from the
classical construction: every pattern is read, from its second symbol on,
through the automaton built so far, and the node a reader reaches after
symbol j is the failure link of the pattern's length-j prefix node.  The
readers advance in rounds, one symbol each, so every link a reader follows
is already set; a prefix node shared by several patterns is read once.

The children of a node have distinct pairs over one prefix, so each
stands for its own gap between adjacent prefix values, and the build also
lists them sorted by gap, as the values of the first pattern through the
node order them.  One step, ``_scan``, reads symbols in place:
it tests a node's only child directly (``AcNode.one``), binary-searches
the list of a node with several, and follows failure links on a miss.  A
node without children has nothing to look up, so the step leaves it by
its failure link (``AcNode.after``) before the next symbol.  The search
runs the step once over the whole text, and each reader over one symbol
of its own pattern per round, as the single-pattern builder does.  The
search notes only the positions at which each node with outputs is
reached, and expands them into occurrences afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (EmptyInput, PatternLike, SearchStats, _occurrences,
                   rep_table)


def make_pattern_set(seqs: Iterable[PatternLike]) -> tuple:
    """The patterns as a tuple of Patterns; ids are 0-based input order."""
    patterns = tuple(map(rep_table, seqs))
    if not patterns:
        raise EmptyInput("pattern set must contain at least one pattern")
    return patterns


class AcNode:
    """Trie node; children by back pair, and as kids (d1, d2, child) by gap.

    ``one`` is the only kid of a node with exactly one child, else None.
    ``after`` is the node the next symbol is read from: ``fail`` for a node
    without children, the node itself otherwise.  ``hit`` numbers the nodes
    with outputs (None for the rest), so that a search can note where it
    reached each one.
    """

    __slots__ = ("depth", "children", "kids", "one", "after", "fail", "outputs",
                 "all_outputs", "hit")

    def __init__(self, depth: int):
        self.depth = depth
        self.children: dict = {}
        self.kids: tuple = ()
        self.one = None
        self.after = self
        self.fail = None
        self.outputs: list = []
        self.all_outputs: tuple = ()
        self.hit = None


@dataclass(frozen=True)
class AcAutomaton:
    """Immutable multi-pattern automaton; concurrent searches are safe.

    ``hit_outputs[k]`` is the ``all_outputs`` of the node whose ``hit`` is k.
    """

    root: AcNode
    patterns: tuple
    node_count: int
    build_ops: int
    hit_outputs: tuple


def build_ac(patterns: tuple) -> AcAutomaton:
    """Trie of the normalized patterns with failure links and outputs.

    A reader reads symbol j only if its length-j prefix node has no failure
    link yet.  Otherwise an earlier reader of an order-isomorphic prefix has
    set it, and reading the same prefix reaches the same node, so the
    reader takes that link and reads each trie node's symbol at most once.
    build_ops counts the child lookups and failure steps of these reads, as
    ``build_mp`` counts them for one pattern, and one hop for each read that
    starts on a node without children (a pattern's end), which is left by
    its failure link without a lookup.  A reader of a single pattern never
    stands on the pattern's end and shares no node, so there the count is
    ``build_mp``'s.
    """
    root = AcNode(0)
    root.fail = root
    nodes = [root]
    readers = []  # [path from the root, values, current node]
    for pid, p in enumerate(patterns):
        node = root
        path = [root]
        for key in p.back:
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = AcNode(node.depth + 1)
                nodes.append(child)
            node = child
            path.append(node)
        node.outputs.append(pid)
        readers.append([path, p.values, root])
    for path, values, _ in readers:  # a node's patterns order its prefix alike
        for node in path:
            if node.children and not node.kids:
                kids = [(d1, d2, child) for (d1, d2), child in node.children.items()]
                if len(kids) == 1:
                    node.one = kids[0]
                else:
                    depth = node.depth
                    # no smaller symbol sorts first: compare values with values only
                    kids.sort(key=lambda kid: (False,) if kid[0] is None
                              else (True, values[depth - kid[0]]))
                node.kids = tuple(kids)

    build_ops = 0
    j = 1
    while readers:
        for r in readers:
            path, values, f = r
            v = path[j]
            if v.fail is None:
                if j > 1:  # read symbol j from the node of symbols 2..j-1
                    f, fails, hops = _scan(f, values, j - 1, j, None)
                    build_ops += 1 + 2 * fails + hops
                v.fail = f
                v.all_outputs = tuple(v.outputs) + f.all_outputs
                if not v.children:
                    v.after = f
            r[2] = v.fail  # one read per node: patterns through v share it
        j += 1
        readers = [r for r in readers if len(r[0]) > j]

    hit_outputs = []
    for node in nodes:
        if node.all_outputs:
            node.hit = len(hit_outputs)
            hit_outputs.append(node.all_outputs)
    return AcAutomaton(root, patterns, len(nodes), build_ops, tuple(hit_outputs))


def _scan(node: AcNode, t: Sequence[int], lo: int, hi: int, hits):
    """Read t[lo:hi] from node; return the node reached, failure steps, hops.

    The symbols before t[lo] must spell node's string.  Each symbol starts
    from ``node.after``, a hop when that is the failure link.  The lookup
    tests the only kid directly, or binary-searches node.kids (left if
    ``t[i0-d1] > c``, right if ``t[i0-d2] < c``, else that child); a miss
    follows the failure link and looks again.  The root's one child takes
    every symbol, so the loop ends.  Each symbol costs one lookup that
    succeeds, and each failure step one that missed.  Every index i0 at
    which a node with a ``hit`` number is reached is appended to
    ``hits[node.hit]``; the build numbers nodes only after its readers are
    done, so they pass no list.
    """
    fails = hops = 0
    for i0 in range(lo, hi):
        after = node.after
        if after is not node:
            node = after
            hops += 1
        c = t[i0]
        while True:
            one = node.one
            if one is not None:
                d1, d2, child = one
                if (d1 is None or t[i0 - d1] < c) and (d2 is None or c < t[i0 - d2]):
                    node = child
                    break
            else:
                kids = node.kids
                a, b = 0, len(kids)
                while a < b:
                    mid = (a + b) // 2
                    d1, d2, child = kids[mid]
                    if d1 is not None and t[i0 - d1] > c:
                        b = mid
                    elif d2 is not None and t[i0 - d2] < c:
                        a = mid + 1
                    else:
                        break
                if a < b:
                    node = child
                    break
            node = node.fail
            fails += 1
        k = node.hit
        if k is not None:
            hits[k].append(i0)
    return node, fails, hops


def ac_search(a: AcAutomaton, t: Sequence[int]):
    """All (position, pattern_id) occurrences, sorted, with statistics.

    t must hold pairwise-distinct values (see ``validate_seq``); a repeated
    value gives undefined results.  Output ids cover every order-isomorphic
    duplicate of a matched pattern.  One ``_scan`` reads the whole text and
    notes, per node with outputs, the end indexes at which it was reached;
    each (node, pattern id) pair hands these ends to ``_occurrences`` as
    one run, all runs become occurrences in one C-level pass, and one sort
    merges them.
    transitions_taken counts child lookups, failure steps and the hops off
    nodes without children, as ``mp_search`` does on one pattern: it is
    n + 2 * failure steps + hops, with the hop off the node reached by the
    last symbol included.
    """
    lengths = [len(p) for p in a.patterns]
    hits = [[] for _ in a.hit_outputs]
    node, fails, hops = _scan(a.root, t, 0, len(t), hits)
    if node.after is not node:
        hops += 1
    out = _occurrences((ends, lengths[pid], pid)
                       for ends, pids in zip(hits, a.hit_outputs) if ends for pid in pids)
    out.sort()
    trans = len(t) + 2 * fails + hops
    return out, SearchStats(symbols_read=len(t), transitions_taken=trans)
