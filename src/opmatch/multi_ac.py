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
it tests a node's only child directly (``AcNode.one``), resolves a
symbol at a shallow node with several by one walk down a decision tree
(below), binary-searches the list of a deeper one, and follows strong
failure links (``AcNode.skip``) on a miss.  A node without children has
nothing to look up, so the step leaves it by its failure link
(``AcNode.after``) before the next symbol.  The search runs the step
once over the whole text, and each reader over one symbol of its own
pattern per round, as the single-pattern builder does.  The search
notes only the positions at which each node with outputs is reached,
and expands them into occurrences afterwards.

A symbol's place among the values of a node's string, its order class,
fixes where that node's lookup and the failure steps after it end, so
the step can be precomputed per class, as Aho and Corasick precompute
the next move of every state.  A search spends most of its lookups at
shallow nodes with several children, so only those get it: after the
readers, each branching node of depth 1 to 6 gets a decision tree over
its order classes (``AcNode.tree``), whose leaf is the child that the
binary search and the failure steps after it reach, and the number of
those steps.  A trie has at most d! nodes at depth d, so there are at
most 1! + ... + 6! = 873 trees, of at most 7 leaves each, whatever the
dictionary.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .core import (EmptyInput, PatternLike, SearchStats, _occurrences,
                   rep_table)


_EMPTY_SET = "pattern set must contain at least one pattern"
_TREE_DEPTH = 6  # deepest branching node given an order tree (see build_ac)


def make_pattern_set(seqs: Iterable[PatternLike]) -> tuple:
    """The patterns as a tuple of Patterns; ids are 0-based input order."""
    patterns = tuple(map(rep_table, seqs))
    if not patterns:
        raise EmptyInput(_EMPTY_SET)
    return patterns


class AcNode:
    """Trie node; children by back pair, and as kids (d1, d2, child) by gap.

    ``one`` is the only kid of a node with exactly one child, else None.
    ``after`` is the node the next symbol is read from: ``fail`` for a node
    without children, the node itself otherwise.  ``skip`` is the strong
    failure link a miss follows.  With f = ``fail``, it is f's own ``skip``
    when f is not the root and every child key of f is one of this node's,
    since a symbol this node misses is then missed by f too; else it is f.
    ``hit`` numbers the nodes with outputs (None for the rest), so that a
    search can note where it reached each one.  ``tree`` is set on a node
    with several children at depth 1 to 6, else None: a decision tree over
    the node's order classes whose inner nodes are ``(distance, below,
    above)``, taking ``below`` when the symbol read is smaller than the one
    ``distance`` back, and whose leaves are ``(node, steps)``, the child
    that the lookup and ``steps`` failure steps after it end at.
    """

    __slots__ = ("depth", "children", "kids", "one", "tree", "after", "fail",
                 "skip", "outputs", "all_outputs", "hit")

    def __init__(self, depth: int):
        self.depth = depth
        self.children: dict = {}
        self.kids: tuple = ()
        self.one = None
        self.tree = None
        self.after = self
        self.fail = None
        self.skip = None
        self.outputs: tuple = ()
        self.all_outputs: tuple = ()
        self.hit = None


class AcAutomaton(NamedTuple):
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
    ``build_mp``'s, and along its path the strong links are ``build_mp``'s
    too.  An empty tuple raises EmptyInput: a root without a child would
    miss every symbol.

    The order trees (``AcNode.tree``) are built last, shallowest first, by
    ``_order_tree``.  Their work is not in build_ops: it is at most 873
    trees, each made from at most 7 one-symbol scans from depth 6 or less,
    whatever the dictionary, and leaving it out keeps build_ops the
    readers' work, which on one pattern, where no node branches, is
    ``build_mp``'s.
    """
    if not patterns:
        raise EmptyInput(_EMPTY_SET)
    root = AcNode(0)
    root.fail = root.skip = root
    nodes = [root]
    readers = []  # [path from the root, values, current node]
    branching = []  # (node, values of its first pattern) per node to get a tree
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
        node.outputs += (pid,)
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
                    if depth <= _TREE_DEPTH:
                        branching.append((node, values))
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
                v.skip = (f.skip if f is not root
                          and f.children.keys() <= v.children.keys() else f)
                v.all_outputs = v.outputs + f.all_outputs
                if not v.children:
                    v.after = f
            r[2] = v.fail  # one read per node: patterns through v share it
        j += 1
        readers = [r for r in readers if len(r[0]) > j]

    branching.sort(key=lambda entry: entry[0].depth)  # a skip's tree comes first
    for node, values in branching:
        node.tree = _order_tree(node, values)

    hit_outputs = []
    for node in nodes:
        if node.all_outputs:
            node.hit = len(hit_outputs)
            hit_outputs.append(node.all_outputs)
    return AcAutomaton(root, patterns, len(nodes), build_ops, tuple(hit_outputs))


def _order_tree(v: AcNode, values: Sequence[int]):
    """The decision tree that resolves every order class at v in one walk.

    values[:depth] spell v's string; class g holds the symbols above
    exactly g of them.  Each class's leaf is ``(child, failure steps)``
    of ``_scan``'s lookup of one of its symbols from v, made while v has
    no tree: a binary search of v's kids, then steps along ``skip``, whose
    nodes are shallower and so already have their trees.  Classes with
    equal leaves merge, and the tree is balanced over the cuts between
    the rest, each tested as ``c < t[i0 - distance]``.
    """
    depth = v.depth
    w = [2 * x for x in values[:depth]]  # 2u - 1 and 2u + 1 lie beside u
    order = sorted(range(depth), key=w.__getitem__)
    t = w + [0]
    leaves = []  # one per run of classes with equal leaves
    cuts = []  # cuts[k]: distance of the value between leaves k and k+1
    for g in range(depth + 1):
        t[depth] = w[order[g]] - 1 if g < depth else w[order[-1]] + 1
        leaf = _scan(v, t, depth, depth + 1, None)[:2]
        if not leaves:
            leaves.append(leaf)
        elif leaf != leaves[-1]:
            cuts.append(depth - order[g - 1])
            leaves.append(leaf)

    def balanced(lo, hi):
        if hi - lo == 1:
            return leaves[lo]
        mid = (lo + hi) // 2
        return (cuts[mid - 1], balanced(lo, mid), balanced(mid, hi))

    return balanced(0, len(leaves))


def _scan(node: AcNode, t: Sequence[int], lo: int, hi: int, hits):
    """Read t[lo:hi] from node; return the node reached, failure steps, hops.

    The symbols before t[lo] must spell node's string.  Each symbol starts
    from ``node.after``, a hop when that is the failure link.  The lookup
    tests the only kid directly; at a node with several it walks the
    node's order tree, if it has one, to the child and the failure steps
    that the search below and its misses would reach, and else
    binary-searches node.kids (left if
    ``t[i0-d1] > c``, right if ``t[i0-d2] < c``, else that child); a miss
    follows the strong failure link and looks again.  The root's one child
    takes every symbol, so the loop ends.  Each symbol costs one lookup
    that succeeds, and each failure step one that missed, whether the
    step was taken or read from a leaf.  Every index i0 at
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
                tree = node.tree
                if tree is not None:
                    while len(tree) == 3:
                        distance, below, above = tree
                        tree = below if c < t[i0 - distance] else above
                    node, steps = tree
                    fails += steps
                    break
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
            node = node.skip
            fails += 1
        k = node.hit
        if k is not None:
            hits[k].append(i0)
    return node, fails, hops


def ac_search(a: AcAutomaton, t: Sequence[int], make=_occurrences):
    """All (position, pattern_id) occurrences, with statistics.

    t must hold pairwise-distinct values (see ``validate_seq``); a repeated
    value gives undefined results.  Output ids cover every order-isomorphic
    duplicate of a matched pattern.  One ``_scan`` reads the whole text and
    notes, per node with outputs, the end indexes at which it was reached;
    each (node, pattern id) pair hands these ends to ``make`` as one run
    ``(ends, m, pattern_id)``; the maker orders the matches (see ``core``).
    transitions_taken counts child lookups, failure steps (along ``skip``)
    and the hops off nodes without children, as ``mp_search`` does on one
    pattern: it is n + 2 * failure steps + hops, with the hop off the node
    reached by the last symbol included.
    """
    lengths = [len(p) for p in a.patterns]
    hits = [[] for _ in a.hit_outputs]
    node, fails, hops = _scan(a.root, t, 0, len(t), hits)
    if node.after is not node:
        hops += 1
    out = make((ends, lengths[pid], pid)
               for ends, pids in zip(hits, a.hit_outputs) if ends for pid in pids)
    trans = len(t) + 2 * fails + hops
    return out, SearchStats(symbols_read=len(t), transitions_taken=trans)
