"""Aho-Corasick style automaton for sets of order-isomorphic patterns.

Patterns are first normalized symbol by symbol into their ``back`` pairs
(rep pairs as distances back from each symbol), which makes
order-isomorphic patterns literally identical; the trie is built over these
normalized forms, so duplicates collapse onto one path and every colliding
pattern id is reported from the shared node.  Failure links come from the
classical construction: every pattern is read, from its second symbol on,
through the automaton built so far, and the node a reader reaches after
symbol j is the failure link of the pattern's length-j prefix node.  The
readers advance in rounds, one symbol each, so every link a reader follows
is already set.

The children of a node have distinct pairs over one prefix, so each
stands for its own gap between adjacent prefix values, and the build also
lists them sorted by gap.  One step, ``_read``, finds the child for a
symbol by binary-searching that list against values in place and follows
failure links on a miss.  The search runs it over the text, and each
reader over its own pattern's values, as the single-pattern builder does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import EmptyInput, Occurrence, PatternLike, SearchStats, rep_table


@dataclass(frozen=True)
class PatternSet:
    """Validated patterns with stable input-order ids (0-based)."""

    patterns: tuple


def make_pattern_set(seqs: Iterable[PatternLike]) -> PatternSet:
    patterns = tuple(rep_table(s) for s in seqs)
    if not patterns:
        raise EmptyInput("pattern set must contain at least one pattern")
    return PatternSet(patterns)


class AcNode:
    """Trie node; children by back pair, and as kids (d1, d2, child) by gap."""

    __slots__ = ("depth", "children", "kids", "fail", "outputs", "all_outputs")

    def __init__(self, depth: int):
        self.depth = depth
        self.children: dict = {}
        self.kids: tuple = ()
        self.fail = None
        self.outputs: list = []
        self.all_outputs: tuple = ()


@dataclass(frozen=True)
class AcAutomaton:
    """Immutable multi-pattern automaton; concurrent searches are safe."""

    root: AcNode
    pattern_set: PatternSet
    node_count: int
    build_ops: int


def build_ac(ps: PatternSet) -> AcAutomaton:
    """Trie of the normalized patterns with failure links and outputs.

    build_ops counts the child lookups and failure steps of all readers,
    as ``build_mp`` counts them for one pattern.
    """
    root = AcNode(0)
    root.fail = root
    node_count = 1
    readers = []  # [path from the root, values, current node]
    for pid, p in enumerate(ps.patterns):
        node = root
        path = [root]
        for key in p.back:
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = AcNode(node.depth + 1)
                node_count += 1
            node = child
            path.append(node)
        node.outputs.append(pid)
        readers.append([path, p.values, root])
    for p, (path, _, _) in zip(ps.patterns, readers):
        ranks = p.ranks  # a node's patterns order its prefix alike
        for node in path:
            if node.children and not node.kids:
                depth = node.depth
                node.kids = tuple(sorted(
                    ((d1, d2, child) for (d1, d2), child in node.children.items()),
                    key=lambda kid: 0 if kid[0] is None else ranks[depth - kid[0]]))

    build_ops = 0
    j = 1
    while readers:
        for r in readers:
            path, values, f = r
            if j > 1:  # read symbol j from the node of symbols 2..j-1
                f, tests = _read(f, values, j - 1)
                build_ops += tests
                r[2] = f
            v = path[j]
            if v.fail is None:
                v.fail = f
                v.all_outputs = tuple(v.outputs) + f.all_outputs
        j += 1
        readers = [r for r in readers if len(r[0]) > j]
    return AcAutomaton(root, ps, node_count, build_ops)


def _read(node: AcNode, t: Sequence[int], i0: int):
    """Node reached by reading t[i0] from node, and the tests it took.

    The symbols before t[i0] must spell node's string.  Each lookup
    binary-searches node.kids (left if ``t[i0-d1] > c``, right if
    ``t[i0-d2] < c``, else that child); a miss follows the failure link
    and looks again.  The root's one child takes every symbol, so the loop
    ends.  Tests count the lookups plus the failure steps.
    """
    c = t[i0]
    tests = 0
    while True:
        tests += 1
        kids = node.kids
        lo, hi = 0, len(kids)
        while lo < hi:
            mid = (lo + hi) // 2
            d1, d2, child = kids[mid]
            if d1 is not None and t[i0 - d1] > c:
                hi = mid
            elif d2 is not None and t[i0 - d2] < c:
                lo = mid + 1
            else:
                return child, tests
        node = node.fail
        tests += 1


def ac_search(a: AcAutomaton, t: Sequence[int]):
    """All (position, pattern_id) occurrences, sorted, with statistics.

    t must hold pairwise-distinct values (see ``validate_seq``); a repeated
    value gives undefined results.  Output ids cover every order-isomorphic
    duplicate of a matched pattern.  Reads the text in place with ``_read``.
    transitions_taken counts child lookups plus failure steps, as
    ``mp_search`` does on one pattern.
    """
    lengths = [len(p) for p in a.pattern_set.patterns]
    node = a.root
    trans = 0
    out = []
    for i0 in range(len(t)):
        node, tests = _read(node, t, i0)
        trans += tests
        for pid in node.all_outputs:
            out.append(Occurrence(i0 - lengths[pid] + 2, pid))
        if not node.children:  # dead end, hop before the next symbol
            node = node.fail
            trans += 1
    out.sort()
    return out, SearchStats(symbols_read=len(t), transitions_taken=trans)
