"""Aho-Corasick style automaton for sets of order-isomorphic patterns.

Patterns are first normalized symbol by symbol into rep pairs, which makes
order-isomorphic patterns literally identical; the trie is built over these
normalized forms, so duplicates collapse onto one path and every colliding
pattern id is reported from the shared node.  Failure links come from the
classical construction: every pattern is read, from its second symbol on,
through the automaton built so far, and the node a reader reaches after
symbol j is the failure link of the pattern's length-j prefix node.  The
readers advance in rounds, one symbol each, so every link a reader follows
is already set.  Each reader keeps its border window in a predecessor set
over its own pattern's ranks, exactly as the single-pattern builder does.

The children of a node have distinct rep pairs over one prefix, so each
stands for its own gap between adjacent prefix values, and the build also
lists them sorted by gap.  Searching reads the text in place, as the
single-pattern search does, binary-searching that list at every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Occurrence, PatternLike, SearchStats, rep_table
from .predset import PredSet


@dataclass(frozen=True)
class PatternSet:
    """Validated patterns with stable input-order ids (0-based)."""

    patterns: tuple


def make_pattern_set(seqs: Iterable[PatternLike]) -> PatternSet:
    patterns = tuple(rep_table(s) for s in seqs)
    if not patterns:
        raise ValueError("pattern set must contain at least one pattern")
    return PatternSet(patterns)


class AcNode:
    """Trie node; children by rep pair, and as kids (x1, x2, child) by gap."""

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

    build_ops is the number of predecessor-set operations of all readers.
    """
    root = AcNode(0)
    root.fail = root
    node_count = 1
    readers = []  # [path from the root, ranks, border window, current node]
    for pid, p in enumerate(ps.patterns):
        node = root
        path = [root]
        for key in p.rep:
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = AcNode(node.depth + 1)
                node_count += 1
            node = child
            path.append(node)
        node.outputs.append(pid)
        readers.append([path, p.ranks, PredSet(len(p)), root])
    windows = [r[2] for r in readers]
    for path, ranks, _, _ in readers:  # a node's patterns order its prefix alike
        for node in path:
            if node.children and not node.kids:
                node.kids = tuple(sorted(
                    ((x1, x2, child) for (x1, x2), child in node.children.items()),
                    key=lambda kid: 0 if kid[0] is None else ranks[kid[0] - 1]))

    j = 1
    while readers:
        for r in readers:
            path, ranks, window, f = r
            if j > 1:  # read symbol j from the node of symbols 2..j-1
                alpha = ranks[j - 1]
                while True:
                    pred, succ = window.query_strict(alpha)
                    base = j - f.depth - 1
                    x1 = None if pred is None else pred[1] - base
                    x2 = None if succ is None else succ[1] - base
                    child = f.children.get((x1, x2))
                    if child is not None:
                        break
                    nxt = f.fail
                    for pos in range(j - f.depth, j - nxt.depth):
                        window.delete(ranks[pos - 1])
                    f = nxt
                window.insert(alpha, j)
                f = r[3] = child
            v = path[j]
            if v.fail is None:
                v.fail = f
                v.all_outputs = tuple(v.outputs) + f.all_outputs
        j += 1
        readers = [r for r in readers if len(r[0]) > j]

    build_ops = sum(w.ops for w in windows)
    return AcAutomaton(root, ps, node_count, build_ops)


def ac_search(a: AcAutomaton, t: Sequence[int]):
    """All (position, pattern_id) occurrences, sorted, with statistics.

    t must hold pairwise-distinct values (see ``validate_seq``); a repeated
    value gives undefined results.  Output ids cover every order-isomorphic
    duplicate of a matched pattern.  Reads the text in place, binary-searching
    each node's children sorted by gap.  transitions_taken counts child
    lookups plus failure steps, as ``mp_search`` does on one pattern.
    """
    lengths = [len(p) for p in a.pattern_set.patterns]
    node = a.root
    trans = 0
    out = []
    for i0, c in enumerate(t):
        while True:
            trans += 1
            base = i0 - node.depth - 1
            kids = node.kids
            lo, hi = 0, len(kids)
            while lo < hi:
                mid = (lo + hi) // 2
                x1, x2, child = kids[mid]
                if x1 is not None and t[base + x1] > c:
                    hi = mid
                elif x2 is not None and t[base + x2] < c:
                    lo = mid + 1
                else:
                    break
            if lo < hi or node.depth == 0:  # a kid matched, or the root missed
                break
            node = node.fail
            trans += 1
        if lo < hi:
            node = child
        for pid in node.all_outputs:
            out.append(Occurrence(i0 - lengths[pid] + 2, pid))
        if not node.children:  # dead end, hop before the next symbol
            node = node.fail
            trans += 1
    out.sort()
    return out, SearchStats(symbols_read=len(t), transitions_taken=trans)
