"""Aho-Corasick style automaton for sets of order-isomorphic patterns.

Patterns are first normalized symbol by symbol into rep pairs, which makes
order-isomorphic patterns literally identical; the trie is built over these
normalized forms, so duplicates collapse onto one path and every colliding
pattern id is reported from the shared node.  Failure links are computed
layer by layer with the same sliding-window technique as the single-pattern
builder: each node carries a predecessor set holding its current border
window, inherited from its parent along single-child chains and re-seeded
with a new representative pattern's values at branching points.

Searching maintains one predecessor set over the live text window whose
size always equals the current node depth.  Reading a symbol queries its
strict neighbours, re-bases their positions to window-relative ones, and
uses the resulting rep pair as the child key; on a miss the failure link is
followed and the symbols that left the window are deleted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (Occurrence, PatternLike, SearchStats, rank_normalize,
                   rep_table)
from .predset import PredSet


@dataclass(frozen=True)
class PatternSet:
    """Validated patterns with stable input-order ids (0-based)."""

    patterns: tuple

    @property
    def m_total(self) -> int:
        return sum(len(p) for p in self.patterns)


def make_pattern_set(seqs: Iterable[PatternLike]) -> PatternSet:
    patterns = tuple(rep_table(s) for s in seqs)
    if not patterns:
        raise ValueError("pattern set must contain at least one pattern")
    return PatternSet(patterns)


def normalize_set(ps: PatternSet) -> tuple:
    """Normalized form (rep-pair sequence) of every pattern, id order.

    Two patterns are order-isomorphic exactly when their normalized forms
    are equal.
    """
    return tuple(p.rep for p in ps.patterns)


class AcNode:
    """Trie node; children are keyed by the rep pair of the next symbol."""

    __slots__ = ("depth", "children", "fail", "outputs", "all_outputs",
                 "rep_id", "parent", "ps")

    def __init__(self, depth: int, parent=None):
        self.depth = depth
        self.children: dict = {}
        self.fail = None
        self.outputs: list = []
        self.all_outputs: tuple = ()
        self.rep_id = -1
        self.parent = parent
        self.ps = None  # build-time border window, dropped after build


@dataclass(frozen=True)
class AcAutomaton:
    """Immutable multi-pattern automaton; concurrent searches are safe."""

    root: AcNode
    pattern_set: PatternSet
    node_count: int
    build_ops: int


def build_ac(ps: PatternSet) -> AcAutomaton:
    forms = normalize_set(ps)
    root = AcNode(0)
    root.fail = root
    nodes = [root]
    for pid, form in enumerate(forms):
        node = root
        for key in form:
            child = node.children.get(key)
            if child is None:
                child = AcNode(node.depth + 1, parent=node)
                node.children[key] = child
                nodes.append(child)
            node = child
        node.outputs.append(pid)

    _assign_representatives(root, ps.patterns)

    layers: list = []
    frontier = list(root.children.values())
    while frontier:
        layers.append(frontier)
        frontier = [ch for node in frontier for ch in node.children.values()]

    structures = []

    def fresh_window(node: AcNode) -> PredSet:
        """New border-window structure seeded with node's parent window.

        Keys are ranks of the node's representative pattern, payloads are
        1-based positions in it; the parent's window transfers because both
        representatives are order-isomorphic along the shared prefix.
        """
        u = node.parent
        vranks = ps.patterns[node.rep_id].ranks
        w = PredSet(len(vranks))
        structures.append(w)
        k = u.fail.depth if u is not root else 0
        for pos in range(u.depth - k + 1, u.depth + 1):
            w.insert(vranks[pos - 1], pos)
        return w

    for layer in layers:
        for v in layer:
            u = v.parent
            if u is root:
                v.fail = root
                v.ps = PredSet(len(ps.patterns[v.rep_id]))
                structures.append(v.ps)
            else:
                if len(u.children) == 1 and u.rep_id == v.rep_id and u.ps is not None:
                    window = u.ps
                    u.ps = None
                else:
                    window = fresh_window(v)
                vranks = ps.patterns[v.rep_id].ranks
                j = v.depth
                alpha = vranks[j - 1]
                f = u.fail
                while True:
                    pred, succ = window.query_strict(alpha)
                    base = j - f.depth - 1
                    x1 = None if pred is None else pred[1] - base
                    x2 = None if succ is None else succ[1] - base
                    child = f.children.get((x1, x2))
                    if child is not None:
                        v.fail = child
                        break
                    nxt = f.fail
                    for pos in range(j - f.depth, j - nxt.depth):
                        window.delete(vranks[pos - 1])
                    f = nxt
                window.insert(alpha, j)
                v.ps = window
            v.all_outputs = tuple(v.outputs) + v.fail.all_outputs

    build_ops = sum(w.ops for w in structures)
    for node in nodes:  # drop build-only state
        node.ps = None
        node.parent = None
    return AcAutomaton(root, ps, len(nodes), build_ops)


def _assign_representatives(root: AcNode, patterns: tuple) -> None:
    """Point every node at the shortest pattern in its subtree (ties: id)."""
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if not done:
            stack.append((node, True))
            for ch in node.children.values():
                stack.append((ch, False))
            continue
        best = None
        for pid in node.outputs:
            cand = (len(patterns[pid]), pid)
            if best is None or cand < best:
                best = cand
        for ch in node.children.values():
            cand = (len(patterns[ch.rep_id]), ch.rep_id)
            if best is None or cand < best:
                best = cand
        if best is not None:
            node.rep_id = best[1]


def ac_search(a: AcAutomaton, t: Sequence[int]):
    """All (position, pattern_id) occurrences, sorted, with statistics.

    Output ids cover every order-isomorphic duplicate of a matched pattern.
    transitions_taken counts child lookups plus failure steps, matching the
    single-pattern automaton's accounting on singleton sets.
    """
    n = len(t)
    if n == 0:
        return [], SearchStats()
    tranks = rank_normalize(t)
    lengths = [len(p) for p in a.pattern_set.patterns]
    window = PredSet(n)
    node = a.root
    trans = 0
    out = []
    for i0 in range(n):
        rk = tranks[i0]
        i = i0 + 1
        while True:
            depth = node.depth
            trans += 1
            pred, succ = window.query_strict(rk)
            base = i - depth - 1
            x1 = None if pred is None else pred[1] - base
            x2 = None if succ is None else succ[1] - base
            child = node.children.get((x1, x2))
            if child is not None:
                window.insert(rk, i)
                node = child
                break
            if depth == 0:
                break
            nxt = node.fail
            for pos in range(i - depth, i - nxt.depth):
                window.delete(tranks[pos - 1])
            node = nxt
            trans += 1
        for pid in node.all_outputs:
            out.append(Occurrence(i - lengths[pid] + 1, pid))
        if not node.children:  # dead end, hop before the next symbol
            nxt = node.fail
            for pos in range(i - node.depth + 1, i - nxt.depth + 1):
                window.delete(tranks[pos - 1])
            node = nxt
            trans += 1
        assert len(window) == node.depth
    out.sort()
    return out, SearchStats(symbols_read=n, transitions_taken=trans)
