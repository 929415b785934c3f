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

Searching keeps the last ``node.depth`` text symbols as (value, position)
pairs sorted by value.  Reading a symbol bisects for its strict neighbours,
re-bases their positions to window-relative ones, and uses the resulting
rep pair as the child key; on a miss the failure link is followed and the
symbols that left the window are deleted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Occurrence, PatternLike, SearchStats, rep_table
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

    __slots__ = ("depth", "children", "fail", "outputs", "all_outputs")

    def __init__(self, depth: int):
        self.depth = depth
        self.children: dict = {}
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
    for pid, form in enumerate(normalize_set(ps)):
        node = root
        path = [root]
        for key in form:
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = AcNode(node.depth + 1)
                node_count += 1
            node = child
            path.append(node)
        node.outputs.append(pid)
        readers.append([path, ps.patterns[pid].ranks, PredSet(len(form)), root])
    windows = [r[2] for r in readers]

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
    duplicate of a matched pattern.  transitions_taken counts child lookups
    plus failure steps, matching the single-pattern automaton's accounting
    on singleton sets.
    """
    lengths = [len(p) for p in a.pattern_set.patterns]
    window: list = []  # (value, position) of the last node.depth symbols
    node = a.root
    trans = 0
    out = []
    for i0, c in enumerate(t):
        i = i0 + 1
        while True:
            depth = node.depth
            trans += 1
            idx = bisect_left(window, (c,))
            base = i - depth - 1
            x1 = window[idx - 1][1] - base if idx else None
            x2 = window[idx][1] - base if idx < depth else None
            child = node.children.get((x1, x2))
            if child is not None:
                window.insert(idx, (c, i))
                node = child
                break
            if depth == 0:
                break
            nxt = node.fail
            for pos in range(i - depth, i - nxt.depth):
                del window[bisect_left(window, (t[pos - 1],))]
            node = nxt
            trans += 1
        for pid in node.all_outputs:
            out.append(Occurrence(i - lengths[pid] + 1, pid))
        if not node.children:  # dead end, hop before the next symbol
            nxt = node.fail
            for pos in range(i - node.depth + 1, i - nxt.depth + 1):
                del window[bisect_left(window, (t[pos - 1],))]
            node = nxt
            trans += 1
        assert len(window) == node.depth
    out.sort()
    return out, SearchStats(symbols_read=len(t), transitions_taken=trans)
