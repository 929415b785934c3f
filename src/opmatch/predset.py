"""Dynamic predecessor/successor set over a bounded integer universe.

Two-level bitset: keys 1..capacity live in 64-bit words, and a summary
integer has one bit per non-empty word.  Predecessor and successor queries
scan at most one word plus the summary, so at the universe sizes used here
(pattern lengths) every operation is a handful of machine-word steps.
No engine uses it; perfbench times it (``predset.op_ns``) by replaying a
sliding window of a text's ranks through one instance.

Each key carries one payload (here always a position).  Instances count
their operations in ``ops`` so build-cost bounds can be asserted in tests.
Single-owner mutable: concurrent mutation of one instance is not supported,
distinct instances are independent.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

WORD = 64
_LOW_MASKS = [(1 << b) - 1 for b in range(WORD)]

Neighbor = Optional[Tuple[int, Any]]  # (key, payload) or None for no neighbour


class KeyOutOfUniverse(ValueError):
    """Key or query point outside 1..capacity."""


class KeyPresent(ValueError):
    """Insert of a key that is already in the set."""


class KeyAbsent(LookupError):
    """Delete of a key that is not in the set."""


class PredSet:
    """Set of (key, payload) with predecessor/successor queries.

    query_strict(y) returns the largest key < y and the smallest key > y.
    Queries do not mutate the contents (the ``ops`` counter still ticks).
    """

    __slots__ = ("capacity", "_words", "_summary", "_payload", "_size", "ops")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._words = [0] * ((capacity + WORD - 1) // WORD)
        self._summary = 0
        self._payload = [None] * (capacity + 1)
        self._size = 0
        self.ops = 0

    def __len__(self) -> int:
        return self._size

    def _check_key(self, key: int) -> None:
        if not 1 <= key <= self.capacity:
            raise KeyOutOfUniverse(f"key {key} outside universe 1..{self.capacity}")

    def insert(self, key: int, payload: Any) -> None:
        self._check_key(key)
        b = key - 1
        w = b >> 6
        bit = 1 << (b & 63)
        if self._words[w] & bit:
            raise KeyPresent(f"key {key} already present")
        self._words[w] |= bit
        self._summary |= 1 << w
        self._payload[key] = payload
        self._size += 1
        self.ops += 1

    def delete(self, key: int) -> None:
        self._check_key(key)
        b = key - 1
        w = b >> 6
        bit = 1 << (b & 63)
        if not self._words[w] & bit:
            raise KeyAbsent(f"key {key} not present")
        self._words[w] &= ~bit
        if not self._words[w]:
            self._summary &= ~(1 << w)
        self._payload[key] = None
        self._size -= 1
        self.ops += 1

    def _pred(self, y: int) -> Neighbor:
        b = y - 1
        w = b >> 6
        word = self._words[w] & _LOW_MASKS[b & 63]
        if not word:
            below = self._summary & ((1 << w) - 1)
            if not below:
                return None
            w = below.bit_length() - 1
            word = self._words[w]
        key = (w << 6) + word.bit_length()
        return key, self._payload[key]

    def _succ(self, y: int) -> Neighbor:
        b = y - 1
        w = b >> 6
        word = self._words[w] >> ((b & 63) + 1)
        if word:
            key = (w << 6) + (b & 63) + 1 + (word & -word).bit_length()
        else:
            above = self._summary >> (w + 1)
            if not above:
                return None
            w = w + 1 + ((above & -above).bit_length() - 1)
            word = self._words[w]
            key = (w << 6) + (word & -word).bit_length()
        return key, self._payload[key]

    def query_strict(self, y: int) -> Tuple[Neighbor, Neighbor]:
        """(largest key < y, smallest key > y), each with payload."""
        self._check_key(y)
        self.ops += 1
        return self._pred(y), self._succ(y)
