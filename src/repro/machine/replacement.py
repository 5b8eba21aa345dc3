"""Replacement policies for the set-associative cache model.

A policy sees one set at a time as an ordered list of block ids (index 0 is
the logical head).  The cache calls :meth:`on_insert`, :meth:`on_hit`, and
:meth:`victim_index`; policies may keep auxiliary per-set state (tree-PLRU
bits, RNG), keyed by set index.

The Origin 2000's caches are LRU; the alternatives exist so ablations and
property tests can show the model is insensitive to the exact policy (the
paper's "conflict misses" lump capacity+conflict regardless of policy).

The cache applies LRU in line on its set lists rather than through
:class:`LruPolicy`; the class remains the reference model the property
tests hold that in-line LRU to.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from ..errors import ConfigError

__all__ = [
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "TreePlruPolicy",
    "make_policy",
]


class ReplacementPolicy(ABC):
    """Interface between a cache and its eviction strategy."""

    @abstractmethod
    def on_hit(self, set_index: int, order: list[int], way: int) -> None:
        """Update state after a hit on ``order[way]``; may reorder ``order``."""

    @abstractmethod
    def on_insert(self, set_index: int, order: list[int], block: int) -> None:
        """Record ``block`` being inserted; append it to ``order``."""

    @abstractmethod
    def victim_index(self, set_index: int, order: list[int]) -> int:
        """Choose the index in ``order`` to evict (set is full)."""

    def on_remove(self, set_index: int, order: list[int], way: int) -> None:
        """Invalidate ``order[way]`` (e.g. coherence invalidation)."""
        order.pop(way)

    def reset(self) -> None:
        """Drop any auxiliary state (used when a cache is flushed)."""


class LruPolicy(ReplacementPolicy):
    """Least-recently-used: hits move to the back; the front is the victim."""

    def on_hit(self, set_index: int, order: list[int], way: int) -> None:
        order.append(order.pop(way))

    def on_insert(self, set_index: int, order: list[int], block: int) -> None:
        order.append(block)

    def victim_index(self, set_index: int, order: list[int]) -> int:
        return 0


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: insertion order only, hits do not promote."""

    def on_hit(self, set_index: int, order: list[int], way: int) -> None:
        pass

    def on_insert(self, set_index: int, order: list[int], block: int) -> None:
        order.append(block)

    def victim_index(self, set_index: int, order: list[int]) -> int:
        return 0


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim, deterministic under the machine seed."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._seed = seed

    def on_hit(self, set_index: int, order: list[int], way: int) -> None:
        pass

    def on_insert(self, set_index: int, order: list[int], block: int) -> None:
        order.append(block)

    def victim_index(self, set_index: int, order: list[int]) -> int:
        return self._rng.randrange(len(order))

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class TreePlruPolicy(ReplacementPolicy):
    """Tree pseudo-LRU over a power-of-two associativity.

    Keeps one bit per internal node of a binary tree per set; a hit flips
    the path bits away from the touched way, the victim follows the bits.
    Way positions are the *stable* slot order (``order`` list position), so
    unlike :class:`LruPolicy` the list is never reordered.
    """

    def __init__(self, associativity: int) -> None:
        if associativity & (associativity - 1):
            raise ConfigError("tree-PLRU requires a power-of-two associativity")
        self._assoc = associativity
        self._bits: dict[int, int] = {}

    def _walk_update(self, set_index: int, way: int) -> None:
        bits = self._bits.get(set_index, 0)
        node = 1
        lo, hi = 0, self._assoc
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                bits |= 1 << node  # point away: next victim on the right
                node = node * 2
                hi = mid
            else:
                bits &= ~(1 << node)
                node = node * 2 + 1
                lo = mid
        self._bits[set_index] = bits

    def on_hit(self, set_index: int, order: list[int], way: int) -> None:
        self._walk_update(set_index, way)

    def on_insert(self, set_index: int, order: list[int], block: int) -> None:
        order.append(block)
        self._walk_update(set_index, len(order) - 1)

    def victim_index(self, set_index: int, order: list[int]) -> int:
        bits = self._bits.get(set_index, 0)
        node = 1
        lo, hi = 0, self._assoc
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bits & (1 << node):
                node = node * 2 + 1
                lo = mid
            else:
                node = node * 2
                hi = mid
        return min(lo, len(order) - 1)

    def on_remove(self, set_index: int, order: list[int], way: int) -> None:
        order.pop(way)

    def reset(self) -> None:
        self._bits.clear()


def make_policy(name: str, associativity: int, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a policy by configuration name."""
    if name == "lru":
        return LruPolicy()
    if name == "fifo":
        return FifoPolicy()
    if name == "random":
        return RandomPolicy(seed)
    if name == "plru":
        return TreePlruPolicy(associativity)
    raise ConfigError(f"unknown replacement policy {name!r}")
