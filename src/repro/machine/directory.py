"""Bit-vector directory state, as in the Origin 2000's directory scheme.

One entry per cached block records who may hold the line:

* *uncached*  — ``mask == 0``;
* *shared*    — ``mask != 0`` and ``owner == -1``: every set bit is a node
  holding the line in SHARED;
* *exclusive* — ``owner >= 0``: exactly that node holds the line in
  EXCLUSIVE or MODIFIED.

A coarse-vector variant (:class:`CoarseVectorDirectory`) groups nodes per
presence bit, as large Origins did; it over-approximates the sharer set, so
the coherence controller must filter invalidations against actual cache
contents.  The fine bit-vector directory is exact.
"""

from __future__ import annotations

from ..errors import ConfigError, SimulationError

__all__ = ["BitVectorDirectory", "CoarseVectorDirectory", "make_directory"]


class BitVectorDirectory:
    """Exact full-map bit-vector directory."""

    exact = True

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        self.n_nodes = n_nodes
        # block -> (owner, mask); owner == -1 means shared/uncached.
        self._entries: dict[int, tuple[int, int]] = {}

    # -- queries -------------------------------------------------------------

    def lookup(self, block: int) -> tuple[int, int]:
        """Return ``(owner, presence_mask)``; ``(-1, 0)`` when uncached."""
        return self._entries.get(block, (-1, 0))

    def owner_of(self, block: int) -> int:
        return self._entries.get(block, (-1, 0))[0]

    def presence_mask(self, block: int) -> int:
        return self._entries.get(block, (-1, 0))[1]

    def sharers(self, block: int, exclude: int = -1) -> list[int]:
        """Nodes that may hold the line, optionally excluding one node."""
        mask = self._entries.get(block, (-1, 0))[1]
        if exclude >= 0:
            mask &= ~(1 << exclude)
        out = []
        while mask:  # one step per set bit, lowest node first
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def is_cached(self, block: int) -> bool:
        return self.presence_mask(block) != 0

    def n_entries(self) -> int:
        return sum(1 for _, mask in self._entries.values() if mask)

    def tracked_blocks(self) -> list[int]:
        return [b for b, (_, mask) in self._entries.items() if mask]

    # -- transitions -----------------------------------------------------------

    def _bit(self, node: int) -> int:
        if not (0 <= node < self.n_nodes):
            raise SimulationError(f"node {node} out of range (n={self.n_nodes})")
        return 1 << node

    def set_exclusive(self, block: int, node: int) -> None:
        """Record ``node`` as the sole (E/M) holder."""
        self._entries[block] = (node, self._bit(node))

    def add_sharer(self, block: int, node: int) -> None:
        """Add ``node`` in SHARED; the entry must not have an owner."""
        owner, mask = self.lookup(block)
        if owner >= 0:
            raise SimulationError(f"add_sharer on exclusively-owned block {block} (owner {owner})")
        self._entries[block] = (-1, mask | self._bit(node))

    def demote_owner(self, block: int) -> int:
        """Owner drops to a plain sharer (read intervention). Returns old owner."""
        owner, mask = self.lookup(block)
        if owner < 0:
            raise SimulationError(f"demote_owner on unowned block {block}")
        self._entries[block] = (-1, mask)
        return owner

    def remove_node(self, block: int, node: int) -> None:
        """Drop ``node`` from the entry (eviction or invalidation ack)."""
        owner, mask = self.lookup(block)
        bit = self._bit(node)
        if not (mask & bit):
            raise SimulationError(f"remove_node: node {node} not present on block {block}")
        mask &= ~bit
        if owner == node:
            owner = -1
        if mask == 0:
            self._entries.pop(block, None)
        else:
            self._entries[block] = (owner, mask)

    def clear_others(self, block: int, keeper: int) -> list[int]:
        """Invalidate every node but ``keeper``; returns the nodes dropped."""
        dropped = self.sharers(block, exclude=keeper)
        mask = self.presence_mask(block) & self._bit(keeper)
        if mask:
            self._entries[block] = (-1, mask)
        else:
            self._entries.pop(block, None)
        return dropped

    def flush(self) -> None:
        self._entries.clear()

    # -- invariants --------------------------------------------------------------

    def check_invariants(self) -> None:
        for block, (owner, mask) in self._entries.items():
            if mask == 0:
                raise SimulationError(f"directory: empty entry retained for block {block}")
            if mask >> self.n_nodes:
                raise SimulationError(f"directory: mask {mask:#x} exceeds node count on block {block}")
            if owner >= 0 and mask != (1 << owner):
                raise SimulationError(
                    f"directory: owned block {block} has extra sharers (owner {owner}, mask {mask:#x})"
                )


class CoarseVectorDirectory(BitVectorDirectory):
    """Coarse-vector directory: one presence bit covers ``group`` nodes.

    The reported sharer list is a superset of the true holders, so the
    controller filters by cache contents before invalidating.  ``owner`` is
    still tracked exactly (as on real machines, which keep an exact pointer
    while the line is exclusive).
    """

    exact = False

    def __init__(self, n_nodes: int, group: int = 4) -> None:
        super().__init__(n_nodes)
        if group < 1:
            raise ConfigError("group must be >= 1")
        self.group = group

    def _bit(self, node: int) -> int:
        if not (0 <= node < self.n_nodes):
            raise SimulationError(f"node {node} out of range (n={self.n_nodes})")
        return 1 << (node // self.group)

    def sharers(self, block: int, exclude: int = -1) -> list[int]:
        mask = self.presence_mask(block)
        out = []
        for node in range(self.n_nodes):
            if node == exclude:
                continue
            if mask & (1 << (node // self.group)):
                out.append(node)
        return out

    def remove_node(self, block: int, node: int) -> None:
        # A group bit can only be cleared when *no* node of the group holds
        # the line; the controller cannot know that, so coarse entries decay
        # only via clear_others / flush.  This mirrors real coarse-vector
        # behaviour (spurious invalidations, never missed ones).
        owner, mask = self.lookup(block)
        if owner == node:
            self._entries[block] = (-1, mask)

    def clear_others(self, block: int, keeper: int) -> list[int]:
        dropped = self.sharers(block, exclude=keeper)
        self._entries[block] = (-1, self._bit(keeper))
        return dropped

    def check_invariants(self) -> None:
        for block, (owner, mask) in self._entries.items():
            if mask == 0:
                raise SimulationError(f"directory: empty entry retained for block {block}")
            if owner >= 0 and not (mask & (1 << (owner // self.group))):
                raise SimulationError(f"directory: owner {owner} outside mask on block {block}")


def make_directory(n_nodes: int, kind: str = "bitvector", group: int = 4) -> BitVectorDirectory:
    """Factory used by the coherence controller."""
    if kind == "bitvector":
        return BitVectorDirectory(n_nodes)
    if kind == "coarse":
        return CoarseVectorDirectory(n_nodes, group)
    raise ConfigError(f"unknown directory kind {kind!r}")
