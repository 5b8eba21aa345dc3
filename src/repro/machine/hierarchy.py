"""Per-node two-level cache hierarchy with inclusion and miss bookkeeping.

Each node owns an L1 data cache and an L2 slice.  The hierarchy enforces
inclusion (an L2 eviction or invalidation also drops the L1 copy), keeps L1
presence-only (stores write through their *state* to the L2 line, so MESI
lives in the L2 — the coherence unit, as on the Origin 2000), and records
the two per-block sets the ground-truth miss classifier needs:

* ``seen``        — blocks ever resident in this L2 (a miss on an unseen
  block is *cold/compulsory*);
* ``invalidated`` — blocks whose line was removed by a coherence
  invalidation since it was last resident (a miss on such a block is a
  *coherence miss*; everything else is a *replacement* —
  capacity/conflict — miss, which the paper lumps as "conflict misses").
"""

from __future__ import annotations

from .cache import SetAssociativeCache
from .config import CacheConfig

__all__ = ["COLD", "COHERENCE", "REPLACEMENT", "CacheHierarchy"]

COLD = "cold"
COHERENCE = "coherence"
REPLACEMENT = "replacement"


class CacheHierarchy:
    """L1 + L2 of one node."""

    __slots__ = ("node", "l1", "l2", "seen", "invalidated")

    def __init__(self, node: int, l1_cfg: CacheConfig, l2_cfg: CacheConfig, seed: int = 0) -> None:
        self.node = node
        self.l1 = SetAssociativeCache(l1_cfg, seed=seed * 1021 + node)
        self.l2 = SetAssociativeCache(l2_cfg, seed=seed * 2039 + node)
        self.seen: set[int] = set()
        self.invalidated: set[int] = set()

    # -- local lookups ---------------------------------------------------------

    def l2_state(self, block: int) -> int:
        return self.l2.state_of(block)

    # -- fills -------------------------------------------------------------------

    def l2_fill(self, block: int, state: int) -> tuple[int, int] | None:
        """Install in L2; on eviction the L1 copy is dropped too (inclusion).

        Returns the L2 eviction ``(block, state)`` so the controller can
        write back dirty data and update the directory.  L1 fills need no
        wrapper: L1 victims need no writeback (inclusion keeps the data in
        L2), so the controller inserts into ``l1`` directly.
        """
        evicted = self.l2.insert(block, state)
        self.seen.add(block)
        self.invalidated.discard(block)
        if evicted is not None:
            self.l1.invalidate(evicted[0])
        return evicted

    # -- coherence actions (driven by the directory controller) -------------------

    def coherence_invalidate(self, block: int) -> int:
        """Remove the line on a remote write; returns its prior L2 state."""
        self.l1.invalidate(block)
        prior = self.l2.invalidate(block)
        if prior:
            self.invalidated.add(block)
        return prior

    def coherence_downgrade(self, block: int) -> bool:
        """Drop to SHARED on a remote read; returns True if it was dirty."""
        return self.l2.downgrade(block)

    # -- classification -------------------------------------------------------------

    def classify_miss(self, block: int) -> str:
        """Ground-truth class of an L2 miss happening *now* on ``block``."""
        if block not in self.seen:
            return COLD
        if block in self.invalidated:
            return COHERENCE
        return REPLACEMENT

    def flush(self) -> None:
        """Reset caches and bookkeeping (between independent runs)."""
        self.l1.flush()
        self.l2.flush()
        self.seen.clear()
        self.invalidated.clear()

    def check_invariants(self) -> None:
        """L1 ⊆ L2 plus per-cache structural invariants."""
        self.l1.check_invariants()
        self.l2.check_invariants()
        for block in self.l1.resident_blocks():
            if not self.l2.contains(block):
                from ..errors import SimulationError

                raise SimulationError(f"node {self.node}: L1 block {block} violates inclusion")
