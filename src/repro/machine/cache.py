"""Block-granular set-associative cache with MESI line states.

Addresses are *block ids* (byte address >> log2(line size)); the set index
is the low bits of the block id.  The cache tracks, per resident line, one
of the MESI states (Illinois protocol, as on the Origin 2000):

* ``MODIFIED`` — dirty, this cache is the only holder;
* ``EXCLUSIVE`` — clean, this cache is the only holder;
* ``SHARED`` — clean, possibly multiple holders;
* absent — invalid.

The cache knows nothing about the protocol; it only stores state and applies
its replacement policy.  The directory controller in
:mod:`repro.machine.coherence` drives the state transitions.

LRU — the Origin 2000's policy and the default — is applied in line on the
set lists (index 0 is the next victim, the back is most recently used), and
the coherence controller's per-reference path probes ``state`` and ``sets``
directly instead of calling :meth:`~SetAssociativeCache.touch`.  The other
policies keep the :class:`~repro.machine.replacement.ReplacementPolicy`
hooks, chosen once at construction from ``cfg.replacement``.

Performance: under LRU an L1 hit makes no call into this class at all.  A
traced benchmark run, ``python3 perfbench/run.py --workload analyze-t3dheat
--seed 1 --seconds 12 --trace 1``, on a 2-CPU host (``cpu_count`` 2, Python
3.11) measured 1525 ns per reference on uniprocessor runs and 420 ns on
multiprocessor runs (``machine.uni_ns_per_ref`` / ``machine.mp_ns_per_ref``:
whole runs, trace build, barriers and self-check included).
"""

from __future__ import annotations

from ..errors import SimulationError
from .config import CacheConfig
from .replacement import make_policy

__all__ = [
    "SHARED",
    "EXCLUSIVE",
    "MODIFIED",
    "SetAssociativeCache",
]

# Line states.  INVALID is represented by absence from the state map.
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

_STATE_NAMES = {SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}


class SetAssociativeCache:
    """One physical cache (an L1 or an L2 slice of one node).

    ``state`` maps each resident block to its MESI state and ``sets`` holds
    each set's blocks in policy order; ``policy`` is ``None`` for LRU, which
    is applied in line.  The coherence controller's per-reference path uses
    ``state``, ``sets`` and ``set_mask`` directly for two updates: the LRU
    move to the back of the set on an L1 hit, and the silent E→M change on
    a store.  Every other change goes through the methods below.
    """

    __slots__ = ("cfg", "state", "sets", "set_mask", "policy", "_assoc", "_inserts", "_evictions")

    def __init__(self, cfg: CacheConfig, seed: int = 0) -> None:
        self.cfg = cfg
        self.state: dict[int, int] = {}
        self.sets: list[list[int]] = [[] for _ in range(cfg.n_sets)]
        self.set_mask = cfg.n_sets - 1
        self.policy = (
            None if cfg.replacement == "lru" else make_policy(cfg.replacement, cfg.associativity, seed)
        )
        self._assoc = cfg.associativity
        self._inserts = 0
        self._evictions = 0

    # -- queries -----------------------------------------------------------

    def set_index(self, block: int) -> int:
        """Set an address maps to."""
        return block & self.set_mask

    def state_of(self, block: int) -> int:
        """MESI state of ``block`` (0 if not resident)."""
        return self.state.get(block, 0)

    def contains(self, block: int) -> bool:
        return block in self.state

    def __len__(self) -> int:
        return len(self.state)

    @property
    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        return len(self.state) / self.cfg.n_lines

    @property
    def n_inserts(self) -> int:
        return self._inserts

    @property
    def n_evictions(self) -> int:
        return self._evictions

    def resident_blocks(self) -> list[int]:
        """All valid block ids (unordered)."""
        return list(self.state)

    def set_contents(self, set_index: int) -> list[int]:
        """Blocks in one set, in policy order (head = next LRU victim for LRU)."""
        return list(self.sets[set_index])

    # -- mutations ---------------------------------------------------------

    def touch(self, block: int) -> bool:
        """Apply the replacement policy's hit update; returns False on miss."""
        if block not in self.state:
            return False
        idx = block & self.set_mask
        order = self.sets[idx]
        if self.policy is None:
            if order[-1] != block:
                order.remove(block)
                order.append(block)
        else:
            self.policy.on_hit(idx, order, order.index(block))
        return True

    def insert(self, block: int, state: int) -> tuple[int, int] | None:
        """Install ``block`` with ``state``, evicting if the set is full.

        Returns the eviction as ``(block, state at eviction time)`` or
        ``None`` if the set had room.  Inserting an already-resident block
        is a simulator bug and raises :class:`SimulationError`.
        """
        states = self.state
        if block in states:
            raise SimulationError(
                f"{self.cfg.name}: insert of resident block {block} "
                f"(state {_STATE_NAMES.get(states[block], '?')})"
            )
        idx = block & self.set_mask
        order = self.sets[idx]
        policy = self.policy
        evicted = None
        if len(order) >= self._assoc:
            if policy is None:
                victim = order.pop(0)
            else:
                victim_way = policy.victim_index(idx, order)
                victim = order[victim_way]
                policy.on_remove(idx, order, victim_way)
            evicted = (victim, states.pop(victim))
            self._evictions += 1
        if policy is None:
            order.append(block)
        else:
            policy.on_insert(idx, order, block)
        states[block] = state
        self._inserts += 1
        return evicted

    def set_state(self, block: int, state: int) -> None:
        """Change the MESI state of a resident line."""
        if block not in self.state:
            raise SimulationError(f"{self.cfg.name}: set_state on absent block {block}")
        if state not in _STATE_NAMES:
            raise SimulationError(f"{self.cfg.name}: invalid state {state}")
        self.state[block] = state

    def invalidate(self, block: int) -> int:
        """Remove ``block``; returns its prior state (0 if it was absent)."""
        state = self.state.pop(block, 0)
        if state:
            idx = block & self.set_mask
            order = self.sets[idx]
            if self.policy is None:
                order.remove(block)
            else:
                self.policy.on_remove(idx, order, order.index(block))
        return state

    def downgrade(self, block: int) -> bool:
        """Force a resident line to SHARED; returns True if it was dirty."""
        prior = self.state.get(block, 0)
        if not prior:
            raise SimulationError(f"{self.cfg.name}: downgrade on absent block {block}")
        self.state[block] = SHARED
        return prior == MODIFIED

    def flush(self) -> None:
        """Drop every line (used between independent runs on one machine)."""
        self.state.clear()
        for s in self.sets:
            s.clear()
        if self.policy is not None:
            self.policy.reset()

    # -- invariants (exercised by property tests) --------------------------

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if internal structures disagree."""
        total = 0
        for idx, order in enumerate(self.sets):
            if len(order) > self.cfg.associativity:
                raise SimulationError(f"{self.cfg.name}: set {idx} over-full ({len(order)})")
            if len(set(order)) != len(order):
                raise SimulationError(f"{self.cfg.name}: duplicate block in set {idx}")
            for block in order:
                if self.set_index(block) != idx:
                    raise SimulationError(f"{self.cfg.name}: block {block} in wrong set {idx}")
                if block not in self.state:
                    raise SimulationError(f"{self.cfg.name}: block {block} in set list but stateless")
            total += len(order)
        if total != len(self.state):
            raise SimulationError(
                f"{self.cfg.name}: state map ({len(self.state)}) and sets ({total}) disagree"
            )
