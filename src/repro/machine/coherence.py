"""Directory MESI coherence controller and per-access timing.

This is the protocol engine: every data reference of every processor flows
through :meth:`CoherenceController.run_refs` (:meth:`~CoherenceController.access`
for a single reference), which

1. probes the node's L1 (presence) and L2 (MESI state),
2. on an L2 miss, consults the home node's directory, performs remote
   interventions/invalidations, classifies the miss (cold / coherence /
   replacement) against the node's ground-truth sets, and fills both levels,
3. on a store to a SHARED line, performs the upgrade (invalidate other
   sharers) and bumps the R10000 event-31 counter
   ("store/prefetch exclusive to shared block") — the counter the paper
   repurposes as ``ntsyn``,
4. returns the stall cycles beyond the workload's cpi0 and records them in
   the hardware counters and the ground-truth ledger.

The latency model matches what Scal-Tool assumes observable: an L1 miss
that hits L2 costs ``t_l2_hit`` (the paper's t2); an L2 miss costs
``t_mem + 2 * hops(cpu, home) * t_hop`` plus a dirty-remote intervention
penalty — so the *average* miss latency, the paper's tm(n), emerges from
the home-placement and sharing behaviour of the workload and grows with
machine size through the hop term.  Write-backs and upgrades cost extra
cycles that Equation 1 does not model, providing the realistic residual
error the paper's validation quantifies.
"""

from __future__ import annotations

from ..errors import SimulationError
from .cache import EXCLUSIVE, MODIFIED, SHARED
from .config import MachineConfig
from .counters import CounterSet, GroundTruth
from .directory import BitVectorDirectory, make_directory
from .hierarchy import COHERENCE, COLD, CacheHierarchy
from .interconnect import Interconnect
from .memory import NumaMemory

__all__ = ["CoherenceController", "ProtocolTally"]


class ProtocolTally:
    """Observability tally of coherence protocol transitions.

    Bumped inline by the controller on protocol actions (upgrades,
    invalidations, interventions, downgrades) — all of which sit on the
    L2-miss / upgrade cold paths, not the per-reference hot path — and
    folded into the metrics registry by the machine at run boundaries.
    """

    __slots__ = ("upgrades", "invalidations", "interventions", "downgrades")

    def __init__(self) -> None:
        self.upgrades = 0
        self.invalidations = 0
        self.interventions = 0
        self.downgrades = 0

    def as_dict(self) -> dict:
        return {
            "upgrades": self.upgrades,
            "invalidations": self.invalidations,
            "interventions": self.interventions,
            "downgrades": self.downgrades,
        }


class CoherenceController:
    """Owns the directory and drives all inter-node protocol activity."""

    def __init__(
        self,
        cfg: MachineConfig,
        hierarchies: list[CacheHierarchy],
        memory: NumaMemory,
        interconnect: Interconnect,
        counters: list[CounterSet],
        ground_truth: list[GroundTruth],
        directory_kind: str = "bitvector",
    ) -> None:
        self.cfg = cfg
        self.hierarchies = hierarchies
        self.memory = memory
        self.interconnect = interconnect
        self.counters = counters
        self.gt = ground_truth
        self.directory: BitVectorDirectory = make_directory(cfg.n_processors, directory_kind)
        t = cfg.timing
        self._t_l2_hit = t.t_l2_hit
        self._t_mem = t.t_mem
        self._t_hop = t.t_hop
        self._t_dirty_remote = t.t_dirty_remote
        self._t_upgrade = t.t_upgrade
        self._t_writeback = t.t_writeback
        self._prefetch_factor = t.t_prefetch_factor
        # Per-cpu stream-prefetcher state: the last few L2-miss block ids.
        # A miss whose predecessor block missed recently is covered by the
        # software/stream prefetcher and pays only a fraction of tm.
        self._miss_tails: list[dict[int, None]] = [dict() for _ in range(cfg.n_processors)]
        # MSI has no Exclusive state: read misses always install SHARED,
        # so every first store to a line costs an upgrade transaction —
        # the very traffic the Illinois (MESI) protocol exists to avoid.
        self._msi = cfg.protocol == "msi"
        # Optional per-cpu data TLB: page-granular, fully associative LRU.
        self._tlb_entries = cfg.tlb_entries
        self._t_tlb_miss = t.t_tlb_miss
        self._page_shift = memory.blocks_per_page.bit_length() - 1
        self._tlbs: list[dict[int, None]] = [dict() for _ in range(cfg.n_processors)]
        # Optional per-node victim buffer: the ids of recently evicted L2
        # lines.  A miss on one of them with no remote protocol action
        # refills cheaply (the data is still on its way to / fresh at the
        # home memory).  Coherence-wise the line was truly evicted —
        # directory state and writebacks are unchanged — so this is purely
        # a latency model of an exclusive victim cache.
        self._victim_entries = cfg.victim_entries
        self._t_victim = 2.0 * t.t_l2_hit
        self._victims: list[dict[int, None]] = [dict() for _ in range(cfg.n_processors)]
        self.tally = ProtocolTally()
        # What run_refs binds per call, in one tuple per cpu.
        self._per_cpu = [
            (hier, counters[cpu], ground_truth[cpu], hier.l1, hier.l2, self._tlbs[cpu])
            for cpu, hier in enumerate(hierarchies)
        ]

    # -- the per-reference hot path -------------------------------------------

    def access(self, cpu: int, block: int, is_write: bool) -> float:
        """Simulate one data reference; returns stall cycles beyond cpi0."""
        return self.run_refs(cpu, (block,), (is_write,), 0, 1)

    def run_refs(self, cpu: int, addrs, writes, start: int, end: int) -> float:
        """Simulate references ``start .. end-1`` of one cpu's trace in order.

        Returns their stall cycles beyond cpi0, summed in reference order.
        This is the only path a data reference takes.  The cpu's caches are
        bound once per call and probed in line: L1 presence and L2 state
        are read from the caches' ``state`` dicts, and an L1 hit under LRU
        moves the block to the back of its set list without a call.  L2
        hits and fills go through the cache methods, L2 misses through
        :meth:`_l2_miss`.
        """
        hier, counters, gt, l1, l2, tlb = self._per_cpu[cpu]
        l1_state = l1.state
        l1_sets = l1.sets
        l1_mask = l1.set_mask
        l1_lru = l1.policy is None
        l1_insert = l1.insert
        l2_state = l2.state
        l2_touch = l2.touch
        upgrade = self._upgrade
        l2_miss = self._l2_miss
        t_l2_hit = self._t_l2_hit
        tlb_entries = self._tlb_entries
        t_tlb_miss = self._t_tlb_miss
        page_shift = self._page_shift

        total = 0.0
        repeat = -1  # block of the previous reference, if it was an LRU L1 hit
        for block, is_write in zip(addrs[start:end], writes[start:end]):
            if is_write:
                counters.graduated_stores += 1
            else:
                counters.graduated_loads += 1

            stall = 0.0
            if tlb_entries:
                page = block >> page_shift
                if page in tlb:
                    del tlb[page]  # LRU bump: re-insert at the back
                else:
                    counters.tlb_misses += 1
                    gt.tlb_stall_cycles += t_tlb_miss
                    stall = t_tlb_miss
                    if len(tlb) >= tlb_entries:
                        del tlb[next(iter(tlb))]
                tlb[page] = None

            if block == repeat or block in l1_state:
                # L1 hit.  A repeat of the previous reference's LRU hit needs
                # no update: nothing ran in between, so it is still the MRU.
                if block != repeat:
                    if l1_lru:
                        order = l1_sets[block & l1_mask]
                        if order[-1] != block:
                            order.remove(block)
                            order.append(block)
                        repeat = block
                    else:
                        l1.touch(block)
                if is_write:
                    state = l2_state.get(block, 0)
                    if state == EXCLUSIVE:
                        l2_state[block] = MODIFIED
                    elif state == SHARED:
                        stall += upgrade(cpu, block, hier, counters, gt)
                    elif state != MODIFIED:
                        raise SimulationError(
                            f"cpu {cpu}: L1 hit on block {block} absent from L2 (inclusion)"
                        )
                total += stall
                continue

            repeat = -1
            counters.l1_data_misses += 1
            state = l2_state.get(block, 0)
            if state:
                # L1 miss, L2 hit: the paper's h2 event, costing t2.
                l2_touch(block)
                l1_insert(block, SHARED)
                hit = t_l2_hit
                gt.l2_hit_stall_cycles += hit
                if is_write:
                    if state == SHARED:
                        hit += upgrade(cpu, block, hier, counters, gt)
                    elif state == EXCLUSIVE:
                        l2_state[block] = MODIFIED
                total += stall + hit
                continue

            # L2 miss: the paper's hm event, costing tm.
            counters.l2_misses += 1
            total += stall + l2_miss(cpu, block, is_write, hier, gt)
        return total

    # -- protocol pieces ----------------------------------------------------------

    def _upgrade(
        self,
        cpu: int,
        block: int,
        hier: CacheHierarchy,
        counters: CounterSet,
        gt: GroundTruth,
    ) -> float:
        """Store to a SHARED line: invalidate other holders, go MODIFIED."""
        tally = self.tally
        tally.upgrades += 1
        directory = self.directory
        for node in directory.clear_others(block, keeper=cpu):
            self.hierarchies[node].coherence_invalidate(block)
            tally.invalidations += 1
        directory.set_exclusive(block, cpu)
        hier.l2.set_state(block, MODIFIED)
        counters.store_exclusive_to_shared += 1
        gt.upgrades_data += 1
        gt.upgrade_cycles += self._t_upgrade
        return self._t_upgrade

    def _l2_miss(
        self,
        cpu: int,
        block: int,
        is_write: bool,
        hier: CacheHierarchy,
        gt: GroundTruth,
    ) -> float:
        miss_class = hier.classify_miss(block)
        if miss_class == COLD:
            gt.cold_misses += 1
        elif miss_class == COHERENCE:
            gt.coherence_misses += 1
        else:
            gt.replacement_misses += 1

        home = self.memory.home_of(block, cpu)
        interconnect = self.interconnect
        hops = interconnect.table[cpu][home]
        latency = self._t_mem + 2.0 * hops * self._t_hop
        if hops:
            interconnect.traversals += 1
            interconnect.hop_total += hops

        tails = self._miss_tails[cpu]
        prefetched = (block - 1) in tails or (block - 2) in tails
        tails[block] = None
        if len(tails) > 16:
            del tails[next(iter(tails))]

        directory = self.directory
        owner, mask = directory.lookup(block)
        tally = self.tally
        intervened_dirty = False
        remote_action = False
        if owner >= 0 and owner != cpu:
            remote_action = True
            tally.interventions += 1
            owner_hier = self.hierarchies[owner]
            owner_state = owner_hier.l2_state(block)
            if owner_state == 0:
                raise SimulationError(
                    f"directory names node {owner} owner of block {block} but it holds nothing"
                )
            if is_write:
                owner_hier.coherence_invalidate(block)
                directory.clear_others(block, keeper=cpu)
                tally.invalidations += 1
            else:
                was_dirty = owner_hier.coherence_downgrade(block)
                directory.demote_owner(block)
                intervened_dirty = was_dirty or owner_state == MODIFIED
                tally.downgrades += 1
            if owner_state == MODIFIED:
                # Cache-to-cache intervention: home forwards to the dirty
                # owner, which supplies the line.
                forward_hops = interconnect.table[home][owner]
                latency += self._t_dirty_remote + 2.0 * forward_hops * self._t_hop
                intervened_dirty = True
                if forward_hops:
                    interconnect.traversals += 1
                    interconnect.hop_total += forward_hops
        elif is_write and mask:
            sharers = directory.clear_others(block, keeper=cpu)
            if sharers:
                remote_action = True
            for node in sharers:
                self.hierarchies[node].coherence_invalidate(block)
                tally.invalidations += 1

        # Directory update + fill state (Illinois: exclusive-clean on a read
        # miss with no other holders).  An entry that was uncached at lookup
        # (mask 0) cannot have gained sharers since, so it skips the scan.
        if is_write:
            directory.set_exclusive(block, cpu)
            fill_state = MODIFIED
        elif self._msi or (mask and directory.sharers(block, exclude=cpu)):
            # Someone else may hold the line (for a coarse vector this is
            # conservative: stale group bits force SHARED, never a wrong E);
            # under MSI there is no Exclusive state at all.
            directory.add_sharer(block, cpu)
            fill_state = SHARED
        else:
            directory.set_exclusive(block, cpu)
            fill_state = EXCLUSIVE

        # Stream prefetching hides memory-sourced latency but cannot hide a
        # dirty-remote intervention: the data is not in memory until the
        # owner responds, so the consumer stalls for the full three-hop
        # transaction regardless of prefetch distance.
        if prefetched and not intervened_dirty:
            latency *= self._prefetch_factor
        if self._victim_entries:
            victims = self._victims[cpu]
            if block in victims:
                del victims[block]
                if not remote_action and latency > self._t_victim:
                    latency = self._t_victim
                    gt.victim_hits += 1
        gt.memory_stall_cycles += latency
        evicted = hier.l2_fill(block, fill_state)
        if evicted is not None:
            evicted_block, evicted_state = evicted
            directory.remove_node(evicted_block, cpu)
            if evicted_state == MODIFIED:
                gt.writebacks += 1
                gt.writeback_cycles += self._t_writeback
                latency += self._t_writeback
            if self._victim_entries:
                victims = self._victims[cpu]
                victims[evicted_block] = None
                if len(victims) > self._victim_entries:
                    del victims[next(iter(victims))]
        hier.l1.insert(block, SHARED)  # not in L1: L1 is inside L2, which just missed

        if hops == 0 and not intervened_dirty:
            gt.local_misses += 1
        else:
            gt.remote_misses += 1
            if intervened_dirty:
                gt.dirty_remote_misses += 1
        return latency

    # -- global invariants (property tests) -----------------------------------------

    def check_invariants(self) -> None:
        """Directory and caches must agree; at most one M/E holder per block."""
        self.directory.check_invariants()
        holders: dict[int, list[tuple[int, int]]] = {}
        for hier in self.hierarchies:
            hier.check_invariants()
            for block in hier.l2.resident_blocks():
                holders.setdefault(block, []).append((hier.node, hier.l2.state_of(block)))
        for block, entries in holders.items():
            exclusive = [(n, s) for n, s in entries if s in (EXCLUSIVE, MODIFIED)]
            if len(exclusive) > 1:
                raise SimulationError(f"block {block}: multiple exclusive holders {exclusive}")
            if exclusive and len(entries) > 1:
                raise SimulationError(f"block {block}: exclusive holder coexists with sharers {entries}")
            owner, mask = self.directory.lookup(block)
            if self.directory.exact:
                for node, _state in entries:
                    if not (mask & (1 << node)):
                        raise SimulationError(f"block {block}: holder {node} missing from directory mask")
            if exclusive and owner != exclusive[0][0]:
                raise SimulationError(
                    f"block {block}: directory owner {owner} != cache owner {exclusive[0][0]}"
                )
