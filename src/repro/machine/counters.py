"""Hardware event counters and the simulator's ground-truth ledger.

:class:`CounterSet` is everything Scal-Tool is allowed to see: the subset of
the MIPS R10000 event-counter catalog the paper uses (cycles, graduated
instructions/loads/stores, primary/secondary data-cache misses, and event 31
"store/prefetch exclusive to shared block", which the paper repurposes to
count synchronization operations, ``ntsyn``).

:class:`GroundTruth` is everything the real hardware could *not* report:
cycle attribution to sync/spin/compute, miss classification (cold vs
coherence vs replacement), local/remote split.  It exists purely so the
validation experiments (Figures 7, 10, 13) have an independent measurement
to compare against, in the role speedshop plays in the paper.

Derived quantities used throughout the model (Section 2 of the paper) are
exposed as properties on :class:`CounterSet`:

* ``cpi`` — cycles per graduated instruction,
* ``m_frac`` — (loads+stores)/instructions,
* ``l1_hit_rate`` — L1 hits per memory reference,
* ``l2_local_hit_rate`` — L2 hits per L1 miss (the paper's *local* hit
  rate ``L2hitr``),
* ``h2``/``hm`` — per-instruction frequencies of L1-miss-L2-hit and
  L2-miss events (Equation 6/7).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import CounterFormatError
from ..units import safe_div

__all__ = ["CounterSet", "GroundTruth", "EVENT_CATALOG", "R10K_EVENTS"]


# R10000-style event catalog: event number -> (description, CounterSet field).
# Numbers follow the R10000 performance-counter event list cited by the
# paper ([18, 25]); only the events the model consumes are implemented.
R10K_EVENTS: dict[int, tuple[str, str]] = {
    0: ("Cycles", "cycles"),
    9: ("Primary instruction cache misses", "l1_instruction_misses"),
    15: ("Graduated instructions", "graduated_instructions"),
    18: ("Graduated loads", "graduated_loads"),
    19: ("Graduated stores", "graduated_stores"),
    23: ("TLB misses", "tlb_misses"),
    25: ("Primary data cache misses", "l1_data_misses"),
    26: ("Secondary data cache misses", "l2_misses"),
    31: ("Store/prefetch exclusive to shared block in scache", "store_exclusive_to_shared"),
}

EVENT_CATALOG = R10K_EVENTS  # public alias


@dataclass
class CounterSet:
    """Hardware-visible event counts for one run (or one processor)."""

    cycles: float = 0.0
    graduated_instructions: float = 0.0
    graduated_loads: float = 0.0
    graduated_stores: float = 0.0
    l1_data_misses: float = 0.0
    l2_misses: float = 0.0
    l1_instruction_misses: float = 0.0
    store_exclusive_to_shared: float = 0.0
    tlb_misses: float = 0.0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "CounterSet") -> "CounterSet":
        return CounterSet(**{n: getattr(self, n) + getattr(other, n) for n in _COUNTER_FIELDS})

    def __iadd__(self, other: "CounterSet") -> "CounterSet":
        for n in _COUNTER_FIELDS:
            setattr(self, n, getattr(self, n) + getattr(other, n))
        return self

    def scaled(self, factor: float) -> "CounterSet":
        """All counters multiplied by ``factor`` (used by multiplex emulation)."""
        return CounterSet(**{n: getattr(self, n) * factor for n in _COUNTER_FIELDS})

    @classmethod
    def total(cls, parts: list["CounterSet"]) -> "CounterSet":
        """Sum across processors — the paper's figures accumulate all CPUs."""
        out = cls()
        for p in parts:
            out += p
        return out

    # -- derived quantities (paper Section 2) --------------------------------

    @property
    def mem_refs(self) -> float:
        """Graduated loads + stores."""
        return self.graduated_loads + self.graduated_stores

    @property
    def cpi(self) -> float:
        """Cycles per graduated instruction (Equation 1's left side)."""
        return safe_div(self.cycles, self.graduated_instructions)

    @property
    def m_frac(self) -> float:
        """Fraction of instructions that are memory references, m(s, n)."""
        return safe_div(self.mem_refs, self.graduated_instructions)

    @property
    def l1_hit_rate(self) -> float:
        """L1 data-cache hits per memory reference, L1hitr(s, n)."""
        return 1.0 - safe_div(self.l1_data_misses, self.mem_refs)

    @property
    def l2_local_hit_rate(self) -> float:
        """L2 hits per L1 miss — the paper's local hit rate L2hitr(s, n)."""
        return 1.0 - safe_div(self.l2_misses, self.l1_data_misses)

    @property
    def h2(self) -> float:
        """Frequency of instructions that miss L1 and hit L2 (Eq. 6)."""
        return safe_div(self.l1_data_misses - self.l2_misses, self.graduated_instructions)

    @property
    def hm(self) -> float:
        """Frequency of instructions that miss L2 (Eq. 7)."""
        return safe_div(self.l2_misses, self.graduated_instructions)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, float]:
        return {n: getattr(self, n) for n in _COUNTER_FIELDS}

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "CounterSet":
        unknown = data.keys() - _COUNTER_FIELDS
        if unknown:
            raise CounterFormatError(f"unknown counter fields: {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in data.items()})

    def rounded(self) -> "CounterSet":
        """Integer-valued copy, as real hardware counters would report."""
        return CounterSet(**{n: float(round(getattr(self, n))) for n in _COUNTER_FIELDS})


# Field names in declaration order, computed once: serialisation and
# arithmetic run per phase of every run, and ``dataclasses.fields`` /
# ``asdict`` rebuild this on each call.
_COUNTER_FIELDS = tuple(f.name for f in fields(CounterSet))


@dataclass
class GroundTruth:
    """Simulator-internal attribution the validation experiments rely on.

    Cycle ledger (``*_cycles`` sums to the CounterSet's ``cycles``):

    * ``compute_cycles`` — instruction execution at the workload's cpi0;
    * ``l2_hit_stall_cycles`` / ``memory_stall_cycles`` — cache stalls;
    * ``sync_cycles`` — barrier/lock protocol work including fetchop
      latency and serialization (speedshop's barrier-routine bucket);
    * ``spin_cycles`` — idle waiting at barriers/locks (speedshop's
      wait-routine bucket, the paper's load imbalance);
    * ``writeback_cycles`` / ``upgrade_cycles`` — second-order costs that
      sit outside the paper's Equation 1 on purpose.
    """

    compute_cycles: float = 0.0
    l2_hit_stall_cycles: float = 0.0
    memory_stall_cycles: float = 0.0
    sync_cycles: float = 0.0
    spin_cycles: float = 0.0
    writeback_cycles: float = 0.0
    upgrade_cycles: float = 0.0
    tlb_stall_cycles: float = 0.0

    sync_instructions: float = 0.0
    spin_instructions: float = 0.0
    compute_instructions: float = 0.0

    cold_misses: int = 0
    coherence_misses: int = 0
    replacement_misses: int = 0
    victim_hits: int = 0
    local_misses: int = 0
    remote_misses: int = 0
    dirty_remote_misses: int = 0
    upgrades_data: int = 0
    upgrades_sync: int = 0
    writebacks: int = 0
    barriers: int = 0
    lock_acquires: int = 0

    def __add__(self, other: "GroundTruth") -> "GroundTruth":
        return GroundTruth(**{n: getattr(self, n) + getattr(other, n) for n in _TRUTH_FIELDS})

    def __iadd__(self, other: "GroundTruth") -> "GroundTruth":
        for n in _TRUTH_FIELDS:
            setattr(self, n, getattr(self, n) + getattr(other, n))
        return self

    @classmethod
    def total(cls, parts: list["GroundTruth"]) -> "GroundTruth":
        out = cls()
        for p in parts:
            out += p
        return out

    @property
    def total_cycles(self) -> float:
        """Sum of the cycle ledger (must equal CounterSet.cycles)."""
        return (
            self.compute_cycles
            + self.l2_hit_stall_cycles
            + self.memory_stall_cycles
            + self.sync_cycles
            + self.spin_cycles
            + self.writeback_cycles
            + self.upgrade_cycles
            + self.tlb_stall_cycles
        )

    @property
    def total_misses(self) -> int:
        return self.cold_misses + self.coherence_misses + self.replacement_misses

    @property
    def multiprocessor_cycles(self) -> float:
        """Cycles speedshop would attribute to MP factors (Sync + Imb)."""
        return self.sync_cycles + self.spin_cycles

    def to_dict(self) -> dict[str, float]:
        return {n: getattr(self, n) for n in _TRUTH_FIELDS}

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "GroundTruth":
        unknown = data.keys() - _TRUTH_TYPES.keys()
        if unknown:
            raise CounterFormatError(f"unknown ground-truth fields: {sorted(unknown)}")
        return cls(**{n: _TRUTH_TYPES[n](v) for n, v in data.items()})


# As for CounterSet; every default is a float or an int, and ``from_dict``
# coerces each value to its field's type.
_TRUTH_FIELDS = tuple(f.name for f in fields(GroundTruth))
_TRUTH_TYPES = {f.name: type(f.default) for f in fields(GroundTruth)}
