"""Trace-driven processor execution: the simulator's inner loop.

:class:`PhaseRunner` executes one :class:`~repro.trace.events.Phase`: the
per-processor segments run *interleaved* in round-robin chunks (so
first-touch placement and coherence races behave as on a real machine),
each reference flows through the coherence controller, and each processor's
clock advances by ``instructions * cpi0 + stall_cycles``.

The loop is deliberately written for pure-Python speed: each round hands
one cpu's next chunk of the Python lists converted from the NumPy trace to
the controller's ``run_refs``, which binds that cpu's caches to locals once
per chunk and probes them in line.  On a 2-CPU host (``cpu_count`` 2, Python
3.11) this costs 1525 ns per reference on uniprocessor runs and 420 ns on
multiprocessor runs, as measured by the traced benchmark run quoted in
:mod:`repro.machine.cache`.
"""

from __future__ import annotations

from .coherence import CoherenceController
from .counters import CounterSet, GroundTruth
from ..trace.events import Phase

__all__ = ["PhaseRunner"]


class PhaseRunner:
    """Runs phases against a coherence controller and per-cpu clocks."""

    def __init__(
        self,
        controller: CoherenceController,
        counters: list[CounterSet],
        ground_truth: list[GroundTruth],
        interleave_chunk: int = 32,
    ) -> None:
        self.controller = controller
        self.counters = counters
        self.gt = ground_truth
        self.chunk = max(1, interleave_chunk)

    def run_phase(self, phase: Phase, cpi0: float, clocks: list[float]) -> None:
        """Execute every segment of ``phase``, advancing ``clocks`` in place.

        Does *not* run the phase-ending barrier; the system layer does that
        so it can also record barrier outcomes.
        """
        run_refs = self.controller.run_refs
        chunk = self.chunk

        # (cpu, addr_list, write_list, cursor); stalls accumulated per cpu.
        pending: list[list] = []
        stalls: dict[int, float] = {}
        for cpu, seg in enumerate(phase.segments):
            if seg is None or seg.n_refs == 0:
                continue
            pending.append([cpu, seg.addrs.tolist(), seg.writes.tolist(), 0])
            stalls[cpu] = 0.0

        while pending:
            nxt = []
            for item in pending:
                cpu, addrs, writes, pos = item
                end = pos + chunk
                n = len(addrs)
                if end > n:
                    end = n
                stalls[cpu] += run_refs(cpu, addrs, writes, pos, end)
                if end < n:
                    item[3] = end
                    nxt.append(item)
            pending = nxt

        for cpu, seg in enumerate(phase.segments):
            if seg is None:
                continue
            compute = seg.n_instructions * cpi0
            clocks[cpu] += compute + stalls.get(cpu, 0.0)
            self.counters[cpu].graduated_instructions += seg.n_instructions
            gt = self.gt[cpu]
            gt.compute_cycles += compute
            gt.compute_instructions += seg.n_instructions
