"""Interconnect latency studies: analytic tm(n) and measured topology surveys.

The paper's tm(n) grows with machine size because remote accesses cross
more router hops.  This module provides

* :func:`analytic_tm` — the closed-form expectation
  ``t_mem + 2 * mean_distance * t_hop * remote_fraction``, the knob behind
  Figure 4's growth curve, and
* :func:`topology_survey` — a measured comparison: the memory-latency
  kernel run under round-robin placement (so accesses really go remote)
  on each topology, reporting the observed mean L2-miss latency.

Both support the Section 2.6 "interconnection network" what-if: replace
tm(n)'s growth law with another topology's and re-evaluate the model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigError
from .config import InterconnectConfig, MachineConfig, MemoryConfig
from .interconnect import Interconnect

__all__ = ["analytic_tm", "TopologyPoint", "topology_survey"]


def analytic_tm(cfg: MachineConfig, n_processors: int, remote_fraction: float = 1.0) -> float:
    """Expected L2-miss service latency on ``cfg``'s network at ``n`` cpus.

    ``remote_fraction`` is the share of misses whose home is a uniformly
    random node (first-touch codes have a small one; round-robin placement
    approaches (n-1)/n).  Prefetching and dirty interventions are not
    modelled here — this is the paper-style first-order estimate.
    """
    if not (0.0 <= remote_fraction <= 1.0):
        raise ConfigError("remote_fraction must be in [0, 1]")
    ic = Interconnect(cfg.interconnect, n_processors)
    return cfg.timing.t_mem + 2.0 * ic.mean_distance() * cfg.timing.t_hop * remote_fraction


@dataclass(frozen=True)
class TopologyPoint:
    """One (topology, n) measurement of the survey."""

    topology: str
    n_processors: int
    mean_distance: float
    diameter: int
    analytic_tm: float
    measured_tm: float

    def row(self) -> dict:
        return {
            "topology": self.topology,
            "n": self.n_processors,
            "mean hops": self.mean_distance,
            "diameter": self.diameter,
            "analytic tm": self.analytic_tm,
            "measured tm": self.measured_tm,
        }


def topology_survey(
    base_cfg: MachineConfig,
    processor_counts: tuple[int, ...] = (2, 8, 32),
    topologies: tuple[str, ...] = ("hypercube", "mesh", "ring", "crossbar"),
    kernel_refs: int = 4000,
    footprint_factor: int = 8,
    executor=None,
    cache=None,
) -> list[TopologyPoint]:
    """Measure mean L2-miss latency per topology and processor count.

    Runs the pointer-chase kernel over a footprint ``footprint_factor``
    times the L2 with round-robin page placement (every miss has a
    uniformly-placed home) and compares the simulator's observed mean miss
    latency against :func:`analytic_tm`.  Every (topology, n) cell is an
    independent :class:`~repro.runner.engine.RunSpec`, so the survey can
    fan out over a parallel executor and memoise per cell in a run cache.
    """
    # Lazy: repro.runner.engine imports machine.config from this package.
    from ..runner.engine import RunSpec, default_executor
    from ..workloads.kernels import MemoryLatencyKernel

    cells: list[tuple[str, int, MachineConfig]] = []
    specs: list[RunSpec] = []
    for topology in topologies:
        for n in processor_counts:
            cfg = replace(
                base_cfg,
                n_processors=n,
                interconnect=InterconnectConfig(topology=topology,
                                                bristle=base_cfg.interconnect.bristle),
                memory=MemoryConfig(page_size=base_cfg.memory.page_size,
                                    placement="round_robin"),
            )
            wl = MemoryLatencyKernel(n_refs=kernel_refs, passes=1)
            size = footprint_factor * cfg.l2.size * n
            cells.append((topology, n, cfg))
            specs.append(RunSpec.compile(wl, size, n, machine=cfg))

    executor = executor or default_executor()
    records = executor.run(specs, cache=cache)

    points: list[TopologyPoint] = []
    for (topology, n, cfg), rec in zip(cells, records):
        misses = rec.counters.l2_misses
        measured = rec.ground_truth.memory_stall_cycles / misses if misses else 0.0
        ic = Interconnect(cfg.interconnect, n)
        points.append(
            TopologyPoint(
                topology=topology,
                n_processors=n,
                mean_distance=ic.mean_distance(),
                diameter=ic.diameter(),
                analytic_tm=analytic_tm(cfg, n, remote_fraction=(n - 1) / n),
                measured_tm=measured,
            )
        )
    return points
