"""Parameter-sweep orchestration.

Ablations keep re-running the same pattern: a grid of workload and/or
machine variations, one run each, gathered into a tidy table.  This module
provides that harness on top of the shared execution engine: every grid
point compiles to a :class:`~repro.runner.engine.RunSpec` and executes
through :func:`~repro.runner.experiment.run_experiment` — so sweep runs
emit the same obs spans/metrics and simulator self-checks as campaign
runs, can fan out over a
:class:`~repro.runner.engine.ParallelExecutor`, and memoise per run in a
:class:`~repro.runner.engine.RunCache` (an unchanged grid re-runs with
zero machine executions).

Example::

    grid = ParameterSweep(
        base_workload=lambda **p: Swim(**p),
        workload_grid={"halo_blocks": [0, 1, 2]},
        machine_grid={"protocol": ["mesi", "msi"]},
        n_processors=8,
        size=Swim().default_size(),
    )
    rows = grid.run(metrics={
        "event31": lambda rec: rec.counters.store_exclusive_to_shared,
    })
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable

from ..errors import ConfigError
from ..machine.config import MachineConfig, origin2000_scaled
from ..obs import runtime as obs
from .engine import Executor, OnOutcome, RunCache, RunSpec, default_executor
from .records import RunRecord

__all__ = ["ParameterSweep", "sweep_grid"]

#: Metrics read the completed :class:`RunRecord` (``rec.counters.*`` etc.).
Metric = Callable[[RunRecord], float]


def sweep_grid(**axes) -> list[dict]:
    """Cartesian product of named value lists as a list of dicts."""
    if not axes:
        return [{}]
    names = list(axes)
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"axis {name!r} must be a non-empty list")
    return [dict(zip(names, combo)) for combo in itertools.product(*axes.values())]


@dataclass
class ParameterSweep:
    """A (workload params) x (machine params) grid of single runs."""

    base_workload: Callable[..., object]
    size: int
    n_processors: int = 8
    workload_grid: dict = field(default_factory=dict)
    machine_grid: dict = field(default_factory=dict)
    base_machine: MachineConfig | None = None

    def points(self) -> list[tuple[dict, dict]]:
        return [
            (wp, mp)
            for wp in sweep_grid(**self.workload_grid)
            for mp in sweep_grid(**self.machine_grid)
        ]

    def _machine_config(self, machine_params: dict) -> MachineConfig:
        cfg = self.base_machine or origin2000_scaled(n_processors=self.n_processors)
        cfg = cfg.with_processors(self.n_processors)
        if machine_params:
            try:
                cfg = replace(cfg, **machine_params)
            except TypeError as exc:
                raise ConfigError(f"bad machine parameter: {exc}") from exc
        return cfg

    def compile_specs(self) -> list[RunSpec]:
        """One engine spec per grid point, in :meth:`points` order."""
        return [
            RunSpec.compile(
                self.base_workload(**wp),
                self.size,
                self.n_processors,
                machine=self._machine_config(mp),
            )
            for wp, mp in self.points()
        ]

    def run(
        self,
        metrics: dict[str, Metric],
        executor: Executor | None = None,
        cache: RunCache | None = None,
        refresh: bool = False,
        on_outcome: OnOutcome | None = None,
    ) -> list[dict]:
        """Execute the grid; one row per point with the requested metrics.

        With a ``cache``, previously executed points load from disk
        (``engine.cache.hit``) and an unchanged grid re-runs without a
        single machine execution.
        """
        if not metrics:
            raise ConfigError("at least one metric is required")
        points = self.points()
        specs = self.compile_specs()
        executor = executor or default_executor()
        with obs.tracer().span("sweep.run", points=len(specs)):
            records = executor.run(
                specs, cache=cache, refresh=refresh, on_outcome=on_outcome
            )
        rows = []
        for (workload_params, machine_params), record in zip(points, records):
            row: dict = {**workload_params, **machine_params}
            for name, fn in metrics.items():
                row[name] = fn(record)
            rows.append(row)
        return rows
