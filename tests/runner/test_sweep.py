"""Parameter-sweep harness."""

import pytest

from repro.errors import ConfigError
from repro.obs import runtime as obs
from repro.runner.engine import ParallelExecutor, RunCache, SerialExecutor
from repro.runner.sweep import ParameterSweep, sweep_grid

from ..conftest import small_synthetic, tiny_machine_config
from repro.workloads import SyntheticWorkload


class TestGrid:
    def test_cartesian_product(self):
        grid = sweep_grid(a=[1, 2], b=["x", "y", "z"])
        assert len(grid) == 6
        assert {"a": 1, "b": "z"} in grid

    def test_empty_axes(self):
        assert sweep_grid() == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep_grid(a=[])

    def test_scalar_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep_grid(a=3)


class TestSweep:
    def make(self, **kw):
        defaults = dict(
            base_workload=lambda **p: SyntheticWorkload(iters=1, refs_per_block=3, **p),
            size=8 * 1024,
            n_processors=2,
            base_machine=tiny_machine_config(n_processors=2),
        )
        defaults.update(kw)
        return ParameterSweep(**defaults)

    def test_points_cover_both_grids(self):
        sweep = self.make(
            workload_grid={"sharing_frac": [0.0, 0.1]},
            machine_grid={"protocol": ["mesi", "msi"]},
        )
        assert len(sweep.points()) == 4

    def test_run_produces_metric_rows(self):
        sweep = self.make(workload_grid={"sharing_frac": [0.0, 0.1]})
        rows = sweep.run(metrics={"cycles": lambda r: r.counters.cycles})
        assert len(rows) == 2
        assert all("cycles" in row and row["cycles"] > 0 for row in rows)
        assert rows[0]["sharing_frac"] == 0.0

    def test_machine_axis_applied(self):
        sweep = self.make(machine_grid={"protocol": ["mesi", "msi"]})
        rows = sweep.run(
            metrics={"e31": lambda r: r.counters.store_exclusive_to_shared}
        )
        by = {row["protocol"]: row["e31"] for row in rows}
        assert set(by) == {"mesi", "msi"}

    def test_bad_machine_param_rejected(self):
        sweep = self.make(machine_grid={"warp_drive": [True]})
        with pytest.raises(ConfigError):
            sweep.run(metrics={"cycles": lambda r: r.counters.cycles})

    def test_no_metrics_rejected(self):
        with pytest.raises(ConfigError):
            self.make().run(metrics={})

    def test_deterministic(self):
        sweep = self.make(workload_grid={"sharing_frac": [0.1]})
        a = sweep.run(metrics={"cycles": lambda r: r.counters.cycles})
        b = sweep.run(metrics={"cycles": lambda r: r.counters.cycles})
        assert a == b

    def test_compile_specs_match_points(self):
        sweep = self.make(
            workload_grid={"sharing_frac": [0.0, 0.1]},
            machine_grid={"protocol": ["mesi", "msi"]},
        )
        specs = sweep.compile_specs()
        assert len(specs) == len(sweep.points())
        assert len({s.key() for s in specs}) == len(specs)  # all distinct

    def test_parallel_rows_identical(self):
        sweep = self.make(workload_grid={"sharing_frac": [0.0, 0.1]})
        metrics = {"cycles": lambda r: r.counters.cycles}
        serial = sweep.run(metrics, executor=SerialExecutor())
        assert serial == sweep.run(metrics, executor=ParallelExecutor(jobs=2))

    def test_warm_sweep_runs_nothing(self, tmp_path):
        """Acceptance: a warm re-run is served entirely from the per-run
        cache — engine.cache.hit counts every point, engine.runs stays 0."""
        sweep = self.make(workload_grid={"sharing_frac": [0.0, 0.1]})
        metrics = {"cycles": lambda r: r.counters.cycles}
        cache = RunCache(tmp_path)
        cold = sweep.run(metrics, cache=cache)
        with obs.session() as s:
            warm = sweep.run(metrics, cache=cache)
        assert warm == cold
        assert s.registry.counter("engine.cache.hit") == len(sweep.points())
        assert s.registry.counter("engine.runs") == 0.0

    def test_sweep_emits_span_and_engine_metrics(self):
        sweep = self.make(workload_grid={"sharing_frac": [0.0, 0.1]})
        with obs.session() as s:
            sweep.run(metrics={"cycles": lambda r: r.counters.cycles})
        (span,) = s.tracer.by_name("sweep.run")
        assert span.attrs["points"] == 2
        # Grid points route through the same engine path as campaign runs.
        assert len(s.tracer.by_name("engine.execute")) == 2
        assert s.registry.counter("engine.runs") == 2.0
