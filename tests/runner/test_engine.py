"""The run engine: spec identity, caching, executors, retry, equivalence."""

from __future__ import annotations

import functools
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, TransientRunError
from repro.machine.config import CacheConfig
from repro.obs import runtime as obs
from repro.runner.engine import (
    ParallelExecutor,
    RunCache,
    RunSpec,
    SerialExecutor,
    default_executor,
    execute_spec,
)
from repro.workloads.synthetic import SyntheticWorkload

from ..conftest import small_synthetic, tiny_machine_config


def spec_for(n: int = 2, size: int = 4 * 1024, **wl_params) -> RunSpec:
    return RunSpec.compile(
        small_synthetic(**wl_params), size, n, machine=tiny_machine_config(n_processors=n)
    )


# -- RunSpec identity -----------------------------------------------------------------


class TestRunSpecKey:
    def test_same_inputs_same_key(self):
        assert spec_for().key() == spec_for().key()

    def test_key_varies_with_workload_params(self):
        assert spec_for(iters=2).key() != spec_for(iters=3).key()

    def test_key_varies_with_size_and_n(self):
        base = spec_for()
        assert base.key() != spec_for(size=8 * 1024).key()
        assert base.key() != spec_for(n=4).key()

    def test_key_sees_n_dependent_machine_config(self):
        """Satellite-1 regression: two machine families that agree at n=1
        but diverge at larger counts must produce different keys at those
        counts (the old campaign cache summarised ``factory(1)`` only)."""

        def factory_a(n):
            return tiny_machine_config(n_processors=n)

        def factory_b(n):
            l2 = CacheConfig(size=4096 if n == 1 else 8192, line_size=32,
                             associativity=2, name="L2")
            return tiny_machine_config(n_processors=n, l2=l2)

        wl = small_synthetic()
        at1_a = RunSpec.compile(wl, 4096, 1, machine=factory_a(1))
        at1_b = RunSpec.compile(wl, 4096, 1, machine=factory_b(1))
        assert at1_a.key() == at1_b.key()  # identical configs at n=1
        at4_a = RunSpec.compile(wl, 4096, 4, machine=factory_a(4))
        at4_b = RunSpec.compile(wl, 4096, 4, machine=factory_b(4))
        assert at4_a.key() != at4_b.key()

    def test_ident_is_json_round_trippable(self):
        ident = spec_for().ident()
        assert json.loads(json.dumps(ident, sort_keys=True)) == ident

    def test_compile_round_trips_workload(self):
        spec = spec_for(iters=3, seed=23)
        rebuilt = spec.build_workload()
        assert rebuilt.describe_params() == small_synthetic(iters=3, seed=23).describe_params()
        assert rebuilt.seed == 23

    def test_compile_rejects_unreconstructable_workload(self):
        class Lossy(SyntheticWorkload):
            def describe_params(self):
                return {"iters": self.iters}  # drops everything else

        with pytest.raises(ConfigError, match="round-trip"):
            RunSpec.compile(Lossy(), 4096, 2, machine=tiny_machine_config(n_processors=2))


# -- executors: equivalence and ordering ----------------------------------------------


def _double(x: int) -> int:  # module-level: parallel map must pickle it
    return 2 * x


def _pid_of(_item) -> int:
    return os.getpid()


class TestExecutors:
    def test_map_preserves_order(self):
        items = list(range(7))
        assert SerialExecutor().map(_double, items) == [2 * x for x in items]
        assert ParallelExecutor(jobs=2).map(_double, items) == [2 * x for x in items]

    def test_default_executor_selection(self):
        assert isinstance(default_executor(1), SerialExecutor)
        assert isinstance(default_executor(0), SerialExecutor)
        parallel = default_executor(3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.jobs == 3

    def test_default_width_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert isinstance(default_executor(), SerialExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        chosen = default_executor()
        assert isinstance(chosen, ParallelExecutor) and chosen.jobs == 2
        assert ParallelExecutor().jobs == 2
        # An explicit width still wins: --jobs 1 forces serial.
        assert isinstance(default_executor(1), SerialExecutor)

    def test_single_pending_spec_runs_in_the_parent(self, tmp_path):
        cache = RunCache(tmp_path)
        cached, fresh = spec_for(n=1), spec_for(n=2)
        SerialExecutor().run([cached], cache=cache)
        outcomes = []
        ParallelExecutor(jobs=2).run(
            [cached, fresh], cache=cache, on_outcome=lambda o: outcomes.append(o)
        )
        assert [(o.cached, o.pid) for o in outcomes] == [(True, None), (False, os.getpid())]

    def test_a_wider_batch_runs_in_workers(self):
        outcomes = []
        ParallelExecutor(jobs=2).run(
            [spec_for(n=1), spec_for(n=2)], on_outcome=lambda o: outcomes.append(o)
        )
        assert all(o.pid != os.getpid() for o in outcomes)

    def test_single_item_map_runs_in_the_parent(self):
        assert ParallelExecutor(jobs=2).map(_pid_of, [0]) == [os.getpid()]
        assert ParallelExecutor(jobs=2).map(_pid_of, [0, 1]) != [os.getpid()] * 2

    def test_serial_and_parallel_records_byte_identical(self):
        specs = [spec_for(n=n, size=size) for n in (1, 2) for size in (2048, 4096)]
        serial = SerialExecutor().run(specs)
        parallel = ParallelExecutor(jobs=2).run(specs)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]

    @settings(max_examples=5, deadline=None)
    @given(
        iters=st.integers(min_value=1, max_value=3),
        barriers=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.sampled_from([1, 2]),
        size=st.sampled_from([2048, 4096, 8192]),
    )
    def test_serial_parallel_equivalence_property(self, iters, barriers, seed, n, size):
        """Acceptance: the parallel JSONL is byte-identical to the serial one."""
        spec = RunSpec.compile(
            small_synthetic(iters=iters, barriers_per_iter=barriers, seed=seed),
            size,
            n,
            machine=tiny_machine_config(n_processors=n),
        )
        serial = SerialExecutor().run([spec, spec_for()])
        parallel = ParallelExecutor(jobs=2).run([spec, spec_for()])
        assert "\n".join(r.to_json() for r in serial) == "\n".join(
            r.to_json() for r in parallel
        )

    def test_outcomes_fire_in_spec_order_serially(self):
        specs = [spec_for(n=1), spec_for(n=2)]
        seen = []
        SerialExecutor().run(specs, on_outcome=lambda o: seen.append(o))
        assert [o.index for o in seen] == [0, 1]
        assert all(o.total == 2 and not o.cached and o.attempts == 1 for o in seen)


# -- retry ----------------------------------------------------------------------------


def _flaky_execute(counter_path: str, spec: RunSpec):
    """Fails transiently on first attempt per spec; counts attempts in a file
    (module-level + file-based so pool workers can share the state)."""
    from pathlib import Path

    marker = Path(counter_path) / f"{spec.key()}.attempt"
    attempts = int(marker.read_text()) if marker.exists() else 0
    marker.write_text(str(attempts + 1))
    if attempts == 0:
        raise TransientRunError(f"injected failure for {spec.describe()}")
    return execute_spec(spec)


class TestRetry:
    def test_serial_retries_transient_then_succeeds(self):
        spec = spec_for()
        calls = {"n": 0}

        def flaky(s):
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientRunError("flaky")
            return execute_spec(s)

        outcomes = []
        with obs.session() as s:
            records = SerialExecutor(retries=2, execute_fn=flaky).run(
                [spec], on_outcome=lambda o: outcomes.append(o)
            )
        assert calls["n"] == 3
        assert records[0].to_json() == execute_spec(spec).to_json()
        assert outcomes[0].attempts == 3
        assert s.registry.counter("engine.retries") == 2.0

    def test_serial_raises_when_retries_exhausted(self):
        def always_fails(s):
            raise TransientRunError("still broken")

        with pytest.raises(TransientRunError, match="still broken"):
            SerialExecutor(retries=1, execute_fn=always_fails).run([spec_for()])

    def test_serial_does_not_retry_nontransient(self):
        calls = {"n": 0}

        def broken(s):
            calls["n"] += 1
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            SerialExecutor(retries=2, execute_fn=broken).run([spec_for()])
        assert calls["n"] == 1

    def test_parallel_resubmits_transient_failure(self, tmp_path):
        specs = [spec_for(n=1), spec_for(n=2)]
        flaky = functools.partial(_flaky_execute, str(tmp_path))
        outcomes = []
        records = ParallelExecutor(jobs=2, retries=2, execute_fn=flaky).run(
            specs, on_outcome=lambda o: outcomes.append(o)
        )
        expected = SerialExecutor().run(specs)
        assert [r.to_json() for r in records] == [r.to_json() for r in expected]
        assert sorted(o.attempts for o in outcomes) == [2, 2]


# -- caching --------------------------------------------------------------------------


class TestRunCache:
    def test_second_run_is_all_hits(self, tmp_path):
        specs = [spec_for(n=1), spec_for(n=2)]
        cache = RunCache(tmp_path)
        with obs.session() as s1:
            first = SerialExecutor().run(specs, cache=cache)
        assert s1.registry.counter("engine.cache.miss") == 2.0
        assert s1.registry.counter("engine.runs") == 2.0

        outcomes = []
        with obs.session() as s2:
            second = SerialExecutor().run(
                specs, cache=cache, on_outcome=lambda o: outcomes.append(o)
            )
        assert s2.registry.counter("engine.cache.hit") == 2.0
        assert s2.registry.counter("engine.runs") == 0.0
        assert [r.to_json() for r in first] == [r.to_json() for r in second]
        # Hits still produce outcome events (warm progress, satellite 3).
        assert [(o.index, o.cached, o.attempts) for o in outcomes] == [
            (0, True, 0),
            (1, True, 0),
        ]

    def test_refresh_bypasses_reads_but_rewrites(self, tmp_path):
        spec = spec_for()
        cache = RunCache(tmp_path)
        SerialExecutor().run([spec], cache=cache)
        before = cache.path(spec).read_text()
        with obs.session() as s:
            SerialExecutor().run([spec], cache=cache, refresh=True)
        assert s.registry.counter("engine.runs") == 1.0
        assert s.registry.counter("engine.cache.hit") == 0.0
        assert cache.path(spec).read_text() == before  # deterministic rewrite

    def test_corrupt_entry_reruns(self, tmp_path):
        spec = spec_for()
        cache = RunCache(tmp_path)
        first = SerialExecutor().run([spec], cache=cache)
        cache.path(spec).write_text("{ nope")
        with obs.session() as s:
            again = SerialExecutor().run([spec], cache=cache)
        assert s.registry.counter("engine.cache.corrupt") == 1.0
        assert s.registry.counter("engine.runs") == 1.0
        assert again[0].to_json() == first[0].to_json()

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        specs = [spec_for(n=1), spec_for(n=2)]
        cache = RunCache(tmp_path)
        SerialExecutor().run(specs, cache=cache)
        with obs.session() as s:
            records = ParallelExecutor(jobs=2).run(specs, cache=cache)
        assert s.registry.counter("engine.cache.hit") == 2.0
        assert s.registry.counter("engine.runs") == 0.0
        assert [r.to_json() for r in records] == [
            r.to_json() for r in SerialExecutor().run(specs)
        ]


# -- engine spans ---------------------------------------------------------------------


class TestEngineObs:
    def test_engine_run_span_attrs(self, tmp_path):
        specs = [spec_for(n=1), spec_for(n=2)]
        with obs.session() as s:
            SerialExecutor().run(specs, cache=RunCache(tmp_path))
        (span,) = s.tracer.by_name("engine.run")
        assert span.attrs["runs"] == 2
        assert span.attrs["executor"] == "SerialExecutor"
        assert span.attrs["cache_hits"] == 0
        assert len(s.tracer.by_name("engine.execute")) == 2
        assert s.registry.histogram("engine.run_seconds").count == 2

    def test_engine_map_span(self):
        with obs.session() as s:
            SerialExecutor().map(_double, [1, 2, 3])
        (span,) = s.tracer.by_name("engine.map")
        assert span.attrs["tasks"] == 3


# -- the benchmark smoke run (satellite: wired into every tier-1 pass) ---------------


def test_parallel_benchmark_smoke(tmp_path):
    from benchmarks.bench_parallel_campaign import run_benchmark

    result = run_benchmark(s0=8 * 1024, counts=(1, 2), jobs=1, results_dir=tmp_path)
    assert result["identical_records"]
    assert result["runs"] > 0
    assert (tmp_path / "parallel_campaign.json").exists()
    assert (tmp_path / "parallel_campaign.txt").exists()
