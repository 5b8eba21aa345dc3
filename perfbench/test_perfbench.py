"""Self-tests of the benchmark, at smoke size (seconds).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import pytest

import stats
from common import ROOT, Deadline, HostSpeed, Scratch, run_pass
from layers import SPAN_NAMES, SpanRecorder
from run import check_output, mark
from service_load import digest, factor_sequence, failed_jobs, golden_by_factor


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0], 95) == 3.0
    assert stats.percentile([], 95) == 0.0
    assert stats.samples_beyond(values, stats.percentile(values, 95)) == 5


def test_median_ratio_and_drift():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([1, 2, 3, 4]) == 2.5
    assert stats.median([]) == 0.0
    assert stats.ratio(1, 4) == 0.25
    assert stats.ratio(1, 0) == 0.0
    # Last tenth (10s) over first tenth (1s).
    assert stats.decile_drift([1] * 10 + [5] * 80 + [10] * 10) == 10.0
    assert stats.decile_drift([1] * 9) == 0.0


def test_self_time_subtracts_direct_children():
    spans = [
        (0, None, "outer", 0.0, 10.0),
        (1, 0, "mid", 1.0, 5.0),
        (2, 1, "leaf", 2.0, 3.0),
        (3, 0, "leaf", 6.0, 8.0),
        (4, None, "other", 11.0, 12.0),
    ]
    self_s, total_s, calls = stats.self_times(spans)
    assert self_s == {"outer": 4.0, "mid": 3.0, "leaf": 3.0, "other": 1.0}
    assert total_s["leaf"] == 3.0 and calls["leaf"] == 2
    # Self times of a tree add up to the root span's duration.
    assert sum(v for k, v in self_s.items() if k != "other") == 10.0


def test_recorder_nests_wrapped_calls():
    class Layer:
        def outer(self):
            time.sleep(0.02)
            return self.inner() + 1

        def inner(self):
            time.sleep(0.03)
            return 1

        @classmethod
        def build(cls):
            return cls()

    recorder = SpanRecorder()
    recorder.wrap_method(Layer, "outer", "outer")
    recorder.wrap_method(Layer, "inner", "inner")
    recorder.wrap_method(Layer, "build", "build")
    assert Layer.build().outer() == 2
    self_s, total_s, calls = stats.self_times(recorder.spans)
    assert calls == {"build": 1, "outer": 1, "inner": 1}
    assert self_s["outer"] == pytest.approx(total_s["outer"] - total_s["inner"])
    assert 0.015 < self_s["outer"] < total_s["inner"]


def test_host_speed_follows_the_pass_from_cpu_to_cpu(tmp_path):
    (tmp_path / "speed-cpu0.log").write_text("1.0 100.0\n2.0 100.0\n3.0 100.0\n")
    (tmp_path / "speed-cpu1.log").write_text("1.1 200.0\n2.1 200.0\n3.1 400.0\n3.2 50")  # last line partial
    speed = HostSpeed(tmp_path)
    speed.cpus = [0, 1]
    assert speed.samples()[1] == [(1.1, 200.0), (2.1, 200.0), (3.1, 400.0)]
    # Seen on CPU 0 at t=1.4, then on CPU 1 at t=2.0: the nearest sample of each.
    p = {"wall_s": 3.0, "cpus": [(1.4, 0), (2.0, 1)]}
    assert speed.ns_per_iter(p) == 150.0
    # A pass on a CPU 1.5x as slow as the reference took 1/1.5 as long there.
    assert speed.to_reference(p) == pytest.approx(2.0)
    # A pass never seen (shorter than one poll): every sample's mean.
    assert speed.ns_per_iter({"wall_s": 0.01, "cpus": []}) == 1100 / 6


def test_corrupted_golden_fails_every_pass():
    good = "table\n1 | 2\n"
    passes = [
        {"ok": True, "cold": True, "output": good},
        {"ok": True, "cold": False, "output": good},
    ]
    mark(passes, golden=good)
    assert all(p["correct"] for p in passes)
    mark(passes, golden=good.replace("2", "3"))
    assert not any(p["correct"] for p in passes)


def test_warm_must_equal_cold_and_crashes_fail():
    assert not check_output("a", None, reference="b")
    assert check_output("a", None, reference="a")
    assert not check_output(None, None, None)
    passes = [{"ok": True, "cold": True, "output": "a"}, {"ok": False, "cold": False, "output": None}]
    mark(passes, golden=None)
    assert [p["correct"] for p in passes] == [True, False]


def test_failed_or_wrong_service_job_counts():
    jobs = [
        {"id": "j1", "payload": {"tm": 1.1}, "state": "done", "output": "x"},
        {"id": "j2", "payload": {"tm": 1.2}, "state": "failed", "output": None},
        {"id": "j3", "payload": {"tm": 1.3}, "state": "done", "output": "corrupted"},
    ]
    expected = {"j1": "x", "j2": "y", "j3": "z"}
    assert failed_jobs(jobs, expected) == 2
    assert failed_jobs(jobs[:1], expected) == 0


def test_service_job_must_match_its_golden_digest():
    factors = [1.1, 1.2]
    golden = {"campaign": digest("c"), "warm_whatif": digest("w"), "whatif": [digest("x"), digest("y")]}
    by_factor = golden_by_factor(golden, factors, warm_factor=1.9)
    assert by_factor == {1.1: digest("x"), 1.2: digest("y"), 1.9: digest("w")}
    job = {"id": "j1", "payload": {"tm": 1.1}, "state": "done", "output": "x"}
    assert failed_jobs([job], {"j1": "x"}, by_factor) == 0
    # Both paths print the same wrong bytes: only the golden digest sees it.
    wrong = dict(job, output="x2")
    assert failed_jobs([wrong], {"j1": "x2"}, by_factor) == 1
    # A factor the golden file does not cover is checked in-process only.
    beyond = dict(job, payload={"tm": 1.5}, output="q")
    assert failed_jobs([beyond], {"j1": "q"}, by_factor) == 0


def test_factor_sequence_is_seeded_and_distinct():
    a, b = factor_sequence(5), factor_sequence(5)
    assert a == b and a != factor_sequence(6)
    assert len(set(a)) == len(a)


def test_traced_pass_accounts_for_its_wall_time():
    """A real traced pass at smoke size: self times + remainder == wall."""
    payload = {"workload": "synthetic", "params": {"seed": 3}, "s0": 163840, "counts": [1, 2]}
    with Scratch() as scratch:
        p = run_pass({"kind": "analyze", "payload": payload, "trace": True},
                     scratch.new_root("test"), Deadline(120))
    assert p["ok"], p["error"]
    st = p["stats"]
    assert set(st["self_s"]) <= set(SPAN_NAMES)
    assert st["machine_runs"] and st["cache_misses"] == st["executor_specs"] > 0
    attributed = sum(st["self_s"].values())
    assert 0 < attributed < p["wall_s"]
    # Every wrapped call sits inside the pass, so no self time is negative.
    assert min(st["self_s"].values()) >= 0
    assert "=== Scal-Tool analysis: synthetic" in p["output"]


def test_refuses_to_run_without_the_program():
    with Scratch() as scratch:
        bare = scratch.new_root("bare")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "golden"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-falseshare",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
