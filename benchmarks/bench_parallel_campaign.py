"""Serial vs parallel campaign execution: wall time and equivalence.

The engine's contract is that a :class:`~repro.runner.engine.ParallelExecutor`
produces *byte-identical* records to a :class:`~repro.runner.engine.SerialExecutor`
for the same plan, only (on a multi-core box) faster.  This bench times
both over the same campaign plan, verifies the record lists are identical
JSON, and records the measured speedup into ``benchmarks/results/``.

The speedup column is honest about the hardware: on a single-core
container the parallel run pays process-pool overhead and the speedup is
<= 1; on an m-core machine it approaches min(jobs, m) for this embarrass-
ingly parallel plan.  The equivalence assertion is the part that must
hold everywhere.

``run_benchmark`` is importable (the tier-1 suite smoke-runs it with one
worker and a tiny plan), and the pytest bench below records the real
numbers for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.runner.campaign import CampaignConfig, ScalToolCampaign
from repro.runner.engine import ParallelExecutor, SerialExecutor, available_cpus
from repro.workloads import SyntheticWorkload


def _campaign(s0: int, counts: tuple[int, ...]) -> ScalToolCampaign:
    cfg = CampaignConfig(
        s0=s0,
        processor_counts=counts,
        sync_kernel_barriers=10,
        spin_kernel_episodes=3,
    )
    return ScalToolCampaign(SyntheticWorkload(), cfg)


def run_benchmark(
    s0: int = 160 * 1024,
    counts: tuple[int, ...] = (1, 2, 4, 8),
    jobs: int = 4,
    results_dir: str | Path | None = None,
) -> dict:
    """Time one campaign plan serial vs parallel; verify identical records.

    Returns the measurement dict and, when ``results_dir`` is given,
    writes it there as ``parallel_campaign.json`` plus a human-readable
    ``parallel_campaign.txt``.
    """
    campaign = _campaign(s0, counts)
    n_runs = len(campaign.planned_runs())

    t0 = time.perf_counter()
    serial = campaign.run(executor=SerialExecutor())
    serial_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    parallel = campaign.run(executor=ParallelExecutor(jobs=jobs))
    parallel_s = time.perf_counter() - t1

    serial_json = [r.to_json() for r in serial.records]
    parallel_json = [r.to_json() for r in parallel.records]
    identical = serial_json == parallel_json

    result = {
        "workload": "synthetic",
        "s0": s0,
        "counts": list(counts),
        "runs": n_runs,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else 0.0,
        "identical_records": identical,
    }

    if results_dir is not None:
        results_dir = Path(results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / "parallel_campaign.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        (results_dir / "parallel_campaign.txt").write_text(format_result(result) + "\n")
    return result


def format_result(result: dict) -> str:
    return "\n".join(
        [
            f"parallel campaign execution (synthetic, s0={result['s0']}, "
            f"counts={','.join(str(c) for c in result['counts'])})",
            f"{'runs in plan':.<45s} {result['runs']:>12d}",
            f"{'worker processes (--jobs)':.<45s} {result['jobs']:>12d}",
            f"{'host cpu count':.<45s} {result['cpu_count']:>12d}",
            f"{'serial wall time':.<45s} {result['serial_seconds'] * 1e3:>12.1f} ms",
            f"{'parallel wall time':.<45s} {result['parallel_seconds'] * 1e3:>12.1f} ms",
            f"{'speedup (serial / parallel)':.<45s} {result['speedup']:>12.2f} x",
            f"{'records byte-identical':.<45s} {str(result['identical_records']):>12s}",
        ]
    )


def test_parallel_campaign_speedup(emit):
    jobs = min(4, available_cpus())
    result = run_benchmark(jobs=jobs, results_dir=Path(__file__).parent / "results")
    emit("parallel_campaign", format_result(result))

    # The portable contract: same records, bit for bit.
    assert result["identical_records"]
    # Honest perf note, not a hard gate: only insist on a speedup when the
    # host actually has the cores to provide one.
    if jobs >= 4:
        assert result["speedup"] >= 3.0, (
            f"4-worker speedup {result['speedup']:.2f}x < 3x on a "
            f"{os.cpu_count()}-core host"
        )
