"""Sampling-profiler overhead: ``--lines`` must stay under a 10% budget.

The line sampler's whole value proposition is "run it on a real
campaign without distorting what you measure" — a profiler that slows
the workload down by 2x reports a different hot path than the one
production has.  Budget: profiled wall time <= 1.10x unprofiled wall
time at the default 5 ms interval.

Two numbers, cross-checked:

1. End-to-end ratio: median campaign wall time with a live
   :class:`~repro.obs.sampler.Sampler` vs without (both under an obs
   session, so the delta is sampling alone, not span bookkeeping).
2. Self-accounting: the sampler times each of its own ticks;
   ``tick_fraction`` (overhead seconds / window) is the sampler's own
   estimate of the same cost, and should agree in magnitude — if the
   two diverge wildly, the watcher is interfering in some way its tick
   timer cannot see (GIL contention, allocator pressure).

``check_regression.py`` reruns :func:`measure` and gates hard on the
ratio (no baseline needed: the budget is absolute).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.obs import runtime as obs
from repro.obs.sampler import NOOP_SAMPLER, Sampler, active_sampler
from repro.runner.campaign import CampaignConfig, ScalToolCampaign
from repro.runner.engine import SerialExecutor
from repro.workloads import SyntheticWorkload

REPEATS = 5
INTERVAL_S = 0.005
BUDGET_RATIO = 1.10


def _campaign() -> ScalToolCampaign:
    cfg = CampaignConfig(
        s0=32 * 1024,
        processor_counts=(1, 2),
        sync_kernel_barriers=10,
        spin_kernel_episodes=3,
    )
    return ScalToolCampaign(SyntheticWorkload(), cfg)


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure(repeats: int = REPEATS, interval_s: float = INTERVAL_S) -> dict:
    """The overhead measurement, importable (``check_regression`` reruns it).

    Both sides run serially, so the sampler watches the simulator in this
    process rather than pausing while pool workers sample themselves.
    """
    campaign = _campaign()
    assert obs.active() is None

    def run_plain():
        with obs.session():
            campaign.run(executor=SerialExecutor())

    plain_s = _median_seconds(run_plain, repeats=repeats)

    samples = 0
    tick_fractions = []

    def run_sampled():
        nonlocal samples
        with obs.session():
            sampler = Sampler(interval_s=interval_s).start()
            try:
                campaign.run(executor=SerialExecutor())
            finally:
                profile = sampler.stop()
            samples += profile.n_samples
            tick_fractions.append(
                profile.overhead_s / profile.duration_s if profile.duration_s else 0.0
            )

    sampled_s = _median_seconds(run_sampled, repeats=repeats)
    return {
        "plain_s": plain_s,
        "sampled_s": sampled_s,
        "overhead_ratio": sampled_s / plain_s,
        "interval_ms": interval_s * 1e3,
        "samples_total": samples,
        "tick_fraction": statistics.median(tick_fractions),
        "budget_ratio": BUDGET_RATIO,
    }


def format_measurement(m: dict) -> str:
    return "\n".join(
        [
            "line-sampler overhead (synthetic, s0=32KiB, n=1,2)",
            f"{'campaign wall time, unprofiled':.<55s} {m['plain_s'] * 1e3:>12.2f} ms",
            f"{'campaign wall time, sampler live':.<55s} {m['sampled_s'] * 1e3:>12.2f} ms",
            f"{'sampled / unprofiled ratio':.<55s} {m['overhead_ratio']:>12.3f}",
            f"{'budget':.<55s} {m['budget_ratio']:>12.2f}",
            f"{'sampling interval':.<55s} {m['interval_ms']:>12.1f} ms",
            f"{'samples across repeats':.<55s} {m['samples_total']:>12d}",
            f"{'sampler self-measured tick fraction':.<55s} {m['tick_fraction']:>12.4%}",
        ]
    )


def test_profiler_overhead_under_budget(emit):
    m = measure()
    emit("profiler_overhead", format_measurement(m))
    (Path(__file__).parent / "results" / "profiler_overhead.json").write_text(
        json.dumps(m, indent=2, sort_keys=True) + "\n"
    )

    # The budget the ISSUE sets: sampling must cost <= 10% wall time.
    assert m["overhead_ratio"] <= BUDGET_RATIO, (
        f"sampler overhead ratio {m['overhead_ratio']:.3f} over budget {BUDGET_RATIO}"
    )
    # The sampler's own tick accounting should see a small cost too — if
    # the ticks claim to be free while the wall clock disagrees, the
    # overhead model is lying.
    assert m["tick_fraction"] < 0.10, f"tick fraction {m['tick_fraction']:.2%} >= 10%"

    # Disabled mode: no sampler registered, and the no-op singleton
    # swallows every call without side effects.
    assert active_sampler() is None
    assert NOOP_SAMPLER.start() is NOOP_SAMPLER
    assert NOOP_SAMPLER.stop() is None
    NOOP_SAMPLER.sample_once()
    assert NOOP_SAMPLER.profile is None
