"""What-if analysis: machine-parameter experiments (paper Section 2.6).

"The idea is to modify the values of the parameters in the model and use
the model equations to infer the rough performance impact on the
application.  The application does not need to be re-run."

Supported experiments:

* scaling the latency parameters ``t2`` (L2 speed), ``tm`` (memory /
  interconnect speed), ``tsyn`` (synchronization support), and the issue
  width via ``cpi0`` — Eq. 1 with the measured (h2, hm) mix plus the
  Eq. 10 synchronization-cost delta;
* growing the L2 by a factor ``k`` — Eq. 11: the coherence miss
  component is unchanged, the uniprocessor component becomes
  ``1 − L2hitr(s0/(n·k), 1)`` via the fractional-data-set surrogate;
* swapping in a new synchronization primitive (a new tsyn), with the
  paper's caveat that the imbalance interaction is not predicted.

Predictions are *deltas applied to the measured baseline*: the model
reconstruction error at the baseline is carried over unchanged, so a
what-if with factor 1.0 returns exactly the measured cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InsufficientDataError
from ..runner.campaign import CampaignData
from ..runner.engine import Executor, SerialExecutor
from ..units import clamp
from .cache_analysis import interpolate_uniproc
from .model import MemoryRates, cpi_from_rates, cpi_linear
from .scaltool import ScalToolAnalysis

__all__ = ["WhatIf", "WhatIfPrediction"]


def _apply_experiment(item: tuple["WhatIf", dict]) -> "WhatIfPrediction":
    """Executor task body (module-level so parallel maps can pickle it)."""
    whatif, experiment = item
    return whatif.predict(experiment)


@dataclass(frozen=True)
class WhatIfPrediction:
    """Predicted accumulated cycles per processor count for one experiment."""

    label: str
    baseline: dict[int, float]
    predicted: dict[int, float]
    note: str = ""

    def change(self, n: int) -> float:
        """Relative cycle change at n (negative = faster)."""
        return self.predicted[n] / self.baseline[n] - 1.0

    def rows(self) -> list[dict]:
        return [
            {
                "n": n,
                "baseline": self.baseline[n],
                "predicted": self.predicted[n],
                "change": self.change(n),
            }
            for n in sorted(self.baseline)
        ]


class WhatIf:
    """Parameter experiments over a completed analysis."""

    def __init__(self, analysis: ScalToolAnalysis, campaign: CampaignData) -> None:
        self.analysis = analysis
        self.base_runs = {
            n: r.without_ground_truth() for n, r in campaign.base_runs().items()
        }
        self.uniproc = {
            s: r.without_ground_truth() for s, r in campaign.uniprocessor_runs().items()
        }
        if not self.base_runs:
            raise InsufficientDataError("campaign has no base runs")

    # -- batch execution through the shared engine ---------------------------------

    def predict(self, experiment: dict) -> WhatIfPrediction:
        """One experiment described as data (the engine's task unit).

        ``{"kind": "scale", "t2_factor": 0.5, ...}`` routes to
        :meth:`scale_parameters`, ``{"kind": "l2", "k": 4}`` to
        :meth:`scale_l2`, and ``{"kind": "sync", "tsyn": 40.0}`` to
        :meth:`new_sync_primitive`.
        """
        exp = dict(experiment)
        kind = exp.pop("kind", "scale")
        if kind == "scale":
            return self.scale_parameters(**exp)
        if kind == "l2":
            return self.scale_l2(exp["k"], label=exp.get("label"))
        if kind == "sync":
            return self.new_sync_primitive(exp["tsyn"], label=exp.get("label"))
        raise InsufficientDataError(
            f"unknown what-if kind {kind!r}; expected 'scale', 'l2', or 'sync'"
        )

    def run_experiments(
        self, experiments: list[dict], executor: Executor | None = None
    ) -> list[WhatIfPrediction]:
        """Evaluate a batch of experiments via the shared executor.

        Deterministic input order is preserved; with a
        :class:`~repro.runner.engine.ParallelExecutor` the (independent)
        experiments fan out across workers.  Without one they run in this
        process: each is arithmetic on stored results, far cheaper than
        starting a pool.
        """
        executor = executor or SerialExecutor()
        return executor.map(_apply_experiment, [(self, exp) for exp in experiments])

    # -- core reconstruction -------------------------------------------------------

    def _model_cycles(
        self,
        n: int,
        cpi0_factor: float = 1.0,
        t2_factor: float = 1.0,
        tm_factor: float = 1.0,
    ) -> tuple[float, float]:
        """(model baseline, model modified) accumulated cycles at n."""
        p = self.analysis.params
        c = self.base_runs[n].counters
        inst = c.graduated_instructions
        base = cpi_linear(p.cpi0, c.h2, c.hm, p.t2, p.tm(n)) * inst
        mod = (
            cpi_linear(
                p.cpi0 * cpi0_factor,
                c.h2,
                c.hm,
                p.t2 * t2_factor,
                p.tm(n) * tm_factor,
            )
            * inst
        )
        return base, mod

    def scale_parameters(
        self,
        cpi0_factor: float = 1.0,
        t2_factor: float = 1.0,
        tm_factor: float = 1.0,
        tsyn_factor: float = 1.0,
        label: str | None = None,
    ) -> WhatIfPrediction:
        """Predict the impact of scaling any mix of machine parameters."""
        p = self.analysis.params
        sync = self.analysis.sync
        baseline: dict[int, float] = {}
        predicted: dict[int, float] = {}
        for n, rec in self.base_runs.items():
            measured = rec.counters.cycles
            model_base, model_mod = self._model_cycles(n, cpi0_factor, t2_factor, tm_factor)
            delta = model_mod - model_base
            if tsyn_factor != 1.0 and n in sync.tsyn_by_n:
                ntsyn = rec.counters.store_exclusive_to_shared
                delta += ntsyn * sync.tsyn_by_n[n] * (tsyn_factor - 1.0)
            if cpi0_factor != 1.0 and n in sync.tsyn_by_n:
                # Eq. 10: the per-fetchop instruction also runs at cpi0.
                ntsyn = rec.counters.store_exclusive_to_shared
                delta += ntsyn * p.cpi0 * (cpi0_factor - 1.0)
            baseline[n] = measured
            predicted[n] = max(0.0, measured + delta)
        return WhatIfPrediction(
            label=label
            or (
                f"cpi0 x{cpi0_factor:g}, t2 x{t2_factor:g}, "
                f"tm x{tm_factor:g}, tsyn x{tsyn_factor:g}"
            ),
            baseline=baseline,
            predicted=predicted,
        )

    # -- L2 capacity (Eq. 11) ---------------------------------------------------------

    def l2_miss_rate_with_factor(self, n: int, k: float) -> float:
        """Predicted L2 *miss* rate (per L1 miss) at (s0, n) with a k-times L2.

        Eq. 11 keeps the coherence component and replaces the uniprocessor
        component with the hit rate of a 1/k-size data set: growing the
        cache by k is like shrinking the data by k.
        """
        if k <= 0:
            raise InsufficientDataError("k must be positive")
        coh = self.analysis.cache.coherence(n)
        surrogate = interpolate_uniproc(self.uniproc, self.analysis.s0 / (n * k))
        uni_component = 1.0 - surrogate.l2_hit_rate
        return clamp(coh + uni_component, 0.0, 1.0)

    def scale_l2(self, k: float, label: str | None = None) -> WhatIfPrediction:
        """Predict cycles with the L2 grown by ``k`` (no re-run, per the paper)."""
        p = self.analysis.params
        baseline: dict[int, float] = {}
        predicted: dict[int, float] = {}
        for n, rec in self.base_runs.items():
            c = rec.counters
            measured = c.cycles
            inst = c.graduated_instructions
            rates_now = MemoryRates.from_counters(c)
            new_missrate = self.l2_miss_rate_with_factor(n, k)
            rates_new = MemoryRates(
                rates_now.l1_hit_rate, clamp(1.0 - new_missrate, 0.0, 1.0), rates_now.m_frac
            )
            model_base = cpi_from_rates(p.cpi0, p.t2, p.tm(n), rates_now) * inst
            model_new = cpi_from_rates(p.cpi0, p.t2, p.tm(n), rates_new) * inst
            baseline[n] = measured
            predicted[n] = max(0.0, measured + (model_new - model_base))
        return WhatIfPrediction(
            label=label or f"L2 x{k:g}",
            baseline=baseline,
            predicted=predicted,
            note="miss-rate estimate only; the application is not re-run",
        )

    def new_sync_primitive(self, tsyn_new: float, label: str | None = None) -> WhatIfPrediction:
        """Predict cycles under a synchronization primitive with latency ``tsyn_new``.

        Per the paper, "it is harder to predict the actual performance
        change because synchronization performance may impact load
        imbalance" — the prediction only adjusts the spin-free sync cost.
        """
        p = self.analysis.params
        sync = self.analysis.sync
        baseline: dict[int, float] = {}
        predicted: dict[int, float] = {}
        for n, rec in self.base_runs.items():
            measured = rec.counters.cycles
            ntsyn = rec.counters.store_exclusive_to_shared
            old = ntsyn * (p.cpi0 + sync.tsyn_by_n.get(n, 0.0))
            new = ntsyn * (p.cpi0 + tsyn_new)
            baseline[n] = measured
            predicted[n] = max(0.0, measured + (new - old))
        return WhatIfPrediction(
            label=label or f"sync primitive tsyn={tsyn_new:g}",
            baseline=baseline,
            predicted=predicted,
            note="does not model the interaction with load imbalance",
        )
