"""Sensitivity analysis: how fragile are the model's conclusions?

The paper is explicit that Scal-Tool is a *rough* quantification ("it is
possibly unrealistic to expect the tool to quantify with high accuracy
the cost of each bottleneck").  This module makes the roughness
measurable: perturb each estimated input — cpi0, t2, tm(n), tsyn(n),
cpi_imb, the compulsory miss rate — by a relative amount and rebuild the
bottleneck curves, reporting how the isolated costs move.

The headline output per input is an **elasticity**: the relative change of
the MP estimate at the largest processor count per unit relative change of
the input.  Inputs with |elasticity| >> 1 are the ones a user should
measure most carefully.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..errors import InsufficientDataError
from ..runner.campaign import CampaignData
from ..runner.engine import Executor, SerialExecutor
from ..units import clamp
from .bottlenecks import build_curves, cpi_inf_by_n, cpi_infinf_by_n
from .scaltool import ScalToolAnalysis
from .sync_analysis import analyze_sync

__all__ = ["SensitivityResult", "analyze_sensitivity", "PERTURBABLE"]

#: The estimated inputs the analysis can perturb.
PERTURBABLE = ("cpi0", "t2", "tm", "tsyn", "cpi_imb", "compulsory")


@dataclass(frozen=True)
class SensitivityResult:
    """Effect of one perturbation on the rebuilt curves."""

    parameter: str
    delta: float  # relative perturbation applied (+0.1 = +10%)
    mp_cost_base: float
    mp_cost_perturbed: float
    l2lim_base: float
    l2lim_perturbed: float

    @property
    def mp_change(self) -> float:
        if self.mp_cost_base == 0:
            return 0.0
        return self.mp_cost_perturbed / self.mp_cost_base - 1.0

    @property
    def elasticity(self) -> float:
        """d(MP)/MP per d(param)/param at the largest measured count."""
        return self.mp_change / self.delta if self.delta else 0.0

    def row(self) -> dict:
        return {
            "parameter": self.parameter,
            "delta": f"{self.delta:+.0%}",
            "MP estimate": self.mp_cost_perturbed,
            "MP change": self.mp_change,
            "elasticity": self.elasticity,
        }


def _perturbed_analysis(
    analysis: ScalToolAnalysis,
    campaign: CampaignData,
    parameter: str,
    delta: float,
) -> ScalToolAnalysis:
    """Rebuild the analysis with one input scaled by (1 + delta)."""
    if parameter not in PERTURBABLE:
        raise InsufficientDataError(
            f"unknown parameter {parameter!r}; expected one of {PERTURBABLE}"
        )
    out = copy.deepcopy(analysis)
    factor = 1.0 + delta
    if parameter == "cpi0":
        out.params.cpi0 *= factor
    elif parameter == "t2":
        out.params.t2 *= factor
    elif parameter == "tm":
        out.params.tm1 *= factor
        out.params.tm_by_n = {n: v * factor for n, v in out.params.tm_by_n.items()}
    elif parameter == "compulsory":
        out.cache.compulsory = clamp(out.cache.compulsory * factor, 0.0, 1.0)
        out.cache.l2hitr_inf_by_n = {
            n: clamp(1.0 - out.cache.compulsory - out.cache.coherence_by_n[n], 0.0, 1.0)
            for n in out.cache.l2hitr_inf_by_n
        }

    base_runs = {n: r.without_ground_truth() for n, r in campaign.base_runs().items()}
    sync_kernel = {n: r.without_ground_truth() for n, r in campaign.sync_kernel_runs().items()}
    spin_kernel = {n: r.without_ground_truth() for n, r in campaign.spin_kernel_runs().items()}

    sync = analyze_sync(
        base_runs,
        sync_kernel,
        spin_kernel,
        out.params.cpi0,
        cpi_inf_by_n(base_runs, out.params, out.cache),
        cpi_infinf_by_n(base_runs, out.params, out.cache),
    )
    if parameter == "tsyn":
        sync.tsyn_by_n = {n: v * factor for n, v in sync.tsyn_by_n.items()}
    elif parameter == "cpi_imb":
        sync.cpi_imb *= factor
    if parameter in ("tsyn", "cpi_imb"):
        # re-solve the fractions with the perturbed kernel-derived inputs
        sync = _resolve_fractions(out, base_runs, sync)
    out.sync = sync
    out.curves = build_curves(base_runs, out.params, out.cache, sync)
    return out


def _perturb_apply(
    item: tuple[ScalToolAnalysis, CampaignData, str, float],
) -> ScalToolAnalysis:
    """Executor task body (module-level so parallel maps can pickle it)."""
    return _perturbed_analysis(*item)


def _resolve_fractions(analysis, base_runs, sync):
    """Recompute Eq. 9/10 with perturbed tsyn / cpi_imb."""
    from ..units import safe_div

    p = analysis.params
    inf = cpi_inf_by_n(base_runs, p, analysis.cache)
    infinf = cpi_infinf_by_n(base_runs, p, analysis.cache)
    for n in sorted(base_runs):
        c = base_runs[n].counters
        tsyn = sync.tsyn_by_n.get(n, 0.0)
        cpi_sync = sync.cpi_sync_by_n.get(n, sync.cpi_imb)
        cost_syn = c.store_exclusive_to_shared * (p.cpi0 + tsyn)
        frac_syn = clamp(safe_div(cost_syn, cpi_sync * c.graduated_instructions), 0.0, 1.0)
        denom = sync.cpi_imb - infinf[n]
        if abs(denom) < 1e-9 or n == 1:
            frac_imb = 0.0
        else:
            frac_imb = (inf[n] - infinf[n] * (1.0 - frac_syn) - cpi_sync * frac_syn) / denom
            frac_imb = clamp(frac_imb, 0.0, 1.0 - frac_syn)
        sync.cost_syn_by_n[n] = cost_syn
        sync.frac_syn_by_n[n] = frac_syn
        sync.frac_imb_by_n[n] = frac_imb
    return sync


@dataclass
class SensitivityReport:
    """All perturbations at one probe count."""

    workload: str
    probe_n: int
    results: list[SensitivityResult] = field(default_factory=list)

    def most_sensitive(self) -> str:
        return max(self.results, key=lambda r: abs(r.elasticity)).parameter

    def rows(self) -> list[dict]:
        return [r.row() for r in self.results]

    def summary(self) -> str:
        from ..viz.tables import format_table

        return (
            format_table(self.rows(), title=f"{self.workload}: MP-estimate sensitivity at n={self.probe_n}")
            + f"\nmost sensitive input: {self.most_sensitive()}"
        )


def analyze_sensitivity(
    analysis: ScalToolAnalysis,
    campaign: CampaignData,
    delta: float = 0.10,
    parameters: tuple[str, ...] = PERTURBABLE,
    probe_n: int | None = None,
    executor: Executor | None = None,
) -> SensitivityReport:
    """Perturb each input by ``delta`` and report the MP-estimate movement.

    The (independent) perturbations run through the shared executor;
    passing a :class:`~repro.runner.engine.ParallelExecutor` fans them out
    across workers with the report order unchanged.  Without one they run
    in this process: each is arithmetic on stored results, far cheaper than
    starting a pool.
    """
    if not (0.0 < abs(delta) < 1.0):
        raise InsufficientDataError("delta must be a nonzero relative perturbation below 1")
    n = probe_n if probe_n is not None else analysis.curves.processor_counts[-1]
    if n not in analysis.curves.base:
        raise InsufficientDataError(f"no measured point at n={n}")
    report = SensitivityReport(workload=analysis.workload, probe_n=n)
    executor = executor or SerialExecutor()
    perturbed_all = executor.map(
        _perturb_apply, [(analysis, campaign, p, delta) for p in parameters]
    )
    for parameter, perturbed in zip(parameters, perturbed_all):
        report.results.append(
            SensitivityResult(
                parameter=parameter,
                delta=delta,
                mp_cost_base=analysis.curves.mp_cost(n),
                mp_cost_perturbed=perturbed.curves.mp_cost(n),
                l2lim_base=analysis.curves.l2lim_cost[n],
                l2lim_perturbed=perturbed.curves.l2lim_cost[n],
            )
        )
    return report
