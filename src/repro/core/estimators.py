"""Parameter estimation (paper Sections 2.2–2.3).

The pipeline, exactly as the paper prescribes:

1. **cpi0, first pass** (Lubeck's method): the overall CPI of the
   uniprocessor run whose data set fits the L1 — biased upward by the
   compulsory misses that run still takes.
2. **t2, tm(1)**: least squares over the uniprocessor (cpi, h2, hm)
   triplets, restricted to data-set sizes that *overflow the L2* (the
   paper finds tm unstable otherwise).  cpi0 is held fixed at the
   first-pass value; the design matrix is [h2 hm] and the target
   cpi − cpi0.
3. **cpi0, unbiased** (Eq. 2): subtract the t2/tm cycles the compulsory
   misses of the small run contributed:
   cpi0 = cpi0_biased − h2_small·t2 − hm_small·tm.
4. **tm(n)**: invert Eq. 1 at the base size for every processor count.

Diagnostics (residuals, triplet counts, any clamping) ride along in
:class:`ParameterEstimates` so analyses can report estimation quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EstimationError, InsufficientDataError
from ..obs import runtime as obs
from ..obs.diagnostics import (
    FitDiagnostics,
    linear_fit_diagnostics,
    solve_diagnostics,
    solve_nonnegative,
)
from ..runner.records import RunRecord
from .model import solve_tm

__all__ = [
    "ParameterEstimates",
    "estimate_cpi0_biased",
    "fit_t2_tm",
    "adjust_cpi0",
    "estimate_tm_by_n",
    "estimate_parameters",
    "overflow_sizes",
]

# A data set must exceed the L2 by this factor before its uniprocessor run
# is used as a regression triplet (Section 2.3: "we use only data set sizes
# that overflow the L2 cache").
L2_OVERFLOW_FACTOR = 1.2


@dataclass
class ParameterEstimates:
    """Everything Sections 2.2–2.3 deliver, plus estimation diagnostics."""

    cpi0_biased: float
    cpi0: float
    t2: float
    tm1: float
    tm_by_n: dict[int, float] = field(default_factory=dict)
    n_triplets: int = 0
    fit_residual_rms: float = 0.0
    triplet_sizes: list[int] = field(default_factory=list)
    small_run_size: int = 0
    warnings: list[str] = field(default_factory=list)
    #: Graded quality evidence for the fit and the per-n solve
    #: (:class:`repro.obs.diagnostics.FitDiagnostics`); rolled into the
    #: analysis-level health grade by ``ScalTool.analyze``.
    diagnostics: list[FitDiagnostics] = field(default_factory=list)

    def tm(self, n: int) -> float:
        if n == 1 and 1 not in self.tm_by_n:
            return self.tm1
        try:
            return self.tm_by_n[n]
        except KeyError:
            raise InsufficientDataError(
                f"tm not estimated for n={n}; have {sorted(self.tm_by_n)}"
            ) from None

    def summary(self) -> str:
        lines = [
            f"cpi0 (biased / unbiased): {self.cpi0_biased:.4f} / {self.cpi0:.4f}",
            f"t2:                        {self.t2:.2f} cycles",
            f"tm(1):                     {self.tm1:.2f} cycles",
            f"fit triplets:              {self.n_triplets} (rms residual {self.fit_residual_rms:.4f})",
        ]
        for n in sorted(self.tm_by_n):
            lines.append(f"tm({n}):".ljust(27) + f"{self.tm_by_n[n]:.2f} cycles")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def smallest_run(uniproc_runs: dict[int, RunRecord]) -> RunRecord:
    """The uniprocessor run with the smallest data set."""
    if not uniproc_runs:
        raise InsufficientDataError("no uniprocessor runs")
    return uniproc_runs[min(uniproc_runs)]


def cpi0_run(uniproc_runs: dict[int, RunRecord], l2_bytes: int) -> RunRecord:
    """Pick the uniprocessor run used as the cpi0 measurement point.

    Lubeck (and the paper) take the smallest data set that fits the L1.
    On the scaled substrate that choice breaks down for barrier-dense
    applications: capacities shrink with the scale factor but per-barrier
    costs do not, so an L1-sized run is dominated by synchronization and
    its CPI wildly overestimates cpi0 (the same bias exists on real
    hardware, just weaker).  We therefore take the *minimum-CPI* run among
    the sizes below the L2-overflow threshold — the least-overhead point
    between miss-dominated large sizes and fixed-overhead-dominated tiny
    sizes.  For workloads whose overheads scale with work the two
    policies pick the same run.  (Documented as a methodology adaptation
    in DESIGN.md.)
    """
    if not uniproc_runs:
        raise InsufficientDataError("no uniprocessor runs")
    small_sizes = [s for s in uniproc_runs if s < L2_OVERFLOW_FACTOR * l2_bytes]
    candidates = small_sizes or list(uniproc_runs)
    best = min(candidates, key=lambda s: uniproc_runs[s].counters.cpi)
    return uniproc_runs[best]


def estimate_cpi0_biased(uniproc_runs: dict[int, RunRecord], l2_bytes: int) -> float:
    """First-pass (biased) cpi0: the CPI of the cpi0 measurement run."""
    return cpi0_run(uniproc_runs, l2_bytes).counters.cpi


def overflow_sizes(uniproc_runs: dict[int, RunRecord], l2_bytes: int) -> list[int]:
    """Sizes whose uniprocessor runs qualify as regression triplets."""
    return sorted(s for s in uniproc_runs if s >= L2_OVERFLOW_FACTOR * l2_bytes)


def fit_t2_tm(
    uniproc_runs: dict[int, RunRecord],
    cpi0: float,
    l2_bytes: int,
    overflow_only: bool = True,
) -> tuple[float, float, dict]:
    """Least-squares fit of (t2, tm) from uniprocessor triplets (Eq. 3).

    Returns ``(t2, tm, diagnostics)``.  ``overflow_only=False`` disables
    the paper's L2-overflow filter — used by the ablation that shows why
    the filter matters.
    """
    sizes = (
        overflow_sizes(uniproc_runs, l2_bytes)
        if overflow_only
        else sorted(uniproc_runs)
    )
    if len(sizes) < 2:
        raise InsufficientDataError(
            f"need >= 2 triplet sizes to fit (t2, tm); have {len(sizes)}",
            inputs={
                "triplet_sizes": sizes,
                "available_sizes": sorted(uniproc_runs),
                "l2_overflow_threshold": int(L2_OVERFLOW_FACTOR * l2_bytes),
            },
        )
    rows, targets = [], []
    for s in sizes:
        c = uniproc_runs[s].counters
        rows.append([c.h2, c.hm])
        targets.append(c.cpi - cpi0)
    design = np.asarray(rows, dtype=float)
    y = np.asarray(targets, dtype=float)
    try:
        solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            f"(t2, tm) least-squares fit did not converge: {exc}",
            inputs={"triplet_sizes": sizes, "design_rows": design.tolist()},
        ) from exc
    constrained = False
    if rank < 2 or solution[0] < 0 or solution[1] < 0:
        # Latencies are physical quantities, and deep-overflow triplets can
        # be (near-)collinear in (h2, hm): t2 is then not separately
        # identifiable and the unconstrained fit may go negative.  Refit
        # under t2, tm >= 0.  A rank-deficient design keeps one column —
        # the one with the larger column·target product, t2 on a tie — so
        # the unidentifiable share lands on that latency, which is harmless
        # for every downstream use that evaluates the same (h2, hm) mix.
        try:
            t2, tm, _ = solve_nonnegative(design, np.clip(y, 0.0, None), ("t2", "tm"))
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise EstimationError(
                f"constrained (t2, tm) refit failed: {exc}",
                inputs={"triplet_sizes": sizes, "design_rows": design.tolist()},
            ) from exc
        solution = np.array([t2, tm])
        constrained = True
    t2, tm = float(solution[0]), float(solution[1])
    residuals = y - design @ solution
    fit_check = linear_fit_diagnostics(
        name="t2_tm_fit",
        design=design,
        y=y,
        estimates={"t2": t2, "tm": tm},
        constrained=constrained,
        rank_deficient=bool(rank < 2),
        overflow_filter_dropped=not overflow_only,
        sizes=sizes,
    )
    diagnostics = {
        "sizes": sizes,
        "rms": float(np.sqrt(np.mean(residuals**2))),
        "residuals": residuals.tolist(),
        "constrained": constrained,
        "rank_deficient": bool(rank < 2),
        "fit_check": fit_check,
    }
    return t2, tm, diagnostics


def adjust_cpi0(
    cpi0_biased: float,
    small_run: RunRecord,
    t2: float,
    tm: float,
) -> float:
    """Equation 2: remove the compulsory-miss cycles from the biased cpi0."""
    c = small_run.counters
    return cpi0_biased - c.h2 * t2 - c.hm * tm


def estimate_tm_by_n(
    base_runs: dict[int, RunRecord],
    cpi0: float,
    t2: float,
    tm1: float,
    warnings: list[str] | None = None,
    tm_growth: dict[int, float] | None = None,
    solve_info: dict | None = None,
) -> dict[int, float]:
    """Section 2.3's last step: tm(n) from the base-size run at each n.

    On imbalance-heavy applications the inversion of Eq. 1 can become
    unidentifiable at high processor counts: cheap spin instructions
    dilute the measured CPI below cpi0 and the apparent tm goes negative.
    The fallback extrapolates the uniprocessor tm by the sync kernel's
    tsyn(n)/tsyn(1) growth — both latencies are round trips through the
    same interconnect, and the paper itself estimates tsyn "proceeding
    like we did to calculate tm".  Every fallback is recorded as a
    warning; without a growth profile the estimate clamps to tm(1)
    (memory is never faster on a larger machine).

    ``solve_info``, when given, is filled with the per-n evidence the
    diagnostics layer grades: ``per_n`` (final tm and the relative Eq. 1
    reconstruction error at that n) and ``fallbacks`` (counts where the
    interconnect floor replaced the solved value).
    """
    out: dict[int, float] = {}
    per_n: dict[int, dict] = {}
    fallbacks: list[int] = []
    for n in sorted(base_runs):
        c = base_runs[n].counters
        try:
            tm = solve_tm(c.cpi, cpi0, c.h2, c.hm, t2)
        except Exception:
            tm = float("nan")
        floor = max(tm1, t2, 1.0)
        if tm_growth and n in tm_growth:
            base_growth = tm_growth.get(1) or min(tm_growth.values()) or 1.0
            if base_growth > 0:
                floor = max(floor, tm1 * tm_growth[n] / base_growth)
        if not np.isfinite(tm) or tm < floor:
            if warnings is not None and n > 1:
                warnings.append(
                    f"tm({n}) unidentifiable or below the interconnect floor "
                    f"(estimate {tm:.2f}); using {floor:.2f}"
                )
            if n > 1:
                fallbacks.append(n)
            tm = floor
        out[n] = tm
        model_cpi = cpi0 + c.h2 * t2 + c.hm * tm
        per_n[n] = {
            "tm": tm,
            "residual_rel": abs(model_cpi - c.cpi) / c.cpi if c.cpi > 0 else 0.0,
        }
    if solve_info is not None:
        solve_info["per_n"] = per_n
        solve_info["fallbacks"] = fallbacks
    return out


def estimate_parameters(
    uniproc_runs: dict[int, RunRecord],
    base_runs: dict[int, RunRecord],
    l1_bytes: int,
    l2_bytes: int,
    tm_growth: dict[int, float] | None = None,
) -> ParameterEstimates:
    """The full Sections 2.2–2.3 pipeline.

    ``tm_growth`` is an optional interconnect-latency growth profile
    (tsyn(n) from the sync kernel) used only as the tm(n) fallback floor.
    """
    warnings: list[str] = []
    tracer = obs.tracer()
    with tracer.span("estimators.cpi0_biased"):
        small = cpi0_run(uniproc_runs, l2_bytes)
        if small.size_bytes > l2_bytes:
            warnings.append(
                f"cpi0 run ({small.size_bytes} B) exceeds the L2 ({l2_bytes} B); "
                "cpi0 may retain cache-stall bias"
            )
        cpi0_biased = small.counters.cpi
    with tracer.span("estimators.fit_t2_tm", runs=len(uniproc_runs)):
        if len(overflow_sizes(uniproc_runs, l2_bytes)) >= 2:
            t2, tm1, diag = fit_t2_tm(uniproc_runs, cpi0_biased, l2_bytes)
        else:
            # Too few L2-overflowing sizes to fit the paper's way.  Rather
            # than fail the whole analysis, fit over every size — the
            # diagnostics layer marks this `suspect` (tm is unstable on
            # L2-resident sizes), so the number still arrives but cannot
            # be mistaken for a trustworthy one.
            t2, tm1, diag = fit_t2_tm(
                uniproc_runs, cpi0_biased, l2_bytes, overflow_only=False
            )
            warnings.append(
                "fewer than 2 data-set sizes overflow the L2; "
                "(t2, tm) fitted over all sizes (suspect)"
            )
        if t2 < 0 or tm1 < 0:
            warnings.append(f"negative latency fit (t2={t2:.2f}, tm={tm1:.2f}); data too noisy")
    with tracer.span("estimators.adjust_cpi0"):
        cpi0 = adjust_cpi0(cpi0_biased, small, t2, tm1)
    with tracer.span("estimators.tm_by_n", runs=len(base_runs)):
        solve_info: dict = {}
        tm_by_n = estimate_tm_by_n(
            base_runs, cpi0, t2, tm1, warnings, tm_growth, solve_info=solve_info
        )
    fit_check: FitDiagnostics = diag["fit_check"]
    if len(diag["sizes"]) < 3 and not fit_check.details.get("overflow_filter_dropped"):
        # n_points < 3 already warns inside the rule table; this names
        # the cause (the paper's own filter) in the analysis warnings.
        warnings.append(
            f"only {len(diag['sizes'])} L2-overflowing sizes feed the (t2, tm) fit; "
            "residuals carry no quality evidence"
        )
    solve_check = solve_diagnostics(
        solve_info.get("per_n", {}), solve_info.get("fallbacks", [])
    )
    reg = obs.registry()
    reg.set_gauge("estimators.cpi0", cpi0)
    reg.set_gauge("estimators.t2", t2)
    reg.set_gauge("estimators.tm1", tm1)
    reg.set_gauge("estimators.fit_residual_rms", diag["rms"])
    if fit_check.r_squared is not None:
        reg.set_gauge("diagnostics.fit.r_squared", fit_check.r_squared)
    if warnings:
        reg.inc("estimators.warnings", len(warnings))
    return ParameterEstimates(
        cpi0_biased=cpi0_biased,
        cpi0=cpi0,
        t2=t2,
        tm1=tm1,
        tm_by_n=tm_by_n,
        n_triplets=len(diag["sizes"]),
        fit_residual_rms=diag["rms"],
        triplet_sizes=diag["sizes"],
        small_run_size=small.size_bytes,
        warnings=warnings,
        diagnostics=[fit_check, solve_check],
    )
