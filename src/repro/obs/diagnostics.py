"""Estimator fit diagnostics: evidence that a Scal-Tool number is sound.

Every estimation step of the Section 2 pipeline produces a
:class:`FitDiagnostics` record alongside its numbers:

* the (t2, tm) least-squares fit (Eq. 3) — residuals, R², the condition
  number of the [h2 hm] design matrix, and bootstrap confidence
  intervals for the fitted latencies;
* the per-n inversion of Eq. 1 for tm(n) — per-count solve residuals,
  fallback count, and a monotonicity check (memory is never faster on a
  larger machine);
* the compulsory-miss plateau of Figure 3-a — how many sizes actually
  support the plateau and whether the hit-rate curve has flattened;
* range sanity — hit rates in [0, 1], non-negative latencies, positive
  CPIs, the Eq. 9 fractions summing to at most ~1.

Records are *graded* (``ok`` / ``warn`` / ``suspect``) by a pure rule
table keyed on the record's ``kind``.  The grade is always derived from
the stored numeric evidence, never asserted free-hand, so a persisted
record can be re-validated later (``scaltool doctor``) by re-running the
same rules over the same evidence — :func:`revalidate`.

The per-analysis roll-up is :class:`AnalysisDiagnostics`; its ``health``
is the worst grade across all checks and is what
``scaltool analyze`` prints and the service exports as the
``diagnostics.health`` gauge family.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "GRADE_OK",
    "GRADE_WARN",
    "GRADE_SUSPECT",
    "GRADES",
    "FitDiagnostics",
    "AnalysisDiagnostics",
    "worst_grade",
    "grade_score",
    "apply_rules",
    "revalidate",
    "linear_fit_diagnostics",
    "plateau_diagnostics",
    "solve_diagnostics",
    "sanity_diagnostics",
    "bootstrap_ci",
    "solve_nonnegative",
]

GRADE_OK = "ok"
GRADE_WARN = "warn"
GRADE_SUSPECT = "suspect"
#: Grades from best to worst; the roll-up takes the worst present.
GRADES = (GRADE_OK, GRADE_WARN, GRADE_SUSPECT)

_SCORE = {GRADE_OK: 0, GRADE_WARN: 1, GRADE_SUSPECT: 2}

# -- thresholds (one place, shared by build-time grading and `doctor`) --------

#: R² of the (t2, tm) fit below these grades warn / suspect.
R2_WARN = 0.95
R2_SUSPECT = 0.50
#: Condition number of the [h2 hm] design matrix.
COND_WARN = 1e6
COND_SUSPECT = 1e10
#: Bootstrap CI wider than this multiple of |estimate| is a warning.
CI_WIDTH_WARN = 2.0
#: Hit-rate slack when counting plateau support points.
PLATEAU_EPS = 0.01
#: Hit-rate gain at the small-size end that means the plateau was not reached.
PLATEAU_GAIN_WARN = 0.02
PLATEAU_GAIN_SUSPECT = 0.10
#: Relative per-n solve residual for tm(n).
SOLVE_RMS_WARN = 0.02
SOLVE_RMS_SUSPECT = 0.10
#: Relative tolerance for the tm(n) monotonicity check.
MONOTONE_TOL = 0.05
#: Tolerance on the Eq. 9 fraction budget (frac_syn + frac_imb <= 1).
FRAC_SUM_TOL = 1e-6

#: Blame evidence: modeled/measured cycle ratio per segment.  tm(n) is a
#: whole-run average, so a segment whose modeled stalls exceed its own
#: measured cycles by this much is absorbing another segment's latency.
OVERSHOOT_WARN = 1.05
OVERSHOOT_SUSPECT = 1.5
#: Blame evidence: residual share of the segment's cycles at the top count.
BLAME_RESIDUAL_WARN = 0.25

#: Model-suite evidence (repro.models): two independent models of the same
#: speedup curve disagreeing by this relative RMS is evidence one of them
#: (or the measurement) is wrong.
AGREE_RMS_WARN = 0.15
AGREE_RMS_SUSPECT = 0.35
#: Dominance calls closer than this relative margin are noise, not signal;
#: shares below the floor never decide a dominance mismatch.
AGREE_DOMINANCE_MARGIN = 1.25
AGREE_SHARE_FLOOR = 0.02
#: Predicted peak-speedup counts further apart than this factor disagree.
PEAK_RATIO_WARN = 4.0


def grade_score(grade: str) -> int:
    """Numeric severity (0 ok, 1 warn, 2 suspect) for gauges and ordering."""
    return _SCORE.get(grade, _SCORE[GRADE_SUSPECT])


def worst_grade(grades) -> str:
    """The worst grade present (``ok`` for an empty sequence)."""
    worst = GRADE_OK
    for g in grades:
        if grade_score(g) > grade_score(worst):
            worst = g
    return worst


@dataclass
class FitDiagnostics:
    """One estimation step's quality evidence, graded.

    ``kind`` selects the rule family (``linear_fit`` / ``plateau`` /
    ``solve`` / ``sanity``); ``equation`` points at the paper equation
    the step implements.  ``estimates`` holds the fitted values the
    confidence intervals in ``ci`` cover.  ``details`` is free-form
    numeric evidence the rules read.
    """

    name: str
    kind: str
    equation: str = ""
    grade: str = GRADE_OK
    n_points: int = 0
    r_squared: float | None = None
    residual_rms: float | None = None
    residuals: list[float] = field(default_factory=list)
    condition_number: float | None = None
    estimates: dict[str, float] = field(default_factory=dict)
    ci: dict[str, list[float]] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def flag(self, grade: str, message: str) -> None:
        """Record a finding and escalate the grade if it is worse."""
        self.flags.append(f"[{grade}] {message}")
        if grade_score(grade) > grade_score(self.grade):
            self.grade = grade

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FitDiagnostics":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class AnalysisDiagnostics:
    """Every check one analysis produced, plus the health roll-up."""

    checks: list[FitDiagnostics] = field(default_factory=list)

    @property
    def health(self) -> str:
        return worst_grade(c.grade for c in self.checks)

    def check(self, name: str) -> FitDiagnostics | None:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def add(self, check: FitDiagnostics) -> FitDiagnostics:
        self.checks.append(check)
        return check

    def all_flags(self) -> list[str]:
        return [f"{c.name}: {flag}" for c in self.checks for flag in c.flags]

    def summary(self) -> str:
        lines = [f"health: {self.health}"]
        for c in self.checks:
            bits = [f"{c.name} [{c.grade}]"]
            if c.r_squared is not None:
                bits.append(f"R2={c.r_squared:.4f}")
            if c.residual_rms is not None:
                bits.append(f"rms={c.residual_rms:.4g}")
            if c.condition_number is not None:
                bits.append(f"cond={c.condition_number:.3g}")
            for param, (lo, hi) in sorted(c.ci.items()):
                bits.append(f"{param}95%=[{lo:.2f}, {hi:.2f}]")
            lines.append("  " + " ".join(bits))
            for flag in c.flags:
                lines.append(f"    {flag}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"health": self.health, "checks": [c.to_dict() for c in self.checks]}

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisDiagnostics":
        return cls(checks=[FitDiagnostics.from_dict(c) for c in d.get("checks", [])])

    def publish(self, registry, telemetry=None) -> None:
        """Export ``diagnostics.*`` gauges to a metrics registry.

        ``registry`` is any object with ``set_gauge(name, value)`` (the
        obs session registry); ``telemetry`` additionally receives the
        labelled ``diagnostics.health{grade=...}`` gauge family used by
        the service ``/metrics`` endpoint.
        """
        registry.set_gauge("diagnostics.health", float(grade_score(self.health)))
        for grade in GRADES:
            count = sum(1 for c in self.checks if c.grade == grade)
            registry.set_gauge(f"diagnostics.checks.{grade}", float(count))
        fit = self.check("t2_tm_fit")
        if fit is not None:
            if fit.r_squared is not None:
                registry.set_gauge("diagnostics.fit.r_squared", fit.r_squared)
            if fit.condition_number is not None and np.isfinite(fit.condition_number):
                registry.set_gauge(
                    "diagnostics.fit.condition_number", fit.condition_number
                )
        if telemetry is not None:
            for grade in GRADES:
                telemetry.set_gauge(
                    "diagnostics.health",
                    1.0 if grade == self.health else 0.0,
                    grade=grade,
                )
            for c in self.checks:
                if c.r_squared is not None:
                    telemetry.set_gauge(
                        "diagnostics.r_squared", c.r_squared, check=c.name
                    )


# -- the rule table -----------------------------------------------------------


def _rules_linear_fit(fd: FitDiagnostics) -> None:
    if fd.n_points < 3:
        fd.flag(
            GRADE_WARN,
            f"only {fd.n_points} fit points for 2 unknowns; "
            "the fit is (nearly) exactly determined and residuals carry no evidence",
        )
    if fd.details.get("overflow_filter_dropped"):
        fd.flag(
            GRADE_SUSPECT,
            "fit includes L2-resident data-set sizes (overflow filter off); "
            "the paper finds tm unstable there",
        )
    if fd.details.get("rank_deficient"):
        fd.flag(GRADE_SUSPECT, "design matrix is rank deficient; t2 and tm are not separately identifiable")
    elif fd.details.get("constrained"):
        fd.flag(GRADE_WARN, "unconstrained fit went negative; refit under t2, tm >= 0")
    if fd.condition_number is not None:
        if not np.isfinite(fd.condition_number) or fd.condition_number > COND_SUSPECT:
            fd.flag(GRADE_SUSPECT, f"design matrix near singular (cond={fd.condition_number:.3g})")
        elif fd.condition_number > COND_WARN:
            fd.flag(GRADE_WARN, f"design matrix ill conditioned (cond={fd.condition_number:.3g})")
    if fd.r_squared is not None and fd.n_points >= 3:
        if fd.r_squared < R2_SUSPECT:
            fd.flag(GRADE_SUSPECT, f"fit explains little of the CPI variation (R2={fd.r_squared:.3f})")
        elif fd.r_squared < R2_WARN:
            fd.flag(GRADE_WARN, f"weak fit (R2={fd.r_squared:.3f})")
    for param, value in sorted(fd.estimates.items()):
        if value < 0:
            fd.flag(GRADE_SUSPECT, f"negative latency {param}={value:.3f}")
        interval = fd.ci.get(param)
        if interval and abs(value) > 0:
            lo, hi = interval
            if (hi - lo) > CI_WIDTH_WARN * abs(value):
                fd.flag(
                    GRADE_WARN,
                    f"{param} bootstrap 95% CI [{lo:.2f}, {hi:.2f}] is wide "
                    f"relative to the estimate {value:.2f}",
                )


def _rules_plateau(fd: FitDiagnostics) -> None:
    compulsory = fd.estimates.get("compulsory")
    if compulsory is not None and not (0.0 <= compulsory <= 1.0):
        fd.flag(GRADE_SUSPECT, f"compulsory miss rate out of [0, 1]: {compulsory:.4f}")
    if fd.n_points < 2:
        fd.flag(GRADE_WARN, "hit-rate curve has a single size; plateau cannot be confirmed")
        return
    if fd.details.get("plateau_points", 0) < 2:
        fd.flag(GRADE_WARN, "compulsory plateau supported by a single data-set size")
    gain = fd.details.get("head_gain", 0.0)
    if gain > PLATEAU_GAIN_SUSPECT:
        fd.flag(
            GRADE_SUSPECT,
            f"hit rate still rising at the smallest size (+{gain:.3f}); plateau not reached",
        )
    elif gain > PLATEAU_GAIN_WARN:
        fd.flag(
            GRADE_WARN,
            f"hit rate not flat at the smallest size (+{gain:.3f}); plateau uncertain",
        )


def _rules_solve(fd: FitDiagnostics) -> None:
    fallbacks = fd.details.get("fallbacks", [])
    if fallbacks:
        fd.flag(
            GRADE_WARN,
            f"tm unidentifiable at n={fallbacks}; interconnect-floor fallback used",
        )
    violations = fd.details.get("monotone_violations", [])
    if violations:
        grade = GRADE_SUSPECT if len(violations) * 2 > max(1, fd.n_points - 1) else GRADE_WARN
        fd.flag(grade, f"tm(n) decreases at n={violations}; memory never gets faster with scale")
    if fd.residual_rms is not None:
        if fd.residual_rms > SOLVE_RMS_SUSPECT:
            fd.flag(
                GRADE_SUSPECT,
                f"Eq. 1 solve residual rms {fd.residual_rms:.3f} exceeds {SOLVE_RMS_SUSPECT:.0%} of CPI",
            )
        elif fd.residual_rms > SOLVE_RMS_WARN:
            fd.flag(GRADE_WARN, f"Eq. 1 solve residual rms {fd.residual_rms:.3f}")


def _rules_sanity(fd: FitDiagnostics) -> None:
    for violation in fd.details.get("violations", []):
        fd.flag(violation.get("grade", GRADE_SUSPECT), violation.get("message", "range violation"))


def _rules_scaling_loss(fd: FitDiagnostics) -> None:
    """Blame-vertex evidence quality (see analysis/blame/detect.py)."""
    if fd.n_points < 3:
        fd.flag(GRADE_WARN, f"loss measured over only {fd.n_points} processor counts")
    overshoot = fd.details.get("max_overshoot", 0.0)
    if overshoot > OVERSHOOT_SUSPECT:
        fd.flag(
            GRADE_SUSPECT,
            f"modeled cycles exceed measured by {overshoot:.2f}x at "
            f"n={fd.details.get('overshoot_counts', [])}; whole-run tm(n) "
            "average misattributes other segments' latency here",
        )
    elif overshoot > OVERSHOOT_WARN:
        fd.flag(GRADE_WARN, f"modeled cycles exceed measured by {overshoot:.2f}x")
    residual = fd.details.get("residual_fraction_top", 0.0)
    if residual > BLAME_RESIDUAL_WARN:
        fd.flag(
            GRADE_WARN,
            f"{residual:.0%} of top-count cycles are unmodeled residual",
        )
    if fd.details.get("loss_sign_changes", 0) > 1:
        fd.flag(GRADE_WARN, "cycle loss oscillates across the sweep; trend is noisy")


def _rules_model_fit(fd: FitDiagnostics) -> None:
    """Closed-form scalability-model fit quality (see repro.models)."""
    if fd.n_points < 4:
        fd.flag(
            GRADE_WARN,
            f"only {fd.n_points} speedup points for 2 coefficients; "
            "the fit is (nearly) exactly determined",
        )
    clamped = fd.details.get("clamped", [])
    if clamped:
        fd.flag(
            GRADE_WARN,
            f"unconstrained fit went negative for {', '.join(clamped)}; "
            "refit under non-negativity",
        )
    superlinear = fd.details.get("superlinear_counts", [])
    if superlinear:
        fd.flag(
            GRADE_WARN,
            f"measured speedup exceeds n at n={superlinear}; closed-form "
            "models bound speedup by n and cannot represent the cache gain",
        )
    if fd.r_squared is not None:
        if fd.r_squared < R2_SUSPECT:
            fd.flag(
                GRADE_SUSPECT,
                f"model explains little of the speedup variation (R2={fd.r_squared:.3f})",
            )
        elif fd.r_squared < R2_WARN:
            fd.flag(GRADE_WARN, f"weak model fit (R2={fd.r_squared:.3f})")
    for param, value in sorted(fd.estimates.items()):
        interval = fd.ci.get(param)
        if interval and abs(value) > 0:
            lo, hi = interval
            if (hi - lo) > CI_WIDTH_WARN * abs(value):
                fd.flag(
                    GRADE_WARN,
                    f"{param} bootstrap 95% CI [{lo:.4f}, {hi:.4f}] is wide "
                    f"relative to the estimate {value:.4f}",
                )


def _rules_model_agreement(fd: FitDiagnostics) -> None:
    """Cross-validation of the model suite against Scal-Tool's decomposition.

    The evidence (stored in ``details``) is the per-model penalty shares at
    the top measured count plus cross-model residuals; the grade is what
    ``scaltool models compare`` reports and ``doctor`` re-derives.
    """
    d = fd.details
    mismatch = d.get("dominance_mismatch")
    if mismatch:
        shares = d.get("shares", {})
        margin = d.get("dominance_margin", 0.0)
        decisive = (
            margin >= AGREE_DOMINANCE_MARGIN
            and d.get("dominant_share", 0.0) >= AGREE_SHARE_FLOOR
        )
        fd.flag(
            GRADE_SUSPECT if decisive else GRADE_WARN,
            f"dominant bottleneck disagrees at n={d.get('top_n', '?')}: "
            f"USL says {d.get('dominant_usl', '?')}, Scal-Tool says "
            f"{d.get('dominant_scaltool', '?')} (shares: {shares})",
        )
    rms = d.get("cross_model_rms")
    if rms is not None:
        if rms > AGREE_RMS_SUSPECT:
            fd.flag(
                GRADE_SUSPECT,
                f"models disagree on the speedup curve (relative rms {rms:.3f})",
            )
        elif rms > AGREE_RMS_WARN:
            fd.flag(GRADE_WARN, f"models drift apart (relative rms {rms:.3f})")
    ratio = d.get("peak_ratio")
    if ratio is not None and (ratio > PEAK_RATIO_WARN or ratio < 1.0 / PEAK_RATIO_WARN):
        fd.flag(
            GRADE_WARN,
            f"predicted peak-speedup counts differ by {ratio:.2f}x "
            f"({d.get('peaks', {})})",
        )
    if not d.get("has_decomposition", True):
        fd.flag(
            GRADE_WARN,
            "no Scal-Tool decomposition for this dataset; agreement checked "
            "across closed-form models only",
        )


_RULES = {
    "linear_fit": _rules_linear_fit,
    "plateau": _rules_plateau,
    "solve": _rules_solve,
    "sanity": _rules_sanity,
    "scaling_loss": _rules_scaling_loss,
    "model_fit": _rules_model_fit,
    "model_agreement": _rules_model_agreement,
}


def apply_rules(fd: FitDiagnostics) -> FitDiagnostics:
    """Grade ``fd`` from its stored evidence (idempotent on a fresh record)."""
    rules = _RULES.get(fd.kind)
    if rules is None:
        fd.flag(GRADE_WARN, f"no grading rules for kind {fd.kind!r}")
        return fd
    rules(fd)
    return fd


def revalidate(d: dict) -> FitDiagnostics:
    """Re-grade a persisted check from its evidence alone.

    The stored ``grade``/``flags`` are discarded and recomputed, so a
    record whose evidence was edited (or graded by older rules) is
    re-judged by the current rule table — this is what
    ``scaltool doctor`` runs over a stored result.
    """
    fd = FitDiagnostics.from_dict(d)
    fd.grade = GRADE_OK
    fd.flags = []
    return apply_rules(fd)


# -- evidence builders --------------------------------------------------------


def bootstrap_ci(
    design: np.ndarray,
    y: np.ndarray,
    names: tuple[str, ...],
    n_boot: int = 200,
    seed: int = 20260806,
    alpha: float = 0.05,
) -> dict[str, list[float]]:
    """Percentile bootstrap CIs for an unconstrained least-squares fit.

    Deterministic (seeded) so analysis output is byte-stable.  Returns
    an empty dict when there are fewer than 3 rows (resampling two rows
    mostly yields singular draws) or when too few resamples solve.
    """
    n = len(y)
    if n < 3:
        return {}
    rng = np.random.default_rng(seed)
    samples: dict[str, list[float]] = {name: [] for name in names}
    for _ in range(n_boot):
        idx = rng.integers(0, n, n)
        sub = design[idx]
        if np.linalg.matrix_rank(sub) < design.shape[1]:
            continue
        try:
            sol, _, _, _ = np.linalg.lstsq(sub, y[idx], rcond=None)
        except np.linalg.LinAlgError:  # pragma: no cover - rank check above
            continue
        for name, value in zip(names, sol):
            samples[name].append(float(value))
    out: dict[str, list[float]] = {}
    for name, values in samples.items():
        if len(values) >= max(10, n_boot // 4):
            lo, hi = np.percentile(values, [100 * alpha / 2, 100 * (1 - alpha / 2)])
            out[name] = [float(lo), float(hi)]
    return out


def solve_nonnegative(
    design: np.ndarray, y: np.ndarray, names: tuple[str, str] = ("x0", "x1")
) -> tuple[float, float, list[str]]:
    """Two-column least squares under both coefficients >= 0.

    Returns the two coefficients and the ``names`` of those clamped to
    zero.  A full-rank design has one constrained optimum: the
    unconstrained solution when it is nonnegative, else the best of one
    column alone or neither.  A rank-deficient design has many equally
    good ones; its two-column (min-norm) split is never taken, and the
    column kept is Lawson–Hanson's first pick — the larger ``aⱼᵀy``, the
    first column on a tie — so results match ``scipy.optimize.nnls``.
    """
    sol, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank == 2 and sol[0] >= 0 and sol[1] >= 0:
        return float(sol[0]), float(sol[1]), []
    candidates: list[tuple[float, tuple[float, float], list[str]]] = []
    # first-column-only, second-column-only, and the all-zero fallback.
    for keep in (0, 1):
        col = design[:, keep : keep + 1]
        c, _, _, _ = np.linalg.lstsq(col, y, rcond=None)
        value = max(0.0, float(c[0]))
        params = (value, 0.0) if keep == 0 else (0.0, value)
        sse = float(np.sum((y - col[:, 0] * value) ** 2))
        candidates.append((sse, params, [names[1 - keep]]))
    candidates.append((float(np.sum(y**2)), (0.0, 0.0), list(names)))
    if rank < 2:
        # Both columns span one line, so they fit equally well up to
        # rounding: keep Lawson–Hanson's pick rather than the rounding's.
        del candidates[1 if design[:, 0] @ y >= design[:, 1] @ y else 0]
    sse, params, clamped = min(candidates, key=lambda c: c[0])
    return params[0], params[1], clamped


def linear_fit_diagnostics(
    name: str,
    design: np.ndarray,
    y: np.ndarray,
    estimates: dict[str, float],
    equation: str = "Eq. 3",
    constrained: bool = False,
    rank_deficient: bool = False,
    overflow_filter_dropped: bool = False,
    sizes: list[int] | None = None,
) -> FitDiagnostics:
    """Evidence + grade for a least-squares latency fit."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    solution = np.array([estimates[k] for k in estimates], dtype=float)
    residuals = y - design @ solution
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2)) if len(y) else 0.0
    if ss_tot > 0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        # All targets identical: R² is undefined; a perfect prediction is
        # still "explains everything", anything else explains nothing.
        r_squared = 1.0 if ss_res < 1e-12 else 0.0
    try:
        cond = float(np.linalg.cond(design))
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        cond = float("inf")
    fd = FitDiagnostics(
        name=name,
        kind="linear_fit",
        equation=equation,
        n_points=len(y),
        r_squared=r_squared,
        residual_rms=float(np.sqrt(np.mean(residuals**2))) if len(y) else 0.0,
        residuals=[float(r) for r in residuals],
        condition_number=cond,
        estimates={k: float(v) for k, v in estimates.items()},
        ci=bootstrap_ci(design, y, tuple(estimates)),
        details={
            "constrained": bool(constrained),
            "rank_deficient": bool(rank_deficient),
            "overflow_filter_dropped": bool(overflow_filter_dropped),
            "sizes": list(sizes or []),
        },
    )
    return apply_rules(fd)


def plateau_diagnostics(
    curve: list[tuple[int, float]], compulsory: float
) -> FitDiagnostics:
    """Evidence + grade for the Figure 3-a compulsory-miss plateau.

    ``curve`` is the (size, L2hitr(s, 1)) curve sorted by size.  The
    plateau lives at the *small* end (only compulsory misses remain once
    the data set fits); quality is how many sizes sit within
    :data:`PLATEAU_EPS` of the best hit rate and whether the hit rate is
    still climbing at the smallest measured size.
    """
    hrs = [hr for _, hr in curve]
    best = max(hrs) if hrs else 0.0
    plateau_points = sum(1 for hr in hrs if hr >= best - PLATEAU_EPS)
    head_gain = (hrs[0] - hrs[1]) if len(hrs) >= 2 else 0.0
    fd = FitDiagnostics(
        name="compulsory_plateau",
        kind="plateau",
        equation="Fig. 3-a",
        n_points=len(curve),
        estimates={"compulsory": float(compulsory)},
        details={
            "plateau_points": int(plateau_points),
            "head_gain": float(head_gain),
            "best_hit_rate": float(best),
            "curve": [[int(s), float(hr)] for s, hr in curve],
        },
    )
    return apply_rules(fd)


def solve_diagnostics(
    per_n: dict[int, dict],
    fallbacks: list[int],
) -> FitDiagnostics:
    """Evidence + grade for the per-n Eq. 1 inversion of tm(n).

    ``per_n`` maps n -> {"tm", "residual_rel"}: the final tm and the
    relative CPI reconstruction error |cpi_model − cpi| / cpi at that n.
    """
    counts = sorted(per_n)
    violations = [
        n_hi
        for n_lo, n_hi in zip(counts, counts[1:])
        if per_n[n_hi]["tm"] < per_n[n_lo]["tm"] * (1.0 - MONOTONE_TOL)
    ]
    residuals = [per_n[n]["residual_rel"] for n in counts]
    fd = FitDiagnostics(
        name="tm_by_n",
        kind="solve",
        equation="Eq. 1",
        n_points=len(counts),
        residual_rms=float(np.sqrt(np.mean(np.square(residuals)))) if residuals else 0.0,
        residuals=[float(r) for r in residuals],
        estimates={f"tm({n})": float(per_n[n]["tm"]) for n in counts},
        details={
            "fallbacks": [int(n) for n in fallbacks],
            "monotone_violations": [int(n) for n in violations],
            "per_n": {str(n): {k: float(v) for k, v in per_n[n].items()} for n in counts},
        },
    )
    return apply_rules(fd)


def sanity_diagnostics(violations: list[tuple[str, str]], checks: int) -> FitDiagnostics:
    """Evidence + grade for the range-sanity sweep.

    ``violations`` is a list of (grade, message); ``checks`` the number
    of conditions examined (for the report's "x of y" framing).
    """
    fd = FitDiagnostics(
        name="range_sanity",
        kind="sanity",
        equation="Eqs. 6-10",
        n_points=int(checks),
        details={
            "violations": [{"grade": g, "message": m} for g, m in violations],
        },
    )
    return apply_rules(fd)
