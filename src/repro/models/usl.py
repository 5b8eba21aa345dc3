"""Gunther's Universal Scalability Law fitted to a measured speedup curve.

The USL is the rational function

    C(p) = p / (1 + σ·(p − 1) + κ·p·(p − 1))

with σ the *contention* (serialization/queueing) coefficient and κ the
*coherency-delay* (pairwise-exchange) coefficient.  Both are directly
comparable to Scal-Tool's decomposition: σ plays the role of the
synchronization + load-imbalance categories, κ the caching/coherency
category (see :mod:`repro.models.compare`).

The fit linearizes exactly: with normalized speedups S(p) (S(1) = 1),

    y(p) = p / S(p) − 1 = σ·(p − 1) + κ·p·(p − 1)

is linear in (σ, κ) over the design [p − 1, p(p − 1)], so the solve is a
plain least squares — the same machinery (and the same seeded
:func:`~repro.obs.diagnostics.bootstrap_ci`) the Eq. 3 latency fit uses.
Physics constrains σ, κ ≥ 0; when the unconstrained solution crosses
zero the offending coefficient is clamped and the fit redone on the
remaining column (:func:`~repro.obs.diagnostics.solve_nonnegative`, the
solver of the Eq. 3 refit too), flagged in the diagnostics (``clamped``).

The peak-speedup count is n\\* = sqrt((1 − σ) / κ) (κ > 0); with κ = 0
the curve is monotone and saturates at 1/σ.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs import runtime as obs
from ..obs.diagnostics import bootstrap_ci, solve_nonnegative
from .base import (
    ModelFit,
    model_fit_diagnostics,
    normalized_speedups,
    speedup_r_squared,
    validate_for_fit,
)
from .dataset import SpeedupDataset

__all__ = ["USLModel", "usl_speedup"]


def usl_speedup(n: float, sigma: float, kappa: float) -> float:
    """C(n) for one (σ, κ) pair."""
    denom = 1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0)
    return n / denom if denom > 0 else 0.0


class USLModel:
    """Fit the Universal Scalability Law to a speedup curve."""

    name = "usl"
    equation = "C(p) = p / (1 + sigma*(p-1) + kappa*p*(p-1))"

    def fit(self, dataset: SpeedupDataset) -> ModelFit:
        with obs.tracer().span("models.fit", model=self.name, points=len(dataset.points)):
            validate_for_fit(dataset, "USL fit")
            speedups = normalized_speedups(dataset)
            rows = [(n, s) for n, s in zip(dataset.counts, speedups) if n > 1]
            design = np.array([[n - 1.0, n * (n - 1.0)] for n, _ in rows])
            y = np.array([n / s - 1.0 for n, s in rows])
            sigma, kappa, clamped = solve_nonnegative(design, y, ("sigma", "kappa"))
            ci = bootstrap_ci(design, y, ("sigma", "kappa"))

            modeled = [usl_speedup(n, sigma, kappa) for n in dataset.counts]
            residuals = [m - c for m, c in zip(speedups, modeled)]
            r2 = speedup_r_squared(speedups, modeled)

            peak_n = peak_speedup = None
            if kappa > 0:
                peak_n = math.sqrt(max(0.0, 1.0 - sigma) / kappa)
                peak_n = max(1.0, peak_n)
                peak_speedup = usl_speedup(peak_n, sigma, kappa)

            diagnostics = model_fit_diagnostics(
                name="usl_fit",
                equation=self.equation,
                dataset=dataset,
                estimates={"sigma": sigma, "kappa": kappa},
                ci=ci,
                r_squared=r2,
                residuals=residuals,
                clamped=clamped,
            )
            obs.registry().inc("models.fit.usl")

            def predict(n: float) -> float:
                return usl_speedup(n, sigma, kappa)

            def band(n: float) -> tuple[float, float] | None:
                # Speedup falls as either coefficient grows, so the CI
                # corners bound the curve: (hi, hi) below, (lo, lo) above.
                if "sigma" not in ci or "kappa" not in ci:
                    return None
                lo = usl_speedup(n, max(0.0, ci["sigma"][1]), max(0.0, ci["kappa"][1]))
                hi = usl_speedup(n, max(0.0, ci["sigma"][0]), max(0.0, ci["kappa"][0]))
                point = predict(n)
                return (min(lo, point), max(hi, point))

            return ModelFit(
                model=self.name,
                equation=self.equation,
                label=dataset.label,
                params={"sigma": sigma, "kappa": kappa},
                ci=ci,
                r_squared=r2,
                residual_rms=float(np.sqrt(np.mean(np.square(residuals)))),
                residuals=residuals,
                n_points=len(dataset.points),
                peak_n=peak_n,
                peak_speedup=peak_speedup,
                diagnostics=diagnostics,
                predict=predict,
                band=band,
            )

    def penalty_shares(self, params: dict[str, float], n: int) -> dict[str, float]:
        """How the modeled slowdown at n splits between σ and κ terms.

        The USL denominator is 1 (ideal) + σ(n−1) (contention) +
        κn(n−1) (coherency); the shares are each penalty term over the
        whole denominator — directly comparable to Scal-Tool's cost
        shares of the measured cycles.
        """
        sigma, kappa = params["sigma"], params["kappa"]
        contention = sigma * (n - 1.0)
        coherency = kappa * n * (n - 1.0)
        denom = 1.0 + contention + coherency
        return {
            "contention_share": contention / denom,
            "coherency_share": coherency / denom,
        }
