"""Model validation against speedshop (Figures 7, 10, 13).

The paper's only feasible independent check: speedshop PC sampling can
measure the *total* MP = Sync + Imb cost (it cannot separate the two, nor
see L2Lim).  We compare

* Scal-Tool's estimated ``Base − MP`` curve against
* ``Base − MP_speedshop`` built from the profiled runs,

and report the divergence as a percentage of the accumulated base cycles
— the paper's metric ("the predicted and the measured Base-MP curves
differ by 9% / 14% of the accumulated cycles of all processors").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from ..runner.campaign import CampaignData
from ..runner.engine import Executor, SerialExecutor
from ..tools.speedshop import profile_record
from .scaltool import ScalToolAnalysis

__all__ = ["ValidationComparison", "validate_mp"]


def _profile_apply(item):
    """Executor task body (module-level so parallel maps can pickle it)."""
    record, sampling_period, seed, exact = item
    return profile_record(record, sampling_period=sampling_period, seed=seed, exact=exact)


@dataclass
class ValidationComparison:
    """Estimated vs measured MP cost per processor count."""

    workload: str
    processor_counts: list[int]
    base: dict[int, float] = field(default_factory=dict)
    estimated_mp: dict[int, float] = field(default_factory=dict)
    measured_mp: dict[int, float] = field(default_factory=dict)

    def estimated_base_minus_mp(self, n: int) -> float:
        return self.base[n] - self.estimated_mp[n]

    def measured_base_minus_mp(self, n: int) -> float:
        return self.base[n] - self.measured_mp[n]

    def divergence(self, n: int) -> float:
        """|estimated − measured| MP as a fraction of the base cycles."""
        return abs(self.estimated_mp[n] - self.measured_mp[n]) / self.base[n]

    def max_divergence(self) -> tuple[int, float]:
        worst = max(self.processor_counts, key=self.divergence)
        return worst, self.divergence(worst)

    def rows(self) -> list[dict]:
        out = []
        for n in self.processor_counts:
            out.append(
                {
                    "n": n,
                    "base": self.base[n],
                    "est Base-MP": self.estimated_base_minus_mp(n),
                    "meas Base-MP": self.measured_base_minus_mp(n),
                    "divergence": self.divergence(n),
                }
            )
        return out

    def summary(self) -> str:
        lines = [f"MP validation for {self.workload}:"]
        for row in self.rows():
            lines.append(
                f"  n={row['n']:3d}: base={row['base']:14,.0f}  "
                f"est(Base-MP)={row['est Base-MP']:14,.0f}  "
                f"meas(Base-MP)={row['meas Base-MP']:14,.0f}  "
                f"divergence={row['divergence']:6.1%}"
            )
        n, d = self.max_divergence()
        lines.append(f"  worst divergence: {d:.1%} at n={n}")
        return "\n".join(lines)


def validate_mp(
    analysis: ScalToolAnalysis,
    campaign: CampaignData,
    sampling_period: int = 10000,
    exact: bool = False,
    executor: Executor | None = None,
) -> ValidationComparison:
    """Compare the analysis's MP estimate to speedshop measurements.

    The campaign must have kept ground truth on its base runs (the default);
    this is the validation side, so using it is legitimate — it stands in
    for re-running the application under the profiler.  The per-count
    profiling passes run through the shared executor (each keeps its
    ``seed=n``, so the sampled profile is identical under any executor).
    Without an executor they run in this process: each samples stored
    ground truth, far cheaper than starting a pool.
    """
    base_runs = campaign.base_runs()
    if not base_runs:
        raise ValidationError("campaign has no base runs to validate against")
    counts = sorted(set(base_runs) & set(analysis.curves.base))
    if not counts:
        raise ValidationError("no overlapping processor counts between analysis and campaign")

    executor = executor or SerialExecutor()
    profiles = executor.map(
        _profile_apply, [(base_runs[n], sampling_period, n, exact) for n in counts]
    )
    cmp = ValidationComparison(workload=analysis.workload, processor_counts=counts)
    for n, profile in zip(counts, profiles):
        cmp.base[n] = analysis.curves.base[n]
        cmp.estimated_mp[n] = analysis.curves.mp_cost(n)
        cmp.measured_mp[n] = profile.mp_cycles
    return cmp
