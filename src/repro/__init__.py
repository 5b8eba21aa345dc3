"""Scal-Tool reproduction: pinpointing and quantifying scalability
bottlenecks in DSM multiprocessors (Solihin, Lam, Torrellas — SC 1999).

The package has three layers:

* **substrate** — a DSM multiprocessor simulator standing in for the SGI
  Origin 2000 (:mod:`repro.machine`), the workload models of the paper's
  applications (:mod:`repro.workloads`), and the SGI tool equivalents
  (:mod:`repro.tools`);
* **measurement** — the Table-3 campaign runner producing one counter
  file per run (:mod:`repro.runner`);
* **the contribution** — Scal-Tool's empirical CPI-breakdown model
  (:mod:`repro.core`), which isolates insufficient caching space,
  synchronization, and load imbalance from counter files alone, plus the
  what-if engine and the sharing extension.

Quickstart::

    from repro import quick_analysis

    analysis, campaign = quick_analysis("swim", processor_counts=(1, 2, 4, 8))
    print(analysis.report())
"""

# Single source of truth for the package version: pyproject.toml reads it
# back through `[tool.setuptools.dynamic]`, and `scaltool --version` prints
# it.  Defined before the subpackage imports because lineage records stamp
# results with it (`repro.obs.lineage` imports it back from here).
__version__ = "1.1.0"

from .core import ScalTool, ScalToolAnalysis, WhatIf, validate_mp
from .machine import DsmMachine, MachineConfig, origin2000_full, origin2000_scaled
from .runner import CampaignConfig, RunRecord, ScalToolCampaign, run_experiment
from .workloads import available_workloads, make_workload

__all__ = [
    "ScalTool",
    "ScalToolAnalysis",
    "WhatIf",
    "validate_mp",
    "DsmMachine",
    "MachineConfig",
    "origin2000_full",
    "origin2000_scaled",
    "CampaignConfig",
    "ScalToolCampaign",
    "RunRecord",
    "run_experiment",
    "make_workload",
    "available_workloads",
    "quick_analysis",
]


def quick_analysis(
    workload_name: str,
    processor_counts: tuple[int, ...] = (1, 2, 4, 8),
    s0: int | None = None,
    cache_dir: str | None = None,
    jobs: int | None = None,
    **workload_params,
):
    """Run a full campaign + analysis for a named workload.

    Returns ``(analysis, campaign)``.  The campaign is cached on disk when
    ``cache_dir`` is given (or $SCALTOOL_CACHE_DIR is set); the runs fan
    out over ``jobs`` worker processes (default: every CPU this process
    may use; ``jobs=1`` runs them serially in-process).
    """
    from .runner.cache import cached_campaign
    from .runner.engine import default_executor

    workload = make_workload(workload_name, **workload_params)
    size = s0 if s0 is not None else workload.default_size()
    config = CampaignConfig(s0=size, processor_counts=tuple(processor_counts))
    campaign = cached_campaign(
        workload, config, cache_dir=cache_dir, executor=default_executor(jobs)
    )
    analysis = ScalTool(campaign).analyze()
    return analysis, campaign
