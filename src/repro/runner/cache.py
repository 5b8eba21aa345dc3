"""On-disk memoisation of campaigns, built on the engine's per-run cache.

Campaigns are deterministic (seeded simulator, seeded workloads), so every
run is fully identified by its :class:`~repro.runner.engine.RunSpec`.
Caching happens at *run* granularity in the engine's content-addressed
:class:`~repro.runner.engine.RunCache` (``<cache root>/runs/``): a changed
grid point, processor count, or machine parameter re-executes only the
affected runs, and sweeps/what-ifs that share runs with a past campaign
reuse them for free.

The campaign JSONL manifest is still written — one per campaign, keyed by
a hash of (workload + parameters, the full machine configuration at every
planned processor count, campaign plan) — but it is an *export format*
for ``CampaignData.load`` / external tooling, not the cache itself.  Its
bytes are the campaign's run-cache entries concatenated in plan order
(:func:`manifest_text`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .campaign import CampaignConfig, CampaignData, ProgressCallback, ScalToolCampaign
from .engine import Executor, RunCache, RunSpec, default_cache_root
from .experiment import MachineFactory, default_machine_factory
from .records import RunRecord, write_text_atomic
from ..obs import runtime as obs
from ..obs.logs import get_logger, kv
from ..workloads.base import Workload

__all__ = ["campaign_cache_dir", "cached_campaign", "manifest_text"]

_log = get_logger("runner.cache")

#: Manifests this process wrote, with the (mtime_ns, size) stamp observed
#: right after writing.  An all-hit read may skip the re-export only when
#: the on-disk manifest is *provably* the one we exported — anything else
#: (another writer, truncation, corruption) gets rewritten, keeping the
#: "a broken manifest heals on the next call" contract.
_manifest_lock = threading.Lock()
_manifest_stamps: dict[Path, tuple[int, int]] = {}


def _stamp(path: Path) -> tuple[int, int] | None:
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_mtime_ns, st.st_size)


def campaign_cache_dir() -> Path:
    """Cache root: $SCALTOOL_CACHE_DIR or .scaltool_cache in the cwd."""
    return default_cache_root()


def _machine_ident(factory: MachineFactory, counts: tuple[int, ...]) -> dict:
    """The *full* machine configuration at every planned processor count.

    Summarising ``factory(1)`` alone is not enough: a factory may vary
    victim buffers, protocol, timing — anything — with ``n_processors``,
    and the key must see it.
    """
    return {str(n): asdict(factory(n)) for n in sorted(set(counts) | {1})}


def _campaign_key(workload: Workload, config: CampaignConfig, machine_ident: dict) -> str:
    ident = {
        "workload": workload.name,
        "params": workload.describe_params(),
        "machine": machine_ident,
        "s0": config.s0,
        "counts": list(config.processor_counts),
        "min_fraction_bytes": config.min_fraction_bytes,
        "sync_kernel_barriers": config.sync_kernel_barriers,
        "spin_kernel_episodes": config.spin_kernel_episodes,
        "run_kernels": config.run_kernels,
        "format": 4,
    }
    return hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:20]


def manifest_text(
    run_cache: RunCache, specs: Sequence[RunSpec], records: Sequence[RunRecord]
) -> str:
    """The JSONL manifest of ``records``: their run-cache entries in plan order.

    Every entry already holds its record's manifest line
    (:meth:`RunCache.put`), so the manifest costs one file read per run
    rather than a re-serialisation of every phase counter set.  Only an
    entry that cannot be read, or is not one line, is serialised afresh.
    """
    lines = []
    for spec, record in zip(specs, records):
        try:
            line = run_cache.path(spec).read_text()
        except OSError:
            line = ""
        if not line.endswith("\n") or line.count("\n") != 1:
            line = record.to_json() + "\n"
        lines.append(line)
    return "".join(lines)


def cached_campaign(
    workload: Workload,
    config: CampaignConfig,
    machine_factory: MachineFactory | None = None,
    cache_dir: str | Path | None = None,
    refresh: bool = False,
    progress: ProgressCallback | None = None,
    executor: Executor | None = None,
    run_cache: RunCache | None = None,
) -> CampaignData:
    """Run the campaign for ``workload`` under ``config``, reusing cached runs.

    Every planned run resolves against the engine's per-run cache under
    ``<cache dir>/runs/``: hits load from disk (and *still* report through
    ``progress``, so verbose campaigns never look hung on a warm cache),
    misses execute on ``executor`` (default: every available CPU) and are
    stored.  A corrupt cache entry is never silently fatal: it is logged
    with path and reason, counted (``engine.cache.corrupt``), and
    re-executed.  The
    campaign-level ``cache.hit`` / ``cache.miss`` / ``cache.partial`` /
    ``cache.refresh`` metrics summarise how the batch resolved, and the
    JSONL manifest is (re)exported after any call that executed a run
    (an all-hit read with the manifest already on disk skips the
    re-export — the records are unchanged by construction).

    ``run_cache`` substitutes the per-run cache instance itself (the
    serving layer passes its shared, memoised cache so every assembly in
    the process reuses parsed records); it must be rooted at
    ``<cache dir>/runs`` for the manifest to stay beside its runs.
    """
    factory = machine_factory or default_machine_factory()
    root = Path(cache_dir) if cache_dir else campaign_cache_dir()
    if run_cache is None:
        run_cache = RunCache(root / "runs")
    campaign = ScalToolCampaign(workload, config, machine_factory=factory)
    key = _campaign_key(workload, config, _machine_ident(factory, config.processor_counts))
    manifest = root / f"{workload.name}_{key}.jsonl"
    reg = obs.registry()

    hits = 0
    misses = 0
    specs: dict[int, RunSpec] = {}

    def _count(outcome) -> None:
        nonlocal hits, misses
        specs[outcome.index] = outcome.spec
        if outcome.cached:
            hits += 1
        else:
            misses += 1

    data = campaign.run(
        progress=progress,
        executor=executor,
        cache=run_cache,
        refresh=refresh,
        on_outcome=_count,
    )

    if refresh:
        reg.inc("cache.refresh")
    elif misses == 0 and hits:
        reg.inc("cache.hit")
        _log.debug("campaign cache hit %s", kv(manifest=manifest, records=hits))
    elif hits == 0:
        reg.inc("cache.miss")
    else:
        reg.inc("cache.partial")
        _log.debug(
            "campaign cache partial %s", kv(manifest=manifest, hits=hits, misses=misses)
        )

    # An all-hit resolution produced exactly the records the manifest
    # already holds; rewriting it would serialise every record again on
    # every warm read — the service's hottest path.  Skip only when the
    # file on disk still carries our own write stamp.
    with _manifest_lock:
        unchanged = _manifest_stamps.get(manifest) is not None and _manifest_stamps[
            manifest
        ] == _stamp(manifest)
    if misses or refresh or not unchanged:
        plan = [specs[i] for i in range(len(data.records))]
        write_text_atomic(manifest, manifest_text(run_cache, plan, data.records))
        with _manifest_lock:
            stamp = _stamp(manifest)
            if stamp is not None:
                _manifest_stamps[manifest] = stamp
    return data
