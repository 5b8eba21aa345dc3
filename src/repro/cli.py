"""Command-line interface: ``scaltool``.

Subcommands mirror the paper's workflow:

* ``scaltool run`` — execute one workload run and print its perfex report;
* ``scaltool campaign`` — run the Table-3 campaign, writing one counter
  file per run into a directory;
* ``scaltool analyze`` — run Scal-Tool over a campaign directory (or run
  the campaign inline) and print the bottleneck report;
* ``scaltool validate`` — compare the MP estimate against the simulated
  speedshop measurement;
* ``scaltool whatif`` — machine-parameter experiments over a campaign;
* ``scaltool profile`` — run a campaign + analysis under the observability
  layer and print the span/metric profile report;
* ``scaltool plan`` — print the Table 1 / Table 3 resource accounting;
* ``scaltool list`` — available workloads;
* ``scaltool serve`` / ``submit`` / ``status`` / ``result`` — the analysis
  service (see :mod:`repro.service` and ``docs/service.md``): serve the
  HTTP JSON API, submit a request to it, and read a job back.

The ``analyze``, ``sweep``, ``whatif``, ``predict`` and ``blame`` subcommands execute
through the same :mod:`repro.service.requests` handlers the service uses,
so a service job's result is byte-identical to the direct CLI output.

Every subcommand accepts ``--verbose`` (per-run campaign progress and
debug logging on stderr) and ``--metrics-out PATH`` (write the session's
JSONL metrics manifest after the command finishes).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .core import ScalTool, validate_mp
from .core.runplan import table1_rows, table3_matrix
from .errors import ReproError
from .obs import configure_logging, export_jsonl, format_profile
from .obs import runtime as obs_runtime
from .runner import CampaignConfig, ScalToolCampaign, run_experiment
from .runner.campaign import CampaignData
from .runner.cache import cached_campaign
from .runner.engine import default_executor
from .tools.perfex import format_report
from .viz.tables import format_table
from .workloads import available_workloads, make_workload

__all__ = ["main", "build_parser"]

_CACHE_EPILOG = (
    "The campaign cache lives in $SCALTOOL_CACHE_DIR when that environment "
    "variable is set, otherwise in .scaltool_cache/ under the current "
    "directory; --cache-dir overrides both."
)


def _counts(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad processor counts: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty processor counts")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaltool",
        description="Scal-Tool: isolate and quantify scalability bottlenecks (SC'99 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags, accepted by every subcommand (after the command).
    obs_common = argparse.ArgumentParser(add_help=False)
    obs_common.add_argument(
        "-v", "--verbose", action="store_true",
        help="per-run campaign progress and debug logging on stderr",
    )
    obs_common.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the observability session as a JSONL metrics manifest",
    )

    p_list = sub.add_parser("list", parents=[obs_common], help="list available workloads")

    # Engine width, shared by every subcommand that runs a batch of experiments.
    jobs_opt = argparse.ArgumentParser(add_help=False)
    jobs_opt.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run experiments on N worker processes (default: every CPU this "
        "process may use; 1 runs them serially in this process)",
    )

    common = argparse.ArgumentParser(add_help=False, parents=[obs_common, jobs_opt])
    common.add_argument("workload", help="workload name (see `scaltool list`)")
    common.add_argument("--s0", type=int, default=None, help="base data-set size in bytes")
    common.add_argument(
        "--counts", type=_counts, default=(1, 2, 4, 8, 16, 32), help="processor counts, e.g. 1,2,4,8"
    )
    common.add_argument(
        "--cache-dir", default=None,
        help="campaign cache directory (default: $SCALTOOL_CACHE_DIR or .scaltool_cache)",
    )

    p_run = sub.add_parser(
        "run", parents=[obs_common], help="run one experiment, print its perfex report"
    )
    p_run.add_argument("workload")
    p_run.add_argument("--size", type=int, default=None, help="data-set size in bytes")
    p_run.add_argument("-n", "--processors", type=int, default=1)

    p_campaign = sub.add_parser("campaign", parents=[common], help="run the Table-3 campaign")
    p_campaign.add_argument("--out", required=True, help="directory for the counter files")
    p_campaign.add_argument(
        "--export-speedup", default=None, metavar="PATH",
        help="also write the measured speedup curve as a scaltool-speedup-v1 "
        "dataset (.csv or .json) for `scaltool models`",
    )

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="full bottleneck analysis", epilog=_CACHE_EPILOG
    )
    p_analyze.add_argument("--from-dir", default=None, help="load a saved campaign instead of running")
    p_analyze.add_argument("--markdown", action="store_true", help="emit a markdown report")
    p_analyze.add_argument(
        "--save-result", default=None, metavar="PATH",
        help="also write the full result (output + data + lineage) as JSON, "
        "for later `scaltool explain` / `scaltool doctor`",
    )

    p_validate = sub.add_parser("validate", parents=[common], help="MP estimate vs speedshop")

    p_segments = sub.add_parser(
        "segments", parents=[common], help="per-segment breakdown (Section 2.1)"
    )
    p_segments.add_argument(
        "--group",
        action="append",
        default=None,
        metavar="NAME=PATTERN",
        help="segment definition, e.g. --group spmv='spmv_*' (repeatable); "
        "default: one segment per phase-name prefix",
    )

    p_blame = sub.add_parser(
        "blame", parents=[obs_common, jobs_opt],
        help="graph-based scaling-loss localization: which segment loses the cycles, and why",
    )
    p_blame.add_argument(
        "target",
        help="a workload name, a saved campaign directory (campaign.jsonl), a "
        "stored job record / --save-result JSON, or a job id (local store, or --url)",
    )
    p_blame.add_argument("--s0", type=int, default=None, help="base data-set size in bytes")
    p_blame.add_argument(
        "--counts", type=_counts, default=(1, 2, 4, 8, 16, 32),
        help="processor counts, e.g. 1,2,4,8 (workload targets only)",
    )
    p_blame.add_argument(
        "--cache-dir", default=None,
        help="campaign cache directory (default: $SCALTOOL_CACHE_DIR or .scaltool_cache)",
    )
    p_blame.add_argument(
        "--group", action="append", default=None, metavar="NAME=PATTERN",
        help="segment definition, e.g. --group spmv='spmv_*' (repeatable); "
        "default: one segment per phase-name prefix",
    )
    p_blame.add_argument(
        "--against", default=None, metavar="TARGET",
        help="diff mode: compare against another campaign/report target and "
        "explain where their scaling losses differ",
    )
    p_blame.add_argument(
        "--url", default=None,
        help="fetch the report from a running service (job-id targets only)",
    )
    p_blame.add_argument(
        "--json", action="store_true", help="print the raw BlameReport (or diff) as JSON"
    )

    p_sharing = sub.add_parser(
        "sharing", parents=[common], help="sharing-corrected analysis (Section 6 extension)"
    )

    p_profile = sub.add_parser(
        "profile",
        parents=[obs_common, jobs_opt],
        help="profile a campaign + analysis run (spans, metrics, component times)",
    )
    p_profile.add_argument("workload", help="workload name (see `scaltool list`)")
    p_profile.add_argument("--s0", type=int, default=None, help="base data-set size in bytes")
    p_profile.add_argument(
        "--counts", type=_counts, default=(1, 2, 4),
        help="processor counts to profile, e.g. 1,2,4 (kept small: profiling re-runs everything)",
    )
    p_profile.add_argument(
        "--no-analysis", action="store_true", help="profile the campaign only, skip the estimators"
    )
    p_profile.add_argument(
        "--lines", action="store_true",
        help="also run the statistical line sampler: hot lines per span "
        "(stack samples attributed to the open engine phase)",
    )
    p_profile.add_argument(
        "--sample-interval", type=float, default=5.0, metavar="MS",
        help="sampling interval in milliseconds (default: 5)",
    )
    p_profile.add_argument(
        "--memory", action="store_true",
        help="with --lines: track tracemalloc peak + top allocating lines "
        "(adds tracemalloc's own overhead)",
    )
    p_profile.add_argument(
        "--flame", default=None, metavar="PATH",
        help="with --lines: write collapsed-stack flamegraph lines "
        "(span;frame;frame count) to PATH",
    )
    p_profile.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="with --lines: save the full line profile as JSON "
        "(render later with `scaltool obs hot PATH`)",
    )

    p_sweep = sub.add_parser(
        "sweep",
        parents=[obs_common, jobs_opt],
        help="run a (workload params) x (machine params) grid, print a metric table",
        epilog=_CACHE_EPILOG,
    )
    p_sweep.add_argument("workload", help="workload name (see `scaltool list`)")
    p_sweep.add_argument("--size", type=int, default=None, help="data-set size in bytes")
    p_sweep.add_argument("-n", "--processors", type=int, default=8)
    p_sweep.add_argument(
        "--workload-axis", action="append", default=None, metavar="NAME=V1,V2",
        help="workload constructor axis, e.g. --workload-axis halo_blocks=0,1,2 (repeatable)",
    )
    p_sweep.add_argument(
        "--machine-axis", action="append", default=None, metavar="NAME=V1,V2",
        help="machine configuration axis, e.g. --machine-axis protocol=mesi,msi (repeatable)",
    )
    p_sweep.add_argument(
        "--metric", action="append", default=None, metavar="NAME",
        help="counter to tabulate per grid point (CounterSet field or 'cpi'; "
        "repeatable; default: cpi)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None,
        help="per-run cache directory (default: $SCALTOOL_CACHE_DIR or .scaltool_cache)",
    )

    p_topology = sub.add_parser(
        "topology", parents=[obs_common, jobs_opt], help="tm(n) growth by interconnect topology"
    )
    p_topology.add_argument("--counts", type=_counts, default=(2, 8, 32))
    p_topology.add_argument(
        "--topologies", default="hypercube,mesh,ring,crossbar", help="comma-separated list"
    )

    p_predict = sub.add_parser(
        "predict", parents=[common], help="extrapolate the scaling to unmeasured counts"
    )
    p_predict.add_argument(
        "--to", type=_counts, default=(48, 64, 128), help="counts to predict, e.g. 64,128"
    )

    p_models = sub.add_parser(
        "models", parents=[obs_common, jobs_opt],
        help="fit USL/granularity/Scal-Tool scalability models and cross-validate them",
        epilog=_CACHE_EPILOG,
    )
    p_models.add_argument(
        "action", choices=("fit", "compare", "predict"),
        help="fit: per-model coefficients; compare: cross-validate the suite; "
        "predict: extrapolate with CI bands",
    )
    p_models.add_argument(
        "target",
        help="workload name, campaign directory, speedup dataset (.csv/.json), "
        "saved result, or local job id",
    )
    p_models.add_argument("--s0", type=int, default=None, help="base data-set size in bytes")
    p_models.add_argument(
        "--counts", type=_counts, default=(1, 2, 4, 8, 16, 32),
        help="processor counts, e.g. 1,2,4,8 (workload targets)",
    )
    p_models.add_argument(
        "--to", type=_counts, default=(32, 64, 128),
        help="counts to extrapolate to (predict), e.g. 64,128",
    )
    p_models.add_argument(
        "--cache-dir", default=None,
        help="campaign cache directory (default: $SCALTOOL_CACHE_DIR or .scaltool_cache)",
    )
    p_models.add_argument("--json", action="store_true", help="print the structured report as JSON")
    p_models.add_argument(
        "--save-result", default=None, metavar="PATH",
        help="also write the full result (output + data + lineage) as JSON",
    )

    p_balance = sub.add_parser(
        "balance", parents=[common], help="per-processor load-balance report"
    )

    p_whatif = sub.add_parser("whatif", parents=[common], help="machine-parameter experiments")
    p_whatif.add_argument("--t2", type=float, default=1.0, help="scale factor for t2")
    p_whatif.add_argument("--tm", type=float, default=1.0, help="scale factor for tm")
    p_whatif.add_argument("--tsyn", type=float, default=1.0, help="scale factor for tsyn")
    p_whatif.add_argument("--cpi0", type=float, default=1.0, help="scale factor for cpi0")
    p_whatif.add_argument("--l2", type=float, default=None, help="L2 size factor k")

    p_plan = sub.add_parser(
        "plan", parents=[obs_common], help="print Table 1 / Table 3 resource accounting"
    )
    p_plan.add_argument("--n", type=int, default=6, help="number of processor counts (1..2^(n-1))")
    p_plan.add_argument("--s0", type=int, default=640 * 1024)

    # -- the analysis service (see docs/service.md) --------------------------------
    p_serve = sub.add_parser(
        "serve", parents=[obs_common], help="serve the analysis HTTP JSON API",
        epilog=_CACHE_EPILOG,
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8032)
    p_serve.add_argument(
        "--cache-dir", default=None,
        help="cache root (runs + job store); default: $SCALTOOL_CACHE_DIR or .scaltool_cache",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="engine executor width: run batched experiments on N worker processes",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes: 1 serves in-process, N>=2 starts a dispatcher"
        " that consistent-hashes job fingerprints onto N worker shards",
    )
    p_serve.add_argument(
        "--concurrency", type=int, default=2, metavar="N",
        help="concurrent jobs in flight per worker process",
    )
    p_serve.add_argument(
        "--claim-ttl", type=float, default=60.0, metavar="SECONDS",
        help="in-flight claim TTL: a claim orphaned by a dead worker is"
        " reclaimable after this long without a heartbeat",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=32, metavar="N",
        help="admission bound on queued+running jobs (429 beyond it)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=600.0, metavar="SECONDS",
        help="fail a job still running after this long",
    )

    client_common = argparse.ArgumentParser(add_help=False, parents=[obs_common])
    client_common.add_argument(
        "--url", default=None,
        help="service base URL (default: $SCALTOOL_SERVICE_URL or http://127.0.0.1:8032)",
    )

    p_submit = sub.add_parser(
        "submit", parents=[client_common], help="submit a request to a running service"
    )
    p_submit.add_argument(
        "kind", help="analyze | blame | campaign | models | sweep | whatif | predict"
    )
    p_submit.add_argument("workload", help="workload name (see `scaltool list`)")
    p_submit.add_argument("--s0", type=int, default=None, help="base data-set size in bytes")
    p_submit.add_argument("--size", type=int, default=None, help="data-set size (sweep)")
    p_submit.add_argument("--counts", type=_counts, default=None, help="processor counts, e.g. 1,2,4")
    p_submit.add_argument("-n", "--processors", type=int, default=None, help="processor count (sweep)")
    p_submit.add_argument("--to", type=_counts, default=None, help="counts to predict, e.g. 64,128")
    p_submit.add_argument(
        "--arg", action="append", default=None, metavar="NAME=VALUE",
        help="extra payload field, e.g. --arg tm=0.5 or --arg markdown=true (repeatable)",
    )
    p_submit.add_argument("--priority", type=int, default=None, help="lower runs sooner")
    p_submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes, print its output"
    )
    p_submit.add_argument("--timeout", type=float, default=600.0, help="--wait timeout in seconds")

    p_status = sub.add_parser(
        "status", parents=[client_common], help="print a service job's status as JSON"
    )
    p_status.add_argument("job_id")

    p_result = sub.add_parser(
        "result", parents=[client_common], help="print a finished service job's output"
    )
    p_result.add_argument("job_id")
    p_result.add_argument("--wait", action="store_true", help="block until the job finishes")
    p_result.add_argument("--timeout", type=float, default=600.0, help="--wait timeout in seconds")

    p_explain = sub.add_parser(
        "explain", parents=[obs_common],
        help="walk a result back to its runs and fits (lineage + diagnostics)",
    )
    p_explain.add_argument(
        "target",
        help="a job id (read from the local job store, or --url), or a path to a "
        "stored job record / --save-result JSON",
    )
    p_explain.add_argument(
        "--cache-dir", default=None,
        help="cache root holding the job store (default: $SCALTOOL_CACHE_DIR or .scaltool_cache)",
    )
    p_explain.add_argument(
        "--url", default=None,
        help="fall back to a running service at this URL when the job is not stored locally",
    )
    p_explain.add_argument(
        "--json", action="store_true", help="print the raw lineage/diagnostics as JSON"
    )

    p_doctor = sub.add_parser(
        "doctor", parents=[obs_common],
        help="re-validate a stored result's diagnostics (exit 1 on `suspect`)",
    )
    p_doctor.add_argument(
        "target",
        help="a job id (read from the local job store, or --url), or a path to a "
        "stored job record / --save-result JSON",
    )
    p_doctor.add_argument(
        "--cache-dir", default=None,
        help="cache root holding the job store (default: $SCALTOOL_CACHE_DIR or .scaltool_cache)",
    )
    p_doctor.add_argument(
        "--url", default=None,
        help="fall back to a running service at this URL when the job is not stored locally",
    )

    p_obs = sub.add_parser(
        "obs", help="observability queries: job traces, manifest hot spots"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_trace = obs_sub.add_parser(
        "trace", parents=[client_common],
        help="render a service job's distributed span tree (critical path starred)",
    )
    p_obs_trace.add_argument("job_id")
    p_obs_trace.add_argument(
        "--json", action="store_true", help="print the raw spans as JSON instead of a tree"
    )
    p_obs_top = obs_sub.add_parser(
        "top", parents=[obs_common],
        help="hottest span paths and metric summaries from a --metrics-out manifest",
    )
    p_obs_top.add_argument("manifest", help="JSONL manifest written by --metrics-out")
    p_obs_top.add_argument(
        "--limit", type=int, default=10, metavar="N", help="span paths to show (default 10)"
    )
    p_obs_top.add_argument(
        "--sort", choices=("total", "self", "count"), default="total",
        help="rank spans by total time, self time (minus children), or count "
        "(ties always break name-then-path)",
    )
    p_obs_hot = obs_sub.add_parser(
        "hot", parents=[obs_common],
        help="render a saved line profile (scaltool profile --lines --profile-out)",
    )
    p_obs_hot.add_argument("profile", help="profile JSON written by --profile-out or /v1/profile")
    p_obs_hot.add_argument(
        "--limit", type=int, default=15, metavar="N", help="rows per table (default 15)"
    )
    p_obs_hot.add_argument(
        "--flame", default=None, metavar="PATH",
        help="also write the collapsed-stack flamegraph lines to PATH",
    )
    return parser


def _progress_printer(args):
    """The --verbose campaign progress renderer: `run 7/23 hydro2d n=8`."""
    if not getattr(args, "verbose", False):
        return None

    def render(i: int, total: int, rec) -> None:
        print(f"run {i}/{total} {rec.workload} {rec.role} n={rec.n_processors}", file=sys.stderr)

    return render


def _executor_for(args):
    """The engine executor the command asked for (``--jobs``, else every CPU)."""
    return default_executor(getattr(args, "jobs", None))


def _execute_request(args, kind: str, payload: dict):
    """Run one service-style request inline (the CLI fast path).

    This is the same handler the analysis service executes for a job of
    the same kind/payload, which is what keeps ``scaltool result`` output
    byte-identical to the direct CLI command.
    """
    from .service.requests import compile_request

    request = compile_request(kind, payload)
    result = request.execute(
        cache_root=args.cache_dir,
        executor=_executor_for(args),
        progress=_progress_printer(args),
    )
    save_path = getattr(args, "save_result", None)
    if save_path:
        import json as _json
        from pathlib import Path as _Path

        path = _Path(save_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"result saved to {path}", file=sys.stderr)
    return result


def _campaign_for(args) -> tuple[CampaignData, object]:
    workload = make_workload(args.workload)
    s0 = args.s0 if args.s0 else workload.default_size()
    config = CampaignConfig(s0=s0, processor_counts=args.counts)
    campaign = cached_campaign(
        workload,
        config,
        cache_dir=args.cache_dir,
        progress=_progress_printer(args),
        executor=_executor_for(args),
    )
    return campaign, workload


def _load_stored_result(args) -> tuple[str, dict]:
    """Resolve an ``explain``/``doctor`` target to a stored result dict.

    ``target`` may be (tried in order): a path to a ``--save-result`` JSON
    file or a stored job record; a job id in the local job store under
    the cache root (works fully offline); a job id on a running service
    (only when ``--url`` is given).
    """
    import json as _json
    from pathlib import Path as _Path

    target = args.target
    path = _Path(target)
    if path.exists():
        try:
            doc = _json.loads(path.read_text())
        except (OSError, _json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ReproError(f"{path} does not hold a result object")
        if "state" in doc and "kind" in doc:  # a stored job record
            if doc.get("state") != "done" or not doc.get("result"):
                raise ReproError(
                    f"job record {path} is {doc.get('state')!r}; no result to inspect"
                )
            return f"job {doc.get('id', '?')} ({doc.get('kind', '?')})", doc["result"]
        if any(k in doc for k in ("output", "data", "lineage")):
            return str(path), doc
        raise ReproError(f"{path} is neither a job record nor a saved result")
    from .runner.engine import default_cache_root
    from .service.store import JobStore

    root = _Path(args.cache_dir) if args.cache_dir else default_cache_root()
    job = JobStore(root / "service" / "jobs").get(target)
    if job is not None:
        if job.state != "done" or not job.result:
            raise ReproError(f"job {target} is {job.state!r}; no result to inspect")
        return f"job {job.id} ({job.kind})", job.result
    if args.url:
        from .service.client import ServiceClient

        view = ServiceClient(args.url).result(target)
        if view.get("state") != "done" or not view.get("result"):
            raise ReproError(f"job {target} is {view.get('state')!r}; no result to inspect")
        return f"job {view['id']}", view["result"]
    raise ReproError(
        f"no stored job {target!r} under {root / 'service' / 'jobs'} "
        "(pass a file path, --cache-dir, or --url for a running service)"
    )


def _blame_groups(args) -> dict:
    groups: dict = {}
    for spec in getattr(args, "group", None) or []:
        name, _, pattern = spec.partition("=")
        if not pattern:
            raise ReproError(f"bad --group {spec!r}; expected NAME=PATTERN")
        groups[name] = pattern.strip("'\"")
    return groups


def _blame_stored(target: str, cache_dir: str | None):
    """Resolve a blame target held on disk: a stored job record, a
    ``--save-result`` JSON, or a job id in the local job store.

    Returns ``(label, kind, payload, result)`` — ``kind``/``payload`` are
    None for a bare saved result — or None when the target is neither.
    """
    import json as _json
    from pathlib import Path as _Path

    path = _Path(target)
    if path.is_file():
        try:
            doc = _json.loads(path.read_text())
        except (OSError, _json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ReproError(f"{path} does not hold a result object")
        if "state" in doc and "kind" in doc:  # a stored job record
            if doc.get("state") != "done" or not doc.get("result"):
                raise ReproError(f"job record {path} is {doc.get('state')!r}; nothing to blame")
            return str(path), doc["kind"], doc.get("payload") or {}, doc["result"]
        if any(k in doc for k in ("output", "data", "lineage")):
            return str(path), None, None, doc
        raise ReproError(f"{path} is neither a job record nor a saved result")
    from .runner.engine import default_cache_root
    from .service.store import JobStore

    root = _Path(cache_dir) if cache_dir else default_cache_root()
    job = JobStore(root / "service" / "jobs").get(target)
    if job is not None:
        if job.state != "done" or not job.result:
            raise ReproError(f"job {target} is {job.state!r}; nothing to blame")
        return f"job {job.id} ({job.kind})", job.kind, job.payload or {}, job.result
    return None


def _blame_payload_from_result(label: str, result: dict) -> dict:
    """Recover the campaign payload from a saved result's data + lineage."""
    data = result.get("data") or {}
    lineage = result.get("lineage") or {}
    specs = [e for e in lineage.get("specs", []) if e.get("role") == "app_base"]
    payload: dict = {}
    if data.get("workload"):
        payload["workload"] = data["workload"]
    elif specs:
        payload["workload"] = specs[0]["workload"]
    if specs:
        payload["s0"] = max(e["size_bytes"] for e in specs)
        payload["counts"] = sorted({e["n_processors"] for e in specs})
    elif data.get("processor_counts"):
        payload["counts"] = list(data["processor_counts"])
    missing = [k for k in ("workload", "s0", "counts") if not payload.get(k)]
    if missing:
        raise ReproError(
            f"{label} does not identify a campaign (missing {', '.join(missing)}); "
            "blame a workload name or a campaign directory instead"
        )
    return payload


def _blame_target_report(args, target: str) -> tuple[str, dict]:
    """Resolve a blame target to ``(rendered output, report dict)``.

    Tried in order: a saved campaign directory, a workload name, a stored
    job record / saved result / local job-store id, a job id on a running
    service (``--url``).
    """
    from pathlib import Path as _Path

    from .viz import render_blame

    groups = _blame_groups(args)
    path = _Path(target)
    if path.is_dir() and (path / "campaign.jsonl").exists():
        from .analysis import blame_campaign

        campaign = CampaignData.load(path)
        analysis = ScalTool(campaign).analyze()
        report = blame_campaign(analysis, campaign, groups=groups or None).to_dict()
        return render_blame(report) + "\n", report
    if target in available_workloads():
        result = _execute_request(
            args,
            "blame",
            {
                "workload": target,
                "s0": args.s0,
                "counts": list(args.counts),
                "groups": groups,
            },
        )
        return result.output, result.data["report"]
    stored = _blame_stored(target, args.cache_dir)
    if stored is not None:
        label, kind, payload, result = stored
        data = (result or {}).get("data") or {}
        if kind == "blame" and isinstance(data.get("report"), dict):
            report = data["report"]
            return (result.get("output") or render_blame(report) + "\n"), report
        if payload and all(k in payload for k in ("workload", "s0", "counts")):
            req_payload = {
                "workload": payload["workload"],
                "params": payload.get("params", {}),
                "s0": payload["s0"],
                "counts": payload["counts"],
            }
        else:
            req_payload = _blame_payload_from_result(label, result or {})
        req_payload["groups"] = groups
        derived = _execute_request(args, "blame", req_payload)
        return derived.output, derived.data["report"]
    if args.url:
        from .service.client import ServiceClient

        view = ServiceClient(args.url).blame(target)
        return view["output"], view["report"]
    raise ReproError(
        f"cannot resolve blame target {target!r}: not a workload name, a saved "
        "campaign directory, a stored result file, or a local job id "
        "(pass --cache-dir, or --url for a running service)"
    )


def _models_result(args):
    """Resolve a ``models`` target and run the action through the shared
    request handler (so CLI output stays byte-identical to a service job).

    Tried in order: a saved campaign directory (analysed inline, like
    ``blame``), a workload name, a speedup dataset file (.csv or
    ``scaltool-speedup-v1`` JSON), a stored job record / saved result /
    local job-store id.
    """
    import json as _json
    from pathlib import Path as _Path

    from .service.requests import RequestResult

    target = args.target
    payload: dict = {"action": args.action}
    if args.action == "predict":
        payload["to"] = list(args.to)

    path = _Path(target)
    if path.is_dir() and (path / "campaign.jsonl").exists():
        from .models import SpeedupDataset, run_action

        campaign = CampaignData.load(path)
        analysis = ScalTool(campaign).analyze()
        dataset = SpeedupDataset.from_campaign(campaign)
        output, data = run_action(args.action, dataset, analysis, to=payload.get("to"))
        result = RequestResult(output=output, data=data)
        save_path = getattr(args, "save_result", None)
        if save_path:
            out = _Path(save_path)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(_json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
            print(f"result saved to {out}", file=sys.stderr)
        return result

    if target in available_workloads():
        payload.update(
            {"workload": target, "s0": args.s0, "counts": list(args.counts)}
        )
        return _execute_request(args, "models", payload)

    if path.is_file():
        # A dataset file (CSV, or JSON carrying a points list) beats the
        # stored-result interpretations.
        is_dataset = True
        try:
            doc = _json.loads(path.read_text())
        except (OSError, _json.JSONDecodeError):
            pass  # CSV (or unreadable; the loader reports that properly)
        else:
            is_dataset = isinstance(doc, dict) and "points" in doc
        if is_dataset:
            from .models import SpeedupDataset

            payload["dataset"] = SpeedupDataset.load(path).to_dict()
            return _execute_request(args, "models", payload)

    stored = _blame_stored(target, args.cache_dir)
    if stored is not None:
        label, kind, job_payload, result = stored
        if job_payload and all(k in job_payload for k in ("workload", "s0", "counts")):
            campaign_payload = {
                "workload": job_payload["workload"],
                "params": job_payload.get("params", {}),
                "s0": job_payload["s0"],
                "counts": job_payload["counts"],
            }
        else:
            campaign_payload = _blame_payload_from_result(label, result or {})
        payload.update(campaign_payload)
        return _execute_request(args, "models", payload)

    raise ReproError(
        f"cannot resolve models target {target!r}: not a workload name, a saved "
        "campaign directory, a speedup dataset file, a stored result file, or "
        "a local job id (pass --cache-dir for the local job store)"
    )


def _axis_value(text: str):
    """Axis values parse as int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_axes(specs: list[str] | None, flag: str) -> dict:
    axes: dict = {}
    for spec in specs or []:
        name, _, values = spec.partition("=")
        if not name or not values:
            raise ReproError(f"bad {flag} {spec!r}; expected NAME=V1,V2,...")
        axes[name] = [_axis_value(v) for v in values.split(",")]
    return axes


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    verbose = getattr(args, "verbose", False)
    metrics_out = getattr(args, "metrics_out", None)
    configure_logging(verbose=verbose)
    # An obs session is live whenever its data has somewhere to go: a
    # metrics manifest, or the profile subcommand's report.
    session = None
    if metrics_out or args.command == "profile":
        session = obs_runtime.enable()
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): not an error
        return 0
    finally:
        if session is not None:
            obs_runtime.disable()
            if metrics_out:
                path = export_jsonl(session, metrics_out, meta={"command": args.command})
                print(f"metrics manifest written to {path}", file=sys.stderr)


def _dispatch(args) -> int:
    if args.command == "list":
        for name in available_workloads():
            print(name)
        return 0

    if args.command == "run":
        workload = make_workload(args.workload)
        size = args.size if args.size else workload.default_size()
        record = run_experiment(workload, size, args.processors)
        meta = {
            "workload": record.workload,
            "size_bytes": record.size_bytes,
            "n_processors": record.n_processors,
        }
        print(format_report(record.counters, record.per_cpu, metadata=meta))
        return 0

    if args.command == "campaign":
        workload = make_workload(args.workload)
        s0 = args.s0 if args.s0 else workload.default_size()
        config = CampaignConfig(s0=s0, processor_counts=args.counts)
        data = ScalToolCampaign(workload, config, progress=lambda m: print(f"  {m}")).run(
            progress=_progress_printer(args), executor=_executor_for(args)
        )
        manifest = data.save(args.out)
        print(f"wrote {len(data.records)} runs to {manifest.parent}")
        if args.export_speedup:
            from .models import SpeedupDataset

            path = SpeedupDataset.from_campaign(data).save(args.export_speedup)
            print(f"wrote speedup curve to {path}")
        return 0

    if args.command == "analyze":
        if args.from_dir:
            campaign = CampaignData.load(args.from_dir)
            analysis = ScalTool(campaign).analyze()
            if args.markdown:
                from .core.report import export_markdown

                print(export_markdown(analysis))
            else:
                print(analysis.report())
            return 0
        result = _execute_request(
            args,
            "analyze",
            {
                "workload": args.workload,
                "s0": args.s0,
                "counts": list(args.counts),
                "markdown": args.markdown,
            },
        )
        sys.stdout.write(result.output)
        return 0

    if args.command == "segments":
        from .core.segments import analyze_segments, phase_names

        campaign, _ = _campaign_for(args)
        analysis = ScalTool(campaign).analyze()
        if args.group:
            groups = {}
            for spec in args.group:
                name, _, pattern = spec.partition("=")
                if not pattern:
                    raise ReproError(f"bad --group {spec!r}; expected NAME=PATTERN")
                groups[name] = pattern.strip("'\"")
        else:
            prefixes = sorted({name.split("_")[0] for name in phase_names(campaign)})
            groups = {p: f"{p}*" for p in prefixes}
        print(analyze_segments(analysis, campaign, groups).summary())
        return 0

    if args.command == "blame":
        import json as _json

        output, report = _blame_target_report(args, args.target)
        if args.against:
            from .analysis import BlameReport, diff_reports
            from .viz import render_blame_diff

            _, other = _blame_target_report(args, args.against)
            diff = diff_reports(BlameReport.from_dict(report), BlameReport.from_dict(other))
            if args.json:
                print(_json.dumps(diff, indent=2, sort_keys=True))
            else:
                print(render_blame_diff(diff))
            return 0
        if args.json:
            print(_json.dumps(report, indent=2, sort_keys=True))
        else:
            sys.stdout.write(output)
        return 0

    if args.command == "sharing":
        from .core.sharing import analyze_sharing

        campaign, _ = _campaign_for(args)
        analysis = ScalTool(campaign).analyze()
        sharing = analyze_sharing(analysis, campaign)
        print(format_table(sharing.rows(), title="event-31 decomposition (Section 6 extension)"))
        corrected = sharing.corrected_curves
        rows = [
            {
                "n": n,
                "Sync (raw)": analysis.curves.sync_cost[n],
                "Sync (corrected)": corrected.sync_cost[n],
                "Imb (raw)": analysis.curves.imb_cost[n],
                "Imb (corrected)": corrected.imb_cost[n],
            }
            for n in analysis.curves.processor_counts
        ]
        print()
        print(format_table(rows, title="sharing-corrected bottleneck costs"))
        return 0

    if args.command == "predict":
        result = _execute_request(
            args,
            "predict",
            {
                "workload": args.workload,
                "s0": args.s0,
                "counts": list(args.counts),
                "to": list(args.to),
            },
        )
        sys.stdout.write(result.output)
        return 0

    if args.command == "models":
        import json as _json

        result = _models_result(args)
        if args.json:
            print(_json.dumps(result.data, indent=2, sort_keys=True))
        else:
            sys.stdout.write(result.output)
        return 0

    if args.command == "balance":
        from .core.balance import analyze_balance

        campaign, _ = _campaign_for(args)
        print(analyze_balance(campaign).summary())
        return 0

    if args.command == "topology":
        from .machine.config import origin2000_scaled
        from .machine.latency import topology_survey

        points = topology_survey(
            origin2000_scaled(n_processors=1),
            processor_counts=args.counts,
            topologies=tuple(args.topologies.split(",")),
            executor=_executor_for(args),
        )
        print(format_table([p.row() for p in points], title="tm(n) by topology"))
        return 0

    if args.command == "validate":
        campaign, _ = _campaign_for(args)
        analysis = ScalTool(campaign).analyze()
        print(validate_mp(analysis, campaign).summary())
        return 0

    if args.command == "whatif":
        result = _execute_request(
            args,
            "whatif",
            {
                "workload": args.workload,
                "s0": args.s0,
                "counts": list(args.counts),
                "t2": args.t2,
                "tm": args.tm,
                "tsyn": args.tsyn,
                "cpi0": args.cpi0,
                "l2": args.l2,
            },
        )
        sys.stdout.write(result.output)
        return 0

    if args.command == "sweep":
        result = _execute_request(
            args,
            "sweep",
            {
                "workload": args.workload,
                "size": args.size,
                "n": args.processors,
                "workload_axes": _parse_axes(args.workload_axis, "--workload-axis"),
                "machine_axes": _parse_axes(args.machine_axis, "--machine-axis"),
                "metrics": args.metric or ["cpi"],
            },
        )
        sys.stdout.write(result.output)
        return 0

    if args.command == "profile":
        from .obs.profile import profile_workload

        executor = _executor_for(args)
        result = profile_workload(
            args.workload,
            s0=args.s0,
            processor_counts=args.counts,
            run_analysis=not args.no_analysis,
            progress=_progress_printer(args),
            executor=executor,
            line_profile=args.lines,
            sample_interval=args.sample_interval / 1e3,
            sample_memory=args.memory,
        )
        meta = {
            "workload": args.workload,
            "counts": list(args.counts),
            "runs": len(result.campaign.records),
        }
        print(format_profile(result.session, meta=meta))
        if result.line_profile is not None:
            import json as _json
            from pathlib import Path as _Path

            from .viz.sampler_view import render_hot_profile

            profile = result.line_profile
            print(render_hot_profile(profile.to_dict()))
            if args.flame:
                _Path(args.flame).write_text("\n".join(profile.folded()) + "\n")
                print(f"flamegraph stacks written to {args.flame}")
            if args.profile_out:
                payload = {
                    "kind": "hotpath",
                    "workload": args.workload,
                    "s0": args.s0,
                    "counts": list(args.counts),
                    "jobs": executor.jobs,
                    "profile": profile.to_dict(),
                }
                _Path(args.profile_out).write_text(
                    _json.dumps(payload, indent=2, sort_keys=True) + "\n"
                )
                print(f"line profile written to {args.profile_out}")
        return 0

    if args.command == "serve":
        from .service import ServiceConfig

        config = ServiceConfig(
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            workers=args.concurrency,
            max_queue=args.max_queue,
            job_timeout=args.job_timeout,
            claim_ttl=args.claim_ttl,
        )
        if args.workers >= 2:
            from .service.dispatcher import serve_dispatcher

            server = serve_dispatcher(
                config, worker_count=args.workers, host=args.host, port=args.port
            )
            print(
                f"scaltool dispatcher listening on {server.url}"
                f" ({args.workers} worker processes)",
                file=sys.stderr,
            )
        else:
            from .service.http import serve

            server = serve(config, host=args.host, port=args.port)
            print(f"scaltool service listening on {server.url}", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("draining and shutting down ...", file=sys.stderr)
        return 0

    if args.command == "submit":
        from .service.client import ServiceClient

        payload: dict = {"workload": args.workload}
        if args.s0 is not None:
            payload["s0"] = args.s0
        if args.size is not None:
            payload["size"] = args.size
        if args.counts is not None:
            payload["counts"] = list(args.counts)
        if args.processors is not None:
            payload["n"] = args.processors
        if args.to is not None:
            payload["to"] = list(args.to)
        for spec in args.arg or []:
            name, _, value = spec.partition("=")
            if not name or not value:
                raise ReproError(f"bad --arg {spec!r}; expected NAME=VALUE")
            if value in ("true", "false"):
                payload[name] = value == "true"
            else:
                payload[name] = _axis_value(value)
        client = ServiceClient(args.url)
        submitted = client.submit(args.kind, payload, priority=args.priority)
        dedup = " (deduplicated)" if submitted.get("deduped") else ""
        print(f"job {submitted['id']} {submitted['state']}{dedup}", file=sys.stderr)
        if not args.wait:
            print(submitted["id"])
            return 0
        view = client.wait(submitted["id"], timeout=args.timeout)
        if view["state"] != "done":
            raise ReproError(f"job {view['id']} failed: {view.get('error')}")
        sys.stdout.write(view["result"]["output"])
        return 0

    if args.command == "status":
        import json as _json

        from .service.client import ServiceClient

        print(_json.dumps(ServiceClient(args.url).status(args.job_id), indent=2, sort_keys=True))
        return 0

    if args.command == "result":
        from .service.client import ServiceClient

        client = ServiceClient(args.url)
        if args.wait:
            view = client.wait(args.job_id, timeout=args.timeout)
        else:
            view = client.result(args.job_id)
        if view["state"] == "failed":
            raise ReproError(f"job {view['id']} failed: {view.get('error')}")
        if view["state"] != "done":
            print(f"job {view['id']} is {view['state']}", file=sys.stderr)
            return 2
        sys.stdout.write(view["result"]["output"])
        return 0

    if args.command == "explain":
        import json as _json

        label, result = _load_stored_result(args)
        lineage = result.get("lineage")
        diagnostics = (result.get("data") or {}).get("diagnostics")
        if args.json:
            print(
                _json.dumps(
                    {"lineage": lineage, "diagnostics": diagnostics},
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        from .viz.diagnostics_view import render_diagnostics, render_lineage

        print(f"# {label}")
        if lineage:
            print(render_lineage(lineage))
        else:
            print("no lineage recorded (result predates lineage collection)")
        if diagnostics:
            print()
            print(render_diagnostics(diagnostics))
        return 0

    if args.command == "doctor":
        from .obs.diagnostics import GRADE_SUSPECT, revalidate, worst_grade

        label, result = _load_stored_result(args)
        diagnostics = (result.get("data") or {}).get("diagnostics")
        if not diagnostics:
            print(
                f"doctor: {label}: no diagnostics stored with this result; "
                "cannot vouch for its numbers",
                file=sys.stderr,
            )
            return 1
        rows, regraded = [], []
        for stored in diagnostics.get("checks", []):
            fresh = revalidate(stored)
            regraded.append(fresh)
            rows.append(
                {
                    "check": fresh.name,
                    "eq": fresh.equation,
                    "stored": stored.get("grade", "?"),
                    "revalidated": fresh.grade,
                    "agrees": "yes" if fresh.grade == stored.get("grade") else "NO",
                }
            )
        health = worst_grade(c.grade for c in regraded)
        print(f"# {label}")
        print(format_table(rows))
        flags = [f"  {c.name}: {f}" for c in regraded for f in c.flags]
        if flags:
            print("findings:")
            print("\n".join(flags))
        print(f"health: {health}")
        if health == GRADE_SUSPECT:
            print(
                "verdict: SUSPECT — re-measure before trusting these numbers",
                file=sys.stderr,
            )
            return 1
        print("verdict: ok" if health == "ok" else "verdict: usable with caution")
        return 0

    if args.command == "obs":
        if args.obs_command == "trace":
            import json as _json

            from .service.client import ServiceClient
            from .viz.trace_view import render_trace

            view = ServiceClient(args.url).trace(args.job_id)
            if args.json:
                print(_json.dumps(view, indent=2, sort_keys=True))
                return 0
            state = "complete" if view.get("complete") else "in flight"
            print(f"# trace {view['trace_id']} — job {view['job']} ({state})")
            sys.stdout.write(render_trace(view["spans"]))
            return 0
        if args.obs_command == "top":
            from .obs.export import summarize_manifest

            print(summarize_manifest(args.manifest, limit=args.limit, sort=args.sort))
            return 0
        if args.obs_command == "hot":
            import json as _json
            from pathlib import Path as _Path

            from .obs.sampler import SampleProfile
            from .viz.sampler_view import render_hot_profile

            data = _json.loads(_Path(args.profile).read_text())
            # Accept the CLI artifact ({"kind": "hotpath", "profile": ...}),
            # the service response ({"profile": ...}), or a bare profile.
            profile_dict = data.get("profile", data) if isinstance(data, dict) else data
            print(render_hot_profile(profile_dict, limit=args.limit))
            if args.flame:
                folded = SampleProfile.from_dict(profile_dict).folded()
                _Path(args.flame).write_text("\n".join(folded) + "\n")
                print(f"flamegraph stacks written to {args.flame}")
            return 0
        raise ReproError(f"unknown obs command {args.obs_command!r}")  # pragma: no cover

    if args.command == "plan":
        rows = [
            {"methodology": label, "runs": runs, "processors": procs, "files": files}
            for label, runs, procs, files in table1_rows(args.n)
        ]
        print(format_table(rows, title=f"Table 1 (n = {args.n})"))
        print()
        counts = tuple(2**i for i in range(args.n))
        print(table3_matrix(args.s0, counts).format())
        return 0

    raise ReproError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
