"""The repository benchmark: one command, three workloads, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists is recorded in ``BENCHMARK.json``):

* ``analyze-t3dheat`` — the ``analyze`` request the CLI builds for
  T3dheat: a cold pass (fresh process, empty cache root) then warm passes
  (fresh processes against that cache).
* ``sweep-falseshare`` — a cold, then warm, ``sweep`` of ``falseshare`` at
  n=16 over protocol x shared_frac.
* ``service-whatif`` — ``scaltool serve`` warmed by a small synthetic
  campaign, then 2 closed-loop what-if clients (see ``service_load.py``).

``--seed`` becomes the workloads' ``seed`` parameter and orders the
service's what-if factors.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced unit and prints the
per-layer metrics.  A host record line precedes the result line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import service_load
import stats
from common import GOLDEN, ROOT, Deadline, HostSpeed, Scratch, cpu_ns_per_iter, host_record, program_present, run_pass
from layers import SPAN_NAMES

#: Hard stop for everything one run does (the contract allows 180 s).
RUN_BUDGET_S = 170.0
#: Fresh-process set-ups per run; their median is ``setup_s``.
SETUPS = 3
#: Warm passes after each cold pass (untraced units).
WARM_PASSES = 6


def analyze_request(seed: int) -> tuple[str, dict]:
    # What `scaltool analyze t3dheat` compiles, plus the workload seed.
    return "analyze", {
        "workload": "t3dheat",
        "params": {"seed": seed},
        "s0": None,
        "counts": [1, 2, 4, 8, 16, 32],
        "markdown": False,
    }


def sweep_request(seed: int) -> tuple[str, dict]:
    # What `scaltool sweep falseshare -n 16 --workload-axis shared_frac=0.25,0.5
    # --machine-axis protocol=mesi,msi --metric cpi --metric l2_misses
    # --metric store_exclusive_to_shared` compiles, plus the workload seed.
    return "sweep", {
        "workload": "falseshare",
        "params": {"seed": seed},
        "size": None,
        "n": 16,
        "workload_axes": {"shared_frac": [0.25, 0.5]},
        "machine_axes": {"protocol": ["mesi", "msi"]},
        "metrics": ["cpi", "l2_misses", "store_exclusive_to_shared"],
    }


PASS_WORKLOADS = {"analyze-t3dheat": analyze_request, "sweep-falseshare": sweep_request}
WORKLOADS = (*PASS_WORKLOADS, "service-whatif")


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN / workload / f"seed-{seed}.txt"


def check_output(output: str | None, golden: str | None, reference: str | None) -> bool:
    """A pass is correct when it produced output equal to the golden copy
    (when one is recorded for its seed) and to its unit's cold pass."""
    if output is None:
        return False
    if golden is not None and output != golden:
        return False
    return reference is None or output == reference


def run_unit(request, seed: int, warm_passes: int, trace: bool, scratch, deadline) -> list[dict]:
    """One cold pass on a fresh root, then ``warm_passes`` on the same root.

    Each pass is a fresh process.
    """
    kind, payload = request(seed)
    root = scratch.new_root("unit")
    job = {"kind": kind, "payload": payload, "trace": trace}
    passes = [dict(run_pass(job, root, deadline), cold=True)]
    for _ in range(warm_passes):
        if not deadline.remaining():
            break
        passes.append(dict(run_pass(job, root, deadline), cold=False))
    return passes


def mark(passes: list[dict], golden: str | None) -> None:
    reference = passes[0]["output"]
    for p in passes:
        p["correct"] = p["ok"] and check_output(p["output"], golden, None if p["cold"] else reference)


def layer_metrics(passes: list[dict], calib_ns: float) -> dict:
    """Per-layer figures of one traced unit (summed over its passes);
    ``calib_ns`` is the calibration loop's speed while they ran."""
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    runs: list[dict] = []
    specs = hits = misses = 0
    imports = []
    for p in passes:
        st = p["stats"] or {}
        for name, v in st.get("self_s", {}).items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in st.get("total_s", {}).items():
            total_s[name] = total_s.get(name, 0.0) + v
        runs += st.get("machine_runs", [])
        specs += st.get("executor_specs", 0)
        hits += st.get("cache_hits", 0)
        misses += st.get("cache_misses", 0)
        if st:
            imports.append(st["import_s"])
    uni = [r for r in runs if r["n"] == 1]
    mp = [r for r in runs if r["n"] > 1]
    uni_s = sum(r["seconds"] for r in uni)
    mp_s = sum(r["seconds"] for r in mp)
    uni_ns = stats.ratio(uni_s, sum(r["refs"] for r in uni)) * 1e9
    wall = sum(p["wall_s"] for p in passes)
    attributed = sum(self_s.get(name, 0.0) for name in SPAN_NAMES)
    machine_total = total_s.get("machine.run", 0.0)
    return {
        "machine.run_s": self_s.get("machine.run", 0.0),
        "machine.uni_run_s": uni_s,
        "machine.mp_run_s": mp_s,
        "machine.uni_ns_per_ref": uni_ns,
        "machine.mp_ns_per_ref": stats.ratio(mp_s, sum(r["refs"] for r in mp)) * 1e9,
        "machine.ns_per_ref_norm": stats.ratio(uni_ns, calib_ns),
        "machine.runs": len(runs),
        "machine.refs": sum(r["refs"] for r in runs),
        "machine.l2_misses": sum(r["l2_misses"] for r in runs),
        "machine.store_to_shared": sum(r["store_to_shared"] for r in runs),
        "machine.sim_cycles": sum(r["sim_cycles"] for r in runs),
        "runner.specs": specs,
        "runner.compile_s": self_s.get("runner.compile", 0.0),
        "runner.key_s": self_s.get("runner.key", 0.0),
        "runner.cache_hits": hits,
        "runner.cache_misses": misses,
        "runner.cache_get_s": self_s.get("runner.cache_get", 0.0),
        "runner.cache_put_s": self_s.get("runner.cache_put", 0.0),
        "runner.executor_s": self_s.get("runner.executor", 0.0),
        "runner.overhead_per_spec_s": stats.ratio(
            total_s.get("runner.executor", 0.0) - machine_total, specs
        ),
        "core.analyze_s": self_s.get("core.analyze", 0.0),
        "core.render_s": self_s.get("core.render", 0.0),
        "cli.import_s": stats.median(imports),
        "cli.import_total_s": self_s.get("cli.import", 0.0),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - attributed,
    }


def run_passes(workload: str, seed: int, seconds: float, trace: bool, scratch, deadline) -> dict:
    with HostSpeed(scratch.path) as speed:
        return _run_passes(workload, seed, seconds, trace, scratch, deadline, speed)


def _run_passes(workload, seed, seconds, trace, scratch, deadline, speed: HostSpeed) -> dict:
    request = PASS_WORKLOADS[workload]
    path = golden_path(workload, seed)
    golden = path.read_text() if path.is_file() else None
    if trace:
        plain = run_unit(request, seed, 1, False, scratch, deadline)
        traced = run_unit(request, seed, 1, True, scratch, deadline)
        mark(plain, golden)
        mark(traced, golden)
        passes = plain + traced
        layer = layer_metrics(traced, stats.median(speed.ns_per_iter(p) for p in traced))
        layer["trace.overhead_ratio"] = stats.ratio(
            sum(speed.to_reference(p) for p in traced), sum(speed.to_reference(p) for p in plain)
        )
        walls = [p["wall_s"] for p in plain]
        layer["latency_samples"] = len(walls)
        layer["samples_beyond_p95"] = stats.samples_beyond(walls, stats.percentile(walls, 95))
        result = {"layer": layer}
    else:
        kind, payload = request(seed)
        setups = []
        for _ in range(SETUPS):
            setup = run_pass({"kind": kind, "payload": payload, "setup": True},
                             scratch.new_root("setup"), deadline)
            setup["correct"] = setup["ok"]
            setups.append(setup)
        passes = []
        # Units until their time at reference speed reaches ``seconds``:
        # the unscaled time would flip the unit count with the host's speed.
        while not passes or (
            sum(speed.to_reference(p) for p in passes) < seconds and deadline.remaining()
        ):
            unit = run_unit(request, seed, WARM_PASSES, False, scratch, deadline)
            mark(unit, golden)
            passes += unit
        for p in passes + setups:
            p["ref_s"] = speed.to_reference(p)
        walls = [p["ref_s"] for p in passes]
        p95 = stats.percentile(walls, 95)
        result = {
            "e2e": {
                "setup_s": stats.median(s["ref_s"] for s in setups),
                "wall_s": stats.median(p["ref_s"] for p in passes if p["cold"]),
                "warm_wall_s": stats.median(p["ref_s"] for p in passes if not p["cold"]),
                "jobs_per_s": stats.ratio(len(walls), sum(walls)),
                "job_latency_p50_s": stats.median(walls),
                "job_latency_p95_s": p95,
                "peak_rss_mb": stats.median(
                    p["stats"]["peak_rss_kib"] / 1024 for p in passes if p["cold"] and p["ok"]
                ),
            }
        }
        # Beside the result: the same medians as measured, before scaling.
        print(json.dumps({"measured": {
            "setup_s": stats.median(s["wall_s"] for s in setups),
            "wall_s": stats.median(p["wall_s"] for p in passes if p["cold"]),
            "warm_wall_s": stats.median(p["wall_s"] for p in passes if not p["cold"]),
            "calibration_ns_per_iter": speed.ns_per_iter(),
        }}))
        passes += setups
    result["attempted"] = len(passes)
    result["failed"] = sum(not p["correct"] for p in passes)
    for p in passes:
        if p["error"]:
            print(f"pass failed: {p['error']}", file=sys.stderr)
    return result


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not program_present():
        print(f"no program source under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    metric_defs = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = Deadline(RUN_BUDGET_S)
    print(json.dumps({"host": host_record(cpu_ns_per_iter(0.25)), "workload": args.workload,
                      "seed": args.seed}))
    with Scratch() as scratch:
        if args.workload == "service-whatif":
            result = service_load.run(args.seed, args.seconds, bool(args.trace), scratch, deadline)
        else:
            result = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                                scratch, deadline)
    if args.trace:
        values = dict(result["layer"], failed_ratio=stats.ratio(result["failed"], result["attempted"]))
    else:
        values = result["e2e"]
    # Layers a workload does not exercise read 0; a name no metric defines
    # is a bug in this benchmark.
    unknown = set(values) - {m["name"] for m in metric_defs}
    if unknown:
        raise KeyError(f"metrics not defined in BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in metric_defs
    }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
