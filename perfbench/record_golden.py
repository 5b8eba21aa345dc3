"""Record golden outputs for the workloads.

    python3 perfbench/record_golden.py --seeds 0-10,1234

For ``analyze-t3dheat`` and ``sweep-falseshare`` each golden copy is the
output of one cold pass of the workload's request at that seed, written
to ``golden/<workload>/seed-<n>.txt``.  For ``service-whatif`` it is
``golden/service-whatif/seed-<n>.json``: digests of the set-up campaign,
the first what-if and the first ``GOLDEN_JOBS`` what-if jobs (see
``service_load.record_golden``).  ``run.py`` checks every pass and job
at a recorded seed against them.  Record only from a commit whose
outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import sys

import service_load
from common import Deadline, Scratch
from run import PASS_WORKLOADS, WORKLOADS, golden_path, run_unit


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def record(workload: str, seed: int) -> str:
    """Record one golden file; return its path."""
    with Scratch() as scratch:
        if workload == "service-whatif":
            path = service_load.golden_path(seed)
            text = json.dumps(service_load.record_golden(seed, scratch, Deadline(600)), indent=0)
        else:
            (cold,) = run_unit(PASS_WORKLOADS[workload], seed, 0, False, scratch, Deadline(600))
            if not cold["ok"]:
                raise RuntimeError(f"{workload} seed {seed} failed: {cold['error']}")
            path, text = golden_path(workload, seed), cold["output"]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="e.g. 0-10,1234")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        for seed in parse_seeds(args.seeds):
            try:
                print("wrote", record(workload, seed))
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
