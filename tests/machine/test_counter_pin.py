"""Exact counter pins for the simulator across its configuration matrix.

Every hardware counter, ground-truth field, per-phase counter delta and the
wall-clock cycle count of small runs on the tiny machine are compared with
``==`` against ``counter_pin.json``.  Any change to the per-reference access
path must reproduce these numbers bit for bit: run-cache records and every
estimate downstream are keyed on them.

The matrix covers each replacement policy, both protocols, the TLB and the
victim buffer on and off, and the coarse-vector directory, at one and four
processors, over three workloads with different sharing behaviour.

Regenerate the fixture (only when a change is *meant* to move counters)::

    PYTHONPATH=src python -m tests.machine.test_counter_pin --record
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.machine.system import DsmMachine
from repro.workloads.registry import make_workload

from ..conftest import tiny_machine_config

FIXTURE = Path(__file__).with_name("counter_pin.json")

# name -> (MachineConfig overrides, replacement policy, associativity, directory
# kind).  Policy and associativity apply to both cache levels; 4-way sets
# keep tree-PLRU distinct from true LRU (at 2 ways they coincide).
CONFIGS: dict[str, tuple[dict, str, int, str]] = {
    "lru": ({}, "lru", 2, "bitvector"),
    "lru-4way": ({}, "lru", 4, "bitvector"),
    "fifo": ({}, "fifo", 4, "bitvector"),
    "random": ({}, "random", 4, "bitvector"),
    "plru": ({}, "plru", 4, "bitvector"),
    "msi": ({"protocol": "msi"}, "lru", 2, "bitvector"),
    "tlb16": ({"tlb_entries": 16}, "lru", 2, "bitvector"),
    "victim4": ({"victim_entries": 4}, "lru", 2, "bitvector"),
    "coarse": ({}, "lru", 2, "coarse"),
    "all-options": (
        {"protocol": "msi", "tlb_entries": 16, "victim_entries": 4}, "plru", 4, "coarse",
    ),
}

# name -> (registry name, parameters, data-set size in bytes)
WORKLOADS: dict[str, tuple[str, dict, int]] = {
    "synthetic": (
        "synthetic",
        dict(iters=2, barriers_per_iter=2, refs_per_block=3, sharing_frac=0.25,
             imbalance_amp=0.2, seed=11),
        16 * 1024,
    ),
    "falseshare": ("falseshare", dict(iters=2), 4 * 1024),
    "t3dheat": ("t3dheat", dict(iters=1, inner_steps=2, spmv_splits=1, dot_splits=2), 16 * 1024),
}

COUNTS = (1, 4)


def _case_ids() -> list[str]:
    return [f"{w}/{c}/n{n}" for w in WORKLOADS for c in CONFIGS for n in COUNTS]


def _run(case_id: str) -> dict:
    wname, cname, n = case_id.split("/")
    overrides, policy, assoc, directory = CONFIGS[cname]
    base = tiny_machine_config()
    cfg = tiny_machine_config(
        n_processors=int(n[1:]),
        l1=replace(base.l1, replacement=policy, associativity=assoc),
        l2=replace(base.l2, replacement=policy, associativity=assoc),
        **overrides,
    )
    registry_name, params, size = WORKLOADS[wname]
    res = DsmMachine(cfg, directory_kind=directory).run(make_workload(registry_name, **params), size)
    return {
        "counters": [c.to_dict() for c in res.per_cpu_counters],
        "ground_truth": [g.to_dict() for g in res.per_cpu_ground_truth],
        "phases": [[name, delta.to_dict()] for name, delta in res.phase_counters],
        "wall_cycles": res.wall_cycles,
    }


def _pins() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_matrix():
    assert sorted(_pins()) == sorted(_case_ids())


@pytest.mark.parametrize("case_id", _case_ids())
def test_counters_pinned(case_id):
    expected = _pins()[case_id]
    got = _run(case_id)
    # Round-trip through JSON so int/float field types compare like the fixture.
    got = json.loads(json.dumps(got))
    assert got["wall_cycles"] == expected["wall_cycles"]
    assert got["counters"] == expected["counters"]
    assert got["ground_truth"] == expected["ground_truth"]
    assert got["phases"] == expected["phases"]


def _record() -> None:
    # One compact line per case keeps the file small and its diffs readable.
    lines = [
        f"{json.dumps(case_id)}: {json.dumps(_run(case_id), sort_keys=True, separators=(',', ':'))}"
        for case_id in _case_ids()
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {FIXTURE}")


if __name__ == "__main__":  # pragma: no cover - fixture maintenance
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python -m tests.machine.test_counter_pin --record")
    _record()
