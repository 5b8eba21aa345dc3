"""Run records: the serialisable measurement unit of a campaign.

A :class:`RunRecord` is "one output file" in the paper's resource
accounting: the hardware counter values of one program run at one
(data-set size, processor count) point, plus enough metadata to identify
it.  The simulator's ground truth rides along in a clearly separated field
that only the validation tools read.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import CounterFormatError
from ..machine.counters import CounterSet, GroundTruth
from ..machine.system import RunResult

__all__ = ["RunRecord", "save_records", "load_records", "write_text_atomic"]

# Record roles, set by the campaign: which part of the Table 3 plan (or the
# Section 2.4.2 kernel suite) a run belongs to.
ROLE_APP_BASE = "app_base"  # base size s0 at some processor count
ROLE_APP_FRAC = "app_frac"  # fractional size on a uniprocessor
ROLE_SYNC_KERNEL = "sync_kernel"
ROLE_SPIN_KERNEL = "spin_kernel"
ROLE_LATENCY_KERNEL = "latency_kernel"


@dataclass
class RunRecord:
    """One run's measurements."""

    workload: str
    params: dict
    size_bytes: int
    n_processors: int
    role: str
    machine: dict
    counters: CounterSet
    per_cpu: list[CounterSet] = field(default_factory=list)
    wall_cycles: float = 0.0
    phase_counters: list[tuple[str, CounterSet]] = field(default_factory=list)
    ground_truth: GroundTruth | None = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_result(
        cls,
        result: RunResult,
        role: str = ROLE_APP_BASE,
        keep_ground_truth: bool = True,
        keep_phases: bool = True,
    ) -> "RunRecord":
        cfg = result.config
        machine = {
            "l1_bytes": cfg.l1.size,
            "l2_bytes": cfg.l2.size,
            "line_size": cfg.line_size,
            "l1_associativity": cfg.l1.associativity,
            "l2_associativity": cfg.l2.associativity,
            "topology": cfg.interconnect.topology,
            "page_size": cfg.memory.page_size,
            "placement": cfg.memory.placement,
        }
        return cls(
            workload=result.workload_name,
            params=dict(result.metadata.get("workload_params", {})),
            size_bytes=result.size_bytes,
            n_processors=result.n_processors,
            role=role,
            machine=machine,
            counters=result.counters,
            per_cpu=list(result.per_cpu_counters),
            wall_cycles=result.wall_cycles,
            phase_counters=list(result.phase_counters) if keep_phases else [],
            ground_truth=result.ground_truth if keep_ground_truth else None,
        )

    def without_ground_truth(self) -> "RunRecord":
        """The record as Scal-Tool is allowed to see it."""
        return RunRecord(
            workload=self.workload,
            params=self.params,
            size_bytes=self.size_bytes,
            n_processors=self.n_processors,
            role=self.role,
            machine=self.machine,
            counters=self.counters,
            per_cpu=self.per_cpu,
            wall_cycles=self.wall_cycles,
            phase_counters=self.phase_counters,
            ground_truth=None,
        )

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "workload": self.workload,
            "params": self.params,
            "size_bytes": self.size_bytes,
            "n_processors": self.n_processors,
            "role": self.role,
            "machine": self.machine,
            "counters": self.counters.to_dict(),
            "per_cpu": [c.to_dict() for c in self.per_cpu],
            "wall_cycles": self.wall_cycles,
            "phase_counters": [[name, c.to_dict()] for name, c in self.phase_counters],
        }
        if self.ground_truth is not None:
            out["ground_truth"] = self.ground_truth.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        try:
            return cls(
                workload=data["workload"],
                params=dict(data.get("params", {})),
                size_bytes=int(data["size_bytes"]),
                n_processors=int(data["n_processors"]),
                role=data.get("role", ROLE_APP_BASE),
                machine=dict(data.get("machine", {})),
                counters=CounterSet.from_dict(data["counters"]),
                per_cpu=[CounterSet.from_dict(c) for c in data.get("per_cpu", [])],
                wall_cycles=float(data.get("wall_cycles", 0.0)),
                phase_counters=[
                    (name, CounterSet.from_dict(c)) for name, c in data.get("phase_counters", [])
                ],
                ground_truth=(
                    GroundTruth.from_dict(data["ground_truth"]) if "ground_truth" in data else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CounterFormatError(f"bad run record: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise CounterFormatError(f"bad run record JSON: {exc}") from exc

    def key(self) -> tuple:
        """Identity of the measurement point."""
        return (self.workload, self.role, self.size_bytes, self.n_processors)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (write-then-rename).

    Concurrent writers of one file — e.g. two service jobs that resolved
    to the same campaign — never leave a torn file behind.  The temp name
    carries the pid *and* the thread id, because service jobs write
    concurrently from threads of one process.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def save_records(records: list[RunRecord], path: str | Path) -> None:
    """Write records as JSON lines (one file per campaign manifest), atomically."""
    write_text_atomic(path, "".join(rec.to_json() + "\n" for rec in records))


def load_records(path: str | Path) -> list[RunRecord]:
    """Read a JSONL manifest written by :func:`save_records`."""
    out = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(RunRecord.from_json(line))
    return out
