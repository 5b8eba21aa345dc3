"""Paths, scratch roots, pass processes, host speed and the host record."""

from __future__ import annotations

import bisect
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Every cache root, job store and pass output lives under here: a run may
#: write only inside its checkout.  Each run removes what it made.
SCRATCH = ROOT / ".perfbench_tmp"
GOLDEN = HERE / "golden"
#: The reference host speed: the calibration loop at this many ns per
#: iteration.  Pass times are reported as seconds on such a host.
REF_NS = 100.0


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file() and (SRC / "repro" / "cli.py").is_file()


class Scratch:
    """A run's private directory under :data:`SCRATCH`, removed on exit."""

    def __enter__(self) -> "Scratch":
        SCRATCH.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=SCRATCH))
        return self

    def new_root(self, label: str) -> Path:
        """A fresh, empty cache root."""
        path = self.path / f"{label}-{uuid.uuid4().hex[:8]}"
        path.mkdir()
        return path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def child_env(cache_root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SCALTOOL_CACHE_DIR"] = str(cache_root)
    return env


class Deadline:
    """The run's overall time budget, shared by every child it starts."""

    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def remaining(self) -> float:
        return max(0.0, self.end - time.monotonic())


#: How often ``run_pass`` notes which CPU the pass process is on.
CPU_POLL_S = 0.05


def _current_cpu(pid: int) -> int | None:
    """The CPU ``pid`` last ran on (field 39 of ``/proc/<pid>/stat``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[36])


def run_pass(job: dict, cache_root: Path, deadline: Deadline) -> dict:
    """Run ``pass_child.py`` for ``job`` in a fresh process; time it from here.

    Returns ``{"ok", "start", "end", "wall_s", "cpus", "output", "stats",
    "error"}``; ``start``/``end`` are this process's ``perf_counter`` at
    spawn and exit, ``wall_s`` their difference, ``cpus`` the
    ``(perf_counter, cpu)`` the pass process was seen on every
    :data:`CPU_POLL_S`; ``ok`` is False when the child failed, timed out
    or wrote nothing.
    """
    tag = uuid.uuid4().hex[:8]
    job = dict(job, output=str(cache_root / f"out-{tag}.txt"), stats=str(cache_root / f"stats-{tag}.json"))
    cmd = [sys.executable, str(HERE / "pass_child.py"), json.dumps(job)]
    cpus: list[tuple[float, int]] = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cache_root, env=child_env(cache_root), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    while True:
        try:
            _, stderr = proc.communicate(timeout=CPU_POLL_S)
            break
        except subprocess.TimeoutExpired:
            cpu = _current_cpu(proc.pid)
            if cpu is not None:
                cpus.append((time.perf_counter(), cpu))
            if not deadline.remaining():
                proc.kill()
                proc.communicate()
                stderr = None
                break
    end = time.perf_counter()
    if stderr is None:
        result = {"ok": False, "output": None, "stats": None, "error": "timed out"}
    elif proc.returncode != 0:
        result = {"ok": False, "output": None, "stats": None,
                  "error": stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    else:
        output = None if job.get("setup") else Path(job["output"]).read_text()
        result = {"ok": True, "output": output,
                  "stats": json.loads(Path(job["stats"]).read_text()), "error": None}
    return dict(result, start=t0, end=end, wall_s=end - t0, cpus=cpus)


def cpu_ns_per_iter(seconds: float) -> float:
    """ns per iteration of the fixed pure-Python calibration loop, run for
    about ``seconds`` of this thread's CPU time.

    CPU time, not wall time: time spent waiting for a CPU (or the GIL)
    does not count, only how fast the CPU runs the loop.
    """
    iterations = 0
    acc = 0
    t0 = time.thread_time()
    while time.thread_time() - t0 < seconds:
        for i in range(2_000):
            acc = (acc + i * i) % 1_000_003
        iterations += 2_000
    return (time.thread_time() - t0) / iterations * 1e9


class HostSpeed:
    """Each CPU's speed while passes run, sampled from outside them.

    The host's CPUs speed up and slow down by tens of percent over seconds
    to minutes, each on its own, and a CPU-bound pass goes with the CPU it
    runs on.  So while a run's passes execute, one sampler process
    (``speed_sampler.py``) pinned to each CPU runs the calibration loop for
    :data:`SAMPLE_S` of CPU time every :data:`INTERVAL_S` and logs
    ``perf_counter ns_per_iter`` lines.  A pass's speed is that of the
    CPU it was seen on (``run_pass``'s ``cpus``), sample by sample.  No
    sample runs in the program's processes, and CPU time leaves out any
    wait for the CPU when the program keeps it busy.
    """

    SAMPLE_S = 0.005
    INTERVAL_S = 0.1

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.cpus = sorted(os.sched_getaffinity(0))

    def _log(self, cpu: int) -> Path:
        return self.log_dir / f"speed-cpu{cpu}.log"

    def __enter__(self) -> "HostSpeed":
        self.procs = [
            subprocess.Popen([sys.executable, str(HERE / "speed_sampler.py"), str(self._log(cpu)),
                              str(cpu), str(self.SAMPLE_S), str(self.INTERVAL_S)],
                             stdin=subprocess.DEVNULL)
            for cpu in self.cpus
        ]
        # Every CPU has a sample before any pass starts.
        while not all(self.samples().values()) and all(p.poll() is None for p in self.procs):
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()

    def samples(self) -> dict[int, list[tuple[float, float]]]:
        """Every ``(time, ns_per_iter)`` sample so far, by CPU."""
        found = {}
        for cpu in self.cpus:
            log = self._log(cpu)
            lines = log.read_text().split("\n")[:-1] if log.is_file() else []  # the last may be partial
            found[cpu] = [(float(t), float(ns)) for t, ns in (line.split() for line in lines)]
        return found

    def ns_per_iter(self, p: dict | None = None) -> float:
        """Mean ns per iteration on the CPUs pass ``p`` was seen on, each at
        the sample nearest in time; over every sample without ``p`` or when
        ``p`` was never seen."""
        samples = self.samples()
        if p is not None and p["cpus"]:
            picks = []
            for t, cpu in p["cpus"]:
                times = [ts for ts, _ in samples[cpu]]
                i = bisect.bisect(times, t)
                near = min(samples[cpu][max(0, i - 1):i + 1], key=lambda s: abs(s[0] - t))
                picks.append(near[1])
            return sum(picks) / len(picks)
        every = [ns for per_cpu in samples.values() for _, ns in per_cpu]
        return sum(every) / len(every)

    def to_reference(self, p: dict) -> float:
        """Pass ``p``'s wall time at the reference speed (:data:`REF_NS`)."""
        return p["wall_s"] * REF_NS / self.ns_per_iter(p)


def host_record(calib_ns: float) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_ns_per_iter": calib_ns,
    }
