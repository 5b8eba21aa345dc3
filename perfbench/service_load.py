"""The ``service-whatif`` workload: a warm ``scaltool serve`` under 2 clients.

Everything is measured from outside the server: client-side clocks
around each HTTP call, the job view's ``created``/``started``/``finished``
fields, ``/v1/stats`` counters and the server process's ``/proc`` memory
figures.  The server and the benchmark share one host clock, so the
per-job split ``submit start → created → started → finished → result in
hand`` partitions the latency a client sees.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
from common import GOLDEN, SRC, Deadline, child_env, run_pass

CLIENTS = 2
RTT_PROBES = 20
SETUPS = 3
#: What-if jobs with a golden digest: the first this many factors of each
#: recorded seed's sequence.  Jobs past them are checked in-process only.
GOLDEN_JOBS = 1000
_URL = re.compile(r"listening on http://([\d.]+):(\d+)")


def campaign_payload(seed: int) -> dict:
    return {"workload": "synthetic", "params": {"seed": seed}, "s0": 163840, "counts": [1, 2]}


def whatif_payload(seed: int, factor: float) -> dict:
    return {**campaign_payload(seed), "tm": factor}


def factor_sequence(seed: int, count: int = 20000) -> list[float]:
    """Distinct ``tm`` factors in a seed-determined order (no two jobs dedup)."""
    rng = random.Random(seed)
    return [1.0 + k / 100000 for k in rng.sample(range(1, 100000), count)]


def _traceparent(rng: random.Random) -> str:
    # The bundled client sends a fresh trace context with every submit by
    # default, which makes the server persist a span timeline per job.
    return f"00-{rng.getrandbits(128):032x}-{rng.getrandbits(64):016x}-01"


class Http:
    """One keep-alive connection; JSON in, ``(status, JSON)`` out.

    The benchmark speaks the HTTP API itself rather than through the
    program's client, so what it times is the API a client sees.
    """

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def call(self, method: str, path: str, body: dict | None = None, headers: dict | None = None):
        data = json.dumps(body).encode() if body is not None else None
        all_headers = dict(headers or {})
        if data is not None:
            all_headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=data, headers=all_headers)
            resp = self.conn.getresponse()
            raw = resp.read()
        except (http.client.HTTPException, OSError):
            self.conn.close()
            raise
        return resp.status, json.loads(raw or b"{}")

    def close(self) -> None:
        self.conn.close()


def run_job(client: Http, kind: str, payload: dict, rng: random.Random) -> dict:
    """Submit, then long-poll the result; times taken on the client side."""
    t_wall = time.time()
    t0 = time.perf_counter()
    status, body = client.call(
        "POST", "/v1/jobs", {"kind": kind, "payload": payload},
        headers={"traceparent": _traceparent(rng)},
    )
    t1 = time.perf_counter()
    if status != 202:
        raise RuntimeError(f"submit answered {status}: {body}")
    job_id = body["id"]
    while True:
        status, view = client.call("GET", f"/v1/jobs/{job_id}/result?wait=30")
        if status == 200:
            break
        if status != 202:
            raise RuntimeError(f"result answered {status}: {view}")
    t2 = time.perf_counter()
    output = (view.get("result") or {}).get("output")
    return {
        "id": job_id,
        "payload": payload,
        "state": view.get("state"),
        "output": output,
        "submit_wall": t_wall,
        "submit_s": t1 - t0,
        "latency_s": t2 - t0,
        "done_wall": t_wall + (t2 - t0),
    }


def _proc_kib(pid: int, field: str) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


class Server:
    """``python -m repro.cli serve --port 0`` (the default single-process topology)."""

    def __init__(self, root: Path, deadline: Deadline) -> None:
        self.root = root
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            cwd=root,
            env=child_env(root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._stderr_tail: list[str] = []
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port(deadline)
            self.http = Http(self.port)
            self._await_healthy(deadline)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr_tail = (self._stderr_tail + [line])[-20:]
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, deadline: Deadline) -> int:
        while True:
            try:
                line = self._lines.get(timeout=max(0.1, min(1.0, deadline.remaining())))
            except queue.Empty:
                line = ""
            if line is None or deadline.remaining() <= 0:
                raise RuntimeError("server did not start: " + "".join(self._stderr_tail))
            match = _URL.search(line or "")
            if match:
                return int(match.group(2))

    def _await_healthy(self, deadline: Deadline) -> None:
        while deadline.remaining() > 0:
            try:
                status, _ = self.http.call("GET", "/healthz")
                if status == 200:
                    return
            except (http.client.HTTPException, OSError):
                pass
            time.sleep(0.02)
        raise RuntimeError("server never became healthy")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Drain, interrupt (the CLI's clean shutdown), and wait for exit."""
        try:
            self.http.call("POST", "/v1/drain", {"timeout": 10})
        except (http.client.HTTPException, OSError):
            pass
        self.http.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


def _counters(server: Server) -> dict:
    status, body = server.http.call("GET", "/v1/stats")
    return body.get("counters", {}) if status == 200 else {}


def _closed_loop(port: int, seconds: float, factors, seed: int, payload_for) -> tuple[list, list, float]:
    """``CLIENTS`` threads, each submit → long-poll → next, for ``seconds``."""
    lock = threading.Lock()
    jobs: list[dict] = []
    errors: list[str] = []
    it = iter(factors)

    def client_loop(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        client = Http(port)
        try:
            while time.perf_counter() < end:
                with lock:
                    factor = next(it)
                try:
                    job = run_job(client, "whatif", payload_for(factor), rng)
                except (RuntimeError, http.client.HTTPException, OSError) as exc:
                    with lock:
                        errors.append(str(exc))
                    client.close()
                    client = Http(port)
                    continue
                with lock:
                    jobs.append(job)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)]
    t0 = time.perf_counter()
    end = t0 + seconds
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return jobs, errors, time.perf_counter() - t0


def digest(text: str | None) -> str | None:
    """A short content digest of one output (None stays None)."""
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_path(seed: int) -> Path:
    return GOLDEN / "service-whatif" / f"seed-{seed}.json"


def load_golden(seed: int) -> dict | None:
    path = golden_path(seed)
    return json.loads(path.read_text()) if path.is_file() else None


def golden_by_factor(golden: dict | None, factors: list[float], warm_factor: float) -> dict:
    """``{tm factor: golden digest}`` for every what-if the golden file covers."""
    if golden is None:
        return {}
    return {**dict(zip(factors, golden["whatif"])), warm_factor: golden["warm_whatif"]}


def expected_outputs(root: Path, jobs: list[dict]) -> dict:
    """What in-process ``compile_request("whatif", ...).execute`` prints for
    each job against the server's cache root (the CLI's path)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.service.requests import compile_request

    return {
        job["id"]: compile_request("whatif", job["payload"]).execute(cache_root=root).output
        for job in jobs
    }


def failed_jobs(jobs: list[dict], expected: dict, golden: dict | None = None) -> int:
    """Jobs that did not end ``done`` with the bytes in-process execution
    prints, or whose digest differs from the golden one for their factor."""
    golden = golden or {}

    def ok(job: dict) -> bool:
        if job["state"] != "done" or job["output"] != expected.get(job["id"]):
            return False
        want = golden.get(job["payload"]["tm"])
        return want is None or digest(job["output"]) == want

    return sum(not ok(job) for job in jobs)


def record_golden(seed: int, scratch, deadline: Deadline) -> dict:
    """Golden digests for ``seed``: the set-up campaign and first what-if
    as one server answers them, and the first :data:`GOLDEN_JOBS` what-if
    outputs as in-process execution prints them against that server's root."""
    factors = factor_sequence(seed)
    warm_factor = factors.pop()
    rng = random.Random(seed)
    server = Server(scratch.new_root("golden"), deadline)
    try:
        campaign = run_job(server.http, "campaign", campaign_payload(seed), rng)
        warm = run_job(server.http, "whatif", whatif_payload(seed, warm_factor), rng)
    finally:
        server.stop()
    jobs = [{"id": i, "payload": whatif_payload(seed, f)} for i, f in enumerate(factors[:GOLDEN_JOBS])]
    expected = expected_outputs(server.root, jobs + [warm])
    if campaign["state"] != "done" or failed_jobs([warm], expected):
        raise RuntimeError(f"seed {seed}: the service's set-up jobs failed or disagree in-process")
    return {
        "campaign": digest(campaign["output"]),
        "warm_whatif": digest(warm["output"]),
        "whatif": [digest(expected[job["id"]]) for job in jobs],
    }


def run(seed: int, seconds: float, trace: bool, scratch, deadline: Deadline) -> dict:
    """Set up ``SETUPS`` times (once in trace mode), then measure the last server."""
    servers: list[Server] = []
    try:
        return _run(seed, seconds, trace, scratch, deadline, servers)
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.stop()


def _run(seed, seconds, trace, scratch, deadline, servers) -> dict:
    rng = random.Random(seed)
    factors = factor_sequence(seed)
    warm_factor = factors.pop()
    golden = load_golden(seed)
    golden_digests = golden_by_factor(golden, factors, warm_factor)
    setup_s, campaigns, warms = [], [], []
    for i in range(1 if trace else SETUPS):
        if servers:
            servers[-1].stop()
        root = scratch.new_root("service")
        t0 = time.perf_counter()
        servers.append(Server(root, deadline))
        server = servers[-1]
        campaigns.append(run_job(server.http, "campaign", campaign_payload(seed), rng))
        setup_s.append(time.perf_counter() - t0)
        warms.append(run_job(server.http, "whatif", whatif_payload(seed, warm_factor), rng))
    # Every set-up's campaign must be done, with the same bytes as the last
    # set-up's and the golden digest (where recorded).
    failed = sum(
        c["state"] != "done"
        or c["output"] != campaigns[-1]["output"]
        or (golden is not None and digest(c["output"]) != golden["campaign"])
        for c in campaigns
    )

    layer: dict = {}
    probe_s = 0.0
    if trace:
        t0 = time.perf_counter()
        rtts = []
        for _ in range(RTT_PROBES):
            t = time.perf_counter()
            server.http.call("GET", "/healthz")
            rtts.append(time.perf_counter() - t)
        layer["service.rtt_s"] = stats.median(rtts)
        probe_s += time.perf_counter() - t0
    before = _counters(server)
    rss_before = _proc_kib(server.pid, "VmRSS")
    jobs, errors, phase_s = _closed_loop(
        server.port, seconds, factors, seed, lambda f: whatif_payload(seed, f)
    )
    rss_after = _proc_kib(server.pid, "VmRSS")
    peak_kib = _proc_kib(server.pid, "VmHWM")
    t0 = time.perf_counter()
    after = _counters(server)
    status, listing = server.http.call("GET", "/v1/jobs")
    views = {j["id"]: j for j in listing.get("jobs", [])} if status == 200 else {}
    probe_s += time.perf_counter() - t0
    server.stop()

    # Correctness: every what-if job done, its bytes equal in-process
    # execution's and its digest the golden one (where recorded).
    expected = expected_outputs(server.root, jobs + warms)
    attempted = len(campaigns) + len(warms) + len(jobs) + len(errors)
    failed += len(errors) + failed_jobs(jobs + warms, expected, golden_digests)

    latencies = [j["latency_s"] for j in jobs]
    p95 = stats.percentile(latencies, 95)
    result = {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": stats.median(setup_s),
            "wall_s": stats.ratio(sum(latencies), len(latencies)),
            "warm_wall_s": stats.median(w["latency_s"] for w in warms),
            "jobs_per_s": stats.ratio(len(jobs), phase_s),
            "job_latency_p50_s": stats.median(latencies),
            "job_latency_p95_s": p95,
            "peak_rss_mb": peak_kib / 1024,
        },
    }
    if trace:
        spans = {"ingress": [], "queue_wait": [], "run": [], "delivery": []}
        for job in jobs:
            view = views.get(job["id"], {})
            created, started, finished = (view.get(k) for k in ("created", "started", "finished"))
            if None in (created, started, finished):
                continue
            spans["ingress"].append(created - job["submit_wall"])
            spans["queue_wait"].append(started - created)
            spans["run"].append(finished - started)
            spans["delivery"].append(job["done_wall"] - finished)
        submits = [j["submit_s"] for j in sorted(jobs, key=lambda j: j["submit_wall"])]
        planned = after.get("plan.specs", 0) - before.get("plan.specs", 0)
        executed = after.get("batch.specs", 0) - before.get("batch.specs", 0)
        importer = run_pass(
            {"kind": "campaign", "payload": campaign_payload(seed), "setup": True},
            scratch.new_root("import"), deadline,
        )
        traced_wall = sum(latencies)
        attributed = sum(sum(v) for v in spans.values())
        layer.update({
            "cli.import_s": importer["stats"]["import_s"] if importer["ok"] else 0.0,
            "service.campaign_s": stats.median(c["latency_s"] for c in campaigns),
            "service.submit_s": stats.median(submits),
            "service.ingress_s": stats.median(spans["ingress"]),
            "service.queue_wait_s": stats.median(spans["queue_wait"]),
            "service.run_s": stats.median(spans["run"]),
            "service.delivery_s": stats.median(spans["delivery"]),
            "service.submit_drift": stats.decile_drift(submits),
            "service.rss_growth_mb": (rss_after - rss_before) / 1024,
            "service.plan_specs": planned,
            "service.batch_specs": executed,
            "service.dedup_hit_ratio": 1.0 - stats.ratio(executed, planned) if planned else 0.0,
            "latency_samples": len(latencies),
            "samples_beyond_p95": stats.samples_beyond(latencies, p95),
            "trace.wall_s": traced_wall,
            "trace.unattributed_s": traced_wall - attributed,
            "trace.overhead_ratio": stats.ratio(phase_s + probe_s, phase_s),
        })
        result["layer"] = layer
    return result
