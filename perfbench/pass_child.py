"""One fresh-process pass: import the program, run one request, report.

Run by ``run.py`` as ``python pass_child.py '<job json>'`` with
``SCALTOOL_CACHE_DIR`` pointing at the pass's cache root.  The job names
the request (``kind`` + ``payload``, exactly what ``compile_request``
takes), where to write the request's output text and this process's
measurements, and whether to record layer spans.  With ``"setup": true``
the process stops after building the request (the set-up cost every
pass pays before it can execute).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from layers import SpanRecorder, install
from stats import self_times, span_self_times


def main(job: dict) -> None:
    recorder = SpanRecorder()
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  the user-facing entry point's import cost
    from repro.service.requests import compile_request

    recorder.record("cli.import", t0, time.perf_counter())
    if job.get("trace"):
        install(recorder)
    request = compile_request(job["kind"], job["payload"])
    if not job.get("setup"):
        result = request.execute()
        Path(job["output"]).write_text(result.output)
    self_s, total_s, calls = self_times(recorder.spans)
    by_span = span_self_times(recorder.spans)
    for run in recorder.machine_runs:
        run["seconds"] = by_span[run.pop("span")]
    stats = {
        "import_s": total_s["cli.import"],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "self_s": self_s,
        "total_s": total_s,
        "calls": calls,
        "executor_specs": recorder.executor_specs,
        "cache_hits": recorder.cache_hits,
        "cache_misses": recorder.cache_misses,
        "machine_runs": recorder.machine_runs,
    }
    Path(job["stats"]).write_text(json.dumps(stats))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
