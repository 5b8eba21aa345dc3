"""Log one CPU's speed until terminated (see ``common.HostSpeed``).

    python3 speed_sampler.py LOG CPU SAMPLE_S INTERVAL_S

Pins itself to ``CPU``; every ``INTERVAL_S`` seconds, runs the
calibration loop for ``SAMPLE_S`` seconds of CPU time and appends
``<perf_counter at start> <ns per iteration>`` to ``LOG``.
"""

from __future__ import annotations

import os
import sys
import time

from common import cpu_ns_per_iter


def main(log: str, cpu: int, sample_s: float, interval_s: float) -> None:
    os.sched_setaffinity(0, {cpu})
    with open(log, "w", buffering=1) as out:
        while True:
            t = time.perf_counter()
            out.write(f"{t!r} {cpu_ns_per_iter(sample_s)!r}\n")
            time.sleep(max(0.0, interval_s - (time.perf_counter() - t)))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4]))
