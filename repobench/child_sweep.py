"""Child process of the ``sweep`` workload: one cold pass.

Usage: ``python child_sweep.py CONFIG_JSON``.  Imports the runner,
builds the grid's SOCs, prints ``READY``, then runs the job list
through ``run_sweep(workers=1)`` into a fresh cache directory.  Prints
one JSON record: per-job results and completion latencies, pass wall
time, peak RSS and, when traced, the per-layer span totals.
"""

from __future__ import annotations

import json
import sys
import time

from common import (
    at_nominal_speed, calibrate, emit, peak_rss_mb, signal_ready,
)

#: Jobs between two calibrations of the host speed.
CAL_EVERY = 12


def main() -> None:
    cfg = json.loads(sys.argv[1])
    tracer = None
    if cfg.get("traced"):
        from tracer import Tracer

        tracer = Tracer().install()
    from repro import workloads
    from repro.runner.engine import run_sweep
    from repro.runner.jobs import SweepJob

    for name in sorted({job["workload"] for job in cfg["jobs"]}):
        workloads.build(name)
    jobs = [SweepJob(**job) for job in cfg["jobs"]]
    signal_ready()
    cals = [calibrate()]
    if cfg.get("setup_only"):
        emit({"cals": cals})
        return

    # the pass is timed in segments of CAL_EVERY jobs, each scaled by
    # the calibrations around it; calibration time is left out
    latencies = []
    start = time.perf_counter()
    segment = {"start": start, "last": start}
    totals = {"pass_s": 0.0, "scaled_s": 0.0}

    def close_segment(now: float) -> None:
        cals.append(calibrate())
        seconds = now - segment["start"]
        totals["pass_s"] += seconds
        totals["scaled_s"] += at_nominal_speed(seconds, *cals[-2:])
        start = time.perf_counter()
        segment.update(start=start, last=start)

    def progress(_result) -> None:
        now = time.perf_counter()
        latencies.append(now - segment["last"])
        segment["last"] = now
        if len(latencies) % CAL_EVERY == 0:
            close_segment(now)

    result = run_sweep(jobs, workers=1, cache_dir=cfg["cache_dir"],
                       progress=progress)
    close_segment(time.perf_counter())
    emit({
        **totals,
        "cals": cals,
        "latencies": latencies,
        "results": [
            {"job": r.job.to_dict(), "status": r.status,
             "total_cost": r.total_cost, "makespan": r.makespan,
             "partition": r.partition, "cache_hit": r.cache_hit}
            for r in result.results
        ],
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.totals() if tracer is not None else None,
    })


if __name__ == "__main__":
    main()
