"""Child process of the ``search`` workload.

Usage: ``python child_search.py CONFIG_JSON``.  Imports the search
layer, builds the SOCs, prints ``READY``, then runs ``repro.search.
optimize`` over the configured (strategy, SOC, search seed) list in a
closed loop of whole rounds over that list until ``seconds`` of
optimize time have passed.  After each of the first
``len(cli_argvs)`` optimize calls one cold ``repro`` CLI call runs, with
the next argv of ``cli_argvs``, so that CLI times are sampled across
most of the run rather than in one stretch.  Prints one JSON record: per-call results, CLI wall times,
peak RSS and, when traced, the per-layer span totals.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import (
    at_nominal_speed, calibrate, emit, peak_rss_mb, run_cli, signal_ready,
)


def main() -> None:
    cfg = json.loads(sys.argv[1])
    tracer = None
    if cfg.get("traced"):
        from tracer import Tracer

        tracer = Tracer().install()
    from repro import workloads
    from repro.search import optimize

    socs = {name: workloads.build(name) for name in cfg["socs"]}
    signal_ready()
    cals = [calibrate()]
    if cfg.get("setup_only"):
        emit({"cals": cals})
        return

    calls = []
    cli_walls, cli_scaled = [], []
    cli_argvs = cfg.get("cli_argvs") or []
    configs = cfg["configs"]
    optimize_s = 0.0
    while True:
        strategy, soc_name, search_seed = configs[len(calls) % len(configs)]
        t0 = time.perf_counter()
        outcome = optimize(
            socs[soc_name], width=cfg["width"], strategy=strategy,
            max_evaluations=cfg["budget"], seed=search_seed,
        )
        wall = time.perf_counter() - t0
        optimize_s += wall
        cals.append(calibrate())
        calls.append({
            "strategy": strategy, "soc": soc_name, "search_seed": search_seed,
            "wall_s": wall, "scaled_s": at_nominal_speed(wall, *cals[-2:]),
            "n_evaluated": outcome.n_evaluated,
            "n_gated": outcome.n_gated, "best_cost": outcome.best_cost,
            "best_partition": [list(g) for g in outcome.best_partition],
        })
        if len(cli_walls) < len(cli_argvs):
            cli = run_cli(cli_argvs[len(cli_walls)], Path.cwd())
            cli_walls.append(cli.wall_s)
            cli_scaled.append(cli.scaled_s)
            cals.append(calibrate())
        # whole rounds only, so every run weighs the configs alike
        if (len(calls) % len(configs) == 0
                and optimize_s >= cfg["seconds"]):
            break
    emit({
        "cals": cals,
        "calls": calls,
        "cli_walls": cli_walls,
        "cli_scaled": cli_scaled,
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.totals() if tracer is not None else None,
    })


if __name__ == "__main__":
    main()
