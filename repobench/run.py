"""Repository benchmark: one command, three workloads.

    python3 repobench/run.py --workload {search,sweep,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With ``--trace 0`` the last stdout
line is a JSON object carrying every end-to-end metric; with
``--trace 1`` a separate traced run reports every per-layer metric.
Output checks run on every run; a failed check is counted in
``failed`` and named on stdout.  See ``repobench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import child_env, median, precompile, repo_root

WORKLOADS = ("search", "sweep", "serve")

#: End-to-end metrics (name -> unit), reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "cli_wall_s": "s",
    "peak_rss_mb": "MB",
    "plan_cost": "cost",
    "success_rate": "ratio",
}

#: End-to-end metrics of the serving path, reported by ``serve`` only.
SERVE_END_TO_END = {
    "job_p50_s": "s",
    "job_p90_s": "s",
}

#: What each generic end-to-end metric is on each workload.
ALIASES = {
    "search": {"throughput_per_s": "evals_per_s",
               "cli_wall_s": "cli_optimize_s"},
    "sweep": {"throughput_per_s": "sweep_jobs_per_s",
              "cli_wall_s": "warm_sweep_s"},
    "serve": {"throughput_per_s": "served_jobs_per_s",
              "cli_wall_s": "cli_submit_s",
              "peak_rss_mb": "server_peak_rss_mb"},
}

#: Per-layer metrics (name -> unit), reported by every traced run.
PER_LAYER = {
    "cli.import_s": "s",
    "soc.build_s": "s",
    "core.model_init_s": "s",
    "core.gate_s": "s",
    "core.area_s": "s",
    "core.total_cost_s": "s",
    "core.optimizer_s": "s",
    "search.propose_s": "s",
    "search.evaluate_s": "s",
    "search.evals": "count",
    "search.gated": "count",
    "search.gated_ratio": "ratio",
    "tam.schedule_s": "s",
    "tam.packs": "count",
    "tam.schedule_hits": "count",
    "wrapper.pareto_s": "s",
    "wrapper.staircase_hits": "count",
    "wrapper.staircase_misses": "count",
    "runner.job_s": "s",
    "runner.cache_get_s": "s",
    "runner.cache_put_s": "s",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}

#: Per-layer metrics of the serving path, reported by ``serve`` only.
SERVE_LAYER = {
    "client.submit_s": "s",
    "client.poll_overshoot_s": "s",
    "client.polls_per_job": "count",
    "client.retries": "count",
    "server.queue_wait_s": "s",
    "server.exec_s": "s",
    "server.coalesced_ratio": "ratio",
}

#: Spans that must record at least one call on the workload where the
#: layer does work (span-coverage self-check of the traced run).
EXPECTED_SPANS = {
    "search": ("soc.build", "core.model_init", "core.gate", "core.area",
               "core.total_cost", "search.propose", "search.evaluate",
               "tam.schedule", "wrapper.pareto"),
    "sweep": ("soc.build", "core.model_init", "core.optimizer",
              "core.total_cost", "core.area", "tam.schedule",
              "wrapper.pareto", "runner.job", "runner.cache_get",
              "runner.cache_put"),
    "serve": ("client.submit", "client.poll", "client.request",
              "client.attempt", "runner.job", "search.propose",
              "tam.schedule", "wrapper.pareto"),
}

IMPORT_PROBES = 3


def import_time(root: Path) -> float:
    """Median fresh-interpreter ``import repro.cli`` time."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=child_env(root),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        samples.append(float(out.split()[-1]))
    return median(samples)


def layer_metrics(totals: dict, layer: dict) -> dict:
    """Per-layer metric values from merged span totals plus the
    workload's own record-derived numbers."""
    def self_s(span):
        return float(totals.get(span + ".self_s", 0.0))

    evals = totals.get("search.evals", 0)
    metrics = {
        "soc.build_s": self_s("soc.build"),
        "core.model_init_s": self_s("core.model_init"),
        "core.gate_s": self_s("core.gate"),
        "core.area_s": self_s("core.area"),
        "core.total_cost_s": self_s("core.total_cost"),
        "core.optimizer_s": self_s("core.optimizer"),
        "search.propose_s": self_s("search.propose"),
        "search.evaluate_s": self_s("search.evaluate"),
        "search.evals": evals,
        "search.gated": totals.get("search.gated", 0),
        "search.gated_ratio": (
            totals.get("search.gated", 0) / evals if evals else 0.0
        ),
        "tam.schedule_s": self_s("tam.schedule"),
        "tam.packs": totals.get("tam.packs", 0),
        "tam.schedule_hits": totals.get("tam.schedule_hits", 0),
        "wrapper.pareto_s": self_s("wrapper.pareto"),
        "wrapper.staircase_hits": (
            totals.get("wrapper.staircase_lru_hits", 0)
            + totals.get("wrapper.staircase_disk_hits", 0)
        ),
        "wrapper.staircase_misses": totals.get(
            "wrapper.staircase_lru_misses", 0),
        "runner.job_s": self_s("runner.job"),
        "runner.cache_get_s": self_s("runner.cache_get"),
        "runner.cache_put_s": self_s("runner.cache_put"),
        "runner.cache_hits": totals.get("runner.cache_hits", 0),
        "runner.cache_misses": totals.get("runner.cache_misses", 0),
    }
    metrics.update(layer)
    return metrics


def check_coverage(workload: str, totals: dict) -> list[str]:
    return [
        f"coverage.{span}" for span in EXPECTED_SPANS[workload]
        if totals.get(span + ".calls", 0) < 1
    ]


def run_workload(workload: str, root: Path, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload in a fresh temp dir; the raw result dict."""
    tmp = root / ".bench_tmp" / f"{workload}-{seed}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    try:
        module = importlib.import_module(f"wl_{workload}")
        result = module.run(root, tmp, seed, seconds, trace)
        if trace:
            result["failures"] = result["failures"] + check_coverage(
                workload, result["totals"])
            layer = dict(result["layer"])
            layer["cli.import_s"] = import_time(root)
            result["metrics"] = layer_metrics(result["totals"], layer)
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def report(workload: str, result: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the final record."""
    serving = workload == "serve"
    if trace:
        units = PER_LAYER | (SERVE_LAYER if serving else {})
    else:
        units = END_TO_END | (SERVE_END_TO_END if serving else {})
    metrics = result["metrics"]
    failures = result["failures"]
    attempted = result["attempted"] + len(failures)
    failed = result["failed"] + len(failures)
    if not trace and metrics:
        metrics["success_rate"] = 1.0 - failed / attempted
    aliases = {} if trace else ALIASES[workload]
    print(f"workload {workload} ({'traced' if trace else 'untraced'})")
    for name, unit in units.items():
        if name in metrics:
            alias = aliases.get(name)
            label = f"{name} [{alias}]" if alias else name
            print(f"  {label:<42} {metrics[name]:>14.6g} {unit}")
    for key, value in sorted(result.get("info", {}).items()):
        print(f"  info {key}: {value}")
    for name in failures:
        print(f"  CHECK FAILED: {name}")
    complete = all(name in metrics for name in units)
    return {
        "correct": complete and not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = repo_root()
    precompile(root)
    result = run_workload(args.workload, root, args.seed, args.seconds,
                          bool(args.trace))
    record = report(args.workload, result, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
