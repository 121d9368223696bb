"""``sweep`` workload: the paper-flow ``Cost_Optimizer`` grid, cold
then warm.

Each iteration runs a cold pass — ``run_sweep(workers=1)`` into a fresh
cache directory, in a fresh child process — and then warm passes of the
same grid through the ``repro sweep`` CLI, each in a new process, which
read that cache.  Staircases and packing carry the cold pass; cache
reads and CLI import carry the warm ones; the gate does almost nothing.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from common import (
    BENCH_DIR, CliRun, median, quantile, run_child, run_cli, scaled_setup,
)

SOCS = ("d695m", "g1023m", "p22810m", "p93791m")
WIDTHS = tuple(range(16, 65, 8))
WTS = (0.3, 0.5, 0.7)
MIN_SETUPS = 5
WARM_PASSES = 2


def grid(seed: int) -> tuple[list[str], list[int], list[float]]:
    """The 84-job grid, axis order shuffled by *seed*."""
    rng = random.Random(seed)
    socs, widths, wts = list(SOCS), list(WIDTHS), list(WTS)
    for axis in (socs, widths, wts):
        rng.shuffle(axis)
    return socs, widths, wts


def _jobs(seed: int) -> list[dict]:
    socs, widths, wts = grid(seed)
    jobs = [{"workload": s, "width": w, "wt": wt}
            for s in socs for w in widths for wt in wts]
    random.Random(seed).shuffle(jobs)
    return jobs


def _key(job: dict) -> tuple:
    return (job["workload"], job["width"], round(job["wt"], 9))


def cold_pass(root: Path, cache_dir: Path, seed: int, *,
              traced: bool = False, setup_only: bool = False) -> dict:
    cfg = {"jobs": _jobs(seed), "cache_dir": str(cache_dir),
           "traced": traced, "setup_only": setup_only}
    return run_child([str(BENCH_DIR / "child_sweep.py"), json.dumps(cfg)],
                     root, ready=True)


def warm_pass(root: Path, cache_dir: Path, out: Path, seed: int,
              spans: str | None = None) -> tuple[CliRun, list[dict]]:
    socs, widths, wts = grid(seed)
    cli = run_cli(
        ["sweep", "--preset", ",".join(socs),
         "--widths", ",".join(map(str, widths)),
         "--wt", *map(str, wts), "--cache-dir", str(cache_dir),
         "--out", str(out)], root, traced=spans)
    records = [json.loads(line) for line in
               out.read_text(encoding="utf-8").splitlines() if line]
    return cli, records


def check_warm(cold: list[dict], warm: list[dict]) -> list[str]:
    """Every warm result equals its cold twin and was a cache hit."""
    failed = []
    if any(r["status"] != "ok" for r in cold + warm):
        failed.append("sweep.all_ok")
    twins = {_key(r["job"]): r for r in cold}
    if len(warm) != len(cold) or len(twins) != len(cold):
        failed.append("sweep.job_count")
    for rec in warm:
        twin = twins.get(_key(rec["job"]))
        fields = ("total_cost", "makespan", "partition")
        if twin is None or any(rec[f] != twin[f] for f in fields):
            failed.append("sweep.warm_equals_cold")
            break
    if not all(rec["cache_hit"] for rec in warm):
        failed.append("sweep.warm_all_hits")
    return failed


def _iteration(root: Path, tmp: Path, seed: int, k: int,
               traced: bool = False, warm_passes: int = 1) -> dict:
    """One cold pass and *warm_passes* warm passes over its cache."""
    cache = tmp / f"cache{k}"
    cold = cold_pass(root, cache, seed, traced=traced)
    cold["warm_s"], cold["warm_scaled_s"], cold["failures"] = [], [], []
    for j in range(warm_passes):
        spans = str(tmp / f"warm-spans{k}.json") if traced else None
        cli, warm = warm_pass(root, cache, tmp / f"warm{k}-{j}.jsonl", seed,
                              spans)
        cold["warm_s"].append(cli.wall_s)
        cold["warm_scaled_s"].append(cli.scaled_s)
        cold["failures"] += check_warm(cold["results"], warm)
    if traced:
        totals = dict(cold["spans"])
        for key, value in json.loads(Path(spans).read_text()).items():
            totals[key] = totals.get(key, 0) + value
        cold["spans"] = totals
    return cold


def run(root: Path, tmp: Path, seed: int, seconds: float,
        trace: bool) -> dict:
    if trace:
        plain = _iteration(root, tmp, seed, 0)
        traced = _iteration(root, tmp, seed, 1, traced=True)
        n_jobs = len(plain["results"])
        plain_wall = plain["pass_s"] + plain["warm_s"][0]
        traced_wall = traced["pass_s"] + traced["warm_s"][0]
        return {
            "attempted": 4 * n_jobs, "failed": 0,
            "failures": sorted(set(plain["failures"] + traced["failures"])),
            "totals": traced["spans"],
            "layer": {
                "trace.wall_s": traced_wall,
                "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1),
            },
        }
    iterations = []
    cold_s = 0.0
    while not iterations or cold_s < seconds:
        it = _iteration(root, tmp, seed, len(iterations),
                        warm_passes=WARM_PASSES)
        cold_s += it["pass_s"]
        iterations.append(it)
    children = list(iterations)
    while len(children) < MIN_SETUPS:
        children.append(cold_pass(root, tmp / "probe", seed,
                                  setup_only=True))
    setups = [c["setup_s"] for c in children]
    warm_walls = [w for it in iterations for w in it["warm_s"]]
    warm_scaled = [w for it in iterations for w in it["warm_scaled_s"]]
    latencies = [x for it in iterations for x in it["latencies"]]
    n_jobs = sum(len(it["results"]) for it in iterations)
    costs = [r["total_cost"] for r in iterations[0]["results"]]
    return {
        "attempted": n_jobs * (1 + WARM_PASSES),
        "failed": 0,
        "failures": sorted({f for it in iterations for f in it["failures"]}),
        "metrics": {
            "setup_s": scaled_setup(children),
            "throughput_per_s": (
                n_jobs / sum(it["scaled_s"] for it in iterations)
            ),
            "cli_wall_s": median(warm_scaled),
            "peak_rss_mb": median([it["peak_rss_mb"] for it in iterations]),
            "plan_cost": sum(costs) / len(costs),
        },
        "info": {
            "raw_setup_s": median(setups),
            "raw_jobs_per_s": n_jobs / cold_s,
            "raw_warm_sweep_s": median(warm_walls),
            "iterations": len(iterations),
            "cold_job_p50_s": quantile(latencies, 0.5),
            "cold_job_p90_s": quantile(latencies, 0.9),
            "latency_samples": len(latencies),
            "warm_samples": len(warm_walls),
            "setup_samples": len(setups),
        },
    }
