"""``search`` workload: closed-loop ``repro.search.optimize`` in a
fresh child process, with a cold ``repro optimize`` CLI call after each
of the first ``CLI_CALLS`` optimize calls.

anneal and tabu x big12m and big16m x two seeded search seeds, width
32, a fixed evaluation budget per call.  Almost every evaluation is
answered by the lower-bound gate, so ``core`` gate/area arithmetic does
most of the work and packing almost none.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from common import (
    BENCH_DIR, median, quantile, run_child, scaled_setup,
)

STRATEGIES = ("anneal", "tabu")
SOCS = ("big12m", "big16m")
WIDTH = 32
BUDGET = 5000
SETUP_PROBES = 7
CLI_BUDGET = 1000
#: Interleaved with the optimize calls, the CLI calls see the host's
#: slow and fast stretches alike.
CLI_CALLS = 12


def configs(seed: int) -> list[tuple[str, str, int]]:
    rng = random.Random(seed)
    search_seeds = [rng.randrange(1 << 16) for _ in range(2)]
    return [(strategy, soc, s) for strategy in STRATEGIES
            for soc in SOCS for s in search_seeds]


def cli_argvs(seed: int, tmp: Path) -> list[list[str]]:
    """The cold ``repro optimize`` calls, SOCs alternating."""
    rng = random.Random(seed + 1)
    return [
        ["--workload", SOCS[k % len(SOCS)], "optimize",
         "--width", str(WIDTH), "--strategy", STRATEGIES[0],
         "--budget", str(CLI_BUDGET),
         "--search-seed", str(rng.randrange(1 << 16)),
         "--trace", str(tmp / f"trace{k}.jsonl")]
        for k in range(CLI_CALLS)
    ]


def cli_wall(walls: list[float], argvs: list[list[str]]) -> float:
    """Mean over SOCs of the median CLI wall time per SOC, so that the
    figure does not hinge on how many calls each SOC got."""
    by_soc: dict[str, list[float]] = {}
    for argv, wall in zip(argvs, walls):
        by_soc.setdefault(argv[1], []).append(wall)
    return sum(median(w) for w in by_soc.values()) / len(by_soc)


def _child(root: Path, seed: int, *, seconds: float = 0.0,
           traced: bool = False, setup_only: bool = False,
           cli: list[list[str]] | None = None) -> dict:
    cfg = {"socs": list(SOCS), "configs": configs(seed), "width": WIDTH,
           "budget": BUDGET, "seconds": seconds, "traced": traced,
           "setup_only": setup_only, "cli_argvs": cli}
    return run_child([str(BENCH_DIR / "child_search.py"), json.dumps(cfg)],
                     root, ready=True)


def check_plans(calls: list[dict]) -> list[str]:
    """Re-cost every returned best partition on a fresh cost model
    whose evaluator uses the reference packer; require an exact match.
    Repeated configs must also return the same plan."""
    from repro import workloads
    from repro.core.area import AreaModel
    from repro.core.cost import CostModel, CostWeights, ScheduleEvaluator

    failed = []
    first: dict[tuple, dict] = {}
    for call in calls:
        key = (call["strategy"], call["soc"], call["search_seed"])
        seen = first.setdefault(key, call)
        if (seen["best_cost"], seen["best_partition"]) != (
                call["best_cost"], call["best_partition"]):
            failed.append("search.deterministic")
            break
    socs = {name: workloads.build(name) for name in SOCS}
    for call in first.values():
        soc = socs[call["soc"]]
        model = CostModel(
            soc, WIDTH, CostWeights(time=0.5, area=0.5),
            AreaModel(soc.analog_cores),
            evaluator=ScheduleEvaluator(soc, WIDTH, engine="reference"),
        )
        partition = tuple(tuple(g) for g in call["best_partition"])
        if model.total_cost(partition) != call["best_cost"]:
            failed.append("search.reference_recost")
            break
    return failed


def run(root: Path, tmp: Path, seed: int, seconds: float,
        trace: bool) -> dict:
    from common import add_src_path

    add_src_path(root)
    if trace:
        plain = _child(root, seed)
        traced = _child(root, seed, traced=True)
        calls = traced["calls"]
        plain_wall = sum(c["wall_s"] for c in plain["calls"])
        traced_wall = sum(c["wall_s"] for c in calls)
        return {
            "attempted": len(calls) + len(plain["calls"]), "failed": 0,
            "failures": check_plans(plain["calls"] + calls),
            "totals": traced["spans"],
            "layer": {
                "trace.wall_s": traced_wall,
                "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1),
            },
        }
    children = [_child(root, seed, setup_only=True)
                for _ in range(SETUP_PROBES)]
    argvs = cli_argvs(seed, tmp)
    main = _child(root, seed, seconds=seconds, cli=argvs)
    children.append(main)
    setups = [c["setup_s"] for c in children]
    calls = main["calls"]
    cli_walls = main["cli_walls"]
    walls = [c["wall_s"] for c in calls]
    evals = sum(c["n_evaluated"] for c in calls)
    n_configs = len(configs(seed))
    return {
        "attempted": len(calls) + len(cli_walls),
        "failed": 0,
        "failures": check_plans(calls),
        "metrics": {
            "setup_s": scaled_setup(children),
            "throughput_per_s": evals / sum(c["scaled_s"] for c in calls),
            "cli_wall_s": cli_wall(main["cli_scaled"], argvs),
            "peak_rss_mb": main["peak_rss_mb"],
            "plan_cost": (
                sum(c["best_cost"] for c in calls[:n_configs]) / n_configs
            ),
        },
        "info": {
            "raw_setup_s": median(setups),
            "raw_evals_per_s": evals / sum(walls),
            "raw_cli_wall_s": cli_wall(cli_walls, argvs),
            "optimize_calls": len(calls),
            "optimize_p50_s": quantile(walls, 0.5),
            "optimize_p90_s": quantile(walls, 0.9),
            "setup_samples": len(setups),
            "cli_samples": len(cli_walls),
            "gated_share": sum(c["n_gated"] for c in calls)
            / sum(c["n_evaluated"] for c in calls),
        },
    }
