"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python -m pytest repobench/tests -q
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer as bench_tracer  # noqa: E402
import wl_search  # noqa: E402
import wl_serve  # noqa: E402
import wl_sweep  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(wl_search, "BUDGET", 150)
    monkeypatch.setattr(wl_search, "CLI_BUDGET", 50)
    monkeypatch.setattr(wl_search, "CLI_CALLS", 1)
    monkeypatch.setattr(wl_search, "SETUP_PROBES", 0)
    monkeypatch.setattr(wl_sweep, "SOCS", ("d695m",))
    monkeypatch.setattr(wl_sweep, "WIDTHS", (16, 24))
    monkeypatch.setattr(wl_sweep, "MIN_SETUPS", 1)
    monkeypatch.setattr(wl_sweep, "WARM_PASSES", 1)
    monkeypatch.setattr(wl_serve, "SWEEP_GRID", wl_serve.SWEEP_GRID[:9])
    monkeypatch.setattr(wl_serve, "N_OPTIMIZE", 1)
    monkeypatch.setattr(wl_serve, "CLI_SPECS", wl_serve.CLI_SPECS[:1])
    monkeypatch.setattr(wl_serve, "SETUP_STARTS", 1)
    monkeypatch.setattr(wl_serve, "TRACE_PLAN_SWEEPS", 6)
    monkeypatch.setattr(wl_serve, "TRACE_PLAN_OPTIMIZE", 1)
    monkeypatch.setattr(bench, "IMPORT_PROBES", 1)


def _run(workload: str, trace: bool, capsys) -> tuple[dict, dict]:
    result = bench.run_workload(workload, ROOT, 7, 0.0, trace)
    record = bench.report(workload, result, trace)
    capsys.readouterr()
    return result, record


def _assert_complete(record: dict, units: dict) -> None:
    assert set(record["metrics"]) == set(units)
    for name, unit in units.items():
        assert record["metrics"][name]["unit"] == unit
        assert isinstance(record["metrics"][name]["value"], (int, float))
    assert record["correct"], record
    assert record["failed"] == 0
    assert record["attempted"] >= 1


@pytest.mark.parametrize("workload", ["search", "sweep"])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric(workload, trace, tiny, capsys):
    _result, record = _run(workload, trace, capsys)
    _assert_complete(record, bench.PER_LAYER if trace else bench.END_TO_END)
    if not trace:
        for name, value in record["metrics"].items():
            assert value["value"] > 0, name


@pytest.mark.parametrize("trace", [False, True])
def test_serve_reports_every_metric(trace, tiny, capsys):
    result, record = _run("serve", trace, capsys)
    if "serve.server_alive" in result["failures"]:
        # the failure is accounted, never an aborted run
        assert record["failed"] >= 1 and not record["correct"]
        pytest.xfail("server exited mid-run: obs spool flush race")
    units = (bench.PER_LAYER | bench.SERVE_LAYER) if trace \
        else (bench.END_TO_END | bench.SERVE_END_TO_END)
    _assert_complete(record, units)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)


# -- output checks fail on a wrong result -----------------------------------

def test_search_check_rejects_wrong_cost():
    calls = [{
        "strategy": "anneal", "soc": "big12m", "search_seed": 3,
        **_optimize_call("big12m", 3),
    }]
    assert wl_search.check_plans(calls) == []
    calls[0]["best_cost"] += 1e-9
    assert wl_search.check_plans(calls) == ["search.reference_recost"]


def _optimize_call(soc_name: str, seed: int) -> dict:
    from repro import workloads
    from repro.search import optimize

    outcome = optimize(workloads.build(soc_name), width=wl_search.WIDTH,
                       strategy="anneal", max_evaluations=60, seed=seed)
    return {"best_cost": outcome.best_cost,
            "best_partition": [list(g) for g in outcome.best_partition]}


def test_search_check_rejects_nondeterminism():
    call = {"strategy": "anneal", "soc": "big12m", "search_seed": 3,
            **_optimize_call("big12m", 3)}
    other = dict(call, best_partition=call["best_partition"][::-1])
    assert "search.deterministic" in wl_search.check_plans([call, other])


def _sweep_records() -> list[dict]:
    rec = {"job": {"workload": "d695m", "width": 16, "wt": 0.5},
           "status": "ok", "total_cost": 70.0, "makespan": 100,
           "partition": "{a,b}", "cache_hit": False}
    return [rec]


def test_sweep_check_rejects_wrong_warm_result():
    cold = _sweep_records()
    warm = [dict(cold[0], cache_hit=True)]
    assert wl_sweep.check_warm(cold, warm) == []
    wrong = [dict(warm[0], total_cost=70.5)]
    assert wl_sweep.check_warm(cold, wrong) == ["sweep.warm_equals_cold"]
    missed = [dict(warm[0], cache_hit=False)]
    assert wl_sweep.check_warm(cold, missed) == ["sweep.warm_all_hits"]


def test_serve_check_rejects_wrong_result():
    from repro.runner.engine import evaluate_job
    from repro.server.protocol import JobSpec, stable_sweep_result

    params = {"workload": "d695m", "width": 12, "wt": 0.5}
    spec = JobSpec.create("sweep", params)
    stable = stable_sweep_result(spec, evaluate_job(spec.to_sweep_job()))
    rec = {"ok": True, "index": 0, "kind": "sweep", "params": params,
           "job_id": spec.job_key, "body": {"stable": stable}}
    assert wl_serve.check_served([rec], 1) == []
    rec["body"] = {"stable": dict(stable, makespan=stable["makespan"] + 1)}
    assert wl_serve.check_served([rec], 1) == [
        "serve.result_matches_inprocess"]


def test_failed_check_counts_as_failure(capsys):
    result = {"attempted": 10, "failed": 0, "failures": ["sweep.x"],
              "metrics": {name: 1.0 for name in bench.END_TO_END}}
    record = bench.report("sweep", result, False)
    assert "CHECK FAILED: sweep.x" in capsys.readouterr().out
    assert not record["correct"]
    assert record["failed"] == 1 and record["attempted"] == 11
    assert record["metrics"]["success_rate"]["value"] == pytest.approx(
        1 - 1 / 11)


# -- serve failure accounting --------------------------------------------------

def test_serve_loop_counts_jobs_after_server_exit(tmp_path):
    server, _ = wl_serve._start(ROOT, tmp_path, "srv")
    server.proc.send_signal(signal.SIGKILL)
    server.proc.wait(timeout=10)
    plan = wl_serve.make_plan(3, 9, 1)
    loop = wl_serve.run_loop(server, plan, 3)
    server.stop()
    assert loop["server_exit"] is not None
    failed = sum(1 for r in loop["records"] if not r["ok"])
    assert failed + loop["unsent"] == len(plan)


def test_serve_plan_is_seeded():
    assert wl_serve.make_plan(5) == wl_serve.make_plan(5)
    assert wl_serve.make_plan(5) != wl_serve.make_plan(6)
    plan = wl_serve.make_plan(5)
    fresh = {json.dumps(p, sort_keys=True) for p in plan}
    assert len(plan) >= 100 and len(fresh) < len(plan)


# -- tracer --------------------------------------------------------------------

def test_tracer_patches_by_name_imports_and_restores():
    import repro.runner.engine as engine
    import repro.wrapper.pareto as pareto

    original = engine.pareto_points
    tracer = bench_tracer.Tracer().install()
    try:
        assert engine.pareto_points is not original
        assert pareto.pareto_points is engine.pareto_points
        assert getattr(engine.cost_optimizer, "__wrapped_by_bench__", False)
        assert getattr(engine.evaluate_job, "__wrapped_by_bench__", False)
    finally:
        tracer.uninstall()
    assert engine.pareto_points is original


def test_tracer_self_time_excludes_children():
    tracer = bench_tracer.Tracer()
    import time

    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_fn():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer_fn)()
    totals = tracer.totals()
    assert totals["inner.calls"] == 1 and totals["outer.calls"] == 1
    assert 0.005 < totals["outer.self_s"] < 0.018
    assert totals["inner.self_s"] >= 0.02


def test_tracer_missing_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(bench_tracer, "TARGETS", bench_tracer.TARGETS + (
        ("repro.core.cost", "CostModel.no_such_method", "core.x"),))
    with pytest.raises(KeyError):
        bench_tracer.Tracer().install()


def test_missing_checkout_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        bench.main(["--workload", "search", "--seed", "1",
                    "--seconds", "1", "--trace", "0"])
    assert info.value.code not in (0, None)
