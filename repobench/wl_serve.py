"""``serve`` workload: a ``repro serve`` subprocess under closed-loop
load from two SDK client threads, then cold ``repro submit --wait``
CLI calls against the same server.

The job mix is fixed per seed: every distinct small sweep job of
:data:`SWEEP_GRID` once, a few optimize jobs, and about one resubmit of
an earlier job per three fresh ones (resubmits coalesce onto the
finished job, so they are reads beside the journal/result writes).
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR, ChildFailed, child_env, median, quantile, run_cli,
)

#: Distinct sweep jobs: 4 SOCs x 7 widths x 3 weights = 84.
SWEEP_GRID = [
    {"workload": w, "width": width, "wt": wt}
    for w in ("d695m", "g1023m", "p22810m", "p93791m")
    for width in range(12, 61, 8)
    for wt in (0.4, 0.5, 0.6)
]
N_OPTIMIZE = 8
RESUBMIT_SHARE = 0.25
CLIENTS = 2
#: Fresh jobs submitted through the CLI after the loop, one per call.
CLI_SPECS = [{"workload": "d695m", "width": w, "wt": 0.5}
             for w in (10, 14, 18)]
SETUP_STARTS = 3
CHECK_SAMPLE = 6
#: Per-request socket timeout and per-job polling deadline: a hung
#: server ends the run instead of stalling it.
REQUEST_TIMEOUT_S = 5.0
JOB_DEADLINE_S = 30.0
LOOP_DEADLINE_S = 100.0
CLI_TIMEOUT_S = 45.0
#: Latency charged to a failed or refused job: it misses every limit.
FAILED_LATENCY_S = 1e6


def make_plan(seed: int, n_sweep: int = len(SWEEP_GRID),
              n_optimize: int = N_OPTIMIZE) -> list[tuple[str, dict]]:
    """The seeded request list: (kind, params) pairs."""
    rng = random.Random(seed)
    fresh = [("sweep", dict(p)) for p in SWEEP_GRID[:n_sweep]]
    fresh += [
        ("optimize", {"workload": "big12m", "width": 32,
                      "strategy": "anneal", "budget": 500,
                      "search_seed": rng.randrange(1 << 16)})
        for _ in range(n_optimize)
    ]
    rng.shuffle(fresh)
    plan: list[tuple[str, dict]] = []
    n_resubmit = round(len(fresh) * RESUBMIT_SHARE / (1 - RESUBMIT_SHARE))
    # a resubmit goes after at least 5 earlier requests
    slots = range(5, len(fresh) + n_resubmit)
    resubmit_at = set(rng.sample(slots, min(n_resubmit, len(slots))))
    for item in fresh:
        while len(plan) in resubmit_at:
            # an earlier job, old enough to have finished by now
            plan.append(plan[rng.randrange(0, len(plan) - 4)])
        plan.append(item)
    return plan


class Server:
    """One ``repro serve --port 0`` process in its own directory."""

    def __init__(self, root: Path, server_dir: Path,
                 spans: str | None = None):
        self.dir = server_dir
        argv = ["serve", "--dir", str(server_dir), "--port", "0"]
        cmd = (
            [str(BENCH_DIR / "timed_cli.py"), spans, *argv]
            if spans else ["-m", "repro", *argv]
        )
        self.started = time.perf_counter()
        self.stderr_path = server_dir.parent / (server_dir.name + ".err")
        self._err = open(self.stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, *cmd], cwd=root, env=child_env(root),
            stdout=subprocess.DEVNULL, stderr=self._err,
        )
        self.client_kwargs: dict = {}

    def wait_ready(self, timeout_s: float = 30.0) -> float:
        """Seconds from spawn to the first ``/healthz`` 200."""
        from repro.client.sdk import ReproClient
        from repro.client.session import RequestFailed

        deadline = self.started + timeout_s
        discovery = self.dir / "server.json"
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited {self.proc.returncode} before ready: "
                    f"{self.stderr_tail()}"
                )
            if discovery.is_file():
                try:
                    record = json.loads(discovery.read_text())
                    client = ReproClient(record["host"], record["port"],
                                         timeout_s=1.0, max_attempts=1)
                    if client.healthz().get("ok"):
                        self.client_kwargs = {
                            "host": record["host"], "port": record["port"],
                        }
                        return time.perf_counter() - self.started
                except (ValueError, KeyError, OSError, RequestFailed):
                    pass
            time.sleep(0.01)
        raise RuntimeError("server not ready in time")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM drain; kill if it does not exit.  Returns the code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._err.close()
        return self.proc.returncode

    def stderr_tail(self) -> list[str]:
        try:
            lines = self.stderr_path.read_text().splitlines()
        except OSError:
            return []
        return lines[-8:]


def run_loop(server: Server, plan: list, seed: int) -> dict:
    """Closed loop: CLIENTS threads, each submit + wait_result.

    Never raises for a failed job: failures are counted.  If the server
    exits, sending stops and the unsent planned jobs count as failed.
    """
    from repro.client.sdk import DeadlineExceeded, ReproClient
    from repro.client.session import RequestFailed

    lock = threading.Lock()
    cursor = iter(enumerate(plan))
    stop = threading.Event()
    records: list[dict] = []
    errors: list[str] = []

    def client_thread(k: int) -> None:
        client = ReproClient(**server.client_kwargs, client_id=f"bench{k}",
                             timeout_s=REQUEST_TIMEOUT_S, seed=seed + k)
        while not stop.is_set():
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            index, (kind, params) = item
            rec = {"index": index, "kind": kind, "params": params}
            t0 = time.perf_counter()
            try:
                ticket = client.submit(kind, params)
                rec["submit_s"] = time.perf_counter() - t0
                rec["job_id"] = ticket.job_id
                rec["coalesced"] = ticket.coalesced
                body = client.wait_result(ticket.job_id,
                                          deadline_s=JOB_DEADLINE_S)
                rec["done_epoch"] = time.time()
                rec["latency_s"] = time.perf_counter() - t0
                rec["body"] = body
                rec["ok"] = True
            except (RequestFailed, DeadlineExceeded, OSError) as exc:
                rec["ok"] = False
                rec["latency_s"] = FAILED_LATENCY_S
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}"[:200])
            with lock:
                records.append(rec)

    threads = [threading.Thread(target=client_thread, args=(k,),
                                daemon=True) for k in range(CLIENTS)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    server_exit = None
    while any(t.is_alive() for t in threads):
        if server.proc.poll() is not None:
            server_exit = server.proc.returncode
            stop.set()
        if time.perf_counter() - started > LOOP_DEADLINE_S:
            errors.append("loop deadline exceeded")
            stop.set()
            break
        time.sleep(0.02)
    for t in threads:
        t.join(timeout=REQUEST_TIMEOUT_S * 6)
    wall = time.perf_counter() - started
    with lock:
        done = list(records)
    unsent = len(plan) - len(done)
    return {"records": done, "unsent": unsent, "wall_s": wall,
            "server_exit": server_exit, "errors": errors[:10]}


def journal_accepted(server_dir: Path) -> dict[str, float]:
    accepted: dict[str, float] = {}
    path = server_dir / "journal.jsonl"
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if event.get("event") == "accepted":
            accepted.setdefault(event["job_id"], event["t_epoch"])
    return accepted


def check_served(records: list[dict], seed: int) -> list[str]:
    """Served sweep results vs an in-process ``evaluate_job`` of the
    same job (a seeded sample), plus coalescing consistency.  Returns
    the names of failed checks."""
    from repro.runner.engine import evaluate_job
    from repro.server.protocol import JobSpec, stable_sweep_result

    failed = []
    ok = [r for r in records if r.get("ok")]
    by_key: dict[str, str] = {}
    for rec in ok:
        key = json.dumps([rec["kind"], rec["params"]], sort_keys=True)
        if by_key.setdefault(key, rec["job_id"]) != rec["job_id"]:
            failed.append("serve.coalesce_id")
            break
    sweeps = sorted((r for r in ok if r["kind"] == "sweep"),
                    key=lambda r: r["index"])
    sample = random.Random(seed).sample(
        sweeps, min(CHECK_SAMPLE, len(sweeps))
    )
    for rec in sample:
        spec = JobSpec.create("sweep", rec["params"])
        expected = stable_sweep_result(
            spec, evaluate_job(spec.to_sweep_job())
        )
        if rec["body"].get("stable") != expected:
            failed.append("serve.result_matches_inprocess")
            break
    return failed


def _plan_cost(records: list[dict]) -> float:
    costs = {}
    for rec in records:
        if not rec.get("ok"):
            continue
        stable = rec["body"].get("stable", {})
        cost = stable.get("total_cost", stable.get("best_cost"))
        if cost is not None:
            costs[rec["job_id"]] = cost
    return sum(costs.values()) / len(costs) if costs else float("nan")


def _layer_metrics(loop: dict, server_dir: Path) -> tuple[dict, dict]:
    """client/server per-layer numbers from the run's own records, and
    each fresh job's server-side execution time by job id."""
    accepted = journal_accepted(server_dir)
    ok = [r for r in loop["records"] if r.get("ok")]
    # a coalesced submit rides on the original job's timings
    fresh = [r for r in ok if not r["coalesced"]
             and r["job_id"] in accepted
             and "elapsed_s" in r["body"].get("meta", {})]
    queue_wait, overshoot, exec_by_job = [], [], {}
    for rec in fresh:
        meta = rec["body"]["meta"]
        started = meta["finished_epoch"] - meta["elapsed_s"]
        queue_wait.append(started - accepted[rec["job_id"]])
        overshoot.append(rec["done_epoch"] - meta["finished_epoch"])
        exec_by_job[rec["job_id"]] = meta["elapsed_s"]

    def med(values):
        return median(values) if values else 0.0

    return {
        "client.submit_s": med([r["submit_s"] for r in ok]),
        "server.queue_wait_s": med(queue_wait),
        "server.exec_s": med(list(exec_by_job.values())),
        "client.poll_overshoot_s": med(overshoot),
        "server.coalesced_ratio": (
            sum(1 for r in ok if r["coalesced"]) / max(len(ok), 1)
        ),
    }, exec_by_job


def _start(root: Path, tmp: Path, name: str, spans: str | None = None):
    server = Server(root, tmp / name, spans)
    try:
        setup = server.wait_ready()
    except RuntimeError:
        server.stop()
        raise
    return server, setup


def run(root: Path, tmp: Path, seed: int, seconds: float,
        trace: bool) -> dict:
    from common import add_src_path

    add_src_path(root)
    if trace:
        return _run_traced(root, tmp, seed)
    setups = []
    for k in range(SETUP_STARTS - 1):
        server, setup = _start(root, tmp, f"probe{k}")
        setups.append(setup)
        server.stop()
    server, setup = _start(root, tmp, "server")
    setups.append(setup)
    plan = make_plan(seed)
    try:
        loop = run_loop(server, plan, seed)
        cli_walls, cli_errors = [], []
        if loop["server_exit"] is None:
            for spec in CLI_SPECS:
                try:
                    cli = run_cli(
                        ["submit", "--server-dir", str(server.dir),
                         "--kind", "sweep", "--spec", json.dumps(spec),
                         "--wait", "--deadline", str(JOB_DEADLINE_S),
                         "--json"], root, timeout_s=CLI_TIMEOUT_S)
                    cli_walls.append(cli.wall_s)
                except (ChildFailed, subprocess.TimeoutExpired) as exc:
                    # the server is broken: the remaining calls fail too
                    cli_errors.append(str(exc)[:200])
                    break
            rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    records = loop["records"]
    ok = [r for r in records if r.get("ok")]
    n_failed = len(records) - len(ok) + loop["unsent"]
    failures = []
    info = {"jobs": len(records), "loop_wall_s": loop["wall_s"],
            "errors": loop["errors"] + cli_errors}
    if loop["server_exit"] is not None:
        failures.append("serve.server_alive")
        info["server_exit"] = loop["server_exit"]
        info["server_stderr_tail"] = server.stderr_tail()
        return {"attempted": len(plan), "failed": n_failed,
                "failures": failures, "metrics": {}, "info": info}
    if code != 0:
        failures.append("serve.clean_drain")
    failures += check_served(records, seed)
    latencies = [r["latency_s"] for r in records]
    info.update({"latency_samples": len(latencies),
                 "cli_samples": len(cli_walls),
                 "setup_samples": len(setups)})
    metrics = {
        "setup_s": median(setups),
        "throughput_per_s": len(ok) / loop["wall_s"],
        "job_p50_s": quantile(latencies, 0.5),
        "job_p90_s": quantile(latencies, 0.9),
        "peak_rss_mb": rss,
        "plan_cost": _plan_cost(records),
    }
    if cli_walls:
        metrics["cli_wall_s"] = median(cli_walls)
    return {"attempted": len(plan) + len(CLI_SPECS),
            "failed": n_failed + len(CLI_SPECS) - len(cli_walls),
            "failures": failures, "metrics": metrics, "info": info}


#: Requests per phase of the traced run (untraced, then traced).
TRACE_PLAN_SWEEPS = 36
TRACE_PLAN_OPTIMIZE = 4


def _run_traced(root: Path, tmp: Path, seed: int) -> dict:
    """Untraced then traced server on the same plan; per-layer numbers
    come from the traced phase, overhead from matched job ids."""
    from tracer import Tracer

    plan = make_plan(seed, TRACE_PLAN_SWEEPS, TRACE_PLAN_OPTIMIZE)
    spans = tmp / "server-spans.json"
    failures: list[str] = []
    n_failed = 0
    exec_by_phase = []
    for traced in (False, True):
        server, _ = _start(root, tmp, f"server-{int(traced)}",
                           str(spans) if traced else None)
        tracer = Tracer().install() if traced else None
        try:
            loop = run_loop(server, plan, seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
            code = server.stop()
        if loop["server_exit"] is not None:
            failures.append("serve.server_alive")
        elif code != 0:
            failures.append("serve.clean_drain")
        n_failed += loop["unsent"] + sum(
            1 for r in loop["records"] if not r.get("ok"))
        layer, exec_by_job = _layer_metrics(loop, server.dir)
        exec_by_phase.append(exec_by_job)
    totals = tracer.totals()
    if spans.is_file():
        for key, value in json.loads(spans.read_text()).items():
            totals[key] = totals.get(key, 0) + value
    plain_exec, traced_exec = exec_by_phase
    matched = set(plain_exec) & set(traced_exec)
    plain_s = sum(plain_exec[j] for j in matched)
    traced_s = sum(traced_exec[j] for j in matched)
    layer.update({
        "client.polls_per_job": (
            totals.get("client.poll.calls", 0) / max(len(loop["records"]), 1)
        ),
        "client.retries": (
            totals.get("client.attempt.calls", 0)
            - totals.get("client.request.calls", 0)
        ),
        "trace.wall_s": loop["wall_s"],
        "trace.overhead_pct": (
            100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0
        ),
    })
    return {
        "attempted": 2 * len(plan), "failed": n_failed,
        "failures": failures, "totals": totals, "layer": layer,
        "info": {"overhead_matched_jobs": len(matched)},
    }
