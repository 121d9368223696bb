"""Satellite: aggregation under concurrent writers must never crash
or double-count.

Three failure shapes are simulated deliberately (they are what a
worker killed mid-write, or a reader racing a writer, actually leaves
on disk):

* a **torn JSONL line** — an event append without its trailing newline;
* a **half-written metrics file** — an atomic replace that never
  happened, leaving truncated JSON;
* **many pids at once** — spool files from several processes (real
  spawned children and simulated ones) folding into one total.
"""

import json
import multiprocessing
import sys
import threading

import pytest

from repro import obs
from repro.obs import runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import LiveRunView, SpoolCursor


class TestTornAndHalfWritten:
    def test_aggregate_skips_a_half_written_metrics_file(
            self, run_dir):
        spool = run_dir / "obs"
        (spool / "metrics-11.json").write_text(json.dumps({
            "counters": {"eval.packs": 5}, "histograms": {},
        }))
        # worker 12 died mid-replace: truncated JSON on disk
        (spool / "metrics-12.json").write_text('{"counters": {"eval')
        merged = obs.aggregate(run_dir)
        assert merged.counters["eval.packs"] == 5
        # idempotent: the skip is stable, nothing double-counts
        assert obs.aggregate(run_dir).counters["eval.packs"] == 5

    def test_read_events_skips_torn_lines_in_both_generations(
            self, run_dir):
        spool = run_dir / "obs"
        (spool / "events-11.jsonl.1").write_bytes(
            b'{"event": "old", "t_epoch": 1.0}\n{"event": "to'
        )
        (spool / "events-11.jsonl").write_bytes(
            b'{"event": "new", "t_epoch": 2.0}\n{"event": "hal'
        )
        events = obs.read_events(run_dir)
        assert [e["event"] for e in events] == ["old", "new"]

    def test_live_view_survives_every_partial_state(self, tmp_path):
        """Poll against a dir holding only broken artifacts."""
        run_dir = tmp_path / "run"
        spool = run_dir / "obs"
        spool.mkdir(parents=True)
        (run_dir / "manifest.json").write_text('{"command": "opt')
        (spool / "metrics-1.json").write_text("{")
        (spool / "events-1.jsonl").write_bytes(b'{"event": "x"')
        (run_dir / "trace.jsonl").write_bytes(b'{"best_cost": 1')
        view = LiveRunView(run_dir)
        view.poll()
        assert view.best_cost is None
        assert view.counters == {}
        view.render()  # and the frame still renders


class TestInterleavedWriterReader:
    def test_cursor_counts_each_record_exactly_once(self, tmp_path):
        """A writer appending in arbitrary chunks (including partial
        lines) races a polling reader; the union of polls is exact."""
        path = tmp_path / "events.jsonl"
        n_records = 300
        done = threading.Event()

        def writer():
            with path.open("ab") as fh:
                for i in range(n_records):
                    raw = json.dumps({"i": i}).encode() + b"\n"
                    # tear every write: flush half a line first
                    fh.write(raw[: len(raw) // 2])
                    fh.flush()
                    fh.write(raw[len(raw) // 2:])
                    fh.flush()
            done.set()

        cursor = SpoolCursor(path)
        seen = []
        thread = threading.Thread(target=writer)
        thread.start()
        while not done.is_set():
            seen.extend(r["i"] for r in cursor.poll())
        thread.join()
        seen.extend(r["i"] for r in cursor.poll())  # drain the tail
        assert seen == list(range(n_records))

    def test_view_poll_races_a_metrics_replacer(self, tmp_path):
        """Counters only ever move to a consistent snapshot — a
        half-replaced file yields the previous totals, never junk."""
        run_dir = tmp_path / "run"
        spool = run_dir / "obs"
        spool.mkdir(parents=True)
        path = spool / "metrics-9.json"
        view = LiveRunView(run_dir)
        observed = set()
        for step in range(1, 30):
            if step % 3 == 0:
                path.write_text('{"counters": {"n"')  # torn replace
            else:
                path.write_text(json.dumps({
                    "counters": {"n": step}, "histograms": {},
                }))
            view.poll(now=float(step))
            value = view.counters.get("n")
            if value is not None:
                observed.add(value)
        # every observed total is one the writer actually published
        assert observed <= {float(s) for s in range(1, 30)}
        assert observed  # and the torn states did not blind the view


class TestConcurrentFlush:
    def test_threads_flushing_one_state_never_collide(self, run_dir):
        """A server's periodic flush and its executor's per-job flush
        share one state and one metrics file; neither may lose the
        atomic replace to the other, a snapshot may not trip over a
        counter another thread creates, and no event may drop."""
        state = runtime.ObsState(run_dir)
        errors = []
        n_threads, n_flushes = 4, 500

        def flusher(k):
            try:
                for i in range(n_flushes):
                    state.registry.counter(f"flush.{k}").inc()
                    state.registry.counter(f"new.{k}.{i % 50}").inc()
                    state.emit("flush.mark", thread=k, i=i)
                    state.flush()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=flusher, args=(k,))
            for k in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        path = run_dir / "obs" / f"metrics-{state.pid}.json"
        counters = json.loads(path.read_text())["counters"]
        assert len(counters) == n_threads * (1 + 50)
        assert all(
            counters[f"flush.{k}"] == n_flushes for k in range(n_threads)
        )
        marks = [
            e for e in obs.read_events(run_dir)
            if e["event"] == "flush.mark"
        ]
        assert len(marks) == n_threads * n_flushes


    def test_snapshot_while_another_thread_creates_counters(self):
        registry = MetricsRegistry()
        created = threading.Event()

        def creator():
            for i in range(50_000):
                registry.counter(f"c.{i}")
            created.set()

        thread = threading.Thread(target=creator)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            while not created.is_set():
                registry.snapshot()
        finally:
            created.wait(timeout=120)
            sys.setswitchinterval(interval)
            thread.join(timeout=120)
        assert not thread.is_alive()
        assert len(registry.snapshot().counters) == 50_000


def _spawn_worker(i):
    """Child body: inherit the run via env, add its share, flush."""
    obs.counter("concurrent.units", i + 1)
    obs.event("worker.mark", worker=i)
    obs.flush()
    return i


class TestMultiPid:
    def test_simulated_pids_fold_exactly_once(self, run_dir):
        for fake_pid in (2001, 2002, 2003):
            state = runtime.ObsState(run_dir)
            state.pid = fake_pid
            state._events_path = (
                run_dir / "obs" / f"events-{fake_pid}.jsonl"
            )
            state.registry.counter("concurrent.units").inc(10)
            state.emit("worker.mark", worker=fake_pid)
            state.flush()
            state.flush()  # a second flush re-replaces, not re-adds
        merged = obs.aggregate(run_dir)
        assert merged.counters["concurrent.units"] == 30
        assert len(obs.read_events(run_dir)) == 3

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_real_children_fold_exactly_once(self, run_dir, method):
        """Genuine fork AND spawn children spool under their own pids
        (env-inherited run) and the parent fold is exact."""
        try:
            ctx = multiprocessing.get_context(method)
        except ValueError:
            pytest.skip(f"start method {method!r} unavailable")
        with ctx.Pool(2) as pool:
            assert sorted(pool.map(_spawn_worker, range(3))) \
                == [0, 1, 2]
        obs.flush()
        merged = obs.aggregate(run_dir)
        assert merged.counters["concurrent.units"] == 1 + 2 + 3
        marks = [
            e for e in obs.read_events(run_dir)
            if e["event"] == "worker.mark"
        ]
        assert len(marks) == 3
        assert len({m["pid"] for m in marks}) >= 1
