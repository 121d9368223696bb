"""End-to-end HTTP API tests: a real server on a real socket."""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import pytest

from repro import faults
from repro.client import ReproClient, RetrySession
from repro.client.session import RequestFailed
from repro.server import SERVER_FILE, HttpError, HttpRequest, ReproServer

MINI = {"workload": "mini", "width": 8, "effort": "quick"}


@pytest.fixture(autouse=True)
def _disarm():
    faults.install(None)
    yield
    faults.install(None)


@contextlib.contextmanager
def serving(root, **kwargs):
    """A live ReproServer on an OS-assigned port, drained on exit."""
    kwargs.setdefault("port", 0)
    # a previous server on this root leaves its discovery record
    # behind; drop it so the wait below sees the *new* port
    (root / SERVER_FILE).unlink(missing_ok=True)
    server = ReproServer(root, **kwargs)
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run()), daemon=True
    )
    thread.start()
    discovery = root / SERVER_FILE
    deadline = time.monotonic() + 15
    while not discovery.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert discovery.exists(), "server never wrote server.json"
    client = ReproClient.from_server_dir(
        root, max_attempts=3, sleep=lambda s: None
    )
    try:
        yield server, client
    finally:
        with contextlib.suppress(Exception):
            client.drain()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server did not drain"


def raw(client: ReproClient, method, path, payload=None):
    """One raw request: the response regardless of status code."""
    return client.session._one_request(method, path, payload)


class TestRoundTrip:
    def test_submit_poll_result_trace(self, tmp_path):
        with serving(tmp_path / "srv") as (server, client):
            health = client.healthz()
            assert health["ok"] and not health["draining"]

            ticket = client.submit("sweep", MINI)
            assert not ticket.coalesced
            again = client.submit("sweep", MINI)
            assert again.coalesced
            assert again.job_id == ticket.job_id

            body = client.wait_result(ticket.job_id, deadline_s=60)
            assert body["ready"]
            assert body["stable"]["status"] == "ok"
            assert body["stable"]["total_cost"] > 0

            opt = client.submit("optimize", {
                "workload": "mini", "width": 8, "strategy": "anneal",
                "budget": 20, "effort": "quick",
            })
            client.wait_result(opt.job_id, deadline_s=60)
            trace = client.trace(opt.job_id)
            assert trace and trace[0]["best_cost"] > 0

    def test_job_verbs_accept_the_ticket(self, tmp_path):
        with serving(tmp_path / "srv") as (_server, client):
            ticket = client.submit("sweep", MINI)
            body = client.wait_result(ticket, deadline_s=60)
            assert body["ready"]
            assert client.result(ticket) == client.result(ticket.job_id)
            assert client.status(ticket)["state"] == "done"
            assert client.trace(ticket) == client.trace(ticket.job_id)

    def test_status_json_lifecycle(self, tmp_path):
        from repro import obs

        root = tmp_path / "srv"
        with serving(root) as (server, client):
            status = obs.read_status(root)
            assert status is not None and status["status"] == "serving"
            assert status["port"] == server.port
        assert obs.read_status(root)["status"] == "stopped"


class TestErrors:
    def test_http_error_statuses(self, tmp_path):
        with serving(tmp_path / "srv") as (_server, client):
            assert raw(client, "GET", "/nope").status == 404
            assert raw(client, "DELETE", "/submit").status == 405
            assert raw(client, "GET", "/status").status == 400
            assert raw(client, "GET", "/status/ghost").status == 404
            assert raw(client, "GET", "/result/ghost").status == 404
            bad = raw(client, "POST", "/submit",
                      {"kind": "dance", "params": {}})
            assert bad.status == 400
            assert "unknown job kind" in bad.body["error"]
            not_json = raw(client, "POST", "/submit")
            assert not_json.status == 400

    def test_client_raises_on_non_retryable(self, tmp_path):
        with serving(tmp_path / "srv") as (_server, client):
            with pytest.raises(RequestFailed) as exc_info:
                client.status("ghost")
            assert exc_info.value.status == 404


class TestOverload:
    def test_quota_429_with_retry_after_and_no_lost_jobs(self, tmp_path):
        with serving(
            tmp_path / "srv", quota_rate=0.1, quota_burst=2
        ) as (_server, client):
            a = raw(client, "POST", "/submit",
                    {"kind": "sweep", "params": MINI})
            b = raw(client, "POST", "/submit",
                    {"kind": "sweep", "params": dict(MINI, width=16)})
            rejected = raw(client, "POST", "/submit",
                           {"kind": "sweep", "params": dict(MINI, width=24)})
            assert (a.status, b.status) == (202, 202)
            assert rejected.status == 429
            assert rejected.retry_after is not None
            assert rejected.retry_after >= 1
            # everything accepted before the 429 still completes
            for accepted in (a, b):
                body = client.wait_result(
                    accepted.body["job_id"], deadline_s=60
                )
                assert body["stable"]["status"] == "ok"

    def test_quota_is_per_client(self, tmp_path):
        root = tmp_path / "srv"
        with serving(root, quota_rate=0.1, quota_burst=1) as (
            _server, _client
        ):
            alice = ReproClient.from_server_dir(
                root, client_id="alice", max_attempts=1
            )
            bob = ReproClient.from_server_dir(
                root, client_id="bob", max_attempts=1
            )
            assert raw(alice, "POST", "/submit",
                       {"kind": "sweep", "params": MINI}).status == 202
            assert raw(alice, "POST", "/submit",
                       {"kind": "sweep", "params": MINI}).status == 429
            # alice's spend does not throttle bob
            assert raw(bob, "POST", "/submit",
                       {"kind": "sweep", "params": MINI}).status == 202

    def test_queue_depth_429(self, tmp_path):
        # depth 1 and a server whose executor is held by the first job:
        # use a second submission while the queue is saturated
        server = ReproServer(tmp_path / "srv", depth=1)
        request = HttpRequest(
            method="POST", path="/submit", query={}, headers={},
            body=b'{"kind": "sweep", "params": '
                 b'{"workload": "mini", "width": 8, "effort": "quick"}}',
            peer="test",
        )
        status, _body = server._submit(request)
        assert status == 202
        request2 = HttpRequest(
            method="POST", path="/submit", query={}, headers={},
            body=b'{"kind": "sweep", "params": '
                 b'{"workload": "minip", "width": 8, "effort": "quick"}}',
            peer="test",
        )
        with pytest.raises(HttpError) as exc_info:
            server._submit(request2)
        assert exc_info.value.status == 429
        assert "Retry-After" in exc_info.value.headers


class TestDrain:
    def test_draining_server_rejects_submit_503(self, tmp_path):
        # unit-level: the drain flag flips the submit path to 503
        # before the listener even closes
        server = ReproServer(tmp_path / "srv", depth=4)
        server._drain_requested.set()
        request = HttpRequest(
            method="POST", path="/submit", query={}, headers={},
            body=b'{"kind": "sweep", "params": {}}', peer="test",
        )
        with pytest.raises(HttpError) as exc_info:
            server._submit(request)
        assert exc_info.value.status == 503
        assert "Retry-After" in exc_info.value.headers

    def test_drain_endpoint_stops_the_server(self, tmp_path):
        root = tmp_path / "srv"
        with serving(root) as (_server, client):
            ticket = client.submit("sweep", MINI)
            client.wait_result(ticket.job_id, deadline_s=60)
            assert client.drain()["draining"]
        # the context manager asserts the thread exited; the result
        # survives on disk for a future server on the same root
        with serving(root) as (revived_server, revived_client):
            body = revived_client.result(ticket.job_id)
            assert body["ready"]


class TestServerFaults:
    def test_flaky_server_is_absorbed_by_client_retries(self, tmp_path):
        with serving(tmp_path / "srv") as (_server, client):
            # the next request dies mid-handling → 500; the session
            # retries and the follow-up succeeds
            faults.install("abort@server:1")
            health = client.healthz()
            assert health["ok"]
