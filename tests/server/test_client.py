"""The retrying client: deterministic schedules, honored Retry-After."""

from __future__ import annotations

import http.client
import random

import pytest

from repro.client import (
    DeadlineExceeded,
    HttpResponse,
    ReproClient,
    RequestFailed,
    RetrySession,
)


class FakeTransport:
    """Scripted responses standing in for the socket."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, method, path, payload):
        self.calls.append((method, path, payload))
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def session(script, **kwargs):
    kwargs.setdefault("max_attempts", 4)
    sleeps = []
    sess = RetrySession(
        host="test", port=1, sleep=sleeps.append, **kwargs
    )
    transport = FakeTransport(script)
    sess._one_request = transport
    return sess, transport, sleeps


def ok(body=None):
    return HttpResponse(status=200, body=body or {}, headers={})


def status(code, headers=None, body=None):
    return HttpResponse(
        status=code, body=body or {}, headers=headers or {}
    )


class TestBackoffSchedule:
    def test_deterministic_under_a_seed(self):
        a = RetrySession(host="h", port=1, seed=7)
        b = RetrySession(host="h", port=1, seed=7)
        schedule_a = [a.backoff_s(n) for n in range(1, 6)]
        schedule_b = [b.backoff_s(n) for n in range(1, 6)]
        assert schedule_a == schedule_b  # same seed, same schedule
        c = RetrySession(host="h", port=1, seed=8)
        assert [c.backoff_s(n) for n in range(1, 6)] != schedule_a

    def test_full_jitter_over_exponential_envelope(self):
        sess = RetrySession(
            host="h", port=1, seed=3, backoff_base_s=1.0,
            backoff_cap_s=8.0,
        )
        rng = random.Random(3)
        for attempt, envelope in ((1, 1.0), (2, 2.0), (3, 4.0),
                                  (4, 8.0), (5, 8.0)):
            wait = sess.backoff_s(attempt)
            assert wait == rng.uniform(0, envelope)
            assert 0 <= wait <= envelope

    def test_sleeps_follow_the_schedule(self):
        sess, _transport, sleeps = session(
            [ConnectionRefusedError("down"),
             ConnectionRefusedError("down"), ok({"fine": True})],
            seed=5,
        )
        expected = RetrySession(host="h", port=1, seed=5)
        want = [expected.backoff_s(1), expected.backoff_s(2)]
        assert sess.request("GET", "/healthz").body == {"fine": True}
        assert sleeps == want


class TestRetryPolicy:
    def test_retry_after_wins_over_backoff(self):
        sess, _transport, sleeps = session(
            [status(429, {"retry-after": "9"}), ok()], seed=0
        )
        sess.request("POST", "/submit", {})
        # computed jitter is < 0.25s here; the server's 9s wins
        assert sleeps == [9.0]

    def test_backoff_wins_over_tiny_retry_after(self):
        sess, _transport, sleeps = session(
            [status(503, {"retry-after": "0"}), ok()],
            seed=1, backoff_base_s=4.0,
        )
        sess.request("POST", "/submit", {})
        expected = RetrySession(
            host="h", port=1, seed=1, backoff_base_s=4.0
        ).backoff_s(1)
        assert sleeps == [expected]

    def test_non_retryable_raises_immediately(self):
        sess, transport, sleeps = session(
            [status(404, body={"error": "unknown job"}), ok()]
        )
        with pytest.raises(RequestFailed) as exc_info:
            sess.request("GET", "/status/ghost")
        assert exc_info.value.status == 404
        assert len(transport.calls) == 1  # no second attempt
        assert sleeps == []

    def test_gives_up_after_max_attempts(self):
        sess, transport, _sleeps = session(
            [status(500)] * 3, max_attempts=3
        )
        with pytest.raises(RequestFailed, match="gave up after 3"):
            sess.request("GET", "/healthz")
        assert len(transport.calls) == 3

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            RetrySession(host="h", port=1, max_attempts=0)

    def test_local_error_raises_immediately(self):
        sess, transport, sleeps = session(
            [http.client.InvalidURL("bad path"), ok()]
        )
        with pytest.raises(RequestFailed, match="InvalidURL") as exc_info:
            sess.request("GET", "/status/bad path")
        assert exc_info.value.status is None
        assert len(transport.calls) == 1
        assert sleeps == []

    def test_unsendable_path_never_sleeps(self):
        """A path http.client refuses fails before any connection is
        made, with zero retries."""
        sleeps = []
        client = ReproClient(
            host="127.0.0.1", port=1, sleep=sleeps.append, max_attempts=5
        )
        with pytest.raises(RequestFailed, match="InvalidURL"):
            client.result("not a job id")
        assert sleeps == []


def client(script, **kwargs):
    clock = {"now": 0.0}
    sleeps = []

    def sleep(seconds):
        sleeps.append(seconds)
        clock["now"] += seconds

    kwargs.setdefault("max_attempts", 2)
    c = ReproClient(
        host="test", port=1, sleep=sleep,
        clock=lambda: clock["now"], **kwargs
    )
    transport = FakeTransport(script)
    c.session._one_request = transport
    return c, transport, sleeps


class TestWaitResult:
    def test_polls_until_ready(self):
        c, transport, _sleeps = client([
            ok({"ready": False, "state": "queued"}),
            ok({"ready": False, "state": "running"}),
            ok({"ready": True, "stable": {"total_cost": 1.0}}),
        ])
        body = c.wait_result("j1", deadline_s=60, interval_s=0.5)
        assert body["stable"]["total_cost"] == 1.0
        assert len(transport.calls) == 3

    def test_deadline_exceeded(self):
        c, _transport, sleeps = client(
            [ok({"ready": False, "state": "queued"})] * 50
        )
        with pytest.raises(DeadlineExceeded):
            c.wait_result("j1", deadline_s=2.0, interval_s=0.5)
        assert sum(sleeps) <= 2.0 + 0.5

    def test_failed_job_raises_with_server_error(self):
        c, _transport, _sleeps = client([
            ok({"ready": False, "state": "failed", "error": "boom"}),
        ])
        with pytest.raises(RequestFailed, match="boom"):
            c.wait_result("j1", deadline_s=10)

    def test_resubmits_once_on_404(self):
        # the server restarted onto a fresh directory: the job id is
        # gone, but the content-hash key makes resubmission safe
        c, transport, _sleeps = client([
            status(404, body={"error": "unknown job 'j1'"}),
            status(202, body={"job_id": "j1", "state": "queued",
                              "coalesced": False}),
            ok({"ready": True, "stable": {"total_cost": 2.0}}),
        ])
        body = c.wait_result(
            "j1", deadline_s=60,
            resubmit=("sweep", {"workload": "mini", "width": 8}),
        )
        assert body["stable"]["total_cost"] == 2.0
        methods = [call[0] for call in transport.calls]
        assert methods == ["GET", "POST", "GET"]

    def test_404_without_resubmit_raises(self):
        c, _transport, _sleeps = client([
            status(404, body={"error": "unknown job"}),
        ])
        with pytest.raises(RequestFailed):
            c.wait_result("j1", deadline_s=10)
