"""The repro client SDK: submit, poll, fetch — idempotently.

:class:`ReproClient` wraps a :class:`~repro.client.session.RetrySession`
with the job-level verbs.  Submission is naturally idempotent: the
server keys jobs by content hash, so resubmitting after a lost
response (or a crashed server) coalesces onto the original job — the
SDK just resubmits whenever it is unsure, which is the whole
idempotency story.  :meth:`wait_result` is the poll-with-deadline
helper: bounded total wait, steady poll interval, and it resubmits
once if the job vanished (a server restarted onto a fresh directory).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .session import RequestFailed, RetrySession

__all__ = ["DeadlineExceeded", "JobTicket", "ReproClient"]


class DeadlineExceeded(Exception):
    """:meth:`ReproClient.wait_result` ran out of time."""


@dataclass(frozen=True)
class JobTicket:
    """What a submission returns."""

    job_id: str
    state: str
    coalesced: bool


def _job_id(job: str | JobTicket) -> str:
    return job.job_id if isinstance(job, JobTicket) else job


class ReproClient:
    """High-level client for one repro server.

    The job verbs take a job id or the :class:`JobTicket` that
    :meth:`submit` returned.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8537,
        *,
        client_id: str = "",
        timeout_s: float = 30.0,
        max_attempts: int = 5,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.session = RetrySession(
            host=host, port=port, timeout_s=timeout_s,
            max_attempts=max_attempts, seed=seed,
            client_id=client_id, sleep=sleep,
        )
        self._sleep = sleep
        self._clock = clock

    @classmethod
    def from_server_dir(cls, root: str | Path, **kwargs) -> "ReproClient":
        """Connect via the server's ``server.json`` discovery record."""
        import json

        from ..server.app import SERVER_FILE

        record = json.loads(
            (Path(root) / SERVER_FILE).read_text(encoding="utf-8")
        )
        return cls(host=record["host"], port=record["port"], **kwargs)

    # -- verbs ---------------------------------------------------------

    def submit(self, kind: str, params: dict) -> JobTicket:
        """Submit (or coalesce onto) a job; durable once returned."""
        response = self.session.request(
            "POST", "/submit", {"kind": kind, "params": params}
        )
        body = response.body
        return JobTicket(
            job_id=body["job_id"],
            state=body["state"],
            coalesced=bool(body.get("coalesced")),
        )

    def submit_scenario(
        self, kind: str, scenario_text: str, params: dict | None = None
    ) -> JobTicket:
        """Submit a job against a scenario document (:mod:`repro.schema`).

        *scenario_text* is the document source (JSON or canonical
        text); it rides in the spec's ``scenario`` field, so the
        server canonicalizes it and coalesces with any equivalent
        submission — including preset submissions that build the same
        SOC.  *params* carries the remaining spec fields (width,
        strategy, ...).
        """
        merged = dict(params or {})
        merged["scenario"] = scenario_text
        return self.submit(kind, merged)

    def status(self, job: str | JobTicket) -> dict:
        return self.session.request("GET", f"/status/{_job_id(job)}").body

    def result(self, job: str | JobTicket) -> dict:
        return self.session.request("GET", f"/result/{_job_id(job)}").body

    def trace(self, job: str | JobTicket) -> list[dict]:
        body = self.session.request("GET", f"/trace/{_job_id(job)}").body
        return body.get("trace", [])

    def healthz(self) -> dict:
        return self.session.request("GET", "/healthz").body

    def drain(self) -> dict:
        return self.session.request("POST", "/drain").body

    # -- polling -------------------------------------------------------

    def wait_result(
        self,
        job: str | JobTicket,
        *,
        deadline_s: float = 300.0,
        interval_s: float = 0.5,
        resubmit: tuple[str, dict] | None = None,
    ) -> dict:
        """Poll until the job's result is ready; bounded total wait.

        With *resubmit* = ``(kind, params)``, a 404 for the job (the
        server restarted onto a fresh directory and lost the id) is
        answered by resubmitting once — the content-hash key makes
        that safe.

        :param job: a job id, or the :class:`JobTicket` of a submission.
        :raises DeadlineExceeded: not done within *deadline_s* (the
            job keeps running server-side; poll again later).
        :raises RequestFailed: the job failed server-side, carrying
            the server's error string.
        """
        job_id = _job_id(job)
        deadline = self._clock() + deadline_s
        resubmitted = False
        while True:
            try:
                body = self.result(job_id)
            except RequestFailed as exc:
                if exc.status == 404 and resubmit and not resubmitted:
                    kind, params = resubmit
                    job_id = self.submit(kind, params).job_id
                    resubmitted = True
                    continue
                raise
            if body.get("ready"):
                return body
            if body.get("state") == "failed":
                raise RequestFailed(
                    f"job {job_id} failed: {body.get('error')}",
                    status=200, body=body,
                )
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"job {job_id} not done within {deadline_s:.1f}s "
                    f"(state={body.get('state')!r})"
                )
            self._sleep(min(interval_s, remaining))
