"""Hardened HTTP session: deterministic retries that honor the server.

:class:`RetrySession` is the transport under the SDK — stdlib
``http.client``, one connection per request (the server closes after
each response anyway), and a **seeded** exponential-backoff-with-jitter
retry loop: the same seed produces the same backoff schedule, so chaos
tests can assert the exact retry timing instead of sleeping and
hoping.  When the server says ``Retry-After`` (429 overload, 503
drain), that wait wins over the computed backoff — the server knows
its own queue better than any client-side curve.

Retryable: connection errors, timeouts, 408/429/5xx.  Everything else
(400, 404, 405) is the caller's bug and raises immediately, as does a
request that fails before it is sent (an invalid URL, say): no retry
can fix it.  The sleep function is injectable so tests run the whole
schedule in microseconds.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["HttpResponse", "RequestFailed", "RetrySession"]

_RETRYABLE_STATUSES = frozenset({408, 429, 500, 502, 503, 504})


class RequestFailed(Exception):
    """Request gave up: non-retryable status, or attempts exhausted."""

    def __init__(self, message: str, status: int | None = None,
                 body: dict | None = None):
        super().__init__(message)
        self.status = status
        self.body = body or {}


@dataclass(frozen=True)
class HttpResponse:
    """One decoded JSON response."""

    status: int
    body: dict
    headers: dict[str, str]

    @property
    def retry_after(self) -> float | None:
        raw = self.headers.get("retry-after")
        if raw is None:
            return None
        try:
            return max(0.0, float(raw))
        except ValueError:
            return None


@dataclass
class RetrySession:
    """See module docstring."""

    host: str
    port: int
    timeout_s: float = 30.0
    max_attempts: int = 5
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 30.0
    seed: int = 0
    client_id: str = ""
    sleep: Callable[[float], None] = time.sleep
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        self._rng = random.Random(self.seed)

    # -- retry schedule ------------------------------------------------

    def backoff_s(self, attempt: int) -> float:
        """The wait before retry *attempt* (1-based): full jitter over
        an exponential envelope, deterministic for a given seed."""
        envelope = min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1))
        )
        return self._rng.uniform(0, envelope)

    # -- requests ------------------------------------------------------

    def request(self, method: str, path: str,
                payload: dict | None = None) -> HttpResponse:
        """One logical request, retried per the schedule.

        :raises RequestFailed: non-retryable status, a request that
            cannot be sent, or every attempt failed (the last failure
            is attached).
        """
        last_error: str = "no attempts made"
        last_status: int | None = None
        last_body: dict = {}
        for attempt in range(1, self.max_attempts + 1):
            try:
                response = self._one_request(method, path, payload)
            except http.client.InvalidURL as exc:
                # raised before anything is sent: the caller's bug
                raise RequestFailed(
                    f"invalid request {method} {path!r}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                last_status = None
                last_body = {}
            else:
                if response.status < 400:
                    return response
                last_error = str(
                    response.body.get("error", f"HTTP {response.status}")
                )
                last_status = response.status
                last_body = response.body
                if response.status not in _RETRYABLE_STATUSES:
                    raise RequestFailed(
                        last_error, status=response.status,
                        body=response.body,
                    )
            if attempt < self.max_attempts:
                wait = self.backoff_s(attempt)
                retry_after = (
                    response.retry_after
                    if last_status is not None else None
                )
                if retry_after is not None:
                    # the server's own estimate wins over our curve
                    wait = max(wait, retry_after)
                self.sleep(wait)
        raise RequestFailed(
            f"gave up after {self.max_attempts} attempts: {last_error}",
            status=last_status, body=last_body,
        )

    def _one_request(self, method: str, path: str,
                     payload: dict | None) -> HttpResponse:
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None else None
        )
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            headers = {"Content-Type": "application/json"}
            if self.client_id:
                headers["X-Client-Id"] = self.client_id
            conn.request(method, path, body=body, headers=headers)
            raw = conn.getresponse()
            data = raw.read()
            try:
                decoded = json.loads(data.decode("utf-8")) if data else {}
            except (ValueError, UnicodeDecodeError):
                decoded = {}
            if not isinstance(decoded, dict):
                decoded = {"value": decoded}
            return HttpResponse(
                status=raw.status,
                body=decoded,
                headers={
                    name.lower(): value
                    for name, value in raw.getheaders()
                },
            )
        finally:
            conn.close()
