"""Metrics primitives: counters, gauges, histograms, mergeable snapshots.

A :class:`MetricsRegistry` is a per-process bag of named instruments.
Three kinds cover everything the stack needs:

* :class:`Counter` — a monotonically increasing total (packs run, gate
  skips, cache hits).  Merging sums.
* :class:`Gauge` — a last-written value with its epoch timestamp
  (queue depth, incumbent cost).  Merging keeps the latest write
  (ties broken toward the larger value, which keeps the merge
  associative and commutative).
* :class:`Histogram` — fixed-bucket distribution, built for timings:
  cumulative counts per upper bound plus an overflow bucket, a running
  sum, and a count.  Merging adds bucket-wise (bounds must match).

Snapshots (:class:`MetricsSnapshot`) are plain-dict projections of a
registry that merge associatively — the property that lets per-process
spool files from any number of workers, flushed any number of times in
any order, aggregate to one exact total (see
:mod:`repro.obs.runtime`).

Instruments are deliberately dumb ``__slots__`` objects with no
locking: a registry is process-local and the runtimes that feed it are
single-threaded per process.  The *disabled* telemetry path never
constructs any of this — call sites hold ``None`` and branch (see
:func:`repro.obs.state`), so a disabled run does no metrics work at
all.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections.abc import Callable, Sequence

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
]

#: Default histogram bucket upper bounds, in seconds — spans fast-path
#: packing (tens of microseconds at ``--pack-effort fast``, which the
#: sub-millisecond bounds exist to resolve) through whole portfolio
#: runs (~minutes).  The implicit final bucket catches everything
#: above the last bound.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


class Counter:
    """A summable monotonic total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add *amount* (>= 0) to the total."""
        self.value += amount


class Gauge:
    """A last-written value, stamped with its epoch write time."""

    __slots__ = ("value", "written_epoch")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.written_epoch: float = 0.0

    def set(self, value: float) -> None:
        """Record *value* as the current reading."""
        self.value = value
        self.written_epoch = time.time()


class Histogram:
    """Fixed-bucket distribution (cumulative-style timing histogram).

    :param buckets: strictly increasing upper bounds; an implicit
        overflow bucket follows the last one.
    """

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        bounds = tuple(buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {bounds}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Account one sample."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Average observed value (0.0 before the first sample)."""
        return self.total / self.count if self.count else 0.0


class MetricsSnapshot:
    """A frozen, mergeable projection of a registry.

    The payload is a plain JSON-ready dict::

        {"counters":   {name: number},
         "gauges":     {name: [value, written_epoch]},
         "histograms": {name: {"buckets": [...], "counts": [...],
                               "total": x, "count": n}}}

    :meth:`merge` is associative and commutative (counters and
    histogram cells sum; gauges keep the lexicographically largest
    ``(written_epoch, value)``), so any tree of pairwise merges over
    any number of per-process snapshots yields the same total.
    """

    def __init__(self, data: dict | None = None):
        data = data or {}
        self.counters: dict[str, float] = dict(data.get("counters", {}))
        self.gauges: dict[str, list] = {
            name: list(pair) for name, pair in
            data.get("gauges", {}).items()
        }
        self.histograms: dict[str, dict] = {
            name: {
                "buckets": list(h["buckets"]),
                "counts": list(h["counts"]),
                "total": h["total"],
                "count": h["count"],
            }
            for name, h in data.get("histograms", {}).items()
        }

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "counters": dict(self.counters),
            "gauges": {k: list(v) for k, v in self.gauges.items()},
            "histograms": {
                k: {"buckets": list(h["buckets"]),
                    "counts": list(h["counts"]),
                    "total": h["total"], "count": h["count"]}
                for k, h in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        """Inverse of :meth:`to_dict`."""
        return cls(data)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold *other* into this snapshot; returns self.

        :raises ValueError: if a shared histogram has different bucket
            bounds (same-named metrics must be configured identically).
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, pair in other.gauges.items():
            mine = self.gauges.get(name)
            if mine is None or tuple(pair[::-1]) > tuple(mine[::-1]):
                self.gauges[name] = list(pair)
        for name, theirs in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = {
                    "buckets": list(theirs["buckets"]),
                    "counts": list(theirs["counts"]),
                    "total": theirs["total"],
                    "count": theirs["count"],
                }
                continue
            if list(mine["buckets"]) != list(theirs["buckets"]):
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ: "
                    f"{mine['buckets']} vs {theirs['buckets']}"
                )
            mine["counts"] = [
                a + b for a, b in zip(mine["counts"], theirs["counts"])
            ]
            mine["total"] += theirs["total"]
            mine["count"] += theirs["count"]
        return self

    def __iadd__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        return self.merge(other)

    @property
    def empty(self) -> bool:
        """Whether nothing has been recorded."""
        return not (self.counters or self.gauges or self.histograms)


class MetricsRegistry:
    """Per-process named-instrument store.

    Instruments are created on first use and live for the process (or
    until :meth:`reset`); repeated lookups return the same object, so
    hot call sites can hold a reference and skip the dict lookup.

    *Collectors* are callables invoked just before every
    :meth:`snapshot` — the pull-model hook for state that already
    keeps its own counters (e.g. a
    :class:`~repro.tam.packing.PackStats`) and should not pay per-event
    publishing on the hot path.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        # guards the three stores' keys: creation, reset and the copy a
        # snapshot takes (lookups of existing instruments stay lock-free)
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter named *name* (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter())
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named *name* (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge())
        return instrument

    def histogram(
        self, name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """The histogram named *name* (created on first use).

        *buckets* only applies at creation; later callers get the
        existing instrument whatever bounds they pass.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(buckets)
                )
        return instrument

    def register_collector(
        self, collect: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Run *collect(registry)* before every :meth:`snapshot`."""
        self._collectors.append(collect)

    def snapshot(self) -> MetricsSnapshot:
        """The current cumulative totals (collectors run first).

        Safe while other threads create instruments.
        """
        for collect in self._collectors:
            collect(self)
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return MetricsSnapshot({
            "counters": {name: c.value for name, c in counters},
            "gauges": {
                name: [g.value, g.written_epoch]
                for name, g in gauges
                if g.written_epoch
            },
            "histograms": {
                name: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "total": h.total,
                    "count": h.count,
                }
                for name, h in histograms
            },
        })

    def reset(self) -> None:
        """Drop every instrument and collector (tests, fork children)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        self._collectors.clear()
