"""Per-layer span tracer for the benchmark's traced runs.

Wraps the public entry points of each layer of ``repro`` with spans
kept in memory and written out once, when the traced process ends.
A span's *self time* is its duration minus the time covered by its
child spans; per-layer metrics are sums of self time plus counts taken
at the same boundaries.

Each function is patched where its callers look it up: a class
attribute for methods, and for module-level functions every loaded
``repro`` module that holds a reference to it (``from x import f``
copies the name into the importer).  A target that cannot be found
raises, so a renamed function fails the traced run instead of reading
as zero seconds.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: (module, attribute path, span name).  A dotted attribute path names
#: a method on a class.
TARGETS = (
    ("repro.workloads", "build", "soc.build"),
    ("repro.core.cost", "CostModel.__init__", "core.model_init"),
    ("repro.core.cost", "ScheduleEvaluator.__init__", "core.model_init"),
    ("repro.core.area", "AreaModel.__init__", "core.model_init"),
    ("repro.core.cost", "CostModel.cost_lower_bound", "core.gate"),
    ("repro.core.cost", "CostModel.total_cost", "core.total_cost"),
    ("repro.core.area", "AreaModel.area_cost", "core.area"),
    ("repro.core.optimizer", "cost_optimizer", "core.optimizer"),
    ("repro.search", "optimize", "search.propose"),
    ("repro.search.problem", "SearchProblem.evaluate", "search.evaluate"),
    ("repro.search.problem", "SearchProblem.evaluate_batch",
     "search.evaluate"),
    ("repro.core.cost", "ScheduleEvaluator.schedule", "tam.schedule"),
    ("repro.wrapper.pareto", "pareto_points", "wrapper.pareto"),
    ("repro.runner.engine", "evaluate_job", "runner.job"),
    ("repro.runner.cache", "DiskCache.get", "runner.cache_get"),
    ("repro.runner.cache", "DiskCache.put", "runner.cache_put"),
    ("repro.client.sdk", "ReproClient.submit", "client.submit"),
    ("repro.client.sdk", "ReproClient.result", "client.poll"),
    ("repro.client.session", "RetrySession.request", "client.request"),
    ("repro.client.session", "RetrySession._one_request",
     "client.attempt"),
)

#: Modules imported before patching, so that every by-name copy of a
#: patched function already exists to be found.
PRELOAD = (
    "repro.cli", "repro.runner.engine", "repro.server.queue",
    "repro.server.app", "repro.client.sdk", "repro.search",
    "repro.search.parallel",
)


class Tracer:
    """In-memory span store: per thread, a stack of open spans and
    per-name totals, merged when :meth:`totals` is read."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self._stair_base = None

    # -- recording -----------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = {"stack": [], "totals": {}}
            with self._lock:
                self._per_thread.append(st["totals"])
        return st

    def count(self, name: str, n: float = 1) -> None:
        totals = self._state()["totals"]
        totals[name] = totals.get(name, 0) + n

    def wrap(self, name: str, fn, hook=None):
        """*fn* inside a span named *name*; *hook(args, result,
        before)* may add counts, with *before* from ``hook.before``."""
        before_fn = getattr(hook, "before", None)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st["stack"]
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            before = before_fn(args) if before_fn is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                totals = st["totals"]
                key = name + ".self_s"
                totals[key] = totals.get(key, 0.0) + duration - frame[0]
                key = name + ".calls"
                totals[key] = totals.get(key, 0) + 1
            if hook is not None:
                hook(tracer, args, result, before)
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    def totals(self) -> dict:
        merged: dict = {}
        with self._lock:
            for totals in self._per_thread:
                for key, value in list(totals.items()):
                    merged[key] = merged.get(key, 0) + value
        if self._stair_base is not None:
            info = _staircase_info()
            merged["wrapper.staircase_lru_hits"] = (
                info.hits - self._stair_base.hits
            )
            merged["wrapper.staircase_lru_misses"] = (
                info.misses - self._stair_base.misses
            )
        return merged

    # -- patching --------------------------------------------------------

    def install(self) -> "Tracer":
        for module in PRELOAD:
            importlib.import_module(module)
        try:
            self._patch_all()
        except BaseException:
            self.uninstall()
            raise
        self._stair_base = _staircase_info()
        return self

    def _patch_all(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            hook = HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]  # KeyError = loud failure
                self._set(cls, meth, self.wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, hook)
            holders = [
                mod for mod_name, mod in list(sys.modules.items())
                if mod_name.startswith("repro") and mod is not None
                and any(v is original for v in vars(mod).values())
            ]
            if module not in holders:
                raise RuntimeError(f"{module_name}.{attr} not found")
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.totals(), fh, sort_keys=True)


def _staircase_info():
    from repro.wrapper import pareto

    return pareto._pareto_points.cache_info()


# -- count hooks: counts read at the same boundary as the span ----------

def _schedule_hook(tracer, args, result, before):
    packs = args[0].evaluations - before
    tracer.count("tam.packs", packs)
    if packs == 0:
        tracer.count("tam.schedule_hits")


_schedule_hook.before = lambda args: args[0].evaluations


def _optimize_hook(tracer, args, result, before):
    tracer.count("search.evals", result.n_evaluated)
    tracer.count("search.gated", result.n_gated)


def _job_hook(tracer, args, result, before):
    tracer.count(
        "runner.cache_hits" if result.cache_hit else "runner.cache_misses"
    )
    tracer.count("wrapper.staircase_disk_hits", result.staircase_hits)


HOOKS = {
    "tam.schedule": _schedule_hook,
    "search.propose": _optimize_hook,
    "runner.job": _job_hook,
}
