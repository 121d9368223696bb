"""Helpers shared by the workload modules and their child processes.

Everything here is stdlib-only so the benchmark can start before it
has located the package under test.
"""

from __future__ import annotations

import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent

#: How long any single child process may run before it is killed; the
#: whole benchmark must finish well inside three minutes.
CHILD_TIMEOUT_S = 120.0


def repo_root() -> Path:
    """The checkout root: the directory holding ``src/repro``.

    The benchmark runs from the root of a checkout; a directory without
    the package is an error, never an empty result.
    """
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {root} has no src/repro package; run the benchmark "
            f"from the root of a repository checkout"
        )
    return root


def child_env(root: Path) -> dict:
    """Environment for every child: the package from source, no
    inherited telemetry or fault injection, one BLAS thread."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: the host has few cores, and a pool of spinning
    # BLAS threads started by the scipy import only adds scheduler noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def precompile(root: Path) -> None:
    """Byte-compile the package once, untimed: an installed package
    does not recompile on every start, so no timed import should."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        cwd=root, env=child_env(root), check=True,
        stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )


def add_src_path(root: Path) -> None:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def run_child(args: list[str], root: Path, *, ready: bool = False,
              timeout_s: float = CHILD_TIMEOUT_S) -> dict:
    """Run a Python child to completion and return its JSON result.

    The child prints ``READY`` on a line of its own once set up (when
    *ready* is set) and its JSON result as the last stdout line.  The
    returned dict gains ``wall_s`` (spawn to exit) and, with *ready*,
    ``setup_s`` (spawn to ``READY``).
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=root, env=child_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    setup_s = None
    try:
        if ready:
            # bounded wait: a child hung in set-up is killed below
            if not select.select([proc.stdout], [], [], timeout_s)[0]:
                raise ChildFailed(args, None, "no READY line in time")
            if proc.stdout.readline().strip() != "READY":
                _out, err = proc.communicate(timeout=timeout_s)
                raise ChildFailed(args, proc.returncode, err)
            setup_s = time.perf_counter() - started
        out, err = proc.communicate(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall_s = time.perf_counter() - started
    if proc.returncode != 0:
        raise ChildFailed(args, proc.returncode, err)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    record = json.loads(lines[-1]) if lines else {}
    record["wall_s"] = wall_s
    if ready:
        record["setup_s"] = setup_s
    return record


class CliRun(NamedTuple):
    """One timed ``repro`` CLI call."""

    wall_s: float    #: spawn to exit, less the calibrations
    scaled_s: float  #: *wall_s* at nominal speed (calibrated around it)
    stdout: str


def run_cli(argv: list[str], root: Path, *, traced: str | None = None,
            timeout_s: float = CHILD_TIMEOUT_S) -> CliRun:
    """Run ``repro <argv>`` in a fresh interpreter through
    ``timed_cli.py``.  With *traced* (a spans file path) the CLI runs
    under the benchmark's tracer."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "timed_cli.py"), traced or "-",
         *argv],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=timeout_s,
    )
    wall_s = time.perf_counter() - started
    if proc.returncode != 0:
        raise ChildFailed(argv, proc.returncode, proc.stderr)
    timing = json.loads(proc.stderr.splitlines()[-1])
    wall_s -= timing["cal_s"]
    return CliRun(wall_s, at_nominal_speed(wall_s, *timing["cals"]),
                  proc.stdout)


class ChildFailed(RuntimeError):
    def __init__(self, args, code, stderr):
        tail = (stderr or "").strip().splitlines()[-5:]
        super().__init__(
            f"child {' '.join(map(str, args))[:120]} exited {code}: "
            + " | ".join(tail)
        )
        self.code = code
        self.stderr_tail = tail


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    """The *q*-quantile (0 < q < 1), linear interpolation on sorted
    samples; a lone sample is its own quantile."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return float(values[0])
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return float(statistics.median(values))



def emit(record: dict) -> None:
    """Print a child's JSON result as its last stdout line."""
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stdout.flush()


def signal_ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


#: Seconds :func:`calibrate` takes on a quiet host of the kind the
#: benchmark was tuned on.  Scaled times read "seconds at that speed";
#: comparisons between commits do not depend on the value.
NOMINAL_CAL_S = 0.006


def calibrate() -> float:
    """The host's speed right now: median seconds of a fixed pure-Python
    loop that does not touch the package under test.

    Other tenants of a shared host slow every process alike, by up to
    40% for minutes at a time.  Scaling a time by the calibrations
    taken around it (:func:`at_nominal_speed`) cancels that drift,
    while a change to the program still moves the scaled time in full.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return median(samples)


def scaled_setup(children: list[dict]) -> float:
    """Median set-up time of *children* (``run_child(ready=True)``
    records), each scaled by the calibration its own process took right
    after ``READY``."""
    return median([at_nominal_speed(c["setup_s"], c["cals"][0])
                   for c in children])


def at_nominal_speed(seconds: float, *cals: float) -> float:
    """*seconds*, measured while the calibrations *cals* were taken
    around it, scaled to the nominal host speed."""
    return seconds * NOMINAL_CAL_S / median(list(cals))

