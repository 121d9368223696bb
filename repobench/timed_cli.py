"""Run one ``repro`` CLI command with calibrations in its own process.

Usage: ``python timed_cli.py SPANS.json|- <repro arguments...>``.

Takes a calibration (:func:`common.calibrate`), runs ``cli.main(argv)``
as ``python -m repro`` would, calibrates again, and prints
``{"cals": [before, after], "cal_s": ...}`` as the last stderr line,
``cal_s`` being the seconds the two calibrations took.  The caller's
spawn-to-exit wall time minus ``cal_s`` is the command's wall time.
Calibrating in the same process right around the command measures the
speed of the core it ran on at that moment, which a calibration in
another process does not.

With a SPANS.json path instead of ``-`` the command runs under the
benchmark tracer and the per-layer totals are written there when it
returns, including after a SIGTERM drain of ``repro serve``.
"""

from __future__ import annotations

import json
import sys
import time

from common import calibrate


def timed_calibrate() -> tuple[float, float]:
    """(calibration, seconds it took)."""
    started = time.perf_counter()
    return calibrate(), time.perf_counter() - started


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer().install()
    before, before_s = timed_calibrate()
    try:
        from repro import cli

        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
    sys.stdout.flush()
    after, after_s = timed_calibrate()
    sys.stderr.write(json.dumps({"cals": [before, after],
                                 "cal_s": before_s + after_s}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
