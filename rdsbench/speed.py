"""Machine-speed calibration for the end-to-end times.

On the 2-core KVM guest described in MACHINE.json, whose host cores are
shared with other guests, speed drifts by up to a third within minutes.
Raw pass times taken minutes apart then spread by 15-20 % across runs.  A
fixed calibration loop, timed right before and right after each measured
interval, tracks that drift.  Reported times are the raw times multiplied
by ``REFERENCE_S`` divided by the mean of the two bracketing calibration
times: seconds at the speed the calibration loop had when this benchmark
was defined.  The raw medians are printed alongside.

The loop mixes the costs rdslab has: interpreter overhead, small-array
numpy calls, and a dense pairwise block.  Its code never changes, so a
change to rdslab cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# a typical calibration_s() on the machine in MACHINE.json (0.12-0.17 s there)
REFERENCE_S = 0.13


def calibration_s() -> float:
    """Seconds taken by the fixed calibration loop."""
    t0 = time.perf_counter()
    x = np.random.default_rng(0).random(256)
    acc = 0.0
    for _ in range(3000):
        x = x / (1.0 + 0.5 * x) + 0.01
        acc += float(np.abs(x[:, None] - x[None, :64]).sum())
        acc += sum(k * k for k in range(20))
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("calibration loop produced no result")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibrations to
    reference-speed seconds."""
    return 2.0 * REFERENCE_S / (before + after)
