"""Host-speed calibration.

On a shared host the speed of one core drifts by tens of percent over tens of
seconds, which is more than the benchmark's bounds. A fixed kernel, timed
right before and after each measurement, gives the host's current speed, and
each measured time is rescaled to the speed at which the kernel takes
``REFERENCE_S`` seconds. The kernel mixes the kinds of work memgrid does and
never calls memgrid, so no change to memgrid moves it. Of the mixes tried,
an equal mix of all four parts below tracked both the small-lattice steps
and the 16x16 dense solves best.

An invocation longer than the drift is cut into segments: at the first call
of ``simulate`` after every ``SAMPLE_EVERY_S`` seconds it pauses for a speed
sample. Pauses are not counted, and each segment is rescaled by the samples at
its two ends.
"""

import contextlib
import functools
import statistics
import time

import numpy as np

from tracer import wrapped

# About the kernel's median time on the 2 GHz Xeon host where the bounds in
# BENCHMARK.json were set, so rescaled and raw figures read alike there.
REFERENCE_S = 0.018
REPEATS = 5
SAMPLE_EVERY_S = 2.0
# simulate() is bound into each calling module at import.
BOUNDARIES = (("memgrid.cli", "simulate"), ("memgrid.experiments", "simulate"),
              ("memgrid.engine", "simulate"))

_rng = np.random.default_rng(20210811)
_FLOATS = _rng.random(2000)
_VEC = np.linspace(0.0, 1.0, 48)
_SLOTS = _rng.integers(0, 48, 96)
_BIG = _rng.random((240, 240)) + 240.0 * np.eye(240)
_BIG_RHS = _rng.random(240)
# A 14-unknown nodal system with 24 edges, stamped like memgrid's 4x4 lattice.
_POS = _rng.integers(0, 196, 80)
_SIGN = _rng.choice([-1.0, 1.0], 80)
_EDGE = _rng.integers(0, 24, 80)
_RHS14 = _rng.random(14)
_X24 = _rng.random(24) + 1.0


def kernel_seconds() -> float:
    """Seconds one pass of the fixed kernel takes now. Its four parts take
    about equal time: Python-level formatting, small-array numpy calls, a
    240x240 dense solve, and a replica of one engine step."""
    t0 = time.perf_counter()
    ",".join(repr(float(v)) for v in _FLOATS)
    counts: dict = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for i in range(240):
        b = np.clip(_VEC * (i % 7) - 0.5, -1.0, 1.0)
        acc = np.zeros(48)
        np.add.at(acc, _SLOTS, b[_SLOTS % 48])
        float(np.sum(acc * b))
    for _ in range(5):
        np.linalg.solve(_BIG, _BIG_RHS)
    for _ in range(100):
        matrix = np.zeros(196)
        np.add.at(matrix, _POS, _SIGN / _X24[_EDGE])
        sol = np.linalg.solve(matrix.reshape(14, 14) + 14.0 * np.eye(14), _RHS14)
        padded = np.concatenate([sol, [0.0, 1.0]])
        v_m = padded[_EDGE % 16] - padded[(_EDGE + 1) % 16]
        np.clip(_X24 + np.where(v_m[:24] > 0.5, v_m[:24], 0.0), 1.0, 2.0)
    return time.perf_counter() - t0


def speed_sample() -> float:
    """Median kernel time over REPEATS passes, after one warm-up pass; a
    single pass is too noisy to rescale by."""
    kernel_seconds()
    return statistics.median(kernel_seconds() for _ in range(REPEATS))


def rescale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, expressed at
    the reference speed."""
    return seconds * REFERENCE_S / kernel_s


class SpeedTrack:
    """Speed samples taken between and, for long invocations, inside
    measurements."""

    def __init__(self):
        self.last = speed_sample()

    def measure(self, fn, inner: bool = True):
        """Run ``fn()`` and return (result, seconds, seconds at the reference
        speed). ``inner`` allows pauses for speed samples inside the run."""
        clock = time.perf_counter
        segments = []  # (seconds, kernel seconds at start, kernel seconds at end)
        start, kernel = clock(), self.last

        def boundary(original, target):
            @functools.wraps(original)
            def paused_first(*args, **kwargs):
                nonlocal start, kernel
                now = clock()
                if now - start >= SAMPLE_EVERY_S:
                    sample = speed_sample()
                    segments.append((now - start, kernel, sample))
                    start, kernel = clock(), sample
                return original(*args, **kwargs)
            return paused_first

        with wrapped(BOUNDARIES, boundary) if inner else contextlib.nullcontext():
            start = clock()
            result = fn()
            end = clock()
        self.last = speed_sample()
        segments.append((end - start, kernel, self.last))
        seconds = sum(s for s, _, _ in segments)
        scaled = sum(rescale(s, 0.5 * (a + b)) for s, a, b in segments)
        return result, seconds, scaled
