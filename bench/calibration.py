"""A fixed piece of work that measures how fast the machine runs right now.

On the shared 2-core machine of README.md's reference figures the
processor's speed changed by up to about 1.8x within minutes: a round of
``smooth`` took 2.5 s of CPU for an hour, then 1.35 s.  A run therefore times a calibration sample next to the
program's work and reports that work in *reference seconds*: CPU seconds
rescaled to the speed at which one sample takes ``REFERENCE_S``.

A sample touches nothing of ``relayosc``, so no change to the program moves
it.  It mixes, in about equal parts, the three kinds of work the workloads
spend their time on: Python arithmetic in a right-hand side called once per
step (the ``integrate_adaptive`` loops of ``smooth``), small numpy linear
algebra (``exit_event`` and the eigen scans) and ``scipy.linalg.expm`` of a
6x6 matrix (the ``high_order`` march).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

#: CPU seconds of one sample at the reference speed; the unit of the
#: normalised metrics.  A sample took about 18 ms on the 2-core machine of
#: README.md in its faster phase, so there a reference second is about a
#: CPU second.
REFERENCE_S = 0.02

_RNG = np.random.default_rng(0)
_M6 = _RNG.standard_normal((6, 6)) * 0.3 - 2.0 * np.eye(6)
_M3 = _RNG.standard_normal((3, 3)) + 3.0 * np.eye(3)
_V3 = _RNG.standard_normal(3)


def _python_rk4(steps: int) -> float:
    a, b, c = -1.0, -2.0, -3.0
    x, y, z = 1.0, 0.5, -0.25
    h = 1e-3

    def f(x, y, z):
        return a * x + y, b * y + z, c * z - x

    for _ in range(steps):
        k1 = f(x, y, z)
        k2 = f(x + h / 2 * k1[0], y + h / 2 * k1[1], z + h / 2 * k1[2])
        k3 = f(x + h / 2 * k2[0], y + h / 2 * k2[1], z + h / 2 * k2[2])
        k4 = f(x + h * k3[0], y + h * k3[1], z + h * k3[2])
        x += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        z += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return x + y + z


def _small_linalg(count: int) -> float:
    s = 0.0
    for i in range(count):
        x = np.linalg.solve(_M3 + i * 1e-4 * np.eye(3), _V3)
        s += float(np.abs(np.linalg.eigvals(_M6 + i * 1e-4)).max()) + float(x @ x)
    return s


def _expm(count: int) -> float:
    s = 0.0
    for i in range(count):
        s += float(scipy.linalg.expm(_M6 * (1.0 + i * 1e-4))[0, 0])
    return s


def sample() -> float:
    """CPU seconds of one calibration sample."""
    t0 = time.process_time()
    _python_rk4(5000)
    _small_linalg(250)
    _expm(300)
    return time.process_time() - t0


def samples(count: int) -> list[float]:
    """CPU seconds of each of ``count`` samples."""
    return [sample() for _ in range(count)]


def to_reference(cpu_s: float, sample_s: list[float]) -> float:
    """``cpu_s`` in reference seconds, at the median speed of ``sample_s``."""
    return cpu_s * REFERENCE_S / statistics.median(sample_s)
