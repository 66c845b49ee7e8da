"""Reference computations for the output checks, made apart from relayosc.

Nothing here calls the package under test.  States of the affine field
x' = A x - s B are propagated with ``scipy.linalg.expm`` of the augmented
matrix [[A, -s B], [0, 0]] (Van Loan, IEEE TAC 1978), so a singular A needs
no special case; closed-loop roots come from ``numpy.roots`` and transfer
functions are evaluated with ``numpy.polyval``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.optimize import brentq


def augmented(A, B, s: int) -> np.ndarray:
    n = len(B)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = -s * np.asarray(B, dtype=float)
    return M


def propagate(A, B, s: int, x, t: float) -> np.ndarray:
    """State at time t of x' = A x - s B started at x."""
    z = scipy.linalg.expm(augmented(A, B, s) * t) @ np.append(x, 1.0)
    return z[:-1]


def output(A, B, C, s: int, x, t: float) -> float:
    return float(np.asarray(C) @ propagate(A, B, s, x, t))


def output_rows(A, B, C, s: int, dt: float, count: int) -> np.ndarray:
    """Rows r_j with y(j dt) = r_j @ [x; 1] for j = 1..count.

    Built by doubling from a single exponential e^{M dt}, so a grid of
    10^5 points costs a few dozen small matrix products.
    """
    E = scipy.linalg.expm(augmented(A, B, s) * dt)
    rows = np.empty((count, len(B) + 1))
    rows[0] = np.append(C, 0.0) @ E
    filled, power = 1, E
    while filled < count:
        m = min(filled, count - filled)
        rows[filled:filled + m] = rows[:m] @ power
        filled += m
        power = power @ power
    return rows


class SegmentChecker:
    """Checks the piecewise-affine segments of a relay trajectory.

    For every segment (x, length, sign) it verifies that the end state
    matches an independent propagation, and that the output keeps the sign
    of the relay on a grid of step ``dt`` (a quarter of the march step of
    the program) strictly inside the segment.
    """

    def __init__(self, A, B, C, dt: float, max_length: float):
        self.A, self.B, self.C = A, B, np.asarray(C, dtype=float)
        self.dt = dt
        count = max(int(math.ceil(max_length / dt)) + 1, 1)
        self.rows = {s: output_rows(A, B, C, s, dt, count) for s in (+1, -1)}

    def sign_violation(self, x, length: float, s: int) -> float:
        """Most negative s * y on the interior grid (0 when none is below)."""
        k = int(math.ceil(length / self.dt)) - 1
        if k < 1:
            return 0.0
        ys = s * (self.rows[s][:k] @ np.append(x, 1.0))
        return float(min(ys.min(), 0.0))

    def end_state(self, x, length: float, s: int) -> np.ndarray:
        return propagate(self.A, self.B, s, x, length)


def first_crossing(A, B, C, x, ys, dt: float) -> float:
    """First zero of y = C x(t) under sign +1, given y on the grid
    dt, 2 dt, ... (``ys``, from ``output_rows``) with a value below zero.

    The first sign change is refined with Brent's method on the exact
    propagation.
    """
    k = int(np.flatnonzero(ys < 0.0)[0])
    lo = k * dt
    hi = (k + 1) * dt
    f = lambda t: output(A, B, C, +1, x, t)
    if f(lo) < 0.0:  # grid roundoff: fall back to the previous point
        lo = max(lo - dt, 0.0)
    return brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def orbit_function(A, B, C, tau: float) -> float:
    """g(tau) = C (e^{A tau} + I)^{-1} (e^{A tau} - I) A^{-1} B."""
    n = len(B)
    E = scipy.linalg.expm(np.asarray(A) * tau)
    AinvB = np.linalg.solve(A, B)
    return float(np.asarray(C) @ np.linalg.solve(E + np.eye(n), (E - np.eye(n)) @ AinvB))


def descending(num, den):
    """Descending-power numerator and monic denominator polynomials."""
    n = len(den)
    num = list(num) + [0.0] * (n - len(num))
    return np.array(num[::-1], dtype=float), np.array([1.0] + list(den)[::-1], dtype=float)


def closed_loop_roots(num, den, gamma: float) -> np.ndarray:
    """Roots of den(s) + gamma num(s)."""
    b, a = descending(num, den)
    poly = a.copy()
    poly[1:] += gamma * b
    return np.roots(poly)


def transfer(num, den, s: complex) -> complex:
    b, a = descending(num, den)
    return complex(np.polyval(b, s) / np.polyval(a, s))


def max_real_part_on_grid(num, den, gammas) -> np.ndarray:
    return np.array([closed_loop_roots(num, den, g).real.max() for g in gammas])


def expm_norms(A, ts) -> np.ndarray:
    return np.array([np.linalg.norm(scipy.linalg.expm(np.asarray(A) * t), 2) for t in ts])
