"""Shared numerical kernels.

Dense matrix exponential, eigendecomposition with a diagonalizability
contract, eigenvector condition numbers, safeguarded first-root location
(forward march + Brent refinement), and adaptive ODE integration.  The
design envelope is small dense systems (n <= 20).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from .errors import NoCrossingError, StiffnessError

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues/eigenvectors of a square matrix, or of each matrix of a
    stack, with a diagonalizability verdict (smallest singular value of V
    above 1e-10 of the largest).

    For a stack of shape (m, n, n) the fields are stacked too:
    ``eigenvalues`` (m, n), ``eigenvectors`` (m, n, n) and
    ``is_diagonalizable`` a bool array of length m.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    is_diagonalizable: bool | np.ndarray


def expm(M: np.ndarray, t=1.0) -> np.ndarray:
    """Evaluate e^{M t} by scaling-and-squaring (Pade), via scipy.

    An array ``t`` gives the stack of exponentials, one per time.  Raises
    OverflowError when the result overflows double precision, and
    ValueError on non-finite input.
    """
    M = np.asarray(M, dtype=float)
    t = np.asarray(t, dtype=float)
    if not (np.isfinite(M).all() and np.isfinite(t).all()):
        raise ValueError("expm requires finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(M * t[..., None, None])
    if not np.isfinite(out).all():
        raise OverflowError("matrix exponential overflow: ||M t|| too large")
    return out


def eigendecompose(M: np.ndarray) -> EigenDecomposition:
    """Dense nonsymmetric eigendecomposition with unit-normalized columns.

    ``M`` is one matrix or a stack of them; a stack costs one LAPACK call
    per routine (numpy loops over it in C) and gives each matrix the same
    values, bit for bit, as a call on that matrix alone.
    """
    M = np.asarray(M, dtype=float)
    lam, V = np.linalg.eig(M)
    V, sv = _unit_columns(lam, V)
    diagonalizable = sv[..., -1] > 1e-10 * sv[..., 0]
    if M.ndim == 2:
        diagonalizable = bool(diagonalizable)
    return EigenDecomposition(lam, V, diagonalizable)


def bauer_fike(e: EigenDecomposition) -> float | np.ndarray:
    """2-norm condition number of the (unit-column) eigenvector matrix.

    This bounds the sensitivity of the computed eigenvalues; it is >= 1 and
    equals 1 exactly for normal matrices.  For a stacked decomposition it
    returns one value per matrix, inf where the matrix is not
    diagonalizable; a single non-diagonalizable matrix raises ValueError.
    """
    _, sv = _unit_columns(e.eigenvalues, e.eigenvectors)
    if sv.ndim == 1:
        if not e.is_diagonalizable:
            raise ValueError("non-diagonalizable: eigenvector matrix is singular")
        return float(sv[0] / sv[-1])
    return np.where(e.is_diagonalizable, sv[:, 0] / sv[:, -1], math.inf)


def _unit_columns(lam: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``V`` with its columns scaled to unit 2-norm, and its singular values.

    ``np.linalg.eig`` of a stack returns complex vectors for every matrix
    as soon as one matrix has a complex spectrum; the matrices with a real
    spectrum are then scaled and decomposed in real arithmetic, as a call
    on each alone does, so that a stack gives the values of its members.
    """
    def scaled(V):
        V = V / np.linalg.norm(V, axis=-2, keepdims=True)
        return V, np.linalg.svd(V, compute_uv=False)

    if V.ndim == 2 or not np.iscomplexobj(V):
        return scaled(V)
    real = ~lam.imag.any(axis=-1)
    out, sv = np.empty_like(V), np.empty(V.shape[:-1])
    for part, cast in ((real, np.real), (~real, np.asarray)):
        if part.any():
            out[part], sv[part] = scaled(cast(V[part]))
    return out, sv


def _brent(f, a, b, fa, fb, f_tol, max_iter=200):
    """Classic safeguarded Brent iteration on a sign-change bracket.

    Runs until the bracket width drops below 1e-12 * max(1, |root|) and the
    residual below ``f_tol`` (or the width reaches the machine floor, where
    no further progress is possible in double precision).
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol_act = 2.0 * _EPS * abs(b) + 0.5e-15
        m = 0.5 * (c - b)
        width_tol = 1e-12 * max(1.0, abs(b))
        if fb == 0.0 or (abs(m) <= width_tol and abs(fb) <= f_tol):
            return b
        if abs(m) <= tol_act:
            return b  # machine floor reached
        if abs(e) < tol_act or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol_act * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        b = b + (d if abs(d) > tol_act else np.copysign(tol_act, m))
        fb = f(b)
        if not np.isfinite(fb):
            raise ValueError("non-finite function value during root refinement")
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    return b


def brent_root(f: Callable[[float], float], lo: float, hi: float,
               *, f_tol: float = 1e-12) -> float:
    """Refine a sign-change bracket [lo, hi] to a root with Brent's method."""
    f_lo, f_hi = float(f(lo)), float(f(hi))
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError("not a sign-change bracket")
    return float(_brent(f, lo, hi, f_lo, f_hi, f_tol))


def find_first_root(
    f: Callable[[float], float],
    t_start: float,
    t_max: float,
    step_hint: float | None = None,
    *,
    f_tol: float = 1e-12,
    blocks: Iterable[np.ndarray] | None = None,
    check_grazing: bool = True,
    allow_negative_start: bool = False,
) -> float:
    """Locate the first zero crossing of ``f`` after ``t_start``.

    Marches forward on the grid t_start + j * ``step_hint`` until a
    sign-change bracket is found, then refines it with Brent's method to
    |f| < ``f_tol`` and bracket width < 1e-12 * max(1, t).  The first
    crossing is guaranteed not to be skipped at resolution ``step_hint``;
    crossings finer than the hint are invisible by design (choose the hint
    from a minimum inter-event bound when one is available).

    Parameters
    ----------
    f : callable
        Continuous scalar function of time; f(t_start) must be >= 0 (a zero
        start is allowed when f moves positive immediately after).
    t_start, t_max : float
        Search window.
    step_hint : float, optional
        Marching step; defaults to (t_max - t_start) / 1e4.
    blocks : iterable of arrays, optional
        Values of ``f`` on the march grid j = 1, 2, ..., in consecutive
        blocks of any length (for example from a closed-form propagator).
        Each block is tested for a bracket at once; ``f`` itself is then only
        called at t_start and inside the bracket.  By default the blocks
        are 64 calls of ``f``.
    check_grazing : bool
        When True, warns if the slope magnitude at the root is below 1e-8
        (near-tangential crossing: the root is numerically fragile).
    allow_negative_start : bool
        Accept f(t_start) < 0 and search for the first down-crossing after
        f has lifted above zero.  This evaluates the analytic continuation
        of a crossing time at starts nudged past the zero set, which is what
        finite-difference probing of crossing maps needs.

    Raises
    ------
    NoCrossingError
        No sign change found before ``t_max``.
    """
    if t_max <= t_start:
        raise ValueError("t_max must exceed t_start")
    h = step_hint if step_hint is not None else (t_max - t_start) / 1e4
    if h <= 0:
        raise ValueError("step_hint must be positive")

    f0 = float(f(t_start))
    if not np.isfinite(f0):
        raise ValueError("non-finite function value at t_start")
    if f0 < -f_tol and not allow_negative_start:
        raise ValueError("f(t_start) must be nonnegative")
    if blocks is None:
        grid = (t_start + h * np.arange(j, j + 64) for j in itertools.count(1, 64))
        blocks = ([f(t) for t in ts[ts <= t_max]] for ts in grid)

    # When the start sits on zero, only a strictly negative sample counts as
    # a crossing until f has visibly lifted off ("armed"); otherwise a zero
    # start would be returned as its own root.  A below-zero start (when
    # allowed) must lift off before any crossing is armed at all.
    armed = f0 > f_tol
    immediate_ok = f0 >= -f_tol
    lo, f_lo, hi = t_start, f0, None  # the bracket [lo, hi] once found
    j = 0  # grid points consumed
    for block in blocks:
        ts = t_start + h * np.arange(j + 1, j + 1 + len(block))
        j += len(block)
        inside = int(np.searchsorted(ts, t_max, side="right"))
        ts, vals = ts[:inside], np.asarray(block, dtype=float)[:inside]
        if inside == 0:
            break
        if not np.isfinite(vals).all():
            raise ValueError("non-finite function value during marching")
        if armed:
            hit = vals <= 0.0
        else:
            lifted = np.logical_or.accumulate(vals > f_tol)
            before = np.concatenate(([False], lifted[:-1]))
            hit = np.where(before, vals <= 0.0, immediate_ok & (vals < -f_tol))
            armed = bool(lifted[-1])
        k = int(hit.argmax())
        if hit[k]:
            if k > 0:
                lo, f_lo = float(ts[k - 1]), float(vals[k - 1])
            hi, f_hi = float(ts[k]), float(vals[k])
            break
        lo, f_lo = float(ts[-1]), float(vals[-1])
        if inside < len(block):  # the block reached past t_max
            break

    if hi is None:
        raise NoCrossingError(f"no crossing of zero in ({t_start}, {t_max}]")
    if f_hi == 0.0 and f_lo > 0.0:
        root = hi
    else:
        root = _brent(f, lo, hi, f_lo, f_hi, f_tol)

    if check_grazing:
        d = max(1e-9, 1e-7 * max(1.0, abs(root)))
        slope = (f(min(root + d, t_max)) - f(max(root - d, t_start))) / (2 * d)
        if abs(slope) < 1e-8:
            warnings.warn("near-tangential crossing at t=%g" % root, RuntimeWarning)
    return float(root)


def integrate_adaptive(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: np.ndarray,
    t_span: tuple[float, float],
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    *,
    method: str = "DOP853",
    max_step: float = np.inf,
    dense_output: bool = True,
    t_eval: np.ndarray | None = None,
):
    """Adaptive embedded Runge-Kutta integration with dense output.

    Thin contract wrapper around scipy's solve_ivp (RK45/DOP853 pairs).
    With ``t_eval`` the states at those times are returned in ``y``; with
    ``dense_output=False`` as well, DOP853 builds its interpolant only on
    the steps that hold one of them, and saves the three right-hand-side
    evaluations it costs on every other step.
    Raises StiffnessError when the step controller gives up, which for the
    smooth relay approximation usually means the gain is too large for the
    requested tolerance.
    """
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    sol = solve_ivp(
        rhs,
        t_span,
        np.asarray(x0, dtype=float),
        method=method,
        rtol=rel_tol,
        atol=abs_tol,
        dense_output=dense_output,
        t_eval=t_eval,
        max_step=max_step,
    )
    if not sol.success and sol.status == -1:
        raise StiffnessError(
            "integration step underflow: " + sol.message
            + " (reduce the gain or loosen the tolerance)"
        )
    if not sol.success and sol.status != 1:
        raise StiffnessError("integration failed: " + sol.message)
    return sol
