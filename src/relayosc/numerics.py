"""Shared numerical kernels.

Eigenvector condition numbers and adaptive ODE integration (DOP853).
The design envelope is small dense systems (n <= 20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StiffnessError


def eigenvector_condition(V: np.ndarray) -> np.ndarray:
    """2-norm condition number of ``V`` with its columns scaled to unit
    norm, of each member of a stack (m, n, n); inf where the smallest
    singular value of that matrix is at most 1e-10 of the largest, the
    verdict that an eigenvector matrix ``V`` is numerically singular."""
    sv = np.linalg.svd(V / np.linalg.norm(V, axis=-2, keepdims=True), compute_uv=False)
    regular = sv[..., -1] > 1e-10 * sv[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(regular, sv[..., 0] / sv[..., -1], np.inf)


@dataclass(frozen=True)
class Run:
    """An integration: step times ``t`` (m,) and states ``y`` (n, m), the
    dense output ``sol`` (shape (n,) at a scalar t, (n,) + t.shape at an
    array t) and ``nfev``, the right-hand-side calls made while
    integrating."""

    t: np.ndarray
    y: np.ndarray
    sol: Callable
    nfev: int


def _piecewise(n, breaks, pieces, side):
    """A dense output made of pieces: ``pieces[i]`` takes a 1-d array of
    times in [breaks[i], breaks[i + 1]] to their states (n, k), each piece
    getting its times in the order given.  A time on an inner break point
    takes the lower piece when ``side`` is "left" (as scipy's
    ``OdeSolution``) and the upper one when it is "right"; a time outside
    the breaks takes the nearer end piece.  The result has shape (n,) at a
    scalar t and (n,) + t.shape at an array t."""

    def sol(t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        k = np.clip(np.searchsorted(breaks, flat, side=side) - 1, 0, len(pieces) - 1)
        out = np.empty((n, flat.size))
        if flat.size:
            order = np.argsort(k, kind="stable")
            for idx in np.split(order, np.flatnonzero(np.diff(k[order])) + 1):
                out[:, idx] = pieces[k[idx[0]]](flat[idx])
        return out.reshape((n,) + t.shape)

    return sol


def _interpolant(rhs, tab, step) -> np.ndarray:
    """The coefficients F of DOP853's continuous extension over an accepted
    step [t_old, h, y_old, y, K, F] (Hairer, Norsett & Wanner, *Solving
    ODEs I*, II.6), scipy's arithmetic: three more stages into K, built
    once and kept in the step."""
    t_old, h, y_old, y, K, F = step
    if F is None:
        for s, (a, c) in enumerate(zip(tab.A_EXTRA, tab.C_EXTRA), start=tab.n_stages + 1):
            K[s] = rhs(t_old + c * h, y_old + np.dot(K[:s].T, a[:s]) * h)
        F = step[5] = np.empty((7, len(y)))
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (K[tab.n_stages] + K[0])
        F[3:] = h * np.dot(tab.D, K)
    return F


def _interpolate(step, F, t) -> np.ndarray:
    """The step's interpolant F at the times t (k,), as scipy's
    ``Dop853DenseOutput``: shape (n, k)."""
    t_old, h, y_old = step[:3]
    x = ((t - t_old) / h)[:, None]
    out = np.zeros((len(x), len(y_old)))
    for j, f in enumerate(reversed(F)):
        out += f
        out *= x if j % 2 == 0 else 1 - x
    out += y_old
    return out.T


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def integrate_adaptive(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: np.ndarray,
    t_span: tuple[float, float],
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    *,
    event: Callable[[float, np.ndarray], float] | None = None,
    first_step: float | None = None,
) -> Run:
    """DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*, II.5 and II.10)
    over the increasing ``t_span``, with no step cap.

    The tableau is scipy's ``DOP853``, and so is the arithmetic: the steps,
    the step control, the error norm, the initial-step heuristic (replaced
    by ``first_step`` when given) and a rel_tol below 100 eps raised to it,
    so ``t``, ``y``, ``sol`` and ``nfev`` equal those of
    ``scipy.integrate.solve_ivp(method="DOP853")`` bit for bit.  ``event``
    is a function g(t, y) that ends the integration where it rises through
    zero within a step (g <= 0 at the step's start, g >= 0 at its end): the
    root of g on the step's interpolant by ``brentq`` (xtol = rtol =
    4 eps) is then the last point.  ``nfev`` counts the calls made while
    integrating, an event step's interpolant included; the other steps'
    interpolants are built, and call ``rhs``, only when ``sol`` needs them.
    At a step's end ``sol`` takes the lower step, as scipy's
    ``OdeSolution``.

    Raises ValueError for tolerances that are not finite and positive, a
    span that does not increase or a start that is not a finite vector,
    and StiffnessError when the step falls below 10 ulp of t (nan
    included), which for the smooth relay approximation usually means the
    gain is too large for the requested tolerance.
    """
    from scipy.integrate import DOP853 as tab
    from scipy.optimize import brentq

    if not (0.0 < rel_tol < math.inf and 0.0 < abs_tol < math.inf):
        raise ValueError(f"tolerances must be finite and positive: {rel_tol!r}, {abs_tol!r}")
    t, t_end = map(float, t_span)
    if not t < t_end:
        raise ValueError(f"t_span must increase, got {t_span!r}")
    y = np.asarray(x0, dtype=float)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("the start must be a finite vector")
    eps = np.finfo(float).eps
    rtol, atol = max(rel_tol, 100 * eps), abs_tol
    m, n = tab.n_stages, len(y)
    K = np.empty((m + 1 + len(tab.C_EXTRA), n))  # the stages of the step being tried
    stages = [(K[s], K[:s].T, tab.A[s, :s], float(tab.C[s])) for s in range(1, m)]
    K_B, K_E = K[:m].T, K[:m + 1].T
    exponent = -1 / (tab.error_estimator_order + 1)

    f = np.asarray(rhs(t, y), dtype=float)
    nfev = 1
    if first_step is None:  # scipy's select_initial_step
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
        d2 = _rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
        nfev += 1
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** -exponent)
        h_abs = min(100 * h0, h1, t_end - t)
    elif 0.0 < first_step <= t_end - t:
        h_abs = first_step
    else:
        raise ValueError(f"first_step must be in (0, {t_end - t!r}], got {first_step!r}")

    g = event(t, y) if event is not None else None
    ts, ys, steps = [t], [y], []
    done = False
    while not done:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise StiffnessError(
                    f"integration step underflow: the step fell below 10 ulp of t = {t!r}"
                    " (reduce the gain or loosen the tolerance)")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for row, KT, a, c in stages:
                row[...] = rhs(t + c * h, y + KT.dot(a) * h)
            y_new = y + h * K_B.dot(tab.B)
            K[m] = rhs(t + h, y_new)
            nfev += m
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = K_E.dot(tab.E5) / scale
            e3 = K_E.dot(tab.E3) / scale
            err5 = np.sqrt(e5.dot(e5)) ** 2  # np.linalg.norm(e5) ** 2
            err3 = np.sqrt(e3.dot(e3)) ** 2
            error_norm = (0.0 if err5 == 0 and err3 == 0
                          else h_abs * err5 / np.sqrt((err5 + 0.01 * err3) * n))
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** exponent)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** exponent)
            rejected = True
        steps.append([t, h, y, y_new, K.copy(), None])
        t_old, t, y, f = t, t_new, y_new, steps[-1][4][m]
        done = t >= t_end
        if g is not None:
            g_new = event(t, y)
            if g <= 0 and g_new >= 0:
                # scipy's brentq keeps its function in a reference cycle, so
                # it sees this step alone, not every step's stages
                step = steps[-1]
                F = _interpolant(rhs, tab, step)
                nfev += len(tab.C_EXTRA)
                t = brentq(lambda s: event(s, _interpolate(step, F, np.array([s]))[:, 0]),
                           t_old, t, xtol=4 * eps, rtol=4 * eps)
                y, done = _interpolate(step, F, np.array([t]))[:, 0], True
            g = g_new
        ts.append(t)
        ys.append(y)
    ts = np.array(ts)
    pieces = [lambda t, step=step: _interpolate(step, _interpolant(rhs, tab, step), t)
              for step in steps]
    return Run(t=ts, y=np.vstack(ys).T, sol=_piecewise(n, ts, pieces, "left"), nfev=nfev)
