"""Shared numerical kernels.

Eigenvector condition numbers and adaptive ODE integration.
The design envelope is small dense systems (n <= 20).
"""

from __future__ import annotations

import math
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


def integrate_adaptive(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: np.ndarray,
    t_span: tuple[float, float],
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    *,
    dense_output: bool = True,
    events=None,
):
    """Adaptive embedded Runge-Kutta integration, with dense output unless
    ``dense_output`` is false.

    Thin contract wrapper around scipy's solve_ivp (DOP853 pair, no step
    cap).  ``events`` passes through to solve_ivp: a terminal event ends the
    integration at its zero, which is then the solution's last point.
    Raises StiffnessError when the step controller gives up, which for the
    smooth relay approximation usually means the gain is too large for the
    requested tolerance.
    """
    from scipy.integrate import solve_ivp

    if not (0.0 < rel_tol < math.inf and 0.0 < abs_tol < math.inf):
        raise ValueError(f"tolerances must be finite and positive: {rel_tol!r}, {abs_tol!r}")
    sol = solve_ivp(
        rhs,
        t_span,
        np.asarray(x0, dtype=float),
        method="DOP853",
        rtol=rel_tol,
        atol=abs_tol,
        dense_output=dense_output,
        events=events,
    )
    if not sol.success and sol.status == -1:
        raise StiffnessError(
            "integration step underflow: " + sol.message
            + " (reduce the gain or loosen the tolerance)"
        )
    if not sol.success and sol.status != 1:
        raise StiffnessError("integration failed: " + sol.message)
    return sol
