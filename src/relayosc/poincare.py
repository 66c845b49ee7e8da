"""Linearizations of the switching-plane return maps, spectral surveys, and
fixed-point search.

Two n-by-n derivative formulas are computed for the first exit map at an
on-plane point x with exit time tau and flow E = e^{A tau}:

    oblique   J = (I - u C / (C u)) E            (u: field at the crossing)
    projected J = (I - u C / (C u)) E (I - v v^T / (v^T v))   (v: field at x)

Since E v = u and the oblique projector annihilates u, the two matrices
agree in exact arithmetic; both are kept because their norms are reported
separately and the spectral-radius agreement is a useful runtime check.
Restricted to the plane they linearize the same return map, whose nonzero
spectrum they share.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import numerics
from .bounds import BoundsReport, anchor_region, sample_anchor_region
from .errors import DivergenceError, NonTransversalError, NoCrossingError
from .plant import StateSpace
from .relay_dynamics import RelaySystem

TRANSVERSALITY_TOL = 1e-8


@dataclass(frozen=True)
class JacobianPair:
    """Both return-map derivative formulas at one point, plus the data they
    were built from."""

    astrom: np.ndarray
    exact: np.ndarray
    field_at_exit: np.ndarray
    field_at_start: np.ndarray
    tau: float
    landing: np.ndarray


@dataclass(frozen=True)
class SpectralSample:
    """Spectral statistics of the chained return-map jacobians at one
    sampled point of the anchor region."""

    point: np.ndarray
    rho_astrom: float
    rho_exact: float
    norm_astrom: float
    norm_exact: float
    bauer_fike_astrom: float
    bauer_fike_exact: float
    schur_stable: bool


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of the fixed-point search for the k-switch return map."""

    x_hat: np.ndarray
    k: int
    residual: float
    iterations_used: int
    converged: bool
    residual_history: tuple[float, ...] = ()


def jacobians(ss: StateSpace, x, sign: int = +1,
              system: RelaySystem | None = None) -> JacobianPair:
    """Return-map jacobians at an on-plane point.

    Parameters
    ----------
    ss : StateSpace
    x : array
        Point on the switching plane (C x = 0).
    sign : int
        Relay sign of the departing flow (default +1).
    system : RelaySystem, optional
        Reusable precomputed system (cheaper in loops).

    Raises
    ------
    NonTransversalError
        When the output speed at the crossing is numerically zero.
    """
    sys_ = system if system is not None else RelaySystem(ss)
    x = np.asarray(x, dtype=float)
    s = int(sign)
    tau, x_land, _ = sys_.exit_event(x, s)
    E = sys_.flow.expAt(tau)
    u = ss.A @ x_land - s * ss.B      # field at the crossing (A e^{A tau}(x - s A^{-1}B))
    v = ss.A @ x - s * ss.B           # field at the start
    Cu = float(ss.C @ u)
    if abs(Cu) <= TRANSVERSALITY_TOL:
        raise NonTransversalError(
            f"non-transversal point: |C u| = {abs(Cu):.3e} <= {TRANSVERSALITY_TOL:g}")
    n = ss.n
    astrom = (np.eye(n) - np.outer(u, ss.C) / Cu) @ E
    exact = astrom @ (np.eye(n) - np.outer(v, v) / float(v @ v))
    return JacobianPair(astrom=astrom, exact=exact, field_at_exit=u,
                        field_at_start=v, tau=tau, landing=x_land)


def chained_jacobians(ss: StateSpace, x, k: int,
                      system: RelaySystem | None = None):
    """Jacobians of the k-switch map psi(.; k), composed by the chain rule.

    The recursion psi(x; k) = psi(-psi(x; k-1); 1) makes the derivative an
    alternating product J(x_{k-1}) (-I) ... (-I) J(x_0) where x_j is the
    negated j-th image.  Returns (astrom_chain, exact_chain, points).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sys_ = system if system is not None else RelaySystem(ss)
    pt = np.asarray(x, dtype=float)
    n = ss.n
    J_a = np.eye(n)
    J_e = np.eye(n)
    points = [pt]
    for j in range(k):
        pair = jacobians(ss, pt, +1, system=sys_)
        if j == 0:
            J_a = pair.astrom
            J_e = pair.exact
        else:
            J_a = pair.astrom @ (-J_a)
            J_e = pair.exact @ (-J_e)
        pt = -pair.landing
        points.append(pt)
    return J_a, J_e, points


def _spectral_stats(M: np.ndarray):
    lam = np.linalg.eigvals(M)
    rho = float(np.abs(lam).max())
    nrm = float(np.linalg.norm(M, 2))
    e = numerics.eigendecompose(M)
    if e.is_diagonalizable:
        bf = numerics.bauer_fike(e)
    else:
        bf = float("inf")
    return rho, nrm, bf


def spectral_survey(ss: StateSpace, bounds: BoundsReport, count: int,
                    k: int = 1, seed: int = 0) -> tuple[list[SpectralSample], dict]:
    """Survey the chained return-map jacobians over the anchor region.

    Draws ``count`` seeded points, chains the per-switch jacobians over k
    switches at each, and records spectral radius, 2-norm, and eigenvector
    condition number for both formulas.  Non-transversal points and points
    with numerically defective chained jacobians are skipped and counted.

    Returns the samples plus a counter dict
    ``{"skipped_nontransversal": .., "skipped_degenerate": ..}``.
    """
    region = anchor_region(ss, bounds)
    pts = sample_anchor_region(region, count, seed)
    sys_ = RelaySystem(ss)
    samples: list[SpectralSample] = []
    skipped_nt = 0
    skipped_dg = 0
    for p in pts:
        try:
            J_a, J_e, _ = chained_jacobians(ss, p, k, system=sys_)
        except (NonTransversalError, NoCrossingError):
            skipped_nt += 1
            continue
        rho_a, nrm_a, bf_a = _spectral_stats(J_a)
        rho_e, nrm_e, bf_e = _spectral_stats(J_e)
        if not (np.isfinite(bf_a) and np.isfinite(bf_e)):
            skipped_dg += 1
            continue
        samples.append(SpectralSample(
            point=p, rho_astrom=rho_a, rho_exact=rho_e,
            norm_astrom=nrm_a, norm_exact=nrm_e,
            bauer_fike_astrom=bf_a, bauer_fike_exact=bf_e,
            schur_stable=bool(rho_e < 1.0)))
    counters = {"skipped_nontransversal": skipped_nt,
                "skipped_degenerate": skipped_dg}
    return samples, counters


def survey_to_csv(samples: list[SpectralSample], dest, *, version: str = "") -> None:
    """Write survey samples in the plot-ready CSV schema to a path or a
    text stream."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", newline="") as fh:
            survey_to_csv(samples, fh, version=version)
        return
    dest.write(f"# relayosc {version}; dimensionless spectral statistics\n")
    w = csv.writer(dest)
    w.writerow(["point_id", "rho_astrom", "rho_exact", "norm_astrom",
                "norm_exact", "bf_astrom", "bf_exact", "schur_stable"])
    for i, s in enumerate(samples):
        w.writerow([i, repr(s.rho_astrom), repr(s.rho_exact),
                    repr(s.norm_astrom), repr(s.norm_exact),
                    repr(s.bauer_fike_astrom), repr(s.bauer_fike_exact),
                    int(s.schur_stable)])


def fixed_point_search(ss: StateSpace, bounds: BoundsReport, k: int, x0,
                       max_iter: int = 200, tol: float = 1e-12) -> FixedPointResult:
    """Find a fixed point of x -> -psi(x; k) on the switching plane.

    Plain Picard iteration is used while it contracts; if the residual
    plateaus, the iteration switches to a damped Newton step built from the
    chained jacobian (I + J_chain, the derivative of x + psi(x; k)).
    Iterates may make bounded excursions outside the anchor region; only
    genuine blow-up (non-finite or far beyond the excursion bound) raises.

    Raises
    ------
    DivergenceError
        Iterates blew up; carries the escaping iterate.
    """
    region = anchor_region(ss, bounds)
    sys_ = RelaySystem(ss)
    x = np.asarray(x0, dtype=float).copy()
    escape_radius = 50.0 * max(bounds.m_excursion, bounds.m_loose)
    residuals: list[float] = []

    def image(p):
        """-psi(p; k) and the residual |p + psi(p; k)|."""
        img = -sys_.kth_exit_map(p, k)
        return img, float(np.linalg.norm(p - img))

    x_img, r = image(x)
    history = [r]
    newton_mode = False
    it = 0
    for it in range(1, max_iter + 1):
        if r < tol:
            break
        if not newton_mode:
            x_new = x_img
            x_img, r_new = image(x_new)
            residuals.append(r_new)
            # plateau: last few Picard residuals not contracting
            if len(residuals) >= 5 and residuals[-1] > 0.9 * residuals[-5]:
                newton_mode = True
            x, r = x_new, r_new
            history.append(r)
        else:
            J_a, J_e, points = chained_jacobians(ss, x, k, system=sys_)
            F = x - points[-1]
            # derivative of x + psi(x; k)
            M = np.eye(ss.n) + (J_e if np.all(np.isfinite(J_e)) else J_a)
            try:
                step = np.linalg.solve(M, -F)
            except np.linalg.LinAlgError:
                step = -F
            alpha = 1.0
            while alpha >= 2.0 ** -20:
                x_try = x + alpha * step
                _, r_try = image(x_try)
                if r_try < r:
                    x, r = x_try, r_try
                    history.append(r)
                    break
                alpha *= 0.5
            else:
                break  # no descent possible; report as-is
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > escape_radius:
            raise DivergenceError("fixed-point iteration diverged",
                                  iterate=x, iteration=it)

    converged = bool(r < tol and region.contains(x, plane_tol=1e-6))
    return FixedPointResult(x_hat=x, k=k, residual=r,
                            iterations_used=it, converged=converged,
                            residual_history=tuple(history))
