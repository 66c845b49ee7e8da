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

from dataclasses import dataclass

import numpy as np

from . import numerics
from .artifacts import write_csv
from .bounds import BoundsReport, anchor_region, sample_anchor_region
from .errors import DivergenceError, NonTransversalError, NoCrossingError
from .plant import StateSpace
from .relay_dynamics import GRAZE_TOL, RelaySystem, system_for

#: Points per block of ``spectral_survey``: bounds the exit tables and the
#: jacobian stacks at n = 20 and 10,000 points.
SURVEY_CHUNK = 1024


@dataclass(frozen=True)
class JacobianPair:
    """Both return-map derivative formulas at one point."""

    astrom: np.ndarray
    exact: np.ndarray


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


def _chain(ss: StateSpace, sys_: RelaySystem, X: np.ndarray, k: int):
    """Chained jacobians of psi(.; k) for each start in the rows of X.

    Each of the k steps exits the current block of starts under sign +1 and
    forms both derivative formulas of that exit.  Returns (rows, J_a, J_e,
    points, errors): the indices of the rows whose k exits are all
    transversal, their chained jacobians as stacks, their negated images
    x_0 .. x_k (one (len(rows), n) array each), and the error a one-row
    call raises for each other row, by row index.
    """
    I = np.eye(ss.n)
    rows = np.arange(len(X))
    points = [X]
    errors = {}
    for j in range(k):
        exits = sys_.exit_events(points[-1], +1)
        ok = np.abs(exits.speed) > GRAZE_TOL      # nan on the rows without an exit
        errors.update((int(rows[i]), exits.error(i) or NonTransversalError(
            f"non-transversal point: |C u| = {abs(exits.speed[i]):.3e} <= {GRAZE_TOL:g}"))
            for i in np.flatnonzero(~ok))
        rows = rows[ok]
        points = [p[ok] for p in points]
        landing = exits.x[ok]
        U = (ss.A @ landing[:, :, None])[:, :, 0] - ss.B         # fields at the crossings
        V = (ss.A @ points[-1][:, :, None])[:, :, 0] - ss.B      # fields at the starts
        E = sys_.exp(exits.tau[ok])[:, :ss.n, :ss.n]
        astrom = (I - U[:, :, None] * ss.C / exits.speed[ok][:, None, None]) @ E
        exact = astrom @ (I - V[:, :, None] * V[:, None, :]
                          / np.einsum("ij,ij->i", V, V)[:, None, None])
        if j == 0:
            J_a, J_e = astrom, exact
        else:
            J_a = astrom @ (-J_a[ok])
            J_e = exact @ (-J_e[ok])
        points.append(-landing)
    return rows, J_a, J_e, points, errors


def chained_jacobians(ss: StateSpace, x, k: int):
    """Jacobians of the k-switch map psi(.; k), composed by the chain rule.

    The recursion psi(x; k) = psi(-psi(x; k-1); 1) makes the derivative an
    alternating product J(x_{k-1}) (-I) ... (-I) J(x_0) where x_j is the
    negated j-th image; ``jacobians`` is the case k = 1.  Returns
    (astrom_chain, exact_chain, points).

    Raises
    ------
    NonTransversalError
        When the output speed at a crossing is numerically zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _, J_a, J_e, points, errors = _chain(ss, system_for(ss), np.asarray(x, dtype=float)[None], k)
    if errors:
        raise errors[0]
    return J_a[0], J_e[0], [p[0] for p in points]


def jacobians(ss: StateSpace, x) -> JacobianPair:
    """Return-map jacobians at an on-plane point x (C x = 0) under relay
    sign +1: the one-switch chain, ``chained_jacobians(ss, x, 1)``."""
    J_a, J_e, _ = chained_jacobians(ss, x, 1)
    return JacobianPair(astrom=J_a, exact=J_e)


def _spectral_stats(M: np.ndarray):
    """Spectral radius, 2-norm and eigenvector condition number (inf where
    the eigenvector matrix is numerically singular) of each member of a
    stack of matrices."""
    lam, V = np.linalg.eig(M)
    rho = np.abs(lam).max(axis=-1)
    nrm = np.linalg.svd(M, compute_uv=False)[:, 0]
    return rho, nrm, numerics.eigenvector_condition(V)


def spectral_survey(ss: StateSpace, bounds: BoundsReport, count: int,
                    k: int = 1, seed: int = 0) -> tuple[list[SpectralSample], dict]:
    """Survey the chained return-map jacobians over the anchor region.

    Draws ``count`` seeded points, chains the per-switch jacobians over k
    switches at each, and records spectral radius, 2-norm, and eigenvector
    condition number for both formulas.  Non-transversal points and points
    with numerically defective chained jacobians are skipped and counted.
    The points are processed in blocks of ``SURVEY_CHUNK``, each exit step
    of a block at once.

    Returns the samples plus a counter dict
    ``{"skipped_nontransversal": .., "skipped_degenerate": ..}``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    region = anchor_region(ss, bounds)
    pts = sample_anchor_region(region, count, seed)
    sys_ = system_for(ss)
    samples: list[SpectralSample] = []
    skipped_nt = 0
    skipped_dg = 0
    for start in range(0, len(pts), SURVEY_CHUNK):
        block = pts[start:start + SURVEY_CHUNK]
        rows, J_a, J_e, _, errors = _chain(ss, sys_, block, k)
        for error in errors.values():
            if not isinstance(error, (NonTransversalError, NoCrossingError)):
                raise error
        skipped_nt += len(errors)
        rho_a, nrm_a, bf_a = _spectral_stats(J_a)
        rho_e, nrm_e, bf_e = _spectral_stats(J_e)
        regular = np.isfinite(bf_a) & np.isfinite(bf_e)
        skipped_dg += int((~regular).sum())
        for i in np.flatnonzero(regular):
            samples.append(SpectralSample(
                point=block[rows[i]], rho_astrom=float(rho_a[i]), rho_exact=float(rho_e[i]),
                norm_astrom=float(nrm_a[i]), norm_exact=float(nrm_e[i]),
                bauer_fike_astrom=float(bf_a[i]), bauer_fike_exact=float(bf_e[i]),
                schur_stable=bool(rho_e[i] < 1.0)))
    counters = {"skipped_nontransversal": skipped_nt,
                "skipped_degenerate": skipped_dg}
    return samples, counters


def survey_to_csv(samples: list[SpectralSample], dest, *, version: str = "") -> None:
    """Write survey samples in the plot-ready CSV schema to a path or a
    text stream."""
    fields = ["rho_astrom", "rho_exact", "norm_astrom", "norm_exact",
              "bauer_fike_astrom", "bauer_fike_exact", "schur_stable"]
    write_csv(dest, version, "dimensionless spectral statistics",
              ["point_id"] + [f.replace("bauer_fike", "bf") for f in fields],
              [range(len(samples))] + [[getattr(s, f) for s in samples] for f in fields])


def fixed_point_search(ss: StateSpace, bounds: BoundsReport, k: int, x0,
                       max_iter: int = 200, tol: float = 1e-12) -> FixedPointResult:
    """Find a fixed point of x -> -psi(x; k) on the switching plane.

    Plain Picard iteration is used while it contracts; if the residual
    plateaus, the iteration switches to a damped Newton step built from the
    chained jacobian (I + J_chain, the derivative of x + psi(x; k)).  The
    search stops when the residual |x + psi(x; k)| is below
    tol * max(1, |x|), so the test stays above roundoff for large anchors.
    Iterates may make bounded excursions outside the anchor region; only
    genuine blow-up (non-finite or far beyond the excursion bound) raises.

    Raises
    ------
    ValueError
        ``tol`` not finite and positive, or ``max_iter`` negative.
    DivergenceError
        Iterates blew up; carries the escaping iterate.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    region = anchor_region(ss, bounds)
    sys_ = system_for(ss)
    x = np.asarray(x0, dtype=float).copy()
    escape_radius = 50.0 * max(bounds.m_excursion, bounds.m_loose)

    def image(p):
        """-psi(p; k) and the residual |p + psi(p; k)|."""
        img = -sys_.kth_exit_map(p, k)
        return img, float(np.linalg.norm(p - img))

    def within_tol(r):
        return r < tol * max(1.0, float(np.linalg.norm(x)))

    x_img, r = image(x)
    history = [r]
    newton_mode = False
    it = 0
    for it in range(1, max_iter + 1):
        if within_tol(r):
            break
        if not newton_mode:
            x = x_img
            x_img, r = image(x)
            history.append(r)
            # plateau: last few Picard residuals not contracting
            newton_mode = len(history) >= 6 and history[-1] > 0.9 * history[-5]
        else:
            _, J_e, points = chained_jacobians(ss, x, k)
            F = x - points[-1]
            # Newton step on x + psi(x; k), whose derivative is I + J_e
            try:
                step = np.linalg.solve(np.eye(ss.n) + J_e, -F)
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

    converged = bool(within_tol(r) and region.contains(x, plane_tol=1e-6))
    return FixedPointResult(x_hat=x, k=k, residual=r,
                            iterations_used=it, converged=converged,
                            residual_history=tuple(history))
