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
from .relay_dynamics import RelaySystem, system_for

TRANSVERSALITY_TOL = 1e-8

#: Points per block of ``spectral_survey``: bounds the exit tables and the
#: jacobian stacks at n = 20 and 10,000 points.
SURVEY_CHUNK = 1024


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


def _return_jacobians(ss: StateSpace, sys_: RelaySystem, X: np.ndarray, s: int):
    """One exit of each start in the rows of X under sign ``s``, and both
    derivative formulas there.

    Returns (pairs, ok, errors): a ``JacobianPair`` of stacks over the rows
    that exit transversally, the mask of those rows, and the error a
    one-row call raises for each other row, by row index.
    """
    exits = sys_.exit_events(X, s)
    U = (ss.A @ exits.x[:, :, None])[:, :, 0] - s * ss.B     # fields at the crossings
    Cu = (U[:, None, :] @ ss.C[:, None])[:, 0, 0]
    ok = np.abs(Cu) > TRANSVERSALITY_TOL      # nan on the rows without an exit
    errors = {int(i): exits.error(i) or NonTransversalError(
        f"non-transversal point: |C u| = {abs(Cu[i]):.3e} <= {TRANSVERSALITY_TOL:g}")
        for i in np.flatnonzero(~ok)}
    U, Cu = U[ok], Cu[ok]
    V = (ss.A @ X[ok][:, :, None])[:, :, 0] - s * ss.B       # fields at the starts
    I = np.eye(ss.n)
    E = sys_.flow.exp(exits.tau[ok])[:, :ss.n, :ss.n]
    astrom = (I - U[:, :, None] * ss.C / Cu[:, None, None]) @ E
    exact = astrom @ (I - V[:, :, None] * V[:, None, :]
                      / np.einsum("ij,ij->i", V, V)[:, None, None])
    pairs = JacobianPair(astrom=astrom, exact=exact, field_at_exit=U, field_at_start=V,
                         tau=exits.tau[ok], landing=exits.x[ok])
    return pairs, ok, errors


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
        Reusable precomputed system (the plant's shared one by default).

    Raises
    ------
    NonTransversalError
        When the output speed at the crossing is numerically zero.
    """
    sys_ = system if system is not None else system_for(ss)
    pairs, ok, errors = _return_jacobians(
        ss, sys_, np.asarray(x, dtype=float)[None], int(sign))
    if not ok[0]:
        raise errors[0]
    return JacobianPair(astrom=pairs.astrom[0], exact=pairs.exact[0],
                        field_at_exit=pairs.field_at_exit[0],
                        field_at_start=pairs.field_at_start[0],
                        tau=float(pairs.tau[0]), landing=pairs.landing[0])


def _chain(ss: StateSpace, sys_: RelaySystem, X: np.ndarray, k: int):
    """Chained jacobians of psi(.; k) for each start in the rows of X.

    Returns (rows, J_a, J_e, points, errors): the indices of the rows whose
    k exits are all transversal, their chained jacobians as stacks, their
    negated images x_0 .. x_k (one (len(rows), n) array each), and the error
    a one-row call raises for each other row, by row index.
    """
    rows = np.arange(len(X))
    points = [X]
    errors = {}
    for j in range(k):
        pairs, ok, errs = _return_jacobians(ss, sys_, points[-1], +1)
        errors.update((int(rows[i]), e) for i, e in errs.items())
        rows = rows[ok]
        if j == 0:
            J_a, J_e = pairs.astrom, pairs.exact
        else:
            J_a = pairs.astrom @ (-J_a[ok])
            J_e = pairs.exact @ (-J_e[ok])
        points = [p[ok] for p in points] + [-pairs.landing]
    return rows, J_a, J_e, points, errors


def chained_jacobians(ss: StateSpace, x, k: int,
                      system: RelaySystem | None = None):
    """Jacobians of the k-switch map psi(.; k), composed by the chain rule.

    The recursion psi(x; k) = psi(-psi(x; k-1); 1) makes the derivative an
    alternating product J(x_{k-1}) (-I) ... (-I) J(x_0) where x_j is the
    negated j-th image.  Returns (astrom_chain, exact_chain, points).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sys_ = system if system is not None else system_for(ss)
    _, J_a, J_e, points, errors = _chain(ss, sys_, np.asarray(x, dtype=float)[None], k)
    if errors:
        raise errors[0]
    return J_a[0], J_e[0], [p[0] for p in points]


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
    DivergenceError
        Iterates blew up; carries the escaping iterate.
    """
    region = anchor_region(ss, bounds)
    sys_ = system_for(ss)
    x = np.asarray(x0, dtype=float).copy()
    escape_radius = 50.0 * max(bounds.m_excursion, bounds.m_loose)
    residuals: list[float] = []

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

    converged = bool(within_tol(r) and region.contains(x, plane_tol=1e-6))
    return FixedPointResult(x_hat=x, k=k, residual=r,
                            iterations_used=it, converged=converged,
                            residual_history=tuple(history))
