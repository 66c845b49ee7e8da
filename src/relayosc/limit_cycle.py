"""Symmetric unimodal orbits of the relay loop and their linear stability.

A symmetric unimodal orbit is determined by a half-period tau* > 0 at which

    g(tau) = C (e^{A tau} + I)^{-1} (e^{A tau} - I) A^{-1} B

vanishes; the on-plane anchor state is then

    x_hat = (e^{A tau*} + I)^{-1} (e^{A tau*} - I) A^{-1} B ,

and the candidate is valid when the output stays nonnegative over the half
period.  Stability is quantified by the monodromy matrix of the orbit,
composed from the half-period flow and the switch-jump (saltation) factor at
each crossing, or integrated directly for the smooth tanh approximation of
the relay at a finite gain.

Note on the jump factor: the boundary-layer integral of the smooth system's
linearization coefficient across one switch is

    mu = ln(|rho_after| / |rho_before|) / |C B|     (C B != 0)
    mu = 2 / |rho|                                  (C B  = 0)

because the output speed sweeps continuously between its one-sided limits
while the relay input saturates.  The resulting factor I - B C (1 - e^{-C B
mu}) / (C B) is exactly the classical saltation matrix I + 2 s B C / rho_in,
which maps the pre-switch field onto the post-switch field, so the composed
monodromy carries the trivial multiplier 1 by construction and its nonzero
spectrum matches the chained return-map jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import DegenerateOrbitError, NoOrbitError, ShootingError
from .plant import StateSpace
from .relay_dynamics import RelaySystem
from .sfs import sfs_field

#: Output-sign condition tolerance: tiny negative slack absorbs roundoff at
#: the endpoints where the output is exactly zero.
SIGN_CONDITION_SLACK = -1e-9

OUTPUT_SPEED_TOL = 1e-8


@dataclass(frozen=True)
class OrbitCandidate:
    """A symmetric unimodal orbit candidate.

    ``output_speeds`` holds one (before, after) pair of one-sided output
    derivatives per switch (two switches per period); for a symmetric orbit
    the two pairs have equal magnitudes.
    """

    half_period: float
    anchor: np.ndarray
    is_symmetric_unimodal: bool
    period: float
    peak_output: float
    output_speeds: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class MonodromyReport:
    """Monodromy matrix of a periodic orbit with its Floquet data."""

    matrix: np.ndarray
    floquet_multipliers: tuple[complex, ...]
    det: float
    det_limit_formula: float
    trivial_multiplier_error: float
    period: float
    extras: dict = field(default_factory=dict)


def _orbit_function(ss: StateSpace):
    """g(tau) whose positive roots are symmetric-orbit half-periods."""
    A, B, C = ss.A, ss.B, ss.C
    AinvB = np.linalg.solve(A, B)
    n = ss.n
    I = np.eye(n)

    def g(tau):
        """g at a scalar tau, or one value per entry of an array tau."""
        E = numerics.expm(A, tau)
        X = np.linalg.solve(E + I, ((E - I) @ AinvB)[..., None])[..., 0]
        y = X @ C
        return float(y) if np.ndim(y) == 0 else y

    return g, AinvB


def find_symmetric_orbit(ss: StateSpace, tau_range: tuple[float, float] | None = None,
                         *, grid_points: int = 400, sign_grid: int = 10_000,
                         return_all: bool = False):
    """Locate symmetric unimodal orbit candidates by scanning g(tau).

    Scans a log-spaced grid over ``tau_range`` for sign changes of g, refines
    each root by Brent to 1e-12, reconstructs the anchor, and checks the
    output-sign condition on a dense grid.  The returned orbit is the valid
    candidate with the smallest half-period; ``return_all=True`` instead
    yields every root as a candidate with its validity flag.

    Raises
    ------
    NoOrbitError
        No root of g, or no root passing the sign condition.
    """
    lam = np.linalg.eigvals(ss.A)
    if np.abs(lam).min() < 1e-12 * max(1.0, np.abs(lam).max()):
        raise ValueError("A must be invertible (no pole at the origin)")
    g, AinvB = _orbit_function(ss)
    if tau_range is None:
        if lam.real.max() >= 0:
            raise ValueError("default tau_range requires a stable plant")
        sigma = -lam.real.max()
        lo = 1e-4 / sigma
        hi = 100.0 / sigma
    else:
        lo, hi = tau_range
        if lo <= 0:
            lo = 1e-12 + hi * 1e-10
    taus = np.geomspace(lo, hi, grid_points)
    vals = g(taus)

    roots: list[float] = []
    for i in range(len(taus) - 1):
        if vals[i] == 0.0:
            roots.append(float(taus[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(numerics.brent_root(g, float(taus[i]), float(taus[i + 1])))
    if vals[-1] == 0.0:
        roots.append(float(taus[-1]))
    if not roots:
        raise NoOrbitError("no symmetric unimodal candidate: g(tau) has no "
                           "root in the scanned range")

    candidates = []
    A, B, C = ss.A, ss.B, ss.C
    I = np.eye(ss.n)
    sys_ = RelaySystem(ss)
    for tau in roots:
        E = numerics.expm(A, tau)
        anchor = np.linalg.solve(E + I, (E - I) @ AinvB)
        anchor = anchor.copy()
        anchor[-1] = 0.0  # C anchor = 0 holds exactly by construction of g
        # output along the positive half on an evenly spaced grid
        ys = sys_.flow.grid(anchor, +1, tau / (sign_grid - 1), sign_grid) @ C
        valid = bool(np.min(ys) >= SIGN_CONDITION_SLACK)
        peak = float(np.max(np.abs(ys)))
        # one-sided output speeds at the two switches (t = tau at -anchor
        # with incoming sign +1, and t = 2 tau at +anchor with incoming -1)
        sw1 = -anchor
        rho1 = (float(C @ (A @ sw1 - B)), float(C @ (A @ sw1 + B)))
        rho2 = (float(C @ (A @ anchor + B)), float(C @ (A @ anchor - B)))
        candidates.append(OrbitCandidate(
            half_period=float(tau), anchor=anchor,
            is_symmetric_unimodal=valid, period=2.0 * float(tau),
            peak_output=peak, output_speeds=(rho1, rho2)))

    if return_all:
        return candidates
    valid = [c for c in candidates if c.is_symmetric_unimodal]
    if not valid:
        raise NoOrbitError("g(tau) has roots but none passes the output-sign "
                           "condition (no symmetric unimodal orbit)")
    return min(valid, key=lambda c: c.half_period)


def _switch_jump_integral(rho_before: float, rho_after: float, b_tail: float) -> float:
    """Boundary-layer integral of the linearization coefficient at a switch."""
    if abs(rho_before) <= OUTPUT_SPEED_TOL or abs(rho_after) <= OUTPUT_SPEED_TOL:
        raise DegenerateOrbitError("output speed degenerate at switch")
    if b_tail != 0.0:
        return math.log(abs(rho_after) / abs(rho_before)) / abs(b_tail)
    return 2.0 / abs(rho_before)


def _jump_factor(ss: StateSpace, mu: float) -> np.ndarray:
    """exp(-B C mu) evaluated in closed form via (B C)^k = (C B)^{k-1} B C."""
    b_tail = float(ss.B[-1])
    BC = np.outer(ss.B, ss.C)
    if b_tail != 0.0:
        theta = (1.0 - math.exp(-b_tail * mu)) / b_tail
    else:
        theta = mu
    return np.eye(ss.n) - BC * theta


def monodromy_exact(ss: StateSpace, orbit: OrbitCandidate) -> MonodromyReport:
    """Monodromy of the relay orbit from its closed-form ingredients.

    Composes, over the two half-periods, the flow e^{A tau*} with the
    switch-jump factor built from the one-sided output speeds.  The
    determinant is cross-checked against the closed-form limit
    exp(-a_{n-1} T - C B * sum of jump integrals), which the construction
    satisfies as an algebraic identity.
    """
    A = ss.A
    tau = orbit.half_period
    T = orbit.period
    b_tail = float(ss.B[-1])
    E = numerics.expm(A, tau)

    Phi = np.eye(ss.n)
    mus = []
    for rho_b, rho_a in orbit.output_speeds:
        mu = _switch_jump_integral(rho_b, rho_a, b_tail)
        mus.append(mu)
        Phi = _jump_factor(ss, mu) @ E @ Phi

    mults = np.linalg.eigvals(Phi)
    det = float(np.linalg.det(Phi))
    a_tail = float(-A[-1, -1])  # a_{n-1} from the companion structure
    det_limit = math.exp(-a_tail * T - b_tail * sum(mus))
    trivial_err = float(np.min(np.abs(mults - 1.0)))
    return MonodromyReport(
        matrix=Phi,
        floquet_multipliers=tuple(mults),
        det=det,
        det_limit_formula=det_limit,
        trivial_multiplier_error=trivial_err,
        period=T,
        extras={"jump_integrals": mus},
    )


def monodromy_sinusoid(ss: StateSpace, orbit: OrbitCandidate) -> MonodromyReport:
    """Monodromy with the pure-sinusoid approximation of the jump integral.

    For plants of relative degree two or more the orbit output is close to a
    sinusoid, and the jump integral per switch is approximately
    T / (pi * peak output).  Useful as a back-of-envelope check; accuracy
    degrades as the waveform departs from a sinusoid.
    """
    tau = orbit.half_period
    T = orbit.period
    mu = T / (math.pi * orbit.peak_output)
    E = numerics.expm(ss.A, tau)
    W = _jump_factor(ss, mu) @ E
    Phi = W @ W
    mults = np.linalg.eigvals(Phi)
    det = float(np.linalg.det(Phi))
    a_tail = float(-ss.A[-1, -1])
    b_tail = float(ss.B[-1])
    det_limit = math.exp(-a_tail * T - b_tail * 2.0 * mu)
    return MonodromyReport(
        matrix=Phi,
        floquet_multipliers=tuple(mults),
        det=det,
        det_limit_formula=det_limit,
        trivial_multiplier_error=float(np.min(np.abs(mults - 1.0))),
        period=T,
        extras={"jump_integrals": [mu, mu]},
    )


def _shoot_half_period(ss: StateSpace, gamma: float, z0: np.ndarray, tau0: float,
                       rel_tol: float, abs_tol: float,
                       max_newton: int = 40) -> tuple[np.ndarray, float]:
    """Newton shooting for the smooth system's symmetric orbit.

    Unknowns are the n-1 on-plane coordinates of the start point and the
    half-period; the residual demands z(tau) = -z(0) (odd symmetry of the
    field makes the full period the double).
    """
    rhs = sfs_field(ss, gamma)
    n = ss.n

    def half(zfree, tau):
        z_init = np.append(zfree, 0.0)
        sol = numerics.integrate_adaptive(rhs, z_init, (0.0, tau),
                                          rel_tol, abs_tol, dense_output=False)
        return sol.y[:, -1] + z_init

    zfree = np.asarray(z0, dtype=float)[:-1].copy()
    tau = float(tau0)
    r = half(zfree, tau)
    for _ in range(max_newton):
        if np.linalg.norm(r) < 1e-11:
            return np.append(zfree, 0.0), tau
        J = np.empty((n, n))
        d = 1e-7
        for j in range(n - 1):
            zp = zfree.copy()
            zp[j] += d
            J[:, j] = (half(zp, tau) - r) / d
        J[:, n - 1] = (half(zfree, tau + d) - r) / d
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise ShootingError("singular shooting jacobian") from exc
        alpha = 1.0
        while alpha >= 2.0 ** -12:
            z_try = zfree + alpha * step[: n - 1]
            tau_try = tau + alpha * step[n - 1]
            if tau_try > 0:
                r_try = half(z_try, tau_try)
                if np.linalg.norm(r_try) < np.linalg.norm(r):
                    zfree, tau, r = z_try, tau_try, r_try
                    break
            alpha *= 0.5
        else:
            raise ShootingError(
                f"shooting stalled at residual {np.linalg.norm(r):.3e}")
    raise ShootingError("shooting did not converge within the iteration budget")


def monodromy_floquet(ss: StateSpace, gamma: float, orbit_hint: OrbitCandidate,
                      *, rel_tol: float = 1e-11, abs_tol: float = 1e-13,
                      continuation_start: float = 100.0) -> MonodromyReport:
    """Monodromy of the smooth (tanh) loop's orbit at a finite gain.

    Locates the smooth system's symmetric periodic orbit by Newton shooting
    (continuing upward in gain by decade steps from ``continuation_start``,
    reusing each converged orbit as the next hint), then integrates the
    time-varying linearization over one period together with the trace
    integral, so the report carries both the matrix determinant and its
    Liouville value.

    Raises
    ------
    ShootingError / StiffnessError
        Shooting divergence, or integration beyond the stiffness budget
        (reduce the gain or loosen tolerances).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = ss.n
    z = orbit_hint.anchor.copy()
    tau = orbit_hint.half_period

    gammas: list[float] = []
    gcur = min(continuation_start, gamma)
    while gcur < gamma:
        gammas.append(gcur)
        gcur *= 10.0
    gammas.append(gamma)
    for g in gammas:
        z, tau = _shoot_half_period(ss, g, z, tau, rel_tol, abs_tol)

    A, B, C = ss.A, ss.B, ss.C
    T = 2.0 * tau

    def aug_rhs(t, w):
        zz = w[:n]
        Phi = w[n:n + n * n].reshape(n, n)
        y = float(C @ zz)
        arg = gamma * y
        c = gamma / math.cosh(arg) ** 2 if abs(arg) < 350.0 else 0.0
        M = A - c * np.outer(B, C)
        dz = A @ zz - B * math.tanh(arg)
        return np.concatenate([dz, (M @ Phi).ravel(), [c]])

    w0 = np.concatenate([z, np.eye(n).ravel(), [0.0]])
    sol = numerics.integrate_adaptive(aug_rhs, w0, (0.0, T), rel_tol, abs_tol,
                                      dense_output=False)
    w_end = sol.y[:, -1]
    Phi = w_end[n:n + n * n].reshape(n, n)
    trace_integral = float(w_end[-1])

    mults = np.linalg.eigvals(Phi)
    det = float(np.linalg.det(Phi))
    a_tail = float(-A[-1, -1])
    b_tail = float(B[-1])
    liouville_det = math.exp(-a_tail * T - b_tail * trace_integral)
    return MonodromyReport(
        matrix=Phi,
        floquet_multipliers=tuple(mults),
        det=det,
        det_limit_formula=liouville_det,
        trivial_multiplier_error=float(np.min(np.abs(mults - 1.0))),
        period=T,
        extras={
            "gamma": gamma,
            "anchor": z,
            "half_period": tau,
            "trace_integral": trace_integral,
            "orbit_closure_residual": float(np.linalg.norm(sol.y[:n, -1] - z)),
        },
    )
