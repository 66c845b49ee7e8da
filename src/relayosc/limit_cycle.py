"""Symmetric unimodal orbits of the relay loop and their linear stability.

A symmetric unimodal orbit is determined by a half-period tau* > 0 of the
positive-sign flow.  With [E F] the top n rows of e^{M tau}, M = [[A, -B],
[0, 0]] (the augmented matrix of the relay kernel, whose ``exp`` makes
every exponential here), the state after tau from x is E x + F, so the
symmetry x(tau) = -x reads (E + I) x = -F.  Its solution X(tau) is the
candidate, and the half-periods are the positive roots of

    g(tau) = C X(tau) ;

the on-plane anchor state is X(tau*).  No formula needs A^{-1}, so plants
with a pole at the origin are covered.  The candidate is valid when the
output stays nonnegative over the half period.  Stability is quantified by
the monodromy matrix of the orbit, composed from the half-period flow and
the saltation matrix at each crossing, or, for the smooth tanh loop at a
finite gain, squared from its half-period variational matrix.

The saltation matrix of a switch whose output speed jumps from rho_before
to rho_after is

    S = I + (2 / rho_before) B C ,    det S = rho_after / rho_before ,

for every sign of C B, zero included (Leine & Nijmeijer 2004; Astrom 1995).
It maps the field before the switch onto the field after it, so the
monodromy carries the trivial multiplier 1 by construction and its nonzero
spectrum matches the chained return-map jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sfs
from .errors import DegenerateOrbitError, NoOrbitError, ShootingError
from .plant import StateSpace
from .relay_dynamics import GRAZE_TOL, system_for

#: Output-sign condition tolerance, relative to the orbit's peak output: tiny
#: negative slack absorbs roundoff at the endpoints where the output is
#: exactly zero, and the verdict does not change with the plant's gain.
SIGN_CONDITION_SLACK = -1e-9

#: |g| within this multiple of |X| at every scanned tau is g = 0 to
#: roundoff, a continuum of orbits: on 1/s^2 the ratio stays below 1.4e-13
#: for tau up to 1000, and seeded random stable plants of order 10 to 20
#: reach 6e-11 or more somewhere in their default scan.
DEGENERATE_TOL = 4096 * np.finfo(float).eps

#: Trivial-multiplier error above which ``monodromy_floquet`` refuses its
#: result, the multiplier 1 being known exactly.
TRIVIAL_MULTIPLIER_TOL = 1e-6


@dataclass(frozen=True)
class OrbitCandidate:
    """A symmetric unimodal orbit candidate.

    ``output_speeds`` holds one (before, after) pair of one-sided output
    derivatives per switch (two switches per period), from the relay
    layer's ``output_speed``; by symmetry the second pair is the negation
    of the first.
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
    """g(tau), whose positive roots are symmetric-orbit half-periods, and the
    candidate X(tau) it is the output of; both take a scalar tau, or an
    array of tau for one value or row per entry (equal to the scalar calls
    bit for bit), from ``RelaySystem.exp``."""
    system = system_for(ss)
    n = ss.n
    I = np.eye(n)

    def X(tau):
        EF = system.exp(tau)[..., :n, :]
        return np.linalg.solve(EF[..., :n] + I, -EF[..., n:])[..., 0]

    def g(tau):
        y = X(tau) @ ss.C
        return float(y) if np.ndim(y) == 0 else y

    return g, X


def _candidates(ss: StateSpace, tau_range: tuple[float, float] | None):
    """One ``OrbitCandidate`` per root of g in the scan, in ascending tau,
    each refined and checked when reached (see ``find_symmetric_orbit``)."""
    from scipy.optimize import brentq

    if tau_range is None:
        lam = np.linalg.eigvals(ss.A)
        lam = lam[np.abs(lam) >= 1e-12 * max(1.0, np.abs(lam).max())]
        if lam.size == 0 or lam.real.max() >= 0:
            raise ValueError("default tau_range requires a pole off the origin "
                             "and every pole off the origin stable")
        sigma = -lam.real.max()
        lo = 1e-4 / sigma
        hi = 100.0 / sigma
    else:
        lo, hi = tau_range
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > max(lo, 0.0)):
            raise ValueError(f"tau_range must be finite with tau_max > max(tau_min, 0), "
                             f"got {tau_range!r}")
        step = system_for(ss).step
        if not hi / step < 2.0**53:
            raise ValueError(f"tau_range must end below 2^53 march steps of {step:g}, "
                             f"got {tau_range!r}")
        if lo <= 0:
            lo = 1e-12 + hi * 1e-10
    g, X = _orbit_function(ss)
    taus = np.geomspace(lo, hi, 400)
    try:
        Xs = X(taus)
    except OverflowError as exc:
        raise NoOrbitError(f"g(tau) overflows in the scanned range: {exc}") from exc
    vals = Xs @ ss.C
    if np.all(np.abs(vals) <= DEGENERATE_TOL * np.linalg.norm(Xs, axis=1)):
        raise DegenerateOrbitError("g(tau) is zero to roundoff over the scanned range: "
                                   "the symmetric orbits form a continuum")

    system = system_for(ss)
    zero = vals == 0.0
    change = np.append(vals[:-1] * vals[1:] < 0.0, False)
    for i in np.flatnonzero(zero | change):
        tau = float(taus[i]) if zero[i] else brentq(
            g, float(taus[i]), float(taus[i + 1]), xtol=1e-13)
        anchor = X(tau)
        anchor[-1] = 0.0  # C anchor = g(tau) = 0 at the root
        # output along the positive half on an evenly spaced grid
        ys = system.grid(anchor, +1, tau / 9999, 10_000) @ ss.C
        peak = float(np.max(np.abs(ys)))
        # one-sided output speeds at t = tau, at -anchor with incoming sign
        # +1; the switch at t = 2 tau, at +anchor, has their negation
        before, after = (float(system.output_speed(-anchor, s)) for s in (+1, -1))
        yield OrbitCandidate(
            half_period=float(tau), anchor=anchor,
            is_symmetric_unimodal=bool(np.min(ys) >= SIGN_CONDITION_SLACK * peak),
            period=2.0 * float(tau), peak_output=peak,
            output_speeds=((before, after), (-before, -after)))


def find_symmetric_orbit(ss: StateSpace, tau_range: tuple[float, float] | None = None):
    """The symmetric unimodal orbit of smallest half-period, from a scan of g.

    Walks the sign changes of g on a 400-point log-spaced grid over
    ``tau_range`` in ascending tau, refines each root it reaches by
    ``scipy.optimize.brentq`` (``xtol=1e-13``), takes the anchor from the
    same solve as g, and checks the output-sign condition on 10,000 points
    of the half period; the first root that passes is returned, and no
    later root is refined.  The relay flow's exponential keeps F's error
    relative as tau -> 0, where g is O(tau^r) at relative degree r: no
    roundoff roots.  The default ``tau_range`` spans 1e-4 / sigma to
    100 / sigma, sigma the slowest decay rate of the poles off the origin;
    a ``tau_min <= 0`` starts the scan at 1e-12 + 1e-10 tau_max.

    Raises
    ------
    ValueError
        A ``tau_range`` bound that is not finite, ``tau_max`` not above
        max(tau_min, 0), or ``tau_max`` at or past 2^53 march steps of the
        plant's ``RelaySystem`` (the longest time its ``exp`` takes);
        default ``tau_range`` on a plant with no pole off the origin or
        with a pole off the origin that is not stable.
    NoOrbitError
        No root of g, no root passing the sign condition, or g overflowing
        in the scanned range (an unstable plant).
    DegenerateOrbitError
        g zero to roundoff at every scanned tau (``DEGENERATE_TOL``), as
        on the double integrator, whose symmetric orbits form a continuum.
    """
    candidate = None
    for candidate in _candidates(ss, tau_range):
        if candidate.is_symmetric_unimodal:
            return candidate
    if candidate is None:
        raise NoOrbitError("no symmetric unimodal candidate: g(tau) has no "
                           "root in the scanned range")
    raise NoOrbitError("g(tau) has roots but none passes the output-sign "
                       "condition (no symmetric unimodal orbit)")


def _report(Phi: np.ndarray, T: float, det_limit: float, extras: dict) -> MonodromyReport:
    """Floquet data of the monodromy ``Phi`` over the period ``T``, with the
    closed-form determinant ``det_limit`` of its caller."""
    mults = np.linalg.eigvals(Phi)
    return MonodromyReport(
        matrix=Phi,
        floquet_multipliers=tuple(mults.astype(complex).tolist()),
        det=float(np.linalg.det(Phi)),
        det_limit_formula=det_limit,
        trivial_multiplier_error=float(np.min(np.abs(mults - 1.0))),
        period=T,
        extras=extras,
    )


def monodromy_exact(ss: StateSpace, orbit: OrbitCandidate) -> MonodromyReport:
    """Monodromy of the relay orbit from its closed-form ingredients.

    The half-period map is the flow e^{A tau*} (the leading block of the
    exponential the anchor came from) followed by the saltation matrix
    I + (2 / rho_before) B C of the switch; the second switch's speeds are
    the negation of the first's, so the monodromy is that map squared.  The
    determinant is cross-checked against the closed form
    e^{-a_{n-1} T} (rho_after / rho_before)^2, which the construction
    satisfies as an algebraic identity.

    Raises
    ------
    DegenerateOrbitError
        A one-sided output speed at the switch at or below ``GRAZE_TOL`` in
        magnitude.
    """
    rho_before, rho_after = orbit.output_speeds[0]
    if abs(rho_before) <= GRAZE_TOL or abs(rho_after) <= GRAZE_TOL:
        raise DegenerateOrbitError("output speed degenerate at switch")
    jump = np.eye(ss.n) + np.outer(ss.B, ss.C) * (2.0 / rho_before)
    half = jump @ system_for(ss).exp(orbit.half_period)[:ss.n, :ss.n]
    trace_A = float(ss.A[-1, -1])  # -a_{n-1}, from the companion structure
    return _report(half @ half, orbit.period,
                   math.exp(trace_A * orbit.period) * (rho_after / rho_before) ** 2, {})


def _shoot_half_period(ss: StateSpace, gamma: float, z0: np.ndarray, tau0: float):
    """Newton shooting for the smooth system's symmetric orbit.

    Unknowns are the n-1 on-plane coordinates of the start point and the
    half-period; the residual demands z(tau) = -z(0) (odd symmetry of the
    field makes the full period the double).  Each residual carries the
    variational equations along, so the Newton jacobian is exact:
    [Phi[:, :n-1] + I[:, :n-1], f(z(tau))].  A half period runs on the
    smooth loop's layer split (``sfs._layer_flow``), from the start on
    C z = 0 in the tanh layer: DOP853 on [z; Phi by columns; integral of c]
    (tolerances 1e-11 relative, 1e-13 absolute) inside |gamma C z| <
    ``sfs.LAYER_EDGE``, the exact affine flow z, Phi <- e^{A dt} Phi outside
    it, where c and the trace integral gain below 2 e^{-2 LAYER_EDGE} / |y'|
    per edge.  With W = [z; Phi^T] the variational right-hand side is one
    product, W A^T - [tanh; c Phi^T C^T] B^T.

    An orbit that never leaves the layer takes one integration; the work of
    a crossing does not grow with gamma.  The residual counts as converged,
    within 40 steps, below 1e-11 max(1, |z(0)|), so the test stays above
    roundoff for large orbits; one full step more is then kept if it lowers
    the residual, unless a step has already left the residual at roundoff,
    8 eps max(1, |z(0)|).  At least one step is always taken, so a start
    already at roundoff (the layer-corrected start at large gamma) is still
    refined.  Returns the start point, the half-period, Phi and the trace
    integral over the half period, and the residual norm.
    """
    A, B, C = ss.A, ss.B, ss.C
    AT = A.T
    n = ss.n
    I = np.eye(n)
    field = sfs.sfs_field(ss, gamma)

    def rhs(t, w):  # W = [z; Phi^T], then the integral of c; Df = A - c B C
        W = w[:-1].reshape(n + 1, n)
        u = W @ C                                   # [C z; Phi^T C^T]
        arg = gamma * float(u[0])
        c = gamma / math.cosh(arg) ** 2 if abs(arg) < 350.0 else 0.0
        u *= c
        u[0] = math.tanh(arg)
        out = np.empty(len(w))
        np.subtract(W @ AT, u[:, None] * B, out=out[:-1].reshape(n + 1, n))
        out[-1] = c
        return out

    def half(zfree, tau):
        z_init = np.append(zfree, 0.0)
        w = np.concatenate([z_init, I.ravel(), [0.0]])
        w = sfs._layer_flow(ss, gamma, rhs, w, tau, 1e-11, 1e-13, tangents=n).y[:, -1]
        return w[:n] + z_init, w

    zfree = np.asarray(z0, dtype=float)[:-1].copy()
    tau = float(tau0)
    r, w = half(zfree, tau)
    for k in range(40):
        norm_r = np.linalg.norm(r)
        scale = max(1.0, float(np.linalg.norm(zfree)))
        if k and norm_r <= 8 * np.finfo(float).eps * scale:
            break  # at roundoff after a step: no step can lower the residual
        Phi = w[n:-1].reshape(n, n).T
        J = np.column_stack([Phi[:, :n - 1] + I[:, :n - 1], field(tau, w[:n])])
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise ShootingError("singular shooting jacobian") from exc
        # once converged, one full step more is kept if it lowers the residual
        # (amplified by gamma in the trivial multiplier)
        converged = norm_r < 1e-11 * scale
        alpha = 1.0
        while alpha >= 2.0 ** -12:
            z_try = zfree + alpha * step[: n - 1]
            tau_try = tau + alpha * step[n - 1]
            if tau_try > 0:
                r_try, w_try = half(z_try, tau_try)
                if np.linalg.norm(r_try) < norm_r:
                    zfree, tau, r, w = z_try, tau_try, r_try, w_try
                    break
            if converged:
                break
            alpha *= 0.5
        else:
            raise ShootingError(f"shooting stalled at residual {norm_r:.3e}")
        if converged:
            break
    else:
        raise ShootingError("shooting did not converge within the iteration budget")
    return (np.append(zfree, 0.0), tau, w[n:-1].reshape(n, n).T, float(w[-1]),
            float(np.linalg.norm(r)))


def _layer_corrected_start(ss: StateSpace, gamma: float, orbit: OrbitCandidate):
    """The smooth orbit's start and half period to first order in 1 / gamma,
    from the relay orbit (x*, tau*).

    Outside the tanh layer the smooth orbit follows the relay flow
    (Fenichel 1979); through the layer, with the incoming and outgoing
    output speeds sigma_b = -rho_before and sigma_a = -rho_after, it leaves
    the outer solution shifted along B by J_a = ln((sigma_a + sigma_b) /
    sigma_a) / (gamma sigma_b) on the +1 side and J_b = ln((sigma_a +
    sigma_b) / sigma_b) / (gamma sigma_a) on the -1 side.  Odd symmetry
    then asks e^{A tau} (p + B J_a) + F(tau) = -(p + B J_b), linearized at
    (x*, tau*) as

        [(I + E)[:, :n-1], -(A x* + B)] (dz_free, dtau) = -B J_b - E B J_a ,

    E = e^{A tau*}; at C B = 0 it gives dz = -B ln 2 / (gamma sigma) and
    dtau = 0.  A switch speed at or below GRAZE_TOL, a singular or
    non-finite solve, or a half period that is not positive leaves the
    relay orbit as the start.
    """
    x, tau = orbit.anchor, orbit.half_period
    rho_before, rho_after = orbit.output_speeds[0]
    sigma_b, sigma_a = -rho_before, -rho_after
    if min(sigma_b, sigma_a) <= GRAZE_TOL:
        return x, tau
    n, B = ss.n, ss.B
    J_a = math.log((sigma_a + sigma_b) / sigma_a) / (gamma * sigma_b)
    J_b = math.log((sigma_a + sigma_b) / sigma_b) / (gamma * sigma_a)
    E = system_for(ss).exp(tau)[:n, :n]
    M = np.column_stack([(np.eye(n) + E)[:, :n - 1], -(ss.A @ x + B)])
    try:
        d = np.linalg.solve(M, -B * J_b - E @ B * J_a)
    except np.linalg.LinAlgError:
        return x, tau
    if not (np.all(np.isfinite(d)) and tau + d[-1] > 0.0):
        return x, tau
    return x + np.append(d[:-1], 0.0), tau + float(d[-1])


def monodromy_floquet(ss: StateSpace, gamma: float,
                      orbit_hint: OrbitCandidate) -> MonodromyReport:
    """Monodromy of the smooth (tanh) loop's orbit at a finite gain.

    Locates the smooth system's symmetric periodic orbit by one Newton
    shooting solve on the variational equations (Seydel 2010) at ``gamma``,
    started from the relay orbit ``orbit_hint``, the gamma -> infinity limit
    of the smooth orbit, shifted by its first-order layer correction in
    1 / gamma (``_layer_corrected_start``): the start is then O(1 / gamma^2)
    off, so Newton converges quadratically from its first step (on the
    third-order example at gamma = 1e3 and 1e4, three half-period
    evaluations against four from the relay orbit itself).  Each half
    period integrates only the tanh layer
    and takes the exact affine flow outside it (``_shoot_half_period``), so
    its cost does not grow with the gain.  The field is odd, so its
    linearization along the orbit repeats every half period: the monodromy
    is Phi_h @ Phi_h and the trace integral twice its half-period value.
    The report carries the matrix determinant and its Liouville value, and
    ``extras["half_period_residual"]`` the converged norm of z(tau) + z(0).
    The multiplier 1 is known exactly: a result whose
    ``trivial_multiplier_error`` exceeds TRIVIAL_MULTIPLIER_TOL is refused.

    Raises
    ------
    ValueError
        ``gamma`` not in (0, inf).
    ShootingError / StiffnessError
        Shooting divergence, convergence to the equilibrium (|z| <= 1e-8
        |x*|), integration beyond the stiffness budget, or a trivial
        multiplier off by more than TRIVIAL_MULTIPLIER_TOL (the paper's
        plant from gamma = 1e10, where the converged residual, amplified by
        about gamma |B| / |f| through the field's slope at the start in the
        middle of the layer, reaches 3e-4): the gain is too large for the
        integrator, and ``monodromy_exact`` is the limit.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    z, tau, Phi_h, trace_h, residual = _shoot_half_period(
        ss, gamma, *_layer_corrected_start(ss, gamma, orbit_hint))
    if np.linalg.norm(z) <= 1e-8 * np.linalg.norm(orbit_hint.anchor):
        raise ShootingError(f"shooting at gain {gamma:g} converged to the equilibrium z = 0, "
                            "which solves z(tau) = -z(0) for every tau")
    T, trace_integral = 2.0 * tau, 2.0 * trace_h
    # Liouville: the trace of A - c B C is A[-1, -1] - c C B in companion form
    liouville = math.exp(float(ss.A[-1, -1]) * T - float(ss.B[-1]) * trace_integral)
    report = _report(Phi_h @ Phi_h, T, liouville, {
        "gamma": gamma, "anchor": z, "half_period": tau,
        "trace_integral": trace_integral, "half_period_residual": residual})
    if report.trivial_multiplier_error > TRIVIAL_MULTIPLIER_TOL:
        raise ShootingError(
            f"gain {gamma:g} too large for the integrator: trivial multiplier "
            f"error {report.trivial_multiplier_error:.3g} exceeds "
            f"{TRIVIAL_MULTIPLIER_TOL:g}; the relay monodromy is the limit")
    return report
