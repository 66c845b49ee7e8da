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
the switch-jump (saltation) factor at each crossing, or, for the smooth
tanh loop at a finite gain, squared from its half-period variational matrix.

Note on the jump factor: the boundary-layer integral of the smooth system's
linearization coefficient across one switch is

    mu = ln(|rho_after| / |rho_before|) / (-C B)    (C B != 0)
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
from .relay_dynamics import EXITED, GRAZE_TOL, system_for

#: Output-sign condition tolerance, relative to the orbit's peak output: tiny
#: negative slack absorbs roundoff at the endpoints where the output is
#: exactly zero, and the verdict does not change with the plant's gain.
SIGN_CONDITION_SLACK = -1e-9

#: |g| within this multiple of |X| at every scanned tau is g = 0 to
#: roundoff, a continuum of orbits: on 1/s^2 the ratio stays below 1.4e-13
#: for tau up to 1000, and seeded random stable plants of order 10 to 20
#: reach 6e-11 or more somewhere in their default scan.
DEGENERATE_TOL = 4096 * np.finfo(float).eps

#: Edge of the smooth loop's tanh layer in the argument gamma C z: the
#: smallest round value with math.tanh(LAYER_EDGE) == 1.0 (19 gives
#: 1 - 1.1e-16), so outside the layer the field is the relay's affine field
#: to roundoff.
LAYER_EDGE = 20.0

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


def find_symmetric_orbit(ss: StateSpace, tau_range: tuple[float, float] | None = None,
                         *, return_all: bool = False):
    """Locate symmetric unimodal orbit candidates by scanning g(tau).

    Scans a 400-point log-spaced grid over ``tau_range`` for sign changes of
    g, refines each root by ``scipy.optimize.brentq`` (``xtol=1e-13``), takes
    the anchor from the same solve as g, and checks the output-sign
    condition on 10,000 points of the half period.  The relay flow's
    exponential keeps F's error relative as tau -> 0, where g is O(tau^r) at
    relative degree r: no roundoff roots.  The returned orbit is the valid
    candidate with the smallest half-period; ``return_all=True`` instead
    yields every root as a candidate with its validity flag.  The default
    ``tau_range`` spans 1e-4 / sigma to 100 / sigma, sigma the slowest decay
    rate of the poles off the origin.

    Raises
    ------
    ValueError
        Default ``tau_range`` on a plant with no pole off the origin or with
        a pole off the origin that is not stable.
    NoOrbitError
        No root of g, no root passing the sign condition, or g overflowing
        in the scanned range (an unstable plant).
    DegenerateOrbitError
        g zero to roundoff at every scanned tau (``DEGENERATE_TOL``), as
        on the double integrator, whose symmetric orbits form a continuum.
    """
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

    roots: list[float] = []
    for i in range(len(taus) - 1):
        if vals[i] == 0.0:
            roots.append(float(taus[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(g, float(taus[i]), float(taus[i + 1]), xtol=1e-13))
    if vals[-1] == 0.0:
        roots.append(float(taus[-1]))
    if not roots:
        raise NoOrbitError("no symmetric unimodal candidate: g(tau) has no "
                           "root in the scanned range")

    candidates = []
    system = system_for(ss)
    for tau in roots:
        anchor = X(tau)
        anchor[-1] = 0.0  # C anchor = g(tau) = 0 at the root
        # output along the positive half on an evenly spaced grid
        ys = system.grid(anchor, +1, tau / 9999, 10_000) @ ss.C
        peak = float(np.max(np.abs(ys)))
        valid = bool(np.min(ys) >= SIGN_CONDITION_SLACK * peak)
        # one-sided output speeds at t = tau, at -anchor with incoming sign
        # +1; the switch at t = 2 tau, at +anchor, has their negation
        before, after = (float(system.output_speed(-anchor, s)) for s in (+1, -1))
        candidates.append(OrbitCandidate(
            half_period=float(tau), anchor=anchor,
            is_symmetric_unimodal=valid, period=2.0 * float(tau),
            peak_output=peak, output_speeds=((before, after), (-before, -after))))

    if return_all:
        return candidates
    valid = [c for c in candidates if c.is_symmetric_unimodal]
    if not valid:
        raise NoOrbitError("g(tau) has roots but none passes the output-sign "
                           "condition (no symmetric unimodal orbit)")
    return min(valid, key=lambda c: c.half_period)


def _switch_jump_integral(rho_before: float, rho_after: float, b_tail: float) -> float:
    """Boundary-layer integral of the linearization coefficient at a switch,
    so that e^{-C B mu} = rho_after / rho_before."""
    if abs(rho_before) <= GRAZE_TOL or abs(rho_after) <= GRAZE_TOL:
        raise DegenerateOrbitError("output speed degenerate at switch")
    if b_tail != 0.0:
        return math.log(abs(rho_after) / abs(rho_before)) / -b_tail
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


def _report(ss: StateSpace, Phi: np.ndarray, T: float, jump_total: float,
            extras: dict) -> MonodromyReport:
    """Floquet data of the monodromy ``Phi`` over the period ``T``, with the
    determinant limit exp(-a_{n-1} T - C B * jump_total), ``jump_total`` the
    sum of the jump integrals (the trace integral for the smooth loop)."""
    mults = np.linalg.eigvals(Phi)
    a_tail = float(-ss.A[-1, -1])  # a_{n-1} from the companion structure
    b_tail = float(ss.B[-1])
    return MonodromyReport(
        matrix=Phi,
        floquet_multipliers=tuple(mults.astype(complex).tolist()),
        det=float(np.linalg.det(Phi)),
        det_limit_formula=math.exp(-a_tail * T - b_tail * jump_total),
        trivial_multiplier_error=float(np.min(np.abs(mults - 1.0))),
        period=T,
        extras=extras,
    )


def monodromy_exact(ss: StateSpace, orbit: OrbitCandidate) -> MonodromyReport:
    """Monodromy of the relay orbit from its closed-form ingredients.

    The half-period map is the flow e^{A tau*} (the leading block of the
    exponential the anchor came from) followed by the switch-jump factor
    built from the one-sided output speeds; the second switch's speeds are
    the negation of the first's, so the monodromy is that map squared.  The
    determinant is cross-checked against the closed-form limit
    exp(-a_{n-1} T - C B * sum of jump integrals), which the construction
    satisfies as an algebraic identity.
    """
    mu = _switch_jump_integral(*orbit.output_speeds[0], float(ss.B[-1]))
    half = _jump_factor(ss, mu) @ system_for(ss).exp(orbit.half_period)[:ss.n, :ss.n]
    return _report(ss, half @ half, orbit.period, 2.0 * mu, {"jump_integrals": [mu, mu]})


def _shoot_half_period(ss: StateSpace, gamma: float, z0: np.ndarray, tau0: float):
    """Newton shooting for the smooth system's symmetric orbit.

    Unknowns are the n-1 on-plane coordinates of the start point and the
    half-period; the residual demands z(tau) = -z(0) (odd symmetry of the
    field makes the full period the double).  Each residual carries the
    variational equations along, so the Newton jacobian is exact:
    [Phi[:, :n-1] + I[:, :n-1], f(z(tau))].  A half period alternates two
    kinds of segment, starting in the tanh layer |gamma C z| < LAYER_EDGE:

    - in the layer, DOP853 on [z; Phi; integral of c] (tolerances 1e-11
      relative, 1e-13 absolute) up to a terminal event at the layer's edge;
    - outside it, where tanh is +-1 to roundoff, the relay's affine flow
      from the exit kernel, z and Phi <- e^{A dt} Phi from
      ``RelaySystem.exp(dt)``, dt the time back to the edge (``exit_events``
      at ``level`` = LAYER_EDGE / gamma) or to tau; c and the trace integral
      gain below 2 e^{-2 LAYER_EDGE} / |y'| per edge there.

    The kind alternates by segment and is never re-tested from |gamma C z|,
    which the event leaves at the edge to roundoff on either side.  An
    orbit that never leaves the layer takes one integration, as it did
    before the split; the work of a crossing does not grow with gamma.  The
    residual counts as converged, within 40 steps, below 1e-11 max(1,
    |z(0)|), so the test stays above roundoff for large orbits.  Returns
    the start point, the half-period, Phi and the trace integral over the
    half period, and the residual norm.
    """
    A, B, C = ss.A, ss.B, ss.C
    BC = np.outer(B, C)
    n = ss.n
    I = np.eye(n)
    system = system_for(ss)
    edge = LAYER_EDGE / gamma

    def rhs(t, w):  # [z; Phi; integral of c], Df = A - c B C
        arg = gamma * float(C @ w[:n])
        c = gamma / math.cosh(arg) ** 2 if abs(arg) < 350.0 else 0.0
        dPhi = (A - c * BC) @ w[n:-1].reshape(n, n)
        return np.concatenate([A @ w[:n] - B * math.tanh(arg), dPhi.ravel(), [c]])

    def leave(t, w):  # zero on the layer's edges, rising on the way out
        return abs(gamma * float(C @ w[:n])) - LAYER_EDGE

    leave.terminal, leave.direction = True, 1.0

    def half(zfree, tau):
        z_init = np.append(zfree, 0.0)
        w = np.concatenate([z_init, I.ravel(), [0.0]])
        t, inside = 0.0, True
        while t < tau:
            if inside:
                sol = numerics.integrate_adaptive(rhs, w, (t, tau), 1e-11, 1e-13,
                                                  dense_output=False, events=leave)
                t, w = float(sol.t[-1]), sol.y[:, -1]
            else:
                s = 1 if C @ w[:n] > 0.0 else -1
                exits = system.exit_events(w[:n], s, level=edge)
                dt = tau - t
                if exits.status[0] == EXITED and exits.tau[0] < dt:
                    dt = float(exits.tau[0])
                    t += dt
                else:
                    t = tau
                E = system.exp(dt)
                w = np.concatenate([s * (E[:n] @ system.lift(w[:n], s)),
                                    (E[:n, :n] @ w[n:-1].reshape(n, n)).ravel(), w[-1:]])
            inside = not inside
        return w[:n] + z_init, w

    zfree = np.asarray(z0, dtype=float)[:-1].copy()
    tau = float(tau0)
    r, w = half(zfree, tau)
    for _ in range(40):
        J = np.column_stack([w[n:-1].reshape(n, n)[:, :n - 1] + I[:, :n - 1], rhs(tau, w)[:n]])
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise ShootingError("singular shooting jacobian") from exc
        # once converged, one full step more is kept if it lowers the residual
        # (amplified by gamma in the trivial multiplier)
        converged = np.linalg.norm(r) < 1e-11 * max(1.0, float(np.linalg.norm(zfree)))
        alpha = 1.0
        while alpha >= 2.0 ** -12:
            z_try = zfree + alpha * step[: n - 1]
            tau_try = tau + alpha * step[n - 1]
            if tau_try > 0:
                r_try, w_try = half(z_try, tau_try)
                if np.linalg.norm(r_try) < np.linalg.norm(r):
                    zfree, tau, r, w = z_try, tau_try, r_try, w_try
                    break
            if converged:
                break
            alpha *= 0.5
        else:
            raise ShootingError(
                f"shooting stalled at residual {np.linalg.norm(r):.3e}")
        if converged:
            return (np.append(zfree, 0.0), tau, w[n:-1].reshape(n, n), float(w[-1]),
                    float(np.linalg.norm(r)))
    raise ShootingError("shooting did not converge within the iteration budget")


def monodromy_floquet(ss: StateSpace, gamma: float,
                      orbit_hint: OrbitCandidate) -> MonodromyReport:
    """Monodromy of the smooth (tanh) loop's orbit at a finite gain.

    Locates the smooth system's symmetric periodic orbit by one Newton
    shooting solve on the variational equations (Seydel 2010) at ``gamma``,
    started from the relay orbit ``orbit_hint``, the gamma -> infinity limit
    of the smooth orbit.  Each half period integrates only the tanh layer
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
        Shooting divergence, integration beyond the stiffness budget, or a
        trivial multiplier off by more than TRIVIAL_MULTIPLIER_TOL (the
        paper's plant from gamma = 1e10, where the converged residual,
        amplified by about gamma |B| / |f| through the field's slope at the
        start in the middle of the layer, reaches 3e-4): the gain is too
        large for the integrator, and ``monodromy_exact`` is the limit.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    z, tau, Phi_h, trace_h, residual = _shoot_half_period(
        ss, gamma, orbit_hint.anchor, orbit_hint.half_period)
    trace_integral = 2.0 * trace_h
    report = _report(ss, Phi_h @ Phi_h, 2.0 * tau, trace_integral, {
        "gamma": gamma, "anchor": z, "half_period": tau,
        "trace_integral": trace_integral, "half_period_residual": residual})
    if report.trivial_multiplier_error > TRIVIAL_MULTIPLIER_TOL:
        raise ShootingError(
            f"gain {gamma:g} too large for the integrator: trivial multiplier "
            f"error {report.trivial_multiplier_error:.3g} exceeds "
            f"{TRIVIAL_MULTIPLIER_TOL:g}; the relay monodromy is the limit")
    return report
