"""Smooth tanh approximation of the relay loop and its bifurcations.

Replacing sign(y) with tanh(gamma y) turns the discontinuous loop into the
smooth family  z' = A z - B tanh(gamma C z)  with the gain gamma as the
bifurcation parameter.  The origin is an equilibrium for every gamma; its
linearization A - gamma B C is again a companion matrix, with closed-loop
characteristic polynomial  den(s) + gamma num(s).  This module computes the
imaginary-axis crossings of its roots exactly (Sturm sequences of integer
polynomials from the float coefficients, which are dyadic rationals,
signed at dyadic points m / 2^k held as integer pairs), scans the
eigenvalue root locus over gamma, its tracks paired between neighbouring
gains in one nearest-neighbour pass, decides the criticality of the first
Hopf point from the linearization there, evaluates the second-harmonic
describing-function locus at a crossing, and proves hyperbolicity of the
whole family by zero exclusion when no crossing exists.

Outside the layer |gamma C z| < LAYER_EDGE, tanh is +-1 to roundoff and the
smooth loop's flow is the relay's affine flow (Fenichel 1979).  One loop,
``_layer_flow``, integrates only the layer adaptively, with the DOP853 loop
of ``numerics.integrate_adaptive``, takes that exact flow elsewhere and
returns one ``numerics.Run`` over the span; ``simulate_sfs`` and the
Floquet shooting of ``limit_cycle`` both run on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import numerics
from .errors import RelayOscError
from .plant import (StateSpace, TransferFunction, _combine, _count, _derivative, _mul,
                    _root_bound, _sign, _sturm, _unstable_count, _value, _variations)
from .relay_dynamics import EXITED, system_for

#: Edge of the smooth loop's tanh layer in the argument gamma C z: the
#: smallest round value with math.tanh(LAYER_EDGE) == 1.0 (19 gives
#: 1 - 1.1e-16), so outside the layer the field is the relay's affine field
#: to roundoff.
LAYER_EDGE = 20.0

#: Smallest gain of ``root_locus``'s grid and of the crossings it reports.
GAMMA_MIN = 1e-2


@dataclass(frozen=True)
class SfsConfig:
    """Gain and integrator tolerances for the smooth loop."""

    gamma: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class Crossing:
    """One imaginary-axis crossing of the closed-loop eigenvalues."""

    gamma0: float
    omega0: float
    direction: int           # +1 into the RHP as gamma grows, -1 out, 0 a touch
    multiplicity_parity: int  # 1: a sign change, an odd number of branches
    kind: str                 # "hopf" or "real"


@dataclass(frozen=True)
class RootLocusScan:
    gamma_grid: np.ndarray
    eigen_tracks: np.ndarray  # shape (len(grid), n), nearest-neighbor-paired
    crossings: tuple[Crossing, ...]


@dataclass(frozen=True)
class HopfReport:
    gamma0: float
    omega0: float
    kind: str  # "supercritical" (l1 < 0) | "subcritical" (l1 > 0)
    pitchfork_gammas: tuple[float, ...]
    l1: float  # first Lyapunov coefficient at (gamma0, omega0)
    unstable_count: int | None  # open-RHP roots at gamma0 besides +-j omega0
    evidence: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DescribingLocus:
    """Second-harmonic describing-function locus L(theta, omega) at a fixed
    frequency, with its transversality against the Nyquist locus."""

    omega: float
    theta_grid: np.ndarray
    L_values: np.ndarray
    locus_direction: complex   # d L / d(theta^2) = gamma^2 G(j omega) / 4
    nyquist_tangent: complex   # d Gtilde / d omega at omega
    is_tangential: bool


@dataclass(frozen=True)
class HyperbolicityResult:
    hurwitz_everywhere: bool
    witness_gain: float | None = None
    witness_eigenvalues: tuple[complex, ...] | None = None


def sfs_field(ss: StateSpace, gamma: float):
    """Right-hand side z' = A z - B tanh(gamma C z) as a callable."""
    A, B, C = ss.A, ss.B, ss.C

    def rhs(t, z):
        out = A.dot(z)
        out -= B * math.tanh(gamma * C.dot(z))
        return out

    return rhs


def _layer_flow(ss: StateSpace, gamma: float, rhs, w: np.ndarray, t_end: float,
                rel_tol: float, abs_tol: float, *, tangents: int = 0) -> numerics.Run:
    """The smooth loop's flow of w over [0, t_end], segment by segment.

    w holds z, then ``tangents`` rows of n tangent coordinates, then any
    further entries, which only ``rhs`` moves.  Two kinds of segment
    alternate, the first chosen by |gamma C z(0)| < LAYER_EDGE:

    - in the tanh layer, DOP853 on ``rhs`` (``numerics.integrate_adaptive``)
      up to its event at the layer's edge, where |gamma C z| - LAYER_EDGE
      rises through zero.  Entered from outside, its first step is
      1 / (gamma |C z'|), the time in which gamma C z moves by one (the
      initial-step heuristic there let a step across the layer's middle
      pass with 17 times the tolerance, third order at gamma = 1e5);
    - outside it, the relay's affine flow under s = sign C z: the time back
      to the edge from ``RelaySystem.exit_events`` at ``level`` =
      LAYER_EDGE / gamma, then z and each tangent row v <- e^{A dt} v from
      ``RelaySystem.exp(dt)``.  The search marches no further than the
      first grid point at or past t_end (``cap``), so an unstable plant's
      flow does not overflow beyond the span; one that finds no return
      within the horizon ``t_max`` advances t_max and searches again.

    The kind alternates by segment and is never re-tested from |gamma C z|,
    which the event leaves at the edge to roundoff on either side; the last
    segment ends at t_end.  Returns one ``numerics.Run``: ``t`` and ``y``
    the solver's steps and the affine segments' ends, ``nfev`` the
    integrator's calls, and ``sol`` giving z (n rows) from the segment
    that starts at t (the upper one at a segment's end): DOP853's
    interpolant in the layer, built only when ``sol`` needs it, and the
    affine flow outside.
    """
    n, C = ss.n, ss.C
    rows = (1 + tangents) * n
    system = system_for(ss)

    def leave(t, w):  # zero on the layer's edges, rising on the way out
        return abs(gamma * float(C @ w[:n])) - LAYER_EDGE

    t, inside = 0.0, abs(gamma * float(C @ w[:n])) < LAYER_EDGE
    first_step, nfev = None, 0
    ts, ys, breaks, pieces = [[t]], [w[:, None]], [t], []
    while t < t_end:
        if inside:
            part = numerics.integrate_adaptive(rhs, w, (t, t_end), rel_tol, abs_tol,
                                               event=leave, first_step=first_step)
            t, w = float(part.t[-1]), part.y[:, -1]
            inside = False
            ts.append(part.t[1:])
            ys.append(part.y[:, 1:])
            nfev += part.nfev
            pieces.append(lambda t, sol=part.sol: sol(t)[:n])
        else:
            s = 1 if C @ w[:n] > 0.0 else -1
            t0, remaining = t, t_end - t
            exits = system.exit_events(w[:n], s, level=LAYER_EDGE / gamma, cap=remaining)
            if exits.status[0] == EXITED and exits.tau[0] < remaining:
                dt, inside = float(exits.tau[0]), True
                t += dt
                # the next layer segment's first step: the time in which
                # gamma C z moves by one at the edge
                rate = gamma * abs(float(exits.speed[0]))
                first_step = 1.0 / rate if rate * (t_end - t) > 1.0 else None
            else:  # no return to the edge within the horizon, or past t_end
                dt = min(remaining, system.t_max)
                t = t + dt if dt < remaining else t_end
            E = system.exp(dt)
            z0, w = w[:n], w.copy()
            V = w[:rows].reshape(1 + tangents, n)
            V[0] = s * (E[:n] @ system.lift(V[0], s))
            V[1:] = V[1:] @ E[:n, :n].T
            ts.append([t])
            ys.append(w[:, None])
            pieces.append(lambda t, t0=t0, z0=z0, s=s: system.state(z0, s, t - t0).T)
        breaks.append(t)
    return numerics.Run(t=np.concatenate(ts), y=np.concatenate(ys, axis=1), nfev=nfev,
                        sol=numerics._piecewise(n, breaks, pieces, "right"))


def simulate_sfs(ss: StateSpace, cfg: SfsConfig, x0, t_end: float) -> numerics.Run:
    """Integrate the smooth loop from ``x0`` over [0, t_end] on the layer
    split of ``_layer_flow``: DOP853 at ``cfg``'s tolerances inside the
    tanh layer, the relay's exact affine flow outside it.

    Returns ``_layer_flow``'s run: ``t`` and ``y`` list the solver's steps
    and the ends of the affine segments, ``nfev`` the right-hand-side calls
    made while integrating.  ``sol(t)`` takes DOP853's interpolant on a
    layer segment, built on the first call that needs it (three more
    right-hand-side calls per step, not counted in ``nfev``), and the
    affine flow elsewhere; a t at a segment's end takes the next segment.
    A run that never leaves the layer is one DOP853 integration.

    Raises
    ------
    ValueError
        ``t_end`` not in (0, inf), or a start whose 1 + |x0| is not finite.
    StiffnessError
        Integration past the step-underflow budget.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
    x0 = np.asarray(x0, dtype=float)
    with np.errstate(over="ignore"):
        scale = 1.0 + float(np.linalg.norm(x0))
    if not math.isfinite(scale):
        raise ValueError("start state is not finite, or its norm overflows")
    return _layer_flow(ss, cfg.gamma, sfs_field(ss, cfg.gamma), x0, t_end,
                       cfg.rel_tol, cfg.abs_tol)


def closed_loop_matrix(ss: StateSpace, gamma) -> np.ndarray:
    """Companion matrix A - gamma B C of the linearization at the origin;
    an array of gains gives the stack of matrices, one per gain."""
    gamma = np.asarray(gamma, dtype=float)
    return ss.A - gamma[..., None, None] * np.outer(ss.B, ss.C)


def closed_loop_eigenvalues(ss: StateSpace, gamma) -> np.ndarray:
    """Eigenvalues of A - gamma B C; an array of gains gives one row per
    gain from a single stacked LAPACK call."""
    return np.linalg.eigvals(closed_loop_matrix(ss, gamma))


def _nearest(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """For each entry of ``prev``, the index of the nearest entry of
    ``new``, by the distances ``_pair_tracks`` takes; stacks of rows are
    paired row by row."""
    d = prev[..., :, None] - new[..., None, :]
    return np.hypot(d.real, d.imag).argmin(axis=-1)


def _pair_tracks(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbor pairing of eigenvalue sets between grid
    points, to keep per-track continuity: each entry of ``prev`` in turn
    takes the nearest entry of ``new`` not yet taken.  The distances are
    ``hypot`` of the differences, as the scalar ``abs`` rounds them (the
    array ``abs`` of a complex array can differ in the last bit).
    ``root_locus`` runs it only where two entries of ``prev`` have the
    same nearest entry; elsewhere the nearest entries are its picks."""
    d = prev[:, None] - new
    dist = np.hypot(d.real, d.imag)
    out = np.empty(len(prev), dtype=complex)
    for i, row in enumerate(dist):
        j = row.argmin()
        out[i] = new[j]
        dist[:, j] = np.inf
    return out


def _check_gamma_max(gamma_max: float, gamma_min: float = 0.0) -> None:
    """Reject a gain bound that is not a finite number above ``gamma_min``."""
    if not (math.isfinite(gamma_max) and gamma_max > gamma_min):
        raise ValueError(f"gamma_max must be finite and > {gamma_min:g}, got {gamma_max!r}")


def _axis_crossings(ss: StateSpace, gamma_max: float) -> list[Crossing]:
    """Every gain gamma in (0, gamma_max] at which den + gamma num has a root
    j omega on the imaginary axis, sorted by (gamma, omega).

    With den(j omega) = Dr(x) + j omega Di(x), num(j omega) = Nr(x) +
    j omega Ni(x) and x = omega^2, Im(den conj num) = omega Q(x) for
    Q = Di Nr - Dr Ni, and the gain at a root of Q is -P/W for
    P = Dr Nr + x Di Ni and W = Nr^2 + x Ni^2.  P vanishes where num does,
    so asking for P < 0 (gamma > 0) also drops the zeros of num on the
    axis, which are no crossings.  The crossing at omega = 0 is
    gamma = -a0/b0.  Which side of 0 and of gamma_max a gain lies on is
    decided exactly; only the reported floats are rounded.  A root where Q
    keeps its sign is a tangential touch, with direction 0.
    """
    den = [Fraction(float(c)) for c in ss.den_coeffs] + [Fraction(1)]
    num = [Fraction(float(c)) for c in ss.num_coeffs]
    g_max = Fraction(float(gamma_max))
    out = []
    if num[0] != 0 and 0 < (g0 := -den[0] / num[0]) <= g_max:
        slope = den[1] + g0 * (num[1] if len(num) > 1 else 0)  # p_g0'(0), 0 at a double root
        out.append(Crossing(float(g0), 0.0, -_sign(num[0] * slope), 1, "real"))

    scale = math.lcm(*(c.denominator for c in den + num))
    (Dr, Di), (Nr, Ni) = ([_combine([int(c * scale) * (-1) ** (k // 2)
                                     for k, c in enumerate(p) if k % 2 == r], [])
                           for r in (0, 1)] for p in (den, num))
    Q = _combine(_mul(Di, Nr), _mul(Dr, Ni), -1)
    P = _combine(_mul(Dr, Nr), [0] + _mul(Di, Ni))
    W = _combine(_mul(Nr, Nr), [0] + _mul(Ni, Ni))
    while Q and Q[0] == 0:  # x = 0 is the real crossing above
        Q = Q[1:]
    if len(Q) < 2:
        return out  # no positive root (Q = 0: the roots stay on the axis)

    dQ = _derivative(Q)
    sturm = _sturm(Q, dQ)
    positive = _sturm(Q, _mul(dQ, P))
    within = _sturm(Q, _mul(dQ, _combine(_mul([g_max.denominator], P), W, g_max.numerator)))

    # An interval is (lo, hi, k), the points lo / 2^k and hi / 2^k.
    def split(lo, hi, k):  # lo, mid, hi at one shift, mid in (lo, hi) and no root of Q
        mid, step, j = lo + hi, hi - lo, k + 1
        while _value(Q, (mid, j)) == 0:
            mid, j = 2 * mid + step, j + 1
        return lo << (j - k), mid, hi << (j - k), j

    todo = [(0, *_root_bound(Q))]
    while todo:
        lo, hi, k = todo.pop()
        count = _variations(sturm, (lo, k), (hi, k))
        if count > 1:
            lo, mid, hi, k = split(lo, hi, k)
            todo += [(mid, hi, k), (lo, mid, k)]
        if (count != 1 or _variations(positive, (lo, k), (hi, k)) >= 0
                or _variations(within, (lo, k), (hi, k)) < 0):
            continue  # not one root, or its gain is not in (0, gamma_max]
        at_lo = _count(sturm, (lo, k))  # kept as lo moves, so a step evaluates at mid only
        while (hi - lo) << 60 > lo:
            lo, mid, hi, k = split(lo, hi, k)
            if _count(sturm, (mid, k)) == at_lo:
                lo = mid  # no root in (lo, mid]
            else:
                hi = mid
        s_lo, s_hi = _sign(_value(Q, (lo, k))), _sign(_value(Q, (hi, k)))
        m, j = lo + hi, k + 1  # the midpoint x = m / 2^j
        x = (m, j)
        gain = Fraction(-_value(P, x) << j * len(W), _value(W, x) << j * len(P))
        out.append(Crossing(float(gain), math.sqrt(Fraction(m, 1 << j)),
                            0 if s_lo == s_hi else -s_hi, 1, "hopf"))
    return sorted(out, key=lambda c: (c.gamma0, c.omega0))


def root_locus(ss: StateSpace, gamma_max: float = 1e3, points: int = 400) -> RootLocusScan:
    """Closed-loop eigenvalue tracks over a log-spaced grid of ``points`` gains,
    and the root locus's imaginary-axis crossings, both in [GAMMA_MIN, gamma_max].

    The crossings are computed exactly from the characteristic polynomial
    (see the module docstring), not from the tracks: kind "real" at
    omega = 0, "hopf" otherwise, direction +1 when the root moves into the
    right half plane as gamma grows.  Tangential touches, where the root
    meets the axis without crossing it, are left out.  The tracks come from
    one stacked eigenvalue call over the grid, paired between neighbouring
    gains by nearest neighbour: where every entry of a gain has its own
    nearest entry at the next, those are the greedy ``_pair_tracks``'
    picks; only the other gains run it.  An empty crossing list is a valid
    result.
    """
    if points < 10:
        raise ValueError("points must be >= 10")
    _check_gamma_max(gamma_max, GAMMA_MIN)
    grid = np.geomspace(GAMMA_MIN, gamma_max, points)
    eig = closed_loop_eigenvalues(ss, grid).astype(complex)
    n = eig.shape[1]
    # each gain's nearest entries to the previous gain's, in slices of
    # about points / n gains, so that the (slice, n, n) distances stay the
    # size of the (points, n) eigenvalues
    step = -(-points // n)
    prev, new = eig[:-1], eig[1:]
    nearest = np.concatenate([_nearest(prev[i:i + step], new[i:i + step])
                              for i in range(0, points - 1, step)])
    taken = np.zeros(nearest.shape, dtype=bool)
    np.put_along_axis(taken, nearest, True, axis=1)
    conflict = ~taken.all(axis=1)  # two entries with one nearest entry
    tracks = np.empty_like(eig)
    tracks[0] = eig[0]
    order = np.arange(n)  # tracks[i] = eig[i][order]; None after a conflict
    for i in range(1, points):
        if conflict[i - 1]:
            tracks[i], order = _pair_tracks(tracks[i - 1], eig[i]), None
            continue
        order = _nearest(tracks[i - 1], eig[i]) if order is None else nearest[i - 1][order]
        tracks[i] = eig[i][order]
    crossings = tuple(c for c in _axis_crossings(ss, gamma_max)
                      if c.direction and c.gamma0 >= GAMMA_MIN)
    return RootLocusScan(gamma_grid=grid, eigen_tracks=tracks, crossings=crossings)


def hopf_classify(ss: StateSpace, scan: RootLocusScan,
                  deltas: tuple[float, ...] = (0.02, 0.05, 0.1)) -> HopfReport:
    """Criticality of the first oscillatory crossing, from the linearization.

    tanh is odd, so z' = (A - gamma B C) z + (gamma^3 / 3) B (C z)^3 + ...
    has no quadratic term, and the first Lyapunov coefficient (Kuznetsov
    2004, section 3.5) is l1 = (gamma0^3 / omega0) |C q|^2 Re[(p B)(C q)]
    = -(gamma0^3 / omega0) |C q|^2 Re lambda'(gamma0), q and p the right and
    left eigenvectors of A - gamma0 B C at j omega0, |q| = 1, p q = 1.  Its sign
    is minus the exact crossing direction: "supercritical" when the pair
    enters the right half plane as gamma grows, "subcritical" otherwise.
    ``unstable_count`` (open right half plane at gamma0, +-j omega0 left
    out) is an exact Routh-Hurwitz count below every crossing plus the
    signed crossings below gamma0; None only when a root stays on the axis
    there, one that den and num share.  ``evidence`` holds,
    per relative offset delta, gamma = gamma0 (1 + delta) and the
    normal-form output amplitude 2 sqrt((gamma - gamma0) / gamma0^3) of the
    cycle there.  The real-axis crossing gamma = -a0 / b0, where the
    closed-loop constant coefficient vanishes, is kept when positive.

    Raises
    ------
    ValueError
        A negative delta.
    RelayOscError
        The scan contains no oscillatory crossing.
    """
    if min(deltas, default=0.0) < 0:
        raise ValueError("deltas must be nonnegative: the cycle is born above gamma0")
    hopfs = [c for c in scan.crossings if c.kind == "hopf" and c.omega0 > 0]
    if not hopfs:
        raise RelayOscError("no oscillatory imaginary-axis crossing in scan")
    first = min(hopfs, key=lambda c: c.gamma0)
    g0, w0 = first.gamma0, first.omega0

    a0 = float(-ss.A[0, -1])
    b0 = float(ss.B[0])
    g_real = -a0 / b0 if b0 != 0.0 else 0.0
    pitchforks = (g_real,) if g_real > 0 else ()

    J = closed_loop_matrix(ss, g0)
    lam, V = np.linalg.eig(J)
    q = V[:, np.argmin(np.abs(lam - 1j * w0))]
    lam, U = np.linalg.eig(J.T)
    p = U[:, np.argmin(np.abs(lam - 1j * w0))]
    Cq = ss.C @ q
    l1 = g0**3 / w0 * abs(Cq) ** 2 * float((p @ ss.B * Cq / (p @ q)).real)

    below = [c for c in _axis_crossings(ss, g0) if c.gamma0 < g0]
    g_r = Fraction(min([c.gamma0 for c in below], default=g0)) / 2
    count = _unstable_count(ss.den_coeffs, ss.num_coeffs, g_r)
    if count is not None:  # a pair that leaves at gamma0 was counted below it
        count += sum(c.direction * (2 if c.kind == "hopf" else 1) for c in below)
        count -= 2 * (first.direction < 0)

    evidence = {}
    for delta in deltas:
        gamma = g0 * (1.0 + delta)
        evidence[f"delta={delta}"] = {
            "gamma": gamma, "predicted_amplitude": 2.0 * math.sqrt((gamma - g0) / g0**3)}
    return HopfReport(gamma0=g0, omega0=w0,
                      kind="supercritical" if first.direction > 0 else "subcritical",
                      pitchfork_gammas=pitchforks, l1=l1, unstable_count=count,
                      evidence=evidence)


def describing_locus(ss: StateSpace, omega: float, gamma: float) -> DescribingLocus:
    """Second-harmonic describing-function locus at a fixed frequency.

    L(theta, omega) = -1 + theta^2 gamma^2 / 4 * G(j omega) at 200 points
    theta in [0, 1]; the locus leaves -1 along the fixed complex direction
    gamma^2 G(j omega)/4 as theta^2 grows.  Transversality is judged against
    the Nyquist tangent of the gain-scaled loop gamma G(j omega): the
    crossing is flagged tangential when the two directions are numerically
    parallel.  Both tests are relative (to the size of the terms of the
    denominator at j omega, and a step of 1e-7 omega), so the locus of a
    plant with its poles and zeros scaled by c at omega c is the unscaled
    one.

    Raises
    ------
    RelayOscError
        G has a pole on the imaginary axis at ``omega``.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    tf = TransferFunction(tuple(ss.num_coeffs), tuple(ss.den_coeffs))
    num, den = tf.polynomials(1j * omega)
    # |den(j omega)| against the size of its terms, so the test does not
    # depend on the unit of time
    size = omega**tf.n + sum(abs(a) * omega**k for k, a in enumerate(tf.den_coeffs))
    if abs(den) < 1e-12 * size:
        raise RelayOscError(f"plant pole on the imaginary axis at omega={omega:g}")
    G = num / den
    thetas = np.linspace(0.0, 1.0, 200)
    L = -1.0 + thetas**2 * gamma**2 / 4.0 * G
    direction = gamma**2 * G / 4.0
    # Nyquist tangent of gamma*G at omega by central differencing in omega
    h = 1e-7 * omega
    tangent = gamma * (tf(1j * (omega + h)) - tf(1j * (omega - h))) / (2 * h)
    cross = direction.real * tangent.imag - direction.imag * tangent.real
    denom = abs(direction) * abs(tangent)
    sin_angle = cross / denom if denom > 0 else 0.0
    return DescribingLocus(omega=float(omega), theta_grid=thetas, L_values=L,
                           locus_direction=direction, nyquist_tangent=tangent,
                           is_tangential=bool(abs(sin_angle) < 1e-3))


def hyperbolicity_check(ss: StateSpace, gamma_max: float = 1e3,
                        samples: int = 400) -> HyperbolicityResult:
    """Decide whether A - kappa B C is Hurwitz for all kappa in [0, gamma_max].

    The verdict is a proof by zero exclusion: den (kappa = 0) has an exact
    Routh-Hurwitz count of zero, and no root of den + kappa num meets the
    imaginary axis for kappa in (0, gamma_max], decided in exact arithmetic
    from the crossings of the module docstring, tangential touches
    included.  Otherwise the witness is gain 0, or the smallest crossing
    gain kappa* with the closed-loop eigenvalues there; of these, the one
    nearest j omega* and its conjugate are set to +-j omega* (0 at a real
    crossing), the root that the exact count proves.  ``samples`` is
    accepted for call compatibility and unused.
    """
    _check_gamma_max(gamma_max)
    if _unstable_count(ss.den_coeffs) != 0:
        return HyperbolicityResult(False, 0.0, tuple(closed_loop_eigenvalues(ss, 0.0)))
    crossings = _axis_crossings(ss, gamma_max)
    if not crossings:
        return HyperbolicityResult(True)
    first = crossings[0]
    lam = closed_loop_eigenvalues(ss, first.gamma0).astype(complex)
    w = first.omega0
    for target in ((1j * w, -1j * w) if w else (0j,)):
        lam[np.argmin(np.abs(lam - target))] = target
    return HyperbolicityResult(False, first.gamma0, tuple(lam))
