"""Smooth tanh approximation of the relay loop and its bifurcations.

Replacing sign(y) with tanh(gamma y) turns the discontinuous loop into the
smooth family  z' = A z - B tanh(gamma C z)  with the gain gamma as the
bifurcation parameter.  The origin is an equilibrium for every gamma; its
linearization A - gamma B C is again a companion matrix, with closed-loop
characteristic polynomial  den(s) + gamma num(s).  This module computes the
imaginary-axis crossings of its roots exactly (Sturm sequences in rational
arithmetic on the float coefficients, which are dyadic rationals), scans
the eigenvalue root locus over gamma, decides the criticality of the first
Hopf point from the linearization there, evaluates the second-harmonic
describing-function locus at a crossing, and proves hyperbolicity of the
whole family by zero exclusion when no crossing exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from . import numerics
from .errors import RelayOscError
from .plant import StateSpace, TransferFunction


@dataclass(frozen=True)
class SfsConfig:
    """Gain and integrator tolerances for the smooth loop."""

    gamma: float
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


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


def simulate_sfs(ss: StateSpace, cfg: SfsConfig, x0, t_end: float):
    """Integrate the smooth loop adaptively; returns the solver result with
    dense output.  Raises StiffnessError past the step-underflow budget."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    return numerics.integrate_adaptive(
        sfs_field(ss, cfg.gamma), np.asarray(x0, dtype=float),
        (0.0, t_end), cfg.rel_tol, cfg.abs_tol)


def closed_loop_matrix(ss: StateSpace, gamma) -> np.ndarray:
    """Companion matrix A - gamma B C of the linearization at the origin;
    an array of gains gives the stack of matrices, one per gain."""
    gamma = np.asarray(gamma, dtype=float)
    return ss.A - gamma[..., None, None] * np.outer(ss.B, ss.C)


def closed_loop_eigenvalues(ss: StateSpace, gamma) -> np.ndarray:
    """Eigenvalues of A - gamma B C; an array of gains gives one row per
    gain from a single stacked LAPACK call."""
    return np.linalg.eigvals(closed_loop_matrix(ss, gamma))


def _pair_tracks(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Greedy nearest-neighbor pairing of eigenvalue sets between grid
    points, to keep per-track continuity: each entry of ``prev`` in turn
    takes the nearest entry of ``new`` not yet taken.  The distances are
    ``hypot`` of the differences, as the scalar ``abs`` rounds them (the
    array ``abs`` of a complex array can differ in the last bit)."""
    d = prev[:, None] - new
    dist = np.hypot(d.real, d.imag)
    out = np.empty(len(prev), dtype=complex)
    for i, row in enumerate(dist):
        j = row.argmin()
        out[i] = new[j]
        dist[:, j] = np.inf
    return out


# Exact polynomials are ascending lists of Python ints without trailing
# zeros ([] is zero).  Signs are all that is asked of them, so each one may
# be replaced by a positive multiple.

def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _combine(p: list[int], q: list[int], c: int = 1) -> list[int]:
    """p + c q."""
    out = [a + c * b for a, b in zip_longest(p, q, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _sturm(p: list[int], q: list[int]) -> list[list[int]]:
    """Signed remainder sequence p, q, -rem(p, q), ..., each member made
    primitive.  Its sign variations at a < b, neither a root of p, count
    sum sign(r) over the distinct roots of p in (a, b] when q = p' r
    (Sturm-Tarski; r = 1 is Sturm's theorem)."""
    seq = [p, q]
    while seq[-1]:
        p, q = seq[-2], seq[-1]
        while len(p) >= len(q):  # pseudo-division by q, scaled by |lead q|
            p = _combine([abs(q[-1]) * v for v in p], [0] * (len(p) - len(q)) + q,
                         -_sign(q[-1]) * p[-1])
        g = math.gcd(*p)
        seq.append([-v // g for v in p])
    return seq[:-1]


def _value(p: list[int], x: Fraction) -> int:
    """p(x) times x.denominator ** deg p."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc, scale = acc * x.numerator + c * scale, scale * x.denominator
    return acc


def _variations(seq: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Sign variations of ``seq`` at lo minus those at hi."""
    def at(x):
        signs = [s for s in (_sign(_value(p, x)) for p in seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return at(lo) - at(hi)


def _unstable_count(coeffs: list[Fraction]) -> int | None:
    """Roots in the open right half plane of an ascending coefficient list
    with positive leading coefficient, by the exact Routh array: the sign
    changes down its first column; None at a zero pivot."""
    desc = coeffs[::-1]
    row, nxt = desc[0::2], desc[1::2]
    changes = 0
    while nxt:
        if nxt[0] == 0:
            return None
        changes += (nxt[0] < 0) != (row[0] < 0)
        c = row[0] / nxt[0]
        row, nxt = nxt, [a - c * b for a, b in zip_longest(row[1:], nxt[1:], fillvalue=0)]
    return changes


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

    dQ = [k * c for k, c in enumerate(Q)][1:]
    sturm = _sturm(Q, dQ)
    positive = _sturm(Q, _mul(dQ, P))
    within = _sturm(Q, _mul(dQ, _combine(_mul([g_max.denominator], P), W, g_max.numerator)))
    hi = Fraction(1)
    while hi <= 1 + Fraction(max(map(abs, Q[:-1])), abs(Q[-1])):  # Cauchy bound
        hi *= 2

    def split(lo, hi):  # a point of (lo, hi) that is no root of Q
        mid, step = (lo + hi) / 2, (hi - lo) / 4
        while _value(Q, mid) == 0:
            mid, step = mid + step, step / 2
        return mid

    todo = [(Fraction(0), hi)]
    while todo:
        lo, hi = todo.pop()
        count = _variations(sturm, lo, hi)
        if count > 1:
            mid = split(lo, hi)
            todo += [(mid, hi), (lo, mid)]
        if (count != 1 or _variations(positive, lo, hi) >= 0
                or _variations(within, lo, hi) < 0):
            continue  # not one root, or its gain is not in (0, gamma_max]
        while hi - lo > lo / 2**60:
            mid = split(lo, hi)
            lo, hi = (lo, mid) if _variations(sturm, lo, mid) else (mid, hi)
        s_lo, s_hi = _sign(_value(Q, lo)), _sign(_value(Q, hi))
        x = (lo + hi) / 2
        gain = Fraction(-_value(P, x) * x.denominator ** len(W),
                        _value(W, x) * x.denominator ** len(P))
        out.append(Crossing(float(gain), math.sqrt(x), 0 if s_lo == s_hi else -s_hi, 1, "hopf"))
    return sorted(out, key=lambda c: (c.gamma0, c.omega0))


def root_locus(ss: StateSpace, gamma_max: float = 1e3, points: int = 400,
               gamma_min: float = 1e-2) -> RootLocusScan:
    """Closed-loop eigenvalue tracks over a log-spaced gain grid, and the
    imaginary-axis crossings of the root locus in [gamma_min, gamma_max].

    The crossings are computed exactly from the characteristic polynomial
    (see the module docstring), not from the tracks: kind "real" at
    omega = 0, "hopf" otherwise, direction +1 when the root moves into the
    right half plane as gamma grows.  Tangential touches, where the root
    meets the axis without crossing it, are left out.  The tracks come from
    one stacked eigenvalue call over the grid, paired between neighbouring
    gains by nearest neighbour.  An empty crossing list is a valid result.
    """
    if points < 10:
        raise ValueError("points must be >= 10")
    _check_gamma_max(gamma_max, gamma_min)
    grid = np.geomspace(gamma_min, gamma_max, points)
    tracks = closed_loop_eigenvalues(ss, grid).astype(complex)
    for i in range(1, points):
        tracks[i] = _pair_tracks(tracks[i - 1], tracks[i])
    crossings = tuple(c for c in _axis_crossings(ss, gamma_max)
                      if c.direction and c.gamma0 >= gamma_min)
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
    out) is an exact Routh count below every crossing plus the signed
    crossings below gamma0; None at a zero Routh pivot.  ``evidence`` holds,
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
    count = _unstable_count([Fraction(float(d)) + g_r * Fraction(float(b)) for d, b in
                             zip_longest(ss.den_coeffs, ss.num_coeffs, fillvalue=0)] + [1])
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


def describing_locus(ss: StateSpace, omega: float, gamma: float,
                     theta_max: float = 1.0, points: int = 200) -> DescribingLocus:
    """Second-harmonic describing-function locus at a fixed frequency.

    L(theta, omega) = -1 + theta^2 gamma^2 / 4 * G(j omega); the locus
    leaves -1 along the fixed complex direction gamma^2 G(j omega)/4 as
    theta^2 grows.  Transversality is judged against the Nyquist tangent of
    the gain-scaled loop gamma G(j omega): the crossing is flagged
    tangential when the two directions are numerically parallel.

    Raises
    ------
    RelayOscError
        G has a pole on the imaginary axis at ``omega``.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    tf = TransferFunction(tuple(ss.num_coeffs), tuple(ss.den_coeffs))
    num, den = tf.polynomials(1j * omega)
    if abs(den) < 1e-12:
        raise RelayOscError(f"plant pole on the imaginary axis at omega={omega:g}")
    G = num / den
    thetas = np.linspace(0.0, theta_max, points)
    L = -1.0 + thetas**2 * gamma**2 / 4.0 * G
    direction = gamma**2 * G / 4.0
    # Nyquist tangent of gamma*G at omega by central differencing in omega
    h = max(1e-7 * omega, 1e-9)
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

    The verdict is a proof by zero exclusion: den (kappa = 0) passes an
    exact Routh test, and no root of den + kappa num meets the imaginary
    axis for kappa in (0, gamma_max], decided in exact rational arithmetic
    from the crossings of the module docstring, tangential touches
    included.  Otherwise the witness is gain 0, or the smallest crossing
    gain kappa* with the closed-loop eigenvalues there; of these, the one
    nearest j omega* and its conjugate are set to +-j omega* (0 at a real
    crossing), the root that the exact count proves.  ``samples`` is
    accepted for call compatibility and unused.
    """
    _check_gamma_max(gamma_max)
    if _unstable_count([Fraction(float(c)) for c in ss.den_coeffs] + [Fraction(1)]) != 0:
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
