"""Smooth tanh approximation of the relay loop and its bifurcations.

Replacing sign(y) with tanh(gamma y) turns the discontinuous loop into the
smooth family  z' = A z - B tanh(gamma C z)  with the gain gamma as the
bifurcation parameter.  The origin is an equilibrium for every gamma; its
linearization A - gamma B C is again a companion matrix, with closed-loop
characteristic polynomial  lambda^n + sum (a_i + gamma b_i) lambda^i.  This
module scans the eigenvalue root locus over gamma, detects and refines
imaginary-axis crossings, classifies the resulting bifurcations empirically,
evaluates the second-harmonic describing-function locus at a crossing, and
certifies hyperbolicity of the whole family when no crossing exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import RelayOscError
from .plant import StateSpace, TransferFunction

#: Crossings with |omega| below this are real-axis (pitchfork-type); above,
#: oscillatory (Hopf-type).
OMEGA_HOPF_TOL = 1e-6

#: Refinement target on |Re lambda| at a crossing.
CROSSING_RE_TOL = 1e-9

#: Eigen-evaluations (one closed-loop matrix each) that one
#: hyperbolicity_check may make before it gives up.
HYPERBOLICITY_BUDGET = 1 << 16

#: Subdivision midpoints evaluated per stacked eigen call.
_MIDPOINT_CHUNK = 256


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
    direction: int           # +1 if the branch moves into the RHP as gamma grows
    multiplicity_parity: int  # 1 for a generic simple pair (odd), else 0
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
    kind: str  # "supercritical" | "subcritical" | "undetermined"
    pitchfork_gammas: tuple[float, ...]
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


def simulate_sfs(ss: StateSpace, cfg: SfsConfig, x0, t_end: float,
                 *, dense_output: bool = True):
    """Integrate the smooth loop adaptively; returns the solver result with
    dense output.  Raises StiffnessError past the step-underflow budget."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    return numerics.integrate_adaptive(
        sfs_field(ss, cfg.gamma), np.asarray(x0, dtype=float),
        (0.0, t_end), cfg.rel_tol, cfg.abs_tol, dense_output=dense_output)


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
    points, to keep per-track continuity."""
    new = list(new)
    out = np.empty(len(prev), dtype=complex)
    for i, p in enumerate(prev):
        j = int(np.argmin([abs(p - q) for q in new]))
        out[i] = new.pop(j)
    return out


def _track_eigen_at(ss: StateSpace, gamma: float, ref: np.ndarray) -> np.ndarray:
    return _pair_tracks(ref, closed_loop_eigenvalues(ss, gamma))


def root_locus(ss: StateSpace, gamma_max: float = 1e3, points: int = 400,
               gamma_min: float = 1e-2) -> RootLocusScan:
    """Scan closed-loop eigenvalues over a log-spaced gain grid and refine
    every imaginary-axis crossing.

    Each eigenvalue track's real part is monitored for sign changes; a
    bracketed change is refined by bisection on gamma (tracking the branch
    by nearest-neighbor matching at each midpoint) until |Re| < 1e-9.
    Crossings are classified oscillatory (omega0 > 1e-6) or real-axis, and
    conjugate twins are merged.  An empty crossing list is a valid result.
    """
    if points < 10:
        raise ValueError("points must be >= 10")
    grid = np.geomspace(gamma_min, gamma_max, points)
    n = ss.n
    tracks = closed_loop_eigenvalues(ss, grid).astype(complex)
    for i in range(1, points):
        tracks[i] = _pair_tracks(tracks[i - 1], tracks[i])

    raw: list[Crossing] = []
    for j in range(n):
        re = tracks[:, j].real
        for i in range(points - 1):
            if re[i] == 0.0 or re[i] * re[i + 1] >= 0.0:
                continue
            glo, ghi = grid[i], grid[i + 1]
            lam_lo = tracks[i, j]
            rlo = re[i]
            for _ in range(200):
                gm = 0.5 * (glo + ghi)
                lam_m = _track_eigen_at(ss, gm, np.array([lam_lo]))[0]
                if abs(lam_m.real) < CROSSING_RE_TOL:
                    glo = ghi = gm
                    lam_lo = lam_m
                    break
                if (lam_m.real > 0) == (rlo > 0):
                    glo, lam_lo, rlo = gm, lam_m, lam_m.real
                else:
                    ghi = gm
                if (ghi - glo) <= 1e-15 * max(1.0, ghi):
                    break
            g0 = 0.5 * (glo + ghi)
            lam0 = _track_eigen_at(ss, g0, np.array([lam_lo]))[0]
            direction = +1 if re[i + 1] > re[i] else -1
            omega0 = abs(lam0.imag)
            kind = "hopf" if omega0 > OMEGA_HOPF_TOL else "real"
            raw.append(Crossing(gamma0=float(g0), omega0=float(omega0),
                                direction=direction, multiplicity_parity=1,
                                kind=kind))

    # merge conjugate twins and count branch multiplicity at each crossing
    merged: list[Crossing] = []
    for c in sorted(raw, key=lambda c: (c.gamma0, c.omega0)):
        dup = next((m for m in merged
                    if abs(m.gamma0 - c.gamma0) <= 1e-6 * max(1.0, c.gamma0)
                    and abs(m.omega0 - c.omega0) <= 1e-6 * max(1.0, c.omega0)), None)
        if dup is None:
            merged.append(c)
    final = []
    for m in merged:
        lam = closed_loop_eigenvalues(ss, m.gamma0)
        mult = int(np.sum((np.abs(lam.real) < 1e-6)
                          & (np.abs(np.abs(lam.imag) - m.omega0) < 1e-6 * max(1.0, m.omega0))))
        pairs = max(mult // 2, 1) if m.kind == "hopf" else max(mult, 1)
        final.append(Crossing(m.gamma0, m.omega0, m.direction, pairs % 2, m.kind))
    return RootLocusScan(gamma_grid=grid, eigen_tracks=tracks,
                         crossings=tuple(final))


def _tail_amplitude(ys: np.ndarray):
    """Output amplitude statistics of samples over the trailing window."""
    crossings = int(np.sum(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0))
    return float(np.max(np.abs(ys))), float(np.mean(ys)), crossings


def hopf_classify(ss: StateSpace, scan: RootLocusScan,
                  deltas: tuple[float, ...] = (0.02, 0.05, 0.1),
                  *, init_norm: float = 1e-3, amp_small: float = 1.0) -> HopfReport:
    """Classify the first oscillatory crossing by post-critical simulation.

    For each relative offset delta the smooth loop is run just past the
    critical gain from a small initial state.  A bounded small-amplitude
    steady oscillation is supercritical evidence; settling on a nonzero
    equilibrium or a large/unbounded response is subcritical evidence;
    anything else stays undetermined.  Real-axis crossings are reported
    alongside: the closed-loop constant coefficient a0 + gamma b0 vanishes
    at gamma = -a0 / b0, kept when positive, merged with any real crossing
    the scan found.

    Raises
    ------
    RelayOscError
        The scan contains no oscillatory crossing.
    """
    hopfs = [c for c in scan.crossings if c.kind == "hopf" and c.omega0 > 0]
    if not hopfs:
        raise RelayOscError("no oscillatory imaginary-axis crossing in scan")
    first = min(hopfs, key=lambda c: c.gamma0)

    a0 = float(-ss.A[0, -1])
    b0 = float(ss.B[0])
    g_real = -a0 / b0 if b0 != 0.0 else 0.0
    pitchforks: tuple[float, ...] = (g_real,) if g_real > 0 else ()
    # keep any additional scanned real crossings not matching the closed form
    for g in (round(c.gamma0, 9) for c in scan.crossings if c.kind == "real"):
        if all(abs(g - p) > 1e-6 * max(1.0, g) for p in pitchforks):
            pitchforks = pitchforks + (g,)

    votes: list[str] = []
    evidence = {}
    rng = np.random.Generator(np.random.Philox(12345))
    x0 = rng.standard_normal(ss.n)
    x0 *= init_norm / np.linalg.norm(x0)
    for delta in deltas:
        gamma = first.gamma0 * (1.0 + delta)
        growth = float(closed_loop_eigenvalues(ss, gamma).real.max())
        growth = max(growth, 1e-4)
        # time for ||z|| to grow from init_norm to order one, with margin
        t_end = min(max(100.0, 4.0 * math.log(1.0 / init_norm) / growth), 2e4)
        # sampled on the trailing fifth only: no dense output elsewhere
        tail = np.linspace(t_end - 0.2 * t_end, t_end, 2000)
        sol = numerics.integrate_adaptive(sfs_field(ss, gamma), x0, (0.0, t_end),
                                          1e-9, 1e-12, dense_output=False, t_eval=tail)
        amp, mean, ncross = _tail_amplitude(ss.C @ sol.y)
        if not np.isfinite(amp) or amp > 1e6:
            votes.append("subcritical")
        elif ncross >= 4 and amp < amp_small:
            votes.append("supercritical")
        elif ncross < 4 and abs(mean) > 10 * init_norm:
            votes.append("subcritical")  # escaped to a nonzero equilibrium
        elif amp >= amp_small:
            votes.append("subcritical")
        else:
            votes.append("undetermined")
        evidence[f"delta={delta}"] = {"gamma": gamma, "tail_amplitude": amp,
                                      "tail_mean": mean, "tail_crossings": ncross}

    if votes and all(v == "supercritical" for v in votes):
        kind = "supercritical"
    elif votes.count("subcritical") >= 2:
        kind = "subcritical"
    else:
        kind = "undetermined"
    return HopfReport(gamma0=first.gamma0, omega0=first.omega0, kind=kind,
                      pitchfork_gammas=pitchforks, evidence=evidence)


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
    """Certify that A - kappa B C stays Hurwitz for all kappa in [0, gamma_max].

    The gain axis is scanned on a grid; each interval is certified when the
    eigenvalue real-part margin at its ends exceeds the interval length
    times a local Lipschitz estimate (eigenvector condition number times
    ||B||, the Bauer-Fike sensitivity), recursively subdividing where the
    certificate is not yet conclusive.  A non-Hurwitz sample produces a
    witness instead.  Near-defective gains are accepted on sufficiently
    small intervals with positive margins (the estimate, not a proof, is
    what a grid certificate can offer there).

    The grid is evaluated with one stacked eigendecomposition.  The
    subdivision keeps a depth-first stack of open intervals and pops up to
    256 of them at a time, evaluating their midpoints in one stacked call,
    so a certified result evaluates the same gains as one midpoint at a
    time would.  A witness found during subdivision is the first failing
    midpoint of its chunk in pop order.

    Raises
    ------
    RelayOscError
        The check needs more than ``HYPERBOLICITY_BUDGET`` eigen-evaluations
        (each interval closes only at a width of 1e-9 gamma_max when the
        eigenvector condition number is large along the whole axis).
    """
    norm_B = float(np.linalg.norm(ss.B))
    evaluations = 0

    def margins_and_lips(kappas: np.ndarray):
        nonlocal evaluations
        evaluations += len(kappas)
        if evaluations > HYPERBOLICITY_BUDGET:
            raise RelayOscError(
                f"hyperbolicity check on [0, {gamma_max:g}] exceeds its budget of "
                f"HYPERBOLICITY_BUDGET = {HYPERBOLICITY_BUDGET} eigen-evaluations")
        e = numerics.eigendecompose(closed_loop_matrix(ss, kappas))
        margins = -e.eigenvalues.real.max(axis=-1)
        lips = numerics.bauer_fike(e) * norm_B  # inf where not diagonalizable
        return margins.tolist(), lips.tolist(), e.eigenvalues

    kappas = np.linspace(0.0, gamma_max, samples + 1)
    margins, lips, lams = margins_and_lips(kappas)
    for i, (k, m) in enumerate(zip(kappas, margins)):
        if m <= 0.0:
            # bisect back to the stability boundary so the witness sits at
            # the first non-Hurwitz gain rather than at a coarse grid point
            if i > 0 and margins[i - 1] > 0.0:
                lo, hi = float(kappas[i - 1]), float(k)
                lam_hi = lams[i]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    (m_mid,), _, (lam_mid,) = margins_and_lips(np.array([mid]))
                    if m_mid <= 0.0:
                        hi, lam_hi = mid, lam_mid
                    else:
                        lo = mid
                    if hi - lo <= 1e-9 * max(1.0, hi):
                        break
                return HyperbolicityResult(False, hi, tuple(lam_hi))
            return HyperbolicityResult(False, float(k), tuple(lams[i]))

    # certify each interval, subdividing adaptively
    ends = list(zip(kappas.tolist(), margins, lips))
    stack = list(zip(ends[:-1], ends[1:]))
    min_width = max(gamma_max * 1e-9, 1e-12)
    while stack:
        chunk = []
        while stack and len(chunk) < _MIDPOINT_CHUNK:
            (lo, mlo, llo), (hi, mhi, lhi) = interval = stack.pop()
            width = hi - lo
            lip = max(llo, lhi)
            if math.isfinite(lip) and min(mlo, mhi) > width * lip:
                continue
            if width <= min_width and min(mlo, mhi) > 0:
                continue  # margin certificate at estimate resolution
            chunk.append(interval)
        if not chunk:
            break
        mids = [0.5 * (lo + hi) for (lo, _, _), (hi, _, _) in chunk]
        margins, lips, lams = margins_and_lips(np.array(mids))
        for mid, m, lam in zip(mids, margins, lams):
            if m <= 0.0:
                return HyperbolicityResult(False, mid, tuple(lam))
        # push in reverse, so that the first interval popped is split first
        ends = list(zip(mids, margins, lips))
        for (left, right), mid in zip(chunk[::-1], ends[::-1]):
            stack.append((left, mid))
            stack.append((mid, right))
    return HyperbolicityResult(True)
