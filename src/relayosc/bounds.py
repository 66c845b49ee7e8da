"""Quantitative state bounds for the relay loop around a stable plant.

Everything follows from an exponential envelope  ||e^{At}||_2 <= m e^{-s t}:
an ultimate ball that every trajectory eventually enters, the time by which
excursions outside it are over, the worst-case state magnitude, a positive
lower bound on inter-switch durations (relative-degree-one plants), and the
number of switches after which the state is certainly back in the ball.
The constants feed the anchor region on the switching plane that hosts the
fixed points of the return maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .plant import StateSpace


@dataclass(frozen=True)
class DecayEnvelope:
    """Constants of the envelope ||e^{At}||_2 <= m_initial e^{-sigma t}.

    ``sigma_slowest`` sits a small margin inside the spectral abscissa so a
    finite m_initial exists; m_initial comes from a grid maximization of
    ||e^{At}|| e^{sigma t} inflated by a 5 % safety factor and is verified a
    posteriori on a finer grid.
    """

    m_initial: float
    sigma_slowest: float
    epsilon_margin: float


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form bound constants for one plant.

    ``t_min_inter_switch`` and ``k_iterations`` require a nonzero leading
    numerator coefficient (relative degree one); they are None otherwise and
    ``note`` says why.
    """

    m_loose: float
    ball_radius: float
    t_excursions_over: float
    m_excursion: float
    t_min_inter_switch: float | None
    k_iterations: int | None
    norm_A: float
    norm_B: float
    note: str | None = None


@dataclass(frozen=True)
class AnchorRegion:
    """Slice of the switching plane hosting return-map fixed points:
    on-plane states within ``radius`` whose (n-1)-th coordinate is at least
    ``strip_halfwidth`` (beyond the repelling strip, positive side)."""

    radius: float
    strip_halfwidth: float
    n: int

    def contains(self, x: np.ndarray, *, plane_tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return (
            abs(x[-1]) <= plane_tol * (1.0 + np.linalg.norm(x))
            and np.linalg.norm(x) <= self.radius * (1 + 1e-12)
            and x[-2] >= self.strip_halfwidth - 1e-12
        )


#: Powers of e^{Ah} per batched product: the Frobenius pass streams the
#: powers in blocks of this many, and the exact 2-norms are taken over
#: batches of at most this many Gram matrices per ``eigvalsh`` call.
_NORM_BLOCK = 512

#: Entries of the low table E^r, r < _LOW; the high table holds (E^_LOW)^q.
_LOW = 64

#: ``decay_envelope``'s steps over 40 / sigma (its check takes twice as many
#: over 20 / sigma) and the safety factor on the maximum of the grid.
_GRID_POINTS, _SAFETY = 4000, 1.05


def _sequential_powers(M: np.ndarray, count: int) -> np.ndarray:
    """M^0, ..., M^(count-1) by the sequential product M^j = M M^(j-1)."""
    out = np.empty((count,) + M.shape, dtype=M.dtype)
    out[0] = np.eye(M.shape[0])
    for j in range(1, count):
        out[j] = M @ out[j - 1]
    return out


def _power_tables(E: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-level power tables ``(low, high)`` for the powers E^k, k <= count.

    With k = 64 q + r, E^k is the product ``high[q] @ low[r]`` of
    ``low[r] = E^r`` (r < 64) and ``high[q] = (E^64)^q`` (q <= count // 64),
    both built by sequential products.

    The tables are accumulated in ``np.longdouble`` and rounded to double
    once per entry.  Accumulated in double, the rounding error of E^64
    recurs in every factor of (E^64)^q and adds up coherently: 1.4e-11
    relative at k = 4000 on a non-normal n = 10 plant, against 7e-16 with
    extended tables.  Where ``longdouble`` is double, the former holds.
    """
    ext = E.astype(np.longdouble)
    low = _sequential_powers(ext, _LOW)
    high = _sequential_powers(ext @ low[-1], count // _LOW + 1)
    return low.astype(float), high.astype(float)


def _products(tables, ks: np.ndarray):
    """Yield ``(start, P)`` with P the stack of E^k, k in ks[start:start + _NORM_BLOCK]."""
    low, high = tables
    for start in range(0, len(ks), _NORM_BLOCK):
        kb = ks[start:start + _NORM_BLOCK]
        yield start, high[kb // _LOW] @ low[kb % _LOW]


def _exact_norms(tables, ks: np.ndarray) -> np.ndarray:
    """2-norms of E^k for the powers ``ks``: the square roots of the largest
    eigenvalues of the Gram matrices P^T P, one ``eigvalsh`` call per batch.

    Each matrix of a batch is multiplied and decomposed on its own, so a
    power's norm does not depend on which other powers share its batch.
    """
    norms = np.empty(len(ks))
    for start, P in _products(tables, ks):
        with np.errstate(over="ignore", invalid="ignore"):
            gram = np.swapaxes(P, 1, 2) @ P
        if not np.isfinite(gram).all():
            raise OverflowError("Gram matrix overflow: the powers of e^{A h} are too large")
        norms[start:start + len(P)] = np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
    return norms


def _norm_bounds(tables, count: int) -> np.ndarray:
    """Upper bounds on ``_exact_norms`` at k = 1..count: ||E^k||_F (1 + slack).

    ||P||_2 <= ||P||_F (Golub & Van Loan, Matrix Computations, 2.3).  Both
    norms are taken of the same computed product P, so only their rounding
    separates them: the computed Frobenius sum of n^2 squares is at least
    ||P||_F (1 - n^2 eps), and the Gram matrix and ``eigvalsh`` err by a
    small multiple of n eps ||P||_F^2, so the computed 2-norm is at most
    ||P||_F (1 + c n eps).  The slack 20 n^2 eps covers both.  Norms small
    enough for these squares to underflow lie far below every maximum and
    limit they are compared with.
    """
    n = tables[0].shape[1]
    norms = np.empty(count)
    for start, P in _products(tables, np.arange(1, count + 1)):
        norms[start:start + len(P)] = np.sqrt(np.einsum("kij,kij->k", P, P))
    return norms * (1.0 + 20 * n * n * np.finfo(float).eps)


def _step_exp(A: np.ndarray, h: float) -> np.ndarray:
    """e^{A h} by scipy's Pade ``expm``; OverflowError if it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(A * h)
    if not np.isfinite(E).all():
        raise OverflowError("matrix exponential overflow: ||A h|| too large")
    return E


def decay_envelope(A: np.ndarray, epsilon: float | None = None) -> DecayEnvelope:
    """Estimate a verified exponential decay envelope for e^{At}.

    ||e^{At}|| e^{sigma t} is maximized on a grid of ``_GRID_POINTS`` (4000)
    steps over 40 / sigma, inflated by ``_SAFETY`` (1.05), and checked on a
    grid of twice as many over 20 / sigma; on each grid the norms of e^{At}
    are those of the powers of one step exponential, formed from two-level
    power tables (``_power_tables``).

    Exact 2-norms (``_exact_norms``) are taken only where a Frobenius upper
    bound (``_norm_bounds``) cannot decide.  The maximization takes the exact
    value L at the power with the largest bound, then exact values at the
    powers whose bound reaches max(L, 1); every other power is provably below
    the maximum.  The check passes every power whose bound is within its
    limit and takes exact values at the rest.  The exact values are those an
    exhaustive pass would take, and a maximum and a comparison do not round,
    so ``m_initial``, the verdict and the first failing t equal the
    exhaustive pass's bit for bit.  Where the bounds cannot prune (two equal
    singular values, as for a normal complex pair), every power is taken
    exactly, at the extra cost of the Frobenius pass only.

    Parameters
    ----------
    A : ndarray
        Hurwitz matrix: finite, square, non-empty and 2-D.
    epsilon : float, optional
        Margin subtracted from the spectral abscissa magnitude; defaults to
        1e-3 * min |Re eigenvalue| so the envelope stays valid across time
        scales.

    Raises
    ------
    ValueError
        If A is not a finite, square, non-empty 2-D array or is not
        Hurwitz, epsilon is outside (0, min |Re eigenvalue|), or the
        computed envelope fails its a-posteriori verification (defective
        extreme cases).
    OverflowError
        A step exponential or a Gram matrix of its powers is not finite.
    """
    A = np.asarray(A, dtype=float)
    if not (A.ndim == 2 and A.shape[0] == A.shape[1] > 0 and np.isfinite(A).all()):
        raise ValueError("A must be a finite, square, non-empty 2-D array; got shape %s"
                         % (A.shape,))
    lam = np.linalg.eigvals(A)
    decay = -lam.real.max()
    if decay <= 0:
        raise ValueError("matrix is not Hurwitz; no decay envelope exists")
    if epsilon is None:
        epsilon = 1e-3 * decay
    if not 0 < epsilon < decay:
        raise ValueError("epsilon must lie in (0, min |Re eigenvalue|)")
    sigma = decay - epsilon

    horizon = 40.0 / sigma
    h = horizon / _GRID_POINTS
    tables = _power_tables(_step_exp(A, h), _GRID_POINTS)
    growth = np.exp(sigma * np.arange(1, _GRID_POINTS + 1) * h)
    upper = _norm_bounds(tables, _GRID_POINTS) * growth
    k = int(upper.argmax()) + 1
    best = max(1.0, float(_exact_norms(tables, np.array([k]))[0] * growth[k - 1]))  # 1.0: t = 0
    ks = np.flatnonzero(upper >= best) + 1
    m_initial = _SAFETY * float(np.max(_exact_norms(tables, ks) * growth[ks - 1], initial=best))

    # a-posteriori check on a finer, shorter grid
    fine = np.linspace(0.0, 20.0 / sigma, 2 * _GRID_POINTS + 1)
    tables = _power_tables(_step_exp(A, fine[1] - fine[0]), 2 * _GRID_POINTS)
    limit = m_initial * np.exp(-sigma * fine) * (1 + 1e-9)
    failed = np.concatenate(([1.0], _norm_bounds(tables, 2 * _GRID_POINTS))) > limit
    ks = np.flatnonzero(failed[1:]) + 1
    failed[ks] = _exact_norms(tables, ks) > limit[ks]
    if failed.any():
        raise ValueError(
            "decay envelope verification failed at t=%g; the eigenvector "
            "basis may be too ill-conditioned for a grid estimate" % fine[failed.argmax()])
    return DecayEnvelope(float(m_initial), float(sigma), float(epsilon))


def bounds_report(ss: StateSpace, env: DecayEnvelope) -> BoundsReport:
    """Evaluate every bound constant from the envelope and ||A||, ||B||."""
    norm_A = float(np.linalg.norm(ss.A, 2))
    norm_B = float(np.linalg.norm(ss.B, 2))
    m, sigma = env.m_initial, env.sigma_slowest
    m_loose = 2.0 * m * norm_B / sigma
    t_exc = math.log(2.0 * m) / sigma
    m_excursion = m * (2.0 * m + 1.0) * norm_B / sigma
    b_tail = float(ss.B[-1])
    if b_tail != 0.0:
        t_min = 2.0 * abs(b_tail) / (norm_A * m_excursion + norm_B)
        k_iter = math.ceil(t_exc / t_min)
        note = None
    else:
        t_min = None
        k_iter = None
        note = ("leading numerator coefficient is zero (relative degree > 1): "
                "no positive inter-switch bound exists, so the switch-count "
                "bound is unavailable")
    return BoundsReport(
        m_loose=m_loose,
        ball_radius=m_loose,
        t_excursions_over=t_exc,
        m_excursion=m_excursion,
        t_min_inter_switch=t_min,
        k_iterations=k_iter,
        norm_A=norm_A,
        norm_B=norm_B,
        note=note,
    )


def anchor_region(ss: StateSpace, report: BoundsReport) -> AnchorRegion:
    """Build the fixed-point-hosting region of the switching plane."""
    return AnchorRegion(radius=report.m_loose,
                        strip_halfwidth=abs(float(ss.B[-1])),
                        n=ss.n)


#: Expected ball draws ``sample_anchor_region`` may make for one call.  At
#: one sample, batches of 64 draws take about 4 s at this budget (n = 3); the
#: callers in the package and its tests need at most 4.4e4.
_DRAW_BUDGET = 10_000_000


def _cap_fraction(region: AnchorRegion) -> float:
    """Share of the (n-1)-ball of the region's radius whose last coordinate
    is at least the strip halfwidth: 0.5 I_{1-a^2}(d/2 + 1/2, 1/2), with
    a = strip / radius, d = n - 1 and I the regularized incomplete beta
    function."""
    import scipy.special

    d = region.n - 1
    a = region.strip_halfwidth / region.radius
    return float(0.5 * scipy.special.betainc((d + 1) / 2, 0.5, 1.0 - a * a))


def sample_anchor_region(region: AnchorRegion, count: int, seed: int = 0,
                         *, return_stats: bool = False):
    """Draw uniform samples from the region (deterministic under ``seed``).

    The last coordinate is pinned to zero; the remaining d = n-1 coordinates
    are drawn uniformly in the ball of the region's radius as a Gaussian
    direction times R U^{1/d} (U uniform on [0, 1]), then rejected while the
    (n-1)-th coordinate is below the strip halfwidth.  With
    ``return_stats=True`` also returns ``{"n_ball": ..., "n_kept": ...}``
    (ball draws and strip survivors), whose ratio estimates the cap-volume
    fraction of the strip cut (``_cap_fraction``).

    Raises
    ------
    ValueError
        count < 1, n < 2 (no on-plane coordinate to cut), an empty region
        (strip at least as wide as the ball), or a cap so thin that
        ``count / _cap_fraction`` expected draws exceed ``_DRAW_BUDGET``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if region.n < 2:
        raise ValueError("the anchor region needs a plant of order n >= 2")
    if region.strip_halfwidth >= region.radius:
        raise ValueError("empty region: strip halfwidth >= ball radius")
    fraction = _cap_fraction(region)
    draws = count / fraction if fraction > 0 else math.inf
    if draws > _DRAW_BUDGET:
        raise ValueError(
            "anchor region too thin to sample: its cap holds %.3g of the ball, so %d "
            "samples need about %.3g draws (budget %d)" % (fraction, count, draws, _DRAW_BUDGET))
    d = region.n - 1
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty((count, region.n))
    got = 0
    n_ball = 0
    n_kept = 0
    while got < count:
        batch = max(count - got, 64)
        pts = rng.standard_normal((batch, d))
        radii = region.radius * rng.random(batch) ** (1.0 / d)
        pts *= (radii / np.linalg.norm(pts, axis=1))[:, None]
        pts = pts[pts[:, -1] >= region.strip_halfwidth]
        n_ball += batch
        n_kept += len(pts)
        take = min(len(pts), count - got)
        out[got:got + take, :d] = pts[:take]
        got += take
    out[:, -1] = 0.0
    if return_stats:
        return out, {"n_ball": n_ball, "n_kept": n_kept}
    return out
