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

from . import numerics
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


#: Powers of e^{Ah} whose 2-norms one SVD call takes at once.
_NORM_BLOCK = 512


def _power_norms(E: np.ndarray, count: int) -> np.ndarray:
    """2-norms of E^k, k = 1..count.

    The powers are built by the sequential product E^k = E E^{k-1}; their
    largest singular values are taken in blocks of at most ``_NORM_BLOCK``
    matrices, one batched SVD (the LAPACK routine of ``norm(., 2)``) each.
    """
    buf = np.empty((min(count, _NORM_BLOCK),) + E.shape)
    norms = np.empty(count)
    P = np.eye(E.shape[0])
    for start in range(0, count, _NORM_BLOCK):
        m = min(_NORM_BLOCK, count - start)
        for i in range(m):
            P = E @ P
            buf[i] = P
        norms[start:start + m] = np.linalg.svd(buf[:m], compute_uv=False)[:, 0]
    return norms


def decay_envelope(A: np.ndarray, epsilon: float | None = None,
                   *, grid_points: int = 4000, safety: float = 1.05) -> DecayEnvelope:
    """Estimate a verified exponential decay envelope for e^{At}.

    ||e^{At}|| e^{sigma t} is maximized on a grid of ``grid_points`` steps
    over 40 / sigma and checked on a grid of twice as many over 20 / sigma;
    on each grid the norms of e^{At} come from powers of one step
    exponential, taken in blocks of sequential powers.

    Parameters
    ----------
    A : ndarray
        Hurwitz matrix.
    epsilon : float, optional
        Margin subtracted from the spectral abscissa magnitude; defaults to
        1e-3 * min |Re eigenvalue| so the envelope stays valid across time
        scales.

    Raises
    ------
    ValueError
        If A is not Hurwitz, or the computed envelope fails its a-posteriori
        verification (defective extreme cases).
    """
    A = np.asarray(A, dtype=float)
    lam = np.linalg.eigvals(A)
    decay = -lam.real.max()
    if decay <= 0:
        raise ValueError("matrix is not Hurwitz; no decay envelope exists")
    if epsilon is None:
        epsilon = 1e-3 * decay
    if epsilon <= 0 or epsilon >= decay:
        raise ValueError("epsilon must lie in (0, min |Re eigenvalue|)")
    sigma = decay - epsilon

    horizon = 40.0 / sigma
    h = horizon / grid_points
    norms = _power_norms(numerics.expm(A, h), grid_points)
    growth = np.array([math.exp(sigma * k * h) for k in range(1, grid_points + 1)])
    m_initial = safety * max(1.0, float((norms * growth).max()))  # 1.0: t = 0

    # a-posteriori check on a finer, shorter grid
    fine = np.linspace(0.0, 20.0 / sigma, 2 * grid_points + 1)
    norms = np.concatenate(([1.0], _power_norms(numerics.expm(A, fine[1] - fine[0]),
                                                2 * grid_points)))
    limit = m_initial * np.array([math.exp(-sigma * t) for t in fine]) * (1 + 1e-9)
    failed = norms > limit
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


def sample_anchor_region(region: AnchorRegion, count: int, seed: int = 0,
                         *, return_stats: bool = False):
    """Draw uniform samples from the region (deterministic under ``seed``).

    The last coordinate is pinned to zero; the remaining n-1 coordinates are
    drawn uniformly in the ball of the region's radius by rejection from the
    bounding cube, then rejected again while the (n-1)-th coordinate is
    below the strip halfwidth.  With ``return_stats=True`` also returns
    ``{"n_ball": ..., "n_kept": ...}`` (in-ball draws and strip survivors),
    whose ratio estimates the cap-volume fraction of the strip cut.

    Raises
    ------
    ValueError
        count < 1, or an empty region (strip at least as wide as the ball).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if region.strip_halfwidth >= region.radius:
        raise ValueError("empty region: strip halfwidth >= ball radius")
    d = region.n - 1
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty((count, region.n))
    got = 0
    n_ball = 0
    n_kept = 0
    while got < count:
        batch = max(count - got, 64)
        pts = rng.uniform(-region.radius, region.radius, size=(batch, d))
        in_ball = np.linalg.norm(pts, axis=1) <= region.radius
        keep = in_ball & (pts[:, -1] >= region.strip_halfwidth)
        n_ball += int(np.sum(in_ball))
        n_kept += int(np.sum(keep))
        pts = pts[keep]
        take = min(len(pts), count - got)
        out[got:got + take, :d] = pts[:take]
        got += take
    out[:, -1] = 0.0
    if return_stats:
        return out, {"n_ball": n_ball, "n_kept": n_kept}
    return out
