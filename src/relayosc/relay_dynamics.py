"""Exact event-driven simulation of the relay feedback loop.

The closed loop is  x' = A x - B sign(C x)  with an ideal relay.  Between
switches the dynamics are affine, so states are propagated in closed form
through the matrix exponential; switching instants are located as first
zeros of the scalar output along the affine flow (forward march plus
Newton refinement on Taylor polynomials, for a block of starts at once),
never by fixed-step integration.

Sign conventions: ``sign=+1`` means the relay output is +1 and the active
field is A x - B; exits from the negative sign reuse the central-symmetry
identities  tau_-(x) = tau_+(-x)  and  psi_-(x) = -psi_+(-x).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .artifacts import json_artifact, write_csv
from .errors import InvalidStartError, NoCrossingError, SlidingError
from .plant import StateSpace

#: |C x| below PLANE_TOL * (1 + ||x||) counts as "on the switching plane".
PLANE_TOL = 1e-10

#: Output-speed magnitudes below this raise the grazing flag.
GRAZE_TOL = 1e-8

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RelayState:
    """Plant state, current relay output, and time."""

    x: np.ndarray
    relay_sign: int
    t: float


@dataclass(frozen=True)
class SwitchEvent:
    """A transversal arrival on the switching plane.

    ``transversal_speed`` is the output derivative under the incoming field,
    C (A x - s B); the crossing is flagged as grazing when its magnitude is
    numerically zero.
    """

    t: float
    x: np.ndarray
    incoming_sign: int
    transversal_speed: float
    grazing_flag: bool


@dataclass
class Trajectory:
    """Piecewise-affine trajectory: per-segment records, the switch events,
    an optional dense sample grid, and the state reached at the end."""

    segments: list[tuple[np.ndarray, float, int]] = field(default_factory=list)
    events: list[SwitchEvent] = field(default_factory=list)
    times: np.ndarray | None = None
    states: np.ndarray | None = None
    relay_signs: np.ndarray | None = None
    certified: bool = True
    final_state: RelayState | None = None


@dataclass(frozen=True)
class SlidingReport:
    """Whether the simulation hit the sliding set (no non-sliding escape)."""

    entered_sliding: bool
    entry_time: float | None = None
    entry_state: np.ndarray | None = None


def _exp_powers(V: np.ndarray, D: np.ndarray, count: int) -> np.ndarray:
    """V (E^j - I) for j = 0..count-1 from D = E - I, for a row vector V or
    a matrix (the identity gives the differences E^j - I), built by doubling
    on (I + D)(I + D') = I + (D + D' + D D').  A power of E near the
    identity computed as such loses about one roundoff per factor; its
    difference from the identity, computed this way, keeps working accuracy.
    Entry j does not depend on ``count``."""
    rows = np.empty((count,) + V.shape)
    rows[0] = 0.0
    filled = 1
    while filled < count:
        m = min(filled, count - filled)
        head = rows[:m] + V @ D
        np.matmul(rows[:m], D, out=rows[filled:filled + m])
        rows[filled:filled + m] += head
        filled += m
        D = D + D + D @ D
    return rows


def _all(mask: np.ndarray) -> bool:
    """Whether every entry of ``mask`` is true, by a count: on the one- or
    few-entry masks of a one-row exit this costs a fraction of the ufunc
    reduction ``mask.all()``."""
    return np.count_nonzero(mask) == mask.size


def _taylor_degree(theta: float) -> int:
    """Degree whose Taylor remainder for e^{M d}, ||M d|| <= theta, is below
    half the unit roundoff: theta^(K+1) / (K+1)! * e^theta."""
    k, term = 0, theta
    while term * math.exp(theta) > 0.5 * np.finfo(float).eps:
        k += 1
        term *= theta / (k + 1)
    return k


class _AffineFlow:
    """Closed-form flow of x' = A x - s B through one augmented exponential.

    z = [s x; 1] evolves under M = [[A, -B], [0, 0]] for either sign (odd
    symmetry: x(t; xi, -1) = -x(t; -xi, +1)); no formula needs A^{-1} or
    eigenvectors, so a pole at the origin is no special case (Van Loan,
    IEEE TAC 1978).  Every e^{M t} is made from one Taylor table of M^k / k!
    within a node interval: ``exp`` at given times, the differences
    e^{M j dt} - I (``_exp_powers``) on evenly spaced grids, and a Taylor
    polynomial within one node interval of a known state (``_Paths``).  The
    march of a block of starts runs on the grid j h: the rows [C 0] e^{M j h}
    give a block of its output values at once, and the leap e^{BLOCK M h}
    moves to the next block.  ``grid_exp`` gives e^{M K h} at any grid point
    from tables of e^{M j h} - I, which keep working accuracy.
    """

    #: Samples per march block.
    BLOCK = 64

    def __init__(self, ss: StateSpace, step: float):
        self.A = np.asarray(ss.A, dtype=float)
        self.B = np.asarray(ss.B, dtype=float)
        self.C = np.asarray(ss.C, dtype=float)
        self.n = n = self.A.shape[0]
        self.M = np.zeros((n + 1, n + 1))
        self.M[:n, :n] = self.A
        self.M[:n, n] = -self.B
        self._c = np.append(self.C, 0.0)
        self._CA, self._CB = self.C @ self.A, float(self.C @ self.B)
        # Taylor nodes: ||M d|| <= 1 in the balanced norm on each interval
        Mb, _ = scipy.linalg.matrix_balance(self.M, permute=False, separate=True)
        theta = float(np.linalg.norm(Mb, 1)) * step
        nodes = max(1, math.ceil(theta))
        self.step, self.node_step = step, step / nodes
        self._halvings = math.ceil(math.log2(nodes))    # from h to a node interval
        terms = [np.eye(n + 1)]
        for k in range(1, max(3, _taylor_degree(1.125 * theta / nodes)) + 1):
            terms.append(terms[-1] @ self.M / k)
        self._taylor = np.stack(terms)            # M^k / k!
        self._powers = k = np.arange(len(terms))
        # coefficients in d of [C 0] e^{M d} and of its first two derivatives
        ck = self._taylor.transpose(0, 2, 1) @ self._c
        dk = np.zeros_like(ck)
        dk[:-1] = ck[1:] * k[1:, None]
        d2k = np.zeros_like(ck)
        d2k[:-2] = ck[2:] * (k[2:] * (k[2:] - 1))[:, None]
        # one table for the coefficients of e^{M d} z, of [C 0] e^{M d} z
        # and of its first two derivatives
        self._expansion = np.vstack((self._taylor.reshape(-1, n + 1), ck, dk, d2k))
        # grid exponentials less the identity, level i holding
        # e^{M d BLOCK^i h} - I for d = 0..BLOCK (levels added on demand)
        self._grid = [_exp_powers(np.eye(n + 1), self._less_identity(step), self.BLOCK + 1)]
        # march: rows [C 0] e^{M j h}, j = 1..BLOCK, and the leap e^{BLOCK M h}
        self._rows = self._c + self._c @ self._grid[0][1:]
        self._leap = np.eye(n + 1) + self._grid[0][self.BLOCK]

    def _less_identity(self, dt, halvings: int | None = None) -> np.ndarray:
        """e^{M dt} - I for a scalar dt, or one per entry of an array dt (each
        entry's Taylor sum one row-times-table product, bit for bit its scalar
        call), never by subtracting the identity from an exponential: the
        Taylor sum at dt / 2^s, within one node interval, doubled s times on
        (I + D)^2 = I + (2 D + D D); s is ``halvings`` when given, else the
        least that brings dt within a node interval."""
        if halvings is None:
            halvings = math.ceil(math.log2(dt / self.node_step)) if dt > self.node_step else 0
        d = np.asarray(dt, dtype=float)[..., None, None] / 2**halvings
        D = (d ** self._powers[1:]) @ self._taylor[1:].reshape(len(self._powers) - 1, -1)
        D = D.reshape(np.shape(dt) + (self.n + 1,) * 2)
        for _ in range(halvings):
            D = D + D + D @ D
        return D

    def exp(self, t) -> np.ndarray:
        """e^{M t} for a scalar t >= 0, or one per entry of an array t: the
        grid exponential e^{M K h} of K = floor(t / h) times e^{M (t - K h)}
        from the Taylor sum at the march step's fixed number of halvings, so
        an entry of an array t equals its scalar call bit for bit.  A t
        below 0 by less than a node interval (an exit at t = 0, landed to
        roundoff) takes K = 0.  Raises OverflowError when the result
        overflows double precision, and ValueError on any other t."""
        t = np.asarray(t, dtype=float)
        K = np.fmax(np.floor(t / self.step), 0.0)
        if not _all((t >= -self.node_step) & (K < 2.0**53)):
            raise ValueError("exp needs a finite t >= 0 below 2^53 march steps")
        with np.errstate(over="ignore", invalid="ignore"):
            E = self.grid_exp(K.astype(int))
            D = self._less_identity(t - K * self.step, self._halvings)
            E = E + E @ D
            if not _all(np.isfinite(E)):
                raise OverflowError("matrix exponential overflow: ||M t|| too large")
        return E

    def grid_exp(self, K: np.ndarray) -> np.ndarray:
        """e^{M K h} for the grid indices K: the product over the base-BLOCK
        digits d_i of K of e^{M d_i BLOCK^i h}, from the tables."""
        K, d = np.divmod(K, self.BLOCK)
        D = self._grid[0][d]
        level = 1
        while np.count_nonzero(K):
            if level == len(self._grid):
                self._grid.append(_exp_powers(np.eye(self.n + 1), self._grid[-1][-1],
                                              self.BLOCK + 1))
            K, d = np.divmod(K, self.BLOCK)
            Dl = self._grid[level][d]
            D = D + Dl + D @ Dl
            level += 1
        return np.eye(self.n + 1) + D

    def lift(self, xi: np.ndarray, s: int) -> np.ndarray:
        """Augmented state [s xi; 1], of each row for a block of states."""
        xi = np.asarray(xi, dtype=float)
        z = np.empty(xi.shape[:-1] + (self.n + 1,))
        np.multiply(xi, s, out=z[..., : self.n])
        z[..., self.n] = 1.0
        return z

    def state(self, xi: np.ndarray, s: int, t) -> np.ndarray:
        """x(t) for scalar t, or one row per time for array t."""
        z = self.exp(t) @ self.lift(xi, s)
        return s * z[..., : self.n]

    def grid(self, xi: np.ndarray, s: int, dt: float, count: int) -> np.ndarray:
        """States at t = j dt, j = 0..count-1, from the differences
        e^{M j dt} - I."""
        z = self.lift(xi, s)
        Z = _exp_powers(z, self._less_identity(dt).T, count)
        Z += z
        return s * Z[:, : self.n]

    def output_speed(self, x: np.ndarray, s: int):
        """Output derivative C (A x - s B) under relay sign s, of a state or
        of each row of a block."""
        x = np.asarray(x, dtype=float)
        return (x[..., None, :] @ self._CA[:, None])[..., 0, 0] - s * self._CB


class _Paths:
    """Trajectories of x' = A x - s B from the rows of a block of augmented
    starts Z = [s xi; 1]; row i gives s C x(t) and s x(t) as

        e^{M t} z_i = e^{M t0_i} sum_k (M^k / k!) (t - t0_i)^k z_i

    about a node t0_i of its own, a multiple of the node step, from the
    node's exponential e^{M t0_i} (``node``).  A row gets a new node only
    when its time leaves the node interval, and its exponential from
    ``_AffineFlow.exp``.
    """

    def __init__(self, flow: _AffineFlow, Z: np.ndarray, t0: np.ndarray,
                 node: np.ndarray):
        self.flow = flow
        self.Z = Z
        self.t0 = np.array(t0, dtype=float)
        self.zk, self.yd = self._expand(node, Z)

    def _expand(self, node: np.ndarray, Z: np.ndarray):
        """The Taylor coefficients of s x, and of s C x and its first two
        derivatives, about the nodes' states e^{M t0} z."""
        flow = self.flow
        coef = flow._expansion @ (node @ Z[:, :, None])
        K = len(flow._powers)
        split = K * (flow.n + 1)
        return (coef[:, :split].reshape(len(Z), K, flow.n + 1),
                coef[:, split:].reshape(len(Z), 3, K))

    def follow(self, t: np.ndarray) -> None:
        """Move the rows whose times t left their node intervals to the
        nodes of those times."""
        h = self.flow.node_step
        off = np.abs(t - self.t0 - 0.5 * h) > 0.625 * h
        if np.count_nonzero(off):
            away = off.nonzero()[0]
            self.t0[away] = np.floor(t[away] / h + 1e-6) * h
            self.zk[away], self.yd[away] = self._expand(self.flow.exp(self.t0[away]),
                                                        self.Z[away])

    def _offsets(self, t: np.ndarray) -> np.ndarray:
        """Powers (t - t0)^k of the node offsets."""
        return (t - self.t0)[:, None] ** self.flow._powers

    def output(self, t: np.ndarray):
        """s C x(t) and its first two time derivatives, for times within
        the rows' node intervals."""
        fd = self.yd @ self._offsets(t)[:, :, None]
        return fd[:, 0, 0], fd[:, 1, 0], fd[:, 2, 0]

    def state(self, t: np.ndarray) -> np.ndarray:
        """s x(t), for times within the rows' node intervals."""
        return (self._offsets(t)[:, None, :] @ self.zk)[:, 0, : self.flow.n]


#: Outcome of one row of ``RelaySystem.exit_events``: the output crossed
#: zero (a start leaving the sign region at once exits at tau = 0), it did
#: not cross before the horizon, or the start is on the wrong side of the
#: plane for the relay sign.
EXITED, QUIESCENT, WRONG_SIDE = 0, 1, 2

#: Output level that a march started within it must first rise above.
F_TOL = 1e-12


class Exits:
    """First exits of a block of starts under one relay sign, one row each.

    ``tau``, ``x`` and ``speed`` hold the exit time, the landing state on the
    plane and the transversal speed C (A x - s B) there, and are nan on the
    rows whose ``status`` is not EXITED.  ``error(i)`` is the exception a
    one-row call raises for row i.  The flow at the exit times is
    ``RelaySystem.flow.exp(tau)``.
    """

    def __init__(self, sign, horizon, f0, status, rows, tau, x, speed):
        self.sign = sign
        self.horizon = horizon
        self._f0 = f0                              # s C xi
        self.status = status
        self.tau, self.x, self.speed = tau, x, speed
        if len(tau) < len(status):
            m = len(status)
            self.tau = np.full(m, np.nan)
            self.x = np.full((m, x.shape[1]), np.nan)
            self.speed = np.full(m, np.nan)
            self.tau[rows], self.x[rows], self.speed[rows] = tau, x, speed

    def error(self, i: int) -> Exception | None:
        """The error a one-row call raises for row ``i``; None if it exits."""
        if self.status[i] == WRONG_SIDE:
            return InvalidStartError(f"start output {self.sign * self._f0[i]:g} is on "
                                     f"the wrong side for sign {self.sign:+d}")
        if self.status[i] == QUIESCENT:
            return NoCrossingError(
                f"quiescent: output does not cross zero within {self.horizon:g} "
                "time units (plant is not restless from this state)")
        return None


class RelaySystem:
    """Relay feedback loop around a realized plant.

    Precomputes the affine-flow machinery once (augmented matrix, march
    rows for ``step_hint``, grid exponential and Taylor tables), so that a
    block of exits needs no matrix exponential of its own: the march runs
    on powers of e^{M h}, and the Newton refinement and the landing states
    use Taylor expansions about the brackets' left ends, whose exponentials
    come from the tables.

    Parameters
    ----------
    ss : StateSpace
        Observer-canonical realization of the plant.
    step_hint : float, optional
        Marching step for crossing detection; the default is t_max / 1e4.
        For a relative-degree-one plant the minimum inter-switch bound of
        ``bounds.bounds_report`` would be a valid march step, but no caller
        passes it yet.
    t_max : float, optional
        Default search horizon for exit times; defaults to 50 slow time
        constants (50 / min |Re eigenvalue|) for a stable plant, which the
        finiteness of exit times makes a generous certificate horizon.
    """

    def __init__(self, ss: StateSpace, *, step_hint: float | None = None,
                 t_max: float | None = None):
        self.ss = ss
        if t_max is None:
            lam = np.linalg.eigvals(ss.A)
            t_max = 50.0 / min(abs(lam.real)) if lam.real.max() < 0.0 else 100.0
        self.t_max = float(t_max)
        self.step_hint = float(step_hint) if step_hint is not None else self.t_max / 1e4
        self.flow = _AffineFlow(ss, self.step_hint)

    # -- exit computations ---------------------------------------------------
    def exit_events(self, X: np.ndarray, sign: int = +1,
                    t_max: float | None = None) -> Exits:
        """First exits of the starts in the rows of ``X`` (m, n) under relay
        sign ``sign``, all at once.

        Each row needs sign * C xi >= 0 (a start up to 1e-3 (1 + |xi|) past
        the plane is accepted: the analytic continuation of its crossing time
        exists, and finite-difference probes of the exit map rely on it).  A
        start on the plane whose flow leaves the sign region transversally
        exits at tau = 0.  Every other row marches on the grid j h
        (h = ``step_hint``) up to the horizon to its first sign change of
        s C x(t); a start within ``F_TOL`` of the plane must first rise
        above it, unless its output drops below -``F_TOL`` at once.  The
        brackets are refined together by safeguarded Newton steps on the
        Taylor polynomials (``_refine``), whose last step leaves the
        residual output at roundoff level rather than at the refinement
        tolerance; this prevents drift over thousands of switches.
        """
        s = int(sign)
        if s not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        flow = self.flow
        X = np.asarray(X, dtype=float)
        if X.ndim < 2:
            X = X.reshape(1, -1)
        if not _all(np.isfinite(X)):
            raise ValueError("non-finite function value at t_start")
        horizon = float(t_max) if t_max is not None else self.t_max
        Z = flow.lift(X, s)
        f0 = Z @ flow._c                           # s C xi
        scale = 1.0 + np.sqrt(np.add.reduce(X * X, axis=1))
        march = f0 > PLANE_TOL * scale
        wrong = None
        if not _all(march):
            # a start past the plane by less than 1e-3 (1 + |xi|) marches
            # too; one on it marches unless its flow leaves the sign region
            # transversally, when it exits at once
            wrong = f0 < -1e-3 * scale
            march |= ~wrong & ((f0 < -PLANE_TOL * scale)
                               | (s * flow.output_speed(X, s) >= -GRAZE_TOL))
        K, f_lo, found = self._brackets(Z, f0, march, horizon)
        status = np.where(found, EXITED, QUIESCENT)
        if wrong is not None:
            status[wrong] = WRONG_SIDE
        rows = slice(None)
        exited = status == EXITED
        if not _all(exited):
            rows = exited.nonzero()[0]
            Z, K, f_lo = Z[rows], K[rows], f_lo[rows]
        lo = self.step_hint * K
        hi = self.step_hint * (K + 1)
        paths = _Paths(flow, Z, lo, flow.grid_exp(K))   # nodes at the brackets' left ends
        cross = f_lo > 0.0
        if not _all(cross):
            # a start that exits at once, and a bracket that is none (a start
            # within F_TOL of the plane dropping below -F_TOL at once), keep
            # to their node intervals
            lo = np.where(cross, lo, paths.t0 - 0.125 * flow.node_step)
            hi = np.where(cross, hi, paths.t0 + 1.125 * flow.node_step)
        t = self._refine(paths, lo, hi)
        x = s * paths.state(t)
        return Exits(s, horizon, f0, status, rows, t, x, flow.output_speed(x, s))

    def _brackets(self, Z: np.ndarray, f0: np.ndarray, march: np.ndarray,
                  horizon: float):
        """First brackets [K h, (K + 1) h] of a zero of [C 0] e^{M t} z on
        the grid t = j h, j = 1, 2, ..., for the rows z of Z marked
        ``march``, from their values f0 at t = 0: (K, f(K h), found), where
        ``found`` is false on the rows without a crossing before the
        horizon, and K = 0, f = f0 on the unmarked rows."""
        K = np.zeros(len(f0), dtype=int)
        f_lo = f0.copy()
        found = ~march
        rows = march.nonzero()[0]          # the rows still marching
        if not rows.size:
            return K, f_lo, found
        if horizon <= 0.0:
            raise ValueError("t_max must exceed t_start")
        h = self.step_hint
        if h <= 0:
            raise ValueError("step_hint must be positive")
        prev = f0[rows]                    # and their values at grid point j
        flow = self.flow
        # grid points up to the horizon: the last j with j h <= horizon
        last = int(horizon // h)
        while h * (last + 1) <= horizon:
            last += 1
        while last > 0 and h * last > horizon:
            last -= 1
        Zt = Z[rows].T
        armed = prev > F_TOL
        lifting = not _all(armed)
        at_once = prev >= -F_TOL
        j = 0
        while j < last:
            count = min(flow.BLOCK, last - j)
            vals = flow._rows[:count] @ Zt
            # the block's least value, or its first nan
            if lifting or not vals.flat[vals.argmin()] > 0.0:
                if not _all(np.isfinite(vals)):
                    raise ValueError("non-finite function value during marching")
                if lifting:
                    up = np.logical_or.accumulate(vals > F_TOL, axis=0) | armed
                    hit = np.where(np.concatenate((armed[None], up[:-1])), vals <= 0.0,
                                   at_once & (vals < -F_TOL))
                    armed = up[-1]
                    lifting = not _all(armed)
                else:
                    hit = vals <= 0.0
                got = hit.any(axis=0)
                cols = got.nonzero()[0]
                if cols.size:
                    k = hit[:, cols].argmax(axis=0)
                    r = rows[cols]
                    K[r] = j + k
                    f_lo[r] = np.concatenate((prev[None], vals))[k, cols]
                    found[r] = True
                    if len(cols) == len(rows):
                        break
                    keep = ~got
                    rows, Zt, vals = rows[keep], Zt[:, keep], vals[:, keep]
                    armed, at_once = armed[keep], at_once[keep]
            prev = vals[-1]
            j += count
            Zt = flow._leap @ Zt
        return K, f_lo, found

    def _refine(self, paths: _Paths, lo: np.ndarray, hi: np.ndarray,
                max_iter: int = 100) -> np.ndarray:
        """Zeros of s C x on the brackets [lo, hi] by safeguarded Newton
        steps, from the cubic series reversion of each row's Taylor
        polynomial about its node (clipped to the bracket); a step that
        leaves its bracket is replaced by bisection.  A row stops after a
        step below 1e-12 max(1, t), or after one that leaves a Newton error
        estimate |f'' / (2 f')| step^2 below the roundoff of t, and takes
        that last step, clipped to its bracket.  A stopped row stays put
        while the others go on, so a row's result does not depend on the
        block.  With one node interval per march step a bracket lies in
        the node interval of its left end; with more, the rows follow their
        times from node to node."""
        follow = self.flow.node_step < self.step_hint
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = paths.yd[:, 0, :4] / paths.yd[:, 0, 1:2]   # y_k / y_1
            w, a2 = -q[:, 0], q[:, 2]
            t = paths.t0 + w * (1.0 + w * (w * (2.0 * a2 * a2 - q[:, 3]) - a2))
            t = np.fmax(lo, np.fmin(t, hi))
            tol = 1e-12 * np.maximum(1.0, hi)
            floor = (2.0 * _EPS) * hi + 0.5e-15
            stop = np.zeros(len(t), dtype=bool)    # the rows past their last step
            for _ in range(max_iter):
                if follow:
                    paths.follow(t)
                f, df, d2f = paths.output(t)
                above = f > 0.0
                lo = np.where(above, t, lo)
                hi = np.where(above, hi, t)
                step = f / df
                nxt = t - step
                size = np.abs(step)
                last = (size <= tol) | (np.abs(d2f * step) * size <= floor * np.abs(df))
                inside = (nxt >= lo) & (nxt <= hi)
                if not _all(inside):
                    nxt = np.where(inside | last, np.clip(nxt, lo, hi), 0.5 * (lo + hi))
                t = np.where(stop, t, nxt)
                stop |= last
                if _all(stop):
                    break
        if follow:
            paths.follow(t)
        return t

    def exit_time(self, xi: np.ndarray, sign: int = +1,
                  t_max: float | None = None) -> float:
        """First time the output crosses zero under fixed relay sign.

        The start must satisfy sign * C xi >= 0 (on-plane starts must depart
        consistently).  Raises NoCrossingError("quiescent ...") when the
        output never crosses before the horizon, which cannot happen for a
        stable plant with positive DC gain.
        """
        return float(self._exit(xi, sign, t_max).tau[0])

    def _exit(self, xi, sign, t_max) -> Exits:
        """The one-row block of ``xi``; raises when it has no exit."""
        exits = self.exit_events(xi, sign, t_max)
        error = exits.error(0)
        if error is not None:
            raise error
        return exits

    def exit_event(self, xi: np.ndarray, sign: int = +1,
                   t_max: float | None = None):
        """Exit time, landing state, and the corresponding SwitchEvent: the
        one-row call of ``exit_events``."""
        exits = self._exit(xi, sign, t_max)
        tau = float(exits.tau[0])
        x_land = exits.x[0]
        speed = float(exits.speed[0])
        event = SwitchEvent(t=tau, x=x_land, incoming_sign=exits.sign,
                            transversal_speed=speed, grazing_flag=abs(speed) <= GRAZE_TOL)
        return tau, x_land, event

    def exit_map(self, xi: np.ndarray, sign: int = +1) -> np.ndarray:
        """Landing state on the switching plane: psi(xi; 1) under ``sign``."""
        _, x_land, _ = self.exit_event(xi, sign)
        return x_land

    def kth_exit_map(self, xi: np.ndarray, k: int,
                     collect_events: bool = False):
        """k-fold exit map with alternating sign flips.

        psi(x; k) = psi(-psi(x; k-1); 1), evaluated with the positive-sign
        flow throughout via the central symmetry of the loop.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        x = np.asarray(xi, dtype=float)
        events: list[SwitchEvent] = []
        for j in range(k):
            try:
                _, x, ev = self.exit_event(x, +1)
            except (NoCrossingError, InvalidStartError) as exc:
                raise NoCrossingError(
                    f"iterate {j + 1} of {k} failed: {exc}") from exc
            events.append(ev)
            if j < k - 1:
                x = -x
        if collect_events:
            return x, events
        return x

    # -- relay sign selection on the plane ------------------------------------
    def _select_sign_on_plane(self, x: np.ndarray):
        """Non-sliding relay output at an on-plane state.

        Returns the sign, or raises SlidingError when both fields aim at the
        plane (possible only when C B > 0).  When both fields depart (the
        repelling strip |x_{n-1}| < |C B|), +1 is chosen deterministically.
        """
        if self.flow.output_speed(x, +1) >= 0.0:     # y' under relay output +1
            return +1
        if self.flow.output_speed(x, -1) <= 0.0:     # y' under relay output -1
            return -1
        raise SlidingError("sliding set reached: both vector fields point "
                           "at the switching plane")

    # -- full simulation -------------------------------------------------------
    def simulate(self, x0: np.ndarray, t_end: float, *,
                 dense_dt: float | None = None,
                 max_switches: int = 1_000_000) -> tuple[Trajectory, SlidingReport]:
        """Simulate the relay loop from ``x0`` for ``t_end`` time units.

        Propagation between switches is exact (matrix exponential); switch
        states are appended as events.  If the state reaches the sliding set
        where no non-sliding continuation exists, the trajectory stops there
        and the SlidingReport says so.  Grazing arrivals mark the trajectory
        as non-certified but the simulation continues.  A departure from the
        plane that returns to it within one march step (switches piling up
        faster than ``step_hint`` resolves, as on the way to a Zeno point)
        stops the trajectory on the plane, non-certified, with
        ``final_state`` set there.
        """
        if t_end <= 0:
            raise ValueError("t_end must be positive")
        x = np.asarray(x0, dtype=float).copy()
        t = 0.0
        traj = Trajectory()
        sliding = SlidingReport(False)

        dense_t: list[np.ndarray] = []
        dense_x: list[np.ndarray] = []
        dense_u: list[np.ndarray] = []

        y0 = float(self.flow.C @ x)
        scale = 1.0 + float(np.linalg.norm(x))
        departing = abs(y0) <= PLANE_TOL * scale
        if departing:
            try:
                sign = self._select_sign_on_plane(x)
            except SlidingError:
                return traj, SlidingReport(True, 0.0, x)
        else:
            sign = +1 if y0 > 0 else -1

        while t < t_end and len(traj.events) < max_switches:
            remaining = t_end - t
            try:
                tau, x_land, ev = self.exit_event(x, sign, t_max=self.t_max)
            except NoCrossingError:
                tau, x_land, ev = np.inf, None, None

            if departing and tau < min(self.step_hint, remaining):
                traj.certified = False
                traj.final_state = RelayState(x, sign, t)
                break
            seg_len = min(tau, remaining)
            if dense_dt is not None:
                m = max(int(np.ceil(seg_len / dense_dt)), 1)
                dense_t.append(t + np.linspace(0.0, seg_len, m + 1))
                dense_x.append(self.flow.grid(x, sign, seg_len / m, m + 1))
                dense_u.append(np.full(m + 1, sign, dtype=float))

            traj.segments.append((x, seg_len, sign))
            if tau >= remaining:
                traj.final_state = RelayState(self.flow.state(x, sign, remaining),
                                              sign, t_end)
                break

            t += tau
            x = x_land
            traj.events.append(SwitchEvent(t=t, x=x, incoming_sign=ev.incoming_sign,
                                           transversal_speed=ev.transversal_speed,
                                           grazing_flag=ev.grazing_flag))
            if ev.grazing_flag:
                traj.certified = False
            try:
                sign = self._select_sign_on_plane(x)
            except SlidingError:
                sliding = SlidingReport(True, t, x)
                break
            departing = True
            if len(traj.events) >= max_switches:
                traj.final_state = RelayState(x, sign, t)

        if dense_dt is not None and dense_t:
            traj.times = np.concatenate(dense_t)
            traj.states = np.concatenate(dense_x)
            traj.relay_signs = np.concatenate(dense_u)
        return traj, sliding


# ---------------------------------------------------------------------------
# module-level operation wrappers


def system_for(ss: StateSpace, step_hint: float | None = None) -> RelaySystem:
    """The ``RelaySystem`` of a plant with the default horizon, built once
    per plant content and ``step_hint`` and then shared: construction
    (march rows, balancing, Taylor tables) costs more than one exit."""
    A, B, C = (np.asarray(v, dtype=float) for v in (ss.A, ss.B, ss.C))
    return _cached_system(A.tobytes(), B.tobytes(), C.tobytes(), ss.n,
                          None if step_hint is None else float(step_hint))


@functools.lru_cache(maxsize=16)
def _cached_system(A: bytes, B: bytes, C: bytes, n: int,
                   step_hint: float | None) -> RelaySystem:
    ss = StateSpace(np.frombuffer(A).reshape(n, n), np.frombuffer(B), np.frombuffer(C))
    return RelaySystem(ss, step_hint=step_hint)


def exit_time(ss: StateSpace, xi, sign: int = +1, t_max: float | None = None,
              step_hint: float | None = None) -> float:
    """First exit time from ``sign`` for the plant ``ss`` started at ``xi``."""
    return system_for(ss, step_hint).exit_time(xi, sign, t_max)


def exit_map(ss: StateSpace, xi, sign: int = +1,
             step_hint: float | None = None) -> np.ndarray:
    """First exit map from ``sign``: the landing state on the plane."""
    return system_for(ss, step_hint).exit_map(xi, sign)


def kth_exit_map(ss: StateSpace, xi, k: int, collect_events: bool = False,
                 step_hint: float | None = None):
    """k-th exit map with the alternating sign recursion."""
    return system_for(ss, step_hint).kth_exit_map(xi, k, collect_events)


def simulate(ss: StateSpace, x0, t_end: float, *, dense_dt: float | None = None,
             step_hint: float | None = None,
             max_switches: int = 1_000_000) -> tuple[Trajectory, SlidingReport]:
    """Event-driven simulation of the relay loop (see RelaySystem.simulate)."""
    return system_for(ss, step_hint).simulate(
        x0, t_end, dense_dt=dense_dt, max_switches=max_switches)


# ---------------------------------------------------------------------------
# export helpers


def trajectory_to_csv(traj: Trajectory, path, *, version: str = "") -> None:
    """Write the dense samples as CSV: t, x_1..x_n, u, is_switch."""
    if traj.times is None:
        raise ValueError("trajectory has no dense samples; simulate with dense_dt")
    # a switch instant ends one segment's samples and starts the next's, at
    # exactly the event time
    is_switch = np.isin(traj.times, [ev.t for ev in traj.events])
    write_csv(path, version, "units: t in seconds, x dimensionless",
              ["t"] + [f"x_{i+1}" for i in range(traj.states.shape[1])] + ["u", "is_switch"],
              [traj.times, *traj.states.T, traj.relay_signs, is_switch])


def events_to_json(traj: Trajectory, sliding: SlidingReport, *, version: str = "") -> str:
    """Serialize the switch-event log (and sliding report) to JSON."""
    return json_artifact({"certified": traj.certified,
                          "events": [vars(ev) for ev in traj.events],
                          "sliding": vars(sliding)}, version)
