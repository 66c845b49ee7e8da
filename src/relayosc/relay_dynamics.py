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

#: Output-speed magnitudes at or below this count as zero: a grazing exit,
#: a non-transversal return-map point, a degenerate orbit switch.
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


class _Paths:
    """Trajectories of x' = A x - s B from the rows of a block of augmented
    starts Z = [s xi; 1]; row i gives s C x(t) - ``level`` and s x(t) as

        e^{M t} z_i = e^{M t0_i} sum_k (M^k / k!) (t - t0_i)^k z_i

    about a node t0_i of its own, a multiple of the node step, from the
    node's exponential e^{M t0_i} (``node``).  A row gets a new node only
    when its time leaves the node interval, and its exponential from
    ``RelaySystem.exp``.
    """

    def __init__(self, system: RelaySystem, Z: np.ndarray, t0: np.ndarray,
                 node: np.ndarray, level: float):
        self.system = system
        self.Z = Z
        self.level = level
        self.t0 = np.array(t0, dtype=float)
        self.zk, self.yd = self._expand(node, Z)

    def _expand(self, node: np.ndarray, Z: np.ndarray):
        """The Taylor coefficients of s x, and of s C x - level and its first
        two derivatives, about the nodes' states e^{M t0} z."""
        system = self.system
        coef = system._expansion @ (node @ Z[:, :, None])
        K = len(system._powers)
        split = K * (system.n + 1)
        if self.level:
            coef[:, split] -= self.level
        return (coef[:, :split].reshape(len(Z), K, system.n + 1),
                coef[:, split:].reshape(len(Z), 3, K))

    def follow(self, t: np.ndarray) -> None:
        """Move the rows whose times t left their node intervals to the
        nodes of those times."""
        h = self.system.node_step
        off = np.abs(t - self.t0 - 0.5 * h) > 0.625 * h
        if np.count_nonzero(off):
            away = off.nonzero()[0]
            self.t0[away] = np.floor(t[away] / h + 1e-6) * h
            self.zk[away], self.yd[away] = self._expand(self.system.exp(self.t0[away]),
                                                        self.Z[away])

    def _offsets(self, t: np.ndarray) -> np.ndarray:
        """Powers (t - t0)^k of the node offsets."""
        return (t - self.t0)[:, None] ** self.system._powers

    def output(self, t: np.ndarray):
        """s C x(t) - level and its first two time derivatives, for times
        within the rows' node intervals."""
        fd = self.yd @ self._offsets(t)[:, :, None]
        return fd[:, 0, 0], fd[:, 1, 0], fd[:, 2, 0]

    def state(self, t: np.ndarray) -> np.ndarray:
        """s x(t), for times within the rows' node intervals."""
        return (self._offsets(t)[:, None, :] @ self.zk)[:, 0, : self.system.n]


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
    ``RelaySystem.exp(tau)``.
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
    """Relay feedback loop around a realized plant: the closed-form flow of
    x' = A x - s B under either relay sign, and its first exits.

    z = [s x; 1] evolves under M = [[A, -B], [0, 0]] for either sign (odd
    symmetry: x(t; xi, -1) = -x(t; -xi, +1)); no formula needs A^{-1} or
    eigenvectors, so a pole at the origin is no special case (Van Loan,
    IEEE TAC 1978).  Construction builds one Taylor table of M^k / k! within
    a node interval, and every e^{M t} is made from it: ``exp`` at given
    times, the differences e^{M j dt} - I (``_exp_powers``) on evenly spaced
    grids, and a Taylor polynomial within one node interval of a known state
    (``_Paths``).  The march of a block of starts runs on the grid j h,
    h = ``step_hint``: the rows [C 0] e^{M j h} give ``march_steps(r)``
    output values of each of its r columns at once, and the leap
    e^{M march_steps(r) h} moves to the next block.  ``grid_exp`` gives
    e^{M K h} at any grid point from tables of e^{M j h} - I, which keep
    working accuracy.  A block of exits thus needs no matrix exponential of
    its own: the Newton refinement and the landing states use Taylor
    expansions about the brackets' left ends, whose exponentials come from
    the tables.  Every exit and simulation of the system uses its horizon
    and march step, each finite and positive (else ValueError).

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
        Search horizon for exit times; defaults to 50 slow time constants
        (50 / min |Re eigenvalue|) for a stable plant, which the finiteness
        of exit times makes a generous certificate horizon.
    """

    #: Base of the grid tables, and the fewest steps in a march block.
    BLOCK = 64
    #: Output values per march block, shared among the columns still marching.
    MARCH_WORK = 2048

    def __init__(self, ss: StateSpace, *, step_hint: float | None = None,
                 t_max: float | None = None):
        self.ss = ss
        if t_max is None:
            lam = np.linalg.eigvals(ss.A)
            t_max = 50.0 / min(abs(lam.real)) if lam.real.max() < 0.0 else 100.0
        self.t_max = float(t_max)
        self.step_hint = step = float(step_hint) if step_hint is not None else self.t_max / 1e4
        for name, value in (("t_max", self.t_max), ("step_hint", self.step_hint)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        A, B = (np.asarray(v, dtype=float) for v in (ss.A, ss.B))
        self.C = np.asarray(ss.C, dtype=float)
        self.n = n = A.shape[0]
        self.M = np.zeros((n + 1, n + 1))
        self.M[:n, :n] = A
        self.M[:n, n] = -B
        self._c = np.append(self.C, 0.0)
        self._CA, self._CB = self.C @ A, float(self.C @ B)
        # Taylor nodes: ||M d|| <= 1 in the balanced norm on each interval
        Mb, _ = scipy.linalg.matrix_balance(self.M, permute=False, separate=True)
        theta = float(np.linalg.norm(Mb, 1)) * step
        nodes = max(1, math.ceil(theta))
        self.node_step = step / nodes
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
        self._eye = np.eye(n + 1)
        # e^{M j h} - I for j = 0..4 BLOCK; its first BLOCK + 1 entries are
        # level 0 of the grid exponentials, level i holding
        # e^{M d BLOCK^i h} - I for d = 0..BLOCK (levels added on demand)
        steps = _exp_powers(self._eye, self._less_identity(step), 4 * self.BLOCK + 1)
        self._grid = [steps[: self.BLOCK + 1].copy()]
        # march: rows [C 0] e^{M j h}, j = 1..4 BLOCK, and the leaps
        # e^{M j h} of the block lengths j that march_steps gives
        self._rows = self._c + self._c @ steps[1:]
        self._leaps = {j: self._eye + steps[j] for j in
                       map(self.march_steps, range(1, self.MARCH_WORK // self.BLOCK + 1))}
        # the march's last grid point: the last j with j h <= t_max
        last = int(self.t_max // self.step_hint)
        while self.step_hint * (last + 1) <= self.t_max:
            last += 1
        while last > 0 and self.step_hint * last > self.t_max:
            last -= 1
        self._last = last

    # -- the flow -------------------------------------------------------------
    def march_steps(self, columns: int) -> int:
        """Grid steps of a march block of ``columns`` starts: MARCH_WORK
        values shared among them, between BLOCK and 4 BLOCK steps."""
        return min(max(self.MARCH_WORK // columns, self.BLOCK), 4 * self.BLOCK)

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
        K = np.fmax(np.floor(t / self.step_hint), 0.0)
        if not _all((t >= -self.node_step) & (K < 2.0**53)):
            raise ValueError("exp needs a finite t >= 0 below 2^53 march steps")
        with np.errstate(over="ignore", invalid="ignore"):
            E = self.grid_exp(K.astype(int))
            D = self._less_identity(t - K * self.step_hint, self._halvings)
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
                self._grid.append(_exp_powers(self._eye, self._grid[-1][-1], self.BLOCK + 1))
            K, d = np.divmod(K, self.BLOCK)
            Dl = self._grid[level][d]
            D = D + Dl + D @ Dl
            level += 1
        return self._eye + D

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

    # -- exit computations ---------------------------------------------------
    def exit_events(self, X: np.ndarray, sign: int = +1, *, level: float = 0.0) -> Exits:
        """First exits of the starts in the rows of ``X`` (m, n) under relay
        sign ``sign``, all at once: the first zeros of s C x(t) - ``level``.

        Each row needs sign * C xi >= 0 (a start up to 1e-3 (1 + |xi|) past
        the plane is accepted: the analytic continuation of its crossing time
        exists, and finite-difference probes of the exit map rely on it), and
        a finite 1 + |xi| (else ValueError, for the whole block).  A
        start on the plane whose flow leaves the sign region transversally
        exits at tau = 0.  Every other row marches on the grid j h
        (h = ``step_hint``) up to the horizon ``t_max`` to its first sign
        change of s C x(t); a start within ``F_TOL`` of the plane must first
        rise above it, unless its output drops below -``F_TOL`` at once.  The
        brackets are refined together by safeguarded Newton steps on the
        Taylor polynomials (``_refine``), whose last step leaves the
        residual output at roundoff level rather than at the refinement
        tolerance; this prevents drift over thousands of switches.

        A nonzero ``level`` puts the plane at s C x = level, the output row
        [C, -level] on the augmented state (the edge of the smooth loop's
        tanh layer, in ``limit_cycle``); every test above then reads s C x -
        level for s C x.  ``level=0`` runs no extra operation, so the relay
        exits are unchanged bit for bit.
        """
        s = int(sign)
        if s not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        X = np.asarray(X, dtype=float)
        if X.ndim < 2:
            X = X.reshape(1, -1)
        with np.errstate(over="ignore"):
            scale = 1.0 + np.sqrt(np.add.reduce(X * X, axis=1))
        if not _all(np.isfinite(scale)):
            raise ValueError("start state is not finite, or its norm overflows")
        Z = self.lift(X, s)
        f0 = Z @ self._c                           # s C xi
        if level:
            f0 = f0 - level
        march = f0 > PLANE_TOL * scale
        wrong = None
        if not _all(march):
            # a start past the plane by less than 1e-3 (1 + |xi|) marches
            # too; one on it marches unless its flow leaves the sign region
            # transversally, when it exits at once
            wrong = f0 < -1e-3 * scale
            march |= ~wrong & ((f0 < -PLANE_TOL * scale)
                               | (s * self.output_speed(X, s) >= -GRAZE_TOL))
        K, f_lo, found = self._brackets(Z, f0, march, level)
        exited = found if wrong is None else found & ~wrong
        status = np.zeros(len(f0), dtype=int)      # EXITED
        rows = slice(None)
        if not _all(exited):
            status[~found] = QUIESCENT
            if wrong is not None:
                status[wrong] = WRONG_SIDE
            rows = exited.nonzero()[0]
            Z, K, f_lo = Z[rows], K[rows], f_lo[rows]
        lo = self.step_hint * K
        hi = self.step_hint * (K + 1)
        # nodes at the brackets' left ends
        paths = _Paths(self, Z, lo, self.grid_exp(K), level)
        cross = f_lo > 0.0
        if not _all(cross):
            # a start that exits at once, and a bracket that is none (a start
            # within F_TOL of the plane dropping below -F_TOL at once), keep
            # to their node intervals
            lo = np.where(cross, lo, paths.t0 - 0.125 * self.node_step)
            hi = np.where(cross, hi, paths.t0 + 1.125 * self.node_step)
        t = self._refine(paths, lo, hi)
        x = s * paths.state(t)
        return Exits(s, self.t_max, f0, status, rows, t, x, self.output_speed(x, s))

    def _brackets(self, Z: np.ndarray, f0: np.ndarray, march: np.ndarray, level: float):
        """First brackets [K h, (K + 1) h] of a zero of [C, -level] e^{M t} z
        on the grid t = j h, j = 1, 2, ..., for the rows z of Z marked
        ``march``, from their values f0 at t = 0: (K, f(K h), found), where
        ``found`` is false on the rows without a crossing before the
        horizon, and K = 0, f = f0 on the unmarked rows.  Each block takes
        ``march_steps(r)`` grid steps of the r rows still marching, so a
        lone row marches 4 BLOCK steps at a time and a block of hundreds
        BLOCK; K depends only on the signs of the values against 0 and
        F_TOL, not on the block lengths."""
        K = np.zeros(len(f0), dtype=int)
        f_lo = f0.copy()
        found = ~march
        rows = march.nonzero()[0]          # the rows still marching
        if not rows.size:
            return K, f_lo, found
        prev = f0[rows]                    # and their values at grid point j
        last = self._last
        Zt = Z[rows].T
        armed = prev > F_TOL
        lifting = not _all(armed)
        at_once = prev >= -F_TOL
        j = 0
        while j < last:
            count = min(self.march_steps(len(rows)), last - j)
            vals = self._rows[:count] @ Zt
            if level:
                vals -= level
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
            if j < last:
                Zt = self._leaps[count] @ Zt
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
        follow = self.node_step < self.step_hint
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

    def exit_time(self, xi: np.ndarray, sign: int = +1) -> float:
        """First time the output crosses zero under fixed relay sign.

        The start must satisfy sign * C xi >= 0 (on-plane starts must depart
        consistently).  Raises NoCrossingError("quiescent ...") when the
        output never crosses before the horizon, which cannot happen for a
        stable plant with positive DC gain.
        """
        return float(self._exit(xi, sign).tau[0])

    def _exit(self, xi, sign) -> Exits:
        """The one-row block of ``xi``; raises when it has no exit."""
        exits = self.exit_events(xi, sign)
        error = exits.error(0)
        if error is not None:
            raise error
        return exits

    def exit_event(self, xi: np.ndarray, sign: int = +1):
        """Exit time, landing state, and the corresponding SwitchEvent: the
        one-row call of ``exit_events``."""
        exits = self._exit(xi, sign)
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

    def kth_exit_map(self, xi: np.ndarray, k: int) -> np.ndarray:
        """k-fold exit map with alternating sign flips.

        psi(x; k) = psi(-psi(x; k-1); 1), evaluated with the positive-sign
        flow throughout via the central symmetry of the loop.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        x = np.asarray(xi, dtype=float)
        for j in range(k):
            try:
                _, x, _ = self.exit_event(x, +1)
            except (NoCrossingError, InvalidStartError) as exc:
                raise NoCrossingError(
                    f"iterate {j + 1} of {k} failed: {exc}") from exc
            if j < k - 1:
                x = -x
        return x

    # -- relay sign selection on the plane ------------------------------------
    def _select_sign_on_plane(self, x: np.ndarray):
        """Non-sliding relay output at an on-plane state.

        Returns the sign, or raises SlidingError when both fields aim at the
        plane (possible only when C B > 0).  When both fields depart (the
        repelling strip |x_{n-1}| < |C B|), +1 is chosen deterministically.
        """
        cax = self.output_speed(x, 0)           # C A x
        if cax - self._CB >= 0.0:               # y' under relay output +1
            return +1
        if cax + self._CB <= 0.0:               # y' under relay output -1
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
        ``final_state`` set there.  ``max_switches`` must be at least 1
        (else ValueError).
        """
        if not 0.0 < t_end < math.inf:
            raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
        if dense_dt is not None and not 0.0 < dense_dt < math.inf:
            raise ValueError(f"dense_dt must be finite and positive, got {dense_dt!r}")
        if not max_switches >= 1:
            raise ValueError(f"max_switches must be at least 1, got {max_switches!r}")
        x = np.asarray(x0, dtype=float).copy()
        t = 0.0
        traj = Trajectory()
        sliding = SlidingReport(False)

        dense_t: list[np.ndarray] = []
        dense_x: list[np.ndarray] = []
        dense_u: list[np.ndarray] = []

        with np.errstate(over="ignore"):
            scale = 1.0 + float(np.linalg.norm(x))
        if not math.isfinite(scale):
            raise ValueError("start state is not finite, or its norm overflows")
        y0 = float(self.C @ x)
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
            exits = self.exit_events(x, sign)
            if exits.status[0] == WRONG_SIDE:
                raise exits.error(0)
            tau = float(exits.tau[0]) if exits.status[0] == EXITED else math.inf

            if departing and tau < min(self.step_hint, remaining):
                traj.certified = False
                traj.final_state = RelayState(x, sign, t)
                break
            seg_len = min(tau, remaining)
            if dense_dt is not None:
                m = max(int(np.ceil(seg_len / dense_dt)), 1)
                dense_t.append(t + np.linspace(0.0, seg_len, m + 1))
                dense_x.append(self.grid(x, sign, seg_len / m, m + 1))
                dense_u.append(np.full(m + 1, sign, dtype=float))

            traj.segments.append((x, seg_len, sign))
            if tau >= remaining:
                traj.final_state = RelayState(self.state(x, sign, remaining), sign, t_end)
                break

            t += tau
            x = exits.x[0]
            speed = float(exits.speed[0])
            traj.events.append(SwitchEvent(t, x, sign, speed, abs(speed) <= GRAZE_TOL))
            if traj.events[-1].grazing_flag:
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


def system_for(ss: StateSpace) -> RelaySystem:
    """The ``RelaySystem`` of a plant with the default horizon and march
    step, built once per plant content and then shared: construction
    (march rows, balancing, Taylor tables) costs more than one exit."""
    A, B, C = (np.asarray(v, dtype=float) for v in (ss.A, ss.B, ss.C))
    return _cached_system(A.tobytes(), B.tobytes(), C.tobytes(), ss.n)


@functools.lru_cache(maxsize=16)
def _cached_system(A: bytes, B: bytes, C: bytes, n: int) -> RelaySystem:
    ss = StateSpace(np.frombuffer(A).reshape(n, n), np.frombuffer(B), np.frombuffer(C))
    return RelaySystem(ss)


def exit_time(ss: StateSpace, xi, sign: int = +1) -> float:
    """First exit time from ``sign`` for the plant ``ss`` started at ``xi``."""
    return system_for(ss).exit_time(xi, sign)


def exit_map(ss: StateSpace, xi, sign: int = +1) -> np.ndarray:
    """First exit map from ``sign``: the landing state on the plane."""
    return system_for(ss).exit_map(xi, sign)


def simulate(ss: StateSpace, x0, t_end: float, *, dense_dt: float | None = None,
             max_switches: int = 1_000_000) -> tuple[Trajectory, SlidingReport]:
    """Event-driven simulation of the relay loop (see RelaySystem.simulate)."""
    return system_for(ss).simulate(x0, t_end, dense_dt=dense_dt, max_switches=max_switches)


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
