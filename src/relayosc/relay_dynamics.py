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
from .errors import InvalidStartError, NoCrossingError
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
    """Whether every entry of ``mask`` is true, by a count: on the small
    masks of a one-row exit (its start's scale, its march blocks) and of
    ``RelaySystem.exp`` at one time this costs half of the ufunc reduction
    ``mask.all()`` or less.  A bool (one start's flag) is its own answer,
    at a twentieth of the count."""
    return np.count_nonzero(mask) == mask.size if isinstance(mask, np.ndarray) else bool(mask)


def _series_start(t0, q0, q2, q3):
    """First Newton iterate of a zero of the Taylor polynomial sum_k y_k d^k,
    d = t - t0, from q_k = y_k / y_1: the cubic series reversion t0 + w (1 +
    w (w (2 a^2 - q3) - a)), w = -q0, a = q2.  For floats or for arrays of
    rows."""
    w, a2 = -q0, q2
    return t0 + w * (1.0 + w * (w * (2.0 * a2 * a2 - q3) - a2))


def _last_step(step, d2f, df, tol, floor):
    """Whether the Newton step f / f' = ``step`` is the last: below ``tol``,
    or leaving a Newton error estimate |f'' / (2 f')| step^2 below the
    roundoff ``floor / 2`` of t.  For floats or for arrays of rows."""
    size = abs(step)
    return (size <= tol) | (abs(d2f * step) * size <= floor * abs(df))


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

    about its node t0_i, a grid point, from the node's exponential
    e^{M t0_i} (``node``), for t within 1/8 of a march step of the step
    [t0_i, t0_i + h], the span of the Taylor degree.
    """

    def __init__(self, system: RelaySystem, Z: np.ndarray, t0: np.ndarray,
                 node: np.ndarray, level: float):
        self.system = system
        self.t0 = np.array(t0, dtype=float)
        # the Taylor coefficients of s x, and of s C x - level and its first
        # two derivatives, about the nodes' states e^{M t0} z
        coef = system._expansion @ (node @ Z[:, :, None])
        K = len(system._powers)
        split = K * (system.n + 1)
        if level:
            coef[:, split] -= level
        self.zk = coef[:, :split].reshape(len(Z), K, system.n + 1)
        self.yd = coef[:, split:].reshape(len(Z), 3, K)

    def _offsets(self, t) -> np.ndarray:
        """Powers (t - t0)^k of the node offsets."""
        return (t - self.t0)[:, None] ** self.system._powers

    def output(self, t) -> np.ndarray:
        """s C x(t) - level and its first two time derivatives, one row (m,
        3) per path, for times within the rows' node intervals."""
        return (self.yd @ self._offsets(t)[:, :, None])[:, :, 0]

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

#: Most Newton steps of an exit's refinement.
_NEWTON_STEPS = 100


def _hit_test(vals, armed, start):
    """(hit, armed) of a march block: of one start's values (count,), with
    its flag ``armed`` and float ``start`` (its value at t = 0), or
    of r columns (count, r) with a flag and a start per column.  The march
    ends a column at its first hit.  Once a column is armed (its start or
    a value above F_TOL), its hits are its values at or below 0.  Before
    that, a start at or above -F_TOL hits only where it drops below -F_TOL
    (it departs at once); a start further past the plane does not hit.
    ``armed`` comes back updated; hit is None when every column is armed
    and every value is above 0, and otherwise a non-finite value raises
    ValueError."""
    armed = armed | (start > F_TOL)
    if _all(armed) and vals.flat[vals.argmin()] > 0.0:     # the least value, or the first nan
        return None, armed
    if not _all(np.isfinite(vals)):
        raise ValueError("non-finite function value during marching")
    armed = armed | (vals[0] > F_TOL)
    if _all(armed):
        return vals <= 0.0, armed
    up = np.logical_or.accumulate(vals > F_TOL) | armed
    return (vals <= 0.0) & up | (start >= -F_TOL) & (vals < -F_TOL), up[-1]


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
    one march step h, and every e^{M t} is made from it: ``exp`` at given
    times, the differences e^{M j dt} - I (``_exp_powers``) on evenly spaced
    grids, and a Taylor polynomial within one step of a known state
    (``_Paths``).  The march of a block of starts runs on the grid j h
    (``step``): the rows [C 0] e^{M j h} give ``march_steps(r)``
    output values of each of its r columns at once, and the leap
    e^{M march_steps(r) h} moves to the next block.  ``grid_exp`` gives
    e^{M K h} at any grid point from tables of e^{M j h} - I, which keep
    working accuracy.  A block of exits thus needs no matrix exponential of
    its own: the Newton refinement and the landing states use Taylor
    expansions about the brackets' left ends, whose exponentials come from
    the tables.  A single start takes the same steps on the same tables in
    the one-row kernel ``_exit_row``, which does its tests on floats:
    ``exit_events`` wraps its result for one row, and ``simulate`` calls it
    on each landing state, reusing the landing's C A x (computed once) for
    the event speed, the next relay sign and the next start's class.
    Every exit and simulation of the system uses its horizon and march
    step, each finite and positive (else ValueError).

    Parameters
    ----------
    ss : StateSpace
        Observer-canonical realization of the plant.
    step_hint : float, optional
        Upper bound on the march step; the default is t_max / 1e4.  The
        march step h (``step``) is the hint in ceil(theta) whole Taylor node
        intervals, theta = ||M_b||_1 hint with M_b the balanced M, so the
        march resolves the fastest mode.  For a relative-degree-one plant
        the minimum inter-switch bound of ``bounds.bounds_report`` would be
        a valid hint, but no caller passes it yet.
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
        # the march step: the hint in whole Taylor node intervals, ||M h|| <= 1
        # in the balanced norm
        Mb, _ = scipy.linalg.matrix_balance(self.M, permute=False, separate=True)
        theta = float(np.linalg.norm(Mb, 1)) * step
        nodes = max(1, math.ceil(theta))
        self.step = step = step / nodes
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
        last = int(self.t_max // step)
        while step * (last + 1) <= self.t_max:
            last += 1
        while last > 0 and step * last > self.t_max:
            last -= 1
        self._last = last

    # -- the flow -------------------------------------------------------------
    def march_steps(self, columns: int) -> int:
        """Grid steps of a march block of ``columns`` starts: MARCH_WORK
        values shared among them, between BLOCK and 4 BLOCK steps."""
        return min(max(self.MARCH_WORK // columns, self.BLOCK), 4 * self.BLOCK)

    def _less_identity(self, dt) -> np.ndarray:
        """e^{M dt} - I for a scalar dt, or one per entry of an array dt,
        within a march step of 0: each entry's Taylor sum is one
        row-times-table product, bit for bit its scalar call, and never an
        exponential less the identity."""
        d = np.asarray(dt, dtype=float)[..., None, None]
        D = (d ** self._powers[1:]) @ self._taylor[1:].reshape(len(self._powers) - 1, -1)
        return D.reshape(np.shape(dt) + (self.n + 1,) * 2)

    def exp(self, t) -> np.ndarray:
        """e^{M t} for a scalar t >= 0, or one per entry of an array t: the
        grid exponential e^{M K h} of K = floor(t / h) times e^{M (t - K h)}
        from the Taylor sum, so an entry of an array t equals its scalar
        call bit for bit.  A t below 0 by less than a march step (an exit
        at t = 0, landed to roundoff) takes K = 0.  Raises OverflowError
        when the result overflows double precision, and ValueError on any
        other t."""
        t = np.asarray(t, dtype=float)
        K = np.fmax(np.floor(t / self.step), 0.0)
        if not _all((t >= -self.step) & (K < 2.0**53)):
            raise ValueError("exp needs a finite t >= 0 below 2^53 march steps")
        with np.errstate(over="ignore", invalid="ignore"):
            E = self.grid_exp(K.astype(int))
            D = self._less_identity(t - K * self.step)
            E = E + E @ D
            if not _all(np.isfinite(E)):
                raise OverflowError("matrix exponential overflow: ||M t|| too large")
        return E

    def grid_exp(self, K) -> np.ndarray:
        """e^{M K h} for the grid indices K (an array, or one int): the
        product over the base-BLOCK digits d_i of K of e^{M d_i BLOCK^i h},
        from the tables."""
        K, d = divmod(K, self.BLOCK)
        D = self._grid[0][d]
        level = 1
        while np.count_nonzero(K):
            if level == len(self._grid):
                self._grid.append(_exp_powers(self._eye, self._grid[-1][-1], self.BLOCK + 1))
            K, d = divmod(K, self.BLOCK)
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
        e^{M j dt} - I; a dt past the march step takes the Taylor sum at
        dt / 2^s within it, doubled s times on (I + D)^2 = I + (2 D + D D)."""
        halvings = math.ceil(math.log2(dt / self.step)) if dt > self.step else 0
        D = self._less_identity(dt / 2**halvings)
        for _ in range(halvings):
            D = D + D + D @ D
        z = self.lift(xi, s)
        Z = _exp_powers(z, D.T, count)
        Z += z
        return s * Z[:, : self.n]

    def output_speed(self, x: np.ndarray, s: int):
        """Output derivative C (A x - s B) under relay sign s, of a state or
        of each row of a block."""
        x = np.asarray(x, dtype=float)
        return (x[..., None, :] @ self._CA[:, None])[..., 0, 0] - s * self._CB

    # -- exit computations ---------------------------------------------------
    def exit_events(self, X: np.ndarray, sign: int = +1, *, level: float = 0.0,
                    cap: float | None = None) -> Exits:
        """First exits of the starts in the rows of ``X`` (m, n) under relay
        sign ``sign``, all at once: the first zeros of s C x(t) - ``level``.

        Each row needs a finite 1 + |xi| (else ValueError, for the whole
        block); ``_start_classes`` tells the rows on the wrong side of the
        plane, and those on it that exit at tau = 0.  Every other row
        marches on the grid j h (h = ``step``) up to the horizon
        ``t_max`` to its first hit (``_hit_test``), the grid point that ends
        its bracket.  The brackets are refined together by safeguarded
        Newton steps on the Taylor polynomials (``_refine``), whose last
        step leaves the residual output at roundoff level rather than at the
        refinement tolerance; this prevents drift over thousands of
        switches.

        One row (``exit_event`` and the maps built on it, and the layer
        exits of ``sfs._layer_flow``) goes to the one-row kernel
        ``_exit_row``, which takes the same steps on the same tables without
        the block's per-row masks, so its results equal the block's bit for
        bit; the row count alone selects it, and its (tau, x, C A x) is
        wrapped into Exits here.  ``simulate`` calls the kernel itself.

        A nonzero ``level`` puts the plane at s C x = level, the output row
        [C, -level] on the augmented state (the edge of the smooth loop's
        tanh layer, in ``sfs._layer_flow``); every test above then reads s C
        x - level for s C x.  ``level=0`` runs no extra operation, so the
        relay exits are unchanged bit for bit.

        A positive ``cap`` below ``t_max`` ends the march at the first grid
        point at or past it, and becomes the horizon of the rows that do not
        cross: a caller that needs no exit after ``cap`` (the end of
        ``sfs._layer_flow``'s span) marches no further, so an unstable
        plant's flow does not overflow past it.  The grid and the values are
        those of the full march, so an exit before the cap is unchanged bit
        for bit.
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
        last, horizon = self._last, self.t_max
        if cap is not None and cap < horizon:
            last, horizon = min(math.ceil(cap / self.step), last), cap
            while last < self._last and self.step * last < cap:
                last += 1
        if len(f0) == 1:
            y0, scale = float(f0[0]), float(scale[0])
            # C A xi, read only for a start on the plane
            cax = math.nan if abs(y0) > PLANE_TOL * scale else float(self.output_speed(X[0], 0))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                row = self._exit_row(Z, y0, cax, s, scale, level, last)
            if isinstance(row, int):
                return self._no_exit(f0, s, row, horizon)
            tau, x, cax = row
            return Exits(s, horizon, f0, np.zeros(1, dtype=int), None, np.array([tau]),
                         x[None], np.array([cax - s * self._CB]))
        wrong, march = self._start_classes(f0, s, scale, X=X)
        K, f_lo, found = self._brackets(Z, f0, march, level, last)
        exited = found & ~wrong
        status = np.zeros(len(f0), dtype=int)      # EXITED
        rows = slice(None)
        if not _all(exited):
            status[~found] = QUIESCENT
            status[wrong] = WRONG_SIDE
            rows = exited.nonzero()[0]
            Z, K, f_lo = Z[rows], K[rows], f_lo[rows]
        lo, hi = self.step * K, self.step * (K + 1)
        # nodes at the brackets' left ends
        paths = _Paths(self, Z, lo, self.grid_exp(K), level)
        cross = f_lo > 0.0
        if not _all(cross):
            # a start that exits at once, and a bracket that is none (a
            # departure at once in ``_hit_test``), keep to their node's step
            lo = np.where(cross, lo, paths.t0 - 0.125 * self.step)
            hi = np.where(cross, hi, paths.t0 + 1.125 * self.step)
        t = self._refine(paths, lo, hi)
        x = s * paths.state(t)
        return Exits(s, horizon, f0, status, rows, t, x, self.output_speed(x, s))

    def _exit_row(self, Z: np.ndarray, y0: float, cax: float, s: int, scale: float,
                  level: float, last: int) -> tuple[float, np.ndarray, float] | int:
        """The one-row kernel: the first exit under sign ``s`` of the start
        lifted to Z (1, n + 1), with its value y0 = s C xi - level, its C A
        xi (read only when it is on the plane) and its scale 1 + |xi|,
        marching up to the grid point ``last``.
        Returns (tau, x, C A x) of the landing state x (n,), or the status
        WRONG_SIDE or QUIESCENT when it does not exit.  It takes the block
        path's steps on its tables (``_start_classes``, ``_march_row`` for
        ``_brackets`` with its ``_hit_test``, the node expansion of
        ``_Paths``, the start and stop rule of ``_refine``) with the bracket
        and the Newton iterate on floats in place of per-row masks, so its
        results equal the block's bit for bit.  The caller runs it under one
        np.errstate that ignores overflow, division by zero and invalid
        values (the march's values and leaps may overflow)."""
        wrong, march = self._start_classes(y0, s, scale, cax=cax)
        if wrong:
            return WRONG_SIDE
        # a start that does not march leaves the sign region at once
        bracket = self._march_row(Z, y0, level, last) if march else (0, y0)
        if bracket is None:
            return QUIESCENT
        K, f_lo = bracket
        lo = t0 = self.step * K
        hi = self.step * (K + 1)
        paths = _Paths(self, Z, [t0], self.grid_exp(K), level)
        if not f_lo > 0.0:
            lo, hi = t0 - 0.125 * self.step, t0 + 1.125 * self.step
        q0, _, q2, q3 = (paths.yd[0, 0, :4] / paths.yd[0, 0, 1]).tolist()
        t = _series_start(t0, q0, q2, q3)
        if not lo <= t <= hi:                      # np.fmax(lo, np.fmin(t, hi))
            t = lo if t < lo else hi
        tol, floor = 1e-12 * max(1.0, hi), (2.0 * _EPS) * hi + 0.5e-15
        for _ in range(_NEWTON_STEPS):
            f, df, d2f = paths.output(t)[0].tolist()
            if f > 0.0:
                lo = t
            else:
                hi = t
            step = f / df if df else math.nan     # f / 0 is no step: bisect
            nxt = t - step
            stop = _last_step(step, d2f, df, tol, floor)
            if not lo <= nxt <= hi:
                nxt = (lo if nxt < lo else hi) if stop else 0.5 * (lo + hi)
            t = nxt
            if stop:
                break
        x = s * paths.state(t)[0]
        return t, x, float(x @ self._CA)

    def _no_exit(self, f0: np.ndarray, s: int, status: int, horizon: float) -> Exits:
        """The one-row Exits of a start that does not exit."""
        return Exits(s, horizon, f0, np.array([status]), slice(0), np.empty(0),
                     np.empty((0, self.n)), np.empty(0))

    def _start_classes(self, f0, s: int, scale, X=None, cax=math.nan):
        """(wrong, march) of the starts with values f0 = s C xi - level and
        scales 1 + |xi|: arrays for a block of starts X (m, n), or floats
        for one start with its C A xi ``cax``.  Either is read only when a
        start is on the plane.  A start more than 1e-3 (1 +
        |xi|) past the plane is on the wrong side; one past it by less
        marches (the analytic continuation of its crossing time exists, and
        finite-difference probes of the exit map rely on it).  So does a
        start off the plane, and one on it (within PLANE_TOL (1 + |xi|))
        unless its flow leaves the sign region transversally, s y' = s (C A
        xi - s C B) < -GRAZE_TOL: that one exits at tau = 0."""
        wrong = f0 < -1e-3 * scale
        off = abs(f0) > PLANE_TOL * scale
        if not _all(off):
            speed = self.output_speed(X, s) if X is not None else cax - s * self._CB
            off = off | (s * speed >= -GRAZE_TOL)
        return wrong, off ^ wrong                  # the wrong side is off the plane

    def _march_row(self, Z: np.ndarray, start, level: float,
                   last: int) -> tuple[int, float] | None:
        """``_brackets`` of the one row of Z from its value ``start`` at
        t = 0: (K, f(K h)) of its first bracket, or None when it does not
        cross before the grid point ``last``.  It runs under the np.errstate
        of ``_exit_row``'s caller, as its values and leaps may overflow."""
        prev, armed = start, False
        Zt, j, steps = Z.T, 0, self.march_steps(1)
        while j < last:
            count = min(steps, last - j)
            vals = self._rows[:count] @ Zt
            if level:
                vals -= level
            v = vals[:, 0]
            hit, armed = _hit_test(v, armed, start)
            if hit is not None:
                k = int(hit.argmax())
                if hit[k]:
                    return j + k, (prev if k == 0 else v[k - 1])
            prev = v[-1]
            j += count
            if j < last:
                Zt = self._leaps[count] @ Zt
        return None

    def _brackets(self, Z: np.ndarray, f0: np.ndarray, march: np.ndarray, level: float,
                  last: int):
        """First brackets [K h, (K + 1) h] of a zero of [C, -level] e^{M t} z
        on the grid t = j h, j = 1, 2, ..., for the rows z of Z marked
        ``march``, from their values f0 at t = 0: (K, f(K h), found), where
        ``found`` is false on the rows without a crossing before the grid
        point ``last``, and K = 0, f = f0 on the unmarked rows.  Each block takes
        ``march_steps(r)`` grid steps of the r rows still marching, so a
        lone row marches 4 BLOCK steps at a time and a block of hundreds
        BLOCK; K depends only on the values (``_hit_test``), not on the
        block lengths."""
        K = np.zeros(len(f0), dtype=int)
        f_lo = f0.copy()
        found = ~march
        rows = march.nonzero()[0]          # the rows still marching
        if not rows.size:
            return K, f_lo, found
        prev = start = f0[rows]            # their values at t = 0 and at grid point j
        armed, j, Zt = False, 0, Z[rows].T
        with np.errstate(over="ignore", invalid="ignore"):
            while j < last:
                count = min(self.march_steps(len(rows)), last - j)
                vals = self._rows[:count] @ Zt
                if level:
                    vals -= level
                hit, armed = _hit_test(vals, armed, start)
                if hit is not None:
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
                        armed, start = armed[keep], start[keep]
                prev = vals[-1]
                j += count
                if j < last:
                    Zt = self._leaps[count] @ Zt
        return K, f_lo, found

    def _refine(self, paths: _Paths, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Zeros of s C x on the brackets [lo, hi] by safeguarded Newton
        steps, from the cubic series reversion of each row's Taylor
        polynomial about its node (clipped to the bracket); a step that
        leaves its bracket is replaced by bisection.  A row stops after a
        step below 1e-12 max(1, t), or after one that leaves a Newton error
        estimate |f'' / (2 f')| step^2 below the roundoff of t, and takes
        that last step, clipped to its bracket.  A stopped row stays put
        while the others go on, so a row's result does not depend on the
        block.  A march step is one Taylor node interval, so every iterate
        stays within the expansion about its bracket's left end."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = paths.yd[:, 0, :4] / paths.yd[:, 0, 1:2]   # y_k / y_1
            t = np.fmax(lo, np.fmin(_series_start(paths.t0, q[:, 0], q[:, 2], q[:, 3]), hi))
            tol = 1e-12 * np.maximum(1.0, hi)
            floor = (2.0 * _EPS) * hi + 0.5e-15
            stop = np.zeros(len(t), dtype=bool)    # the rows past their last step
            for _ in range(_NEWTON_STEPS):
                f, df, d2f = paths.output(t).T
                above = f > 0.0
                lo = np.where(above, t, lo)
                hi = np.where(above, hi, t)
                step = f / df
                nxt = t - step
                last = _last_step(step, d2f, df, tol, floor)
                inside = (nxt >= lo) & (nxt <= hi)
                if not _all(inside):
                    nxt = np.where(inside | last, np.clip(nxt, lo, hi), 0.5 * (lo + hi))
                t = np.where(stop, t, nxt)
                stop |= last
                if _all(stop):
                    break
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

    # -- full simulation -------------------------------------------------------
    def simulate(self, x0: np.ndarray, t_end: float, *,
                 dense_dt: float | None = None,
                 max_switches: int = 1_000_000) -> tuple[Trajectory, SlidingReport]:
        """Simulate the relay loop from ``x0`` for ``t_end`` time units.

        Propagation between switches is exact (matrix exponential); switch
        states are appended as events.  Each switch is one call of the
        one-row kernel ``_exit_row`` on the landing state of the last, whose
        C A x gives the event's transversal speed C A x - s C B, the next
        relay sign and the next start's class, so every event equals the
        ``exit_event`` of its start bit for bit.  On the plane (the start,
        if it is there, and every landing) the relay output is the sign
        whose field departs, +1 when both do (the repelling strip |x_{n-1}|
        < |C B|); if both fields aim at the plane (possible only when C B >
        0) the state is in the sliding set, with no non-sliding
        continuation, and the trajectory stops there and the SlidingReport
        says so.  Grazing arrivals mark the trajectory as non-certified but
        the simulation continues.  The event time t + tau decides the end:
        a switch at or before t_end is recorded, one that lands at t_end
        included, with its segment tau long, and the run stops short of a
        switch only when t + tau > t_end.  A departure from the plane that
        returns to it within one march step (switches piling up faster than
        ``step`` resolves, as on the way to a Zeno point) stops the
        trajectory on the plane, non-certified, with ``final_state`` set
        there.  ``max_switches`` must be at least 1 (else ValueError).
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
        sign = +1 if y0 > 0 else -1
        cax = float(x @ self._CA)                  # C A x

        while True:
            if departing:                          # on the plane
                if cax - self._CB >= 0.0:          # y' under relay output +1
                    sign = +1
                elif cax + self._CB <= 0.0:        # y' under relay output -1
                    sign = -1
                else:
                    sliding = SlidingReport(True, t, x)
                    break
                if len(traj.events) >= max_switches:
                    traj.final_state = RelayState(x, sign, t)
                    break
            if not t < t_end:                      # the last switch landed at t_end
                traj.final_state = RelayState(x, sign, t)
                break
            remaining = t_end - t
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                Z = self.lift(x[None], sign)
                f0 = Z @ self._c                   # s C x
                row = self._exit_row(Z, float(f0[0]), cax, sign,
                                     1.0 + math.sqrt(np.add.reduce(x * x)), 0.0, self._last)
            if row == WRONG_SIDE:
                raise self._no_exit(f0, sign, row, self.t_max).error(0)
            tau = math.inf if row == QUIESCENT else row[0]

            if departing and tau < min(self.step, remaining):
                traj.certified = False
                traj.final_state = RelayState(x, sign, t)
                break
            ends = t + tau > t_end                 # short of the switch
            seg_len = remaining if ends else tau
            if dense_dt is not None:
                m = max(int(np.ceil(seg_len / dense_dt)), 1)
                dense_t.append(t + np.linspace(0.0, seg_len, m + 1))
                dense_x.append(self.grid(x, sign, seg_len / m, m + 1))
                dense_u.append(np.full(m + 1, sign, dtype=float))

            traj.segments.append((x, seg_len, sign))
            if ends:
                traj.final_state = RelayState(self.state(x, sign, remaining), sign, t_end)
                break

            t += tau
            _, x, cax = row
            speed = cax - sign * self._CB
            grazing = abs(speed) <= GRAZE_TOL
            traj.events.append(SwitchEvent(t, x, sign, speed, grazing))
            if grazing:
                traj.certified = False
            departing = True

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
