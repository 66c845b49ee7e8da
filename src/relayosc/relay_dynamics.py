"""Exact event-driven simulation of the relay feedback loop.

The closed loop is  x' = A x - B sign(C x)  with an ideal relay.  Between
switches the dynamics are affine, so states are propagated in closed form
through the matrix exponential; switching instants are located as first
zeros of the scalar output along the affine flow (forward march plus Brent
refinement), never by fixed-step integration.

Sign conventions: ``sign=+1`` means the relay output is +1 and the active
field is A x - B; exits from the negative sign reuse the central-symmetry
identities  tau_-(x) = tau_+(-x)  and  psi_-(x) = -psi_+(-x).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import numerics
from .errors import InvalidStartError, NoCrossingError, SlidingError
from .plant import StateSpace

#: |C x| below PLANE_TOL * (1 + ||x||) counts as "on the switching plane".
PLANE_TOL = 1e-10

#: Output-speed magnitudes below this raise the grazing flag.
GRAZE_TOL = 1e-8


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


def _powers(v: np.ndarray, P: np.ndarray, count: int) -> np.ndarray:
    """Rows v P^j for j = 0..count-1, built by doubling."""
    rows = np.empty((count, len(v)))
    rows[0] = v
    filled = 1
    while filled < count:
        m = min(filled, count - filled)
        rows[filled:filled + m] = rows[:m] @ P
        filled += m
        P = P @ P
    return rows


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
    IEEE TAC 1978).  e^{M t} z comes from ``numerics.expm`` at given times,
    from powers of e^{M h} on evenly spaced grids, and from a Taylor
    polynomial within one node interval of a known state (``_Path``).
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
        # march: rows [C 0] e^{M j h}, j = 1..BLOCK, and the leap e^{BLOCK M h}
        E = numerics.expm(self.M, step)
        self._rows = _powers(self._c, E, self.BLOCK + 1)[1:]
        self._leap = np.linalg.matrix_power(E, self.BLOCK)
        # Taylor nodes: ||M d|| <= 1 in the balanced norm on each interval
        Mb, _ = scipy.linalg.matrix_balance(self.M, permute=False, separate=True)
        theta = float(np.linalg.norm(Mb, 1)) * step
        nodes = max(1, math.ceil(theta))
        self.node_step = step / nodes
        terms = [np.eye(n + 1)]
        for k in range(1, _taylor_degree(1.125 * theta / nodes) + 1):
            terms.append(terms[-1] @ self.M / k)
        self._taylor = np.stack(terms)            # M^k / k!

    def lift(self, xi: np.ndarray, s: int) -> np.ndarray:
        """Augmented state [s xi; 1]."""
        return np.append(s * np.asarray(xi, dtype=float), 1.0)

    def expAt(self, t: float) -> np.ndarray:
        """e^{A t}, the leading block of e^{M t}."""
        return numerics.expm(self.M, t)[: self.n, : self.n]

    def state(self, xi: np.ndarray, s: int, t) -> np.ndarray:
        """x(t) for scalar t, or one row per time for array t."""
        z = numerics.expm(self.M, t) @ self.lift(xi, s)
        return s * z[..., : self.n]

    def output(self, xi: np.ndarray, s: int, t):
        """C x(t); accepts scalar or array t."""
        y = s * (numerics.expm(self.M, t) @ self.lift(xi, s) @ self._c)
        return float(y) if np.ndim(y) == 0 else y

    def grid(self, xi: np.ndarray, s: int, dt: float, count: int) -> np.ndarray:
        """States at t = j dt, j = 0..count-1, from powers of e^{M dt}."""
        z = _powers(self.lift(xi, s), numerics.expm(self.M, dt).T, count)
        return s * z[:, : self.n]

    def march(self, z: np.ndarray):
        """[C 0] e^{M t} z on the grid t = j h, j = 1, 2, ..., in blocks."""
        while True:
            yield self._rows @ z
            z = self._leap @ z

    def output_speed(self, x: np.ndarray, s: int) -> float:
        """Output derivative C (A x - s B) at a state under relay sign s."""
        return float(self.C @ (self.A @ x - s * self.B))


class _Path:
    """The trajectory of x' = A x - s B from xi; calling it gives s C x(t),
    whose first zero is the exit time.

    e^{M t} z is one exponential at the node just below t times the Taylor
    polynomial in the offset.  The node is kept, so a root search and
    landing inside one node interval cost one exponential.
    """

    def __init__(self, flow: _AffineFlow, xi: np.ndarray, s: int):
        self.flow = flow
        self.s = s
        self.z = flow.lift(xi, s)
        self._t0 = None

    def _offset(self, t: float) -> np.ndarray:
        """Powers of t - t0 for the node t0 whose interval holds t."""
        flow = self.flow
        h = flow.node_step
        if self._t0 is None or not -0.125 * h <= t - self._t0 <= 1.125 * h:
            j = math.floor(t / h + 1e-6)
            self._t0 = j * h
            z = self.z if j == 0 else numerics.expm(flow.M, self._t0) @ self.z
            self._zk = flow._taylor @ z
            self._yk = self._zk @ flow._c
        return (t - self._t0) ** np.arange(len(self._yk))

    def __call__(self, t: float) -> float:
        return float(self._offset(t) @ self._yk)

    def state(self, t: float) -> np.ndarray:
        return self.s * (self._offset(t) @ self._zk)[: self.flow.n]


class RelaySystem:
    """Relay feedback loop around a realized plant.

    Precomputes the affine-flow machinery once (augmented matrix, march
    rows for ``step_hint``, Taylor tables), so that an exit costs one
    matrix exponential: the march runs on powers of e^{M h}, and the Brent
    refinement and the landing state use a Taylor expansion about the
    bracket's left end.

    Parameters
    ----------
    ss : StateSpace
        Observer-canonical realization of the plant.
    step_hint : float, optional
        Marching step for crossing detection.  Pass a quarter of the
        minimum inter-switch bound when one is available; the default is
        t_max / 1e4.
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
        self.b_tail = float(ss.B[-1])  # C B, the output-derivative jump half

    # -- exit computations ---------------------------------------------------
    def exit_time(self, xi: np.ndarray, sign: int = +1,
                  t_max: float | None = None) -> float:
        """First time the output crosses zero under fixed relay sign.

        The start must satisfy sign * C xi >= 0 (on-plane starts must depart
        consistently).  Raises NoCrossingError("quiescent ...") when the
        output never crosses before the horizon, which cannot happen for a
        stable plant with positive DC gain.
        """
        return self._exit(xi, sign, t_max)[0]

    def _exit(self, xi, sign, t_max) -> tuple[float, _Path]:
        """Exit time and the path it was found on."""
        xi = np.asarray(xi, dtype=float)
        s = int(sign)
        if s not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        horizon = float(t_max) if t_max is not None else self.t_max
        y0 = float(self.flow.C @ xi)
        scale = 1.0 + float(np.linalg.norm(xi))
        # tolerate slightly wrong-sided starts: the analytic continuation of
        # the crossing time exists there and finite-difference probing of the
        # exit map relies on it
        if s * y0 < -1e-3 * scale:
            raise InvalidStartError(
                f"start output {y0:g} is on the wrong side for sign {s:+d}")
        path = _Path(self.flow, xi, s)
        if abs(y0) <= PLANE_TOL * scale:
            depart = s * self.flow.output_speed(xi, s)
            if depart < -GRAZE_TOL:
                # the flow leaves the sign region transversally at once; the
                # first exit is the start itself
                return 0.0, path
        try:
            tau = numerics.find_first_root(
                path, 0.0, horizon, self.step_hint, blocks=self.flow.march(path.z),
                check_grazing=False, allow_negative_start=True)
        except NoCrossingError as exc:
            raise NoCrossingError(
                f"quiescent: output does not cross zero within {horizon:g} "
                "time units (plant is not restless from this state)") from exc
        return tau, path

    def exit_event(self, xi: np.ndarray, sign: int = +1,
                   t_max: float | None = None) -> tuple[float, np.ndarray, SwitchEvent]:
        """Exit time, landing state, and the corresponding SwitchEvent.

        The landing state is corrected by one Newton step along the flow so
        the residual output is at roundoff level rather than at the root
        finder's tolerance; this prevents drift over thousands of switches.
        """
        s = int(sign)
        tau, path = self._exit(xi, s, t_max)
        x_land = path.state(tau)
        speed = self.flow.output_speed(x_land, s)
        if abs(speed) > GRAZE_TOL:
            tau = tau - float(self.flow.C @ x_land) / speed
            x_land = path.state(tau)
            speed = self.flow.output_speed(x_land, s)
        grazing = abs(speed) <= GRAZE_TOL
        event = SwitchEvent(t=tau, x=x_land, incoming_sign=s,
                            transversal_speed=speed, grazing_flag=grazing)
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

        Returns (sign, both_depart) or raises SlidingError when both fields
        aim at the plane (possible only when C B > 0).  When both fields
        depart (the repelling strip |x_{n-1}| < |C B|), +1 is chosen
        deterministically.
        """
        d_plus = self.flow.output_speed(x, +1)   # y' under relay output +1
        d_minus = self.flow.output_speed(x, -1)  # y' under relay output -1
        plus_departs = d_plus >= 0.0
        minus_departs = d_minus <= 0.0
        if plus_departs and minus_departs:
            return +1, True
        if plus_departs:
            return +1, False
        if minus_departs:
            return -1, False
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
                sign, _ = self._select_sign_on_plane(x)
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
                new_sign, _ = self._select_sign_on_plane(x)
            except SlidingError:
                sliding = SlidingReport(True, t, x)
                break
            sign = new_sign
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


def exit_time(ss: StateSpace, xi, sign: int = +1, t_max: float | None = None,
              step_hint: float | None = None) -> float:
    """First exit time from ``sign`` for the plant ``ss`` started at ``xi``."""
    return RelaySystem(ss, step_hint=step_hint).exit_time(xi, sign, t_max)


def exit_map(ss: StateSpace, xi, sign: int = +1,
             step_hint: float | None = None) -> np.ndarray:
    """First exit map from ``sign``: the landing state on the plane."""
    return RelaySystem(ss, step_hint=step_hint).exit_map(xi, sign)


def kth_exit_map(ss: StateSpace, xi, k: int, collect_events: bool = False,
                 step_hint: float | None = None):
    """k-th exit map with the alternating sign recursion."""
    return RelaySystem(ss, step_hint=step_hint).kth_exit_map(xi, k, collect_events)


def simulate(ss: StateSpace, x0, t_end: float, *, dense_dt: float | None = None,
             step_hint: float | None = None,
             max_switches: int = 1_000_000) -> tuple[Trajectory, SlidingReport]:
    """Event-driven simulation of the relay loop (see RelaySystem.simulate)."""
    return RelaySystem(ss, step_hint=step_hint).simulate(
        x0, t_end, dense_dt=dense_dt, max_switches=max_switches)


# ---------------------------------------------------------------------------
# export helpers


def trajectory_to_csv(traj: Trajectory, path, *, version: str = "") -> None:
    """Write the dense samples as CSV: t, x_1..x_n, u, is_switch."""
    if traj.times is None:
        raise ValueError("trajectory has no dense samples; simulate with dense_dt")
    n = traj.states.shape[1]
    # a switch instant ends one segment's samples and starts the next's, at
    # exactly the event time
    is_switch = np.isin(traj.times, [ev.t for ev in traj.events])
    with open(path, "w", newline="") as fh:
        fh.write(f"# relayosc {version}; units: t in seconds, x dimensionless\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i+1}" for i in range(n)] + ["u", "is_switch"])
        for t, xrow, u, flag in zip(traj.times, traj.states, traj.relay_signs, is_switch):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in xrow]
                            + [repr(float(u)), int(flag)])


def events_to_json(traj: Trajectory, sliding: SlidingReport, *, version: str = "") -> str:
    """Serialize the switch-event log (and sliding report) to JSON."""
    payload = {
        "schema_version": 1,
        "toolkit_version": version,
        "certified": traj.certified,
        "events": [
            {
                "t": ev.t,
                "x": [float(v) for v in ev.x],
                "incoming_sign": ev.incoming_sign,
                "transversal_speed": ev.transversal_speed,
                "grazing_flag": ev.grazing_flag,
            }
            for ev in traj.events
        ],
        "sliding": {
            "entered_sliding": sliding.entered_sliding,
            "entry_time": sliding.entry_time,
            "entry_state": None if sliding.entry_state is None
            else [float(v) for v in sliding.entry_state],
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
