import itertools
import json

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from conftest import named_plant
from relayosc import relay_dynamics as rd
from relayosc.errors import InvalidStartError, NoCrossingError
from relayosc.plant import StateSpace, parse_plant, realize
from relayosc.relay_dynamics import RelaySystem


class TestExitTime:
    def test_first_order_log2(self, first_order):
        # closed form: y(t) = 2 e^{-t} - 1 from y(0) = 1 under y' = -y - 1
        _, ss = first_order
        tau = rd.exit_time(ss, [1.0], +1)
        assert tau == pytest.approx(np.log(2), abs=1e-10)

    def test_immediate_outward_departure(self, second_order):
        # on-plane state whose negative-sign flow rises: C(Ax+B) = x1 - 1 > 0
        _, ss = second_order
        xi = np.array([2.0, 0.0])
        assert float(ss.C @ (ss.A @ xi + ss.B)) > 0
        tau = rd.exit_time(ss, xi, -1)
        assert 0.0 <= tau < 1e-9

    def test_wrong_side_rejected(self, second_order):
        _, ss = second_order
        with pytest.raises(InvalidStartError):
            rd.exit_time(ss, [0.5, -0.3], +1)

    @pytest.mark.parametrize("x", [[1e160, 1e160], [np.nan, 0.0], [-np.inf, 1.0]])
    def test_non_finite_or_overflowing_start_rejected(self, second_order, x):
        # past |x| ~ 1.3e154 the plane scale 1 + |x| overflows, and the plane
        # test would take any start for a point on the plane
        _, ss = second_order
        with pytest.raises(ValueError, match="norm overflows"):
            rd.exit_time(ss, x, +1)
        with pytest.raises(ValueError, match="norm overflows"):
            rd.simulate(ss, np.array(x), 1.0)

    def test_large_start_exits(self, second_order):
        # the output from 1e150 (1, 1) crosses zero at t = ln 2
        _, ss = second_order
        x = np.array([1e150, 1e150])
        assert rd.exit_time(ss, x, +1) == pytest.approx(np.log(2.0), rel=1e-14)
        traj, _ = rd.simulate(ss, x, 1.0)
        assert [e.t for e in traj.events] == pytest.approx([np.log(2.0)], rel=1e-14)

    def test_matches_orbit_half_period(self, second_order):
        # cross-module consistency with the orbit solver
        from relayosc.limit_cycle import find_symmetric_orbit

        _, ss = second_order
        orbit = find_symmetric_orbit(ss)
        tau = rd.exit_time(ss, orbit.anchor, +1)
        assert tau == pytest.approx(orbit.half_period, abs=1e-9)

    @pytest.mark.parametrize("opts", [{"t_max": 0.0}, {"t_max": -1.0}, {"t_max": np.nan},
                                      {"step_hint": 0.0}, {"step_hint": -0.5},
                                      {"step_hint": np.inf}])
    def test_bad_horizon_or_step_rejected(self, second_order, opts):
        _, ss = second_order
        with pytest.raises(ValueError, match=next(iter(opts))):
            RelaySystem(ss, **opts)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the march sees only grid-point "
                                           "signs and misses a dip within one step")
    def test_near_fold_start_finds_first_crossing(self, third_order):
        # the output dips below zero right after the start and comes back
        # within one march step; a 1e-7-step expm reference crosses at 1.656e-4
        _, ss = third_order
        assert rd.exit_time(ss, np.array([0.492375, -0.0061617, 1e-6]), +1) < 3.2e-4

    def test_quiescent_error(self):
        # negative DC gain: the positive-sign flow settles at y > 0, no crossing
        ss = realize(parse_plant([-1, -1], [6, 5]))
        with pytest.raises(NoCrossingError, match="quiescent"):
            rd.exit_time(ss, [3.0, 2.0], +1)


class TestExitMap:
    def test_lands_on_plane(self, second_order):
        _, ss = second_order
        rng = np.random.default_rng(0)
        for _ in range(25):
            xi = rng.standard_normal(2) * 2.0
            xi[1] = abs(xi[1])  # y >= 0 for the positive sign
            x = rd.exit_map(ss, xi, +1)
            assert abs(x[1]) < 1e-10 * (1 + np.linalg.norm(x))

    def test_lands_beyond_strip(self, second_order):
        # landing points satisfy x_{n-1} <= -|b_{n-1}| (outside the strip)
        _, ss = second_order
        rng = np.random.default_rng(1)
        for _ in range(50):
            xi = rng.standard_normal(2) * 3.0
            xi[1] = abs(xi[1])
            x = rd.exit_map(ss, xi, +1)
            assert x[0] <= -1.0 + 1e-9

    def test_anchor_maps_to_negation(self, second_order):
        from relayosc.limit_cycle import find_symmetric_orbit

        _, ss = second_order
        orbit = find_symmetric_orbit(ss)
        x = rd.exit_map(ss, orbit.anchor, +1)
        assert np.linalg.norm(x + orbit.anchor) < 1e-9

    def test_sign_symmetry_identity(self, second_order):
        # psi_-(x; 1) = -psi_+(-x; 1) on 1000 random points
        _, ss = second_order
        sys_ = RelaySystem(ss)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            xi = rng.standard_normal(2) * 2.5
            xi[1] = -abs(xi[1])  # valid start for the negative sign
            lhs = sys_.exit_map(xi, -1)
            rhs = -sys_.exit_map(-xi, +1)
            assert np.linalg.norm(lhs - rhs) < 1e-9


class TestKthExitMap:
    def test_k1_reduces_to_exit_map(self, second_order):
        _, ss = second_order
        xi = np.array([1.5, 0.0])
        assert np.array_equal(rd.system_for(ss).kth_exit_map(xi, 1), rd.exit_map(ss, xi, +1))

    def test_fixed_point_alternation(self, second_order):
        # at the orbit anchor, -psi(x; k) = x for every k
        from relayosc.limit_cycle import find_symmetric_orbit

        _, ss = second_order
        x_hat = find_symmetric_orbit(ss).anchor
        sys_ = RelaySystem(ss)
        for k in (1, 2, 3, 5):
            assert np.linalg.norm(-sys_.kth_exit_map(x_hat, k) - x_hat) < 1e-8

    def test_region_positive_invariance_at_K(self, second_order, second_order_bounds):
        # x in the anchor region implies -psi(x; K) back in the region
        from relayosc.bounds import anchor_region, sample_anchor_region

        _, ss = second_order
        _, rep = second_order_bounds
        region = anchor_region(ss, rep)
        pts = sample_anchor_region(region, 3, seed=9)
        sys_ = RelaySystem(ss)
        for p in pts:
            img = -sys_.kth_exit_map(p, rep.k_iterations)
            assert region.contains(img, plane_tol=1e-8)

    def test_four_alternating_exit_maps(self, second_order):
        _, ss = second_order
        x = np.array([1.5, 0.0])
        for j in range(4):
            x = rd.exit_map(ss, x if j == 0 else -x, +1)
            assert abs(float(ss.C @ x)) < 1e-9
        assert np.array_equal(rd.system_for(ss).kth_exit_map(np.array([1.5, 0.0]), 4), x)


class TestSimulate:
    def test_third_order_sustained_oscillation(self, third_order):
        _, ss = third_order
        rng = np.random.default_rng(4)
        traj, sliding = rd.simulate(ss, 0.1 * rng.standard_normal(3), 60.0,
                                    dense_dt=0.02)
        assert not sliding.entered_sliding
        assert len(traj.events) >= 20
        # switch landings alternate and stabilize at the orbit amplitude
        ys = traj.states @ ss.C
        assert np.max(np.abs(ys)) < 5.0
        late = ys[traj.times > 40.0]
        assert np.max(late) == pytest.approx(0.578, rel=0.05)
        assert np.min(late) == pytest.approx(-0.578, rel=0.05)

    def test_segment_continuity(self, second_order):
        _, ss = second_order
        traj, _ = rd.simulate(ss, np.array([0.4, 0.2]), 20.0)
        sys_ = RelaySystem(ss)
        for (x0, dt, s), ev in zip(traj.segments, traj.events):
            x_end = sys_.state(np.asarray(x0), s, dt)
            assert np.linalg.norm(x_end - ev.x) < 1e-9 * (1 + np.linalg.norm(ev.x))

    def test_relay_law_consistency(self, second_order):
        # within a segment the output sign matches the relay sign
        _, ss = second_order
        traj, _ = rd.simulate(ss, np.array([0.4, 0.2]), 20.0, dense_dt=0.01)
        ys = traj.states @ ss.C
        mism = (np.abs(ys) > 1e-8) & (np.sign(ys) != traj.relay_signs)
        assert np.mean(mism) < 0.005  # only samples straddling a switch

    def test_negative_dc_gain_settles(self):
        # decay or equilibria, no sustained symmetric oscillation
        ss = realize(parse_plant([-1, -1], [6, 5]))
        traj, sliding = rd.simulate(ss, np.array([0.5, 0.3]), 40.0, dense_dt=0.02)
        assert not sliding.entered_sliding
        ys = traj.states @ ss.C
        late = ys[traj.times > 30.0]
        assert np.all(late > 0) or np.all(late < 0)  # settled on one side

    def test_pitchfork_analog_settles(self):
        ss = realize(parse_plant([-2, 0.5, -1], [6, 11, 6]))
        traj, _ = rd.simulate(ss, np.array([0.2, 0.1, 0.05]), 60.0, dense_dt=0.02)
        ys = traj.states @ ss.C
        late = ys[traj.times > 50.0]
        assert np.all(np.abs(late) < 2.0)
        assert np.all(late > 0) or np.all(late < 0)

    def test_origin_start_deterministic(self, second_order):
        _, ss = second_order
        t1, _ = rd.simulate(ss, np.zeros(2), 10.0)
        t2, _ = rd.simulate(ss, np.zeros(2), 10.0)
        assert t1.segments[0][2] == +1  # both fields depart: +1 chosen
        assert len(t1.events) == len(t2.events)
        for a, b in zip(t1.events, t2.events):
            assert a.t == b.t and np.array_equal(a.x, b.x)

    def test_sliding_set_detected(self):
        # positive leading numerator coefficient: both fields aim at the
        # plane inside |x_{n-1}| < b_{n-1}; the origin is a chattering point
        ss = realize(parse_plant([1, 1], [6, 5]))
        traj, sliding = rd.simulate(ss, np.zeros(2), 10.0)
        assert sliding.entered_sliding
        assert sliding.entry_time == 0.0
        assert abs(sliding.entry_state[0]) < 1.0  # inside the strip

    def test_state_bound_and_rk_agreement(self, second_order):
        # exact event-driven propagation matches a brute-force stiff-free
        # RK integration of the discontinuous loop on a non-switching span
        _, ss = second_order
        x0 = np.array([0.3, 0.25])
        traj, _ = rd.simulate(ss, x0, 5.0, dense_dt=0.001)
        first_switch = traj.events[0].t
        rhs = lambda t, x: ss.A @ x - ss.B * np.sign(ss.C @ x)
        span = 0.8 * first_switch
        sol = solve_ivp(rhs, (0.0, span), x0, rtol=1e-12, atol=1e-14,
                        dense_output=True)
        mask = traj.times <= span
        ref = sol.sol(traj.times[mask])
        assert np.abs(traj.states[mask].T - ref).max() < 1e-8

    def test_final_state_recorded(self, second_order):
        _, ss = second_order
        traj, _ = rd.simulate(ss, np.array([0.4, 0.2]), 10.0)
        fs = traj.final_state
        assert fs is not None and fs.t == 10.0
        # consistency with the relay law at the final instant
        y_end = float(ss.C @ fs.x)
        assert np.sign(y_end) == fs.relay_sign or abs(y_end) < 1e-9

    @pytest.mark.parametrize("max_switches", [0, -1])
    def test_no_switch_budget_rejected(self, second_order, max_switches):
        # no budget would return an empty trajectory marked certified
        _, ss = second_order
        with pytest.raises(ValueError, match="max_switches"):
            RelaySystem(ss).simulate(np.array([0.4, 0.2]), 10.0, max_switches=max_switches)

    def test_switches_faster_than_march_stop_uncertified(self):
        # 1/(s(s+1)): the switches accumulate near t = 13.671 faster than the
        # march step resolves; the run stops there instead of piling up
        # zero-length segments
        ss = realize(parse_plant([1], [0, 1]))
        sys_ = RelaySystem(ss)
        traj, sliding = sys_.simulate(np.array([0.2, 0.1]), 50.0, max_switches=3000)
        assert not sliding.entered_sliding
        assert traj.certified is False
        assert len(traj.events) < 3000
        assert all(length >= sys_.step_hint for _, length, _ in traj.segments[1:])
        assert all(length > 0.0 for _, length, _ in traj.segments)
        fs = traj.final_state
        assert fs.t == traj.events[-1].t and np.array_equal(fs.x, traj.events[-1].x)
        assert fs.t == pytest.approx(13.671, abs=1e-3)

    @pytest.mark.parametrize("name, x0", [
        ("second_order", [0.4, 0.2]), ("third_order", [0.1, -0.3, -0.2]),
        ("third_order_brl", [0.3, 0.1, 0.2]), ("origin", [0.2, 0.1, 0.05]),
        ("sliding", [-1.0, 3.0])])
    def test_events_are_the_exit_event_chain(self, name, x0, request):
        # each event is the exit_event of the previous landing state, at its
        # absolute time, under the sign both fields' output speeds select
        ss = (realize(parse_plant([1, 1], [6, 5])) if name == "sliding"
              else named_plant(name, request))
        sys_ = RelaySystem(ss)
        traj, sliding = sys_.simulate(np.array(x0), 1e6, max_switches=40)
        x, t = np.array(x0), 0.0
        sign = +1 if ss.C @ x > 0 else -1
        for ev in traj.events:
            tau, x, want = sys_.exit_event(x, sign)
            t += tau
            assert (ev.t, ev.incoming_sign, ev.transversal_speed, ev.grazing_flag) == (
                t, sign, want.transversal_speed, want.grazing_flag)
            assert np.array_equal(ev.x, x)
            if sys_.output_speed(x, +1) >= 0.0:
                sign = +1
            elif sys_.output_speed(x, -1) <= 0.0:
                sign = -1
            else:
                sign = None             # both fields aim at the plane
        assert -1 in {ev.incoming_sign for ev in traj.events[1:]}   # selected on the plane
        assert sliding.entered_sliding == (sign is None) == (name == "sliding")
        if sliding.entered_sliding:
            assert sliding.entry_time == t and np.array_equal(sliding.entry_state, x)
        else:
            assert len(traj.events) == 40

    def test_grazing_flag_in_events(self, second_order):
        _, ss = second_order
        traj, _ = rd.simulate(ss, np.array([0.4, 0.2]), 30.0)
        assert all(not ev.grazing_flag for ev in traj.events)
        assert all(abs(ev.transversal_speed) > 1e-8 for ev in traj.events)
        assert traj.certified


class TestExport:
    def test_csv_and_json(self, second_order, tmp_path):
        _, ss = second_order
        traj, sliding = rd.simulate(ss, np.array([0.4, 0.2]), 10.0, dense_dt=0.05)
        path = tmp_path / "traj.csv"
        rd.trajectory_to_csv(traj, path, version="test")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# relayosc test")
        assert lines[1] == "t,x_1,x_2,u,is_switch"
        assert len(lines) > 10
        payload = json.loads(rd.events_to_json(traj, sliding, version="test"))
        assert payload["schema_version"] == 1
        assert len(payload["events"]) == len(traj.events)
        assert payload["sliding"]["entered_sliding"] is False

    def test_csv_flags_every_switch(self, third_order_brl, tmp_path):
        _, ss = third_order_brl
        x0 = np.array([0.5504566376963491, 0.7000708815108326, 0.5253085737531595])
        traj, _ = rd.simulate(ss, x0, 30.0, dense_dt=0.01)
        path = tmp_path / "traj.csv"
        rd.trajectory_to_csv(traj, path)
        rows = [r.split(",") for r in path.read_text().splitlines()[2:]]
        flagged = {float(r[0]) for r in rows if r[-1] == "1"}
        assert len(traj.events) == 19
        assert flagged == {ev.t for ev in traj.events}

    def test_csv_requires_dense(self, second_order):
        _, ss = second_order
        traj, _ = rd.simulate(ss, np.array([0.4, 0.2]), 5.0)
        with pytest.raises(ValueError):
            rd.trajectory_to_csv(traj, "/tmp/nope.csv")


class TestSingularPlant:
    def test_pole_at_origin_augmented_path(self):
        # integrator chain: A singular; exits still computable
        A = np.array([[0.0, 0.0], [1.0, -1.0]])
        B = np.array([1.0, 0.5])
        C = np.array([0.0, 1.0])
        ss = StateSpace(A, B, C)
        sys_ = RelaySystem(ss, t_max=50.0)
        tau = sys_.exit_time(np.array([0.5, 1.0]), +1)
        assert tau > 0
        x = sys_.exit_map(np.array([0.5, 1.0]), +1)
        assert abs(x[1]) < 1e-9


def _ref_state(ss, s, x, t):
    """x' = A x - s B from x, by scipy's expm of [[A, -s B], [0, 0]]."""
    n = ss.n
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = ss.A
    M[:n, n] = -s * ss.B
    return (scipy.linalg.expm(M * t) @ np.append(x, 1.0))[:n]


def _ref_exit(ss, s, x, dt, t_end):
    """First zero of s C x(t) on a grid of step dt, refined by brentq."""
    f = lambda t: s * float(ss.C @ _ref_state(ss, s, x, t))
    ts = np.arange(1, int(np.ceil(t_end / dt)) + 1) * dt
    ys = np.array([f(t) for t in ts])
    k = int(np.flatnonzero(ys <= 0.0)[0])
    lo = ts[k - 1] if k > 0 else 0.0
    return brentq(f, lo, ts[k], xtol=1e-15, rtol=4 * np.finfo(float).eps)


class TestOneKernel:
    """Exit computations and states against an independent propagation at
    n = 2 to 10, where companion eigenvector matrices grow ill-conditioned
    (cond(V) 1.8e4 and 2.0e9 for the n = 6 and 10 draws), and with a pole
    at the origin."""

    PLANTS = ["second_order", "third_order", "third_order_brl", "brl6", "brl10", "origin"]

    @pytest.mark.parametrize("name", PLANTS)
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_exit_event_matches_reference(self, name, sign, request):
        ss = named_plant(name, request)
        sys_ = RelaySystem(ss)
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.standard_normal(ss.n)
            x[-1] = sign * (0.1 + abs(x[-1]))  # start on the side of ``sign``
            tau, x_land, ev = sys_.exit_event(x, sign)
            tau_ref = _ref_exit(ss, sign, x, sys_.step_hint / 4, tau + sys_.step_hint)
            assert tau == pytest.approx(tau_ref, rel=1e-13, abs=1e-13)
            ref = _ref_state(ss, sign, x, tau_ref)
            assert np.linalg.norm(x_land - ref) <= 1e-13 * (1 + np.linalg.norm(ref))
            assert abs(float(ss.C @ x_land)) <= 1e-9 * (1 + np.linalg.norm(x_land))
            assert ev.t == tau and ev.incoming_sign == sign

    @pytest.mark.parametrize("name", PLANTS)
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_exit_propagator_matches_expm(self, name, sign, request):
        ss = named_plant(name, request)
        sys_ = RelaySystem(ss)
        rng = np.random.default_rng(8)
        starts = [rng.standard_normal(ss.n) for _ in range(3)]
        for x in starts:
            x[-1] = sign * (0.1 + abs(x[-1]))
        # just off the plane and heading back: the exit lies in the first
        # node interval, where the grid exponential is the identity
        w = ss.A.T @ ss.C
        w[-1] = 0.0
        x = -sign * (abs(float(ss.C @ ss.B)) + 1.0) / float(ss.C @ ss.A @ w) * w
        x[-1] = sign * 1e-3
        starts.append(x)
        for x in starts:
            exits = sys_.exit_events(x[None], sign)
            tau = exits.tau[0]
            ref = scipy.linalg.expm(ss.A * tau)
            got = sys_.exp(tau)[: ss.n, : ss.n]
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        assert 0.0 < tau < sys_.node_step

    @pytest.mark.parametrize("name", PLANTS)
    def test_state_both_signs(self, name, request):
        ss = named_plant(name, request)
        sys_ = RelaySystem(ss)
        x = np.random.default_rng(3).standard_normal(ss.n)
        for s in (+1, -1):
            for t in (0.0, 0.013, 0.7, 3.0):
                ref = _ref_state(ss, s, x, t)
                got = sys_.state(x, s, t)
                assert np.linalg.norm(got - ref) <= 1e-13 * (1 + np.linalg.norm(ref))
            grid = sys_.grid(x, s, 0.25, 13)
            refs = np.array([_ref_state(ss, s, x, 0.25 * j) for j in range(13)])
            assert np.abs(grid - refs).max() <= 1e-12 * (1 + np.abs(refs).max())

    def test_grid_matches_high_precision(self, request):
        # 2,000 steps within one node interval each: plain powers of
        # e^{M dt} drifted to 2e-12 here
        import mpmath

        ss = named_plant("brl10", request)
        sys_ = RelaySystem(ss)
        x = np.random.default_rng(3).standard_normal(ss.n)
        dt, count = 0.01, 2001
        assert dt <= sys_.node_step
        got = sys_.grid(x, +1, dt, count)
        with mpmath.workdps(40):
            M = mpmath.matrix(sys_.M.tolist())
            z = mpmath.matrix(x.tolist() + [1.0])
            for j in (1, 7, 667, count - 1):
                ref = mpmath.expm(M * (j * mpmath.mpf(dt))) * z
                ref = np.array([float(v) for v in ref[: ss.n]])
                assert np.abs(got[j] - ref).max() <= 1e-14 * (1 + np.abs(ref).max())

    @pytest.mark.parametrize("dt, j", [(0.3, 300), (1.0, 100)])
    def test_grid_beyond_node_interval_matches_high_precision(self, request, dt, j):
        # steps of several node intervals: e^{M dt} - I taken as expm less
        # the identity drifted to 3.7e-13 (dt = 0.3) and 1.1e-12 (dt = 1)
        import mpmath

        ss = named_plant("brl10", request)
        sys_ = RelaySystem(ss)
        x = np.random.default_rng(3).standard_normal(ss.n)
        assert dt > 2 * sys_.node_step
        got = sys_.grid(x, +1, dt, j + 1)[j]
        with mpmath.workdps(40):
            ref = mpmath.expm(mpmath.matrix(sys_.M.tolist()) * (j * mpmath.mpf(dt))) \
                * mpmath.matrix(x.tolist() + [1.0])
            ref = np.array([float(v) for v in ref[: ss.n]])
        assert np.abs(got - ref).max() <= 1e-14 * (1 + np.abs(ref).max())

    @pytest.mark.parametrize("name", ["second_order", "brl10"])
    @pytest.mark.parametrize("step_hint", [None, 0.7])
    def test_exp_matches_high_precision(self, name, step_hint, request):
        # e^{M t} at t = 0, within the first node interval, and past grid
        # points K h whose base-64 digits reach the first three table
        # levels; h = 0.7 spans several node intervals
        import mpmath

        ss = named_plant(name, request)
        sys_ = RelaySystem(ss, step_hint=step_hint)
        ts = [0.0, 0.3 * sys_.node_step] + [
            (K + 0.37) * sys_.step_hint for K in (1, 63, 64, 4097, 262_145)]
        got = sys_.exp(np.array(ts))
        assert np.array_equal(got[0], np.eye(ss.n + 1))
        with mpmath.workdps(40):
            M = mpmath.matrix(sys_.M.tolist())
            for t, E in zip(ts, got):
                ref = np.array(mpmath.expm(M * mpmath.mpf(t)).tolist(), dtype=float)
                assert np.abs(E - ref).max() <= 1e-14 * (1 + np.abs(ref).max())
                assert np.array_equal(sys_.exp(t), E)
        for bad in (np.nan, np.inf, -1.0):     # would loop in grid_exp
            with pytest.raises(ValueError):
                sys_.exp(bad)


def _ref_exits(ss, s, X, dt, t_end):
    """First zero of s C x(t) from each row of X, on a grid of step dt up to
    t_end (powers of scipy's expm of [[A, -s B], [0, 0]] dt), refined by
    brentq on _ref_state.  A start below zero must first rise above it."""
    n = ss.n
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = ss.A
    M[:n, n] = -s * ss.B
    E = scipy.linalg.expm(M * dt)
    count = int(np.ceil(t_end / dt))
    Z = np.vstack((np.asarray(X, dtype=float).T, np.ones(len(X))))
    ys = np.empty((count, len(X)))
    for j in range(count):
        Z = E @ Z
        ys[j] = s * (ss.C @ Z[:n])
    out = []
    for i, x in enumerate(X):
        y = ys[:, i]
        k0 = 0 if s * float(ss.C @ x) > 0 else int(np.flatnonzero(y > 0)[0]) + 1
        k = k0 + int(np.flatnonzero(y[k0:] <= 0.0)[0])
        f = lambda t: s * float(ss.C @ _ref_state(ss, s, x, t))
        out.append(brentq(f, (k + 1) * dt - dt if k > 0 else 0.0, (k + 1) * dt,
                          xtol=1e-15, rtol=4 * np.finfo(float).eps))
    return np.array(out)


def _starts(ss, sign, count, seed):
    """Random starts on the side of ``sign``."""
    X = np.random.default_rng(seed).standard_normal((count, ss.n))
    X[:, -1] = sign * (0.1 + np.abs(X[:, -1]))
    return X


def _ref_level_exits(ss, s, X, level, dt, t_end):
    """First zero of s C x(t) - level from each row of X: the first sign
    change on a grid of step dt up to t_end (powers of scipy's expm of
    [[A, -s B], [0, 0]] dt), then bisection on [C 0] e^{M t} z - level to
    roundoff.  A start on the level must first rise above it."""
    n = ss.n
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = ss.A
    M[:n, n] = -s * ss.B
    E = scipy.linalg.expm(M * dt)
    out = []
    for x in X:
        z = np.append(x, 1.0)
        f = lambda t: s * float(ss.C @ (scipy.linalg.expm(M * t) @ z)[:n]) - level
        risen, w = f(0.0) > 1e-9, z
        for j in range(1, int(np.ceil(t_end / dt)) + 1):
            w = E @ w
            if s * float(ss.C @ w[:n]) - level > 0.0:
                risen = True
            elif risen:
                break
        else:
            raise AssertionError("no reference crossing before t_end")
        lo, hi = (j - 1) * dt, j * dt
        while hi - lo > 2 * np.finfo(float).eps * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
        out.append(0.5 * (lo + hi))
    return np.array(out)


class TestBatchedExits:
    """RelaySystem.exit_events on blocks of starts: the batched march,
    node exponentials from the grid tables and Newton refinement against an
    independent propagation and against the one-row calls, and the per-row
    outcomes."""

    @pytest.mark.parametrize("step_hint", [None, 0.7])
    def test_grid_exponentials(self, second_order, step_hint):
        # e^{M K h} across base-64 digit levels, with one node interval per
        # march step and with several (h = 0.7)
        _, ss = second_order
        sys_ = RelaySystem(ss, step_hint=step_hint)
        assert (sys_.node_step < sys_.step_hint) == (step_hint is not None)
        K = np.array([0, 1, 63, 64, 65, 4095, 4096, 262_145])
        got = sys_.grid_exp(K)
        assert np.array_equal(got[0], np.eye(ss.n + 1))
        for k, E in zip(K, got):
            ref = scipy.linalg.expm(sys_.M * (k * sys_.step_hint))
            assert np.abs(E - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("name", TestOneKernel.PLANTS)
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_block_matches_reference(self, name, sign, request):
        ss = named_plant(name, request)
        sys_ = RelaySystem(ss)
        X = _starts(ss, sign, 50, 11)
        ex = sys_.exit_events(X, sign)
        assert np.all(ex.status == rd.EXITED)
        ref = _ref_exits(ss, sign, X, sys_.step_hint / 4, ex.tau.max() + sys_.step_hint)
        assert np.abs(ex.tau - ref).max() <= 1e-13 * max(1.0, ref.max())
        for x, tau, x_land in zip(X, ref, ex.x):
            want = _ref_state(ss, sign, x, tau)
            assert np.linalg.norm(x_land - want) <= 1e-13 * (1 + np.linalg.norm(want))

    @pytest.mark.parametrize("name", TestOneKernel.PLANTS)
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_level_exits_match_reference(self, name, sign, request):
        # first returns to the plane s C x = level: seeded starts above it,
        # and starts on it that leave it outward (the tanh layer's edge)
        ss = named_plant(name, request)
        sys_ = RelaySystem(ss)
        level = 0.05
        X = _starts(ss, sign, 12, 21)
        on = X.copy()
        on[:, -1] = sign * level                   # C x = x_n
        on = on[sign * sys_.output_speed(on, sign) > 0.1]
        assert len(on) >= 2
        X = np.vstack((X, on))
        ex = sys_.exit_events(X, sign, level=level)
        assert np.all(ex.status == rd.EXITED)
        ref = _ref_level_exits(ss, sign, X, level, sys_.step_hint / 4,
                               ex.tau.max() + sys_.step_hint)
        assert np.abs(ex.tau - ref).max() <= 1e-12 * max(1.0, ref.max())
        assert np.abs(sign * ex.x @ ss.C - level).max() <= 1e-12
        for x, tau, x_land in zip(X, ref, ex.x):
            want = _ref_state(ss, sign, x, tau)
            assert np.linalg.norm(x_land - want) <= 1e-12 * (1 + np.linalg.norm(want))
        zero = sys_.exit_events(X, sign, level=0.0)
        plain = sys_.exit_events(X, sign)
        for got, want in ((zero.tau, plain.tau), (zero.x, plain.x), (zero.status, plain.status)):
            np.testing.assert_array_equal(got, want)

    def test_block_matches_one_row_calls(self, request):
        # bit for bit, although a one-row call marches longer blocks than a
        # block of hundreds: seeded starts and negated landing states (on
        # the plane, exiting at once or lifting off first)
        for name, sign in itertools.product(TestOneKernel.PLANTS, (+1, -1)):
            ss = named_plant(name, request)
            sys_ = RelaySystem(ss)
            X = _starts(ss, sign, 175, 12)
            X = np.vstack((X, -sys_.exit_events(X, sign).x))
            ex = sys_.exit_events(X, sign)
            assert np.count_nonzero(ex.status == rd.EXITED) > len(X) // 2
            for i, x in enumerate(X):
                one = sys_.exit_events(x, sign)
                assert one.status[0] == ex.status[i]
                np.testing.assert_array_equal(one.tau[0], ex.tau[i])
                np.testing.assert_array_equal(one.x[0], ex.x[i])
                np.testing.assert_array_equal(one.speed[0], ex.speed[i])
                if ex.status[i] == rd.EXITED:
                    t1, x1, ev = sys_.exit_event(x, sign)
                    assert t1 == ex.tau[i] and ev.transversal_speed == ex.speed[i]
                    assert np.array_equal(x1, ex.x[i])

    @pytest.mark.parametrize("name", TestOneKernel.PLANTS)
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_mixed_block(self, name, sign, request):
        ss = named_plant(name, request)
        sys_ = RelaySystem(ss)
        h = sys_.step_hint
        X = _starts(ss, sign, 6, 13)
        # landing states, negated and nudged 1e-6 past the plane (the
        # finite-difference probes of the exit map)
        nudged = -sys_.exit_events(X[:2], sign).x
        nudged[:, -1] = -sign * 1e-6
        X = np.vstack((X, nudged))
        taus = sys_.exit_events(X, sign).tau
        # a horizon between two exit times, a grid point clear of both
        t = np.sort(taus)
        i = max(i for i in range(len(t) - 1) if t[i + 1] - t[i] > 3 * h)
        t_max = 0.5 * (t[i] + t[i + 1])
        late = taus > t_max
        # on the plane, leaving the sign region at once: x_{n-2} sets C A x
        depart = np.zeros(ss.n)
        depart[-2] = -sign * (abs(float(ss.C @ ss.B)) + 1.0)
        wrong = X[0].copy()
        wrong[-1] = -sign * 1.0
        block = np.vstack((X, depart, wrong))
        short = RelaySystem(ss, step_hint=h, t_max=t_max)
        ex = short.exit_events(block, sign)
        assert list(ex.status) == ([rd.QUIESCENT if q else rd.EXITED for q in late]
                                   + [rd.EXITED, rd.WRONG_SIDE])
        assert np.array_equal(np.isnan(ex.tau), ex.status != rd.EXITED)
        assert abs(ex.tau[-2]) < 1e-9 and ex.speed[-2] * sign < 0
        assert isinstance(ex.error(int(np.flatnonzero(late)[0])), NoCrossingError)
        assert isinstance(ex.error(len(block) - 1), InvalidStartError)
        assert ex.error(len(block) - 2) is None
        ok = np.flatnonzero(ex.status == rd.EXITED)
        assert np.allclose(ex.tau[ok[:-1]], taus[ok[:-1]], rtol=1e-14, atol=0.0)
        for i in ok:
            t1, x1, _ = short.exit_event(block[i], sign)
            assert t1 == pytest.approx(ex.tau[i], rel=1e-14, abs=1e-15)
            assert np.linalg.norm(x1 - ex.x[i]) <= 1e-14 * (1 + np.linalg.norm(x1))
        probes = [i for i in (6, 7) if not late[i]]
        if probes:
            ref = _ref_exits(ss, sign, block[probes], h / 4, ex.tau[probes].max() + h)
            assert np.abs(ex.tau[probes] - ref).max() <= 1e-13 * max(1.0, ref.max())
        E = sys_.exp(ex.tau[ok])[:, : ss.n, : ss.n]
        for i, Ei in zip(ok, E):
            want = scipy.linalg.expm(ss.A * ex.tau[i])
            assert np.linalg.norm(Ei - want) <= 1e-13 * np.linalg.norm(want)

    def test_first_order_closed_form(self, first_order):
        # y(t) = (y0 + 1) e^{-t} - 1 under y' = -y - 1
        _, ss = first_order
        y0 = np.linspace(0.1, 5.0, 40)
        ex = RelaySystem(ss).exit_events(y0[:, None], +1)
        assert np.abs(ex.tau - np.log1p(y0)).max() <= 1e-13

    def test_constant_field_linear(self):
        # A = 0: y(t) = y0 - t
        ss = StateSpace(np.zeros((1, 1)), np.array([1.0]), np.array([1.0]))
        y0 = np.linspace(0.1, 50.0, 30)
        ex = RelaySystem(ss).exit_events(y0[:, None], +1)
        assert np.abs(ex.tau - y0).max() <= 1e-13 * y0.max()
        assert np.abs(ex.x).max() <= 1e-13

    def test_oscillator_first_zero(self):
        # x1' = -x2, x2' = x1: y = sin(t + 0.1) has zeros at pi - 0.1 + k pi
        ss = StateSpace(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2), np.array([0.0, 1.0]))
        ex = RelaySystem(ss).exit_events(np.array([[np.cos(0.1), np.sin(0.1)]]), +1)
        assert ex.tau[0] == pytest.approx(np.pi - 0.1, abs=1e-12)

    def test_first_zero_after_rising(self):
        # y = 0.1 + sin(2 pi t) rises first; its first zero is
        # (pi + asin(0.1)) / (2 pi), after the peak
        w = 2 * np.pi
        ss = StateSpace(np.array([[0.0, -w * w], [1.0, 0.0]]),
                        np.array([-0.1 * w * w, 0.0]), np.array([0.0, 1.0]))
        ex = RelaySystem(ss).exit_events(np.array([[w, 0.1]]), +1)
        assert ex.tau[0] == pytest.approx((np.pi + np.arcsin(0.1)) / w, abs=1e-12)

    def test_zero_start_lifts_off(self):
        # y = sin(2 pi t) from the plane: the start is not its own exit
        w = 2 * np.pi
        ss = StateSpace(np.array([[0.0, -w * w], [1.0, 0.0]]), np.zeros(2),
                        np.array([0.0, 1.0]))
        ex = RelaySystem(ss).exit_events(np.array([[w, 0.0], [w, 1e-13], [w, -1e-13]]), +1)
        assert np.all(ex.status == rd.EXITED)
        assert np.abs(ex.tau - 0.5).max() <= 1e-12

    def test_no_crossing_row(self):
        # negative DC gain: the positive-sign flow settles at y > 0
        ss = realize(parse_plant([-1, -1], [6, 5]))
        sys_ = RelaySystem(ss)
        ex = sys_.exit_events(np.array([[3.0, 2.0], [1.0, 0.5]]), +1)
        assert np.all(ex.status == rd.QUIESCENT) and np.isnan(ex.tau).all()
        with pytest.raises(NoCrossingError, match="quiescent"):
            raise ex.error(1)

    def test_wrong_sided_row(self, second_order):
        _, ss = second_order
        sys_ = RelaySystem(ss)
        X = np.array([[0.5, -0.3], [2.0, -1e-6], [0.5, 0.3]])
        ex = sys_.exit_events(X, +1)
        assert list(ex.status) == [rd.WRONG_SIDE, rd.EXITED, rd.EXITED]
        with pytest.raises(InvalidStartError, match="wrong side"):
            sys_.exit_event(X[0], +1)
        assert sys_.exit_time(X[1], +1) == pytest.approx(ex.tau[1], rel=1e-14)

    def test_dip_of_march_steps(self, third_order):
        # near-fold starts: y = 1e-6, y' = -v, y'' = acc, so the output dips
        # below zero for t2 = 2 v / acc, 3 to 8 march steps, and comes back;
        # the exit is the down-crossing at the start of the dip
        _, ss = third_order
        sys_ = RelaySystem(ss)
        a, b, y0 = -ss.A[:, -1], ss.B, 1e-6
        rng = np.random.default_rng(5)
        X = []
        for _ in range(8):
            acc = rng.uniform(0.5, 3.0)
            v = acc * rng.uniform(3.0, 8.0) * sys_.step_hint / 2
            X.append([acc - a[2] * v + a[1] * y0 + b[1], -v + a[2] * y0 + b[2], y0])
        X = np.array(X)
        ex = sys_.exit_events(X, +1)
        ref = _ref_exits(ss, +1, X, sys_.step_hint / 4, 2 * sys_.step_hint)
        assert np.abs(ex.tau - ref).max() <= 1e-13
        assert np.all(ex.tau < sys_.step_hint)

    def test_grazing_row_flagged(self):
        # a field almost parallel to the plane: y(t) = y0 - 1e-12 t crosses at
        # y0 / 1e-12 with a speed below GRAZE_TOL; the march step (1e3) spans
        # a thousand Taylor node intervals
        ss = StateSpace(np.zeros((2, 2)), np.array([-1.0, 1e-12]), np.array([0.0, 1.0]))
        sys_ = RelaySystem(ss, t_max=1e7)
        assert sys_.node_step < sys_.step_hint
        y0 = np.array([1e-6, 2e-6, 3e-6])
        ex = sys_.exit_events(np.column_stack((np.zeros(3), y0)), +1)
        assert np.abs(ex.tau / (y0 * 1e12) - 1.0).max() <= 1e-12
        assert np.all(np.abs(ex.speed) <= rd.GRAZE_TOL)
        _, _, ev = sys_.exit_event([0.0, 1e-6], +1)
        assert ev.grazing_flag

    def test_module_wrappers_share_one_system(self, second_order, third_order):
        _, ss = second_order
        rd._cached_system.cache_clear()
        x = np.array([0.4, 0.2])
        rd.exit_time(ss, x)
        rd.exit_map(ss, x)
        rd.system_for(ss).kth_exit_map(x, 2)
        rd.simulate(ss, x, 1.0)
        copy = StateSpace(ss.A.copy(), ss.B.copy(), ss.C.copy())
        rd.exit_time(copy, x)
        assert rd._cached_system.cache_info().misses == 1
        rd.exit_time(third_order[1], np.array([0.3, 0.2, 0.5]))
        assert rd._cached_system.cache_info().misses == 2
        A = ss.A.copy()
        A[0, -1] *= 1.01        # the same arrays, changed content
        rd.exit_time(StateSpace(A, ss.B, ss.C), x)
        assert rd._cached_system.cache_info().misses == 3
