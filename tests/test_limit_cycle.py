import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from relayosc import limit_cycle as lc
from relayosc import numerics
from relayosc import poincare as pc
from relayosc.errors import NoOrbitError
from relayosc.plant import StateSpace
from relayosc.relay_dynamics import RelaySystem


@pytest.fixture(scope="module")
def orbit2(second_order):
    _, ss = second_order
    return lc.find_symmetric_orbit(ss)


@pytest.fixture(scope="module")
def orbit3(third_order):
    _, ss = third_order
    return lc.find_symmetric_orbit(ss)


class TestFindSymmetricOrbit:
    def test_second_order_orbit(self, second_order, orbit2):
        _, ss = second_order
        assert orbit2.is_symmetric_unimodal
        assert orbit2.half_period > 0
        assert abs(ss.C @ orbit2.anchor) == 0.0
        assert orbit2.anchor[0] >= 1.0  # beyond the strip, positive side

    def test_orbit_closes_under_independent_integration(self, second_order, orbit2):
        # oracle: integrate x' = A x - B with an off-the-shelf RK and check
        # the trajectory from the anchor reaches its own negation
        _, ss = second_order
        rhs = lambda t, x: ss.A @ x - ss.B
        sol = solve_ivp(rhs, (0.0, orbit2.half_period), orbit2.anchor,
                        rtol=1e-12, atol=1e-14)
        assert np.linalg.norm(sol.y[:, -1] + orbit2.anchor) < 1e-8

    def test_first_order_has_no_orbit(self, first_order):
        # g(tau) = tanh(tau/2) > 0 for tau > 0: no root exists
        _, ss = first_order
        with pytest.raises(NoOrbitError):
            lc.find_symmetric_orbit(ss)

    def test_time_rescaling_halves_half_period(self, second_order, orbit2):
        _, ss = second_order
        A2 = (2.0 * ss.A).copy()
        B2 = (2.0 * ss.B).copy()
        for m in (A2, B2):
            m.setflags(write=False)
        orbit_fast = lc.find_symmetric_orbit(StateSpace(A2, B2, ss.C))
        assert orbit_fast.half_period == pytest.approx(
            orbit2.half_period / 2, rel=1e-9)

    def test_output_speeds_and_jump(self, second_order, orbit2):
        # relative degree one: the output-speed jump at a switch is 2|b_{n-1}|
        _, ss = second_order
        (r1b, r1a), (r2b, r2a) = orbit2.output_speeds
        assert abs(abs(r1a) - abs(r1b)) == pytest.approx(2.0, abs=1e-9)
        assert abs(r1b) == pytest.approx(abs(r2b), abs=1e-12)
        assert r1b * r1a > 0  # same sign on both sides of the crossing

    def test_peak_output_matches_dense_scan(self, second_order, orbit2):
        _, ss = second_order
        sys_ = RelaySystem(ss)
        ts = np.linspace(0, orbit2.half_period, 40_000)
        ys = sys_.flow.output(orbit2.anchor, +1, ts)
        assert orbit2.peak_output == pytest.approx(np.max(np.abs(ys)), abs=1e-6)

    def test_return_all_lists_candidates(self, second_order):
        _, ss = second_order
        cands = lc.find_symmetric_orbit(ss, return_all=True)
        assert len(cands) >= 1
        assert any(c.is_symmetric_unimodal for c in cands)

    def test_orbit_consistency_with_exit_machinery(self, second_order, orbit2):
        from relayosc.relay_dynamics import exit_map, exit_time

        _, ss = second_order
        assert exit_time(ss, orbit2.anchor, +1) == pytest.approx(
            orbit2.half_period, abs=1e-8)
        assert np.linalg.norm(exit_map(ss, orbit2.anchor, +1)
                              + orbit2.anchor) < 1e-8

    @pytest.mark.parametrize("plant", ["second_order", "third_order", "third_order_brl"])
    def test_batched_scan_matches_scalar(self, plant, request):
        _, ss = request.getfixturevalue(plant)
        g, _ = lc._orbit_function(ss)
        taus = np.geomspace(1e-4, 100.0, 400)
        assert np.array_equal(g(taus), [g(t) for t in taus])

    def test_scan_is_one_batched_expm(self, third_order, monkeypatch):
        _, ss = third_order
        ndims = []
        expm = numerics.expm

        def counted(M, t=1.0):
            ndims.append(np.ndim(t))
            return expm(M, t)

        monkeypatch.setattr(numerics, "expm", counted)
        lc.find_symmetric_orbit(ss)
        assert ndims.count(1) == 1
        assert ndims.count(0) < 100  # Brent, the anchors, one RelaySystem


class TestMonodromyExact:
    def test_det_identity(self, second_order, orbit2):
        # algebraic identity between the matrix determinant and the
        # closed-form limit built from the same jump integrals
        _, ss = second_order
        rep = lc.monodromy_exact(ss, orbit2)
        assert rep.det == pytest.approx(rep.det_limit_formula, rel=1e-8)

    def test_trivial_multiplier_present(self, second_order, orbit2):
        _, ss = second_order
        rep = lc.monodromy_exact(ss, orbit2)
        assert rep.trivial_multiplier_error < 1e-10

    def test_field_maps_through_period(self, second_order, orbit2):
        # the monodromy fixes the orbit's field direction exactly
        _, ss = second_order
        rep = lc.monodromy_exact(ss, orbit2)
        w = ss.A @ orbit2.anchor - ss.B  # field just after the anchor switch
        assert np.linalg.norm(rep.matrix @ w - w) < 1e-9 * np.linalg.norm(w)

    def test_multipliers_match_chained_jacobian(self, second_order, orbit2):
        # nontrivial multipliers = nonzero eigenvalues of the full-period
        # chained return-map jacobian (both linearize the same return map)
        _, ss = second_order
        rep = lc.monodromy_exact(ss, orbit2)
        J_a, J_e, _ = pc.chained_jacobians(ss, orbit2.anchor, 2)
        lam_ret = np.linalg.eigvals(J_e)
        lam_ret = np.sort(np.abs(lam_ret[np.abs(lam_ret) > 1e-12]))
        mults = np.array(rep.floquet_multipliers)
        nontrivial = np.sort(np.abs(mults[np.abs(mults - 1.0) > 1e-6]))
        assert len(nontrivial) == len(lam_ret)
        assert np.allclose(nontrivial, lam_ret, rtol=1e-4)

    def test_det_decreases_with_extra_damping(self, second_order, orbit2):
        _, ss = second_order
        rep = lc.monodromy_exact(ss, orbit2)
        a_tail = float(-ss.A[-1, -1])
        b_tail = float(ss.B[-1])
        mus = rep.extras["jump_integrals"]
        more_damped = math.exp(-(a_tail + 1.0) * orbit2.period - b_tail * sum(mus))
        assert more_damped < rep.det_limit_formula

    def test_third_order_stable_orbit(self, third_order, orbit3):
        _, ss = third_order
        rep = lc.monodromy_exact(ss, orbit3)
        mults = np.abs(np.array(rep.floquet_multipliers))
        assert rep.trivial_multiplier_error < 1e-10
        nontrivial = np.sort(mults)[:-1]
        assert np.all(nontrivial < 1.0)  # attracting orbit


class TestMonodromyFloquet:
    def test_det_agreement_gamma_1e4(self, second_order, orbit2):
        _, ss = second_order
        exact = lc.monodromy_exact(ss, orbit2)
        flo = lc.monodromy_floquet(ss, 1e4, orbit2)
        assert flo.det == pytest.approx(exact.det, rel=0.02)

    def test_trivial_multiplier_and_liouville(self, second_order, orbit2):
        _, ss = second_order
        flo = lc.monodromy_floquet(ss, 1e4, orbit2)
        assert flo.trivial_multiplier_error < 1e-6
        # Liouville: matrix determinant equals the trace-integral exponential
        assert flo.det == pytest.approx(flo.det_limit_formula, rel=1e-8)

    def test_multipliers_continuous_in_gamma(self, second_order, orbit2):
        _, ss = second_order
        f3 = lc.monodromy_floquet(ss, 1e3, orbit2)
        f4 = lc.monodromy_floquet(ss, 1e4, orbit2)
        m3 = np.sort(np.abs(np.array(f3.floquet_multipliers)))
        m4 = np.sort(np.abs(np.array(f4.floquet_multipliers)))
        assert np.all(np.abs(m3 - m4) / np.maximum(m4, 1e-12) < 0.05)

    def test_period_approaches_relay_period(self, second_order, orbit2):
        _, ss = second_order
        flo = lc.monodromy_floquet(ss, 1e4, orbit2)
        assert flo.period == pytest.approx(orbit2.period, rel=1e-3)

    def test_bad_gamma_rejected(self, second_order, orbit2):
        _, ss = second_order
        with pytest.raises(ValueError):
            lc.monodromy_floquet(ss, -5.0, orbit2)


class TestMonodromySinusoid:
    def test_dominant_multiplier_close_for_relative_degree_two(
            self, third_order, orbit3):
        # the approximation smears the trivial multiplier but reproduces the
        # dominant nontrivial one (the stability verdict) closely: compare
        # the second-largest magnitudes
        _, ss = third_order
        sin_rep = lc.monodromy_sinusoid(ss, orbit3)
        flo = lc.monodromy_floquet(ss, 1e4, orbit3)
        a = np.sort(np.abs(np.array(sin_rep.floquet_multipliers)))[-2]
        b = np.sort(np.abs(np.array(flo.floquet_multipliers)))[-2]
        assert a == pytest.approx(b, rel=0.10)

    def test_jump_integral_matches_speed_form(self, third_order, orbit3):
        # with C B = 0 the sinusoid integral T/(pi M) approximates 2/|rho|
        _, ss = third_order
        mu_sin = orbit3.period / (math.pi * orbit3.peak_output)
        rho = abs(orbit3.output_speeds[0][0])
        assert mu_sin == pytest.approx(2.0 / rho, rel=0.25)


class TestAgainstLongSimulation:
    def test_simulation_settles_on_anchor(self, second_order, orbit2):
        from relayosc import relay_dynamics as rd

        _, ss = second_order
        rng = np.random.default_rng(17)
        for _ in range(3):
            x0 = rng.standard_normal(2) * 2.0
            traj, _ = rd.simulate(ss, x0, 80.0)
            landings = [ev.x for ev in traj.events[-6:]]
            for x in landings:
                assert np.linalg.norm(np.abs(x) - np.abs(orbit2.anchor)) < 1e-7
