import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from conftest import make_stable_plant, named_plant
from relayosc import limit_cycle as lc
from relayosc import numerics
from relayosc import poincare as pc
from relayosc.errors import DegenerateOrbitError, NoOrbitError, ShootingError
from relayosc.plant import StateSpace, parse_plant, realize
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
        assert (r2b, r2a) == (-r1b, -r1a)  # the second switch mirrors the first
        sys_ = RelaySystem(ss)
        assert (r1b, r1a) == (sys_.output_speed(-orbit2.anchor, +1),
                              sys_.output_speed(-orbit2.anchor, -1))
        assert r1b * r1a > 0  # same sign on both sides of the crossing

    def test_peak_output_matches_dense_scan(self, second_order, orbit2):
        _, ss = second_order
        sys_ = RelaySystem(ss)
        ts = np.linspace(0, orbit2.half_period, 40_000)
        ys = sys_.state(orbit2.anchor, +1, ts) @ ss.C
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
        # the scan takes the relay flow's exponential once over the whole
        # tau grid, and scipy's Pade expm not at all
        from relayosc import relay_dynamics as rd

        _, ss = third_order
        ndims = []
        exp = rd.RelaySystem.exp

        def counted(self, t):
            ndims.append(np.ndim(t))
            return exp(self, t)

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm called")

        monkeypatch.setattr(rd.RelaySystem, "exp", counted)
        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        lc.find_symmetric_orbit(ss)
        assert ndims.count(1) == 1
        assert ndims.count(0) < 100  # brentq and the anchors

    def test_relative_degree_six_has_no_roundoff_roots(self):
        # near tau = 0, g is of order tau^6 here: Pade's absolute roundoff
        # made ten spurious roots below 0.005, the first of them returned
        ss = realize(parse_plant([0.7110631752133565], [
            829.182283548366, 1663.5501878396944, 1371.454713731981,
            596.381916581404, 144.76859966071333, 18.658443720502593]))
        orbit = lc.find_symmetric_orbit(ss)
        assert orbit.half_period == pytest.approx(1.78786005463380, rel=1e-12, abs=0.0)
        assert min(c.half_period for c in lc.find_symmetric_orbit(ss, return_all=True)) >= 0.5

    def test_verdicts_invariant_under_gain_scaling(self, second_order):
        # the orbit scales with the numerator and tau* does not; the paper's
        # plant at x 1e7 has an endpoint roundoff of -1.4e-9 in its output
        rng = np.random.default_rng(3)
        plants = [second_order[0]] + [make_stable_plant(rng, n)
                                      for n in (3, 4, 5, 6) for _ in range(3)]
        for tf in plants:
            ref = lc.find_symmetric_orbit(realize(tf), return_all=True)
            for k in (1e-8, 1e7):
                got = lc.find_symmetric_orbit(realize(parse_plant(
                    [k * b for b in tf.num_coeffs], list(tf.den_coeffs))), return_all=True)
                assert ([c.is_symmetric_unimodal for c in got]
                        == [c.is_symmetric_unimodal for c in ref])
                for c, r in zip(got, ref):
                    assert c.half_period == pytest.approx(r.half_period, rel=1e-12, abs=0.0)
                    assert np.abs(c.anchor - k * r.anchor).max() <= 1e-12 * k * np.abs(r.anchor).max()


def test_relay_and_orbit_layers_make_no_pade_exponential(
        second_order, second_order_bounds, monkeypatch):
    # the relay flow's own exponential serves exits, states, grids, orbit
    # scans, jacobians and the monodromy; scipy's Pade expm is left to bounds
    from relayosc import relay_dynamics as rd

    _, ss = second_order
    _, rep = second_order_bounds

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    orbit = lc.find_symmetric_orbit(ss)
    lc.monodromy_exact(ss, orbit)
    samples, _ = pc.spectral_survey(ss, rep, 50, k=2, seed=3)
    pc.chained_jacobians(ss, samples[0].point, 2)
    traj, _ = rd.simulate(ss, 1.1 * orbit.anchor, 10.0, dense_dt=0.05)
    assert traj.events and traj.states is not None
    # several node intervals per march step: the refinement moves nodes
    sys_ = RelaySystem(ss, step_hint=0.7)
    assert sys_.node_step < sys_.step_hint
    X = np.random.default_rng(5).standard_normal((20, ss.n))
    X[:, -1] = 0.1 + np.abs(X[:, -1])
    assert np.all(sys_.exit_events(X, +1).status == rd.EXITED)


#: Half-periods found by the A^{-1} B form of g with a scalar Brent
#: refinement, which the augmented-exponential form must reproduce.
REFERENCE_HALF_PERIODS = {
    "second_order": 1.2484861258633189,
    "third_order": 1.9067724405894493,
    "third_order_brl": 1.56679923697241,
    "brl6": 1.748308907303145,
    "brl10": 1.7209643868161808,
}

#: Plants with a pole at the origin, (num, den) ascending without the
#: leading denominator coefficient.
INTEGRATING = {
    "(1-s)/(s(s+2))": ([1, -1], [0, 2]),
    "(1-s)/(s(s+1)^2)": ([1, -1], [0, 1, 2]),
    "1/(s(s+1)^2)": ([1], [0, 1, 2]),
}

#: Their half-periods when the double-integrator check came in.
INTEGRATING_HALF_PERIODS = {
    "(1-s)/(s(s+2))": 2.9847045853578935,
    "(1-s)/(s(s+1)^2)": 5.828377241640092,
    "1/(s(s+1)^2)": 3.212230597605534,
}


class TestAugmentedOrbitFunction:
    @pytest.mark.parametrize("name", sorted(REFERENCE_HALF_PERIODS))
    def test_half_periods_match_reference(self, name, request):
        orbit = lc.find_symmetric_orbit(named_plant(name, request))
        assert orbit.half_period == pytest.approx(REFERENCE_HALF_PERIODS[name],
                                                  rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["third_order", "brl6"])
    def test_anchor_matches_invertible_form(self, name, request):
        # with A invertible, -F = (E - I) A^{-1} B
        ss = named_plant(name, request)
        orbit = lc.find_symmetric_orbit(ss)
        E = scipy.linalg.expm(ss.A * orbit.half_period)
        I = np.eye(ss.n)
        ref = np.linalg.solve(E + I, (E - I) @ np.linalg.solve(ss.A, ss.B))
        assert np.abs(orbit.anchor - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("num, den", INTEGRATING.values(), ids=list(INTEGRATING))
    def test_integrating_plant_matches_simulation(self, num, den):
        ss = realize(parse_plant(num, den))
        orbit = lc.find_symmetric_orbit(ss)
        assert orbit.is_symmetric_unimodal
        traj, _ = RelaySystem(ss).simulate(1.05 * orbit.anchor, 1e6, max_switches=400)
        ts = [ev.t for ev in traj.events]
        assert len(ts) == 400
        assert ts[-1] - ts[-2] == pytest.approx(orbit.half_period, rel=1e-9)
        assert lc.monodromy_exact(ss, orbit).trivial_multiplier_error < 1e-8

    @pytest.mark.parametrize("name", sorted(INTEGRATING))
    def test_integrating_half_periods_kept(self, name):
        orbit = lc.find_symmetric_orbit(realize(parse_plant(*INTEGRATING[name])))
        assert orbit.half_period == pytest.approx(INTEGRATING_HALF_PERIODS[name],
                                                  rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("tau_range", [
        (0.1, 10.0), (1e-4, 100.0),
        # |g| / |X| exceeds DEGENERATE_TOL somewhere on this range, and a
        # root made of roundoff at tau = 1.04e-3 is returned as a valid orbit
        pytest.param((1e-3, 1e4), marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 4: the sign of g is decided with "
                                "no error bound"))])
    def test_double_integrator_is_degenerate(self, tau_range):
        # every orbit of x'' = -sign x is periodic: g vanishes identically,
        # and its roundoff changed sign about 200 times in the scan
        with pytest.raises(DegenerateOrbitError, match="continuum"):
            lc.find_symmetric_orbit(realize(parse_plant([1], [0, 0])), tau_range)

    def test_unstable_plant_overflow_is_no_orbit(self):
        with pytest.raises(NoOrbitError, match="overflow"):
            lc.find_symmetric_orbit(realize(parse_plant([1], [-1])), (1.0, 1000.0))

    def test_chattering_integrator_has_no_orbit(self):
        # 1/(s(s+1)) chatters: g(tau) has no root
        with pytest.raises(NoOrbitError):
            lc.find_symmetric_orbit(realize(parse_plant([1], [0, 1])))

    @pytest.mark.parametrize("den", [[0], [-1]], ids=["1/s", "1/(s-1)"])
    def test_default_range_names_its_requirement(self, den):
        with pytest.raises(ValueError, match="pole off the origin"):
            lc.find_symmetric_orbit(realize(parse_plant([1], den)))


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

    def test_multipliers_are_python_complex(self, second_order, orbit2):
        # the second-order monodromy has a real spectrum
        _, ss = second_order
        rep = lc.monodromy_exact(ss, orbit2)
        assert not np.iscomplexobj(np.linalg.eigvals(rep.matrix))
        assert all(type(m) is complex for m in rep.floquet_multipliers)

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

    @pytest.mark.parametrize("seed, cb_sign", [
        (178, 1), (2275, 1), (2358, 1), (2768, 1),
        (4, -1), (5, -1), (21, -1), (31, -1),
        (2, 0), (3, 0), (7, 0), (12, 0)])
    def test_spectrum_for_each_sign_of_cb(self, seed, cb_sign):
        # the jump factor maps the pre-switch field onto the post-switch one
        # whatever the sign of C B: trivial multiplier 1, and the others the
        # nonzero eigenvalues of the full-period map -psi(.; 2)
        rng = np.random.default_rng(seed)
        ss = realize(make_stable_plant(rng, int(rng.integers(2, 6))))
        assert np.sign(ss.C @ ss.B) == cb_sign
        orbit = lc.find_symmetric_orbit(ss)
        rep = lc.monodromy_exact(ss, orbit)
        assert rep.trivial_multiplier_error < 1e-10
        mults = list(rep.floquet_multipliers)
        mults.pop(int(np.argmin(np.abs(np.array(mults) - 1.0))))
        _, J_e, _ = pc.chained_jacobians(ss, orbit.anchor, 2)
        lam = list(-np.linalg.eigvals(J_e))
        lam.pop(int(np.argmin(np.abs(lam))))      # the start's field direction
        for m in mults:
            j = int(np.argmin(np.abs(np.array(lam) - m)))
            assert abs(lam.pop(j) - m) < 1e-8


class TestMonodromyFloquet:
    @pytest.fixture(scope="class")
    def flo4(self, second_order, orbit2):
        return lc.monodromy_floquet(second_order[1], 1e4, orbit2)

    def test_det_agreement_gamma_1e4(self, second_order, orbit2, flo4):
        _, ss = second_order
        exact = lc.monodromy_exact(ss, orbit2)
        assert flo4.det == pytest.approx(exact.det, rel=0.02)

    def test_trivial_multiplier_and_liouville(self, flo4):
        assert flo4.trivial_multiplier_error < 1e-6
        # Liouville: matrix determinant equals the trace-integral exponential
        assert flo4.det == pytest.approx(flo4.det_limit_formula, rel=1e-8)

    def test_multipliers_continuous_in_gamma(self, second_order, orbit2, flo4):
        _, ss = second_order
        f3 = lc.monodromy_floquet(ss, 1e3, orbit2)
        m3 = np.sort(np.abs(np.array(f3.floquet_multipliers)))
        m4 = np.sort(np.abs(np.array(flo4.floquet_multipliers)))
        assert np.all(np.abs(m3 - m4) / np.maximum(m4, 1e-12) < 0.05)

    def test_period_approaches_relay_period(self, orbit2, flo4):
        assert flo4.period == pytest.approx(orbit2.period, rel=1e-3)

    @pytest.mark.parametrize("gamma", [1e3, 1e4])
    def test_one_shooting_solve_from_the_relay_orbit(self, third_order, orbit3, gamma,
                                                     monkeypatch):
        # one solve at the requested gain: 5 and 4 half-period evaluations
        # here, each starting one integration at t = 0 and one more per
        # layer crossing; integrating the whole half period took 5,818 and
        # 5,288 evaluations of the right-hand side
        shots, starts, nfev = [], [], []
        shoot, integrate = lc._shoot_half_period, numerics.integrate_adaptive

        def counted_shoot(ss, g, z0, tau0, *args, **kwargs):
            shots.append((g, tau0))
            return shoot(ss, g, z0, tau0, *args, **kwargs)

        def counted_integrate(rhs, x0, t_span, *args, **kwargs):
            starts.append(t_span[0] == 0.0)
            sol = integrate(rhs, x0, t_span, *args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(lc, "_shoot_half_period", counted_shoot)
        monkeypatch.setattr(numerics, "integrate_adaptive", counted_integrate)
        lc.monodromy_floquet(third_order[1], gamma, orbit3)
        assert shots == [(gamma, orbit3.half_period)]
        assert sum(starts) <= 6
        assert sum(nfev) <= {1e3: 5000, 1e4: 4000}[gamma]

    def test_integrates_only_the_layer(self, third_order, orbit3, monkeypatch):
        # outside |gamma C z| < LAYER_EDGE the affine flow is exact: the
        # integrated spans of each half-period evaluation cover a few
        # percent of it (2.6 % at gamma = 1e3)
        evaluations, integrate = [], numerics.integrate_adaptive

        def spans(rhs, x0, t_span, *args, **kwargs):
            sol = integrate(rhs, x0, t_span, *args, **kwargs)
            if t_span[0] == 0.0:
                evaluations.append([t_span[1], 0.0])
            evaluations[-1][1] += sol.t[-1] - sol.t[0]
            return sol

        monkeypatch.setattr(numerics, "integrate_adaptive", spans)
        lc.monodromy_floquet(third_order[1], 1e3, orbit3)
        assert evaluations
        for tau, integrated in evaluations:
            assert integrated < 0.05 * tau

    def test_determinant_approaches_the_relay_value(self, third_order, orbit3):
        # at gamma = 1e8 the layer is about 4e-7 wide in time; integrating
        # across it left the determinant 1.8e-11 off the relay value
        _, ss = third_order
        exact = lc.monodromy_exact(ss, orbit3)
        flo = lc.monodromy_floquet(ss, 1e8, orbit3)
        assert abs(flo.det - exact.det) <= 2e-12 * exact.det

    @pytest.mark.parametrize("plant", [([1, -1], [6, 5]), ([1, -1, 0], [6, 5, 3])])
    def test_gain_too_large_for_the_integrator_refused(self, plant):
        # the converged shooting residual, amplified by about gamma through
        # the field's slope at the start in the middle of the layer, leaves
        # the trivial multiplier 0.57 and 5.4e-5 off
        ss = realize(parse_plant(*plant))
        orbit = lc.find_symmetric_orbit(ss)
        with pytest.raises(ShootingError, match="too large for the integrator"):
            lc.monodromy_floquet(ss, 1e12, orbit)

    def test_agrees_with_decade_continuation(self, third_order, orbit3):
        # the relay orbit is the gamma -> infinity limit, as good a start as
        # the orbits of a continuation 100 -> 1e3 -> 1e4
        _, ss = third_order
        z, tau = orbit3.anchor, orbit3.half_period
        for gamma in (100.0, 1e3, 1e4):
            z, tau, Phi_h, _, _ = lc._shoot_half_period(ss, gamma, z, tau)
        flo = lc.monodromy_floquet(ss, 1e4, orbit3)
        Phi = Phi_h @ Phi_h
        assert np.abs(flo.matrix - Phi).max() <= 1e-9 * np.abs(Phi).max()
        assert flo.extras["half_period"] == pytest.approx(tau, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("gamma", [1e3, 1e4])
    def test_large_orbit_converges(self, gamma):
        # the paper's plant with its numerator x 1e5 has |anchor| = 1.27e5,
        # so its converged residual cannot reach an absolute 1e-11
        ss = realize(parse_plant([1e5, -1e5], [6, 5]))
        orbit = lc.find_symmetric_orbit(ss)
        flo = lc.monodromy_floquet(ss, gamma, orbit)
        assert flo.extras["half_period_residual"] < 1e-11 * np.linalg.norm(orbit.anchor)
        assert flo.period == pytest.approx(orbit.period, rel=1e-6)
        assert flo.det == pytest.approx(flo.det_limit_formula, rel=1e-8)
        assert flo.det == pytest.approx(lc.monodromy_exact(ss, orbit).det, rel=1e-4)

    def test_matrix_matches_full_period_integration(self, third_order, orbit3):
        # the half-period square against [z; Phi] integrated over the whole
        # period from the converged orbit
        _, ss = third_order
        gamma, n = 1e3, ss.n
        flo = lc.monodromy_floquet(ss, gamma, orbit3)
        BC = np.outer(ss.B, ss.C)

        def rhs(t, w):
            th = np.tanh(gamma * float(ss.C @ w[:n]))
            Df = ss.A - gamma * (1.0 - th * th) * BC
            return np.concatenate([ss.A @ w[:n] - ss.B * th,
                                   (Df @ w[n:].reshape(n, n)).ravel()])

        w0 = np.concatenate([flo.extras["anchor"], np.eye(n).ravel()])
        sol = solve_ivp(rhs, (0.0, flo.period), w0, method="DOP853", rtol=1e-12, atol=1e-14)
        Phi = sol.y[n:, -1].reshape(n, n)
        assert np.abs(flo.matrix - Phi).max() <= 1e-8 * np.abs(Phi).max()
        assert flo.extras["half_period_residual"] < 1e-11

    def test_bad_gamma_rejected(self, second_order, orbit2):
        _, ss = second_order
        with pytest.raises(ValueError):
            lc.monodromy_floquet(ss, -5.0, orbit2)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0])
    def test_non_finite_or_zero_gamma_rejected(self, second_order, orbit2, gamma):
        # rejected before any integration, which would end in a stiffness
        # failure at nan or inf
        _, ss = second_order
        with pytest.raises(ValueError, match="gamma"):
            lc.monodromy_floquet(ss, gamma, orbit2)


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
