import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import make_brl_plant, make_stable_plant, named_plant
from relayosc import limit_cycle, numerics, sfs
from relayosc.errors import RelayOscError
from relayosc.plant import _combine, _derivative, _mul, _sign, _sturm, parse_plant, realize
from relayosc.relay_dynamics import system_for

#: (s^2 + s + 125) / (s^3 + 3 s^2 + 100 s + 179.25): the Routh product
#: (3 + g)(100 + g) - (179.25 + 125 g) = (g - 10.5)(g - 11.5) is negative on
#: (10.5, 11.5) only, so the closed loop is unstable on that window alone.
WINDOW_PLANT = ([125.0, 1.0, 1.0], [179.25, 100.0, 3.0])


def per_gain_hyperbolicity(ss, gamma_max, samples):
    """The check evaluated one gain at a time with a plain depth-first
    stack; returns (hurwitz, witness gain, witness eigenvalues, evaluations)."""
    norm_B = float(np.linalg.norm(ss.B))
    count = 0

    def at(kappa):
        nonlocal count
        count += 1
        lam, V = np.linalg.eig(ss.A - kappa * np.outer(ss.B, ss.C))
        lip = float(numerics.eigenvector_condition(V)) * norm_B   # inf if defective
        return -float(lam.real.max()), lip, lam

    kappas = np.linspace(0.0, gamma_max, samples + 1)
    vals = [at(float(k)) for k in kappas]
    for i, (m, _, lam) in enumerate(vals):
        if m > 0.0:
            continue
        if i == 0 or vals[i - 1][0] <= 0.0:
            return False, float(kappas[i]), tuple(lam), count
        lo, hi, lam_hi = float(kappas[i - 1]), float(kappas[i]), lam
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            m_mid, _, lam_mid = at(mid)
            if m_mid <= 0.0:
                hi, lam_hi = mid, lam_mid
            else:
                lo = mid
            if hi - lo <= 1e-9 * max(1.0, hi):
                break
        return False, hi, tuple(lam_hi), count
    stack = [(float(kappas[i]), float(kappas[i + 1]), vals[i][:2], vals[i + 1][:2])
             for i in range(samples)]
    min_width = max(gamma_max * 1e-9, 1e-12)
    while stack:
        lo, hi, (mlo, llo), (mhi, lhi) = stack.pop()
        lip = max(llo, lhi)
        if np.isfinite(lip) and min(mlo, mhi) > (hi - lo) * lip:
            continue
        if hi - lo <= min_width and min(mlo, mhi) > 0:
            continue
        mid = 0.5 * (lo + hi)
        m, l, lam = at(mid)
        if m <= 0.0:
            return False, mid, tuple(lam), count
        stack.append((lo, mid, (mlo, llo), (m, l)))
        stack.append((mid, hi, (m, l), (mhi, lhi)))
    return True, None, None, count


def _fraction_value(p, x):
    """p(x) times x.denominator ** deg p, for a Fraction x."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc, scale = acc * x.numerator + c * scale, scale * x.denominator
    return acc


def _fraction_count(seq, x):
    signs = [s for s in (_sign(_fraction_value(p, x)) for p in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _fraction_variations(seq, lo, hi):
    return _fraction_count(seq, lo) - _fraction_count(seq, hi)


def fraction_axis_crossings(ss, gamma_max):
    """``sfs._axis_crossings`` with its isolation and bisection on Fraction
    points: the same intervals, midpoints and stop rule, with every point
    reduced by Fraction arithmetic."""
    den = [Fraction(float(c)) for c in ss.den_coeffs] + [Fraction(1)]
    num = [Fraction(float(c)) for c in ss.num_coeffs]
    g_max = Fraction(float(gamma_max))
    out = []
    if num[0] != 0 and 0 < (g0 := -den[0] / num[0]) <= g_max:
        slope = den[1] + g0 * (num[1] if len(num) > 1 else 0)
        out.append(sfs.Crossing(float(g0), 0.0, -_sign(num[0] * slope), 1, "real"))

    scale = math.lcm(*(c.denominator for c in den + num))
    (Dr, Di), (Nr, Ni) = ([_combine([int(c * scale) * (-1) ** (k // 2)
                                     for k, c in enumerate(p) if k % 2 == r], [])
                           for r in (0, 1)] for p in (den, num))
    Q = _combine(_mul(Di, Nr), _mul(Dr, Ni), -1)
    P = _combine(_mul(Dr, Nr), [0] + _mul(Di, Ni))
    W = _combine(_mul(Nr, Nr), [0] + _mul(Ni, Ni))
    while Q and Q[0] == 0:
        Q = Q[1:]
    if len(Q) < 2:
        return out

    dQ = _derivative(Q)
    sturm = _sturm(Q, dQ)
    positive = _sturm(Q, _mul(dQ, P))
    within = _sturm(Q, _mul(dQ, _combine(_mul([g_max.denominator], P), W, g_max.numerator)))

    def split(lo, hi):
        mid, step = (lo + hi) / 2, (hi - lo) / 4
        while _fraction_value(Q, mid) == 0:
            mid, step = mid + step, step / 2
        return mid

    bound = Fraction(1)
    while bound <= 1 + Fraction(max(map(abs, Q[:-1])), abs(Q[-1])):
        bound *= 2
    todo = [(Fraction(0), bound)]
    while todo:
        lo, hi = todo.pop()
        count = _fraction_variations(sturm, lo, hi)
        if count > 1:
            mid = split(lo, hi)
            todo += [(mid, hi), (lo, mid)]
        if (count != 1 or _fraction_variations(positive, lo, hi) >= 0
                or _fraction_variations(within, lo, hi) < 0):
            continue
        at_lo = _fraction_count(sturm, lo)
        while hi - lo > lo / 2**60:
            mid = split(lo, hi)
            if _fraction_count(sturm, mid) == at_lo:
                lo = mid
            else:
                hi = mid
        s_lo, s_hi = _sign(_fraction_value(Q, lo)), _sign(_fraction_value(Q, hi))
        x = (lo + hi) / 2
        gain = Fraction(-_fraction_value(P, x) * x.denominator ** len(W),
                        _fraction_value(W, x) * x.denominator ** len(P))
        out.append(sfs.Crossing(float(gain), math.sqrt(x), 0 if s_lo == s_hi else -s_hi, 1,
                                "hopf"))
    return sorted(out, key=lambda c: (c.gamma0, c.omega0))


class TestSimulateSfs:
    def test_small_gain_decays(self, second_order):
        _, ss = second_order
        cfg = sfs.SfsConfig(gamma=0.1)
        sol = sfs.simulate_sfs(ss, cfg, [0.5, 0.5], 40.0)
        assert np.linalg.norm(sol.y[:, -1]) < 1e-3

    def test_origin_is_equilibrium(self, second_order):
        _, ss = second_order
        for gamma in (0.5, 50.0, 5e3):
            sol = sfs.simulate_sfs(ss, sfs.SfsConfig(gamma=gamma), [0.0, 0.0], 5.0)
            assert np.abs(sol.y).max() < 1e-10

    def test_odd_symmetry(self, second_order):
        # f(-x) = -f(x): mirrored starts give mirrored trajectories
        _, ss = second_order
        cfg = sfs.SfsConfig(gamma=30.0, rel_tol=1e-10, abs_tol=1e-13)
        x0 = np.array([0.4, -0.2])
        sol_p = sfs.simulate_sfs(ss, cfg, x0, 10.0)
        sol_m = sfs.simulate_sfs(ss, cfg, -x0, 10.0)
        ts = np.linspace(0, 10.0, 300)
        assert np.abs(sol_p.sol(ts) + sol_m.sol(ts)).max() < 1e-7

    def test_field_is_odd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ss = realize(make_stable_plant(rng))
            gamma = float(rng.uniform(0.5, 100))
            rhs = sfs.sfs_field(ss, gamma=gamma)
            x = rng.standard_normal(ss.n)
            assert np.allclose(rhs(0.0, -x), -np.asarray(rhs(0.0, x)), atol=1e-12)
            # bit for bit the textbook expression
            expected = ss.A @ x - ss.B * math.tanh(gamma * float(ss.C @ x))
            assert np.array_equal(rhs(0.0, x), expected)

    def test_bad_inputs(self, second_order):
        _, ss = second_order
        with pytest.raises(ValueError):
            sfs.SfsConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            sfs.simulate_sfs(ss, sfs.SfsConfig(gamma=1.0), [0.0, 0.0], -1.0)

    @pytest.mark.parametrize("x0", [[1e200, 1e200], [np.inf, 0.0], [np.nan, 0.0]])
    def test_overflowing_start_rejected(self, second_order, x0):
        # checked once at entry, wherever the start lies against the layer
        _, ss = second_order
        with pytest.raises(ValueError, match="norm overflows"):
            sfs.simulate_sfs(ss, sfs.SfsConfig(gamma=1e3), x0, 1.0)


class TestLayerSplit:
    def test_in_layer_run_is_one_integration(self, second_order):
        # |gamma y| peaks at 14.3 < LAYER_EDGE: the run is one DOP853 call,
        # bit for bit
        _, ss = second_order
        cfg = sfs.SfsConfig(gamma=50.0)
        x0 = np.array([0.1, 0.1])
        run = sfs.simulate_sfs(ss, cfg, x0, 3.0)
        ref = numerics.integrate_adaptive(sfs.sfs_field(ss, 50.0), x0, (0.0, 3.0),
                                          cfg.rel_tol, cfg.abs_tol)
        assert np.abs(50.0 * ss.C @ ref.y).max() < sfs.LAYER_EDGE
        assert np.array_equal(run.t, ref.t) and np.array_equal(run.y, ref.y)
        assert run.nfev == ref.nfev
        ts = np.linspace(0.0, 3.0, 301)
        assert np.array_equal(run.sol(ts), ref.sol(ts))
        assert np.array_equal(run.sol(1.234), ref.sol(1.234))

    @pytest.fixture(scope="class")
    def bench_run(self):
        """The third-order plant from its relay anchor with y(0) = 1e-3, at
        gamma = 1e5 over five relay periods: the run starts outside the
        layer and crosses it ten times."""
        ss = realize(parse_plant([1, -1, 0], [6, 5, 3]))
        orbit = limit_cycle.find_symmetric_orbit(ss)
        x0 = orbit.anchor.copy()
        x0[-1] = 1e-3
        cfg = sfs.SfsConfig(1e5, 1e-10, 1e-12)
        field = sfs.sfs_field(ss, cfg.gamma)
        t_end = 5 * orbit.period
        ref = numerics.integrate_adaptive(field, x0, (0.0, t_end), 1e-13, 1e-15)
        plain = numerics.integrate_adaptive(field, x0, (0.0, t_end), cfg.rel_tol, cfg.abs_tol)
        return ss, sfs.simulate_sfs(ss, cfg, x0, t_end), plain, ref

    def test_split_ends_closer_to_the_reference(self, bench_run):
        # 7.1e-11 against 1.5e-9 for DOP853 over the whole span
        _, run, plain, ref = bench_run
        assert run.t[-1] == plain.t[-1] == ref.t[-1]
        err = np.linalg.norm(run.y[:, -1] - ref.y[:, -1])
        assert err < np.linalg.norm(plain.y[:, -1] - ref.y[:, -1])
        assert err < 1e-9

    def test_split_needs_fewer_evaluations(self, bench_run):
        # 2,137 here; DOP853 across every layer took 5,594 (calls made while
        # integrating; the interpolants that sol builds later are not counted)
        _, run, plain, _ = bench_run
        assert run.nfev <= 3000 < plain.nfev

    def test_dense_output_follows_both_kinds(self, bench_run):
        # affine segments from the relay flow, layer segments from DOP853's
        # interpolant; shapes as scipy's OdeSolution
        ss, run, _, ref = bench_run
        ts = np.linspace(0.0, run.t[-1], 4001)
        xs = run.sol(ts)
        assert xs.shape == (ss.n, len(ts)) and run.sol(0.5).shape == (ss.n,)
        assert np.abs(xs - ref.sol(ts)).max() < 1e-8
        assert np.array_equal(run.sol(ts[1234]), xs[:, 1234])
        assert np.array_equal(run.sol(ts[:1]), xs[:, :1])
        assert run.sol(ts[:0]).shape == (ss.n, 0)
        corners = [0, 1000, 2000, 4000]  # segments of both kinds
        assert np.array_equal(run.sol(ts[corners].reshape(2, 2)),
                              xs[:, corners].reshape(ss.n, 2, 2))
        assert run.y.shape == (ss.n, len(run.t)) and np.all(np.diff(run.t) > 0)
        assert np.array_equal(run.sol(run.t[-1]), run.y[:, -1])

    def test_quiescent_search_advances_one_horizon(self):
        # 1/(s (s+1)^2) at gamma = 1 from y = 998: the affine flow takes
        # about 980 time units back to the layer, ten times the exit
        # horizon t_max = 100 of a plant with a pole at the origin
        ss = realize(parse_plant([1], [0, 1, 2]))
        x0 = system_for(ss).state(np.zeros(3), -1, 1000.0)
        assert ss.C @ x0 == pytest.approx(998.0) and system_for(ss).t_max == 100.0
        run = sfs.simulate_sfs(ss, sfs.SfsConfig(1.0), x0, 2500.0)
        ref = numerics.integrate_adaptive(sfs.sfs_field(ss, 1.0), x0, (0.0, 2500.0),
                                          1e-11, 1e-13)
        ts = np.array([500.0, 1000.0, 1500.0, 2500.0])
        assert np.abs(ss.C @ ref.sol(ts[2:])).max() < 1e-9
        assert np.abs(ss.C @ (run.sol(ts) - ref.sol(ts))).max() < 1e-8


class TestRootLocus:
    def test_second_order_closed_form(self, second_order):
        # char poly s^2 + (5 - g)s + (6 + g): crossing at g=5, w=sqrt(11)
        _, ss = second_order
        scan = sfs.root_locus(ss, 1e3, 400)
        hopf = [c for c in scan.crossings if c.kind == "hopf"]
        assert len(hopf) == 1
        assert hopf[0].gamma0 == pytest.approx(5.0, rel=1e-6)
        assert hopf[0].omega0 == pytest.approx(np.sqrt(11.0), rel=1e-6)
        assert hopf[0].direction == +1
        assert hopf[0].multiplicity_parity == 1

    def test_third_order_routh_closed_form(self, third_order):
        # 3(5 - g) = 6 + g gives g = 2.25, w = sqrt(2.75)
        _, ss = third_order
        scan = sfs.root_locus(ss, 100.0, 400)
        hopf = [c for c in scan.crossings if c.kind == "hopf"]
        assert hopf[0].gamma0 == pytest.approx(2.25, rel=1e-6)
        assert hopf[0].omega0 == pytest.approx(np.sqrt(2.75), rel=1e-6)

    def test_minimum_phase_no_crossing(self):
        ss = realize(parse_plant([1], [1, 2]))  # 1/(s+1)^2
        scan = sfs.root_locus(ss, 1e3, 200)
        assert scan.crossings == ()

    def test_characteristic_polynomial_identity(self):
        # eigenvalues of A - g B C are the roots of
        # lambda^n + sum (a_i + g b_i) lambda^i
        rng = np.random.default_rng(15)
        for _ in range(100):
            tf = make_stable_plant(rng)
            ss = realize(tf)
            g = float(rng.uniform(0.01, 50.0))
            lam = np.sort_complex(sfs.closed_loop_eigenvalues(ss, g))
            coeffs_desc = [1.0] + [a + g * b for a, b in
                                   zip(tf.den_coeffs[::-1], tf.num_coeffs[::-1])]
            roots = np.sort_complex(np.roots(coeffs_desc))
            scale = max(1.0, np.abs(roots).max())
            assert np.abs(lam - roots).max() <= 1e-8 * scale

    def test_eigen_tracks_satisfy_char_poly(self, second_order):
        _, ss = second_order
        scan = sfs.root_locus(ss, 100.0, 50)
        for g, lam in zip(scan.gamma_grid, scan.eigen_tracks):
            for z in lam:
                resid = z**2 + (5 - g) * z + (6 + g)
                assert abs(resid) < 1e-8 * max(1.0, abs(z) ** 2)

    def test_pairing_matches_scalar_greedy(self):
        # the list-popping greedy with scalar abs, on random, permuted,
        # rounded (tied) and real sets
        def greedy(prev, new):
            new = list(new)
            out = np.empty(len(prev), dtype=complex)
            for i, p in enumerate(prev):
                out[i] = new.pop(int(np.argmin([abs(p - q) for q in new])))
            return out

        rng = np.random.default_rng(5)
        for trial in range(600):
            n = int(rng.integers(1, 12))
            prev = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            new = [prev[rng.permutation(n)] + 1e-3 * rng.standard_normal(n),
                   np.round(rng.standard_normal(n), 1).astype(complex),
                   rng.standard_normal(n)][trial % 3]
            if trial % 3 == 1:
                prev = np.round(prev, 1)
            got = sfs._pair_tracks(prev, new)
            assert np.array_equal(got.view(float), greedy(prev, new).view(float))

    @pytest.mark.parametrize("name", ["second_order", "third_order", "third_order_brl",
                                      "brl6", "pitchfork"])
    def test_matches_per_gain_reference(self, name, request, monkeypatch):
        if name == "brl6":
            ss = realize(make_brl_plant(np.random.default_rng(3), 6))
        elif name == "pitchfork":
            ss = realize(parse_plant([-2, 0.5, -1], [6, 11, 6]))
        else:
            ss = request.getfixturevalue(name)[1]
        scan = sfs.root_locus(ss, 1e3, 400)

        def per_gain(ss, gamma):
            return np.linalg.eigvals(ss.A - gamma * np.outer(ss.B, ss.C))

        grid = np.geomspace(1e-2, 1e3, 400)
        tracks = np.empty((400, ss.n), dtype=complex)
        tracks[0] = per_gain(ss, grid[0])
        for i in range(1, 400):
            tracks[i] = sfs._pair_tracks(tracks[i - 1], per_gain(ss, grid[i]))
        assert np.array_equal(scan.gamma_grid, grid)
        assert np.array_equal(scan.eigen_tracks, tracks)
        assert np.array_equal(np.signbit(scan.eigen_tracks.imag), np.signbit(tracks.imag))
        # the crossings, with every eigenvalue evaluated one gain at a time
        def per_gain_rows(ss, gamma):
            if np.ndim(gamma) == 0:
                return per_gain(ss, gamma)
            return np.array([per_gain(ss, g) for g in gamma], dtype=complex)

        monkeypatch.setattr(sfs, "closed_loop_eigenvalues", per_gain_rows)
        assert scan.crossings == sfs.root_locus(ss, 1e3, 400).crossings

    def test_work_counts(self, request, monkeypatch):
        # one stacked eigenvalue call, and the greedy pairing only at the
        # gains where two tracks have the same nearest eigenvalue
        plants = [request.getfixturevalue(name)[1]
                  for name in ("second_order", "third_order", "third_order_brl")]
        plants += [realize(make_brl_plant(np.random.default_rng(3), 6)),
                   realize(parse_plant([-2, 0.5, -1], [6, 11, 6]))]
        grid = np.geomspace(1e-2, 1e3, 400)
        eigenvalues, pair_tracks = sfs.closed_loop_eigenvalues, sfs._pair_tracks
        conflicts = 0
        for ss in plants:
            tracks = sfs.root_locus(ss, 1e3, 400).eigen_tracks
            eig = eigenvalues(ss, grid)
            clashing = []
            for i in range(1, 400):
                d = tracks[i - 1][:, None] - eig[i]
                if len(set(np.hypot(d.real, d.imag).argmin(axis=1))) < ss.n:
                    clashing.append(i)
            calls = {"eigenvalues": 0, "pairs": []}

            def counting_eigenvalues(*args):
                calls["eigenvalues"] += 1
                return eigenvalues(*args)

            def counting_pairs(prev, new):
                calls["pairs"].append(new)
                return pair_tracks(prev, new)

            monkeypatch.setattr(sfs, "closed_loop_eigenvalues", counting_eigenvalues)
            monkeypatch.setattr(sfs, "_pair_tracks", counting_pairs)
            sfs.root_locus(ss, 1e3, 400)
            monkeypatch.undo()
            assert calls["eigenvalues"] == 1
            assert len(calls["pairs"]) == len(clashing)
            assert all(np.array_equal(new, eig[i]) for new, i in zip(calls["pairs"], clashing))
            conflicts += len(clashing)
        assert conflicts > 0

    def test_neighbour_table_is_sliced(self):
        # the pairing's transient stays near the eigenvalue call's own peak;
        # one (399, n, n) table of complex distances would take it 1.8 times
        ss = realize(make_brl_plant(np.random.default_rng(3), 6))
        grid = np.geomspace(1e-2, 1e3, 400)
        sfs.root_locus(ss, 1e3, 400)
        tracemalloc.start()
        try:
            sfs.closed_loop_eigenvalues(ss, grid)
            eig_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sfs.root_locus(ss, 1e3, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * eig_peak

    def test_dyadic_bisection_matches_fractions(self):
        rng = np.random.default_rng(35)
        hopf = 0
        for i in range(160):
            n = 2 + i % 9
            ss = realize(make_brl_plant(rng, n) if i % 2 else make_stable_plant(rng, n))
            gamma_max = 10 ** rng.uniform(0, 4)
            crossings = sfs._axis_crossings(ss, gamma_max)
            assert crossings == fraction_axis_crossings(ss, gamma_max), (i, n)
            hopf += sum(c.kind == "hopf" for c in crossings)
        assert hopf >= 80

    def test_root_on_a_midpoint(self, monkeypatch):
        # 1/(s^3 + 2 s^2 + s + 1): Q(x) = 1 - x, whose root x = 1 is the
        # midpoint of the bisection's second interval (0, 2], so split steps
        # off it once
        ss = realize(parse_plant([1], [1, 1, 2]))
        zeros = []
        value = sfs._value

        def recording(p, x):
            v = value(p, x)
            if v == 0:
                zeros.append(Fraction(x[0], 2 ** x[1]))
            return v

        monkeypatch.setattr(sfs, "_value", recording)
        (c,) = sfs._axis_crossings(ss, 1e3)
        assert (c.gamma0, c.omega0, c.direction, c.kind) == (1.0, 1.0, 1, "hopf")
        assert zeros == [1]
        monkeypatch.undo()
        assert sfs._axis_crossings(ss, 1e3) == fraction_axis_crossings(ss, 1e3)

    @pytest.mark.parametrize("num, den, crossings", [([1], [1, 2], 0), ([1, -1], [6, 5], 1)])
    def test_grid_is_one_stacked_call(self, num, den, crossings, monkeypatch):
        ss = realize(parse_plant(num, den))
        shapes = []
        eigvals = np.linalg.eigvals

        def counting(M):
            shapes.append(np.shape(M))
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        scan = sfs.root_locus(ss, 1e3, 400)
        assert len(scan.crossings) == crossings
        assert [s for s in shapes if len(s) == 3] == [(400, ss.n, ss.n)]
        assert all(s == (ss.n, ss.n) for s in shapes[1:])
        if crossings == 0:
            assert len(shapes) == 1

    def test_closed_form_crossings_exact(self, second_order, third_order):
        for (_, ss), gmax, (g0, w0) in ((second_order, 1e3, (5.0, math.sqrt(11.0))),
                                        (third_order, 100.0, (2.25, math.sqrt(2.75)))):
            (c,) = sfs.root_locus(ss, gmax, 400).crossings
            assert abs(c.gamma0 - g0) <= 1e-12 * g0
            assert abs(c.omega0 - w0) <= 1e-12 * w0

    def test_window_crossings(self):
        ss = realize(parse_plant(*WINDOW_PLANT))
        scan = sfs.root_locus(ss, 1e3, 400)
        assert [(c.kind, c.direction, c.multiplicity_parity) for c in scan.crossings] == [
            ("hopf", +1, 1), ("hopf", -1, 1)]
        assert [c.gamma0 for c in scan.crossings] == pytest.approx([10.5, 11.5], rel=1e-9)
        for c in scan.crossings:  # p(j omega) = 0 at the crossing gain
            s = 1j * c.omega0
            p = (s**3 + np.polyval(ss.den_coeffs[::-1], s)
                 + c.gamma0 * np.polyval(ss.num_coeffs[::-1], s))
            assert abs(p) <= 1e-9 * c.omega0**3

    @pytest.mark.filterwarnings("error")
    def test_numerator_zeros_on_axis(self):
        # (s^2 + 4)/(s + 1)^3: num vanishes at +-2j, which is no crossing;
        # Routh 3 (3 + g) = 1 + 4 g gives g = 8, omega = sqrt(3)
        ss = realize(parse_plant([4, 0, 1], [1, 3, 3]))
        (c,) = sfs.root_locus(ss, 1e3, 400).crossings
        assert (c.kind, c.direction) == ("hopf", +1)
        assert c.gamma0 == pytest.approx(8.0, rel=1e-12)
        assert c.omega0 == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert sfs.hyperbolicity_check(ss, 1e3, 400).witness_gain == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("num, den", [([-2, 0.5, -1], [6, 11, 6]), ([1], [-1]),
                                          ([1, -1], [0, 2, 3]), WINDOW_PLANT])
    def test_directions_match_eigenvalues(self, num, den):
        # just past each crossing gain, the root next to j omega0 lies on
        # the side of the axis that the direction names
        ss = realize(parse_plant(num, den))
        scan = sfs.root_locus(ss, 1e3, 400)
        assert scan.crossings
        for c in scan.crossings:
            lam = sfs.closed_loop_eigenvalues(ss, c.gamma0 * (1 + 1e-6))
            assert np.sign(lam[np.argmin(np.abs(lam - 1j * c.omega0))].real) == c.direction

    def test_pitchfork_then_hopf_both_detected(self):
        # negative DC gain plant with a later complex crossing
        ss = realize(parse_plant([-2, 0.5, -1], [6, 11, 6]))
        scan = sfs.root_locus(ss, 1e3, 400)
        kinds = [c.kind for c in scan.crossings]
        assert kinds == ["real", "hopf"]
        assert scan.crossings[0].gamma0 == pytest.approx(3.0, rel=1e-6)
        g_hopf = (-12 + np.sqrt(144 + 480)) / 2  # root of g^2 + 12 g - 120
        assert scan.crossings[1].gamma0 == pytest.approx(g_hopf, rel=1e-6)


def _unstable_besides_pair(ss, gamma0, omega0):
    """Eigenvalues of A - gamma0 B C in the open right half plane, leaving
    out the two nearest +-j omega0, and the smallest |Re| among the rest."""
    lam = sfs.closed_loop_eigenvalues(ss, gamma0)
    rest = np.delete(lam, [np.argmin(np.abs(lam - 1j * omega0)),
                           np.argmin(np.abs(lam + 1j * omega0))])
    return int(np.count_nonzero(rest.real > 0)), float(np.abs(rest.real).min(initial=np.inf))


def _l1_identity(ss, gamma0, omega0):
    """-(gamma0^3 / omega0) |C q|^2 Re lambda'(gamma0) with |q| = 1, lambda'
    by central differences of the closed-loop eigenvalues."""
    lam, V = np.linalg.eig(sfs.closed_loop_matrix(ss, gamma0))
    Cq = ss.C @ V[:, np.argmin(np.abs(lam - 1j * omega0))]
    h = 1e-5 * gamma0
    up, down = (sfs.closed_loop_eigenvalues(ss, g) for g in (gamma0 + h, gamma0 - h))
    dlam = (up[np.argmin(np.abs(up - 1j * omega0))]
            - down[np.argmin(np.abs(down - 1j * omega0))]) / (2 * h)
    return -gamma0**3 / omega0 * abs(Cq) ** 2 * dlam.real


def _sim_amplitude_ratio(ss, ev):
    """Simulated steady output amplitude at ev["gamma"], from a small start,
    over the normal-form prediction."""
    gamma = ev["gamma"]
    growth = float(sfs.closed_loop_eigenvalues(ss, gamma).real.max())
    x0 = np.random.default_rng(0).standard_normal(ss.n)
    x0 *= 1e-3 / np.linalg.norm(x0)
    t_end = max(100.0, 4.0 * math.log(1e3) / growth)  # growth to order one, with margin
    sol = sfs.simulate_sfs(ss, sfs.SfsConfig(gamma=gamma), x0, t_end)
    ys = ss.C @ sol.sol(np.linspace(0.8 * t_end, t_end, 2000))
    return float(np.abs(ys).max()) / ev["predicted_amplitude"]


class TestHopfClassify:
    def test_supercritical_second_order(self, second_order):
        _, ss = second_order
        scan = sfs.root_locus(ss, 1e3, 400)
        rep = sfs.hopf_classify(ss, scan)
        assert rep.kind == "supercritical"
        assert rep.gamma0 == pytest.approx(5.0, rel=1e-6)
        assert rep.l1 == pytest.approx(-1.5704, abs=1e-4)
        assert rep.unstable_count == 0
        assert rep.pitchfork_gammas == ()
        amps = [v["predicted_amplitude"] for v in rep.evidence.values()]
        assert all(a < 0.5 for a in amps)
        assert amps == sorted(amps)  # amplitude grows with the offset

    def test_hopf_past_unstable_real_root(self):
        # a real root crosses into the right half plane at gamma = 3, before
        # the Hopf point at 6.49: the origin is already unstable there, yet
        # the Hopf point itself is supercritical (l1 < 0)
        ss = realize(parse_plant([-2, 0.5, -1], [6, 11, 6]))
        scan = sfs.root_locus(ss, 1e3, 400)
        rep = sfs.hopf_classify(ss, scan)
        assert rep.pitchfork_gammas[0] == pytest.approx(3.0, rel=1e-9)
        assert rep.kind == "supercritical"
        assert rep.l1 == pytest.approx(-1.652, abs=1e-3)
        assert rep.unstable_count == 1
        assert rep.unstable_count == _unstable_besides_pair(ss, rep.gamma0, rep.omega0)[0]

    def test_pole_at_origin_positive_dc_numerator(self):
        # (1 - s) / (s (s + 1) (s + 2)): a0 = 0, b0 = 1, so the closed-form
        # pitchfork gain -a0/b0 is not positive; the Hopf point is
        # gamma0 = 1.5, omega0 = 1/sqrt(2) (Routh: 3 (2 - g) = g)
        ss = realize(parse_plant([1, -1], [0, 2, 3]))
        scan = sfs.root_locus(ss, 1e3, 400)
        rep = sfs.hopf_classify(ss, scan)
        assert rep.gamma0 == pytest.approx(1.5, rel=1e-6)
        assert rep.omega0 == pytest.approx(1 / np.sqrt(2), rel=1e-6)
        assert rep.kind == "supercritical"
        assert rep.l1 == pytest.approx(-0.0670, abs=1e-4)
        assert rep.unstable_count == 0
        assert rep.pitchfork_gammas == ()

    @pytest.mark.parametrize("plant", [([1, -1], [6, 5]), ([1, -1], [0, 2, 3])],
                             ids=["second_order", "pole_at_origin"])
    def test_predicted_amplitude_matches_simulation(self, plant):
        # the simulated cycle's amplitude tends to the normal-form
        # prediction as delta -> 0 (0.984 and 0.926 of it here)
        ss = realize(parse_plant(*plant))
        rep = sfs.hopf_classify(ss, sfs.root_locus(ss, 1e3, 400), (0.02, 0.1))
        near, far = (_sim_amplitude_ratio(ss, rep.evidence[f"delta={d}"]) for d in (0.02, 0.1))
        assert abs(near - 1.0) <= 0.03
        assert abs(near - 1.0) < abs(far - 1.0)

    def test_evidence_gain_and_amplitude(self, second_order):
        _, ss = second_order
        rep = sfs.hopf_classify(ss, sfs.root_locus(ss, 1e3, 400), (0.2, 0.3))
        for delta in (0.2, 0.3):
            ev = rep.evidence[f"delta={delta}"]
            assert ev["gamma"] == rep.gamma0 * (1 + delta)
            assert ev["predicted_amplitude"] == pytest.approx(
                2 * math.sqrt(delta / rep.gamma0**2), rel=1e-12)

    def test_l1_matches_eigenvalue_derivative(self):
        # sign(l1) = -direction, and l1 equals the eigenvalue-derivative
        # identity, on the first Hopf point of seeded random plants
        rng = np.random.default_rng(0)
        checked = 0
        for k in range(40):
            ss = realize(make_stable_plant(rng, 2 + k % 4))
            scan = sfs.root_locus(ss, 1e3, 400)
            if not any(c.kind == "hopf" for c in scan.crossings):
                continue
            rep = sfs.hopf_classify(ss, scan)
            first = min((c for c in scan.crossings if c.kind == "hopf"), key=lambda c: c.gamma0)
            assert np.sign(rep.l1) == -first.direction
            assert rep.l1 == pytest.approx(_l1_identity(ss, rep.gamma0, rep.omega0), rel=1e-6)
            count, margin = _unstable_besides_pair(ss, rep.gamma0, rep.omega0)
            if margin > 1e-8:
                assert rep.unstable_count == count
            checked += 1
        assert checked >= 10

    def test_subcritical_where_pair_leaves(self):
        # WINDOW_PLANT is unstable on (10.5, 11.5) only; from gamma = 11 on,
        # the first crossing is the pair leaving the right half plane
        ss = realize(parse_plant(*WINDOW_PLANT))
        scan = sfs.root_locus(ss, 1e3, 400)
        window = dataclasses.replace(
            scan, crossings=tuple(c for c in scan.crossings if c.gamma0 >= 11.0))
        rep = sfs.hopf_classify(ss, window)
        assert rep.gamma0 == pytest.approx(11.5, rel=1e-12)
        assert rep.kind == "subcritical"
        assert rep.l1 > 0
        assert rep.l1 == pytest.approx(_l1_identity(ss, rep.gamma0, rep.omega0), rel=1e-6)
        assert rep.unstable_count == 0 == _unstable_besides_pair(ss, rep.gamma0, rep.omega0)[0]

    def test_negative_delta_rejected(self, second_order):
        _, ss = second_order
        with pytest.raises(ValueError, match="nonnegative"):
            sfs.hopf_classify(ss, sfs.root_locus(ss, 1e3, 400), (0.1, -0.1))

    def test_no_crossing_is_error(self):
        ss = realize(parse_plant([1], [1, 2]))
        scan = sfs.root_locus(ss, 1e3, 200)
        with pytest.raises(RelayOscError):
            sfs.hopf_classify(ss, scan)

    def test_hopf_frequency_matches_linearization(self, second_order):
        _, ss = second_order
        scan = sfs.root_locus(ss, 1e3, 400)
        c = scan.crossings[0]
        lam = sfs.closed_loop_eigenvalues(ss, c.gamma0)
        nearest = lam[np.argmin(np.abs(lam.real))]
        assert abs(nearest.imag) == pytest.approx(c.omega0, rel=1e-9)


class TestDescribingLocus:
    def test_theta_zero_is_minus_one(self, second_order):
        _, ss = second_order
        dl = sfs.describing_locus(ss, np.sqrt(11.0), 5.0)
        assert dl.L_values[0] == -1.0 + 0.0j

    def test_direction_linear_in_theta_squared(self, second_order):
        _, ss = second_order
        dl = sfs.describing_locus(ss, np.sqrt(11.0), 5.0)
        th = dl.theta_grid[25]
        fd = (dl.L_values[25] - dl.L_values[0]) / th**2
        assert abs(fd - dl.locus_direction) < 1e-10 * max(1.0, abs(dl.locus_direction))

    def test_transversal_at_critical_point(self, second_order):
        _, ss = second_order
        dl = sfs.describing_locus(ss, np.sqrt(11.0), 5.0)
        assert not dl.is_tangential
        # at the critical pair, gamma0 * G(j w0) = -1
        assert dl.locus_direction.real < 0
        assert abs(dl.locus_direction.imag) < 1e-9

    @pytest.mark.parametrize("call, match", [
        (lambda ss: sfs.describing_locus(ss, 0.0, 5.0), "omega must be positive"),
        (lambda ss: sfs.root_locus(ss, 100.0, points=9), "points must be >= 10"),
    ])
    def test_bad_frequency_or_grid_rejected(self, second_order, call, match):
        with pytest.raises(ValueError, match=match):
            call(second_order[1])

    def test_pole_on_axis_rejected(self):
        # (s+1)(s^2+1): poles at +/- j
        ss = realize(parse_plant([1], [1, 1, 1]))
        with pytest.raises(RelayOscError, match="pole"):
            sfs.describing_locus(ss, 1.0, 2.0)

    def test_nanosecond_time_scale(self, second_order):
        # the paper's plant with its poles and zero times 1e-9 has the same
        # G at 1e-9 sqrt(11), so the same locus direction (an absolute
        # axis-pole test refuses it); its Nyquist tangent in omega is 1e9
        # times as long.  (s+c)(s^2+c^2), c = 1e-9, keeps its axis pole at c
        _, ss = second_order
        ref = sfs.describing_locus(ss, np.sqrt(11.0), 5.0)
        fast = sfs.describing_locus(realize(parse_plant([1e-18, -1e-9], [6e-18, 5e-9])),
                                    1e-9 * np.sqrt(11.0), 5.0)
        assert abs(fast.locus_direction - ref.locus_direction) <= 1e-14 * abs(ref.locus_direction)
        assert abs(1e-9 * fast.nyquist_tangent - ref.nyquist_tangent) <= 1e-7 * abs(
            ref.nyquist_tangent)
        assert fast.is_tangential is ref.is_tangential is False
        c = 1e-9
        with pytest.raises(RelayOscError, match="pole"):
            sfs.describing_locus(realize(parse_plant([1], [c**3, c**2, c])), c, 2.0)


class TestHyperbolicity:
    def test_no_crossing_plant_certified(self):
        ss = realize(parse_plant([1], [1, 2]))  # 1/(s+1)^2, double pole
        res = sfs.hyperbolicity_check(ss, 1e3, 400)
        assert res.hurwitz_everywhere
        assert res.witness_gain is None

    def test_second_order_witness_near_five(self, second_order):
        _, ss = second_order
        res = sfs.hyperbolicity_check(ss, 1e3, 400)
        assert not res.hurwitz_everywhere
        assert res.witness_gain == pytest.approx(5.0, abs=1e-3)
        assert max(z.real for z in res.witness_eigenvalues) >= 0

    @pytest.mark.parametrize("gamma_max", [3e2, 1e3])
    def test_certified_matches_per_gain_reference(self, gamma_max):
        ss = realize(parse_plant([1], [1, 2]))  # 1/(s+1)^2
        ref = per_gain_hyperbolicity(ss, gamma_max, 400)
        res = sfs.hyperbolicity_check(ss, gamma_max, 400)
        assert ref[:3] == (True, None, None)
        assert (res.hurwitz_everywhere, res.witness_gain, res.witness_eigenvalues) == ref[:3]

    def test_grid_witness_matches_per_gain_reference(self, second_order):
        _, ss = second_order
        ref = per_gain_hyperbolicity(ss, 1e3, 400)
        res = sfs.hyperbolicity_check(ss, 1e3, 400)
        assert not ref[0] and not res.hurwitz_everywhere
        assert abs(res.witness_gain - ref[1]) <= 1e-9 * max(1.0, ref[1])
        assert np.abs(np.sort_complex(res.witness_eigenvalues)
                      - np.sort_complex(ref[2])).max() <= 1e-8

    @pytest.mark.parametrize("name", ["third_order", "third_order_brl", "brl6", "brl10",
                                      "origin", "pitchfork", "axis_zeros"])
    def test_matches_per_gain_reference(self, name, request):
        # where the eigen-scan reference terminates and finds its witness by
        # bisection to the first non-Hurwitz gain, the exact check agrees
        extra = {"pitchfork": ([-2, 0.5, -1], [6, 11, 6]), "axis_zeros": ([4, 0, 1], [1, 3, 3])}
        ss = realize(parse_plant(*extra[name])) if name in extra else named_plant(name, request)
        ref = per_gain_hyperbolicity(ss, 1e3, 400)
        res = sfs.hyperbolicity_check(ss, 1e3, 400)
        assert res.hurwitz_everywhere == ref[0]
        assert abs(res.witness_gain - ref[1]) <= 1e-9 * max(1.0, ref[1])
        assert max(z.real for z in res.witness_eigenvalues) >= 0

    def test_window_witness_is_first_unstable_gain(self):
        # unstable on (10.5, 11.5) only: the witness is the left end
        ss = realize(parse_plant(*WINDOW_PLANT))
        res = sfs.hyperbolicity_check(ss, 1e3, 400)
        assert not res.hurwitz_everywhere
        assert res.witness_gain == pytest.approx(10.5, rel=1e-9)
        lam = sfs.closed_loop_eigenvalues(ss, [10.5 - 1e-6, 11.0, 11.5 + 1e-6]).real.max(axis=1)
        assert lam[0] < 0 < lam[1] and lam[2] < 0

    def test_tangential_touch_is_a_witness(self):
        # the Routh product of (s^2+s+125)/(s^3+3s^2+100s+179) is (g - 11)^2:
        # at g = 11 the pair +-j sqrt(111) touches the axis without crossing
        ss = realize(parse_plant([125, 1, 1], [179, 100, 3]))
        res = sfs.hyperbolicity_check(ss, 1e3, 400)
        assert not res.hurwitz_everywhere
        assert res.witness_gain == pytest.approx(11.0, rel=1e-9)
        assert sorted(z.imag for z in res.witness_eigenvalues if z.real == 0) == pytest.approx(
            [-math.sqrt(111), math.sqrt(111)], rel=1e-12)
        assert sfs.root_locus(ss, 1e3, 400).crossings == ()
        assert sfs.hyperbolicity_check(ss, 10.999, 400).hurwitz_everywhere

    def test_ill_conditioned_order_ten_certified(self):
        # cond(V) is 2-4e9 along [0, 1] for this draw, so a Bauer-Fike
        # interval certificate needs about 8e8 eigen-evaluations; the exact
        # count proves it, and the first crossing, at 2.0846, lies beyond
        ss = realize(make_brl_plant(np.random.default_rng(4), 10))
        res = sfs.hyperbolicity_check(ss, 1.0, 400)
        assert res == sfs.HyperbolicityResult(True)
        grid = np.linspace(0.0, 1.0, 2001)
        assert np.all([np.linalg.eigvals(ss.A - g * np.outer(ss.B, ss.C)).real.max() < 0
                       for g in grid])
        first = sfs.hyperbolicity_check(ss, 1e3, 400).witness_gain
        assert first == pytest.approx(2.0846, abs=1e-4)
        assert sfs.hyperbolicity_check(ss, np.nextafter(first, 0.0), 400).hurwitz_everywhere
        reference = per_gain_hyperbolicity(ss, 1e3, 400)
        assert abs(first - reference[1]) <= 1e-9 * first

    def test_gain_bound_is_decided_exactly(self, second_order):
        # the crossing gain 5 is rational: gamma_max = 5 includes it, the
        # next float below excludes it
        _, ss = second_order
        assert sfs.hyperbolicity_check(ss, 5.0, 400).witness_gain == 5.0
        assert sfs.hyperbolicity_check(ss, np.nextafter(5.0, 0.0), 400).hurwitz_everywhere

    @pytest.mark.parametrize("gamma_max", [np.inf, np.nan, -1.0, 0.0])
    def test_bad_gain_bound_rejected(self, second_order, gamma_max):
        _, ss = second_order
        with pytest.raises(ValueError, match="gamma_max"):
            sfs.hyperbolicity_check(ss, gamma_max)
        with pytest.raises(ValueError, match="gamma_max"):
            sfs.root_locus(ss, gamma_max)

    def test_root_locus_gain_bound_above_minimum(self, second_order):
        _, ss = second_order
        with pytest.raises(ValueError, match="gamma_max"):
            sfs.root_locus(ss, 5e-3)
        with pytest.raises(ValueError, match="gamma_max"):
            sfs.root_locus(ss, sfs.GAMMA_MIN)

    def test_gain_zero_endpoint_is_open_loop(self, second_order):
        _, ss = second_order
        lam = sfs.closed_loop_eigenvalues(ss, 0.0)
        assert np.all(lam.real < 0)

    def test_coefficient_envelope(self):
        # max_z z / cosh(z)^2 = 0.4478 (1-D maximization oracle), so
        # gamma / cosh(gamma y)^2 <= 0.4478 / |y| with equality nowhere
        res = minimize_scalar(lambda z: -z / np.cosh(z) ** 2,
                              bounds=(0.01, 5.0), method="bounded",
                              options={"xatol": 1e-12})
        peak = -res.fun
        assert peak == pytest.approx(0.4478, abs=1e-4)
        rng = np.random.default_rng(23)
        for _ in range(200):
            gamma = rng.uniform(0.1, 1e4)
            y = rng.uniform(1e-4, 3.0)
            val = gamma / np.cosh(min(gamma * y, 300.0)) ** 2
            assert val <= peak / y + 1e-12
            assert gamma / np.cosh(0.0) ** 2 == gamma  # supremum at y = 0
