import math

import numpy as np
import pytest
import scipy.linalg

from conftest import make_brl_plant, make_stable_plant, named_plant
from relayosc import bounds as bm
from relayosc import relay_dynamics as rd
from relayosc.plant import StateSpace, realize


class TestDecayEnvelope:
    def test_scalar(self):
        env = bm.decay_envelope(np.array([[-1.0]]), epsilon=0.01)
        assert env.sigma_slowest == pytest.approx(0.99, abs=1e-12)
        assert 1.0 <= env.m_initial <= 1.06

    def test_diagonal_normal_matrix(self):
        env = bm.decay_envelope(np.diag([-1.0, -3.0]), epsilon=0.01)
        assert env.sigma_slowest == pytest.approx(0.99, abs=1e-12)
        assert 1.0 <= env.m_initial <= 1.06

    def test_companion_second_order(self, second_order):
        _, ss = second_order
        env = bm.decay_envelope(ss.A, epsilon=0.01)
        assert env.sigma_slowest == pytest.approx(2.0 - 0.01, abs=1e-9)
        assert env.m_initial > 1.0

    def test_envelope_holds_on_random_times(self, second_order):
        _, ss = second_order
        env = bm.decay_envelope(ss.A)
        rng = np.random.default_rng(1)
        for t in rng.uniform(0.0, 30.0 / env.sigma_slowest, 500):
            nrm = np.linalg.norm(scipy.linalg.expm(ss.A * t), 2)
            assert nrm <= env.m_initial * math.exp(-env.sigma_slowest * t) * (1 + 1e-9)

    def test_default_epsilon_relative(self, second_order):
        _, ss = second_order
        env = bm.decay_envelope(ss.A)
        assert env.epsilon_margin == pytest.approx(1e-3 * 2.0, rel=1e-9)

    @pytest.mark.parametrize("name", ["brl6", "brl10"])
    def test_envelope_holds_off_grid_at_high_order(self, name, request):
        A = named_plant(name, request).A
        env = bm.decay_envelope(A)
        rng = np.random.default_rng(3)
        for t in rng.uniform(0.0, 40.0 / env.sigma_slowest, 200):
            nrm = np.linalg.norm(scipy.linalg.expm(A * t), 2)
            assert nrm <= env.m_initial * math.exp(-env.sigma_slowest * t) * (1 + 1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A", [[[-1.0, 1e307], [0.0, -1.0]],     # A h overflows
                                   [[-1e-3, 1e300], [0.0, -2e-3]],  # e^{A h} overflows
                                   [[-1.0, 1e200], [0.0, -1.0]]])   # P^T P overflows
    def test_overflowing_step_raises_without_warning(self, A, monkeypatch):
        # at the default grid all three overflow in the Gram matrices of the
        # powers, whose NaN norms used to give m_initial = nan, verified
        monkeypatch.setattr(bm, "_GRID_POINTS", 1)
        with pytest.raises(OverflowError, match="overflow"):
            bm.decay_envelope(np.array(A))
        monkeypatch.undo()
        with pytest.raises(OverflowError, match="Gram matrix overflow"):
            bm.decay_envelope(np.array(A))

    def test_non_hurwitz_rejected(self):
        with pytest.raises(ValueError, match="Hurwitz"):
            bm.decay_envelope(np.array([[1.0]]))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -0.1, 2.0])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must lie"):
            bm.decay_envelope(np.diag([-1.0, -3.0]), epsilon=epsilon)

    @pytest.mark.parametrize("A", [
        np.array([[-1.0, math.nan], [0.0, -2.0]]),
        np.array([[-1.0, 0.0], [math.inf, -2.0]]),
        np.ones((2, 3)),
        np.array([-1.0, -2.0]),
        np.zeros((0, 0)),
    ], ids=["nan", "inf", "non-square", "1-D", "0x0"])
    def test_bad_matrix_rejected(self, A):
        with pytest.raises(ValueError, match="A must be a finite, square, non-empty 2-D array"):
            bm.decay_envelope(A)


def _envelope_per_power(A, grid_points=4000, safety=1.05):
    """decay_envelope as one 2-norm per power of e^{Ah}: (m_initial, sigma);
    raises the ValueError of the first failing time."""
    decay = -np.linalg.eigvals(A).real.max()
    sigma = decay - 1e-3 * decay
    h = 40.0 / sigma / grid_points
    Eh = scipy.linalg.expm(A * h)
    m_grid = 1.0
    Ek = np.eye(A.shape[0])
    for k in range(1, grid_points + 1):
        Ek = Eh @ Ek
        m_grid = max(m_grid, np.linalg.norm(Ek, 2) * math.exp(sigma * k * h))
    m_initial = safety * m_grid
    fine = np.linspace(0.0, 20.0 / sigma, 2 * grid_points + 1)
    Ehf = scipy.linalg.expm(A * (fine[1] - fine[0]))
    Ek = np.eye(A.shape[0])
    for k, t in enumerate(fine):
        if k > 0:
            Ek = Ehf @ Ek
        if np.linalg.norm(Ek, 2) > m_initial * math.exp(-sigma * t) * (1 + 1e-9):
            raise ValueError("decay envelope verification failed at t=%g; the eigenvector "
                              "basis may be too ill-conditioned for a grid estimate" % t)
    return float(m_initial), float(sigma)


def _envelope_exhaustive(A, grid_points=4000, safety=1.05):
    """decay_envelope with an exact 2-norm at every power, from the same
    tables and blocks: (m_initial, sigma), or the text of its ValueError."""
    decay = -np.linalg.eigvals(A).real.max()
    sigma = decay - 1e-3 * decay
    h = 40.0 / sigma / grid_points
    ks = np.arange(1, grid_points + 1)
    norms = bm._exact_norms(bm._power_tables(scipy.linalg.expm(A * h), grid_points), ks)
    m_initial = safety * max(1.0, float((norms * np.exp(sigma * ks * h)).max()))
    fine = np.linspace(0.0, 20.0 / sigma, 2 * grid_points + 1)
    tables = bm._power_tables(scipy.linalg.expm(A * (fine[1] - fine[0])), 2 * grid_points)
    norms = np.concatenate(([1.0], bm._exact_norms(tables, np.arange(1, 2 * grid_points + 1))))
    failed = norms > m_initial * np.exp(-sigma * fine) * (1 + 1e-9)
    if failed.any():
        return ("decay envelope verification failed at t=%g; the eigenvector basis may "
                "be too ill-conditioned for a grid estimate" % fine[failed.argmax()])
    return float(m_initial), float(sigma)


def _envelope_or_error(A):
    try:
        env = bm.decay_envelope(A)
    except ValueError as exc:
        return str(exc)
    return env.m_initial, env.sigma_slowest


def _counting_grams(monkeypatch):
    """Count eigvalsh calls and the Gram matrices passed to them."""
    calls = {"eigvalsh": 0, "grams": 0}
    eigvalsh = np.linalg.eigvalsh

    def wrapper(a, *args, **kwargs):
        calls["eigvalsh"] += 1
        calls["grams"] += len(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", wrapper)
    return calls


def _reference_power_norms(E, ks):
    """2-norms of E^k (E as stored, in double) for each k of ``ks``, in
    40-digit arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        M = mpmath.matrix(E.tolist())
        out = []
        for k in ks:
            P, S, j = mpmath.eye(len(E)), M, k
            while j:
                if j & 1:
                    P = S * P
                S, j = S * S, j >> 1
            out.append(float(max(mpmath.svd_r(P, compute_uv=False))))
    return np.array(out)


PLANTS = ["second_order", "third_order_brl", "brl6", "brl10"]


class TestBlockedNorms:
    """The two-level power tables against one 2-norm per power."""

    @pytest.mark.parametrize("name", PLANTS)
    def test_bit_identical_to_per_power_loop(self, name, request):
        # sigma is bit-identical; m_initial moves by the rounding of the
        # products, far below the 5 % safety factor
        A = named_plant(name, request).A
        env = bm.decay_envelope(A)
        m_ref, sigma_ref = _envelope_per_power(A)
        assert env.sigma_slowest == sigma_ref
        assert env.m_initial == pytest.approx(m_ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("grid_points", [777, 1000])
    def test_grid_not_a_multiple_of_the_block(self, grid_points, third_order, monkeypatch):
        A = third_order[1].A
        monkeypatch.setattr(bm, "_GRID_POINTS", grid_points)
        env = bm.decay_envelope(A)
        m_ref, sigma_ref = _envelope_per_power(A, grid_points)
        assert env.sigma_slowest == sigma_ref
        assert env.m_initial == pytest.approx(m_ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("name", PLANTS)
    def test_norms_match_high_precision(self, name, request):
        # table seams (63/64/65), block seams (511/512/513), the maximizer
        # and the last power; the per-power loop must meet the same bound
        A = named_plant(name, request).A
        env = bm.decay_envelope(A)
        count = 4000
        h = 40.0 / env.sigma_slowest / count
        E = scipy.linalg.expm(A * h)
        norms = bm._exact_norms(bm._power_tables(E, count), np.arange(1, count + 1))
        growth = np.exp(env.sigma_slowest * np.arange(1, count + 1) * h)
        ks = sorted({1, 63, 64, 65, 511, 512, 513, int(np.argmax(norms * growth)) + 1, count})
        ref = _reference_power_norms(E, ks)
        P = np.eye(len(A))
        loop = {}
        for k in range(1, count + 1):
            P = E @ P
            loop[k] = np.linalg.norm(P, 2)
        for k, r in zip(ks, ref):
            assert abs(norms[k - 1] - r) <= 3e-11 * r, k
            assert abs(loop[k] - r) <= 3e-11 * r, k

    @pytest.mark.parametrize("A, grid_points, safety", [
        (np.diag([-1.0, -3.0]), 4000, 0.5),                   # fails at t = 0
        (np.array([[-1.0, 10.0], [0.0, -3.0]]), 333, 1.0),    # fails on the hump
    ])
    def test_verification_failure_at_first_time(self, A, grid_points, safety, monkeypatch):
        with pytest.raises(ValueError) as ref:
            _envelope_per_power(A, grid_points, safety)
        monkeypatch.setattr(bm, "_GRID_POINTS", grid_points)
        monkeypatch.setattr(bm, "_SAFETY", safety)
        with pytest.raises(ValueError) as got:
            bm.decay_envelope(A)
        assert str(got.value) == str(ref.value)

    def test_work_counts(self, third_order, monkeypatch):
        calls = {"expm": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scipy.linalg, "expm", counted("expm", scipy.linalg.expm))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        grams = _counting_grams(monkeypatch)
        bm.decay_envelope(third_order[1].A)
        assert calls["expm"] == 2
        assert 0 < grams["eigvalsh"] <= 32
        assert 0 < grams["grams"] <= 64      # of the 12,000 powers
        assert calls["svd"] == 0

    def test_pruned_equals_exhaustive_on_draws(self):
        # n = 2..20, relative degree one and general stable plants (complex
        # poles included); a failed verification must fail at the same t
        for i in range(60):
            rng = np.random.default_rng(500 + i)
            n = 2 + i % 19
            tf = make_brl_plant(rng, n) if i % 2 else make_stable_plant(rng, n)
            A = realize(tf).A
            assert _envelope_or_error(A) == _envelope_exhaustive(A), (i, n)

    @pytest.mark.parametrize("A, min_grams", [
        # the largest term is not at the largest bound: power 101 of 759
        # candidates (n = 2), and one power before it, its bound only 5e-4
        # above the first exact value (n = 10)
        (np.array([[-1.0, 0.5], [0.0, -5.0]]), 3),
        (realize(make_stable_plant(np.random.default_rng(2044), 10)).A, 3),
        # a normal complex pair: both singular values of every power are
        # equal, ||P||_F = sqrt(2) ||P||_2, and no bound decides anything
        (np.array([[-1.0, 5.0], [-5.0, -1.0]]), 12_000),
    ], ids=["non-normal2", "stable10", "complex-pair"])
    def test_candidates_beyond_the_largest_bound(self, A, min_grams, monkeypatch):
        expected = _envelope_exhaustive(A)
        grams = _counting_grams(monkeypatch)
        assert _envelope_or_error(A) == expected
        assert grams["grams"] >= min_grams


class TestBoundsReport:
    def test_formula_transcription(self, second_order, second_order_bounds):
        _, ss = second_order
        env, rep = second_order_bounds
        m, s = env.m_initial, env.sigma_slowest
        nB = np.linalg.norm(ss.B)
        nA = np.linalg.norm(ss.A, 2)
        assert rep.m_loose == pytest.approx(2 * m * nB / s, rel=1e-12)
        assert rep.ball_radius == rep.m_loose
        assert rep.t_excursions_over == pytest.approx(math.log(2 * m) / s, rel=1e-12)
        assert rep.m_excursion == pytest.approx(m * (2 * m + 1) * nB / s, rel=1e-12)
        assert rep.t_min_inter_switch == pytest.approx(
            2 * 1.0 / (nA * rep.m_excursion + nB), rel=1e-12)
        assert rep.k_iterations == math.ceil(rep.t_excursions_over / rep.t_min_inter_switch)

    def test_second_order_positive_and_finite(self, second_order_bounds):
        _, rep = second_order_bounds
        assert rep.t_min_inter_switch > 0
        assert rep.k_iterations >= 1

    def test_b_scaling_homogeneity(self, second_order, second_order_bounds):
        _, ss = second_order
        env, rep = second_order_bounds
        B2 = (2.0 * ss.B).copy()
        B2.setflags(write=False)
        rep2 = bm.bounds_report(StateSpace(ss.A, B2, ss.C), env)
        assert rep2.m_loose == pytest.approx(2 * rep.m_loose, rel=1e-12)
        assert rep2.m_excursion == pytest.approx(2 * rep.m_excursion, rel=1e-12)
        # doubled strip width and doubled speed bound: per the formula
        expect_tmin = 2 * 2.0 / (rep.norm_A * rep2.m_excursion + rep2.norm_B)
        assert rep2.t_min_inter_switch == pytest.approx(expect_tmin, rel=1e-12)

    def test_relative_degree_two_partial(self, third_order, third_order_bounds):
        _, rep = third_order_bounds
        assert rep.t_min_inter_switch is None
        assert rep.k_iterations is None
        assert "zero" in rep.note

    def test_iteration_count_covers_excursion(self, second_order_bounds):
        _, rep = second_order_bounds
        assert rep.k_iterations * rep.t_min_inter_switch >= rep.t_excursions_over


class TestAnchorRegion:
    def test_membership_of_samples(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        region = bm.anchor_region(ss, rep)
        pts = bm.sample_anchor_region(region, 10_000, seed=0)
        assert pts.shape == (10_000, 2)
        assert np.all(pts[:, -1] == 0.0)
        assert np.all(np.linalg.norm(pts, axis=1) <= region.radius + 1e-12)
        assert np.all(pts[:, 0] >= region.strip_halfwidth)

    def test_determinism(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        region = bm.anchor_region(ss, rep)
        a = bm.sample_anchor_region(region, 500, seed=7)
        b = bm.sample_anchor_region(region, 500, seed=7)
        assert np.array_equal(a, b)
        c = bm.sample_anchor_region(region, 500, seed=8)
        assert not np.array_equal(a, c)

    def test_acceptance_fraction_interval_cut(self, second_order, second_order_bounds):
        # n=2: the in-ball set is the segment [-R, R]; the strip cut keeps
        # (R - w) / (2R) of it
        _, ss = second_order
        _, rep = second_order_bounds
        region = bm.anchor_region(ss, rep)
        _, stats = bm.sample_anchor_region(region, 20_000, seed=3, return_stats=True)
        p_hat = stats["n_kept"] / stats["n_ball"]
        p = (region.radius - region.strip_halfwidth) / (2 * region.radius)
        sigma = math.sqrt(p * (1 - p) / stats["n_ball"])
        assert abs(p_hat - p) <= 3 * sigma

    def test_acceptance_fraction_circular_segment(self, third_order_brl):
        # n=3: in-ball draws fill a disc; the cut keeps the circular segment
        # beyond the strip line
        _, ss = third_order_brl
        env = bm.decay_envelope(ss.A)
        rep = bm.bounds_report(ss, env)
        region = bm.anchor_region(ss, rep)
        _, stats = bm.sample_anchor_region(region, 20_000, seed=5, return_stats=True)
        R, w = region.radius, region.strip_halfwidth
        seg_area = R**2 * math.acos(w / R) - w * math.sqrt(R**2 - w**2)
        p = seg_area / (math.pi * R**2)
        p_hat = stats["n_kept"] / stats["n_ball"]
        sigma = math.sqrt(p * (1 - p) / stats["n_ball"])
        assert abs(p_hat - p) <= 3 * sigma

    def test_cap_fraction_closed_form(self, second_order, second_order_bounds):
        # n = 2: the segment statistic (R - w) / (2R); n = 3: the disk cap
        # at a = w / R = 0.5
        _, ss = second_order
        _, rep = second_order_bounds
        region = bm.anchor_region(ss, rep)
        R, w = region.radius, region.strip_halfwidth
        assert bm._cap_fraction(region) == pytest.approx((R - w) / (2 * R), rel=1e-13)
        disk = bm._cap_fraction(bm.AnchorRegion(radius=2.0, strip_halfwidth=1.0, n=3))
        assert disk == pytest.approx((math.pi / 3 - math.sqrt(3) / 4) / math.pi, rel=1e-13)
        assert round(disk, 5) == 0.19550

    def test_thin_cap_rejected_at_once(self):
        # the cap holds 3.9e-10 of the ball: about 1.3e10 draws for 5 samples
        region = bm.AnchorRegion(radius=1.0, strip_halfwidth=0.99, n=10)
        with pytest.raises(ValueError, match="too thin"):
            bm.sample_anchor_region(region, 5, 0)

    def test_draws_bounded_at_high_dimension(self):
        # a cube-rejection sampler keeps 8.9e-8 of its draws at n = 20
        region = bm.AnchorRegion(radius=2.0, strip_halfwidth=0.1, n=20)
        pts, stats = bm.sample_anchor_region(region, 1000, seed=4, return_stats=True)
        assert stats["n_ball"] <= 4 * 1000
        assert stats["n_kept"] >= 1000
        assert all(region.contains(p) for p in pts)

    def test_empty_region_rejected(self):
        region = bm.AnchorRegion(radius=0.5, strip_halfwidth=1.0, n=2)
        with pytest.raises(ValueError, match="empty"):
            bm.sample_anchor_region(region, 10)

    def test_first_order_rejected(self):
        region = bm.AnchorRegion(radius=2.0, strip_halfwidth=0.5, n=1)
        with pytest.raises(ValueError, match="n >= 2"):
            bm.sample_anchor_region(region, 10)

    def test_bad_count_rejected(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        with pytest.raises(ValueError):
            bm.sample_anchor_region(bm.anchor_region(ss, rep), 0)


class TestTrajectoryBounds:
    def test_magnitude_bound_and_ultimate_ball(self, second_order, second_order_bounds):
        _, ss = second_order
        env, rep = second_order_bounds
        m, s = env.m_initial, env.sigma_slowest
        nB = np.linalg.norm(ss.B)
        rng = np.random.default_rng(12)
        for _ in range(10):
            x0 = rng.standard_normal(2)
            x0 *= rng.uniform(0, rep.ball_radius) / np.linalg.norm(x0)
            traj, _ = rd.simulate(ss, x0, 12.0, dense_dt=0.01)
            norms = np.linalg.norm(traj.states, axis=1)
            bound = (m * np.exp(-s * traj.times) * np.linalg.norm(x0)
                     + m * (1 - np.exp(-s * traj.times)) / s * nB)
            assert np.all(norms <= bound * (1 + 1e-9))
            after = traj.times >= rep.t_excursions_over
            assert np.all(norms[after] <= rep.ball_radius * (1 + 1e-9))

    def test_inter_switch_lower_bound(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        rng = np.random.default_rng(13)
        for _ in range(10):
            x0 = rng.standard_normal(2)
            x0 *= rng.uniform(0, rep.ball_radius) / np.linalg.norm(x0)
            traj, _ = rd.simulate(ss, x0, 12.0)
            times = [ev.t for ev in traj.events]
            gaps = np.diff(times)
            if len(gaps) > 0:
                assert np.all(gaps >= rep.t_min_inter_switch)

    def test_excursion_bound_from_ball(self, second_order, second_order_bounds):
        rng = np.random.default_rng(14)
        _, ss = second_order
        _, rep = second_order_bounds
        for _ in range(5):
            x0 = rng.standard_normal(2)
            x0 *= rep.ball_radius / np.linalg.norm(x0)  # worst case: boundary
            traj, _ = rd.simulate(ss, x0, 10.0, dense_dt=0.01)
            assert np.max(np.linalg.norm(traj.states, axis=1)) <= rep.m_excursion


class TestRandomBrlPlants:
    def test_anchor_region_nonempty_often(self):
        rng = np.random.default_rng(20)
        nonempty = 0
        for _ in range(10):
            tf = make_brl_plant(rng)
            ss = realize(tf)
            env = bm.decay_envelope(ss.A)
            rep = bm.bounds_report(ss, env)
            region = bm.anchor_region(ss, rep)
            if region.strip_halfwidth < region.radius:
                nonempty += 1
                pts = bm.sample_anchor_region(region, 10, seed=0)
                assert all(region.contains(p) for p in pts)
        assert nonempty >= 8
