import numpy as np
import pytest
import scipy.linalg

from relayosc import poincare as pc
from relayosc.bounds import anchor_region, sample_anchor_region
from relayosc.errors import NonTransversalError
from relayosc.plant import StateSpace
from relayosc.relay_dynamics import RelaySystem


def fd_jacobian(fn, x, eps=1e-6):
    """Central-difference jacobian of a vector map."""
    n = len(x)
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        cols.append((fn(x + e) - fn(x - e)) / (2 * eps))
    return np.column_stack(cols)


class TestJacobians:
    def test_constant_field_projection_radius_one(self):
        # zero-dynamics analog: flow is a translation, the derivative is the
        # oblique projection along the field, whose spectral radius is 1
        A = np.zeros((2, 2))
        B = np.array([-1.0, 0.3])  # field under sign +1 is (1, -0.3)
        C = np.array([0.0, 1.0])
        ss = StateSpace(A, B, C)
        pair = pc.jacobians(ss, np.array([0.0, 0.6]),
                            system=RelaySystem(ss, t_max=100.0))
        rho = max(abs(np.linalg.eigvals(pair.astrom)))
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert max(abs(np.linalg.eigvals(pair.exact))) == pytest.approx(1.0, abs=1e-12)

    def test_contraction_second_order(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        region = anchor_region(ss, rep)
        pts = sample_anchor_region(region, 50, seed=2)
        sys_ = RelaySystem(ss)
        for p in pts:
            pair = pc.jacobians(ss, p, system=sys_)
            assert max(abs(np.linalg.eigvals(pair.exact))) < 1.0

    def test_finite_difference_match(self, second_order):
        _, ss = second_order
        sys_ = RelaySystem(ss)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = np.array([rng.uniform(1.1, 6.0), 0.0])
            pair = pc.jacobians(ss, x, system=sys_)
            scale = max(1.0, np.linalg.norm(x))
            J_fd = fd_jacobian(lambda z: sys_.exit_map(z, +1), x, 1e-6 * scale)
            err = np.abs(J_fd - pair.exact).max() / max(np.abs(pair.exact).max(), 1e-12)
            assert err < 1e-4

    def test_tangent_restricted_directions(self, second_order):
        # central differences along plane-tangent directions reproduce the
        # projected jacobian applied to those directions
        _, ss = second_order
        sys_ = RelaySystem(ss)
        x = np.array([2.0, 0.0])
        pair = pc.jacobians(ss, x, system=sys_)
        e = np.array([1.0, 0.0])  # tangent to the plane
        eps = 1e-6 * 2.0
        fd = (sys_.exit_map(x + eps * e, +1) - sys_.exit_map(x - eps * e, +1)) / (2 * eps)
        ref = pair.exact @ e
        assert np.linalg.norm(fd - ref) / np.linalg.norm(ref) < 1e-4

    def test_rank_deficiency(self, second_order):
        _, ss = second_order
        pair = pc.jacobians(ss, np.array([1.5, 0.0]))
        sv = np.linalg.svd(pair.exact, compute_uv=False)
        assert sv[-1] < 1e-10 * sv[0]
        # rows of both jacobians live in the switching plane
        z = np.array([0.7, -1.3])
        assert abs(ss.C @ (pair.astrom @ z)) < 1e-10
        assert abs(ss.C @ (pair.exact @ z)) < 1e-10

    def test_non_transversal_raises(self, second_order):
        # a start that grazes: the landing speed vanishes when x_{n-1} = b_{n-1}
        _, ss = second_order
        # construct a state whose exit lands exactly on the strip edge is
        # fiddly; instead check the guard directly with a tiny |C u|
        with pytest.raises(NonTransversalError):
            A = np.zeros((2, 2))
            B = np.array([-1.0, 1e-12])  # field nearly parallel to the plane
            ss0 = StateSpace(A, B, np.array([0.0, 1.0]))
            pc.jacobians(ss0, np.array([0.0, 0.5]),
                         system=RelaySystem(ss0, t_max=1e16))

    def test_spectral_radius_equality(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        pts = sample_anchor_region(anchor_region(ss, rep), 100, seed=4)
        sys_ = RelaySystem(ss)
        for p in pts:
            pair = pc.jacobians(ss, p, system=sys_)
            ra = max(abs(np.linalg.eigvals(pair.astrom)))
            re = max(abs(np.linalg.eigvals(pair.exact)))
            assert ra == pytest.approx(re, rel=1e-8)
            na = np.linalg.norm(pair.astrom, 2)
            ne = np.linalg.norm(pair.exact, 2)
            assert na >= ne - 1e-12

    def test_nonzero_spectra_coincide(self, second_order):
        _, ss = second_order
        pair = pc.jacobians(ss, np.array([3.0, 0.0]))
        la = np.linalg.eigvals(pair.astrom)
        le = np.linalg.eigvals(pair.exact)
        la = np.sort_complex(la[np.abs(la) > 1e-12])
        le = np.sort_complex(le[np.abs(le) > 1e-12])
        assert len(la) == len(le)
        assert np.allclose(la, le, rtol=1e-6)

    def test_no_exponential_beyond_the_exit(self, third_order_brl, monkeypatch):
        # the jacobians take no Pade exponential, as the exit takes none, and
        # of the relay flow's exponential only e^{A tau} at the exit time
        from relayosc import relay_dynamics as rd
        from relayosc.bounds import bounds_report, decay_envelope

        _, ss = third_order_brl
        rep = bounds_report(ss, decay_envelope(ss.A))
        sys_ = RelaySystem(ss)
        calls = {"expm": 0, "flow": 0}
        expm, flow_exp = scipy.linalg.expm, rd.RelaySystem.exp

        def counted_expm(*args):
            calls["expm"] += 1
            return expm(*args)

        def counted_flow(self, t):
            calls["flow"] += 1
            return flow_exp(self, t)

        monkeypatch.setattr(scipy.linalg, "expm", counted_expm)
        monkeypatch.setattr(rd.RelaySystem, "exp", counted_flow)
        for p in sample_anchor_region(anchor_region(ss, rep), 20, seed=6):
            calls.update(expm=0, flow=0)
            sys_.exit_event(p, +1)
            exit_calls = dict(calls)
            calls.update(expm=0, flow=0)
            pc.jacobians(ss, p, system=sys_)
            assert calls["expm"] == exit_calls["expm"] == 0
            assert calls["flow"] == exit_calls["flow"] + 1


class TestChainedJacobians:
    def test_chain_matches_finite_difference_k2(self, second_order):
        _, ss = second_order
        sys_ = RelaySystem(ss)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = np.array([rng.uniform(1.1, 5.0), 0.0])
            J_a, J_e, _ = pc.chained_jacobians(ss, x, 2, system=sys_)
            J_fd = fd_jacobian(lambda z: sys_.kth_exit_map(z, 2), x, 1e-6)
            err = np.abs(J_fd - J_e).max() / max(np.abs(J_e).max(), 1e-12)
            assert err < 1e-4

    def test_k1_is_plain_jacobian(self, second_order):
        _, ss = second_order
        x = np.array([2.5, 0.0])
        J_a, J_e, pts = pc.chained_jacobians(ss, x, 1)
        pair = pc.jacobians(ss, x)
        assert np.array_equal(J_a, pair.astrom)
        assert np.array_equal(J_e, pair.exact)
        assert len(pts) == 2


class TestSpectralSurvey:
    def test_all_schur_stable_second_order(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        samples, counters = pc.spectral_survey(ss, rep, 300, k=1, seed=0)
        assert len(samples) == 300
        assert counters["skipped_nontransversal"] == 0
        assert all(s.schur_stable for s in samples)

    def test_determinism(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        s1, _ = pc.spectral_survey(ss, rep, 50, k=1, seed=11)
        s2, _ = pc.spectral_survey(ss, rep, 50, k=1, seed=11)
        assert all(np.array_equal(a.point, b.point) and a.rho_exact == b.rho_exact
                   for a, b in zip(s1, s2))

    def test_csv_schema(self, second_order, second_order_bounds, tmp_path):
        _, ss = second_order
        _, rep = second_order_bounds
        samples, _ = pc.spectral_survey(ss, rep, 10, k=1, seed=0)
        path = tmp_path / "survey.csv"
        pc.survey_to_csv(samples, path, version="t")
        lines = path.read_text().splitlines()
        assert lines[1].split(",") == ["point_id", "rho_astrom", "rho_exact",
                                       "norm_astrom", "norm_exact", "bf_astrom",
                                       "bf_exact", "schur_stable"]
        assert len(lines) == 12


class TestFixedPointSearch:
    def test_converges_to_anchor(self, second_order, second_order_bounds):
        from relayosc.limit_cycle import find_symmetric_orbit

        _, ss = second_order
        _, rep = second_order_bounds
        x_hat_ref = find_symmetric_orbit(ss).anchor
        pts = sample_anchor_region(anchor_region(ss, rep), 5, seed=21)
        for p in pts:
            res = pc.fixed_point_search(ss, rep, 1, p)
            assert res.converged
            assert res.residual < 1e-12
            assert np.linalg.norm(res.x_hat - x_hat_ref) < 1e-8

    def test_exit_time_at_fixed_point_is_half_period(
            self, second_order, second_order_bounds):
        from relayosc.limit_cycle import find_symmetric_orbit
        from relayosc.relay_dynamics import exit_time

        _, ss = second_order
        _, rep = second_order_bounds
        x0 = sample_anchor_region(anchor_region(ss, rep), 1, seed=2)[0]
        res = pc.fixed_point_search(ss, rep, 1, x0)
        orbit = find_symmetric_orbit(ss)
        assert exit_time(ss, res.x_hat, +1) == pytest.approx(
            orbit.half_period, abs=1e-9)

    def test_k2_same_fixed_point(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        x0 = sample_anchor_region(anchor_region(ss, rep), 1, seed=3)[0]
        r1 = pc.fixed_point_search(ss, rep, 1, x0)
        r2 = pc.fixed_point_search(ss, rep, 2, x0)
        assert np.linalg.norm(r1.x_hat - r2.x_hat) < 1e-8

    def test_residual_history_decreasing(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        x0 = sample_anchor_region(anchor_region(ss, rep), 1, seed=4)[0]
        res = pc.fixed_point_search(ss, rep, 1, x0)
        tail = [r for r in res.residual_history if r > 0][-5:]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_converges_at_order_ten(self):
        # anchor norm about 1e4: an absolute residual of 1e-12 is below the
        # roundoff of the return map there, so the stop test scales with |x|
        from conftest import make_brl_plant
        from relayosc.bounds import bounds_report, decay_envelope
        from relayosc.limit_cycle import find_symmetric_orbit
        from relayosc.plant import realize

        ss = realize(make_brl_plant(np.random.default_rng(18), 10))
        rep = bounds_report(ss, decay_envelope(ss.A))
        anchor = find_symmetric_orbit(ss).anchor
        rng = np.random.default_rng(0)
        for _ in range(4):
            x0 = anchor * (1 + 0.05 * rng.choice([-1, 1], ss.n))
            x0[-1] = 0.0
            res = pc.fixed_point_search(ss, rep, 1, x0, max_iter=60)
            assert res.converged
            assert np.linalg.norm(res.x_hat - anchor) < 1e-12 * np.linalg.norm(anchor)

    def test_newton_step_on_unstable_orbit(self, monkeypatch):
        # n = 6, orbit multiplier of modulus 1.13: Picard iterates leave the
        # anchor, so the search switches to Newton steps on the chain
        from conftest import make_stable_plant
        from relayosc.bounds import bounds_report, decay_envelope
        from relayosc.limit_cycle import find_symmetric_orbit
        from relayosc.plant import realize

        rng = np.random.default_rng(52)
        ss = realize(make_stable_plant(rng, int(rng.integers(2, 7))))
        rep = bounds_report(ss, decay_envelope(ss.A))
        anchor = find_symmetric_orbit(ss).anchor
        calls = []
        chained = pc.chained_jacobians
        monkeypatch.setattr(pc, "chained_jacobians",
                            lambda *a, **kw: calls.append(a) or chained(*a, **kw))
        res = pc.fixed_point_search(ss, rep, 1, anchor * (1 + 1e-3))
        assert ss.n == 6 and calls
        assert res.converged
        assert np.linalg.norm(res.x_hat - anchor) < 1e-12 * np.linalg.norm(anchor)

    def test_escape_raises_divergence(self, second_order, second_order_bounds):
        import dataclasses

        from relayosc.errors import DivergenceError
        from relayosc.relay_dynamics import system_for

        _, ss = second_order
        _, rep = second_order_bounds
        tiny = dataclasses.replace(rep, m_excursion=1e-6, m_loose=1e-6)
        x0 = sample_anchor_region(anchor_region(ss, rep), 1, seed=5)[0]
        with pytest.raises(DivergenceError) as info:
            pc.fixed_point_search(ss, tiny, 1, x0)
        assert info.value.iteration == 1
        assert np.array_equal(info.value.iterate, -system_for(ss).kth_exit_map(x0, 1))

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_tolerance_not_finite_positive(self, second_order, second_order_bounds, tol):
        _, ss = second_order
        _, rep = second_order_bounds
        x0 = sample_anchor_region(anchor_region(ss, rep), 1, seed=5)[0]
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            pc.fixed_point_search(ss, rep, 1, x0, tol=tol)

    def test_negative_iteration_budget(self, second_order, second_order_bounds):
        _, ss = second_order
        _, rep = second_order_bounds
        x0 = sample_anchor_region(anchor_region(ss, rep), 1, seed=5)[0]
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            pc.fixed_point_search(ss, rep, 1, x0, max_iter=-3)
        assert pc.fixed_point_search(ss, rep, 1, x0, max_iter=0).iterations_used == 0


def _survey_loop(ss, rep, count, k, seed):
    """spectral_survey as a per-point loop: one chained_jacobians call and
    single-matrix eig/svd statistics per point."""
    from relayosc.errors import NoCrossingError

    sys_ = RelaySystem(ss)
    rows, skipped = [], {"skipped_nontransversal": 0, "skipped_degenerate": 0}
    for p in sample_anchor_region(anchor_region(ss, rep), count, seed):
        try:
            chain = pc.chained_jacobians(ss, p, k, system=sys_)
        except (NonTransversalError, NoCrossingError):
            skipped["skipped_nontransversal"] += 1
            continue
        stats = []
        for J in chain[:2]:
            lam, V = np.linalg.eig(J)
            sv = np.linalg.svd(V / np.linalg.norm(V, axis=0), compute_uv=False)
            bf = sv[0] / sv[-1] if sv[-1] > 1e-10 * sv[0] else np.inf
            stats.append((np.abs(lam).max(), np.linalg.norm(J, 2), bf))
        if not all(np.isfinite(bf) for _, _, bf in stats):
            skipped["skipped_degenerate"] += 1
            continue
        rows.append((p, stats))
    return rows, skipped


class TestBatchedSurvey:
    @pytest.mark.parametrize("name,k", [("second_order", 1), ("second_order", 2),
                                        ("third_order", 1), ("third_order", 2),
                                        ("brl6", 1)])
    def test_matches_per_point_loop(self, name, k, request):
        import io

        from conftest import named_plant
        from relayosc.bounds import bounds_report, decay_envelope

        ss = named_plant(name, request)
        rep = bounds_report(ss, decay_envelope(ss.A))
        samples, counters = pc.spectral_survey(ss, rep, 150, k=k, seed=9)
        rows, skipped = _survey_loop(ss, rep, 150, k, 9)
        assert counters == skipped
        assert len(samples) == len(rows) > 0
        for s, (p, ((ra, na, ba), (re, ne, be))) in zip(samples, rows):
            assert np.array_equal(s.point, p)
            assert s.rho_astrom == pytest.approx(ra, rel=1e-12)
            assert s.rho_exact == pytest.approx(re, rel=1e-12)
            assert s.norm_astrom == pytest.approx(na, rel=1e-12)
            assert s.norm_exact == pytest.approx(ne, rel=1e-12)
            assert s.bauer_fike_astrom == pytest.approx(ba, rel=1e-9)
            assert s.bauer_fike_exact == pytest.approx(be, rel=1e-9)
            assert s.schur_stable == bool(re < 1.0)
        texts = []
        for _ in range(2):
            buf = io.StringIO()
            pc.survey_to_csv(pc.spectral_survey(ss, rep, 150, k=k, seed=9)[0], buf, version="t")
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("k", [1, 2])
    def test_work_counts(self, second_order, second_order_bounds, monkeypatch, k):
        # the survey batches its exits and makes no one-row exit, and
        # neither it nor chained_jacobians takes a Pade exponential
        from relayosc import relay_dynamics

        _, ss = second_order
        _, rep = second_order_bounds
        relay_dynamics.system_for(ss)       # the shared system, built beforehand
        calls = {"expm": 0, "exit_event": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scipy.linalg, "expm", counted("expm", scipy.linalg.expm))
        monkeypatch.setattr(RelaySystem, "exit_event",
                            counted("exit_event", RelaySystem.exit_event))
        samples, _ = pc.spectral_survey(ss, rep, 200, k=k, seed=1)
        assert len(samples) == 200
        assert calls["expm"] == 0 and calls["exit_event"] == 0
        pc.chained_jacobians(ss, samples[0].point, k)
        assert calls["expm"] == 0 and calls["exit_event"] == 0
