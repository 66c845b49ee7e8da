import numpy as np
import pytest

from conftest import make_brl_plant, make_stable_plant
from relayosc import numerics
from relayosc.errors import NoCrossingError
from relayosc.plant import realize


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(numerics.expm(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_scalar_exponential(self):
        out = numerics.expm(np.array([[-1.0]]), np.log(2))
        assert out[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_against_eigendecomposition_oracle(self):
        # distinct-eigenvalue matrix: e^{At} = V diag(e^{lambda t}) V^{-1}
        A = np.array([[0.0, -6.0], [1.0, -5.0]])
        lam, V = np.linalg.eig(A)
        for t in (0.3, 1.0, 2.5):
            ref = (V @ np.diag(np.exp(lam * t)) @ np.linalg.inv(V)).real
            assert np.abs(numerics.expm(A, t) - ref).max() < 1e-12

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ss = realize(make_stable_plant(rng, n=int(rng.integers(1, 5))))
            t1, t2 = rng.uniform(0.1, 2.5, 2)
            lhs = numerics.expm(ss.A, t1) @ numerics.expm(ss.A, t2)
            rhs = numerics.expm(ss.A, t1 + t2)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            numerics.expm(np.array([[np.nan]]), 1.0)

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            numerics.expm(np.array([[1.0]]), 1e5)

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_without_warning(self):
        with pytest.raises(OverflowError):
            numerics.expm(np.diag([800.0, 1.0]))
        with pytest.raises(OverflowError):
            numerics.expm(np.diag([800.0, 1.0]), np.array([0.5, 1.0]))


class TestBauerFike:
    def test_symmetric_is_one(self):
        e = numerics.eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert numerics.bauer_fike(e) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_is_one(self):
        e = numerics.eigendecompose(np.diag([1.0, 2.0]))
        assert numerics.bauer_fike(e) == pytest.approx(1.0, abs=1e-12)

    def test_nearly_defective_is_large(self):
        # eigenvectors [1,0] and [1, 1e-6]/norm: condition ~ 2e6
        e = numerics.eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-6]]))
        assert numerics.bauer_fike(e) > 1e5

    def test_defective_raises(self):
        e = numerics.eigendecompose(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert not e.is_diagonalizable
        with pytest.raises(ValueError, match="non-diagonalizable"):
            numerics.bauer_fike(e)

    def test_at_least_one(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            M = rng.standard_normal((4, 4))
            e = numerics.eigendecompose(M)
            if e.is_diagonalizable:
                assert numerics.bauer_fike(e) >= 1.0 - 1e-12

    def test_residual_when_diagonalizable(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            e = numerics.eigendecompose(M)
            if not e.is_diagonalizable:
                continue
            res = M @ e.eigenvectors - e.eigenvectors @ np.diag(e.eigenvalues)
            assert np.abs(res).max() <= 1e-8 * max(1.0, np.abs(M).max())


def _closed_loop_stacks(request):
    """Stacks of A - g B C over 60 gains for the fixtures and for
    make_brl_plant draws at n = 6 and 10 (real and complex spectra mixed)."""
    plants = [request.getfixturevalue(name)[1]
              for name in ("second_order", "third_order", "third_order_brl")]
    plants += [realize(make_brl_plant(np.random.default_rng(seed), n))
               for n in (6, 10) for seed in (1, 2)]
    gains = np.concatenate(([0.0], np.geomspace(1e-2, 1e3, 59)))
    return [ss.A - gains[:, None, None] * np.outer(ss.B, ss.C) for ss in plants]


class TestStackedEigen:
    def _assert_stack_matches(self, S):
        e = numerics.eigendecompose(S)
        bf = numerics.bauer_fike(e)
        assert e.is_diagonalizable.dtype == bool and e.is_diagonalizable.shape == (len(S),)
        for i, M in enumerate(S):
            one = numerics.eigendecompose(M)
            assert np.array_equal(e.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(e.eigenvectors[i], one.eigenvectors)
            assert e.is_diagonalizable[i] == one.is_diagonalizable
            if one.is_diagonalizable:
                assert bf[i] == numerics.bauer_fike(one)
            else:
                assert bf[i] == np.inf

    def test_closed_loop_stacks_bit_identical(self, request):
        for S in _closed_loop_stacks(request):
            self._assert_stack_matches(S)

    def test_real_complex_and_defective_members(self):
        rng = np.random.default_rng(11)
        general = rng.standard_normal((8, 5, 5))           # complex spectra
        triangular = np.triu(rng.standard_normal((8, 5, 5)))  # real spectra
        mixed = np.concatenate([general, triangular])[rng.permutation(16)]
        for S in (general, triangular, mixed):
            self._assert_stack_matches(S)
        defective = np.array([[[1.0, 1.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]]])
        e = numerics.eigendecompose(defective)
        assert e.is_diagonalizable.tolist() == [False, True]
        assert numerics.bauer_fike(e)[0] == np.inf

    def test_single_matrix_fields_unstacked(self):
        e = numerics.eigendecompose(np.diag([1.0, 2.0]))
        assert type(e.is_diagonalizable) is bool
        assert e.eigenvalues.shape == (2,) and e.eigenvalues.dtype == float
        assert type(numerics.bauer_fike(e)) is float


def grid_blocks(f, t_start, h, size=64):
    """Blocks of a vectorized f on the march grid t_start + j h, j >= 1."""
    j = 1
    while True:
        yield f(t_start + h * np.arange(j, j + size))
        j += size


class TestFindFirstRoot:
    def test_scalar_affine_closed_form(self):
        f = lambda t: 2 * np.exp(-t) - 1
        root = numerics.find_first_root(f, 0.0, 10.0)
        assert root == pytest.approx(np.log(2), abs=1e-10)

    def test_linear(self):
        root = numerics.find_first_root(lambda t: 1 - t, 0.0, 10.0)
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_sine_first_zero(self):
        root = numerics.find_first_root(np.sin, 0.1, 10.0, 0.01)
        assert root == pytest.approx(np.pi, abs=1e-10)

    def test_no_crossing(self):
        with pytest.raises(NoCrossingError):
            numerics.find_first_root(lambda t: 1.0 + t, 0.0, 5.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            numerics.find_first_root(lambda t: -1.0, 0.0, 5.0)

    def test_monotone_safety_oscillatory(self):
        # first zero of 0.1 + sin(2 pi t) is at (pi + asin(0.1)) / (2 pi)
        f = lambda t: 0.1 + np.sin(2 * np.pi * np.asarray(t))
        expect = (np.pi + np.arcsin(0.1)) / (2 * np.pi)
        root = numerics.find_first_root(f, 0.0, 10.0, 0.02,
                                        blocks=grid_blocks(f, 0.0, 0.02),
                                        check_grazing=False)
        assert root == pytest.approx(expect, abs=1e-10)

    def test_vectorized_matches_scalar(self):
        fs = lambda t: 2 * np.exp(-t) - 1
        fv = lambda t: 2 * np.exp(-np.asarray(t)) - 1
        r1 = numerics.find_first_root(fs, 0.0, 10.0, 0.05)
        r2 = numerics.find_first_root(fv, 0.0, 10.0, 0.05,
                                      blocks=grid_blocks(fv, 0.0, 0.05))
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_zero_start_lifts_off(self):
        # f(0) = 0, rises, then crosses: the start must not be returned
        f = lambda t: np.sin(2 * np.pi * np.asarray(t))
        root = numerics.find_first_root(f, 0.0, 2.0, 0.01,
                                        blocks=grid_blocks(f, 0.0, 0.01),
                                        check_grazing=False)
        assert root == pytest.approx(0.5, abs=1e-10)

    def test_grazing_warning(self):
        # near-double root at t=1: slope ~ 2e-9 there
        f = lambda t: (t - 1.0) ** 2 - 1e-18
        with pytest.warns(RuntimeWarning, match="tangential"):
            numerics.find_first_root(f, 0.9, 1.1, 0.05)


class TestBrentRoot:
    def test_simple(self):
        assert numerics.brent_root(np.cos, 1.0, 2.0) == pytest.approx(
            np.pi / 2, abs=1e-12)

    def test_not_a_bracket(self):
        with pytest.raises(ValueError):
            numerics.brent_root(np.cos, 0.1, 0.2)


class TestIntegrateAdaptive:
    def test_exponential_decay(self):
        sol = numerics.integrate_adaptive(lambda t, x: -x, [1.0], (0.0, 1.0),
                                          1e-10, 1e-13)
        assert sol.y[0, -1] == pytest.approx(np.exp(-1), abs=1e-9)

    def test_harmonic_energy_drift(self):
        rhs = lambda t, z: np.array([z[1], -z[0]])
        sol = numerics.integrate_adaptive(rhs, [1.0, 0.0], (0.0, 20 * np.pi),
                                          1e-9, 1e-12)
        energy = sol.y[0] ** 2 + sol.y[1] ** 2
        assert np.abs(energy - 1.0).max() < 1e-6

    def test_constant_field(self):
        sol = numerics.integrate_adaptive(lambda t, x: np.zeros_like(x),
                                          [3.0, -2.0], (0.0, 5.0), 1e-9, 1e-12)
        assert np.array_equal(sol.y[:, -1], [3.0, -2.0])

    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            numerics.integrate_adaptive(lambda t, x: -x, [1.0], (0.0, 1.0), -1e-9, 1e-12)

    def test_t_eval_without_dense_output(self):
        rhs = lambda t, z: np.array([z[1], -z[0]])
        ts = np.linspace(15.0, 20.0, 200)
        dense = numerics.integrate_adaptive(rhs, [1.0, 0.0], (0.0, 20.0), 1e-9, 1e-12)
        sampled = numerics.integrate_adaptive(rhs, [1.0, 0.0], (0.0, 20.0), 1e-9, 1e-12,
                                              dense_output=False, t_eval=ts)
        assert sampled.sol is None
        assert np.array_equal(sampled.t, ts)
        assert np.abs(sampled.y - dense.sol(ts)).max() <= 1e-14
        assert np.abs(sampled.y[0] - np.cos(ts)).max() < 1e-7
        assert sampled.nfev < dense.nfev
