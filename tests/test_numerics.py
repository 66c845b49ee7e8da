import numpy as np
import pytest

from relayosc import numerics


def _cond(M):
    return numerics.eigenvector_condition(np.linalg.eig(M)[1])


class TestBauerFike:
    """The eigenvector condition number that the Bauer-Fike bound takes."""

    def test_symmetric_is_one(self):
        assert _cond(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_is_one(self):
        assert _cond(np.diag([1.0, 2.0])) == pytest.approx(1.0, abs=1e-12)

    def test_nearly_defective_is_large(self):
        # eigenvectors [1,0] and [1, 1e-6]/norm: condition ~ 2e6
        assert _cond(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-6]])) > 1e5

    def test_defective_is_inf(self):
        assert _cond(np.array([[1.0, 1.0], [0.0, 1.0]])) == np.inf

    def test_at_least_one(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            assert _cond(rng.standard_normal((4, 4))) >= 1.0 - 1e-12


class TestStackedEigen:
    def test_single_matrix_unstacked(self):
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((5, 3, 3))
        one = _cond(stack[0])
        assert one.shape == () and one.dtype == float
        conds = numerics.eigenvector_condition(np.linalg.eig(stack)[1])
        assert conds.shape == (5,) and conds[0] == one


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

    @pytest.mark.parametrize("rel_tol, abs_tol", [
        (np.nan, 1e-12), (1e-9, np.nan), (np.inf, 1e-12), (1e-9, np.inf)])
    def test_tolerances_not_finite(self, rel_tol, abs_tol):
        with pytest.raises(ValueError, match="finite and positive"):
            numerics.integrate_adaptive(lambda t, x: -x, [1.0], (0.0, 1.0), rel_tol, abs_tol)
