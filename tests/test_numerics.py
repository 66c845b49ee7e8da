import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from relayosc import limit_cycle, numerics, sfs
from relayosc.errors import StiffnessError


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

    @pytest.mark.parametrize("t_span", [(1.0, 1.0), (1.0, 0.0), (0.0, math.nan)])
    def test_span_must_increase(self, t_span):
        with pytest.raises(ValueError, match="t_span must increase"):
            numerics.integrate_adaptive(lambda t, x: -x, [1.0], t_span)

    @pytest.mark.parametrize("x0", [[math.nan], [1.0, math.inf], [[1.0], [2.0]], 1.0])
    def test_start_must_be_a_finite_vector(self, x0):
        with pytest.raises(ValueError, match="finite vector"):
            numerics.integrate_adaptive(lambda t, x: -x, x0, (0.0, 1.0))

    @pytest.mark.parametrize("first_step", [0.0, -0.1, 1.5, math.nan])
    def test_first_step_within_the_span(self, first_step):
        with pytest.raises(ValueError, match="first_step must be in"):
            numerics.integrate_adaptive(lambda t, x: -x, [1.0], (0.0, 1.0),
                                        first_step=first_step)

    def test_dense_output_shapes(self):
        # (n,) at a scalar t, (n,) + t.shape at an array, (n, 0) at an
        # empty one (scipy's OdeSolution raises there)
        run = numerics.integrate_adaptive(lambda t, z: np.array([z[1], -z[0]]),
                                          [1.0, 0.0], (0.0, 2.0))
        ts = np.linspace(0.0, 2.0, 4)
        xs = run.sol(ts)
        assert xs.shape == (2, 4) and run.sol(1.0).shape == (2,)
        assert run.sol(ts[:0]).shape == (2, 0)
        assert np.array_equal(run.sol(ts.reshape(2, 2)), xs.reshape(2, 2, 2))

    def test_blow_up_is_step_underflow(self):
        # y' = y^2 from y(0) = 1 reaches infinity at t = 1, inside the span
        with pytest.raises(StiffnessError, match="integration step underflow"):
            numerics.integrate_adaptive(lambda t, y: y * y, [1.0], (0.0, 2.0))

    @pytest.mark.parametrize("t_nan", [0.5, -1.0])
    def test_nan_field_is_step_underflow(self, t_nan):
        # past t = 0.5 every step has a nan error estimate and is rejected
        # until it falls below the spacing of t; a nan field from the start
        # makes the initial step nan, which the loop refuses at once
        def rhs(t, y):
            return np.full(1, math.nan if t > t_nan else 1.0)

        with pytest.raises(StiffnessError, match="integration step underflow"):
            numerics.integrate_adaptive(rhs, [0.0], (0.0, 2.0))


def _layer_calls(monkeypatch, field, ss, gamma):
    """The integrate_adaptive calls of the smooth loop's layer split: of
    simulate_sfs from the relay orbit's anchor moved onto C z = 0 (a start
    in the layer) and off it to y = 1e-3, or of monodromy_floquet."""
    calls, integrate = [], numerics.integrate_adaptive

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(numerics, "integrate_adaptive", record)
    orbit = limit_cycle.find_symmetric_orbit(ss)
    if field == "floquet":
        limit_cycle.monodromy_floquet(ss, gamma, orbit)
    else:
        for y0 in (0.0, 1e-3):
            x0 = orbit.anchor.copy()
            x0[-1] = y0
            sfs.simulate_sfs(ss, sfs.SfsConfig(gamma, 1e-10, 1e-12), x0, 2 * orbit.period)
    monkeypatch.setattr(numerics, "integrate_adaptive", integrate)
    return calls


@pytest.mark.parametrize("gamma", [1e3, 1e4, 1e5])
@pytest.mark.parametrize("field", ["sfs", "floquet"])
@pytest.mark.parametrize("plant", ["second_order", "third_order"])
def test_equals_solve_ivp(plant, field, gamma, monkeypatch, request):
    # the layer segments of both smooth-loop right-hand sides, the first
    # step given and not, with the layer-edge event and without it up to
    # the event's time: t, y, nfev and sol all equal scipy's, with ==
    _, ss = request.getfixturevalue(plant)
    calls = _layer_calls(monkeypatch, field, ss, gamma)
    picked = [next(c for c in calls if c[1]["first_step"] is None),
              next(c for c in calls if c[1]["first_step"] is not None)]
    for (rhs, x0, (t0, t_end), rel_tol, abs_tol), kwargs in picked:
        event, first_step = kwargs["event"], kwargs["first_step"]

        def edge(t, y):  # the same event, as solve_ivp takes it
            return event(t, y)

        edge.terminal, edge.direction = True, 1.0
        t_event = numerics.integrate_adaptive(rhs, x0, (t0, t_end), rel_tol, abs_tol,
                                              event=event, first_step=first_step).t[-1]
        for span, with_event in (((t0, t_end), True), ((t0, t_event), False)):
            got = numerics.integrate_adaptive(rhs, x0, span, rel_tol, abs_tol,
                                              event=event if with_event else None,
                                              first_step=first_step)
            want = [solve_ivp(rhs, span, x0, method="DOP853", rtol=rel_tol, atol=abs_tol,
                              dense_output=dense, events=edge if with_event else None,
                              first_step=first_step)
                    for dense in (False, True)]
            assert np.array_equal(got.t, want[0].t) and np.array_equal(got.y, want[0].y)
            assert got.nfev == want[0].nfev
            ts = np.concatenate([np.linspace(span[0], got.t[-1], 97), got.t])
            for t in (0.5 * (got.t[0] + got.t[-1]), ts, ts[::-1], *got.t):
                assert np.array_equal(got.sol(t), want[1].sol(t))
