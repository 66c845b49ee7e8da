import numpy as np
import pytest

from conftest import make_brl_plant, make_stable_plant
from relayosc.errors import MarginalPoleError, PlantError
from relayosc.plant import classify, parse_plant, realize


class TestParse:
    def test_second_order_example(self):
        tf = parse_plant([1, -1], [6, 5])
        assert tf.n == 2
        assert tf.num_coeffs == (1.0, -1.0)
        assert tf.den_coeffs == (6.0, 5.0)

    def test_minimal_first_order(self):
        tf = parse_plant([1], [1])
        assert tf.n == 1
        assert tf.num_coeffs == (1.0,)

    def test_third_order_zero_padded(self):
        tf = parse_plant([1, -1, 0], [6, 5, 3])
        assert tf.n == 3
        assert tf.num_coeffs == (1.0, -1.0, 0.0)

    def test_short_numerator_padded(self):
        tf = parse_plant([1, -1], [6, 5, 3])
        assert tf.num_coeffs == (1.0, -1.0, 0.0)

    def test_improper_rejected(self):
        with pytest.raises(PlantError, match="improper"):
            parse_plant([1, 2, 3], [1])
        with pytest.raises(PlantError, match="improper"):
            parse_plant([0, 0, 1], [6, 5])  # degree-2 num over degree-2 monic den

    def test_empty_denominator_rejected(self):
        with pytest.raises(PlantError):
            parse_plant([1], [])

    def test_leading_included_normalizes(self):
        tf = parse_plant([2, -2], [12, 10, 2], leading_included=True)
        assert tf.den_coeffs == (6.0, 5.0)
        assert tf.num_coeffs == (1.0, -1.0)

    def test_leading_included_zero_lead_rejected(self):
        with pytest.raises(PlantError, match="leading"):
            parse_plant([1], [1, 0], leading_included=True)

    def test_evaluation(self):
        tf = parse_plant([1, -1], [6, 5])
        s = 2.0 + 1.0j
        expect = (1 - s) / (s**2 + 5 * s + 6)
        assert abs(tf(s) - expect) < 1e-14


class TestRealize:
    def test_second_order_companion(self):
        ss = realize(parse_plant([1, -1], [6, 5]))
        assert np.array_equal(ss.A, [[0.0, -6.0], [1.0, -5.0]])
        assert np.array_equal(ss.B, [1.0, -1.0])
        assert np.array_equal(ss.C, [0.0, 1.0])

    def test_first_order(self):
        ss = realize(parse_plant([1], [1]))
        assert np.array_equal(ss.A, [[-1.0]])
        assert np.array_equal(ss.B, [1.0])
        assert np.array_equal(ss.C, [1.0])

    def test_third_order_companion(self):
        ss = realize(parse_plant([1, -1, 0], [6, 5, 3]))
        assert np.array_equal(ss.A[:, -1], [-6.0, -5.0, -3.0])
        assert np.array_equal(np.diag(ss.A, -1), [1.0, 1.0])
        assert np.array_equal(ss.B, [1.0, -1.0, 0.0])

    def test_cb_equals_leading_numerator(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            tf = make_stable_plant(rng)
            ss = realize(tf)
            assert float(ss.C @ ss.B) == tf.num_coeffs[-1]

    def test_frequency_response_roundtrip(self):
        # C (sI - A)^{-1} B must reproduce the transfer function
        rng = np.random.default_rng(3)
        for _ in range(10):
            tf = make_stable_plant(rng)
            ss = realize(tf)
            for _ in range(8):
                s = complex(rng.uniform(-1, 1), rng.uniform(0.1, 10.0))
                resp = ss.C @ np.linalg.solve(
                    s * np.eye(ss.n) - ss.A, ss.B.astype(complex))
                ref = tf(s)
                assert abs(resp - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_parse_realize_idempotent(self):
        tf = parse_plant([1, -1], [6, 5])
        tf2 = parse_plant(list(tf.num_coeffs), list(tf.den_coeffs))
        assert tf2 == tf
        ss, ss2 = realize(tf), realize(tf2)
        assert np.array_equal(ss.A, ss2.A)


class TestClassify:
    def test_brl_urf_example(self):
        pc = classify(parse_plant([1, -1], [6, 5]))
        assert pc.is_brl_urf
        assert pc.is_stable
        assert pc.relative_degree == 1
        assert pc.n_positive_real_zeros == 1
        assert pc.dc_gain == pytest.approx(1 / 6, abs=1e-15)
        assert sorted(z.real for z in pc.poles) == pytest.approx([-3, -2], abs=1e-9)
        assert pc.zeros[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("num, den", [([1, -1], [6, 5]), ([2, -1, -1], [6, 11, 6]),
                                          ([1, -1, 0], [6, 5, 3])])
    def test_spectra_are_python_complex(self, num, den):
        # real spectra included: the first two plants have real poles only
        pc = classify(parse_plant(num, den))
        assert all(type(z) is complex for z in pc.poles + pc.zeros)

    @pytest.mark.parametrize("num, den", [([1, -1], [6, 5]), ([2, -1, -1], [6, 11, 6]),
                                          ([1, -1, 0], [6, 5, 3])])
    def test_poles_of_the_realized_companion(self, num, den):
        # poles and the state matrix come from one companion layout
        tf = parse_plant(num, den)
        poles = np.linalg.eigvals(realize(tf).A).astype(complex).tolist()
        assert classify(tf).poles == tuple(sorted(poles, key=lambda z: (z.real, z.imag)))

    def test_relative_degree_two_not_brl(self):
        pc = classify(parse_plant([1, -1, 0], [6, 5, 3]))
        assert not pc.is_brl_urf
        assert pc.relative_degree == 2
        assert pc.is_stable

    def test_first_order_no_positive_zero(self):
        pc = classify(parse_plant([1], [1]))
        assert not pc.is_brl_urf
        assert pc.n_positive_real_zeros == 0

    def test_zero_numerator(self):
        pc = classify(parse_plant([0, 0], [6, 5]))
        assert pc.zeros == ()
        assert not pc.is_brl_urf
        assert pc.relative_degree == 2

    def test_marginal_pole_rejected(self):
        with pytest.raises(MarginalPoleError, match="marginal"):
            classify(parse_plant([1], [0, 1]))  # pole at the origin: s^2+s

    def test_unstable_plant(self):
        pc = classify(parse_plant([1], [-1, 0.5]))  # s^2+0.5s-1: one RHP pole
        assert not pc.is_stable
        assert not pc.is_brl_urf

    def test_dc_gain_matches_state_space(self):
        # b0/a0 = -C A^{-1} B whenever A is invertible
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            tf = make_stable_plant(rng)
            ss = realize(tf)
            dc = classify(tf).dc_gain
            dc_ss = -float(ss.C @ np.linalg.solve(ss.A, ss.B))
            assert dc == pytest.approx(dc_ss, abs=1e-12 * max(1.0, abs(dc)))
            checked += 1

    def test_brl_sign_facts(self):
        # membership implies a_i > 0, b_0 > 0, b_{n-1} < 0
        rng = np.random.default_rng(5)
        for _ in range(50):
            tf = make_brl_plant(rng)
            pc = classify(tf)
            assert pc.is_brl_urf
            assert all(a > 0 for a in tf.den_coeffs)
            assert tf.num_coeffs[0] > 0
            assert tf.num_coeffs[-1] < 0
