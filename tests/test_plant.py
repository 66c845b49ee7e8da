from fractions import Fraction

import numpy as np
import pytest

from conftest import make_brl_plant, make_stable_plant
from relayosc.errors import MarginalPoleError, PlantError
from relayosc.plant import _positive_roots, _unstable_count, classify, parse_plant, realize


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


def _time_scaled(tf, c):
    """G(s / c): every pole and zero times c, the DC gain and every flag
    of the class kept."""
    n = tf.n
    return parse_plant([b * c ** (n - k) for k, b in enumerate(tf.num_coeffs)],
                       [a * c ** (n - k) for k, a in enumerate(tf.den_coeffs)])


class TestExactClass:
    """The flags are decided exactly, so they do not depend on the unit of
    time or on how close a zero lies to the origin."""

    @pytest.mark.parametrize("k", range(-12, 13))
    def test_time_scale_keeps_the_class(self, k):
        plants = [parse_plant([1, -1], [6, 5])]
        plants += [make_brl_plant(np.random.default_rng(400 + i)) for i in range(20)]
        for tf in plants:
            pc = classify(_time_scaled(tf, 10.0 ** -k))
            assert pc.is_stable and pc.is_brl_urf
            assert pc.n_positive_real_zeros == 1

    def test_tiny_positive_zero(self):
        # (1e-10 - 0.9999999999 s - s^2) = -(s - 1e-10)(s + 1)
        pc = classify(parse_plant([1e-10, -0.9999999999, -1], [6, 11, 6]))
        assert pc.n_positive_real_zeros == 1
        assert pc.is_brl_urf

    def test_double_positive_zero(self):
        # (s - 1)^2 / (s + 1)^3: an even count, counted with multiplicity
        pc = classify(parse_plant([1, -2, 1], [1, 3, 3]))
        assert pc.n_positive_real_zeros == 2
        assert pc.is_stable and not pc.is_brl_urf

    @pytest.mark.parametrize("den", [
        [3, 2, 2, 1],  # s^4+s^3+2s^2+2s+3, roots 0.41 +- 1.29j: a zero Routh pivot
        [4, 0, 0, 0],  # s^4+4, roots +-1 +-j
        [1, 0],        # s^2+1: poles on the axis off the origin
        [2, 1, 2],     # (s+2)(s^2+1)
    ])
    def test_zero_pivot_is_not_stable(self, den):
        pc = classify(parse_plant([1], den))
        assert not pc.is_stable and not pc.is_brl_urf

    @pytest.mark.parametrize("den, unstable", [
        ([3, 2, 2, 1], 2),         # s^4+s^3+2s^2+2s+3: a zero Routh pivot, no root on the axis
        ([4, 0, 0, 0], 2),         # s^4+4, roots +-1 +-j
        ([-1, 0], 1),              # s^2-1, roots +-1
        ([1, 2], 0),               # (s+1)^2
        ([1, 1, 1], None),         # (s+1)(s^2+1)
        ([0, 1, 2], None),         # s (s+1)^2
        ([1, 0, 2, 0], None),      # (s^2+1)^2
    ])
    def test_unstable_count_without_routh_pivots(self, den, unstable):
        assert _unstable_count(den) == unstable

    def test_near_axis_pair_is_stable(self):
        # s^2 + 1e-12 s + 1: poles -5e-13 +- j, in the open left half plane
        assert classify(parse_plant([1], [1, 1e-12])).is_stable


def _factored(rng, degree, top, den):
    """A monic rational polynomial of the given degree as sympy builds it
    from its factors, its real roots, and the real parts of all its roots.
    The real parts are drawn from the set i / j, |i| <= top, 1 <= j <= den:
    a small set gives repeated roots and roots at the origin.  Complex
    pairs a +- b j, b != 0, may lie on the axis."""
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    factors, real, re_parts = [], [], []
    while len(re_parts) < degree:
        a = Fraction(int(rng.integers(-top, top + 1)), int(rng.integers(1, den + 1)))
        if degree - len(re_parts) >= 2 and rng.random() < 0.3:
            b = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            factors.append((s - sympy.Rational(a)) ** 2 + sympy.Rational(b) ** 2)
            re_parts += [a, a]
        else:
            factors.append(s - sympy.Rational(a))
            real.append(a)
            re_parts.append(a)
    return sympy.Poly(sympy.Mul(*factors), s), real, re_parts


class TestExactOracle:
    """The exact Routh-Hurwitz and Sturm counts against sympy's exact real roots,
    which count multiplicity, on seeded rational polynomials."""

    @pytest.mark.parametrize("degree", range(1, 21))
    def test_counts_match_sympy(self, degree):
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(degree)
        for top, den in [(6, 3), (6, 3), (20, 7), (20, 7)]:
            poly, real, re_parts = _factored(rng, degree, top, den)
            coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
            assert sorted(Fraction(int(r.p), int(r.q)) for r in sympy.real_roots(poly)) == sorted(real)
            positive = sum(r > 0 for r in real)
            scale = Fraction(-int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            assert _positive_roots(coeffs) == positive
            assert _positive_roots([scale * c for c in coeffs]) == positive
            unstable = _unstable_count(coeffs[:-1])
            if 0 in re_parts:
                assert unstable is None  # a root on the imaginary axis
            else:
                assert unstable == sum(r > 0 for r in re_parts)
            if all(Fraction(float(c)) == c for c in coeffs):  # exact as floats
                assert _positive_roots([float(c) for c in coeffs]) == positive
                assert _unstable_count([float(c) for c in coeffs[:-1]]) == unstable
