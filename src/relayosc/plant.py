"""Plant parsing, classification, and observer-canonical realization.

A plant is a strictly proper rational transfer function

    (b[n-1] s^{n-1} + ... + b[0]) / (s^n + a[n-1] s^{n-1} + ... + a[0])

stored as two ascending-power coefficient lists of equal length n, with the
monic leading denominator coefficient kept implicit.  The module classifies
plants (stability, DC gain, relative degree, positive real zeros, the
bounded-restless class) and builds the companion-form state space used by
every other module.  The classification flags and the zero count are
decided exactly, on the float coefficients as the dyadic rationals they
are, by the exact polynomial helpers below (Sturm sequences of integer
polynomials, signed at dyadic points), which ``sfs`` shares; the poles and
zeros are reported floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .errors import MarginalPoleError, PlantError


@dataclass(frozen=True)
class TransferFunction:
    """Strictly proper rational transfer function with monic denominator.

    ``num_coeffs`` and ``den_coeffs`` are ascending-power tuples of length n;
    the denominator's leading coefficient 1 is implicit.  ``num_coeffs`` is
    zero-padded up to length n.
    """

    num_coeffs: tuple[float, ...]
    den_coeffs: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.den_coeffs)

    def numerator_degree(self) -> int:
        """Degree of the numerator polynomial, -1 if identically zero."""
        for k in range(self.n - 1, -1, -1):
            if self.num_coeffs[k] != 0.0:
                return k
        return -1

    def __call__(self, s: complex) -> complex:
        """Evaluate the transfer function at a complex frequency."""
        num, den = self.polynomials(s)
        return num / den

    def polynomials(self, s: complex) -> tuple[complex, complex]:
        """Numerator and denominator values at a complex frequency."""
        num = sum(b * s**k for k, b in enumerate(self.num_coeffs))
        den = s**self.n + sum(a * s**k for k, a in enumerate(self.den_coeffs))
        return num, den


@dataclass(frozen=True)
class StateSpace:
    """Observer-canonical realization (A, B, C) of a transfer function.

    A carries -a[0..n-1] in its last column and ones on the subdiagonal;
    B stacks the numerator coefficients; C = [0 ... 0 1].  Arrays are
    read-only so instances can be shared freely across threads.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def den_coeffs(self) -> np.ndarray:
        """Recover a[0..n-1] from the companion structure."""
        return -self.A[:, -1]

    @property
    def num_coeffs(self) -> np.ndarray:
        return self.B


@dataclass(frozen=True)
class PlantClass:
    """Classification flags and spectra of a plant.  The flags and
    ``n_positive_real_zeros`` are exact; ``dc_gain`` is b0 / a0 rounded, and
    ``zeros`` and ``poles`` are reported floats that decide nothing."""

    is_stable: bool
    dc_gain: float
    relative_degree: int
    n_positive_real_zeros: int
    is_brl_urf: bool
    zeros: tuple[complex, ...] = field(default=())
    poles: tuple[complex, ...] = field(default=())


def parse_plant(num, den, *, leading_included: bool = False) -> TransferFunction:
    """Parse ascending-power coefficient lists into a TransferFunction.

    Parameters
    ----------
    num : sequence of float
        Numerator coefficients b0, b1, ... (ascending powers of s).
    den : sequence of float
        Denominator coefficients a0, a1, ... (ascending).  By default the
        monic leading coefficient is implicit, i.e. ``den=[6, 5]`` means
        s^2 + 5 s + 6.  With ``leading_included=True`` the last entry is the
        leading coefficient itself (any nonzero value; the fraction is
        normalized to a monic denominator).  External file/CLI interfaces
        use the explicit form.

    Raises
    ------
    PlantError
        Empty denominator, a coefficient that is not finite, zero leading
        coefficient, or a numerator of degree >= n (not strictly proper).
    """
    num = [float(x) for x in num]
    den = [float(x) for x in den]
    if not all(map(math.isfinite, num + den)):
        raise PlantError("plant coefficients must be finite")
    if not den:
        raise PlantError("denominator must be nonempty")
    if leading_included:
        if len(den) < 2:
            raise PlantError("denominator must have degree >= 1")
        lead = den[-1]
        if lead == 0.0:
            raise PlantError("leading denominator coefficient must be nonzero")
        den = [a / lead for a in den[:-1]]
        num = [b / lead for b in num]
    n = len(den)
    # strip trailing zeros before the properness check, then zero-pad
    while len(num) > 1 and num[-1] == 0.0:
        num.pop()
    if len(num) > n:
        raise PlantError(
            f"improper transfer function: numerator degree {len(num) - 1} "
            f">= denominator degree {n}"
        )
    num = num + [0.0] * (n - len(num))
    return TransferFunction(tuple(num), tuple(den))


def _companion(coeffs_ascending) -> np.ndarray:
    """Companion matrix of the monic polynomial with the non-leading
    ascending coefficients given: ones on the subdiagonal, the negated
    coefficients in the last column."""
    M = np.eye(len(coeffs_ascending), k=-1)
    M[:, -1] = np.negative(coeffs_ascending)
    return M


def realize(tf: TransferFunction) -> StateSpace:
    """Build the observer-canonical (companion-form) state space of ``tf``."""
    A = _companion(tf.den_coeffs)
    B = np.array(tf.num_coeffs, dtype=float)
    C = np.zeros(tf.n)
    C[-1] = 1.0
    for m in (A, B, C):
        m.setflags(write=False)
    return StateSpace(A, B, C)


def _companion_roots(coeffs_ascending: list[float]) -> np.ndarray:
    """Roots of a monic polynomial given its non-leading ascending coeffs,
    computed as eigenvalues of the companion matrix, as a complex array."""
    if not coeffs_ascending:
        return np.array([], dtype=complex)
    return np.linalg.eigvals(_companion(coeffs_ascending)).astype(complex)


# Exact polynomials are ascending lists of Python ints without trailing
# zeros ([] is zero).  Signs are all that is asked of them, so each one may
# be replaced by a positive multiple.

def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _combine(p: list[int], q: list[int], c: int = 1) -> list[int]:
    """p + c q."""
    out = [a + c * b for a, b in zip_longest(p, q, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _sturm(p: list[int], q: list[int]) -> list[list[int]]:
    """Signed remainder sequence p, q, -rem(p, q), ..., each member made
    primitive; its last member is +-gcd(p, q).  Its sign variations at
    a < b, neither a root of p, count sum sign(r) over the distinct roots of
    p in (a, b] when q = p' r (Sturm-Tarski; r = 1 is Sturm's theorem)."""
    seq = [p, q]
    while seq[-1]:
        p, q = seq[-2], seq[-1]
        while len(p) >= len(q):  # pseudo-division by q, scaled by |lead q|
            p = _combine([abs(q[-1]) * v for v in p], [0] * (len(p) - len(q)) + q,
                         -_sign(q[-1]) * p[-1])
        g = math.gcd(*p)
        seq.append([-v // g for v in p])
    return seq[:-1]


def _derivative(p: list[int]) -> list[int]:
    """p'."""
    return [k * c for k, c in enumerate(p)][1:]


# Points are dyadic rationals m / 2^k held as integer pairs (m, k): every
# point the exact helpers visit is 0, a power-of-two bound, its negative or
# a midpoint.

def _value(p: list[int], x: tuple[int, int]) -> int:
    """p(m / 2^k) times 2^(k deg p), for the point x = (m, k)."""
    m, k = x
    acc, shift = 0, 0
    for c in reversed(p):
        acc, shift = acc * m + (c << shift), shift + k
    return acc


def _count(seq: list[list[int]], x: tuple[int, int]) -> int:
    """Sign variations of ``seq`` at the point x."""
    signs = [s for s in (_sign(_value(p, x)) for p in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations(seq: list[list[int]], lo: tuple[int, int], hi: tuple[int, int]) -> int:
    """Sign variations of ``seq`` at the point lo minus those at hi."""
    return _count(seq, lo) - _count(seq, hi)


def _root_bound(p: list[int]) -> tuple[int, int]:
    """The point 2^e, the least power of two above 1 + max |p[i] / p[-1]|,
    which is above the modulus of every root of p, deg p >= 1 (Cauchy's
    bound)."""
    return 1 << (1 + max(map(abs, p[:-1])) // abs(p[-1])).bit_length(), 0


def _integer(coeffs) -> list[int]:
    """The polynomial with the given ascending float or rational
    coefficients, held exactly, times the least common denominator."""
    coeffs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return _combine([int(c * scale) for c in coeffs], [])


def _positive_roots(coeffs) -> int:
    """Roots in (0, inf) of the polynomial with the given ascending float
    coefficients, counted with multiplicity: Sturm counts on (0, Cauchy
    bound] of p, of gcd(p, p'), of its gcd with its derivative, and so on;
    a root of multiplicity m lies in the first m of them."""
    p = _integer(coeffs)
    while p and p[0] == 0:  # roots at the origin are not positive
        p = p[1:]
    count = 0
    while len(p) > 1:
        seq = _sturm(p, _derivative(p))
        count += _variations(seq, (0, 0), _root_bound(p))
        p = seq[-1]
    return count


def _unstable_count(den, num=(), gain=0) -> int | None:
    """Roots in the open right half plane of p(s) = s^n + sum (den[k] +
    gain num[k]) s^k, for float or rational coefficients held exactly;
    None when a root lies on the imaginary axis, which no Hurwitz
    polynomial has.

    Routh-Hurwitz in Sturm form (Gantmacher, The Theory of Matrices II,
    ch. XV): with p(j w) = j^n (h(w) - j g(w)), h of degree n from the
    powers n, n - 2, ... of p and g from n - 1, n - 3, ..., the Cauchy
    index of g / h over the real line is n - 2 u for u unstable roots when
    no root is on the axis, and the signed remainder sequence of h and g
    gives it on (-B, B], B above every root of h.  A root on the axis is
    a real root of gcd(h, g), the sequence's last member.
    """
    p = _integer([Fraction(d) + gain * Fraction(b)
                  for d, b in zip_longest(den, num, fillvalue=0)] + [1])
    n = len(p) - 1
    h, g = (_combine([c * (-1) ** ((n - k) // 2) if (n - k) % 2 == r else 0
                      for k, c in enumerate(p)], []) for r in (0, 1))
    bound, _ = _root_bound(h)
    lo, hi = (-bound, 0), (bound, 0)
    seq = _sturm(h, g)
    gcd = seq[-1]
    if len(gcd) > 1 and _variations(_sturm(gcd, _derivative(gcd)), lo, hi):
        return None
    return (n - _variations(seq, lo, hi)) // 2


def classify(tf: TransferFunction) -> PlantClass:
    """Classify a plant: stability, DC gain, relative degree, positive real
    zeros, and membership in the bounded-restless (relative degree one) class.

    Every flag is exact on the float coefficients, so none depends on the
    unit of time.  ``is_stable`` is an exact Routh-Hurwitz count of zero (a
    root on the axis is no Hurwitz polynomial), and
    ``n_positive_real_zeros`` an exact Sturm count with multiplicity.
    ``is_brl_urf`` is relative degree one, a stable plant and
    b0 > 0 > b[n-1]: b(0) = b[n-1] prod(-z_i), so the count of positive
    zeros is odd exactly when b0 b[n-1] < 0, and the DC gain is then
    positive.  Poles and zeros are reported floats, eigenvalues of
    companion matrices; no polynomial deflation is performed.

    Raises
    ------
    MarginalPoleError
        A pole at the origin (a0 = 0), where the DC gain is undefined.
    """
    b = tf.num_coeffs
    if tf.den_coeffs[0] == 0.0:
        raise MarginalPoleError("marginal pole at the origin (a0 = 0): the DC gain is undefined")
    poles = _companion_roots(list(tf.den_coeffs))
    is_stable = _unstable_count(tf.den_coeffs) == 0
    deg = max(tf.numerator_degree(), 0)  # a zero numerator has relative degree n
    zeros = _companion_roots([c / b[deg] for c in b[:deg]])  # b made monic
    relative_degree = tf.n - deg

    return PlantClass(
        is_stable=is_stable,
        dc_gain=b[0] / tf.den_coeffs[0],
        relative_degree=relative_degree,
        n_positive_real_zeros=_positive_roots(b),
        is_brl_urf=relative_degree == 1 and is_stable and b[0] > 0 > b[-1],
        zeros=tuple(sorted(zeros.tolist(), key=lambda z: (z.real, z.imag))),
        poles=tuple(sorted(poles.tolist(), key=lambda z: (z.real, z.imag))),
    )
