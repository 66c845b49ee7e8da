"""Plant parsing, classification, and observer-canonical realization.

A plant is a strictly proper rational transfer function

    (b[n-1] s^{n-1} + ... + b[0]) / (s^n + a[n-1] s^{n-1} + ... + a[0])

stored as two ascending-power coefficient lists of equal length n, with the
monic leading denominator coefficient kept implicit.  The module classifies
plants (stability, DC gain, relative degree, positive real zeros, the
bounded-restless class) and builds the companion-form state space used by
every other module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MarginalPoleError, PlantError

#: A pole whose real part lies within this band of zero is considered
#: marginal and refuses classification.
STABILITY_MARGIN = 1e-9

#: Zeros count as "positive real" when Im is below this and Re above it.
REAL_ZERO_TOL = 1e-9


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
    """Classification flags and spectra of a plant."""

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


def classify(tf: TransferFunction) -> PlantClass:
    """Classify a plant: stability, DC gain, relative degree, RHP real zeros,
    and membership in the bounded-restless (relative degree one) class.

    Poles and zeros are computed as eigenvalues of companion matrices; no
    polynomial deflation is performed.

    Raises
    ------
    MarginalPoleError
        If some pole's real part is within ``STABILITY_MARGIN`` of zero; such
        a plant cannot be meaningfully declared stable or unstable.
    """
    n = tf.n
    poles = _companion_roots(list(tf.den_coeffs))
    if np.any(np.abs(poles.real) <= STABILITY_MARGIN):
        raise MarginalPoleError(
            "marginal pole: real part within "
            f"+/-{STABILITY_MARGIN:g} of the imaginary axis"
        )
    is_stable = bool(np.all(poles.real < -STABILITY_MARGIN))

    deg = tf.numerator_degree()
    if deg < 0:
        zeros = np.array([], dtype=complex)
        relative_degree = n
    else:
        # roots of b[deg] s^deg + ... + b0, made monic
        lead = tf.num_coeffs[deg]
        zeros = _companion_roots([c / lead for c in tf.num_coeffs[:deg]])
        relative_degree = n - deg

    n_pos_real = int(
        np.sum((np.abs(zeros.imag) < REAL_ZERO_TOL) & (zeros.real > REAL_ZERO_TOL))
    )
    # a0 != 0 here: a zero constant coefficient means a pole at the origin,
    # which the marginal-pole guard has already rejected
    dc_gain = tf.num_coeffs[0] / tf.den_coeffs[0]

    is_brl_urf = (
        relative_degree == 1
        and is_stable
        and dc_gain > 0.0
        and n_pos_real % 2 == 1
        and tf.num_coeffs[-1] != 0.0
    )
    if is_brl_urf:
        # sign facts implied by the class definition; violation means a bug
        assert all(a > 0 for a in tf.den_coeffs)
        assert tf.num_coeffs[0] > 0
        assert tf.num_coeffs[-1] < 0

    return PlantClass(
        is_stable=is_stable,
        dc_gain=dc_gain,
        relative_degree=relative_degree,
        n_positive_real_zeros=n_pos_real,
        is_brl_urf=bool(is_brl_urf),
        zeros=tuple(sorted(zeros.tolist(), key=lambda z: (z.real, z.imag))),
        poles=tuple(sorted(poles.tolist(), key=lambda z: (z.real, z.imag))),
    )
