"""Weil symbols, reciprocity checks, and the pairing norm with its Hermitian form.

Every norm formula is evaluated as a sum in the exponent over the real
symmetric kernel g(P, Q): a power G^w with complex w is branch-ambiguous
as a complex power but unambiguous as exp(w * g) with g real, so no
branch cut ever enters.  Each public call builds one kernel matrix
g(P_i, P'_j) with ``curve.kernel_matrix``; the three published
arrangements of the exponent are distinct contractions of the coefficient
vectors with that matrix (``adsym`` reads its second half from the
transpose).  They share the kernel values but not the coefficient algebra,
so their agreement still guards the conjugations and index orders:

    ad:     1/2 * sum_ij (conj(n_i) n'_j + n_i conj(n'_j)) g(P_i, P'_j)
    adsym:  1/2 * sum_ij conj(n_i) n'_j g(P_i, P'_j)
          + 1/2 * sum_ji conj(n'_j) n_i g(P'_j, P_i)
    ad3:    sum_ij Re(n_i conj(n'_j)) g(P_i, P'_j)

Both operands must have degree zero; that hypothesis is what makes the
kernel's additive constant drop out and the norm symmetric.
"""

from __future__ import annotations

import cmath
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .curve import CurveModel, CurvePoint, Sphere, Torus, _exp_in_range, as_point, kernel_matrix
from .divisor import (
    JACOBI_LATTICE_TOL, ComplexDivisor, GaussianRational, MarkedCurve, _integral_part, _require_context
)
from .errors import ContextMismatchError, DegreeZeroRequiredError, DisjointSupportError, DomainError

DISJOINT_TOL = 1e-7

__all__ = [
    "RationalFunctionData",
    "PairingResult",
    "ScalingResiduals",
    "weil_symbol",
    "check_weil_reciprocity",
    "pairing_norm",
    "self_pairing_exponent",
    "hermitian_form",
    "check_scaling_laws",
    "check_bimultiplicativity",
    "check_symmetry",
]


def tolerance_scale() -> float:
    """Multiplier applied to every pass threshold (DIVPAIR_TOL, default 1): the selftest's
    and those of the CLI's pairing and reciprocity checks.

    Read afresh on every call.  A value that is not a positive finite
    number is rejected with a RuntimeWarning (shown on stderr) and 1 is
    used instead.
    """
    raw = os.environ.get("DIVPAIR_TOL")
    if raw is None:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if 0 < value < math.inf:
        return value
    warnings.warn(f"ignoring DIVPAIR_TOL={raw!r}: not a positive finite number; using 1.0", RuntimeWarning)
    return 1.0


@dataclass(frozen=True, slots=True, init=False, eq=False)
class RationalFunctionData:
    """A single-valued meromorphic function given by its zeros and poles.

    Sphere: C * prod (z - P)^m, with the point at infinity implicitly
    carrying multiplicity -sum(m).  Torus: C * e^{-2 pi i n z} *
    prod theta1(z - P)^m, which requires sum(m) = 0 and the weighted
    coordinate sum to lie in the lattice; n is the tau-component of that
    lattice point and makes the product doubly periodic.
    """

    curve: CurveModel
    zeros_poles: tuple
    leading_constant: complex
    _tau_winding: int

    def __init__(self, curve: CurveModel, zeros_poles, leading_constant: complex = 1.0):
        constant = complex(leading_constant)
        if constant == 0:
            raise DomainError("leading constant must be nonzero")
        merged: list[tuple[CurvePoint, int]] = []
        for raw_point, mult in zeros_poles:
            point = as_point(raw_point)
            mult = int(mult)
            if mult == 0:
                continue
            if point.at_infinity:
                raise DomainError("the multiplicity at infinity is implicit on the sphere")
            curve.add_at(merged, point, mult)
        merged = _integral_part(merged)

        winding = 0
        if isinstance(curve, Torus):
            if sum(m for _, m in merged) != 0:
                raise DomainError("an elliptic function needs as many zeros as poles")
            weighted = sum((m * p.z for p, m in merged), 0j)
            if not curve.lattice_defect(weighted) < JACOBI_LATTICE_TOL:
                raise DomainError("zeros and poles must have a lattice-point coordinate sum")
            winding = round(curve.lattice_coords(weighted)[1])

        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "zeros_poles", merged)
        object.__setattr__(self, "leading_constant", constant)
        object.__setattr__(self, "_tau_winding", winding)

    @classmethod
    def from_zeros_poles(
        cls, curve: CurveModel, zeros, poles, leading_constant: complex = 1.0
    ) -> "RationalFunctionData":
        items = [(p, 1) for p in zeros] + [(p, -1) for p in poles]
        return cls(curve, items, leading_constant)

    def multiplicity_sum(self) -> int:
        return sum(m for _, m in self.zeros_poles)

    def divisor_points(self) -> list[tuple[CurvePoint, int]]:
        """Zeros and poles, including the sphere's implicit infinity term."""
        out = list(self.zeros_poles)
        total = self.multiplicity_sum()
        if isinstance(self.curve, Sphere) and total != 0:
            out.append((CurvePoint.infinity(), -total))
        return out

    def divisor(self, mc: MarkedCurve | None = None) -> ComplexDivisor:
        if mc is None:
            mc = MarkedCurve(self.curve)
        return ComplexDivisor(mc, integral=self.divisor_points())

    def __call__(self, point) -> complex:
        """f(P): 0 where P coincides with a zero, DomainError at a pole or beyond the float range."""
        return _exp_in_range(self._log_values([self.curve.reduce_point(point)])[0], "f(P)")

    def _log_values(self, points: list[CurvePoint], clearance: float | None = None) -> np.ndarray:
        """log f(P_i) = log C - 2 pi i n P_i + sum_j m_j F(P_i - Q_j) on some branch, one matrix over
        the points x ``divisor_points`` with the curve's log factor F (``_log_factors``), read off the
        one ``_reduce_pairs`` pass that gives the distances; n = 0 on the sphere, whose infinity enters
        no sum (``kernel_matrix``'s mask).  -inf where P_i coincides with a zero (``points_equal``),
        DomainError at a pole; DisjointSupportError where P_i lies within ``clearance`` of either."""
        curve, divisor = self.curve, self.divisor_points()
        distance, reduced = curve._reduce_pairs(points, [q for q, _ in divisor])
        if clearance is not None and (distance <= clearance).any():
            raise DisjointSupportError()
        mults = np.array([m for _, m in divisor], dtype=float)
        order = (distance < curve.point_tol) @ mults
        if (order < 0).any():
            raise DomainError("function has a pole at the point; value undefined")
        z = np.array([p.z for p in points], dtype=complex)
        defined = (distance >= curve.point_tol) & (distance < math.inf)
        factors = np.zeros(distance.shape, dtype=complex)
        factors[defined] = curve._log_factors(reduced[defined])
        values = cmath.log(self.leading_constant) - 2j * math.pi * self._tau_winding * z + factors @ mults
        values[order > 0] = -math.inf
        return values


def _log_weil_symbol(f: RationalFunctionData, d: ComplexDivisor) -> complex:
    """sum_P n_P log f(P) over the support of an integral divisor d (``_log_values``); its
    exponents are integers, so the branches of the logs move it by multiples of 2 pi i."""
    if f.curve != d.mc.curve:
        raise ContextMismatchError("function and divisor live on different curves")
    if not d.has_integer_coefficients():
        raise DomainError("weil_symbol requires an integral divisor")
    support = d.support_items()
    return complex(_coefficients(support) @ f._log_values([q for q, _ in support], clearance=DISJOINT_TOL))


def weil_symbol(f: RationalFunctionData, d: ComplexDivisor) -> complex:
    """prod_P f(P)^(n_P) over the support of an integral divisor d: the exponential of
    ``_log_weil_symbol``, DomainError where it leaves the float range."""
    return _exp_in_range(_log_weil_symbol(f, d), "the Weil symbol")


def check_weil_reciprocity(f: RationalFunctionData, g: RationalFunctionData) -> float:
    """|f(div g) / g(div f) - 1|; below 1e-9 for a passing pair.

    ``_ratio_defect`` of the log symbols' difference: defined where either symbol
    leaves the float range, inf where the ratio does.
    """
    return _ratio_defect(_log_weil_symbol(f, g.divisor()) - _log_weil_symbol(g, f.divisor()))


def _ratio_defect(delta: complex) -> float:
    """|e^delta - 1| for a complex log-ratio delta, its imaginary part reduced mod 2 pi; inf where
    it leaves the float range.  |e^delta - 1|^2 = expm1(Re delta)^2 + 4 e^(Re delta) sin^2(Im delta / 2)
    is free of cancellation, and for real delta it is |expm1(delta)| exactly."""
    angle = math.remainder(delta.imag, 2.0 * math.pi)
    try:
        return math.hypot(math.expm1(delta.real), 2.0 * math.exp(0.5 * delta.real) * math.sin(0.5 * angle))
    except OverflowError:
        return math.inf


def _exp(exponent: float) -> float:
    """e^exponent for a norm or factor: inf beyond the float range, never OverflowError."""
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, slots=True)
class PairingResult:
    """Norm value of the metrized pairing together with its exponent data.

    ``norm`` is e^exponent: inf or 0 when that leaves the float range,
    while ``exponent`` stays finite.
    """

    norm: float
    exponent: float
    hermitian_value: complex
    formula: str


# The three exponent arrangements of the module docstring, one contraction
# each of the coefficient vectors n, m with the real kernel matrix g.
_EXPONENTS = {
    "ad": lambda n, m, g: 0.5 * (n.conj() @ g @ m + n @ g @ m.conj()).real,
    "adsym": lambda n, m, g: 0.5 * (n.conj() @ g @ m).real + 0.5 * (m.conj() @ g.T @ n).real,
    "ad3": lambda n, m, g: np.sum(np.outer(n, m.conj()).real * g),
}
FORMULAS = tuple(_EXPONENTS)


def _contraction(formula: str):
    if formula not in _EXPONENTS:
        raise DomainError(f"unknown pairing formula {formula!r}")
    return _EXPONENTS[formula]


def _coefficients(items) -> np.ndarray:
    return np.array([coeff for _, coeff in items], dtype=complex)


def _pairing_matrix(
    mc: MarkedCurve, d1: ComplexDivisor, d2: ComplexDivisor, shift: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient vectors of two pairable divisors and their kernel matrix.

    Checks that both live on ``mc`` and have degree zero and disjoint
    supports.  Sphere terms at infinity stay 0 (degree zero of the opposite
    operand makes the affine sum the documented value); ``shift`` is added
    on the defined entries only.
    """
    _require_context(mc, d1, d2)
    if d1.degree() != 0 or d2.degree() != 0:
        raise DegreeZeroRequiredError()
    items1, items2 = d1.support_items(), d2.support_items()
    kernel, distance, defined = kernel_matrix(mc.curve, [p for p, _ in items1], [q for q, _ in items2])
    if (distance <= DISJOINT_TOL).any():
        raise DisjointSupportError()
    return _coefficients(items1), _coefficients(items2), kernel + shift * defined


def pairing_norm(
    mc: MarkedCurve,
    d1: ComplexDivisor,
    d2: ComplexDivisor,
    formula: str = "ad3",
    *,
    kernel_shift: float = 0.0,
) -> PairingResult:
    """Metrized pairing norm of two degree-zero divisors with disjoint supports.

    ``kernel_shift`` adds a constant to every kernel value; the result is
    invariant under it by the degree-zero hypothesis, and the knob exists
    so that invariance can be verified from the outside.
    """
    contract = _contraction(formula)
    n, m, kernel = _pairing_matrix(mc, d1, d2, kernel_shift)
    exponent = float(contract(n, m, kernel))
    return PairingResult(
        norm=_exp(exponent),
        exponent=exponent,
        hermitian_value=complex(n @ kernel @ m.conj()),
        formula=formula,
    )


def self_pairing_exponent(mc: MarkedCurve, d: ComplexDivisor) -> float:
    """ad3 exponent of the pairing of a divisor with itself, diagonal omitted.

    The coincident pairs diverge and are skipped; this is the documented
    regularization used by the string measure factor.
    """
    _require_context(mc, d)
    if d.degree() != 0:
        raise DegreeZeroRequiredError()
    items = d.support_items()
    points = [p for p, _ in items]
    kernel, _, _ = kernel_matrix(mc.curve, points, points)
    n = _coefficients(items)
    return float(_EXPONENTS["ad3"](n, n, kernel))


def hermitian_form(mc: MarkedCurve, d1: ComplexDivisor, d2: ComplexDivisor) -> complex:
    """Sesquilinear form sum_ij n_i conj(n'_j) g(Q_i, Q_j) on marked supports.

    The pairing norm is exp(Re(...)) of this value.
    """
    if d1.integral or d2.integral:
        raise DomainError("hermitian_form requires supports inside the marked set")
    n, m, kernel = _pairing_matrix(mc, d1, d2, 0.0)
    return complex(n @ kernel @ m.conj())


@dataclass(frozen=True, slots=True)
class ScalingResiduals:
    """Relative defects of the two scaling laws; ``real_law`` is None for non-real alpha."""

    real_law: float | None
    conjugation_law: float


def check_scaling_laws(
    mc: MarkedCurve, d1: ComplexDivisor, d2: ComplexDivisor, alpha
) -> ScalingResiduals:
    """Scaling under alpha*d1 from the exponents e: e(alpha d1, d2) = alpha e(d1, d2)
    for real alpha, and e(alpha d1, d2) = e(d1, conj(alpha) d2) always."""
    alpha = GaussianRational.coerce(alpha)
    scaled = pairing_norm(mc, d1.scale(alpha), d2).exponent
    conjugated = pairing_norm(mc, d1, d2.scale(alpha.conjugate())).exponent
    real_law = None
    if alpha.is_real():
        real_law = _ratio_defect(scaled - float(alpha.re) * pairing_norm(mc, d1, d2).exponent)
    return ScalingResiduals(real_law, _ratio_defect(scaled - conjugated))


def check_bimultiplicativity(
    mc: MarkedCurve, d1: ComplexDivisor, d2: ComplexDivisor, k: ComplexDivisor
) -> float:
    """Relative defect of norm(d1 + d2, k) = norm(d1, k) * norm(d2, k), from the exponents."""
    combined = pairing_norm(mc, d1 + d2, k).exponent
    split = pairing_norm(mc, d1, k).exponent + pairing_norm(mc, d2, k).exponent
    return _ratio_defect(split - combined)


def check_symmetry(mc: MarkedCurve, d1: ComplexDivisor, d2: ComplexDivisor) -> float:
    """Relative defect of norm(d1, d2) = norm(d2, d1), from the exponents."""
    forward = pairing_norm(mc, d1, d2).exponent
    backward = pairing_norm(mc, d2, d1).exponent
    return _ratio_defect(backward - forward)
