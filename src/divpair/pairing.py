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
from dataclasses import dataclass

import numpy as np

from .curve import CurveModel, CurvePoint, Sphere, Torus, as_point, kernel_matrix, theta1
from .divisor import ComplexDivisor, GaussianRational, MarkedCurve
from .errors import (
    ContextMismatchError,
    DegreeZeroRequiredError,
    DisjointSupportError,
    DomainError,
)

DISJOINT_TOL = 1e-7
FORMULAS = ("ad", "adsym", "ad3")

__all__ = [
    "RationalFunctionData",
    "PairingResult",
    "ScalingResiduals",
    "weil_symbol",
    "check_weil_reciprocity",
    "pairing_norm",
    "pairing_exponent",
    "self_pairing_exponent",
    "hermitian_form",
    "check_scaling_laws",
    "check_bimultiplicativity",
    "check_symmetry",
]


class RationalFunctionData:
    """A single-valued meromorphic function given by its zeros and poles.

    Sphere: C * prod (z - P)^m, with the point at infinity implicitly
    carrying multiplicity -sum(m).  Torus: C * e^{-2 pi i n z} *
    prod theta1(z - P)^m, which requires sum(m) = 0 and the weighted
    coordinate sum to lie in the lattice; n is the tau-component of that
    lattice point and makes the product doubly periodic.
    """

    __slots__ = ("curve", "zeros_poles", "leading_constant", "_tau_winding")

    def __init__(self, curve: CurveModel, zeros_poles, leading_constant: complex = 1.0):
        constant = complex(leading_constant)
        if constant == 0:
            raise DomainError("leading constant must be nonzero")
        items = (
            zeros_poles.items() if hasattr(zeros_poles, "items") else zeros_poles
        )
        merged: list[tuple[CurvePoint, int]] = []
        for raw_point, mult in items:
            point = as_point(raw_point)
            mult = int(mult)
            if mult == 0:
                continue
            if point.at_infinity:
                raise DomainError(
                    "the multiplicity at infinity is implicit on the sphere"
                )
            for k, (existing, _) in enumerate(merged):
                if curve.points_equal(existing, point):
                    merged[k] = (existing, merged[k][1] + mult)
                    break
            else:
                merged.append((point, mult))
        merged = [(p, m) for p, m in merged if m != 0]
        merged.sort(key=lambda item: item[0].sort_key())

        winding = 0
        if isinstance(curve, Torus):
            if sum(m for _, m in merged) != 0:
                raise DomainError(
                    "an elliptic function needs as many zeros as poles"
                )
            weighted = sum((m * p.z for p, m in merged), 0j)
            defect = curve.lattice_defect(weighted)
            if defect > 1e-9:
                raise DomainError(
                    "zeros and poles must have a lattice-point coordinate sum"
                )
            _, b = curve.lattice_coords(weighted)
            winding = round(b)

        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "zeros_poles", tuple(merged))
        object.__setattr__(self, "leading_constant", constant)
        object.__setattr__(self, "_tau_winding", winding)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunctionData is immutable")

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
        point = as_point(point)
        if point.at_infinity:
            if not isinstance(self.curve, Sphere):
                raise DomainError("the torus has no point at infinity")
            if self.multiplicity_sum() != 0:
                raise DomainError(
                    "function has a zero or pole at infinity; value undefined"
                )
            return self.leading_constant
        value = self.leading_constant
        if isinstance(self.curve, Torus):
            if self._tau_winding:
                value *= cmath.exp(-2j * math.pi * self._tau_winding * point.z)
            for p, m in self.zeros_poles:
                value *= theta1(point.z - p.z, self.curve.tau) ** m
        else:
            for p, m in self.zeros_poles:
                value *= (point.z - p.z) ** m
        return value


def weil_symbol(f: RationalFunctionData, d: ComplexDivisor) -> complex:
    """prod_P f(P)^(n_P) over the support of an integral divisor d.

    Computed as exp(sum n_P * log f(P)); the exponents are integers, so
    the branch of each logarithm is immaterial.
    """
    if f.curve != d.mc.curve:
        raise ContextMismatchError("function and divisor live on different curves")
    if not d.has_integer_coefficients():
        raise DomainError("weil_symbol requires an integral divisor")
    support = d.support_items()
    curve = d.mc.curve
    if any(
        curve.point_distance(p, q) <= DISJOINT_TOL
        for p, _ in f.divisor_points()
        for q, _ in support
    ):
        raise DisjointSupportError()
    exponent = 0j
    for point, coeff in support:
        value = f(point)
        if value == 0 or cmath.isinf(value) or cmath.isnan(value):
            raise DisjointSupportError()
        exponent += coeff * cmath.log(value)
    return cmath.exp(exponent)


def check_weil_reciprocity(
    f: RationalFunctionData, g: RationalFunctionData, mc: MarkedCurve | None = None
) -> float:
    """|f(div g) / g(div f) - 1|; below 1e-9 for a passing pair."""
    if mc is None:
        mc = MarkedCurve(f.curve)
    symbol_fg = weil_symbol(f, g.divisor(mc))
    symbol_gf = weil_symbol(g, f.divisor(mc))
    return abs(symbol_fg / symbol_gf - 1.0)


def _exp(exponent: float) -> float:
    """e^exponent for a norm or factor: inf beyond the float range, never OverflowError."""
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
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

    Checks that both have degree zero and disjoint supports.  Sphere terms
    at infinity stay 0 (degree zero of the opposite operand makes the
    affine sum the documented value); ``shift`` is added on the defined
    entries only.
    """
    if d1.degree() != 0 or d2.degree() != 0:
        raise DegreeZeroRequiredError()
    items1, items2 = d1.support_items(), d2.support_items()
    kernel, distance, defined = kernel_matrix(
        mc.curve, [p for p, _ in items1], [q for q, _ in items2]
    )
    if (distance <= DISJOINT_TOL).any():
        raise DisjointSupportError()
    return _coefficients(items1), _coefficients(items2), kernel + shift * defined


def pairing_exponent(
    mc: MarkedCurve,
    d1: ComplexDivisor,
    d2: ComplexDivisor,
    formula: str = "ad3",
    *,
    kernel_shift: float = 0.0,
) -> float:
    """Exponent of the pairing norm under the named formula arrangement."""
    contract = _contraction(formula)
    return float(contract(*_pairing_matrix(mc, d1, d2, kernel_shift)))


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


@dataclass(frozen=True)
class ScalingResiduals:
    """Residuals of the two scaling laws; ``real_law`` is None for non-real alpha."""

    real_law: float | None
    conjugation_law: float


def check_scaling_laws(
    mc: MarkedCurve, d1: ComplexDivisor, d2: ComplexDivisor, alpha
) -> ScalingResiduals:
    """Norm scaling under alpha*d1: power law for real alpha, conjugation law always."""
    alpha = GaussianRational.coerce(alpha)
    base = pairing_norm(mc, d1, d2)
    scaled = pairing_norm(mc, d1.scale(alpha), d2)
    conjugated = pairing_norm(mc, d1, d2.scale(alpha.conjugate()))
    real_law = None
    if alpha.is_real():
        real_law = abs(scaled.norm - base.norm ** float(alpha.re))
    return ScalingResiduals(
        real_law=real_law,
        conjugation_law=abs(scaled.norm - conjugated.norm),
    )


def check_bimultiplicativity(
    mc: MarkedCurve, d1: ComplexDivisor, d2: ComplexDivisor, k: ComplexDivisor
) -> float:
    """Relative defect of norm(d1 + d2, k) = norm(d1, k) * norm(d2, k)."""
    combined = pairing_norm(mc, d1 + d2, k)
    split = pairing_norm(mc, d1, k).norm * pairing_norm(mc, d2, k).norm
    return abs(combined.norm - split) / combined.norm


def check_symmetry(mc: MarkedCurve, d1: ComplexDivisor, d2: ComplexDivisor) -> float:
    """Relative defect of norm(d1, d2) = norm(d2, d1)."""
    forward = pairing_norm(mc, d1, d2)
    backward = pairing_norm(mc, d2, d1)
    return abs(forward.norm - backward.norm) / forward.norm
