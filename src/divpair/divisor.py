"""Exact arithmetic for complex divisors on a marked curve.

Coefficients at marked points are Gaussian rationals (exact pairs of
``fractions.Fraction``), coefficients elsewhere are integers, and every
divisor must have an exactly integral total degree.  Keeping the
coefficients exact makes the degree constraint and all group laws
decidable rather than tolerance judgments; only the point coordinates
are floating geometry.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .curve import CurveModel, CurvePoint, Sphere, Torus, abel_jacobi_sum, as_point
from .errors import (
    ContextMismatchError,
    DegreeIntegralityError,
    DomainError,
    NonIntegralCoefficientError,
)

CLASS_LATTICE_TOL = 1e-9

__all__ = [
    "GaussianRational",
    "MarkedCurve",
    "ComplexDivisor",
    "ClassDescriptor",
    "divisor_add",
    "divisor_scale",
    "degree",
    "class_invariant",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class GaussianRational:
    """An exact complex number re + im*i with rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, complex):
            raise TypeError(
                "coerce a float complex via GaussianRational.from_complex"
            )
        return GaussianRational(value)

    @staticmethod
    def from_complex(value: complex, max_denominator: int = 10**9) -> "GaussianRational":
        value = complex(value)
        return GaussianRational(
            Fraction(value.real).limit_denominator(max_denominator),
            Fraction(value.imag).limit_denominator(max_denominator),
        )

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im}i"
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class MarkedCurve:
    """A curve together with an ordered tuple of distinct marked points.

    The marked disk carries no metric data that any implemented formula
    consumes; the ordering of the marks is the only bookkeeping retained.
    Torus marks are stored as fundamental-cell representatives.
    """

    __slots__ = ("curve", "marks")

    def __init__(self, curve: CurveModel, marks: Iterable = ()):
        points = []
        for raw in marks:
            point = as_point(raw)
            if point.at_infinity:
                raise DomainError("marked points must be affine")
            points.append(curve.reduce_point(point))
        # the upper triangle of one distance pass (``kernel_matrix``'s coincidence test)
        if len(points) > 1 and np.triu(curve._distance_matrix(points, points) < curve.point_tol, 1).any():
            raise DomainError("marked points must be pairwise distinct")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "marks", tuple(points))

    def __setattr__(self, name, value):
        raise AttributeError("MarkedCurve is immutable")

    @property
    def n_marks(self) -> int:
        return len(self.marks)

    def mark(self, index: int) -> CurvePoint:
        if not 0 <= index < len(self.marks):
            raise DomainError("mark index out of range")
        return self.marks[index]

    def compatible_with(self, other: "MarkedCurve") -> bool:
        if self.curve != other.curve or len(self.marks) != len(other.marks):
            return False
        return all(
            self.curve.points_equal(p, q) for p, q in zip(self.marks, other.marks)
        )

    def mark_index_of(self, point: CurvePoint) -> int | None:
        for i, mark in enumerate(self.marks):
            if self.curve.points_equal(mark, point):
                return i
        return None

    def divisor(self, marked=None, integral=None) -> "ComplexDivisor":
        return ComplexDivisor(self, marked=marked, integral=integral)

    def empty_divisor(self) -> "ComplexDivisor":
        return ComplexDivisor(self)

    def __repr__(self):
        return f"MarkedCurve({self.curve!r}, marks={list(self.marks)!r})"


class ComplexDivisor:
    """Formal sum of points: Gaussian-rational coefficients on the marks,
    integer coefficients elsewhere, integral total degree.

    Instances are immutable and canonical: zero coefficients are dropped,
    integral-part points lattice-equal to a mark are folded into the
    marked part, lattice-equal integral points are merged, and torus
    points are stored as fundamental-cell representatives.
    """

    __slots__ = ("mc", "marked", "integral")

    def __init__(
        self,
        mc: MarkedCurve,
        marked: Mapping[int, object] | Iterable[tuple[int, object]] | None = None,
        integral: Mapping[CurvePoint, int] | Iterable[tuple[object, int]] | None = None,
    ):
        curve = mc.curve
        coeffs: dict[int, GaussianRational] = {}
        if marked:
            items = marked.items() if isinstance(marked, Mapping) else marked
            for index, value in items:
                index = operator.index(index)
                if not 0 <= index < mc.n_marks:
                    raise DomainError("mark index out of range")
                coeffs[index] = coeffs.get(index, GR_ZERO) + GaussianRational.coerce(value)

        points: list[CurvePoint] = []
        weights: list[int] = []
        if integral:
            items = integral.items() if isinstance(integral, Mapping) else integral
            for raw_point, value in items:
                point = as_point(raw_point)
                coeff = GaussianRational.coerce(value)
                if coeff.is_zero():
                    continue
                if point.at_infinity:
                    if not isinstance(curve, Sphere):
                        raise DomainError("the torus has no point at infinity")
                    mark_index = None
                else:
                    point = curve.reduce_point(point)
                    mark_index = mc.mark_index_of(point)
                if mark_index is not None:
                    coeffs[mark_index] = coeffs.get(mark_index, GR_ZERO) + coeff
                    continue
                if not coeff.is_integer():
                    raise NonIntegralCoefficientError()
                weight = int(coeff.re)
                for k, existing in enumerate(points):
                    if curve.points_equal(existing, point):
                        weights[k] += weight
                        break
                else:
                    points.append(point)
                    weights.append(weight)

        marked_part = tuple(
            (index, coeff)
            for index, coeff in sorted(coeffs.items())
            if not coeff.is_zero()
        )
        integral_pairs = [
            (point, weight) for point, weight in zip(points, weights) if weight != 0
        ]
        integral_pairs.sort(key=lambda item: item[0].sort_key())

        total = sum((coeff for _, coeff in marked_part), GR_ZERO)
        total = total + GaussianRational(sum(w for _, w in integral_pairs))
        if not total.is_integer():
            raise DegreeIntegralityError()

        object.__setattr__(self, "mc", mc)
        object.__setattr__(self, "marked", marked_part)
        object.__setattr__(self, "integral", tuple(integral_pairs))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexDivisor is immutable")

    # --- queries ---------------------------------------------------------

    def degree(self) -> int:
        total = sum((coeff for _, coeff in self.marked), GR_ZERO)
        total = total + GaussianRational(sum(w for _, w in self.integral))
        return int(total.re)

    def is_empty(self) -> bool:
        return not self.marked and not self.integral

    def marked_coefficient(self, index: int) -> GaussianRational:
        if not 0 <= index < self.mc.n_marks:
            raise DomainError("mark index out of range")
        for i, coeff in self.marked:
            if i == index:
                return coeff
        return GR_ZERO

    def marked_degree(self) -> GaussianRational:
        return sum((coeff for _, coeff in self.marked), GR_ZERO)

    def exact_items(self) -> list[tuple[CurvePoint, GaussianRational]]:
        """Support with exact coefficients, marks first in mark order."""
        out = [(self.mc.mark(i), coeff) for i, coeff in self.marked]
        out.extend((point, GaussianRational(w)) for point, w in self.integral)
        return out

    def support_items(self) -> list[tuple[CurvePoint, complex]]:
        """Support with coefficients as complex floats."""
        return [(point, coeff.to_complex()) for point, coeff in self.exact_items()]

    def support_points(self) -> list[CurvePoint]:
        return [point for point, _ in self.exact_items()]

    def has_integer_coefficients(self) -> bool:
        return all(coeff.is_integer() for _, coeff in self.marked)

    # --- arithmetic ------------------------------------------------------

    def _require_same_context(self, other: "ComplexDivisor") -> None:
        if self.mc is other.mc:
            return
        if not self.mc.compatible_with(other.mc):
            raise ContextMismatchError()

    def __add__(self, other: "ComplexDivisor") -> "ComplexDivisor":
        self._require_same_context(other)
        return ComplexDivisor(
            self.mc,
            marked=list(self.marked) + list(other.marked),
            integral=list(self.integral) + list(other.integral),
        )

    def __neg__(self) -> "ComplexDivisor":
        return ComplexDivisor(
            self.mc,
            marked=[(i, -c) for i, c in self.marked],
            integral=[(p, -w) for p, w in self.integral],
        )

    def __sub__(self, other: "ComplexDivisor") -> "ComplexDivisor":
        return self + (-other)

    def scale(self, alpha) -> "ComplexDivisor":
        alpha = GaussianRational.coerce(alpha)
        if self.integral and not alpha.is_integer():
            raise NonIntegralCoefficientError()
        factor = int(alpha.re) if alpha.is_integer() else None
        return ComplexDivisor(
            self.mc,
            marked=[(i, alpha * c) for i, c in self.marked],
            integral=[(p, factor * w) for p, w in self.integral] if self.integral else None,
        )

    def __eq__(self, other):
        if not isinstance(other, ComplexDivisor):
            return NotImplemented
        if not self.mc.compatible_with(other.mc):
            return False
        if self.marked != other.marked:
            return False
        if len(self.integral) != len(other.integral):
            return False
        return all(
            w1 == w2 and self.mc.curve.points_equal(p1, p2)
            for (p1, w1), (p2, w2) in zip(self.integral, other.integral)
        )

    def __hash__(self):
        return hash((self.marked, tuple(w for _, w in self.integral)))

    def __repr__(self):
        terms = [f"({coeff})@Q{i + 1}" for i, coeff in self.marked]
        terms += [
            f"({w})@{'inf' if p.at_infinity else p.z}" for p, w in self.integral
        ]
        return "ComplexDivisor(" + (" + ".join(terms) if terms else "0") + ")"


def divisor_add(a: ComplexDivisor, b: ComplexDivisor) -> ComplexDivisor:
    """Coefficient-wise sum of two divisors over the same marked curve."""
    return a + b


def divisor_scale(alpha, d: ComplexDivisor) -> ComplexDivisor:
    """Multiply every coefficient by alpha.

    Non-integer alpha requires the support to lie in the marked set, and
    the scaled degree must remain exactly integral.
    """
    return d.scale(alpha)


def degree(d: ComplexDivisor) -> int:
    """Total degree; exactly an integer by the divisor invariant."""
    return d.degree()


class ClassDescriptor:
    """Divisor-class invariant: degree, plus the reduced Jacobian point on the torus.

    Two descriptors match exactly when the divisors differ by a principal
    divisor (degree alone on the sphere; degree and Abel-Jacobi point mod
    the lattice on the torus).
    """

    __slots__ = ("degree", "jacobian", "torus")

    def __init__(self, degree: int, jacobian: complex | None = None, torus: Torus | None = None):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "jacobian", jacobian)
        object.__setattr__(self, "torus", torus)

    def __setattr__(self, name, value):
        raise AttributeError("ClassDescriptor is immutable")

    def matches(self, other: "ClassDescriptor", tol: float = CLASS_LATTICE_TOL) -> bool:
        if self.degree != other.degree:
            return False
        if self.jacobian is None or other.jacobian is None:
            return self.jacobian is None and other.jacobian is None
        return self.torus.lattice_defect(self.jacobian - other.jacobian) < tol

    def combine(self, other: "ClassDescriptor") -> "ClassDescriptor":
        """Component-wise group law (degree adds; torus part adds mod lattice)."""
        if (self.jacobian is None) != (other.jacobian is None):
            raise ContextMismatchError()
        if self.jacobian is None:
            return ClassDescriptor(self.degree + other.degree)
        reduced = self.torus.reduce_point(self.jacobian + other.jacobian).z
        return ClassDescriptor(self.degree + other.degree, reduced, self.torus)

    def __repr__(self):
        if self.jacobian is None:
            return f"ClassDescriptor(degree={self.degree})"
        return f"ClassDescriptor(degree={self.degree}, jacobian={self.jacobian!r})"


def class_invariant(mc: MarkedCurve, d: ComplexDivisor) -> ClassDescriptor:
    """Invariant separating divisor classes.

    Sphere: the degree.  Torus: the degree together with the
    coefficient-weighted coordinate sum reduced to the fundamental cell.
    """
    if isinstance(mc.curve, Torus):
        raw = abel_jacobi_sum(mc.curve, d)
        reduced = mc.curve.reduce_point(raw).z
        return ClassDescriptor(d.degree(), reduced, mc.curve)
    return ClassDescriptor(d.degree())
