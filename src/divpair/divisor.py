"""Exact arithmetic for complex divisors on a marked curve.

Coefficients at marked points are Gaussian rationals (reduced integer
triples (a + b*i)/d), coefficients elsewhere are integers, and every
divisor must have an exactly integral total degree.  Keeping the
coefficients exact makes the degree constraint and all group laws
decidable rather than tolerance judgments; only the point coordinates
are floating geometry.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite
from numbers import Rational
from typing import Iterable, Mapping

import numpy as np

from .curve import CurveModel, CurvePoint, Torus, abel_jacobi_sum, as_point
from .errors import (
    ContextMismatchError,
    DegreeIntegralityError,
    DomainError,
    NonIntegralCoefficientError,
)

# Sum n_P P lies in the lattice when it is this close to a lattice point: the one
# Abel-Jacobi tolerance of class equality, principality and elliptic functions
JACOBI_LATTICE_TOL = 1e-8

__all__ = [
    "GaussianRational",
    "MarkedCurve",
    "ComplexDivisor",
    "ClassDescriptor",
    "class_invariant",
]


def _ratio(value) -> tuple[int, int]:
    """Exact (numerator, denominator) of an int, rational, float or decimal string."""
    if type(value) is int:
        return value, 1
    if isinstance(value, float):
        return value.as_integer_ratio()
    if isinstance(value, str):
        value = Fraction(value)
    elif not isinstance(value, Rational):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    return int(value.numerator), int(value.denominator)


def _rational_str(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


@dataclass(frozen=True, slots=True, init=False, eq=False)
class GaussianRational:
    """An exact complex number re + im*i with rational re, im.

    Stored as one reduced integer triple (a, b, d): the value (a + b*i)/d
    with d > 0 and gcd(a, b, d) = 1, so every value has one representation
    and each operation costs a few integer products and one gcd.  ``re`` and
    ``im`` are ``Fraction`` views of it; ``triple`` is the triple itself.
    """

    _a: int
    _b: int
    _d: int

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        _fill(self, p * s, r * q, q * s)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def triple(self) -> tuple[int, int, int]:
        """(a, b, d) with value (a + b*i)/d, d > 0 and gcd(a, b, d) = 1."""
        return self._a, self._b, self._d

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
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/(a2^2 + b2^2)
        d2 = other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm)

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_real(self) -> bool:
        return self._b == 0

    def is_integer(self) -> bool:
        return self._b == 0 and self._d == 1

    def to_complex(self) -> complex:
        # int / int rounds once, exactly as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, float):
            if not isfinite(other):
                return False
        elif not isinstance(other, Rational):
            return NotImplemented
        n, d = _ratio(other)
        return self._b == 0 and self._a * d == n * self._d

    def __hash__(self):
        # a real value hashes as the equal Fraction, int or float does
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return _rational_str(a, d)
        if b == d:
            imag = "i"
        elif b == -d:
            imag = "-i"
        else:
            imag = f"{_rational_str(b, d)}i"
        if a == 0:
            return imag
        sign = "+" if b > 0 else ""
        return f"{_rational_str(a, d)}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _fill(value: GaussianRational, a: int, b: int, d: int) -> None:
    """Store (a + b*i)/d, d > 0, in lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    _set_a(value, a)
    _set_b(value, b)
    _set_d(value, d)


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for any d > 0."""
    value = object.__new__(GaussianRational)
    _fill(value, a, b, d)
    return value


GR_ZERO = GaussianRational(0)


@dataclass(frozen=True, slots=True, eq=False)
class MarkedCurve:
    """A curve together with an ordered tuple of distinct marked points.

    The marked disk carries no metric data that any implemented formula
    consumes; the ordering of the marks is the only bookkeeping retained.
    Torus marks are stored as fundamental-cell representatives.
    """

    curve: CurveModel
    marks: Iterable = ()

    def __post_init__(self):
        curve, points = self.curve, []
        for raw in self.marks:
            point = as_point(raw)
            if point.at_infinity:
                raise DomainError("marked points must be affine")
            points.append(curve.reduce_point(point))
        # the upper triangle of one distance pass (``kernel_matrix``'s coincidence test)
        if len(points) > 1 and np.triu(curve._reduce_pairs(points, points)[0] < curve.point_tol, 1).any():
            raise DomainError("marked points must be pairwise distinct")
        object.__setattr__(self, "marks", tuple(points))

    @property
    def n_marks(self) -> int:
        return len(self.marks)

    def compatible_with(self, other: "MarkedCurve") -> bool:
        if self.curve != other.curve or len(self.marks) != len(other.marks):
            return False
        return all(
            self.curve.points_equal(p, q) for p, q in zip(self.marks, other.marks)
        )

    def __repr__(self):
        return f"MarkedCurve({self.curve!r}, marks={list(self.marks)!r})"


@dataclass(frozen=True, slots=True, init=False, eq=False)
class ComplexDivisor:
    """Formal sum of points: Gaussian-rational coefficients on the marks,
    integer coefficients elsewhere, integral total degree.

    Instances are immutable and canonical: zero coefficients are dropped,
    integral-part points lattice-equal to a mark are folded into the
    marked part, lattice-equal integral points are merged (both by
    ``CurveModel.add_at``, the marks first), and torus points are stored
    as fundamental-cell representatives.  The degree
    and the marked degree are fixed at construction; the float support is
    converted once, on first use.
    """

    mc: MarkedCurve
    marked: tuple
    integral: tuple
    _marked_degree: GaussianRational
    _degree: int
    _support: tuple | None

    def __init__(
        self,
        mc: MarkedCurve,
        marked: Mapping[int, object] | Iterable[tuple[int, object]] | None = None,
        integral: Mapping[CurvePoint, int] | Iterable[tuple[object, int]] | None = None,
    ):
        curve, n_marks = mc.curve, mc.n_marks
        # the marks first, then the integral points: an entry's index below n_marks is a mark
        entries = [(mark, GR_ZERO) for mark in mc.marks]
        if marked:
            items = marked.items() if isinstance(marked, Mapping) else marked
            for index, value in items:
                index = operator.index(index)
                if not 0 <= index < n_marks:
                    raise DomainError("mark index out of range")
                mark, coeff = entries[index]
                entries[index] = (mark, coeff + GaussianRational.coerce(value))
        if integral:
            items = integral.items() if isinstance(integral, Mapping) else integral
            for raw_point, value in items:
                point = as_point(raw_point)
                coeff = GaussianRational.coerce(value)
                if coeff.is_zero():
                    continue
                # the torus has no point at infinity; the sphere's never equals an affine mark
                point = curve.reduce_point(point)
                if curve.add_at(entries, point, coeff) >= n_marks and not coeff.is_integer():
                    raise NonIntegralCoefficientError()

        marked_part = tuple((i, c) for i, (_, c) in enumerate(entries[:n_marks]) if not c.is_zero())
        marked_degree = sum((coeff for _, coeff in marked_part), GR_ZERO)
        integral_part = _integral_part((point, weight._a) for point, weight in entries[n_marks:])
        total = marked_degree + sum(weight for _, weight in integral_part)
        if not total.is_integer():
            raise DegreeIntegralityError()
        _fill_divisor(self, mc, marked_part, integral_part, marked_degree, total._a)

    # --- queries ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree; exactly an integer by the divisor invariant."""
        return self._degree

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
        return self._marked_degree

    def support_items(self) -> list[tuple[CurvePoint, complex]]:
        """Support with coefficients as complex floats, marks first in mark order."""
        if self._support is None:
            # converted on first use, not at construction: intermediate sums never
            # need floats, and a coefficient beyond the float range then fails
            # only in the float readers
            support = [(self.mc.marks[i], coeff.to_complex()) for i, coeff in self.marked]
            support.extend((point, complex(w)) for point, w in self.integral)
            object.__setattr__(self, "_support", tuple(support))
        return list(self._support)

    def support_points(self) -> list[CurvePoint]:
        return [self.mc.marks[i] for i, _ in self.marked] + [p for p, _ in self.integral]

    def has_integer_coefficients(self) -> bool:
        return all(coeff.is_integer() for _, coeff in self.marked)

    # --- arithmetic ------------------------------------------------------
    # Operands are canonical, so these combine their parts directly: points
    # are already reduced and off the marks, and no two points of one
    # operand coincide.

    def _require_same_context(self, other: "ComplexDivisor") -> None:
        if self.mc is other.mc:
            return
        if not self.mc.compatible_with(other.mc):
            raise ContextMismatchError()

    def __add__(self, other: "ComplexDivisor") -> "ComplexDivisor":
        self._require_same_context(other)
        coeffs = dict(self.marked)
        for index, coeff in other.marked:
            coeffs[index] = coeffs[index] + coeff if index in coeffs else coeff
        pairs = list(self.integral)
        for point, weight in other.integral:
            self.mc.curve.add_at(pairs, point, weight)
        return _canonical(
            self.mc,
            _nonzero_sorted(coeffs),
            _integral_part(pairs),
            self._marked_degree + other._marked_degree,
            self._degree + other._degree,
        )

    def __neg__(self) -> "ComplexDivisor":
        return _canonical(
            self.mc,
            tuple((i, -c) for i, c in self.marked),
            tuple((p, -w) for p, w in self.integral),
            -self._marked_degree,
            -self._degree,
        )

    def __sub__(self, other: "ComplexDivisor") -> "ComplexDivisor":
        return self + (-other)

    def scale(self, alpha) -> "ComplexDivisor":
        """Multiply every coefficient by alpha.

        Non-integer alpha requires the support to lie in the marked set, and
        the scaled degree must remain exactly integral.
        """
        alpha = GaussianRational.coerce(alpha)
        if self.integral and not alpha.is_integer():
            raise NonIntegralCoefficientError()
        marked_degree = alpha * self._marked_degree
        if self.integral:
            factor = alpha._a
            integral = _integral_part((p, factor * w) for p, w in self.integral)
            total = marked_degree + factor * sum(w for _, w in self.integral)
        else:
            integral, total = (), marked_degree
        if not total.is_integer():
            raise DegreeIntegralityError()
        marked = () if alpha.is_zero() else tuple((i, alpha * c) for i, c in self.marked)
        return _canonical(self.mc, marked, integral, marked_degree, total._a)

    def __eq__(self, other):
        """Equality in the divisor group: on compatible contexts, the difference is empty."""
        if not isinstance(other, ComplexDivisor):
            return NotImplemented
        return self.mc.compatible_with(other.mc) and (self - other).is_empty()

    def __hash__(self):
        # independent of the order of the points, which can differ between equal divisors
        return hash((self.marked, tuple(sorted(w for _, w in self.integral))))

    def __repr__(self):
        terms = [f"({coeff})@Q{i + 1}" for i, coeff in self.marked]
        terms += [
            f"({w})@{'inf' if p.at_infinity else p.z}" for p, w in self.integral
        ]
        return "ComplexDivisor(" + (" + ".join(terms) if terms else "0") + ")"


def _nonzero_sorted(coeffs: dict[int, GaussianRational]) -> tuple:
    """The marked part: nonzero coefficients in mark order."""
    return tuple((i, c) for i, c in sorted(coeffs.items()) if not c.is_zero())


def _integral_part(pairs) -> tuple:
    """The integral part: nonzero weights ordered by point."""
    kept = [(point, weight) for point, weight in pairs if weight != 0]
    kept.sort(key=lambda item: item[0].sort_key())
    return tuple(kept)


def _fill_divisor(d: ComplexDivisor, mc, marked, integral, marked_degree, degree) -> None:
    set_slot = object.__setattr__
    set_slot(d, "mc", mc)
    set_slot(d, "marked", marked)
    set_slot(d, "integral", integral)
    set_slot(d, "_marked_degree", marked_degree)
    set_slot(d, "_degree", degree)
    set_slot(d, "_support", None)


def _canonical(mc, marked, integral, marked_degree, degree) -> ComplexDivisor:
    """A divisor from parts already in canonical form, with their degrees."""
    d = object.__new__(ComplexDivisor)
    _fill_divisor(d, mc, marked, integral, marked_degree, degree)
    return d


@dataclass(frozen=True, slots=True, eq=False)
class ClassDescriptor:
    """Divisor-class invariant: degree, plus the reduced Jacobian point on the torus.

    Two descriptors match exactly when the divisors differ by a principal
    divisor (degree alone on the sphere; degree and Abel-Jacobi point mod
    the lattice on the torus).
    """

    degree: int
    jacobian: complex | None = None
    torus: Torus | None = None

    def matches(self, other: "ClassDescriptor") -> bool:
        if self.degree != other.degree:
            return False
        if self.jacobian is None or other.jacobian is None:
            return self.jacobian is None and other.jacobian is None
        return self.torus.lattice_defect(self.jacobian - other.jacobian) < JACOBI_LATTICE_TOL

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
