"""Explicit curve geometries and their symmetric Green kernels.

Two geometries are supported: the Riemann sphere (affine chart plus one
point at infinity) and the complex torus C/(Z + tau*Z) with Im(tau) > 0.
Both supply the real symmetric kernel g(P, Q) with a logarithmic
singularity on the diagonal:

    sphere:  g(P, Q) = log|P - Q|
    torus:   g(P, Q) = log|theta1(P - Q | tau)| - pi * Im(P - Q)^2 / Im(tau)

The torus kernel is doubly periodic (the quadratic counterterm exactly
compensates the quasi-periodicity of theta1), and the additive-constant
ambiguity of either kernel drops out of every degree-zero divisor sum.

A point at infinity on the sphere is permitted only inside degree-zero
divisors; kernel terms at infinity are dropped from divisor sums rather
than assigned an arbitrary chart normalization, so no kernel value at
infinity is ever defined here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConvergenceError,
    DegreeZeroRequiredError,
    DiagonalSingularityError,
    DomainError,
    TrivialJacobianError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .divisor import ComplexDivisor

SPHERE_POINT_TOL = 1e-12
TORUS_POINT_TOL = 1e-9

_THETA_CUTOFF = 1e-17
_THETA_MAX_FACTORS = 40000

__all__ = [
    "CurvePoint",
    "CurveModel",
    "Sphere",
    "Torus",
    "theta1",
    "theta1_log_derivative",
    "green_kernel",
    "kernel_matrix",
    "green_divisor",
    "abel_jacobi_sum",
]


@dataclass(frozen=True)
class CurvePoint:
    """A point on a curve: an affine coordinate, or the sphere's infinity.

    Structural equality only; geometric equality (lattice equivalence on
    the torus, coordinate tolerance on the sphere) goes through
    ``CurveModel.points_equal``.
    """

    z: complex = 0j
    at_infinity: bool = False

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        if self.at_infinity:
            object.__setattr__(self, "z", 0j)

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(0j, True)

    def sort_key(self):
        return (self.at_infinity, self.z.real, self.z.imag)

    def __repr__(self):
        if self.at_infinity:
            return "CurvePoint(inf)"
        return f"CurvePoint({self.z!r})"


def as_point(value) -> CurvePoint:
    """Coerce a complex number (or CurvePoint) to a CurvePoint."""
    if isinstance(value, CurvePoint):
        return value
    return CurvePoint(complex(value))


class CurveModel:
    """Common surface of the two concrete geometries."""

    genus: int
    point_tol: float  # points closer than this (``point_distance``) coincide

    def points_equal(self, p, q) -> bool:
        raise NotImplementedError

    def point_distance(self, p, q) -> float:
        raise NotImplementedError

    def reduce_point(self, p) -> CurvePoint:
        raise NotImplementedError

    def kernel(self, p, q) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Sphere(CurveModel):
    """The Riemann sphere; genus 0, no parameters."""

    genus: int = field(default=0, init=False)
    point_tol = SPHERE_POINT_TOL

    def points_equal(self, p, q) -> bool:
        p, q = as_point(p), as_point(q)
        if p.at_infinity or q.at_infinity:
            return p.at_infinity and q.at_infinity
        return abs(p.z - q.z) < SPHERE_POINT_TOL

    def point_distance(self, p, q) -> float:
        p, q = as_point(p), as_point(q)
        if p.at_infinity and q.at_infinity:
            return 0.0
        if p.at_infinity or q.at_infinity:
            return math.inf
        return abs(p.z - q.z)

    def reduce_point(self, p) -> CurvePoint:
        return as_point(p)

    def kernel(self, p, q) -> float:
        p, q = as_point(p), as_point(q)
        if self.points_equal(p, q):
            raise DiagonalSingularityError()
        if p.at_infinity or q.at_infinity:
            raise DomainError(
                "kernel undefined at infinity; infinity is only supported "
                "inside degree-zero divisor sums"
            )
        return math.log(abs(p.z - q.z))


@dataclass(frozen=True)
class Torus(CurveModel):
    """The complex torus C/(Z + tau*Z), tau in the upper half-plane."""

    tau: complex = 1j
    genus: int = field(default=1, init=False)
    point_tol = TORUS_POINT_TOL

    def __post_init__(self):
        object.__setattr__(self, "tau", complex(self.tau))
        if not self.tau.imag > 0:
            raise DomainError("tau must have positive imaginary part")

    def lattice_coords(self, z: complex) -> tuple[float, float]:
        """Real coordinates (a, b) with z = a + b*tau."""
        z = complex(z)
        b = z.imag / self.tau.imag
        a = z.real - b * self.tau.real
        return a, b

    def from_lattice_coords(self, a: float, b: float) -> complex:
        return complex(a, 0.0) + b * self.tau

    def reduce_point(self, p) -> CurvePoint:
        """Representative in the fundamental cell {a + b*tau : a, b in [0,1)}."""
        p = as_point(p)
        if p.at_infinity:
            raise DomainError("the torus has no point at infinity")
        a, b = self.lattice_coords(p.z)
        return CurvePoint(p.z - math.floor(a) - math.floor(b) * self.tau)

    def reduce_centered(self, z: complex) -> complex:
        """Representative with lattice coordinates in [-1/2, 1/2)."""
        a, b = self.lattice_coords(z)
        return complex(z) - round(a) - round(b) * self.tau

    def lattice_defect(self, z: complex) -> float:
        """Euclidean distance from z to the nearest lattice point."""
        a, b = self.lattice_coords(z)
        best = math.inf
        for m in (math.floor(a), math.floor(a) + 1):
            for n in (math.floor(b), math.floor(b) + 1):
                best = min(best, abs(z - m - n * self.tau))
        return best

    def points_equal(self, p, q) -> bool:
        p, q = as_point(p), as_point(q)
        return self.lattice_defect(p.z - q.z) < TORUS_POINT_TOL

    def point_distance(self, p, q) -> float:
        p, q = as_point(p), as_point(q)
        return self.lattice_defect(p.z - q.z)

    def kernel(self, p, q) -> float:
        p, q = as_point(p), as_point(q)
        if self.points_equal(p, q):
            raise DiagonalSingularityError()
        w = self.reduce_centered(p.z - q.z)
        return (
            math.log(abs(theta1(w, self.tau)))
            - math.pi * w.imag * w.imag / self.tau.imag
        )


def _require_upper_half(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0:
        raise DomainError("tau must have positive imaginary part")
    return tau


def _theta_reduce(z: complex, tau: complex) -> tuple[complex, int, int]:
    """Split z = z0 + m + n*tau with Im z0 in [0, Im tau), Re z0 in [-1/2, 1/2]."""
    n = math.floor(z.imag / tau.imag)
    z0 = z - n * tau
    m = round(z0.real)
    return z0 - m, m, n


def theta1(z: complex, tau: complex) -> complex:
    """First Jacobi theta function theta1(z | tau).

    Triple-product evaluation with nome Q = exp(2*pi*i*tau):

        theta1(z) = 2 exp(i*pi*tau/4) sin(pi z)
                    prod_{n>=1} (1 - Q^n)(1 - Q^n e^{2 pi i z})(1 - Q^n e^{-2 pi i z})

    The argument is reduced by the quasi-periodicity relations
    theta1(z+1) = -theta1(z) and
    theta1(z+tau) = -exp(-i*pi*tau - 2*pi*i*z) * theta1(z)
    before the product is summed; factors stop once they differ from 1 by
    less than 1e-17 relative to the running product.
    """
    tau = _require_upper_half(tau)
    z = complex(z)
    z0, m, n = _theta_reduce(z, tau)
    # theta1(z0 + m + n*tau) = (-1)^(m+n) exp(-i*pi*tau*n^2 - 2*pi*i*n*z0) theta1(z0)
    sign = -1.0 if (m + n) % 2 else 1.0
    if n == 0:
        prefactor = complex(sign)
    else:
        prefactor = sign * cmath.exp(
            -1j * math.pi * tau * n * n - 2j * math.pi * n * z0
        )

    nome = cmath.exp(2j * math.pi * tau)
    up = cmath.exp(2j * math.pi * z0)
    um = cmath.exp(-2j * math.pi * z0)
    value = 2.0 * cmath.exp(0.25j * math.pi * tau) * cmath.sin(math.pi * z0)
    bound = 1.0 + abs(up) + abs(um)
    qn = 1.0 + 0j
    for _ in range(_THETA_MAX_FACTORS):
        qn *= nome
        value *= (1.0 - qn) * (1.0 - qn * up) * (1.0 - qn * um)
        if abs(qn) * bound < _THETA_CUTOFF:
            return prefactor * value
    raise ConvergenceError("theta1 product did not converge; tau too close to the real axis")


def theta1_log_derivative(z: complex, tau: complex) -> complex:
    """theta1'(z|tau) / theta1(z|tau).

    Uses the expansion
        pi*cot(pi z) + 2*pi*i * sum_{n>=1} [ Q^n u^- / (1 - Q^n u^-)
                                           - Q^n u^+ / (1 - Q^n u^+) ],
    u^{\\pm} = exp(+-2*pi*i*z), Q = exp(2*pi*i*tau), after shifting Im z
    into [-Im tau / 2, Im tau / 2) via the relation
    (theta1'/theta1)(z + tau) = (theta1'/theta1)(z) - 2*pi*i.
    """
    tau = _require_upper_half(tau)
    z = complex(z)
    k = round(z.imag / tau.imag)
    w = z - k * tau
    w -= round(w.real)  # the log-derivative is 1-periodic

    nome = cmath.exp(2j * math.pi * tau)
    up = cmath.exp(2j * math.pi * w)
    um = cmath.exp(-2j * math.pi * w)
    total = math.pi * cmath.cos(math.pi * w) / cmath.sin(math.pi * w)
    bound = abs(up) + abs(um)
    qn = 1.0 + 0j
    for _ in range(_THETA_MAX_FACTORS):
        qn *= nome
        tp = qn * up
        tm = qn * um
        total += 2j * math.pi * (tm / (1.0 - tm) - tp / (1.0 - tp))
        if abs(qn) * bound < _THETA_CUTOFF:
            return total - 2j * math.pi * k
    raise ConvergenceError("theta1 log-derivative series did not converge")


def green_kernel(curve: CurveModel, p, q) -> float:
    """Symmetric real Green kernel g(p, q) of the curve.

    Raises DiagonalSingularityError for coincident points (lattice
    equivalence counts as coincidence on the torus).
    """
    return curve.kernel(p, q)


def kernel_matrix(curve: CurveModel, left, right) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel g(P_i, Q_j) over every pair of two point sequences, in one pass.

    Returns ``(kernel, distance, defined)``, arrays of shape
    (len(left), len(right)): the kernel values, the curve distances
    ``point_distance(P_i, Q_j)``, and the mask of entries where the kernel
    is defined.  A pair that coincides (distance below the curve's point
    tolerance) or involves the sphere's point at infinity (infinite
    distance) is masked, never evaluated, and its kernel entry is 0.  When
    ``left is right`` only the upper triangle is evaluated and mirrored, so
    the matrix is exactly symmetric.
    """
    symmetric = left is right
    left = [as_point(p) for p in left]
    right = left if symmetric else [as_point(q) for q in right]
    shape = (len(left), len(right))
    kernel = np.zeros(shape)
    distance = np.zeros(shape)
    defined = np.zeros(shape, dtype=bool)
    for i, p in enumerate(left):
        for j in range(i + 1 if symmetric else 0, len(right)):
            q = right[j]
            d = distance[i, j] = curve.point_distance(p, q)
            if curve.point_tol <= d < math.inf:
                kernel[i, j] = curve.kernel(p, q)
                defined[i, j] = True
    if symmetric:
        return kernel + kernel.T, distance + distance.T, defined | defined.T
    return kernel, distance, defined


def green_divisor(curve: CurveModel, d: "ComplexDivisor", z) -> complex:
    """Coefficient-weighted kernel sum sum_j n_j * g(z, P_j) of a degree-0 divisor.

    Complex-linear in the divisor coefficients, hence complex-valued for
    complex coefficients and real for real ones.  On the sphere, terms at
    infinity are dropped: the affine evaluation is the documented meaning
    of the sum for divisors containing the point at infinity.
    """
    if d.degree() != 0:
        raise DegreeZeroRequiredError()
    zp = as_point(z)
    if zp.at_infinity:
        raise DomainError(
            "kernel undefined at infinity; evaluate at an affine point"
        )
    items = d.support_items()
    kernel, distance, _ = kernel_matrix(curve, [zp], [point for point, _ in items])
    if (distance < curve.point_tol).any():
        raise DiagonalSingularityError()
    return complex(kernel[0] @ np.array([coeff for _, coeff in items], dtype=complex))


def abel_jacobi_sum(curve: CurveModel, d: "ComplexDivisor") -> complex:
    """Coefficient-weighted coordinate sum sum_P n_P * P on the torus.

    Uses the stored (fundamental-cell) representatives of the divisor's
    support; reduce the result mod the lattice with
    ``Torus.reduce_point`` / ``Torus.lattice_defect`` as needed.
    """
    if not isinstance(curve, Torus):
        raise TrivialJacobianError()
    total = 0j
    for point, coeff in d.support_items():
        total += coeff * point.z
    return total
