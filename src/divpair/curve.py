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
    DegreeZeroRequiredError,
    DiagonalSingularityError,
    DomainError,
    TrivialJacobianError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .divisor import ComplexDivisor

SPHERE_POINT_TOL = 1e-12
TORUS_POINT_TOL = 1e-9

# theta products and series stop at the first n with |Q|^n * bound < 1e-17
_LOG_THETA_CUTOFF = math.log(1e-17)

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
        """The bare kernel formula; callers exclude coincident and infinite pairs."""
        raise NotImplementedError


@dataclass(frozen=True)
class Sphere(CurveModel):
    """The Riemann sphere; genus 0, no parameters."""

    genus: int = field(default=0, init=False)
    point_tol = SPHERE_POINT_TOL

    def points_equal(self, p, q) -> bool:
        return self.point_distance(p, q) < self.point_tol

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
        return math.log(abs(as_point(p).z - as_point(q).z))


@dataclass(frozen=True)
class Torus(CurveModel):
    """The complex torus C/(Z + tau*Z), tau in the upper half-plane."""

    tau: complex = 1j
    genus: int = field(default=1, init=False)
    point_tol = TORUS_POINT_TOL

    def __post_init__(self):
        object.__setattr__(self, "tau", _require_upper_half(self.tau))

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

    def lattice_defect(self, z: complex) -> float:
        """Distance from z to the nearest lattice point, a corner of z's cell for reduced tau."""
        z, tau, scale = complex(z), self.tau, 1.0
        if abs(tau.real) > 0.5 or tau.real * tau.real + tau.imag * tau.imag < 1.0:
            z, tau, _, scale, _ = _reduce_modulus(z, tau)
        b = z.imag / tau.imag
        corner = z - math.floor(z.real - b * tau.real) - math.floor(b) * tau
        nearest = min(abs(corner), abs(corner - 1), abs(corner - tau), abs(corner - 1 - tau))
        return nearest / abs(scale)

    def points_equal(self, p, q) -> bool:
        return self.point_distance(p, q) < self.point_tol

    def point_distance(self, p, q) -> float:
        return self.lattice_defect(as_point(p).z - as_point(q).z)

    def kernel(self, p, q) -> float:
        w = as_point(p).z - as_point(q).z
        log_scale, value = _theta1_parts(w, self.tau)
        return log_scale.real + math.log(abs(value)) - math.pi * w.imag * w.imag / self.tau.imag


def _require_upper_half(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0:
        raise DomainError("tau must have positive imaginary part")
    return tau


def _reduce_modulus(z: complex, tau: complex) -> tuple[complex, complex, complex, complex, complex]:
    """Move tau into the fundamental domain |Re tau| <= 1/2, |tau| >= 1, carrying z.

    Returns (z', tau', L, a, b) with z' = a*z, Z + tau*Z = (Z + tau'*Z) / a,
    theta1(z | tau) = exp(L) theta1(z' | tau') and
    (theta1'/theta1)(z | tau) = a (theta1'/theta1)(z' | tau') + b, by T steps
    theta1(z | tau) = exp(i*pi*k/4) theta1(z | tau - k) and S steps
    theta1(z | tau) = i (-i*tau)^(-1/2) exp(-i*pi*z^2/tau) theta1(z/tau | -1/tau).
    An S step raises Im tau by 1/|tau|^2 > 1; the 1e-12 slack stops rounding cycles.
    """
    log_scale, scale, offset = 0j, 1.0, 0j
    while True:
        k = round(tau.real)
        tau -= k
        log_scale += 0.25j * math.pi * k
        norm = tau.real * tau.real + tau.imag * tau.imag
        if norm >= 1.0 - 1e-12:
            return z, tau, log_scale, scale, offset
        log_scale += 0.5j * math.pi - 0.5 * cmath.log(-1j * tau) - 1j * math.pi * z * z / tau
        offset -= 2j * math.pi * scale * z / tau
        scale /= tau
        z /= tau
        tau = complex(-tau.real / norm, tau.imag / norm)


def _theta1_parts(z: complex, tau: complex) -> tuple[complex, complex]:
    """Split theta1(z | tau) = exp(L) * P, every large multiplier in L.

    After tau is reduced (``_reduce_modulus``), z is centred by theta1(z + 1) = -theta1(z),
    theta1(z + tau) = -exp(-i*pi*tau - 2*pi*i*z) theta1(z) and turned into Im z >= 0 by
    oddness.  Then, with Q = exp(2*pi*i*tau), x = exp(2*pi*i*z), y = exp(2*pi*i*(tau - z)),
        theta1(z) = i exp(i*pi*tau/4 - i*pi*z) (1 - x)
                    prod_{n>=1} (1 - Q^n)(1 - Q^n x)(1 - Q^(n-1) y),
    taking the n factors solved from |Q|^n (1 + |x| + 1/|x|) < 1e-17.
    """
    log_scale = 0j
    if abs(tau.real) > 0.5 or tau.real * tau.real + tau.imag * tau.imag < 1.0:
        z, tau, log_scale, _, _ = _reduce_modulus(z, tau)
    n = round(z.imag / tau.imag)
    z -= n * tau
    m = round(z.real)
    z -= m
    if n:
        log_scale -= 1j * math.pi * n * (n * tau + 2.0 * z)
    turns = m + n  # factors of -1
    if z.imag < 0:
        z, turns = -z, turns + 1
    log_scale += 1j * math.pi * (turns + 0.5 + 0.25 * tau - z)
    nome = cmath.exp(2j * math.pi * tau)
    x = cmath.exp(2j * math.pi * z)
    qy = cmath.exp(2j * math.pi * (tau - z))
    log_bound = math.log(1.0 + abs(x) + abs(x * x)) + 2.0 * math.pi * z.imag
    value, qn = 1.0 - x, nome
    for _ in range(int((log_bound - _LOG_THETA_CUTOFF) / (2.0 * math.pi * tau.imag)) + 1):
        value *= (1.0 - qn) * (1.0 - qn * x) * (1.0 - qy)
        qn *= nome
        qy *= nome
    return log_scale, value


def theta1(z: complex, tau: complex) -> complex:
    """First Jacobi theta function theta1(z | tau), for any tau with Im tau > 0.

    theta1(z) = 2 sum_{k>=0} (-1)^k exp(i*pi*tau*(k + 1/2)^2) sin((2k + 1) pi z), evaluated
    as a triple product of at most nine factors after SL2(Z) reduction (``_theta1_parts``).
    """
    log_scale, value = _theta1_parts(complex(z), _require_upper_half(tau))
    return cmath.exp(log_scale) * value


def theta1_log_derivative(z: complex, tau: complex) -> complex:
    """theta1'(z|tau) / theta1(z|tau), for any tau with Im tau > 0.

    tau and z are reduced as in ``_theta1_parts``, with
    (theta1'/theta1)(z + tau) = (theta1'/theta1)(z) - 2*pi*i; then, with its Q, x, y,
        -i*pi (1 + x)/(1 - x) + 2*pi*i sum_{n>=1} [Q^(n-1) y/(1 - Q^(n-1) y) - Q^n x/(1 - Q^n x)]
    over the n terms solved from |Q|^n (|x| + 1/|x|) < 1e-17.
    """
    tau = _require_upper_half(tau)
    z, scale, offset = complex(z), 1.0, 0j
    if abs(tau.real) > 0.5 or tau.real * tau.real + tau.imag * tau.imag < 1.0:
        z, tau, _, scale, offset = _reduce_modulus(z, tau)
    k = round(z.imag / tau.imag)
    z -= k * tau
    z -= round(z.real)
    if k:
        offset -= 2j * math.pi * k * scale
    if z.imag < 0:
        z, scale = -z, -scale
    nome = cmath.exp(2j * math.pi * tau)
    x = cmath.exp(2j * math.pi * z)
    qy = cmath.exp(2j * math.pi * (tau - z))
    log_bound = math.log(1.0 + abs(x * x)) + 2.0 * math.pi * z.imag
    total, qx = -1j * math.pi * (1.0 + x) / (1.0 - x), nome * x
    for _ in range(int((log_bound - _LOG_THETA_CUTOFF) / (2.0 * math.pi * tau.imag)) + 1):
        total += 2j * math.pi * (qy / (1.0 - qy) - qx / (1.0 - qx))
        qx *= nome
        qy *= nome
    return scale * total + offset


def green_kernel(curve: CurveModel, p, q) -> float:
    """Symmetric real Green kernel g(p, q) of the curve.

    The coincidence test for single pairs (``curve.kernel`` is the bare
    formula): DiagonalSingularityError below the curve's point tolerance,
    lattice equivalence included; DomainError at the sphere's infinity.
    """
    p, q = as_point(p), as_point(q)
    distance = curve.point_distance(p, q)
    if distance < curve.point_tol:
        raise DiagonalSingularityError()
    if distance == math.inf:
        raise DomainError("kernel undefined at infinity; only degree-zero divisor sums drop it")
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
