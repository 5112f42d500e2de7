"""Local models and monodromy data of multiple-valued meromorphic functions.

A function is represented only through the data every implemented formula
consumes: the local model z^A * sum_{j>=n0} c_j z^j at a singular point
(with the branch exponent normalized to 0 <= Re A < 1), the per-mark loop
multiplicators exp(2*pi*i*n), and the divisor it cuts out.  Principality
on the torus is decided by the degree and Abel-Jacobi conditions and
cross-checked by a numerical monodromy certificate: contour integration
of the third-kind differential sum_P n_P * (theta1'/theta1)(z - P) dz
around both cycles, with a holomorphic correction c*dz chosen to land the
first period in 2*pi*i*Z; the divisor is principal exactly when the
second corrected period lies in 2*pi*i*Z as well.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve import (
    CurvePoint,
    Sphere,
    Torus,
    abel_jacobi_sum,
    as_point,
    theta1_log_derivative,
)
from .divisor import ComplexDivisor, GaussianRational, MarkedCurve
from .errors import DomainError

MAX_SERIES_TERMS = 32
JACOBI_LATTICE_TOL = 1e-8
PERIOD_TOL = 1e-6

__all__ = [
    "LocalExpansion",
    "GlueingData",
    "PrincipalityCertificate",
    "normalize_expansion",
    "order",
    "expansion_multiply",
    "multiplicator",
    "glueing_data",
    "is_principal",
    "power_product_orders",
]


@dataclass(frozen=True)
class LocalExpansion:
    """Normalized local model z^A * sum_{j>=n0} coeffs[j-n0] * z^j.

    Invariants: 0 <= Re A < 1, coeffs nonempty, coeffs[0] != 0.
    """

    branch_exponent: complex
    leading_index: int
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "branch_exponent", complex(self.branch_exponent))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not self.coeffs:
            raise DomainError("expansion needs at least one coefficient")
        if self.coeffs[0] == 0:
            raise DomainError("leading expansion coefficient must be nonzero")
        if not 0 <= self.branch_exponent.real < 1:
            raise DomainError("branch exponent not normalized to 0 <= Re A < 1")


def normalize_expansion(a_raw, n0_raw: int, coeffs) -> LocalExpansion:
    """Shift the integer part of Re(A) into the series index.

    The total order A + n0 is preserved; leading zero coefficients are
    absorbed into the index as well.
    """
    coeffs = [complex(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        n0_raw += 1
    if not coeffs:
        raise DomainError("expansion has no nonzero coefficient")
    a_raw = complex(a_raw)
    shift = math.floor(a_raw.real)
    a = a_raw - shift
    if a.real >= 1.0:  # floor rounding at the upper edge
        shift += 1
        a = a_raw - shift
    return LocalExpansion(a, n0_raw + shift, tuple(coeffs))


def order(e: LocalExpansion) -> complex:
    """Total order A + n0 of the local model."""
    return e.branch_exponent + e.leading_index


def expansion_multiply(a: LocalExpansion, b: LocalExpansion) -> LocalExpansion:
    """Product of local models: exponents add with carry, series convolve.

    The product exponent is derived from order(a) + order(b) so the order
    is additive in the same floating arithmetic the tests use; the series
    is the Cauchy product capped at MAX_SERIES_TERMS coefficients.
    """
    order_sum = order(a) + order(b)
    carry = 1 if a.branch_exponent.real + b.branch_exponent.real >= 1.0 else 0
    n0 = a.leading_index + b.leading_index + carry
    exponent = order_sum - n0
    while exponent.real < 0.0:
        n0 -= 1
        exponent = order_sum - n0
    while exponent.real >= 1.0:
        n0 += 1
        exponent = order_sum - n0

    length = min(len(a.coeffs) + len(b.coeffs) - 1, MAX_SERIES_TERMS)
    product = [0j] * length
    for i, ca in enumerate(a.coeffs):
        if i >= length:
            break
        for j, cb in enumerate(b.coeffs):
            if i + j >= length:
                break
            product[i + j] += ca * cb
    return LocalExpansion(exponent, n0, tuple(product))


def multiplicator(mc: MarkedCurve, d: ComplexDivisor, index: int) -> complex:
    """Loop multiplicator exp(2*pi*i*n) for the divisor coefficient n at mark `index`.

    The real part of the coefficient is reduced mod 1 exactly before
    exponentiating, so integral coefficients give exactly 1.0.
    """
    coeff = d.marked_coefficient(index)
    frac = coeff.re - (coeff.re.numerator // coeff.re.denominator)
    if frac == 0 and coeff.im == 0:
        return 1.0 + 0j
    return cmath.exp(complex(-2.0 * math.pi * float(coeff.im), 2.0 * math.pi * float(frac)))


@dataclass(frozen=True)
class GlueingData:
    """Two-chart glueing data of the invertible module attached to a divisor.

    The cover is a neighborhood of the marked disk and its complement;
    the single-valued transition function is determined by the divisor
    split across the two charts, recorded here verbatim.  The product of
    all multiplicators equals exp(2*pi*i * marked degree); both sides are
    reported for audit.
    """

    multiplicators: tuple[complex, ...]
    inner_chart: str
    outer_chart: str
    inner_divisor_part: tuple
    outer_divisor_part: tuple
    multiplicator_product: complex
    product_expected: complex


def glueing_data(mc: MarkedCurve, d: ComplexDivisor) -> GlueingData:
    values = tuple(multiplicator(mc, d, i) for i in range(mc.n_marks))
    product = 1.0 + 0j
    for value in values:
        product *= value
    marked_degree = d.marked_degree()
    expected = cmath.exp(
        complex(-2.0 * math.pi * float(marked_degree.im), 2.0 * math.pi * float(marked_degree.re))
    )
    return GlueingData(
        multiplicators=values,
        inner_chart="neighborhood of the marked disk",
        outer_chart="complement of the marked disk",
        inner_divisor_part=d.marked,
        outer_divisor_part=d.integral,
        multiplicator_product=product,
        product_expected=expected,
    )


@dataclass(frozen=True)
class PrincipalityCertificate:
    """Decision plus numerical evidence for principality of a divisor.

    On the torus the certificate carries the corrected cycle periods of
    the associated third-kind differential; both lie in 2*pi*i*Z (within
    PERIOD_TOL) exactly for principal divisors.
    """

    principal: bool
    degree: int
    jacobi_defect: float | None = None
    a_period: complex | None = None
    b_period: complex | None = None
    correction: complex | None = None
    period_defect: float | None = None
    periods_integral: bool | None = None

    def __bool__(self) -> bool:
        return self.principal


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(order_: int) -> tuple[np.ndarray, np.ndarray]:
    if order_ not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order_)
        _GL_CACHE[order_] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[order_]


def _segment_integral(f, z_start: complex, direction: complex, panels: int, order_: int) -> complex:
    """Integral of f along the straight segment z_start + t*direction, t in [0,1]."""
    nodes, weights = _gauss_nodes(order_)
    total = 0j
    width = 1.0 / panels
    for p in range(panels):
        base = p * width
        for x, w in zip(nodes.tolist(), weights.tolist()):
            total += w * f(z_start + (base + width * x) * direction)
    return total * (width * direction)


def _boundary_offset(values: list[float]) -> float:
    """Midpoint of the seam gap (max(values), min(values) + 1); 0.5 if empty.

    Any offset in that open interval leaves every value in a single unit
    strip below the contour, which is what keeps the branch windings of
    the period integrals coefficient-independent.  The midpoint maximizes
    the quadrature clearance; it may exceed 1.
    """
    if not values:
        return 0.5
    return (max(values) + min(values) + 1.0) / 2.0


def _circular_gap(offset: float, values: list[float]) -> float:
    """Distance from offset to the set values + Z, values in [0, 1)."""
    best = 0.5
    for v in values:
        d = abs(offset - v) % 1.0
        best = min(best, d, 1.0 - d)
    return best


def _cycle_periods(torus: Torus, items: list[tuple[CurvePoint, complex]]) -> tuple[complex, complex, float]:
    """Raw periods of sum_P n_P (theta1'/theta1)(z - P) dz along both cycles.

    Each contour runs through the seam gap of the support coordinates
    (between the largest coordinate and the smallest plus one), so all
    support points sit in a single period strip of each contour; returns
    (a_period, b_period, clearance).  The integrand is evaluated on the
    torus's reduced modulus: with (theta1'/theta1)(w | tau) =
    s (theta1'/theta1)(s*w | tau') + beta*w, each segment is integrated in
    the coordinate s*z and the linear part is added in closed form.
    """
    tau = torus.tau
    coords = [torus.lattice_coords(point.z) for point, _ in items]
    a_vals = [a % 1.0 for a, _ in coords]
    b_vals = [b % 1.0 for _, b in coords]
    a0 = _boundary_offset(a_vals)
    b0 = _boundary_offset(b_vals)
    clearance = min(_circular_gap(a0, a_vals), _circular_gap(b0, b_vals))

    panels = 24
    if clearance < 0.05:
        panels = 48
    if clearance < 0.02:
        panels = 96
    scale, reduced, slope = torus._scale, torus._reduced_tau, torus._slope
    scaled = [(scale * point.z, coeff) for point, coeff in items]
    weight = sum(coeff for _, coeff in items)
    moment = sum(coeff * point.z for point, coeff in items)

    def integrand(z: complex) -> complex:
        total = 0j
        for point, coeff in scaled:
            total += coeff * theta1_log_derivative(z - point, reduced)
        return total

    def period(start: complex, direction: complex) -> complex:
        # sum_P n_P * beta * (integral of (z - P) dz along the segment)
        linear = slope * direction * (weight * (start + 0.5 * direction) - moment)
        return _segment_integral(integrand, scale * start, scale * direction, panels, 32) + linear

    a_period = period(torus.from_lattice_coords(0.0, b0), 1.0 + 0j)
    b_period = period(torus.from_lattice_coords(a0, 0.0), tau)
    return a_period, b_period, clearance


def monodromy_certificate(mc: MarkedCurve, d: ComplexDivisor) -> PrincipalityCertificate:
    """Numerical principality certificate on the torus.

    Integrates the third-kind differential of the divisor around both
    cycles, applies the holomorphic correction c*dz that puts the first
    period in 2*pi*i*Z, and tests whether the second corrected period is
    in 2*pi*i*Z as well.
    """
    torus = mc.curve
    if not isinstance(torus, Torus):
        raise DomainError("monodromy certificates require a torus")
    deg = d.degree()
    raw = abel_jacobi_sum(torus, d)
    jacobi_defect = torus.lattice_defect(raw)
    items = d.support_items()
    if not items:
        return PrincipalityCertificate(
            principal=deg == 0,
            degree=deg,
            jacobi_defect=jacobi_defect,
            a_period=0j,
            b_period=0j,
            correction=0j,
            period_defect=0.0,
            periods_integral=True,
        )
    a_raw, b_raw, _ = _cycle_periods(torus, items)
    two_pi_i = 2j * math.pi
    nu = (b_raw - a_raw * torus.tau) / two_pi_i
    nu_b = nu.imag / torus.tau.imag
    nu_a = nu.real - nu_b * torus.tau.real
    k = -round(nu_b)
    correction = two_pi_i * k - a_raw
    a_corr = two_pi_i * k
    b_corr = b_raw + correction * torus.tau
    b_defect = abs(b_corr - two_pi_i * round((b_corr / two_pi_i).real))
    periods_ok = b_defect < PERIOD_TOL
    return PrincipalityCertificate(
        principal=deg == 0 and jacobi_defect < JACOBI_LATTICE_TOL,
        degree=deg,
        jacobi_defect=jacobi_defect,
        a_period=a_corr,
        b_period=b_corr,
        correction=correction,
        period_defect=b_defect,
        periods_integral=periods_ok,
    )


def is_principal(mc: MarkedCurve, d: ComplexDivisor) -> PrincipalityCertificate:
    """Decide whether the divisor is the divisor of a global multiple-valued function.

    Sphere: degree zero suffices (the product of (z - P)^n factors is an
    explicit witness).  Torus: degree zero plus the Abel-Jacobi sum lying
    in the lattice (within JACOBI_LATTICE_TOL); the returned certificate
    additionally carries the contour-integration monodromy evidence.
    """
    if isinstance(mc.curve, Sphere):
        return PrincipalityCertificate(principal=d.degree() == 0, degree=d.degree())
    return monodromy_certificate(mc, d)


def power_product_orders(
    points: list, exponents: list[GaussianRational]
) -> list[tuple[CurvePoint, GaussianRational]]:
    """Orders of c * prod_j (z - P_j)^(e_j) at every point of the sphere.

    Exact in the coefficient arithmetic: each affine order is the given
    exponent and the order at infinity (from the chart w = 1/z) is the
    negated exponent sum, so the full list sums to zero exactly.
    """
    pts = [as_point(p) for p in points]
    if any(p.at_infinity for p in pts):
        raise DomainError("witness factors must be affine")
    exps = [GaussianRational.coerce(e) for e in exponents]
    if len(pts) != len(exps):
        raise DomainError("points and exponents must align")
    total = GaussianRational(0)
    for e in exps:
        total = total + e
    out = list(zip(pts, exps))
    out.append((CurvePoint.infinity(), -total))
    return out
