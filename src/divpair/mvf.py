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
from typing import NamedTuple

import numpy as np

from .curve import (
    CurvePoint,
    Sphere,
    Torus,
    abel_jacobi_sum,
    as_point,
)
from .divisor import JACOBI_LATTICE_TOL, ComplexDivisor, GaussianRational, MarkedCurve
from .errors import DomainError

MAX_SERIES_TERMS = 32
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


@dataclass(frozen=True, slots=True)
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
    a, shift = _split_order(complex(a_raw))
    return LocalExpansion(a, n0_raw + shift, tuple(coeffs))


def _split_order(total: complex) -> tuple[complex, int]:
    """(A, n) with A + n = total and 0 <= Re A < 1: n = floor(Re total), A = total - n.

    total - n is exact except for -1 < Re total < 0, where total + 1 rounds to 1.0
    once Re total >= -2**-54; there the tiny real part is dropped: A = i Im total, n = 0.
    """
    n = math.floor(total.real)
    a = total - n
    if a.real >= 1.0:
        return complex(0.0, total.imag), 0
    return a, n


def order(e: LocalExpansion) -> complex:
    """Total order A + n0 of the local model."""
    return e.branch_exponent + e.leading_index


def expansion_multiply(a: LocalExpansion, b: LocalExpansion) -> LocalExpansion:
    """Product of local models: orders add, series convolve.

    The product exponent is derived from order(a) + order(b) so the order
    is additive in the same floating arithmetic the tests use; the series
    is the Cauchy product capped at MAX_SERIES_TERMS coefficients.
    """
    exponent, n0 = _split_order(order(a) + order(b))

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
    re_num, im_num, den = d.marked_coefficient(index).triple
    frac_num = re_num % den  # Re n - floor(Re n) = frac_num / den
    if frac_num == 0 and im_num == 0:
        return 1.0 + 0j
    return cmath.exp(complex(-2.0 * math.pi * (im_num / den), 2.0 * math.pi * (frac_num / den)))


@dataclass(frozen=True, slots=True)
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
    product = math.prod(values, start=1.0 + 0j)
    re_num, im_num, den = d.marked_degree().triple
    expected = cmath.exp(complex(-2.0 * math.pi * (im_num / den), 2.0 * math.pi * (re_num / den)))
    return GlueingData(
        multiplicators=values,
        inner_chart="neighborhood of the marked disk",
        outer_chart="complement of the marked disk",
        inner_divisor_part=d.marked,
        outer_divisor_part=d.integral,
        multiplicator_product=product,
        product_expected=expected,
    )


@dataclass(frozen=True, slots=True)
class PrincipalityCertificate:
    """Decision plus numerical evidence for principality of a divisor.

    On the torus the certificate carries the corrected cycle periods of
    the associated third-kind differential; both lie in 2*pi*i*Z (within
    PERIOD_TOL) exactly for principal divisors, with the integrand nodes spent
    on both cycles and the larger trapezoid error estimate |T_N - T_{N/2}|, a
    bound once T_{N/2} has converged, as at the default N (``_trapezoid``).
    """

    principal: bool
    degree: int
    jacobi_defect: float | None = None
    a_period: complex | None = None
    b_period: complex | None = None
    correction: complex | None = None
    period_defect: float | None = None
    periods_integral: bool | None = None
    quadrature_nodes: int | None = None
    quadrature_error: float | None = None

    def __bool__(self) -> bool:
        return self.principal


# a quadrature panel spans at most this many distances to the nearest pole
_PANEL_RATIO = 4.0
_MAX_PANELS = 4096
_STEPS_PER_PANEL = 32


def _trapezoid(f, start: complex, direction: complex, steps: int) -> tuple[complex, float]:
    """Integral of f along start + t*direction, t in [0, 1], and the estimate |T_steps - T_steps/2|.

    Trapezoid rule on `steps` (even) equal steps, f called once on all steps + 1 nodes; T_steps/2
    uses every other node.  Along a cycle the integrand repeats up to a constant jump, which the
    half-weight endpoints integrate exactly, so the rule converges geometrically.  The estimate bounds
    the error only once T_steps/2 has converged (at clearance 0.005 and 32 steps it reads 1.6 against
    an a-period error of 3.2); the certificate's 32 steps per panel lie far into convergence.
    """
    values = f(start + np.linspace(0.0, 1.0, steps + 1) * direction)
    ends = 0.5 * (values[0] + values[-1])
    fine = (values.sum() - ends) * (direction / steps)
    coarse = (values[::2].sum() - ends) * (2.0 * direction / steps)
    return complex(fine), abs(complex(fine - coarse))


def _panel_count(length_over_distance: float) -> int:
    """Quadrature panels along one contour: enough that no panel spans more than _PANEL_RATIO
    distances to the nearest pole, the periodic trapezoid rule's convergence condition
    (Trefethen & Weideman, SIAM Rev. 56 (2014)), with at least 24 and at most _MAX_PANELS.
    The trapezoid rule takes _STEPS_PER_PANEL steps per panel."""
    return min(max(24, math.ceil(length_over_distance / _PANEL_RATIO)), _MAX_PANELS)


def _boundary_offset(values: list[float]) -> tuple[float, float]:
    """(offset, clearance): the midpoint of the seam gap (max(values), min(values) + 1), which
    may exceed 1, and its circular distance (min + 1 - max)/2 to the values.

    Any offset in that open interval leaves every value in a single unit strip below the
    contour, which is what keeps the branch windings of the period integrals
    coefficient-independent; the midpoint maximizes the quadrature clearance.  The values
    are the stored lattice coordinates, in [0, 1) up to rounding: a point a rounding below
    0 stays there, so the gap is not closed by wrapping it to 1.  Only values spanning a
    full period or more (two points on opposite copies of one cell edge) are taken mod 1.
    """
    if max(values) - min(values) >= 1.0:
        values = [value % 1.0 for value in values]
    high = max(values)
    offset = (high + min(values) + 1.0) / 2.0
    return offset, offset - high


class _CyclePeriods(NamedTuple):
    a: complex
    b: complex
    clearance: float
    nodes: int  # integrand nodes over both contours
    a_error: float  # |T_N - T_{N/2}| on each contour
    b_error: float


def _cycle_periods(torus: Torus, items: list[tuple[CurvePoint, complex]]) -> _CyclePeriods:
    """Raw periods of sum_P n_P (theta1'/theta1)(z - P) dz along both cycles.

    Each contour runs through the seam gap of the support's stored lattice coordinates
    (``_boundary_offset``), so all support points sit in a single period strip of each
    contour.  The integrand is ``Torus._log_derivative_sum``, in the torus's own
    coordinates, and each contour is integrated by the trapezoid rule on
    _STEPS_PER_PANEL * _panel_count steps, which integrates the linear term of the
    log-derivative exactly.
    """
    tau = torus.tau
    coords = [torus.lattice_coords(point.z) for point, _ in items]
    a0, gap_a = _boundary_offset([a for a, _ in coords])
    b0, gap_b = _boundary_offset([b for _, b in coords])

    def integrand(nodes: np.ndarray) -> np.ndarray:
        return torus._log_derivative_sum(nodes, items)

    def period(start: complex, direction: complex, length_over_distance: float) -> tuple[complex, float, int]:
        n = _STEPS_PER_PANEL * _panel_count(length_over_distance)
        value, error = _trapezoid(integrand, start, direction, n)
        return value, error, n + 1

    # the a-contour (length 1) passes the poles at gap_b * Im tau, the b-contour
    # (length |tau|) at gap_a * Im tau / |tau|
    a_period, a_error, a_nodes = period(torus.from_lattice_coords(0.0, b0), 1.0 + 0j, 1.0 / (gap_b * tau.imag))
    b_period, b_error, b_nodes = period(torus.from_lattice_coords(a0, 0.0), tau, abs(tau) ** 2 / (gap_a * tau.imag))
    return _CyclePeriods(a_period, b_period, min(gap_a, gap_b), a_nodes + b_nodes, a_error, b_error)


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
            quadrature_nodes=0,
            quadrature_error=0.0,
        )
    periods = _cycle_periods(torus, items)
    a_raw, b_raw = periods.a, periods.b
    two_pi_i = 2j * math.pi
    nu = (b_raw - a_raw * torus.tau) / two_pi_i
    nu_b = nu.imag / torus.tau.imag
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
        quadrature_nodes=periods.nodes,
        quadrature_error=max(periods.a_error, periods.b_error),
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
    total = sum(exps, GaussianRational(0))
    out = list(zip(pts, exps))
    out.append((CurvePoint.infinity(), -total))
    return out
