"""Randomized property suite behind the ``selftest`` command.

Every invariant of every module is checked on seeded random instances and
reported as one row of a residual table.  Instance generation is fully
deterministic in the seed, so identical invocations produce identical
reports.  Each pass threshold is a fixed constant, declared once with its
property, and every row states its residual beside that threshold.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .curve import (
    CurvePoint,
    Sphere,
    Torus,
    abel_jacobi_sum,
    green_divisor,
    green_kernel,
    theta1,
)
from .divisor import (
    ComplexDivisor,
    GaussianRational,
    MarkedCurve,
    _reduced,
    class_invariant,
)
from .errors import DomainError
from .mvf import (
    PERIOD_TOL,
    LocalExpansion,
    expansion_multiply,
    is_principal,
    multiplicator,
    normalize_expansion,
    order,
    power_product_orders,
)
from .pairing import (
    FORMULAS,
    RECIPROCITY_TOL,
    RationalFunctionData,
    check_weil_reciprocity,
    hermitian_form,
    pairing_norm,
    self_pairing_exponent,
)
from .strings import DIMENSION, MomentumConfig, momentum_divisor, string_pairing_factor

DEFAULT_SEED = int("D1V1", 36)  # the suite's documented default seed
DEFAULT_CASES = 500

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_CASES",
    "PropertyResult",
    "SelftestReport",
    "run_selftest",
]


@dataclass(frozen=True, slots=True)
class PropertyResult:
    name: str
    cases: int
    residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True, slots=True)
class SelftestReport:
    seed: int
    cases: int
    results: tuple[PropertyResult, ...]
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# --- deterministic instance generators ------------------------------------


class _Ctx:
    def __init__(self, seed: int, name: str, cases: int):
        self.rng = random.Random(f"{seed}:{name}")
        self.np_rng = np.random.default_rng(
            np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(name.encode())])
        )
        self.cases = cases
        self.case = 0  # index of the case being run, set by the property runner


def _random_tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(0.8, 1.6))


def _random_curve(rng: random.Random):
    return Torus(_random_tau(rng)) if rng.random() < 0.5 else Sphere()


def _apart(curve, points, others, gap: float) -> bool:
    """Whether every point of ``points`` is at least ``gap`` from every point of ``others``."""
    return all(curve.point_distance(p, q) >= gap for p in points for q in others)


def _draw_apart(draw_first, draw_second, apart):
    """A first and a second draw with ``apart(first, second)``: the second is redrawn
    until it is apart from the first, and the first after every 50 failed tries."""
    first = draw_first()
    while True:
        for _ in range(50):
            second = draw_second()
            if apart(first, second):
                return first, second
        first = draw_first()


def _random_points(rng: random.Random, curve, count: int, min_gap: float | None = None,
                   box: float = 0.85) -> list[complex]:
    """``count`` points at least ``min_gap`` apart: on a torus at lattice coordinates
    in [0.05, box]^2 (gap 0.08 by default), on the sphere in the square
    [-2, 2]^2 (gap 0.3 by default)."""
    torus = isinstance(curve, Torus)
    if min_gap is None:
        min_gap = 0.08 if torus else 0.3
    points: list[complex] = []
    while len(points) < count:
        if torus:
            z = curve.from_lattice_coords(rng.uniform(0.05, box), rng.uniform(0.05, box))
        else:
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if _apart(curve, [z], points, min_gap):
            points.append(z)
    return points


def _point_away(rng: random.Random, curve, points, gap: float) -> complex | None:
    """A point at least ``gap`` from each of ``points``: on a torus anywhere in the
    fundamental cell, on the sphere in [-2.5, 2.5]^2; None after 200 draws."""
    for _ in range(200):
        if isinstance(curve, Torus):
            z = curve.from_lattice_coords(rng.uniform(0, 1), rng.uniform(0, 1))
        else:
            z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if _apart(curve, [z], points, gap):
            return z
    return None


def _random_gaussian_rational(rng: random.Random, max_num: int = 1, max_den: int = 3):
    # kept small: pairing exponents grow with |n|^2 and must stay far from
    # the exp overflow range for the absolute-residual checks to be sharp
    a, d = rng.randint(-max_num, max_num), rng.randint(1, max_den)
    b, e = rng.randint(-max_num, max_num), rng.randint(1, max_den)
    return _reduced(a * e, b * d, d * e)  # a/d + (b/e) i


def _zero_sum_coefficients(rng: random.Random, count: int):
    """Gaussian-rational coefficients with an exactly zero sum, none zero."""
    while True:
        coeffs = [_random_gaussian_rational(rng) for _ in range(count)]
        total = GaussianRational(0)
        for c in coeffs:
            total = total + c
        mean = total / count
        coeffs = [c - mean for c in coeffs]
        if all(not c.is_zero() for c in coeffs):
            return coeffs


def _zero_sum_integers(rng: random.Random, count: int):
    while True:
        weights = [rng.randint(-2, 2) for _ in range(count - 1)]
        weights.append(-sum(weights))
        if all(w != 0 for w in weights) and abs(weights[-1]) <= 3:
            return weights


def _pairing_instance(rng: random.Random, *, marked_only: bool = False,
                      allow_infinity: bool = False):
    """A marked curve with two disjoint degree-zero divisors on it."""
    curve = _random_curve(rng)
    k1, k2 = rng.randint(2, 3), rng.randint(2, 3)
    points = _random_points(rng, curve, k1 + k2 + 2)
    mc = MarkedCurve(curve, points[:k1 + k2])
    extra = points[k1 + k2:]
    c1 = _zero_sum_coefficients(rng, k1)
    c2 = _zero_sum_coefficients(rng, k2)
    d1 = ComplexDivisor(mc, marked=list(enumerate(c1)))
    d2 = ComplexDivisor(mc, marked=[(k1 + i, c) for i, c in enumerate(c2)])
    if not marked_only and rng.random() < 0.4:
        if (
            allow_infinity
            and isinstance(curve, Sphere)
            and rng.random() < 0.5
        ):
            d1 = d1 + ComplexDivisor(
                mc, integral=[(extra[0], 1), (CurvePoint.infinity(), -1)]
            )
        else:
            d1 = d1 + ComplexDivisor(mc, integral=[(extra[0], 1), (extra[1], -1)])
    return mc, d1, d2


def _sphere_rational_pair(rng: random.Random):
    """Two sphere rational functions with disjoint complete divisors."""
    sphere = Sphere()
    nf = rng.randint(1, 2)
    ng = rng.randint(1, 2)
    balanced_f = rng.random() < 0.5
    # both unbalanced would share a pole at infinity
    balanced_g = True if not balanced_f else rng.random() < 0.5
    points = _random_points(rng, sphere, 2 * nf + 2 * ng, min_gap=0.25)
    f_zeros = points[:nf]
    f_poles = points[nf:2 * nf] if balanced_f else points[nf:2 * nf - 1]
    g_zeros = points[2 * nf:2 * nf + ng]
    g_poles = (
        points[2 * nf + ng:2 * nf + 2 * ng]
        if balanced_g
        else points[2 * nf + ng:2 * nf + 2 * ng - 1]
    )
    cf = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    cg = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    f = RationalFunctionData.from_zeros_poles(sphere, f_zeros, f_poles, cf)
    g = RationalFunctionData.from_zeros_poles(sphere, g_zeros, g_poles, cg)
    return f, g


def _torus_rational_pair(rng: random.Random, torus: Torus):
    """Two elliptic functions from theta ratios with exact zero-sum supports."""
    while True:
        nf = rng.randint(2, 3)
        ng = rng.randint(2, 3)
        pts = _random_points(rng, torus, nf + ng + nf + ng - 2, min_gap=0.09)
        f_zeros = pts[:nf]
        f_poles = pts[nf:2 * nf - 1]
        f_poles.append(sum(f_zeros) - sum(f_poles))
        g_zeros = pts[2 * nf - 1:2 * nf - 1 + ng]
        g_poles = pts[2 * nf - 1 + ng:2 * (nf + ng) - 2]
        g_poles.append(sum(g_zeros) - sum(g_poles))
        if (
            _apart(torus, f_zeros + f_poles, g_zeros + g_poles, 0.05)
            and _apart(torus, f_poles[-1:], f_zeros + f_poles[:-1], 0.05)
            and _apart(torus, g_poles[-1:], g_zeros + g_poles[:-1], 0.05)
        ):
            f = RationalFunctionData.from_zeros_poles(torus, f_zeros, f_poles)
            g = RationalFunctionData.from_zeros_poles(torus, g_zeros, g_poles)
            return f, g


def _principal_marked_pair(rng: random.Random, torus: Torus):
    """Marks (Qa, Qb) and coefficient c with c*(Qa - Qb) exactly a lattice point."""
    while True:
        c = _random_gaussian_rational(rng, max_num=2, max_den=2)
        if c.is_zero():
            continue
        lam = rng.choice([1.0 + 0j, -1.0 + 0j, torus.tau, -torus.tau, 1.0 + torus.tau])
        qa = torus.from_lattice_coords(rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.8))
        qb = qa - lam / c.to_complex()
        a, b = torus.lattice_coords(qb)
        if 0.05 <= a <= 0.85 and 0.05 <= b <= 0.85 and torus.lattice_defect(qa - qb) > 0.08:
            return qa, qb, c


def _three_point_principal(mc: MarkedCurve, p: complex, q: complex) -> ComplexDivisor:
    """The principal divisor 2P - Q - R with R = 2P - Q."""
    return ComplexDivisor(mc, integral=[(p, 2), (q, -1), (2 * p - q, -1)])


def _random_unitary(np_rng, n: int) -> np.ndarray:
    z = np_rng.normal(size=(n, n)) + 1j * np_rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conjugate()


def _base_momenta(rng: random.Random, n: int):
    """On-shell momenta: opposite unit pairs, plus a planar triple for odd n."""
    rows: list[list[complex]] = []
    remaining = n
    if remaining % 2 == 1:
        third = [[0j] * DIMENSION for _ in range(3)]
        for k in range(3):
            angle = 2.0 * math.pi * k / 3.0
            third[k][0] = complex(math.cos(angle), 0.0)
            third[k][1] = complex(math.sin(angle), 0.0)
        rows.extend(third)
        remaining -= 3
    while remaining > 0:
        axis = rng.randrange(DIMENSION)
        angle = rng.uniform(0, 2 * math.pi)
        vec = [0j] * DIMENSION
        vec[axis] = complex(math.cos(angle), math.sin(angle))
        rows.append(vec)
        rows.append([-c for c in vec])
        remaining -= 2
    return rows


def _random_momentum_config(rng: random.Random, np_rng, n: int) -> MomentumConfig:
    base = MomentumConfig(_base_momenta(rng, n))
    return base.apply_unitary(_random_unitary(np_rng, DIMENSION))


def _string_instance(ctx: _Ctx):
    """A curve with 2 to 4 marks and an on-shell momentum configuration on them."""
    curve = _random_curve(ctx.rng)
    n = ctx.rng.randint(2, 4)
    mc = MarkedCurve(curve, _random_points(ctx.rng, curve, n))
    return mc, _random_momentum_config(ctx.rng, ctx.np_rng, n)


def _dyadic(rng: random.Random) -> float:
    return rng.randrange(1024) / 1024


def _random_expansion(rng: random.Random) -> LocalExpansion:
    a = complex(_dyadic(rng), _dyadic(rng) * 4 - 2)
    n0 = rng.randint(-6, 6)
    length = rng.randint(1, 5)
    coeffs = [
        complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(length)
    ]
    if abs(coeffs[0]) < 0.1:
        coeffs[0] = 1.0 + 0j
    return LocalExpansion(a, n0, tuple(coeffs))


# --- property checks -------------------------------------------------------


def _property(*, per: int = 1, least: int = 1, count: bool = False):
    """Make a one-case check into the property check ``(ctx) -> float``.

    The property runs ``max(least, ctx.cases // per)`` cases, the index of the
    current one in ``ctx.case``.  Each case returns its residual, or with
    ``count`` its number of failures (a skipped case returns 0); the property
    is the largest residual, or the total number of failures.  The first case
    whose result is not finite ends the property at inf, so a NaN fails
    instead of vanishing in ``max(0.0, nan) == 0.0``.
    """
    def wrap(case):
        @functools.wraps(case)
        def check(ctx: _Ctx) -> float:
            total = 0.0
            for index in range(max(least, ctx.cases // per)):
                ctx.case = index
                result = case(ctx)
                if not math.isfinite(result):
                    return math.inf
                total = total + result if count else max(total, result)
            return total
        return check
    return wrap


# every property, by name, in the order of its declaration: its threshold and its check
_PROPERTIES: dict[str, tuple[float, object]] = {}


def _declare(name: str, threshold: float, **rule):
    """Declare a one-case check as the property ``name`` with its pass threshold;
    ``rule`` (``per``, ``least``, ``count``) goes to ``_property``."""
    def register(case):
        check = _property(**rule)(case)
        _PROPERTIES[name] = threshold, check
        return check
    return register


def _largest(*residuals: float) -> float:
    """The largest of one case's residuals; inf if one is not finite, which ``max`` may drop."""
    return max(residuals) if all(map(math.isfinite, residuals)) else math.inf


@_declare("curve.kernel_symmetry", 1e-12)
def _check_kernel_symmetry(ctx: _Ctx) -> float:
    curve = _random_curve(ctx.rng)
    p, q = _random_points(ctx.rng, curve, 2)
    return abs(green_kernel(curve, p, q) - green_kernel(curve, q, p))


@_declare("curve.torus_periodicity", 1e-10, per=10)
def _check_torus_periodicity(ctx: _Ctx) -> float:
    torus = Torus(_random_tau(ctx.rng))
    p, q = _random_points(ctx.rng, torus, 2)
    base = green_kernel(torus, p, q)
    return _largest(*(
        abs(green_kernel(torus, p + m + n * torus.tau, q) - base)
        for m in range(-2, 3)
        for n in range(-2, 3)
    ))


@_declare("curve.green_divisor_harmonicity", 1e-4, per=5)
def _check_harmonicity(ctx: _Ctx) -> float:
    # five-point Laplacian at h = 1e-3; the stencil bias of a log kernel is
    # ~ h^2 / r^4 per unit weight, so +-1 weights at r >= 0.45 keep the
    # worst bias near 5e-5, half the 1e-4 threshold
    h = 1e-3
    curve = _random_curve(ctx.rng)
    pts = _random_points(ctx.rng, curve, 2, min_gap=0.12 if isinstance(curve, Torus) else None)
    d = ComplexDivisor(MarkedCurve(curve), integral=list(zip(pts, (1, -1))))
    z = _point_away(ctx.rng, curve, pts, 0.45)
    if z is None:
        return 0.0
    values = [green_divisor(curve, d, z + dz).real for dz in (h, -h, 1j * h, -1j * h)]
    return abs((sum(values) - 4.0 * green_divisor(curve, d, z).real) / (h * h))


@_declare("curve.sphere_invariance", 1e-10)
def _check_sphere_invariance(ctx: _Ctx) -> float:
    sphere = Sphere()
    mc = MarkedCurve(sphere)
    pts = _random_points(ctx.rng, sphere, 3)
    weights = _zero_sum_integers(ctx.rng, 3)
    d = ComplexDivisor(mc, integral=list(zip(pts, weights)))
    z = _point_away(ctx.rng, sphere, pts, 0.2)
    if z is None:
        return 0.0
    base = green_divisor(sphere, d, z)
    shift = complex(ctx.rng.uniform(-2, 2), ctx.rng.uniform(-2, 2))
    factor = complex(ctx.rng.uniform(0.5, 2.0), ctx.rng.uniform(-1.0, 1.0))

    def moved(f) -> float:
        image = ComplexDivisor(mc, integral=[(f(p), w) for p, w in zip(pts, weights)])
        return abs(green_divisor(sphere, image, f(z)) - base)

    return _largest(moved(lambda p: p + shift), moved(lambda p: p * factor))


@_declare("curve.green_divisor_linearity", 1e-12)
def _check_green_linearity(ctx: _Ctx) -> float:
    mc, d1, d2 = _pairing_instance(ctx.rng)
    curve = mc.curve
    both = d1 + d2
    # the sphere's distance to infinity is infinite, so infinity never blocks a draw
    z = _point_away(ctx.rng, curve, [point for point, _ in both.support_items()], 0.1)
    if z is None:
        return 0.0
    split = green_divisor(curve, d1, z) + green_divisor(curve, d2, z)
    return abs(green_divisor(curve, both, z) - split)


@_declare("curve.theta1_quasi_periodicity", 1e-10)
def _check_theta_quasi_periodicity(ctx: _Ctx) -> float:
    tau = _random_tau(ctx.rng)
    z = complex(ctx.rng.uniform(-1.5, 1.5), ctx.rng.uniform(-1.0, 1.0))
    base = theta1(z, tau)
    factor = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * z)
    return _largest(
        abs(theta1(z + 1, tau) + base) / max(abs(base), 1e-300),
        abs(theta1(z + tau, tau) - factor * base) / max(abs(factor * base), 1e-300),
    )


@_declare("divisor.group_laws", 0.5, count=True)
def _check_divisor_group_laws(ctx: _Ctx) -> int:
    mc, d1, d2 = _pairing_instance(ctx.rng)
    d3 = -(d1 + d2)
    zero = ComplexDivisor(mc)
    return (
        ((d1 + d2) + d3 != d1 + (d2 + d3))
        + (d1 + zero != d1 or zero + d1 != d1)
        + (not (d1 + (-d1)).is_empty())
    )


@_declare("divisor.scale_multiplicative", 0.5, count=True)
def _check_scale_multiplicative(ctx: _Ctx) -> int:
    _, d1, _ = _pairing_instance(ctx.rng, marked_only=True)
    alpha = _random_gaussian_rational(ctx.rng)
    beta = _random_gaussian_rational(ctx.rng)
    return d1.scale(alpha * beta) != d1.scale(beta).scale(alpha)


@_declare("divisor.degree_homomorphism", 0.5, count=True)
def _check_degree_homomorphism(ctx: _Ctx) -> int:
    _, d1, d2 = _pairing_instance(ctx.rng)
    return (d1 + d2).degree() != d1.degree() + d2.degree()


@_declare("divisor.class_additivity", 1e-9)
def _check_class_additivity(ctx: _Ctx) -> float:
    mc, d1, d2 = _pairing_instance(ctx.rng)
    combined = class_invariant(mc, d1 + d2)
    expected = class_invariant(mc, d1).combine(class_invariant(mc, d2))
    if combined.degree != expected.degree:
        return math.inf
    if combined.jacobian is None:
        return 0.0
    return mc.curve.lattice_defect(combined.jacobian - expected.jacobian)


@_declare("mvf.order_additivity", 0.5, count=True)
def _check_order_additivity(ctx: _Ctx) -> int:
    a = _random_expansion(ctx.rng)
    b = _random_expansion(ctx.rng)
    product = expansion_multiply(a, b)
    renorm = normalize_expansion(product.branch_exponent, product.leading_index, product.coeffs)
    return (order(product) != order(a) + order(b)) + (renorm != product)


@_declare("mvf.sphere_witness_residues", 0.5, count=True)
def _check_witness_residues(ctx: _Ctx) -> int:
    count = ctx.rng.randint(1, 4)
    points = _random_points(ctx.rng, Sphere(), count)
    exponents = [_random_gaussian_rational(ctx.rng) for _ in range(count)]
    orders = power_product_orders(points, exponents)
    return not sum((e for _, e in orders), GaussianRational(0)).is_zero()


@_declare("mvf.principal_subgroup", 0.5, per=20, count=True)
def _check_principal_subgroup(ctx: _Ctx) -> int:
    torus = Torus(_random_tau(ctx.rng))
    if ctx.case % 2 == 0:
        # integer-coefficient principal parts
        mc = MarkedCurve(torus)
        parts = [
            _three_point_principal(mc, *_random_points(ctx.rng, torus, 2, box=0.8))
            for _ in range(2)
        ]
    else:
        # complex-coefficient principal parts supported on marks
        (qa1, qb1, c1), (qa2, qb2, c2) = _draw_apart(
            lambda: _principal_marked_pair(ctx.rng, torus),
            lambda: _principal_marked_pair(ctx.rng, torus),
            lambda first, second: _apart(torus, first[:2], second[:2], 0.05),
        )
        mc = MarkedCurve(torus, [qa1, qb1, qa2, qb2])
        parts = [
            ComplexDivisor(mc, marked={0: c1, 1: -c1}),
            ComplexDivisor(mc, marked={2: c2, 3: -c2}),
        ]
    if not all(is_principal(mc, part).principal for part in parts):
        return 1
    return not is_principal(mc, parts[0] + parts[1]).principal


@_declare("mvf.multiplicator_homomorphism", 1e-12)
def _check_multiplicator_homomorphism(ctx: _Ctx) -> float:
    curve = _random_curve(ctx.rng)
    mc = MarkedCurve(curve, _random_points(ctx.rng, curve, 3))
    d1 = ComplexDivisor(mc, marked=list(enumerate(_zero_sum_coefficients(ctx.rng, 3))))
    d2 = ComplexDivisor(mc, marked=list(enumerate(_zero_sum_coefficients(ctx.rng, 3))))

    def defect(i: int) -> float:
        combined = multiplicator(mc, d1 + d2, i)
        split = multiplicator(mc, d1, i) * multiplicator(mc, d2, i)
        return abs(combined - split) / max(abs(combined), 1e-300)

    return _largest(*map(defect, range(3)))


@_declare("mvf.class_vs_principal", PERIOD_TOL, per=5, least=4)
def _check_class_vs_principal(ctx: _Ctx) -> float:
    torus = Torus(_random_tau(ctx.rng))
    make_equal = ctx.case % 2 == 0
    if make_equal and ctx.rng.random() < 0.5:
        (qa, qb, c), base = _draw_apart(
            lambda: _principal_marked_pair(ctx.rng, torus),
            lambda: _random_points(ctx.rng, torus, 2),
            lambda pair, base: _apart(torus, base, pair[:2], 0.08),
        )
        mc = MarkedCurve(torus, base + [qa, qb])
        d1 = ComplexDivisor(mc, marked=list(enumerate(_zero_sum_coefficients(ctx.rng, 2))))
        d2 = d1 + ComplexDivisor(mc, marked=[(2, c), (3, -c)])
    else:
        marks = _random_points(ctx.rng, torus, 3)
        mc = MarkedCurve(torus, marks)
        d1 = ComplexDivisor(mc, marked=list(enumerate(_zero_sum_coefficients(ctx.rng, 3))))
        if make_equal:
            p, q = _random_points(ctx.rng, torus, 6, box=0.8)[3:5]
            d2 = d1
            if _apart(torus, [2 * p - q], marks + [p, q], 0.08):
                d2 = d1 + _three_point_principal(mc, p, q)
        else:
            d2 = ComplexDivisor(
                mc, marked=list(enumerate(_zero_sum_coefficients(ctx.rng, 3)))
            )
            defect = torus.lattice_defect(abel_jacobi_sum(torus, d1 - d2))
            if defect < 1e-3:  # accidentally equivalent; skip the ambiguous case
                return 0.0
    same_class = class_invariant(mc, d1).matches(class_invariant(mc, d2))
    cert = is_principal(mc, d1 - d2)
    if same_class != cert.principal or cert.principal != make_equal:
        return math.inf
    if cert.principal:
        return cert.period_defect if cert.periods_integral else math.inf
    return 0.0 if cert.period_defect >= 1e-3 else math.inf


@_declare("pairing.formula_equivalence", 1e-12)
def _check_formula_equivalence(ctx: _Ctx) -> float:
    mc, d1, d2 = _pairing_instance(ctx.rng, allow_infinity=True)
    exponents = [pairing_norm(mc, d1, d2, formula).exponent for formula in FORMULAS]
    # the largest pairwise gap is max - min, and inf when an exponent is NaN
    return _largest(*(abs(a - b) for a in exponents for b in exponents))


@_declare("pairing.kernel_constant_independence", 1e-10, per=2)
def _check_kernel_constant_independence(ctx: _Ctx) -> float:
    mc, d1, d2 = _pairing_instance(ctx.rng, allow_infinity=True)
    base = pairing_norm(mc, d1, d2).norm
    return _largest(*(
        abs(pairing_norm(mc, d1, d2, kernel_shift=shift).norm - base) / base
        for shift in (-5.0, -1.0, 0.7, 5.0)
    ))


@_declare("pairing.weil_reciprocity_sphere", RECIPROCITY_TOL)
def _check_reciprocity_sphere(ctx: _Ctx) -> float:
    return check_weil_reciprocity(*_sphere_rational_pair(ctx.rng))


@_declare("pairing.weil_reciprocity_torus", RECIPROCITY_TOL, per=5)
def _check_reciprocity_torus(ctx: _Ctx) -> float:
    torus = Torus(_random_tau(ctx.rng))
    return check_weil_reciprocity(*_torus_rational_pair(ctx.rng, torus))


@_declare("pairing.hermitian_properties", 1e-12)
def _check_hermitian_properties(ctx: _Ctx) -> float:
    mc, d1, d2 = _pairing_instance(ctx.rng, marked_only=True)
    norm = pairing_norm(mc, d1, d2).norm
    if not norm > 0:
        return math.inf
    h12 = hermitian_form(mc, d1, d2)
    residuals = [abs(h12 - hermitian_form(mc, d2, d1).conjugate())]
    alpha = _random_gaussian_rational(ctx.rng)
    if not alpha.is_zero():
        a = alpha.to_complex()
        residuals.append(abs(hermitian_form(mc, d1.scale(alpha), d2) - a * h12))
        residuals.append(abs(hermitian_form(mc, d1, d2.scale(alpha)) - a.conjugate() * h12))
    return _largest(*residuals, abs(norm - math.exp(h12.real)) / norm)


@_declare("pairing.integral_weil_product", 1e-12)
def _check_integral_weil_product(ctx: _Ctx) -> float:
    curve = _random_curve(ctx.rng)
    pts = _random_points(ctx.rng, curve, 6)
    w1 = _zero_sum_integers(ctx.rng, 3)
    w2 = _zero_sum_integers(ctx.rng, 3)
    mc = MarkedCurve(curve)
    d1 = ComplexDivisor(mc, integral=list(zip(pts[:3], w1)))
    d2 = ComplexDivisor(mc, integral=list(zip(pts[3:], w2)))
    norm = pairing_norm(mc, d1, d2, "ad3").norm
    product = math.prod(
        math.exp(green_kernel(curve, p, q)) ** (n * m)
        for p, n in zip(pts[:3], w1)
        for q, m in zip(pts[3:], w2)
    )
    return abs(norm - product) / norm


@_declare("strings.unitary_invariance", 1e-10, per=10)
def _check_unitary_invariance(ctx: _Ctx) -> float:
    mc, cfg = _string_instance(ctx)
    base = string_pairing_factor(mc, cfg).factor
    rotated = cfg.apply_unitary(_random_unitary(ctx.np_rng, DIMENSION))
    return abs(string_pairing_factor(mc, rotated).factor - base) / base


@_declare("strings.factorization", 1e-10, per=10)
def _check_string_factorization(ctx: _Ctx) -> float:
    mc, cfg = _string_instance(ctx)
    factor = string_pairing_factor(mc, cfg).factor
    exponent = 0.0
    for nu in range(DIMENSION):
        exponent += self_pairing_exponent(mc, momentum_divisor(mc, cfg, nu))
    return abs(factor - math.exp(exponent)) / factor


@_declare("strings.momentum_divisor_degree", 0.5, per=10, count=True)
def _check_momentum_divisor_degree(ctx: _Ctx) -> int:
    mc, cfg = _string_instance(ctx)
    divisors = [momentum_divisor(mc, cfg, nu) for nu in range(DIMENSION)]
    return sum((d.degree() != 0) + (not d.marked_degree().is_zero()) for d in divisors)


def property_names() -> list[str]:
    return list(_PROPERTIES)


def run_property(name: str, seed: int = DEFAULT_SEED, cases: int = DEFAULT_CASES) -> PropertyResult:
    if cases < 1:
        raise DomainError(f"the case count must be at least 1, got {cases}")
    threshold, check = _PROPERTIES[name]
    residual = check(_Ctx(seed, name, cases))
    return PropertyResult(name, cases, residual, threshold, residual < threshold)


def run_selftest(seed: int = DEFAULT_SEED, cases: int = DEFAULT_CASES) -> SelftestReport:
    start = time.perf_counter()
    results = [run_property(name, seed, cases) for name in property_names()]
    return SelftestReport(
        seed=seed,
        cases=cases,
        results=tuple(results),
        runtime_seconds=time.perf_counter() - start,
    )
