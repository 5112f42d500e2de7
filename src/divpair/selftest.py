"""Randomized property suite behind the ``selftest`` command.

Every invariant of every module is checked on seeded random instances and
reported as one row of a residual table.  Instance generation is fully
deterministic in the seed, so identical invocations produce identical
reports.  The pass thresholds default to the library's documented values
and can be scaled (for exploratory runs only) through the DIVPAIR_TOL
environment variable.
"""

from __future__ import annotations

import cmath
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
from .mvf import (
    LocalExpansion,
    expansion_multiply,
    is_principal,
    multiplicator,
    normalize_expansion,
    order,
    power_product_orders,
)
from .pairing import (
    RationalFunctionData,
    check_weil_reciprocity,
    hermitian_form,
    pairing_norm,
    self_pairing_exponent,
    tolerance_scale,
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
    "tolerance_scale",
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


def _random_tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(0.8, 1.6))


def _random_curve(rng: random.Random):
    return Torus(_random_tau(rng)) if rng.random() < 0.5 else Sphere()


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
        if all(curve.point_distance(z, p) >= min_gap for p in points):
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
        if all(curve.point_distance(z, p) >= gap for p in points):
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
        support = [(p, 0) for p in f_zeros + f_poles]
        others = g_zeros + g_poles
        ok = all(
            torus.lattice_defect(p - q) >= 0.05 for p, _ in support for q in others
        )
        ok = ok and all(
            torus.lattice_defect(f_poles[-1] - q) >= 0.05
            for q in f_zeros + f_poles[:-1]
        )
        ok = ok and all(
            torus.lattice_defect(g_poles[-1] - q) >= 0.05
            for q in g_zeros + g_poles[:-1]
        )
        if not ok:
            continue
        f = RationalFunctionData.from_zeros_poles(torus, f_zeros, f_poles)
        g = RationalFunctionData.from_zeros_poles(torus, g_zeros, g_poles)
        return f, g


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


# --- property checks -------------------------------------------------------


def _check_kernel_symmetry(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(ctx.cases):
        curve = _random_curve(ctx.rng)
        p, q = _random_points(ctx.rng, curve, 2)
        worst = max(worst, abs(green_kernel(curve, p, q) - green_kernel(curve, q, p)))
    return worst


def _check_torus_periodicity(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(max(1, ctx.cases // 10)):
        torus = Torus(_random_tau(ctx.rng))
        p, q = _random_points(ctx.rng, torus, 2)
        base = green_kernel(torus, p, q)
        for m in range(-2, 3):
            for n in range(-2, 3):
                shifted = green_kernel(torus, p + m + n * torus.tau, q)
                worst = max(worst, abs(shifted - base))
    return worst


def _check_harmonicity(ctx: _Ctx) -> float:
    # five-point Laplacian at h = 1e-3; the stencil bias of a log kernel is
    # ~ h^2 / r^4 per unit weight, so +-1 weights at r >= 0.45 keep the
    # worst bias near 5e-5, half the 1e-4 threshold
    h = 1e-3
    worst = 0.0
    for _ in range(max(1, ctx.cases // 5)):
        curve = _random_curve(ctx.rng)
        pts = _random_points(ctx.rng, curve, 2, min_gap=0.12 if isinstance(curve, Torus) else None)
        weights = [1, -1]
        mc = MarkedCurve(curve)
        d = ComplexDivisor(mc, integral=list(zip(pts, weights)))
        z = _point_away(ctx.rng, curve, pts, 0.45)
        if z is None:
            continue
        values = [
            green_divisor(curve, d, z + dz).real
            for dz in (h, -h, 1j * h, -1j * h)
        ]
        center = green_divisor(curve, d, z).real
        laplacian = (sum(values) - 4.0 * center) / (h * h)
        worst = max(worst, abs(laplacian))
    return worst


def _check_sphere_invariance(ctx: _Ctx) -> float:
    sphere = Sphere()
    mc = MarkedCurve(sphere)
    worst = 0.0
    for _ in range(ctx.cases):
        pts = _random_points(ctx.rng, sphere, 3)
        weights = _zero_sum_integers(ctx.rng, 3)
        d = ComplexDivisor(mc, integral=list(zip(pts, weights)))
        z = _point_away(ctx.rng, sphere, pts, 0.2)
        if z is None:
            continue
        base = green_divisor(sphere, d, z)
        shift = complex(ctx.rng.uniform(-2, 2), ctx.rng.uniform(-2, 2))
        translated = ComplexDivisor(
            mc, integral=[(p + shift, w) for p, w in zip(pts, weights)]
        )
        worst = max(worst, abs(green_divisor(sphere, translated, z + shift) - base))
        factor = complex(ctx.rng.uniform(0.5, 2.0), ctx.rng.uniform(-1.0, 1.0))
        scaled = ComplexDivisor(
            mc, integral=[(p * factor, w) for p, w in zip(pts, weights)]
        )
        worst = max(worst, abs(green_divisor(sphere, scaled, z * factor) - base))
    return worst


def _check_green_linearity(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(ctx.cases):
        mc, d1, d2 = _pairing_instance(ctx.rng)
        curve = mc.curve
        both = d1 + d2
        # the sphere's distance to infinity is infinite, so infinity never blocks a draw
        z = _point_away(ctx.rng, curve, both.support_points(), 0.1)
        if z is None:
            continue
        total = green_divisor(curve, both, z)
        split = green_divisor(curve, d1, z) + green_divisor(curve, d2, z)
        worst = max(worst, abs(total - split))
    return worst


def _check_theta_quasi_periodicity(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(ctx.cases):
        tau = _random_tau(ctx.rng)
        z = complex(ctx.rng.uniform(-1.5, 1.5), ctx.rng.uniform(-1.0, 1.0))
        base = theta1(z, tau)
        scale = max(abs(base), 1e-300)
        worst = max(worst, abs(theta1(z + 1, tau) + base) / scale)
        factor = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * z)
        worst = max(
            worst, abs(theta1(z + tau, tau) - factor * base) / max(abs(factor * base), 1e-300)
        )
    return worst


def _check_divisor_group_laws(ctx: _Ctx) -> float:
    failures = 0
    for _ in range(ctx.cases):
        mc, d1, d2 = _pairing_instance(ctx.rng)
        d3 = -(d1 + d2)
        zero = mc.empty_divisor()
        if (d1 + d2) + d3 != d1 + (d2 + d3):
            failures += 1
        if d1 + zero != d1 or zero + d1 != d1:
            failures += 1
        if not (d1 + (-d1)).is_empty():
            failures += 1
    return float(failures)


def _check_scale_multiplicative(ctx: _Ctx) -> float:
    failures = 0
    for _ in range(ctx.cases):
        _, d1, _ = _pairing_instance(ctx.rng, marked_only=True)
        alpha = _random_gaussian_rational(ctx.rng)
        beta = _random_gaussian_rational(ctx.rng)
        if d1.scale(alpha * beta) != d1.scale(beta).scale(alpha):
            failures += 1
    return float(failures)


def _check_degree_homomorphism(ctx: _Ctx) -> float:
    failures = 0
    for _ in range(ctx.cases):
        _, d1, d2 = _pairing_instance(ctx.rng)
        if (d1 + d2).degree() != d1.degree() + d2.degree():
            failures += 1
    return float(failures)


def _check_class_additivity(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(ctx.cases):
        mc, d1, d2 = _pairing_instance(ctx.rng)
        combined = class_invariant(mc, d1 + d2)
        expected = class_invariant(mc, d1).combine(class_invariant(mc, d2))
        if combined.degree != expected.degree:
            return math.inf
        if combined.jacobian is not None:
            worst = max(
                worst,
                mc.curve.lattice_defect(combined.jacobian - expected.jacobian),
            )
    return worst


def _dyadic(rng: random.Random, grid: int = 1024) -> float:
    return rng.randrange(grid) / grid


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


def _check_order_additivity(ctx: _Ctx) -> float:
    failures = 0
    for _ in range(ctx.cases):
        a = _random_expansion(ctx.rng)
        b = _random_expansion(ctx.rng)
        product = expansion_multiply(a, b)
        if order(product) != order(a) + order(b):
            failures += 1
        renorm = normalize_expansion(
            product.branch_exponent, product.leading_index, product.coeffs
        )
        if renorm != product:
            failures += 1
    return float(failures)


def _check_witness_residues(ctx: _Ctx) -> float:
    sphere = Sphere()
    failures = 0
    for _ in range(ctx.cases):
        count = ctx.rng.randint(1, 4)
        points = _random_points(ctx.rng, sphere, count)
        exponents = [_random_gaussian_rational(ctx.rng) for _ in range(count)]
        orders = power_product_orders(points, exponents)
        total = GaussianRational(0)
        for _, e in orders:
            total = total + e
        if not total.is_zero():
            failures += 1
    return float(failures)


def _check_principal_subgroup(ctx: _Ctx) -> float:
    failures = 0
    for case in range(max(1, ctx.cases // 20)):
        torus = Torus(_random_tau(ctx.rng))
        if case % 2 == 0:
            # integer-coefficient principal parts
            mc = MarkedCurve(torus)
            parts = []
            for _ in range(2):
                pts = _random_points(ctx.rng, torus, 2, box=0.8)
                third = 2 * pts[0] - pts[1]
                parts.append(
                    ComplexDivisor(mc, integral=[(pts[0], 2), (pts[1], -1), (third, -1)])
                )
        else:
            # complex-coefficient principal parts supported on marks
            qa1, qb1, c1 = _principal_marked_pair(ctx.rng, torus)
            retries = 0
            while True:
                qa2, qb2, c2 = _principal_marked_pair(ctx.rng, torus)
                if all(
                    torus.lattice_defect(p - q) > 0.05
                    for p in (qa1, qb1)
                    for q in (qa2, qb2)
                ):
                    break
                retries += 1
                if retries > 50:
                    qa1, qb1, c1 = _principal_marked_pair(ctx.rng, torus)
                    retries = 0
            mc = MarkedCurve(torus, [qa1, qb1, qa2, qb2])
            parts = [
                ComplexDivisor(mc, marked={0: c1, 1: -c1}),
                ComplexDivisor(mc, marked={2: c2, 3: -c2}),
            ]
        if not (is_principal(mc, parts[0]).principal and is_principal(mc, parts[1]).principal):
            failures += 1
            continue
        if not is_principal(mc, parts[0] + parts[1]).principal:
            failures += 1
    return float(failures)


def _check_multiplicator_homomorphism(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(ctx.cases):
        curve = _random_curve(ctx.rng)
        marks = _random_points(ctx.rng, curve, 3)
        mc = MarkedCurve(curve, marks)
        c1 = _zero_sum_coefficients(ctx.rng, 3)
        c2 = _zero_sum_coefficients(ctx.rng, 3)
        d1 = ComplexDivisor(mc, marked=list(enumerate(c1)))
        d2 = ComplexDivisor(mc, marked=list(enumerate(c2)))
        for i in range(3):
            combined = multiplicator(mc, d1 + d2, i)
            split = multiplicator(mc, d1, i) * multiplicator(mc, d2, i)
            worst = max(worst, abs(combined - split) / max(abs(combined), 1e-300))
    return worst


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


def _check_class_vs_principal(ctx: _Ctx) -> float:
    worst = 0.0
    cases = max(4, ctx.cases // 5)
    for case in range(cases):
        torus = Torus(_random_tau(ctx.rng))
        make_equal = case % 2 == 0
        if make_equal and ctx.rng.random() < 0.5:
            qa, qb, c = _principal_marked_pair(ctx.rng, torus)
            base = _random_points(ctx.rng, torus, 2)
            retries = 0
            while any(
                torus.lattice_defect(p - q) < 0.08 for p in base for q in (qa, qb)
            ):
                base = _random_points(ctx.rng, torus, 2)
                retries += 1
                if retries > 50:
                    qa, qb, c = _principal_marked_pair(ctx.rng, torus)
                    retries = 0
            mc = MarkedCurve(torus, base + [qa, qb])
            coeffs = _zero_sum_coefficients(ctx.rng, 2)
            d1 = ComplexDivisor(mc, marked=list(enumerate(coeffs)))
            d2 = d1 + ComplexDivisor(mc, marked=[(2, c), (3, -c)])
        else:
            marks = _random_points(ctx.rng, torus, 3)
            mc = MarkedCurve(torus, marks)
            d1 = ComplexDivisor(mc, marked=list(enumerate(_zero_sum_coefficients(ctx.rng, 3))))
            if make_equal:
                pts = _random_points(ctx.rng, torus, 6, box=0.8)[3:]
                third = 2 * pts[0] - pts[1]
                if any(torus.lattice_defect(third - m) < 0.08 for m in marks + pts[:2]):
                    d2 = d1
                else:
                    d2 = d1 + ComplexDivisor(
                        mc, integral=[(pts[0], 2), (pts[1], -1), (third, -1)]
                    )
            else:
                d2 = ComplexDivisor(
                    mc, marked=list(enumerate(_zero_sum_coefficients(ctx.rng, 3)))
                )
                defect = torus.lattice_defect(abel_jacobi_sum(torus, d1 - d2))
                if defect < 1e-3:  # accidentally equivalent; skip the ambiguous case
                    continue
        same_class = class_invariant(mc, d1).matches(class_invariant(mc, d2))
        cert = is_principal(mc, d1 - d2)
        if same_class != cert.principal or cert.principal != make_equal:
            return math.inf
        if cert.principal:
            if not cert.periods_integral:
                return math.inf
            worst = max(worst, cert.period_defect)
        elif cert.period_defect < 1e-3:
            return math.inf
    return worst


def _check_formula_equivalence(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(ctx.cases):
        mc, d1, d2 = _pairing_instance(ctx.rng, allow_infinity=True)
        exponents = [
            pairing_norm(mc, d1, d2, formula).exponent
            for formula in ("ad", "adsym", "ad3")
        ]
        worst = max(worst, max(exponents) - min(exponents))
    return worst


def _check_kernel_constant_independence(ctx: _Ctx) -> float:
    worst = 0.0
    shifts = (-5.0, -1.0, 0.7, 5.0)
    for _ in range(max(1, ctx.cases // 2)):
        mc, d1, d2 = _pairing_instance(ctx.rng, allow_infinity=True)
        base = pairing_norm(mc, d1, d2)
        for shift in shifts:
            shifted = pairing_norm(mc, d1, d2, kernel_shift=shift)
            worst = max(worst, abs(shifted.norm - base.norm) / base.norm)
    return worst


def _check_reciprocity_sphere(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(ctx.cases):
        f, g = _sphere_rational_pair(ctx.rng)
        worst = max(worst, check_weil_reciprocity(f, g))
    return worst


def _check_reciprocity_torus(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(max(1, ctx.cases // 5)):
        torus = Torus(_random_tau(ctx.rng))
        f, g = _torus_rational_pair(ctx.rng, torus)
        worst = max(worst, check_weil_reciprocity(f, g, MarkedCurve(torus)))
    return worst


def _check_hermitian_properties(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(ctx.cases):
        mc, d1, d2 = _pairing_instance(ctx.rng, marked_only=True)
        result = pairing_norm(mc, d1, d2)
        if not result.norm > 0:
            return math.inf
        h12 = hermitian_form(mc, d1, d2)
        h21 = hermitian_form(mc, d2, d1)
        worst = max(worst, abs(h12 - h21.conjugate()))
        alpha = _random_gaussian_rational(ctx.rng)
        if not alpha.is_zero():
            worst = max(
                worst,
                abs(hermitian_form(mc, d1.scale(alpha), d2) - alpha.to_complex() * h12),
            )
            worst = max(
                worst,
                abs(
                    hermitian_form(mc, d1, d2.scale(alpha))
                    - alpha.to_complex().conjugate() * h12
                ),
            )
        worst = max(worst, abs(result.norm - math.exp(h12.real)) / result.norm)
    return worst


def _check_integral_weil_product(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(ctx.cases):
        curve = _random_curve(ctx.rng)
        pts = _random_points(ctx.rng, curve, 6)
        w1 = _zero_sum_integers(ctx.rng, 3)
        w2 = _zero_sum_integers(ctx.rng, 3)
        mc = MarkedCurve(curve)
        d1 = ComplexDivisor(mc, integral=list(zip(pts[:3], w1)))
        d2 = ComplexDivisor(mc, integral=list(zip(pts[3:], w2)))
        norm = pairing_norm(mc, d1, d2, "ad3").norm
        product = 1.0
        for p, n in zip(pts[:3], w1):
            for q, m in zip(pts[3:], w2):
                product *= math.exp(green_kernel(curve, p, q)) ** (n * m)
        worst = max(worst, abs(norm - product) / norm)
    return worst


def _check_unitary_invariance(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(max(1, ctx.cases // 10)):
        curve = _random_curve(ctx.rng)
        n = ctx.rng.randint(2, 4)
        mc = MarkedCurve(curve, _random_points(ctx.rng, curve, n))
        cfg = _random_momentum_config(ctx.rng, ctx.np_rng, n)
        base = string_pairing_factor(mc, cfg)
        rotated = cfg.apply_unitary(_random_unitary(ctx.np_rng, DIMENSION))
        factor = string_pairing_factor(mc, rotated)
        worst = max(worst, abs(factor.factor - base.factor) / base.factor)
    return worst


def _check_string_factorization(ctx: _Ctx) -> float:
    worst = 0.0
    for _ in range(max(1, ctx.cases // 10)):
        curve = _random_curve(ctx.rng)
        n = ctx.rng.randint(2, 4)
        mc = MarkedCurve(curve, _random_points(ctx.rng, curve, n))
        cfg = _random_momentum_config(ctx.rng, ctx.np_rng, n)
        factor = string_pairing_factor(mc, cfg)
        exponent = 0.0
        for nu in range(DIMENSION):
            d = momentum_divisor(mc, cfg, nu)
            exponent += self_pairing_exponent(mc, d)
        worst = max(worst, abs(factor.factor - math.exp(exponent)) / factor.factor)
    return worst


def _check_momentum_divisor_degree(ctx: _Ctx) -> float:
    failures = 0
    for _ in range(max(1, ctx.cases // 10)):
        curve = _random_curve(ctx.rng)
        n = ctx.rng.randint(2, 4)
        mc = MarkedCurve(curve, _random_points(ctx.rng, curve, n))
        cfg = _random_momentum_config(ctx.rng, ctx.np_rng, n)
        for nu in range(DIMENSION):
            d = momentum_divisor(mc, cfg, nu)
            if d.degree() != 0:
                failures += 1
            total = d.marked_degree()
            if not total.is_zero():
                failures += 1
    return float(failures)


_PROPERTIES: tuple[tuple[str, float, object], ...] = (
    ("curve.kernel_symmetry", 1e-12, _check_kernel_symmetry),
    ("curve.torus_periodicity", 1e-10, _check_torus_periodicity),
    ("curve.green_divisor_harmonicity", 1e-4, _check_harmonicity),
    ("curve.sphere_invariance", 1e-10, _check_sphere_invariance),
    ("curve.green_divisor_linearity", 1e-12, _check_green_linearity),
    ("curve.theta1_quasi_periodicity", 1e-10, _check_theta_quasi_periodicity),
    ("divisor.group_laws", 0.5, _check_divisor_group_laws),
    ("divisor.scale_multiplicative", 0.5, _check_scale_multiplicative),
    ("divisor.degree_homomorphism", 0.5, _check_degree_homomorphism),
    ("divisor.class_additivity", 1e-9, _check_class_additivity),
    ("mvf.order_additivity", 0.5, _check_order_additivity),
    ("mvf.sphere_witness_residues", 0.5, _check_witness_residues),
    ("mvf.principal_subgroup", 0.5, _check_principal_subgroup),
    ("mvf.multiplicator_homomorphism", 1e-12, _check_multiplicator_homomorphism),
    ("mvf.class_vs_principal", 1e-6, _check_class_vs_principal),
    ("pairing.formula_equivalence", 1e-12, _check_formula_equivalence),
    ("pairing.kernel_constant_independence", 1e-10, _check_kernel_constant_independence),
    ("pairing.weil_reciprocity_sphere", 1e-9, _check_reciprocity_sphere),
    ("pairing.weil_reciprocity_torus", 1e-9, _check_reciprocity_torus),
    ("pairing.hermitian_properties", 1e-12, _check_hermitian_properties),
    ("pairing.integral_weil_product", 1e-12, _check_integral_weil_product),
    ("strings.unitary_invariance", 1e-10, _check_unitary_invariance),
    ("strings.factorization", 1e-10, _check_string_factorization),
    ("strings.momentum_divisor_degree", 0.5, _check_momentum_divisor_degree),
)


def property_names() -> list[str]:
    return [name for name, _, _ in _PROPERTIES]


def run_property(name: str, seed: int = DEFAULT_SEED, cases: int = DEFAULT_CASES) -> PropertyResult:
    for prop_name, threshold, runner in _PROPERTIES:
        if prop_name == name:
            ctx = _Ctx(seed, prop_name, cases)
            residual = runner(ctx)
            scaled = threshold * tolerance_scale()
            return PropertyResult(prop_name, cases, residual, scaled, residual < scaled)
    raise KeyError(name)


def run_selftest(seed: int = DEFAULT_SEED, cases: int = DEFAULT_CASES) -> SelftestReport:
    start = time.perf_counter()
    results = [run_property(name, seed, cases) for name in property_names()]
    return SelftestReport(
        seed=seed,
        cases=cases,
        results=tuple(results),
        runtime_seconds=time.perf_counter() - start,
    )
