import cmath
import math
import random

import numpy as np
import pytest

from divpair import (
    ComplexDivisor,
    CurvePoint,
    DegreeZeroRequiredError,
    DiagonalSingularityError,
    DomainError,
    MarkedCurve,
    Sphere,
    Torus,
    TrivialJacobianError,
    abel_jacobi_sum,
    green_divisor,
    green_kernel,
    kernel_matrix,
    pairing_exponent,
    theta1,
    theta1_log_derivative,
)
from divpair.curve import SPHERE_POINT_TOL, TORUS_POINT_TOL
from divpair.divisor import GaussianRational


def theta1_direct_series(z, tau, terms=200):
    """Independent oracle: direct q-series summation, no argument reduction.

    Each term q^((n+1/2)^2) * sin((2n+1) pi z) is evaluated with the sine
    expanded into exponentials and the exponents combined, so no factor
    overflows before the nome power damps it.
    """
    total = 0j
    for n in range(terms):
        base = 1j * math.pi * tau * (n + 0.5) ** 2
        swing = (2 * n + 1) * 1j * math.pi * z
        term = (cmath.exp(base + swing) - cmath.exp(base - swing)) / 2j
        total += (-1) ** n * term
    return 2.0 * total


# frozen from theta1_direct_series(0.3+0.1j, 1j) before the main build
THETA_ANCHOR = 0.7736512217711732 + 0.17293153659159263j


def test_theta1_vanishes_at_zero():
    assert theta1(0, 1j) == 0


def test_theta1_is_odd():
    rng = random.Random(11)
    for _ in range(25):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.8, 0.8))
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.6, 1.8))
        a, b = theta1(-z, tau), -theta1(z, tau)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


def test_theta1_matches_direct_series_anchor():
    value = theta1(0.3 + 0.1j, 1j)
    assert abs(value - THETA_ANCHOR) < 1e-12 * abs(THETA_ANCHOR)


def test_theta1_matches_direct_series_sweep():
    rng = random.Random(5)
    for _ in range(40):
        z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.5, 2.0))
        ref = theta1_direct_series(z, tau)
        got = theta1(z, tau)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def random_tau(rng, real=3.0, low=0.05, high=2.0):
    """Re tau uniform in [-real, real], Im tau log-uniform in [low, high]."""
    return complex(rng.uniform(-real, real), math.exp(rng.uniform(math.log(low), math.log(high))))


def test_theta1_matches_direct_series_off_the_fundamental_domain():
    rng = random.Random(17)
    for _ in range(60):
        tau = random_tau(rng)
        z = rng.uniform(-1, 1) + rng.uniform(-1, 1) * tau
        ref = theta1_direct_series(z, tau)
        assert abs(theta1(z, tau) - ref) <= 1e-12 * abs(ref)


def test_theta1_log_derivative_matches_central_difference_off_the_fundamental_domain():
    rng = random.Random(23)
    h = 1e-5
    for _ in range(60):
        tau = random_tau(rng, high=0.9)
        z = rng.uniform(-1, 1) + rng.uniform(-1, 1) * tau
        difference = (theta1(z + h, tau) - theta1(z - h, tau)) / (2 * h * theta1(z, tau))
        value = theta1_log_derivative(z, tau)
        assert abs(value - difference) <= 1e-6 * max(1.0, abs(value))


def test_theta1_quasi_periodicity():
    z, tau = 0.21 - 0.37j, 0.3 + 1.1j
    base = theta1(z, tau)
    assert abs(theta1(z + 1, tau) + base) < 1e-10 * abs(base)
    factor = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * z)
    assert abs(theta1(z + tau, tau) - factor * base) < 1e-10 * abs(factor * base)


def test_theta1_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        theta1(0.3, -1j)
    with pytest.raises(DomainError):
        Torus(1.0)


def test_theta1_log_derivative_periodicity():
    tau = 0.1 + 0.9j
    z = 0.23 + 0.31j
    base = theta1_log_derivative(z, tau)
    assert abs(theta1_log_derivative(z + 1, tau) - base) < 1e-11
    assert abs(theta1_log_derivative(z + tau, tau) - base + 2j * math.pi) < 1e-11


def test_theta_functions_evaluate_near_the_real_axis_and_far_from_it():
    for tau in (0.3 + 1e-5j, -7.1 + 1e-4j, 1000j, 0.2 + 300j):
        z = 0.1 + 0.3 * tau
        assert math.isfinite(green_kernel(Torus(tau), z, 0.25))
        assert cmath.isfinite(theta1_log_derivative(z, tau))
    assert cmath.isfinite(theta1(0.1, 0.3 + 1e-5j))


def random_modular_word(rng, length):
    """(a, b, c, d) of a random product of S = (0 -1; 1 0) and T^k = (1 k; 0 1)."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(length):
        if rng.random() < 0.5:
            a, b, c, d = -c, -d, a, b
        else:
            k = rng.choice((-2, -1, 1, 2))
            a, b = a + k * c, b + k * d
    return a, b, c, d


def test_green_kernel_and_pairing_are_invariant_under_modular_words():
    # tau -> (a tau + b)/(c tau + d) with z -> z/(c tau + d) maps the lattice onto
    # itself; the kernel moves by the constant log|c tau + d| / 2, which drops out
    # of every degree-zero pairing
    rng = random.Random(31)
    for _ in range(30):
        tau = random_tau(rng, real=0.5, low=0.6, high=1.5)
        a, b, c, d = random_modular_word(rng, rng.randint(1, 4))
        scale = c * tau + d
        image = Torus((a * tau + b) / scale)
        torus = Torus(tau)
        points = []
        while len(points) < 5:
            z = rng.random() + rng.random() * tau
            if all(torus.lattice_defect(z - p) > 0.1 for p in points):
                points.append(z)
        p, q = points[:2]
        shifted = green_kernel(image, p / scale, q / scale) - 0.5 * math.log(abs(scale))
        assert abs(shifted - green_kernel(torus, p, q)) < 1e-11

        weights = ([1, -1], [2, -1, -1])
        exponents = []
        for curve, zs in ((torus, points), (image, [z / scale for z in points])):
            mc = MarkedCurve(curve)
            d1 = ComplexDivisor(mc, integral=list(zip(zs[:2], weights[0])))
            d2 = ComplexDivisor(mc, integral=list(zip(zs[2:], weights[1])))
            exponents.append(pairing_exponent(mc, d1, d2))
        assert abs(exponents[0] - exponents[1]) < 1e-11


def test_lattice_defect_is_exact_for_skewed_tau():
    # tau - 5 = 0.01i is a lattice vector, so 0.005i sits halfway to it
    assert abs(Torus(5 + 0.01j).lattice_defect(0.005j) - 0.005) < 1e-15
    rng = random.Random(41)
    for _ in range(200):
        tau = random_tau(rng, real=6.0, low=0.01, high=3.0)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        brute = min(
            abs(z - m - n * tau)
            for n in range(-int(2 * abs(z) / tau.imag) - 2, int(2 * abs(z) / tau.imag) + 3)
            for m in (round((z - n * tau).real) + k for k in (-1, 0, 1))
        )
        assert abs(Torus(tau).lattice_defect(z) - brute) < 1e-12


def test_sphere_kernel_values():
    s = Sphere()
    assert green_kernel(s, 1, 2) == 0.0
    assert abs(green_kernel(s, 0, 3) - math.log(3)) < 1e-14


def test_sphere_kernel_rejects_coincident_and_infinite():
    s = Sphere()
    with pytest.raises(DiagonalSingularityError):
        green_kernel(s, 1 + 1j, 1 + 1j)
    with pytest.raises(DiagonalSingularityError):
        green_kernel(s, CurvePoint.infinity(), CurvePoint.infinity())
    with pytest.raises(DomainError):
        green_kernel(s, CurvePoint.infinity(), 2.0)


def test_torus_kernel_lattice_equivalence_is_diagonal():
    t = Torus(1j)
    with pytest.raises(DiagonalSingularityError):
        green_kernel(t, 0.5, 1.5)


def test_torus_kernel_symmetry_and_periodicity():
    t = Torus(0.3 + 1.1j)
    p, q = 0.2 + 0.4j, 0.7 + 0.9j
    base = green_kernel(t, p, q)
    assert abs(base - green_kernel(t, q, p)) < 1e-12
    for m in (-2, -1, 1, 2):
        for n in (-2, 2):
            assert abs(green_kernel(t, p + m + n * t.tau, q) - base) < 1e-10


def test_green_divisor_closed_form():
    s = Sphere()
    mc = MarkedCurve(s)
    d = ComplexDivisor(mc, integral=[(2, 1), (-2, -1)])
    value = green_divisor(s, d, 1)
    assert abs(value - math.log(1 / 3)) < 1e-14
    assert value.imag == 0.0


def test_green_divisor_empty_and_linearity_in_coefficients():
    s = Sphere()
    mc = MarkedCurve(s, [2.0, -2.0])
    assert green_divisor(s, mc.empty_divisor(), 1) == 0
    i = GaussianRational(0, 1)
    d = ComplexDivisor(mc, marked={0: i, 1: -i})
    value = green_divisor(s, d, 1)
    assert abs(value - 1j * math.log(1 / 3)) < 1e-14


def test_green_divisor_requires_degree_zero():
    s = Sphere()
    mc = MarkedCurve(s)
    d = ComplexDivisor(mc, integral=[(2, 1)])
    with pytest.raises(DegreeZeroRequiredError):
        green_divisor(s, d, 1)


def test_green_divisor_rejects_support_point():
    s = Sphere()
    mc = MarkedCurve(s)
    d = ComplexDivisor(mc, integral=[(2, 1), (-2, -1)])
    with pytest.raises(DiagonalSingularityError):
        green_divisor(s, d, 2)


def test_green_divisor_drops_infinity_terms():
    s = Sphere()
    mc = MarkedCurve(s)
    d = ComplexDivisor(mc, integral=[(0, 2), (1, -1), (CurvePoint.infinity(), -1)])
    value = green_divisor(s, d, 3)
    expected = 2 * math.log(3) - math.log(2)
    assert abs(value - expected) < 1e-14


def test_abel_jacobi_examples():
    t = Torus(1j)
    mc = MarkedCurve(t)
    cancel = ComplexDivisor(mc, integral=[(0.3 + 0.4j, 1), (0.3 + 0.4j, -1)])
    assert abel_jacobi_sum(t, cancel) == 0
    d = ComplexDivisor(mc, integral=[(0.25, 1), (0.75, -1)])
    assert abs(abel_jacobi_sum(t, d) - (-0.5)) < 1e-15
    i = GaussianRational(0, 1)
    mcm = MarkedCurve(t, [0.5, 0.25])
    dm = ComplexDivisor(mcm, marked={0: i, 1: -i})
    assert abs(abel_jacobi_sum(t, dm) - 0.25j) < 1e-15


def test_abel_jacobi_rejects_sphere():
    s = Sphere()
    mc = MarkedCurve(s)
    with pytest.raises(TrivialJacobianError):
        abel_jacobi_sum(s, mc.empty_divisor())


def test_kernel_log_singularity_strength():
    # g(p, q) - log|p - q| stays bounded (and angle-independent) as q -> p
    s = Sphere()
    t = Torus(0.3 + 1.1j)
    p = 0.4 + 0.3j
    for curve in (s, t):
        samples = []
        for k in range(8):
            offset = 1e-6 * cmath.exp(2j * math.pi * k / 8)
            samples.append(green_kernel(curve, p, p + offset) - math.log(1e-6))
        assert max(samples) - min(samples) < 1e-9
        finer = green_kernel(curve, p, p + 1e-8) - math.log(1e-8)
        assert abs(finer - samples[0]) < 1e-5


def test_green_divisor_translation_with_infinity_term():
    s = Sphere()
    mc = MarkedCurve(s)
    d = ComplexDivisor(mc, integral=[(0, 2), (1, -1), (CurvePoint.infinity(), -1)])
    shift = 0.7 - 0.2j
    shifted = ComplexDivisor(
        mc, integral=[(shift, 2), (1 + shift, -1), (CurvePoint.infinity(), -1)]
    )
    base = green_divisor(s, d, 3)
    assert abs(green_divisor(s, shifted, 3 + shift) - base) < 1e-12


def test_torus_point_reduction_and_equality():
    t = Torus(0.3 + 1.1j)
    p = t.reduce_point(CurvePoint(2.6 + 3.3j))
    a, b = t.lattice_coords(p.z)
    assert 0 <= a < 1 and 0 <= b < 1
    assert t.points_equal(p, CurvePoint(2.6 + 3.3j))
    assert not t.points_equal(p, CurvePoint(p.z + 0.1))


@pytest.mark.parametrize("curve", [Sphere(), Torus(0.3 + 1.1j)])
def test_kernel_matrix_matches_green_kernel(curve):
    left = [0.1 + 0.2j, 0.55 + 0.35j, 0.3 + 0.9j]
    right = [0.8 + 0.1j, 0.45 + 0.6j, 0.05 + 0.75j, 0.9 + 0.95j]
    kernel, distance, defined = kernel_matrix(curve, left, right)
    assert kernel.shape == distance.shape == defined.shape == (3, 4)
    assert defined.all()
    for i, p in enumerate(left):
        for j, q in enumerate(right):
            assert kernel[i, j] == green_kernel(curve, p, q)
            assert distance[i, j] == curve.point_distance(p, q)


def test_kernel_matrix_masks_infinity_and_coincident_points_on_sphere():
    inf = CurvePoint.infinity()
    left = [1.0, inf, 2.0]
    right = [1.0 + SPHERE_POINT_TOL / 2, inf, 3.0]
    kernel, distance, defined = kernel_matrix(Sphere(), left, right)
    expected = np.array([[False, False, True], [False, False, False], [True, False, True]])
    assert np.array_equal(defined, expected)
    assert np.all(kernel[~defined] == 0.0)
    assert kernel[0, 2] == math.log(2)
    assert distance[1, 1] == 0.0 and distance[0, 1] == math.inf


def test_kernel_matrix_torus_lattice_translate_is_coincident():
    t = Torus(0.3 + 1.1j)
    p = CurvePoint(0.2 + 0.3j)
    translate = CurvePoint(p.z + 2 - t.tau)
    kernel, distance, defined = kernel_matrix(t, [p], [translate, 0.6 + 0.5j])
    assert not defined[0, 0] and kernel[0, 0] == 0.0
    assert distance[0, 0] < TORUS_POINT_TOL
    assert defined[0, 1]


@pytest.mark.parametrize("curve", [Sphere(), Torus(0.3 + 1.1j), Torus(2.3 + 0.2j)])
def test_kernel_matrix_tests_each_pair_once(monkeypatch, curve):
    cls = type(curve)
    calls = {"point_distance": 0, "points_equal": 0}

    def counting(name):
        method = getattr(cls, name)

        def wrapper(self, p, q):
            calls[name] += 1
            return method(self, p, q)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cls, name, counting(name))
    left = [0.1 + 0.2j, 0.55 + 0.35j, 0.3 + 0.9j]
    right = [0.8 + 0.1j, 0.45 + 0.6j]
    kernel_matrix(curve, left, right)
    assert calls == {"point_distance": 6, "points_equal": 0}
    kernel_matrix(curve, left, left)
    assert calls == {"point_distance": 6 + 3, "points_equal": 0}


@pytest.mark.parametrize("curve", [Sphere(), Torus(0.3 + 1.1j)])
def test_kernel_matrix_of_a_point_list_with_itself_is_exactly_symmetric(curve):
    points = [0.1 + 0.2j, 0.55 + 0.35j, 0.3 + 0.9j, 0.8 + 0.1j]
    kernel, distance, defined = kernel_matrix(curve, points, points)
    assert np.array_equal(kernel, kernel.T)
    assert np.array_equal(distance, distance.T)
    assert np.array_equal(defined, ~np.eye(4, dtype=bool))
    assert np.all(np.diag(kernel) == 0.0)
