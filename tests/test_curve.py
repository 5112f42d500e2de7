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
    is_principal,
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


def triple_product(z, tau, factors=200):
    """Independent oracle: Jacobi's triple product at tau itself, no reduction, for moderate Im tau.

    With q = exp(i pi tau) and D_n = 1 - 2 q^(2n) cos(2 pi z) + q^(4n), returns
    (theta1, theta1'/theta1, log|theta1| - pi Im(z)^2/Im tau) from
        theta1(z) = 2 q^(1/4) sin(pi z) prod_n (1 - q^(2n)) D_n,
        theta1'/theta1(z) = pi cot(pi z) + 4 pi sin(2 pi z) sum_n q^(2n)/D_n.
    """
    q = cmath.exp(1j * math.pi * tau)
    cos, sin = cmath.cos(2 * math.pi * z), cmath.sin(2 * math.pi * z)
    value = 2 * cmath.exp(0.25j * math.pi * tau) * cmath.sin(math.pi * z)
    derivative = math.pi / cmath.tan(math.pi * z)
    for n in range(1, factors + 1):
        qn = q ** (2 * n)
        factor = 1 - 2 * qn * cos + qn * qn
        value *= (1 - qn) * factor
        derivative += 4 * math.pi * sin * qn / factor
    kernel = math.log(abs(value)) - math.pi * z.imag ** 2 / tau.imag
    return value, derivative, kernel


def oracle_cases(rng, reduced):
    """(z, tau) pairs: tau in the fundamental domain, or anywhere with Im tau in [0.3, 0.9];
    z = a + b tau with a, b in [-1, 1], (a, b) at least 0.05 from every lattice point."""
    cases = []
    while len(cases) < 60:
        if reduced:
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            if abs(tau) < 1:
                continue
        else:
            tau = random_tau(rng, low=0.3, high=0.9)
        a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if max(abs(a - round(a)), abs(b - round(b))) < 0.05:
            continue
        cases.append((a + b * tau, tau))
    return cases


@pytest.mark.parametrize("reduced", [True, False])
def test_theta_evaluators_match_the_triple_product(reduced):
    rng = random.Random(29 if reduced else 31)
    for z, tau in oracle_cases(rng, reduced):
        value, derivative, kernel = triple_product(z, tau)
        assert abs(theta1(z, tau) - value) <= 1e-13 * abs(value)
        assert abs(theta1_log_derivative(z, tau) - derivative) <= 1e-13 * max(1.0, abs(derivative))
        assert abs(green_kernel(Torus(tau), z, 0) - kernel) <= 1e-13 * max(1.0, abs(kernel))


def test_fourier_term_count_is_solved_from_the_reduced_modulus():
    # K is the least integer with |q'|^(K^2) < 1e-17: 4 at the lowest point of the
    # fundamental domain, 1 once exp(-pi Im tau') < 1e-17
    assert len(Torus(complex(0.5, math.sqrt(3) / 2))._fourier) + 1 == 4
    assert len(Torus(1j)._fourier) + 1 == 4
    assert len(Torus(1000j)._fourier) + 1 == 1


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


def test_theta1_outside_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="float range"):
        theta1(0.3 + 2900j, 1000j)
    torus = Torus(1000j)
    for k in range(1, 30):
        z = 0.3 + 100j * k
        # where the scalar reference overflows, and only there
        try:
            expected = scalar_theta1(torus, z)
        except OverflowError:
            with pytest.raises(DomainError):
                theta1(z, 1000j)
        else:
            assert theta1(z, 1000j) == expected


def test_theta1_log_derivative_pole_is_a_diagonal_singularity():
    # the coincidence test of green_kernel: lattice distance below TORUS_POINT_TOL
    for z, tau in ((0, 1j), (1 + 1j, 1j), (1e-12, 1j), (2 - 3 * (2.3 + 0.4j) + 1e-12j, 2.3 + 0.4j)):
        with pytest.raises(DiagonalSingularityError):
            theta1_log_derivative(z, tau)
    for z, tau in ((1e-6, 1j), (1 + 1j + 1e-6j, 1j), (2 - 3 * (2.3 + 0.4j) + 1e-6, 2.3 + 0.4j)):
        assert cmath.isfinite(theta1_log_derivative(z, tau))


# Scalar references: the centring and the paired Horner loops in x and u = q x,
# one Python complex at a time.  The array centring must equal them bit for bit;
# the kernel, theta1 and the log-derivative sum, summed in expm1 form over whole
# arrays, agree with them to a few ulps (ULPS).


def scalar_centre(torus, w):
    """(z', n, m, odd) with s*w = (-1)^odd z' + m + n tau', one complex at a time."""
    tau = torus._reduced_tau
    z = torus._scale * w
    n = round(z.imag / tau.imag)
    z -= n * tau
    m = round(z.real)
    z -= m
    odd = z.imag < 0
    return (-z if odd else z), n, m, odd


def scalar_sums(torus, z):
    """x, p and the Horner sums A(q x), A(p) and their (2k + 1)-weighted twins at z'."""
    x = cmath.exp(2j * math.pi * z)
    p = cmath.exp(1j * math.pi * torus._reduced_tau - 2j * math.pi * z)
    u, high, low, high_odd, low_odd = cmath.exp(1j * math.pi * torus._reduced_tau) * x, 0j, 0j, 0j, 0j
    for a, b in torus._fourier:
        high = (high + a) * u
        low = (low + a) * p
        high_odd = (high_odd + b) * u
        low_odd = (low_odd + b) * p
    return x, p, high, low, high_odd, low_odd


def scalar_kernel(torus, w):
    height = torus._reduced_tau.imag
    z = scalar_centre(torus, w)[0]
    x, _, high, low, _, _ = scalar_sums(torus, z)
    im = z.imag
    return math.log(abs((x - 1.0) + (x * high - low))) + math.pi * im * (1.0 - im / height) + torus._kernel_constant


def scalar_ratio(torus, w):
    """(theta1'/theta1)(w' | tau') / (i pi) at the centred point w' of s*w, and n, odd of its centring."""
    z, n, _, odd = scalar_centre(torus, w)
    x, _, high, low, high_odd, low_odd = scalar_sums(torus, z)
    return ((x + 1.0) + (x * high_odd + low_odd)) / ((x - 1.0) + (x * high - low)), n, odd


def scalar_log_derivative_sum(torus, z, items):
    """The sum at one node z, in torus coordinates: s and beta applied as the library applies them."""
    total = 0j
    for point, coeff in items:
        ratio, n, odd = scalar_ratio(torus, z - point)
        total += coeff * ((-ratio if odd else ratio) - 2 * n)
    weight = sum(coeff for _, coeff in items)
    moment = sum(coeff * point for point, coeff in items)
    return torus._scale * (1j * math.pi * total) + torus._slope * (weight * z - moment)


def log_derivative_magnitude(torus, z, items):
    """The sum of the moduli of the parts of ``scalar_log_derivative_sum``: rounding moves the sum
    by a few ulps of this."""
    ratios, moments = 0.0, 0.0
    for point, coeff in items:
        ratio, n, _ = scalar_ratio(torus, z - point)
        ratios += abs(coeff) * (abs(ratio) + 2 * abs(n))
        moments += abs(coeff) * (abs(z) + abs(point))
    return abs(torus._scale) * math.pi * ratios + abs(torus._slope) * moments


def scalar_theta1(torus, w):
    tau, pi_i = torus._reduced_tau, 1j * math.pi
    z, n, m, odd = scalar_centre(torus, w)
    x, p = cmath.exp(2.0 * pi_i * z), cmath.exp(pi_i * (tau - 2.0 * z))
    u, high, low = cmath.exp(pi_i * tau) * x, 0j, 0j
    for a, _ in torus._fourier:
        high = (high + a) * u
        low = (low + a) * p
    log_scale = torus._log_constant + 0.5 * torus._slope * w * w + pi_i * (m + n + odd - 0.5 + 0.25 * tau - z)
    if n:
        log_scale -= pi_i * n * (n * tau + 2.0 * (-z if odd else z))
    return cmath.exp(log_scale) * ((x - 1.0) + (x * high - low))


def log_scale_magnitude(torus, w):
    """1 + the moduli of the parts of L in theta1 = exp(L) S (``scalar_theta1``): rounding moves L,
    and so theta1 relatively, by a few ulps of this."""
    tau = torus._reduced_tau
    z, n, m, _ = scalar_centre(torus, w)
    lattice = abs(m) + abs(n) + 1 + abs(tau) + abs(z) + abs(n) * (abs(n * tau) + 2 * abs(z))
    return 1 + abs(torus._log_constant) + abs(0.5 * torus._slope * w * w) + math.pi * lattice


ULPS = 8 * 2.0 ** -52


def outcome(f, *args):
    """f(*args), or OverflowError where it leaves the float range: the library raises
    DomainError there, the scalar reference cmath's OverflowError."""
    try:
        return f(*args)
    except (DomainError, OverflowError):
        return OverflowError


ORACLE_TAUS = [cmath.exp(1j * math.pi / 3), 1j, 0.3 + 0.4j, 2.3 + 0.4j, -7.1 + 0.004j, 0.45 + 0.05j, 1000j]


@pytest.mark.parametrize("tau", ORACLE_TAUS)
def test_array_centring_equals_the_scalar_loops_bit_for_bit(tau):
    rng = random.Random(61)
    torus = Torus(tau)
    # off the cell: up to three periods away in each direction, and on its edges
    points = [rng.uniform(-3, 3) + rng.uniform(-3, 3) * tau for _ in range(14)]
    points += [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]
    points += [0.5, 0.5 * tau, 0.5 + 0.5 * tau, -0.5 - 1.5 * tau]
    kernel, _, defined = kernel_matrix(torus, points, points[::-1])
    for i, p in enumerate(points):
        for j, q in enumerate(points[::-1]):
            if defined[i, j]:
                expected = scalar_kernel(torus, p - q)
                assert abs(kernel[i, j] - expected) <= ULPS * max(1.0, abs(expected))
    for z in points[:-4]:
        # theta1 itself leaves the float range far off the real axis of a thin torus
        expected = outcome(scalar_theta1, torus, z)
        if expected is OverflowError:
            assert outcome(theta1, z, tau) is OverflowError
        else:
            assert abs(theta1(z, tau) - expected) <= ULPS * log_scale_magnitude(torus, z) * abs(expected)
        expected = scalar_log_derivative_sum(torus, z, ((0j, 1),))
        assert abs(theta1_log_derivative(z, tau) - expected) <= ULPS * log_derivative_magnitude(torus, z, ((0j, 1),))
    items = list(zip(points[:4], (2, -1, 1j, -1 - 1j)))
    nodes = points[4:]
    sums = torus._log_derivative_sum(np.array(nodes), items)
    for value, z in zip(sums.tolist(), nodes):
        expected = scalar_log_derivative_sum(torus, z, items)
        assert abs(value - expected) <= ULPS * log_derivative_magnitude(torus, z, items)


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


def brute_lattice_distance(z, tau):
    return min(
        abs(z - m - n * tau)
        for n in range(-int(2 * abs(z) / tau.imag) - 2, int(2 * abs(z) / tau.imag) + 3)
        for m in (round((z - n * tau).real) + k for k in (-1, 0, 1))
    )


def test_lattice_defect_is_exact_for_skewed_tau():
    # tau - 5 = 0.01i is a lattice vector, so 0.005i sits halfway to it
    assert abs(Torus(5 + 0.01j).lattice_defect(0.005j) - 0.005) < 1e-15
    rng = random.Random(41)
    for _ in range(200):
        tau = random_tau(rng, real=6.0, low=0.01, high=3.0)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert abs(Torus(tau).lattice_defect(z) - brute_lattice_distance(z, tau)) < 1e-12
    # where the four candidates 0 and tau' + k (k = -1, 0, 1) are tight: tau at the corners
    # and on the edges of the fundamental domain, z on cell edges, at half periods and
    # within 1e-9 of both, where two or more lattice points are (nearly) equally far
    corners = [cmath.exp(1j * math.pi / 3), cmath.exp(2j * math.pi / 3), 1j, 0.5 + 1j, -0.5 + 1j]
    for tau in corners + [tau + 3 for tau in corners] + [-1 / tau for tau in corners]:
        torus = Torus(tau)
        for a in (0.0, 0.5, 1.0, -1.5, rng.random()):
            for b in (0.0, 0.5, 1.0, -0.5, rng.random()):
                for nudge in (0, 1e-9, -1e-9j, 1e-9 * cmath.exp(2j * math.pi * rng.random())):
                    z = a + b * tau + nudge
                    assert abs(torus.lattice_defect(z) - brute_lattice_distance(z, tau)) < 1e-12


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
    assert green_divisor(s, ComplexDivisor(mc), 1) == 0
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
        abel_jacobi_sum(s, ComplexDivisor(mc))


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


@pytest.mark.parametrize("tau", [0.5 + 0.0001j, -0.25 + 0.01j])
def test_reduce_point_keeps_the_decimal_grid_inside_the_cell(tau):
    # y / Im tau is an integer at every x + yi of the two-decimal grid: each point lies on
    # the cell edge b = 0, where z - floor(a) - floor(b) tau rounds to b just below 1 or 0
    t = Torus(tau)
    grid = [round(-1 + k / 100, 2) for k in range(301)]
    for x in grid:
        for y in grid:
            z = complex(x, y)
            stored = t.reduce_point(z).z
            a, b = t.lattice_coords(stored)
            assert 0 <= a < 1 and b == 0.0, (z, a, b)
            assert t.points_equal(stored, z)


def test_reduce_point_off_the_cell_edges_is_the_floor_representative():
    rng = random.Random(27)
    for _ in range(2000):
        tau = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-4, 2))
        t = Torus(tau)
        z = t.from_lattice_coords(rng.uniform(-50, 50), rng.uniform(-50, 50))
        a, b = t.lattice_coords(z)
        if min(abs(a - round(a)), abs(b - round(b))) < 1e-9:
            continue
        assert t.reduce_point(z).z == z - math.floor(a) - math.floor(b) * tau


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


def count_calls(monkeypatch, cls, names):
    """Replace each named method of cls by a counting wrapper; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        method = getattr(cls, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    for name in names:
        monkeypatch.setattr(cls, name, counting(name))
    return calls


@pytest.mark.parametrize("curve", [Sphere(), Torus(0.3 + 1.1j), Torus(2.3 + 0.2j)])
def test_kernel_matrix_tests_each_pair_once(monkeypatch, curve):
    # one reduction pass per call is the only coincidence test, with no per-pair comparison,
    # and on the torus the kernel reads that pass's centred points, with no second centring
    names = ("_reduce_pairs", "point_distance", "points_equal")
    if isinstance(curve, Torus):
        names += ("_centred",)
    calls = count_calls(monkeypatch, type(curve), names)
    left = [0.1 + 0.2j, 0.55 + 0.35j, 0.3 + 0.9j]
    right = [0.8 + 0.1j, 0.45 + 0.6j]
    kernel_matrix(curve, left, right)
    once = {name: int(name in ("_reduce_pairs", "_centred")) for name in names}
    assert calls == once
    kernel_matrix(curve, left, left)
    assert calls == {name: 2 * count for name, count in once.items()}


@pytest.mark.parametrize("curve", [Sphere(), Torus(0.3 + 1.1j), Torus(2.3 + 0.2j)])
def test_kernel_matrix_evaluates_each_defined_entry_once(monkeypatch, curve):
    # every defined entry goes through one batched evaluator call, none twice
    batches = []
    evaluate = type(curve)._kernel_values

    def recording(self, differences):
        batches.append(len(differences))
        return evaluate(self, differences)

    monkeypatch.setattr(type(curve), "_kernel_values", recording)
    calls = count_calls(monkeypatch, type(curve), ("kernel",))
    left = [0.1 + 0.2j, 0.55 + 0.35j, 0.3 + 0.9j]
    kernel_matrix(curve, left, [0.8 + 0.1j, left[1]])
    assert batches == [5]
    kernel_matrix(curve, left, left)
    assert batches == [5, 3]
    assert calls == {"kernel": 0}


def test_monodromy_certificate_evaluates_each_contour_in_one_call(monkeypatch):
    # one integrand call per contour, over all 32 x panels + 1 trapezoid nodes of it
    batches = []
    evaluate = Torus._log_derivative_sum

    def recording(self, nodes, items):
        batches.append(len(nodes))
        return evaluate(self, nodes, items)

    monkeypatch.setattr(Torus, "_log_derivative_sum", recording)
    torus = Torus(0.1 + 1.1j)
    mc = MarkedCurve(torus)
    p, q = torus.from_lattice_coords(0.2, 0.3), torus.from_lattice_coords(0.6, 0.7)
    # clearance 0.3 and short contours: 24 panels each
    cert = is_principal(mc, ComplexDivisor(mc, integral=[(p, 1), (q, -1)]))
    assert batches == [24 * 32 + 1, 24 * 32 + 1]
    assert cert.quadrature_nodes == sum(batches) and 0 <= cert.quadrature_error < 1e-13


@pytest.mark.parametrize("tau", [0.3 + 1.1j, 2.3 + 0.2j, -7.1 + 0.004j, 0.45 + 0.05j, 0.2 + 30j])
def test_kernel_matrix_distances_equal_point_distance_bit_for_bit(tau):
    rng = random.Random(53)
    torus = Torus(tau)
    left = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(12)]
    right = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(9)]
    right.append(left[0] + 2 - 3 * tau)  # a lattice translate: distance ~ 0
    for first, second in ((left, right), (left, left)):
        _, distance, defined = kernel_matrix(torus, first, second)
        for i, p in enumerate(first):
            for j, q in enumerate(second):
                # a mirrored entry is the upper triangle's
                pair = (q, p) if first is second and j < i else (p, q)
                expected = 0.0 if first is second and i == j else torus.point_distance(*pair)
                assert distance[i, j] == expected
                assert defined[i, j] == (expected >= TORUS_POINT_TOL)


def test_sphere_distance_pass_equals_point_distance_bit_for_bit():
    rng = random.Random(59)
    inf = CurvePoint.infinity()
    points = [complex(rng.gauss(0, 1e3), rng.gauss(0, 1e-3)) for _ in range(10)] + [inf, 1e-300j]
    _, distance, _ = kernel_matrix(Sphere(), points, points[::-1])
    for i, p in enumerate(points):
        for j, q in enumerate(points[::-1]):
            assert distance[i, j] == Sphere().point_distance(p, q)


def test_marked_curve_checks_distinctness_in_one_pass(monkeypatch):
    torus = Torus(2.3 + 0.2j)
    calls = count_calls(monkeypatch, Torus, ("_reduce_pairs", "point_distance", "points_equal"))
    marks = [0.1 + 0.05j, 0.55 + 0.15j, 0.3 + 0.1j, 0.8 + 0.02j]
    MarkedCurve(torus, marks)
    assert calls == {"_reduce_pairs": 1, "point_distance": 0, "points_equal": 0}
    with pytest.raises(DomainError):
        MarkedCurve(torus, marks + [marks[2] - 1 + 2 * torus.tau + TORUS_POINT_TOL / 4])
    with pytest.raises(DomainError):
        MarkedCurve(Sphere(), [1.0, 2.0, 1.0 + SPHERE_POINT_TOL / 2])
    MarkedCurve(Sphere(), [1.0, 2.0, 1.0 + 2 * SPHERE_POINT_TOL])


def mpmath_kernel(mpmath, p, q, tau):
    """g(p, q) on C/(Z + tau*Z) to 50 digits: tau reduced by exact S and T steps,
    g_tau(w) = g_{-1/tau}(w/tau) - log|tau|/2, w centred, theta1 from its series."""
    mp = mpmath.mp
    t, w, constant = mpmath.mpc(tau), mpmath.mpc(p) - mpmath.mpc(q), mpmath.mpf(0)
    while True:
        t -= mpmath.nint(t.real)
        if abs(t) >= 1:
            break
        constant -= mpmath.log(abs(t)) / 2
        w, t = w / t, -1 / t
    w -= mpmath.nint(w.imag / t.imag) * t
    w -= mpmath.nint(w.real)
    theta = 2 * mpmath.fsum(
        (-1) ** k * mpmath.exp(1j * mp.pi * t * (k + 0.5) ** 2) * mpmath.sin((2 * k + 1) * mp.pi * w)
        for k in range(30)
    )
    return mpmath.log(abs(theta)) - mp.pi * w.imag ** 2 / t.imag + constant


@pytest.mark.parametrize("low, high, bound", [(1e-3, 1e-2, 3e-13), (1e-2, 0.1, 1e-13), (0.1, 1.0, 2e-14)])
def test_torus_kernel_matches_extended_precision_at_small_im_tau(low, high, bound):
    # the Gaussian term taken at the centred reduced point cannot cancel against
    # log|theta1|; taken at the uncentred point, the [1e-3, 1e-2] band reached 1.1e-12
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(7)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(40):
            tau = complex(rng.uniform(-0.5, 0.5), low * (high / low) ** rng.random())
            torus = Torus(tau)
            points = [rng.uniform(-1, 1) + rng.uniform(-1, 1) * tau for _ in range(4)]
            kernel, _, _ = kernel_matrix(torus, points[:2], points[2:])
            for i, p in enumerate(points[:2]):
                for j, q in enumerate(points[2:]):
                    assert kernel[i, j] == green_kernel(torus, p, q)
                    reference = mpmath_kernel(mpmath, p, q, tau)
                    worst = max(worst, float(abs(kernel[i, j] - reference) / max(1, abs(reference))))
    assert worst < bound


def mpmath_log_derivative(mpmath, z, tau):
    """(theta1'/theta1)(z | tau) to 50 digits: tau reduced by exact S and T steps,
    (theta1'/theta1)(w | t) = (theta1'/theta1)(w/t | -1/t)/t - 2 pi i w/t, w centred
    with (theta1'/theta1)(w + t) = (theta1'/theta1)(w) - 2 pi i, theta1 and theta1' from their series."""
    mp = mpmath.mp
    t, w, factor, offset = mpmath.mpc(tau), mpmath.mpc(z), mpmath.mpc(1), mpmath.mpc(0)
    while True:
        t -= mpmath.nint(t.real)
        if abs(t) >= 1:
            break
        offset -= factor * 2j * mp.pi * w / t
        factor /= t
        w, t = w / t, -1 / t
    n = mpmath.nint(w.imag / t.imag)
    w -= n * t
    w -= mpmath.nint(w.real)
    terms = [(-1) ** k * mpmath.exp(1j * mp.pi * t * (k + 0.5) ** 2) for k in range(30)]
    theta = mpmath.fsum(c * mpmath.sin((2 * k + 1) * mp.pi * w) for k, c in enumerate(terms))
    slope = mpmath.fsum(c * (2 * k + 1) * mp.pi * mpmath.cos((2 * k + 1) * mp.pi * w) for k, c in enumerate(terms))
    return factor * (slope / theta - 2j * mp.pi * n) + offset


@pytest.mark.parametrize("low, high, bound", [(1e-3, 1e-2, 1e-12), (1e-2, 0.1, 1e-13), (0.1, 1.0, 1e-14)])
def test_theta1_log_derivative_matches_extended_precision_at_small_im_tau(low, high, bound):
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(11)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(60):
            tau = complex(rng.uniform(-0.5, 0.5), low * (high / low) ** rng.random())
            z = rng.uniform(-1, 1) + rng.uniform(-1, 1) * tau
            reference = mpmath_log_derivative(mpmath, z, tau)
            error = abs(theta1_log_derivative(z, tau) - complex(reference))
            worst = max(worst, error / max(1.0, float(abs(reference))))
    assert worst < bound


@pytest.mark.parametrize("modulus", [2e-9, 1e-7, 1e-5, 1e-3, 1e-2])
def test_torus_kernel_is_exact_to_rounding_near_the_diagonal(modulus):
    # the series in expm1 form does not cancel as w -> 0; summed from x = exp(2 pi i w'), its
    # x - 1 and x^(2k + 1) - 1 left errors of 1.2e-10 at |w| = 1e-7 and 3.8e-9 at |w| = 2e-9
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(67)
    with mpmath.workdps(50):
        for _ in range(30):
            tau = random_tau(rng)
            q = rng.uniform(-1, 1) + rng.uniform(-1, 1) * tau
            p = q + cmath.rect(modulus, rng.uniform(-math.pi, math.pi))
            reference = float(mpmath_kernel(mpmath, p, q, tau))
            assert abs(green_kernel(Torus(tau), p, q) - reference) <= 1e-13


@pytest.mark.parametrize("modulus", [1e-9, 1e-7, 1e-5, 1e-3])
def test_theta1_is_exact_to_rounding_near_its_zero(modulus):
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(71)
    with mpmath.workdps(50):
        for _ in range(30):
            # jtheta takes q^(1/4) on the principal branch, which is exp(i pi tau/4) for |Re tau| < 1
            tau = random_tau(rng, real=0.95, low=0.2)
            w = cmath.rect(modulus, rng.uniform(-math.pi, math.pi))
            reference = complex(mpmath.jtheta(1, mpmath.pi * w, mpmath.exp(1j * mpmath.pi * tau)))
            assert abs(theta1(w, tau) - reference) <= 1e-13 * abs(reference)


@pytest.mark.parametrize("modulus", [2e-9, 1e-7, 1e-5, 1e-3, 1e-2])
def test_theta1_log_derivative_is_exact_to_rounding_near_its_poles(modulus):
    # both sums of the ratio in expm1 form stay away from zero as w -> 0; the denominator
    # (x - 1) + (x A(q x) - A(p)), summed from x = exp(2 pi i w'), left 1.3e-10 at |w| = 1e-7
    # and 7.1e-9 at 2e-9
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(73)
    with mpmath.workdps(50):
        for _ in range(30):
            tau = random_tau(rng)
            w = cmath.rect(modulus, rng.uniform(-math.pi, math.pi))
            reference = complex(mpmath_log_derivative(mpmath, w, tau))
            assert abs(theta1_log_derivative(w, tau) - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("curve", [Sphere(), Torus(0.3 + 1.1j)])
def test_kernel_matrix_of_a_point_list_with_itself_is_exactly_symmetric(curve):
    points = [0.1 + 0.2j, 0.55 + 0.35j, 0.3 + 0.9j, 0.8 + 0.1j]
    kernel, distance, defined = kernel_matrix(curve, points, points)
    assert np.array_equal(kernel, kernel.T)
    assert np.array_equal(distance, distance.T)
    assert np.array_equal(defined, ~np.eye(4, dtype=bool))
    assert np.all(np.diag(kernel) == 0.0)
