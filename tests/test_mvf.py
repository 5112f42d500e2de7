import math
import random
from fractions import Fraction

import pytest

from divpair import (
    ComplexDivisor,
    DomainError,
    GaussianRational,
    LocalExpansion,
    MarkedCurve,
    Sphere,
    Torus,
    expansion_multiply,
    glueing_data,
    is_principal,
    multiplicator,
    normalize_expansion,
    order,
    power_product_orders,
)

I = GaussianRational(0, 1)


def test_normalize_shifts_integer_part():
    e = normalize_expansion(1.2 + 1j, 0, [1.0])
    assert e.leading_index == 1
    assert abs(e.branch_exponent - (0.2 + 1j)) < 1e-15
    assert abs(order(e) - (1.2 + 1j)) < 1e-15


def test_normalize_already_normal_and_negative():
    e = normalize_expansion(0, -3, [2.0, 1.0])
    assert e.branch_exponent == 0 and e.leading_index == -3
    e2 = normalize_expansion(-0.4, 0, [1.0])
    assert e2.leading_index == -1
    assert abs(e2.branch_exponent - 0.6) < 1e-15


def test_normalize_strips_leading_zeros_and_rejects_empty():
    e = normalize_expansion(0.5, 0, [0.0, 0.0, 3.0])
    assert e.leading_index == 2 and e.coeffs[0] == 3.0
    with pytest.raises(DomainError):
        normalize_expansion(0.5, 0, [0.0, 0.0])


def test_order_examples():
    assert order(LocalExpansion(0.3 + 0.4j, 0, (1.0,))) == 0.3 + 0.4j
    assert order(LocalExpansion(0, -2, (1.0,))) == -2
    assert order(LocalExpansion(0.2 + 1j, 1, (1.0,))) == 1.2 + 1j


def test_multiply_exponent_carry():
    half = LocalExpansion(0.5, 0, (1.0,))
    product = expansion_multiply(half, half)
    assert product.branch_exponent == 0 and product.leading_index == 1


def test_multiply_identity_preserves_series():
    a = LocalExpansion(0.3 + 0.4j, 0, (1.0, 1.0))
    one = LocalExpansion(0, 0, (1.0,))
    assert expansion_multiply(a, one) == a


def test_multiply_series_convolution():
    a = LocalExpansion(0, 0, (1.0, 2.0))
    b = LocalExpansion(0, 1, (1.0, -1.0))
    p = expansion_multiply(a, b)
    assert p.leading_index == 1
    assert p.coeffs == (1.0 + 0j, 1.0 + 0j, -2.0 + 0j)


def test_order_additive_on_dyadic_grid():
    rng = random.Random(17)
    grid = 1 << 10
    for _ in range(300):
        a = LocalExpansion(
            complex(rng.randrange(grid) / grid, rng.randrange(-grid, grid) / grid),
            rng.randint(-5, 5),
            (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0,),
        )
        b = LocalExpansion(
            complex(rng.randrange(grid) / grid, rng.randrange(-grid, grid) / grid),
            rng.randint(-5, 5),
            (1.0,),
        )
        assert order(expansion_multiply(a, b)) == order(a) + order(b)


def test_multiplicator_examples():
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    half = ComplexDivisor(mc, marked={0: GaussianRational(Fraction(1, 2)), 1: GaussianRational(Fraction(1, 2))})
    assert abs(multiplicator(mc, half, 0) + 1.0) < 1e-15
    empty = mc.empty_divisor()
    assert multiplicator(mc, empty, 0) == 1.0
    imag = ComplexDivisor(mc, marked={0: I, 1: -I})
    assert abs(multiplicator(mc, imag, 0) - math.exp(-2 * math.pi)) < 1e-15
    assert abs(multiplicator(mc, imag, 1) - math.exp(2 * math.pi)) < 1e-9 * math.exp(2 * math.pi)
    with pytest.raises(DomainError):
        multiplicator(mc, empty, 5)


def test_multiplicator_integral_coefficients_exact():
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    d = ComplexDivisor(mc, marked={0: 3, 1: -7})
    assert multiplicator(mc, d, 0) == 1.0
    assert multiplicator(mc, d, 1) == 1.0


def test_glueing_data_examples():
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    half = GaussianRational(Fraction(1, 2))
    d = ComplexDivisor(mc, marked={0: half, 1: half}, integral=[(3.0, -1)])
    data = glueing_data(mc, d)
    assert abs(data.multiplicators[0] + 1) < 1e-15
    assert abs(data.multiplicators[1] + 1) < 1e-15
    assert abs(data.multiplicator_product - data.product_expected) < 1e-12

    imag = ComplexDivisor(mc, marked={0: I, 1: -I})
    data2 = glueing_data(mc, imag)
    assert abs(data2.multiplicator_product - 1.0) < 1e-12
    assert abs(data2.product_expected - 1.0) < 1e-15


def test_is_principal_sphere_degree_zero():
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    d = ComplexDivisor(mc, marked={0: I, 1: -I})
    assert is_principal(mc, d).principal
    assert not is_principal(mc, ComplexDivisor(mc, marked={0: 2})).principal


def test_is_principal_torus_lattice_test():
    t = Torus(1j)
    mc = MarkedCurve(t)
    off = ComplexDivisor(mc, integral=[(0.3, 1), (0.3 + 0.5j, -1)])
    cert = is_principal(mc, off)
    assert not cert.principal
    assert not cert.periods_integral
    same = ComplexDivisor(mc, integral=[(0.2, 1), (0.2 + 1 + 1j, -1)])
    assert same.is_empty()  # lattice-equal points cancel outright
    cert2 = is_principal(mc, same)
    assert cert2.principal and cert2.periods_integral


def test_monodromy_certificate_integer_principal():
    t = Torus(0.2 + 1.3j)
    mc = MarkedCurve(t)
    p = t.from_lattice_coords(0.31, 0.22)
    r = t.from_lattice_coords(0.55, 0.13)
    s = 2 * p - r
    d = ComplexDivisor(mc, integral=[(p, 2), (r, -1), (s, -1)])
    cert = is_principal(mc, d)
    assert cert.principal and cert.periods_integral
    assert cert.period_defect < 1e-9


def test_monodromy_certificate_support_near_cell_seam():
    # a balance point reduced to coordinate ~0.998 forces the period
    # contours through the seam gap rather than the cell edge
    t = Torus(0.3324878886872544 + 1.351046209948934j)
    mc = MarkedCurve(t)
    p = t.from_lattice_coords(0.15128401109543999, 0.20090815019851777)
    r = t.from_lattice_coords(0.07471391250130205, 0.6608651229970433)
    s = 2 * r - p
    d = ComplexDivisor(mc, integral=[(p, 1), (r, -2), (s, 1)])
    cert = is_principal(mc, d)
    assert cert.principal and cert.periods_integral
    assert cert.period_defect < 1e-9


def test_monodromy_certificate_complex_principal():
    t = Torus(0.2 + 1.3j)
    c = GaussianRational(2, 1)  # 2 + i
    qa = t.from_lattice_coords(0.62, 0.55)
    qb = qa - 1.0 / c.to_complex()
    mc = MarkedCurve(t, [qa, qb])
    d = ComplexDivisor(mc, marked={0: c, 1: -c})
    cert = is_principal(mc, d)
    assert cert.principal and cert.periods_integral
    assert cert.period_defect < 1e-8
    rotated = ComplexDivisor(mc, marked={0: I, 1: -I})
    cert2 = is_principal(mc, rotated)
    assert not cert2.principal and not cert2.periods_integral


def test_power_product_orders_sum_to_zero():
    rng = random.Random(23)
    for _ in range(50):
        count = rng.randint(1, 5)
        points = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(count)]
        exps = [
            GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
            )
            for _ in range(count)
        ]
        orders = power_product_orders(points, exps)
        total = GaussianRational(0)
        for _, e in orders:
            total = total + e
        assert total.is_zero()
        assert orders[-1][0].at_infinity


@pytest.mark.parametrize("tau", [2.7 + 0.3j, -1.2 + 0.6j, 0.45 + 0.2j])
def test_cycle_periods_off_the_fundamental_domain_match_the_unreduced_integrand(tau):
    # the periods are integrated in the coordinate s*z of the reduced modulus, with
    # the linear part of the log-derivative added in closed form; the same contour
    # integrated with theta1_log_derivative(z - P, tau) at every node must agree
    from divpair.curve import theta1_log_derivative
    from divpair.mvf import _boundary_offset, _cycle_periods, _segment_integral

    t = Torus(tau)
    mc = MarkedCurve(t)
    p, r = t.from_lattice_coords(0.31, 0.22), t.from_lattice_coords(0.55, 0.13)
    for support in ([(p, 2), (r, -1), (2 * p - r, -1), (0.7 * tau, 1), (0, -1)], [(p, 1), (r, 1)]):
        items = ComplexDivisor(mc, integral=support).support_items()
        a_period, b_period, clearance = _cycle_periods(t, items)

        def integrand(z, items=items):
            return sum(coeff * theta1_log_derivative(z - point.z, tau) for point, coeff in items)

        coords = [t.lattice_coords(point.z) for point, _ in items]
        a0 = _boundary_offset([a % 1.0 for a, _ in coords])
        b0 = _boundary_offset([b % 1.0 for _, b in coords])
        panels = 24 if clearance >= 0.05 else 48 if clearance >= 0.02 else 96
        direct_a = _segment_integral(integrand, t.from_lattice_coords(0.0, b0), 1.0 + 0j, panels, 32)
        direct_b = _segment_integral(integrand, t.from_lattice_coords(a0, 0.0), tau, panels, 32)
        assert abs(a_period - direct_a) < 1e-9 * max(1.0, abs(direct_a))
        assert abs(b_period - direct_b) < 1e-9 * max(1.0, abs(direct_b))

    principal = ComplexDivisor(mc, integral=[(p, 2), (r, -1), (2 * p - r, -1)])
    cert = is_principal(mc, principal)
    assert cert.principal and cert.periods_integral and cert.period_defect < 1e-9
    shifted = ComplexDivisor(mc, integral=[(p, 2), (r, -1), (2 * p - r + 0.1, -1)])
    cert = is_principal(mc, shifted)
    assert not cert.principal and not cert.periods_integral
