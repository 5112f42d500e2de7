import math
import random
from fractions import Fraction

import numpy as np
import pytest

from divpair import (
    ComplexDivisor,
    CurvePoint,
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


def _loop_split(a: LocalExpansion, b: LocalExpansion):
    """The carry-and-correction search for the product's (A, n0); None where A is not normal."""
    order_sum = order(a) + order(b)
    n0 = a.leading_index + b.leading_index + (a.branch_exponent.real + b.branch_exponent.real >= 1.0)
    exponent = order_sum - n0
    while exponent.real < 0.0:
        n0 -= 1
        exponent = order_sum - n0
    while exponent.real >= 1.0:
        n0 += 1
        exponent = order_sum - n0
    return (exponent, n0) if 0.0 <= exponent.real < 1.0 else None


def test_order_split_keeps_a_tiny_negative_total_order_normal():
    # order sum -2**-55: the total order + 1 rounds to 1.0, so floor(order) = -1 leaves Re A = 1
    product = expansion_multiply(LocalExpansion(0.75 * 2**-53, 0, (1,)), LocalExpansion(1 - 2**-53, -1, (1,)))
    assert (product.branch_exponent, product.leading_index) == (0, 0)
    e = normalize_expansion(-2.78e-17 + 0.5j, 0, (1,))
    assert (e.branch_exponent, e.leading_index) == (0.5j, 0)
    e = normalize_expansion(-2**-53, 0, (1,))  # one ulp further: the split is exact again
    assert (e.branch_exponent, e.leading_index) == (1 - 2**-53, -1)


def test_order_split_equals_the_carry_search_wherever_that_is_normal():
    rng = random.Random(29)
    exponents = (
        lambda: rng.randrange(1 << 12) / (1 << 12),  # dyadic
        lambda: 1.0 - rng.randrange(1, 1 << 8) * 2.0**-52,  # just below 1
        lambda: rng.randrange(1 << 8) * 2.0**-rng.randint(50, 60),  # tiny
        lambda: rng.random(),
    )
    for _ in range(20000):
        a, b = (
            LocalExpansion(complex(rng.choice(exponents)(), rng.uniform(-1, 1)), rng.randint(-3, 3), (1,))
            for _ in range(2)
        )
        expected = _loop_split(a, b)
        if expected is None:
            continue
        product = expansion_multiply(a, b)
        assert (product.branch_exponent, product.leading_index) == expected


def test_multiplicator_examples():
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    half = ComplexDivisor(mc, marked={0: GaussianRational(Fraction(1, 2)), 1: GaussianRational(Fraction(1, 2))})
    assert abs(multiplicator(mc, half, 0) + 1.0) < 1e-15
    empty = ComplexDivisor(mc)
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


@pytest.mark.parametrize("degree", [2, 501])
def test_glueing_data_integral_marked_degree_gives_exactly_one(degree):
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    third = GaussianRational(Fraction(1, 3))
    d = ComplexDivisor(mc, marked={0: degree - third, 1: third}, integral=[(3.0, -degree)])
    data = glueing_data(mc, d)
    assert d.marked_degree() == degree
    assert data.product_expected == 1 + 0j


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
    # seam gaps down to clearance 1e-3 in either coordinate, with integer and complex coefficients:
    # the certificate agrees with Abel-Jacobi on both sides
    kappa = GaussianRational(2, 1)
    qa = t.from_lattice_coords(0.62, 0.55)
    mc = MarkedCurve(t, [qa, qa - 1.0 / kappa.to_complex()])  # kappa * (qa - qb) = 1
    for clearance in (1e-3, 3e-3, 0.01, 0.05):
        for swap in (False, True):
            def at(low, other):
                return t.from_lattice_coords(*((other, low) if swap else (low, other)))

            # one coordinate takes the values 0.5, 1 - clearance and 2 * 0.5 - (1 - clearance)
            p, r = at(0.5, 0.3), at(1 - clearance, 0.45)
            shift = at(0, 0.1)  # along the other coordinate, so the seam gap stays
            for marked, other_marked in (({}, {}), ({0: kappa, 1: -kappa}, {0: I, 1: -I})):
                principal = ComplexDivisor(mc, integral=[(p, 2), (r, -1), (2 * p - r, -1)], marked=marked)
                other = ComplexDivisor(mc, integral=[(p, 2), (r, -1), (2 * p - r + shift, -1)], marked=other_marked)
                for d, expected in ((principal, True), (other, False)):
                    assert min(seam_gaps(t, d.support_points())) == pytest.approx(clearance)
                    cert = is_principal(mc, d)
                    assert cert.principal is expected and cert.periods_integral is expected
                    if expected:
                        assert cert.period_defect < 1e-12


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


def panel_steps(length_over_distance):
    """Trapezoid steps on one contour: 32 per panel, no panel longer than 4 pole distances, 24 to 4096 panels."""
    return 32 * min(max(24, math.ceil(length_over_distance / 4)), 4096)


def seam_gaps(t, points):
    """Half the seam gap, (min + 1 - max) / 2, of each stored lattice coordinate of the points."""
    return [(min(v) + 1 - max(v)) / 2 for v in zip(*(t.lattice_coords(point.z) for point in points))]


def contour_steps(t, items):
    """(a-contour, b-contour) steps: the a-contour (length 1) passes the poles at gap_b * Im tau,
    the b-contour (length |tau|) at gap_a * Im tau / |tau|."""
    gap_a, gap_b = seam_gaps(t, [point for point, _ in items])
    tau = t.tau
    return panel_steps(1 / (gap_b * tau.imag)), panel_steps(abs(tau) ** 2 / (gap_a * tau.imag))


@pytest.mark.parametrize("tau", [2.7 + 0.3j, -1.2 + 0.6j, 0.45 + 0.2j])
def test_cycle_periods_off_the_fundamental_domain_match_the_unreduced_integrand(tau):
    # the periods are integrated with the reduction inside Torus._log_derivative_sum; the
    # same contour integrated with theta1_log_derivative(z - P, tau) at every node must agree
    from divpair.curve import theta1_log_derivative
    from divpair.mvf import _boundary_offset, _cycle_periods, _trapezoid

    t = Torus(tau)
    mc = MarkedCurve(t)
    p, r = t.from_lattice_coords(0.31, 0.22), t.from_lattice_coords(0.55, 0.13)
    for support in ([(p, 2), (r, -1), (2 * p - r, -1), (0.7 * tau, 1), (0, -1)], [(p, 1), (r, 1)]):
        items = ComplexDivisor(mc, integral=support).support_items()
        periods = _cycle_periods(t, items)

        def integrand(nodes, items=items):
            return np.array([
                sum(coeff * theta1_log_derivative(z - point.z, tau) for point, coeff in items)
                for z in nodes.tolist()
            ])

        coords = [t.lattice_coords(point.z) for point, _ in items]
        a0, _ = _boundary_offset([a for a, _ in coords])
        b0, _ = _boundary_offset([b for _, b in coords])
        a_steps, b_steps = contour_steps(t, items)
        direct_a, _ = _trapezoid(integrand, t.from_lattice_coords(0.0, b0), 1.0 + 0j, a_steps)
        direct_b, _ = _trapezoid(integrand, t.from_lattice_coords(a0, 0.0), tau, b_steps)
        assert abs(periods.a - direct_a) < 1e-9 * max(1.0, abs(direct_a))
        assert abs(periods.b - direct_b) < 1e-9 * max(1.0, abs(direct_b))

    principal = ComplexDivisor(mc, integral=[(p, 2), (r, -1), (2 * p - r, -1)])
    cert = is_principal(mc, principal)
    assert cert.principal and cert.periods_integral and cert.period_defect < 1e-9
    shifted = ComplexDivisor(mc, integral=[(p, 2), (r, -1), (2 * p - r + 0.1, -1)])
    cert = is_principal(mc, shifted)
    assert not cert.principal and not cert.periods_integral


def test_each_contour_takes_32_steps_per_panel_of_at_most_4_pole_distances(monkeypatch):
    # one panel rule at every modulus, from thin tori (Im tau = 1e-6, at the 4096-panel cap)
    # through skewed ones to the fundamental domain (at the 24-panel floor)
    import divpair.mvf as mvf

    steps = []

    def recording(f, start, direction, count):
        steps.append(count)
        return 0j, 0.0

    monkeypatch.setattr(mvf, "_trapezoid", recording)
    rng = random.Random(89)
    seen = set()
    for _ in range(60):
        t = Torus(complex(rng.uniform(-3, 3), 10 ** rng.uniform(-6, 0.5)))
        coords = [(rng.random(), rng.random()) for _ in range(4)]
        items = [(CurvePoint(t.from_lattice_coords(a, b)), c) for (a, b), c in zip(coords, (1, -1, 2, -2))]
        steps.clear()
        periods = mvf._cycle_periods(t, items)
        assert steps == list(contour_steps(t, items))
        assert periods.nodes == sum(steps) + 2
        seen.update(steps)
    assert {24 * 32, 4096 * 32} < seen


def lattice_distance(period, offset=0j):
    """Distance of period / (2 pi i) from offset + Z."""
    r = period / (2j * math.pi) - offset
    return abs(r - round(r.real))


def check_exact_lattices(t, items):
    # with the support in one strip of each contour, quasi-periodicity puts the raw
    # a-period in 2 pi i Z and the raw b-period in 2 pi i (sum_P n_P P + Z)
    from divpair.mvf import _cycle_periods

    periods = _cycle_periods(t, items)
    moment = sum(coeff * point.z for point, coeff in items)
    skew = abs(t.tau) / t.tau.imag
    assert lattice_distance(periods.a) < 3e-15 * skew
    assert lattice_distance(periods.b, moment) < 4e-15 * skew


def test_raw_periods_lie_on_the_exact_lattices_on_the_fundamental_domain():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        t = Torus(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6)))
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        coeffs.append(-sum(coeffs))
        items = [(CurvePoint(t.from_lattice_coords(rng.random(), rng.random())), c) for c in coeffs if c]
        if items:
            check_exact_lattices(t, items)
            checked += 1


def test_trapezoid_estimate_bounds_the_a_period_error_at_low_clearance(monkeypatch):
    # clearance 0.025: the a-period's distance from 2 pi i Z is the true error of the
    # rule, and |T_n - T_n/2| must not understate it while the rule is still converging
    import divpair.mvf as mvf

    t = Torus(0.1 + 1.1j)
    coords = zip((0.1, 0.45, 0.7, 0.3), (0.02, 0.5, 0.97, 0.3))
    items = [(CurvePoint(t.from_lattice_coords(a, b)), c) for (a, b), c in zip(coords, (1, -1, 1, -1))]
    monkeypatch.setattr(mvf, "_panel_count", lambda length_over_distance: 1)
    for n in (16, 32, 64):
        monkeypatch.setattr(mvf, "_STEPS_PER_PANEL", n)
        periods = mvf._cycle_periods(t, items)
        assert periods.clearance == pytest.approx(0.025)
        error = 2 * math.pi * lattice_distance(periods.a)
        assert 1e-6 < error <= periods.a_error
        assert periods.nodes == 2 * (n + 1)


SKEWED_TAUS = [2.7 + 0.05j, -3.4 + 0.08j, 1.5 + 0.02j, 5.0 + 0.2j, -0.3 + 0.001j, 0.45 + 0.2j]


@pytest.mark.parametrize("tau", SKEWED_TAUS)
def test_raw_periods_lie_on_the_exact_lattices_on_skewed_tori(tau):
    rng = random.Random(11)
    t = Torus(tau)
    mc = MarkedCurve(t)
    for _ in range(10):
        p, q, r = (t.from_lattice_coords(rng.random(), rng.random()) for _ in range(3))
        check_exact_lattices(t, ComplexDivisor(mc, integral=[(p, 1), (q, -2), (r, 1)]).support_items())


@pytest.mark.parametrize("tau", SKEWED_TAUS)
def test_certificate_agrees_with_abel_jacobi_on_skewed_tori(tau):
    # |tau|^2 / Im tau from 1.2 to 146: the b-contour is long against its distance to the
    # poles, and too few panels put a principal divisor's periods off 2 pi i Z
    t = Torus(tau)
    mc = MarkedCurve(t)
    p, r = t.from_lattice_coords(0.31, 0.22), t.from_lattice_coords(0.55, 0.13)
    principal = ComplexDivisor(mc, integral=[(p, 2), (r, -1), (2 * p - r, -1)])
    cert = is_principal(mc, principal)
    assert cert.principal and cert.periods_integral and cert.period_defect < 1e-8
    for shift in (0.1, 0.37 * tau, 0.2 - 0.45 * tau):
        other = ComplexDivisor(mc, integral=[(p, 2), (r, -1), (2 * p - r + shift, -1)])
        cert = is_principal(mc, other)
        assert not cert.principal and not cert.periods_integral
