import cmath
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import divpair.curve
import divpair.pairing
import divpair.strings
from divpair import (
    ComplexDivisor,
    DegreeZeroRequiredError,
    DisjointSupportError,
    DomainError,
    GaussianRational,
    MarkedCurve,
    MomentumConfig,
    RationalFunctionData,
    Sphere,
    Torus,
    check_bimultiplicativity,
    check_scaling_laws,
    check_symmetry,
    check_weil_reciprocity,
    green_divisor,
    hermitian_form,
    kernel_matrix,
    pairing_norm,
    self_pairing_exponent,
    string_pairing_factor,
    weil_symbol,
)
from divpair.pairing import FORMULAS
from divpair.strings import DIMENSION

I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def sphere_mc(*marks):
    return MarkedCurve(Sphere(), marks)


def test_weil_symbol_rational_example():
    s = Sphere()
    mc = MarkedCurve(s)
    f = RationalFunctionData.from_zeros_poles(s, [0], [2])
    d = ComplexDivisor(mc, integral=[(1, 1), (3, -1)])
    assert abs(weil_symbol(f, d) - (-1 / 3)) < 1e-14
    g = RationalFunctionData.from_zeros_poles(s, [1], [3])
    d2 = ComplexDivisor(mc, integral=[(0, 1), (2, -1)])
    assert abs(weil_symbol(g, d2) - (-1 / 3)) < 1e-14


def test_weil_symbol_constant_on_degree_zero():
    s = Sphere()
    mc = MarkedCurve(s)
    f = RationalFunctionData(s, [], leading_constant=2.7 - 1.1j)
    d = ComplexDivisor(mc, integral=[(0, 1), (1, 2), (2, -3)])
    assert abs(weil_symbol(f, d) - 1.0) < 1e-12


def test_weil_symbol_requires_disjoint_supports():
    s = Sphere()
    mc = MarkedCurve(s)
    f = RationalFunctionData.from_zeros_poles(s, [1], [2])
    d = ComplexDivisor(mc, integral=[(1, 1), (3, -1)])
    with pytest.raises(DisjointSupportError):
        weil_symbol(f, d)
    # unbalanced f has a pole at infinity; divisors containing infinity clash
    from divpair import CurvePoint

    f2 = RationalFunctionData.from_zeros_poles(s, [0], [])
    d2 = ComplexDivisor(mc, integral=[(1, 1), (CurvePoint.infinity(), -1)])
    with pytest.raises(DisjointSupportError):
        weil_symbol(f2, d2)


def test_weil_reciprocity_examples():
    s = Sphere()
    f = RationalFunctionData.from_zeros_poles(s, [0], [2])
    g = RationalFunctionData.from_zeros_poles(s, [1], [3])
    assert check_weil_reciprocity(f, g) < 1e-12
    const = RationalFunctionData(s, [], leading_constant=3.3 + 0.4j)
    assert check_weil_reciprocity(const, g) < 1e-12


def test_weil_reciprocity_torus_theta_ratio():
    t = Torus(1j)
    z1, z2 = 0.21 + 0.33j, 0.52 + 0.11j
    p1 = 0.4 + 0.62j
    f = RationalFunctionData.from_zeros_poles(t, [z1, z2], [p1, z1 + z2 - p1])
    w1, w2 = 0.72 + 0.8j, 0.13 + 0.71j
    q1 = 0.6 + 0.24j
    g = RationalFunctionData.from_zeros_poles(t, [w1, w2], [q1, w1 + w2 - q1])
    assert check_weil_reciprocity(f, g) < 1e-9


def test_weil_reciprocity_torus_with_double_zero():
    t = Torus(0.2 + 1.3j)
    z = 0.21 + 0.33j
    p1, p2 = 0.52 + 0.11j, 0.4 + 0.62j
    # double zero at z, poles balancing the coordinate sum exactly
    f = RationalFunctionData(t, [(z, 2), (p1, -1), (2 * z - p1, -1)])
    g = RationalFunctionData.from_zeros_poles(
        t, [0.72 + 0.8j, 0.13 + 0.71j], [0.6 + 0.24j, 0.72 + 0.8j + 0.13 + 0.71j - (0.6 + 0.24j)]
    )
    assert check_weil_reciprocity(f, g) < 1e-9


@pytest.mark.parametrize("real", [0.0, 0.3])
def test_weil_reciprocity_across_the_height_of_tau(real):
    # Im tau log-spaced over [1e-3, 1e3]; at the top, theta1 at these points leaves the float range
    f_zeros, f_poles = [(0.1, 0.2), (0.35, 0.6)], [(0.2, 0.5), (0.25, 0.3)]
    g_zeros, g_poles = [(0.6, 0.1), (0.9, 0.7)], [(0.7, 0.4), (0.8, 0.4)]
    for k in range(13):
        t = Torus(complex(real, 10 ** (-3 + k / 2)))
        point = lambda ab: t.from_lattice_coords(*ab)
        f = RationalFunctionData.from_zeros_poles(t, map(point, f_zeros), map(point, f_poles))
        g = RationalFunctionData.from_zeros_poles(t, map(point, g_zeros), map(point, g_poles))
        assert check_weil_reciprocity(f, g) < 1e-9, t.tau


def test_function_value_is_zero_at_a_zero_and_undefined_at_a_pole():
    s = Sphere()
    f = RationalFunctionData.from_zeros_poles(s, [0], [2])
    assert f(0) == 0
    with pytest.raises(DomainError):
        f(2)
    t = Torus(1j)
    g = RationalFunctionData.from_zeros_poles(t, [0.1, 0.3], [0.2, 0.2])
    for zero in (0.1, 1.1 + 1j):
        assert g(zero) == 0
    for pole in (0.2, 1.2):
        with pytest.raises(DomainError):
            g(pole)
    assert abs(g(0.5) - g(1.5 - 2j)) < 1e-12 * abs(g(0.5))


def test_weil_symbol_beyond_the_float_range_is_a_domain_error():
    s = Sphere()
    f = RationalFunctionData(s, [(0, 1), (1, -1)])  # z / (z - 1)
    g = RationalFunctionData(s, [(1 + 1e-6, 400), (0.5, -400)])
    with pytest.raises(DomainError, match="float range"):
        weil_symbol(f, g.divisor())
    # both symbols are near 1e2400; their logs still compare
    assert check_weil_reciprocity(f, g) < 1e-9


def unshared_log_values(f, points):
    """log f(P_i) as ``_log_values`` forms it, with the log factors taken from a second
    centring of the differences P_i - Q_j; every P_i away from every zero and pole."""
    curve, divisor = f.curve, f.divisor_points()
    z = np.array([p.z for p in points], dtype=complex)
    differences = z[:, None] - np.array([q.z for q, _ in divisor])
    factors = curve._log_factors(curve._centred(differences.ravel())).reshape(differences.shape)
    mults = np.array([m for _, m in divisor], dtype=float)
    return cmath.log(f.leading_constant) - 2j * math.pi * f._tau_winding * z + factors @ mults


def test_function_values_centre_each_difference_once(monkeypatch):
    # f(P) and the Weil symbol read their log factors off the centring of the one
    # _reduce_pairs pass that gives their distances, with a second centring's values
    t = Torus(0.2 + 1.3j)
    z1, z2, p1 = 0.21 + 0.33j, 0.52 + 0.11j, 0.4 + 0.62j
    f = RationalFunctionData.from_zeros_poles(t, [z1, z2], [p1, z1 + z2 - p1 + 1 - t.tau], 2 - 1j)
    w1, w2, q1 = 0.72 + 0.8j, 0.13 + 0.71j, 0.6 + 0.24j
    d = RationalFunctionData.from_zeros_poles(t, [w1, w2], [q1, w1 + w2 - q1]).divisor(MarkedCurve(t))
    points = [t.reduce_point(p) for p in (0.9 + 0.05j, 1.7 - 2.1j, 0.35 + 1.2j)]
    support = d.support_items()
    expected = unshared_log_values(f, points)
    symbol = complex(np.array([n for _, n in support], dtype=complex) @ unshared_log_values(f, [q for q, _ in support]))
    shapes = []
    centred = Torus._centred

    def counting(self, w):
        shapes.append(w.shape)
        return centred(self, w)

    monkeypatch.setattr(Torus, "_centred", counting)
    assert f._log_values(points).tolist() == expected.tolist()
    for point in points:
        shapes.clear()
        f(point)
        assert shapes == [(1, 4)]
    shapes.clear()
    assert divpair.pairing._log_weil_symbol(f, d) == symbol
    assert shapes == [(4, 4)]


def test_torus_rational_function_needs_lattice_sum():
    t = Torus(1j)
    with pytest.raises(DomainError):
        RationalFunctionData.from_zeros_poles(t, [0.2 + 0.2j], [0.5 + 0.5j])
    # zero/pole sum differing by a lattice point is fine
    f = RationalFunctionData.from_zeros_poles(t, [0.2 + 0.2j], [0.2 + 0.2j + 1 + 1j])
    assert f.zeros_poles == ()  # lattice-equal zero and pole cancel


def test_pairing_norm_closed_form_anchor():
    mc = MarkedCurve(Sphere())
    d1 = ComplexDivisor(mc, integral=[(1, 1), (-1, -1)])
    d2 = ComplexDivisor(mc, integral=[(2, 1), (-2, -1)])
    for formula in ("ad", "adsym", "ad3"):
        result = pairing_norm(mc, d1, d2, formula)
        assert abs(result.norm - 1 / 9) < 1e-14
        assert abs(result.norm - math.exp(result.exponent)) < 1e-12 * result.norm
        assert abs(result.exponent - result.hermitian_value.real) < 1e-12


def test_pairing_norm_real_part_annihilation():
    mc = sphere_mc(0.0, 1.0, 3.0, -2.0)
    real_d = ComplexDivisor(mc, marked={0: 1, 1: -1})
    imag_d = ComplexDivisor(mc, marked={2: I, 3: -I})
    assert abs(pairing_norm(mc, real_d, imag_d).norm - 1.0) < 1e-14


def test_pairing_norm_scaling_square():
    mc = MarkedCurve(Sphere())
    d1 = ComplexDivisor(mc, integral=[(1, 2), (-1, -2)])
    d2 = ComplexDivisor(mc, integral=[(2, 1), (-2, -1)])
    assert abs(pairing_norm(mc, d1, d2).norm - 1 / 81) < 1e-14


def test_pairing_norm_preconditions():
    mc = MarkedCurve(Sphere())
    bad = ComplexDivisor(mc, integral=[(1, 1)])
    good = ComplexDivisor(mc, integral=[(2, 1), (-2, -1)])
    with pytest.raises(DegreeZeroRequiredError):
        pairing_norm(mc, bad, good)
    overlapping = ComplexDivisor(mc, integral=[(2, 1), (5, -1)])
    with pytest.raises(DisjointSupportError):
        pairing_norm(mc, overlapping, good)
    with pytest.raises(DomainError):
        pairing_norm(mc, good, -good, "nope")


def test_formula_agreement_random():
    rng = random.Random(9)
    mc = sphere_mc(0.0, 1.5, -1.0 + 1j, 2.0 - 1j)
    for _ in range(50):
        def coeffs():
            c = GaussianRational(
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
            )
            return [c, -c]

        d1 = ComplexDivisor(mc, marked=list(zip((0, 1), coeffs())))
        d2 = ComplexDivisor(mc, marked=list(zip((2, 3), coeffs())))
        exps = [pairing_norm(mc, d1, d2, f).exponent for f in ("ad", "adsym", "ad3")]
        assert max(exps) - min(exps) < 1e-12


def test_kernel_shift_invariance():
    mc = sphere_mc(0.0, 1.5, -1.0 + 1j, 2.0 - 1j)
    d1 = ComplexDivisor(mc, marked={0: HALF + I, 1: -HALF - I})
    d2 = ComplexDivisor(mc, marked={2: I, 3: -I})
    base = pairing_norm(mc, d1, d2).norm
    for shift in (-5.0, -1.0, 0.7, 5.0):
        shifted = pairing_norm(mc, d1, d2, kernel_shift=shift).norm
        assert abs(shifted - base) < 1e-10 * base


def test_hermitian_form_properties():
    mc = sphere_mc(0.0, 1.0, 2.0 + 1j, -1.5j)
    d1 = ComplexDivisor(mc, marked={0: HALF, 1: -HALF})
    d2 = ComplexDivisor(mc, marked={2: HALF + I, 3: -HALF - I})
    h = hermitian_form(mc, d1, d2)
    assert abs(hermitian_form(mc, d1.scale(I), d2) - 1j * h) < 1e-13
    assert abs(hermitian_form(mc, d1, d2.scale(I)) + 1j * h) < 1e-13
    assert abs(hermitian_form(mc, d2, d1).conjugate() - h) < 1e-13
    norm = pairing_norm(mc, d1, d2).norm
    assert abs(norm - math.exp(h.real)) < 1e-12 * norm
    real_pair = hermitian_form(mc, d1, ComplexDivisor(mc, marked={2: 1, 3: -1}))
    assert real_pair.imag == 0.0


def test_hermitian_form_requires_marked_supports():
    mc = sphere_mc(0.0, 1.0)
    d1 = ComplexDivisor(mc, marked={0: 1, 1: -1})
    d2 = ComplexDivisor(mc, integral=[(5.0, 1), (6.0, -1)])
    with pytest.raises(DomainError):
        hermitian_form(mc, d1, d2)


def test_scaling_laws():
    mc = sphere_mc(0.0, 1.0, 2.0 + 1j, -1.5j)
    d1 = ComplexDivisor(mc, marked={0: HALF, 1: -HALF})
    d2 = ComplexDivisor(mc, marked={2: HALF, 3: -HALF})
    res = check_scaling_laws(mc, d1, d2, 1)
    assert res.real_law == 0.0 and res.conjugation_law == 0.0
    res2 = check_scaling_laws(mc, d1, d2, 2)
    assert res2.real_law < 1e-13
    res3 = check_scaling_laws(mc, d1, d2, GaussianRational(1, 1))
    assert res3.real_law is None and res3.conjugation_law < 1e-10



@pytest.mark.parametrize("alpha", [2, GaussianRational(1, 1)], ids=["real", "complex"])
def test_scaling_laws_outside_the_float_range(alpha):
    # the exponent is 35702.9 and the norm inf; both laws come from the exponents
    mc = sphere_mc(0.0, 1.0, 0.5000001, 5.0)
    d1 = ComplexDivisor(mc, marked={0: 400, 1: -400})
    d2 = ComplexDivisor(mc, marked={2: -400, 3: 400})
    assert pairing_norm(mc, d1, d2).norm == math.inf
    res = check_scaling_laws(mc, d1, d2, alpha)
    assert res.conjugation_law < 1e-10
    assert (res.real_law is None) == (alpha != 2) and (res.real_law or 0.0) < 1e-10


def test_law_defect_is_inf_where_the_norm_ratio_leaves_the_float_range(monkeypatch):
    # expm1 overflows beyond an exponent gap of about 709.8
    exponents = iter([0.0, 1000.0])
    monkeypatch.setattr(divpair.pairing, "pairing_norm", lambda *args: SimpleNamespace(exponent=next(exponents)))
    assert check_symmetry(None, None, None) == math.inf

def test_bimultiplicativity_and_symmetry():
    mc = sphere_mc(0.0, 1.0, 2.0 + 1j, -1.5j, 4.0, 5.0 + 2j)
    d1 = ComplexDivisor(mc, marked={0: HALF + I, 1: -HALF - I})
    d2 = ComplexDivisor(mc, marked={2: I, 3: -I})
    k = ComplexDivisor(mc, marked={4: 1, 5: -1})
    assert check_bimultiplicativity(mc, d1, d2, k) < 1e-12
    empty = ComplexDivisor(mc)
    assert check_bimultiplicativity(mc, d1, empty, k) < 1e-15
    assert check_symmetry(mc, d1, d2) < 1e-13


@pytest.mark.parametrize("sign", [1, -1])
def test_symmetry_and_bimultiplicativity_outside_the_float_range(sign):
    # the norms are e^(+-35702.9), inf or 0 as floats; the defects come from the exponents
    mc = MarkedCurve(Sphere())
    d1 = ComplexDivisor(mc, integral=[(0, 400), (1, -400)])
    d2 = ComplexDivisor(mc, integral=[(0.5000001, -400 * sign), (5, 400 * sign)])
    assert not 0 < pairing_norm(mc, d1, d2).norm < math.inf
    assert math.isfinite(check_symmetry(mc, d1, d2)) and check_symmetry(mc, d1, d2) < 1e-9
    assert math.isfinite(check_bimultiplicativity(mc, d1, d1, d2))
    assert check_bimultiplicativity(mc, d1, d1, d2) < 1e-9


def test_symmetry_and_bimultiplicativity_in_range_match_the_norm_ratios():
    from divpair.selftest import _pairing_instance

    rng = random.Random(71)
    for _ in range(40):
        mc, d1, d2 = _pairing_instance(rng)
        forward, backward = pairing_norm(mc, d1, d2).norm, pairing_norm(mc, d2, d1).norm
        assert abs(check_symmetry(mc, d1, d2) - abs(forward - backward) / forward) < 1e-12
        combined = pairing_norm(mc, d1 + d1, d2).norm
        split = pairing_norm(mc, d1, d2).norm ** 2
        assert abs(check_bimultiplicativity(mc, d1, d1, d2) - abs(combined - split) / combined) < 1e-12


def test_self_pairing_exponent_skips_diagonal():
    mc = sphere_mc(0.0, 3.0)
    d = ComplexDivisor(mc, marked={0: 1, 1: -1})
    # off-diagonal terms: 2 * (1 * -1) * log 3
    assert abs(self_pairing_exponent(mc, d) + 2 * math.log(3)) < 1e-14


def test_integral_pairing_matches_weil_power_product():
    rng = random.Random(31)
    s = Sphere()
    mc = MarkedCurve(s)
    for _ in range(25):
        pts = []
        while len(pts) < 6:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(z - p) > 0.3 for p in pts):
                pts.append(z)
        w1 = [1, 1, -2]
        w2 = [2, -1, -1]
        d1 = ComplexDivisor(mc, integral=list(zip(pts[:3], w1)))
        d2 = ComplexDivisor(mc, integral=list(zip(pts[3:], w2)))
        norm = pairing_norm(mc, d1, d2, "ad3").norm
        product = 1.0
        for p, n in zip(pts[:3], w1):
            for q, m in zip(pts[3:], w2):
                product *= math.exp(s.kernel(p, q)) ** (n * m)
        assert abs(norm - product) < 1e-12 * norm


def test_matrix_contractions_match_the_pairwise_sums():
    # reference: the documented double sums, one kernel call per pair
    t = Torus(0.2 + 0.9j)
    mc = MarkedCurve(t, [0.1 + 0.2j, 0.5 + 0.1j, 0.3 + 0.7j, 0.8 + 0.5j, 0.6 + 0.3j])
    d1 = ComplexDivisor(mc, marked={0: I + 1, 1: -I, 2: -1})
    d2 = ComplexDivisor(mc, marked={3: HALF - I, 4: I - HALF})
    items1, items2 = d1.support_items(), d2.support_items()
    shift = 0.75
    g = {(p, q): t.kernel(p, q) + shift for p, _ in items1 for q, _ in items2}
    ad = sum(0.5 * (n.conjugate() * m + n * m.conjugate()) * g[p, q]
             for p, n in items1 for q, m in items2).real
    adsym = 0.5 * sum(n.conjugate() * m * g[p, q] for p, n in items1 for q, m in items2).real
    adsym += 0.5 * sum(m.conjugate() * n * g[p, q] for q, m in items2 for p, n in items1).real
    ad3 = sum((n * m.conjugate()).real * g[p, q] for p, n in items1 for q, m in items2)
    hermitian = sum(n * m.conjugate() * g[p, q] for p, n in items1 for q, m in items2)
    for formula, expected in (("ad", ad), ("adsym", adsym), ("ad3", ad3)):
        result = pairing_norm(mc, d1, d2, formula, kernel_shift=shift)
        assert abs(result.exponent - expected) < 1e-12 * max(1.0, abs(expected))
        assert abs(result.hermitian_value - hermitian) < 1e-12 * max(1.0, abs(hermitian))
    self_ref = sum((n * m.conjugate()).real * t.kernel(p, q)
                   for p, n in items1 for q, m in items1 if p != q)
    assert abs(self_pairing_exponent(mc, d1) - self_ref) < 1e-12 * max(1.0, abs(self_ref))


def test_each_kernel_consumer_builds_one_kernel_matrix(monkeypatch):
    shapes = []

    def counting(curve, left, right):
        shapes.append((len(left), len(right)))
        return kernel_matrix(curve, left, right)

    for module in (divpair.curve, divpair.pairing, divpair.strings):
        monkeypatch.setattr(module, "kernel_matrix", counting)
    t = Torus(0.3 + 1.1j)
    mc = MarkedCurve(t, [0.1 + 0.2j, 0.5 + 0.1j, 0.3 + 0.7j, 0.8 + 0.5j])
    d1 = ComplexDivisor(mc, marked={0: I, 1: -I})
    d2 = ComplexDivisor(mc, marked={2: HALF, 3: -HALF})
    e0 = [0j] * DIMENSION
    e0[0] = 1 + 0j
    cfg = MomentumConfig([e0, [-c for c in e0]])
    calls = [lambda f=f: pairing_norm(mc, d1, d2, f) for f in FORMULAS] + [
        lambda: hermitian_form(mc, d1, d2),
        lambda: self_pairing_exponent(mc, d1),
        lambda: green_divisor(t, d1, 0.9 + 0.9j),
        lambda: string_pairing_factor(MarkedCurve(t, [0.1 + 0.2j, 0.6 + 0.4j]), cfg),
    ]
    expected = [(2, 2)] * 5 + [(1, 2), (2, 2)]
    for call, shape in zip(calls, expected):
        shapes.clear()
        call()
        assert shapes == [shape]


def test_norms_beyond_the_float_range_are_inf_or_zero_not_errors():
    mc = MarkedCurve(Sphere())
    d1 = ComplexDivisor(mc, integral=[(0, 400), (1, -400)])
    for sign, norm in ((1, math.inf), (-1, 0.0)):
        d2 = ComplexDivisor(mc, integral=[(0.5000001, -400 * sign), (5, 400 * sign)])
        result = pairing_norm(mc, d1, d2)
        assert result.norm == norm and math.isfinite(result.exponent)
    far = MarkedCurve(Sphere(), [0, 1e300])
    momenta = MomentumConfig([[1] + [0] * 12, [-1] + [0] * 12])
    factor = string_pairing_factor(far, momenta)  # exponent -1381.6
    assert factor.factor == 0.0 and factor.per_component == (0.0,) + (1.0,) * 12
