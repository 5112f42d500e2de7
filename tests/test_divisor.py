import cmath
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from divpair import (
    ComplexDivisor,
    ContextMismatchError,
    CurvePoint,
    DegreeIntegralityError,
    DomainError,
    GaussianRational,
    MarkedCurve,
    NonIntegralCoefficientError,
    RationalFunctionData,
    Sphere,
    Torus,
    abel_jacobi_sum,
    class_invariant,
    glueing_data,
    green_divisor,
    hermitian_form,
    is_principal,
    monodromy_certificate,
    multiplicator,
    pairing_norm,
    self_pairing_exponent,
)
from divpair.curve import as_point

I = GaussianRational(0, 1)
HALF = GaussianRational(Fraction(1, 2))


def test_gaussian_rational_arithmetic():
    a = GaussianRational(Fraction(1, 2), 1)
    b = GaussianRational(Fraction(1, 2), -1)
    assert a + b == GaussianRational(1)
    assert a * b == GaussianRational(Fraction(5, 4))
    assert (a - a).is_zero()
    assert a.conjugate() == b
    assert (a / a) == GaussianRational(1)
    assert a.to_complex() == 0.5 + 1j
    assert not a.is_integer() and GaussianRational(3).is_integer()
    assert str(a) == "1/2+i" and str(-I) == "-i" and str(GaussianRational(2, -3)) == "2-3i"


def test_gaussian_rational_pickles_through_its_triple():
    for value in (GaussianRational(Fraction(-3, 4), Fraction(5, 6)), I, GaussianRational(7), GaussianRational(0)):
        restored = pickle.loads(pickle.dumps(value))
        assert restored.triple == value.triple and restored == value and hash(restored) == hash(value)
        with pytest.raises(AttributeError):
            restored._a = 1


def test_marked_curve_validation():
    with pytest.raises(DomainError):
        MarkedCurve(Sphere(), [1.0, 1.0])
    with pytest.raises(DomainError):
        MarkedCurve(Torus(1j), [0.25, 1.25])  # lattice-equal marks
    with pytest.raises(DomainError):
        MarkedCurve(Sphere(), [CurvePoint.infinity()])


def test_divisor_construction_and_degree():
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    d = ComplexDivisor(mc, marked={0: HALF + I, 1: HALF - I}, integral=[(3.0, 1)])
    assert d.degree() == 2
    assert d.marked_coefficient(0) == HALF + I
    # (i)@Q1 alone has degree i: unconstructible
    with pytest.raises(DegreeIntegralityError):
        ComplexDivisor(mc, marked={0: I})


def test_divisor_group_inverse_and_cancellation():
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    d = ComplexDivisor(mc, marked={0: HALF + I, 1: HALF - I})
    assert (d + (-d)).is_empty()
    a = ComplexDivisor(mc, marked={0: I, 1: -I})
    b = ComplexDivisor(mc, marked={0: -I, 1: I})
    assert (a + b).is_empty()


def test_divisor_add_requires_same_context():
    mc1 = MarkedCurve(Sphere(), [0.0])
    mc2 = MarkedCurve(Sphere(), [1.0])
    d1 = ComplexDivisor(mc1, marked={0: 1})
    d2 = ComplexDivisor(mc2, marked={0: 1})
    with pytest.raises(ContextMismatchError):
        d1 + d2


TORUS_MARKS = [0.2 + 0.3j, 0.6 + 0.7j, 0.4 + 0.1j, 0.8 + 0.5j]
TORUS_MC = MarkedCurve(Torus(0.1 + 1.1j), TORUS_MARKS)
SPHERE_MC = MarkedCurve(Sphere(), TORUS_MARKS)
OTHER_TORUS_MC = MarkedCurve(Torus(0.1 + 1.2j), TORUS_MARKS)
D1 = ComplexDivisor(TORUS_MC, marked=[(0, 1), (1, -1)])
D2 = ComplexDivisor(TORUS_MC, marked=[(2, 1), (3, -1)])
E1 = ComplexDivisor(SPHERE_MC, marked=[(0, 1), (1, -1)])

# every call passes a marked curve, or a curve, that is not the context of one of its divisors
FOREIGN_CONTEXT_CALLS = {
    "pairing_norm": lambda: pairing_norm(SPHERE_MC, D1, D2),
    "pairing_norm_first_operand": lambda: pairing_norm(TORUS_MC, E1, D2),
    "hermitian_form": lambda: hermitian_form(TORUS_MC, D1, E1),
    "self_pairing_exponent": lambda: self_pairing_exponent(SPHERE_MC, D1),
    "is_principal_sphere": lambda: is_principal(SPHERE_MC, D1),
    "is_principal_torus": lambda: is_principal(OTHER_TORUS_MC, D1),
    "monodromy_certificate": lambda: monodromy_certificate(OTHER_TORUS_MC, D1),
    "class_invariant": lambda: class_invariant(SPHERE_MC, D1),
    "multiplicator": lambda: multiplicator(SPHERE_MC, D1, 0),
    "glueing_data": lambda: glueing_data(SPHERE_MC, D1),
    "green_divisor": lambda: green_divisor(Sphere(), D1, 0.5),
    "abel_jacobi_sum": lambda: abel_jacobi_sum(OTHER_TORUS_MC.curve, D1),
}


@pytest.mark.parametrize("name", FOREIGN_CONTEXT_CALLS)
def test_a_divisor_from_another_context_is_rejected(name):
    with pytest.raises(ContextMismatchError):
        FOREIGN_CONTEXT_CALLS[name]()


def test_a_copied_context_is_accepted():
    copy = pickle.loads(pickle.dumps(TORUS_MC))
    assert copy is not TORUS_MC
    assert pairing_norm(copy, D1, D2).exponent == pairing_norm(TORUS_MC, D1, D2).exponent
    assert is_principal(copy, D1 - D1).principal
    assert green_divisor(copy.curve, D1, 0.5) == green_divisor(TORUS_MC.curve, D1, 0.5)


def test_integral_and_zeros_poles_take_pairs_not_mappings():
    s = Sphere()
    points = {CurvePoint(0.5): 1, CurvePoint(2): -1}
    with pytest.raises(TypeError):
        ComplexDivisor(MarkedCurve(s), integral=points)
    with pytest.raises(TypeError):
        RationalFunctionData(s, points)


def test_divisor_scale_examples():
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    d = ComplexDivisor(mc, marked={0: 1, 1: -1})
    doubled = d.scale(2)
    assert doubled.marked_coefficient(0) == GaussianRational(2)
    rotated = d.scale(I)
    assert rotated.marked_coefficient(0) == I
    assert rotated.degree() == 0
    with pytest.raises(DegreeIntegralityError):
        ComplexDivisor(mc, marked={0: 1}).scale(I)


def test_divisor_scale_rejects_fractional_on_integral_part():
    mc = MarkedCurve(Sphere(), [0.0])
    d = ComplexDivisor(mc, integral=[(2.0, 1), (3.0, -1)])
    with pytest.raises(NonIntegralCoefficientError):
        d.scale(HALF)
    assert d.scale(-2).integral[0][1] in (-2, 2)


def test_integral_points_fold_into_marks():
    mc = MarkedCurve(Sphere(), [0.5])
    d = ComplexDivisor(mc, integral=[(0.5, 2)])
    assert not d.integral
    assert d.marked_coefficient(0) == GaussianRational(2)


def test_torus_integral_points_merge_mod_lattice():
    t = Torus(1j)
    mc = MarkedCurve(t)
    d = ComplexDivisor(mc, integral=[(0.2, 1), (1.2 + 1j, -1)])
    assert d.is_empty()


def test_divisor_equality_is_the_group_law():
    # 2.3+0.0003i is 0.8 + 3 tau; its cell representative sorts after 1+0.00005i, 0.8 before it
    mc = MarkedCurve(Torus(0.5 + 0.0001j))
    a = ComplexDivisor(mc, integral=[(0.8, 1), (1 + 0.00005j, -1)])
    b = ComplexDivisor(mc, integral=[(2.3 + 0.0003j, 1), (1 + 0.00005j, -1)])
    assert (a - b).is_empty()
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != ComplexDivisor(mc, integral=[(0.7, 1), (1 + 0.00005j, -1)])
    assert a != ComplexDivisor(MarkedCurve(mc.curve, [0.3]), integral=a.integral)


def test_non_integer_off_marks_rejected():
    mc = MarkedCurve(Sphere(), [0.0])
    with pytest.raises(NonIntegralCoefficientError):
        ComplexDivisor(mc, integral=[(2.0, HALF)])


def test_class_invariant_sphere_degree_only():
    mc = MarkedCurve(Sphere())
    rng = random.Random(3)
    pts = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)]
    d1 = ComplexDivisor(mc, integral=[(pts[0], 1), (pts[1], 1), (pts[2], 1)])
    d2 = ComplexDivisor(mc, integral=[(pts[3], 2), (pts[4], 1)])
    assert class_invariant(mc, d1).matches(class_invariant(mc, d2))
    d3 = ComplexDivisor(mc, integral=[(pts[5], 2)])
    assert not class_invariant(mc, d1).matches(class_invariant(mc, d3))


def test_class_invariant_torus_examples():
    t = Torus(1j)
    mc = MarkedCurve(t)
    d = ComplexDivisor(mc, integral=[(0.25, 1), (0.75, -1)])
    desc = class_invariant(mc, d)
    assert desc.degree == 0
    assert abs(desc.jacobian - 0.5) < 1e-12  # -0.5 reduced mod the lattice
    mcm = MarkedCurve(t, [0.5])
    dm = ComplexDivisor(mcm, marked={0: I - I})
    desc2 = class_invariant(mcm, dm)
    assert desc2.degree == 0 and abs(desc2.jacobian) < 1e-12


def test_class_descriptor_additivity():
    t = Torus(0.2 + 1.3j)
    mc = MarkedCurve(t)
    d1 = ComplexDivisor(mc, integral=[(0.2 + 0.3j, 1), (0.6 + 0.1j, -1)])
    d2 = ComplexDivisor(mc, integral=[(0.4 + 0.9j, 2), (0.1 + 0.5j, -2)])
    lhs = class_invariant(mc, d1 + d2)
    rhs = class_invariant(mc, d1).combine(class_invariant(mc, d2))
    assert lhs.matches(rhs)


def test_degree_homomorphism_exact():
    mc = MarkedCurve(Sphere(), [0.0, 1.0, 2.0])
    d1 = ComplexDivisor(mc, marked={0: HALF + I, 1: HALF - I})
    d2 = ComplexDivisor(mc, marked={1: I, 2: GaussianRational(3) - I})
    assert (d1 + d2).degree() == d1.degree() + d2.degree() == 4


def test_gaussian_rational_hash_agrees_with_equal_numbers():
    assert GaussianRational(1) == 1 and GaussianRational(Fraction(1, 2)) == 0.5
    assert {1, GaussianRational(1)} == {1}
    assert len({0.5, Fraction(1, 2), GaussianRational(Fraction(1, 2))}) == 1
    assert hash(GaussianRational(Fraction(-7, 3))) == hash(Fraction(-7, 3))
    assert {GaussianRational(2, 1): "x"}[GaussianRational(Fraction(4, 2), Fraction(3, 3))] == "x"
    assert GaussianRational(1) != float("inf") and GaussianRational(0) != float("nan")


def test_gaussian_rational_accepts_numpy_integers():
    assert GaussianRational(np.int64(2)) == 2
    assert GaussianRational(np.int32(1), np.int64(-3)) == GaussianRational(1, -3)
    big = GaussianRational(np.int64(2**62))
    assert all(type(part) is int for part in big.triple)
    assert big * big == GaussianRational(2**124)  # no int64 wrap-around
    mc = MarkedCurve(Sphere(), [0.0])
    d = ComplexDivisor(mc, integral=[(2.0, np.int64(1)), (3.0, np.int64(-1))])
    assert d.degree() == 0 and [type(w) for _, w in d.integral] == [int, int]
    for bad in (1j, np.complex128(1), None, object(), [1]):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(0, bad)


def _reference_str(re: Fraction, im: Fraction) -> str:
    """The literal of re + im*i, written from the exact parts."""
    if im == 0:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if re == 0:
        return imag
    return f"{re}{'+' if im > 0 else ''}{imag}"


def _random_fraction(rng: random.Random) -> Fraction:
    if rng.random() < 0.5:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    bound = 10 ** rng.randint(1, 12)
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def test_gaussian_rational_matches_fraction_pair_reference():
    from divpair import parse_gaussian_rational

    rng = random.Random(20260)
    for _ in range(2000):
        x = (_random_fraction(rng), _random_fraction(rng))
        y = (_random_fraction(rng), _random_fraction(rng))
        if rng.random() < 0.2:
            x = (x[0], Fraction(0))
        gx, gy = GaussianRational(*x), GaussianRational(*y)
        a, b, d = gx.triple
        assert d > 0 and math.gcd(a, b, d) == 1
        assert (gx.re, gx.im) == x and Fraction(a, d) == x[0] and Fraction(b, d) == x[1]
        norm = y[0] * y[0] + y[1] * y[1]
        expected = {
            "+": (x[0] + y[0], x[1] + y[1]),
            "-": (x[0] - y[0], x[1] - y[1]),
            "*": (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
            "neg": (-x[0], -x[1]),
            "conj": (x[0], -x[1]),
        }
        got = {"+": gx + gy, "-": gx - gy, "*": gx * gy, "neg": -gx, "conj": gx.conjugate()}
        if norm:
            expected["/"] = (
                (x[0] * y[0] + x[1] * y[1]) / norm,
                (x[1] * y[0] - x[0] * y[1]) / norm,
            )
            got["/"] = gx / gy
        for op, (re, im) in expected.items():
            value = got[op]
            assert (value.re, value.im) == (re, im), op
            assert value == GaussianRational(re, im) and hash(value) == hash(GaussianRational(re, im))
            assert value.triple[2] > 0 and math.gcd(*value.triple) == 1
        assert (gx + gy) - gy == gx and hash((gx + gy) - gy) == hash(gx)
        assert (gx == gy) == (x == y)
        assert gx.is_zero() == (x == (0, 0))
        assert gx.is_real() == (x[1] == 0)
        assert gx.is_integer() == (x[1] == 0 and x[0].denominator == 1)
        if x[1] == 0:
            assert gx == x[0] and hash(gx) == hash(x[0])
        assert str(gx) == _reference_str(*x)
        assert parse_gaussian_rational(str(gx)) == gx
        z = gx.to_complex()
        assert (z.real.hex(), z.imag.hex()) == (float(x[0]).hex(), float(x[1]).hex())


def _constructed_sum(a: ComplexDivisor, b: ComplexDivisor) -> ComplexDivisor:
    """a + b through the public constructor, which re-canonicalizes every term."""
    return ComplexDivisor(
        a.mc, marked=list(a.marked) + list(b.marked), integral=list(a.integral) + list(b.integral)
    )


def _assert_same_divisor(d: ComplexDivisor, expected: ComplexDivisor) -> None:
    assert d.marked == expected.marked
    assert d.integral == expected.integral  # same points, bit for bit, in the same order
    assert d.degree() == expected.degree()
    assert d.marked_degree() == expected.marked_degree()
    assert d.support_items() == expected.support_items()


@pytest.mark.parametrize("curve", [Sphere(), Torus(0.3 + 1.1j)], ids=["sphere", "torus"])
def test_divisor_operators_equal_constructor_built_result(curve):
    rng = random.Random(11)
    marks = [0.1 + 0.2j, 0.55 + 0.3j, 0.3 + 0.7j]
    mc = MarkedCurve(curve, marks)
    lattice = 1 + curve.tau if isinstance(curve, Torus) else 0

    def random_divisor():
        coeffs = [GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                   Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                  for _ in range(2)]
        coeffs.append(-(coeffs[0] + coeffs[1]) + rng.randint(-2, 2))
        points = [complex(rng.choice((0.2, 0.4, 0.6, 0.8)), rng.choice((0.15, 0.5, 0.85)))
                  for _ in range(3)]
        integral = [(p + rng.randint(0, 1) * lattice, rng.randint(-2, 2)) for p in points]
        if rng.random() < 0.3:
            # an integral term on a mark folds into the marked part
            integral.append((marks[rng.randrange(3)] + lattice, rng.randint(-2, 2)))
        return ComplexDivisor(mc, marked=list(enumerate(coeffs)), integral=integral)

    for _ in range(200):
        a, b = random_divisor(), random_divisor()
        _assert_same_divisor(a + b, _constructed_sum(a, b))
        _assert_same_divisor(a - b, _constructed_sum(a, -b))
        _assert_same_divisor(-a, ComplexDivisor(
            mc, marked=[(i, -c) for i, c in a.marked], integral=[(p, -w) for p, w in a.integral]))
        assert (a + (-a)).is_empty() and (a - a).degree() == 0
        k = rng.randint(-3, 3)
        _assert_same_divisor(a.scale(k), ComplexDivisor(
            mc, marked=[(i, k * c) for i, c in a.marked], integral=[(p, k * w) for p, w in a.integral]))
        marked_only = ComplexDivisor(mc, marked=a.marked)
        alpha = GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
        try:
            expected = ComplexDivisor(mc, marked=[(i, alpha * c) for i, c in a.marked])
        except DegreeIntegralityError:
            with pytest.raises(DegreeIntegralityError):
                marked_only.scale(alpha)
        else:
            _assert_same_divisor(marked_only.scale(alpha), expected)


def test_divisor_sum_merges_lattice_translates_and_drops_zeros():
    t = Torus(0.3 + 1.1j)
    mc = MarkedCurve(t, [0.5 + 0.5j, 0.1 + 0.8j])
    p = 0.25 + 0.4j
    a = ComplexDivisor(mc, marked={0: HALF + I, 1: HALF - I}, integral=[(p, 2), (0.7 + 0.1j, -1)])
    b = ComplexDivisor(mc, marked={0: -HALF - I, 1: -HALF + I},
                       integral=[(p + 1 + t.tau, -2), (0.7 + 0.1j, 1)])
    assert (a + b).is_empty() and _constructed_sum(a, b).is_empty()
    c = ComplexDivisor(mc, integral=[(p - t.tau, 1), (0.5 + 0.5j + 2, -1)])  # second term on a mark
    assert c.marked == ((0, GaussianRational(-1)),)
    _assert_same_divisor(a + c, _constructed_sum(a, c))
    assert dict((a + c).integral)[a.integral[0][0]] == 3
    assert (a + c).marked_coefficient(0) == GaussianRational(Fraction(-1, 2), 1)


@pytest.mark.parametrize("defect, decision", [(5e-10, True), (5e-9, True), (5e-8, False)])
def test_class_equality_principality_and_functions_share_one_lattice_tolerance(defect, decision):
    t = Torus(1j)
    mc = MarkedCurve(t)
    d1 = ComplexDivisor(mc, integral=[(0.25, 1), (0.75, -1)])
    d2 = ComplexDivisor(mc, integral=[(0.25 + defect, 1), (0.75, -1)])
    same_class = class_invariant(mc, d1).matches(class_invariant(mc, d2))
    principal = is_principal(mc, d1 - d2).principal
    try:  # zeros and poles with coordinate sum `defect`
        RationalFunctionData.from_zeros_poles(t, [0.25 + defect, 0.5], [0.75, 0])
    except DomainError:
        accepted = False
    else:
        accepted = True
    assert (same_class, principal, accepted) == (decision,) * 3


# --- the coincidence rule against the point scans it replaced ----------------


def _scan_constructor_parts(mc: MarkedCurve, marked, integral):
    """Canonical parts by a scan of the marks per point, then a greedy merge of the rest."""
    curve, coeffs, points, weights = mc.curve, {}, [], []
    for index, value in marked:
        coeffs[index] = coeffs.get(index, GaussianRational(0)) + GaussianRational.coerce(value)
    for raw, value in integral:
        point, coeff = as_point(raw), GaussianRational.coerce(value)
        if coeff.is_zero():
            continue
        index = None
        if not point.at_infinity:
            point = curve.reduce_point(point)
            index = next((i for i, mark in enumerate(mc.marks) if curve.points_equal(mark, point)), None)
        if index is not None:
            coeffs[index] = coeffs.get(index, GaussianRational(0)) + coeff
            continue
        if not coeff.is_integer():
            raise NonIntegralCoefficientError()
        for k, existing in enumerate(points):
            if curve.points_equal(existing, point):
                weights[k] += int(coeff.re)
                break
        else:
            points.append(point)
            weights.append(int(coeff.re))
    marked_part = tuple((i, c) for i, c in sorted(coeffs.items()) if not c.is_zero())
    if not (sum((c for _, c in marked_part), GaussianRational(0)) + sum(weights)).is_integer():
        raise DegreeIntegralityError()
    return marked_part, _sorted_part(zip(points, weights))


def _scan_sum_parts(a: ComplexDivisor, b: ComplexDivisor):
    """Parts of a + b: each integral point of b merged into the first coinciding one of a."""
    coeffs = dict(a.marked)
    for index, coeff in b.marked:
        coeffs[index] = coeffs[index] + coeff if index in coeffs else coeff
    pairs = list(a.integral)
    for point, weight in b.integral:
        for k, (existing, total) in enumerate(a.integral):
            if a.mc.curve.points_equal(existing, point):
                pairs[k] = (existing, pairs[k][1] + weight)
                break
        else:
            pairs.append((point, weight))
    return tuple((i, c) for i, c in sorted(coeffs.items()) if not c.is_zero()), _sorted_part(pairs)


def _scan_function_parts(curve, zeros_poles) -> tuple:
    merged = []
    for point, mult in zeros_poles:
        if mult == 0:
            continue
        for k, (existing, total) in enumerate(merged):
            if curve.points_equal(existing, point):
                merged[k] = (existing, total + mult)
                break
        else:
            merged.append((point, mult))
    return _sorted_part(merged)


def _sorted_part(pairs) -> tuple:
    return tuple(sorted(((p, w) for p, w in pairs if w != 0), key=lambda item: item[0].sort_key()))


@pytest.mark.parametrize(
    "curve", [Sphere(), Torus(1j), Torus(0.3 + 1.1j), Torus(2.7 + 0.05j)], ids=["sphere", "square", "tilted", "skewed"]
)
def test_coincidence_rule_matches_the_point_scans(curve):
    rng = random.Random(77)
    torus = isinstance(curve, Torus)
    marks = [0.15 + 0.02j, 0.6 + 0.03j, 0.4 + 0.04j] if torus else [0.1 + 0.2j, -1.3 + 0.4j, 2.0 - 1.0j]
    mc = MarkedCurve(curve, marks)

    def translate(z: complex) -> complex:
        return z + rng.randint(-2, 2) + rng.randint(-2, 2) * curve.tau if torus else z

    def near(z: complex, tols: float) -> complex:
        return z + tols * curve.point_tol * cmath.exp(2j * math.pi * rng.random())

    def draw_points(count: int) -> list[tuple[complex, bool]]:
        """(point, whether it coincides with a mark): fresh points, marks and earlier
        points, moved by 0.1 point_tol (merges), 0.6 (only the first copy of a chain
        merges) or 2 (stays distinct), and by a lattice vector."""
        drawn = []
        for _ in range(count):
            choice, on_mark = rng.random(), False
            if choice < 0.3 or not drawn:
                z = rng.uniform(0, 1) + rng.uniform(0, 1) * curve.tau if torus else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            elif choice < 0.55:
                z, on_mark = rng.choice(marks), True
            else:
                z = rng.choice(drawn)[0]
            if rng.random() < 0.7:
                tols = rng.choice((0.1, 0.6, 2.0))
                z, on_mark = near(z, tols), on_mark and tols < 1
            drawn.append((translate(z), on_mark))
        return drawn

    divisors, raised, terms = [], set(), 0
    for _ in range(150):
        integral = []
        for z, on_mark in draw_points(rng.randint(2, 8)):
            if on_mark or rng.random() < 0.03:  # a non-integer coefficient, raising off the marks
                integral.append((z, GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))))
            else:
                integral.append((z, rng.randint(-2, 2)))  # zeros included
        if not torus and rng.random() < 0.5:
            integral += [(CurvePoint.infinity(), rng.randint(-2, 2)), (CurvePoint.infinity(), rng.randint(-2, 2))]
        # a marked term that makes the degree integral, or, now and then, half-integral
        total = sum((GaussianRational.coerce(w) for _, w in integral), GaussianRational(0))
        marked = [(rng.randrange(3), -total + (HALF if rng.random() < 0.1 else rng.randint(-2, 2)))]
        try:
            expected = _scan_constructor_parts(mc, marked, integral)
        except DomainError as exc:
            with pytest.raises(type(exc)):
                ComplexDivisor(mc, marked=marked, integral=integral)
            raised.add(type(exc))
            continue
        d = ComplexDivisor(mc, marked=marked, integral=integral)
        assert (d.marked, d.integral) == expected
        divisors.append(d)
        terms += len(integral) + 1 - len(d.marked) - len(d.integral)
    assert len(divisors) > 100 and terms > 200  # most draws are divisors; many terms merge or drop
    assert raised == {NonIntegralCoefficientError, DegreeIntegralityError}

    for a, b in zip(divisors, divisors[1:]):
        total = a + b
        assert (total.marked, total.integral) == _scan_sum_parts(a, b)

    for _ in range(150):
        zeros = [z for z, _ in draw_points(rng.randint(1, 4))]
        # a translate or a copy of each zero as a pole: the coordinate sum stays
        # within 4 * 2 point_tol of the lattice
        poles = [translate(near(z, rng.choice((0.0, 0.1, 0.6, 2.0)))) for z in zeros]
        items = [(CurvePoint(z), 1) for z in zeros] + [(CurvePoint(z), -1) for z in poles]
        if not torus:
            items.append((CurvePoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))), rng.randint(-2, 2)))
        rng.shuffle(items)
        assert RationalFunctionData(curve, items).zeros_poles == _scan_function_parts(curve, items)


def test_inputs_of_one_edge_point_give_one_class():
    # 0.8 and 2.3 + 0.0003i name one point of this thin torus, on the cell edge b = 0
    t = Torus(0.5 + 0.0001j)
    c = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    curves = [MarkedCurve(t, [mark, 0.1 + 0.00005j]) for mark in (0.8, 2.3 + 0.0003j)]
    assert curves[0].compatible_with(curves[1])
    assert [t.lattice_coords(mc.marks[0].z)[1] for mc in curves] == [0.0, 0.0]
    first, second = (class_invariant(mc, ComplexDivisor(mc, {0: c, 1: -c})) for mc in curves)
    assert first.matches(second)
    assert abs(first.jacobian - second.jacobian) < 1e-12
