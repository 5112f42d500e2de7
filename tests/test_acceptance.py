"""Acceptance suite: every criterion at its stated count and tolerance.

Each test prints one ``ACCEPTANCE k: PASS/FAIL`` line (run with ``-s`` to
see the table in a green run); the assertions carry the same thresholds.
"""

import cmath
import math
import random
from fractions import Fraction

from divpair import (
    ComplexDivisor,
    GaussianRational,
    MarkedCurve,
    MomentumConfig,
    Sphere,
    Torus,
    check_bimultiplicativity,
    check_scaling_laws,
    check_symmetry,
    multiplicator,
    pairing_norm,
    string_pairing_factor,
    theta1,
)
from divpair.selftest import (
    _Ctx,
    _check_class_vs_principal,
    _check_formula_equivalence,
    _check_hermitian_properties,
    _check_kernel_constant_independence,
    _check_order_additivity,
    _check_reciprocity_sphere,
    _check_reciprocity_torus,
    _check_witness_residues,
    _largest,
    _pairing_instance,
    _property,
    _random_momentum_config,
    _random_points,
    _random_curve,
    _random_unitary,
)
from divpair.strings import DIMENSION

SEED = 20260809


def _ctx(name: str, cases: int) -> _Ctx:
    return _Ctx(SEED, name, cases)


def _line(number: int, passed: bool, description: str, residual: float) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {state} - {description} (residual={residual:.3e})")


def test_criterion_01_weil_reciprocity():
    sphere_residual = _check_reciprocity_sphere(_ctx("acc.reciprocity.sphere", 500))
    torus_residual = _check_reciprocity_torus(_ctx("acc.reciprocity.torus", 500))
    residual = _largest(sphere_residual, torus_residual)
    passed = residual < 1e-9
    _line(1, passed, "Weil reciprocity, 500 sphere + 100 torus pairs < 1e-9", residual)
    assert passed


def test_criterion_02_formula_equivalence():
    residual = _check_formula_equivalence(_ctx("acc.formulas", 500))
    passed = residual < 1e-12
    _line(2, passed, "ad/adsym/ad3 exponents agree < 1e-12, 500 instances", residual)
    assert passed


def test_criterion_03_kernel_constant_independence():
    residual = _check_kernel_constant_independence(_ctx("acc.kernel_shift", 400))
    passed = residual < 1e-10
    _line(
        3, passed,
        "kernel shifts {-5,-1,0.7,5} change no norm by > 1e-10, 200 instances",
        residual,
    )
    assert passed


def _symmetry(ctx: _Ctx) -> float:
    return check_symmetry(*_pairing_instance(ctx.rng))


def _bimultiplicativity(ctx: _Ctx) -> float:
    curve = _random_curve(ctx.rng)
    points = _random_points(ctx.rng, curve, 7)
    mc = MarkedCurve(curve, points)
    half = GaussianRational(Fraction(1, 2))
    eye = GaussianRational(0, Fraction(1, 2))
    d1 = ComplexDivisor(mc, marked={0: half, 1: -half})
    d2 = ComplexDivisor(mc, marked={2: eye, 3: -eye})
    k = ComplexDivisor(mc, marked={4: half + eye, 5: -half - eye})
    return check_bimultiplicativity(mc, d1, d2, k)


def test_criterion_04_symmetry_and_bimultiplicativity():
    worst_symmetry = _property()(_symmetry)(_ctx("acc.symmetry", 500))
    worst_bimult = _property()(_bimultiplicativity)(_ctx("acc.bimultiplicativity", 500))
    passed = worst_symmetry < 1e-12 and worst_bimult < 1e-10
    _line(
        4, passed,
        "symmetry < 1e-12 and bimultiplicativity < 1e-10, 500 instances each",
        _largest(worst_symmetry, worst_bimult),
    )
    assert worst_symmetry < 1e-12
    assert worst_bimult < 1e-10


def _scaling_instance(rng: random.Random):
    """Four marks and two small divisors whose pairing exponent stays near 0,
    far from the float range."""
    curve = _random_curve(rng)
    if isinstance(curve, Torus):
        marks = _random_points(rng, curve, 4, min_gap=0.25)
    else:
        while True:
            marks = _random_points(rng, curve, 4)
            if all(
                0.7 <= abs(p - q) <= 2.5
                for i, p in enumerate(marks)
                for q in marks[i + 1:]
            ):
                break
    mc = MarkedCurve(curve, marks)
    quarter = Fraction(1, 4)
    choices = [
        GaussianRational(quarter),
        GaussianRational(0, quarter),
        GaussianRational(quarter, quarter),
        GaussianRational(quarter, -quarter),
    ]
    h1 = rng.choice(choices)
    h2 = rng.choice(choices)
    d1 = ComplexDivisor(mc, marked={0: h1, 1: -h1})
    d2 = ComplexDivisor(mc, marked={2: h2, 3: -h2})
    return mc, d1, d2


_ALPHAS = (
    GaussianRational(-3), GaussianRational(Fraction(1, 2)), GaussianRational(2),
    GaussianRational(0, 1), GaussianRational(1, 1), GaussianRational(2, -3),
)


def _scaling(ctx: _Ctx) -> float:
    """The largest residual of both laws over the six alphas on one instance; the
    real law is None, and skipped, for the three non-real alphas."""
    mc, d1, d2 = _scaling_instance(ctx.rng)
    results = [check_scaling_laws(mc, d1, d2, alpha) for alpha in _ALPHAS]
    return _largest(*(x for r in results for x in (r.real_law, r.conjugation_law) if x is not None))


def test_criterion_05_scaling_laws():
    residual = _property()(_scaling)(_ctx("acc.scaling", 200))
    passed = residual < 1e-10
    _line(
        5, passed,
        "scaling laws: real alpha {-3,1/2,2} and complex {i,1+i,2-3i} < 1e-10",
        residual,
    )
    assert passed


def test_criterion_06_hermitian_consistency():
    residual = _check_hermitian_properties(_ctx("acc.hermitian", 500))
    passed = residual < 1e-12
    _line(
        6, passed,
        "norm = exp(Re H), sesquilinearity, conjugate symmetry < 1e-12, 500 instances",
        residual,
    )
    assert passed


def test_criterion_07_closed_form_anchor():
    mc = MarkedCurve(Sphere())
    d1 = ComplexDivisor(mc, integral=[(1, 1), (-1, -1)])
    d2 = ComplexDivisor(mc, integral=[(2, 1), (-2, -1)])
    residual = abs(pairing_norm(mc, d1, d2).norm - 1 / 9)
    passed = residual < 1e-14
    _line(7, passed, "sphere anchor norm(D1, D2) = 1/9 within 1e-14", residual)
    assert passed


def test_criterion_08_order_algebra():
    failures = _check_order_additivity(_ctx("acc.order", 1000))
    passed = failures == 0.0
    _line(
        8, passed,
        "order additivity and normalization idempotence, 1000 products, exact",
        failures,
    )
    assert passed


def test_criterion_09_multiplicators_and_class_group():
    from divpair.selftest import _check_multiplicator_homomorphism

    hom_residual = _check_multiplicator_homomorphism(_ctx("acc.multiplicator", 500))
    rng = random.Random(f"{SEED}:acc.integral_multiplicators")
    integral_exact = True
    for _ in range(100):
        curve = _random_curve(rng)
        marks = _random_points(rng, curve, 3)
        mc = MarkedCurve(curve, marks)
        d = ComplexDivisor(
            mc, marked={i: rng.randint(-5, 5) for i in range(3)}
        )
        integral_exact &= all(
            multiplicator(mc, d, i) == 1.0 for i in range(3)
        )
    oracle_residual = _check_class_vs_principal(_ctx("acc.class_vs_principal", 500))
    passed = hom_residual < 1e-12 and integral_exact and oracle_residual < 1e-6
    _line(
        9, passed,
        "multiplicator homomorphism < 1e-12; integral => 1 exact; "
        "class/principal equivalence on 100 torus pairs, oracle periods < 1e-6",
        _largest(hom_residual, oracle_residual),
    )
    assert hom_residual < 1e-12
    assert integral_exact
    assert oracle_residual < 1e-6


def test_criterion_10_residue_theorem():
    failures = _check_witness_residues(_ctx("acc.residues", 200))
    passed = failures == 0.0
    _line(
        10, passed,
        "order sums of 200 sphere witnesses vanish exactly (infinity included)",
        failures,
    )
    assert passed


def test_criterion_11_string_factor():
    e1 = [0j] * DIMENSION
    e1[0] = 1.0 + 0j
    cfg = MomentumConfig([e1, [-c for c in e1]])
    mc = MarkedCurve(Sphere(), [0.0, 3.0])
    anchor_residual = abs(string_pairing_factor(mc, cfg).factor - 1 / 9)

    ctx = _ctx("acc.unitary", 50)
    curve = Sphere()
    mc3 = MarkedCurve(curve, [0.0, 1.0, 2.5 + 1j])
    base_cfg = _random_momentum_config(ctx.rng, ctx.np_rng, 3)
    base = string_pairing_factor(mc3, base_cfg).factor

    def unitary(ctx: _Ctx) -> float:
        rotated = base_cfg.apply_unitary(_random_unitary(ctx.np_rng, DIMENSION))
        return abs(string_pairing_factor(mc3, rotated).factor - base) / base

    worst_unitary = _property()(unitary)(ctx)
    passed = anchor_residual < 1e-12 and worst_unitary < 1e-10
    _line(
        11, passed,
        "two-puncture factor 1/9 within 1e-12; 50 random unitaries < 1e-10",
        _largest(anchor_residual, worst_unitary),
    )
    assert anchor_residual < 1e-12
    assert worst_unitary < 1e-10


def theta1_direct_series(z, tau, terms=200):
    total = 0j
    for n in range(terms):
        base = 1j * math.pi * tau * (n + 0.5) ** 2
        swing = (2 * n + 1) * 1j * math.pi * z
        total += (-1) ** n * (cmath.exp(base + swing) - cmath.exp(base - swing)) / 2j
    return 2.0 * total


def _theta_oracle(ctx: _Ctx) -> float:
    z = complex(ctx.rng.uniform(-2, 2), ctx.rng.uniform(-0.6, 0.6))
    tau = complex(ctx.rng.uniform(-0.45, 0.45), ctx.rng.uniform(0.5, 2.0))
    reference = theta1_direct_series(z, tau)
    return abs(theta1(z, tau) - reference) / abs(reference)


def test_criterion_12_theta_oracle_agreement():
    worst = _property()(_theta_oracle)(_ctx("acc.theta", 100))
    passed = worst < 1e-12
    _line(
        12, passed,
        "theta1 vs independent 200-term series, 100 samples, Im tau in [0.5, 2]",
        worst,
    )
    assert passed
