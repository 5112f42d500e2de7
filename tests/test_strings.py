import math

import numpy as np
import pytest

from divpair import (
    DomainError,
    MarkedCurve,
    MomentumConfig,
    Sphere,
    Torus,
    momentum_divisor,
    string_pairing_factor,
)
from divpair.pairing import self_pairing_exponent
from divpair.strings import DIMENSION


def two_point_config():
    e1 = [0j] * DIMENSION
    e1[0] = 1.0 + 0j
    return MomentumConfig([e1, [-c for c in e1]])


def mercedes_config():
    rows = []
    for k in range(3):
        angle = 2 * math.pi * k / 3
        row = [0j] * DIMENSION
        row[0] = complex(math.cos(angle), 0)
        row[1] = complex(math.sin(angle), 0)
        rows.append(row)
    return MomentumConfig(rows)


def random_unitary(rng):
    z = rng.normal(size=(DIMENSION, DIMENSION)) + 1j * rng.normal(size=(DIMENSION, DIMENSION))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conjugate()


def test_config_validation():
    bad = [[0j] * DIMENSION, [0j] * DIMENSION]
    bad[0][0] = 1.0
    bad[1][0] = -0.5
    with pytest.raises(DomainError):
        MomentumConfig(bad)  # conservation violated
    unbalanced = [[0j] * DIMENSION, [0j] * DIMENSION]
    unbalanced[0][0] = 0.5
    unbalanced[1][0] = -0.5
    with pytest.raises(DomainError):
        MomentumConfig(unbalanced)  # mass not 1
    with pytest.raises(DomainError):
        MomentumConfig([[1.0] * 5])


def test_momentum_divisor_examples():
    cfg = two_point_config()
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    d = momentum_divisor(mc, cfg, 0)
    assert d.marked_coefficient(0).to_complex() == 1.0
    assert d.marked_coefficient(1).to_complex() == -1.0
    assert d.degree() == 0
    assert momentum_divisor(mc, cfg, 1).is_empty()
    with pytest.raises(DomainError):
        momentum_divisor(mc, cfg, 13)
    with pytest.raises(DomainError):
        momentum_divisor(MarkedCurve(Sphere(), [0.0]), cfg, 0)


def test_momentum_divisor_three_point():
    cfg = mercedes_config()
    mc = MarkedCurve(Sphere(), [0.0, 1.0, 2.0])
    d0 = momentum_divisor(mc, cfg, 0)
    assert abs(d0.marked_coefficient(0).to_complex() - 1.0) < 1e-9
    assert abs(d0.marked_coefficient(1).to_complex() + 0.5) < 1e-9
    assert abs(d0.marked_coefficient(2).to_complex() + 0.5) < 1e-9
    assert d0.degree() == 0 and d0.marked_degree().is_zero()


def test_string_factor_unit_distance():
    cfg = two_point_config()
    mc = MarkedCurve(Sphere(), [0.0, 1.0])
    result = string_pairing_factor(mc, cfg)
    assert abs(result.factor - 1.0) < 1e-14
    assert result.diagonal_omitted


def test_string_factor_distance_three():
    cfg = two_point_config()
    mc = MarkedCurve(Sphere(), [0.0, 3.0])
    result = string_pairing_factor(mc, cfg)
    assert abs(result.factor - 1 / 9) < 1e-12
    assert abs(result.per_component[0] - 1 / 9) < 1e-12
    assert all(abs(f - 1.0) < 1e-15 for f in result.per_component[1:])


def test_string_factor_positive_on_torus():
    cfg = mercedes_config()
    mc = MarkedCurve(Torus(0.3 + 1.1j), [0.2 + 0.2j, 0.6 + 0.4j, 0.4 + 0.8j])
    assert string_pairing_factor(mc, cfg).factor > 0


def test_unitary_invariance():
    rng = np.random.default_rng(1234)
    cfg = mercedes_config()
    mc = MarkedCurve(Sphere(), [0.0, 1.0, 2.5 + 1j])
    base = string_pairing_factor(mc, cfg).factor
    for _ in range(10):
        rotated = cfg.apply_unitary(random_unitary(rng))
        assert abs(string_pairing_factor(mc, rotated).factor - base) < 1e-10 * base


def test_factorization_against_pairing_module():
    rng = np.random.default_rng(99)
    cfg = mercedes_config().apply_unitary(random_unitary(rng))
    mc = MarkedCurve(Sphere(), [0.0, 1.0, 2.5 + 1j])
    factor = string_pairing_factor(mc, cfg)
    exponent = 0.0
    for nu in range(DIMENSION):
        exponent += self_pairing_exponent(mc, momentum_divisor(mc, cfg, nu))
    assert abs(factor.factor - math.exp(exponent)) < 1e-10 * factor.factor


def test_apply_unitary_matches_the_componentwise_sums():
    rng = np.random.default_rng(5)
    cfg = mercedes_config().apply_unitary(random_unitary(rng))
    for _ in range(10):
        u = random_unitary(rng)
        rotated = cfg.apply_unitary(u)
        for row, new in zip(cfg.momenta, rotated.momenta):
            loop = [sum(complex(u[r][c]) * row[c] for c in range(DIMENSION)) for r in range(DIMENSION)]
            # each vector has unit Hermitian norm, so this is relative to its norm
            assert max(abs(a - b) for a, b in zip(new, loop)) <= 1e-15
