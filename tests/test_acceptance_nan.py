"""A NaN in any residual that an acceptance criterion folds fails that criterion.

Each test replaces, in the acceptance module's namespace, the function whose
results a criterion folds, and expects the criterion to fail rather than let
the NaN vanish in ``max(0.0, nan) == 0.0``.
"""

import dataclasses
import itertools
import math

import pytest

import test_acceptance as acceptance
from divpair import ScalingResiduals


def _fails(criterion):
    with pytest.raises(AssertionError):
        criterion()


@pytest.mark.parametrize("check", ["check_symmetry", "check_bimultiplicativity"])
def test_nan_pairing_law_fails_criterion_4(monkeypatch, check):
    monkeypatch.setattr(acceptance, check, lambda *args: math.nan)
    _fails(acceptance.test_criterion_04_symmetry_and_bimultiplicativity)


@pytest.mark.parametrize("residuals", [(math.nan, 0.0), (0.0, math.nan)], ids=["real", "conjugation"])
def test_nan_scaling_law_fails_criterion_5(monkeypatch, residuals):
    monkeypatch.setattr(acceptance, "check_scaling_laws", lambda *args: ScalingResiduals(*residuals))
    _fails(acceptance.test_criterion_05_scaling_laws)


def test_nan_rotated_string_factor_fails_criterion_11(monkeypatch):
    # the anchor and the unrotated base keep their true factors; the first
    # rotated configuration's factor is NaN
    real = acceptance.string_pairing_factor
    calls = itertools.count()

    def factor(mc, cfg):
        result = real(mc, cfg)
        return dataclasses.replace(result, factor=math.nan) if next(calls) == 2 else result

    monkeypatch.setattr(acceptance, "string_pairing_factor", factor)
    _fails(acceptance.test_criterion_11_string_factor)


def test_nan_theta1_fails_criterion_12(monkeypatch):
    monkeypatch.setattr(acceptance, "theta1", lambda z, tau: complex(math.nan, math.nan))
    _fails(acceptance.test_criterion_12_theta_oracle_agreement)
