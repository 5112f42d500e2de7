"""The selftest's property runner: case counts, the fold of case results, and
non-finite residuals, which fail the property instead of vanishing in ``max``;
and the declared property list, which the benchmark's tracer pins by name."""

import dataclasses
import math
import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

import divpair.selftest as selftest
from divpair.errors import DomainError
from divpair.selftest import _Ctx, _property, property_names, run_property, run_selftest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _ctx(cases: int) -> _Ctx:
    return _Ctx(1, "runner", cases)


def test_runner_folds_largest_residual_or_total_failures():
    residuals = iter([0.5, 2.0, 1.0])
    assert _property()(lambda ctx: next(residuals))(_ctx(3)) == 2.0
    failures = iter([1, 0, 2, True])
    assert _property(count=True)(lambda ctx: next(failures))(_ctx(4)) == 4.0


@pytest.mark.parametrize("cases, per, least, expected", [
    (500, 1, 1, 500), (500, 10, 1, 50), (7, 10, 1, 1), (10, 5, 4, 4), (500, 5, 4, 100),
])
def test_runner_case_count_and_index(cases, per, least, expected):
    seen = []
    check = _property(per=per, least=least)(lambda ctx: seen.append(ctx.case) or 0.0)
    assert check(_ctx(cases)) == 0.0
    assert seen == list(range(expected))


@pytest.mark.parametrize("count", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_runner_ends_at_inf_on_the_first_non_finite_case(count, bad):
    seen = []

    def case(ctx):
        seen.append(ctx.case)
        return (0, bad, 0)[ctx.case]

    assert _property(count=count)(case)(_ctx(3)) == math.inf
    assert seen == [0, 1]


def test_nan_green_kernel_fails_kernel_symmetry(monkeypatch):
    monkeypatch.setattr(selftest, "green_kernel", lambda curve, p, q: math.nan)
    result = run_property("curve.kernel_symmetry", seed=1, cases=5)
    assert result.residual == math.inf and not result.passed


@pytest.mark.parametrize("name", ["pairing.formula_equivalence", "pairing.kernel_constant_independence"])
def test_nan_pairing_norm_fails_the_pairing_properties(monkeypatch, name):
    nan = SimpleNamespace(norm=math.nan, exponent=math.nan)
    monkeypatch.setattr(selftest, "pairing_norm", lambda *args, **kwargs: nan)
    result = run_property(name, seed=1, cases=5)
    assert result.residual == math.inf and not result.passed


def test_one_nan_formula_fails_formula_equivalence(monkeypatch):
    # max and min of [a, nan, b] both skip the NaN; the pairwise gaps do not
    real = selftest.pairing_norm

    def adsym_nan(mc, d1, d2, formula, **kwargs):
        result = real(mc, d1, d2, formula, **kwargs)
        return dataclasses.replace(result, exponent=math.nan) if formula == "adsym" else result

    monkeypatch.setattr(selftest, "pairing_norm", adsym_nan)
    result = run_property("pairing.formula_equivalence", seed=1, cases=5)
    assert result.residual == math.inf and not result.passed


@pytest.mark.parametrize("cases", [0, -3])
def test_non_positive_case_count_is_a_domain_error(cases):
    with pytest.raises(DomainError, match="at least 1"):
        run_selftest(cases=cases)
    with pytest.raises(DomainError, match="at least 1"):
        run_property("curve.kernel_symmetry", cases=cases)


def test_benchmark_tracer_pins_the_declared_properties_in_order():
    # the tracer times each property under a name from its own list; run_path
    # executes the file without importing perfbench or writing bytecode
    assert list(runpy.run_path(str(TRACING))["SELFTEST_PROPERTIES"]) == property_names()


def test_unknown_property_is_a_key_error():
    with pytest.raises(KeyError):
        run_property("curve.no_such_property", cases=1)
