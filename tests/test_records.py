"""The result records are frozen slotted dataclasses: no per-instance __dict__,
and replace, equality, hashing, repr and pickling behave as for any frozen dataclass."""

import dataclasses
import pickle

import pytest

from divpair import (
    ComplexDivisor,
    CurvePoint,
    MarkedCurve,
    MomentumConfig,
    Torus,
    check_scaling_laws,
    glueing_data,
    is_principal,
    normalize_expansion,
    pairing_norm,
    string_pairing_factor,
)
from divpair.selftest import run_selftest
from divpair.strings import DIMENSION


def torus_setup():
    mc = MarkedCurve(Torus(0.1 + 1.1j), [0.2 + 0.3j, 0.6 + 0.7j])
    d1 = ComplexDivisor(mc, marked={0: 1, 1: -1})
    d2 = ComplexDivisor(mc, integral=[(0.4 + 0.1j, 1), (0.8 + 0.5j, -1)])
    return mc, d1, d2


def string_factor():
    mc = torus_setup()[0]
    row = [0j] * DIMENSION
    row[0] = 1.0 + 0j
    return string_pairing_factor(mc, MomentumConfig([row, [-c for c in row]]))


def principality_certificate():
    mc, _, d2 = torus_setup()
    return is_principal(mc, d2)


# (record factory, a field, another value for it)
RECORDS = {
    "CurvePoint": (lambda: CurvePoint(0.25 + 0.5j), "z", 0.5 + 0j),
    "PairingResult": (lambda: pairing_norm(*torus_setup()), "formula", "ad"),
    "ScalingResiduals": (lambda: check_scaling_laws(*torus_setup(), 2), "real_law", None),
    "StringFactor": (string_factor, "diagonal_omitted", False),
    "LocalExpansion": (lambda: normalize_expansion(1.5 + 0.2j, 0, [1, 2j]), "leading_index", 7),
    "GlueingData": (lambda: glueing_data(*torus_setup()[:2]), "inner_chart", "disk"),
    "PrincipalityCertificate": (principality_certificate, "principal", True),
    "PropertyResult": (lambda: run_selftest(seed=3, cases=1).results[0], "passed", False),
    "SelftestReport": (lambda: run_selftest(seed=3, cases=1), "runtime_seconds", 0.0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_result_records_are_slotted_frozen_dataclasses(name):
    make, field, value = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert not hasattr(record, "__dict__")
    assert "__slots__" in type(record).__dict__
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, value)

    copy = dataclasses.replace(record)
    assert copy == record and copy is not record and hash(copy) == hash(record)
    changed = dataclasses.replace(record, **{field: value})
    assert getattr(changed, field) == value and changed != record

    if name != "CurvePoint":  # which writes its own repr
        shown = ", ".join(f"{f.name}={getattr(record, f.name)!r}" for f in dataclasses.fields(record))
        assert repr(record) == f"{name}({shown})"
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record and hash(restored) == hash(record) and repr(restored) == repr(record)


def test_curve_point_repr_is_unchanged():
    assert repr(CurvePoint(0.25 + 0.5j)) == "CurvePoint((0.25+0.5j))"
    assert repr(CurvePoint.infinity()) == "CurvePoint(inf)"
