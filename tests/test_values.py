"""Every value type is a frozen slotted dataclass: immutable, del-proof, and it copies and pickles."""

import copy
import dataclasses
import pickle
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from divpair import (
    ComplexDivisor,
    GaussianRational,
    MarkedCurve,
    MomentumConfig,
    RationalFunctionData,
    Sphere,
    Torus,
    check_scaling_laws,
    class_invariant,
    glueing_data,
    monodromy_certificate,
    normalize_expansion,
    pairing_norm,
    string_pairing_factor,
)
import divpair
from divpair.selftest import run_property, run_selftest
from divpair.strings import DIMENSION

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

HALF_I = GaussianRational(Fraction(1, 2), Fraction(1, 3))


def _values():
    torus = Torus(0.3 + 1.1j)
    mc = MarkedCurve(torus, [0.1 + 0.2j, 0.5 + 0.3j, 0.7 + 0.9j, 0.9 + 0.6j])
    d = ComplexDivisor(mc, {0: HALF_I, 1: -HALF_I}, [(0.2 + 0.4j, 2), (0.3 + 0.1j, -2)])
    d.support_items()  # fills the cached float support, which copies with the rest
    k = ComplexDivisor(mc, {1: 1, 2: -1})
    other = ComplexDivisor(mc, {0: HALF_I, 3: -HALF_I})
    sphere_mc = MarkedCurve(Sphere(), [0.0, 1.0])
    e1 = [0j] * DIMENSION
    e1[0] = 1.0 + 0j
    momenta = MomentumConfig([e1, [-c for c in e1]])
    return [
        GaussianRational(Fraction(-2, 3), 5),
        mc,
        d,
        class_invariant(mc, d),
        RationalFunctionData.from_zeros_poles(torus, [0.2 + 0.1j, 0.4 + 0.3j], [0.1 + 0.5j, 0.5 - 0.1j]),
        momenta,
        normalize_expansion(0.25 + 0.5j, 1, [0, 1, 2j]),
        glueing_data(mc, d),
        monodromy_certificate(mc, k),
        pairing_norm(mc, k, other),
        check_scaling_laws(mc, k, other, 2),
        string_pairing_factor(sphere_mc, momenta),
        run_property("divisor.group_laws", 1, 1),
        run_selftest(1, 1),
    ]


VALUES = _values()
IDS = [type(value).__name__ for value in VALUES]
# the types that define their own equality: the group law and the exact value
OWN_EQUALITY = (GaussianRational, ComplexDivisor)


def _field_values(value):
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_value_type_is_a_frozen_slotted_dataclass(value):
    cls = type(value)
    assert cls.__dataclass_params__.frozen
    assert "__slots__" in cls.__dict__ and not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", VALUES, ids=IDS)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_value_type_round_trips(value, round_trip):
    twin = round_trip(value)
    assert type(twin) is type(value)
    assert repr(twin) == repr(value)
    if isinstance(value, OWN_EQUALITY):
        assert twin == value and hash(twin) == hash(value)
    elif type(value).__eq__ is not object.__eq__:
        assert twin == value
    else:
        assert _field_values(twin) == _field_values(value)


def test_unpickled_divisor_keeps_the_group_law():
    d = VALUES[2]
    twin = pickle.loads(pickle.dumps(d))
    assert (twin - d).is_empty() and twin.degree() == d.degree()
    assert twin.marked_degree() == d.marked_degree()
    assert twin.support_items() == d.support_items()


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_value_type_refuses_setattr_and_delattr(value):
    for f in dataclasses.fields(value):
        before = getattr(value, f.name)
        with pytest.raises(AttributeError):
            setattr(value, f.name, None)
        with pytest.raises(AttributeError):
            delattr(value, f.name)
        assert getattr(value, f.name) is before


def test_benchmark_tracer_sees_the_rebuilt_constructors_and_restores_them():
    # the tracer wraps __init__ from each class's own __dict__; run_path executes the
    # file without importing perfbench or writing bytecode
    tracer = runpy.run_path(str(TRACING))["Tracer"]()
    originals = {cls: cls.__dict__["__init__"] for cls in (MarkedCurve, ComplexDivisor)}
    norm = divpair.pairing_norm
    try:
        tracer.install("divpair")
        assert divpair.pairing_norm is not norm
        mc = MarkedCurve(Torus(0.3 + 1.1j), [0.1 + 0.2j, 0.5 + 0.3j])
        ComplexDivisor(mc, {0: HALF_I, 1: -HALF_I})
    finally:
        tracer.uninstall()
    spans = [tracer.names[i] for i in tracer.name]
    assert spans.count("divisor.MarkedCurve.__init__") == 1
    assert spans.count("divisor.ComplexDivisor.__init__") == 1
    assert all(cls.__dict__["__init__"] is init for cls, init in originals.items())
    assert divpair.pairing_norm is norm
    ComplexDivisor(mc)
    assert len(tracer) == len(spans)
