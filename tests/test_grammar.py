from fractions import Fraction

import pytest

from divpair import (
    GaussianRational,
    MarkedCurve,
    ParseError,
    Sphere,
    parse_complex,
    parse_divisor,
    parse_gaussian_rational,
)
from divpair.grammar import format_complex, parse_rational_function_spec


def test_parse_complex_forms():
    assert parse_complex("1") == 1
    assert parse_complex("-3/2") == -1.5
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2i") == 2j
    assert parse_complex("0.3+0.1i") == 0.3 + 0.1j
    assert parse_complex("1/2-1/3i") == 0.5 - (1 / 3) * 1j
    assert parse_complex(" 1 + 2i ") == 1 + 2j


def test_parse_gaussian_rational_exact():
    v = parse_gaussian_rational("1/2+2i")
    assert v == GaussianRational(Fraction(1, 2), 2)
    assert parse_gaussian_rational("-i") == GaussianRational(0, -1)
    assert parse_gaussian_rational("0.3") == GaussianRational(Fraction(3, 10))


def test_parse_complex_rejects_junk():
    for bad in ("", "1+2", "2j3", "1e5", "i2", "--3", "1/2/3"):
        with pytest.raises(ParseError):
            parse_complex(bad)


def test_parse_divisor_literals():
    mc = MarkedCurve(Sphere(), [0.5, 1.5])
    d = parse_divisor("1@2,-1@-2", mc)
    assert d.degree() == 0 and len(d.integral) == 2
    dm = parse_divisor("1/2+2i@Q1,-1/2-2i@Q2", mc)
    assert dm.marked_coefficient(0) == GaussianRational(Fraction(1, 2), 2)
    assert parse_divisor("", mc).is_empty()
    assert parse_divisor("1@inf,-1@3", mc).degree() == 0


def test_parse_divisor_mark_coincidence():
    mc = MarkedCurve(Sphere(), [0.5])
    d = parse_divisor("2@0.5", mc)
    assert not d.integral
    assert d.marked_coefficient(0) == GaussianRational(2)


def test_parse_divisor_errors():
    mc = MarkedCurve(Sphere(), [0.5])
    with pytest.raises(ParseError):
        parse_divisor("1@@2", mc)
    with pytest.raises(ParseError):
        parse_divisor("1", mc)
    with pytest.raises(ParseError):
        parse_divisor("1@Q9", mc)


def test_rational_function_spec():
    zeros, poles, const = parse_rational_function_spec("zeros:0;poles:2")
    assert [z.z for z in zeros] == [0] and [p.z for p in poles] == [2]
    assert const == 1
    zeros, poles, const = parse_rational_function_spec(
        "zeros:0,1+1i;poles:2;const:2i"
    )
    assert len(zeros) == 2 and const == 2j
    with pytest.raises(ParseError):
        parse_rational_function_spec("zeros:0;zeros:1")
    with pytest.raises(ParseError):
        parse_rational_function_spec("nope:1")


def test_format_complex_round_trip():
    for value in (0, 1.5, -2j, 1 + 2j, -0.5 - 1j, 1j, -1j, 0.1 + 0.25j):
        assert parse_complex(format_complex(complex(value))) == complex(value)


def test_format_gaussian_rational_round_trip():
    import random

    rng = random.Random(8)
    for _ in range(100):
        value = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        )
        assert parse_gaussian_rational(str(value)) == value


def test_exponent_literals_round_trip_at_every_magnitude():
    import random

    rng = random.Random(12)
    for exponent in range(-300, 301, 7):
        for _ in range(4):
            x = rng.uniform(1, 10) * 10.0 ** exponent
            for value in (complex(x, 0), complex(-x, 0), complex(0, x), complex(0, -x),
                          complex(x, -x / 3), complex(-x / 7, x)):
                text = format_complex(value)
                assert parse_complex(text) == value, text
    for value in (1e22, -1e17j, 1e300 + 1e-300j):  # .17g prints these without a point
        text = format_complex(value)
        assert parse_complex(text) == value, text


def test_exponent_signs_are_not_part_separators():
    assert parse_complex("-3.7583943430614565e-18-3.1415926535897878i") == complex(
        -3.7583943430614565e-18, -3.1415926535897878
    )
    assert parse_complex("1.0e-18i") == 1e-18j
    assert parse_complex("2.5E+3-1.5e-3i") == 2500 - 0.0015j
    assert parse_gaussian_rational("1.5e-2") == GaussianRational(Fraction(3, 200))
    # an exponent needs a decimal mantissa and at most three digits
    for bad in ("1e5", "1.0e", "1.0e+", "1.0e1000", "e5", "1.0e+-3", "1.0e5.5"):
        with pytest.raises(ParseError):
            parse_complex(bad)
    with pytest.raises(ParseError):  # a literal beyond the float range
        parse_complex("2.0e308")
