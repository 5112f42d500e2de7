"""Shared literal grammar for the library and the CLI.

Complex literals: ``a``, ``ai``, ``a+bi``, ``a-bi`` where ``a`` and ``b``
are integers, rationals ``p/q`` or decimals; a decimal (a number with a
decimal point) may carry an exponent of at most three digits, as in
``1.5e-18`` or ``2.0E+300``; whitespace is insignificant.  ``inf``
denotes the sphere's point at infinity and ``Qk`` (1-based) refers to the
k-th marked point.  Every value is read exactly (``fractions.Fraction``)
and rounded once.

Divisor literals: comma-separated ``coeff@point`` terms, e.g.
``"1@2,-1@-2"`` or ``"1/2+2i@Q1,-1/2-2i@Q2"``.  The empty string is the
empty divisor.

Rational function specs: ``zeros:<pts>;poles:<pts>[;const:<c>]`` with
multiplicity by repetition, e.g. ``"zeros:0;poles:2"`` for z/(z-2).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .curve import CurvePoint
from .divisor import ComplexDivisor, GaussianRational, MarkedCurve
from .errors import ParseError

_NUMBER_RE = re.compile(r"^[+-]?(\d+/\d+|(\d+\.\d*|\.\d+)([eE][+-]?\d{1,3})?|\d+)$")

__all__ = [
    "parse_rational",
    "parse_gaussian_rational",
    "parse_complex",
    "parse_point",
    "parse_divisor",
    "parse_rational_function_spec",
    "format_complex",
]


def parse_rational(text: str) -> Fraction:
    """Exact value of a decimal or p/q literal."""
    text = text.strip()
    if not _NUMBER_RE.match(text):
        raise ParseError(f"malformed number literal: {text!r}")
    return Fraction(text)


def _split_parts(text: str) -> tuple[Fraction, Fraction]:
    """Exact (re, im) of a complex literal."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty complex literal")
    if s[-1] in "iI":
        body = s[:-1]
        # find the sign separating the real part from the imaginary part
        # (a sign right after an exponent marker belongs to the exponent)
        split = -1
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                split = k
                break
        if split == -1:
            imag = body if body not in ("", "+", "-") else body + "1"
            return Fraction(0), parse_rational(imag)
        real, imag = body[:split], body[split:]
        if imag in ("+", "-"):
            imag += "1"
        return parse_rational(real), parse_rational(imag)
    return parse_rational(s), Fraction(0)


def parse_gaussian_rational(text: str) -> GaussianRational:
    re_part, im_part = _split_parts(text)
    return GaussianRational(re_part, im_part)


def parse_complex(text: str) -> complex:
    re_part, im_part = _split_parts(text)
    try:
        return complex(float(re_part), float(im_part))
    except OverflowError:
        raise ParseError(f"complex literal out of float range: {text.strip()!r}") from None


def parse_point(text: str, mc: MarkedCurve) -> CurvePoint:
    """A point token: complex literal, ``inf``, or mark reference ``Qk``, the k-th mark of ``mc``."""
    s = text.strip()
    if s.lower() == "inf":
        return CurvePoint.infinity()
    if s and s[0] in "qQ" and s[1:].isdigit():
        index = int(s[1:]) - 1
        if not 0 <= index < mc.n_marks:
            raise ParseError(f"mark reference out of range: {text!r}")
        return mc.marks[index]
    return CurvePoint(parse_complex(s))


def parse_divisor(text: str, mc: MarkedCurve) -> ComplexDivisor:
    """Divisor literal over the given marked curve; ``integral=`` folds a term on a mark into the marked part."""
    body = text.strip()
    terms = []
    for term in body.split(",") if body else ():
        if term.count("@") != 1:
            raise ParseError(f"malformed divisor term: {term.strip()!r}")
        coeff_text, point_text = term.split("@")
        coeff = parse_gaussian_rational(coeff_text)
        terms.append((parse_point(point_text, mc), coeff))
    return ComplexDivisor(mc, integral=terms)


def parse_rational_function_spec(text: str):
    """``zeros:...;poles:...[;const:...]`` -> (zeros, poles, constant)."""
    zeros: list[CurvePoint] = []
    poles: list[CurvePoint] = []
    constant = 1 + 0j
    seen = set()
    for section in text.split(";"):
        section = section.strip()
        if not section:
            continue
        if ":" not in section:
            raise ParseError(f"malformed rational-function section: {section!r}")
        key, _, payload = section.partition(":")
        key = key.strip().lower()
        if key in seen:
            raise ParseError(f"duplicate section {key!r}")
        seen.add(key)
        if key == "const":
            constant = parse_complex(payload)
        elif key in ("zeros", "poles"):
            points = [
                CurvePoint(parse_complex(tok))
                for tok in payload.split(",")
                if tok.strip()
            ]
            (zeros if key == "zeros" else poles).extend(points)
        else:
            raise ParseError(f"unknown rational-function section {key!r}")
    return zeros, poles, constant


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    text = format(x, ".17g")
    if "e" in text and "." not in text:  # "1e+22" is not a decimal; "1.0e+22" is
        text = text.replace("e", ".0e")
    return text


def format_complex(value: complex) -> str:
    """Literal round-trippable through ``parse_complex``, for finite parts."""
    value = complex(value)
    if value.imag == 0:
        return _format_real(value.real)
    if value.imag == 1:
        imag = "i"
    elif value.imag == -1:
        imag = "-i"
    else:
        imag = _format_real(value.imag) + "i"
    if value.real == 0:
        return imag
    joiner = "" if imag.startswith("-") else "+"
    return f"{_format_real(value.real)}{joiner}{imag}"
