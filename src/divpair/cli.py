"""Command-line surface: every operation as a scriptable subcommand.

Each invocation prints exactly one report document, the envelope
``{command, inputs, outputs, metadata, status}``: ``command`` names the
subcommand and ``status`` is ``pass`` or ``fail``.  The default format
is JSON with sorted keys and 17-significant-digit floats, so identical
invocations (including ``--seed``) are byte-identical; ``--format csv``
flattens the envelope into ``key,value`` rows, one per leaf and one with an
empty value per empty list or object, quoting a value that holds a comma,
a double quote or a line break (RFC 4180).  Complex values are emitted
as the same literals the argument grammar accepts.  A norm or factor whose
exponential leaves the float range is emitted as ``null`` and named in the
report's ``out_of_range`` list; no report carries an ``inf`` or ``nan``.

Exit codes: 0 when the status is pass, 1 when it is fail (a property or
an agreement check failed), 2 parse error, 3 domain error; an error
prints no report.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys

from . import __version__
from .curve import Sphere, Torus, green_divisor
from .divisor import ComplexDivisor, MarkedCurve, class_invariant
from .errors import DomainError, ParseError
from .grammar import (
    format_complex,
    parse_complex,
    parse_divisor,
    parse_point,
    parse_rational_function_spec,
)
from .mvf import JACOBI_LATTICE_TOL, PERIOD_TOL, is_principal
from .pairing import FORMULAS, RECIPROCITY_TOL, RationalFunctionData, check_weil_reciprocity, pairing_norm
from .strings import MomentumConfig, string_pairing_factor

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

FORMULA_AGREEMENT_TOL = 1e-12  # times max(1, |exponent|)


# --- deterministic serialization -------------------------------------------


def _canonical(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    if isinstance(value, complex):
        return json.dumps(format_complex(value)) if cmath.isfinite(value) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = (
            json.dumps(str(k)) + ":" + _canonical(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _flatten(value, prefix: str = ""):
    """(key, rendered value) rows: one per leaf, and an empty-valued one per empty list or object."""
    if isinstance(value, dict) and value:
        for k, v in sorted(value.items(), key=lambda kv: str(kv[0])):
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(value, (list, tuple)) and value:
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        if value is None or isinstance(value, (dict, list, tuple)) or (
            isinstance(value, (float, complex)) and not cmath.isfinite(value)
        ):
            rendered = ""
        elif isinstance(value, float):
            rendered = format(value, ".17g")
        elif isinstance(value, complex):
            rendered = format_complex(value)
        else:
            rendered = str(value)
        yield prefix.rstrip("."), rendered


def _emit(report: dict, fmt: str) -> None:
    if fmt == "csv":
        lines = ["key,value"]
        for key, rendered in _flatten(report):
            if any(c in rendered for c in ',"\r\n'):  # RFC 4180
                rendered = '"' + rendered.replace('"', '""') + '"'
            lines.append(f"{key},{rendered}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_canonical(report) + "\n")


def _in_range(value: float) -> float | None:
    """A norm or factor as reported: None unless finite and nonzero."""
    return value if math.isfinite(value) and value != 0.0 else None


# --- shared argument handling -----------------------------------------------


def _curve(name: str, tau: str | None, field: str):
    """The curve named by a ``--curve`` flag or a config's ``curve`` field: a torus
    needs ``tau`` (given as ``field``), and the sphere takes none."""
    if name == "torus":
        if tau is None:
            raise ParseError(f"{field} is required for the torus")
        return Torus(parse_complex(tau))
    if tau is not None:
        raise ParseError(f"{field} only applies to the torus")
    return Sphere()


def _build_marked_curve(args) -> tuple[MarkedCurve, dict]:
    """The marked curve of the curve flags, and the report inputs they parse to."""
    inputs = {"curve": args.curve}
    curve = _curve(args.curve, args.tau, "--tau")
    if isinstance(curve, Torus):
        inputs["tau"] = curve.tau
    marks = []
    if getattr(args, "marks", None):
        marks = inputs["marks"] = [parse_complex(tok) for tok in args.marks.split(",") if tok.strip()]
    return MarkedCurve(curve, marks), inputs


def _describe_divisor(d: ComplexDivisor) -> dict:
    return {
        "marked": {
            f"Q{i + 1}": str(c) for i, c in d.marked
        },
        "integral": {
            ("inf" if p.at_infinity else format_complex(p.z)): w
            for p, w in d.integral
        },
        "degree": d.degree(),
    }


# --- subcommands -------------------------------------------------------------

# What every subcommand returns: its inputs, outputs, metadata, and whether it passed.
_Report = tuple[dict, dict, dict, bool]


def _cmd_green(args) -> _Report:
    mc, inputs = _build_marked_curve(args)
    d = parse_divisor(args.divisor, mc)
    point = parse_point(args.at, mc)
    value = green_divisor(mc.curve, d, point)
    inputs["divisor"] = _describe_divisor(d)
    inputs["at"] = point.z
    outputs = {"value": value, "real": value.real, "imag": value.imag}
    metadata = {"kernel": "log-distance" if args.curve == "sphere" else "theta1"}
    return inputs, outputs, metadata, True


def _cmd_pairing(args) -> _Report:
    mc, inputs = _build_marked_curve(args)
    d1 = parse_divisor(args.d1, mc)
    d2 = parse_divisor(args.d2, mc)
    formulas = FORMULAS if args.formula == "all" else (args.formula,)
    results = {f: pairing_norm(mc, d1, d2, f) for f in formulas}
    exponents = [r.exponent for r in results.values()]
    discrepancy = max(exponents) - min(exponents) if len(exponents) > 1 else 0.0
    primary = results[formulas[-1]]
    norm = _in_range(primary.norm)
    # relative once |exponent| > 1: beyond 2^13 an absolute 1e-12 is below one ulp
    agreement_tol = FORMULA_AGREEMENT_TOL * max(1.0, abs(primary.exponent))
    inputs["d1"] = _describe_divisor(d1)
    inputs["d2"] = _describe_divisor(d2)
    outputs = {
        "norm": norm,
        "out_of_range": [] if norm else ["norm"],
        "exponent": primary.exponent,
        "hermitian_value": primary.hermitian_value,
        "per_formula_exponent": {f: r.exponent for f, r in results.items()},
        "formula_discrepancy": discrepancy,
    }
    metadata = {"formula": args.formula, "formula_agreement_tol": agreement_tol}
    return inputs, outputs, metadata, discrepancy <= agreement_tol


def _cmd_reciprocity(args) -> _Report:
    mc, inputs = _build_marked_curve(args)
    curve = mc.curve
    fz, fp, fc = parse_rational_function_spec(args.f)
    gz, gp, gc = parse_rational_function_spec(args.g)
    f = RationalFunctionData.from_zeros_poles(curve, fz, fp, fc)
    g = RationalFunctionData.from_zeros_poles(curve, gz, gp, gc)
    residual = check_weil_reciprocity(f, g)
    inputs["f"] = args.f
    inputs["g"] = args.g
    return inputs, {"residual": residual}, {"threshold": RECIPROCITY_TOL}, residual < RECIPROCITY_TOL


def _cmd_class(args) -> _Report:
    mc, inputs = _build_marked_curve(args)
    d = parse_divisor(args.divisor, mc)
    descriptor = class_invariant(mc, d)
    certificate = is_principal(mc, d)
    outputs = {
        "degree": descriptor.degree,
        "principal": certificate.principal,
    }
    metadata = {"lattice_tol": JACOBI_LATTICE_TOL, "period_tol": PERIOD_TOL}
    if descriptor.jacobian is not None:
        metadata["quadrature_nodes"] = certificate.quadrature_nodes
        metadata["quadrature_error"] = certificate.quadrature_error
        outputs["jacobian_mod_lattice"] = descriptor.jacobian
        outputs["jacobi_defect"] = certificate.jacobi_defect
        outputs["monodromy"] = {
            "a_period": certificate.a_period,
            "b_period": certificate.b_period,
            "period_defect": certificate.period_defect,
            "periods_in_2pi_i_Z": certificate.periods_integral,
        }
    inputs["divisor"] = _describe_divisor(d)
    return inputs, outputs, metadata, True


def _load_momentum_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed config JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("config root must be an object")
    curve_name = raw.get("curve")
    if curve_name not in ("sphere", "torus"):
        raise ParseError("config field 'curve' must be 'sphere' or 'torus'")
    curve = _curve(curve_name, str(raw["tau"]) if "tau" in raw else None, "config field 'tau'")
    marks_raw = raw.get("marks", [])
    if not isinstance(marks_raw, list):
        raise ParseError("config field 'marks' must be a list of complex literals")
    marks = [parse_complex(str(tok)) for tok in marks_raw]
    momenta_raw = raw.get("momenta")
    if not isinstance(momenta_raw, list) or not all(
        isinstance(row, list) for row in momenta_raw
    ):
        raise ParseError("config field 'momenta' must be a list of rows")
    momenta = [[parse_complex(str(c)) for c in row] for row in momenta_raw]
    return MarkedCurve(curve, marks), MomentumConfig(momenta), curve_name


def _cmd_string_factor(args) -> _Report:
    mc, cfg, curve_name = _load_momentum_config(args.config)
    result = string_pairing_factor(mc, cfg)
    factor = _in_range(result.factor)
    per_component = {
        f"nu{nu + 1}": _in_range(value) for nu, value in enumerate(result.per_component)
    }
    out_of_range = [] if factor else ["factor"]
    out_of_range += [f"per_component_factor.{nu}" for nu, value in per_component.items() if not value]
    inputs = {"config": args.config, "curve": curve_name, "n_points": len(cfg)}
    outputs = {
        "factor": factor,
        "exponent": result.exponent,
        "per_component_factor": per_component,
        "out_of_range": out_of_range,
    }
    return inputs, outputs, {"diagonal_omitted": result.diagonal_omitted}, True


def _cmd_selftest(args) -> _Report:
    from .selftest import run_selftest  # only this command loads the suite

    report = run_selftest(**{name: getattr(args, name) for name in ("seed", "cases") if hasattr(args, name)})
    rows = [dataclasses.asdict(r) for r in report.results]
    # wall time goes to the diagnostic stream so the report stays byte-identical
    print(f"selftest runtime: {report.runtime_seconds:.2f}s", file=sys.stderr)
    for r in report.results:
        if not r.passed:
            print(
                f"property failure: {r.name} residual {r.residual:.3e} "
                f"exceeds {r.threshold:.3e}",
                file=sys.stderr,
            )
    inputs = {"seed": report.seed, "cases": report.cases}
    outputs = {"properties": rows, "all_passed": report.passed}
    return inputs, outputs, {}, report.passed


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 without a traceback
        print(f"parse error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _case_count(text: str) -> int:
    cases = int(text)
    if cases < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cases}")
    return cases


def _add_curve_flags(sub, marks: bool = True):
    sub.add_argument("--curve", choices=("sphere", "torus"), required=True)
    sub.add_argument("--tau", help="torus modulus, complex literal with Im > 0")
    if marks:
        sub.add_argument(
            "--marks",
            help="comma-separated complex literals naming Q1, Q2, ... for the divisor grammar",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="divpair", description=__doc__)
    parser.add_argument("--version", action="version", version=f"divpair {__version__}")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    commands = parser.add_subparsers(dest="subcommand", required=True)

    green = commands.add_parser("green", help="evaluate a degree-zero divisor's Green sum")
    _add_curve_flags(green)
    green.add_argument("--divisor", required=True, help="divisor literal")
    green.add_argument("--at", required=True, help="evaluation point")
    green.set_defaults(handler=_cmd_green)

    pairing = commands.add_parser("pairing", help="pairing norm of two divisors")
    _add_curve_flags(pairing)
    pairing.add_argument("--d1", required=True)
    pairing.add_argument("--d2", required=True)
    pairing.add_argument(
        "--formula", choices=FORMULAS + ("all",), default="all",
        help="formula variant; 'all' reports the max exponent discrepancy",
    )
    pairing.set_defaults(handler=_cmd_pairing)

    reciprocity = commands.add_parser("reciprocity", help="Weil reciprocity residual")
    _add_curve_flags(reciprocity, marks=False)
    reciprocity.add_argument("--f", required=True, help="zeros:...;poles:...[;const:...]")
    reciprocity.add_argument("--g", required=True, help="zeros:...;poles:...[;const:...]")
    reciprocity.set_defaults(handler=_cmd_reciprocity)

    cls = commands.add_parser("class", help="divisor class descriptor and principality")
    _add_curve_flags(cls)
    cls.add_argument("--divisor", required=True)
    cls.set_defaults(handler=_cmd_class)

    factor = commands.add_parser("string-factor", help="momentum pairing factor")
    factor.add_argument("--config", required=True, help="JSON config path")
    factor.set_defaults(handler=_cmd_string_factor)

    selftest = commands.add_parser("selftest", help="run the full property suite")
    selftest.add_argument("--seed", type=lambda s: int(s, 0), default=argparse.SUPPRESS)
    selftest.add_argument("--cases", type=_case_count, default=argparse.SUPPRESS)
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        inputs, outputs, metadata, passed = args.handler(args)
        _emit(
            {
                "command": args.subcommand,
                "inputs": inputs,
                "outputs": outputs,
                "metadata": metadata,
                "status": "pass" if passed else "fail",
            },
            args.format,
        )
        return EXIT_PASS if passed else EXIT_FAIL
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # contract: no tracebacks on bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
