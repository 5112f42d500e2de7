"""The four workloads: each turns its pool into operations and checks their outputs.

An operation is a zero-argument callable returning the raw output of one
request.  Library functions are looked up on the package at call time, so
the traced run's wrappers (tracing.py) see every call.  A check returns
None for a correct output, FAILED for an output that shows the known
formatter fault, or a message naming what is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import divpair as dp
from divpair import selftest
from divpair.errors import ParseError
from divpair.grammar import parse_complex  # bound before any tracing wrapper is installed

FAILED = "failed"
FORMULAS = ("ad", "adsym", "ad3")

# Relative to the scale sum_ij |w_ij K_ij| of a contraction: rounding in any
# summation order stays below eps times the scale, and the reference
# kernel agrees with the library's to about 1e-14.
CONTRACTION_TOL = 1e-10
# The library's formula-agreement contract, 1e-12, taken relative to the
# exponent once it exceeds 1: at n = 32 exponents reach ~100 and the three
# summation orders then differ by up to ~2e-13 in absolute terms.
FORMULA_TOL = 1e-12
FACTOR_TOL = 1e-9  # product of 13 per-component exponentials against exp(sum)
SPHERE_TOL = 1e-12  # sphere closed forms are log sums in both computations
TORUS_VALUE_TOL = 1e-10
ANCHOR_TOL = 1e-14
RECIPROCITY_TOL = 1e-9
DEFECT_TOL = 1e-9


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol


# --- pairing-torus -----------------------------------------------------------


def build_pairing(data: dict) -> list:
    ops = []
    for item in data["items"]:
        n = item["n"]
        mc = dp.MarkedCurve(dp.Torus(_c(item["tau"])), [_c(m) for m in item["marks"]])
        d1 = dp.ComplexDivisor(
            mc, marked=[(i, dp.GaussianRational(*c)) for i, c in enumerate(item["c1"])]
        )
        d2 = dp.ComplexDivisor(
            mc, marked=[(n + i, dp.GaussianRational(*c)) for i, c in enumerate(item["c2"])]
        )
        cfg = dp.MomentumConfig([[_c(c) for c in row] for row in item["momenta"]])

        def op(mc=mc, d1=d1, d2=d2, cfg=cfg):
            norms = [dp.pairing_norm(mc, d1, d2, f) for f in FORMULAS]
            return norms, dp.hermitian_form(mc, d1, d2), dp.string_pairing_factor(mc, cfg)

        ops.append(op)
    return ops


def check_pairing(item: dict, output, first=None) -> str | None:
    norms, hermitian, factor = output
    expect = item["expect"]
    exponent = expect["hermitian"][0]
    tol = CONTRACTION_TOL * expect["scale"]
    agreement = FORMULA_TOL * max(1.0, abs(exponent))
    exponents = [r.exponent for r in norms]
    if max(exponents) - min(exponents) > agreement:
        return f"formulas disagree: {exponents}"
    for r in norms:
        if not _close(r.exponent, exponent, tol):
            return f"{r.formula} exponent {r.exponent!r} != reference {exponent!r}"
        if not _close(r.norm, math.exp(r.exponent), FORMULA_TOL * r.norm):
            return f"{r.formula} norm {r.norm!r} != exp(exponent)"
    if not _close(hermitian.real, exponents[-1], agreement):
        return f"Re hermitian_form {hermitian.real!r} != exponent {exponents[-1]!r}"
    if abs(hermitian - _c(expect["hermitian"])) > tol:
        return f"hermitian_form {hermitian!r} != reference {expect['hermitian']!r}"
    if not _close(factor.exponent, expect["string_exponent"], CONTRACTION_TOL * expect["string_scale"]):
        return f"string exponent {factor.exponent!r} != reference {expect['string_exponent']!r}"
    product = math.prod(factor.per_component)
    if not _close(product, factor.factor, FACTOR_TOL * factor.factor):
        return f"product of per-component factors {product!r} != factor {factor.factor!r}"
    return None


def pairing_meta(item: dict) -> dict:
    return {"n": item["n"]}


# --- certificate -------------------------------------------------------------


def build_certificate(data: dict) -> list:
    ops = []
    for item in data["items"]:
        mc = dp.MarkedCurve(dp.Torus(_c(item["tau"])))
        d = dp.ComplexDivisor(
            mc, integral=[(_c(p), k) for p, k in zip(item["points"], item["coeffs"])]
        )
        ops.append(lambda mc=mc, d=d: dp.is_principal(mc, d))
    return ops


def check_certificate(item: dict, cert, first=None) -> str | None:
    truth = item["principal"]
    if cert.degree != 0:
        return f"degree {cert.degree} != 0"
    if cert.principal is not truth:
        return f"principal {cert.principal} != {truth} by construction"
    if cert.periods_integral is not truth:
        return f"periods_integral {cert.periods_integral} != {truth} by construction"
    if not _close(cert.jacobi_defect, item["shift"], DEFECT_TOL):
        return f"jacobi_defect {cert.jacobi_defect!r} != shift {item['shift']!r}"
    return None


def certificate_meta(item: dict) -> dict:
    return {"support": len(item["points"])}


# --- cli ---------------------------------------------------------------------


def cli_env() -> dict:
    """Environment of every divpair subprocess: the source tree, default tolerances."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("DIVPAIR_TOL", None)  # thresholds at their documented values
    return env


def build_cli(data: dict, root: Path, in_process: bool = False) -> list:
    """One `python -m divpair.cli` subprocess per request, or cli.main in-process."""
    config = root / data["config_path"]
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps(data["config"]), encoding="utf-8")
    ops = []
    if in_process:
        from divpair import cli

        def run(argv):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            return code, buffer.getvalue()

        for item in data["items"]:
            ops.append(lambda argv=item["argv"]: run(argv))
        return ops
    env = cli_env()
    for item in data["items"]:
        argv = [sys.executable, "-m", "divpair.cli", *item["argv"]]

        def op(argv=argv):
            done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=False)
            return done.returncode, done.stdout

        ops.append(op)
    return ops


def report_literals(report: dict) -> list[str]:
    """Every complex literal a report carries, by the fields that hold them."""
    inputs, outputs = report.get("inputs", {}), report.get("outputs", {})
    found = []
    for key in ("tau", "at"):
        if isinstance(inputs.get(key), str) and inputs[key] != "inf":
            found.append(inputs[key])
    found.extend(inputs.get("marks", []))
    for key in ("divisor", "d1", "d2"):
        if isinstance(inputs.get(key), dict):
            found.extend(p for p in inputs[key]["integral"] if p != "inf")
    for key in ("value", "hermitian_value", "jacobian_mod_lattice"):
        if isinstance(outputs.get(key), str):
            found.append(outputs[key])
    monodromy = outputs.get("monodromy", {})
    found.extend(monodromy[k] for k in ("a_period", "b_period") if k in monodromy)
    return found


def _unparseable(literals: list[str]) -> list[str]:
    bad = []
    for text in literals:
        try:
            parse_complex(text)
        except ParseError:
            bad.append(text)
    return bad


def _check_cli_values(kind: str, expect: dict, out: dict) -> str | None:
    if kind in ("green-sphere", "green-torus"):
        tol = SPHERE_TOL if kind == "green-sphere" else TORUS_VALUE_TOL
        if not _close(out["real"], expect["value"], tol * max(1.0, abs(expect["value"]))):
            return f"green value {out['real']!r} != closed form {expect['value']!r}"
        return None
    if kind in ("anchor", "pairing-sphere", "pairing-marked"):
        tol = SPHERE_TOL * max(1.0, abs(expect["exponent"]))
        for formula, value in [("primary", out["exponent"]), *out["per_formula_exponent"].items()]:
            if not _close(value, expect["exponent"], tol):
                return f"{formula} exponent {value!r} != closed form {expect['exponent']!r}"
        if not _close(out["norm"], math.exp(expect["exponent"]), tol * out["norm"]):
            return f"norm {out['norm']!r} != exp of closed-form exponent"
        if out["formula_discrepancy"] > FORMULA_TOL:
            return f"formula discrepancy {out['formula_discrepancy']!r}"
        try:
            hermitian = parse_complex(out["hermitian_value"])
        except ParseError:
            hermitian = None  # reported as a formatter failure by the caller
        if hermitian is not None and abs(hermitian - _c(expect["hermitian"])) > tol:
            return f"hermitian value {hermitian!r} != closed form {expect['hermitian']!r}"
        if "norm" in expect and not _close(out["norm"], expect["norm"], ANCHOR_TOL):
            return f"anchor norm {out['norm']!r} != 1/9"
        return None
    if kind == "reciprocity":
        if not out["residual"] < RECIPROCITY_TOL:
            return f"reciprocity residual {out['residual']!r}"
        return None
    if kind in ("class-sphere", "class-torus"):
        if out["degree"] != expect["degree"] or out["principal"] is not expect["principal"]:
            return f"class {out['degree']}/{out['principal']} != {expect}"
        if kind == "class-torus" and out["monodromy"]["periods_in_2pi_i_Z"] is not expect["principal"]:
            return "monodromy periods disagree with principality"
        return None
    if kind == "string-factor":
        tol = SPHERE_TOL * max(1.0, abs(expect["exponent"]))
        if not _close(out["exponent"], expect["exponent"], tol):
            return f"string exponent {out['exponent']!r} != closed form {expect['exponent']!r}"
        product = math.prod(out["per_component_factor"].values())
        if not _close(product, out["factor"], FACTOR_TOL * out["factor"]):
            return f"product of per-component factors {product!r} != factor {out['factor']!r}"
        return None
    return f"unknown request kind {kind!r}"


def check_cli(item: dict, output, first=None) -> str | None:
    """`first` is the output of the same request earlier in the run, if any."""
    code, stdout = output
    if code != 0:
        return f"exit code {code}"
    if not stdout.endswith("\n") or stdout.count("\n") != 1:
        return "stdout is not exactly one line"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON document: {exc}"
    if report.get("status") != "pass":
        return f"status {report.get('status')!r}"
    if first is not None and stdout != first[1]:
        return "stdout differs from an earlier identical request"
    wrong = _check_cli_values(item["kind"], item["expect"], report["outputs"])
    if wrong:
        return wrong
    if _unparseable(report_literals(report)):
        return FAILED
    return None


# --- selftest ----------------------------------------------------------------


def build_selftest(data: dict) -> list:
    return [
        lambda seed=item["seed"], cases=item["cases"]: selftest.run_selftest(seed=seed, cases=cases)
        for item in data["items"]
    ]


def check_selftest(item: dict, report, first=None) -> str | None:
    failing = [r.name for r in report.results if not r.passed]
    if not report.results or failing or not report.passed:
        return f"selftest seed {item['seed']} failing properties: {failing}"
    return None


# --- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: Callable  # (pool data, checkout root, in_process) -> operations
    check: Callable  # (pool item, output, first output of that item or None) -> verdict
    meta: Callable  # pool item -> facts the per-layer ratios divide by
    rusage: int  # whose peak resident set is reported: this process or its children


def _no_meta(item: dict) -> dict:
    return {}


WORKLOADS = {
    "pairing-torus": Workload(
        lambda data, root, in_process: build_pairing(data), check_pairing, pairing_meta,
        resource.RUSAGE_SELF,
    ),
    "certificate": Workload(
        lambda data, root, in_process: build_certificate(data), check_certificate,
        certificate_meta, resource.RUSAGE_SELF,
    ),
    "cli": Workload(build_cli, check_cli, _no_meta, resource.RUSAGE_CHILDREN),
    "selftest": Workload(
        lambda data, root, in_process: build_selftest(data), check_selftest, _no_meta,
        resource.RUSAGE_SELF,
    ),
}
