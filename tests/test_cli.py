import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import divpair
from divpair import cli, selftest
from divpair.cli import EXIT_DOMAIN, EXIT_FAIL, EXIT_PARSE, EXIT_PASS, main
from divpair.grammar import format_complex, parse_complex
from divpair.mvf import JACOBI_LATTICE_TOL, PERIOD_TOL


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_green_closed_form(capsys):
    code, out, _ = run(
        capsys, "green", "--curve", "sphere", "--divisor", "1@2,-1@-2", "--at", "1"
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert abs(report["outputs"]["real"] - (-1.0986122886681098)) < 1e-12
    assert report["status"] == "pass"


def test_green_empty_divisor(capsys):
    code, out, _ = run(
        capsys, "green", "--curve", "sphere", "--divisor", "", "--at", "1"
    )
    assert code == EXIT_PASS
    assert json.loads(out)["outputs"]["real"] == 0


def test_green_degree_error_exit_3(capsys):
    code, _, err = run(
        capsys, "green", "--curve", "sphere", "--divisor", "1@2", "--at", "1"
    )
    assert code == EXIT_DOMAIN
    assert "degree must be zero" in err


def test_green_parse_error_exit_2(capsys):
    code, _, err = run(
        capsys, "green", "--curve", "sphere", "--divisor", "wat", "--at", "1"
    )
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_missing_flags_exit_2(capsys):
    code, _, _ = run(capsys, "green", "--curve", "sphere")
    assert code == EXIT_PARSE


def test_pairing_norm_and_discrepancy(capsys):
    code, out, _ = run(
        capsys,
        "pairing", "--curve", "sphere",
        "--d1", "1@1,-1@-1", "--d2", "1@2,-1@-2",
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert abs(report["outputs"]["norm"] - 1 / 9) < 1e-12
    assert report["outputs"]["formula_discrepancy"] < 1e-12


def test_pairing_imaginary_vs_real_gives_unit_norm(capsys):
    code, out, _ = run(
        capsys,
        "pairing", "--curve", "sphere", "--marks", "0,1,3,-2",
        "--d1", "i@Q1,-i@Q2", "--d2", "1@Q3,-1@Q4",
    )
    assert code == EXIT_PASS
    assert abs(json.loads(out)["outputs"]["norm"] - 1.0) < 1e-12


def test_pairing_overlap_exit_3(capsys):
    code, _, err = run(
        capsys,
        "pairing", "--curve", "sphere",
        "--d1", "1@1,-1@-1", "--d2", "1@1,-1@-2",
    )
    assert code == EXIT_DOMAIN
    assert "not disjoint" in err


def test_reciprocity_command(capsys):
    code, out, _ = run(
        capsys,
        "reciprocity", "--curve", "sphere",
        "--f", "zeros:0;poles:2", "--g", "zeros:1;poles:3",
    )
    assert code == EXIT_PASS
    assert json.loads(out)["outputs"]["residual"] < 1e-12


@pytest.mark.parametrize("tau", ["500i", "1000i"])
def test_reciprocity_on_a_tall_torus_passes(capsys, tau):
    # |theta1| underflows to 0 here, so the symbols are compared in log form
    code, out, _ = run(
        capsys,
        "reciprocity", "--curve", "torus", "--tau", tau,
        "--f", "zeros:0.1,0.3;poles:0.2,0.2", "--g", "zeros:0.6,0.9;poles:0.7,0.8",
    )
    assert code == EXIT_PASS
    assert '"status":"pass"' in out


def test_class_command(capsys):
    code, out, _ = run(
        capsys,
        "class", "--curve", "torus", "--tau", "i", "--divisor", "1@0.25,-1@0.75",
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["outputs"]["degree"] == 0
    assert report["outputs"]["jacobian_mod_lattice"] == "0.5"
    assert report["outputs"]["principal"] is False


def test_class_report_literals_parse_back(capsys):
    # Im 1e-7 puts an exponent-notation literal in jacobian_mod_lattice by construction
    code, out, _ = run(
        capsys,
        "class", "--curve", "torus", "--tau", "i", "--divisor", "1@0.25+1.0e-7i,-1@0.75",
    )
    assert code == EXIT_PASS
    outputs = json.loads(out)["outputs"]
    literals = [outputs["jacobian_mod_lattice"], outputs["monodromy"]["a_period"],
                outputs["monodromy"]["b_period"]]
    assert "e-" in outputs["jacobian_mod_lattice"]
    for text in literals:
        assert format_complex(parse_complex(text)) == text


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("sign", [1, -1])
def test_pairing_norm_out_of_float_range_is_null_and_flagged(capsys, sign):
    # exponent +-35702.9: e^exponent overflows (sign 1) or underflows to 0 (sign -1)
    code, out, err = run(
        capsys,
        "pairing", "--curve", "sphere", "--d1", "400@0,-400@1",
        f"--d2={-400 * sign}@0.5000001,{400 * sign}@5",
    )
    assert code == EXIT_PASS, err
    outputs = strict_json(out)["outputs"]
    assert outputs["norm"] is None
    assert outputs["out_of_range"] == ["norm"]
    assert abs(outputs["exponent"] - sign * 35702.904210273613) < 1e-8
    assert "inf" not in out and "nan" not in out


def test_string_factor_out_of_float_range_is_null_and_flagged(tmp_path, capsys):
    # exponent -2 log|Q1 - Q2| = -1381.6 on nu1; the other components give factor 1
    config = {
        "curve": "sphere",
        "marks": ["0", "1.0e300"],
        "momenta": [["1"] + ["0"] * 12, ["-1"] + ["0"] * 12],
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run(capsys, "string-factor", "--config", str(path))
    assert code == EXIT_PASS
    outputs = strict_json(out)["outputs"]
    assert outputs["factor"] is None and outputs["per_component_factor"]["nu1"] is None
    assert outputs["per_component_factor"]["nu2"] == 1
    assert outputs["out_of_range"] == ["factor", "per_component_factor.nu1"]
    assert abs(outputs["exponent"] + 2 * 300 * math.log(10)) < 1e-9


def test_pairing_norm_in_range_carries_an_empty_flag_list(capsys):
    code, out, _ = run(
        capsys,
        "pairing", "--curve", "sphere",
        "--d1", "1@1,-1@-1", "--d2", "1@2,-1@-2",
    )
    assert code == EXIT_PASS
    outputs = strict_json(out)["outputs"]
    assert outputs["out_of_range"] == [] and abs(outputs["norm"] - 1 / 9) < 1e-12


def test_class_report_states_the_applied_tolerances(capsys):
    code, out, _ = run(
        capsys,
        "class", "--curve", "torus", "--tau", "i", "--divisor", "1@0.25,-1@0.75",
    )
    assert code == EXIT_PASS
    metadata = json.loads(out)["metadata"]
    # the torus certificate also states its quadrature: 2 contours x (24 x 32 + 1) nodes
    # and the trapezoid estimate |T_N - T_N/2|, which does not move between runs
    error = metadata.pop("quadrature_error")
    assert metadata == {"lattice_tol": JACOBI_LATTICE_TOL, "period_tol": PERIOD_TOL, "quadrature_nodes": 2 * 769}
    assert 0 <= error < 1e-13
    assert run(capsys, "class", "--curve", "torus", "--tau", "i", "--divisor", "1@0.25,-1@0.75")[1] == out
    code, out, _ = run(capsys, "class", "--curve", "sphere", "--divisor", "1@0.25,-1@0.75")
    assert code == EXIT_PASS
    assert json.loads(out)["metadata"] == {"lattice_tol": JACOBI_LATTICE_TOL, "period_tol": PERIOD_TOL}


def test_string_factor_command(tmp_path, capsys):
    config = {
        "curve": "sphere",
        "marks": ["0", "3"],
        "momenta": [
            ["1"] + ["0"] * 12,
            ["-1"] + ["0"] * 12,
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run(capsys, "string-factor", "--config", str(path))
    assert code == EXIT_PASS
    report = json.loads(out)
    assert abs(report["outputs"]["factor"] - 1 / 9) < 1e-12
    assert report["metadata"]["diagonal_omitted"] is True


def test_string_factor_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "string-factor", "--config", str(path))
    assert code == EXIT_PARSE


def test_selftest_small_run_and_determinism(capsys):
    code1, out1, _ = run(capsys, "selftest", "--seed", "42", "--cases", "5")
    code2, out2, _ = run(capsys, "selftest", "--seed", "42", "--cases", "5")
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
    report = json.loads(out1)
    assert report["outputs"]["all_passed"] is True
    assert len(report["outputs"]["properties"]) >= 20


def test_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "--format", "csv",
        "green", "--curve", "sphere", "--divisor", "1@2,-1@-2", "--at", "1",
    )
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("outputs.real,") for line in lines)


@pytest.mark.parametrize("line_break", ["\n", "\r", "\r\n"])
def test_csv_quotes_values_with_line_breaks(capsys, line_break):
    f = f"zeros:0{line_break};poles:2"
    code, out, _ = run(
        capsys,
        "--format", "csv",
        "reciprocity", "--curve", "sphere", "--f", f, "--g", "zeros:1;poles:3",
    )
    assert code == EXIT_PASS
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert all(len(row) == 2 for row in rows)
    assert dict(rows[1:])["inputs.f"] == f


# A torus pairing whose three formulas differ by one rounding (1.1e-16), so it fails
# once the agreement tolerance is below that.
TORUS_DISCREPANCY = [
    "pairing", "--curve", "torus", "--tau", "0.1+1.27i",
    "--d1", "1@0.83+0.74i,-1@0.26+0.17i", "--d2", "1@0.69+0.72i,-1@0.48+0.76i",
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv, agreement_tol, expected", [
    (["green", "--curve", "sphere", "--divisor", "1@2,-1@-2", "--at", "1"], None, "pass"),
    (["pairing", "--curve", "sphere", "--d1", "1@1,-1@-1", "--d2", "1@2,-1@-2"], None, "pass"),
    (["reciprocity", "--curve", "sphere", "--f", "zeros:0;poles:2", "--g", "zeros:1;poles:3"], None, "pass"),
    (["class", "--curve", "torus", "--tau", "i", "--divisor", "1@0.25,-1@0.75"], None, "pass"),
    (["string-factor", "--config", "{config}"], None, "pass"),
    (["selftest", "--seed", "42", "--cases", "5"], None, "pass"),
    (TORUS_DISCREPANCY, None, "pass"),
    (TORUS_DISCREPANCY, 0.0, "fail"),
], ids=["green", "pairing", "reciprocity", "class", "string-factor", "selftest",
        "pairing-torus", "pairing-torus-fail"])
def test_every_command_prints_one_envelope(capsys, monkeypatch, tmp_path, fmt, argv, agreement_tol, expected):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "curve": "sphere", "marks": ["0", "3"],
        "momenta": [["1"] + ["0"] * 12, ["-1"] + ["0"] * 12],
    }), encoding="utf-8")
    if agreement_tol is not None:
        monkeypatch.setattr(cli, "FORMULA_AGREEMENT_TOL", agreement_tol)
    argv = [arg.replace("{config}", str(config)) for arg in argv]
    code, out, _ = run(capsys, "--format", fmt, *argv)
    if fmt == "json":
        report = json.loads(out)
        keys = set(report)
    else:
        assert out.startswith("key,value\n")
        rows = list(csv.reader(io.StringIO(out, newline="")))[1:]
        assert all(len(row) == 2 for row in rows)
        report = dict(rows)
        keys = {key.split(".")[0] for key, _ in rows}
    assert keys == {"command", "inputs", "outputs", "metadata", "status"}
    assert report["command"] == argv[0]
    assert report["status"] == expected
    assert code == (EXIT_PASS if expected == "pass" else EXIT_FAIL)
    if expected == "fail":  # a real, if rounding-sized, disagreement
        discrepancy = (
            report["outputs"]["formula_discrepancy"] if fmt == "json"
            else report["outputs.formula_discrepancy"]
        )
        assert float(discrepancy) > 0


def _report_paths(value, prefix=""):
    """Every leaf and every empty list or object of a JSON report, as a dotted path."""
    if isinstance(value, dict) and value:
        return {path for k, v in value.items() for path in _report_paths(v, f"{prefix}{k}.")}
    if isinstance(value, list) and value:
        return {path for i, v in enumerate(value) for path in _report_paths(v, f"{prefix}{i}.")}
    return {prefix.rstrip(".")}


@pytest.mark.parametrize("argv", [
    ["pairing", "--curve", "sphere", "--d1", "1@1,-1@-1", "--d2", "1@2,-1@-2"],
    ["selftest", "--seed", "42", "--cases", "2"],
], ids=["pairing", "selftest"])
def test_csv_rows_name_every_leaf_and_empty_container_of_the_json_report(capsys, argv):
    # the pairing report holds an empty d1.marked, d2.marked and out_of_range; selftest an empty metadata
    _, out, _ = run(capsys, *argv)
    _, csv_out, _ = run(capsys, "--format", "csv", *argv)
    rows = dict(list(csv.reader(io.StringIO(csv_out, newline="")))[1:])
    assert set(rows) == _report_paths(json.loads(out))
    empty = {"metadata", "outputs.out_of_range"} & set(rows)
    assert empty and all(rows[key] == "" for key in empty)


def test_divpair_tol_has_no_effect():
    # no environment variable scales a pass threshold: 1e-30 would fail every check it scaled
    env = dict(os.environ, PYTHONPATH=str(Path(divpair.__file__).parents[1]))
    env.pop("DIVPAIR_TOL", None)
    for argv in (
        ["reciprocity", "--curve", "sphere", "--f", "zeros:0;poles:2", "--g", "zeros:1;poles:3"],
        ["selftest", "--seed", "42", "--cases", "5"],
    ):
        argv = [sys.executable, "-m", "divpair.cli", *argv]
        clean = subprocess.run(argv, env=env, capture_output=True)
        scaled = subprocess.run(argv, env={**env, "DIVPAIR_TOL": "1e-30"}, capture_output=True)
        assert clean.returncode == scaled.returncode == EXIT_PASS
        assert scaled.stdout == clean.stdout


@pytest.mark.parametrize("request_argv", [
    ["pairing", "--curve", "torus", "--tau", "0.2+1.1i", "--d1", "1@0.1+0.2i,-1@0.4+0.3i",
     "--d2", "1@0.6+0.5i,-1@0.8+0.1i"],
    ["class", "--curve", "torus", "--tau", "0.2+1.1i", "--divisor", "1@0.1+0.2i,-1@0.4+0.3i"],
])
def test_requests_load_neither_the_property_suite_nor_numpy_polynomial(request_argv):
    # only `selftest` imports divpair.selftest, and the certificate's quadrature needs
    # no numpy.polynomial
    script = (
        "import sys\nfrom divpair.cli import main\ncode = main(sys.argv[1:])\n"
        "print(code, sorted(m for m in ('divpair.selftest', 'numpy.polynomial') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(divpair.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *request_argv], env=env, capture_output=True, check=True)
    assert done.stdout.decode().splitlines()[-1] == "0 []"


@pytest.mark.parametrize("request_argv", [
    ["pairing", "--curve", "torus", "--tau", "2.3+0.4i", "--d1", "1@0.1+0.2i,-1@0.4+0.3i",
     "--d2", "1@0.6+0.5i,-1@0.8+0.1i", "--formula", "all"],
    ["class", "--curve", "torus", "--tau", "2.3+0.4i", "--divisor", "1@0.1+0.2i,-1@0.4+0.3i"],
    ["selftest", "--cases", "10"],
])
def test_identical_invocations_print_identical_stdout(request_argv):
    # timings go to stderr only, so stdout is a function of the arguments
    argv = [sys.executable, "-m", "divpair.cli", *request_argv]
    env = dict(os.environ, PYTHONPATH=str(Path(divpair.__file__).parents[1]))
    first, second = (subprocess.run(argv, env=env, capture_output=True, check=True) for _ in range(2))
    assert first.stdout and first.stdout == second.stdout


def test_torus_requires_tau(capsys):
    code, _, err = run(
        capsys, "green", "--curve", "torus", "--divisor", "", "--at", "0.1"
    )
    assert code == EXIT_PARSE
    assert "tau" in err


def test_tau_in_a_sphere_config_is_a_parse_error(tmp_path, capsys):
    # the same rule as --tau on the sphere
    config = {"curve": "sphere", "tau": "0.5+i", "marks": ["0", "3"],
              "momenta": [["1"] + ["0"] * 12, ["-1"] + ["0"] * 12]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, "string-factor", "--config", str(path))
    assert code == EXIT_PARSE and not out
    assert "tau" in err and "only applies to the torus" in err


def test_green_on_torus(capsys):
    code, out, _ = run(
        capsys,
        "green", "--curve", "torus", "--tau", "i",
        "--divisor", "1@0.2+0.2i,-1@0.7+0.6i", "--at", "0.5",
    )
    assert code == EXIT_PASS
    value = json.loads(out)["outputs"]["real"]
    assert abs(value) < 10  # finite, sane magnitude


def test_green_on_a_torus_near_the_real_axis(capsys):
    code, out, _ = run(
        capsys,
        "green", "--curve", "torus", "--tau", "0.3+0.00001i",
        "--divisor", "1@0.1,-1@0.2", "--at", "0.5",
    )
    assert code == EXIT_PASS
    assert math.isfinite(json.loads(out)["outputs"]["real"])


def test_class_jacobi_defect_on_a_skewed_torus(capsys):
    # tau - 5 = 0.01i is a lattice vector, so 0.005i lies 0.005 from the lattice
    code, out, _ = run(
        capsys, "class", "--curve", "torus", "--tau", "5+0.01i", "--divisor", "1@0.005i,-1@0",
    )
    assert code == EXIT_PASS
    assert abs(json.loads(out)["outputs"]["jacobi_defect"] - 0.005) < 1e-12


def test_class_monodromy_agrees_with_abel_jacobi_on_a_skewed_torus(capsys):
    # the b-contour has length |tau| = 2.7 and passes the poles at about 0.12 * Im tau / |tau|
    code, out, _ = run(
        capsys, "class", "--curve", "torus", "--tau", "2.7+0.05i",
        "--divisor", "1@0.3+0.01i,-1@0.6+0.02i,1@0.5+0.03i,-1@0.2+0.02i",
    )
    assert code == EXIT_PASS
    report = json.loads(out)["outputs"]
    assert report["principal"] is True
    assert report["monodromy"]["periods_in_2pi_i_Z"] is True
    assert report["monodromy"]["period_defect"] < 1e-8


@pytest.mark.parametrize("divisor, principal", [
    ("1@0.3+0.01i,-1@0.6+0.02i,1@0.5+0.03i,-1@0.2+0.02i", True),
    ("-1@0.3+0.000099999999999999i,1@0.2+0.00005i,-1@0.4+0.00005i,1@0.5+0.03i", False),
])
def test_class_monodromy_takes_the_seam_from_the_stored_coordinates_on_a_thin_torus(capsys, divisor, principal):
    # 0.5+0.03i is stored as 0.5-3.5e-18i, a rounding below the real axis (b = -3.5e-14): wrapped
    # to b = 0.99999999999996, it closed the seam gap and ran the a-contour along its own row.
    # In the second divisor two points round onto opposite copies of one cell edge, so the
    # stored b-coordinates span a full period and are taken mod 1; unwrapped, the a-contour
    # would cross the support and read an a-period of order 1e14
    code, out, _ = run(capsys, "class", "--curve", "torus", "--tau", "0.5+0.0001i", f"--divisor={divisor}")
    assert code == EXIT_PASS
    report = json.loads(out)["outputs"]
    assert report["principal"] is principal
    assert report["monodromy"]["periods_in_2pi_i_Z"] is principal
    assert report["monodromy"]["a_period"] == "0"
    if principal:
        assert report["monodromy"]["period_defect"] < 1e-6


def test_pairing_single_formula(capsys):
    code, out, _ = run(
        capsys,
        "pairing", "--curve", "sphere",
        "--d1", "1@1,-1@-1", "--d2", "1@2,-1@-2", "--formula", "ad3",
    )
    assert code == EXIT_PASS
    report = json.loads(out)
    assert list(report["outputs"]["per_formula_exponent"]) == ["ad3"]
    assert report["outputs"]["formula_discrepancy"] == 0


def test_green_at_infinity_is_domain_error(capsys):
    code, _, err = run(
        capsys, "green", "--curve", "sphere", "--divisor", "1@2,-1@-2", "--at", "inf"
    )
    assert code == EXIT_DOMAIN
    assert "infinity" in err


def test_green_at_a_mark_reference_evaluates_at_that_mark(capsys):
    # --at takes any point token: off the support, Q3 reads as its literal; on it, Q1 is the pole
    argv = ["green", "--curve", "sphere", "--marks", "1,2,5", "--divisor", "1@Q1,-1@Q2", "--at"]
    code, out, _ = run(capsys, *argv, "Q3")
    assert code == EXIT_PASS
    assert (code, out) == run(capsys, *argv, "5")[:2]
    code, out, err = run(capsys, *argv, "Q1")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "diagonal singularity" in err


def test_readme_usage_lines_run(capsys, tmp_path, monkeypatch):
    # each line of README's usage block, with its momentum config as momenta.json, runs in-process
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    config = readme.split("### Momentum config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "momenta.json").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = usage.strip().splitlines()
    assert len(lines) >= 8
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "divpair"
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PASS, (line, err)
        assert len(out.splitlines()) == 1 and json.loads(out)["status"] == "pass", line


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("divpair ")


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_non_positive_cases_is_a_parse_error(capsys, cases):
    code, out, err = run(capsys, "selftest", "--cases", cases)
    assert code == EXIT_PARSE
    assert out == ""
    assert "--cases" in err and "at least 1" in err


def test_selftest_property_failure_exits_1(capsys, monkeypatch):
    # a NaN kernel fails kernel_symmetry
    monkeypatch.setattr(selftest, "green_kernel", lambda curve, p, q: math.nan)
    code, out, err = run(capsys, "selftest", "--seed", "42", "--cases", "5")
    assert code == 1
    assert json.loads(out)["status"] == "fail"
    assert "property failure" in err
