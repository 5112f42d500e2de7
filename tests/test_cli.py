import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divpair
from divpair.cli import EXIT_DOMAIN, EXIT_PARSE, EXIT_PASS, main
from divpair.grammar import format_complex, parse_complex
from divpair.mvf import JACOBI_LATTICE_TOL, PERIOD_TOL
from divpair.selftest import tolerance_scale


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
    # b_period is -4.5e-18-3.14...i here: an exponent-notation literal
    code, out, _ = run(
        capsys,
        "class", "--curve", "torus", "--tau", "i", "--divisor", "1@0.25,-1@0.75",
    )
    assert code == EXIT_PASS
    outputs = json.loads(out)["outputs"]
    literals = [outputs["jacobian_mod_lattice"], outputs["monodromy"]["a_period"],
                outputs["monodromy"]["b_period"]]
    assert any("e-" in text for text in literals)
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
    assert metadata == {"lattice_tol": JACOBI_LATTICE_TOL, "period_tol": PERIOD_TOL}


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


def test_tolerance_scale_env(capsys, monkeypatch):
    monkeypatch.setenv("DIVPAIR_TOL", "10")
    code, out, _ = run(capsys, "selftest", "--seed", "42", "--cases", "5")
    assert code == EXIT_PASS
    report = json.loads(out)
    assert report["metadata"]["tolerance_scale"] == 10.0


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "nan", "inf"])
def test_invalid_tolerance_scale_warns_and_falls_back(monkeypatch, raw):
    monkeypatch.setenv("DIVPAIR_TOL", raw)
    with pytest.warns(RuntimeWarning, match=re.escape(f"DIVPAIR_TOL={raw!r}")):
        assert tolerance_scale() == 1.0


def test_invalid_tolerance_scale_goes_to_stderr_only():
    argv = [
        sys.executable, "-m", "divpair.cli", "reciprocity", "--curve", "sphere",
        "--f", "zeros:0;poles:2", "--g", "zeros:1;poles:3",
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(divpair.__file__).parents[1]))
    env.pop("DIVPAIR_TOL", None)
    clean = subprocess.run(argv, env=env, capture_output=True, check=True)
    invalid = subprocess.run(
        argv, env={**env, "DIVPAIR_TOL": "abc"}, capture_output=True, check=True
    )
    assert invalid.stdout == clean.stdout
    assert b"DIVPAIR_TOL='abc'" in invalid.stderr
    assert b"DIVPAIR_TOL" not in clean.stderr


def test_torus_requires_tau(capsys):
    code, _, err = run(
        capsys, "green", "--curve", "torus", "--divisor", "", "--at", "0.1"
    )
    assert code == EXIT_PARSE
    assert "tau" in err


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


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("divpair ")


def test_selftest_property_failure_exits_1(capsys, monkeypatch):
    # shrinking every threshold below float noise forces residual failures
    monkeypatch.setenv("DIVPAIR_TOL", "1e-30")
    code, out, err = run(capsys, "selftest", "--seed", "42", "--cases", "5")
    assert code == 1
    assert json.loads(out)["status"] == "fail"
    assert "property failure" in err
