"""Tests of the benchmark itself: its checks reject wrong values, its reference agrees.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import divpair  # noqa: E402
import pools  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def pairing_case():
    item = pools._pairing_instance(random.Random("test"), 4, 0.3)
    [op] = workloads.build_pairing({"items": [item]})
    return item, op()


@pytest.fixture(scope="module")
def certificate_cases():
    data = {"items": pools.certificate_pool(1)[:2]}  # one principal, one shifted
    return [(item, op()) for item, op in zip(data["items"], workloads.build_certificate(data))]


@pytest.fixture(scope="module")
def cli_cases(tmp_path_factory, monkeypatch_module):
    root = tmp_path_factory.mktemp("checkout")
    monkeypatch_module.chdir(root)
    data = pools.build("cli", 1)
    ops = workloads.build_cli(data, root, in_process=True)
    return {item["kind"] + str(k): (item, op()) for k, (item, op) in enumerate(zip(data["items"], ops))}


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def _perturb_norm(norms, index, delta):
    out = list(norms)
    out[index] = dataclasses.replace(out[index], exponent=out[index].exponent + delta)
    return out


# --- pairing-torus -----------------------------------------------------------


def test_pairing_check_accepts_library_output(pairing_case):
    item, output = pairing_case
    assert workloads.check_pairing(item, output) is None


@pytest.mark.parametrize("index", [0, 1, 2])
def test_pairing_check_rejects_perturbed_exponent(pairing_case, index):
    item, (norms, hermitian, factor) = pairing_case
    wrong = (_perturb_norm(norms, index, 1e-6), hermitian, factor)
    assert workloads.check_pairing(item, wrong) is not None


def test_pairing_check_rejects_all_formulas_shifted_together(pairing_case):
    item, (norms, hermitian, factor) = pairing_case
    shifted = [dataclasses.replace(r, exponent=r.exponent + 1e-6, norm=math.exp(r.exponent + 1e-6))
               for r in norms]
    wrong = (shifted, hermitian + 1e-6, factor)
    assert "reference" in workloads.check_pairing(item, wrong)


def test_pairing_check_rejects_norm_off_its_exponent(pairing_case):
    item, (norms, hermitian, factor) = pairing_case
    wrong = ([dataclasses.replace(norms[0], norm=norms[0].norm * (1 + 1e-6))] + norms[1:], hermitian, factor)
    assert workloads.check_pairing(item, wrong) is not None


@pytest.mark.parametrize("delta", [1e-6, 1e-6j])
def test_pairing_check_rejects_perturbed_hermitian_form(pairing_case, delta):
    item, (norms, hermitian, factor) = pairing_case
    assert workloads.check_pairing(item, (norms, hermitian + delta, factor)) is not None


def test_pairing_check_rejects_perturbed_string_exponent(pairing_case):
    item, (norms, hermitian, factor) = pairing_case
    wrong = dataclasses.replace(factor, exponent=factor.exponent + 1e-6)
    assert "string exponent" in workloads.check_pairing(item, (norms, hermitian, wrong))


def test_pairing_check_rejects_inconsistent_component_factors(pairing_case):
    item, (norms, hermitian, factor) = pairing_case
    parts = list(factor.per_component)
    parts[3] *= 1 + 1e-6
    wrong = dataclasses.replace(factor, per_component=tuple(parts))
    assert "per-component" in workloads.check_pairing(item, (norms, hermitian, wrong))


# --- certificate -------------------------------------------------------------


def test_certificate_pool_is_half_principal():
    pool = pools.certificate_pool(5)
    assert sum(item["principal"] for item in pool) == len(pool) // 2
    for item in pool:
        tau = complex(*item["tau"])
        assert abs(tau.real) <= 0.5 and abs(tau) >= 1


def test_certificate_check_accepts_library_output(certificate_cases):
    assert [c[0]["principal"] for c in certificate_cases] == [True, False]
    for item, cert in certificate_cases:
        assert workloads.check_certificate(item, cert) is None


@pytest.mark.parametrize("field", ["principal", "periods_integral"])
def test_certificate_check_rejects_flipped_decision(certificate_cases, field):
    for item, cert in certificate_cases:
        wrong = dataclasses.replace(cert, **{field: not getattr(cert, field)})
        assert workloads.check_certificate(item, wrong) is not None


def test_certificate_check_rejects_wrong_defect(certificate_cases):
    for item, cert in certificate_cases:
        wrong = dataclasses.replace(cert, jacobi_defect=cert.jacobi_defect + 1e-6)
        assert "jacobi_defect" in workloads.check_certificate(item, wrong)


# --- cli -----------------------------------------------------------------------


def _edit(stdout: str, change) -> str:
    report = json.loads(stdout)
    change(report)
    return json.dumps(report) + "\n"


def test_cli_checks_accept_library_output_except_formatter_fault(cli_cases):
    verdicts = {key: workloads.check_cli(item, out) for key, (item, out) in cli_cases.items()}
    failed = [key for key, v in verdicts.items() if v == workloads.FAILED]
    assert failed == ["class-torus8", "class-torus10"]
    assert all(v is None for key, v in verdicts.items() if key not in failed)


@pytest.mark.parametrize(
    "key, field",
    [
        ("anchor0", "exponent"),
        ("anchor0", "norm"),
        ("green-sphere1", "real"),
        ("green-torus2", "real"),
        ("pairing-sphere3", "exponent"),
        ("pairing-marked4", "exponent"),
        ("string-factor7", "exponent"),
    ],
)
def test_cli_checks_reject_perturbed_value(cli_cases, key, field):
    item, (code, stdout) = cli_cases[key]

    def change(report):
        outputs = report["outputs"]
        outputs[field] += 1e-6
        if "per_formula_exponent" in outputs and field == "exponent":
            outputs["per_formula_exponent"]["ad3"] += 1e-6

    wrong = workloads.check_cli(item, (code, _edit(stdout, change)))
    assert wrong is not None and wrong != workloads.FAILED


def test_cli_checks_reject_perturbed_hermitian_literal(cli_cases):
    item, (code, stdout) = cli_cases["pairing-marked4"]
    value = divpair.parse_complex(json.loads(stdout)["outputs"]["hermitian_value"]) + 1e-6j

    def change(report):
        report["outputs"]["hermitian_value"] = divpair.format_complex(value)

    assert "hermitian" in workloads.check_cli(item, (code, _edit(stdout, change)))


def test_cli_checks_reject_reciprocity_residual(cli_cases):
    item, (code, stdout) = cli_cases["reciprocity5"]

    def change(report):
        report["outputs"]["residual"] = 1e-6

    assert "residual" in workloads.check_cli(item, (code, _edit(stdout, change)))


@pytest.mark.parametrize("key", ["class-sphere6", "class-torus9"])
def test_cli_checks_reject_flipped_principal(cli_cases, key):
    item, (code, stdout) = cli_cases[key]

    def change(report):
        report["outputs"]["principal"] = not report["outputs"]["principal"]

    assert workloads.check_cli(item, (code, _edit(stdout, change))) not in (None, workloads.FAILED)


def test_cli_checks_reject_inconsistent_component_factors(cli_cases):
    item, (code, stdout) = cli_cases["string-factor7"]

    def change(report):
        report["outputs"]["per_component_factor"]["nu3"] *= 1 + 1e-6

    assert "per-component" in workloads.check_cli(item, (code, _edit(stdout, change)))


def test_cli_checks_reject_malformed_reports(cli_cases):
    item, (code, stdout) = cli_cases["anchor0"]
    assert "exit code" in workloads.check_cli(item, (3, stdout))
    assert "one line" in workloads.check_cli(item, (code, stdout + stdout))
    status = _edit(stdout, lambda r: r.update(status="fail"))
    assert "status" in workloads.check_cli(item, (code, status))
    other = _edit(stdout, lambda r: r.update(command="pairing "))
    assert "differs" in workloads.check_cli(item, (code, other), first=(code, stdout))


def test_cli_literal_check_rejects_exponent_notation(cli_cases):
    item, (code, stdout) = cli_cases["class-torus9"]

    def change(report):
        report["outputs"]["monodromy"]["b_period"] = "1e-17-3.14i"

    assert workloads.check_cli(item, (code, _edit(stdout, change))) == workloads.FAILED


@pytest.mark.parametrize("seed", range(20))
def test_seeded_cli_requests_never_fail(seed, tmp_path, monkeypatch):
    """Only the fixed torus class requests may hit the formatter fault, on every seed."""
    monkeypatch.chdir(tmp_path)
    data = pools.build("cli", seed)
    ops = workloads.build_cli(data, tmp_path, in_process=True)
    verdicts = [workloads.check_cli(item, op()) for item, op in zip(data["items"], ops)]
    fixed = len(pools.FIXED_TORUS_CLASS)
    assert verdicts[:-fixed] == [None] * (len(verdicts) - fixed)
    assert verdicts[-fixed:] == [workloads.FAILED, None, workloads.FAILED]


# --- selftest ----------------------------------------------------------------


def test_selftest_check_rejects_failing_property():
    item = {"seed": 7, "cases": 2}
    report = divpair.selftest.run_selftest(seed=7, cases=2)
    assert workloads.check_selftest(item, report) is None
    results = list(report.results)
    results[5] = dataclasses.replace(results[5], passed=False)
    wrong = dataclasses.replace(report, results=tuple(results))
    assert results[5].name in workloads.check_selftest(item, wrong)


# --- reference and pools -----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_reference_theta_matches_library_on_pool_moduli(seed):
    taus = [complex(*i["tau"]) for i in pools.pairing_pool(seed) + pools.certificate_pool(seed)]
    rng = random.Random(seed)
    worst = 0.0
    for tau in taus:
        for _ in range(8):
            z = complex(reference.center(rng.uniform(-2, 2) + rng.uniform(-2, 2) * tau, tau))
            mine = complex(reference.theta1(z, tau))
            theirs = divpair.theta1(z, tau)
            worst = max(worst, abs(mine - theirs) / abs(theirs))
    assert worst < 1e-12


def test_reference_kernel_is_periodic_with_log_singularity():
    tau = 0.2 + 1.1j
    p, q = 0.3 + 0.4j, 0.7 + 0.2j
    shifted = reference.torus_kernel([p + 1 + tau], [q - tau], tau)[0, 0]
    assert abs(shifted - reference.torus_kernel([p], [q], tau)[0, 0]) < 1e-12
    # theta1(z) ~ theta1'(0) z near 0, with theta1'(0) = 2 pi eta(tau)^3
    nome = cmath.exp(2j * math.pi * tau)
    eta3 = cmath.exp(1j * math.pi * tau / 4) * math.prod((1 - nome**n) ** 3 for n in range(1, 40))
    eps = 1e-4
    near = reference.torus_kernel([p + eps], [p], tau)[0, 0]
    assert abs(near - math.log(eps * abs(2 * math.pi * eta3))) < 1e-6


def test_pools_repeat_by_seed_and_keep_their_shape():
    for workload in pools.WORKLOADS:
        assert json.dumps(pools.build(workload, 4)) == json.dumps(pools.build(workload, 4))
    shapes = {tuple(i["n"] for i in pools.pairing_pool(seed)) for seed in SEEDS}
    assert len(shapes) == 1
    fixed = {json.dumps(pools.cli_pool(seed)[0][-3:]) for seed in SEEDS}
    assert len(fixed) == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(pools.WORKLOADS)
    assert tuple(divpair.selftest.property_names()) == tracing.SELFTEST_PROPERTIES


# --- tracing -------------------------------------------------------------------


def test_self_time_excludes_child_spans_and_uninstall_restores():
    original = divpair.curve.theta1
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert divpair.curve.theta1 is not original
        mc = divpair.MarkedCurve(divpair.Torus(0.1 + 1j), [0.2, 0.5 + 0.5j, 0.7 + 0.1j])
        d1 = divpair.ComplexDivisor(mc, marked=[(0, 1), (1, -1)])
        d2 = divpair.ComplexDivisor(mc, integral=[(0.9 + 0.9j, 1), (0.4, -1)])
        tracer.current_op = 0
        divpair.pairing_norm(mc, d1, d2, "ad")
    finally:
        tracer.uninstall()
    assert divpair.curve.theta1 is original
    metrics = tracing.layer_metrics(tracer, [{"n": 2}], {})
    a = tracer.arrays()
    names = [str(s) for s in a["names"]]
    norm = [i for i, k in enumerate(a["name"]) if names[k] == "pairing.pairing_norm"]
    [span] = norm
    children = (a["parent"] == span)
    inclusive = a["end"][span] - a["start"][span]
    child_time = (a["end"] - a["start"])[children].sum()
    assert metrics["pairing.self_ms"] == pytest.approx((inclusive - child_time) * 1e3)
    # ad: 2x2 kernel for the exponent and again for the Hermitian value
    assert metrics["curve.kernel_calls"] == 8
    assert metrics["pairing.kernel_passes"] == 2
    assert metrics["divisor.setup_constructions"] == 2
