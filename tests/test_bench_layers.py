import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {
    "theta1_us",
    "theta1_log_derivative_us",
    "green_kernel_us",
    "kernel_matrix_32_us",
    *(f"pairing_norm_{curve}_{n}_us" for curve in ("sphere", "torus") for n in (8, 32, 128)),
    "certificate_us",
    "string_pairing_factor_32_us",
    "cli_cold_start_ms",
}


def test_bench_layers_quick_run_records_every_layer(tmp_path):
    out = tmp_path / "bench.json"
    script = ROOT / "tools" / "bench_layers.py"
    subprocess.run([sys.executable, str(script), "--quick", "--out", str(out)], check=True, timeout=120)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record) == {"machine", "method", "mode", "trees"}
    assert {"cores", "python", "numpy"} <= set(record["machine"])
    assert record["mode"] == "quick"
    assert set(record["trees"]) == {"head"}
    head = record["trees"]["head"]
    assert set(head) == {"commit", "uncommitted_changes", "diff_sha256", "layers"}
    assert head["diff_sha256"] is None or re.fullmatch(r"[0-9a-f]{64}", head["diff_sha256"])
    assert set(head["layers"]) == LAYERS
    assert all(value > 0 for value in head["layers"].values())


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_committed_bench_records_name_their_trees_and_layers(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"cores", "python", "numpy"} <= set(record["machine"])
    for tree in record["trees"].values():
        assert re.fullmatch(r"[0-9a-f]{40}", tree["commit"])
        assert LAYERS <= set(tree["layers"])
    for name, speedup in record.get("speedup", {}).items():
        base, head = (record["trees"][label]["layers"][name] for label in ("base", "head"))
        assert abs(speedup - base / head) <= 1e-12 * speedup
