"""Per-layer timings of divpair, written as one BENCH record (JSON).

    python3 tools/bench_layers.py --out BENCH_22.json                 # the layers of this tree
    python3 tools/bench_layers.py --full --base REV --out BENCH_22.json
    python3 tools/bench_layers.py --quick --out /tmp/bench.json       # seconds-long smoke run

Each layer is timed in a fresh Python process that imports divpair from the
tree's ``src/``: one warm-up call, then the fastest of ``REPEATS`` repeats,
each repeat a batch of calls long enough to last 0.2 s (``timeit``'s
autorange), reported per call.  CLI cold start is the median of five
``python -m divpair.cli --version`` processes.  ``--base REV`` measures the
committed tree of git revision REV as well (extracted with ``git archive``
into a temporary directory); the trees take turns for ``ROUNDS`` rounds
and every figure keeps its fastest round.  Outside load only ever adds
time, so the fastest is the steady figure.  ``--full`` adds the system
figures: one default ``divpair selftest`` and one tier-1 pytest run per
tree, wall time.  ``--quick`` times every layer once, with no warm-up
batch, in one round with one cold start: a check that the script runs,
not a measurement.  The head tree is named by its ``HEAD`` commit and
``diff_sha256``, the SHA-256 of ``git diff HEAD --binary`` (null on a
clean tree), so a record written before its commit still names what it measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
ROUNDS = 5
COLD_STARTS = 5
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]


def _layers() -> dict:
    """name -> zero-argument call, for every layer; imports divpair from sys.path."""
    import divpair as dp

    rng = random.Random(22)
    tau = 0.1 + 1.1j
    torus, sphere = dp.Torus(tau), dp.Sphere()

    def torus_points(count):
        side = int(count ** 0.5) + 1
        return [(k % side + rng.uniform(0.1, 0.9)) / side + (k // side + rng.uniform(0.1, 0.9)) / side * tau
                for k in range(count)]

    def sphere_points(count):
        return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(count)]

    def zero_sum(count):
        coeffs = [dp.GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(count - 1)]
        return coeffs + [-sum(coeffs, dp.GaussianRational(0))]

    def pairing(curve, points, n):
        mc = dp.MarkedCurve(curve, points)
        d1 = dp.ComplexDivisor(mc, marked=list(enumerate(zero_sum(n))))
        d2 = dp.ComplexDivisor(mc, marked=[(n + i, c) for i, c in enumerate(zero_sum(n))])
        return lambda: dp.pairing_norm(mc, d1, d2)

    def unit_vector():
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(13)]
        norm = sum(abs(c) ** 2 for c in v) ** 0.5
        return [c / norm for c in v]

    points = torus_points(64)
    left, right = points[:32], points[32:]
    # a principal divisor: P - Q + R - S with P - Q + R - S in the lattice
    p, q, r = (torus.from_lattice_coords(a, b) for a, b in ((0.2, 0.3), (0.6, 0.7), (0.5, 0.1)))
    certificate_mc = dp.MarkedCurve(torus)
    principal = dp.ComplexDivisor(certificate_mc, integral=[(p, 1), (q, -1), (r, 1), (p - q + r, -1)])
    halves = [unit_vector() for _ in range(16)]
    momenta = dp.MomentumConfig(halves + [[-c for c in v] for v in halves])
    string_mc = dp.MarkedCurve(torus, torus_points(32))

    layers = {
        "theta1_us": lambda: dp.theta1(0.3 + 0.2j, tau),
        "theta1_log_derivative_us": lambda: dp.theta1_log_derivative(0.3 + 0.2j, tau),
        "green_kernel_us": lambda: dp.green_kernel(torus, 0.3 + 0.2j, 0.7 + 0.5j),
        "kernel_matrix_32_us": lambda: dp.kernel_matrix(torus, left, right),
    }
    for n in (8, 32, 128):
        layers[f"pairing_norm_sphere_{n}_us"] = pairing(sphere, sphere_points(2 * n), n)
        layers[f"pairing_norm_torus_{n}_us"] = pairing(torus, torus_points(2 * n), n)
    layers["certificate_us"] = lambda: dp.is_principal(certificate_mc, principal)
    layers["string_pairing_factor_32_us"] = lambda: dp.string_pairing_factor(string_mc, momenta)
    return layers


def time_layers(quick: bool) -> dict:
    """Microseconds per call of every layer, in this process."""
    figures = {}
    for name, call in _layers().items():
        timer = timeit.Timer(call)
        if quick:
            figures[name] = timer.timeit(1) * 1e6
            continue
        call()
        number, _ = timer.autorange()
        figures[name] = min(timer.repeat(REPEATS, number)) / number * 1e6
    return figures


def _run(argv: list, tree: Path) -> subprocess.CompletedProcess:
    """python ARGV in the tree's directory, importing divpair from its src/."""
    return subprocess.run([sys.executable, *argv], cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True, check=False)


def measure_layers_of(tree: Path, quick: bool) -> dict:
    """The layer figures of one source tree: one fresh timing process, then the cold starts."""
    argv = [str(Path(__file__).resolve()), "--layers-of-this-process"] + ["--quick"] * quick
    done = _run(argv, tree)
    if done.returncode != 0:
        raise RuntimeError(f"layer timing failed in {tree}:\n{done.stderr}")
    layers = json.loads(done.stdout.splitlines()[-1])
    starts = []
    for _ in range(1 if quick else COLD_STARTS):
        began = time.perf_counter()
        _run(["-m", "divpair.cli", "--version"], tree)
        starts.append(time.perf_counter() - began)
    layers["cli_cold_start_ms"] = statistics.median(starts) * 1e3
    return layers


def measure_system_of(tree: Path) -> dict:
    """One default selftest and one tier-1 run of a source tree, wall time."""
    began = time.perf_counter()
    selftest = _run(["-m", "divpair.cli", "selftest"], tree)
    selftest_s = time.perf_counter() - began
    began = time.perf_counter()
    tier1 = _run(TIER1, tree)
    return {
        "selftest_s": selftest_s,
        "selftest_status": json.loads(_last_line(selftest.stdout) or "{}").get("status", "error"),
        "tier1_s": time.perf_counter() - began,
        "tier1_summary": re.sub(r" in [0-9.]+s.*$", "", _last_line(tier1.stdout)),
    }


def measure(trees: dict, quick: bool, full: bool) -> dict:
    """label -> figures of every tree.  The trees take turns, ROUNDS times, so a slow spell of a
    shared host falls on all of them; each layer keeps its fastest round, cold start its fastest median."""
    figures = {label: {"layers": {}} for label in trees}
    for _ in range(1 if quick else ROUNDS):
        for label, tree in trees.items():
            best = figures[label]["layers"]
            for name, value in measure_layers_of(tree, quick).items():
                best[name] = min(value, best.get(name, value))
    if full:
        for label, tree in trees.items():
            figures[label]["system"] = measure_system_of(tree)
    return figures


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _git(*argv: str) -> str | None:
    """The output of one git command in this repository; None outside a git checkout."""
    done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def _diff_sha256() -> str | None:
    """SHA-256 of ``git diff HEAD --binary``, the uncommitted change to the measured tree;
    None when there is none or outside a git checkout."""
    done = subprocess.run(["git", "diff", "HEAD", "--binary"], cwd=ROOT, capture_output=True, check=False)
    return hashlib.sha256(done.stdout).hexdigest() if done.returncode == 0 and done.stdout else None


def _machine() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="where to write the JSON record")
    parser.add_argument("--base", help="a git revision to measure as well, before this tree")
    parser.add_argument("--full", action="store_true", help="add the default selftest and the tier-1 run")
    parser.add_argument("--quick", action="store_true", help="time every layer once: a smoke run")
    parser.add_argument("--layers-of-this-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.layers_of_this_process:
        print(json.dumps(time_layers(args.quick)))
        return 0
    if args.out is None:
        parser.error("--out is required")

    record = {
        "machine": _machine(),
        "method": (f"per call, fastest of {1 if args.quick else REPEATS} repeats in a fresh process per tree "
                   f"and round, the trees taking turns for {1 if args.quick else ROUNDS} rounds, fastest round; "
                   f"cli_cold_start_ms the median of {1 if args.quick else COLD_STARTS} processes, fastest round; "
                   "system figures one run each, wall time"),
        "mode": "quick" if args.quick else "full" if args.full else "layers",
    }
    head = {"commit": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
            "diff_sha256": _diff_sha256()}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {}
        if args.base:
            archive = Path(scratch) / "base.tar"
            subprocess.run(["git", "archive", "-o", str(archive), args.base], cwd=ROOT, check=True)
            with tarfile.open(archive) as tar:
                tar.extractall(Path(scratch) / "base", filter="data")
            trees["base"] = Path(scratch) / "base"
        trees["head"] = ROOT
        figures = measure(trees, args.quick, args.full)
    record["trees"] = {"head": {**head, **figures["head"]}}
    if args.base:
        record["trees"] = {"base": {"commit": _git("rev-parse", args.base), **figures["base"]}, **record["trees"]}
        base, new = figures["base"]["layers"], figures["head"]["layers"]
        record["speedup"] = {name: base[name] / new[name] for name in new if name in base}
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
