"""divpair benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports divpair from src/).
Workloads: pairing-torus, certificate, cli, selftest (see README.md).
Each is a closed loop with one client: one operation at a time, in a fresh
worker process, cycling the whole seeded pool until S seconds have passed.

With --trace 0 the last line of output is the JSON result with the
end-to-end metrics.  Every round runs each operation of the pool once, and
each operation's latency is taken as its fastest over the run's rounds:
the host's CPU speed varies from second to second with load from outside
this process, and that only ever adds time (the reasoning of timeit).  The
median and p90 latency are taken across the pool's operations, and
ops_per_s is the pool size over the sum of their latencies.  Set-up time
is the fastest of SETUP_SAMPLES fresh processes.

With --trace 1 a traced worker reports the per-layer metrics instead, and
the line before the result states the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pools
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
DEADLINE_S = 170  # every worker is stopped by then, so a run ends within 180 s

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def worker(mode: str, pool_path: Path, seconds: float, deadline: float) -> tuple[dict, float]:
    """Run worker.py; its JSON result and its set-up time from process start."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(pool_path), str(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=deadline - spawned, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: {mode} worker exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, result["ready"] - spawned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "divpair" / "__init__.py").is_file():
        print(f"perfbench: no divpair source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    pool_path = OUT / f"pool-{args.workload}.json"
    pool_path.write_text(json.dumps(pools.build(args.workload, args.seed)), encoding="utf-8")

    if args.trace:
        result, _ = worker("trace", pool_path, args.seconds, deadline)
        print(result["overhead"])
        units = dict(tracing.PER_LAYER)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    else:
        setups = [worker("setup", pool_path, args.seconds, deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
        result, setup = worker("run", pool_path, args.seconds, deadline)
        latencies, size = result["latencies"], result["round_size"]
        best = [min(latencies[k::size]) for k in range(size)]  # per operation of the pool
        values = {
            "ops_per_s": size / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p90_ms": statistics.quantiles(best, n=10)[-1] * 1e3,
            "setup_s": min(setups + [setup]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
