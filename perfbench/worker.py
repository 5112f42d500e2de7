"""One workload in a fresh process: set up, run whole rounds of its pool, check.

    python3 perfbench/worker.py MODE POOL_JSON SECONDS

MODE is one of
  setup  import divpair, build the pool, run one warm-up operation, stop;
  run    as setup, then run whole rounds of the pool until SECONDS have
         passed, and check every output;
  trace  as setup, then whole rounds with a tracing.Tracer installed, for
         half of SECONDS or until SPAN_BUDGET spans are held, then whole
         rounds untraced for the rest of SECONDS, as the overhead baseline.
The last line of standard output is one JSON object; `ready` is the
time.monotonic() reading at which the first timed operation could start.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)

TRACED_SHARE = 0.5
SPAN_BUDGET = 1_000_000  # 28 MB of span arrays
CLI_SAMPLES = 5
MAX_ERRORS = 5


def run_rounds(ops: list, seconds: float, tracer=None):
    """Whole rounds of `ops` until `seconds` have passed; latencies and outputs in order.

    With a tracer, each operation's spans carry its index, and the rounds
    also stop once the tracer holds SPAN_BUDGET spans.
    """
    latencies, outputs = [], []
    began = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.current_op = len(outputs)
            t0 = time.perf_counter()
            out = op()
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        elapsed = time.perf_counter() - began
        if elapsed >= seconds or (tracer is not None and len(tracer) >= SPAN_BUDGET):
            return latencies, outputs, elapsed


def check_outputs(spec, items: list, outputs: list) -> tuple[int, list[str]]:
    """Operations that failed with the known formatter fault, and every other error."""
    failed, errors = 0, []
    for k, out in enumerate(outputs):
        index = k % len(items)
        first = outputs[index] if k >= len(items) else None
        verdict = spec.check(items[index], out, first)
        if verdict == workloads.FAILED:
            failed += 1
        elif verdict is not None:
            errors.append(f"{items[index].get('kind', 'operation')} {index}: {verdict}")
    return failed, errors


def _median_ms(argv: list[str]) -> float:
    env = workloads.cli_env()
    samples = []
    for _ in range(CLI_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def main() -> None:
    mode, pool_path, seconds = sys.argv[1], Path(sys.argv[2]), float(sys.argv[3])
    data = json.loads(pool_path.read_text(encoding="utf-8"))
    spec = workloads.WORKLOADS[data["workload"]]
    items = data["items"]
    in_process = mode == "trace"
    ops = spec.build(data, ROOT, in_process)
    warm = ops[0]()
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return
    _, errors = check_outputs(spec, items[:1], [warm])

    if mode == "run":
        latencies, outputs, _ = run_rounds(ops, seconds)
        failed, more = check_outputs(spec, items, outputs)
        rss_kb = resource.getrusage(spec.rusage).ru_maxrss
        print(json.dumps({
            "ready": ready,
            "latencies": latencies,
            "round_size": len(ops),
            "attempted": len(outputs),
            "failed": failed,
            "errors": (errors + more)[:MAX_ERRORS],
            "peak_rss_mb": rss_kb / 1024,
        }))
        return

    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    spec.build(data, ROOT, in_process)  # built again under tracing, for the set-up spans
    _, traced_out, traced_elapsed = run_rounds(ops, seconds * TRACED_SHARE, tracer)
    tracer.uninstall()
    plain_lat, plain_out, plain_elapsed = run_rounds(ops, seconds - traced_elapsed)
    tracer.write(ROOT / ".perfbench_out" / f"trace-{data['workload']}.npz")

    extra = {
        "cli.cold_start_ms": _median_ms([sys.executable, "-m", "divpair.cli", "--version"]),
        "cli.import_ms": _median_ms([sys.executable, "-c", "import divpair.cli"]),
    }
    if data["workload"] == "cli":
        extra["cli.main_ms"] = statistics.median(plain_lat) * 1e3
    meta = [spec.meta(items[k % len(items)]) for k in range(len(traced_out))]
    metrics = layer_metrics(tracer, meta, extra)

    failed_plain, more_plain = check_outputs(spec, items, plain_out)
    failed_traced, more_traced = check_outputs(spec, items, traced_out)
    plain_ms = plain_elapsed / len(plain_out) * 1e3
    traced_ms = traced_elapsed / len(traced_out) * 1e3
    print(json.dumps({
        "ready": ready,
        "attempted": len(plain_out) + len(traced_out),
        "failed": failed_plain + failed_traced,
        "errors": (errors + more_plain + more_traced)[:MAX_ERRORS],
        "metrics": metrics,
        "overhead": (
            f"trace overhead: {traced_ms:.3f} ms/op traced over {len(traced_out)} ops, "
            f"{plain_ms:.3f} ms/op untraced over {len(plain_out)} ops "
            f"({(traced_ms / plain_ms - 1) * 100:+.1f}%), {len(tracer.start)} spans"
        ),
    }))


if __name__ == "__main__":
    main()
