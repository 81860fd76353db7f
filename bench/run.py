"""fbrate benchmark: one command, every metric by name and unit, outputs checked.

    python3 bench/run.py --workload fig-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (it imports ``fbrate`` from ``src``).
Each run uses fresh interpreters and one closed-loop caller: one process, one
thread, library defaults.  With ``--trace 0`` it first starts ``SETUP_PROBES``
interpreters that only set up (import, build inputs, one warm-up request) and
then the measuring one; ``setup_s`` is the median launch-to-ready time of all
of them.  With ``--trace 1`` a single interpreter runs the same requests with
spans installed (see ``tracing.py``) and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list each metric with its unit and every failing request.  Details go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKER = BENCH_DIR / "worker.py"

SETUP_PROBES = 2
#: Hard limit for one run, under the 180 s a run may take.
DEADLINE_S = 170.0

WORKLOADS = ("fig-sweep", "cross-grid", "mc", "high-mult")


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def start_worker(args, extra, deadline):
    """Launch a worker; return (launch-to-ready seconds, ready fields, result or None)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    ready_s = ready = result = None
    try:
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                continue
            event = json.loads(line)
            if event["event"] == "ready":
                ready_s = time.perf_counter() - launched
                ready = event
            elif event["event"] == "result":
                result = event
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker exited with code {code} before finishing")
    return ready_s, ready, result


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fbrate benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    missing = [p for p in ("src/fbrate/__init__.py", "BENCHMARK.json", "bench/oracle.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an fbrate source checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    spec, units = load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            spans = OUT_DIR / f"{args.workload}.spans.csv.gz"
            _, ready, result = start_worker(args, ["--spans", str(spans)], deadline)
            metrics = dict(result["layers"])
            metrics["setup.import_s"] = ready["import_s"]
            metrics["setup.warmup_s"] = ready["warmup_s"]
            metrics["failed_frac"] = result["failed"] / result["attempted"]
            metrics["mc.msamples_per_s"] = result["msamples_per_s"]
            names = [m["name"] for m in spec["per_layer"]]
        else:
            setup = [start_worker(args, ["--setup-only"], deadline)[0]
                     for _ in range(SETUP_PROBES)]
            ready_s, _, result = start_worker(args, [], deadline)
            setup.append(ready_s)
            metrics = {k: result[k] for k in ("points_per_s", "request_ms_p50",
                                              "request_ms_tail", "peak_rss_mb")}
            metrics["setup_s"] = statistics.median(setup)
            result["setup_samples_s"] = setup
            names = [m["name"] for m in spec["end_to_end"]]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result["metrics"] = metrics
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} passes={result['passes']} "
          f"requests={result['distinct_requests']} points={result['points']}")
    for name in names:
        print(f"{name:40s} {fmt(metrics[name]):>14s} {units[name]}")
    if not args.trace:
        print(f"# request_ms_tail is p{result['tail_percentile']:.1f} over "
              f"{result['tail_samples']} timed requests")
    print(f"# failed {result['failed']}/{result['attempted']} requests; failing points "
          f"by kind: {json.dumps(result['failed_points_by_kind'])}")
    if args.workload == "mc":
        print(f"# msamples_per_s {result['msamples_per_s']:.6g} 1e6/s")
    for failure in result["failures"]:
        print(f"# failure {json.dumps(failure)}")
    if args.trace and result["unwrapped"]:
        print(f"# not traced (name absent): {', '.join(result['unwrapped'])}")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
