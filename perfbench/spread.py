#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every end-to-end metric this prints the median of the runs and the
distance between the first and third quartile as a share of the median
(quartiles as ``statistics.quantiles(values, n=4)`` gives them), next to
the metric's bound from ``BENCHMARK.json``.  Run it from the repository
root:

    python3 perfbench/spread.py --workload paper-lineup --runs 10

``--trace 1`` reports the per-layer metrics instead (they have no bound).
The exit code is 1 when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {result['failed']} failed, correct={result['correct']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        provenance = next((json.loads(line.split(":", 1)[1]) for line in lines
                           if line.startswith("provenance:")), {})
        steal = provenance.get("cpu_steal_per_window") or []
        shown = f" (max window cpu steal {max(steal):.3f})" if steal else ""
        print(f"seed {seed}{shown}: "
              + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    ok = True
    print(f"\n{'metric':<34} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  over a third of bound"
        shown = "-" if bound is None else f"{bound:g}"
        print(f"{name:<34} {med:>14.6g} {spread:>8.4f} {shown:>6}{flag}")
    missing = set(bounds) - set(values)
    if missing:
        print(f"missing metrics: {sorted(missing)}")
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
