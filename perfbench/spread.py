#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
spread next to its bound.

Usage, from the repository root:

    python3 perfbench/spread.py [--seeds 1-10] [--workload NAME ...] [--trace 0|1]

Every run is the `command` of BENCHMARK.json with `--workload`, `--seed`,
`--seconds` and `--trace`, one after another. For each workload and metric
it prints the median over the seeds and the quartile spread,
(q3 - q1) / median with the quartiles of `statistics.quantiles(values, n=4)`,
beside the metric's bound and a third of it. Raw results go to stdout as
JSON lines (`{"workload", "seed", "wall_s", "result"}`) before the table.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    failures = 0
    table = []
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            t = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            print(json.dumps({"workload": w, "seed": seed, "wall_s": round(wall, 2),
                              "result": result}), flush=True)
            if result is None or not result["correct"]:
                failures += 1
                sys.stderr.write(proc.stderr[-2000:])
                continue
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            table.append((w, m["name"], med, spread, bound))
    print(f"{'workload':<22} {'metric':<32} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8}")
    for w, name, med, spread, bound in table:
        b = f"{bound:6.3f} {bound / 3:8.3f}" if bound is not None else f"{'-':>6} {'-':>8}"
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{w:<22} {name:<32} {med:14.6g} {spread:8.4f} {b}{flag}")
    if failures:
        print(f"{failures} runs failed or were incorrect")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
