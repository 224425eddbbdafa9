"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 11,22,33 [--trace 0] \\
        [--out perfbench/results/NAME.json]

Run from the root of a checkout. It runs every workload of BENCHMARK.json
for its ``run_seconds``, so it measures the configuration the benchmark
is compared on. For every workload and metric it prints
the median over the seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / |median|,
and with ``--out`` writes them, every raw value and the run record as
JSON. The not-gated accuracy figures a trace-0 run prints (nmse_db,
p_detect, failed_share) are collected too.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.e+-]+|nan)\s+(\S+)(\s+\(not gated\))?$")


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {n: m["value"] for n, m in result["metrics"].items()}
    record = None
    for line in lines[:-1]:
        if line.startswith("run record: "):
            record = json.loads(line[len("run record: "):])
        match = LINE.match(line)
        if match and match.group(1) not in values:
            values[match.group(1)] = float(match.group(2))
    return result, values, record


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        per_metric, correct = {}, []
        for seed in seeds:
            result, values, record = one_run(workload, seed, seconds, args.trace)
            report["record"] = record
            correct.append(result["correct"])
            for name, value in values.items():
                per_metric.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + json.dumps(values), flush=True)
        summary = {name: spread(vals) for name, vals in per_metric.items() if len(vals) > 1}
        report["workloads"][workload] = {"all_correct": all(correct), "metrics": summary}
        for name, s in summary.items():
            shown = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:15s} {name:48s} median {s['median']:12.6g}  spread {shown}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
