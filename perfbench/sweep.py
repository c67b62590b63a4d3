"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0] [--out FILE]

Run it from the root of a checkout. Each run is a separate
``perfbench/run.py`` process with its own seed, and the run length comes
from ``BENCHMARK.json``. For every workload and metric, the summary gives
the median over runs, the quartiles as ``statistics.quantiles(n=4)`` gives
them, and the spread. The spread is the distance between the quartiles as
a share of the median, which is what the bounds in ``BENCHMARK.json`` are
checked against. ``--out`` writes every run's result line, the environment
record and the summary, which is how ``baseline_seed.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans as sp  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, med, q3 = sp.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "trace": args.trace, "runs": [],
              "summary": {}}
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            env = next((json.loads(ln.split(":", 1)[1]) for ln in lines
                        if ln.startswith("environment:")), None)
            line = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            record["runs"].append({"workload": workload, "seed": seed,
                                   "exit": proc.returncode, "environment": env,
                                   "result": line})
            status = "ok" if line and line["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status}", flush=True)
            if line is None:
                print(proc.stderr[-2000:], file=sys.stderr)
                continue
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {name: spread(v) for name, v in values.items()}
        record["summary"][workload] = summary
        for name, row in summary.items():
            bound = bounds.get(name)
            mark = ""
            if bound is not None and row["spread"] is not None:
                mark = f"  bound {bound}" + ("  OVER" if row["spread"] > bound else "")
            print(f"  {name:<26}median {row['median']:<14.6g}spread "
                  f"{row['spread'] if row['spread'] is not None else float('nan'):.4f}"
                  f"{mark}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
