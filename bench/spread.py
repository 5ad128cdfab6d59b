"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workloads field-files --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --out bench/baseline.json

Runs are sequential fresh processes of ``bench/run.py`` from the current
directory.  The spread of a metric is the distance between the first and
third quartiles of its values (``statistics.quantiles(values, n=4)``) as a
share of their median; it is printed next to the metric's bound from
``BENCHMARK.json``, whose bound a steady benchmark keeps each spread well
below.  ``--out`` writes every value and summary, with the environment of
the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")

    summary = {"date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for wl in workloads:
        values: dict[str, list] = {}
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                sys.stderr.write(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                status = 1
                continue
            if "environment" not in summary:
                env_line = next(l for l in lines if l.startswith("environment: "))
                summary["environment"] = env_line[len("environment: "):]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace), flush=True)
        rows = {}
        for name, vals in values.items():
            row = {"values": vals, "median": statistics.median(vals)}
            if len(vals) >= 2:
                row["spread"] = spread(vals)
            rows[name] = row
            if name in bounds and "spread" in row:
                print(f"  {wl} {name}: median {row['median']:.6g} spread {row['spread']:.4f}"
                      f" (bound {bounds[name]}, third {bounds[name] / 3:.4f})")
        summary["workloads"][wl] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
