"""Condense alternating parent/change benchmark runs into one BENCH_*.json.

Run ``bench/run.py --trace 0`` for each workload and seed in two checkouts,
the parent commit's and the change's, alternating which side runs first.
Each run leaves ``.bench_out/<workload>/result-seed<seed>-trace0.json`` in
its checkout.  Then

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --description "what changed" --out BENCH_13.json

pairs the records by workload and seed and writes, per workload and
end-to-end metric of ``BENCHMARK.json``, each side's median and
interquartile range (inclusive quartiles) of the per-run medians and the
number of pairs in which the change was better (ties count for neither),
with the seeds, the run length, and the passes each side attempted and
failed.  A run that failed a pass reports no metrics; its pair is left out
of the medians and counted in ``pairs_without_metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(root: Path) -> dict:
    """(workload, seed) -> the untraced run record under ``root``."""
    runs = {}
    for path in sorted((root / ".bench_out").glob("*/result-seed*-trace0.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["seed"]] = record
    return runs


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "iqr": round(q3 - q1, 6)}


def condense(parent: dict, change: dict, metrics: dict) -> dict:
    if parent.keys() != change.keys():
        raise SystemExit(f"unpaired runs: {sorted(parent.keys() ^ change.keys())}")
    out = {}
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload)
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        seconds = {r["seconds"] for pair in pairs for r in pair}
        if len(seconds) != 1:
            raise SystemExit(f"{workload}: runs of different lengths {sorted(seconds)}")
        full = [(p, c) for p, c in pairs if p["metrics"] and c["metrics"]]
        entry = {
            "pairs": len(pairs),
            "seconds_per_run": seconds.pop(),
            "seeds": seeds,
            "failed_passes": {
                "parent": sum(p["failed"] for p, _ in pairs),
                "change": sum(c["failed"] for _, c in pairs),
            },
            "attempted_passes": {
                "parent": sum(p["attempted"] for p, _ in pairs),
                "change": sum(c["attempted"] for _, c in pairs),
            },
            "pairs_without_metrics": len(pairs) - len(full),
            "metrics": {},
        }
        for name, better in metrics.items():
            if len(full) < 2:
                break
            p_vals = [p["metrics"][name]["value"] for p, _ in full]
            c_vals = [c["metrics"][name]["value"] for _, c in full]
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (p - c) > 0 for p, c in zip(p_vals, c_vals))
            entry["metrics"][name] = {
                "parent": spread(p_vals),
                "change": spread(c_vals),
                "better": better,
                "change_better_in_pairs": f"{wins}/{len(full)}",
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--description", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    if not change:
        raise SystemExit(f"no run records under {args.change / '.bench_out'}")
    env = next(iter(change.values()))["environment"]
    seconds = {r["seconds"] for r in change.values()}
    summary = {
        "description": args.description,
        "host": {
            "nproc": env["nproc"],
            "cpu": env["cpu_model"],
            "python": env["python"],
            "numpy": env["numpy"],
        },
        "method": (
            f"bench/run.py --trace 0 --seconds {'/'.join(map(str, sorted(seconds)))}, one fresh "
            "process per run; parent and change alternate which runs first; medians and IQR "
            "(inclusive quartiles) of the per-run medians"
        ),
        "workloads": condense(parent, change, metrics),
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:>17} {name:>12}: parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} better in {m['change_better_in_pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
