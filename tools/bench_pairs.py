"""Condense alternating parent/change benchmark runs into one BENCH_*.json.

Run ``bench/run.py --trace 0`` for each workload and seed in two checkouts,
the parent commit's and the change's, alternating which side runs first.
Make both checkouts fresh, each with ``git archive <commit> | tar -x -C
DIR`` into a new directory, and never compare a working tree or a copy of
one against an archive: field-files ``peak_rss_mb`` moves by about 0.5 MB
with the checkout directory alone, with the same source.  Each run leaves
``.bench_out/<workload>/result-seed<seed>-trace0.json`` in its checkout.
Then

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --description "what changed" --out BENCH_13.json

pairs the records by workload and seed and writes, per workload and
end-to-end metric of ``BENCHMARK.json``, each side's median and
interquartile range (inclusive quartiles) of the per-run medians and the
number of pairs in which the change was better (ties count for neither),
with the seeds, the run length, and the passes each side attempted and
failed.  A run that failed a pass reports no metrics; its pair is left out
of the medians and counted in ``pairs_without_metrics``.

Each metric also gets a ``verdict``, printed on its summary line, with the
metric's ``bound`` from ``BENCHMARK.json`` taken as a share of the parent
median; the first that applies is given:

- ``regression``: the change median is worse than the parent's by more
  than the bound;
- ``unresolved``: the parent IQR exceeds the bound, and not every change
  run beats every parent run;
- ``gain``: the change wins at least 9/10 of the pairs, and its median is
  better than the parent's by more than the parent IQR;
- ``no regression`` otherwise.

With ``--layers`` it also reads the ``bench/run.py --trace 1`` records,
``result-seed<seed>-trace1.json``, and writes under ``layers`` each side's
median of every per-layer metric of ``BENCHMARK.json`` over those runs,
per workload, such as ``census.for_field_s`` and ``census.site_system_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(root: Path, trace: int = 0) -> dict:
    """(workload, seed) -> the run record with ``--trace trace`` under ``root``."""
    runs = {}
    for path in sorted((root / ".bench_out").glob(f"*/result-seed*-trace{trace}.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["seed"]] = record
    return runs


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "iqr": round(q3 - q1, 6)}


def verdict(p_vals: list[float], c_vals: list[float], better: str, bound: float) -> str:
    """The verdict on one metric from its paired per-run values (see the
    module docstring)."""
    sign = 1 if better == "lower" else -1
    p, c = spread(p_vals), spread(c_vals)
    if sign * (c["median"] - p["median"]) > bound * abs(p["median"]):
        return "regression"
    separated = max(sign * v for v in c_vals) < min(sign * v for v in p_vals)
    if p["iqr"] > bound * abs(p["median"]) and not separated:
        return "unresolved"
    wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(p_vals, c_vals))
    if 10 * wins >= 9 * len(p_vals) and sign * (p["median"] - c["median"]) > p["iqr"]:
        return "gain"
    return "no regression"


def paired(parent: dict, change: dict) -> dict:
    """workload -> (seeds, the (parent, change) record pair of each seed)."""
    if parent.keys() != change.keys():
        raise SystemExit(f"unpaired runs: {sorted(parent.keys() ^ change.keys())}")
    out = {}
    for workload, seed in sorted(parent):
        seeds, pairs = out.setdefault(workload, ([], []))
        seeds.append(seed)
        pairs.append((parent[workload, seed], change[workload, seed]))
    return out


def condense(parent: dict, change: dict, metrics: dict) -> dict:
    out = {}
    for workload, (seeds, pairs) in paired(parent, change).items():
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
        for name, (better, bound) in metrics.items():
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
                "bound": bound,
                "verdict": verdict(p_vals, c_vals, better, bound),
            }
        out[workload] = entry
    return out


def layer_medians(parent: dict, change: dict, metrics: dict) -> dict:
    """Per workload, each side's median of each per-layer metric over the
    traced runs that reported metrics on both sides."""
    out = {}
    for workload, (seeds, pairs) in paired(parent, change).items():
        full = [(p, c) for p, c in pairs if p["metrics"] and c["metrics"]]
        entry = {"pairs": len(full), "seeds": seeds, "metrics": {}}
        for name, better in metrics.items():
            if not full or any(name not in r["metrics"] for pair in full for r in pair):
                continue
            entry["metrics"][name] = {
                side: round(statistics.median(pair[i]["metrics"][name]["value"] for pair in full), 6)
                for i, side in enumerate(("parent", "change"))
            }
            entry["metrics"][name].update(unit=full[0][1]["metrics"][name]["unit"], better=better)
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--description", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--layers", action="store_true", help="add the per-layer medians of the --trace 1 runs"
    )
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
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
    if args.layers:
        layers = {m["name"]: m["better"] for m in spec["per_layer"]}
        summary["layers"] = layer_medians(
            load_runs(args.parent, trace=1), load_runs(args.change, trace=1), layers
        )
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:>17} {name:>12}: parent {m['parent']['median']:.6g} "
                  f"change {m['change']['median']:.6g} better in {m['change_better_in_pairs']}: "
                  f"{m['verdict']}")
    for workload, entry in summary.get("layers", {}).items():
        for name in ("census.for_field_s", "census.site_system_s"):
            if name in entry["metrics"]:
                m = entry["metrics"][name]
                print(f"{workload:>17} {name:>21}: parent {m['parent']:.6g} change {m['change']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
