import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_ENV = {"nproc": 2, "cpu_model": "cpu", "python": "3", "numpy": "2"}


def _write_run(root, workload, seed, trace, metrics):
    out = root / ".bench_out" / workload
    out.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": 40.0,
        "trace": trace,
        "attempted": 5,
        "failed": 0,
        "environment": _ENV,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }
    (out / f"result-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_layers_give_each_sides_median_of_the_traced_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    for seed, (p_field, c_field) in zip((1, 2, 3), ((0.04, 0.03), (0.05, 0.02), (0.06, 0.01))):
        for side, field in ((parent, p_field), (change, c_field)):
            e2e = {m["name"]: field for m in spec["end_to_end"]}
            _write_run(side, "field-files", seed, 0, e2e)
            _write_run(side, "field-files", seed, 1, {
                "census.for_field_s": field,
                "census.site_system_s": field / 10,
            })
    out = tmp_path / "BENCH.json"
    args = ["--parent", str(parent), "--change", str(change), "--description", "d", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    assert "layers" not in json.loads(out.read_text())
    assert bench_pairs.main(args + ["--layers"]) == 0
    layers = json.loads(out.read_text())["layers"]["field-files"]
    assert layers["pairs"] == 3 and layers["seeds"] == [1, 2, 3]
    assert layers["metrics"]["census.for_field_s"] == {
        "parent": 0.05, "change": 0.02, "unit": "s", "better": "lower"
    }
    assert layers["metrics"]["census.site_system_s"]["parent"] == 0.005
    # a metric the traced runs did not report is left out
    assert "census.sweep_s" not in layers["metrics"]


_PARENT = [1.0 + 0.01 * i for i in range(10)]
_WIDE = [1.0 + i for i in range(10)]  # IQR 4.5 over a median of 5.5
_VERDICT_CASES = {
    # workload: (metric, parent runs, change runs, verdict)
    "gain": ("wall_s", _PARENT, [v - 0.1 for v in _PARENT], "gain"),
    "gain-9-of-10": ("wall_s", _PARENT, [v - 0.1 for v in _PARENT[:9]] + [1.2], "gain"),
    "8-of-10": ("wall_s", _PARENT, [v - 0.1 for v in _PARENT[:8]] + [1.2, 1.2], "no regression"),
    "inside-iqr": ("wall_s", _PARENT, [v - 0.04 for v in _PARENT], "no regression"),
    "wide-but-apart": ("wall_s", _WIDE, [0.5 + 0.01 * i for i in range(10)], "gain"),
    "unresolved": ("wall_s", _WIDE, _WIDE[::-1], "unresolved"),
    "slower-within-bound": ("wall_s", _PARENT, [v * 1.2 for v in _PARENT], "no regression"),
    "regression": ("wall_s", _PARENT, [v * 1.3 for v in _PARENT], "regression"),
    "rss-regression": ("peak_rss_mb", _PARENT, [v * 1.06 for v in _PARENT], "regression"),
    "throughput-regression": ("items_per_s", _PARENT, [v * 0.7 for v in _PARENT], "regression"),
    "throughput-gain": ("items_per_s", _PARENT, [v + 0.1 for v in _PARENT], "gain"),
}


def test_verdicts(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    for workload, (name, p_vals, c_vals, _) in _VERDICT_CASES.items():
        for seed, p_val, c_val in zip(range(10), p_vals, c_vals):
            for side, value in ((parent, p_val), (change, c_val)):
                e2e = {m["name"]: 1.0 for m in spec["end_to_end"]}
                _write_run(side, workload, seed, 0, {**e2e, name: value})
    out = tmp_path / "BENCH.json"
    args = ["--parent", str(parent), "--change", str(change), "--description", "d", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    workloads = json.loads(out.read_text())["workloads"]
    lines = capsys.readouterr().out.splitlines()
    for workload, (name, _, _, want) in _VERDICT_CASES.items():
        metrics = workloads[workload]["metrics"]
        assert metrics[name]["verdict"] == want, workload
        # the metrics whose runs all read the same on both sides
        assert {m["verdict"] for other, m in metrics.items() if other != name} == {"no regression"}
        line = next(line for line in lines if line.split()[:2] == [workload, name + ":"])
        assert line.endswith(": " + want)
