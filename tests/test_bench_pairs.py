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
