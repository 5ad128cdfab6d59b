"""Tests of the benchmark's own code, at reduced input sizes.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
from gate import Gate, compare, comparable
from tracing import NullTracer, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _run_cli(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(BENCH / "run.py") if cwd == ROOT else "bench/run.py",
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    names = {m["name"] for m in SPEC["per_layer"]}
    mapped = {n for row in json.loads((BENCH / "layers.json").read_text())["mapping"]
              for n in row["per_layer"]}
    assert mapped == names


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_unit(workload, trace):
    proc = _run_cli(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name in ("wall_s", "setup_s", "items_per_s", "peak_rss_mb", "fail_frac"):
            assert any(line.strip().startswith(name + ":") for line in proc.stdout.splitlines())


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("field-report", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _smoke_facts(workload, seed=3, tmp_path=None):
    wl = WORKLOADS[workload]
    outcome = wl.pipeline(wl.sizes["smoke"], seed, NullTracer(), tmp_path)
    return wl.sizes["smoke"], outcome.facts


def _gate(workload, params, seed, reference=None):
    if reference is None:
        reference = REFERENCE["smoke"][workload]
    return Gate(workload, params, seed, reference)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_gate_passes_on_seed_outputs(workload, tmp_path):
    params, facts = _smoke_facts(workload, tmp_path=tmp_path)
    assert _gate(workload, params, 3).check(facts) == []


def test_gate_trips_on_corrupted_field_outputs(tmp_path):
    params, facts = _smoke_facts("field-report", tmp_path=tmp_path)
    g = _gate("field-report", params, 3)

    bad = copy.deepcopy(facts)
    bad["checkpoints"]["1000"]["nu_counts"]["1"] += 1
    assert any("nu_counts" in m for m in g.check(bad))

    report = json.loads(facts["report_json"])
    report["mean_nu"] *= 1 + 1e-7
    bad = dict(facts, report_json=json.dumps(report))
    assert any("mean_nu" in m for m in g.check(bad))

    report = json.loads(facts["report_json"])
    report["mean_nu"] *= 1 + 1e-12  # a reordered summation is not a failure
    assert g.check(dict(facts, report_json=json.dumps(report))) == []

    assert g.check(dict(facts, hist_sha256="0" * 64))


def test_gate_trips_on_corrupted_reference(tmp_path):
    params, facts = _smoke_facts("field-files", tmp_path=tmp_path)
    good = REFERENCE["smoke"]["field-files"]
    assert any("rows" in m for m in _gate(
        "field-files", params, 3, dict(good, rows=good["rows"] + 1)).check(facts))
    assert any("sites_csv_sha256" in m for m in _gate(
        "field-files", params, 3, dict(good, sites_csv_sha256="0" * 64)).check(facts))
    reference = copy.deepcopy(good)
    reference["landau"][0] += 1e-6
    assert any("landau" in m for m in _gate("field-files", params, 3, reference).check(facts))


def test_g_mean_tolerance_is_looser_only_where_stated():
    want = {"report": {"g_mean_table": [{"measured": 1.0}, {"measured": 1.0}]}}
    got = {"report": {"g_mean_table": [{"measured": 1.0}, {"measured": 1.0 + 1e-7}]}}
    assert compare(got, want) == []
    got["report"]["g_mean_table"][0]["measured"] = 1.0 + 1e-7
    assert len(compare(got, want)) == 1


def test_noncyclic_gate_checks_unrecorded_seeds(tmp_path):
    seed = 987654321
    assert str(seed) not in REFERENCE["smoke"]["noncyclic-report"]["seeds"]
    params, facts = _smoke_facts("noncyclic-report", seed=seed, tmp_path=tmp_path)
    g = _gate("noncyclic-report", params, seed)
    assert g.reference is None
    assert g.check(facts) == []
    bad = copy.deepcopy(facts)
    bad["counters"]["irreducible_count"] -= 1
    assert any("irreducible_count" in m for m in g.check(bad))
    bad = copy.deepcopy(facts)
    bad["counters"]["n_ideals"] += 1
    assert any("n_ideals" in m for m in g.check(bad))


def test_synth_oracle_matches_sweep_for_several_seeds():
    from irrcensus import abelian, census, synth

    for seed in (0, 5, 2**40 + 7):
        model = synth.SynthModel(group=abelian.group_from_orders((2, 4)), seed=seed)
        system = census.for_synth(model, 3000)
        totals = census.sweep(system, 3000).at(3000)
        oracle = gate.synth_oracle((2, 4), seed, 3000)
        assert oracle["class_counts"] == list(totals.class_counts)
        assert oracle["irreducible_count"] == totals.irreducible_count


def test_main_exits_nonzero_on_gate_failure(tmp_path, monkeypatch, capsys):
    reference = copy.deepcopy(REFERENCE)
    reference["smoke"]["field-files"]["census_csv_sha256"] = "0" * 64
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", bad)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    code = run.main(["--workload", "field-files", "--seed", "1", "--seconds", "0.1",
                     "--size", "smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_tracer_records_parents_and_counts():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner") as s:
            s.count("n", 3)
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None
    assert inner.counts == {"n": 3}
    assert tr.total("inner", within=0) == inner.seconds <= outer.seconds


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    pct, value = run.tail_percentile(list(range(40)))
    assert pct == 75.0 and value == 29  # ten samples (30..39) lie above it


def test_end_to_end_times_are_scaled_by_calibration():
    from workloads import Outcome

    passes = []
    for host in (run.CALIBRATION_REF_S, 2 * run.CALIBRATION_REF_S):
        p = run.Pass(False, False, Outcome(setup_s=0.5, wall_s=2.0, items=300, facts={}))
        p.host_s = host
        passes.append(p)
    e2e = run.end_to_end(passes, 10.0)
    assert e2e["wall_s"]["median"] == pytest.approx((2.0 + 1.0) / 2)
    assert e2e["setup_s"]["median"] == pytest.approx((0.5 + 0.25) / 2)
    assert e2e["items_per_s"]["median"] == pytest.approx((200.0 + 400.0) / 2)


def test_passes_share_equal_facts_and_keep_differing_ones(tmp_path):
    from workloads import Outcome, Workload

    calls = []

    def pipeline(params, seed, tr, out):
        calls.append(None)
        return Outcome(0.0, 0.001, 1, {"n": 1 if len(calls) != 3 else 2})

    wl = Workload("fake", "", "items", {}, pipeline, lambda *a: None)
    passes, _, _ = run.run_passes(wl, {}, 0, 0.3, False, tmp_path, Tracer())
    assert len(passes) >= 4 and passes[0].warmup and not passes[1].warmup
    assert all(p.host_s > 0 for p in passes)
    facts = [p.outcome.facts for p in passes]
    assert facts[2] == {"n": 2}
    assert all(f is facts[0] for i, f in enumerate(facts) if i != 2)
