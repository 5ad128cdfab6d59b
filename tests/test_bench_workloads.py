"""Each benchmark workload's smoke pipeline and probe, run in this process
against the library, with its outputs checked by the benchmark's gate.

The benchmark's own suite (``bench/tests``) runs them too, but only when it
is invoked on its own; here a change to any library name, option or output
that the benchmark reads fails tier-1.  The benchmark's modules are loaded
from their files, and nothing under ``bench/`` is written: the outputs go
to ``tmp_path``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    """The module ``bench/<name>.py``, registered as ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads, tracing, gate = (_load(name) for name in ("workloads", "tracing", "gate"))
REFERENCE = json.loads((BENCH / "reference.json").read_text())["smoke"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_pipeline_and_probe_run_in_process(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    params, seed = wl.sizes["smoke"], 3
    tracer = tracing.Tracer()
    outcome = wl.pipeline(params, seed, tracer, tmp_path)
    assert outcome.items > 0 and outcome.wall_s >= outcome.setup_s > 0
    assert gate.Gate(name, params, seed, REFERENCE[name]).check(outcome.facts) == []
    traced = len(tracer.spans)
    wl.probe(params, seed, tracer, outcome)
    probes = tracer.spans[traced:]
    assert probes and all(span.end >= span.start > 0 for span in probes)
    # the probes that iterate a site stream, the primes or the reference
    # census counted what they read
    counted = [
        span.counts[key] for span in probes for key in ("sites", "primes", "records")
        if key in span.counts
    ]
    assert counted and all(v > 0 for v in counted)
