"""irrcensus benchmark: one workload, one seed, one fresh process.

Run from the root of a checkout (the directory holding ``src/irrcensus``):

    python3 bench/run.py --workload field-report --seed 1 --seconds 40 --trace 0

The pipeline of the workload is repeated until ``--seconds`` have passed;
each pass builds everything from scratch (library caches are cleared), as
a fresh CLI invocation would.  Every pass is checked by the correctness
gate, and a pass that fails the gate, raises or runs past the time limit
is counted as failed and its timings are discarded.  In an untraced run
the first pass is a warm-up: it is gated but not timed.

``--trace 0`` reports the end-to-end metrics: medians over the passes of
``wall_s`` (first library call to last output byte), ``setup_s``
(``for_field``/``for_synth`` plus the first ``system.constants``) and
``items_per_s`` (work after set-up per second), and the process's
``peak_rss_mb``.  ``--trace 1`` alternates traced and untraced passes,
runs the layer probes once, and reports the per-layer metrics.

The three timings are given at a reference host speed.  A shared host's
speed drifts by tens of percent over minutes, which no run length averages
out, so a fixed pure-Python calibration loop is timed between passes and
each pass's times are scaled by ``CALIBRATION_REF_S`` over the mean of the
calibrations on either side of it.  A change to the program moves the
scaled times as much as the raw ones; the raw medians and the calibration
are printed next to them and kept in the record.

The human-readable summary goes to standard output first; the last line is
one JSON object with the keys correct, attempted, failed and metrics.  A
full record (environment, every sample, every span) is written under
``.bench_out/``.  The exit code is 0 only when every pass was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ".bench_out"
#: Every run ends well inside the 180 s a single run is allowed.
HARD_LIMIT_S = 165.0

#: The calibration loop's typical time on the 2-vCPU host (Xeon, Python
#: 3.11) the baselines were measured on; a scaled time is the raw time
#: times CALIBRATION_REF_S / (the calibration time around the pass).
CALIBRATION_REF_S = 0.024

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {HARD_LIMIT_S:.0f} s")


def import_library(root: Path):
    """Import irrcensus from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "irrcensus" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/irrcensus under {root}; run from a checkout root")
    sys.path.insert(0, str(src))
    import irrcensus

    if Path(irrcensus.__file__).resolve().parent != (src / "irrcensus").resolve():
        raise SystemExit(f"error: irrcensus imported from {irrcensus.__file__}, not {src}")
    return irrcensus


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(root: Path) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "load1_at_start": os.getloadavg()[0],
    }


def clear_library_caches():
    for name, module in list(sys.modules.items()):
        if name == "irrcensus" or name.startswith("irrcensus."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def calibrate() -> float:
    """Seconds one fixed pure-Python loop of integer and dict work takes
    now; the loop does not touch the library."""
    table = {}
    start = time.perf_counter()
    for i in range(120_000):
        k = i % 1009
        table[k] = table.get(k, 0) + (i * i) % 7
    return time.perf_counter() - start


def tail_percentile(values):
    """(percentile, value) of the highest order statistic with at least ten
    samples above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Pass:
    __slots__ = ("traced", "warmup", "outcome", "error", "host_s")

    def __init__(self, traced, warmup, outcome=None, error=None):
        self.traced = traced
        self.warmup = warmup
        self.outcome = outcome
        self.error = error
        self.host_s = None  # mean calibration time before and after the pass

    @property
    def scale(self) -> float:
        return CALIBRATION_REF_S / self.host_s


def run_passes(wl, params, seed, seconds, traced_run, out_dir, tracer):
    from tracing import NullTracer

    null = NullTracer()
    passes, roots = [], []
    probes_root = None
    first_facts = None
    start = time.perf_counter()
    host_before = calibrate()
    while True:
        # A traced run starts traced (so the first traced pass sees a clean
        # RSS high-water mark) and then alternates.
        traced = traced_run and len(passes) % 2 == 0
        # For the same reason a traced run has no warm-up pass.
        warmup = not traced_run and not passes
        gc.collect()
        clear_library_caches()
        try:
            if traced:
                root = tracer.span("bench.iteration")
                roots.append(root.index)
                with root:
                    outcome = wl.pipeline(params, seed, tracer, out_dir)
                if probes_root is None:
                    probe = tracer.span("bench.probes")
                    probes_root = probe.index
                    with probe:
                        wl.probe(params, seed, tracer, outcome)
            else:
                outcome = wl.pipeline(params, seed, null, out_dir)
            outcome.system = None
            # Passes of one run have the same inputs, so a pass whose facts
            # equal the first pass's shares that object and the gate checks
            # it once; memory then does not grow with the number of passes.
            if first_facts is None:
                first_facts = outcome.facts
            elif outcome.facts == first_facts:
                outcome.facts = first_facts
            passes.append(Pass(traced, warmup, outcome))
        except RunTimeout as exc:
            passes.append(Pass(traced, warmup, error=str(exc)))
            break
        except Exception:
            passes.append(Pass(traced, warmup, error=traceback.format_exc()))
            sys.stderr.write(passes[-1].error)
        host_after = calibrate()
        passes[-1].host_s = 0.5 * (host_before + host_after)
        host_before = host_after
        # Start another pass only if it should end within half a pass of
        # the deadline, so a run lasts about ``seconds`` whatever the pass
        # length.  A run needs at least one timed pass, and a traced run at
        # least one untraced pass.
        last = passes[-1].outcome.wall_s if passes[-1].outcome else 0.0
        done = time.perf_counter() - start + 0.5 * last > seconds
        if done and any(not (p.warmup or p.traced) for p in passes):
            break
    return passes, roots, probes_root


def summarize(values):
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "n": len(values),
    }


def end_to_end(good, peak) -> dict:
    walls = [p.outcome.wall_s * p.scale for p in good]
    setups = [p.outcome.setup_s * p.scale for p in good]
    rates = [p.outcome.items / ((p.outcome.wall_s - p.outcome.setup_s) * p.scale) for p in good]
    return {
        "wall_s": summarize(walls),
        "setup_s": summarize(setups),
        "items_per_s": summarize(rates),
        "peak_rss_mb": {"median": peak, "tail": None, "n": 1},
    }


def span_cost(n: int = 2000) -> float:
    """Seconds one empty span costs on this machine."""
    from tracing import Tracer

    scratch = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with scratch.span("empty"):
            pass
    return (time.perf_counter() - start) / n


def per_layer(tracer, roots, probes_root, good) -> dict:
    """Every per-layer metric, by name, as (value, unit)."""
    # Called only when every pass succeeded, so roots[i] is traced[i]'s span.
    traced = [p for p in good if p.traced]
    first = roots[0]

    def t(name):
        return float(statistics.median(tracer.total(name, within=r) for r in roots))

    def probe_t(name):
        return float(tracer.total(name, within=probes_root)) if probes_root is not None else 0.0

    def c(name, key, within):
        for s in tracer.spans:
            if s.name == name and within is not None and tracer.is_under(s, within):
                return s.counts.get(key, 0)
        return 0

    ideals = c("census.sweep", "ideals", first)
    principal = c("census.sweep", "principal", first)
    sweep_s = t("census.sweep")
    csv_s = t("census.write_census_csv")
    enum_s = probe_t("census.enumerate_principal")
    # Scaled like wall_s, so that host drift between the traced and the
    # untraced passes does not read as tracing overhead.
    untraced = [p.outcome.wall_s * p.scale for p in good if not p.traced]
    unaccounted = [
        p.outcome.wall_s - sum(s.seconds for s in tracer.children(r))
        for r, p in zip(roots, traced)
    ]
    m = {
        "census.for_field_s": (t("census.for_field"), "s"),
        "census.for_synth_s": (t("census.for_synth"), "s"),
        "abelian.structural_constants_s": (t("abelian.structural_constants"), "s"),
        "abelian.types": (c("abelian.structural_constants", "types", first), "count"),
        "primes.primes_up_to_s": (probe_t("primes.primes_up_to"), "s"),
        "primes.primes": (c("primes.primes_up_to", "primes", probes_root), "count"),
        "quadratic.class_group_s": (probe_t("quadratic.class_group"), "s"),
        "quadratic.prime_sites_s": (probe_t("quadratic.prime_sites_up_to"), "s"),
        "quadratic.sites": (c("census.for_field", "sites", first), "count"),
        "quadratic.sites_rss_mb": (c("quadratic.prime_sites_up_to", "rss_mb", probes_root), "MB"),
        "quadratic.sites_csv_s": (t("quadratic.sites_to_csv"), "s"),
        "quadratic.sites_csv_bytes": (c("quadratic.sites_to_csv", "bytes", first), "B"),
        "synth.synth_sites_s": (probe_t("synth.synth_sites"), "s"),
        "synth.sites": (c("census.for_synth", "sites", first), "count"),
        "census.site_system_s": (probe_t("census.SiteSystem"), "s"),
        "census.sweep_s": (sweep_s, "s"),
        "census.ideals": (ideals, "count"),
        "census.principal": (principal, "count"),
        "census.principal_share": (principal / ideals if ideals else 0.0, "ratio"),
        "census.us_per_ideal": (1e6 * sweep_s / ideals if ideals else 0.0, "us"),
        "census.at_s": (t("census.Sweep.at"), "s"),
        "census.enumerate_principal_s": (enum_s, "s"),
        "census.csv_s": (csv_s, "s"),
        "census.csv_rows": (c("census.write_census_csv", "rows", first), "count"),
        "census.csv_bytes": (c("census.write_census_csv", "bytes", first), "B"),
        "census.csv_rss_mb": (c("census.write_census_csv", "rss_mb", first), "MB"),
        "census.csv_sort_format_derived_s": (csv_s - enum_s if csv_s else 0.0, "s"),
        "stats.build_report_s": (t("stats.build_report"), "s"),
        "stats.to_json_s": (t("stats.to_json"), "s"),
        "stats.histogram_csv_s": (t("stats.histogram_csv"), "s"),
        "stats.report_bytes": (c("bench.write", "report_bytes", first), "B"),
        "stats.landau_check_s": (t("stats.landau_check"), "s"),
        "bench.write_s": (t("bench.write"), "s"),
        "trace.unaccounted_s": (statistics.median(unaccounted), "s"),
        "trace.bookkeeping_s": (span_cost() * len(tracer.descendants(first)), "s"),
        "trace_overhead_s": (
            statistics.median(p.outcome.wall_s * p.scale for p in traced)
            - statistics.median(untraced),
            "s",
        ),
    }
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    process_start = time.monotonic()
    root = Path.cwd()
    import_library(root)
    sys.path.insert(0, str(BENCH_DIR))
    from gate import Gate
    from tracing import Tracer
    from workloads import WORKLOADS, peak_rss_mb

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    params = wl.sizes[args.size]
    env = environment(root)
    reference = json.loads(REFERENCE.read_text())[args.size][wl.name]
    gate = Gate(wl.name, params, args.seed, reference)
    out_dir = root / OUT_DIR / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S - (time.monotonic() - process_start))
    try:
        passes, roots, probes_root = run_passes(
            wl, params, args.seed, args.seconds, bool(args.trace), out_dir, tracer
        )
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    peak = peak_rss_mb()

    mismatches, checked = [], {}
    for i, p in enumerate(passes):
        if p.error is None:
            facts = p.outcome.facts
            if id(facts) not in checked:
                checked[id(facts)] = gate.check(facts)
            problems = checked[id(facts)]
            if problems:
                p.error = "gate: " + "; ".join(problems[:20])
        if p.error is not None:
            mismatches.append(f"pass {i}: {p.error}")
    good = [p for p in passes if p.error is None and not p.warmup]
    attempted, failed = len(passes), sum(p.error is not None for p in passes)
    correct = failed == 0

    metrics, e2e = {}, None
    if correct and args.trace:
        layers = per_layer(tracer, roots, probes_root, good)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    elif correct:
        e2e = end_to_end(good, peak)
        metrics = {k: {"value": e2e[k]["median"], "unit": END_TO_END_UNITS[k]} for k in e2e}

    record = {
        "workload": wl.name,
        "why": wl.why,
        "item_unit": wl.item_unit,
        "params": params,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": mismatches,
        "samples": [
            None if p.error else
            {"traced": p.traced, "warmup": p.warmup, "wall_s": p.outcome.wall_s,
             "setup_s": p.outcome.setup_s, "items": p.outcome.items, "host_s": p.host_s}
            for p in passes
        ],
        "calibration_ref_s": CALIBRATION_REF_S,
        "end_to_end": e2e,
        "metrics": metrics,
        "spans": [s.as_dict() for s in tracer.spans],
    }
    result_path = out_dir / f"result-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=list) + "\n")

    print(f"workload {wl.name} ({args.size}) seed {args.seed} trace {args.trace}: {wl.why}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in mismatches:
        print("FAILED " + line.splitlines()[-1])
    if e2e is not None:
        for name, s in e2e.items():
            tail = "no tail percentile (n < 11)" if s["tail"] is None else (
                f"p{s['tail']['percentile']:.0f} {s['tail']['value']:.6g}")
            unit = END_TO_END_UNITS[name].replace("items", wl.item_unit)
            print(f"{name:>12}: median {s['median']:.6g} {unit}, {tail}, n={s['n']}")
        raw = {"wall_s": [p.outcome.wall_s for p in good],
               "setup_s": [p.outcome.setup_s for p in good]}
        print(f"{'unscaled':>12}: " + ", ".join(
            f"{k} median {statistics.median(v):.6g} s" for k, v in raw.items())
              + f"; calibration median {statistics.median(p.host_s for p in good):.6g} s"
              f" (reference {CALIBRATION_REF_S} s)")
    elif metrics:
        for name, v in metrics.items():
            value = v["value"] if isinstance(v["value"], int) else f"{v['value']:.6g}"
            print(f"{name:>36}: {value} {v['unit']}")
    print(f"{'fail_frac':>12}: {failed}/{attempted} = {failed / attempted:.3g}")
    print(f"record: {result_path.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
