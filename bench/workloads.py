"""The benchmark workloads and the library call sequence each one runs.

``field-report`` and ``noncyclic-report`` exercise the sweep; ``field-files``
bypasses it and exercises the site stream and both CSV writers.  The two
file paths share one workload because a budget of 4 + 22 runs per workload
in under an hour allows runs of about 40 s for three workloads, not four.

On a shared 2-core machine the speed of the host drifts by tens of percent
over seconds, so one long pass per run gives medians that wander from run
to run.  The full sizes are chosen instead so that one pass takes 0.5-2 s
and a run's medians are taken over tens of passes.

Each pipeline repeats what a user of the CLI or the acceptance run does, at
default settings (no ``threads`` argument), and returns the times the
end-to-end metrics need plus the facts the correctness gate checks.  Spans
go around every call into a layer; with a ``NullTracer`` they cost nothing.

Probes run only in a traced run, once, outside the timed pipeline.  They
call the layers that ``for_field``/``for_synth`` and
``write_census_csv`` use internally, so the trace can split set-up and the
CSV path by layer without touching the library.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from irrcensus import abelian, census, primes, quadratic, stats, synth

MB = 1024.0 * 1024.0


def rss_mb() -> float:
    """Resident set size of this process now, in MiB (Linux ``statm``)."""
    with open("/proc/self/statm", "rb") as f:
        resident_pages = int(f.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / MB


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def file_digest(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


@dataclass
class Outcome:
    """What one pass of a pipeline produced."""

    setup_s: float
    wall_s: float
    items: int
    facts: dict
    system: object = None


def _write(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8", newline="")
    return len(text.encode("utf-8"))


def _counters(totals) -> dict:
    return {
        "n_ideals": totals.n_ideals,
        "n_principal": totals.n_principal,
        "irreducible_count": totals.irreducible_count,
        "class_counts": list(totals.class_counts),
        "nu_counts": {str(k): v for k, v in sorted(totals.nu_counts.items())},
    }


def _constants(system, tr) -> None:
    with tr.span("abelian.structural_constants") as s:
        s.count("types", len(system.constants.types))


def _report_tail(system, x, swp, tr, out: Path, sweep_span) -> tuple[dict, float]:
    """build_report -> to_json + histogram_csv -> files, as ``irrcensus ek``."""
    with tr.span("stats.build_report"):
        report = stats.build_report(system, x, m=2, sweep=swp)
    sweep_span.count("ideals", report.n_ideals)
    sweep_span.count("principal", report.n_principal)
    with tr.span("stats.to_json"):
        text = report.to_json()
    with tr.span("stats.histogram_csv"):
        hist = stats.histogram_csv(report.histogram_rows)
    with tr.span("bench.write") as s:
        nbytes = _write(out / "report.json", text) + _write(out / "report.hist.csv", hist)
        s.count("report_bytes", nbytes)
    end = time.perf_counter()
    facts = {
        "report_json": text,
        "hist_sha256": hashlib.sha256(hist.encode("utf-8")).hexdigest(),
    }
    return facts, end


def field_report(p: dict, seed: int, tr, out: Path) -> Outcome:
    start = time.perf_counter()
    with tr.span("census.for_field") as s:
        system = census.for_field(p["d"], p["x"])
        s.count("sites", len(system.sites))
    _constants(system, tr)
    setup_end = time.perf_counter()
    descs = stats.default_g_descriptors(system)
    with tr.span("census.sweep") as sweep_span:
        swp = census.sweep(system, p["x"], checkpoints=p["checkpoints"], g_descriptors=descs)
    with tr.span("census.Sweep.at"):
        totals = [swp.at(cp) for cp in p["checkpoints"]]
    facts, end = _report_tail(system, p["x"], swp, tr, out, sweep_span)
    facts["checkpoints"] = {str(t.x): _counters(t) for t in totals}
    return Outcome(setup_end - start, end - start, totals[-1].n_ideals, facts, system)


def noncyclic_report(p: dict, seed: int, tr, out: Path) -> Outcome:
    start = time.perf_counter()
    model = synth.SynthModel(group=abelian.group_from_orders(p["group"]), seed=seed)
    with tr.span("census.for_synth") as s:
        system = census.for_synth(model, p["x"])
        s.count("sites", len(system.sites))
    _constants(system, tr)
    setup_end = time.perf_counter()
    with tr.span("census.sweep") as sweep_span:
        swp = census.sweep(system, p["x"])
    facts, end = _report_tail(system, p["x"], swp, tr, out, sweep_span)
    facts["counters"] = _counters(swp.at(p["x"]))
    return Outcome(setup_end - start, end - start, facts["counters"]["n_ideals"], facts, system)


def field_files(p: dict, seed: int, tr, out: Path) -> Outcome:
    start = time.perf_counter()
    with tr.span("census.for_field") as s:
        system = census.for_field(p["d"], p["limit"])
        s.count("sites", len(system.sites))
    _constants(system, tr)
    setup_end = time.perf_counter()
    with tr.span("stats.landau_check"):
        landau = stats.landau_check(system, p["limit"])
    sites_path = out / "sites.csv"
    with tr.span("quadratic.sites_to_csv") as s:
        with open(sites_path, "w", encoding="utf-8", newline="") as f:
            quadratic.sites_to_csv(system.sites, f)
            s.count("bytes", f.tell())
    census_path = out / "census.csv"
    with tr.span("census.write_census_csv") as s:
        rss_before = rss_mb() if tr.enabled else 0.0
        with open(census_path, "w", encoding="utf-8", newline="") as f:
            rows = census.write_census_csv(system, p["x"], f)
            s.count("bytes", f.tell())
        s.count("rows", rows)
        if tr.enabled:
            s.count("rss_mb", peak_rss_mb() - rss_before)
    end = time.perf_counter()
    sites_digest, sites_size = file_digest(sites_path)
    census_digest, census_size = file_digest(census_path)
    facts = {
        "sites": len(system.sites),
        "landau": list(landau),
        "sites_csv_sha256": sites_digest,
        "sites_csv_bytes": sites_size,
        "rows": rows,
        "census_csv_sha256": census_digest,
        "census_csv_bytes": census_size,
    }
    return Outcome(setup_end - start, end - start, len(system.sites) + rows, facts, system)


# ---------------------------------------------------------------------------
# probes (traced runs only)


def _probe_site_system(system, tr):
    # dataclasses.replace re-runs the constructor and its validation on the
    # same fields, which is what for_field/for_synth pay after the stream.
    with tr.span("census.SiteSystem"):
        dataclasses.replace(system)


def _probe_primes(limit: int, tr):
    with tr.span("primes.primes_up_to") as s:
        s.count("primes", sum(1 for _ in primes.primes_up_to(limit)))


def _probe_field_stream(d: int, limit: int, tr):
    with tr.span("quadratic.class_group"):
        cg = quadratic.class_group(d)
    _probe_primes(limit, tr)
    gc.collect()  # so garbage freed mid-call does not read as negative growth
    with tr.span("quadratic.prime_sites_up_to") as s:
        before = rss_mb()
        sites = tuple(quadratic.prime_sites_up_to(cg, limit))
        s.count("sites", len(sites))
        s.count("rss_mb", rss_mb() - before)
    del sites


def _take_system(outcome: Outcome):
    # The outcome gives up its system so that the probes which rebuild a
    # site stream do not hold two streams in memory at once.
    system, outcome.system = outcome.system, None
    return system


def probe_field(p: dict, seed: int, tr, outcome: Outcome) -> None:
    system = _take_system(outcome)
    _probe_site_system(system, tr)
    del system
    _probe_field_stream(p["d"], p.get("limit", p["x"]), tr)


def probe_field_files(p: dict, seed: int, tr, outcome: Outcome) -> None:
    with tr.span("census.enumerate_principal") as s:
        s.count("records", sum(1 for _ in census.enumerate_principal(outcome.system, p["x"])))
    probe_field(p, seed, tr, outcome)


def probe_synth(p: dict, seed: int, tr, outcome: Outcome) -> None:
    system = _take_system(outcome)
    _probe_site_system(system, tr)
    del system
    model = synth.SynthModel(group=abelian.group_from_orders(p["group"]), seed=seed)
    _probe_primes(p["x"], tr)
    with tr.span("synth.synth_sites") as s:
        s.count("sites", sum(1 for _ in synth.synth_sites(model, p["x"])))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item_unit: str
    sizes: dict  # "full" and "smoke" parameter sets
    pipeline: Callable
    probe: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "field-report",
            "ek/acceptance path on d=-5 at x=1e5, repeated: sweep is most of the time and half "
            "the ideals are principal, so both the walk and the per-node nu work are heavy",
            "ideals",
            {
                "full": {"d": -5, "x": 10**5, "checkpoints": (10**3, 10**4, 10**5)},
                "smoke": {"d": -5, "x": 10**4, "checkpoints": (10**2, 10**3, 10**4)},
            },
            field_report,
            probe_field,
        ),
        Workload(
            "noncyclic-report",
            "synthetic Z/2xZ/4 stream (D=5, 39 types) at x=1e5: only 1/8 of ideals are principal, "
            "so the walk outweighs the nu work; the only workload that runs synth",
            "ideals",
            {"full": {"group": (2, 4), "x": 10**5}, "smoke": {"group": (2, 4), "x": 10**4}},
            noncyclic_report,
            probe_synth,
        ),
        Workload(
            "field-files",
            "d=-5 file outputs with no sweep: site stream to 5e5, landau_check and the sites "
            "CSV, then the census CSV at x=2e4 (enumerate, sort, format, all rows buffered)",
            "CSV rows",
            {
                "full": {"d": -5, "limit": 5 * 10**5, "x": 2 * 10**4},
                "smoke": {"d": -5, "limit": 10**5, "x": 10**4},
            },
            field_files,
            probe_field_files,
        ),
    )
}
