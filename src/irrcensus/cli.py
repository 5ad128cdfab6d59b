"""Batch command-line front end.

Subcommands: constants, census, ek, equidist, moments, check, selftest.
Exit codes: 0 success, 1 domain error, 2 usage error.  Identical commands
(with identical seeds) produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from . import abelian, census, stats
from .errors import DomainError
from .quadratic import class_group
from .synth import SynthModel


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _comma_list(convert):
    """An argparse ``type``: a comma-separated list of ``convert`` values."""

    def parse_list(text: str) -> tuple:
        try:
            return tuple(convert(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad value {text!r}") from None

    return parse_list


def _add_source(p: _Parser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--field", dest="d", type=int, help="squarefree negative d for Q(sqrt(d))")
    g.add_argument(
        "--group", type=_comma_list(int), help="cyclic factors, e.g. 2 or 2,4 (1 = trivial)"
    )


def _add_stream(p: _Parser):
    """The source of a site stream, its norm bound and a --group stream's seed."""
    _add_source(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)


def _add_output(p: _Parser, fmt_default: str = "json"):
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=fmt_default)


def build_parser() -> _Parser:
    parser = _Parser(prog="irrcensus")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("constants", help="structural constants of a class group")
    _add_source(p)
    _add_output(p)

    p = sub.add_parser("census", help="principal-ideal census dump")
    _add_stream(p)
    _add_output(p, fmt_default="csv")

    p = sub.add_parser("ek", help="distribution report with histogram")
    _add_stream(p)
    p.add_argument("--m", type=int, default=2)
    _add_output(p)

    p = sub.add_parser("equidist", help="residue classes of the divisor count")
    _add_stream(p)
    p.add_argument("--m", type=int, required=True)
    _add_output(p)

    p = sub.add_parser("moments", help="central moments of the additive surrogate")
    _add_stream(p)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--kappa", type=_comma_list(float), default=None)
    _add_output(p)

    p = sub.add_parser("check", help="density, reciprocal-sum and mean-value checks")
    _add_stream(p)
    _add_output(p)

    # it prints one status line per field and writes no file
    p = sub.add_parser("selftest", help="oracle-equivalence suite")
    p.add_argument("--x", type=int, default=10**4)

    return parser


# smallest --x each subcommand can report on: ek standardizes by log log x
# (x >= 16), moments divides by log log x (x >= 3 > e), check runs
# landau_check (x >= 3); the rest accept any x >= 1
_MIN_X = {"ek": 16, "moments": 3, "check": 3}


def parse(argv) -> argparse.Namespace:
    """Parse an argument vector into a validated namespace (never exits)."""
    ns = build_parser().parse_args(argv)
    if ns.subcommand is None:
        raise UsageError("a subcommand is required")
    min_x = _MIN_X.get(ns.subcommand, 1)
    if getattr(ns, "x", min_x) < min_x:
        raise UsageError(f"--x must be >= {min_x} for {ns.subcommand}")
    # --m is a modulus and --k the highest moment; below 1 there is nothing
    # to report
    for flag in ("m", "k"):
        if getattr(ns, flag, 1) < 1:
            raise UsageError(f"--{flag} must be >= 1")
    group = getattr(ns, "group", None)
    if group is not None and "seed" in ns and ns.seed is None:
        raise UsageError("synthetic streams require an explicit --seed")
    if ns.subcommand == "check" and group is not None:
        raise UsageError("check requires --field (density constants need a field)")
    return ns


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _flat_csv(payload: dict) -> str:
    """Two columns, key and value: a string value as it is, any other as
    ``stats.dumps`` writes it in the JSON output."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("key", "value"))
    for key in sorted(payload):
        value = payload[key]
        writer.writerow((key, value if isinstance(value, str) else stats.dumps(value)))
    return buf.getvalue()


def _payload_text(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return stats.dumps(payload) + "\n"
    return _flat_csv(payload)


def _stream_limit(x: int) -> int:
    """The site stream needs a limit >= 2; x = 1 has only the unit ideal."""
    return max(x, 2)


def _system(ns: argparse.Namespace) -> census.SiteSystem:
    if ns.d is not None:
        return census.for_field(ns.d, _stream_limit(ns.x))
    model = SynthModel(group=abelian.group_from_orders(ns.group), seed=ns.seed)
    return census.for_synth(model, _stream_limit(ns.x))


def _run_constants(ns: argparse.Namespace) -> int:
    if ns.d is not None:
        cg = class_group(ns.d)
        payload = abelian.structural_constants(cg.group).as_dict()
        payload["field"] = {
            "d": cg.field.d,
            "discriminant": cg.field.discriminant,
            "class_number": cg.field.h,
            "roots_of_unity": cg.field.w,
            "psi": cg.field.psi,
        }
    else:
        payload = abelian.structural_constants(abelian.group_from_orders(ns.group)).as_dict()
    _emit(_payload_text(payload, ns.fmt), ns.out)
    return 0


def _run_census(ns: argparse.Namespace) -> int:
    system = _system(ns)
    write = census.write_census_json if ns.fmt == "json" else census.write_census_csv
    if ns.out is None:
        write(system, ns.x, sys.stdout)
    else:
        # written a chunk at a time, never held whole
        with open(ns.out, "w", encoding="utf-8", newline="") as f:
            write(system, ns.x, f)
    return 0


def _hist_path(out: str) -> str:
    path = Path(out)
    if path.suffix == ".json":
        return str(path.with_suffix(".hist.csv"))
    return out + ".hist.csv"


def _run_ek(ns: argparse.Namespace) -> int:
    system = _system(ns)
    swp = census.sweep(system, ns.x, g_descriptors=stats.default_g_descriptors(system))
    report = stats.build_report(system, ns.x, m=ns.m, sweep=swp)
    payload = report.as_dict()
    text = report.to_json() if ns.fmt == "json" else _flat_csv(payload)
    _emit(text, ns.out)
    if ns.out is not None:
        _emit(stats.histogram_csv(report.histogram_rows), _hist_path(ns.out))
    return 0


def _run_equidist(ns: argparse.Namespace) -> int:
    system = _system(ns)
    result = stats.equidist(census.sweep(system, ns.x).at(ns.x), ns.m)
    if ns.fmt == "csv":
        lines = ["residue,count"]
        lines.extend(f"{a},{result.counts[a]}" for a in sorted(result.counts))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "x": ns.x,
            "modulus": result.modulus,
            "n_principal": result.n,
            "counts": {str(a): c for a, c in result.counts.items()},
            "deviation": result.deviation,
        }
        text = stats.dumps(payload) + "\n"
    _emit(text, ns.out)
    return 0


def _run_moments(ns: argparse.Namespace) -> int:
    if ns.kappa is not None:
        # the group fixes kappa's length: check it before the stream and sweep
        group = class_group(ns.d).group if ns.d is not None else abelian.group_from_orders(ns.group)
        stats._validate_kappa(ns.kappa, group.h)
    system = _system(ns)
    sc = system.constants
    kappa = ns.kappa if ns.kappa is not None else tuple(float(v) for v in sc.kappa)
    h = system.group.h
    sigma2 = sum(float(v) ** 2 for v in kappa) / h
    big_l = stats.loglog(ns.x)
    totals = census.sweep(system, ns.x).at(ns.x)
    rows = {}
    for k in range(1, ns.k + 1):
        measured = stats.f_central_moment(totals, kappa, k)
        target = stats.gaussian_target(k, sigma2, big_l)
        row = {"measured": measured, "target": target}
        if target:
            row["ratio"] = measured / target
        rows[str(k)] = row
    payload = {
        "x": ns.x,
        "kappa": list(kappa),
        "sigma2": sigma2,
        "L": big_l,
        "moments": rows,
    }
    _emit(_payload_text(payload, ns.fmt), ns.out)
    return 0


def _run_check(ns: argparse.Namespace) -> int:
    system = _system(ns)
    swp = census.sweep(system, ns.x, g_descriptors=stats.default_g_descriptors(system))
    g_rows = [
        {
            "descriptor": stats.describe_descriptor(system, desc),
            "measured": measured,
            "predicted": predicted,
            "difference": measured - predicted,
        }
        for desc, (measured, predicted) in zip(swp.g_descriptors, stats.g_mean_check(swp, ns.x))
    ]
    payload = {
        "x": ns.x,
        "psi": system.field.psi,
        "weber_ratios": list(stats.weber_check(system, swp.at(ns.x))),
        "landau_deviations": list(stats.landau_check(system, ns.x)),
        "g_checks": g_rows,
    }
    _emit(_payload_text(payload, ns.fmt), ns.out)
    return 0


SELFTEST_FIELDS = (-5, -23, -14, -30)


def _run_selftest(ns: argparse.Namespace) -> int:
    failures = 0
    for d in SELFTEST_FIELDS:
        system = census.for_field(d, _stream_limit(ns.x))
        sc = system.constants
        mismatched = 0
        rows = []
        for fact, record in census.enumerate_principal(system, ns.x):
            nu_b = census.nu_bruteforce(fact, system.ordering)
            nu_s = census.nu_squarefull_formula(fact, sc)
            delta_b = census.delta_bruteforce(fact, system.ordering)
            if not (record.nu == nu_b == nu_s and record.delta == delta_b):
                mismatched += 1
                sys.stderr.write(
                    f"selftest mismatch: d={d} norm={record.norm} "
                    f"nu={record.nu}/{nu_b}/{nu_s} delta={record.delta}/{delta_b}\n"
                )
            rows.append((
                record.norm, 1, *record.omega, *record.Omega, record.nu, record.delta,
                int(record.is_irreducible), record.squarefull_norm,
            ))
        # the records are in lexicographic order: sorted stably by norm, in census order
        rows.sort(key=lambda row: row[0])
        if census.census_rows(system, ns.x) != rows:
            mismatched += 1
            sys.stderr.write(f"selftest mismatch: d={d} census rows differ from the records'\n")
        failures += mismatched
        status = "ok" if not mismatched else "FAIL"
        sys.stdout.write(f"selftest d={d}: {len(rows)} principal ideals, {status}\n")
    return 0 if failures == 0 else 1


_RUNNERS = {
    "constants": _run_constants,
    "census": _run_census,
    "ek": _run_ek,
    "equidist": _run_equidist,
    "moments": _run_moments,
    "check": _run_check,
    "selftest": _run_selftest,
}


def run(ns: argparse.Namespace) -> int:
    return _RUNNERS[ns.subcommand](ns)


def main(argv=None) -> int:
    try:
        ns = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    try:
        return run(ns)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
