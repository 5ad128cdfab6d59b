"""Batch command-line front end.

Subcommands: constants, census, ek, equidist, moments, check, selftest.
Exit codes: 0 success, 1 domain error, 2 usage error.  Identical commands
(with identical seeds) produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
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


@dataclass
class Command:
    subcommand: str
    d: int | None = None
    group: tuple[int, ...] | None = None
    x: int | None = None
    m: int = 2
    k: int = 8
    seed: int | None = None
    out: str | None = None
    fmt: str = "json"
    kappa: tuple[float, ...] | None = None


def _parse_group(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --group value {text!r}") from exc
    return orders


def _add_source(p: _Parser, required: bool = True):
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--field", type=int, help="squarefree negative d for Q(sqrt(d))")
    g.add_argument("--group", type=str, help="cyclic factors, e.g. 2 or 2,4 (1 = trivial)")


def _add_common(p: _Parser, fmt_default: str = "json"):
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=fmt_default)
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="irrcensus")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("constants", help="structural constants of a class group")
    _add_source(p)
    _add_common(p)

    p = sub.add_parser("census", help="principal-ideal census dump")
    _add_source(p)
    p.add_argument("--x", type=int, required=True)
    _add_common(p, fmt_default="csv")

    p = sub.add_parser("ek", help="distribution report with histogram")
    _add_source(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    _add_common(p)

    p = sub.add_parser("equidist", help="residue classes of the divisor count")
    _add_source(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("moments", help="central moments of the additive surrogate")
    _add_source(p)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--kappa", type=str, default=None)
    _add_common(p)

    p = sub.add_parser("check", help="density, reciprocal-sum and mean-value checks")
    _add_source(p)
    p.add_argument("--x", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("selftest", help="oracle-equivalence suite")
    p.add_argument("--x", type=int, default=10**4)
    _add_common(p)

    return parser


# smallest --x each subcommand can report on: ek standardizes by log log x
# (x >= 16), moments divides by log log x (x >= 3 > e), check runs
# landau_check (x >= 3); the rest accept any x >= 1
_MIN_X = {"ek": 16, "moments": 3, "check": 3}


def parse(argv) -> Command:
    """Parse an argument vector into a validated Command (never exits)."""
    ns = build_parser().parse_args(argv)
    if ns.subcommand is None:
        raise UsageError("a subcommand is required")
    cmd = Command(subcommand=ns.subcommand)
    for name in ("x", "m", "k", "seed", "out", "fmt"):
        if hasattr(ns, name) and getattr(ns, name) is not None:
            setattr(cmd, name, getattr(ns, name))
    if getattr(ns, "field", None) is not None:
        cmd.d = ns.field
    if getattr(ns, "group", None) is not None:
        cmd.group = _parse_group(ns.group)
    if getattr(ns, "kappa", None) is not None:
        try:
            cmd.kappa = tuple(float(v) for v in ns.kappa.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --kappa value {ns.kappa!r}") from exc
    min_x = _MIN_X.get(cmd.subcommand, 1)
    if cmd.x is not None and cmd.x < min_x:
        raise UsageError(f"--x must be >= {min_x} for {cmd.subcommand}")
    # --m is a modulus and --k the highest moment; below 1 there is nothing
    # to report
    for flag in ("m", "k"):
        if getattr(ns, flag, 1) < 1:
            raise UsageError(f"--{flag} must be >= 1")
    needs_stream = cmd.subcommand in ("census", "ek", "equidist", "moments", "check")
    if needs_stream and cmd.group is not None and cmd.seed is None:
        raise UsageError("synthetic streams require an explicit --seed")
    if cmd.subcommand == "check" and cmd.group is not None:
        raise UsageError("check requires --field (density constants need a field)")
    return cmd


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _flat_csv(payload: dict) -> str:
    lines = ["key,value"]
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (list, tuple)):
            value = ";".join(str(v) for v in value)
        elif isinstance(value, dict):
            value = ";".join(f"{k}={v}" for k, v in sorted(value.items(), key=str))
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _payload_text(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return stats.dumps(payload) + "\n"
    return _flat_csv(payload)


def _group_spec(cmd: Command) -> abelian.GroupSpec:
    return abelian.group_from_orders(cmd.group)


def _stream_limit(x: int) -> int:
    """The site stream needs a limit >= 2; x = 1 has only the unit ideal."""
    return max(x, 2)


def _system(cmd: Command) -> census.SiteSystem:
    if cmd.d is not None:
        return census.for_field(cmd.d, _stream_limit(cmd.x))
    model = SynthModel(group=_group_spec(cmd), seed=cmd.seed)
    return census.for_synth(model, _stream_limit(cmd.x))


def _run_constants(cmd: Command) -> int:
    if cmd.d is not None:
        cg = class_group(cmd.d)
        payload = abelian.structural_constants(cg.group).as_dict()
        payload["field"] = {
            "d": cg.field.d,
            "discriminant": cg.field.discriminant,
            "class_number": cg.field.h,
            "roots_of_unity": cg.field.w,
            "psi": cg.field.psi,
        }
    else:
        payload = abelian.structural_constants(_group_spec(cmd)).as_dict()
    _emit(_payload_text(payload, cmd.fmt), cmd.out)
    return 0


def _run_census(cmd: Command) -> int:
    system = _system(cmd)
    if cmd.fmt == "json":
        payload = {
            "schema": census.census_header(system.group.h).split(","),
            "rows": census.census_rows(system, cmd.x),
        }
        _emit(stats.dumps(payload) + "\n", cmd.out)
    elif cmd.out is None:
        census.write_census_csv(system, cmd.x, sys.stdout)
    else:
        # written a chunk at a time, never held whole
        with open(cmd.out, "w", encoding="utf-8", newline="") as f:
            census.write_census_csv(system, cmd.x, f)
    return 0


def _hist_path(out: str) -> str:
    path = Path(out)
    if path.suffix == ".json":
        return str(path.with_suffix(".hist.csv"))
    return out + ".hist.csv"


def _run_ek(cmd: Command) -> int:
    system = _system(cmd)
    report = stats.build_report(system, cmd.x, m=cmd.m)
    payload = report.as_dict()
    text = report.to_json() if cmd.fmt == "json" else _flat_csv(payload)
    _emit(text, cmd.out)
    if cmd.out is not None:
        _emit(stats.histogram_csv(report.histogram_rows), _hist_path(cmd.out))
    return 0


def _run_equidist(cmd: Command) -> int:
    system = _system(cmd)
    result = stats.equidist(system, cmd.x, cmd.m)
    if cmd.fmt == "csv":
        lines = ["residue,count"]
        lines.extend(f"{a},{result.counts[a]}" for a in sorted(result.counts))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "x": cmd.x,
            "modulus": result.modulus,
            "n_principal": result.n,
            "counts": {str(a): c for a, c in result.counts.items()},
            "deviation": result.deviation,
        }
        text = stats.dumps(payload) + "\n"
    _emit(text, cmd.out)
    return 0


def _run_moments(cmd: Command) -> int:
    system = _system(cmd)
    sc = system.constants
    kappa = cmd.kappa if cmd.kappa is not None else tuple(float(v) for v in sc.kappa)
    h = max(system.group.h, 1)
    sigma2 = sum(float(v) ** 2 for v in kappa) / h
    big_l = stats.loglog(cmd.x)
    swp = census.sweep(system, cmd.x)
    rows = {}
    for k in range(1, cmd.k + 1):
        measured = stats.f_central_moment(system, cmd.x, kappa, k, sweep=swp)
        target = stats.gaussian_target(k, sigma2, big_l)
        row = {"measured": measured, "target": target}
        if target:
            row["ratio"] = measured / target
        rows[str(k)] = row
    payload = {
        "x": cmd.x,
        "kappa": list(kappa),
        "sigma2": sigma2,
        "L": big_l,
        "moments": rows,
    }
    _emit(_payload_text(payload, cmd.fmt), cmd.out)
    return 0


def _run_check(cmd: Command) -> int:
    system = _system(cmd)
    descs = stats.default_g_descriptors(system)
    swp = census.sweep(system, cmd.x, g_descriptors=descs)
    g_rows = []
    for desc in descs:
        measured, predicted = stats.g_mean_check(system, desc, cmd.x, sweep=swp)
        g_rows.append(
            {
                "descriptor": stats.describe_descriptor(system, desc),
                "measured": measured,
                "predicted": predicted,
                "difference": measured - predicted,
            }
        )
    payload = {
        "x": cmd.x,
        "psi": system.field.psi,
        "weber_ratios": list(stats.weber_check(system, cmd.x, sweep=swp)),
        "landau_deviations": list(stats.landau_check(system, cmd.x)),
        "g_checks": g_rows,
    }
    _emit(_payload_text(payload, cmd.fmt), cmd.out)
    return 0


SELFTEST_FIELDS = (-5, -23, -14, -30)


def _run_selftest(cmd: Command) -> int:
    failures = 0
    for d in SELFTEST_FIELDS:
        system = census.for_field(d, _stream_limit(cmd.x))
        sc = system.constants
        checked = mismatched = 0
        for fact, record in census.enumerate_principal(system, cmd.x):
            nu_b = census.nu_bruteforce(fact, system.ordering)
            nu_s = census.nu_squarefull_formula(fact, sc)
            delta_b = census.delta_bruteforce(fact, system.ordering)
            if not (record.nu == nu_b == nu_s and record.delta == delta_b):
                mismatched += 1
                sys.stderr.write(
                    f"selftest mismatch: d={d} norm={record.norm} "
                    f"nu={record.nu}/{nu_b}/{nu_s} delta={record.delta}/{delta_b}\n"
                )
            checked += 1
        failures += mismatched
        status = "ok" if not mismatched else "FAIL"
        sys.stdout.write(f"selftest d={d}: {checked} principal ideals, {status}\n")
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


def run(cmd: Command) -> int:
    return _RUNNERS[cmd.subcommand](cmd)


def main(argv=None) -> int:
    try:
        cmd = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    try:
        return run(cmd)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
