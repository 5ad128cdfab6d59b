"""Aggregate census output into empirical distribution reports.

Iterated logarithms are natural throughout: L = log log x.  At desk scale
L is tiny (log log 1e7 is about 2.78), so no Gaussian-limit claim is made;
the reports expose exact counters, analytic-formula comparisons and
standardized statistics, and the tests pin trends and frozen anchors.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .abelian import StructuralConstants
from .census import SiteSystem, Sweep, Totals, _check_bound, sweep as census_sweep
from .errors import DomainError

HIST_LO = -6.0
HIST_HI = 6.0
HIST_WIDTH = 0.25
_HIST_BINS = int(round((HIST_HI - HIST_LO) / HIST_WIDTH))
MOMENT_ORDERS = (1, 2, 3, 4)  # standardized moments of nu in the report


def loglog(x) -> float:
    if x <= math.e:
        raise DomainError(f"log log {x} is not positive")
    return math.log(math.log(x))


def standardize(record, sc: StructuralConstants, x) -> float:
    """Center and scale an irreducible-divisor count:
    z = (nu - A L^D) / (B L^(D-1/2)) with L = log log x."""
    if x < 16:
        raise DomainError("standardization needs x >= 16")
    nu = record.nu if hasattr(record, "nu") else record
    big_l = loglog(x)
    d = sc.davenport
    center = float(sc.A) * big_l**d
    scale = sc.B * big_l ** (d - 0.5)
    return (nu - center) / scale


def gaussian_target(k: int, sigma2: float, big_l: float) -> float:
    """Gaussian central moment of order k for variance sigma2 * L."""
    if k < 0:
        raise DomainError("moment order must be nonnegative")
    if k % 2:
        return 0.0
    half = k // 2
    coeff = math.factorial(k) / (2**half * math.factorial(half))
    return coeff * (sigma2 * big_l) ** half


def f_value(record, kappa) -> float:
    """The additive surrogate f = sum_j kappa_j * omega_j."""
    omega = record.omega if hasattr(record, "omega") else tuple(record)
    if len(kappa) != len(omega):
        raise DomainError("kappa length must equal the class count")
    return sum(float(k) * w for k, w in zip(kappa, omega))


def _validate_kappa(kappa, h):
    kap = tuple(float(k) for k in kappa)
    if len(kap) != h:
        raise DomainError(f"kappa must have length h={h}")
    if any(k < 0 for k in kap):
        raise DomainError("kappa entries must be nonnegative")
    if not any(kap):
        raise DomainError("kappa must not vanish identically")
    return kap


def _totals(system: SiteSystem, x: int, swp: Sweep | None) -> Totals:
    if swp is None:
        swp = census_sweep(system, x)
    return swp.at(x)


def f_central_moment(
    system: SiteSystem, x: int, kappa, k: int, sweep: Sweep | None = None
) -> float:
    """(1/n) sum over principal ideals of (f - (sum kappa_j / h) L)^k."""
    h = max(system.group.h, 1)
    kap = _validate_kappa(kappa, h)
    totals = _totals(system, x, sweep)
    center = (sum(kap) / h) * loglog(x)
    total = 0.0
    n = 0
    for (omega, _m), cnt in sorted(totals.profile_counts.items()):
        fv = sum(kv * w for kv, w in zip(kap, omega))
        total += cnt * (fv - center) ** k
        n += cnt
    if n == 0:
        raise DomainError("empty census")
    return total / n


def g_predicted(prime_powers) -> float:
    """Mean-value constant G(r) for r given as (prime norm, exponent) pairs.

    Vanishes unless every exponent is >= 2 (squarefull r); the empty product
    is 1.
    """
    out = 1.0
    for nq, e in prime_powers:
        out *= (1.0 / nq) * (1.0 - 1.0 / nq) ** e + (-1.0 / nq) ** e * (
            1.0 - 1.0 / nq
        )
    return out


def _descriptor_norms(system, descriptor):
    return tuple(
        (system.sites[sid].norm, e) for sid, e in sorted(descriptor)
    )


def g_mean_check(
    system: SiteSystem, descriptor, x: int, sweep: Sweep | None = None
) -> tuple[float, float]:
    """Measured (1/x) sum of g_r over principal ideals vs Psi * G(r).

    Psi = 2 pi / (w sqrt(|disc|)) is the density of ideals in one fixed
    class, so the sum of g_r over the principal class alone carries a single
    factor Psi.
    """
    if system.field is None:
        raise DomainError("g mean prediction needs a field-backed system")
    desc = tuple(sorted((int(s), int(e)) for s, e in descriptor))
    if sweep is None:
        sweep = census_sweep(system, x, g_descriptors=(desc,))
    totals = sweep.at(x)
    try:
        di = sweep.g_descriptors.index(desc)
    except ValueError:
        raise DomainError("descriptor was not tracked by the sweep") from None
    measured = totals.g_sums[di] / x
    predicted = system.field.psi * g_predicted(_descriptor_norms(system, desc))
    return measured, predicted


def weber_check(system: SiteSystem, x: int, sweep: Sweep | None = None):
    """Per-class ideal counts divided by the predicted count Psi * x.

    Psi = 2 pi / (w sqrt(|disc|)) is the classical per-class density
    (equivalently, the residue of the zeta function of the field divided by
    the class number), so each ratio tends to 1.
    """
    if system.field is None:
        raise DomainError("the ideal-count ratio needs a field-backed system")
    totals = _totals(system, x, sweep)
    expected = system.field.psi * x
    return tuple(c / expected for c in totals.class_counts)


def landau_check(system: SiteSystem, x: int):
    """Per-class reciprocal-norm sums over prime sites, minus L/h."""
    if x < 3:
        raise DomainError("needs x >= 3")
    _check_bound(system, x)
    # the first k sites have norm <= x; each class's compensated sum over
    # them is an entry of the per-class prefix tables (typed arrays) the
    # sweep uses
    positions, prefix = system._class_tables
    k = bisect_right(system._norms, x)
    center = loglog(x) / max(system.group.h, 1)
    return tuple(pre[bisect_left(pos, k)] - center for pos, pre in zip(positions, prefix))


def exceptional_fraction(
    system: SiteSystem, x: int, sweep: Sweep | None = None
) -> float:
    """Fraction of principal ideals with either some omega_i far from L/h
    (beyond L^(2/3)) or some Omega_i - omega_i >= log L."""
    if x < 16:
        raise DomainError("the exceptional set needs x >= 16")
    totals = _totals(system, x, sweep)
    h = totals.h
    big_l = loglog(x)
    t1 = big_l ** (2.0 / 3.0)
    t2 = math.log(big_l) if big_l > 0 else float("-inf")
    mean = big_l / h
    bad = 0
    n = 0
    for (omega, m), cnt in totals.profile_counts.items():
        n += cnt
        if m >= t2 or any(abs(w - mean) >= t1 for w in omega):
            bad += cnt
    if n == 0:
        raise DomainError("empty census")
    return bad / n


@dataclass(frozen=True)
class EquidistResult:
    modulus: int
    counts: dict
    n: int
    deviation: float


def equidist(
    system: SiteSystem, x: int, m: int, sweep: Sweep | None = None
) -> EquidistResult:
    """Residue-class counts of the irreducible-divisor count mod m."""
    if m < 1:
        raise DomainError("modulus must be >= 1")
    totals = _totals(system, x, sweep)
    counts = {a: 0 for a in range(m)}
    for nu, cnt in totals.nu_counts.items():
        counts[nu % m] += cnt
    n = sum(counts.values())
    if n == 0:
        raise DomainError("empty census")
    deviation = max(abs(c / n - 1.0 / m) for c in counts.values())
    return EquidistResult(modulus=m, counts=counts, n=n, deviation=deviation)


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def ks_distance(totals: Totals, sc: StructuralConstants, x: int) -> float:
    """Kolmogorov distance between the standardized counts and a standard
    normal, evaluated at the atoms."""
    n = totals.n_principal
    if n == 0:
        raise DomainError("empty census")
    out = 0.0
    cum = 0
    for nu, cnt in sorted(totals.nu_counts.items()):
        z = standardize(nu, sc, x)
        phi = _norm_cdf(z)
        out = max(out, abs(cum / n - phi))
        cum += cnt
        out = max(out, abs(cum / n - phi))
    return out


def histogram(totals: Totals, sc: StructuralConstants, x: int):
    """Counts of the standardized statistic in width-0.25 bins on [-6, 6],
    with two open tail buckets."""
    bins = [0] * _HIST_BINS
    lo_tail = 0
    hi_tail = 0
    for nu, cnt in totals.nu_counts.items():
        z = standardize(nu, sc, x)
        if z < HIST_LO:
            lo_tail += cnt
        elif z >= HIST_HI:
            hi_tail += cnt
        else:
            bins[int((z - HIST_LO) / HIST_WIDTH)] += cnt
    rows = [("-inf", HIST_LO, lo_tail)]
    for i, cnt in enumerate(bins):
        rows.append(((i - 24) / 4.0, (i - 23) / 4.0, cnt))
    rows.append((HIST_HI, "inf", hi_tail))
    return rows


def histogram_csv(rows) -> str:
    lines = ["bin_low,bin_high,count"]
    for lo, hi, cnt in rows:
        lines.append(f"{_cell(lo)},{_cell(hi)},{cnt}")
    return "\n".join(lines) + "\n"


def _cell(v):
    return v if isinstance(v, str) else format(float(v), ".17g")


@dataclass(frozen=True)
class GMeanEntry:
    descriptor: str
    measured: float
    predicted: float


@dataclass(frozen=True)
class StatReport:
    """Everything the reporting CLI serializes for one (system, x)."""

    x: int
    n_ideals: int
    n_principal: int
    mean_nu: float
    var_nu: float
    standardized_moments: dict
    ks: float
    residue_modulus: int
    residue_counts: dict
    residue_deviation: float
    weber_ratios: tuple | None
    landau_deviations: tuple
    exceptional_fraction: float
    g_mean_table: tuple
    harmonic_principal: float
    harmonic_irreducible: float
    irreducible_count: int
    histogram_rows: tuple
    constants: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "x": self.x,
            "n_ideals": self.n_ideals,
            "n_principal": self.n_principal,
            "mean_nu": self.mean_nu,
            "var_nu": self.var_nu,
            "standardized_moments": {str(k): v for k, v in self.standardized_moments.items()},
            "ks_distance": self.ks,
            "residue_counts": {
                f"{self.residue_modulus}:{a}": c for a, c in self.residue_counts.items()
            },
            "residue_deviation": self.residue_deviation,
            "weber_ratios": list(self.weber_ratios) if self.weber_ratios else None,
            "landau_deviations": list(self.landau_deviations),
            "exceptional_fraction": self.exceptional_fraction,
            "g_mean_table": [
                {"descriptor": e.descriptor, "measured": e.measured, "predicted": e.predicted}
                for e in self.g_mean_table
            ],
            "harmonic_principal": self.harmonic_principal,
            "harmonic_irreducible": self.harmonic_irreducible,
            "irreducible_count": self.irreducible_count,
            "histogram": [list(r) for r in self.histogram_rows],
            "constants": self.constants,
        }

    def to_json(self) -> str:
        return dumps(self.as_dict()) + "\n"


def default_g_descriptors(system: SiteSystem):
    """A squarefull descriptor (first site, squared) and a non-squarefull one."""
    if len(system.sites) < 2:
        return ()
    return (((system.sites[0].id, 2),), ((system.sites[1].id, 1),))


def describe_descriptor(system, desc) -> str:
    return ";".join(f"site{sid}(N{system.sites[sid].norm})^{e}" for sid, e in desc)


def build_report(
    system: SiteSystem,
    x: int,
    m: int = 2,
    sweep: Sweep | None = None,
) -> StatReport:
    """The report of ``sweep`` at x; without one, of a sweep that tracks the
    default descriptors on a field and none on a synthetic stream."""
    sc = system.constants
    if sweep is None:
        descs = default_g_descriptors(system) if system.field else ()
        sweep = census_sweep(system, x, g_descriptors=descs)
    totals = sweep.at(x)
    n = totals.n_principal
    # exact integer and float sums, so no byte depends on the order in
    # which the sweep met the nu values
    mean_nu = sum(nu * c for nu, c in totals.nu_counts.items()) / n
    var_nu = math.fsum((nu - mean_nu) ** 2 * c for nu, c in totals.nu_counts.items()) / n
    z_moments = {}
    for k in MOMENT_ORDERS:
        z_moments[k] = (
            math.fsum(standardize(nu, sc, x) ** k * c for nu, c in totals.nu_counts.items())
            / n
        )
    eq = equidist(system, x, m, sweep=sweep)
    weber = tuple(weber_check(system, x, sweep=sweep)) if system.field else None
    landau = landau_check(system, x)
    g_table = []
    for desc in sweep.g_descriptors:
        measured, predicted = (
            g_mean_check(system, desc, x, sweep=sweep)
            if system.field
            else (totals.g_sums[sweep.g_descriptors.index(desc)] / x, float("nan"))
        )
        g_table.append(
            GMeanEntry(describe_descriptor(system, desc), measured, predicted)
        )
    return StatReport(
        x=x,
        n_ideals=totals.n_ideals,
        n_principal=n,
        mean_nu=mean_nu,
        var_nu=var_nu,
        standardized_moments=z_moments,
        ks=ks_distance(totals, sc, x),
        residue_modulus=m,
        residue_counts=eq.counts,
        residue_deviation=eq.deviation,
        weber_ratios=weber,
        landau_deviations=landau,
        exceptional_fraction=exceptional_fraction(system, x, sweep=sweep),
        g_mean_table=tuple(g_table),
        harmonic_principal=totals.harmonic_principal,
        harmonic_irreducible=totals.harmonic_irreducible,
        irreducible_count=totals.irreducible_count,
        histogram_rows=tuple(histogram(totals, sc, x)),
        constants=sc.as_dict(),
    )


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats


def dumps(obj) -> str:
    parts: list[str] = []
    _dump(obj, parts)
    return "".join(parts)


def _dump(obj, parts: list):
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            parts.append('"%s"' % obj)
        else:
            parts.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        parts.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj, key=str)):
            if i:
                parts.append(",")
            _dump(str(key), parts)
            parts.append(":")
            _dump(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _dump(v, parts)
        parts.append("]")
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__}")
