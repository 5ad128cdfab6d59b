"""Aggregate census output into empirical distribution reports.

Iterated logarithms are natural throughout: L = log log x.  At desk scale
L is tiny (log log 1e7 is about 2.78), so no Gaussian-limit claim is made;
the reports expose exact counters, analytic-formula comparisons and
standardized statistics, and the tests pin trends and frozen anchors.

Every statistic reads the census at one bound x through the ``Totals`` of
a sweep, ``sweep(...).at(x)``, and takes x and h from it; the g-means read
the sweep itself, whose descriptors they report on.  No statistic runs a
sweep: ``build_report`` reports on the one it is given, and
``landau_check`` reads the per-class prefix table of the sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .abelian import StructuralConstants
from .census import SiteSystem, Sweep, Totals, _check_bound
from .errors import DomainError, as_int

HIST_LO = -6.0
HIST_HI = 6.0
HIST_WIDTH = 0.25
_HIST_BINS = int(round((HIST_HI - HIST_LO) / HIST_WIDTH))
MOMENT_ORDERS = (1, 2, 3, 4)  # standardized moments of nu in the report


def loglog(x) -> float:
    if x <= math.e:
        raise DomainError(f"log log {x} is not positive")
    return math.log(math.log(x))


def standardize(nu: int, sc: StructuralConstants, x) -> float:
    """Center and scale an irreducible-divisor count:
    z = (nu - A L^D) / (B L^(D-1/2)) with L = log log x."""
    if x < 16:
        raise DomainError("standardization needs x >= 16")
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


def f_value(omega, kappa) -> float:
    """The additive surrogate f = sum_j kappa_j * omega_j."""
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


def f_central_moment(totals: Totals, kappa, k: int) -> float:
    """(1/n) sum over principal ideals of (f - (sum kappa_j / h) L)^k."""
    h = totals.h
    kap = _validate_kappa(kappa, h)
    center = (sum(kap) / h) * loglog(totals.x)
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


def g_mean_check(sweep: Sweep, x: int) -> tuple[tuple[float, float], ...]:
    """Measured (1/x) sum of g_r over principal ideals vs Psi * G(r), one
    pair per descriptor of ``sweep``, in its order; the prediction is NaN
    on a synthetic stream, which has no Psi.

    Psi = 2 pi / (w sqrt(|disc|)) is the density of ideals in one fixed
    class, so the sum of g_r over the principal class alone carries a single
    factor Psi.
    """
    system = sweep.system
    psi = system.field.psi if system.field else float("nan")
    return tuple(
        (g_sum / x, psi * g_predicted((int(system.sites.norm[sid]), e) for sid, e in desc))
        for desc, g_sum in zip(sweep.g_descriptors, sweep.at(x).g_sums)
    )


def weber_check(system: SiteSystem, totals: Totals):
    """Per-class ideal counts divided by the predicted count Psi * x.

    Psi = 2 pi / (w sqrt(|disc|)) is the classical per-class density
    (equivalently, the residue of the zeta function of the field divided by
    the class number), so each ratio tends to 1.
    """
    if system.field is None:
        raise DomainError("the ideal-count ratio needs a field-backed system")
    expected = system.field.psi * totals.x
    return tuple(c / expected for c in totals.class_counts)


def landau_check(system: SiteSystem, x: int):
    """Per-class reciprocal-norm sums over prime sites, minus L/h."""
    if x < 3:
        raise DomainError("needs x >= 3")
    _check_bound(system, x)
    # each class's compensated sum over the k sites of norm <= x is an entry
    # of the prefix table the sweep uses
    k = int(np.searchsorted(system.sites.norm, x, "right"))
    c = np.arange(system.group.h)
    i, count = system._class_slices(c, 0, k)
    center = loglog(x) / system.group.h
    return tuple((system._class_prefix[i + c + count] - center).tolist())


def exceptional_fraction(totals: Totals) -> float:
    """Fraction of principal ideals with either some omega_i far from L/h
    (beyond L^(2/3)) or some Omega_i - omega_i >= log L."""
    if totals.x < 16:
        raise DomainError("the exceptional set needs x >= 16")
    h = totals.h
    big_l = loglog(totals.x)
    t1 = big_l ** (2.0 / 3.0)
    t2 = math.log(big_l)
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


def equidist(totals: Totals, m: int) -> EquidistResult:
    """Residue-class counts of the irreducible-divisor count mod m."""
    if as_int(m, "modulus") < 1:
        raise DomainError("modulus must be >= 1")
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


def ks_distance(totals: Totals, sc: StructuralConstants) -> float:
    """Kolmogorov distance between the standardized counts and a standard
    normal, evaluated at the atoms."""
    n = totals.n_principal
    if n == 0:
        raise DomainError("empty census")
    out = 0.0
    cum = 0
    for nu, cnt in sorted(totals.nu_counts.items()):
        z = standardize(nu, sc, totals.x)
        phi = _norm_cdf(z)
        out = max(out, abs(cum / n - phi))
        cum += cnt
        out = max(out, abs(cum / n - phi))
    return out


def histogram(totals: Totals, sc: StructuralConstants):
    """Counts of the standardized statistic in width-0.25 bins on [-6, 6],
    with two open tail buckets."""
    bins = [0] * _HIST_BINS
    lo_tail = 0
    hi_tail = 0
    for nu, cnt in totals.nu_counts.items():
        z = standardize(nu, sc, totals.x)
        if z < HIST_LO:
            lo_tail += cnt
        elif z >= HIST_HI:
            hi_tail += cnt
        else:
            bins[int((z - HIST_LO) / HIST_WIDTH)] += cnt
    rows = [("-inf", HIST_LO, lo_tail)]
    for i, cnt in enumerate(bins):
        rows.append((HIST_LO + i * HIST_WIDTH, HIST_LO + (i + 1) * HIST_WIDTH, cnt))
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
    """A squarefull descriptor (first site, squared) and a non-squarefull
    one; none on a synthetic stream, which has no Psi to predict them."""
    if system.field is None or len(system.sites) < 2:
        return ()
    return (((0, 2),), ((1, 1),))


def describe_descriptor(system, desc) -> str:
    return ";".join(f"site{sid}(N{int(system.sites.norm[sid])})^{e}" for sid, e in desc)


def build_report(system: SiteSystem, x: int, m: int = 2, *, sweep: Sweep) -> StatReport:
    """The report of ``sweep``, a sweep of ``system``, at its checkpoint x."""
    sc = system.constants
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
    eq = equidist(totals, m)
    weber = weber_check(system, totals) if system.field else None
    g_table = tuple(
        GMeanEntry(describe_descriptor(system, desc), measured, predicted)
        for desc, (measured, predicted) in zip(sweep.g_descriptors, g_mean_check(sweep, x))
    )
    return StatReport(
        x=x,
        n_ideals=totals.n_ideals,
        n_principal=n,
        mean_nu=mean_nu,
        var_nu=var_nu,
        standardized_moments=z_moments,
        ks=ks_distance(totals, sc),
        residue_modulus=m,
        residue_counts=eq.counts,
        residue_deviation=eq.deviation,
        weber_ratios=weber,
        landau_deviations=landau_check(system, x),
        exceptional_fraction=exceptional_fraction(totals),
        g_mean_table=g_table,
        harmonic_principal=totals.harmonic_principal,
        harmonic_irreducible=totals.harmonic_irreducible,
        irreducible_count=totals.irreducible_count,
        histogram_rows=tuple(histogram(totals, sc)),
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
