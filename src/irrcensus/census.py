"""Census of principal ideals: exact irreducible-divisor and divisor counts.

A ``SiteSystem`` holds the class group and the prime-site stream as
columns (``quadratic.SiteColumns``); ``system.sites`` builds a
``PrimeSite`` only for a site that is indexed or iterated over.  The walks
below read the norms and classes from Python lists made once per system.

Ideals of norm <= x are enumerated by depth-first search over the prime
sites in increasing norm order.  Each node carries its state as an int id
(``_States``): per class, Omega and the counts of its sites by exponent,
from which follow the class, omega, and each class's subset-count
polynomial truncated at the largest type component of that class.  nu is a
sum over the types of products of those polynomials' coefficients, so it
depends only on the tuple of polynomials; there are few distinct tuples,
and the walk memoizes nu on them.  For the census, the walk also keeps on
its stack the class distribution of the node's divisors, whose principal
entry is delta.  The irreducible-divisor count nu is also
computed three independent ways from a factorization (per-class subset-count
products, exhaustive sub-multiset search, and a squarefull/squarefree
split), which the tests hold to exact agreement with each other and with
the walk.

``_walk`` is the fast DFS over sites, and it serves the sweep and the census.
It visits in Python only the nodes that can have children; the leaves n*q
whose last prime q satisfies N(q)^2 > x // n (about 99% of all ideals at
x = 1e7) are counted in bulk per class from per-class prefix tables.
``sweep`` aggregates the report statistics from that pass, and there the
walk records rows instead of tallying: walked nodes, leaf ranges, and
batches of penultimate sites, whose nodes n*q^e have only bulk leaves as
children and are not walked at all (``Sweep.batched`` counts them).  A
numpy pass tallies the rows a chunk at a time, and its float sums are
exact, so no report float depends on the walk order.  The census
(``_census_columns``: one walk, one stable argsort) gets each principal
ideal in lexicographic order of its factorization: each walked one on its
own, and the principal leaves of a bulk range together, since they share
every field but the norm; no non-principal leaf is ever touched.  It
collects from the walk's state each row's norm and the id of its columns
after the norm as two int64 columns; ``write_census_csv`` formats them in
chunks with ``quadratic.write_int_csv`` and ``census_rows`` expands them to
tuples.

The two references for those fast paths share none of that machinery.
``_principal_factorizations`` is a plain recursive walk that visits every
ideal, one at a time, and yields the principal ones' factorizations in the
same lexicographic order.  ``enumerate_principal`` computes each record
field from a factorization with the oracle functions, and
``harmonic_sums`` sums the 1/N terms with ``math.fsum``.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

from .abelian import (
    ClassOrdering,
    GroupSpec,
    StructuralConstants,
    TypeVector,
    canonical_ordering,
    structural_constants,
)
from .errors import DomainError, ResourceLimitError
from .quadratic import (
    CSV_CHUNK,
    ClassGroup,
    FieldSpec,
    SiteColumns,
    as_site_columns,
    class_group,
    prime_sites_up_to,
    write_int_csv,
)
from .synth import SynthModel, synth_sites

BRUTE_OMEGA_BOUND = 24
DEFAULT_DIVISOR_BOUND = 10**6


class FactorEntry(NamedTuple):
    site_id: int
    norm: int
    class_index: int
    exponent: int


@dataclass(frozen=True)
class Factorization:
    """A nonzero ideal as a sorted tuple of prime-site powers."""

    entries: tuple[FactorEntry, ...]
    norm: int
    class_index: int


@dataclass(frozen=True)
class CensusRecord:
    """Derived statistics of one principal ideal."""

    norm: int
    omega: tuple[int, ...]
    Omega: tuple[int, ...]
    nu: int
    nu_by_type: dict
    delta: int
    is_irreducible: bool
    squarefull_norm: int


@dataclass(frozen=True, eq=False)
class SiteSystem:
    """A class group (abstract) plus its prime-site stream, held as columns.

    ``sites`` is a ``SiteColumns``: numpy columns p, norm, splitting,
    class_index and conjugate_id, where a site's id is its stream position.
    Indexing or iterating it builds ``PrimeSite`` views lazily; any other
    sequence of ``PrimeSite`` passed in is converted to columns.  The
    walkers read ``_norms`` and ``_cls0`` (0-based classes), Python lists
    built once from the columns: indexing a numpy array, or running
    ``bisect`` on one, costs far more per node than a list does.
    """

    group: GroupSpec
    ordering: ClassOrdering
    sites: SiteColumns
    limit: int
    field: FieldSpec | None = None

    def __post_init__(self):
        sites = as_site_columns(self.sites)
        object.__setattr__(self, "sites", sites)
        if np.any(sites.norm[1:] < sites.norm[:-1]):
            raise DomainError("sites must be sorted by norm")
        object.__setattr__(self, "_norms", sites.norm.tolist())
        object.__setattr__(self, "_cls0", (sites.class_index - 1).tolist())

    @property
    def constants(self) -> StructuralConstants:
        return structural_constants(self.group)

    @cached_property
    def _class_tables(self) -> tuple[list[array], list[array]]:
        """Per class: the stream positions of its sites (``array('q')``),
        and compensated prefix sums of 1/N over them (``array('d')``; entry i
        sums the first i sites).  numpy views both without a copy.  Built on
        first use by ``sweep`` or ``stats.landau_check``."""
        cls0 = self.sites.class_index - 1
        order = np.argsort(cls0, kind="stable")
        cuts = np.cumsum(np.bincount(cls0, minlength=max(self.group.h, 1)))[:-1]
        positions: list[array] = []
        prefix: list[array] = []
        for pos, inverse in zip(np.split(order, cuts), np.split(1.0 / self.sites.norm[order], cuts)):
            positions.append(array("q", pos.astype(np.int64).tobytes()))
            # Neumaier summation (every term is positive), in stream order
            s = comp = 0.0
            pre = array("d", [0.0])
            for v in inverse.tolist():
                t = s + v
                comp += (s - t) + v if s >= v else (v - t) + s
                s = t
                pre.append(s + comp)
            prefix.append(pre)
        return positions, prefix


def for_field(field, limit: int) -> SiteSystem:
    """Site system for Q(sqrt(d)); accepts d or a prebuilt ClassGroup."""
    cg = field if isinstance(field, ClassGroup) else class_group(field)
    sites = prime_sites_up_to(cg, limit)
    return SiteSystem(
        group=cg.group, ordering=cg.ordering, sites=sites, limit=limit, field=cg.field
    )


def for_synth(model: SynthModel, limit: int) -> SiteSystem:
    sites = synth_sites(model, limit)
    return SiteSystem(
        group=model.group,
        ordering=canonical_ordering(model.group),
        sites=sites,
        limit=limit,
        field=None,
    )


def make_factorization(system: SiteSystem, entries) -> Factorization:
    """Build a Factorization from (site_id, exponent) pairs."""
    built = []
    norm = 1
    cls = system.ordering.identity
    for site_id, exp in sorted(entries):
        if exp < 1:
            raise DomainError("exponents must be >= 1")
        if not 0 <= site_id < len(system.sites):
            raise DomainError(f"site id {site_id} out of range")
        site = system.sites[site_id]
        built.append(FactorEntry(site_id, site.norm, site.class_index, exp))
        norm *= site.norm**exp
        for _ in range(exp):
            cls = system.ordering.add(cls, system.ordering.elements[site.class_index - 1])
    ids = [e.site_id for e in built]
    if len(set(ids)) != len(ids):
        raise DomainError("site ids must be distinct")
    return Factorization(
        entries=tuple(built), norm=norm, class_index=system.ordering.index_of[cls]
    )


def _bounded_subset_counts(exponents, max_degree: int) -> list[int]:
    """Coefficient k of the result counts size-k sub-multisets of a multiset
    whose distinct members have the given multiplicities (truncated)."""
    dp = [0] * (max_degree + 1)
    dp[0] = 1
    for e in exponents:
        ndp = [0] * (max_degree + 1)
        for d in range(max_degree + 1):
            lo = d - e
            if lo < 0:
                lo = 0
            ndp[d] = sum(dp[lo : d + 1])
        dp = ndp
    return dp


def _check_group(fact: Factorization, h: int):
    for en in fact.entries:
        if not 1 <= en.class_index <= h:
            raise DomainError(
                f"factorization class index {en.class_index} does not fit group of order {h}"
            )


def nu_exact(fact: Factorization, sc: StructuralConstants):
    """Exact irreducible-divisor count and its per-type decomposition.

    For type tau, an irreducible divisor of type tau is exactly a choice,
    independently for each class i, of a size-t_i sub-multiset of the class-i
    prime sites of the ideal; the counts multiply.
    """
    h = sc.group.h
    _check_group(fact, h)
    by_class: list[list[int]] = [[] for _ in range(h)]
    for en in fact.entries:
        by_class[en.class_index - 1].append(en.exponent)
    maxt = sc.max_type_component
    coeffs = [_bounded_subset_counts(by_class[i], maxt[i]) for i in range(h)]
    by_type = {}
    total = 0
    for tv in sc.sorted_types:
        prod = 1
        for i, ti in enumerate(tv.t):
            if ti:
                prod *= coeffs[i][ti]
                if not prod:
                    break
        by_type[tv] = prod
        total += prod
    return total, by_type


def nu_bruteforce(fact: Factorization, ordering: ClassOrdering) -> int:
    """Oracle: enumerate every sub-multiset, keep the principal ones with no
    principal proper nonempty sub-multiset, count them.

    Uses coordinate arithmetic directly (no shared operation table with the
    exact path).
    """
    big_omega = sum(en.exponent for en in fact.entries)
    if big_omega > BRUTE_OMEGA_BOUND:
        raise ResourceLimitError(
            f"Omega={big_omega} exceeds the brute-force bound {BRUTE_OMEGA_BOUND}"
        )
    mods = ordering.group.invariant_factors
    classes = [ordering.elements[en.class_index - 1] for en in fact.entries]
    exps = [en.exponent for en in fact.entries]

    zero_sum = []
    for combo in itertools.product(*(range(e + 1) for e in exps)):
        if not any(combo):
            continue
        total = tuple(
            sum(k * cl[i] for k, cl in zip(combo, classes)) % d
            for i, d in enumerate(mods)
        )
        if not any(total):
            zero_sum.append(combo)
    count = 0
    for v in zero_sum:
        if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in zero_sum):
            count += 1
    return count


def _squarefull_divisor_sum(s_entries, t, u_counts) -> int:
    h = len(t)
    used = [0] * h
    total = 0

    def rec(idx: int):
        nonlocal total
        if idx == len(s_entries):
            prod = 1
            for i in range(h):
                prod *= math.comb(u_counts[i], t[i] - used[i])
                if not prod:
                    return
            total += prod
            return
        en = s_entries[idx]
        ci = en.class_index - 1
        for f in range(min(en.exponent, t[ci] - used[ci]) + 1):
            used[ci] += f
            rec(idx + 1)
            used[ci] -= f

    rec(0)
    return total


def nu_squarefull_formula(fact: Factorization, sc: StructuralConstants) -> int:
    """Third route to nu: split the ideal into squarefull and squarefree
    comaximal parts; a type-tau irreducible factor is a divisor of the
    squarefull part completed by a squarefree cofactor, counted by binomials.
    The class-1 count enters once since (1,0,...,0) is the only type using
    class 1.
    """
    h = sc.group.h
    _check_group(fact, h)
    s_entries = [en for en in fact.entries if en.exponent >= 2]
    u_counts = [0] * h
    omega1 = 0
    for en in fact.entries:
        if en.class_index == 1:
            omega1 += 1
        if en.exponent == 1:
            u_counts[en.class_index - 1] += 1
    total = omega1
    for tv in sc.types:
        if tv.t[0] != 0:
            continue
        total += _squarefull_divisor_sum(s_entries, tv.t, u_counts)
    return total


def delta_exact(
    fact: Factorization,
    ordering: ClassOrdering,
    max_divisors: int = DEFAULT_DIVISOR_BOUND,
) -> int:
    """Number of principal ideal divisors, by dynamic programming over the
    class distribution of divisors (never enumerates them individually)."""
    ndiv = math.prod(en.exponent + 1 for en in fact.entries)
    if ndiv > max_divisors:
        raise ResourceLimitError(
            f"{ndiv} divisors exceed the configured bound {max_divisors}"
        )
    cay = ordering.cayley()
    h = len(cay)
    vec = [0] * h
    vec[0] = 1
    for en in fact.entries:
        c = en.class_index - 1
        new = [0] * h
        for g, cnt in enumerate(vec):
            if cnt:
                gg = g
                new[gg] += cnt
                for _ in range(en.exponent):
                    gg = cay[gg][c]
                    new[gg] += cnt
        vec = new
    return vec[0]


def delta_bruteforce(fact: Factorization, ordering: ClassOrdering) -> int:
    """Oracle for delta_exact: walk every divisor exponent vector."""
    mods = ordering.group.invariant_factors
    classes = [ordering.elements[en.class_index - 1] for en in fact.entries]
    exps = [en.exponent for en in fact.entries]
    count = 0
    for combo in itertools.product(*(range(e + 1) for e in exps)):
        total = tuple(
            sum(k * cl[i] for k, cl in zip(combo, classes)) % d
            for i, d in enumerate(mods)
        )
        if not any(total):
            count += 1
    return count


def delta_lower_bound(record, h: int) -> int:
    """Constructive lower bound: per class, pick any subset of the distinct
    prime sites whose size is a multiple of h; products are principal."""
    omega = record.omega if hasattr(record, "omega") else tuple(record)
    out = 1
    for w in omega:
        out *= sum(math.comb(w, j) for j in range(0, w + 1, h))
    return out


def is_irreducible(fact: Factorization, sc: StructuralConstants) -> bool:
    """A principal nonunit is irreducible iff its full class distribution is a
    minimal zero-sum vector (no proper nonempty sub-multiset is principal)."""
    if not fact.entries:
        raise DomainError("the unit ideal is neither reducible nor irreducible")
    if fact.class_index != 1:
        raise DomainError("irreducibility is defined for principal ideals")
    h = sc.group.h
    _check_group(fact, h)
    dist = [0] * h
    for en in fact.entries:
        dist[en.class_index - 1] += en.exponent
    if sum(dist) > sc.davenport:
        return False
    return TypeVector(tuple(dist)) in sc.types


# ---------------------------------------------------------------------------
# enumeration


def _check_bound(system: SiteSystem, x: int):
    if x < 1:
        raise DomainError("norm bound must be >= 1")
    if x > system.limit:
        raise DomainError(f"x={x} exceeds the site stream limit {system.limit}")


def _principal_factorizations(system: SiteSystem, x: int) -> Iterator[Factorization]:
    """Every principal ideal of norm <= x, in lexicographic order of its
    factorization, from a plain walk that visits every ideal one at a time
    (a reference for ``_walk``, which it shares no code with)."""
    _check_bound(system, x)
    yield from _plain_walk(
        system._norms, system._cls0, system.ordering.cayley(), x, 0, 1, 0, ()
    )


def _plain_walk(norms, cls0, cay, x, start, n, c, entries):
    """The ideal n of class c with factorization ``entries``, then every
    descendant whose new sites lie at stream positions >= start."""
    if not c:
        yield Factorization(entries=entries, norm=n, class_index=1)
    for j in range(start, len(norms)):
        q = norms[j]
        if n * q > x:
            break
        m, cm, e = n, c, 0
        while m * q <= x:
            m *= q
            e += 1
            cm = cay[cm][cls0[j]]
            entry = FactorEntry(j, q, cls0[j] + 1, e)
            yield from _plain_walk(norms, cls0, cay, x, j + 1, m, cm, entries + (entry,))


def enumerate_principal(
    system: SiteSystem, x: int
) -> Iterator[tuple[Factorization, CensusRecord]]:
    """Every principal ideal of norm <= x, DFS order, fully populated.

    The factorizations come from the plain reference walk, and every record
    field is computed from the factorization by the oracle functions, so
    this is an independent reference for ``sweep`` and ``census_rows``.
    Records stream: none is held once it is yielded.
    """
    sc = system.constants
    h = system.group.h
    for fact in _principal_factorizations(system, x):
        omega = [0] * h
        Omega = [0] * h
        for en in fact.entries:
            omega[en.class_index - 1] += 1
            Omega[en.class_index - 1] += en.exponent
        nu, by_type = nu_exact(fact, sc)
        yield fact, CensusRecord(
            norm=fact.norm,
            omega=tuple(omega),
            Omega=tuple(Omega),
            nu=nu,
            nu_by_type=by_type,
            delta=delta_exact(fact, system.ordering),
            is_irreducible=bool(fact.entries) and is_irreducible(fact, sc),
            squarefull_norm=math.prod(
                en.norm**en.exponent for en in fact.entries if en.exponent >= 2
            ),
        )


@dataclass(frozen=True)
class HarmonicSums:
    principal: float | Fraction
    irreducible: float | Fraction
    irreducible_count: int


def harmonic_sums(system: SiteSystem, x: int, exact: bool = False) -> HarmonicSums:
    """Reciprocal-norm sums over principal and over irreducible ideals.

    The principal ideals come from the plain reference walk, and their 1/N
    terms are summed with ``math.fsum``, correctly rounded, so this stays a
    reference for ``sweep``.  ``exact=True`` sums Fractions instead (only
    sensible for small x).
    """
    sc = system.constants
    one = Fraction(1) if exact else 1.0
    principal, irreducible = [], []
    for fact in _principal_factorizations(system, x):
        v = one / fact.norm
        principal.append(v)
        if fact.entries and is_irreducible(fact, sc):
            irreducible.append(v)
    total = (lambda terms: sum(terms, Fraction(0))) if exact else math.fsum
    return HarmonicSums(total(principal), total(irreducible), len(irreducible))


# ---------------------------------------------------------------------------
# aggregated sweep


#: Every finite float times 2**1074 is an integer.
_SCALE_BITS = 1074


def _add_exact(accs: list, values: np.ndarray, labels: np.ndarray):
    """Add each finite float64 of ``values`` exactly into the ``_ExactSum``
    ``accs[label]``.

    A float times 2**1074 is its 53-bit significand shifted left by
    max(biased exponent - 1, 0).  The significands, signed, are cut into
    26-bit halves and summed per (label, exponent) in int64, which cannot
    overflow below 2**36 terms; only the few group sums become Python ints.
    """
    if not values.size:
        return
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    key = bits >> 52
    key &= 0x7FF
    mant = bits & ((1 << 52) - 1)
    mant[key > 0] += 1 << 52
    np.negative(mant, out=mant, where=bits < 0)
    key -= 1
    np.maximum(key, 0, out=key)
    key += labels * 2048
    order = np.argsort(key)
    key = key[order]
    mant = mant[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    hi = np.add.reduceat(mant >> 26, starts)
    mant &= (1 << 26) - 1
    lo = np.add.reduceat(mant, starts)
    for k, a, b in zip(key[starts].tolist(), hi.tolist(), lo.tolist()):
        label, shift = divmod(k, 2048)
        accs[label].total += ((a << 26) + b) << shift


class _ExactSum:
    """An exactly rounded float sum that does not depend on the order of
    its terms: ``total`` holds the sum times 2**1074 as a Python int, and
    ``value`` rounds it once."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, v: float):
        num, den = v.as_integer_ratio()
        self.total += num << (_SCALE_BITS + 1 - den.bit_length())

    def add_array(self, values: np.ndarray):
        _add_exact([self], values, np.zeros(values.size, dtype=np.int64))

    def merge(self, other: "_ExactSum"):
        self.total += other.total

    @property
    def value(self) -> float:
        return self.total / (1 << _SCALE_BITS)


class _Bucket:
    """Counters for ideals whose norm falls in one checkpoint band."""

    __slots__ = (
        "class_counts",
        "nu_counts",
        "profile_counts",
        "g_sums",
        "harm_principal",
        "harm_irred",
        "irred_count",
    )

    def __init__(self, h: int, n_desc: int):
        self.class_counts = [0] * h
        self.nu_counts: dict[int, int] = {}
        self.profile_counts: dict[tuple, int] = {}
        self.g_sums = [_ExactSum() for _ in range(n_desc)]
        self.harm_principal = _ExactSum()
        self.harm_irred = _ExactSum()
        self.irred_count = 0

    def merge(self, other: "_Bucket"):
        for i, v in enumerate(other.class_counts):
            self.class_counts[i] += v
        for k, v in other.nu_counts.items():
            self.nu_counts[k] = self.nu_counts.get(k, 0) + v
        for k, v in other.profile_counts.items():
            self.profile_counts[k] = self.profile_counts.get(k, 0) + v
        for a, b in zip(self.g_sums, other.g_sums):
            a.merge(b)
        self.harm_principal.merge(other.harm_principal)
        self.harm_irred.merge(other.harm_irred)
        self.irred_count += other.irred_count


@dataclass(frozen=True)
class Totals:
    """Cumulative sweep counters at one checkpoint."""

    x: int
    h: int
    class_counts: tuple[int, ...]
    nu_counts: dict
    profile_counts: dict
    g_sums: tuple[float, ...]
    harmonic_principal: float
    harmonic_irreducible: float
    irreducible_count: int

    @property
    def n_principal(self) -> int:
        return sum(self.nu_counts.values())

    @property
    def n_ideals(self) -> int:
        return sum(self.class_counts)


@dataclass(eq=False)
class Sweep:
    """Aggregated census statistics, one bucket per checkpoint band.

    ``visited`` counts the ideals counted one by one: the nodes the walk
    visits in Python and the ``batched`` nodes it leaves to the numpy
    tally.  ``bulk`` counts the leaves counted in bulk, summed from the
    lengths of the leaf ranges; ``visited + bulk`` equals
    ``at(x).n_ideals``.  ``nu_states`` counts the distinct tuples of
    per-class subset-count polynomials of the principal ideals, which is
    how many times nu was summed over the types; every other principal
    ideal or bulk-counted group of leaves read nu from the memo.  None of
    the four enters a report.  Every float is the exactly rounded sum of
    its terms, so it does not depend on the order of the walk or of the
    tally.
    """

    system: SiteSystem
    x: int
    checkpoints: tuple[int, ...]
    g_descriptors: tuple
    _buckets: list
    visited: int
    batched: int
    bulk: int
    nu_states: int

    def at(self, x: int) -> Totals:
        if x not in self.checkpoints:
            raise DomainError(f"{x} is not a sweep checkpoint {self.checkpoints}")
        h = max(self.system.group.h, 1)
        acc = _Bucket(h, len(self.g_descriptors))
        for cp, bucket in zip(self.checkpoints, self._buckets):
            if cp > x:
                break
            acc.merge(bucket)
        return Totals(
            x=x,
            h=h,
            class_counts=tuple(acc.class_counts),
            nu_counts=dict(acc.nu_counts),
            profile_counts=dict(acc.profile_counts),
            g_sums=tuple(k.value for k in acc.g_sums),
            harmonic_principal=acc.harm_principal.value,
            harmonic_irreducible=acc.harm_irred.value,
            irreducible_count=acc.irred_count,
        )


def _normalize_descriptor(desc) -> tuple[tuple[int, int], ...]:
    out = tuple(sorted((int(s), int(e)) for s, e in desc))
    if any(e < 1 for _, e in out):
        raise DomainError("descriptor exponents must be >= 1")
    ids = [s for s, _ in out]
    if len(set(ids)) != len(ids):
        raise DomainError("descriptor sites must be distinct")
    return out


class _States:
    """The node states of one walk, interned as int ids.

    A state is packed into one int, 8 bits per field: per class i, Omega_i
    and the number of its sites with exponent k for k = 1..m_i, where
    m_i = ``max_type_component[i]`` and larger exponents count as m_i; and
    above those, one bit per descriptor site dividing the node.  The class's
    subset-count polynomial truncated at degree m_i is the product of
    (1 + t + ... + t^k) over those sites, so it and omega_i follow from the
    counts.  Pushing a site of class cj with exponent e adds ``inc[cj][e]``
    (plus the site's descriptor bit), so a transition is one addition and
    one lookup in ``ids``.  ``cls`` holds each state's class.  ``stats`` is
    memoized per state; nu depends only on the polynomials and is memoized
    on them in ``nu_memo``, which ``stats`` fills, so its size is the number
    of nu states of the principal ideals met.
    """

    def __init__(self, system: SiteSystem, descs):
        sc = system.constants
        self.cay = system.ordering.cayley()
        self.types_set = {tv.t for tv in sc.types}
        # per type, its nonzero components as (class, t_i)
        self.type_terms = tuple(
            tuple((i, ti) for i, ti in enumerate(tv.t) if ti) for tv in sc.sorted_types
        )
        self.maxt = sc.max_type_component
        self.offsets = [0]
        for m in self.maxt:
            self.offsets.append(self.offsets[-1] + 8 * (m + 1))
        # every norm is >= 2, so exponents stay below 64
        self.inc = [
            [(e << off) + (1 << off + 8 * min(e, m)) if e else 0 for e in range(64)]
            for off, m in zip(self.offsets, self.maxt)
        ]
        norms = system._norms
        desc_sites = sorted({sid for desc in descs for sid, _ in desc})
        self.desc_bit = {sid: 1 << self.offsets[-1] + i for i, sid in enumerate(desc_sites)}
        # per descriptor: (bit of its site, g-value if it divides, if not)
        self.desc_info = tuple(
            tuple(
                (self.desc_bit[sid], (1.0 - 1.0 / norms[sid]) ** e, (-1.0 / norms[sid]) ** e)
                for sid, e in desc
            )
            for desc in descs
        )
        self.keys = [0]
        self.cls = [0]
        self.ids = {0: 0}
        # per class: its packed site counts -> (polynomial, omega_i)
        self.class_polys: list[dict] = [{} for _ in self.maxt]
        self.nu_memo: dict[tuple, int] = {}
        self.stats_memo: dict[int, tuple] = {}

    def add(self, key: int, c: int) -> int:
        """The id of a state not in ``ids``, of class c."""
        t = self.ids[key] = len(self.keys)
        self.keys.append(key)
        self.cls.append(c)
        return t

    def push_many(self, s: np.ndarray, cj: np.ndarray, e: int) -> np.ndarray:
        """The states of nodes of states s times q^e, for q non-descriptor
        sites of classes cj, looked up once per distinct pair."""
        h = len(self.cay)
        pairs, inverse = np.unique(s * h + cj, return_inverse=True)
        out = []
        for sj, cc in map(divmod, pairs.tolist(), itertools.repeat(h)):
            key = self.keys[sj] + self.inc[cc][e]
            t = self.ids.get(key)
            if t is None:
                c = self.cls[sj]
                for _ in range(e):
                    c = self.cay[c][cc]
                t = self.add(key, c)
            out.append(t)
        return np.array(out, dtype=np.int64)[inverse]

    def stats(self, s: int) -> tuple:
        """(nu, profile key, irreducible, g-products, Omega) of a principal
        ideal of state s."""
        st = self.stats_memo.get(s)
        if st is not None:
            return st
        key = self.keys[s]
        polys, omega, Omega = [], [], []
        for off, m, memo in zip(self.offsets, self.maxt, self.class_polys):
            Omega.append((key >> off) & 255)
            field = (key >> off + 8) & ((1 << 8 * m) - 1)
            entry = memo.get(field)
            if entry is None:
                # the class's sites of exponent k (k = m: or more, which
                # truncates at degree m the same way)
                counts = [(field >> 8 * (k - 1)) & 255 for k in range(1, m + 1)]
                exps = [k for k, count in enumerate(counts, 1) for _ in range(count)]
                entry = memo[field] = (tuple(_bounded_subset_counts(exps, m)), len(exps))
            polys.append(entry[0])
            omega.append(entry[1])
        polys = tuple(polys)
        nuv = self.nu_memo.get(polys)
        if nuv is None:
            nuv = 0
            for terms in self.type_terms:
                prod = 1
                for i, ti in terms:
                    prod *= polys[i][ti]
                    if not prod:
                        break
                nuv += prod
            self.nu_memo[polys] = nuv
        m = 0
        for i in range(len(omega)):
            dv = Omega[i] - omega[i]
            if dv > m:
                m = dv
        gs = []
        for entries in self.desc_info:
            prod = 1.0
            for bit, g_in, g_out in entries:
                prod *= g_in if key & bit else g_out
            gs.append(prod)
        Omega = tuple(Omega)
        st = (nuv, (tuple(omega), m), Omega in self.types_set, tuple(gs), Omega)
        self.stats_memo[s] = st
        return st


#: Leaf-range and batch rows a recording walk buffers before one chunked tally.
TALLY_CHUNK = 8192


class _Tally:
    """The numpy tally of a recording walk's rows into checkpoint buckets.

    The walk appends three kinds of row to ``array('q')`` buffers: walked
    nodes (n, state), leaf ranges (n, state, a, z) for the leaves n*q with q
    at stream positions [a, z), and penultimate batches (n, state, s3,
    split).  ``flush`` expands each batch into its nodes n*q^e and their
    leaf ranges, splits every range at the checkpoints, counts its leaves
    per class with ``searchsorted`` on the per-class position arrays,
    tallies the principal ideals per (bucket, state) with ``bincount`` and
    reduces the chunk's float terms into the exact accumulators at once.
    Each term is the float the walked tally would add: 1.0/n for a
    principal node, (pre[ib] - pre[ia])/n for a group of principal leaves
    of one range and band, and g*k for each group of k.
    """

    def __init__(self, system: SiteSystem, x: int, cps, n_desc: int, states: _States):
        self.x = x
        self.states = states
        self.h = len(states.cay)
        self.n_desc = n_desc
        self.buckets = [_Bucket(self.h, n_desc) for _ in cps]
        self.cps = np.array(cps, dtype=np.int64)
        self.norms = system.sites.norm
        self.cls0 = system.sites.class_index
        positions, prefix = system._class_tables
        self.positions = [np.frombuffer(p, dtype=np.int64) for p in positions]
        self.prefix = [np.frombuffer(p, dtype=np.float64) for p in prefix]
        self.cay = np.array(states.cay, dtype=np.int64)
        self.inverse = np.array([row.index(0) for row in states.cay], dtype=np.int64)
        self.nodes = array("q")
        self.ranges = array("q")
        self.batches = array("q")
        self.walked = self.batched = self.bulk = 0

    def flush(self):
        nodes = np.array(self.nodes, dtype=np.int64).reshape(-1, 2).T
        ranges = np.array(self.ranges, dtype=np.int64).reshape(-1, 4).T
        batches = np.array(self.batches, dtype=np.int64).reshape(-1, 4)
        del self.nodes[:], self.ranges[:], self.batches[:]
        self.walked += nodes.shape[1]
        # each stage's inputs are freed before the next, which keeps the
        # chunk's peak memory down
        batch_nodes, batch_ranges = self._expand(batches)
        del batches
        units = [self._count_nodes(*np.concatenate((nodes, batch_nodes), axis=1))]
        del nodes, batch_nodes
        ranges = np.concatenate((ranges, batch_ranges), axis=1)
        del batch_ranges
        self.bulk += int((ranges[3] - ranges[2]).sum())
        units.extend(self._count_leaves(*self._pieces(*ranges[:, ranges[3] > ranges[2]])))
        del ranges
        self._tally_principal(*(np.concatenate(col) for col in zip(*units)))

    def _expand(self, batches):
        """The nodes (n, state) of the batch rows: for each site j in
        [s3, split), the nodes n*q_j^e <= x, with their leaf ranges
        (n, state, j + 1, end)."""
        counts = batches[:, 3] - batches[:, 2]
        row = np.repeat(np.arange(len(batches)), counts)
        j = np.arange(row.size) + np.repeat(batches[:, 2] - np.cumsum(counts) + counts, counts)
        n, parent = batches[row, 0], batches[row, 1]
        q = self.norms[j]
        cj = self.cls0[j] - 1
        n = n * q
        nodes = [np.empty((2, 0), dtype=np.int64)]
        ranges = [np.empty((4, 0), dtype=np.int64)]
        e = 1
        while n.size:
            s = self.states.push_many(parent, cj, e)
            nodes.append((n, s))
            ranges.append(
                (n, s, j + 1, np.maximum(np.searchsorted(self.norms, self.x // n, "right"), j + 1))
            )
            more = n <= self.x // q
            n, parent, j, q, cj = n[more] * q[more], parent[more], j[more], q[more], cj[more]
            e += 1
        nodes = np.concatenate(nodes, axis=1)
        self.batched += nodes.shape[1]
        return nodes, np.concatenate(ranges, axis=1)

    def _count_nodes(self, n, s):
        """Count the nodes n of states s by class, each one ideal; return the
        principal ones as units of one ideal."""
        b = np.searchsorted(self.cps, n, "left")
        c = np.array(self.states.cls, dtype=np.int64)[s]
        self._count_classes(b * self.h + c, None)
        principal = c == 0
        b, s, n = b[principal], s[principal], n[principal]
        return b, s, np.ones(b.size, dtype=np.int64), 1.0 / n

    def _pieces(self, n, s, a, z):
        """The nonempty leaf ranges split at the checkpoints, as (bucket,
        n, state, lo, hi)."""
        pieces = []
        last = len(self.cps) - 1
        for b, cp in enumerate(self.cps.tolist()):
            hi = z if b == last else np.clip(np.searchsorted(self.norms, cp // n, "right"), a, z)
            keep = hi > a
            pieces.append((np.full(np.count_nonzero(keep), b), n[keep], s[keep], a[keep], hi[keep]))
            a = hi
        return (np.concatenate(col) for col in zip(*pieces))

    def _count_leaves(self, b, n, s, lo, hi):
        """Count the leaves of each piece per class; return the groups of
        principal leaves as units, one per piece and its principal class."""
        node_c = np.array(self.states.cls, dtype=np.int64)[s]
        leaf_pc = self.inverse[node_c]
        units = []
        for cc in range(self.h):
            ia = np.searchsorted(self.positions[cc], lo)
            k = np.searchsorted(self.positions[cc], hi)
            k -= ia
            self._count_classes(b * self.h + self.cay[node_c, cc], k)
            # the leaves of the class inverse to their node's are principal
            sel = (leaf_pc == cc) & (k > 0)
            ia, k = ia[sel], k[sel]
            pre = self.prefix[cc]
            units.append((
                b[sel],
                self.states.push_many(s[sel], np.full(ia.size, cc), 1),
                k,
                (pre[ia + k] - pre[ia]) / n[sel],
            ))
        return units

    def _count_classes(self, keys, weights):
        # float64 bincount weights are exact: a chunk holds far fewer than
        # 2**53 ideals
        counts = np.bincount(keys, weights=weights, minlength=len(self.buckets) * self.h)
        for b, bucket in enumerate(self.buckets):
            for c, v in enumerate(counts[b * self.h : (b + 1) * self.h].tolist()):
                bucket.class_counts[c] += int(v)

    def _tally_principal(self, ub, us, uk, ut):
        """Add the units: uk principal ideals of state us in bucket ub,
        whose 1/N sum is ut."""
        ustates, inv = np.unique(us, return_inverse=True)
        stats = [self.states.stats(s) for s in ustates.tolist()]
        nu = len(stats)
        counts = np.bincount(ub * nu + inv, weights=uk)
        for key in np.flatnonzero(counts).tolist():
            b, u = divmod(key, nu)
            k = int(counts[key])
            nuv, prof, irred = stats[u][:3]
            bucket = self.buckets[b]
            bucket.nu_counts[nuv] = bucket.nu_counts.get(nuv, 0) + k
            bucket.profile_counts[prof] = bucket.profile_counts.get(prof, 0) + k
            if irred:
                bucket.irred_count += k
        buckets = self.buckets
        _add_exact([b.harm_principal for b in buckets], ut, ub)
        irred = np.array([st[2] for st in stats], dtype=bool)[inv]
        _add_exact([b.harm_irred for b in buckets], ut[irred], ub[irred])
        g = np.array([st[3] for st in stats], dtype=np.float64).reshape(nu, self.n_desc)
        for d in range(self.n_desc):
            _add_exact([b.g_sums[d] for b in buckets], g[inv, d] * uk, ub)


def _walk(system, x, cps, descs, emit=None):
    """The fast DFS over sites, for ``sweep`` and the census; the plain
    ``_principal_factorizations`` is its reference.

    At a node of norm n, let lim = x // n.  Sites q with N(q)^2 <= lim may
    have descendants.  A site with N(q)^2 > lim >= N(q) yields exactly one
    child, the leaf n*q of exponent 1, whose statistics follow from the
    node's state and the class of q alone.  Those leaves are counted in
    bulk per class from the stream positions and reciprocal-norm prefix
    sums of each class, the way pi(x/n) counts the largest prime factor in
    Lagarias-Miller-Odlyzko.  Descriptor sites are always walked, because
    the g-products depend on them.

    A node carries its state (see ``_States``) as an int id.  Without
    ``emit`` the walk records rows and a ``_Tally`` counts them in chunks of
    ``TALLY_CHUNK`` rows; it returns (buckets, walked, batched, bulk,
    nu_states).  A site q below split is penultimate when the next site's
    N^2 exceeds lim // N(q): then no node n*q^e has a walked child, only
    bulk leaves.  The test is monotone in q, so the penultimate sites form
    one range [s3, split), found by bisection on N(q_j) N(q_{j+1})^2, and
    the walk records that range as one batch row instead of walking it (the
    special leaves of Deleglise-Rivat).  Batches start past the last
    descriptor site, so no descriptor site falls in a batch or in a
    batched node's leaf range.

    Given ``emit`` (the census's), nothing is batched or tallied, and each
    principal ideal is passed on in lexicographic order of its
    factorization as ``emit(n, stats, delta, squarefull, leaf_sites)``, with
    ``stats`` its ``_States.stats`` tuple and ``squarefull`` the norm of its
    squarefull part, which the recursion carries down.  If ``leaf_sites`` is
    None the ideal is the walked node n.  Otherwise the ideals are the
    principal leaves n*q of one bulk range (their site's class is inverse to
    the node's), for q at the ascending stream positions ``leaf_sites``.
    They share every field but the norm: stats, squarefull (q has exponent
    1), and delta = the node's divisors of the principal class plus those
    of the node's class, from the class distribution of the node's divisors
    that the walk keeps on its stack for ``emit``.
    """
    norms = system._norms
    cls0 = system._cls0
    states = _States(system, descs)
    cay = states.cay
    inverse = [row.index(0) for row in cay]
    keys = states.keys
    ids = states.ids
    inc = states.inc
    desc_bit = states.desc_bit
    nsites = len(norms)
    desc_sites = sorted(desc_bit)
    batch_lo = desc_sites[-1] + 1 if desc_sites else 0
    # site j < split is penultimate at a node of norm n iff pen[j] > x // n
    nsmall = bisect_right(norms, math.isqrt(x))
    pen = [
        norms[j] * norms[j + 1] ** 2 if j + 1 < nsites else math.inf for j in range(nsmall)
    ]

    if emit is None:
        tally = _Tally(system, x, cps, len(descs), states)
        add_node = tally.nodes.extend
        add_range = tally.ranges.extend
        add_batch = tally.batches.extend
        pending = tally.ranges, tally.batches
        flush = tally.flush
        add_node((1, 0))
    else:
        positions = system._class_tables[0]
        divisor_classes = [1] + [0] * (len(cay) - 1)
        emit(1, states.stats(0), 1, 1, None)

    def leaves(a: int, z: int, n: int, c: int, sf: int, s: int):
        """The leaves n*q for the sites q at stream positions [a, z), none of
        them a descriptor site: one range row, or, given ``emit``, the
        principal ones passed on."""
        if emit is None:
            add_range((n, s, a, z))
            if len(pending[0]) + len(pending[1]) >= 4 * TALLY_CHUNK:
                flush()
            return
        pc = inverse[c]
        pos = positions[pc]
        ia = bisect_left(pos, a)
        ib = bisect_left(pos, z, ia)
        if ib > ia:
            key = keys[s] + inc[pc][1]
            ls = ids.get(key)
            if ls is None:
                ls = states.add(key, 0)
            delta = divisor_classes[0] + divisor_classes[c]
            emit(n, states.stats(ls), delta, sf, pos[ia:ib])

    def descend(j: int, n: int, c: int, sf: int, s: int):
        """Walk every node n*q^e (e >= 1) for site j, whose n*q <= x."""
        nonlocal divisor_classes
        q = norms[j]
        cj = cls0[j]
        key = keys[s] + desc_bit.get(j, 0)
        inc_j = inc[cj]
        if emit is not None:
            # divisors of n*q^e: those of n times q^k, k <= e; slot g gains
            # the count of slot g - k*cj, read through the row of the class
            # of q^-k
            dbase = divisor_classes
            back = neg = inverse[cj]
            divisor_classes = [v + dbase[t] for v, t in zip(dbase, cay[back])]
        e = 1
        n2 = n * q
        c2 = cay[c][cj]
        while True:
            s2 = ids.get(key + inc_j[e])
            if s2 is None:
                s2 = states.add(key + inc_j[e], c2)
            sf2 = sf * q**e if e > 1 else sf
            if emit is None:
                add_node((n2, s2))
            elif not c2:
                emit(n2, states.stats(s2), divisor_classes[0], sf2, None)
            children(j + 1, n2, c2, sf2, s2)
            n2 *= q
            if n2 > x:
                break
            e += 1
            c2 = cay[c2][cj]
            if emit is not None:
                back = cay[back][neg]
                divisor_classes = [v + dbase[t] for v, t in zip(divisor_classes, cay[back])]
        if emit is not None:
            divisor_classes = dbase

    def children(start: int, n: int, c: int, sf: int, s: int):
        """Every descendant of node n whose new sites lie at positions >= start."""
        if start >= nsites:
            return
        lim = x // n
        if norms[start] > lim:
            return
        end = bisect_right(norms, lim, start)
        split = bisect_right(norms, math.isqrt(lim), start, end)
        s3 = split
        if emit is None:
            lo = batch_lo if batch_lo > start else start
            if lo < split:
                s3 = bisect_right(pen, lim, lo, split)
                if s3 < split:
                    add_batch((n, s, s3, split))
        for j in range(start, s3):
            descend(j, n, c, sf, s)
        a = split
        for d in desc_sites[bisect_left(desc_sites, split) :]:
            if d >= end:
                break
            if d > a:
                leaves(a, d, n, c, sf, s)
            descend(d, n, c, sf, s)
            a = d + 1
        if end > a:
            leaves(a, end, n, c, sf, s)

    children(0, 1, 0, 1, 0)
    # descend and children call each other: break the cycle, so the walk's
    # frame and whatever emit holds are freed without the cyclic GC
    descend = children = None
    if emit is None:
        flush()
        return tally.buckets, tally.walked, tally.batched, tally.bulk, len(states.nu_memo)


def sweep(system: SiteSystem, x: int, checkpoints=None, g_descriptors=()) -> Sweep:
    """One pass over all ideals of norm <= x, aggregating every statistic the
    reports need, with cumulative snapshots at each checkpoint.

    Every float is the exactly rounded sum of its terms, so the result does
    not depend on the order in which the walk records or the tally counts.
    """
    _check_bound(system, x)
    if checkpoints is None:
        cps = (x,)
    else:
        cps = tuple(sorted(set(int(c) for c in checkpoints) | {x}))
        if any(c < 1 or c > x for c in cps):
            raise DomainError("checkpoints must lie in [1, x]")
    descs = tuple(_normalize_descriptor(d) for d in g_descriptors)
    for d in descs:
        for sid, _ in d:
            if not 0 <= sid < len(system.sites):
                raise DomainError(f"descriptor site id {sid} out of range")

    buckets, walked, batched, bulk, nu_states = _walk(system, x, cps, descs)
    visited = walked + batched
    n_ideals = sum(sum(b.class_counts) for b in buckets)
    if visited + bulk != n_ideals:
        raise RuntimeError(
            f"sweep lost ideals: {visited} visited + {bulk} bulk != {n_ideals} counted"
        )
    return Sweep(
        system=system,
        x=x,
        checkpoints=cps,
        g_descriptors=descs,
        _buckets=buckets,
        visited=visited,
        batched=batched,
        bulk=bulk,
        nu_states=nu_states,
    )


# ---------------------------------------------------------------------------
# CSV output


def census_header(h: int) -> str:
    omega_cols = ",".join(f"omega_{i}" for i in range(1, h + 1))
    Omega_cols = ",".join(f"Omega_{i}" for i in range(1, h + 1))
    return f"norm,class,{omega_cols},{Omega_cols},nu,delta,is_irreducible,squarefull_norm"


def _census_columns(system: SiteSystem, x: int):
    """The census as columns (norm, tail, tails), norm-ascending with ties
    broken by the factorization.

    Row i is (norm[i], *tails[tail[i]]) in ``census_header`` column order;
    ``tails`` lists the column tail after the norm of each walked principal
    node and of each range of principal leaves, which share every column
    but the norm.  Each row is taken from the walk's state as ``_walk``
    passes its ideal on, and collected as two int64 columns.
    """
    norms = system._norms
    norm_col = array("q")
    tail_col = array("q")
    tails = []

    def emit(n, stats, delta, squarefull, leaf_sites):
        nu, (omega, _), irred, _, Omega = stats
        tail_col.extend(itertools.repeat(len(tails), 1 if leaf_sites is None else len(leaf_sites)))
        tails.append((1, *omega, *Omega, nu, delta, int(irred), squarefull))
        if leaf_sites is None:
            norm_col.append(n)
        else:
            norm_col.extend([n * norms[j] for j in leaf_sites])

    _check_bound(system, x)
    _walk(system, x, (x,), (), emit)
    norm = np.frombuffer(norm_col, dtype=np.int64)
    # the walk is lexicographic in the factorization, so a stable sort by
    # norm alone breaks ties by the factorization
    order = np.argsort(norm, kind="stable")
    return norm[order], np.frombuffer(tail_col, dtype=np.int64)[order], tails


def census_rows(system: SiteSystem, x: int) -> list[tuple[int, ...]]:
    """The census rows as int tuples in ``census_header`` column order,
    norm-ascending with ties broken by the factorization."""
    norm, tail, tails = _census_columns(system, x)
    return [(n, *tails[t]) for n, t in zip(norm.tolist(), tail.tolist())]


def write_census_csv(system: SiteSystem, x: int, out) -> int:
    """Write the principal-ideal census, one row per principal ideal, in
    ``census_rows`` order.  Returns the row count."""
    norm, tail, tails = _census_columns(system, x)
    out.write(census_header(system.group.h) + "\n")
    # one tail per column, so a chunk's tail rows gather as contiguous columns
    table = np.array(tails, dtype=np.int64).T.copy()
    for lo in range(0, norm.size, CSV_CHUNK):
        write_int_csv(out, (norm[lo : lo + CSV_CHUNK], *table[:, tail[lo : lo + CSV_CHUNK]]))
    return norm.size
