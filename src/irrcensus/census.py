"""Census of principal ideals: exact irreducible-divisor and divisor counts.

A ``SiteSystem`` holds the class group and the prime-site stream as
columns (``quadratic.SiteColumns``); ``system.sites`` builds a
``PrimeSite`` only for a site that is indexed or iterated over.  The walks
below read the norms and classes from Python lists made once per system.

Ideals of norm <= x are enumerated by depth-first search over the prime
sites in increasing norm order.  The walk keeps each node's state on its
stack and updates it in O(h) per site pushed or exponent raised: the class,
omega/Omega, each class's subset-count polynomial truncated at the largest
type component of that class, and (in full-walk mode) the class
distribution of the node's divisors, whose principal entry is delta.  nu
is a sum over the types of products of those polynomials' coefficients, so
it depends only on the tuple of polynomials; there are few distinct tuples,
and the walk memoizes nu on them.  The irreducible-divisor count nu is also
computed three independent ways from a factorization (per-class subset-count
products, exhaustive sub-multiset search, and a squarefull/squarefree
split), which the tests hold to exact agreement with each other and with
the walk.

``_walk`` is the one DFS over sites.  ``sweep`` aggregates the report
statistics in one pass of it that walks one by one only the nodes that can
have children; the leaves n*q whose last prime q satisfies N(q)^2 > x // n
(about 99% of all ideals at x = 1e7) are counted in bulk per class from
per-class prefix tables.  In full-walk mode every ideal is visited:
``census_rows`` (the census CSV, one walk and one sort) builds its rows
from the walk's state and ``harmonic_sums`` sums 1/N.
``enumerate_principal`` takes only the factorizations from the walk and
computes each field with the oracle functions, as the reference for both.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add, itemgetter
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
    ClassGroup,
    FieldSpec,
    SiteColumns,
    as_site_columns,
    class_group,
    prime_sites_up_to,
)
from .synth import SynthModel, synth_sites

DEFAULT_BRUTE_OMEGA_BOUND = 24
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
    def _class_tables(self) -> tuple[list[list[int]], list[list[float]]]:
        """Per class: the stream positions of its sites, and compensated
        prefix sums of 1/N over them (entry i sums the first i sites).
        Built on first use by ``sweep`` or ``stats.landau_check``."""
        cls0 = self.sites.class_index - 1
        order = np.argsort(cls0, kind="stable")
        cuts = np.cumsum(np.bincount(cls0, minlength=max(self.group.h, 1)))[:-1]
        positions: list[list[int]] = []
        prefix: list[list[float]] = []
        for pos, inverse in zip(np.split(order, cuts), np.split(1.0 / self.sites.norm[order], cuts)):
            positions.append(pos.tolist())
            # _Kahan.add inlined (every term is positive), in stream order
            s = comp = 0.0
            pre = [0.0]
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


def nu_bruteforce(
    fact: Factorization,
    ordering: ClassOrdering,
    max_multiplicity: int = DEFAULT_BRUTE_OMEGA_BOUND,
) -> int:
    """Oracle: enumerate every sub-multiset, keep the principal ones with no
    principal proper nonempty sub-multiset, count them.

    Uses coordinate arithmetic directly (no shared operation table with the
    exact path).
    """
    big_omega = sum(en.exponent for en in fact.entries)
    if big_omega > max_multiplicity:
        raise ResourceLimitError(
            f"Omega={big_omega} exceeds the brute-force bound {max_multiplicity}"
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


def _each_principal(system: SiteSystem, x: int, emit) -> _Bucket:
    """Run ``_walk`` in full-walk mode: every ideal of norm <= x is visited
    one by one and ``emit`` is called on each principal one.  Returns the
    walk's single bucket."""
    _check_bound(system, x)
    buckets, _, _, _ = _walk(system, x, (x,), (), emit)
    return buckets[0]


def enumerate_principal(
    system: SiteSystem, x: int
) -> Iterator[tuple[Factorization, CensusRecord]]:
    """Every principal ideal of norm <= x, DFS order, fully populated.

    Only the factorizations come from the walk; every record field is
    computed from the factorization by the oracle functions, so this is an
    independent reference for ``sweep`` and ``census_rows``.
    """
    norms = system._norms
    cls0 = system._cls0
    walked = []

    def emit(n, sites, exps, depth, Omega, stats, delta):
        walked.append((n, tuple(sites[:depth]), tuple(exps[:depth])))

    _each_principal(system, x, emit)
    sc = system.constants
    h = system.group.h
    for n, sites, exps in walked:
        entries = tuple(
            FactorEntry(j, norms[j], cls0[j] + 1, e) for j, e in zip(sites, exps)
        )
        fact = Factorization(entries=entries, norm=n, class_index=1)
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

    The ideals are walked one by one, never counted in bulk, so this stays a
    reference for ``sweep``.  ``exact=True`` accumulates Fractions (only
    sensible for small x).
    """
    exact_sums = [Fraction(0), Fraction(0)]

    def add_exact(n, sites, exps, depth, Omega, stats, delta):
        exact_sums[0] += Fraction(1, n)
        if stats[2]:
            exact_sums[1] += Fraction(1, n)

    b = _each_principal(system, x, add_exact if exact else lambda *row: None)
    if exact:
        return HarmonicSums(exact_sums[0], exact_sums[1], b.irred_count)
    return HarmonicSums(b.harm_principal.value, b.harm_irred.value, b.irred_count)


# ---------------------------------------------------------------------------
# aggregated sweep


class _Kahan:
    """Neumaier compensated summation; merge order is fixed by the caller."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, v: float):
        t = self.s + v
        if abs(self.s) >= abs(v):
            self.c += (self.s - t) + v
        else:
            self.c += (v - t) + self.s
        self.s = t

    def merge(self, other: "_Kahan"):
        self.add(other.s)
        self.add(other.c)

    @property
    def value(self) -> float:
        return self.s + self.c


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
        self.g_sums = [_Kahan() for _ in range(n_desc)]
        self.harm_principal = _Kahan()
        self.harm_irred = _Kahan()
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

    ``visited`` counts the ideals walked one by one and ``bulk`` the leaves
    counted in bulk; they sum to ``at(x).n_ideals``.  ``nu_states`` counts
    the distinct tuples of per-class subset-count polynomials the walk met,
    which is how many times nu was summed over the types; every other
    principal ideal or bulk-counted group of leaves read nu from the memo.
    None of the three enters a report.
    """

    system: SiteSystem
    x: int
    checkpoints: tuple[int, ...]
    g_descriptors: tuple
    _buckets: list
    visited: int
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


def _add_shifted(poly: tuple, base: tuple, e: int) -> tuple:
    """poly + t^e * base, truncated at the degree of poly.

    A class's subset-count polynomial is the product over its sites of
    1 + t + ... + t^e.  Pushing a site multiplies the saved polynomial
    ``base`` by 1 + t, which is ``_add_shifted(base, base, 1)``; raising
    that site's exponent to e adds ``base`` shifted by e.
    """
    return poly[:e] + tuple(map(add, poly[e:], base))


def _walk(system, x, cps, descs, emit=None):
    """The one DFS over sites: returns (buckets, visited, bulk, nu_states).

    At a node of norm n, let lim = x // n.  Sites q with N(q)^2 <= lim may
    have descendants and are walked one by one.  A site with
    N(q)^2 > lim >= N(q) yields exactly one child, the leaf n*q of exponent
    1, whose statistics follow from the node's state and the class of q
    alone.  Those leaves are counted in bulk per class from the stream
    positions and reciprocal-norm prefix sums of each class, the way pi(x/n)
    counts the largest prime factor in Lagarias-Miller-Odlyzko.  Descriptor
    sites are always walked, because the g-products depend on them.

    The node's state is updated in O(h) as sites are pushed and popped:
    omega/Omega, each class's subset-count polynomial truncated at
    ``max_type_component`` (see ``_add_shifted``) and, in full-walk mode,
    the class distribution of the node's divisors, whose principal entry is
    delta.  Each pushing frame saves what it replaces and restores it on
    the way out.  nu depends only on the tuple of per-class polynomials, so
    it is looked up in a memo local to this walk and summed over the types
    only on a miss; ``nu_states`` is the number of distinct tuples met.  A
    bulk-counted leaf's state is the node's, with its class's polynomial
    times 1 + t.

    Given ``emit`` (full-walk mode), no leaf is counted in bulk and each
    principal ideal is passed on as ``emit(n, sites, exps, depth, Omega,
    stats, delta)``: the first ``depth`` entries of the walk's own stack
    lists ``sites``/``exps`` are its stream positions and exponents,
    ascending, and ``stats`` is its ``principal_stats`` tuple.  Ideals come
    in lexicographic order of their factorization.
    """
    norms = system._norms
    cls0 = system._cls0
    positions, inv_prefix = system._class_tables
    cay = system.ordering.cayley()
    inverse = [row.index(0) for row in cay]
    h = max(system.group.h, 1)
    sc = system.constants
    types_set = {tv.t for tv in sc.types}
    # per type, its nonzero components as (class, t_i)
    type_terms = tuple(
        tuple((i, ti) for i, ti in enumerate(tv.t) if ti) for tv in sc.sorted_types
    )
    maxt = sc.max_type_component
    nsites = len(norms)
    last = len(cps) - 1
    buckets = [_Bucket(h, len(descs)) for _ in cps]

    # per descriptor: (site index, g-value if it divides, g-value if not)
    desc_info = tuple(
        tuple(
            (sid, (1.0 - 1.0 / norms[sid]) ** e, (-1.0 / norms[sid]) ** e)
            for sid, e in desc
        )
        for desc in descs
    )
    desc_sites = sorted({sid for desc in descs for sid, _ in desc})
    desc_set = frozenset(desc_sites)
    present: set[int] = set()  # descriptor sites dividing the current node

    omega = [0] * h
    Omega = [0] * h
    polys = [(1,) + (0,) * m for m in maxt]
    divisor_classes = [1] + [0] * (h - 1)
    nu_memo: dict[tuple, int] = {}
    stack_site = [0] * 80
    stack_exp = [0] * 80
    visited = 0
    bulk = 0

    def principal_stats():
        """(nu, profile key, irreducible, g-products) of the node on the stack."""
        key = tuple(polys)
        nuv = nu_memo.get(key)
        if nuv is None:
            nuv = 0
            for terms in type_terms:
                prod = 1
                for i, ti in terms:
                    prod *= key[i][ti]
                    if not prod:
                        break
                nuv += prod
            nu_memo[key] = nuv
        m = 0
        for i in range(h):
            dv = Omega[i] - omega[i]
            if dv > m:
                m = dv
        gs = []
        for entries in desc_info:
            prod = 1.0
            for sid, g_in, g_out in entries:
                prod *= g_in if sid in present else g_out
            gs.append(prod)
        return nuv, (tuple(omega), m), tuple(Omega) in types_set, gs

    def tally(b: _Bucket, stats, k: int, inv_sum: float):
        """Add k principal ideals sharing ``stats`` whose 1/N sum is inv_sum."""
        nuv, key, irred, gs = stats
        b.nu_counts[nuv] = b.nu_counts.get(nuv, 0) + k
        b.profile_counts[key] = b.profile_counts.get(key, 0) + k
        b.harm_principal.add(inv_sum)
        if irred:
            b.irred_count += k
            b.harm_irred.add(inv_sum)
        for acc, g in zip(b.g_sums, gs):
            acc.add(g * k)

    def visit(n: int, c: int, depth: int):
        nonlocal visited
        visited += 1
        b = buckets[bisect_left(cps, n)]
        b.class_counts[c] += 1
        if not c:
            stats = principal_stats()
            tally(b, stats, 1, 1.0 / n)
            if emit is not None:
                emit(n, stack_site, stack_exp, depth, Omega, stats, divisor_classes[0])

    def leaves(a: int, z: int, n: int, c: int):
        """Bulk-count the leaves n*q for the sites q at stream positions
        [a, z), none of them a descriptor site, split at every checkpoint."""
        nonlocal bulk
        bulk += z - a
        row = cay[c]
        pc = inverse[c]
        leaf_stats = None
        lo = a
        i = bisect_left(cps, n * norms[a])
        while lo < z:
            hi = z if i == last else bisect_right(norms, cps[i] // n, lo, z)
            if hi > lo:
                b = buckets[i]
                for cc in range(h):
                    pos = positions[cc]
                    ia = bisect_left(pos, lo)
                    ib = bisect_left(pos, hi, ia)
                    k = ib - ia
                    if not k:
                        continue
                    b.class_counts[row[cc]] += k
                    if cc == pc:
                        if leaf_stats is None:
                            base = polys[pc]
                            polys[pc] = _add_shifted(base, base, 1)
                            omega[pc] += 1
                            Omega[pc] += 1
                            leaf_stats = principal_stats()
                            omega[pc] -= 1
                            Omega[pc] -= 1
                            polys[pc] = base
                        pre = inv_prefix[pc]
                        tally(b, leaf_stats, k, (pre[ib] - pre[ia]) / n)
                lo = hi
            i += 1

    def descend(j: int, n: int, c: int, depth: int):
        """Walk every node n*q^e (e >= 1) for site j, whose n*q <= x."""
        nonlocal divisor_classes
        q = norms[j]
        cj = cls0[j]
        omega[cj] += 1
        Omega[cj] += 1
        stack_site[depth] = j
        stack_exp[depth] = 1
        tracked = j in desc_set
        if tracked:
            present.add(j)
        base = polys[cj]
        polys[cj] = _add_shifted(base, base, 1)
        top = maxt[cj]
        # divisors of n*q^e: those of n times q^k, k <= e; slot g gains the
        # count of slot g - k*cj, read through the row of the class of q^-k.
        # Only full-walk mode reads delta, and the sweep is cheaper without.
        dbase = divisor_classes
        if emit is not None:
            back = neg = inverse[cj]
            divisor_classes = [v + dbase[s] for v, s in zip(dbase, cay[back])]
        e = 1
        n2 = n * q
        c2 = cay[c][cj]
        while True:
            visit(n2, c2, depth + 1)
            children(j + 1, n2, c2, depth + 1)
            n2 *= q
            if n2 > x:
                break
            e += 1
            stack_exp[depth] = e
            Omega[cj] += 1
            c2 = cay[c2][cj]
            if e <= top:
                polys[cj] = _add_shifted(polys[cj], base, e)
            if emit is not None:
                back = cay[back][neg]
                divisor_classes = [v + dbase[s] for v, s in zip(divisor_classes, cay[back])]
        Omega[cj] -= e
        omega[cj] -= 1
        polys[cj] = base
        divisor_classes = dbase
        if tracked:
            present.discard(j)

    def children(start: int, n: int, c: int, depth: int):
        """Every descendant of node n whose new sites lie at positions >= start."""
        if start >= nsites:
            return
        lim = x // n
        if norms[start] > lim:
            return
        end = bisect_right(norms, lim, start)
        split = end if emit is not None else bisect_right(norms, math.isqrt(lim), start, end)
        for j in range(start, split):
            descend(j, n, c, depth)
        a = split
        for d in desc_sites[bisect_left(desc_sites, split) :]:
            if d >= end:
                break
            if d > a:
                leaves(a, d, n, c)
            descend(d, n, c, depth)
            a = d + 1
        if end > a:
            leaves(a, end, n, c)

    visit(1, 0, 0)
    children(0, 1, 0, 0)
    # descend and children call each other: break the cycle, so the walk's
    # frame and whatever emit holds are freed without the cyclic GC
    descend = children = None
    return buckets, visited, bulk, len(nu_memo)


def sweep(system: SiteSystem, x: int, checkpoints=None, g_descriptors=()) -> Sweep:
    """One pass over all ideals of norm <= x, aggregating every statistic the
    reports need, with cumulative snapshots at each checkpoint.

    Float accumulators are summed in the fixed order of a single DFS, so the
    result is deterministic.
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

    buckets, visited, bulk, nu_states = _walk(system, x, cps, descs)
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
        bulk=bulk,
        nu_states=nu_states,
    )


# ---------------------------------------------------------------------------
# CSV output


def census_header(h: int) -> str:
    omega_cols = ",".join(f"omega_{i}" for i in range(1, h + 1))
    Omega_cols = ",".join(f"Omega_{i}" for i in range(1, h + 1))
    return f"norm,class,{omega_cols},{Omega_cols},nu,delta,is_irreducible,squarefull_norm"


def census_rows(system: SiteSystem, x: int) -> list[tuple[int, ...]]:
    """The census rows as int tuples in ``census_header`` column order,
    norm-ascending with ties broken by the factorization.  Each row is built
    from the walk's state as its ideal is visited."""
    norms = system._norms
    rows = []

    def emit(n, sites, exps, depth, Omega, stats, delta):
        nu, (omega, _), irred, _ = stats
        squarefull = 1
        for i in range(depth):
            if exps[i] >= 2:
                squarefull *= norms[sites[i]] ** exps[i]
        rows.append((n, 1, *omega, *Omega, nu, delta, int(irred), squarefull))

    _each_principal(system, x, emit)
    # the walk is lexicographic in the factorization, so a stable sort by
    # norm alone breaks ties by the factorization
    rows.sort(key=itemgetter(0))
    return rows


def write_census_csv(system: SiteSystem, x: int, out) -> int:
    """Write the principal-ideal census, one row per principal ideal, in
    ``census_rows`` order.  Returns the row count."""
    rows = census_rows(system, x)
    out.write(census_header(system.group.h) + "\n")
    for row in rows:
        out.write(",".join(map(str, row)) + "\n")
    return len(rows)
