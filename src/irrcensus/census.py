"""Census of principal ideals: exact irreducible-divisor and divisor counts.

A ``SiteSystem`` holds the class group and the prime-site stream as
columns (``quadratic.SiteColumns``); the walks read the norms and classes
through ``memoryview``s of numpy columns, with no per-site copy.

Ideals of norm <= x are enumerated by depth-first search over the prime
sites in increasing norm order.  Each node carries its state as an int id
(``_States``): per class, Omega and the counts of its sites by exponent,
which fix the class, omega and each class's subset-count polynomial.  nu
is a sum over the types of products of those polynomials' coefficients.
``_States.stats_many`` resolves a list of states at once with numpy, once
per tally chunk in the sweep and once per walk in the census.  nu is also
computed three independent ways from a factorization (per-class
subset-count products, exhaustive sub-multiset search, and a
squarefull/squarefree split), which the tests hold to exact agreement.

``_walk`` is the fast DFS, for the sweep and the census.  It visits in
Python only the nodes that can have descendants three levels down, and
the nodes of descriptor sites, and returns its recording, an int64 array
of rows: walked nodes, ranges of leaves n*q with N(q)^2 > x // n (about
99% of all ideals at x = 1e7), batches of penultimate sites, whose nodes
have only leaves, and two-level batches of the sites one level up, whose
nodes have only a batch and leaves.  ``sweep`` expands the batches and
tallies the recording in numpy a slice of ``TALLY_CHUNK`` rows at a time
into one band per checkpoint, counting the leaves per class with
one lookup in a class-major site index (``SiteSystem._class_slices``) and
summing their 1/N from the per-class prefix sums beside it, with exact
integer float sums.  After the last slice it adds the bands up once into
a ``Totals`` per checkpoint, each float rounded once, so no report float
depends on the walk order; ``Sweep.at`` looks one up.  The census
(``_census_columns``) reads the same recording in place.  It expands the
rows into a norm column and a column of ids into a table of the other
columns, finding the principal leaves of each range through the same
index, and orders them by one sort on (norm, the row's place in the
lexicographic order of the factorization).  ``write_census_csv`` and
``write_census_json`` format that table once per census, into one label
per tail (``quadratic.label_table``), and write every row with one
``quadratic.write_int_csv`` call on two columns, the norm and the tail's
label, so a row costs its norm's digits and a gather of its label's bytes.

The references share none of that machinery: ``_principal_factorizations``
is a plain recursive walk over every ideal, ``enumerate_principal``
computes each record field with the oracle functions, and
``harmonic_sums`` sums the 1/N terms with ``math.fsum``.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
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
    zero_sum_vectors,
)
from .errors import DomainError, ResourceLimitError, as_int
from .quadratic import (
    FieldSpec,
    SiteColumns,
    class_group,
    label_table,
    prime_sites_up_to,
    write_int_csv,
)
from .synth import SynthModel, synth_sites

BRUTE_OMEGA_BOUND = 24
DIVISOR_BOUND = 10**6


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

    ``sites`` is a ``SiteColumns``: numpy columns norm, splitting and cls
    (0-based classes, one byte per site for h <= 256), where a site's id is
    its stream position.  The walkers read ``_norms`` and ``_cls0``,
    zero-copy ``memoryview``s of the norm and class columns: indexing one,
    or running ``bisect`` on one, gives Python ints at about a list's speed,
    where a numpy array would build a scalar per access.  The tally, the
    census and ``stats.landau_check`` read the sites of one class through
    ``_class_slices``.
    """

    group: GroupSpec
    sites: SiteColumns
    limit: int
    field: FieldSpec | None = None

    def __post_init__(self):
        sites = self.sites
        if not isinstance(sites, SiteColumns):
            raise DomainError(f"sites must be a SiteColumns, not {type(sites).__name__}")
        if np.any(sites.norm[1:] < sites.norm[:-1]):
            raise DomainError("sites must be sorted by norm")
        # the walks index the Cayley table by class, and ``_States`` counts
        # exponents below 64 only
        if np.any(sites.norm[:1] < 2):
            raise DomainError("site norms must be >= 2")
        if np.any((sites.cls < 0) | (sites.cls >= self.group.h)):
            raise DomainError(f"site classes must lie in [0, {self.group.h})")
        object.__setattr__(self, "_norms", memoryview(sites.norm))
        object.__setattr__(self, "_cls0", memoryview(sites.cls))

    @property
    def constants(self) -> StructuralConstants:
        return structural_constants(self.group)

    @cached_property
    def ordering(self) -> ClassOrdering:
        """The canonical ordering of ``group``, which the classes follow."""
        return canonical_ordering(self.group)

    @cached_property
    def _by_class(self) -> np.ndarray:
        """The class-major site index: the key ``cls << b | position`` of
        every site, ascending, so in (class, position) order.  2**b is the
        least power of 2 above len(sites), so that ``_sites`` decodes a key
        with one ``&`` instead of an int64 division."""
        cls = self.sites.cls
        site = np.argsort(cls, kind="stable")
        site |= cls[site].astype(np.int64) << len(cls).bit_length()
        return site

    @cached_property
    def _class_prefix(self) -> np.ndarray:
        """Per class in turn, the ``_neumaier_prefix`` sums of 1/N over its
        sites in ``_by_class`` order: class c's entry i of ``_by_class``
        starts its sum at index i + c.  Built on first use by ``sweep`` or
        ``stats.landau_check``."""
        n, h = len(self.sites), self.group.h
        starts, counts = self._class_slices(np.arange(h), 0, n)
        out = np.empty(n + h)
        for c, (i, k) in enumerate(zip(starts.tolist(), counts.tolist())):
            site = self._sites(np.arange(i, i + k))
            out[i + c : i + c + k + 1] = _neumaier_prefix(1.0 / self.sites.norm[site])
        return out

    def _class_slices(self, c, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """(i, k): the sites of class c at positions [lo, hi) are entries
        i..i+k-1 of ``_by_class``, and their 1/N sum is ``_class_prefix[i +
        c + k] - _class_prefix[i + c]``.  c, lo and hi broadcast."""
        base = np.asarray(c, dtype=np.int64) << len(self.sites).bit_length()
        i = np.searchsorted(self._by_class, base | lo)
        return i, np.searchsorted(self._by_class, base | hi) - i

    def _sites(self, entries: np.ndarray) -> np.ndarray:
        """The stream positions of the sites at ``entries``, an index
        array, of ``_by_class``, decoded in a copy (``take`` refuses a
        slice, whose view would write through to the index)."""
        site = self._by_class.take(entries)
        site &= (1 << len(self.sites).bit_length()) - 1
        return site


def _neumaier_prefix(terms: np.ndarray) -> np.ndarray:
    """Neumaier-compensated prefix sums of positive terms (entry i sums the
    first i), bit-equal to the loop over them: ``add.accumulate`` is
    strictly sequential, so ``s`` is its running sum and ``err`` its steps,
    each (prev - s) + term, or (term - s) + prev where prev < term."""
    out = np.empty(terms.size + 1)
    out[0] = 0.0
    s = np.cumsum(terms, out=out[1:])
    prev = out[:-1]
    err = prev - s
    err += terms
    swap = np.flatnonzero(prev < terms)
    err[swap] = (terms[swap] - s[swap]) + prev[swap]
    s += np.cumsum(err, out=err)
    return out


def for_field(d: int, limit: int) -> SiteSystem:
    """Site system for Q(sqrt(d))."""
    cg = class_group(d)
    sites = prime_sites_up_to(cg, limit)
    return SiteSystem(group=cg.group, sites=sites, limit=limit, field=cg.field)


def for_synth(model: SynthModel, limit: int) -> SiteSystem:
    return SiteSystem(group=model.group, sites=synth_sites(model, limit), limit=limit)


def make_factorization(system: SiteSystem, entries) -> Factorization:
    """Build a Factorization from (site_id, exponent) pairs."""
    built = []
    norm = 1
    cls = system.ordering.identity
    for site_id, exp in sorted(entries):
        site_id, exp = as_int(site_id, "site id"), as_int(exp, "exponent")
        if exp < 1:
            raise DomainError("exponents must be >= 1")
        if not 0 <= site_id < len(system.sites):
            raise DomainError(f"site id {site_id} out of range")
        # Python ints: the product of norms outgrows int64
        site_norm, site_cls = int(system.sites.norm[site_id]), int(system.sites.cls[site_id])
        built.append(FactorEntry(site_id, site_norm, site_cls + 1, exp))
        norm *= site_norm**exp
        for _ in range(exp):
            cls = system.ordering.add(cls, system.ordering.elements[site_cls])
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

    Uses ``zero_sum_vectors``'s coordinate arithmetic (no shared operation
    table with the exact path).
    """
    big_omega = sum(en.exponent for en in fact.entries)
    if big_omega > BRUTE_OMEGA_BOUND:
        raise ResourceLimitError(
            f"Omega={big_omega} exceeds the brute-force bound {BRUTE_OMEGA_BOUND}"
        )
    classes = [ordering.elements[en.class_index - 1] for en in fact.entries]
    exps = [en.exponent for en in fact.entries]
    zero_sum = list(zero_sum_vectors(ordering.group, classes, exps))
    return sum(
        not any(w != v and all(a <= b for a, b in zip(w, v)) for w in zero_sum)
        for v in zero_sum
    )


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


def delta_exact(fact: Factorization, ordering: ClassOrdering) -> int:
    """Number of principal ideal divisors, by dynamic programming over the
    class distribution of divisors (never enumerates them individually)."""
    ndiv = math.prod(en.exponent + 1 for en in fact.entries)
    if ndiv > DIVISOR_BOUND:
        raise ResourceLimitError(f"{ndiv} divisors exceed the bound {DIVISOR_BOUND}")
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
    """Oracle for delta_exact: walk every divisor exponent vector.  The 1
    is the unit ideal, the empty divisor."""
    classes = [ordering.elements[en.class_index - 1] for en in fact.entries]
    exps = [en.exponent for en in fact.entries]
    return 1 + sum(1 for _ in zero_sum_vectors(ordering.group, classes, exps))


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
    as_int(x, "norm bound")
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


def _add_exact(sums: list, values: np.ndarray, labels: np.ndarray):
    """Add each finite float64 of ``values`` exactly into ``sums[label]``, a
    Python int that holds a float sum times 2**1074.

    A float times 2**1074 is its 53-bit significand shifted left by
    max(biased exponent - 1, 0).  The significands, signed, are cut into
    26-bit halves and summed per (label, exponent) in int64, which cannot
    overflow below 2**36 terms; only the few group sums become Python ints.
    The int is the exact sum whatever the order of the terms, and
    ``int / (1 << _SCALE_BITS)`` rounds it once.
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
        sums[label] += ((a << 26) + b) << shift


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
    """Aggregated census statistics: one ``Totals`` per checkpoint, built
    once when the walk ends.

    ``visited`` counts the ideals counted one by one: the nodes the walk
    visits in Python and the ``batched`` nodes it leaves to the numpy
    tally, those of both levels of the two-level batches among them.
    ``bulk`` counts the leaves counted in bulk, summed from the lengths of
    the leaf ranges; ``visited + bulk`` equals ``at(x).n_ideals``.
    ``nu_states`` counts the distinct tuples of per-class subset-count
    polynomials of the principal ideals, which is how many times nu was
    summed over the types; every other principal ideal or bulk-counted
    group of leaves read nu from the memo.  None of the four enters a
    report.  Every float is the exactly rounded sum of
    its terms, so it does not depend on the order of the walk or of the
    tally.
    """

    system: SiteSystem
    x: int
    checkpoints: tuple[int, ...]
    g_descriptors: tuple
    totals: tuple[Totals, ...]
    visited: int
    batched: int
    bulk: int
    nu_states: int

    def at(self, x: int) -> Totals:
        """The stored ``Totals`` of checkpoint x, not a copy: callers read
        its dicts and must not change them."""
        if x not in self.checkpoints:
            raise DomainError(f"{x} is not a sweep checkpoint {self.checkpoints}")
        return self.totals[self.checkpoints.index(x)]


def _normalize_descriptor(desc) -> tuple[tuple[int, int], ...]:
    out = tuple(sorted((as_int(s, "descriptor site id"), as_int(e, "exponent")) for s, e in desc))
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
    one lookup in ``ids``.  ``cls`` holds each state's class, an
    ``array`` that numpy reads in place (``classes``).  nu depends only on
    the tuple of polynomials; ``nu_keys`` holds those met by
    ``stats_many``, so its size is the number of nu states met.
    """

    def __init__(self, system: SiteSystem, descs):
        sc = system.constants
        self.cay = system.ordering.cayley()
        self.inverse = np.array([row.index(0) for row in self.cay], dtype=np.int64)
        # one row per type, in sorted order, and each type's bytes
        self.types = np.array([tv.t for tv in sc.sorted_types], dtype=np.intp)
        self.type_bytes = set(_byte_rows(self.types.astype(np.uint8)).tolist())
        self.maxt = sc.max_type_component
        self.offsets = [0, *itertools.accumulate(8 * (m + 1) for m in self.maxt)]
        # every norm is >= 2 (``SiteSystem`` checks it), so exponents stay below 64
        self.inc = [
            [(e << off) + (1 << off + 8 * min(e, m)) if e else 0 for e in range(64)]
            for off, m in zip(self.offsets, self.maxt)
        ]
        norms = system._norms
        desc_sites = sorted({sid for desc in descs for sid, _ in desc})
        self.desc_bit = {sid: 1 << self.offsets[-1] + i for i, sid in enumerate(desc_sites)}
        self.nbytes = self.offsets[-1] // 8 + (len(desc_sites) + 7) // 8
        # per descriptor: (bit of its site, g-value if it divides, if not)
        self.desc_info = tuple(
            tuple(
                (self.desc_bit[sid], (1.0 - 1.0 / norms[sid]) ** e, (-1.0 / norms[sid]) ** e)
                for sid, e in desc
            )
            for desc in descs
        )
        self.keys = [0]
        self.cls = array("q", [0])
        self.ids = {0: 0}
        # per class: its site counts -> polynomial id; polynomial -> its id
        self.class_polys: list[dict] = [{} for _ in self.maxt]
        self.polys: list[dict] = [{} for _ in self.maxt]
        self.nu_keys: set = set()

    def add(self, key: int, c: int) -> int:
        """The id of a state not in ``ids``, of class c."""
        t = self.ids[key] = len(self.keys)
        self.keys.append(key)
        self.cls.append(c)
        return t

    def classes(self, s: np.ndarray) -> np.ndarray:
        """The classes of the states s, gathered from a view of ``cls``
        that is dropped at once: ``add`` cannot grow an ``array`` while a
        view of it lives."""
        return np.frombuffer(self.cls, dtype=np.int64)[s]

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

    def stats_many(self, ids: list[int]) -> tuple[np.ndarray, ...]:
        """(nu, omega, Omega, m, irreducible, g) of a principal ideal of
        each state in ``ids`` from its key's bytes, a row each; m = max(0,
        Omega_i - omega_i), g has a column per descriptor.  nu sums int64
        terms, one per type, which the product of the state's polynomials'
        coefficient sums bounds; that product must stay below 2**62."""
        n, h = len(ids), len(self.maxt)
        raw = b"".join([self.keys[s].to_bytes(self.nbytes, "little") for s in ids])
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, self.nbytes)
        starts = [off // 8 for off in self.offsets[:-1]]
        wide = rows[:, : self.offsets[-1] // 8].astype(np.int64)
        Omega = wide[:, starts]
        omega = np.add.reduceat(wide, starts, axis=1) - Omega
        poly = np.empty((n, h), dtype=np.intp)
        bound = np.ones(n)
        for i, (off, m) in enumerate(zip(self.offsets, self.maxt)):
            counts = _byte_rows(rows[:, off // 8 + 1 : off // 8 + 1 + m])
            fields, inverse = np.unique(counts, return_inverse=True)
            memo, polys = self.class_polys[i], self.polys[i]
            for field in fields.tolist():
                if field not in memo:
                    # the class's sites of exponent k (k = m: or more, which
                    # truncates at degree m the same way)
                    exps = [k for k, count in enumerate(field, 1) for _ in range(count)]
                    coeffs = tuple(_bounded_subset_counts(exps, m))
                    memo[field] = polys.setdefault(coeffs, len(polys))
            poly[:, i] = np.array([memo[f] for f in fields.tolist()], dtype=np.intp)[inverse]
            bound *= np.array([float(sum(c)) for c in polys])[poly[:, i]]
        self.nu_keys.update(map(tuple, poly.tolist()))
        if np.any(bound >= 2.0**62):
            raise ResourceLimitError("nu of a state may pass the int64 bound 2**62")
        # a row per type: gathering rows is far faster than a 2-D fancy index
        terms = np.ones((len(self.types), n), dtype=np.int64)
        for i, polys in enumerate(self.polys):
            terms *= np.array(list(polys), dtype=np.int64)[poly[:, i]].T[self.types[:, i]]
        Omega_bytes = _byte_rows(rows[:, starts]).tolist()
        irreducible = np.array([b in self.type_bytes for b in Omega_bytes], dtype=bool)
        g = np.ones((n, len(self.desc_info)))
        for d, entries in enumerate(self.desc_info):
            # multiplied in descriptor order from 1.0, as a scalar loop would
            for bit, g_in, g_out in entries:
                byte, k = divmod(bit.bit_length() - 1, 8)
                g[:, d] *= np.where(rows[:, byte] >> k & 1, g_in, g_out)
        m = np.maximum((Omega - omega).max(axis=1), 0)
        return terms.sum(axis=0), omega, Omega, m, irreducible, g


def _byte_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D uint8 array as one bytes value each, so that
    ``np.unique`` compares whole rows, far faster than with ``axis=0``."""
    return np.ascontiguousarray(a).view(f"V{a.shape[1]}").ravel()


#: Rows of the walk's recording that ``sweep`` tallies at once, which
#: bounds the tally's temporaries by a slice instead of the recording.  At
#: d = -5, x = 1e8 a row stands for about 5,000 ideals (28,313 rows), so a
#: slice stands for about 10M; slices of 8192 rows peaked 25 MB higher.
TALLY_CHUNK = 2048


class _Tally:
    """The numpy tally of the walk's recording into checkpoint bands.

    ``flush`` takes a slice of the recording ``_walk`` returns, expands each
    two-level batch into its nodes, their batches and their leaf ranges,
    then each batch into its nodes n*q^e and their leaf ranges
    (``_expand_batches``), splits
    every range at the checkpoints, counts its leaves per class with one
    (class, range) lookup, ``SiteSystem._class_slices``, tallies the
    principal ideals per (band, state) with ``bincount`` and adds the
    slice's float terms into the exact sums at once.  Each term is the
    float the walked tally would add: 1.0/n for a principal node,
    the difference of two ``_class_prefix`` entries over n for a group of
    principal leaves of one range and band, and g*k for each group of k.

    Band b holds the ideals of norm in (cps[b - 1], cps[b]]: its ideals per
    class in row b of ``class_counts``, a ``Counter`` each of nu values and
    of (omega, m) profiles, its irreducible count, and in ``sums`` its float
    sums times 2**1074 as Python ints, one list per quantity (principal
    1/N, irreducible 1/N, then each g-descriptor).  ``totals`` adds the
    bands up once every slice is in.
    """

    def __init__(self, system: SiteSystem, x: int, cps, states: _States):
        self.system = system
        self.x = x
        self.states = states
        self.h = len(states.cay)
        self.class_counts = np.zeros((len(cps), self.h), dtype=np.int64)
        self.nu_counts = [Counter() for _ in cps]
        self.profile_counts = [Counter() for _ in cps]
        self.irred_counts = [0] * len(cps)
        self.sums = [[0] * len(cps) for _ in range(2 + len(states.desc_info))]
        self.cps = np.array(cps, dtype=np.int64)
        self.norms = system.sites.norm
        self.cay = np.array(states.cay, dtype=np.int64)
        self.batched = self.bulk = 0

    def totals(self) -> tuple[Totals, ...]:
        """The cumulative ``Totals`` at each checkpoint: running sums over
        the bands in checkpoint order, each float rounded once."""
        class_counts = np.cumsum(self.class_counts, axis=0).tolist()
        sums = [list(itertools.accumulate(band_sums)) for band_sums in self.sums]
        irred_counts = list(itertools.accumulate(self.irred_counts))
        nu_counts, profile_counts = Counter(), Counter()
        scale = 1 << _SCALE_BITS
        out = []
        for b, cp in enumerate(self.cps.tolist()):
            nu_counts.update(self.nu_counts[b])
            profile_counts.update(self.profile_counts[b])
            principal, irreducible, *g_sums = (v[b] / scale for v in sums)
            out.append(Totals(
                x=cp,
                h=self.h,
                class_counts=tuple(class_counts[b]),
                nu_counts=dict(nu_counts),
                profile_counts=dict(profile_counts),
                g_sums=tuple(g_sums),
                harmonic_principal=principal,
                harmonic_irreducible=irreducible,
                irreducible_count=irred_counts[b],
            ))
        return tuple(out)

    def flush(self, rows):
        nodes, ranges, batches, pairs = (rows[rows[:, 5] == kind] for kind in range(4))
        first, second = _expand_batches(self.system, self.x, self.states, pairs, batches)
        _, j1, _, n1, s1, split, end1 = first
        _, j, _, n, s, end = second
        self.batched += n1.size + n.size
        n_all, s_all = (np.concatenate(col) for col in ((nodes[:, 0], n1, n), (nodes[:, 1], s1, s)))
        units = [self._count_nodes(n_all, s_all)]
        ranges = np.concatenate(
            (ranges[:, :4].T, (n1, s1, split, end1), (n, s, j + 1, end)), axis=1
        )
        self.bulk += int((ranges[3] - ranges[2]).sum())
        units.append(self._count_leaves(*self._pieces(*ranges[:, ranges[3] > ranges[2]])))
        self._tally_principal(*(np.concatenate(col) for col in zip(*units)))

    def _count_nodes(self, n, s):
        """Count the nodes n of states s by class, each one ideal; return the
        principal ones as units of one ideal."""
        b = np.searchsorted(self.cps, n, "left")
        c = self.states.classes(s)
        self._count_classes(b * self.h + c, None)
        principal = c == 0
        b, s, n = b[principal], s[principal], n[principal]
        return b, s, np.ones(b.size, dtype=np.int64), 1.0 / n

    def _pieces(self, n, s, a, z):
        """The nonempty leaf ranges split at the checkpoints, as (band,
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
        """Count the leaves of each piece per class; return its groups of
        principal leaves as one unit, a group per piece that has any."""
        node_c = self.states.classes(s)
        classes = np.arange(self.h)[:, None]
        i, k = self.system._class_slices(classes, lo, hi)
        self._count_classes((b * self.h + self.cay[node_c, classes]).ravel(), k.ravel())
        # the leaves of the class inverse to their node's are principal
        pc = self.states.inverse[node_c]
        piece = np.arange(pc.size)
        i, k = i[pc, piece] + pc, k[pc, piece]
        sel = k > 0
        i, k, pc = i[sel], k[sel], pc[sel]
        prefix = self.system._class_prefix
        return (
            b[sel],
            self.states.push_many(s[sel], pc, 1),
            k,
            (prefix[i + k] - prefix[i]) / n[sel],
        )

    def _count_classes(self, keys, weights):
        # float64 bincount weights are exact: a chunk holds far fewer than
        # 2**53 ideals
        counts = np.bincount(keys, weights=weights, minlength=self.class_counts.size)
        self.class_counts += counts.reshape(self.class_counts.shape).astype(np.int64)

    def _tally_principal(self, ub, us, uk, ut):
        """Add the units: uk principal ideals of state us in band ub,
        whose 1/N sum is ut."""
        ustates, inv = np.unique(us, return_inverse=True)
        nu, omega, _, m, irreducible, g = self.states.stats_many(ustates.tolist())
        nus = nu.tolist()
        profiles = list(zip(map(tuple, omega.tolist()), m.tolist()))
        irreds = irreducible.tolist()
        counts = np.bincount(ub * len(nus) + inv, weights=uk)
        for key in np.flatnonzero(counts).tolist():
            b, u = divmod(key, len(nus))
            k = int(counts[key])
            self.nu_counts[b][nus[u]] += k
            self.profile_counts[b][profiles[u]] += k
            if irreds[u]:
                self.irred_counts[b] += k
        harm_principal, harm_irred, *g_sums = self.sums
        _add_exact(harm_principal, ut, ub)
        irred = irreducible[inv]
        _add_exact(harm_irred, ut[irred], ub[irred])
        for d, band_sums in enumerate(g_sums):
            _add_exact(band_sums, g[inv, d] * uk, ub)


def _expand(system: SiteSystem, x: int, states: _States, batches: np.ndarray):
    """The nodes n*q_j^e <= x, e >= 1, of each batch row (n, state, a, b,
    ...) and site j in [a, b), as int64 columns (row, j, e, norm, state,
    end): the node's children are the sites at [j + 1, end)."""
    norms = system.sites.norm
    counts = batches[:, 3] - batches[:, 2]
    row = np.repeat(np.arange(len(batches)), counts)
    j = np.arange(row.size) + np.repeat(batches[:, 2] - np.cumsum(counts) + counts, counts)
    q = norms[j]
    cj = system.sites.cls[j]
    n, parent = batches[row, 0] * q, batches[row, 1]
    out = [np.empty((6, 0), dtype=np.int64)]
    e = 1
    while n.size:
        s = states.push_many(parent, cj, e)
        end = np.maximum(np.searchsorted(norms, x // n, "right"), j + 1)
        out.append(np.stack((row, j, np.full(n.size, e), n, s, end)))
        more = n <= x // q
        row, n, parent, j, q, cj = row[more], n[more] * q[more], parent[more], j[more], q[more], cj[more]
        e += 1
    return np.concatenate(out, axis=1)


def _expand_batches(system: SiteSystem, x: int, states: _States, pairs, batches):
    """Expand the two-level batches ``pairs`` (kind-3 rows of ``_walk``),
    then the batches ``batches`` (kind-2 rows) and one batch per node of a
    two-level batch.  Returns (first, second): first holds the nodes of the
    two-level batches as ``_expand``'s columns with split before end (the
    node's batch is the sites at [j + 1, split), all penultimate, and its
    leaves those at [split, end)), and second the ``_expand`` columns of
    every batch, whose row indexes ``batches`` and then first's nodes."""
    row, j, e, n, s, end = _expand(system, x, states, pairs)
    norms = system.sites.norm
    squares = norms[: np.searchsorted(norms, math.isqrt(x), "right")] ** 2
    split = np.maximum(np.searchsorted(squares, x // n, "right"), j + 1)
    batches = np.concatenate((batches[:, :4], np.column_stack((n, s, j + 1, split))))
    return (row, j, e, n, s, split, end), _expand(system, x, states, batches)


def _walk(system: SiteSystem, x: int, states: _States) -> np.ndarray:
    """The fast DFS over sites, for ``sweep`` and the census; the plain
    ``_principal_factorizations`` is its reference.

    At a node of norm n, let lim = x // n.  Sites q with N(q)^2 <= lim may
    have descendants.  A site with N(q)^2 > lim >= N(q) yields exactly one
    child, the leaf n*q of exponent 1, whose statistics follow from the
    node's state and the class of q alone.  Those leaves are recorded as
    ranges of stream positions, to be counted in bulk per class the way
    pi(x/n) counts the largest prime factor in Lagarias-Miller-Odlyzko.
    Descriptor sites are always walked, because the g-products depend on
    them.  A site q below split is penultimate when the next site's N^2
    exceeds lim // N(q): then no node n*q^e has a walked child, only bulk
    leaves.  The test is monotone in q, so the penultimate sites form one
    range [s3, split), found by bisection on N(q_j) N(q_{j+1})^2, and the
    walk records that range as one batch row instead of walking it (the
    special leaves of Deleglise-Rivat).  One level up, a site q_j is
    antepenultimate when N(q_j) N(q_{j+1}) N(q_{j+2})^2 > lim: then site
    j + 1, and so every later site, is penultimate at each node n*q_j^e,
    whose children are one batch and leaves.  Those sites form the range
    [s4, s3), recorded as one row of two-level batches.  Deeper levels are
    not batched: expanding them at once would hold whole levels of the
    tree instead of a slice of rows.  Batches start past the last
    descriptor site, so no descriptor site falls in a batch or in a batched
    node's leaf range.

    A node carries its state (see ``_States``) as an int id.  The walk
    returns its recording, an int64 (R, 6) array of rows (n, state, a, b,
    P, kind), a zero-copy view of the ``array`` it fills.  P is the row
    index of the walked node n:

    - kind 0, the walked node n itself, of site a and exponent b; P is its
      parent's (-1 for the unit ideal, row 0);
    - kind 1, the leaves n*q for the sites q at stream positions [a, b),
      none of them a descriptor site;
    - kind 2, a batch: the nodes n*q^e for the penultimate sites q at
      [a, b), and their leaves (``_expand``);
    - kind 3, a two-level batch: the nodes n*q^e for the antepenultimate
      sites q at [a, b), each with its batch and leaves
      (``_expand_batches``).

    A node's batch rows and leaf ranges are recorded after its walked
    descendants, so the rows come in lexicographic order of the
    factorizations of their first ideals.
    """
    norms = system._norms
    cls0 = system._cls0
    cay = states.cay
    keys = states.keys
    ids = states.ids
    inc = states.inc
    desc_bit = states.desc_bit
    nsites = len(norms)
    desc_sites = sorted(desc_bit)
    batch_lo = desc_sites[-1] + 1 if desc_sites else 0
    # site j < split is penultimate at a node of norm n iff pen[j] > x // n,
    # and antepenultimate iff pen2[j] > x // n
    nsmall = bisect_right(norms, math.isqrt(x))
    pen = [
        norms[j] * norms[j + 1] ** 2 if j + 1 < nsites else math.inf for j in range(nsmall)
    ]
    pen2 = [norms[j] * pen[j + 1] if j + 1 < nsmall else math.inf for j in range(nsmall)]
    rows = array("q")
    add = rows.extend

    def descend(j: int, n: int, c: int, s: int, p: int):
        """Walk every node n*q^e (e >= 1) for site j, whose n*q <= x."""
        q = norms[j]
        cj = cls0[j]
        key = keys[s] + desc_bit.get(j, 0)
        inc_j = inc[cj]
        e = 1
        n2 = n * q
        c2 = cay[c][cj]
        while True:
            s2 = ids.get(key + inc_j[e])
            if s2 is None:
                s2 = states.add(key + inc_j[e], c2)
            add((n2, s2, j, e, p, 0))
            children(j + 1, n2, c2, s2, len(rows) // 6 - 1)
            n2 *= q
            if n2 > x:
                break
            e += 1
            c2 = cay[c2][cj]

    def children(start: int, n: int, c: int, s: int, p: int):
        """Every descendant of node n, of row index p, whose new sites lie
        at positions >= start."""
        if start >= nsites:
            return
        lim = x // n
        if norms[start] > lim:
            return
        end = bisect_right(norms, lim, start)
        split = bisect_right(norms, math.isqrt(lim), start, end)
        s3 = s4 = split
        lo = batch_lo if batch_lo > start else start
        if lo < split:
            s3 = bisect_right(pen, lim, lo, split)
            s4 = bisect_right(pen2, lim, lo, s3)
        for j in range(start, s4):
            descend(j, n, c, s, p)
        if s4 < s3:
            add((n, s, s4, s3, p, 3))
        if s3 < split:
            add((n, s, s3, split, p, 2))
        a = split
        for d in desc_sites[bisect_left(desc_sites, split) :]:
            if d >= end:
                break
            if d > a:
                add((n, s, a, d, p, 1))
            descend(d, n, c, s, p)
            a = d + 1
        if end > a:
            add((n, s, a, end, p, 1))

    add((1, 0, -1, 0, -1, 0))
    children(0, 1, 0, 0, 0)
    # descend and children call each other: break the cycle, so the walk's
    # frame is freed without the cyclic GC
    descend = children = None
    return np.frombuffer(rows, dtype=np.int64).reshape(-1, 6)


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
        cps = tuple(sorted(set(as_int(c, "checkpoint") for c in checkpoints) | {x}))
        if any(c < 1 or c > x for c in cps):
            raise DomainError("checkpoints must lie in [1, x]")
    descs = tuple(_normalize_descriptor(d) for d in g_descriptors)
    for d in descs:
        for sid, _ in d:
            if not 0 <= sid < len(system.sites):
                raise DomainError(f"descriptor site id {sid} out of range")

    states = _States(system, descs)
    rows = _walk(system, x, states)
    tally = _Tally(system, x, cps, states)
    for lo in range(0, len(rows), TALLY_CHUNK):
        tally.flush(rows[lo : lo + TALLY_CHUNK])
    totals = tally.totals()
    visited = int(np.count_nonzero(rows[:, 5] == 0)) + tally.batched
    bulk, n_ideals = tally.bulk, totals[-1].n_ideals
    if visited + bulk != n_ideals:
        raise RuntimeError(
            f"sweep lost ideals: {visited} visited + {bulk} bulk != {n_ideals} counted"
        )
    return Sweep(
        system=system,
        x=x,
        checkpoints=cps,
        g_descriptors=descs,
        totals=totals,
        visited=visited,
        batched=tally.batched,
        bulk=bulk,
        nu_states=len(tally.states.nu_keys),
    )


# ---------------------------------------------------------------------------
# CSV output


def census_header(h: int) -> str:
    omega_cols = ",".join(f"omega_{i}" for i in range(1, h + 1))
    Omega_cols = ",".join(f"Omega_{i}" for i in range(1, h + 1))
    return f"norm,class,{omega_cols},{Omega_cols},nu,delta,is_irreducible,squarefull_norm"


def _census_columns(system: SiteSystem, x: int):
    """The census as int64 columns (norm, tail, table), norm-ascending with
    ties broken by the factorization: row i is (norm[i], *table[:,
    tail[i]]) in ``census_header`` order.  ``table`` has a column per
    principal node and per range of principal leaves, which share all but
    the norm; one ``stats_many`` call resolves their states.

    The nodes are the walked nodes ``_walk`` records and the batched nodes
    of its kind-2 and kind-3 rows.  Each takes its divisor counts per class
    D and its squarefull norm from its parent's: delta is D[0] for a
    principal node and D[0] + D[c] for a principal leaf of a node of class
    c.  The ideals of one row are consecutive in the order of the rows, so
    each node and leaf range sorts by a place (r, j1, e1, j2, e2) in the
    row r that holds it: a walked node or a leaf range row as (r, 0, 0, 0,
    0); a node n*q^e of a kind-2 row, then its leaves, as (r, 0, 0, q, e);
    and a node n*q1^e1 of a kind-3 row as (r, q1, e1, 0, 0), the nodes of
    its batch, each then its leaves, as (r, q1, e1, q2, e2), and its own
    leaves as (r, q1, e1, split, 0), past every site of its batch.  Rows of
    one tail that tie in norm are equal, so one sort of norm * T + the
    tail's rank orders every row.
    """
    _check_bound(system, x)
    states = _States(system, ())
    rows = _walk(system, x, states)
    R, kind = len(rows), rows[:, 5]
    ranged, batch, pair = (np.flatnonzero(kind == k) for k in (1, 2, 3))
    (row1, j1, e1, n1, s1, split, end1), (row2, j2, e2, n2, s2, end2) = _expand_batches(
        system, x, states, rows[pair], rows[batch]
    )
    r1 = pair[row1]
    # the batches: one per kind-2 row, then one per node of a kind-3 row;
    # their nodes' places start with the batch's (r, q1, e1)
    head = np.concatenate(((batch, 0 * batch, 0 * batch), (r1, j1, e1)), axis=1)
    # the nodes: the recorded rows (kind 0 only), then those of the kind-3
    # rows, then those of the batches
    N1, N2 = n1.size, n2.size
    first, second = np.arange(R, R + N1), np.arange(R + N1, R + N1 + N2)
    n, s, j, e = np.concatenate((rows[:, :4].T, (n1, s1, j1, e1), (n2, s2, j2, e2)), axis=1)
    parent = np.concatenate(
        (rows[:, 4], rows[r1, 4], np.concatenate((rows[batch, 4], first))[row2])
    )
    node = np.concatenate((kind == 0, np.ones(N1 + N2, dtype=bool)))
    place = np.zeros((5, n.size), dtype=np.int64)
    place[0, :R] = np.arange(R)
    place[:3, first] = r1, j1, e1
    place[:3, second] = head[:, row2]
    place[3:, second] = j2, e2
    # the leaf ranges: the leaves of node v are the sites at stream
    # positions [a, z) times v
    first_leaves = place[:, first]
    first_leaves[3] = split
    rplace = np.concatenate((place[:, ranged], first_leaves, place[:, second]), axis=1)
    a, z, v = np.concatenate(
        (rows[ranged, 2:5].T, (split, end1, first), (j2 + 1, end2, second)), axis=1
    )
    norms, cls0 = system.sites.norm, system.sites.cls
    cay = np.array(states.cay, dtype=np.int64)
    D = np.zeros((n.size, len(cay)), dtype=np.int64)
    D[0, 0] = 1
    sf = np.ones(n.size, dtype=np.int64)
    todo = np.flatnonzero(node)[1:]
    while todo.size:
        # the nodes whose parent is done (D[p, 0] >= 1 counts its divisor
        # 1): the divisors of n*q^e are those of n times q^k, k <= e, so
        # slot g + k*c gains the parent's slot g
        ready = D[parent[todo], 0] > 0
        at, todo = todo[ready], todo[~ready]
        p, c = parent[at], cls0[j[at]]
        kc = np.zeros(at.size, dtype=np.int64)
        for k in range(int(e[at].max()) + 1):
            sel = e[at] >= k
            D[at[sel][:, None], cay[:, kc[sel]].T] += D[p[sel]]
            kc = cay[kc, c]
        sf[at] = sf[p] * np.where(e[at] > 1, norms[j[at]] ** e[at], 1)
    # the tails: the principal nodes, then the ranges' principal leaves, the
    # sites of the class inverse to the node's
    cls = states.classes(s)
    hit = node & (cls == 0)
    c = cls[v]
    pc = states.inverse[c]
    ia, k = system._class_slices(pc, a, z)
    rplace, v, c, pc, ia, k = (col[..., k > 0] for col in (rplace, v, c, pc, ia, k))
    tail_s = np.concatenate((s[hit], states.push_many(s[v], pc, 1)))
    delta = np.concatenate((D[hit, 0], D[v, 0] + D[v, c]))
    tail_sf = np.concatenate((sf[hit], sf[v]))
    # stable, so a node's tail stays before its leaves'
    order = np.lexsort(np.concatenate((place[:, hit], rplace), axis=1)[::-1])
    T = order.size
    rank = np.argsort(order)
    # one int64 per row: norm * T + rank stays below x**2 + x, as T <= x
    key = np.concatenate((n[hit], np.repeat(n[v], k)))
    key[T - k.size :] *= norms[
        system._sites(np.arange(k.sum()) + np.repeat(ia - np.cumsum(k) + k, k))
    ]
    key *= T
    key += np.repeat(rank, np.concatenate((np.ones(T - k.size, dtype=np.int64), k)))
    key.sort()
    norm, tail = np.divmod(key, T)
    ustates, inv = np.unique(tail_s[order], return_inverse=True)
    nu, omega, Omega, _, irreducible, _ = states.stats_many(ustates.tolist())
    per_state = np.column_stack((np.ones_like(nu), omega, Omega, nu))[inv].T
    return norm, tail, np.vstack((per_state, delta[order], irreducible[inv], tail_sf[order]))


def census_rows(system: SiteSystem, x: int) -> list[tuple[int, ...]]:
    """The census rows as int tuples in ``census_header`` column order,
    norm-ascending with ties broken by the factorization."""
    norm, tail, table = _census_columns(system, x)
    tails = table.T.tolist()
    return [(n, *tails[t]) for n, t in zip(norm.tolist(), tail.tolist())]


def write_census_csv(system: SiteSystem, x: int, out) -> int:
    """Write the principal-ideal census, one row per principal ideal, in
    ``census_rows`` order.  Returns the row count."""
    norm, tail, table = _census_columns(system, x)
    out.write(census_header(system.group.h) + "\n")
    write_int_csv(out, (norm, (tail, label_table(table))))
    return norm.size


def write_census_json(system: SiteSystem, x: int, out) -> int:
    """Write ``stats.dumps({"rows": census_rows(system, x), "schema":
    census_header(h).split(",")}) + "\\n"`` a chunk of rows at a time.
    Returns the row count."""
    norm, tail, table = _census_columns(system, x)
    out.write('{"rows":[')
    write_int_csv(_JsonLists(out), (norm, (tail, label_table(table))))
    header = census_header(system.group.h).replace(",", '","')
    out.write(f'],"schema":["{header}"]}}\n')
    return norm.size


class _JsonLists:
    """A sink that writes each chunk of CSV lines a,b,c to ``out`` as the
    JSON lists [a,b,c], comma-separated across chunks."""

    def __init__(self, out):
        self.out, self.sep = out, "["

    def write(self, lines: str) -> None:
        self.out.write(self.sep + lines[:-1].replace("\n", "],[") + "]")
        self.sep = ",["
