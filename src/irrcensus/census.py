"""Census of principal ideals: exact irreducible-divisor and divisor counts.

A ``SiteSystem`` holds the class group and the prime-site stream as
columns (``quadratic.SiteColumns``); the walks read the norms and classes
through ``memoryview``s of numpy columns, with no per-site copy.

Ideals of norm <= x are enumerated by depth-first search over the prime
sites in increasing norm order.  Each node carries its state as a row of
uint64 words (``_States``): per class, Omega and the counts of its sites
by exponent, which fix the class, omega and each class's subset-count
polynomial.  nu is a sum over the types of products of those polynomials'
coefficients.  ``_States.stats_many`` resolves the distinct states of a
tally slice, or of the census, at once with numpy.  nu is also
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

#: Terms that one pass of ``_add_exact`` sums at most.  A signed 26-bit half
#: is below 2**27 in magnitude, so a float64 sum of fewer than 2**26 of them
#: is an exact integer.
_EXACT_CHUNK = 1 << 25


def _add_exact(sums: list, values: np.ndarray, labels: np.ndarray):
    """Add each finite float64 of ``values`` exactly into ``sums[label]``, a
    Python int that holds a float sum times 2**1074.

    A float times 2**1074 is its 53-bit significand shifted left by
    max(biased exponent - 1, 0).  The significands, signed, are cut into
    26-bit halves, and each half is summed per (label, exponent) by one
    float64 ``bincount``, exact on ``_EXACT_CHUNK`` terms at a time; only
    the few group sums become Python ints.  The int is the exact sum
    whatever the order of the terms, and ``int / (1 << _SCALE_BITS)``
    rounds it once.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    for lo in range(0, bits.size, _EXACT_CHUNK):
        chunk = bits[lo : lo + _EXACT_CHUNK]
        shift = chunk >> 52
        shift &= 0x7FF
        mant = chunk & ((1 << 52) - 1)
        # the implicit bit of a normal float
        mant |= np.minimum(shift, 1) << 52
        np.negative(mant, out=mant, where=chunk < 0)
        shift -= 1
        np.maximum(shift, 0, out=shift)
        least = int(shift.min())
        span = int(shift.max()) - least + 1
        # the key of (label, shift) is label * span + shift - least
        key = shift
        key += labels[lo : lo + _EXACT_CHUNK] * span - least
        high = np.bincount(key, weights=mant >> 26)
        mant &= (1 << 26) - 1
        low = np.bincount(key, weights=mant)
        groups = np.flatnonzero((high != 0) | (low != 0))
        for k, a, b in zip(
            groups.tolist(),
            high[groups].astype(np.int64).tolist(),
            low[groups].astype(np.int64).tolist(),
        ):
            label, e = divmod(k, span)
            sums[label] += ((a << 26) + b) << e + least


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
    polynomials, on which nu depends, met among the principal ideals.
    None of the four enters a report.  Every float is the exactly rounded
    sum of its terms, so it does not depend on the order of the walk or
    of the tally.
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
    """The node states of one walk, one row of uint64 words each.

    A state's key packs 8-bit fields: per class i, Omega_i and the number
    of its sites with exponent k for k = 1..m_i, where m_i =
    ``max_type_component[i]`` and larger exponents count as m_i; and above
    those, one bit per descriptor site dividing the node.  The class's
    subset-count polynomial truncated at degree m_i is the product of
    (1 + t + ... + t^k) over those sites, so it and omega_i follow from the
    counts.  Pushing a site of class cj with exponent e adds ``inc[cj][e]``
    (plus the site's descriptor bit).  Row s of ``words`` is state s's key
    as ``nw`` little-endian words, and ``cls[s]`` its class.  No state is
    interned: the walk appends a row per walked node, ``push_many`` the
    rows it pushes in numpy, which ``truncate`` drops, and ``distinct``
    finds equal rows.  Adding ``inc_words`` word by word equals the int
    addition, as no field passes 255: every norm is >= 2, so Omega_i <= 62.
    nu depends only on the tuple of polynomials; ``nu_keys`` holds those
    met by ``stats_many``.
    """

    def __init__(self, system: SiteSystem, descs):
        sc = system.constants
        self.table = np.array(system.ordering.cayley(), dtype=np.int64)
        self.inverse = np.argmin(self.table, axis=1)  # the identity is class 0
        # power[c, e] is the class of a site of class c to the power e < 64:
        # the powers repeat with period the group's exponent, the first k
        # with every class to the power k the identity
        power = [np.zeros(len(self.table), dtype=np.int64)]
        while len(power) == 1 or power[-1].any():
            power.append(self.table[power[-1], np.arange(len(self.table))])
        self.power = np.stack(power[:-1], axis=1)[:, np.arange(64) % (len(power) - 1)]
        # one row per type, in sorted order, and each type's bytes as words
        self.types = np.array([tv.t for tv in sc.sorted_types], dtype=np.intp)
        self.type_words = _words(self.types.astype(np.uint8))
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
        self.nw = (self.offsets[-1] + len(desc_sites) + 63) // 64
        # inc_words[cj, e] is inc[cj][e] as a row of words
        raw = b"".join(k.to_bytes(8 * self.nw, "little") for row in self.inc for k in row)
        self.inc_words = np.frombuffer(raw, dtype=np.uint64).reshape(len(self.table), 64, self.nw)
        # per descriptor: (bit of its site, g-value if it divides, if not)
        self.desc_info = tuple(
            tuple(
                (self.desc_bit[sid], (1.0 - 1.0 / norms[sid]) ** e, (-1.0 / norms[sid]) ** e)
                for sid, e in desc
            )
            for desc in descs
        )
        # an odd multiplier, which with the shift mixes the words of a row
        self.mix = np.uint64(0x9E3779B97F4A7C15)
        self.words = array("Q", bytes(8 * self.nw))
        self.cls = array("q", [0])
        # per class: its site counts -> polynomial id; polynomial -> its id
        self.class_polys: list[dict] = [{} for _ in self.maxt]
        self.polys: list[dict] = [{} for _ in self.maxt]
        self.nu_keys: set = set()

    def rows(self, s: np.ndarray) -> np.ndarray:
        """The words of the states s, a row each, gathered from a view of
        ``words`` dropped at once: an ``array`` cannot grow while viewed."""
        return np.frombuffer(self.words, dtype=np.uint64).reshape(-1, self.nw)[s]

    def classes(self, s: np.ndarray) -> np.ndarray:
        """The classes of the states s, gathered as ``rows`` does."""
        return np.frombuffer(self.cls, dtype=np.int64)[s]

    def group_rows(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(first, inv) for a 2-D uint64 array: the index of one row of each
        distinct value, and each row's index among those.  Rows are keyed
        by one uint64, a hash of their words (the word itself for one
        word), and told apart by their words on a collision."""
        keys = words[:, 0]
        for word in words.T[1:]:
            keys = (keys ^ keys >> 29) * self.mix + word
        # any row of a group serves as its first: they are equal
        distinct, inv = np.unique(keys, return_inverse=True)
        first = np.empty(distinct.size, dtype=np.intp)
        first[inv] = np.arange(inv.size)
        if words.shape[1] > 1 and not np.array_equal(words[first][inv], words):
            _, first, inv = np.unique(words, axis=0, return_index=True, return_inverse=True)
        return first, inv.ravel()

    def distinct(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows of ``rows`` and each row's index among them."""
        first, inv = self.group_rows(rows)
        return rows[first], inv

    def push_many(self, s: np.ndarray, cj: np.ndarray, e) -> np.ndarray:
        """The states of the nodes of states s times q^e, for q
        non-descriptor sites of classes cj and exponents e (an array, a row
        each, or one int), appended as new rows.  Two gathers: the
        increments ``inc_words[cj, e]``, and the classes of the products
        with ``power[cj, e]``, the class of q^e."""
        t = len(self.cls)
        c = self.table[self.classes(s), self.power[cj, e]]
        # ``frombytes`` takes only buffers of one-byte items
        self.words.frombytes((self.rows(s) + self.inc_words[cj, e]).view(np.uint8))
        self.cls.frombytes(c.view(np.uint8))
        return np.arange(t, len(self.cls))

    def truncate(self, n: int):
        """Drop the states from id n on."""
        del self.words[n * self.nw :], self.cls[n:]

    def stats_many(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """(nu, omega, Omega, m, irreducible, g) of a principal ideal of the
        state of each row of words in ``rows``, a row each; m = max(0,
        Omega_i - omega_i), g has a column per descriptor.  nu sums int64
        terms, one per type, which the product of the state's polynomials'
        coefficient sums bounds; that product must stay below 2**62."""
        n, h, rows = len(rows), len(self.maxt), rows.view(np.uint8)
        starts = [off // 8 for off in self.offsets[:-1]]
        wide = rows[:, : self.offsets[-1] // 8].astype(np.int64)
        Omega = wide[:, starts]
        omega = np.add.reduceat(wide, starts, axis=1) - Omega
        poly = np.empty((n, h), dtype=np.intp)
        bound = np.ones(n)
        for i, (off, m) in enumerate(zip(self.offsets, self.maxt)):
            counts = rows[:, off // 8 + 1 : off // 8 + 1 + m]
            first, inverse = self.group_rows(_words(counts))
            memo, polys = self.class_polys[i], self.polys[i]
            fields = list(map(tuple, counts[first].tolist()))
            for field in fields:
                if field not in memo:
                    # the class's sites of exponent k (k = m: or more, which
                    # truncates at degree m the same way)
                    exps = [k for k, count in enumerate(field, 1) for _ in range(count)]
                    coeffs = tuple(_bounded_subset_counts(exps, m))
                    memo[field] = polys.setdefault(coeffs, len(polys))
            poly[:, i] = np.array([memo[f] for f in fields], dtype=np.intp)[inverse]
            bound *= np.array([float(sum(c)) for c in polys])[poly[:, i]]
        if np.any(bound >= 2.0**62):
            raise ResourceLimitError("nu of a state may pass the int64 bound 2**62")
        # nu depends on the tuple of polynomials alone: sum its terms once
        # per distinct tuple, with a row per type (gathering rows is far
        # faster than a 2-D fancy index)
        first, inv = self.group_rows(poly.view(np.uint64))
        poly = poly[first]
        self.nu_keys.update(map(tuple, poly.tolist()))
        terms = np.ones((len(self.types), len(poly)), dtype=np.int64)
        for i, (polys, m) in enumerate(zip(self.polys, self.maxt)):
            coeffs = np.array(list(polys), dtype=np.int64).reshape(len(polys), m + 1)
            terms *= coeffs[poly[:, i]].T[self.types[:, i]]
        nu = terms.sum(axis=0)[inv]
        # irreducible: the Omega vector is a type, found by grouping the
        # types' rows with the states'
        T = len(self.types)
        _, inv = self.group_rows(np.concatenate((self.type_words, _words(rows[:, starts]))))
        is_type = np.zeros(T + n, dtype=bool)
        is_type[inv[:T]] = True
        irreducible = is_type[inv[T:]]
        g = np.ones((n, len(self.desc_info)))
        for d, entries in enumerate(self.desc_info):
            # multiplied in descriptor order from 1.0, as a scalar loop would
            for bit, g_in, g_out in entries:
                byte, k = divmod(bit.bit_length() - 1, 8)
                g[:, d] *= np.where(rows[:, byte] >> k & 1, g_in, g_out)
        m = np.maximum((Omega - omega).max(axis=1), 0)
        return nu, omega, Omega, m, irreducible, g


def _words(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D uint8 array as rows of little-endian uint64 words,
    zero-padded, for ``_States.group_rows``."""
    out = np.zeros((a.shape[0], -(-a.shape[1] // 8) * 8), dtype=np.uint8)
    out[:, : a.shape[1]] = a
    return out.view(np.uint64)


#: Rows of the walk's recording that ``sweep`` tallies at once, which
#: bounds the tally's temporaries by a slice instead of the recording.  At
#: d = -5, x = 1e8 a row stands for about 5,000 ideals (28,313 rows), so a
#: slice stands for about 10M; slices of 8192 rows peaked 25 MB higher.
TALLY_CHUNK = 2048


class _Tally:
    """The numpy tally of the walk's recording into checkpoint bands.

    ``flush`` resolves a slice of the recording ``_walk`` returns in a
    number of numpy passes that does not depend on the data:

    - ``_expand_batches`` expands each two-level batch into its nodes,
      their batches and their leaf ranges, then each batch into its nodes
      n*q^e and their leaf ranges, each level with one ``_expand`` call;
    - ``_count_nodes`` counts the nodes per (band, class) with one
      ``bincount``;
    - ``_pieces`` splits every leaf range at the checkpoints, and
      ``_count_leaves`` counts its leaves per class with one (class, range)
      lookup, ``SiteSystem._class_slices``, and one ``bincount``;
    - ``_tally_principal`` resolves the distinct states of the principal
      units (``_States.distinct`` and ``stats_many``), counts the units
      per (band, nu value), per (band, profile) and per band of the
      irreducible ones with one ``bincount`` each, and adds the float terms
      of the slice into the exact sums with one ``_add_exact`` call per
      quantity.

    Each term is the float the walked tally would add: 1.0/n for a
    principal node, the difference of two ``_class_prefix`` entries over n
    for a group of principal leaves of one range and band, and g*k for
    each group of k.

    Band b holds the ideals of norm in (cps[b - 1], cps[b]]: its ideals per
    class in row b of ``class_counts``, a ``Counter`` each of nu values and
    of (omega, m) profiles, its irreducible count in ``irred_counts``, and
    in ``sums`` its float sums times 2**1074 as Python ints, one list per
    quantity (principal 1/N, irreducible 1/N, then each g-descriptor).
    ``totals`` adds the bands up once every slice is in.
    """

    def __init__(self, system: SiteSystem, x: int, cps, states: _States):
        self.system, self.x, self.states = system, x, states
        self.h = len(states.table)
        self.class_counts = np.zeros((len(cps), self.h), dtype=np.int64)
        self.nu_counts = [Counter() for _ in cps]
        self.profile_counts = [Counter() for _ in cps]
        self.irred_counts = np.zeros(len(cps), dtype=np.int64)
        self.sums = [[0] * len(cps) for _ in range(2 + len(states.desc_info))]
        self.cps = np.array(cps, dtype=np.int64)
        self.norms = system.sites.norm
        # built before any slice pushes its states, whose rows would add to its peak
        self.prefix = system._class_prefix
        self.walked = len(states.cls)
        self.batched = self.bulk = 0

    def totals(self) -> tuple[Totals, ...]:
        """The cumulative ``Totals`` at each checkpoint: running sums over
        the bands in checkpoint order, each float rounded once."""
        class_counts = np.cumsum(self.class_counts, axis=0).tolist()
        sums = [list(itertools.accumulate(band_sums)) for band_sums in self.sums]
        irred_counts = np.cumsum(self.irred_counts).tolist()
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
        ub, us, uk, ut = (np.concatenate(col) for col in zip(*units))
        # the states pushed for the slice are dropped once their rows are read
        rows = self.states.rows(us)
        self.states.truncate(self.walked)
        self._tally_principal(ub, rows, uk, ut)

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
        self._count_classes((b * self.h + self.states.table[node_c, classes]).ravel(), k.ravel())
        # the leaves of the class inverse to their node's are principal
        pc = self.states.inverse[node_c]
        piece = np.arange(pc.size)
        i, k = i[pc, piece] + pc, k[pc, piece]
        sel = k > 0
        i, k, pc = i[sel], k[sel], pc[sel]
        s = self.states.push_many(s[sel], pc, 1)
        return b[sel], s, k, (self.prefix[i + k] - self.prefix[i]) / n[sel]

    def _count_classes(self, keys, weights):
        # float64 bincount weights are exact: a chunk holds far fewer than
        # 2**53 ideals
        counts = np.bincount(keys, weights=weights, minlength=self.class_counts.size)
        self.class_counts += counts.reshape(self.class_counts.shape).astype(np.int64)

    def _tally_principal(self, ub, rows, uk, ut):
        """Add the units: uk principal ideals of the state of row ``rows`` in
        band ub, whose 1/N sum is ut.  One ``bincount`` each counts them per
        (band, nu value), per (band, profile) and per band of the
        irreducible ones, so a band's Counters take one update per distinct
        nu value and profile of the slice; one ``_add_exact`` call per
        quantity adds its float terms."""
        states, B = self.states, len(self.cps)
        rows, inv = states.distinct(rows)
        nu, omega, _, m, irreducible, g = states.stats_many(rows)
        nus, nu_id = np.unique(nu, return_inverse=True)
        # omega_i and m are at most Omega_i <= 62, so a byte each
        profile = np.column_stack((omega, m)).astype(np.uint8)
        first, profile_id = states.group_rows(_words(profile))
        profiles = [(tuple(p[:-1]), p[-1]) for p in profile[first].tolist()]
        for counters, ids, names in (
            (self.nu_counts, nu_id, nus.tolist()),
            (self.profile_counts, profile_id, profiles),
        ):
            counts = np.bincount(ids[inv] * B + ub, weights=uk)
            hit = np.flatnonzero(counts)
            for key, k in zip(hit.tolist(), counts[hit].astype(np.int64).tolist()):
                u, b = divmod(key, B)
                counters[b][names[u]] += k
        irred = irreducible[inv]
        self.irred_counts += np.bincount(ub[irred], weights=uk[irred], minlength=B).astype(np.int64)
        harm_principal, harm_irred, *g_sums = self.sums
        _add_exact(harm_principal, ut, ub)
        _add_exact(harm_irred, ut[irred], ub[irred])
        for band_sums, g_d in zip(g_sums, g.T):
            _add_exact(band_sums, g_d.take(inv) * uk, ub)


def _expand(system: SiteSystem, x: int, states: _States, batches: np.ndarray):
    """The nodes n*q_j^e <= x, e >= 1, of each batch row (n, state, a, b,
    ...) and site j in [a, b), as int64 columns (row, j, e, norm, state,
    end): the node's children are the sites at [j + 1, end).  A loop over
    the sites that take one more exponent finds each site's largest, E;
    then one ``repeat`` lays out the E nodes of every site, and one
    ``push_many`` call, with an exponent per row, pushes their states."""
    norms = system.sites.norm
    counts = batches[:, 3] - batches[:, 2]
    row = np.repeat(np.arange(len(batches)), counts)
    j = np.arange(row.size) + np.repeat(batches[:, 2] - np.cumsum(counts) + counts, counts)
    q = norms[j]
    top = batches[row, 0] * q
    E = np.ones(j.size, dtype=np.int64)
    more = np.flatnonzero(top <= x // q)
    while more.size:
        E[more] += 1
        top[more] *= q[more]
        more = more[top[more] <= x // q[more]]
    site = np.repeat(np.arange(j.size), E)
    e = np.arange(site.size) - np.repeat(np.cumsum(E) - E, E) + 1
    row, j = row[site], j[site]
    n = batches[row, 0] * q[site] ** e
    s = states.push_many(batches[row, 1], system.sites.cls[j], e)
    end = np.maximum(np.searchsorted(norms, x // n, "right"), j + 1)
    return np.stack((row, j, e, n, s, end))


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

    A walked node appends its state's row to ``states``.  The walk
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
    norms, cls0 = system._norms, system._cls0
    cay, inc, desc_bit = system.ordering.cayley(), states.inc, states.desc_bit
    nb, put = 8 * states.nw, states.words.frombytes
    classes, put_class = states.cls, states.cls.append
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

    def descend(j: int, n: int, c: int, key: int, p: int):
        """Walk every node n*q^e (e >= 1) for site j, whose n*q <= x."""
        q = norms[j]
        cj = cls0[j]
        key += desc_bit.get(j, 0)
        inc_j = inc[cj]
        e = 1
        n2 = n * q
        c2 = cay[c][cj]
        while True:
            key2 = key + inc_j[e]
            put(key2.to_bytes(nb, "little"))
            put_class(c2)
            add((n2, len(classes) - 1, j, e, p, 0))
            children(j + 1, n2, c2, key2, len(rows) // 6 - 1)
            n2 *= q
            if n2 > x:
                break
            e += 1
            c2 = cay[c2][cj]

    def children(start: int, n: int, c: int, key: int, p: int):
        """Every descendant of node n, of key ``key`` and row index p, whose
        new sites lie at positions >= start; n's state is the last in ``states``."""
        s = len(classes) - 1
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
            descend(j, n, c, key, p)
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
            descend(d, n, c, key, p)
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
        system=system, x=x, checkpoints=cps, g_descriptors=descs, totals=totals,
        visited=visited, batched=tally.batched, bulk=bulk, nu_states=len(states.nu_keys),
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
    cay = states.table
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
    rows, inv = states.distinct(states.rows(tail_s[order]))
    nu, omega, Omega, _, irreducible, _ = states.stats_many(rows)
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
