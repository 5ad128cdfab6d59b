import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import re
from array import array
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irrcensus import census, cli, stats
from irrcensus.abelian import TypeVector, structural_constants
from irrcensus.errors import DomainError, ResourceLimitError
from irrcensus.primes import prime_array
from irrcensus.quadratic import SYNTHETIC, SiteColumns, class_group
from irrcensus.synth import SynthModel
from irrcensus.abelian import cyclic_group, group_from_orders, trivial_group

from helpers import (
    class_count_by_norm_form,
    ideal_count_by_character,
    neumaier_prefix,
    principal_form_coeffs,
)


@pytest.fixture(scope="module")
def sys5():
    return census.for_field(-5, 10**4)


@pytest.fixture(scope="module")
def sys5_records(sys5):
    return list(census.enumerate_principal(sys5, 10**4))


def _fact(system, pairs):
    return census.make_factorization(system, pairs)


def test_enumerate_principal_minus5_x5(sys5):
    recs = [(rec.norm, fact.entries) for fact, rec in census.enumerate_principal(sys5, 5)]
    norms = sorted(r[0] for r in recs)
    assert norms == [1, 4, 5]
    by_norm = {r[0]: r[1] for r in recs}
    assert by_norm[1] == ()
    assert [(e.site_id, e.exponent) for e in by_norm[4]] == [(0, 2)]
    assert by_norm[5][0].norm == 5


def test_enumerate_principal_minus1_x4():
    system = census.for_field(-1, 10)
    norms = sorted(rec.norm for _, rec in census.enumerate_principal(system, 4))
    assert norms == [1, 2, 4]


def test_unit_ideal_conventions(sys5):
    recs = {rec.norm: rec for _, rec in census.enumerate_principal(sys5, 2)}
    unit = recs[1]
    assert unit.nu == 0
    assert unit.delta == 1
    assert not unit.is_irreducible
    assert unit.squarefull_norm == 1


def test_nu_classical_anchors(sys5):
    sc = sys5.constants
    two = _fact(sys5, [(0, 2)])
    three = _fact(sys5, [(1, 1), (2, 1)])
    six = _fact(sys5, [(0, 2), (1, 1), (2, 1)])
    assert census.nu_exact(two, sc)[0] == 1
    assert census.nu_exact(three, sc)[0] == 1
    nu6, by_type = census.nu_exact(six, sc)
    assert nu6 == 4
    assert by_type[TypeVector((0, 2))] == 4
    assert by_type[TypeVector((1, 0))] == 0
    # non-additivity stays non-additive
    assert census.nu_exact(two, sc)[0] + census.nu_exact(three, sc)[0] != nu6


def test_nu_bruteforce_anchors(sys5):
    ordering = sys5.ordering
    assert census.nu_bruteforce(_fact(sys5, [(0, 2), (1, 1), (2, 1)]), ordering) == 4
    assert census.nu_bruteforce(_fact(sys5, [(3, 1)]), ordering) == 1
    f36 = _fact(sys5, [(0, 2), (1, 2)])  # p2^2 p3^2, norm 36, principal
    assert f36.class_index == 1
    assert census.nu_bruteforce(f36, ordering) == census.nu_exact(f36, sys5.constants)[0]


def test_nu_squarefull_anchors(sys5):
    sc = sys5.constants
    assert census.nu_squarefull_formula(_fact(sys5, [(0, 2), (1, 1), (2, 1)]), sc) == 4
    unit = census.Factorization(entries=(), norm=1, class_index=1)
    assert census.nu_squarefull_formula(unit, sc) == 0
    assert census.nu_exact(unit, sc)[0] == 0


def test_nu_bruteforce_bound(sys5):
    big = _fact(sys5, [(0, 26)])
    with pytest.raises(ResourceLimitError):
        census.nu_bruteforce(big, sys5.ordering)


def test_delta_anchors(sys5):
    ordering = sys5.ordering
    six = _fact(sys5, [(0, 2), (1, 1), (2, 1)])
    assert census.delta_exact(six, ordering) == 6
    assert census.delta_bruteforce(six, ordering) == 6
    two = _fact(sys5, [(0, 2)])
    assert census.delta_exact(two, ordering) == 2
    unit = census.Factorization(entries=(), norm=1, class_index=1)
    assert census.delta_exact(unit, ordering) == 1


def test_delta_lower_bound_examples(sys5):
    # (6): omega = (0,3) -> 1 * (C(3,0)+C(3,2)) = 4 <= 6 <= 2^4
    assert census.delta_lower_bound((0, 3), 2) == 4
    assert census.delta_lower_bound((0, 0), 2) == 1
    # h = 1 reduces to 2^omega
    for w in range(6):
        assert census.delta_lower_bound((w,), 1) == 2**w


def test_delta_divisor_bound(sys5):
    # 20 distinct sites have 2**20 > DIVISOR_BOUND divisors, 19 have fewer
    assert 2**19 <= census.DIVISOR_BOUND < 2**20
    with pytest.raises(ResourceLimitError):
        census.delta_exact(_fact(sys5, [(j, 1) for j in range(20)]), sys5.ordering)
    delta = census.delta_exact(_fact(sys5, [(j, 1) for j in range(19)]), sys5.ordering)
    assert 1 <= delta <= 2**19


def test_is_irreducible_anchors(sys5):
    sc = sys5.constants
    assert census.is_irreducible(_fact(sys5, [(0, 1), (1, 1)]), sc)  # (1+sqrt(-5))
    assert not census.is_irreducible(_fact(sys5, [(0, 2), (1, 1), (2, 1)]), sc)
    assert census.is_irreducible(_fact(sys5, [(3, 1)]), sc)  # principal prime
    assert census.is_irreducible(_fact(sys5, [(0, 2)]), sc)  # (2)
    assert not census.is_irreducible(_fact(sys5, [(0, 4)]), sc)  # (4) = (2)(2)
    with pytest.raises(DomainError):
        census.is_irreducible(census.Factorization((), 1, 1), sc)
    nonprincipal = _fact(sys5, [(0, 1)])
    assert nonprincipal.class_index == 2
    with pytest.raises(DomainError):
        census.is_irreducible(nonprincipal, sc)


def test_nu_one_does_not_imply_irreducible(sys5):
    # (4) = p2^4 has nu = 1 yet is reducible
    sc = sys5.constants
    four = _fact(sys5, [(0, 4)])
    assert census.nu_exact(four, sc)[0] == 1
    assert not census.is_irreducible(four, sc)


def test_irreducible_matches_nu_on_census(sys5_records, sys5):
    sc = sys5.constants
    for fact, rec in sys5_records:
        if not fact.entries:
            continue
        dist = [0] * sys5.group.h
        for en in fact.entries:
            dist[en.class_index - 1] += en.exponent
        expected = rec.nu_by_type.get(TypeVector(tuple(dist)), 0) == 1 and sum(
            dist
        ) == sum(rec.Omega)
        assert census.is_irreducible(fact, sc) == (
            TypeVector(tuple(dist)) in sc.types
        )
        if census.is_irreducible(fact, sc):
            assert rec.nu >= 1


def test_max_irreducible_length_is_davenport(sys5_records, sys5):
    sc = sys5.constants
    lengths = [sum(rec.Omega) for _, rec in sys5_records if rec.is_irreducible]
    assert max(lengths) == sc.davenport
    # x = 4 already contains one of maximal length for d = -5: (2) = p2^2
    early = [
        sum(rec.Omega)
        for _, rec in census.enumerate_principal(sys5, 4)
        if rec.is_irreducible
    ]
    assert max(early) == sc.davenport


def test_census_counts_against_oracles(sys5_records, sys5):
    # total ideal count: Kronecker character divisor sum
    swp = census.sweep(sys5, 10**4)
    tot = swp.at(10**4)
    assert tot.n_ideals == ideal_count_by_character(-20, 10**4)
    # principal count: norm-form lattice points up to units
    assert len(sys5_records) == class_count_by_norm_form((1, 0, 5), 10**4, 2)
    assert tot.n_principal == len(sys5_records)


@pytest.mark.parametrize("d,w", [(-1, 4), (-3, 6), (-23, 2), (-14, 2)])
def test_principal_counts_other_fields(d, w):
    system = census.for_field(d, 2000)
    count = sum(1 for _ in census.enumerate_principal(system, 2000))
    assert count == class_count_by_norm_form(principal_form_coeffs(d), 2000, w)


def _assert_class_counts_match_the_norm_forms(d, x, checkpoints):
    # the ideals of a class are counted by the lattice points of its
    # reduced form, so every class's count is exact at every checkpoint
    cg = class_group(d)
    swp = census.sweep(census.for_field(d, x), x, checkpoints=checkpoints)
    for cp in checkpoints:
        expected = [0] * cg.field.h
        for f in cg.forms:
            expected[cg.class_index[f] - 1] = class_count_by_norm_form((f.a, f.b, f.c), cp, cg.field.w)
        assert list(swp.at(cp).class_counts) == expected, (d, cp)


# the acceptance checkpoints at d = -5, and Z/3, Z/5, Z/7, Z/10 and Z/2 x Z/4,
# where a split prime's two sites lie in inverse classes that are not equal
@pytest.mark.parametrize("d,x,checkpoints", [
    (-5, 10**7, (10**4, 10**5, 10**6, 10**7)),
    *((d, 10**6, (10**6,)) for d in (-23, -47, -71, -119, -65)),
])
def test_class_counts_match_the_norm_forms(d, x, checkpoints):
    _assert_class_counts_match_the_norm_forms(d, x, checkpoints)


@pytest.mark.slow
@pytest.mark.parametrize("d", [-5, -23])
def test_class_counts_match_the_norm_forms_at_1e8(d):
    _assert_class_counts_match_the_norm_forms(d, 10**8, (10**8,))


def test_completeness_small_norms(sys5):
    # ideal counts norm by norm against the character sum; the sweep's
    # bulk-counted leaf ranges are shortest, and most often empty, at small x
    for x in range(1, 301):
        assert census.sweep(sys5, x).at(x).n_ideals == ideal_count_by_character(-20, x)


def test_sweep_matches_enumeration(sys5, sys5_records):
    from collections import Counter

    swp = census.sweep(sys5, 10**4)
    tot = swp.at(10**4)
    assert tot.nu_counts == Counter(rec.nu for _, rec in sys5_records)
    omega_counter = Counter(rec.omega for _, rec in sys5_records)
    marginal = Counter()
    for (omega, _m), cnt in tot.profile_counts.items():
        marginal[omega] += cnt
    assert marginal == omega_counter
    assert tot.irreducible_count == sum(
        1 for _, rec in sys5_records if rec.is_irreducible
    )


REFERENCE_X = 2 * 10**4


def _ideal_norms_and_classes(system, x):
    """A plain recursive walk that visits each ideal of norm <= x.

    Returns (norm, 0-based class) of every ideal, and (norm, ((site,
    exponent), ...)) of every principal one, both in lexicographic order of
    the factorization."""
    cay = system.ordering.cayley()
    # the PrimeSite views built once: indexing the columns derives each anew
    sites = list(system.sites)
    ideals = []
    principal = []

    def rec(start, n, c, factors):
        ideals.append((n, c))
        if c == 0:
            principal.append((n, factors))
        for j in range(start, len(sites)):
            q = sites[j].norm
            if n * q > x:
                break
            m, cm, e = n, c, 0
            while m * q <= x:
                m *= q
                e += 1
                cm = cay[cm][sites[j].class_index - 1]
                rec(j + 1, m, cm, factors + ((j, e),))

    rec(0, 1, 0, ())
    return ideals, principal


class _ReferenceWalks(dict):
    """The reference censuses by system, with a one-line repr.  Hypothesis
    reprs a failing test's arguments before it replays the example, and the
    full censuses make that repr megabytes long: its large-repr warning,
    an error under the suite's ``filterwarnings``, would end the replay
    before the first draw, and hypothesis would then report a flaky
    strategy in place of the shrunk example."""

    def __repr__(self):
        return f"<reference censuses of {', '.join(self)}>"

    def _repr_pretty_(self, printer, cycle):
        printer.text(repr(self))


@pytest.fixture(scope="module")
def reference_walks():
    """Cyclic (-5, -23, -39, -47: Z/2 to Z/5), Z/2xZ/2 (-21, -30) and Z/2^3
    (-105, -1155) fields and synthetic Z/2xZ/4, Z/3xZ/3 and trivial-group
    streams, each with its full reference census.  The Z/3, Z/4 and Z/5
    fields truncate the walk's subset-count polynomials at degrees 3 to 5."""
    systems = {
        d: census.for_field(d, REFERENCE_X)
        for d in (-5, -21, -23, -30, -39, -47, -105, -1155)
    }
    for orders in ((2, 4), (3, 3), ()):
        model = SynthModel(group=group_from_orders(orders), seed=29)
        systems[orders] = census.for_synth(model, REFERENCE_X)
    return _ReferenceWalks(
        (
            str(key),
            (
                system,
                list(census.enumerate_principal(system, REFERENCE_X)),
                *_ideal_norms_and_classes(system, REFERENCE_X),
            ),
        )
        for key, system in systems.items()
    )


def test_enumerate_principal_matches_plain_walk(reference_walks):
    # enumerate_principal's walk against this file's own plain walk, which
    # visits every ideal
    for system, records, _, principal in reference_walks.values():
        got = [
            (fact.norm, tuple((en.site_id, en.exponent) for en in fact.entries))
            for fact, _ in records
        ]
        assert got == principal


def test_sweeps_of_different_groups_keep_their_own_memo(reference_walks):
    # a nu memo shared across walks would need a key that tells groups of
    # the same order apart: Z/4 (-39) and Z/2xZ/2 (-21, -30), and Z/2^3
    # (-105, -1155) and Z/2xZ/4, take turns in one process
    for key in ("-39", "-30", "-39", "-21", "-105", "(2, 4)", "-1155", "(2, 4)"):
        system, records, _, _ = reference_walks[key]
        tot = census.sweep(system, REFERENCE_X).at(REFERENCE_X)
        assert tot.nu_counts == Counter(rec.nu for _, rec in records)
        assert tot.irreducible_count == sum(rec.is_irreducible for _, rec in records)


def test_sweep_counters_anchor(sys5):
    # integer anchors for the walk's own counters at d = -5, x = 1e4
    swp = census.sweep(sys5, 10**4)
    assert (swp.visited, swp.bulk, swp.nu_states) == (1214, 12833, 32)


def _reference_sweep(system, x):
    """The reference sweep of d = -5 cut at x: checkpoints 1e4, 1e5 and
    1e6 up to x, and the default descriptors."""
    cps = [cp for cp in (10**4, 10**5, 10**6) if cp <= x]
    return census.sweep(system, x, cps, stats.default_g_descriptors(system))


@pytest.fixture(scope="module")
def sweep5_1e6():
    return _reference_sweep(census.for_field(-5, 10**6), 10**6)


def test_sweep_counters_anchor_1e6(sweep5_1e6):
    # the walk's counters and the ideal counts of the 1e6 reference sweep
    swp = sweep5_1e6
    walked = swp.visited - swp.batched
    assert (walked, swp.batched, swp.bulk, swp.nu_states) == (1260, 25574, 1378150, 65)
    tot = swp.at(10**6)
    assert (tot.n_ideals, tot.n_principal, tot.irreducible_count) == (1404984, 702491, 126020)


@pytest.mark.parametrize("chunk,x", [(1, 10**5), (97, 10**6)])
def test_tally_does_not_depend_on_the_chunk(sweep5_1e6, monkeypatch, chunk, x):
    # the sweep tallies its recording in slices of TALLY_CHUNK rows: where
    # the slices are cut changes no Totals field and no counter
    system = sweep5_1e6.system
    want = sweep5_1e6 if x == 10**6 else _reference_sweep(system, x)
    monkeypatch.setattr(census, "TALLY_CHUNK", chunk)
    got = _reference_sweep(system, x)
    assert got.totals == want.totals
    counters = ("visited", "batched", "bulk", "nu_states")
    assert [getattr(got, k) for k in counters] == [getattr(want, k) for k in counters]


_TERMS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.0, -1.0]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), terms=st.lists(_TERMS, max_size=60))
def test_exact_sum_ignores_order_and_chunking(data, terms):
    # the sum of any permutation of the terms, fed to _add_exact as any mix
    # of one-term calls and longer chunks, rounds to the exact sum
    want = float(sum(map(Fraction, terms)))
    perm = data.draw(st.permutations(terms), label="order")
    sums = [0]
    lo = 0
    while lo < len(perm):
        hi = data.draw(st.integers(lo + 1, len(perm)), label="chunk end")
        if data.draw(st.booleans(), label="as one chunk"):
            chunks = [perm[lo:hi]]
        else:
            chunks = [[v] for v in perm[lo:hi]]
        for chunk in chunks:
            labels = np.zeros(len(chunk), dtype=np.int64)
            census._add_exact(sums, np.array(chunk, dtype=np.float64), labels)
        lo = hi
    assert (sums[0] / (1 << census._SCALE_BITS)).hex() == want.hex()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    terms=st.lists(st.tuples(_TERMS, st.integers(0, 3)), max_size=80),
    split=st.integers(0, 80),
)
def test_exact_sums_by_label_merge(terms, split):
    # labelled terms go to their own sums; adding up two partial sums gives
    # the sum of all their terms
    values = np.array([v for v, _ in terms], dtype=np.float64)
    labels = np.array([k for _, k in terms], dtype=np.int64)
    first = [0] * 4
    second = [0] * 4
    census._add_exact(first, values[:split], labels[:split])
    census._add_exact(second, values[split:], labels[split:])
    for k, (a, b) in enumerate(zip(first, second)):
        want = float(sum(Fraction(v) for v, label in terms if label == k))
        assert ((a + b) / (1 << census._SCALE_BITS)).hex() == want.hex()


_POSITIVE = st.floats(min_value=5e-324, max_value=1e300, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(head=st.lists(_POSITIVE, min_size=1, max_size=60))
def test_neumaier_prefix_matches_scalar_loop(head):
    # the first term meets prev = 0 < v, and the appended smallest term
    # meets prev >= v, so every example takes both branches
    terms = head + [min(head)]
    want = array("d", neumaier_prefix(terms)).tobytes()
    assert census._neumaier_prefix(np.array(terms, dtype=np.float64)).tobytes() == want


def _system_of(source, x):
    if isinstance(source, int):
        return census.for_field(source, x)
    return census.for_synth(SynthModel(group=group_from_orders(source), seed=29), x)


@pytest.mark.parametrize("source", [-5, (2, 4)])
def test_class_tables_match_scalar_loop(source):
    system = _system_of(source, 10**5)
    b = len(system.sites).bit_length()
    keys, prefix = [], []
    for c in range(system.group.h):
        sites = [s for s in system.sites if s.class_index == c + 1]
        keys.extend(c << b | s.id for s in sites)
        prefix.extend(neumaier_prefix([1.0 / s.norm for s in sites]))
    assert system._by_class.tolist() == keys
    assert system._class_prefix.tobytes() == array("d", prefix).tobytes()


@pytest.fixture(scope="module")
def slice_systems():
    return {source: _system_of(source, 3000) for source in (-5, -23, (2, 4), ())}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_class_slices_match_column_slices(slice_systems, data):
    # the sites of class c at positions [lo, hi) and their 1/N sums, from
    # the columns one slice at a time
    source = data.draw(st.sampled_from(sorted(slice_systems, key=str)), label="source")
    system = slice_systems[source]
    n = len(system.sites)
    c = data.draw(st.integers(0, system.group.h - 1), label="class")
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    i, k = system._class_slices(c, lo, hi)
    norm, cls = system.sites.norm, system.sites.cls
    want = lo + np.flatnonzero(cls[lo:hi] == c)
    assert k == want.size
    assert system._sites(np.arange(i, i + k)).tolist() == want.tolist()
    # the prefix entries are the scalar loop over the class's sites below
    # lo and below hi, bit for bit
    before = neumaier_prefix(1.0 / norm[:lo][cls[:lo] == c])[-1]
    upto = neumaier_prefix(1.0 / norm[:hi][cls[:hi] == c])[-1]
    assert array("d", system._class_prefix[[i + c, i + c + k]]) == array("d", [before, upto])


def _g_product(system, fact, desc):
    dividing = {en.site_id for en in fact.entries}
    return math.prod(
        (1.0 - 1.0 / system._norms[sid]) ** e
        if sid in dividing
        else (-1.0 / system._norms[sid]) ** e
        for sid, e in desc
    )


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_sweep_matches_reference_walk(reference_walks, data):
    system, records, ideals, _ = reference_walks[
        data.draw(st.sampled_from(sorted(reference_walks)), label="system")
    ]
    x = data.draw(st.integers(1, REFERENCE_X), label="x")
    cps = data.draw(st.lists(st.integers(1, x), max_size=3), label="checkpoints")
    norms = [s.norm for s in system.sites]
    n_small = bisect_right(norms, math.isqrt(x))
    n_all = bisect_right(norms, x)
    descs = []
    if n_all > n_small:
        # a site of norm > sqrt(x) lies in the bulk-counted leaf ranges
        big = data.draw(st.integers(n_small, n_all - 1), label="large site")
        descs.append(((big, 1),))
    if n_all:
        descs.append(
            tuple(
                data.draw(
                    st.lists(
                        st.tuples(st.integers(0, n_all - 1), st.integers(1, 3)),
                        min_size=1,
                        max_size=2,
                        unique_by=lambda t: t[0],
                    ),
                    label="descriptor",
                )
            )
        )
    swp = census.sweep(system, x, checkpoints=cps, g_descriptors=descs)
    h = swp.at(x).h
    assert swp.visited + swp.bulk == swp.at(x).n_ideals
    for cp in swp.checkpoints:
        tot = swp.at(cp)
        classes = Counter(c for n, c in ideals if n <= cp)
        assert tot.class_counts == tuple(classes[i] for i in range(h))
        recs = [(fact, rec) for fact, rec in records if rec.norm <= cp]
        assert tot.nu_counts == Counter(rec.nu for _, rec in recs)
        assert tot.profile_counts == Counter(
            (rec.omega, max(b - a for a, b in zip(rec.omega, rec.Omega)))
            for _, rec in recs
        )
        assert tot.irreducible_count == sum(rec.is_irreducible for _, rec in recs)
        hs = census.harmonic_sums(system, cp)
        assert tot.irreducible_count == hs.irreducible_count
        assert math.isclose(tot.harmonic_principal, hs.principal, rel_tol=1e-12)
        assert math.isclose(tot.harmonic_irreducible, hs.irreducible, rel_tol=1e-12)
        for got, desc in zip(tot.g_sums, swp.g_descriptors):
            want = math.fsum(_g_product(system, fact, desc) for fact, _ in recs)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def _assert_sweep_matches(system, records, ideals, x, cps=(), descs=()):
    """Every counter of the sweep against the reference census, and its
    floats against per-ideal sums; returns the sweep."""
    swp = census.sweep(system, x, checkpoints=cps, g_descriptors=descs)
    h = swp.at(x).h
    assert swp.visited + swp.bulk == swp.at(x).n_ideals
    for cp in swp.checkpoints:
        tot = swp.at(cp)
        classes = Counter(c for n, c in ideals if n <= cp)
        assert tot.class_counts == tuple(classes[i] for i in range(h))
        recs = [(fact, rec) for fact, rec in records if rec.norm <= cp]
        assert tot.nu_counts == Counter(rec.nu for _, rec in recs)
        assert tot.profile_counts == Counter(
            (rec.omega, max(b - a for a, b in zip(rec.omega, rec.Omega))) for _, rec in recs
        )
        assert tot.irreducible_count == sum(rec.is_irreducible for _, rec in recs)
        want = math.fsum(1.0 / rec.norm for _, rec in recs)
        assert math.isclose(tot.harmonic_principal, want, rel_tol=1e-12)
        want = math.fsum(1.0 / rec.norm for _, rec in recs if rec.is_irreducible)
        assert math.isclose(tot.harmonic_irreducible, want, rel_tol=1e-12)
        for got, desc in zip(tot.g_sums, swp.g_descriptors):
            want = math.fsum(_g_product(system, fact, desc) for fact, _ in recs)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    return swp


def _root_batch(norms, x):
    """(s3, split) of the root node at bound x with no descriptor."""
    split = bisect_right(norms, math.isqrt(x))
    s3 = next(j for j in range(split) if j + 1 == len(norms) or norms[j] * norms[j + 1] ** 2 > x)
    return s3, split


@pytest.mark.parametrize("node", [0, 1])
@pytest.mark.parametrize("below", [False, True])
def test_penultimate_batch_stops_at_descriptor_site(reference_walks, node, below):
    # a descriptor site just above (or just below) the split of the node of
    # a small site: batches start past it, so the root still batches, and
    # no batch or batched node's leaf range may hold it
    system, records, ideals, _ = reference_walks["-5"]
    norms = system._norms
    x = REFERENCE_X
    site = bisect_right(norms, math.isqrt(x // norms[node])) - below
    swp = _assert_sweep_matches(
        system, records, ideals, x, cps=(x // 2,), descs=(((site, 1),), ((0, 2), (site, 2)))
    )
    assert swp.batched


def test_penultimate_batch_split_by_checkpoints(reference_walks):
    # checkpoints among the root's batched nodes and their leaves
    system, records, ideals, _ = reference_walks["-5"]
    norms = system._norms
    x = REFERENCE_X
    s3, split = _root_batch(norms, x)
    cps = (norms[(s3 + split) // 2], norms[(s3 + split) // 2] + 1, 3 * x // 4, x - 1)
    swp = _assert_sweep_matches(system, records, ideals, x, cps=cps, descs=(((0, 1),),))
    assert swp.batched


def test_penultimate_batch_node_at_bound(reference_walks):
    # x = N(q)^2 for a site q of the root's batch: the node q^2 is exactly x
    system, records, ideals, _ = reference_walks["-5"]
    norms = system._norms
    s3, split = _root_batch(norms, REFERENCE_X)
    q = norms[split - 1]
    x = q * q
    j = bisect_right(norms, q) - 1
    assert j + 1 < len(norms) and q * norms[j + 1] ** 2 > x
    assert any(rec.norm == x for _, rec in records) or any(n == x for n, _ in ideals)
    swp = _assert_sweep_matches(system, records, ideals, x, cps=(x - 1,))
    assert swp.batched


def test_penultimate_rule_at_equality(reference_walks):
    # x = N(q_j) N(q_{j+1})^2: at the root, site j is not penultimate (its
    # node's bound x // N(q_j) is exactly N(q_{j+1})^2, so q_j q_{j+1}^2 = x
    # is a walked grandchild), and site j + 1 is
    system, records, ideals, _ = reference_walks["-5"]
    norms = system._norms
    for j in (3, 4, 5, 6):
        x = norms[j] * norms[j + 1] ** 2
        if x > REFERENCE_X:
            break
        s3, _ = _root_batch(norms, x)
        assert s3 > j
        for bound in (x - 1, x, x + 1):
            _assert_sweep_matches(system, records, ideals, bound, cps=(bound // 2,))


def _batch_rows(system, x, node):
    """{kind: (a, b)} of the batch rows (kinds 2 and 3) of the walked node
    of norm ``node`` and site 0 (the root for node 1) at bound x, with no
    descriptor."""
    rows = census._walk(system, x, census._States(system, ())).tolist()
    p = next(r for r, row in enumerate(rows) if row[0] == node and row[2] <= 0 and row[5] == 0)
    return {kind: (a, b) for _, _, a, b, parent, kind in rows if parent == p and kind > 1}


def test_two_level_rule_at_equality(reference_walks):
    # x = n N(q_j) N(q_{j+1}) N(q_{j+2})^2 at the root (n = 1) or at the
    # node of site 0 (n = 2): at x, site j is not antepenultimate (the
    # bound of its node n*q_j is exactly N(q_{j+1}) N(q_{j+2})^2, so
    # q_{j+1} is walked below it), and at x - 1 it is
    system, records, ideals, _ = reference_walks["-5"]
    norms = system._norms
    for n, j in ((1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)):
        x = n * norms[j] * norms[j + 1] * norms[j + 2] ** 2
        assert x <= REFERENCE_X
        assert all(a > j for a, _ in _batch_rows(system, x, n).values())
        a, b = _batch_rows(system, x - 1, n)[3]
        assert a <= j < b
        for bound in (x - 1, x, x + 1):
            _assert_sweep_matches(system, records, ideals, bound, cps=(bound // 2,))
            want = [_record_row(rec) for _, rec in records if rec.norm <= bound]
            assert census.census_rows(system, bound) == sorted(want, key=lambda row: row[0])


@pytest.mark.parametrize("key", ["-5", "-1155", "(2, 4)"])
def test_two_level_batches_occur_in_the_reference_sweeps(reference_walks, key):
    # the differential tests above run kind-3 rows, with and without
    # descriptors, on a cyclic and a Z/2^3 field and on Z/2xZ/4
    system, records, ideals, _ = reference_walks[key]
    x = REFERENCE_X
    for descs in ((), (((0, 2),), ((1, 1), (3, 1)))):
        rows = census._walk(system, x, census._States(system, descs))
        assert np.count_nonzero(rows[:, 5] == 3)
        _assert_sweep_matches(system, records, ideals, x, cps=(x // 3,), descs=descs)


@pytest.mark.parametrize("key", ["-105", "-1155", "(2, 4)"])
def test_penultimate_batches_on_order_8_groups(reference_walks, key):
    # Z/2^3 fields and a synthetic Z/2xZ/4 stream, with checkpoints among
    # the root's batched nodes, without and with descriptors
    system, records, ideals, _ = reference_walks[key]
    norms = system._norms
    x = REFERENCE_X
    s3, split = _root_batch(norms, x)
    for descs in ((), (((0, 2),), ((1, 1), (3, 1)))):
        swp = _assert_sweep_matches(
            system, records, ideals, x, cps=(norms[(s3 + split) // 2], x // 3), descs=descs
        )
        assert swp.batched


def _walked_states(system, x, descs):
    """A recording walk's ``_States`` and the ids of its principal states:
    those of its walked and batched nodes and of their principal leaves."""
    states = census._States(system, descs)
    rows = census._walk(system, x, states)
    kind = rows[:, 5]
    first, second = census._expand_batches(system, x, states, rows[kind == 3], rows[kind == 2])
    nodes = np.concatenate((rows[kind == 0, 1], first[4], second[4]))
    states.push_many(nodes, states.inverse[states.classes(nodes)], 1)
    return states, [s for s, c in enumerate(states.cls) if c == 0]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_stats_many_ignores_order_and_chunking(reference_walks, data):
    key = data.draw(st.sampled_from(["-1155", "(2, 4)", "(3, 3)", "-47"]), label="system")
    system = reference_walks[key][0]
    descs = (((0, 2),), ((1, 1), (3, 1)))
    states, ids = _walked_states(system, REFERENCE_X, descs)
    whole = states.stats_many(ids)
    rnd = data.draw(st.randoms(use_true_random=False), label="order and chunks")
    perm = list(range(len(ids)))
    rnd.shuffle(perm)
    cuts = sorted(rnd.sample(range(1, len(ids)), rnd.randint(0, 6)))
    again, _ = _walked_states(system, REFERENCE_X, descs)
    parts = [
        again.stats_many([ids[i] for i in perm[lo:hi]])
        for lo, hi in zip([0, *cuts], [*cuts, len(ids)])
    ]
    back = np.argsort(perm)
    for k, want in enumerate(whole):
        assert np.array_equal(np.concatenate([p[k] for p in parts])[back], want)
    # polynomial ids follow the order polynomials are met in, so compare
    # the tuples of polynomials themselves
    assert _nu_polys(again) == _nu_polys(states)


def _nu_polys(states):
    polys = [list(p) for p in states.polys]
    return {tuple(polys[i][p] for i, p in enumerate(key)) for key in states.nu_keys}


def test_stats_many_guards_int64():
    # a planted state whose every class holds 255 sites of exponent 1: the
    # product of the coefficient sums passes 2**62, so nu could wrap
    system = census.for_synth(SynthModel(group=group_from_orders((2, 4)), seed=29), 100)
    states = census._States(system, ())
    planted = states.add(sum(255 << off + 8 for off in states.offsets[:-1]), 0)
    states.stats_many([0])
    with pytest.raises(ResourceLimitError, match=r"2\*\*62"):
        states.stats_many([0, planted])


@pytest.mark.parametrize("key", ["(3, 3)", "-1155"])
def test_census_stats_match_sweep(reference_walks, key):
    # the census resolves its states once per walk, the sweep once per
    # flush: the two agree on every principal ideal's statistics
    system = reference_walks[key][0]
    h = system.group.h
    rows = census.census_rows(system, REFERENCE_X)
    tot = census.sweep(system, REFERENCE_X).at(REFERENCE_X)
    omega = [row[2 : 2 + h] for row in rows]
    Omega = [row[2 + h : 2 + 2 * h] for row in rows]
    assert tot.nu_counts == Counter(row[2 + 2 * h] for row in rows)
    assert tot.profile_counts == Counter(
        (w, max(b - a for a, b in zip(w, W))) for w, W in zip(omega, Omega)
    )
    assert tot.irreducible_count == sum(row[-2] for row in rows)


def _record_row(rec):
    return (
        rec.norm,
        1,
        *rec.omega,
        *rec.Omega,
        rec.nu,
        rec.delta,
        int(rec.is_irreducible),
        rec.squarefull_norm,
    )


#: the kind of a leaf of each kind of node
_LEAF_OF = {
    "walked": "leaf", "batched": "batched leaf", "outer": "outer leaf", "inner": "inner leaf"
}


def _row_kind(norms, x, fact):
    """The kind of ``_walk`` row that holds this ideal at bound x, by the
    walk's rules: a walked node, a node of a batch ("batched"), a node of
    a two-level batch ("outer"), a node of an outer node's batch
    ("inner"), or a leaf of any of them."""
    kind, n = "walked", 1
    for en in fact.entries:
        lim = x // n
        q, j = en.norm, en.site_id
        if q * q > lim:
            kind = _LEAF_OF[kind]
        elif kind == "outer":
            kind = "inner"
        elif kind == "walked":
            if j + 1 == len(norms) or q * norms[j + 1] ** 2 > lim:
                kind = "batched"
            elif j + 2 == len(norms) or q * norms[j + 1] * norms[j + 2] ** 2 > lim:
                kind = "outer"
        n *= q**en.exponent
    return kind


#: x: the sets of row kinds that some norm's unequal rows come from; at
#: 225 every pair of kinds that ties below 300 ties
STRADDLES = {
    12: {("batched", "batched leaf"), ("batched", "outer"), ("batched leaf", "outer leaf")},
    54: {
        ("batched", "batched leaf"),
        ("batched", "inner"),
        ("batched", "inner", "outer"),
        ("batched", "inner", "outer", "outer leaf"),
        ("batched", "inner leaf"),
        ("batched", "outer"),
        ("batched", "outer", "walked"),
        ("batched leaf", "inner leaf"),
        ("batched leaf", "inner leaf", "outer leaf"),
        ("batched leaf", "leaf", "outer leaf"),
        ("batched leaf", "outer leaf"),
        ("inner", "outer leaf"),
        ("leaf", "outer"),
        ("leaf", "outer leaf"),
    },
    225: {
        ("batched", "batched leaf"),
        ("batched", "batched leaf", "inner"),
        ("batched", "inner"),
        ("batched", "inner", "outer"),
        ("batched", "inner", "outer", "outer leaf"),
        ("batched", "inner leaf"),
        ("batched", "leaf", "outer", "walked"),
        ("batched", "outer"),
        ("batched", "walked"),
        ("batched leaf", "inner leaf"),
        ("batched leaf", "inner leaf", "outer leaf"),
        ("batched leaf", "leaf"),
        ("batched leaf", "leaf", "outer leaf"),
        ("batched leaf", "outer leaf"),
        ("inner", "inner leaf"),
        ("inner", "outer"),
        ("inner", "outer leaf"),
        ("inner leaf", "outer leaf"),
        ("leaf", "outer leaf"),
        ("leaf", "walked"),
        ("outer", "walked"),
    },
}


@pytest.mark.parametrize("x", [1, 7, *STRADDLES, 300, REFERENCE_X])
def test_census_rows_match_enumeration(reference_walks, x):
    # the rows take nu, omega and irreducibility from the walk's state; the
    # records compute every field from the factorization with the oracles.
    # Rows that tie in norm are ordered by the factorization across the
    # kinds of walk row they come from
    straddles = set()
    for system, records, _, _ in reference_walks.values():
        want = sorted(
            ((_record_row(rec), fact) for fact, rec in records if rec.norm <= x),
            key=lambda pair: pair[0][0],
        )
        assert census.census_rows(system, x) == [row for row, _ in want]
        for _, tied in itertools.groupby(want, key=lambda pair: pair[0][0]):
            tied = list(tied)
            kinds = tuple(sorted({_row_kind(system._norms, x, fact) for _, fact in tied}))
            if len(kinds) > 1 and len({row for row, _ in tied}) > 1:
                straddles.add(kinds)
    assert straddles >= STRADDLES.get(x, set())


@pytest.mark.parametrize("orders", [(), (2,)])
def test_census_order_where_a_norm_is_an_earlier_norm_squared(orders):
    # no field or synthetic stream has a site of norm N(q)^2 beside q, so
    # there the leaves n*q_k of a node of a two-level batch never tie with
    # the nodes n*q_j^2 of its batch, which precede them; this stream has
    # the primes to 3000 and their squares as norms
    x = 3000
    p = prime_array(x)
    norm = np.sort(np.concatenate((p, p[p * p <= x] ** 2)))
    group = group_from_orders(orders)
    cls = (np.arange(norm.size) % group.h).astype(np.uint8)
    sites = SiteColumns(norm, np.full(norm.size, SYNTHETIC, dtype=np.int8), cls)
    system = census.SiteSystem(group=group, sites=sites, limit=x)
    records = list(census.enumerate_principal(system, x))
    for bound in range(100, x + 1, 100):
        want = [_record_row(rec) for _, rec in records if rec.norm <= bound]
        assert census.census_rows(system, bound) == sorted(want, key=lambda row: row[0])
    ideals, _ = _ideal_norms_and_classes(system, x)
    _assert_sweep_matches(system, records, ideals, x, cps=(x // 3,), descs=(((0, 2),),))


@pytest.mark.parametrize("x", [1, 300, REFERENCE_X])
def test_harmonic_sums_walk_every_ideal(reference_walks, x):
    # bit-equal to the correctly rounded sum of the per-ideal terms
    for system, records, _, _ in reference_walks.values():
        principal = [1.0 / rec.norm for _, rec in records if rec.norm <= x]
        irreducible = [1.0 / rec.norm for _, rec in records if rec.norm <= x and rec.is_irreducible]
        hs = census.harmonic_sums(system, x)
        assert hs.principal.hex() == math.fsum(principal).hex()
        assert hs.irreducible.hex() == math.fsum(irreducible).hex()
        assert hs.irreducible_count == len(irreducible)


def test_small_x_principal_rows_and_harmonic_sums(sys5):
    # x = 1..300, where the bulk leaf ranges are shortest or empty: the row
    # count against the norm form, the harmonic sums bit-equal to the
    # correctly rounded sum of the plain walk's terms, and the irreducible
    # count against the oracle
    _, principal = _ideal_norms_and_classes(sys5, 300)
    sc = sys5.constants
    irreducible = [
        bool(factors) and census.is_irreducible(census.make_factorization(sys5, factors), sc)
        for _, factors in principal
    ]
    for x in range(1, 301):
        assert len(census.census_rows(sys5, x)) == class_count_by_norm_form((1, 0, 5), x, 2)
        want_p = [1.0 / n for n, _ in principal if n <= x]
        want_i = [1.0 / n for (n, _), irred in zip(principal, irreducible) if n <= x and irred]
        hs = census.harmonic_sums(sys5, x)
        assert hs.principal.hex() == math.fsum(want_p).hex()
        assert hs.irreducible.hex() == math.fsum(want_i).hex()
        assert hs.irreducible_count == len(want_i)


def test_harmonic_sums_rejects_empty_bound(sys5):
    for exact in (False, True):
        with pytest.raises(DomainError):
            census.harmonic_sums(sys5, 0, exact=exact)


def test_walks_leave_no_garbage(sys5):
    census.sweep(sys5, 10**3)  # build the cached tables first
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        census.sweep(sys5, 10**3)
        assert gc.collect() == 0
        census.census_rows(sys5, 10**3)
        assert gc.collect() == 0
        census.harmonic_sums(sys5, 10**3)
        assert gc.collect() == 0
        census.harmonic_sums(sys5, 10**3, exact=True)
        assert gc.collect() == 0
        list(census.enumerate_principal(sys5, 10**3))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_enumerate_principal_streams():
    # the first records arrive before the walk has gone far: nothing is
    # buffered ahead of them
    system = census.for_field(-5, 2 * 10**5)
    system.constants  # built once per group, outside the measurement
    tracemalloc.start()
    try:
        first = list(itertools.islice(census.enumerate_principal(system, 2 * 10**5), 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [rec.norm for _, rec in first] == [1, 6, 630, 101430, 101430]
    assert peak < 10**6


def test_site_system_keeps_no_per_site_copies():
    # a system over existing columns adds nothing per site: the walkers
    # read the norm and class columns through memoryviews, not Python lists
    system = census.for_field(-5, 10**6)
    n = len(system.sites)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        again = dataclasses.replace(system)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert again._norms == system._norms and again._cls0 == system._cls0
    assert n == 78367 and kept <= 10**4


_MALFORMED = {
    "class 5": {"cls": 5},
    "class -1, signed column": {"cls": -1, "dtype": np.int8},
    "norm 1": {"norm": 1},
    "norm 0": {"norm": 0},
}


@pytest.mark.parametrize("key", sorted(_MALFORMED))
def test_site_system_rejects_columns_the_walk_cannot_read(key):
    # a class outside [0, h) indexes past the Cayley table, and a norm
    # below 2 never lets a power pass x: the system refuses both, before
    # any walk, where a sweep would otherwise fail on an IndexError, a
    # ZeroDivisionError or its own lost-ideals check
    good = census.for_synth(SynthModel(group=cyclic_group(2), seed=11), 500)
    bad = _MALFORMED[key]
    norm = good.sites.norm.copy()
    cls = good.sites.cls.astype(bad.get("dtype", good.sites.cls.dtype))
    census.SiteSystem(good.group, SiteColumns(norm, good.sites.splitting, cls), 500)
    norm, cls = norm.copy(), cls.copy()
    norm[0] = bad.get("norm", norm[0])
    cls[3] = bad.get("cls", cls[3])
    with pytest.raises(DomainError):
        census.SiteSystem(good.group, SiteColumns(norm, good.sites.splitting, cls), 500)


@pytest.mark.parametrize("h,itemsize", [(128, 1), (255, 1), (256, 1), (257, 2)])
def test_class_column_widens_past_one_byte(h, itemsize):
    # the stored 0-based classes 0..h-1 take one byte up to h = 256, then
    # the column widens; the walkers' view is that column itself
    system = census.for_synth(SynthModel(group=cyclic_group(h), seed=3), 2 * 10**4)
    assert system._cls0.obj is system.sites.cls
    assert list(system._cls0) == [s.class_index - 1 for s in system.sites]
    assert max(system._cls0) == h - 1
    assert system.sites.cls.itemsize == itemsize


def test_harmonic_sums_minus1_by_hand():
    system = census.for_field(-1, 20)
    hs = census.harmonic_sums(system, 10, exact=True)
    assert hs.principal == Fraction(931, 360)
    assert hs.irreducible == Fraction(91, 90)
    assert hs.irreducible_count == 4
    floats = census.harmonic_sums(system, 10)
    assert math.isclose(floats.principal, float(Fraction(931, 360)))


def test_harmonic_sums_unit_only(sys5):
    hs = census.harmonic_sums(sys5, 1, exact=True)
    assert hs.principal == 1
    assert hs.irreducible == 0
    assert hs.irreducible_count == 0


def test_harmonic_matches_sweep(sys5):
    swp = census.sweep(sys5, 10**4)
    tot = swp.at(10**4)
    hs = census.harmonic_sums(sys5, 10**4)
    assert math.isclose(tot.harmonic_principal, hs.principal, rel_tol=1e-12)
    assert math.isclose(tot.harmonic_irreducible, hs.irreducible, rel_tol=1e-12)
    assert tot.irreducible_count == hs.irreducible_count


def test_census_csv_golden_small(sys5):
    buf = io.StringIO()
    n = census.write_census_csv(sys5, 10, buf)
    assert n == 8
    assert buf.getvalue() == (
        "norm,class,omega_1,omega_2,Omega_1,Omega_2,nu,delta,is_irreducible,squarefull_norm\n"
        "1,1,0,0,0,0,0,1,0,1\n"
        "4,1,0,1,0,2,1,2,1,4\n"
        "5,1,1,0,1,0,1,2,1,1\n"
        "6,1,0,2,0,2,1,2,1,1\n"
        "6,1,0,2,0,2,1,2,1,1\n"
        "9,1,0,2,0,2,1,2,1,1\n"
        "9,1,0,1,0,2,1,2,1,9\n"
        "9,1,0,1,0,2,1,2,1,9\n"
    )


@pytest.mark.parametrize("source,x", [
    ((2, 4), 3 * 10**4),
    ((3, 3), 3 * 10**4),
    ((), 9000),  # trivial group (h = 1): every ideal is principal, 9000 > CSV_CHUNK rows
    (-5, 1),  # the unit row alone
])
def test_census_csv_formats_census_rows(source, x):
    if isinstance(source, int):
        system = census.for_field(source, max(x, 2))
    else:
        system = census.for_synth(SynthModel(group=group_from_orders(source), seed=29), x)
    rows = census.census_rows(system, x)
    # the census reads the class-major site index, not the sweep's prefix sums
    assert "_by_class" in vars(system) and "_class_prefix" not in vars(system)
    buf = io.StringIO()
    assert census.write_census_csv(system, x, buf) == len(rows)
    line = ",".join(["%d"] * len(rows[0]))
    header = census.census_header(system.group.h)
    assert buf.getvalue().split("\n") == [header, *(line % row for row in rows), ""]


@pytest.mark.parametrize("source,x", [
    ((2, 4), 3 * 10**4),
    ((), 9000),  # trivial group, past one chunk
    (-5, 1),
    (-5, 2 * 10**4),
])
def test_census_json_matches_dumps(source, x):
    if isinstance(source, int):
        system = census.for_field(source, max(x, 2))
    else:
        system = census.for_synth(SynthModel(group=group_from_orders(source), seed=29), x)
    payload = {
        "schema": census.census_header(system.group.h).split(","),
        "rows": census.census_rows(system, x),
    }
    buf = io.StringIO()
    assert census.write_census_json(system, x, buf) == len(payload["rows"])
    assert buf.getvalue() == stats.dumps(payload) + "\n"


def _written(write, system, x):
    buf = io.StringIO()
    write(system, x, buf)
    return buf.getvalue()


@pytest.mark.parametrize("source,x", [
    (-5, 2 * 10**4),
    (-23, 2 * 10**4),
    ((2, 4), 3 * 10**4),
])
def test_census_bytes_do_not_depend_on_the_chunk(source, x, monkeypatch):
    if isinstance(source, int):
        system = census.for_field(source, x)
    else:
        system = census.for_synth(SynthModel(group=group_from_orders(source), seed=29), x)
    writers = (census.write_census_csv, census.write_census_json)
    want = [_written(write, system, x) for write in writers]
    for chunk in (1, 7):
        monkeypatch.setattr("irrcensus.quadratic.CSV_CHUNK", chunk)
        # compared as lines: a failing diff of the joined text would take minutes
        for write, text in zip(writers, want):
            assert _written(write, system, x).split("\n") == text.split("\n")


def test_census_formats_each_tail_once(sys5, monkeypatch):
    x = 10**4
    norm, _, table = census._census_columns(sys5, x)
    formatted, real = [], census.label_table

    def label_table(columns):
        formatted.append(len(columns[0]))
        return real(columns)

    monkeypatch.setattr(census, "label_table", label_table)
    monkeypatch.setattr("irrcensus.quadratic.CSV_CHUNK", 7)
    for write in (census.write_census_csv, census.write_census_json):
        formatted.clear()
        assert write(sys5, x, io.StringIO()) == norm.size
        # once per write, one label per tail, far fewer than the rows
        assert formatted == [table.shape[1]] and 5 * table.shape[1] < norm.size


CENSUS_GOLDEN = {
    # census CLI source, x, row count, SHA-256 of the write_census_csv bytes
    "-5": (("--field", "-5"), 2 * 10**4, 14046,
           "aacdf8f3a49c6ed104744a5955f06a0e50aa241461ee7629a8a569cde74f6cfd"),
    "-1155": (("--field", "-1155"), 3 * 10**4, 2786,
              "7ff3643a6fcf2ec481a7858d0f44fe8c3a8ec5b22d8f9db0bc7d34291f8d0230"),
    "2,4": (("--group", "2,4", "--seed", "11"), 2 * 10**4, 2523,
            "6f3a2fa0989b52aafad4602578896362a5af6b7cd44f82cfcdd433ecc80e010e"),
    # most rows tied, many batches
    "-5,1e5": (("--field", "-5"), 10**5, 70267,
               "3eadfd97841f3297406b2ac0e5dc22130f4426298695d7ec8aa977e441de8b62"),
    # Z/3: conjugate sites have different classes, so tied rows differ
    "-23": (("--field", "-23"), 2 * 10**4, 13092,
            "ab78a2165b56c1e1beebefc67832f804a5995a2c7c33ca85263d8d599abcc7ee"),
}


@pytest.mark.parametrize("key", sorted(CENSUS_GOLDEN))
def test_census_csv_golden_sha256(key, capsys):
    source, x, n_rows, digest = CENSUS_GOLDEN[key]
    argv = ["census", *source, "--x", str(x)]
    system = cli._system(cli.parse(argv))
    buf = io.StringIO()
    assert census.write_census_csv(system, x, buf) == n_rows
    text = buf.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # the CLI writes the same bytes, and its JSON carries the same rows
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == text
    assert cli.main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lines = text.splitlines()
    assert payload["schema"] == lines[0].split(",")
    assert payload["rows"] == [[int(v) for v in line.split(",")] for line in lines[1:]]


REPORT_GOLDEN = {
    # ek CLI arguments, SHA-256 of the --out JSON and of its .hist.csv
    "-5": (("--field", "-5", "--x", "100000"),
           "2cee15cc18f65c19cdb5472b72b80964dcc54fcbc2af616394855e78acca766a",
           "c2374ce2d8496aebc43a8a8d1a312f21fecea471780f61323747d1f3b1830e49"),
    "-1155": (("--field", "-1155", "--x", "30000"),
              "802f4554447920b7bcebf15dfe6dde89d4281039f577fa61b5802bc953e56383",
              "0b5d87677c582009e149022e2a683604d8ab6c3fd5f3f64173899db5dce7f75b"),
    "2,4": (("--group", "2,4", "--seed", "29", "--x", "100000"),
            "2a90beac21c6a74efbe8d62c78b33c5ba1a5f40d3b694332ed0a6491539f08d6",
            "9c022c734306b96b269353116d90bf668001cbfa8eed24f04a5ae212aa335387"),
}


@pytest.mark.parametrize("key", sorted(REPORT_GOLDEN))
def test_report_golden_sha256(key, tmp_path):
    args, report_digest, hist_digest = REPORT_GOLDEN[key]
    out = tmp_path / "report.json"
    assert cli.main(["ek", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == report_digest
    hist = tmp_path / "report.hist.csv"
    assert hashlib.sha256(hist.read_bytes()).hexdigest() == hist_digest


CLI_GOLDEN = {
    # equidist, moments and check CLI arguments, SHA-256 of the --out bytes
    "equidist -5": (("equidist", "--field", "-5", "--x", "100000", "--m", "3"),
                    "afd659c2b6b598c065f80282e70ae02c7f02c3d8346be65cf8a90b91e21101cc"),
    "equidist -5 csv": (("equidist", "--field", "-5", "--x", "100000", "--m", "3",
                         "--format", "csv"),
                        "50bfd4e32f7d426c6512339cf1da4dc6b963cca1b1a17db7710377fd37d20f10"),
    "equidist 2,4": (("equidist", "--group", "2,4", "--seed", "29", "--x", "100000",
                      "--m", "2"),
                     "00103d14e45988c76bb6214dd255364debd6256dff8488621507e4f2e9b4b386"),
    "moments -5": (("moments", "--field", "-5", "--x", "100000", "--k", "6"),
                   "a98c84b08bfe8f9c8cc41d1621e2fa0a730b11141828c7580b3f56c499a695e5"),
    "moments -23": (("moments", "--field", "-23", "--x", "50000", "--kappa", "1,0.5,0.5"),
                    "fe295617d6fab66be95832bbf72c463530e8455bea36bd6db41ecaa1736d2d1e"),
    "moments 2,4 csv": (("moments", "--group", "2,4", "--seed", "29", "--x", "100000",
                         "--k", "4", "--format", "csv"),
                        "769906e1c44a35b557863c9f7c3abd789eaf2fb3722fad081b1a96bb5f836e21"),
    "check -5": (("check", "--field", "-5", "--x", "100000"),
                 "3a6687665da27fa5a70328961839fbbe34c3c3f7441ab4546a8eeb484970330c"),
    "check -1155 csv": (("check", "--field", "-1155", "--x", "30000", "--format", "csv"),
                        "35f37bb26ffe76aab805212c552cd79f44605fae004ee246b91089e0ba1cc7af"),
}


@pytest.mark.parametrize("key", sorted(CLI_GOLDEN))
def test_cli_golden_sha256(key, tmp_path):
    args, digest = CLI_GOLDEN[key]
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_make_factorization_validation(sys5):
    with pytest.raises(DomainError):
        census.make_factorization(sys5, [(0, 0)])
    with pytest.raises(DomainError):
        census.make_factorization(sys5, [(0, 1), (0, 1)])
    for site_id in (-1, len(sys5.sites)):
        with pytest.raises(DomainError):
            census.make_factorization(sys5, [(site_id, 1)])
    fact = census.make_factorization(sys5, [(2, 1), (0, 1)])
    assert [e.site_id for e in fact.entries] == [0, 2]
    assert fact.norm == 6


# entry point -> (a call with one non-integral argument, that argument's repr);
# int() would truncate each value, or a numpy call deep inside would fail
_NON_INTEGRAL = {
    "sweep x": (lambda s: census.sweep(s, 1e4), "10000.0"),
    "sweep checkpoint": (lambda s: census.sweep(s, 10**4, checkpoints=[2500.5]), "2500.5"),
    "sweep descriptor": (lambda s: census.sweep(s, 10**4, g_descriptors=(((0, 1.5),),)), "1.5"),
    "census_rows x": (lambda s: census.census_rows(s, 1e3), "1000.0"),
    "for_field limit": (lambda s: census.for_field(-5, 1e4), "10000.0"),
    "for_synth limit": (lambda s: census.for_synth(SynthModel(cyclic_group(3), 1), 1e4), "10000.0"),
    "make_factorization": (lambda s: census.make_factorization(s, [(0, 1.5)]), "1.5"),
    "class_group d": (lambda s: class_group(-5.0), "-5.0"),
    "equidist modulus": (lambda s: stats.equidist(census.sweep(s, 100).at(100), 2.5), "2.5"),
    "TypeVector component": (lambda s: TypeVector((1.5, 0)), "1.5"),
}


@pytest.mark.parametrize("key", sorted(_NON_INTEGRAL))
def test_non_integral_inputs_are_refused(sys5, key):
    call, value = _NON_INTEGRAL[key]
    with pytest.raises(DomainError, match=f"must be an integer, got {re.escape(value)}$"):
        call(sys5)


def test_sweep_refuses_checkpoints_it_cannot_honour(sys5):
    swp = census.sweep(sys5, 1000, checkpoints=[100])
    with pytest.raises(DomainError, match="is not a sweep checkpoint"):
        swp.at(500)
    for cp in (0, 1001):
        with pytest.raises(DomainError, match=r"checkpoints must lie in \[1, x\]"):
            census.sweep(sys5, 1000, checkpoints=[cp])


def test_nu_refuses_a_class_outside_the_group(sys5):
    # site 2 lies in class 2 of Z/2; read against the trivial group it does not fit
    fact = census.make_factorization(sys5, [(2, 1)])
    sc = structural_constants(trivial_group())
    for nu in (census.nu_exact, census.nu_squarefull_formula):
        with pytest.raises(DomainError, match="does not fit group of order 1"):
            nu(fact, sc)


def test_sweep_rejects_descriptor_site_out_of_range(sys5):
    # site -1 would alias the last site in a lookup but is never walked
    for site_id in (-1, len(sys5.sites)):
        with pytest.raises(DomainError):
            census.sweep(sys5, 100, g_descriptors=(((site_id, 1),),))
    with pytest.raises(DomainError, match="exponents must be >= 1"):
        census.sweep(sys5, 100, g_descriptors=(((0, 0),),))
    with pytest.raises(DomainError, match="must be distinct"):
        census.sweep(sys5, 100, g_descriptors=(((0, 1), (0, 2)),))


def test_x_beyond_limit_rejected(sys5):
    with pytest.raises(DomainError):
        list(census.enumerate_principal(sys5, 10**5))
    with pytest.raises(DomainError):
        census.sweep(sys5, 10**5)


def test_synth_trivial_census_is_integers():
    model = SynthModel(group=trivial_group(), seed=7)
    system = census.for_synth(model, 200)
    norms = sorted(rec.norm for _, rec in census.enumerate_principal(system, 200))
    assert norms == list(range(1, 201))
    swp = census.sweep(system, 200)
    assert swp.at(200).n_principal == 200


def test_synth_group_census_counts_principal_only():
    model = SynthModel(group=cyclic_group(2), seed=11)
    system = census.for_synth(model, 500)
    swp = census.sweep(system, 500)
    tot = swp.at(500)
    assert tot.n_ideals == sum(tot.class_counts)
    assert tot.n_principal == tot.class_counts[0]
    assert tot.n_principal < tot.n_ideals
