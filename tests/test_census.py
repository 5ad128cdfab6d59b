import gc
import hashlib
import io
import itertools
import json
import math
from array import array
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irrcensus import census, cli, stats
from irrcensus.abelian import TypeVector
from irrcensus.errors import DomainError, ResourceLimitError
from irrcensus.synth import SynthModel
from irrcensus.abelian import cyclic_group, group_from_orders, trivial_group

from helpers import ideal_count_by_character, neumaier_prefix, principal_count_by_norm_form


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
    big = _fact(sys5, [(0, 30), (1, 30), (2, 30), (3, 30), (4, 30), (5, 30)])
    with pytest.raises(ResourceLimitError):
        census.delta_exact(big, sys5.ordering, max_divisors=100)


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
    assert len(sys5_records) == principal_count_by_norm_form(-5, 10**4, 2)
    assert tot.n_principal == len(sys5_records)


@pytest.mark.parametrize("d,w", [(-1, 4), (-3, 6), (-23, 2), (-14, 2)])
def test_principal_counts_other_fields(d, w):
    system = census.for_field(d, 2000)
    count = sum(1 for _ in census.enumerate_principal(system, 2000))
    assert count == principal_count_by_norm_form(d, 2000, w)


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
    sites = system.sites
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
    (-105, -1155) fields and synthetic Z/2xZ/4 and Z/3xZ/3 streams, each with
    its full reference census.  The Z/3, Z/4 and Z/5 fields truncate the
    walk's subset-count polynomials at degrees 3 to 5."""
    systems = {
        d: census.for_field(d, REFERENCE_X)
        for d in (-5, -21, -23, -30, -39, -47, -105, -1155)
    }
    for orders in ((2, 4), (3, 3)):
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


_TERMS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.0, -1.0]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), terms=st.lists(_TERMS, max_size=60))
def test_exact_sum_ignores_order_and_chunking(data, terms):
    # the sum of any permutation of the terms, fed as any mix of single
    # adds and array chunks, is the correctly rounded exact sum
    want = float(sum(map(Fraction, terms)))
    perm = data.draw(st.permutations(terms), label="order")
    acc = census._ExactSum()
    lo = 0
    while lo < len(perm):
        hi = data.draw(st.integers(lo + 1, len(perm)), label="chunk end")
        if data.draw(st.booleans(), label="as array"):
            acc.add_array(np.array(perm[lo:hi], dtype=np.float64))
        else:
            for v in perm[lo:hi]:
                acc.add(v)
        lo = hi
    assert acc.value.hex() == want.hex()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    terms=st.lists(st.tuples(_TERMS, st.integers(0, 3)), max_size=80),
    split=st.integers(0, 80),
)
def test_exact_sums_by_label_merge(terms, split):
    # labelled terms go to their own accumulators; merging two partial
    # accumulators gives the sum of all their terms
    values = np.array([v for v, _ in terms], dtype=np.float64)
    labels = np.array([k for _, k in terms], dtype=np.int64)
    first = [census._ExactSum() for _ in range(4)]
    second = [census._ExactSum() for _ in range(4)]
    census._add_exact(first, values[:split], labels[:split])
    census._add_exact(second, values[split:], labels[split:])
    for k, (a, b) in enumerate(zip(first, second)):
        a.merge(b)
        want = float(sum(Fraction(v) for v, label in terms if label == k))
        assert a.value.hex() == want.hex()


_POSITIVE = st.floats(min_value=5e-324, max_value=1e300, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(head=st.lists(_POSITIVE, min_size=1, max_size=60))
def test_neumaier_prefix_matches_scalar_loop(head):
    # the first term meets prev = 0 < v, and the appended smallest term
    # meets prev >= v, so every example takes both branches
    terms = head + [min(head)]
    want = array("d", neumaier_prefix(terms)).tobytes()
    assert census._neumaier_prefix(np.array(terms, dtype=np.float64)).tobytes() == want


@pytest.mark.parametrize("source", [-5, (2, 4)])
def test_class_tables_match_scalar_loop(source):
    x = 10**5
    if isinstance(source, int):
        system = census.for_field(source, x)
    else:
        system = census.for_synth(SynthModel(group=group_from_orders(source), seed=29), x)
    positions, prefix = system._class_tables
    for c, (pos, pre) in enumerate(zip(positions, prefix)):
        sites = [s for s in system.sites if s.class_index == c + 1]
        assert list(pos) == [s.id for s in sites]
        want = array("d", neumaier_prefix([1.0 / s.norm for s in sites]))
        assert pre.tobytes() == want.tobytes()


def _g_product(system, fact, desc):
    dividing = {en.site_id for en in fact.entries}
    return math.prod(
        (1.0 - 1.0 / system.sites[sid].norm) ** e
        if sid in dividing
        else (-1.0 / system.sites[sid].norm) ** e
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
    """A census walk's ``_States`` and the ids of its principal states."""
    seen = set()
    states = census._walk(system, x, (x,), descs, lambda n, s, *_: seen.add(s))
    return states, sorted(seen)


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


@pytest.mark.parametrize("x", [1, 7, 300, REFERENCE_X])
def test_census_rows_match_enumeration(reference_walks, x):
    # the rows take nu, omega and irreducibility from the walk's state; the
    # records compute every field from the factorization with the oracles
    for system, records, _, _ in reference_walks.values():
        want = sorted(
            (_record_row(rec) for _, rec in records if rec.norm <= x), key=itemgetter(0)
        )
        assert census.census_rows(system, x) == want


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
        assert len(census.census_rows(sys5, x)) == principal_count_by_norm_form(-5, x, 2)
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


CENSUS_GOLDEN = {
    # census CLI source, x, row count, SHA-256 of the write_census_csv bytes
    "-5": (("--field", "-5"), 2 * 10**4, 14046,
           "aacdf8f3a49c6ed104744a5955f06a0e50aa241461ee7629a8a569cde74f6cfd"),
    "-1155": (("--field", "-1155"), 3 * 10**4, 2786,
              "7ff3643a6fcf2ec481a7858d0f44fe8c3a8ec5b22d8f9db0bc7d34291f8d0230"),
    "2,4": (("--group", "2,4", "--seed", "11"), 2 * 10**4, 2523,
            "6f3a2fa0989b52aafad4602578896362a5af6b7cd44f82cfcdd433ecc80e010e"),
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


def test_sweep_rejects_descriptor_site_out_of_range(sys5):
    # site -1 would alias the last site in a lookup but is never walked
    for site_id in (-1, len(sys5.sites)):
        with pytest.raises(DomainError):
            census.sweep(sys5, 100, g_descriptors=(((site_id, 1),),))


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
