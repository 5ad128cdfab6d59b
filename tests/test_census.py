import gc
import io
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from irrcensus import census
from irrcensus.abelian import TypeVector
from irrcensus.errors import DomainError, ResourceLimitError
from irrcensus.synth import SynthModel
from irrcensus.abelian import cyclic_group, group_from_orders, trivial_group

from helpers import ideal_count_by_character, principal_count_by_norm_form


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
    """(norm, 0-based class) of every ideal of norm <= x, by a plain
    recursive walk that visits each ideal."""
    cay = system.ordering.cayley()
    sites = system.sites
    out = []

    def rec(start, n, c):
        out.append((n, c))
        for j in range(start, len(sites)):
            q = sites[j].norm
            if n * q > x:
                break
            m, cm = n, c
            while m * q <= x:
                m *= q
                cm = cay[cm][sites[j].class_index - 1]
                rec(j + 1, m, cm)

    rec(0, 1, 0)
    return out


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
    return {
        str(key): (
            system,
            list(census.enumerate_principal(system, REFERENCE_X)),
            _ideal_norms_and_classes(system, REFERENCE_X),
        )
        for key, system in systems.items()
    }


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    exponents=st.lists(st.integers(1, 9), max_size=6),
    max_degree=st.integers(0, 7),
)
def test_stack_polynomial_updates_match_subset_counts(exponents, max_degree):
    # the walk pushes each site with exponent 1, then raises it one at a time
    poly = (1,) + (0,) * max_degree
    for i, e in enumerate(exponents):
        base = poly
        poly = census._add_shifted(base, base, 1)
        for k in range(1, e + 1):
            if k > 1:
                poly = census._add_shifted(poly, base, k)
            want = census._bounded_subset_counts(exponents[:i] + [k], max_degree)
            assert list(poly) == want


def test_sweeps_of_different_groups_keep_their_own_memo(reference_walks):
    # a nu memo shared across walks would need a key that tells groups of
    # the same order apart: Z/4 (-39) and Z/2xZ/2 (-21, -30), and Z/2^3
    # (-105, -1155) and Z/2xZ/4, take turns in one process
    for key in ("-39", "-30", "-39", "-21", "-105", "(2, 4)", "-1155", "(2, 4)"):
        system, records, _ = reference_walks[key]
        tot = census.sweep(system, REFERENCE_X).at(REFERENCE_X)
        assert tot.nu_counts == Counter(rec.nu for _, rec in records)
        assert tot.irreducible_count == sum(rec.is_irreducible for _, rec in records)


def test_sweep_counters_anchor(sys5):
    # integer anchors for the walk's own counters at d = -5, x = 1e4
    swp = census.sweep(sys5, 10**4)
    assert (swp.visited, swp.bulk, swp.nu_states) == (1214, 12833, 32)


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
    system, records, ideals = reference_walks[
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
    for system, records, _ in reference_walks.values():
        want = sorted(
            (_record_row(rec) for _, rec in records if rec.norm <= x), key=itemgetter(0)
        )
        assert census.census_rows(system, x) == want


@pytest.mark.parametrize("x", [1, 300, REFERENCE_X])
def test_harmonic_sums_walk_every_ideal(reference_walks, x):
    # bit-equal to a sum in walk order: a bulk-counted sum differs in the
    # last bit on some of these systems
    for system, records, _ in reference_walks.values():
        principal, irreducible = census._Kahan(), census._Kahan()
        count = 0
        for _, rec in records:
            if rec.norm <= x:
                principal.add(1.0 / rec.norm)
                if rec.is_irreducible:
                    irreducible.add(1.0 / rec.norm)
                    count += 1
        hs = census.harmonic_sums(system, x)
        assert hs.principal.hex() == principal.value.hex()
        assert hs.irreducible.hex() == irreducible.value.hex()
        assert hs.irreducible_count == count


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
    finally:
        if enabled:
            gc.enable()


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
