import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from irrcensus.abelian import (
    GroupSpec,
    TypeVector,
    canonical_ordering,
    cyclic_group,
    davenport_constant,
    enumerate_types,
    group_from_orders,
    is_minimal_zero_sum,
    structural_constants,
    trivial_group,
    zero_sum_vectors,
)
from irrcensus.errors import DomainError, ResourceLimitError

from helpers import (
    davenport_by_sequence_search,
    elements_of,
    is_zero,
    multiset_sum,
    types_by_bruteforce,
)


def types_as_tuples(group):
    return {tv.t for tv in enumerate_types(group)}


def test_group_spec_validation():
    with pytest.raises(DomainError):
        GroupSpec((1,))
    with pytest.raises(DomainError):
        GroupSpec((4, 2))
    with pytest.raises(DomainError):
        GroupSpec((2, 3))
    with pytest.raises(DomainError):
        cyclic_group(0)
    with pytest.raises(DomainError):
        group_from_orders((2, 0))
    assert GroupSpec((2, 4)).h == 8
    assert trivial_group().h == 1


@pytest.mark.parametrize("make", [GroupSpec, group_from_orders])
def test_non_integral_orders_are_refused(make):
    # int() would truncate 2.5 to 2 and build Z/2
    with pytest.raises(DomainError, match=r"must be an integer, got 2\.5"):
        make((2.5,))
    assert make((2,)).invariant_factors == (2,)


def test_group_from_orders_normalizes():
    assert group_from_orders((2, 3)).invariant_factors == (6,)
    assert group_from_orders((4, 2, 2)).invariant_factors == (2, 2, 4)
    assert group_from_orders((1,)).invariant_factors == ()
    assert group_from_orders((6, 4)).invariant_factors == (2, 12)


def test_canonical_ordering_examples():
    assert canonical_ordering(trivial_group()).elements == ((),)
    assert canonical_ordering(cyclic_group(2)).elements == ((0,), (1,))
    assert canonical_ordering(GroupSpec((2, 2))).elements == (
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    )
    ordering = canonical_ordering(cyclic_group(5))
    assert ordering.index_of[(0,)] == 1
    assert ordering.elements[0] == (0,)


def test_is_minimal_zero_sum_z2():
    g = cyclic_group(2)
    ordering = canonical_ordering(g)
    assert is_minimal_zero_sum(g, ordering, (1, 0))
    assert is_minimal_zero_sum(g, ordering, (0, 2))
    assert not is_minimal_zero_sum(g, ordering, (1, 1))
    assert not is_minimal_zero_sum(g, ordering, (0, 4))
    with pytest.raises(DomainError):
        is_minimal_zero_sum(g, ordering, (0, 0))
    with pytest.raises(DomainError):
        is_minimal_zero_sum(g, ordering, (1, 0, 0))
    with pytest.raises(DomainError):
        is_minimal_zero_sum(g, ordering, (-1, 2))


_SMALL_GROUPS = [
    trivial_group(),
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    GroupSpec((2, 2)),
    GroupSpec((2, 4)),
]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), group=st.sampled_from(_SMALL_GROUPS))
def test_zero_sum_vectors_match_multiset_sums(data, group):
    mods = group.invariant_factors
    elements = data.draw(st.lists(st.sampled_from(elements_of(group)), max_size=5), label="elements")
    bounds = data.draw(
        st.lists(st.integers(0, 3), min_size=len(elements), max_size=len(elements)), label="bounds"
    )
    # every sub-vector, expanded to its multiset of group elements
    expected = [
        v
        for v in itertools.product(*(range(b + 1) for b in bounds))
        if any(v) and is_zero(multiset_sum(mods, [e for e, k in zip(elements, v) for _ in range(k)]))
    ]
    assert list(zero_sum_vectors(group, elements, bounds)) == expected


@pytest.mark.parametrize("group", [trivial_group(), GroupSpec((2, 4))])
def test_zero_sum_vectors_of_empty_and_zero_bounds(group):
    elements = elements_of(group)
    assert list(zero_sum_vectors(group, [], [])) == []
    assert list(zero_sum_vectors(group, elements, [0] * group.h)) == []
    # one copy of each element: the identity alone is a zero sum
    assert (1,) + (0,) * (group.h - 1) in zero_sum_vectors(group, elements, [1] * group.h)
    with pytest.raises(DomainError, match="bounds"):
        list(zero_sum_vectors(group, elements, [1] * (group.h + 1)))


def test_enumerate_types_examples():
    assert types_as_tuples(cyclic_group(2)) == {(1, 0), (0, 2)}
    assert types_as_tuples(cyclic_group(3)) == {
        (1, 0, 0),
        (0, 1, 1),
        (0, 3, 0),
        (0, 0, 3),
    }
    assert types_as_tuples(trivial_group()) == {(1,)}


@pytest.mark.parametrize(
    "group",
    [
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        cyclic_group(5),
        cyclic_group(6),
        GroupSpec((2, 2)),
        GroupSpec((2, 4)),
        GroupSpec((2, 2, 2)),
        GroupSpec((3, 3)),
    ],
)
def test_enumerate_types_against_bruteforce(group):
    assert types_as_tuples(group) == types_by_bruteforce(group)


@pytest.mark.parametrize(
    "group",
    [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(5),
        cyclic_group(8),
        cyclic_group(12),
        GroupSpec((2, 2)),
        GroupSpec((2, 4)),
        GroupSpec((2, 6)),
        GroupSpec((3, 3)),
        GroupSpec((2, 2, 2)),
    ],
)
def test_davenport_against_sequence_search(group):
    assert davenport_constant(group) == davenport_by_sequence_search(group)


def test_davenport_examples():
    assert davenport_constant(cyclic_group(6)) == 6
    assert davenport_constant(GroupSpec((2, 2))) == 3
    assert davenport_constant(trivial_group()) == 1


def test_types_all_minimal_and_bounded():
    for group in (cyclic_group(6), GroupSpec((2, 4)), GroupSpec((3, 3))):
        ordering = canonical_ordering(group)
        types = enumerate_types(group)
        d = davenport_constant(group)
        for tv in types:
            assert tv.length <= d
            assert is_minimal_zero_sum(group, ordering, tv)


def test_identity_type_unique():
    # (1,0,...,0) is the only type touching the principal class
    for group in (cyclic_group(4), GroupSpec((2, 2)), cyclic_group(7)):
        with_t1 = [tv for tv in enumerate_types(group) if tv.t[0] != 0]
        assert with_t1 == [TypeVector((1,) + (0,) * (group.h - 1))]


def test_structural_constants_z2():
    sc = structural_constants(cyclic_group(2))
    assert sc.davenport == 2
    assert sc.kappa == (Fraction(0), Fraction(1))
    assert sc.A == Fraction(1, 8)
    assert sc.B_squared == Fraction(1, 8)
    assert math.isclose(sc.B, 1 / (2 * math.sqrt(2)))


def test_structural_constants_z3():
    sc = structural_constants(cyclic_group(3))
    assert sc.davenport == 3
    assert sc.kappa == (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    assert sc.A == Fraction(1, 81)
    assert sc.B_squared == Fraction(1, 486)
    assert math.isclose(sc.B, math.sqrt(6) / 54)


def test_structural_constants_trivial():
    sc = structural_constants(trivial_group())
    assert sc.davenport == 1
    assert sc.kappa == (Fraction(1),)
    assert sc.A == Fraction(1)
    assert sc.B_squared == Fraction(1)


def _totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("h", range(2, 9))
def test_cyclic_closed_forms(h):
    sc = structural_constants(cyclic_group(h))
    phi = _totient(h)
    hfact = math.factorial(h)
    assert sc.davenport == h
    assert sc.A == Fraction(phi, h**h * hfact)
    assert sc.B_squared == Fraction(h**3 * phi, (h**h * hfact) ** 2)
    # maximal types put h in a unit-index coordinate and zeros elsewhere
    expected = set()
    for j in range(h):
        if math.gcd(j, h) == 1:
            t = [0] * h
            t[j] = h
            expected.add(tuple(t))
    assert {tv.t for tv in sc.maximal_types} == expected


def _partitions(n):
    if n == 0:
        yield []
        return
    for k in range(n, 0, -1):
        for rest in _partitions(n - k):
            if not rest or k >= rest[0]:
                yield [k] + rest


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def all_groups_up_to(max_order):
    import itertools

    for n in range(1, max_order + 1):
        choices = [
            [[p**e for e in part] for part in _partitions(a)]
            for p, a in _factorize(n).items()
        ]
        for combo in itertools.product(*choices):
            yield group_from_orders([v for part in combo for v in part])


def test_kappa_sum_identity_all_groups_h20():
    # sum_j kappa_j = D * sum over maximal types of prod 1/t_i!
    seen = 0
    for group in all_groups_up_to(20):
        sc = structural_constants(group)
        rhs = sum(
            (
                Fraction(1, math.prod(math.factorial(v) for v in tv.t))
                for tv in sc.maximal_types
            ),
            Fraction(0),
        )
        assert sum(sc.kappa) == sc.davenport * rhs
        # and the two equivalent forms of A agree
        assert sc.A == Fraction(rhs, group.h**sc.davenport)
        seen += 1
    assert seen == 31


def test_types_invariant_under_automorphism():
    group = GroupSpec((2, 2))
    ordering = canonical_ordering(group)
    types = types_as_tuples(group)
    autos = [
        lambda e: (e[1], e[0]),
        lambda e: (e[0], (e[0] + e[1]) % 2),
        lambda e: ((e[0] + e[1]) % 2, e[1]),
    ]
    for sigma in autos:
        permuted = set()
        for t in types:
            out = [0] * group.h
            for i, cnt in enumerate(t):
                out[ordering.index_of[sigma(ordering.elements[i])] - 1] = cnt
            permuted.add(tuple(out))
        assert permuted == types


def test_enumeration_bound_is_loud():
    with pytest.raises(ResourceLimitError):
        enumerate_types(cyclic_group(100))
    with pytest.raises(ResourceLimitError):
        davenport_constant(cyclic_group(65))
    assert davenport_constant(cyclic_group(10)) == 10
