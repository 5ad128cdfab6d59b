import collections
import dataclasses
import hashlib
import io
import math
import os
import random
import resource
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irrcensus import census, primes, quadratic, synth
from irrcensus.abelian import ClassOrdering, _factorize, cyclic_group
from irrcensus.errors import DomainError, ResourceLimitError
from irrcensus.primes import (
    is_prime,
    kronecker_prime,
    kronecker_primes,
    prime_array,
    primes_up_to,
    sqrt_mod_prime,
    sqrt_mod_primes,
)
from irrcensus.quadratic import (
    CSV_CHUNK,
    SPLITTINGS,
    PrimeSite,
    QuadForm,
    SiteColumns,
    class_group,
    compose,
    form_pow,
    principal_form,
    prime_sites_up_to,
    reduce_form,
    reduced_forms,
    sites_to_csv,
    splitting_type,
    write_int_csv,
)

from helpers import kronecker


def test_validation_rejects_bad_d():
    with pytest.raises(DomainError, match="must be negative, got 5"):
        class_group(5)
    # 2^2, 3^2 and 101^2 divide; -1 and 101 * 103 are squarefree
    for d in (-12, -18, -2 * 101**2):
        with pytest.raises(DomainError, match=f"must be squarefree, got {d}"):
            class_group(d)
    for d in (-1, -101 * 103):
        quadratic._validate_d(d)
    with pytest.raises(DomainError, match="must be negative, got 0"):
        class_group(0)
    with pytest.raises(ResourceLimitError):
        class_group(-(10**7 + 3))


def test_class_group_minus5():
    cg = class_group(-5)
    assert cg.field.discriminant == -20
    assert cg.field.w == 2
    assert {(f.a, f.b, f.c) for f in cg.forms} == {(1, 0, 5), (2, 2, 3)}
    assert cg.group.invariant_factors == (2,)
    assert cg.class_index[QuadForm(1, 0, 5)] == 1
    assert cg.class_index[QuadForm(2, 2, 3)] == 2


def test_class_group_minus1():
    cg = class_group(-1)
    assert cg.field.discriminant == -4
    assert cg.field.w == 4
    assert [(f.a, f.b, f.c) for f in cg.forms] == [(1, 0, 1)]
    assert cg.group.invariant_factors == ()


def test_class_group_minus23():
    cg = class_group(-23)
    assert cg.field.discriminant == -23
    assert {(f.a, f.b, f.c) for f in cg.forms} == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    assert cg.group.invariant_factors == (3,)
    # the two nonprincipal classes are inverse to each other
    i1 = cg.class_index[QuadForm(2, 1, 3)]
    i2 = cg.class_index[QuadForm(2, -1, 3)]
    assert {i1, i2} == {2, 3}


KNOWN_CLASS_NUMBERS = {
    -1: 1, -2: 1, -3: 1, -7: 1, -11: 1, -19: 1, -43: 1, -67: 1, -163: 1,
    -5: 2, -6: 2, -10: 2, -13: 2, -15: 2,
    -23: 3, -31: 3,
    -14: 4, -21: 4, -30: 4, -39: 4,
    -47: 5,
    -26: 6,
    -71: 7,
}


@pytest.mark.parametrize("d,h", sorted(KNOWN_CLASS_NUMBERS.items()))
def test_known_class_numbers(d, h):
    cg = class_group(d)
    assert cg.field.h == h
    assert cg.group.h == h


def test_known_group_structures():
    assert class_group(-14).group.invariant_factors == (4,)
    assert class_group(-21).group.invariant_factors == (2, 2)
    assert class_group(-30).group.invariant_factors == (2, 2)
    assert class_group(-26).group.invariant_factors == (6,)
    assert class_group(-65).group.h == 8


def test_class_group_coordinates_are_pinned():
    # every squarefree d in [-2999, -1] (1,824 fields), and three whose
    # 2-parts of rank 2 or 4 sit beside odd parts: Z/2 x Z/516, Z/2 x Z/400
    # and Z/2 x Z/2 x Z/2 x Z/192 (h = 1536).  The SHA-256 runs over
    # repr((d, invariant factors, sorted (a, b, c, coordinates, class
    # index) of the reduced forms)), one field after another
    big = {-1000001: (2, 516), -1999999: (2, 400), -2499990: (2, 2, 2, 192)}
    squarefree = [d for d in range(-1, -3000, -1) if max(_factorize(-d).values(), default=1) == 1]
    assert len(squarefree) == 1824
    digest = hashlib.sha256()
    for d in [*squarefree, *big]:
        cg = class_group(d)
        if d in big:
            assert cg.group.invariant_factors == big[d]
        rows = sorted((f.a, f.b, f.c, cg.coordinates[f], cg.class_index[f]) for f in cg.forms)
        digest.update(repr((d, cg.group.invariant_factors, rows)).encode())
    assert digest.hexdigest() == "4af0e8ad90b38f20f1784561ec78344392700b64c920fc552a579b9ae3e84347"


def test_reduction_example():
    # the norm-7 site form above d=-5
    assert reduce_form(7, 6, 2) == QuadForm(2, 2, 3)
    assert reduce_form(1, 2, 6) == QuadForm(1, 0, 5)
    with pytest.raises(DomainError):
        reduce_form(-1, 0, 5)
    with pytest.raises(DomainError):
        reduce_form(1, 5, 2)  # positive discriminant


def test_composition_basics():
    cg = class_group(-5)
    e = principal_form(-20)
    f = QuadForm(2, 2, 3)
    assert compose(e, e) == e
    assert compose(e, f) == f
    assert compose(f, f) == e  # the ramified class has order 2


@pytest.mark.parametrize("d", [-5, -23, -14, -21, -26, -47, -71, -1003, -2003])
def test_group_table_is_a_group(d):
    cg = class_group(d)
    forms = cg.forms
    h = len(forms)
    rng = random.Random(12345)
    sample = forms if h <= 12 else [forms[rng.randrange(h)] for _ in range(12)]
    # closure under composition, Latin-square rows, inverse behavior
    for f in sample:
        row = [compose(f, g) for g in forms]
        assert set(row) == set(forms)
        assert compose(f, f.inverse()) == cg.identity_form
    # homomorphism onto canonical coordinates
    ordering = cg.ordering
    for _ in range(60):
        f = forms[rng.randrange(h)]
        g = forms[rng.randrange(h)]
        lhs = cg.coordinates[compose(f, g)]
        rhs = ordering.add(cg.coordinates[f], cg.coordinates[g])
        assert lhs == rhs


def test_form_orders_divide_h():
    cg = class_group(-47)
    for f in cg.forms:
        assert form_pow(f, cg.field.h, cg.identity_form) == cg.identity_form


def test_splitting_examples():
    field = class_group(-5).field
    assert splitting_type(field, 2) == "ramified"
    assert splitting_type(field, 3) == "split"
    assert splitting_type(field, 5) == "ramified"
    assert splitting_type(field, 11) == "inert"
    with pytest.raises(DomainError):
        splitting_type(field, 9)


def test_splitting_matches_kronecker():
    field = class_group(-23).field
    for p in primes_up_to(200):
        expected = kronecker(field.discriminant, p)
        got = splitting_type(field, p)
        assert got == {1: "split", -1: "inert", 0: "ramified"}[expected]


def test_sites_minus5_to_10():
    cg = class_group(-5)
    sites = list(prime_sites_up_to(cg, 10))
    assert [s.norm for s in sites] == [2, 3, 3, 5, 7, 7]
    assert [s.splitting for s in sites] == [
        "ramified", "split", "split", "ramified", "split", "split",
    ]
    assert [s.class_index for s in sites] == [2, 2, 2, 1, 2, 2]
    assert sites[1].conjugate_id == 2 and sites[2].conjugate_id == 1
    assert sites[0].conjugate_id == 0
    assert [s.id for s in sites] == list(range(6))


def test_sites_minus1_small():
    cg = class_group(-1)
    sites = list(prime_sites_up_to(cg, 5))
    assert [s.norm for s in sites] == [2, 5, 5]  # 3 is inert, norm 9 > 5
    assert all(s.class_index == 1 for s in sites)


def test_sites_minimal_bound():
    cg = class_group(-5)
    sites = list(prime_sites_up_to(cg, 2))
    assert len(sites) == 1 and sites[0].norm == 2
    with pytest.raises(DomainError):
        list(prime_sites_up_to(cg, 1))


def test_sites_include_inert_squares():
    cg = class_group(-5)
    sites = list(prime_sites_up_to(cg, 130))
    inert = [s for s in sites if s.splitting == "inert"]
    assert [s.norm for s in inert] == [121]  # 11 is inert, 11^2 <= 130
    assert all(s.class_index == 1 for s in inert)
    norms = [s.norm for s in sites]
    assert norms == sorted(norms)


def test_ramified_site_count_matches_disc():
    for d, expected in ((-5, 2), (-21, 3), (-1, 1), (-26, 2), (-30, 3)):
        cg = class_group(d)
        sites = list(prime_sites_up_to(cg, 300))
        ramified = [s for s in sites if s.splitting == "ramified"]
        disc_primes = set()
        m = -cg.field.discriminant
        p = 2
        while p * p <= m:
            while m % p == 0:
                disc_primes.add(p)
                m //= p
            p += 1
        if m > 1:
            disc_primes.add(m)
        assert len(ramified) == len(disc_primes) == expected


@pytest.mark.parametrize("d", [-5, -23])
def test_conjugate_sites_inverse_classes(d):
    cg = class_group(d)
    sites = list(prime_sites_up_to(cg, 10**5))
    by_id = {s.id: s for s in sites}
    neg = cg.ordering.neg_table()
    for s in sites:
        mate = by_id[s.conjugate_id]
        if s.splitting == "split":
            assert mate.p == s.p and mate.id != s.id
            assert neg[s.class_index - 1] + 1 == mate.class_index
        else:
            assert mate is s


def test_chebotarev_smoke_minus5():
    # classes receive equal shares of prime sites, within 2% relative at 1e6
    cg = class_group(-5)
    counts = [0, 0]
    total = 0
    for s in prime_sites_up_to(cg, 10**6):
        counts[s.class_index - 1] += 1
        total += 1
    for c in counts:
        assert abs(c * 2 / total - 1.0) < 0.02


def test_prefix_stability_of_ids():
    cg = class_group(-5)
    small = list(prime_sites_up_to(cg, 100))
    large = list(prime_sites_up_to(cg, 1000))
    assert small == large[: len(small)]


def test_sites_csv_golden():
    cg = class_group(-5)
    buf = io.StringIO()
    sites_to_csv(prime_sites_up_to(cg, 10), buf)
    assert buf.getvalue() == (
        "id,p,norm,splitting,class_index,conjugate_id\n"
        "0,2,2,ramified,2,0\n"
        "1,3,3,split,2,2\n"
        "2,3,3,split,2,1\n"
        "3,5,5,ramified,1,3\n"
        "4,7,7,split,2,5\n"
        "5,7,7,split,2,4\n"
    )


def _scalar_sites(cg, primes, limit):
    """Per-prime oracle for the site columns: one prime at a time, through
    splitting_type, sqrt_mod_prime and reduce_form."""
    disc = cg.field.discriminant
    rows = []
    for p in primes:
        kind = splitting_type(cg.field, p)
        if kind == "inert":
            if p * p <= limit:
                rows.append((p * p, 0, p, kind, 1))
            continue
        if kind == "ramified":
            roots = [(0 if disc % 8 == 0 else 2) if p == 2 else (p if disc % 2 else 0)]
        elif p == 2:
            roots = [1, 3]
        else:
            r = sqrt_mod_prime(disc, p)
            b = r if (r - disc) % 2 == 0 else r + p
            roots = sorted((b, 2 * p - b))
        for b in roots:
            form = reduce_form(p, b, (b * b - disc) // (4 * p))
            rows.append((p, b, p, kind, cg.class_index[form]))
    rows.sort()
    out = []
    for i, (norm, _, p, kind, cls) in enumerate(rows):
        mate = i
        if kind == "split":
            mate = i + 1 if i + 1 < len(rows) and rows[i + 1][2] == p else i - 1
        out.append(PrimeSite(i, p, norm, kind, cls, mate))
    return out


# w = 4 and 6, 2 split/inert/ramified, non-cyclic groups (-30, -105, -1155),
# and a large odd prime in the discriminant: Z/72 (-4001) and Z/105 (-1000003)
@pytest.mark.parametrize("d", [-1, -2, -3, -5, -7, -15, -23, -30, -105, -1155, -4001, -1000003])
def test_site_columns_match_scalar_oracle(d, monkeypatch):
    limit = 2 * 10**4
    primes = [p for p in range(2, limit + 1) if is_prime(p)]
    assert prime_array(limit).tolist() == primes
    # 1000-integer segments, so the sieve crosses many segment boundaries
    monkeypatch.setattr("irrcensus.primes.SEGMENT_SIZE", 1000)
    assert list(primes_up_to(limit)) == primes
    cg = class_group(d)
    expected = _scalar_sites(cg, primes, limit)
    # p = 1 (mod 8) takes the deep Tonelli-Shanks path
    assert any(s.p % 8 == 1 and s.splitting == "split" for s in expected)
    cols = prime_sites_up_to(cg, limit)
    assert len(cols) == len(expected)
    assert list(cols) == expected


@pytest.mark.parametrize("segment", [6, 1000])
def test_prime_array_matches_is_prime_across_segments_and_the_wheel_period(segment, monkeypatch):
    # 6 integers hold 3 odd ones, so 1 and the wheel primes 3..13 fall in
    # different segments; with 1000 the segments start at every offset of
    # the 15015-periodic wheel pattern and cross its period
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment)
    limits = list(range(300))
    if segment > 6:
        limits += [15015 * k + e for k in (1, 2, 3) for e in range(-2, 3)]
    expected = [p for p in range(max(limits) + 1) if is_prime(p)]
    for limit in limits:
        got = prime_array(limit)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in expected if p <= limit], limit


@pytest.mark.parametrize("d", [-5, -23, -7])
def test_site_columns_at_merge_boundaries(d):
    # limits that end the stream exactly on a ramified prime, on a split
    # prime, on an inert square p^2 and on p = 2 (ramified for -5, split for
    # -23 and -7), and one below each: the sites of the few ramified and
    # inert primes meet the split pairs there, and the stable sort by norm
    # must still give the (norm, b) order
    cg = class_group(d)
    primes = [p for p in range(2, 2000) if is_prime(p)]
    kind = {p: splitting_type(cg.field, p) for p in primes}
    ends = [
        ("ramified", max(p for p in primes if kind[p] == "ramified")),
        ("split", next(p for p in primes if p > 1000 and kind[p] == "split")),
        ("inert", next(p for p in primes if p > 30 and kind[p] == "inert") ** 2),
        (kind[2], 2),
    ]
    for tag, limit in ends:
        last = list(prime_sites_up_to(cg, limit))[-1]
        assert (last.splitting, last.norm) == (tag, limit)
        for lim in {limit, max(limit - 1, 2)}:
            expected = _scalar_sites(cg, [p for p in primes if p <= lim], lim)
            assert list(prime_sites_up_to(cg, lim)) == expected


SITES_GOLDEN = {
    # d: (limit, site count, SHA-256 of the sites_to_csv bytes)
    -5: (10**6, 78367, "bb622aaf724c3b2378202ebcf5ad88296258e95cfe45ddcd05d9dbf9093cb7c5"),
    # Z/4 and Z/3: the two sites of a split pair lie in different classes
    -14: (2 * 10**5, 17940, "4b4f17ef7a7cc2af7c6e65d64553e8c1605896a14d5914db5d49876ce4c577a3"),
    -23: (2 * 10**5, 17974, "8ef1944e30a4ff61c4d52442b29687a1f4a351a3f7bc3e8408c80ac65567bb1a"),
    -30: (2 * 10**5, 17943, "07794aee0d94138f564baa597c2c8ba87c1ad950ca38f31c259bce9c035a2710"),
    # mixed groups: the CRT step combines two Sylow subgroups (Z/6, Z/10),
    # and an order-4 factor sits beside an order-2 one (Z/2 x Z/4)
    -26: (2 * 10**5, 17932, "8aac5549cc3fc4fc6d8b51c72f417c1b0c15548f1cab0e986bf29a96af4671ac"),
    -65: (2 * 10**5, 17955, "2fba6b51c6df8f6c4d2dbac081a56616b0346ff9e1c048744bc15aee8735b53d"),
    -119: (2 * 10**5, 18034, "8c20f727fed3a21ea92f6ef9837f0fa21ef77cd45c2e75394e06a70fa3e6425c"),
    -1155: (2 * 10**5, 17887, "473c2501d3c44423dfa62fd47c45d609460e7c417cec95995f672ecc85982ff6"),
}


@pytest.mark.parametrize("d", sorted(SITES_GOLDEN))
def test_sites_csv_golden_sha256(d):
    limit, n_sites, digest = SITES_GOLDEN[d]
    cols = prime_sites_up_to(class_group(d), limit)
    assert len(cols) == n_sites
    buf = io.StringIO()
    sites_to_csv(cols, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.slow
def test_site_columns_at_1e8_are_pinned():
    # the d = -5 stream to 1e8: 5,761,963 sites, and the SHA-256 of its
    # norm, splitting and class columns' bytes, in that order
    cols = census.for_field(-5, 10**8).sites
    assert len(cols) == 5761963
    assert np.bincount(cols.cls).tolist() == [2880822, 2881141]
    digest = hashlib.sha256()
    for col in (cols.norm, cols.splitting, cols.cls):
        digest.update(col.tobytes())
    assert digest.hexdigest() == "8459159406444e49d25a9a0448103cfb2298363dd2ce8d24aa24522a1851bf2a"


def _split_primes(cg, limit):
    p = prime_array(limit)
    return p[kronecker_primes(cg.field.discriminant, p) == 1]


# every class of order <= 2: h = 1, Z/2 (-5), Z/2xZ/2 (-21, -30), (Z/2)^3
@pytest.mark.parametrize("d", [-1, -2, -3, -7, -11, -5, -21, -30, -105, -210, -330, -1155])
def test_residue_classes_match_the_reduction(d, monkeypatch):
    cg = class_group(d)
    assert quadratic._two_elementary(cg)
    m = -cg.field.discriminant
    first = {}
    for q in _split_primes(cg, 10**5).tolist():
        first.setdefault(q % m, q)
    # the stream ends one below the prime where the last residue first
    # occurs, and on that prime, where its residue has one prime only; at 2
    # and 3 at most one prime splits, none for d = -1 and -3
    last = max(first.values())
    limits = [2, 3, last - 1, last, 10**5]
    if d == -5:
        # residues 9 and 1 mod 20 first occur at 29 and 41
        assert (first[9], first[1]) == (29, 41)
        limits.append(28)
    residue = [quadratic._field_columns(cg, lim) for lim in limits]
    monkeypatch.setattr(quadratic, "_two_elementary", lambda cg: False)
    for lim, cols in zip(limits, residue):
        reduced = quadratic._field_columns(cg, lim)
        for name in SiteColumns.__slots__:
            a, b = getattr(cols, name), getattr(reduced, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (lim, name)


@pytest.mark.parametrize("d", [-14, -23])
def test_residue_rule_is_checked_where_a_class_has_order_above_two(d):
    # Z/4 and Z/3: primes of one residue mod |disc| lie in different classes,
    # which a second prime of the residue in the prefix shows
    cg = class_group(d)
    assert not quadratic._two_elementary(cg)
    p, m = _split_primes(cg, 10**4), -cg.field.discriminant
    classes = lambda q: quadratic._root_classes(cg, q, np.uint8)  # noqa: E731
    with pytest.raises(DomainError, match="the class of p=.* not a function of p mod"):
        quadratic._by_residue(classes, p, p.size // 2, m, "class")


def test_sites_csv_of_an_empty_stream_is_the_header():
    empty = np.empty(0, dtype=np.int64)
    buf = io.StringIO()
    sites_to_csv(SiteColumns(empty, empty.astype(np.int8), empty.astype(np.uint8)), buf)
    assert buf.getvalue() == "id,p,norm,splitting,class_index,conjugate_id\n"


def _windows(n):
    return [(a, b) for a in range(0, n, 7) for b in {a, min(a + 1, n), min(a + 4, n), n}]


def _read_every_way(cols):
    """The sites by iteration, the derived columns of windows of positions
    as lists, and the CSV text."""
    buf = io.StringIO()
    sites_to_csv(cols, buf)
    return (
        list(cols),
        [[col.tolist() for col in cols.columns(a, b)] for a, b in sorted(_windows(len(cols)))],
        buf.getvalue(),
    )


@pytest.mark.parametrize("d", [-5, -23, None])
def test_derived_columns_across_chunk_edges(d, monkeypatch):
    # chunks of 3 and 5 rows: split pairs straddle chunk edges, where the
    # conjugate is read from the next or previous chunk's norm
    if d is None:
        empty = np.empty(0, dtype=np.int64)
        cols = SiteColumns(empty, empty.astype(np.int8), empty.astype(np.uint8))
        expected = []
    else:
        cg = class_group(d)
        cols = prime_sites_up_to(cg, 300)
        expected = _scalar_sites(cg, [p for p in range(2, 301) if is_prime(p)], 300)
        for chunk in (3, 5):
            assert any(s.conjugate_id == s.id + 1 and s.id % chunk == chunk - 1 for s in expected)
    fields = [
        (s.id, s.p, s.norm, SPLITTINGS.index(s.splitting), s.class_index, s.conjugate_id)
        for s in expected
    ]
    want = (
        expected,
        [[list(col) for col in zip(*fields[a:b])] or [[]] * 6 for a, b in sorted(_windows(len(expected)))],
        "id,p,norm,splitting,class_index,conjugate_id\n"
        + "".join(
            f"{s.id},{s.p},{s.norm},{s.splitting},{s.class_index},{s.conjugate_id}\n"
            for s in expected
        ),
    )
    assert _read_every_way(cols) == want
    for chunk in (3, 5):
        monkeypatch.setattr("irrcensus.quadratic.CSV_CHUNK", chunk)
        assert _read_every_way(cols) == want


# both sides of every digit-count boundary of an int64, and its largest value
_DIGIT_BOUNDARIES = sorted({0, 2**63 - 1} | {10**k - 1 for k in range(19)} | {10**k for k in range(19)})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.lists(
                st.sampled_from(_DIGIT_BOUNDARIES) | st.integers(0, 2**63 - 1),
                min_size=k,
                max_size=k,
            ),
            min_size=1,
            max_size=30,
        )
    )
)
def test_write_int_csv_matches_str_join(rows):
    columns = np.array(rows, dtype=np.int64).T
    buf = io.StringIO()
    write_int_csv(buf, tuple(columns))
    assert buf.getvalue() == "".join(",".join(map(str, row)) + "\n" for row in rows)


class _RecordingOut:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("n", [0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1])
def test_write_int_csv_writes_at_most_a_chunk_at_a_time(n):
    # the values grow across the chunks, so the chunks differ in width
    values = np.arange(n, dtype=np.int64) ** 3
    codes = (np.arange(n) % len(SPLITTINGS)).astype(np.int8)
    out = _RecordingOut()
    write_int_csv(out, (values, (codes, SPLITTINGS), values[::-1].copy()))
    want = [
        f"{v},{SPLITTINGS[c]},{w}"
        for v, c, w in zip(values.tolist(), codes.tolist(), values[::-1].tolist())
    ]
    # compared as lines: a failing diff of the joined text would take minutes
    assert "".join(out.writes).split("\n") == want + [""]
    assert len(out.writes) == -(-n // CSV_CHUNK)
    assert all(text.count("\n") <= CSV_CHUNK for text in out.writes)


def test_write_int_csv_labels_of_different_widths():
    # split and inert (5 bytes), ramified (8) and synthetic (9) in one chunk
    buf = io.StringIO()
    codes = np.array([3, 0, 2, 1, 0], dtype=np.int8)
    write_int_csv(buf, ((codes, SPLITTINGS), np.array([7, 0, 10, 99, 100], dtype=np.int64)))
    assert buf.getvalue() == "synthetic,7\nsplit,0\nramified,10\ninert,99\nsplit,100\n"


def _csv_lines(columns):
    buf = io.StringIO()
    write_int_csv(buf, columns)
    return buf.getvalue().split("\n")


def _joined_lines(rows):
    return [",".join(map(str, row)) for row in rows] + [""]


def test_write_int_csv_label_column_across_chunks():
    # about 70,000 labels of 1-12 bytes, with codes over several chunks and
    # an int column on either side
    rng = np.random.default_rng(5)
    ends = np.cumsum(rng.integers(1, 13, 70_000)).tolist()
    text = "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz0123456789_"), ends[-1]))
    labels = [text[lo:hi] for lo, hi in zip([0, *ends], ends)]
    assert {len(s) for s in labels} == set(range(1, 13))
    n = 3 * CSV_CHUNK + 11
    codes = rng.integers(0, len(labels), n)
    before = rng.integers(0, 10**6, n)
    after = rng.integers(0, 2**63 - 1, n, dtype=np.int64)
    rows = zip(before.tolist(), [labels[c] for c in codes.tolist()], after.tolist())
    assert _csv_lines((before, (codes, labels), after)) == _joined_lines(rows)


def test_write_int_csv_width_changes_between_chunks():
    # 9 digits in the first chunk, 10 in the second, 19 (2**63 - 1) in the last
    n = 3 * CSV_CHUNK
    values = np.arange(n, dtype=np.int64) + 10**9 - CSV_CHUNK
    values[-1] = 2**63 - 1
    assert len(str(values[CSV_CHUNK - 1])) == 9 and len(str(values[CSV_CHUNK])) == 10
    small = np.arange(n, dtype=np.int64) % 13
    rows = zip(small.tolist(), values.tolist(), small.tolist())
    assert _csv_lines((small, values, small)) == _joined_lines(rows)


def test_write_int_csv_zeros_in_a_wide_column():
    values = np.array([0, 2**63 - 1, 0, 10, 0, 10**18, 0, 1, 0], dtype=np.int64)
    assert _csv_lines((values, values[::-1].copy())) == _joined_lines(
        zip(values.tolist(), values[::-1].tolist())
    )


def test_label_table_rows_are_the_joined_fields():
    rng = np.random.default_rng(8)
    columns = (rng.integers(0, 10**12, 500), np.zeros(500, dtype=np.int64), rng.integers(0, 9, 500))
    table = quadratic.label_table(columns)
    assert table.dtype == np.uint8 and table.shape[0] == 500
    labels = [bytes(row).replace(b"\0", b"").decode("ascii") for row in table]
    assert labels == _joined_lines(zip(*(c.tolist() for c in columns)))[:-1]
    # as a label column it writes those labels, whatever the codes' order
    codes = rng.integers(0, 500, 2 * CSV_CHUNK + 3)
    rows = ((c, labels[c], c) for c in codes.tolist())
    assert _csv_lines((codes, (codes, table), codes)) == _joined_lines(rows)


def test_write_int_csv_rejects_negative_values():
    buf = io.StringIO()
    with pytest.raises(DomainError, match="negative"):
        write_int_csv(buf, (np.array([3, 4], dtype=np.int64), np.array([5, -1], dtype=np.int64)))
    assert buf.getvalue() == ""


def _odd_primes_with_residues(limit, seed):
    p = prime_array(limit)[1:]
    x = np.random.default_rng(seed).integers(1, p)
    return p, x * x % p


def _check_roots(a, p, roots):
    assert ((roots >= 0) & (roots < p)).all()
    assert (roots * roots % p == a).all()
    for ai, pi, ri in zip(a.tolist(), p.tolist(), roots.tolist()):
        assert ri in (sqrt_mod_prime(ai, pi), pi - sqrt_mod_prime(ai, pi))


def test_sqrt_mod_primes_matches_scalar():
    p, a = _odd_primes_with_residues(2 * 10**5, 7)
    # p = 3 (mod 4), Atkin's p = 5 (mod 8) and Tonelli-Shanks' p = 1 (mod 8)
    assert set((p % 8).tolist()) == {1, 3, 5, 7}
    _check_roots(a, p, sqrt_mod_primes(a, p))
    assert sqrt_mod_primes(a[:0], p[:0]).size == 0


# NTT primes c 2^s + 1, from s = 16 (65537) to s = 27 (2013265921)
_DEEP_PRIMES = [65537, 786433, 7340033, 104857601, 167772161, 469762049, 998244353, 2013265921]


@pytest.mark.parametrize("seed", range(4))
def test_sqrt_mod_primes_on_deep_tonelli_shanks_lanes(seed):
    # the deep lanes among many shallow p = 1 (mod 8) ones, each deep prime
    # several times, so that every step k from 27 down to 2 acts on a
    # prefix of mixed depths
    rng = np.random.default_rng(seed)
    small = prime_array(3000)
    small = small[small % 8 == 1]
    p = rng.permutation(np.concatenate((np.repeat(_DEEP_PRIMES, 6), small)))
    depths = {((q - 1) & (1 - q)).bit_length() - 1 for q in _DEEP_PRIMES}
    assert depths == {16, 18, 20, 22, 23, 25, 26, 27}
    a = rng.integers(1, p) ** 2 % p
    # 1, where t = 1 from the start, and -1
    a[:2] = 1, p[1] - 1
    _check_roots(a, p, sqrt_mod_primes(a, p))


def _least_nonresidue(p):
    return next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)


def test_nonresidue_fallback_past_the_table(monkeypatch):
    p, a = _odd_primes_with_residues(2 * 10**5, 11)
    p, a = p[p % 8 == 1], a[p % 8 == 1]
    expected = [_least_nonresidue(q) for q in p.tolist()]
    assert primes._nonresidues(p).tolist() == expected
    # with the table cut to z = 3 every lane where 3 is a residue takes
    # Euler's criterion, which must find the same least non-residue
    monkeypatch.setattr(primes, "_NONSQUARES", primes._NONSQUARES[:1])
    assert sum(z > 3 for z in expected) > 1000
    assert primes._nonresidues(p).tolist() == expected
    _check_roots(a, p, sqrt_mod_primes(a, p))


@pytest.mark.parametrize("disc", [
    -3, -23, -1155, -1000003, 5,  # 2-part 1
    -4, -20, -16004, 12,  # 2-part -4 (-16004 = -4 * 4001)
    -24, -56, 8,  # 2-part 8 (-24 = 8 * -3)
    -8, -40, -840, 24,  # 2-part -8 (24 = -8 * -3)
])
def test_kronecker_primes_match_scalar(disc):
    # the ramified prime 1000003 lies past the sieve limit, so add it
    large = [1000003] if disc % 1000003 == 0 else []
    p = np.concatenate((prime_array(3 * 10**4), np.array(large, dtype=np.int64)))
    expected = [kronecker_prime(disc, q) for q in p.tolist()]
    got = kronecker_primes(disc, p)
    assert got.dtype == np.int8
    assert got.tolist() == expected
    assert {-1, 1} <= set(expected)
    # (disc / p) is a character mod |disc|: the table filled from the prefix
    # gives every prime's symbol, the ramified ones too
    m = abs(disc)
    kron = lambda q: kronecker_primes(disc, q)  # noqa: E731
    got = quadratic._by_residue(kron, p, quadratic._prefix(p, m), m, "Kronecker symbol")
    assert got.dtype == np.int8
    assert got.tolist() == expected


def _prefix_by_counting(p, m):
    units = [v for v in range(m) if math.gcd(v, m) == 1]
    k = min(len(p), 2 * m)
    while k < len(p):
        counts = collections.Counter(q % m for q in p[:k].tolist())
        if all(counts[v] >= 2 for v in units):
            break
        k = min(2 * k, len(p))
    return k


@pytest.mark.parametrize("m", [3, 20, 4620, 10**6])
def test_prefix_holds_two_primes_of_each_unit_residue(m):
    # the thinned stream keeps one prime = 1 (mod m) up to 200m, so for
    # m = 3 and 20 the first prefix of 2m primes misses that residue's
    # second prime and doubles; for 4620 the thinned stream has no second
    # prime = 1, and for 10**6 the stream is shorter than 2m, so the prefix
    # is all of it
    p = prime_array(2 * 10**5)
    ones = p[p % m == 1]
    thinned = p[(p % m != 1) | np.isin(p, ones[:1]) | (p > 200 * m)]
    for stream in (p, thinned):
        k = quadratic._prefix(stream, m)
        assert k == _prefix_by_counting(stream, m)
        assert set((stream[:k] % m).tolist()) == set((stream % m).tolist())
        assert (k < stream.size) == (m <= 20 or stream is p and m == 4620), k


def test_a_wrong_kronecker_table_entry_is_refused(monkeypatch):
    # the symbol at 29, the first prime = 9 (mod 20), is planted wrong; 89,
    # the next prime of that residue, disagrees with the table
    kronecker = quadratic.kronecker_primes

    def planted(disc, q):
        return np.where(q == 29, -kronecker(disc, q), kronecker(disc, q)).astype(np.int8)

    monkeypatch.setattr(quadratic, "kronecker_primes", planted)
    # the 168 primes to 1000 are past the prefix of 40, which ends at 173
    want = r"Kronecker symbol of p=89 differs from that of p=29, .* = 9 \(mod 20\)"
    with pytest.raises(DomainError, match=want):
        prime_sites_up_to(class_group(-5), 1000)
    # the 25 primes to 100 are all of the prefix: each is evaluated and no
    # table is read, so the planted symbol makes 29 inert
    norms = prime_sites_up_to(class_group(-5), 100).norm.tolist()
    assert 29 not in norms and 89 in norms


@pytest.mark.parametrize("disc", [-12, -16, -36, 4, 0, -3 * 9 * 4])
def test_kronecker_primes_need_a_fundamental_discriminant(disc):
    with pytest.raises(DomainError, match="fundamental"):
        kronecker_primes(disc, prime_array(20))


def test_site_columns_are_read_only():
    cols = prime_sites_up_to(class_group(-5), 10)
    assert isinstance(cols, SiteColumns) and len(cols) == 6
    assert list(cols)[-1] == PrimeSite(5, 7, 7, "split", 2, 4)
    # no random access: bulk readers take the columns
    with pytest.raises(TypeError):
        cols[0]
    with pytest.raises(ValueError):
        cols.norm[0] = 1
    with pytest.raises(AttributeError):
        cols.norm = np.zeros(6, dtype=np.int64)


def test_site_columns_refuse_unequal_lengths():
    norm = np.array([2, 3, 5], dtype=np.int64)
    for n_split, n_cls in ((2, 3), (3, 4)):
        with pytest.raises(DomainError, match="equal lengths"):
            SiteColumns(norm, np.zeros(n_split, dtype=np.int8), np.zeros(n_cls, dtype=np.uint8))


def test_site_norm_bounds_refuse_before_allocating(monkeypatch):
    cg = class_group(-5)

    def allocate(*args):
        raise AssertionError("the stream was built")

    monkeypatch.setattr(quadratic, "_field_columns", allocate)
    monkeypatch.setattr(synth, "prime_array", allocate)
    # pi(10**6) < 1.25506e6 / ln 1e6 = 90,844 sites, and 8e4 has 8,893: half
    # the estimated bytes of 1e6, in whole kB, of physical memory with no
    # address-space limit refuses 1e6 and builds 8e4, and so does an
    # address-space limit of that size on this machine's memory
    per_site = quadratic.BUILD_BYTES_PER_SITE + quadratic.CLASS_TABLE_BYTES_PER_SITE
    pages = 90844 * per_site // 2000
    model = synth.SynthModel(cyclic_group(3), 1)
    physical = {"SC_PAGE_SIZE": 1000, "SC_PHYS_PAGES": pages}.get
    unlimited = lambda which: (resource.RLIM_INFINITY,) * 2  # noqa: E731
    limited = lambda which: (pages * 1000, resource.RLIM_INFINITY)  # noqa: E731
    for sysconf, getrlimit in ((physical, unlimited), (os.sysconf, limited)):
        monkeypatch.setattr(os, "sysconf", sysconf)
        monkeypatch.setattr(resource, "getrlimit", getrlimit)
        for build in (lambda x: prime_sites_up_to(cg, x), lambda x: synth.synth_sites(model, x)):
            with pytest.raises(ResourceLimitError, match=rf"about \d+ bytes, more than the {pages}000 "):
                build(10**6)
            with pytest.raises(AssertionError, match="was built"):
                build(8 * 10**4)
    # with memory to spare the stream still stops where int64 site arithmetic ends
    monkeypatch.setattr(quadratic, "_available_memory", lambda: 2**62)
    with pytest.raises(ResourceLimitError, match="int64 site arithmetic"):
        prime_sites_up_to(cg, quadratic._INT64_MAX_NORM + 1)
    with pytest.raises(AssertionError, match="was built"):
        prime_sites_up_to(cg, quadratic._INT64_MAX_NORM)


def test_conjugate_and_order_checks_stay_loud(monkeypatch):
    # Z/3: the conjugate sites of a split prime lie in classes 2 and 3, and
    # the site build reads the second from the inverse table
    with monkeypatch.context() as m:
        m.setattr(ClassOrdering, "neg_table", lambda self: [0, 1, 2])
        with pytest.raises(DomainError, match="not in the inverse class"):
            class_group(-23)
    # a Sylow basis whose span falls short of the subgroup
    with monkeypatch.context() as m:
        m.setattr(quadratic, "_subgroup_with", lambda subgroup, x, identity: set(subgroup))
        with pytest.raises(DomainError, match="does not span the Sylow subgroup"):
            class_group(-23)
    system = census.for_field(-5, 100)
    cols = system.sites
    swapped = SiteColumns(
        *(
            np.concatenate((col[1::-1], col[2:]))
            for col in (cols.norm, cols.splitting, cols.cls)
        )
    )
    with pytest.raises(DomainError, match="sorted"):
        dataclasses.replace(system, sites=swapped)
    with pytest.raises(DomainError, match="SiteColumns"):
        dataclasses.replace(system, sites=list(cols))
    again = dataclasses.replace(system)
    assert again.sites is cols and again._norms == system._norms


def test_a_wrong_square_root_is_refused(monkeypatch):
    # at d = -23 the root 122 of 320, not of -23 = 308 (mod 331), gives the
    # form (331, 209, 33) of discriminant -11, which reduces to (1, 1, 3):
    # its (a, b) is that of the principal form (1, 1, 6), and the principal
    # class is its own inverse, so only the discriminant shows it
    cg = class_group(-23)
    assert sqrt_mod_prime(-23, 331) in (89, 331 - 89)

    def planted(a, p):
        root = sqrt_mod_primes(a, p)
        return np.where(p == 331, 122, root)

    monkeypatch.setattr(quadratic, "sqrt_mod_primes", planted)
    with pytest.raises(DomainError, match="p=331 does not have discriminant -23"):
        prime_sites_up_to(cg, 10**4)


@pytest.mark.parametrize("d", [-23, -47, -71, -119])
@pytest.mark.parametrize("shift", [1, 3])
def test_wrong_square_roots_are_refused_before_reducing(monkeypatch, d, shift):
    # every root shifted by 1 or 3: some lanes' floored c makes the form
    # indefinite, where reducing would divide by a = 0; the lanes are
    # refused before any is reduced, so no numpy warning is raised
    def planted(a, p):
        return (sqrt_mod_primes(a, p) + shift) % p

    monkeypatch.setattr(quadratic, "sqrt_mod_primes", planted)
    cg = class_group(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # d = 1 (mod 4) is the discriminant
        with pytest.raises(DomainError, match=f"does not have discriminant {d}"):
            prime_sites_up_to(cg, 10**4)


def test_reduced_forms_are_reduced_and_primitive():
    for d in (-5, -23, -47, -71):
        cg = class_group(d)
        for f in cg.forms:
            assert f.is_reduced()
            assert math.gcd(math.gcd(f.a, f.b), f.c) == 1
            assert f.discriminant == cg.field.discriminant
    assert reduced_forms(-20) == class_group(-5).forms


def test_psi_value_minus5():
    field = class_group(-5).field
    assert math.isclose(field.psi, math.pi / math.sqrt(20))
    assert field.psi_coefficient == 1  # 2/w with w=2
