import dataclasses
import math
import random
from fractions import Fraction

import pytest

from irrcensus import census, stats
from irrcensus.abelian import cyclic_group, structural_constants, trivial_group
from irrcensus.errors import DomainError
from irrcensus.synth import SynthModel


@pytest.fixture(scope="module")
def sys5():
    return census.for_field(-5, 10**4)


@pytest.fixture(scope="module")
def sweep5(sys5):
    return census.sweep(
        sys5, 10**4, checkpoints=(100, 10**4), g_descriptors=(((0, 2),), ((1, 1),))
    )


def test_standardize_centering():
    sc = structural_constants(cyclic_group(2))
    x = 10**6
    big_l = stats.loglog(x)
    center = float(sc.A) * big_l**2
    assert stats.standardize(center, sc, x) == 0.0
    # strictly increasing in nu
    zs = [stats.standardize(nu, sc, x) for nu in range(10)]
    assert all(a < b for a, b in zip(zs, zs[1:]))


def test_standardize_h1_is_classical():
    sc = structural_constants(trivial_group())
    x = 10**5
    big_l = stats.loglog(x)
    for nu in (0, 1, 5):
        assert math.isclose(
            stats.standardize(nu, sc, x), (nu - big_l) / math.sqrt(big_l)
        )


def test_standardize_worked_example():
    # d = -5, x = 1e6, nu = 10: z = (10 - L^2/8) / (L^(3/2) / (2 sqrt 2))
    sc = structural_constants(cyclic_group(2))
    big_l = stats.loglog(10**6)
    expected = (10 - big_l**2 / 8) / (big_l**1.5 / (2 * math.sqrt(2)))
    z = stats.standardize(10, sc, 10**6)
    assert math.isclose(z, expected)
    assert abs(z - 6.074) < 5e-3


def test_standardize_rejects_small_x():
    sc = structural_constants(cyclic_group(2))
    with pytest.raises(DomainError):
        stats.standardize(3, sc, 15)


def test_gaussian_target_values():
    big_l = 3.0
    s2 = 0.5
    assert stats.gaussian_target(2, s2, big_l) == s2 * big_l
    assert stats.gaussian_target(4, s2, big_l) == 3 * (s2 * big_l) ** 2
    assert stats.gaussian_target(6, s2, big_l) == 15 * (s2 * big_l) ** 3
    for k in (1, 3, 5, 7, 9):
        assert stats.gaussian_target(k, s2, big_l) == 0.0


def test_f_value():
    assert stats.f_value((2, 3), (0.0, 1.0)) == 3.0
    assert stats.f_value((2, 3), (1.0, 1.0)) == 5.0
    with pytest.raises(DomainError):
        stats.f_value((2, 3), (1.0,))


def test_f_moment_against_direct_enumeration(sys5, sweep5):
    # profile-counter aggregation equals a direct pass over the records
    x = 10**4
    kappa = (0.0, 1.0)
    center = 0.5 * stats.loglog(x)
    records = [rec for _, rec in census.enumerate_principal(sys5, x)]
    for k in (1, 2, 3):
        direct = sum((rec.omega[1] - center) ** k for rec in records) / len(records)
        agg = stats.f_central_moment(sweep5.at(x), kappa, k)
        assert math.isclose(agg, direct, rel_tol=1e-12)


def test_f_moment_kappa_validation(sys5, sweep5):
    with pytest.raises(DomainError):
        stats.f_central_moment(sweep5.at(10**4), (0.0, 0.0), 2)
    with pytest.raises(DomainError):
        stats.f_central_moment(sweep5.at(10**4), (-1.0, 1.0), 2)


def test_g_predicted_examples():
    assert stats.g_predicted(((2, 2),)) == pytest.approx(0.25)
    assert stats.g_predicted(((2, 1),)) == pytest.approx(0.0)
    assert stats.g_predicted(()) == 1.0
    # vanishes unless squarefull, and |G| <= 1/N(rad r)
    import random

    rng = random.Random(0)
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(1, 3)):
            parts.append((rng.choice((2, 3, 5, 7, 11)), rng.randint(1, 4)))
        val = stats.g_predicted(parts)
        if any(e == 1 for _, e in parts):
            assert val == pytest.approx(0.0)
        rad = math.prod({q for q, _ in parts})
        assert abs(val) <= 1.0 / rad + 1e-12


def test_g_mean_small_sweep(sys5, sweep5):
    (measured, predicted), (m_single, p_single) = stats.g_mean_check(sweep5, 10**4)
    assert predicted == pytest.approx(sys5.field.psi * 0.25)
    assert abs(measured - predicted) < 0.05
    assert p_single == 0.0
    assert abs(m_single) < 0.05


def test_report_ignores_walk_counters(sys5, sweep5):
    # visited, batched, bulk and nu_states describe the walk; no report byte
    # reads them
    report = stats.build_report(sys5, 10**4, m=2, sweep=sweep5)
    scrambled = dataclasses.replace(sweep5, visited=-1, batched=-1, bulk=-1, nu_states=-1)
    other = stats.build_report(sys5, 10**4, m=2, sweep=scrambled)
    assert other.to_json() == report.to_json()
    assert stats.histogram_csv(other.histogram_rows) == stats.histogram_csv(
        report.histogram_rows
    )


@pytest.mark.parametrize("field", [-5, -23, -1155])
def test_report_ignores_nu_counts_order(field):
    # the order in which the sweep meets the nu values is the walk's and the
    # tally's business: shuffling every checkpoint's nu_counts leaves every
    # byte of the report
    system = census.for_field(field, 10**5)
    x = 10**5
    swp = census.sweep(system, x, checkpoints=(10**3,), g_descriptors=stats.default_g_descriptors(system))
    want = stats.build_report(system, x, sweep=swp).to_json()
    rng = random.Random(field)
    for _ in range(4):
        totals = []
        for t in swp.totals:
            items = list(t.nu_counts.items())
            rng.shuffle(items)
            totals.append(dataclasses.replace(t, nu_counts=dict(items)))
        shuffled = dataclasses.replace(swp, totals=tuple(totals))
        assert stats.build_report(system, x, sweep=shuffled).to_json() == want


def test_weber_small(sys5, sweep5):
    ratios = stats.weber_check(sys5, sweep5.at(10**4))
    assert len(ratios) == 2
    for r in ratios:
        assert abs(r - 1.0) < 0.05


def test_weber_needs_field():
    system = census.for_synth(SynthModel(group=cyclic_group(2), seed=1), 100)
    with pytest.raises(DomainError):
        stats.weber_check(system, census.sweep(system, 100).at(100))


def test_landau_small(sys5):
    devs = stats.landau_check(sys5, 10**4)
    assert len(devs) == 2
    # deviations are O(1) constants
    assert all(abs(d) < 2 for d in devs)
    # class 2 holds the small split primes (3, 7, ...), class 1 starts at 29
    assert devs[1] > devs[0]


def test_landau_rejects_x_below_3(sys5):
    for x in (2, 1, 0):
        with pytest.raises(DomainError, match="needs x >= 3"):
            stats.landau_check(sys5, x)
    assert len(stats.landau_check(sys5, 3)) == 2


def test_landau_rejects_x_beyond_stream_limit():
    # the sites above the limit are missing, so the sums would be short
    system = census.for_field(-5, 100)
    with pytest.raises(DomainError, match="exceeds the site stream limit"):
        stats.landau_check(system, 10**4)
    assert len(stats.landau_check(system, 100)) == 2


def test_landau_drift_between_decades():
    system = census.for_field(-5, 10**6)
    devs = [stats.landau_check(system, 10**k) for k in (4, 5, 6)]
    for a, b in zip(devs, devs[1:]):
        for da, db in zip(a, b):
            assert abs(da - db) < 0.05


def test_exceptional_fraction_edges(sys5, sweep5):
    with pytest.raises(DomainError):
        stats.exceptional_fraction(census.sweep(sys5, 10).at(10))
    frac = stats.exceptional_fraction(sweep5.at(10**4))
    assert 0.0 < frac < 1.0


def test_equidist_m1(sys5, sweep5):
    result = stats.equidist(sweep5.at(10**4), 1)
    assert result.deviation == 0.0
    assert result.counts == {0: result.n}
    for m in (0, -2):
        with pytest.raises(DomainError, match="modulus must be >= 1"):
            stats.equidist(sweep5.at(10**4), m)


def test_equidist_counts_sum(sys5, sweep5):
    for m in (2, 3, 5):
        result = stats.equidist(sweep5.at(10**4), m)
        assert sum(result.counts.values()) == result.n
        assert result.n == sweep5.at(10**4).n_principal


def test_ks_distance_bounds(sys5, sweep5):
    d = stats.ks_distance(sweep5.at(10**4), sys5.constants)
    assert 0.0 < d < 1.0


def test_histogram_conserves_mass(sys5, sweep5):
    totals = sweep5.at(10**4)
    rows = stats.histogram(totals, sys5.constants)
    assert sum(r[2] for r in rows) == totals.n_principal
    assert rows[0][0] == "-inf" and rows[-1][1] == "inf"
    assert len(rows) == 50
    csv_text = stats.histogram_csv(rows)
    assert csv_text.startswith("bin_low,bin_high,count\n")
    assert len(csv_text.strip().split("\n")) == 51


def test_histogram_low_tail(sys5, sweep5):
    # a centre far above every count standardizes all of them below HIST_LO
    totals = sweep5.at(10**4)
    sc = dataclasses.replace(sys5.constants, A=Fraction(100))
    assert max(stats.standardize(nu, sc, totals.x) for nu in totals.nu_counts) < stats.HIST_LO
    rows = stats.histogram(totals, sc)
    assert rows[0] == ("-inf", stats.HIST_LO, totals.n_principal)
    assert all(cnt == 0 for *_, cnt in rows[1:])


def test_report_roundtrip(sys5, sweep5):
    report = stats.build_report(sys5, 10**4, m=2, sweep=sweep5)
    assert report.n_principal == sweep5.at(10**4).n_principal
    text = report.to_json()
    import json

    parsed = json.loads(text)
    assert parsed["x"] == 10**4
    assert parsed["n_principal"] == report.n_principal
    assert "2:0" in parsed["residue_counts"]
    assert parsed["constants"]["A"] == "1/8"
    # deterministic serialization
    assert text == stats.build_report(sys5, 10**4, m=2, sweep=sweep5).to_json()


def test_report_merge_associative(sys5):
    # same totals at x whether they add up several checkpoint bands or one
    a = census.sweep(sys5, 10**4, checkpoints=(10, 100, 1000))
    b = census.sweep(sys5, 10**4)
    ta, tb = a.at(10**4), b.at(10**4)
    assert ta.nu_counts == tb.nu_counts
    assert ta.class_counts == tb.class_counts
    assert math.isclose(ta.harmonic_principal, tb.harmonic_principal, rel_tol=1e-12)


def test_float_serialization_17_digits():
    text = stats.dumps({"v": 1 / 3, "w": [0.1, 2.0]})
    assert text == '{"v":0.33333333333333331,"w":[0.10000000000000001,2]}'
