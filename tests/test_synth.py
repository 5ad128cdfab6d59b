import math
from collections import Counter

import pytest

from irrcensus import census, stats
from irrcensus.abelian import cyclic_group, group_from_orders, trivial_group
from irrcensus.errors import DomainError
from irrcensus.primes import is_prime
from irrcensus.synth import SynthModel, _label, splitmix64, synth_sites

from helpers import omega_sieve


def test_splitmix64_reference_vector():
    # reference outputs of the standard splitmix64 stream seeded with 1234567
    assert [splitmix64(1234567, i) for i in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_stream_determinism():
    model = SynthModel(group=cyclic_group(2), seed=99)
    a = list(synth_sites(model, 100))
    b = list(synth_sites(model, 100))
    assert a == b
    c = list(synth_sites(SynthModel(group=cyclic_group(2), seed=100), 100))
    assert a != c


def test_stream_prefix_stable():
    model = SynthModel(group=cyclic_group(3), seed=5)
    small = list(synth_sites(model, 200))
    large = list(synth_sites(model, 500))
    assert small == large[: len(small)]


def test_frozen_stream_checksum():
    model = SynthModel(group=cyclic_group(3), seed=42)
    labels = tuple(s.class_index for s in synth_sites(model, 100))
    assert labels == (
        2, 2, 1, 1, 2, 1, 2, 3, 2, 3, 3, 2, 3, 2, 3, 3, 3, 1, 1, 1, 1, 2, 1, 2, 3,
    )


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, -3], ids=lambda seed: f"{seed}-uniform")
def test_synth_columns_match_scalar_labels(seed):
    limit = 2 * 10**4
    model = SynthModel(group=group_from_orders((2, 4)), seed=seed)
    primes = [p for p in range(2, limit + 1) if is_prime(p)]
    expected = [(i, p, p, "synthetic", _label(model, i), i) for i, p in enumerate(primes)]
    got = [(s.id, s.p, s.norm, s.splitting, s.class_index, s.conjugate_id)
           for s in synth_sites(model, limit)]
    assert got == expected


def test_synth_sites_refuse_a_limit_below_2():
    model = SynthModel(group=cyclic_group(3), seed=1)
    for limit in (1, 0, -5):
        with pytest.raises(DomainError, match="limit >= 2"):
            synth_sites(model, limit)
    assert len(synth_sites(model, 2)) == 1


def test_trivial_group_all_class_one():
    model = SynthModel(group=trivial_group(), seed=3)
    sites = list(synth_sites(model, 300))
    assert all(s.class_index == 1 for s in sites)
    assert all(s.norm == s.p for s in sites)
    assert [s.id for s in sites] == list(range(len(sites)))


def test_class_frequencies_z3_frozen():
    # law of large numbers at 1e6 plus the exact frozen counts for this seed
    model = SynthModel(group=cyclic_group(3), seed=42)
    counts = Counter(s.class_index for s in synth_sites(model, 10**6))
    assert (counts[1], counts[2], counts[3]) == (26179, 26092, 26227)
    total = sum(counts.values())
    for c in (counts[1], counts[2], counts[3]):
        assert abs(c / total - 1 / 3) < 0.01
        # 3-sigma binomial band
        sigma = math.sqrt(total * (1 / 3) * (2 / 3))
        assert abs(c - total / 3) < 3 * sigma


def test_trivial_synth_census_matches_integer_sieve():
    x = 10**4
    model = SynthModel(group=trivial_group(), seed=1)
    system = census.for_synth(model, x)
    swp = census.sweep(system, x)
    tot = swp.at(x)
    omega = omega_sieve(x)
    expected = Counter(int(omega[n]) for n in range(1, x + 1))
    assert tot.nu_counts == expected
    eq = stats.equidist(tot, 2)
    direct = Counter(int(omega[n]) % 2 for n in range(1, x + 1))
    assert eq.counts == dict(direct)
