"""Synthetic class-labeled prime streams.

For class groups with no convenient small-discriminant field, the census
and statistics machinery runs on a fake site stream: every rational prime
p <= X becomes one site of norm p whose class is drawn i.i.d. and
uniformly from the group.  The generator is splitmix64 (version 1), a
counter-based 64-bit mixer, so streams are identical across platforms and
runs for a fixed (group, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import GroupSpec
from .errors import DomainError, as_int
from .primes import prime_array
from .quadratic import SYNTHETIC, SiteColumns

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Output #index (0-based) of the splitmix64 stream started at seed."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SynthModel:
    """A class group and a 64-bit seed; the labels are uniform."""

    group: GroupSpec
    seed: int


def _label(model: SynthModel, index: int) -> int:
    return splitmix64(model.seed & _MASK, index) % model.group.h + 1


def _labels(model: SynthModel, n: int) -> np.ndarray:
    """``_label(model, i) - 1`` for i in range(n), the 0-based classes, on
    uint64 arrays: splitmix64 wraps modulo 2**64 exactly as the masked
    integer version does."""
    z = np.uint64(model.seed & _MASK) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    r = z ^ (z >> np.uint64(31))
    h = model.group.h
    return (r % np.uint64(h)).astype(np.min_scalar_type(h - 1))


def synth_sites(model: SynthModel, limit: int) -> SiteColumns:
    """Deterministic site stream: the i-th prime gets label(seed, i).

    Returns the stream as columns (norm p, the synthetic tag and the 0-based
    label); iterating it yields ``PrimeSite``s, whose p is the norm and
    whose conjugate is the site itself.
    """
    if as_int(limit, "site norm bound") < 2:
        raise DomainError("site stream needs limit >= 2")
    p = prime_array(limit)
    return SiteColumns(p, np.full(p.size, SYNTHETIC, dtype=np.int8), _labels(model, p.size))
