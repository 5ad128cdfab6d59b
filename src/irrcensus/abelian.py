"""Finite abelian group combinatorics behind irreducible-divisor counting.

A nonunit algebraic integer is irreducible exactly when the multiset of
ideal classes of its prime ideal factors is a minimal zero-sum multiset
(it sums to the identity and no proper nonempty sub-multiset does).  Such
a multiset is described, up to the choice of prime ideals, by its
class-count vector, called a type.  This module enumerates all types of a
finite abelian group, computes the Davenport constant, and derives the
normalization constants used by the statistics layer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DomainError, ResourceLimitError, as_int

#: Largest group order enumerated.  The type search is a DFS over
#: zero-sum-free multisets and degrades badly past this; larger groups are
#: rejected loudly instead of running for hours.
MAX_ORDER = 64


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group in invariant-factor form Z/d_1 x ... x Z/d_r.

    Each d_i divides d_{i+1} and is at least 2; the empty tuple is the
    trivial group.  Elements are residue tuples (a_1, ..., a_r) with
    0 <= a_i < d_i.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(as_int(d, "invariant factor") for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise DomainError(f"invariant factor {d} must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise DomainError(
                    f"invariant factors must form a divisibility chain, got {factors}"
                )

    @property
    def h(self) -> int:
        """Group order."""
        return math.prod(self.invariant_factors)

    def __str__(self):
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def trivial_group() -> GroupSpec:
    return GroupSpec(())


def cyclic_group(n: int) -> GroupSpec:
    if n < 1:
        raise DomainError("cyclic group order must be positive")
    return GroupSpec(()) if n == 1 else GroupSpec((n,))


def group_from_orders(orders) -> GroupSpec:
    """Normalize a product of cyclic groups to invariant-factor form.

    Accepts arbitrary cyclic orders, e.g. (2, 3) -> Z/6 and (4, 2, 2) ->
    Z/2 x Z/2 x Z/4.  Order-1 factors are dropped.
    """
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        n = as_int(n, "cyclic factor order")
        if n < 1:
            raise DomainError("cyclic factor orders must be positive")
        for p, e in _factorize(n).items():
            by_prime.setdefault(p, []).append(e)
    rank = max((len(v) for v in by_prime.values()), default=0)
    descending = []
    for j in range(rank):
        d = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if j < len(exps_sorted):
                d *= p ** exps_sorted[j]
        descending.append(d)
    return GroupSpec(tuple(reversed(descending)))


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


class ClassOrdering:
    """Fixed enumeration of the group elements, identity first then lexicographic.

    The identity is the all-zero tuple, which is also the lexicographic
    minimum, so the ordering is plain sorted coordinate order.  ``index_of``
    maps an element to its 1-based position, matching the 1-based class
    indices used everywhere downstream.
    """

    def __init__(self, group: GroupSpec):
        self.group = group
        self.elements: tuple[tuple[int, ...], ...] = tuple(
            itertools.product(*(range(d) for d in group.invariant_factors))
        )
        self.index_of: dict[tuple[int, ...], int] = {
            e: i + 1 for i, e in enumerate(self.elements)
        }
        self._cayley: list[list[int]] | None = None
        self._neg: list[int] | None = None

    @property
    def identity(self) -> tuple[int, ...]:
        return self.elements[0]

    def add(self, a, b):
        return tuple(
            (x + y) % d for x, y, d in zip(a, b, self.group.invariant_factors)
        )

    def cayley(self) -> list[list[int]]:
        """0-based operation table: cayley()[i][j] = index of elements[i] + elements[j]."""
        if self._cayley is None:
            zero_based = {e: i for i, e in enumerate(self.elements)}
            self._cayley = [
                [zero_based[self.add(a, b)] for b in self.elements]
                for a in self.elements
            ]
        return self._cayley

    def neg_table(self) -> list[int]:
        """0-based inversion table."""
        if self._neg is None:
            zero_based = {e: i for i, e in enumerate(self.elements)}
            mods = self.group.invariant_factors
            self._neg = [zero_based[tuple(-x % d for x, d in zip(a, mods))] for a in self.elements]
        return self._neg


def canonical_ordering(group: GroupSpec) -> ClassOrdering:
    """The deterministic class ordering shared by every component."""
    return ClassOrdering(group)


@dataclass(frozen=True, order=True)
class TypeVector:
    """Class-count vector (t_1, ..., t_h) of a minimal zero-sum multiset."""

    t: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(int(v) for v in self.t))

    @property
    def length(self) -> int:
        return sum(self.t)


def zero_sum_vectors(group: GroupSpec, elements, bounds):
    """Every nonzero v with 0 <= v_i <= bounds_i whose sum of v_i * elements_i
    is the identity, in lexicographic order.

    The one zero-sum definition of the brute-force oracles
    (``is_minimal_zero_sum``, ``census.nu_bruteforce`` and
    ``census.delta_bruteforce``): it walks every bounded vector and sums
    with coordinate arithmetic, sharing no operation table with the fast
    paths.
    """
    if len(elements) != len(bounds):
        raise DomainError(f"{len(elements)} elements but {len(bounds)} bounds")
    mods = group.invariant_factors
    for v in itertools.product(*(range(b + 1) for b in bounds)):
        if any(v) and not any(
            sum(k * e[i] for k, e in zip(v, elements)) % d for i, d in enumerate(mods)
        ):
            yield v


def is_minimal_zero_sum(group: GroupSpec, ordering: ClassOrdering, tau) -> bool:
    """Is tau a zero-sum class distribution with no proper nonempty zero-sum
    sub-vector?

    Works directly from the definition (``zero_sum_vectors``), so it can
    serve as an oracle for the DFS enumeration.  Empty tau is rejected.
    """
    t = tuple(tau.t) if isinstance(tau, TypeVector) else tuple(tau)
    h = group.h
    if len(t) != h:
        raise DomainError(f"type vector length {len(t)} does not match h={h}")
    if any(v < 0 for v in t):
        raise DomainError("type vector entries must be nonnegative")
    if sum(t) == 0:
        raise DomainError("type vector must have positive length")
    return list(zero_sum_vectors(group, ordering.elements, t)) == [t]


def enumerate_types(group: GroupSpec) -> frozenset[TypeVector]:
    """All minimal zero-sum class distributions of the group.

    Every minimal zero-sum multiset is a zero-sum-free multiset S plus the
    single completing element -sum(S) (the empty S completes to the
    identity).  The DFS therefore walks zero-sum-free multisets in
    nondecreasing class order, pruning as soon as the attainable nonempty
    subset sums would contain the identity, and records each completion.
    Zero-sum-free multisets have length < Davenport constant, which bounds
    the depth.
    """
    h = group.h
    if h > MAX_ORDER:
        raise ResourceLimitError(f"group order {h} exceeds the enumeration bound {MAX_ORDER}")
    ordering = canonical_ordering(group)
    cay = ordering.cayley()
    neg = ordering.neg_table()
    found: set[tuple[int, ...]] = set()
    counts = [0] * h

    def extend(min_class: int, sums: set[int], total: int):
        comp = neg[total]
        counts[comp] += 1
        found.add(tuple(counts))
        counts[comp] -= 1
        for j in range(min_class, h):
            row = cay[j]
            new_sums = {row[s] for s in sums}
            new_sums.add(j)
            if 0 in new_sums:
                continue
            new_sums.update(sums)
            counts[j] += 1
            extend(j, new_sums, cay[total][j])
            counts[j] -= 1

    extend(1, set(), 0)
    return frozenset(TypeVector(t) for t in found)


def davenport_constant(group: GroupSpec) -> int:
    """Least D such that every length-D class sequence has a nonempty zero-sum
    subsequence; equals the maximal type length."""
    return structural_constants(group).davenport


@dataclass(frozen=True)
class StructuralConstants:
    """Derived constants of a class group.

    ``kappa``, ``A`` and ``B_squared`` are exact rationals; ``B`` is a float
    rendering of sqrt(B_squared).  ``A`` scales the main (log log x)^D term
    of the irreducible-divisor count and ``B`` its fluctuation term.
    """

    group: GroupSpec
    davenport: int
    types: frozenset[TypeVector]
    maximal_types: frozenset[TypeVector]
    kappa: tuple[Fraction, ...]
    A: Fraction
    B_squared: Fraction

    @property
    def B(self) -> float:
        return math.sqrt(self.B_squared.numerator / self.B_squared.denominator)

    @cached_property
    def sorted_types(self) -> tuple[TypeVector, ...]:
        """The types in ascending order, the order nu's decomposition uses."""
        return tuple(sorted(self.types))

    @cached_property
    def max_type_component(self) -> tuple[int, ...]:
        """Per-class maximum of t_i over all types (truncation degrees)."""
        h = self.group.h
        return tuple(max(tv.t[i] for tv in self.types) for i in range(h))

    def as_dict(self) -> dict:
        return {
            "invariant_factors": list(self.group.invariant_factors),
            "order": self.group.h,
            "davenport": self.davenport,
            "types": sorted(list(tv.t) for tv in self.types),
            "maximal_types": sorted(list(tv.t) for tv in self.maximal_types),
            "kappa": [_frac_str(k) for k in self.kappa],
            "A": _frac_str(self.A),
            "B_squared": _frac_str(self.B_squared),
            "A_float": float(self.A),
            "B": self.B,
        }


def _frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _inv_factorial_product(t: tuple[int, ...]) -> Fraction:
    return Fraction(1, math.prod(math.factorial(v) for v in t))


@lru_cache(maxsize=None)
def structural_constants(group: GroupSpec) -> StructuralConstants:
    types = enumerate_types(group)
    davenport = max(tv.length for tv in types)
    maximal = frozenset(tv for tv in types if tv.length == davenport)
    h = group.h
    kappa = tuple(
        sum(
            (Fraction(tv.t[j]) * _inv_factorial_product(tv.t) for tv in maximal),
            Fraction(0),
        )
        for j in range(h)
    )
    a_const = Fraction(sum(kappa), davenport * h**davenport)
    b_squared = Fraction(sum(k * k for k in kappa), h ** (2 * davenport - 1))
    if a_const <= 0 or b_squared <= 0:
        raise DomainError("degenerate structural constants")
    return StructuralConstants(
        group=group,
        davenport=davenport,
        types=types,
        maximal_types=maximal,
        kappa=kappa,
        A=a_const,
        B_squared=b_squared,
    )
