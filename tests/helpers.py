"""Independent oracles shared by the test modules.

These deliberately avoid the production code paths: group arithmetic is
done directly on coordinate tuples, subset checks enumerate bitmasks, and
ideal counts come from character sums and norm-form lattice points.
"""

from __future__ import annotations

import itertools
import math

import sympy


def elements_of(group):
    return list(itertools.product(*(range(d) for d in group.invariant_factors)))


def tuple_add(mods, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, mods))


def multiset_sum(mods, multiset):
    total = tuple(0 for _ in mods)
    for e in multiset:
        total = tuple_add(mods, total, e)
    return total


def is_zero(vec):
    return not any(vec)


def is_minimal_zero_sum_multiset(mods, multiset) -> bool:
    """Definition check by exhaustive bitmask subset enumeration."""
    if not multiset:
        return False
    if not is_zero(multiset_sum(mods, multiset)):
        return False
    n = len(multiset)
    for mask in range(1, (1 << n) - 1):
        chosen = [multiset[i] for i in range(n) if mask >> i & 1]
        if is_zero(multiset_sum(mods, chosen)):
            return False
    return True


def types_by_bruteforce(group) -> set[tuple[int, ...]]:
    """All minimal zero-sum distributions by checking every multiset of
    length <= h (the Davenport constant never exceeds the group order)."""
    mods = group.invariant_factors
    elems = elements_of(group)
    h = group.h
    found = set()
    for length in range(1, h + 1):
        for combo in itertools.combinations_with_replacement(range(h), length):
            multiset = [elems[i] for i in combo]
            if is_minimal_zero_sum_multiset(mods, multiset):
                counts = [0] * h
                for i in combo:
                    counts[i] += 1
                found.add(tuple(counts))
    return found


def davenport_by_sequence_search(group) -> int:
    """1 + the longest zero-sum-free sequence, found by direct DFS over
    nondecreasing sequences of nonidentity elements."""
    mods = group.invariant_factors
    elems = [e for e in elements_of(group) if any(e)]
    best = 0

    def rec(start, sums, depth):
        nonlocal best
        if depth > best:
            best = depth
        for i in range(start, len(elems)):
            e = elems[i]
            new_sums = {tuple_add(mods, s, e) for s in sums}
            new_sums.add(e)
            if any(is_zero(s) for s in new_sums):
                continue
            new_sums.update(sums)
            rec(i, new_sums, depth + 1)

    rec(0, set(), 0)
    return best + 1


def kronecker(disc: int, m: int) -> int:
    """General Kronecker symbol (disc / m) for m >= 1."""
    if m <= 0:
        raise ValueError("m must be positive")
    value = 1
    while m % 2 == 0:
        m //= 2
        if disc % 2 == 0:
            return 0
        value *= 1 if disc % 8 in (1, 7) else -1
    if m == 1:
        return value
    if math.gcd(disc, m) != 1:
        return 0
    return value * sympy.jacobi_symbol(disc, m)


def ideal_count_by_character(disc: int, x: int) -> int:
    """#{ideals of norm <= x} = sum over m <= x of (disc/m) * floor(x/m)."""
    return sum(kronecker(disc, m) * (x // m) for m in range(1, x + 1))


def principal_form_coeffs(d: int) -> tuple[int, int, int]:
    if d % 4 == 1:
        return 1, 1, (1 - d) // 4
    return 1, 0, -d


def class_count_by_norm_form(form, x: int, w: int) -> int:
    """Ideals of norm <= x in the class of the reduced form (a, b, c): the
    lattice points (u, v) != 0 with a u^2 + b uv + c v^2 <= x, up to the w
    units.  For each v they are one interval of u, between the roots of
    a u^2 + b v u + c v^2 - x: its float ends, widened by one, move in
    while the exact integer form value exceeds x."""
    import numpy as np

    a, b, c = form
    disc = b * b - 4 * a * c
    vmax = math.isqrt(4 * a * x // -disc)
    v = np.arange(-vmax, vmax + 1, dtype=np.int64)
    root = np.sqrt((4 * a * x + disc * v * v).astype(float))
    lo = np.floor((-b * v - root) / (2 * a)).astype(np.int64) - 1
    hi = np.ceil((-b * v + root) / (2 * a)).astype(np.int64) + 1
    for end, step in ((lo, 1), (hi, -1)):
        while (out := (lo <= hi) & ((a * end + b * v) * end + c * v * v > x)).any():
            end += step * out
    count = int(np.maximum(hi - lo + 1, 0).sum()) - 1  # less (0, 0)
    assert count % w == 0
    return count // w


def omega_sieve(x: int):
    """omega(n) for 0..x by a numpy sieve."""
    import numpy as np

    omega = np.zeros(x + 1, dtype=np.int8)
    for p in range(2, x + 1):
        if omega[p] == 0:
            omega[p::p] += 1
    return omega


def neumaier_prefix(terms) -> list[float]:
    """Neumaier-compensated prefix sums of positive floats, one term at a
    time: entry i sums the first i terms."""
    s = comp = 0.0
    pre = [0.0]
    for v in terms:
        t = s + v
        comp += (s - t) + v if s >= v else (v - t) + s
        s = t
        pre.append(s + comp)
    return pre
