"""Prime generation and basic modular helpers.

One segmented sieve produces the primes; the scalar helpers (``is_prime``,
``kronecker_prime``, ``sqrt_mod_prime``) serve single primes, and their
array counterparts (``pow_mod``, ``sqrt_mod_primes``) serve whole prime
columns at once.  The array helpers work in int64 and need every modulus
below 2**31, so that products of two residues stay below 2**62.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import DomainError

SEGMENT_SIZE = 1 << 20


def prime_segments(limit: int, segment_size: int = SEGMENT_SIZE) -> Iterator[np.ndarray]:
    """Primes <= limit as ascending int64 arrays, one per sieve segment.

    Each segment of ``segment_size`` integers is crossed off by the base
    primes <= isqrt(limit), which come from this same sieve one level down,
    so memory stays O(segment_size + sqrt(limit)).
    """
    if limit < 2:
        return
    base = prime_array(math.isqrt(limit)).tolist()
    for low in range(0, limit + 1, segment_size):
        high = min(low + segment_size - 1, limit)
        mask = np.ones(high - low + 1, dtype=bool)
        if low == 0:
            mask[:2] = False
        for p in base:
            if p * p > high:
                break
            start = max(p * p, -(-low // p) * p)
            mask[start - low :: p] = False
        yield (np.flatnonzero(mask) + low).astype(np.int64, copy=False)


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit as one int64 array."""
    segments = list(prime_segments(limit))
    return np.concatenate(segments) if segments else np.empty(0, dtype=np.int64)


def primes_up_to(limit: int, segment_size: int = SEGMENT_SIZE) -> Iterator[int]:
    """Stream primes <= limit from the segmented sieve (memory stays O(segment))."""
    for segment in prime_segments(limit, segment_size):
        yield from segment.tolist()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker_prime(disc: int, p: int) -> int:
    """Kronecker symbol (disc / p) for prime p."""
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 in (1, 7) else -1
    r = disc % p
    if r == 0:
        return 0
    ls = pow(r, (p - 1) // 2, p)
    return 1 if ls == 1 else -1


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo the odd prime p (Tonelli-Shanks).

    Requires a to be a quadratic residue; raises DomainError otherwise.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise DomainError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def pow_mod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base**exp % mod for int64 arrays (exp >= 0, 1 < mod < 2**31)."""
    base = base % mod
    exp = exp.copy()
    out = np.ones_like(base)
    while True:
        odd = (exp & 1).astype(bool)
        out = np.where(odd, out * base % mod, out)
        exp >>= 1
        if not exp.any():
            return out
        base = base * base % mod


def sqrt_mod_primes(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A square root of each a modulo the odd prime p (int64 arrays).

    Every a must be a nonzero quadratic residue.  Lanes with p = 3 (mod 4)
    take a^((p+1)/4); the others run Tonelli-Shanks with the smallest
    non-residue, each lane leaving the loops once its own root is found.
    """
    a = a % p
    root = np.empty_like(a)
    easy = p % 4 == 3
    root[easy] = pow_mod(a[easy], (p[easy] + 1) // 4, p[easy])
    hard = np.flatnonzero(~easy)
    if not hard.size:
        return root
    a, p = a[hard], p[hard]
    # p - 1 = q * 2^s with q odd
    q, s = p - 1, np.zeros_like(p)
    even = (q & 1) == 0
    while even.any():
        q = np.where(even, q >> 1, q)
        s += even
        even = (q & 1) == 0
    z = np.zeros_like(p)
    todo = np.arange(p.size)
    candidate = 2
    while todo.size:
        pt = p[todo]
        nonresidue = pow_mod(np.full_like(pt, candidate), (pt - 1) // 2, pt) == pt - 1
        z[todo[nonresidue]] = candidate
        todo = todo[~nonresidue]
        candidate += 1
    m, c, t, r = s, pow_mod(z, q, p), pow_mod(a, q, p), pow_mod(a, (q + 1) // 2, p)
    active = np.flatnonzero(t != 1)
    while active.size:
        pa, ta = p[active], t[active]
        # least i with ta^(2^i) = 1
        i = np.zeros_like(ta)
        t2 = ta
        pending = t2 != 1
        while pending.any():
            t2 = np.where(pending, t2 * t2 % pa, t2)
            i += pending
            pending = t2 != 1
        # b = c^(2^(m-i-1))
        b = c[active]
        k = m[active] - i - 1
        while (k > 0).any():
            b = np.where(k > 0, b * b % pa, b)
            k -= 1
        m[active] = i
        c[active] = cc = b * b % pa
        t[active] = tn = ta * cc % pa
        r[active] = r[active] * b % pa
        active = active[tn != 1]
    root[hard] = r
    return root
