"""Prime generation and basic modular helpers.

One segmented sieve produces the primes; the scalar helpers (``is_prime``,
``kronecker_prime``, ``sqrt_mod_prime``) serve single primes, and their
array counterparts (``kronecker_primes``, ``sqrt_mod_primes``, both on
``pow_mod``) serve whole prime columns at once.  The array helpers spend
at most one exponentiation per prime: ``kronecker_primes`` factors the
symbol into genus characters, each a power on a fixed small modulus, and
``sqrt_mod_primes`` splits the primes by p mod 8 into a^((p+1)/4), Atkin's
root and Tonelli-Shanks with its non-residue read off a reciprocity table.
They work in int64 and need every modulus below 2**31, so that products of
two residues stay below 2**62.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .abelian import _factorize
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


def pow_mod(base: np.ndarray, exp, mod) -> np.ndarray:
    """Elementwise base**exp % mod for int64 arrays (exp >= 0, 1 < mod < 2**31).

    ``exp`` and ``mod`` may also be ints shared by every lane; a shared
    exponent multiplies in only at its set bits, with no per-lane mask.
    """
    base = base % mod
    if isinstance(exp, int):
        out = np.ones_like(base)
        while exp:
            if exp & 1:
                out = out * base % mod
            exp >>= 1
            if exp:
                base = base * base % mod
        return out
    exp = exp.copy()
    out = np.ones_like(base)
    while True:
        odd = (exp & 1).astype(bool)
        out = np.where(odd, out * base % mod, out)
        exp >>= 1
        if not exp.any():
            return out
        base = base * base % mod


# (c / p) for c = 1, -4, 8, -8 and odd p, indexed by p mod 8
_TWO_PART_SIGNS = {
    1: (0, 1, 0, 1, 0, 1, 0, 1),
    -4: (0, 1, 0, -1, 0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def kronecker_primes(disc: int, p: np.ndarray) -> np.ndarray:
    """Kronecker symbols (disc / p) as int8 for an int64 array of primes p.

    ``disc`` must be a fundamental discriminant: a product of one of
    1, -4, 8, -8 and q* = (-1)^((q-1)/2) q for distinct odd primes q.  The
    symbol is multiplicative in disc, so for odd p it is a lookup on p mod 8
    times, by reciprocity, (q* / p) = (p / q) = (p mod q)^((q-1)/2) mod q per
    q: log2 q squarings on a fixed modulus rather than log2 p per prime.
    """
    odd = {q: e for q, e in _factorize(abs(disc)).items() if q > 2}
    qstar = math.prod(q if q % 4 == 1 else -q for q in odd)
    two_part = disc // qstar
    if any(e > 1 for e in odd.values()) or two_part not in _TWO_PART_SIGNS:
        raise DomainError(f"{disc} is not a fundamental discriminant")
    out = np.array(_TWO_PART_SIGNS[two_part], dtype=np.int8)[p & 7]
    for q in odd:
        chi = pow_mod(p % q, (q - 1) // 2, q)  # 1, q - 1 or 0 (at p = q)
        np.negative(out, out=out, where=chi == q - 1)
        out[chi == 0] = 0
    out[p == 2] = kronecker_prime(disc, 2)
    return out


# odd primes z with their non-squares mod z, the table behind _nonresidues;
# for p < 2**30 the least non-residue is at most 83
_NONSQUARES = tuple(
    (z, np.array([pow(v, (z - 1) // 2, z) == z - 1 for v in range(z)]))
    for z in range(3, 100, 2) if is_prime(z)
)


def _nonresidues(p: np.ndarray) -> np.ndarray:
    """The least quadratic non-residue mod each prime p = 1 (mod 8).

    2 is a residue there, and for an odd prime z reciprocity gives
    (z / p) = (p / z), so z is a non-residue exactly when p mod z is a
    non-square mod z: one lookup per table prime, on the lanes still open.
    Lanes past the table fall back to Euler's criterion on the integers
    after it.
    """
    z = np.zeros_like(p)
    todo = np.arange(p.size)
    candidate = 2
    for candidate, nonsquare in _NONSQUARES:
        if not todo.size:
            return z
        hit = nonsquare[p[todo] % candidate]
        z[todo[hit]] = candidate
        todo = todo[~hit]
    while todo.size:
        candidate += 1
        pt = p[todo]
        hit = pow_mod(np.full_like(pt, candidate), (pt - 1) // 2, pt) == pt - 1
        z[todo[hit]] = candidate
        todo = todo[~hit]
    return z


def _tonelli_shanks(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Square roots of the residues a modulo primes p = 1 (mod 8), each lane
    leaving the loops once its own root is found."""
    # p - 1 = q * 2^s with q odd
    q, s = p - 1, np.zeros_like(p)
    even = (q & 1) == 0
    while even.any():
        q = np.where(even, q >> 1, q)
        s += even
        even = (q & 1) == 0
    # one exponentiation gives both r = a^((q+1)/2) and t = a^q
    u = pow_mod(a, (q - 1) >> 1, p)
    r = u * a % p
    m, c, t = s, pow_mod(_nonresidues(p), q, p), u * r % p
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
    return r


def sqrt_mod_primes(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A square root of each a modulo the odd prime p (int64 arrays).

    Every a must be a nonzero quadratic residue.  Lanes split by p mod 8:
    p = 3 (mod 4) takes a^((p+1)/4); p = 5 (mod 8) takes Atkin's root
    a v (i - 1) with v = (2a)^((p-5)/8) and i = 2a v^2, a square root of -1;
    p = 1 (mod 8) runs Tonelli-Shanks.
    """
    a = a % p
    root = np.empty_like(a)
    low = p & 7
    lanes = np.flatnonzero((low & 3) == 3)
    root[lanes] = pow_mod(a[lanes], (p[lanes] + 1) >> 2, p[lanes])
    lanes = np.flatnonzero(low == 5)
    al, pl = a[lanes], p[lanes]
    a2 = 2 * al % pl
    v = pow_mod(a2, (pl - 5) >> 3, pl)
    i = a2 * v % pl * v % pl
    root[lanes] = al * v % pl * (i - 1) % pl
    lanes = np.flatnonzero(low == 1)
    root[lanes] = _tonelli_shanks(a[lanes], p[lanes])
    return root
