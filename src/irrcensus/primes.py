"""Prime generation and basic modular helpers.

One segmented sieve produces the primes.  It sieves the odd numbers only,
and each segment starts from a tiled pattern with the multiples of 3, 5, 7,
11 and 13 already crossed off, so only the base primes from 17 on cross
off in Python: half the mask of a sieve on every integer, and about a
quarter of its writes.  The scalar helpers (``is_prime``,
``kronecker_prime``, ``sqrt_mod_prime``) serve single primes, and their
array counterparts (``kronecker_primes``, ``sqrt_mod_primes``, both on
``pow_mod``) serve whole prime columns at once.  The array helpers spend
at most one exponentiation per prime: ``kronecker_primes`` factors the
symbol into genus characters, each a power on a fixed small modulus, and
``sqrt_mod_primes`` splits the primes by p mod 8 into a^((p+1)/4), Atkin's
root and Tonelli-Shanks, whose non-residue is read off a reciprocity table
and whose loops have a fixed shape on lanes sorted by the 2-adic valuation
of p - 1, with no per-lane exit test.  They work in int64 and need every
modulus below 2**31, so that products of two residues stay below 2**62.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .abelian import _factorize
from .errors import DomainError

SEGMENT_SIZE = 1 << 21

# the odd numbers 2k + 1 are sieved by their index k; _WHEEL_PATTERN[k] says
# whether 2k + 1 is prime to every wheel prime q, that is k != q // 2
# (mod q), and it repeats with the period 3 * 5 * 7 * 11 * 13 = 15015 in k
_WHEEL = (3, 5, 7, 11, 13)
_WHEEL_PATTERN = np.logical_and.reduce(
    [np.arange(math.prod(_WHEEL)) % q != q // 2 for q in _WHEEL]
)


def prime_segments(limit: int) -> Iterator[np.ndarray]:
    """Primes <= limit as ascending int64 arrays, one per sieve segment.

    A segmented sieve of Eratosthenes (Bays and Hudson, BIT 17, 1977) on
    the odd numbers only.  Each segment covers ``SEGMENT_SIZE`` integers,
    so half as many odd ones, and starts as a slice of the tiled
    ``_WHEEL_PATTERN``, with the multiples of 3 to 13 already crossed off;
    each base prime from 17 to isqrt(limit) then crosses off its odd
    multiples from its square on, one strided write per segment.  The base
    primes come from this same sieve one level down, so memory stays
    O(SEGMENT_SIZE + sqrt(limit)).
    """
    if limit < 2:
        return
    n_odd = (limit + 1) // 2  # the odd numbers 1, 3, ..., up to limit
    half = SEGMENT_SIZE // 2
    period = _WHEEL_PATTERN.size
    tiled = np.tile(_WHEEL_PATTERN, -(-(min(half, n_odd) + period) // period))
    base = prime_array(math.isqrt(limit))
    base = base[base > _WHEEL[-1]]
    # the index of p^2, where p starts crossing off, and the index of p
    first, offset = base * base // 2, base // 2
    for k in range(0, n_odd, half):
        size = min(half, n_odd - k)
        mask = tiled[k % period : k % period + size].copy()
        if 2 * k < _WHEEL[-1]:
            # 1 is no prime, and the pattern crossed off each wheel prime
            for v in (1,) + _WHEEL:
                if k <= v // 2 < k + size:
                    mask[v // 2 - k] = v > 1
        n = int(np.searchsorted(first, k + size))
        starts = np.maximum(first[:n] - k, (offset[:n] - k) % base[:n])
        for start, p in zip(starts.tolist(), base[:n].tolist()):
            mask[start::p] = False
        out = np.flatnonzero(mask)
        out *= 2
        out += 2 * k + 1
        yield np.concatenate(([2], out)) if k == 0 else out


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit as one int64 array."""
    segments = list(prime_segments(limit))
    return np.concatenate(segments) if segments else np.empty(0, dtype=np.int64)


def primes_up_to(limit: int) -> Iterator[int]:
    """Stream primes <= limit from the segmented sieve (memory stays O(segment))."""
    for segment in prime_segments(limit):
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
    """Square roots of the residues a modulo primes p = 1 (mod 8).

    Tonelli-Shanks in its fixed-structure form.  With p - 1 = q 2^s, q odd,
    it starts from r = a^((q+1)/2) and t = a^q, so r^2 = a t and t has
    order dividing 2^(s-1), and from c = z^q of order 2^s for a non-residue
    z.  For k = s down to 2, t^(2^(k-2)) is 1 or -1; where it is -1, r
    takes a factor c and t a factor c^2, which makes it 1; then c becomes
    c^2.  Each step keeps r^2 = a t and halves the order bound of t, so t
    ends at 1 and r at a root.  The lanes are sorted by s, largest first,
    so step k runs on the prefix of lanes with s >= k: about s_max^2 / 2
    array operations, on prefixes that shrink as k grows.
    """
    low = (p - 1) & (1 - p)  # 2^s, the lowest set bit of p - 1
    order = np.argsort(-low, kind="stable")
    a, p, low = a[order], p[order], low[order]
    q = (p - 1) // low
    # one exponentiation gives both r = a^((q+1)/2) and t = a^q
    u = pow_mod(a, (q - 1) >> 1, p)
    r = u * a % p
    c, t = pow_mod(_nonresidues(p), q, p), u * r % p
    for k in range(int(low.max(initial=4)).bit_length() - 1, 1, -1):
        n = np.count_nonzero(low >= 1 << k)
        pk, ck, tk = p[:n], c[:n], t[:n]
        for _ in range(k - 2):
            tk = tk * tk % pk
        flip = tk != 1
        r[:n] = np.where(flip, r[:n] * ck % pk, r[:n])
        c[:n] = ck = ck * ck % pk
        t[:n] = np.where(flip, t[:n] * ck % pk, t[:n])
    out = np.empty_like(r)
    out[order] = r
    return out


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
