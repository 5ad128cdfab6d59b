"""Class groups of imaginary quadratic fields via reduced binary quadratic forms.

Restricting to imaginary quadratic fields keeps everything exact and
elementary: the class group is realized by reduced forms under Gauss
composition, principality of an ideal is decidable by form reduction, the
unit group is finite, and the regulator is 1.

The prime-site stream is built in one vectorized pass over an int64 prime
array (Cohen, GTM 138, ch. 1 and 5): the Kronecker symbol as a product of
genus characters finds the ramified and split primes, square roots mod p
by p mod 8 (a^((p+1)/4), Atkin's root, or Tonelli-Shanks with a
reciprocity-table non-residue) give the split primes' forms, and a masked
reduction loop the class of each site's form.  The result is a
``SiteColumns``, a column store that is also a lazy read-only sequence of
``PrimeSite``.  The scalar helpers (``splitting_type``, ``sqrt_mod_prime``,
``reduce_form``) stay as the per-prime reference the tests hold the
columns to.  ``sites_to_csv`` formats the columns with ``write_int_csv``,
which the census CSV shares.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .abelian import ClassOrdering, GroupSpec, _factorize, canonical_ordering
from .errors import DomainError, ResourceLimitError
from .primes import is_prime, kronecker_prime, kronecker_primes, prime_array, sqrt_mod_primes

MAX_DISCRIMINANT = 10**7
MAX_SITE_NORM = 10**8
# b < 2p and p^2 stay below 2**63 in the int64 site columns
_INT64_MAX_NORM = 2**30


@dataclass(frozen=True)
class FieldSpec:
    """An imaginary quadratic field Q(sqrt(d)) with its basic invariants."""

    d: int
    discriminant: int
    w: int  # number of roots of unity
    h: int  # class number
    degree: int = 2
    r1: int = 0
    r2: int = 1
    regulator: float = 1.0

    @property
    def psi_coefficient(self) -> Fraction:
        """Exact rational q with ideal density Psi = q * pi / sqrt(|disc|)."""
        return Fraction(2, self.w)

    @property
    def psi(self) -> float:
        """Ideal density constant: #{ideals in a class, norm <= x} ~ (Psi/h) x."""
        return float(self.psi_coefficient) * math.pi / math.sqrt(-self.discriminant)


@dataclass(frozen=True, order=True)
class QuadForm:
    """Integral binary quadratic form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return abs(b) <= a <= c and (b >= 0 if (abs(b) == a or a == c) else True)

    def inverse(self) -> "QuadForm":
        return reduce_form(self.a, -self.b, self.c)


def _normalize(a: int, b: int, c: int) -> tuple[int, int, int]:
    if -a < b <= a:
        return a, b, c
    r = (a - b) // (2 * a)
    return a, b + 2 * r * a, a * r * r + b * r + c


def reduce_form(a: int, b: int, c: int) -> QuadForm:
    """Reduce a positive definite form: flip and renormalize until |b| <= a <= c."""
    if a <= 0 or b * b - 4 * a * c >= 0:
        raise DomainError(f"not a positive definite form: ({a},{b},{c})")
    a, b, c = _normalize(a, b, c)
    while a > c or (a == c and b < 0):
        a, b, c = _normalize(c, -b, a)
    return QuadForm(a, b, c)


def _solve_congruence(a: int, b: int, m: int) -> tuple[int, int]:
    # smallest x >= 0 with a*x = b (mod m); second value is the solution modulus
    g = math.gcd(a, m)
    if b % g:
        raise DomainError(f"congruence {a}*x = {b} (mod {m}) has no solution")
    mg = m // g
    if mg == 1:
        return 0, 1
    x = (b // g) % mg * pow((a // g) % mg, -1, mg) % mg
    return x, mg


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Gauss composition of two forms of the same discriminant, reduced.

    Classical solved-congruence formulation; handles the non-coprime and
    squaring cases uniformly through w = gcd(a1, a2, (b1+b2)/2).
    """
    disc = f1.discriminant
    if f2.discriminant != disc:
        raise DomainError("cannot compose forms of different discriminants")
    a1, b1, c1 = f1.a, f1.b, f1.c
    a2, b2, c2 = f2.a, f2.b, f2.c
    g = (b1 + b2) // 2
    hh = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), g)
    s = a1 // w
    t = a2 // w
    u = g // w
    mu, nu = _solve_congruence(t * u, hh * u + s * c1, s * t)
    lam, _ = _solve_congruence(t * nu, hh - t * mu, s)
    k = mu + nu * lam
    l = (k * t - hh) // s
    m = (t * u * k - hh * u - c1 * s) // (s * t)
    a3 = s * t
    b3 = w * u - (k * t + l * s)
    c3 = k * l - w * m
    out = reduce_form(a3, b3, c3)
    if out.discriminant != disc:
        raise DomainError("composition produced a wrong discriminant")
    return out


def form_pow(f: QuadForm, n: int, identity: QuadForm) -> QuadForm:
    if n < 0:
        return form_pow(f.inverse(), -n, identity)
    out = identity
    base = f
    while n:
        if n & 1:
            out = compose(out, base)
        base = compose(base, base)
        n >>= 1
    return out


def principal_form(disc: int) -> QuadForm:
    b = disc & 1
    return QuadForm(1, b, (b * b - disc) // 4)


def reduced_forms(disc: int) -> tuple[QuadForm, ...]:
    """Every reduced form of the fundamental discriminant disc < 0."""
    forms = []
    a_max = math.isqrt(-disc // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            forms.append(QuadForm(a, b, c))
    return tuple(sorted(forms))


@dataclass(frozen=True)
class PrimeSite:
    """A prime ideal tagged with its norm and ideal class.

    ``splitting`` is one of split, inert, ramified for field-derived sites;
    synthetic streams use the tag "synthetic".  ``conjugate_id`` points to
    the Galois-conjugate site and is the site's own id for ramified, inert
    and synthetic sites.
    """

    id: int
    p: int
    norm: int
    splitting: str
    class_index: int  # 1-based under the canonical ordering
    conjugate_id: int


#: Splitting tags by their code in ``SiteColumns.splitting``.
SPLITTINGS = ("split", "inert", "ramified", "synthetic")
SPLIT, INERT, RAMIFIED, SYNTHETIC = range(len(SPLITTINGS))

_ROWS_CHUNK = 1 << 16


class SiteColumns(Sequence):
    """A prime-site stream held as columns: int64 arrays ``p``, ``norm``,
    ``class_index`` and ``conjugate_id``, and int8 ``splitting`` codes into
    ``SPLITTINGS``.  A site's id is its position in the stream.

    As a sequence it is read-only and lazy: indexing or iterating builds a
    ``PrimeSite`` only for the sites asked for.  Bulk readers use the
    columns or ``rows`` instead.
    """

    __slots__ = ("p", "norm", "splitting", "class_index", "conjugate_id")

    def __init__(self, p, norm, splitting, class_index, conjugate_id):
        for name, col in zip(self.__slots__, (p, norm, splitting, class_index, conjugate_id)):
            if col.shape != norm.shape:
                raise DomainError("site columns must have equal lengths")
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __setattr__(self, name, value):
        raise AttributeError("SiteColumns is read-only")

    def __len__(self) -> int:
        return self.norm.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        n = len(self)
        j = operator.index(i)
        if j < 0:
            j += n
        if not 0 <= j < n:
            raise IndexError(f"site index {i} out of range for {n} sites")
        return PrimeSite(
            j,
            int(self.p[j]),
            int(self.norm[j]),
            SPLITTINGS[self.splitting[j]],
            int(self.class_index[j]),
            int(self.conjugate_id[j]),
        )

    def __iter__(self) -> Iterator[PrimeSite]:
        return itertools.starmap(PrimeSite, self.rows())

    def rows(self) -> Iterator[tuple]:
        """(id, p, norm, splitting, class_index, conjugate_id) per site in
        stream order, as Python values, transposed a chunk at a time."""
        n = len(self)
        for lo in range(0, n, _ROWS_CHUNK):
            hi = min(lo + _ROWS_CHUNK, n)
            yield from zip(
                range(lo, hi),
                self.p[lo:hi].tolist(),
                self.norm[lo:hi].tolist(),
                [SPLITTINGS[s] for s in self.splitting[lo:hi].tolist()],
                self.class_index[lo:hi].tolist(),
                self.conjugate_id[lo:hi].tolist(),
            )


@dataclass(frozen=True, eq=False)
class ClassGroup:
    """A realized class group: field data, reduced forms, abstract group and
    the class-index map."""

    field: FieldSpec
    forms: tuple[QuadForm, ...]
    group: GroupSpec
    ordering: ClassOrdering
    coordinates: dict  # QuadForm -> element tuple
    class_index: dict  # QuadForm -> 1-based index

    @property
    def identity_form(self) -> QuadForm:
        return principal_form(self.field.discriminant)


def _validate_d(d: int):
    if d >= 0:
        raise DomainError(f"d must be negative, got {d}")
    m = -d
    p = 2
    while p * p <= m:
        if m % (p * p) == 0:
            raise DomainError(f"d must be squarefree, got {d}")
        while m % p == 0:
            m //= p
        p += 1 if p == 2 else 2


def _crt(pairs) -> int:
    r, m = 0, 1
    for r2, m2 in pairs:
        if m2 == 1:
            continue
        t = (r2 - r) * pow(m % m2, -1, m2) % m2
        r += m * t
        m *= m2
    return r % m


def _subgroup_with(subgroup: set, x: QuadForm, identity: QuadForm) -> set:
    # <subgroup, x> for subgroup an actual subgroup given as a set
    out = set(subgroup)
    xp = x
    while xp not in subgroup:
        out.update(compose(u, xp) for u in subgroup)
        xp = compose(xp, x)
    return out


def _p_group_basis(members, order_exp, p, targets, identity):
    """A basis of an abelian p-group realizing the prescribed cyclic orders.

    Depth-first with backtracking: a candidate of order p^f extends the
    current direct sum iff the generated subgroup grows by the full factor
    p^f.  The structure theorem guarantees a basis exists, so the search
    always succeeds.
    """

    def extend(current: set, chosen: list, idx: int):
        if idx == len(targets):
            return list(chosen)
        f = targets[idx]
        for x in members:
            if order_exp[x] != f or x in current:
                continue
            bigger = _subgroup_with(current, x, identity)
            if len(bigger) == len(current) * p**f:
                chosen.append(x)
                result = extend(bigger, chosen, idx + 1)
                if result is not None:
                    return result
                chosen.pop()
        return None

    basis = extend({identity}, [], 0)
    if basis is None:
        raise DomainError("p-group basis search failed (non-abelian table?)")
    return basis


def _group_structure(forms, identity):
    """Invariant factors and canonical coordinates from the composition group."""
    h = len(forms)
    if h == 1:
        return GroupSpec(()), {forms[0]: ()}

    sylow_data = []  # (p, targets, coords dict on whole group)
    for p, a in sorted(_factorize(h).items()):
        pa = p**a
        m = h // pa
        k = m * pow(m, -1, pa) % h
        projection = {f: form_pow(f, k, identity) for f in forms}
        members = sorted(set(projection.values()))
        if len(members) != pa:
            raise DomainError("Sylow subgroup has wrong order")
        order_exp = {}
        for x in members:
            e, y = 0, x
            while y != identity:
                y = form_pow(y, p, identity)
                e += 1
            order_exp[x] = e
        max_e = max(order_exp.values())
        # number of cyclic factors with exponent >= i, from order-counting
        counts = [
            sum(1 for v in order_exp.values() if v <= i) for i in range(max_e + 1)
        ]
        logs = [round(math.log(c, p)) for c in counts]
        at_least = [logs[i] - logs[i - 1] for i in range(1, max_e + 1)] + [0]
        targets = []
        for i in range(1, max_e + 1):
            targets.extend([i] * (at_least[i - 1] - at_least[i]))
        targets.sort(reverse=True)
        basis = _p_group_basis(members, order_exp, p, targets, identity)
        coords_sylow: dict[QuadForm, tuple[int, ...]] = {}
        axes = []
        for b, f in zip(basis, targets):
            axis = [identity]
            for _ in range(p**f - 1):
                axis.append(compose(axis[-1], b))
            axes.append(axis)
        for combo in itertools.product(*(range(p**f) for f in targets)):
            el = identity
            for axis, ci in zip(axes, combo):
                el = compose(el, axis[ci])
            coords_sylow[el] = combo
        if len(coords_sylow) != pa:
            raise DomainError("Sylow coordinates are not a bijection")
        coords_all = {f: coords_sylow[projection[f]] for f in forms}
        sylow_data.append((p, targets, coords_all))

    rank = max(len(t) for _, t, _ in sylow_data)
    descending = []
    for j in range(rank):
        dj = 1
        for p, targets, _ in sylow_data:
            if j < len(targets):
                dj *= p ** targets[j]
        descending.append(dj)
    group = GroupSpec(tuple(reversed(descending)))

    coordinates = {}
    for f in forms:
        coord_desc = []
        for j in range(rank):
            pairs = []
            for p, targets, coords_all in sylow_data:
                if j < len(targets):
                    cj = coords_all[f][j]
                    pairs.append((cj, p ** targets[j]))
            coord_desc.append(_crt(pairs))
        coordinates[f] = tuple(reversed(coord_desc))
    if len(set(coordinates.values())) != h:
        raise DomainError("class coordinates are not a bijection")
    return group, coordinates


def class_group(d: int) -> ClassGroup:
    """Build the class group of Q(sqrt(d)) for squarefree d < 0.

    Enumerates reduced forms, extracts invariant factors from the
    composition group, and fixes the isomorphism onto canonical coordinates
    with the principal form at the identity.
    """
    _validate_d(d)
    disc = d if d % 4 == 1 else 4 * d
    if -disc > MAX_DISCRIMINANT:
        raise ResourceLimitError(
            f"|discriminant| {-disc} exceeds the configured bound {MAX_DISCRIMINANT}"
        )
    forms = reduced_forms(disc)
    identity = principal_form(disc)
    if identity not in forms:
        raise DomainError("principal form missing from the reduced-form list")
    group, coordinates = _group_structure(forms, identity)
    ordering = canonical_ordering(group)
    class_index = {f: ordering.index_of[coordinates[f]] for f in forms}
    if class_index[identity] != 1:
        raise DomainError("principal form must map to class 1")
    w = 6 if disc == -3 else 4 if disc == -4 else 2
    field = FieldSpec(d=d, discriminant=disc, w=w, h=len(forms))
    return ClassGroup(
        field=field,
        forms=forms,
        group=group,
        ordering=ordering,
        coordinates=coordinates,
        class_index=class_index,
    )


def splitting_type(field: FieldSpec, p: int) -> str:
    """Splitting of the rational prime p: ramified iff p | disc, else by the
    Kronecker symbol."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    disc = field.discriminant
    if disc % p == 0:
        return "ramified"
    return "split" if kronecker_prime(disc, p) == 1 else "inert"


def _normalize_forms(a, b, c):
    # elementwise _normalize; r is 0 where -a < b <= a already holds
    r = (a - b) // (2 * a)
    return b + 2 * r * a, (a * r + b) * r + c


def _reduce_forms(a, b, c):
    """Elementwise ``reduce_form`` of positive definite forms (int64 arrays),
    stepping only the lanes that are not yet reduced."""
    b, c = _normalize_forms(a, b, c)
    todo = np.flatnonzero((a > c) | ((a == c) & (b < 0)))
    while todo.size:
        na, nb = c[todo], -b[todo]
        nb, nc = _normalize_forms(na, nb, a[todo])
        a[todo], b[todo], c[todo] = na, nb, nc
        todo = todo[(na > nc) | ((na == nc) & (nb < 0))]
    return a, b, c


def _form_classes(cg: ClassGroup, p, b) -> np.ndarray:
    """Class index of the form (p, b, (b^2 - disc) / 4p) for each lane."""
    disc = cg.field.discriminant
    a, rb, _ = _reduce_forms(p.copy(), b.copy(), (b * b - disc) // (4 * p))
    width = 2 * max(f.a for f in cg.forms) + 1
    table = sorted((f.a * width + f.b + width // 2, cg.class_index[f]) for f in cg.forms)
    keys = np.array([k for k, _ in table], dtype=np.int64)
    key = a * width + rb + width // 2
    at = np.minimum(np.searchsorted(keys, key), keys.size - 1)
    bad = np.flatnonzero(keys[at] != key)
    if bad.size:
        raise DomainError(f"form of p={int(p[bad[0]])} reduced outside the class table")
    return np.array([c for _, c in table], dtype=np.int64)[at]


def _field_columns(cg: ClassGroup, limit: int) -> SiteColumns:
    """The site columns of Q(sqrt(d)) up to norm ``limit``, sorted by (norm, b).

    One pass over the prime array: the Kronecker symbol (disc/p), a product
    of genus characters, marks the ramified (0) and split (1) primes, and a
    split prime's two sites take the square roots b in [0, 2p) of disc mod
    4p.  Each site's class is that of the reduced form (p, b, (b^2 - disc) /
    4p); an inert prime p <= sqrt(limit) gives one principal site of norm
    p^2.  The columns are filled in place, each split prime's two sites side
    by side with the smaller b first, then the ramified and the inert sites,
    and one stable sort by norm orders them.  Norms tie only within a split
    pair, since a ramified prime is not split and an inert p^2 is no prime,
    so the stable sort gives the (norm, b) order.
    """
    disc = cg.field.discriminant
    p = prime_array(limit)
    kron = kronecker_primes(disc, p)
    p_split, p_ram = p[kron == 1], p[kron == 0]
    p_inert = p[(kron < 0) & (p <= math.isqrt(limit))]
    del p, kron
    n2 = 2 * p_split.size
    n_forms = n2 + p_ram.size
    primes = np.empty(n_forms + p_inert.size, dtype=np.int64)
    primes[0:n2:2] = primes[1:n2:2] = p_split
    primes[n2:n_forms], primes[n_forms:] = p_ram, p_inert
    root = np.ones_like(p_split)  # 1 is the root at p = 2
    odd = p_split > 2
    root[odd] = sqrt_mod_primes(disc % p_split[odd], p_split[odd])
    root += np.where((root - disc) % 2 == 0, 0, p_split)
    mate = 2 * p_split - root
    b = np.empty(n_forms, dtype=np.int64)
    b[0:n2:2], b[1:n2:2] = np.minimum(root, mate), np.maximum(root, mate)
    b[n2:] = np.where(p_ram == 2, 0 if disc % 8 == 0 else 2, p_ram if disc % 2 else 0)
    del root, mate, odd
    cls = np.ones_like(primes)
    cls[:n_forms] = _form_classes(cg, primes[:n_forms], b)
    norm = np.concatenate((primes[:n_forms], p_inert * p_inert))
    splitting = np.repeat(
        np.array([SPLIT, RAMIFIED, INERT], dtype=np.int8), (n2, p_ram.size, p_inert.size)
    )
    order = np.argsort(norm, kind="stable")
    primes, norm, splitting, cls = primes[order], norm[order], splitting[order], cls[order]
    # the two sites above a split prime are adjacent after the (norm, b) sort
    first = np.flatnonzero(splitting == SPLIT)[::2]
    second = first + 1
    conjugate = np.arange(primes.size)
    conjugate[first], conjugate[second] = second, first
    neg = np.array(cg.ordering.neg_table(), dtype=np.int64)
    bad = np.flatnonzero((primes[second] != primes[first]) | (cls[second] != neg[cls[first] - 1] + 1))
    if bad.size:
        raise DomainError(f"conjugate classes of p={int(primes[first[bad[0]]])} are not inverse")
    return SiteColumns(primes, norm, splitting, cls, conjugate)


def prime_sites_up_to(cg: ClassGroup, limit: int) -> SiteColumns:
    """Every prime ideal of norm <= limit, exactly once, ordered by (norm, id).

    Returns the stream as columns; iterating or indexing it yields
    ``PrimeSite`` views.  Ids are assigned in stream order and are
    prefix-stable in the limit.  The two sites above a split prime carry
    inverse classes; which conjugate gets the smaller id is fixed by the
    smaller square root b in [0, 2p).
    """
    if limit < 2:
        raise DomainError("site stream needs limit >= 2")
    if limit > MAX_SITE_NORM:
        raise ResourceLimitError(
            f"site norm bound {limit} exceeds the memory budget {MAX_SITE_NORM}"
        )
    if limit > _INT64_MAX_NORM:
        raise ResourceLimitError(
            f"site norm bound {limit} exceeds {_INT64_MAX_NORM}, where int64 site arithmetic ends"
        )
    return _field_columns(cg, limit)


def as_site_columns(sites) -> SiteColumns:
    """``sites`` as columns: a SiteColumns passes through, and any other
    iterable of PrimeSite, whose ids must be its stream positions, is
    transposed."""
    if isinstance(sites, SiteColumns):
        return sites
    rows = []
    for i, s in enumerate(sites):
        if s.id != i:
            raise DomainError("site ids must be sequential stream positions")
        if s.splitting not in SPLITTINGS:
            raise DomainError(f"unknown splitting tag {s.splitting!r}")
        rows.append((s.p, s.norm, SPLITTINGS.index(s.splitting), s.class_index, s.conjugate_id))
    cols = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return SiteColumns(cols[0], cols[1], cols[2].astype(np.int8), cols[3], cols[4])


#: Rows per ``write_int_csv`` block; a block's bytes bound its extra memory.
CSV_CHUNK = 1 << 13
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def write_int_csv(out, columns) -> None:
    """Write CSV lines whose fields are ``columns``, with one ``out.write``
    of at most CSV_CHUNK lines at a time.

    Each column is an int64 array of values >= 0, written as ``"%d"``
    would, or a pair (codes, labels) that writes ``labels[code]``.  A chunk
    is one (width, rows) uint8 block: each field right-aligned in its
    column's widest value, filled by repeated divmod, then a comma or
    newline row.  Zero bytes pad the shorter values, found by their digit
    counts (``searchsorted`` on the powers of 10), and are dropped after
    the transpose to row-major order.
    """
    cols = []
    for col in columns:
        if isinstance(col, tuple):
            codes, labels = col
            # one row of ASCII bytes per label, zero-padded to the longest
            table = np.array([s.encode("ascii") for s in labels])
            cols.append((codes, table.view(np.uint8).reshape(table.size, -1)))
        else:
            if col.size and col.min() < 0:
                raise DomainError(f"CSV column holds a negative value {int(col.min())}")
            cols.append((col, None))
    n = len(cols[0][0])
    for lo in range(0, n, CSV_CHUNK):
        chunk = [(v[lo : lo + CSV_CHUNK], table) for v, table in cols]
        widths = [
            len(str(int(v.max()))) if table is None else table.shape[1] for v, table in chunk
        ]
        block = np.zeros((sum(widths) + len(widths), chunk[0][0].size), dtype=np.uint8)
        at = 0
        for (v, table), w in zip(chunk, widths):
            field = block[at : at + w]
            if table is not None:
                field[:] = table[v].T
            else:
                t = v
                for k in range(w - 1, 0, -1):
                    t, field[k] = np.divmod(t, 10)
                field[0] = t
                field += ord("0")
                if w > 1:
                    digits = np.searchsorted(_POW10, v, side="right") + 1
                    field[np.arange(w)[:, None] < w - digits] = 0
            block[at + w] = ord(",")
            at += w + 1
        block[-1] = ord("\n")
        data = block.T.ravel()
        out.write(data[data != 0].tobytes().decode("ascii"))


def sites_to_csv(sites, out) -> None:
    """Write the site stream in the shared CSV schema; ``sites`` is a
    SiteColumns or an iterable of PrimeSite in stream order."""
    cols = as_site_columns(sites)
    out.write("id,p,norm,splitting,class_index,conjugate_id\n")
    write_int_csv(
        out,
        (
            np.arange(len(cols), dtype=np.int64),
            cols.p,
            cols.norm,
            (cols.splitting, SPLITTINGS),
            cols.class_index,
            cols.conjugate_id,
        ),
    )
