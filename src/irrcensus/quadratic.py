"""Class groups of imaginary quadratic fields via reduced binary quadratic forms.

Restricting to imaginary quadratic fields keeps everything exact and
elementary: the class group is realized by reduced forms under Gauss
composition, principality of an ideal is decidable by form reduction, the
unit group is finite, and the regulator is 1.

The prime-site stream is built in one vectorized pass over an int64 prime
array (Cohen, GTM 138, ch. 1 and 5).  The Kronecker symbol (disc/p) is a
character mod |disc|: ``kronecker_primes`` (a product of genus characters)
evaluates it on a prefix of the primes that holds two of each residue,
where the stream has them, and the primes past the prefix read it from a
table over r = p mod |disc| that the prefix fills and checks; it finds the
ramified and split primes.  Square roots mod p by p mod 8 (a^((p+1)/4),
Atkin's root, or Tonelli-Shanks with a reciprocity-table non-residue) give
the split primes' forms, and a masked reduction loop the class of the form
of the smaller root; the conjugate site's class is its inverse.  When every
class has order at most 2 (all invariant factors 2, or h = 1), each genus
is one class, so a split prime's class is a function of r too (genus
theory): the split primes of the prefix are reduced, and those past it
read their class from a second table over r.
The result is a ``SiteColumns`` of norms, splitting codes and 0-based
classes that derives p, class_index and conjugate_id where they are
printed; it has no random access, and iterating it builds ``PrimeSite``s a
chunk at a time.  The scalar helpers (``splitting_type``,
``sqrt_mod_prime``, ``reduce_form``) are the per-prime reference of the
tests.

``write_int_csv`` is the CSV kernel of ``sites_to_csv`` and of the census.
It formats int64 columns with one ``//`` per digit on whole columns, keeps
a digit where the value reaches its power of 10, and writes a label column
(the splitting tags, or ``label_table``'s rows of formatted ints) as a
gather of byte rows; zero bytes pad every field and are deleted once per
chunk of lines.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .abelian import ClassOrdering, GroupSpec, _factorize, canonical_ordering, group_from_orders
from .errors import DomainError, ResourceLimitError, as_int
from .primes import is_prime, kronecker_prime, kronecker_primes, prime_array, sqrt_mod_primes

MAX_DISCRIMINANT = 10**7
# b < 2p and p^2 stay below 2**63 in the int64 site columns
_INT64_MAX_NORM = 2**30
#: Peak bytes per site of building a site stream, measured with tracemalloc
#: at x = 1e7 and 1e8: 51.0-52.5 where every split prime's smaller root is
#: reduced (d = -23 and -119, and -1999999 and -2499990, whose |disc| is
#: near MAX_DISCRIMINANT), 32.5 on the residue-table path (d = -5); and the
#: 16 of the class tables that the sweep adds.
BUILD_BYTES_PER_SITE = 53
CLASS_TABLE_BYTES_PER_SITE = 16


@dataclass(frozen=True)
class FieldSpec:
    """An imaginary quadratic field Q(sqrt(d)) with its basic invariants."""

    d: int
    discriminant: int
    w: int  # number of roots of unity
    h: int  # class number

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
    """f composed with itself n >= 0 times."""
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


class SiteColumns:
    """A prime-site stream held as three columns: int64 ``norm``, int8
    ``splitting`` codes into ``SPLITTINGS`` and ``cls``, the 0-based class
    of each site in the smallest unsigned type that holds h - 1 (one byte
    for h <= 256).  A site's id is its stream position.  It is the one form
    of a stream that ``census.SiteSystem`` and ``sites_to_csv`` take.

    The printed columns are derived by ``columns``: p is the norm, or its
    square root for an inert site; the class index is ``cls + 1``; and the
    conjugate is the neighbouring site of equal norm, or the site itself,
    since norms tie only within a split pair.

    It is read-only.  Iterating it builds a ``PrimeSite`` per site, a
    ``CSV_CHUNK`` of ``columns`` at a time; bulk readers use the numpy
    columns, which are read-only, or ``columns``.
    """

    __slots__ = ("norm", "splitting", "cls")

    def __init__(self, norm, splitting, cls):
        for name, col in zip(self.__slots__, (norm, splitting, cls)):
            if col.shape != norm.shape:
                raise DomainError("site columns must have equal lengths")
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __setattr__(self, name, value):
        raise AttributeError("SiteColumns is read-only")

    def __len__(self) -> int:
        return self.norm.size

    def __iter__(self) -> Iterator[PrimeSite]:
        for lo in range(0, len(self), CSV_CHUNK):
            chunk = self.columns(lo, min(lo + CSV_CHUNK, len(self)))
            ids, p, norm, splitting, cls, conj = (col.tolist() for col in chunk)
            yield from map(PrimeSite, ids, p, norm, [SPLITTINGS[s] for s in splitting], cls, conj)

    def columns(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """(id, p, norm, splitting, class_index, conjugate_id) of the sites
        at positions [lo, hi) as numpy arrays, splitting as its codes."""
        norm, splitting = self.norm[lo:hi], self.splitting[lo:hi]
        ids = np.arange(lo, hi, dtype=np.int64)
        # inert norms are squares below 2**30, so the float root is exact
        p = np.where(splitting == INERT, np.sqrt(norm).astype(np.int64), norm)
        # tie[k]: sites lo + k - 1 and lo + k share their norm
        a, b = max(lo, 1), min(hi, len(self) - 1)
        tie = np.zeros(hi - lo + 1, dtype=np.int64)
        tie[a - lo : b - lo + 1] = self.norm[a - 1 : b] == self.norm[a : b + 1]
        return ids, p, norm, splitting, self.cls[lo:hi] + np.int64(1), ids + tie[1:] - tie[:-1]


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


def _validate_d(d: int) -> int:
    d = as_int(d, "d")
    if d >= 0:
        raise DomainError(f"d must be negative, got {d}")
    if any(e > 1 for e in _factorize(-d).values()):
        raise DomainError(f"d must be squarefree, got {d}")
    return d


def _crt(pairs) -> int:
    r, m = 0, 1
    for r2, m2 in pairs:
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


def _group_structure(forms, identity):
    """Invariant factors and canonical coordinates from the composition group.

    Each Sylow p-subgroup G gets a basis greedily.  Its members go by
    descending order, in sorted order within one order, and x of order p^e
    joins the basis when p^(e-1) x, which generates the order-p subgroup of
    <x>, lies outside the span S of the basis so far: then <x> meets S in
    0, and S (+) <x> is p^e times larger.  The orders of the picks are G's
    invariant factors.  While the scan is at order p^g, every pick has
    order p^g or more, so the order-p elements of S are in p^(g-1) S.  An
    independent x of order p^f above the next invariant p^g would make S
    (+) <x> a subgroup of G with more invariants of p^f or more than G, so
    none is picked.  While S has fewer invariants of p^g or more than G,
    the order-p elements of p^(g-1) G have rank above that of S's, so one
    of them, p^(g-1) y, lies outside S; y has order p^g and, as S only
    grows, is still ahead in the scan.  No pick is ever undone.
    """
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
        order = {}  # x of order p^e -> (e, p^(e-1) x); the identity's is itself
        for x in members:
            e, y, top = 0, x, x
            while y != identity:
                top, y = y, form_pow(y, p, identity)
                e += 1
            order[x] = e, top
        basis, span = [], {identity}
        for x in sorted(members, key=lambda x: -order[x][0]):
            if order[x][1] not in span:
                basis.append(x)
                span = _subgroup_with(span, x, identity)
        if len(span) != pa:
            raise DomainError("Sylow basis does not span the Sylow subgroup")
        targets = [order[x][0] for x in basis]
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

    group = group_from_orders(p**t for p, targets, _ in sylow_data for t in targets)
    rank = len(group.invariant_factors)

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
    d = _validate_d(d)
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
    # the site build takes the inverse class for a split prime's second site
    neg = ordering.neg_table()
    if any(class_index[f.inverse()] - 1 != neg[class_index[f] - 1] for f in forms):
        raise DomainError("the inverse of a reduced form is not in the inverse class")
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


def _third_coefficients(p, b, disc) -> np.ndarray:
    """(b^2 - disc) / 4p for each lane, which makes (p, b, c) a form of
    discriminant disc.  Raises ``DomainError`` where b is no square root of
    disc mod 4p, before any lane is reduced: the floored c could make the
    form indefinite, which ``_reduce_forms`` cannot reduce."""
    c, r = np.divmod(b * b - disc, 4 * p)
    bad = np.flatnonzero(r)
    if bad.size:
        raise DomainError(f"form of p={int(p[bad[0]])} does not have discriminant {disc}")
    return c


def _form_classes(cg: ClassGroup, p, b, dtype) -> np.ndarray:
    """0-based class of the form (p, b, (b^2 - disc) / 4p) for each lane.

    Raises ``DomainError`` where b is no square root of disc mod 4p (see
    ``_third_coefficients``) or where a reduced form is not in the class
    table."""
    disc = cg.field.discriminant
    # c passes as a temporary, freed once ``_reduce_forms`` replaces it: a
    # name held here kept 66 MB more at d = -23, x = 1e8
    a, rb, c = _reduce_forms(p.copy(), b.copy(), _third_coefficients(p, b, disc))
    width = 2 * max(f.a for f in cg.forms) + 1
    table = sorted((f.a * width + f.b + width // 2, cg.class_index[f] - 1) for f in cg.forms)
    keys = np.array([k for k, _ in table], dtype=np.int64)
    key = a * width + rb + width // 2
    at = np.minimum(np.searchsorted(keys, key), keys.size - 1)
    bad = np.flatnonzero(keys[at] != key)
    if bad.size:
        raise DomainError(f"form of p={int(p[bad[0]])} reduced outside the class table")
    return np.array([c for _, c in table], dtype=dtype)[at]


def _two_elementary(cg: ClassGroup) -> bool:
    """Every class has order at most 2: each invariant factor is 2 (h = 1
    has none)."""
    return all(f == 2 for f in cg.group.invariant_factors)


def _root_classes(cg: ClassGroup, p, dtype) -> np.ndarray:
    """0-based class of the site above each split prime p that takes the
    smaller square root b in [0, 2p) of disc mod 4p: that of the form (p,
    b, (b^2 - disc) / 4p).  The other site takes 2p - b, whose form is
    equivalent to (p, -b, (b^2 - disc) / 4p), the inverse form, so its
    class is the inverse class (``class_group`` checks that the inverse of
    each reduced form lies in the inverse class)."""
    disc = cg.field.discriminant
    root = np.ones_like(p)  # 1 is the root at p = 2
    odd = p > 2
    root[odd] = sqrt_mod_primes(disc % p[odd], p[odd])
    root += np.where((root - disc) % 2 == 0, 0, p)
    return _form_classes(cg, p, np.minimum(root, 2 * p - root, out=root), dtype)


def _prefix(q, m) -> int:
    """The length of a prefix of the ascending primes q that holds every
    residue mod m of q, and two primes of each of the phi(m) unit
    residues where q has them.

    A prime that shares a factor with m divides it, so it is at most m and
    lies among the first m primes, and every other prime is a unit mod m.
    The prefix starts at 2m primes and doubles until it holds two primes
    of each unit residue, or until it is all of q.
    """
    units = math.prod((f - 1) * f ** (e - 1) for f, e in _factorize(m).items())
    k = min(q.size, 2 * m)
    while k < q.size and np.count_nonzero(np.bincount(q[:k] % m, minlength=m) > 1) < units:
        k = min(2 * k, q.size)
    return k


def _by_residue(values, q, k, m, what: str) -> np.ndarray:
    """``values``(q) for the ascending primes q, evaluated on the prefix
    q[:k] and read past it from a table over r = q mod m that the prefix
    fills, with r in the smallest unsigned type that holds m - 1; a prefix
    that is all of q needs no table.

    Where two primes of the prefix with one residue differ in value, a
    ``DomainError`` names the first prime of that residue, the first that
    differs from it and ``what``: the rule that the value is a function of
    q mod m is checked where the table is read.
    """
    got = values(q[:k])
    if k == q.size:
        return got
    r = (q % m).astype(np.min_scalar_type(m - 1))
    table = np.zeros(m, dtype=got.dtype)
    table[r[:k]] = got
    bad = np.flatnonzero(table[r[:k]] != got)
    if bad.size:
        same = np.flatnonzero(r[:k] == r[bad[0]])
        other = same[got[same] != got[same[0]]][0]
        raise DomainError(
            f"the {what} of p={int(q[other])} differs from that of p={int(q[same[0]])}, "
            f"the first prime = {int(r[other])} (mod {m}): it is not a function of p mod |disc|"
        )
    return table[r]


def _field_columns(cg: ClassGroup, limit: int) -> SiteColumns:
    """The site columns of Q(sqrt(d)) up to norm ``limit``, sorted by (norm, b).

    The Kronecker symbol (disc/p), a character mod |disc| for a
    fundamental discriminant (Davenport, Multiplicative Number Theory, ch.
    5), is evaluated on a prefix of the primes that holds every residue
    mod |disc| (``_prefix``) and read past it from a table over r = p mod
    |disc| (``_by_residue``): it marks the ramified (0) and split (1)
    primes.  Where |disc| is large against the number of primes, the
    prefix is the whole stream and there is no table.  A split prime's two
    sites take the square roots b < 2p - b in [0, 2p) of disc mod 4p.  The
    first site's class is that of the reduced form (p, b, (b^2 - disc) /
    4p) (``_root_classes``), and the second's, the conjugate ideal's, is
    its inverse, read from the inverse table (Cox, Primes of the Form x^2
    + ny^2, 7).  When every class has order at most 2, a split prime's
    class is a function of r instead (genus theory: Gauss, Disquisitiones
    229-234; Cox, 3): it is reduced for the split primes of the prefix and
    read past it from a second table over r, and the inverse table is the
    identity.  The ramified primes, one per prime dividing disc, are
    reduced in either case.  An inert prime p <= sqrt(limit) gives one
    principal site of norm p^2.

    The columns are filled in place, each split prime's two sites side by
    side with the smaller b first, then the ramified and the inert sites,
    and one stable sort by norm orders them.  Norms tie only within a split
    pair, since a ramified prime is not split and an inert p^2 is no prime,
    so the stable sort gives the (norm, b) order.
    """
    disc = cg.field.discriminant
    dtype = np.min_scalar_type(cg.field.h - 1)
    p = prime_array(limit)
    k = _prefix(p, -disc)
    kron = _by_residue(lambda q: kronecker_primes(disc, q), p, k, -disc, "Kronecker symbol")
    # positions, not a mask: a gather is cheaper than a boolean index that
    # takes about half of the primes
    split = np.flatnonzero(kron == 1)
    p_split, p_ram = p[split], p[kron == 0]
    small = np.searchsorted(p, math.isqrt(limit), side="right")
    p_inert = p[:small][kron[:small] < 0]
    # on the residue path the split primes of the prefix, else all of them
    n = np.searchsorted(split, k) if _two_elementary(cg) else split.size
    del p, kron, split
    classes = _by_residue(lambda q: _root_classes(cg, q, dtype), p_split, n, -disc, "class")
    n2 = 2 * p_split.size
    n_forms = n2 + p_ram.size
    norm = np.empty(n_forms + p_inert.size, dtype=np.int64)
    norm[0:n2:2] = norm[1:n2:2] = p_split
    norm[n2:n_forms], norm[n_forms:] = p_ram, p_inert * p_inert
    cls = np.zeros(norm.size, dtype=dtype)
    cls[0:n2:2] = classes
    cls[1:n2:2] = np.array(cg.ordering.neg_table(), dtype=dtype)[classes]
    b_ram = np.where(p_ram == 2, 0 if disc % 8 == 0 else 2, p_ram if disc % 2 else 0)
    cls[n2:n_forms] = _form_classes(cg, p_ram, b_ram, dtype)
    splitting = np.repeat(
        np.array([SPLIT, RAMIFIED, INERT], dtype=np.int8), (n2, p_ram.size, p_inert.size)
    )
    order = np.argsort(norm, kind="stable")
    return SiteColumns(norm[order], splitting[order], cls[order])


def _available_memory() -> int:
    """The physical memory, or the address-space limit of this process
    (``RLIMIT_AS``, as ``ulimit -v`` sets it) where that is lower."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return physical if soft == resource.RLIM_INFINITY else min(physical, soft)


def check_site_memory(limit: int) -> None:
    """Refuse a site stream to norm ``limit`` before anything is allocated:
    a ``DomainError`` below 2, and a ``ResourceLimitError`` where its
    estimated bytes exceed the physical memory or the address-space limit
    (``_available_memory``).  The estimate takes
    pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld, 1962) sites, each at
    ``BUILD_BYTES_PER_SITE`` plus ``CLASS_TABLE_BYTES_PER_SITE``."""
    if as_int(limit, "site norm bound") < 2:
        raise DomainError("site stream needs limit >= 2")
    sites = 1.25506 * limit / math.log(limit)
    need = math.ceil(sites * (BUILD_BYTES_PER_SITE + CLASS_TABLE_BYTES_PER_SITE))
    have = _available_memory()
    if need > have:
        raise ResourceLimitError(
            f"site norm bound {limit} needs about {need} bytes, more than the {have} "
            "bytes of physical memory or address space this process may use"
        )


def prime_sites_up_to(cg: ClassGroup, limit: int) -> SiteColumns:
    """Every prime ideal of norm <= limit, exactly once, ordered by (norm, id).

    Returns the stream as columns; iterating it yields ``PrimeSite``s.
    Ids are assigned in stream order and are prefix-stable in the limit.
    The two sites above a split prime carry inverse classes; which
    conjugate gets the smaller id is fixed by the smaller square root b in
    [0, 2p).  When every class has order at most 2, both carry the same
    class, a function of p mod |disc| (``_by_residue``), and the b order
    is unobservable.  Raises
    ``ResourceLimitError`` before any allocation where the stream would
    not fit in memory (``check_site_memory``) or where int64 site
    arithmetic ends, and ``DomainError`` if a reduced form has the wrong
    discriminant or lies outside the class table, or if two primes of one
    residue mod |disc| differ in their Kronecker symbol, or on that path
    in their class.
    """
    check_site_memory(limit)
    if limit > _INT64_MAX_NORM:
        raise ResourceLimitError(
            f"site norm bound {limit} exceeds {_INT64_MAX_NORM}, where int64 site arithmetic ends"
        )
    return _field_columns(cg, limit)


#: Rows per ``write_int_csv`` block, and per chunk of ``SiteColumns.columns``
#: that ``sites_to_csv`` and iteration read; a block's bytes bound its extra
#: memory.
CSV_CHUNK = 1 << 13
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def write_int_csv(out, columns) -> None:
    """Write CSV lines whose fields are ``columns``, with one ``out.write``
    of at most CSV_CHUNK lines at a time.

    Each column is an int64 array of values >= 0, written as ``"%d"``
    would, or a pair (codes, labels) that writes ``labels[code]``: labels
    a sequence of str, or a (labels, width) uint8 table of ASCII bytes
    whose zero bytes are dropped, such as ``label_table`` makes.  The
    labels are encoded once per call, so a column of repeated rows costs a
    gather of their bytes per line, not their formatting.
    """
    cols = [_csv_column(col) for col in columns]
    for lo in range(0, len(cols[0][0]), CSV_CHUNK):
        block = _csv_block([(v[lo : lo + CSV_CHUNK], table) for v, table in cols])
        out.write(block.tobytes().translate(None, b"\0").decode("ascii"))


def label_table(columns) -> np.ndarray:
    """The rows of ``columns`` (as ``write_int_csv`` takes them) as labels:
    a (rows, width) uint8 table, each row its fields joined by commas,
    with zero bytes before the fields shorter than their column's widest."""
    return np.ascontiguousarray(_csv_block([_csv_column(col) for col in columns])[:, :-1])


def _csv_column(col):
    """A ``write_int_csv`` column as (values, None) or (codes, uint8 table)."""
    if isinstance(col, tuple):
        codes, labels = col
        if not isinstance(labels, np.ndarray):
            # one row of ASCII bytes per label, zero-padded to the longest
            labels = np.array([s.encode("ascii") for s in labels])
            labels = labels.view(np.uint8).reshape(labels.size, -1)
        return codes, labels
    if col.size and col.min() < 0:
        raise DomainError(f"CSV column holds a negative value {int(col.min())}")
    return col, None


def _csv_block(cols) -> np.ndarray:
    """The CSV lines of ``cols`` as one (rows, width) uint8 block: a field
    per column, right-aligned in the column's widest value with zero bytes
    before the shorter ones, then a comma, and a newline last.

    A label column is a gather of its table's rows.  The int columns of
    each run between labels are formatted column-major, where every digit
    of a column is one contiguous row operation, then transposed into the
    block as one copy.  Digits come from ``q = t // 10`` and ``t - q *
    10`` on the int64 column, and digit row k of a w-wide field is kept
    where the value has more than w - 1 - k digits, by a multiply with
    ``v >= 10**(w-1-k)``.
    """
    widths = [len(str(int(v.max()))) if table is None else table.shape[1] for v, table in cols]
    ends = np.cumsum(widths) + np.arange(1, len(cols) + 1)  # past each field's comma
    block = np.empty((cols[0][0].size, ends[-1]), dtype=np.uint8)
    for is_int, run in itertools.groupby(zip(cols, widths, ends), lambda c: c[0][1] is None):
        run = list(run)
        if not is_int:
            for (codes, table), w, end in run:
                block[:, end - 1 - w : end - 1] = table[codes]
            continue
        lo, hi = run[0][2] - run[0][1] - 1, run[-1][2]
        digits = np.empty((hi - lo, block.shape[0]), dtype=np.uint8)
        for (v, _), w, end in run:
            field = digits[end - 1 - w - lo : end - 1 - lo]
            t = v
            for k in range(w - 1, 0, -1):
                q = t // 10
                field[k] = t - q * 10
                t = q
            field[0] = t
            field += ord("0")
            field[: w - 1] *= v >= _POW10[w - 1 : 0 : -1, None]
        block[:, lo:hi] = digits.T
    # after the copies: the digit blocks' comma rows are left unset
    block[:, ends - 1] = ord(",")
    block[:, -1] = ord("\n")
    return block


def sites_to_csv(sites: SiteColumns, out) -> None:
    """Write the site stream, a ``SiteColumns``, in the shared CSV schema,
    one row per site in stream order, a ``CSV_CHUNK`` of derived columns at
    a time."""
    out.write("id,p,norm,splitting,class_index,conjugate_id\n")
    for lo in range(0, len(sites), CSV_CHUNK):
        ids, p, norm, splitting, cls, conj = sites.columns(lo, min(lo + CSV_CHUNK, len(sites)))
        write_int_csv(out, (ids, p, norm, (splitting, SPLITTINGS), cls, conj))
