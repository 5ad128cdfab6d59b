"""Class groups of imaginary quadratic fields via reduced binary quadratic forms.

Restricting to imaginary quadratic fields keeps everything exact and
elementary: the class group is realized by reduced forms under Gauss
composition, principality of an ideal is decidable by form reduction, the
unit group is finite, and the regulator is 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .abelian import ClassOrdering, GroupSpec, _factorize, canonical_ordering
from .errors import DomainError, ResourceLimitError
from .primes import is_prime, kronecker_prime, primes_up_to, sqrt_mod_prime

DEFAULT_MAX_DISCRIMINANT = 10**7
DEFAULT_MAX_SITE_NORM = 10**8


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

    def class_of(self, form: QuadForm) -> int:
        return self.class_index[form]


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


def class_group(d: int, max_discriminant: int = DEFAULT_MAX_DISCRIMINANT) -> ClassGroup:
    """Build the class group of Q(sqrt(d)) for squarefree d < 0.

    Enumerates reduced forms, extracts invariant factors from the
    composition group, and fixes the isomorphism onto canonical coordinates
    with the principal form at the identity.
    """
    _validate_d(d)
    disc = d if d % 4 == 1 else 4 * d
    if -disc > max_discriminant:
        raise ResourceLimitError(
            f"|discriminant| {-disc} exceeds the configured bound {max_discriminant}"
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


def _ramified_root(disc: int, p: int) -> int:
    # deterministic b in [0, 2p) with b^2 = disc (mod 4p) for p | disc
    if p == 2:
        return 0 if disc % 8 == 0 else 2
    return p if disc % 2 else 0


def _split_roots(disc: int, p: int) -> tuple[int, int]:
    # the two square roots of disc mod 4p, as b in [0, 2p), smaller first
    if p == 2:
        return 1, 3
    r = sqrt_mod_prime(disc % p, p)
    b = r if (r - disc) % 2 == 0 else r + p
    return min(b, 2 * p - b), max(b, 2 * p - b)


def _site_class(cg: ClassGroup, p: int, b: int) -> int:
    c = (b * b - cg.field.discriminant) // (4 * p)
    return cg.class_index[reduce_form(p, b, c)]


def _site_rows(cg: ClassGroup, limit: int) -> list[tuple]:
    """Raw site rows (norm, p, b, splitting, class_index), sorted by (norm, b)."""
    disc = cg.field.discriminant
    sq = math.isqrt(limit)
    rows = []
    for p in primes_up_to(limit):
        if disc % p == 0:
            b = _ramified_root(disc, p)
            rows.append((p, p, b, "ramified", _site_class(cg, p, b)))
        elif kronecker_prime(disc, p) == 1:
            b1, b2 = _split_roots(disc, p)
            rows.append((p, p, b1, "split", _site_class(cg, p, b1)))
            rows.append((p, p, b2, "split", _site_class(cg, p, b2)))
        elif p <= sq:
            rows.append((p * p, p, 0, "inert", 1))
    rows.sort()
    return rows


def prime_sites_up_to(cg: ClassGroup, limit: int,
                      max_norm: int = DEFAULT_MAX_SITE_NORM) -> Iterator[PrimeSite]:
    """Every prime ideal of norm <= limit, exactly once, ordered by (norm, id).

    Ids are assigned in stream order and are prefix-stable in the limit.
    The two sites above a split prime carry inverse classes; which conjugate
    gets the smaller id is fixed by the smaller square root b in [0, 2p).
    """
    if limit < 2:
        raise DomainError("site stream needs limit >= 2")
    if limit > max_norm:
        raise ResourceLimitError(
            f"site norm bound {limit} exceeds the memory budget {max_norm}"
        )
    rows = _site_rows(cg, limit)
    neg = cg.ordering.neg_table()
    for i, (norm, p, b, splitting, cls) in enumerate(rows):
        if splitting == "split":
            # conjugates are adjacent after the (norm, b) sort
            mate = i + 1 if i + 1 < len(rows) and rows[i + 1][1] == p else i - 1
            expected = neg[cls - 1] + 1
            if rows[mate][4] != expected:
                raise DomainError(f"conjugate classes of p={p} are not inverse")
            yield PrimeSite(i, p, norm, splitting, cls, mate)
        else:
            yield PrimeSite(i, p, norm, splitting, cls, i)


def sites_to_csv(sites, out) -> None:
    """Write the site stream in the shared CSV schema."""
    out.write("id,p,norm,splitting,class_index,conjugate_id\n")
    for s in sites:
        out.write(f"{s.id},{s.p},{s.norm},{s.splitting},{s.class_index},{s.conjugate_id}\n")

