"""Univariate polynomials over an exact field, with root machinery for degree <= 3.

Provides monic gcd, in-field root finding, splitting-field construction by
root adjunction, deterministic square roots in a quadratic extension, and
the characteristic-dependent classifier for the number of distinct roots of
a cubic in a root-closed extension.

Every root search, over GF(q) and over Q, `fields.embed` included, is one
`RootSearch`.  It finds g, the product of x - r over the distinct in-field
roots r, and divides every in-field linear factor out of f, so that a count
of distinct roots over the root closure reads the degree of the rootless
cofactor and builds no extension.  Over GF(q), g = gcd(f, x^q - x) by
repeated squaring, and Cantor-Zassenhaus splits it into linear factors only
when its roots are read: O(d^2 log q) field operations for degree d and no
scan of the field.  Root lists are sorted by index, so they and the chosen
least-index roots are canonical.  `joint_quadratic_splitting` searches no
roots: the quadratic character of each ideal quadratic decides whether it
splits.

Over Q, `_rational_roots` runs a `RootSearch` over a small GF(p) and
Hensel-lifts each root past Cauchy's bound of a monic integer form, so no
divisor of a coefficient is ever searched; rational roots are sorted by
value.

The raw helpers (`_rsub`, `_rmul`, `_rdivmod`, `_rmonic`, `_rgcd`, `_rpow`)
are the package's only polynomial arithmetic: `Poly`'s product, division and
gcd convert to them and back, and `fields` runs modulus selection, the
primitive-element search and inversion in GF(p^k) on them over GF(p).  They
work on raw element values: over a finite field an element's raw value is
its enumeration index, so sorting raw roots sorts them by index.  Over GF(p)
a raw value is an int residue and over Q a Fraction, and the helpers
compute on it with Python's operators: products are convolved over Z
(`fields._convolve`), folds by a monic divisor run on unreduced ints
(`fields._fold`), and each output coefficient is reduced once, by one `% p`.
Over Q they take ints too, and a gcd runs on ints alone, on the primitive
forms (`_primitive`) of its operands; only its monic answer is Fractions.
A product in GF(p^k) past the log tables is these two loops on base-p
digits.  Over GF(p^k) every sum and product is one call of the field's
`_add`, `_sub` or `_mul`.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import random
from fractions import Fraction

from .fields import (
    GF,
    DivisionByZero,
    Fel,
    Field,
    FieldError,
    FieldMismatch,
    InfiniteField,
    ParseError,
    QQ,
    _convolve,
    _fold,
    embed,
    is_prime,
    parse_el,
)


class PolyError(FieldError):
    pass


class RationalSplittingUnsupported(PolyError):
    pass


class ZeroPolynomial(PolyError):
    pass


class RootCount(enum.Enum):
    """How many distinct roots (or lines, ideals, ...) an object has."""

    ZERO = "0"
    ONE = "1"
    TWO = "2"
    THREE = "3"
    INFINITE = "inf"

    @classmethod
    def of(cls, n: int) -> "RootCount":
        return {0: cls.ZERO, 1: cls.ONE, 2: cls.TWO, 3: cls.THREE}[n]

    @property
    def label(self) -> str:
        return self.value


class Poly:
    """Polynomial with constant-first coefficients, trailing zeros trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        return cls(field, [field.el(c) for c in ints])

    @classmethod
    def _of_raw(cls, field: Field, raw: list) -> "Poly":
        return cls(field, [field._fel(c) for c in raw])

    def _raw(self) -> list:
        return [c.raw for c in self.coeffs]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fel:
        return self.coeffs[i] if i <= self.degree else self.field.zero

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.field, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.field, [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        F = self.field
        return Poly._of_raw(F, _rmul(F, self._raw(), other._raw()))

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        # divide by other made monic, then scale the quotient back
        lead_inv = [F._inv(other.coeffs[-1].raw)]
        q, r = _rdivmod(F, self._raw(), _rmul(F, other._raw(), lead_inv))
        return Poly._of_raw(F, _rmul(F, q, lead_inv)), Poly._of_raw(F, r)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __call__(self, x: Fel) -> Fel:
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def lift(self, dst: Field) -> "Poly":
        """Map coefficients through the fixed embedding into dst."""
        return Poly(dst, [embed(c, dst) for c in self.coeffs])

    def text(self) -> str:
        """Canonical text: comma-separated coefficients, constant first."""
        if self.is_zero:
            return "0"
        return ",".join(c.text() for c in self.coeffs)

    def __repr__(self):
        return f"Poly[{self.text()}]"


def parse_poly(field: Field, text: str) -> Poly:
    parts = [t for t in text.strip().split(",")]
    if not parts or parts == [""]:
        raise ParseError("empty polynomial")
    return Poly(field, [parse_el(field, t) for t in parts])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    if f.field != g.field:
        raise FieldMismatch("gcd of polynomials over different fields")
    return Poly._of_raw(f.field, _rgcd(f.field, f._raw(), g._raw()))


# Raw polynomial arithmetic over a field F.  A polynomial is a list of raw
# values (`Fel.raw`: the element's index over a finite field, a Fraction over
# Q), constant first, without trailing zeros, so 0 is zero and 1 is one.
# F.k == 1 (GF(p) or Q) selects the path on plain numbers that the module
# docstring describes.  Root finding builds no Fel or Poly until it hands
# the roots back.

def _zero(F: Field):
    return 0 if F.p else Fraction(0)  # Q's raw values stay Fractions


def _rsub(F: Field, a: list, b: list) -> list:
    zero = _zero(F)
    pairs = itertools.zip_longest(a, b, fillvalue=zero)
    if F.k == 1:
        p = F.p
        out = [(x - y) % p for x, y in pairs] if p else [x - y for x, y in pairs]
    else:
        out = [F._sub(x, y) for x, y in pairs]
    while out and out[-1] == zero:
        out.pop()
    return out


def _rmul(F: Field, a: list, b: list) -> list:
    if not a or not b:
        return []
    zero = _zero(F)
    if F.k == 1:
        out = _convolve(a, b, zero)
        p = F.p
        return [c % p for c in out] if p else out
    # products by one (raw value 1) and sums into zero make no call, so a
    # product by x + c costs what a shift and one scaled add cost
    add, mul = F._add, F._mul
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                t = y if x == 1 else mul(x, y)
                out[j] = add(out[j], t) if out[j] else t
    return out


def _rdivmod(F: Field, a: list, m: list) -> tuple[list, list]:
    """Quotient and remainder of a by the monic m.  Where raw values are
    plain numbers, a's coefficients may be any integers over GF(p): each is
    reduced once, when it is read, by `fields._fold`."""
    r = list(a)
    if F.k == 1:
        p = F.p
        q = _fold(r, m, p)
        if p:
            r = [c % p for c in r]
    else:  # GF(p^k), whose zero is the index 0
        d = len(m) - 1
        q = [0] * max(len(r) - d, 0)
        sub, mul = F._sub, F._mul
        for s in range(len(r) - 1 - d, -1, -1):
            c = r.pop()
            q[s] = c
            if c:
                for i in range(d):
                    r[s + i] = sub(r[s + i], mul(c, m[i]))
    while r and not r[-1]:
        r.pop()
    return q, r


def _rmonic(F: Field, a: list) -> list:
    inv = F._inv(a[-1])
    if F.k == 1:
        p = F.p
        return [c * inv % p for c in a] if p else [c * inv for c in a]
    mul = F._mul
    return [mul(c, inv) for c in a]


def _rgcd(F: Field, a: list, b: list) -> list:
    """Monic gcd of a and b; zero when both are.  Over Q it runs the
    primitive pseudo-remainder sequence (Collins 1967; Knuth, TAOCP vol. 2,
    4.6.1) on the integer forms of a and b, and divides once, to make the
    last of them monic."""
    if not b:
        return _rmonic(F, a) if a else a
    if not F.p:
        a, b = _primitive(a) if a else a, _primitive(b)
        while b:
            # the remainder of a by b, with a scaled by b's leading
            # coefficient at each step where division would divide by it
            d = len(b) - 1
            while len(a) > d:
                c = a.pop()
                a = [b[-1] * x for x in a]
                for i, x in enumerate(b[:d], len(a) - d):
                    a[i] -= c * x
            while a and not a[-1]:
                a.pop()
            a, b = b, _primitive(a) if a else a
        return [Fraction(c, a[-1]) for c in a]
    while b:
        b = _rmonic(F, b)
        a, b = b, _rdivmod(F, a, b)[1]
    return a


def _primitive(h: list) -> list[int]:
    """The primitive form in Z[x] of the nonzero h over Q, whose entries are
    ints or Fractions: denominators cleared, the content divided out and the
    leading coefficient positive."""
    den = math.lcm(*(c.denominator for c in h))
    ints = [c.numerator * (den // c.denominator) for c in h]
    content = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return [c // content for c in ints]


def _rpow(F: Field, b: list, e: int, m: list) -> list:
    """b^e mod the monic m over a finite field, for e >= 1, by left-to-right
    repeated squaring.  Over GF(p) each product is left unreduced until its
    fold by m."""
    mul = _convolve if F.k == 1 else functools.partial(_rmul, F)
    b = r = _rdivmod(F, b, m)[1]
    for bit in bin(e)[3:]:
        r = _rdivmod(F, mul(r, r), m)[1]
        if bit == "1":
            r = _rdivmod(F, mul(b, r), m)[1]
    return r


def _shifts(F: Field):
    """Split parameters c for `_splitter`, as raw values.  In characteristic 2
    they are the basis w^j (j < k), of index 2^j: the traces Tr(w^j * r)
    separate any two distinct elements r.  Otherwise they are drawn from a
    fixed-seed pseudo-random sequence over all of F, restarted on every call
    so that runs repeat; shifts from the prime subfield alone would never
    separate conjugates."""
    if F.p == 2:
        yield from (2**j for j in range(F.k))
        return
    rng = random.Random(0)
    while True:
        yield rng.randrange(F.order)


def _splitter(F: Field, c: int, g: list) -> list:
    """A polynomial whose gcd with g (deg >= 2, monic, distinct in-field roots)
    collects the roots r with Tr(c * r) = 0 in characteristic 2, and the roots
    with r + c a nonzero square otherwise."""
    if F.p == 2:
        t = s = [0, c]
        for _ in range(F.k - 1):
            t = _rdivmod(F, _rmul(F, t, t), g)[1]
            s = _rsub(F, s, t)  # minus is plus in characteristic 2
        return s
    return _rsub(F, _rpow(F, [c, 1], (F.order - 1) // 2, g), [1])


def _split(F: Field, g: list) -> list[Fel]:
    """Roots of g = gcd(f, x^q - x), deg g >= 1, by Cantor-Zassenhaus, in index order."""
    factors = [g]
    shifts = _shifts(F)
    while any(len(h) > 2 for h in factors):
        c = next(shifts)
        refined = []
        for h in factors:
            if len(h) > 2:
                d = _rgcd(F, h, _splitter(F, c, h))
                if 1 < len(d) < len(h):
                    refined += [d, _rdivmod(F, h, d)[0]]
                    continue
            refined.append(h)
        factors = refined
    return [F._fel(r) for r in sorted(F._neg(h[0]) for h in factors)]


def roots_in_field(f: Poly):
    """All distinct roots in the coefficient field of a nonzero polynomial,
    from its `RootSearch`, sorted by `Fel.sort_key`.  Every element is a root
    of the zero polynomial, so it raises `ZeroPolynomial`, as
    `splitting_field` does; callers decide that case from `f.is_zero`.
    """
    if f.is_zero:
        raise ZeroPolynomial("every element is a root of the zero polynomial")
    return RootSearch(f).roots


def _rational_roots(h: list) -> list[Fraction]:
    """Distinct rational roots of the raw h over Q (degree >= 1), by the
    modular method (von zur Gathen & Gerhard, Modern Computer Algebra, 5.10
    and ch. 15).

    The square-free part of h, in its primitive form in Z[x] (`_primitive`)
    with leading coefficient a > 0, becomes the monic g(y) = a^(n-1) * h(y/a)
    in Z[y], whose integer roots are the a*r; its gcd with h' runs on
    integers too.  Each root of g modulo the least prime p that keeps g
    square-free (and does not divide a) lifts uniquely; a lift read as a
    symmetric residue past twice Cauchy's bound is a root of g exactly when
    g vanishes there.
    """
    h = _primitive(h)
    d = _rgcd(QQ, h, [i * c for i, c in enumerate(h)][1:])
    if len(d) > 1:
        h = _primitive(_rdivmod(QQ, h, d)[0])
    a, n = h[-1], len(h) - 1
    g = [c * a ** (n - 1 - i) for i, c in enumerate(h[:-1])] + [1]
    dg = [i * c for i, c in enumerate(g)][1:]
    bound = 1 + max(abs(c) for c in g[:-1])
    for p in filter(is_prime, itertools.count(2)):
        if a % p == 0:
            continue
        P = GF(p)
        gp = [c % p for c in g]
        dgp = [c % p for c in dg]
        while dgp and not dgp[-1]:
            dgp.pop()
        if len(_rgcd(P, gp, dgp)) == 1:
            break
    roots = []
    for r in RootSearch(Poly._of_raw(P, gp)).roots:
        y = _lift_root(g, dg, r.raw, p, bound)
        if _ieval(g, y) == 0:
            roots.append(Fraction(y, a))
    return roots


def _lift_root(g: list[int], dg: list[int], y: int, p: int, bound: int) -> int:
    """The simple root y of g modulo p, Newton-lifted to a modulus m > 2*bound
    by squaring m, read as the residue of least absolute value."""
    m = p
    while m <= 2 * bound:
        m *= m
        y = (y - _ieval(g, y) * pow(_ieval(dg, y), -1, m)) % m
    return y - m if 2 * y > m else y


def _ieval(c: list[int], y: int) -> int:
    acc = 0
    for a in reversed(c):
        acc = acc * y + a
    return acc


class RootSearch:
    """One root search of f in its own field.  It keeps g, the product of
    x - r over the distinct in-field roots r, whose degree `count` is their
    number, and the degree `rest` of the cofactor left once every in-field
    linear factor, multiplicities included, is divided out.  Over GF(q), g =
    gcd(f, x^q - x), and `roots` splits g, in index order, when first read,
    and never when g has no root.  Over Q the roots come at once from
    `_rational_roots`, sorted by value.  A zero f lists no roots and has rest
    0: every element is a root."""

    __slots__ = ("f", "count", "rest", "_g", "_roots")

    def __init__(self, f: Poly):
        self.f, self.count, self.rest, self._g, self._roots = f, 0, 0, None, []
        if f.is_zero:
            return
        F = f.field
        h = f._raw()
        if F.is_finite:
            # a constant has no root and a linear h is its own g, so neither
            # raises x to the q-th power
            h = _rmonic(F, h)
            g = h if len(h) <= 2 else _rgcd(F, h, _rsub(F, _rpow(F, [0, 1], F.order, h), [0, 1]))
            if len(g) > 1:
                self._roots = None  # split when first read
        else:
            roots = sorted(_rational_roots(h)) if len(h) > 1 else []
            self._roots = [F.el(r) for r in roots]
            g = [Fraction(1)]
            for r in roots:
                g = _rmul(F, g, [-r, Fraction(1)])
        # h need not be monic: every divisor d is
        d = g
        while len(d) > 1:
            h = _rdivmod(F, h, d)[0]
            d = _rgcd(F, h, d)
        self._g, self.count, self.rest = g, len(g) - 1, len(h) - 1

    @property
    def roots(self) -> list[Fel]:
        if self._roots is None:
            self._roots = _split(self.f.field, self._g)
        return self._roots


def splitting_field(f: Poly) -> tuple[Field, list[Fel]]:
    """Smallest extension of the owner where f (deg <= 3) splits, with its roots.

    Built by adjoining a root of the unique irreducible cofactor left after
    dividing out all in-field linear factors, then flattening to a single
    extension of the prime field.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no splitting field")
    F = f.field
    if not F.is_finite:
        raise RationalSplittingUnsupported("splitting fields over Q are out of scope")
    if f.degree > 3:
        raise PolyError("splitting fields only built for degree <= 3")
    found = RootSearch(f)
    if not found.rest:
        return F, found.roots
    # the cofactor has no in-field roots, so for degree <= 3 it is irreducible
    ext = GF(F.p, F.k * found.rest)
    return ext, RootSearch(f.lift(ext)).roots


def joint_quadratic_splitting(field: Field, polys) -> Field:
    """Smallest extension where every given polynomial of degree <= 2 splits."""
    if not field.is_finite:
        raise RationalSplittingUnsupported("splitting fields over Q are out of scope")
    for f in polys:
        if f.degree == 2 and _rootless_quadratic(f):
            return GF(field.p, field.k * 2)
    return field


def _rootless_quadratic(f: Poly) -> bool:
    """Whether f = c + b*y + a*y^2 over GF(q) has no root, found by no root
    search: b^2 - 4ac is a nonsquare (Euler's criterion) for odd q; b != 0 and
    Tr(ac/b^2) = 1 for q = 2^k, as y = (b/a)*z gives a multiple of
    z^2 + z + ac/b^2 (Berlekamp, Rumsey & Solomon 1967)."""
    F = f.field
    c, b, a = f.coeffs
    if F.p == 2:
        if b.is_zero:
            return False
        t = s = a * c / (b * b)
        for _ in range(F.k - 1):
            t = t * t
            s = s + t
        return not s.is_zero
    d = b * b - F.el(4) * a * c
    return not d.is_zero and d ** ((F.order - 1) // 2) != F.one


_SQRT_CACHE: dict = {}


def sqrt_in_ext(x: Fel) -> tuple[Fel, Field]:
    """Deterministic square root: the root of least index of y^2 - x in its
    splitting field, which is the base field when x is a square there and
    the quadratic extension otherwise."""
    F = x.field
    if not F.is_finite:
        raise InfiniteField("square roots in an extension need a finite base")
    key = (F, x.raw)
    got = _SQRT_CACHE.get(key)
    if got is None:
        E, roots = splitting_field(Poly(F, [-x, F.zero, F.one]))
        got = _SQRT_CACHE[key] = roots[0], E
    return got


def distinct_root_count(f: Poly) -> RootCount:
    """Distinct roots of f (deg <= 3) counted in a root-closed extension.

    The count is the number of in-field roots plus the degree of the
    rootless cofactor of f's `RootSearch`: that cofactor is irreducible
    (degree <= 3 with no roots), hence separable, and contributes exactly its
    degree.  The equality with a literal splitting-field scan, and over Q
    with `cubic_root_count`, is asserted in the tests.
    """
    if f.is_zero:
        return RootCount.INFINITE
    if f.degree > 3:
        raise PolyError("closed root counts stop at degree 3")
    found = RootSearch(f)
    return RootCount.of(found.count + found.rest)


def cubic_root_count(a: Fel, b: Fel, c: Fel, d: Fel) -> RootCount:
    """Distinct-root count of a*y^3+b*y^2+c*y+d over a root-closed extension.

    Case analysis depends on the characteristic (0 behaves like any
    characteristic other than 2 and 3); every condition is evaluated in the
    coefficients' own field.
    """
    F = a.field
    for other in (b, c, d):
        if other.field != F:
            raise FieldMismatch("cubic coefficients over different fields")
    p = F.p
    three = F.el(3)
    if not a.is_zero:
        if p not in (2, 3):
            disc = b * b - three * a * c
            if disc.is_zero and (b * c - F.el(9) * a * d).is_zero:
                return RootCount.ONE
            # the values at the critical points y± = (-b ± sqrt(disc)) / (3a)
            # multiply to (d1^2 - 4*disc^3) / (729 a^4), symmetric in the
            # sign, so a double root shows without taking the square root
            d1 = F.el(2) * b * b * b - F.el(9) * a * b * c + F.el(27) * a * a * d
            if not disc.is_zero and (d1 * d1 - F.el(4) * disc * disc * disc).is_zero:
                return RootCount.TWO
            return RootCount.THREE
        if p == 2:
            if (a * d - b * c).is_zero:
                return RootCount.ONE if (a * c - b * b).is_zero else RootCount.TWO
            return RootCount.THREE
        # characteristic 3
        if b.is_zero and c.is_zero:
            return RootCount.ONE
        if not b.is_zero:
            t = c / b
            val = ((a * t + b) * t + c) * t + d
            return RootCount.TWO if val.is_zero else RootCount.THREE
        return RootCount.THREE
    # quadratic / linear / constant tail
    if b.is_zero and c.is_zero:
        return RootCount.INFINITE if d.is_zero else RootCount.ZERO
    if b.is_zero:
        return RootCount.ONE
    # 4 = 0 in characteristic 2, where c = 0 makes the root double
    disc2 = c * c - F.el(4) * b * d
    return RootCount.ONE if disc2.is_zero else RootCount.TWO

