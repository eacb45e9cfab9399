"""Univariate polynomials over an exact field, with root machinery for degree <= 3.

Provides monic gcd, in-field root finding, splitting-field construction by
root adjunction, deterministic square roots in a quadratic extension, and
one rule, `_closed_root_count`, for the number of distinct roots of a cubic
in a root-closed extension: it reads the discriminants off the raw
coefficients in O(1) operations (with their own cases in characteristics 2
and 3), so a count searches no roots.

Every root search, over GF(q) and over Q, `fields.embed` included, is one
`RootSearch`, made for callers that list roots.  It finds g, the product of
x - r over the distinct in-field roots r, when first read: over GF(q), g =
gcd(f, x^q - x) by repeated squaring, O(d^2 log q) field operations for
degree d, no scan of the field, split only when its roots are read.  Over
odd q, x^q = x * w^2 for w = x^((q-1)/2) mod f, so the first split,
gcd(g, w - 1), costs no more powers; a quadratic factor goes by the formula
and a larger one by Cantor-Zassenhaus (by traces in characteristic 2).  Root
lists are sorted by index, so they and the chosen least-index roots are
canonical.  `joint_quadratic_splitting` searches no roots: the quadratic
character of each ideal quadratic decides whether it splits.

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
`_add`, `_sub` or `_mul`.  `_rpow` over GF(p) packs a long power into
ints once: one int product per squaring and a Barrett fold of two more.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
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
    """b^e mod the monic m of degree d >= 1 over a finite field, for e >= 1,
    by left-to-right repeated squaring.  Over GF(p) an e of more than
    2 * min(d, 4) bits runs on ints, one coefficient per s-bit slot
    (Kronecker substitution; von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4), so a product is one int product.  The fold by m is a
    Barrett step of two more: for mu = x^(2d-1) div m and n = x^d - m, the
    quotient is (hi * mu) div x^(d-1) for the part hi above x^d, and the
    remainder the part below plus the low d slots of the quotient times n.
    No slot outgrows 2^s, so none carries; each is then reduced by one `% p`,
    or all by one AND for p = 2.  Shorter exponents, where packing costs more
    than it saves, and GF(p^k) run the loop on lists."""
    d, p = len(m) - 1, F.p
    if F.k > 1 or e.bit_length() <= 2 * min(d, 4):
        mul = _convolve if F.k == 1 else functools.partial(_rmul, F)
        b = r = _rdivmod(F, b, m)[1]
        for bit in bin(e)[3:]:
            r = _rdivmod(F, mul(r, r), m)[1]
            if bit == "1":
                r = _rdivmod(F, mul(b, r), m)[1]
        return r
    if len(b) > d:  # callers pass reduced bases
        b = _rdivmod(F, b, m)[1]
    # the largest slot is the part below x^d plus (hi * mu div x^(d-1)) * n
    s = ((d - 1) ** 2 * d * (p - 1) ** 4 + d * (p - 1) ** 2).bit_length()
    shifts, slot, top = range(0, s * d, s), (1 << s) - 1, s * d
    low, ones = (1 << top) - 1, ((1 << top) - 1) // slot
    # mu's coefficients, from the top, are the power series 1/(y^d m(1/y))
    u = [1]
    for i in range(1, d):
        u.append(-sum(m[d - j] * u[i - j] for j in range(1, i + 1)) % p)
    packed = (u[::-1], [-c % p for c in m], b)
    mu, n, b = (sum(c << i for c, i in zip(cs, shifts)) for cs in packed)

    def fold(x):
        x = (x & low) + (((x >> top) * mu >> top - s) * n & low)
        if p == 2:
            return x & ones
        r = 0
        for i in shifts:
            r |= (x >> i & slot) % p << i
        return r

    r = b
    for bit in bin(e)[3:]:
        r = fold(r * r)
        if bit == "1":
            r = fold(r * b)
    return [r >> i & slot for i in range(0, r.bit_length(), s)]


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


def _split(F: Field, g: list, w: list | None) -> list[Fel]:
    """Roots of g = gcd(f, x^q - x), deg g >= 1, in index order, by rounds of
    Cantor-Zassenhaus with one splitter each.  Over odd q the first is that
    of c = 0, (w mod h) - 1 for w = x^((q-1)/2) mod f, which costs no power,
    and a factor of degree 2 is solved by the formula."""
    if len(g) == 2:  # one root, and no splitter to set up
        return [F._fel(F._neg(g[0]))]
    big = 2 if F.p == 2 else 3
    splitters = (functools.partial(_splitter, F, c) for c in _shifts(F))
    if F.p != 2:
        splitters = itertools.chain([lambda h: _rsub(F, _rdivmod(F, w, h)[1], [1])], splitters)
    factors = [g]
    while any(len(h) > big for h in factors):
        splitter, refined = next(splitters), []
        for h in factors:
            d = _rgcd(F, h, splitter(h)) if len(h) > big else h
            refined += [d, _rdivmod(F, h, d)[0]] if 1 < len(d) < len(h) else [h]
        factors = refined
    roots = (_quadratic_roots(F, h) if len(h) == 3 else [F._neg(h[0])] for h in factors)
    return [F._fel(r) for r in sorted(itertools.chain.from_iterable(roots))]


def _quadratic_roots(F: Field, h: list) -> list:
    """The raw roots (-b ± s)/2, s^2 = b^2 - 4c, of the monic h = c + b*x + x^2
    with two roots in GF(q), q odd; 1/2 is the constant (p + 1)/2."""
    c, b, _ = h
    p, sub = F.p, F._sub
    mul = F._mul if F.k > 1 else lambda x, y: x * y % p
    r = mul(sub(_sqrt(F, sub(mul(b, b), mul(4 % p, c))), b), (p + 1) // 2)
    return [r, sub(sub(0, b), r)]


def _sqrt(F: Field, a):
    """A square root of the raw nonzero square a in GF(q), q odd, by
    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number Theory,
    1.5.1), with a nonsquare drawn as `_shifts` draws; on ints over GF(p)."""
    p, q, pw = F.p, F.order, F._pow
    mul = F._mul if F.k > 1 else lambda x, y: x * y % p
    t = (q - 1) // ((q - 1) & (1 - q))
    x, b = pw(a, (t + 1) // 2), pw(a, t)
    if b != 1:  # never for q = 3 mod 4, where t = (q - 1)/2
        m = ((q - 1) // t).bit_length() - 1
        # -1 has index p - 1 in every field of characteristic p
        c = pw(next(z for z in _shifts(F) if pw(z, (q - 1) // 2) == p - 1), t)
        while b != 1:
            i, d = 0, b
            while d != 1:
                d, i = mul(d, d), i + 1
            e = pw(c, 1 << (m - i - 1))
            c = mul(e, e)
            x, b, m = mul(x, e), mul(b, c), i
    return x


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
    """One root search of f in its own field, made when first read.  `_g` is
    g, the product of x - r over the distinct in-field roots r, whose degree
    `count` is their number; for f of degree <= 3, `rest` is the number of
    its other distinct roots over the root closure, by `_closed_root_count`.
    Over GF(q), g = gcd(f, x^q - x), and `roots` splits g, in index order,
    when first read, and never when g has no root.  Over Q the roots come
    with g, from `_rational_roots`, sorted by value.  A zero f lists no roots
    and has rest 0: every element is a root."""

    __slots__ = ("f", "_gcd", "_w", "_roots")

    def __init__(self, f: Poly):
        self.f, self._gcd, self._w, self._roots = f, None, None, None

    @property
    def _g(self) -> list:
        if self._gcd is not None:
            return self._gcd
        F, h = self.f.field, self.f._raw()
        if F.is_finite:
            # a constant has no root and a linear h is its own g, so neither
            # raises x to the q-th power
            h = g = _rmonic(F, h) if h else [1]
            if len(h) > 2 and F.p == 2:
                g = _rgcd(F, h, _rsub(F, _rpow(F, [0, 1], F.order, h), [0, 1]))
            elif len(h) > 2:
                # x^q = x * w^2 for w = x^((q-1)/2), which `_split` reads
                w = self._w = _rpow(F, [0, 1], F.order // 2, h)
                ww = _convolve(w, w) if F.k == 1 else _rmul(F, w, w)
                g = _rgcd(F, h, _rsub(F, _rdivmod(F, [0] + ww, h)[1], [0, 1]))
        else:
            roots = sorted(_rational_roots(h)) if len(h) > 1 else []
            self._roots = [F.el(r) for r in roots]
            g = functools.reduce(lambda g, r: _rmul(F, g, [-r, Fraction(1)]), roots, [Fraction(1)])
        self._gcd = g
        return g

    @property
    def count(self) -> int:
        return len(self._g) - 1

    @property
    def rest(self) -> int:
        f = self.f
        return 0 if f.is_zero else _closed_root_count(f.field, f._raw()) - self.count

    @property
    def roots(self) -> list[Fel]:
        g = self._g  # over Q this lists the roots too
        if self._roots is None:
            self._roots = _split(self.f.field, g, self._w) if len(g) > 1 else []
        return self._roots


def splitting_field(f: Poly) -> tuple[Field, list[Fel]]:
    """Smallest extension of the owner where f (deg <= 3) splits, with its
    roots: GF(q^n) for the number n of its distinct roots outside GF(q), as
    one extension of the prime field."""
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
    # for degree <= 3 the roots outside F are those of one irreducible factor
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
    d = F._sub(F._mul(b.raw, b.raw), F._mul(4 % F.p, F._mul(a.raw, c.raw)))
    return d != 0 and F._pow(d, F.order // 2) != 1


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


def _closed_root_count(F: Field, h: list) -> int:
    """The distinct roots over the root closure of F of the nonzero raw h =
    d + c*y + b*y^2 + a*y^3 (degree <= 3), from the coefficients alone.  In
    characteristic 0 or p > 3 a cubic has a triple root when b^2 - 3ac =
    disc and bc - 9ad vanish, and a double one when disc != 0 and
    d1^2 - 4*disc^3 = 729a^4 f(y+) f(y-) vanishes, d1 = 2b^3 - 9abc + 27a^2 d,
    for the critical points y+-; in characteristic 2 a repeated one when ad =
    bc, triple when also ac = b^2; in characteristic 3 it is a cube when b =
    c = 0, else f' = c - b*y vanishes at c/b only, where b^3 f = a*c^3 -
    b^2 c^2 + d*b^3.  A quadratic has a double root when c^2 - 4bd vanishes.
    The values are ints over GF(p), each zero test one `% p`, the ints of
    h's primitive form over Q, and the field's raw operations over GF(p^k)."""
    n = len(h) - 1
    if n < 2:
        return n
    p, ints, h = F.p, F.k == 1, h if F.p else _primitive(h)
    add, sub, mul = (
        (operator.add, operator.sub, operator.mul) if ints else (F._add, F._sub, F._mul)
    )
    zero = (lambda x: not x % p) if ints and p else operator.not_
    n2, n3, n4, n9, n27 = (2, 3, 4, 9, 27) if ints else (2 % p, 3 % p, 4 % p, 9 % p, 27 % p)
    if n == 2:
        d, c, b = h
        return 1 if zero(sub(mul(c, c), mul(n4, mul(b, d)))) else 2
    d, c, b, a = h
    if p == 2:
        if zero(sub(mul(a, d), mul(b, c))):
            return 1 if zero(sub(mul(a, c), mul(b, b))) else 2
        return 3
    if p == 3:
        if not b:
            return 3 if c else 1
        bb, cc = mul(b, b), mul(c, c)
        return 2 if zero(sub(add(mul(a, mul(c, cc)), mul(d, mul(b, bb))), mul(bb, cc))) else 3
    bb, ac, ad = mul(b, b), mul(a, c), mul(a, d)
    disc = sub(bb, mul(n3, ac))
    if zero(disc):
        return 1 if zero(sub(mul(b, c), mul(n9, ad))) else 3
    d1 = add(mul(b, sub(mul(n2, bb), mul(n9, ac))), mul(n27, mul(a, ad)))
    return 2 if zero(sub(mul(d1, d1), mul(n4, mul(disc, mul(disc, disc))))) else 3


def distinct_root_count(f: Poly) -> RootCount:
    """Distinct roots of f (deg <= 3) counted in a root-closed extension, by
    `_closed_root_count`; every root of the zero polynomial is one."""
    if f.is_zero:
        return RootCount.INFINITE
    if f.degree > 3:
        raise PolyError("closed root counts stop at degree 3")
    return RootCount.of(_closed_root_count(f.field, f._raw()))


def cubic_root_count(a: Fel, b: Fel, c: Fel, d: Fel) -> RootCount:
    """`distinct_root_count` of a*y^3 + b*y^2 + c*y + d, by its rule."""
    F = a.field
    if any(other.field != F for other in (b, c, d)):
        raise FieldMismatch("cubic coefficients over different fields")
    h = Poly(F, [d, c, b, a])._raw()
    return RootCount.of(_closed_root_count(F, h)) if h else RootCount.INFINITE
