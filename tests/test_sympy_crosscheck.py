"""Root finding, primality and polynomial arithmetic cross-checked against
sympy, an independent witness.

Skipped when sympy is not installed; sympy is a test-only dependency.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from alg2d import GF, QQ, Poly, poly_gcd, roots_in_field, splitting_field
from alg2d.fields import PRIME_LIMIT, _is_irreducible, is_prime

sympy = pytest.importorskip("sympy")

PRIMES = (2, 3, 5, 7, 101, 1009)
SPLITTING_PRIMES = PRIMES
PER_PRIME = 40


def _seeded_polys(p):
    """Nonzero constant-first coefficient lists of degree <= 3."""
    rng = random.Random(p)
    out = []
    while len(out) < PER_PRIME:
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        if coeffs[-1]:
            out.append(coeffs)
    return out


def _sympy_poly(coeffs, p):
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("y"), modulus=p)


@pytest.mark.parametrize("p", PRIMES)
def test_roots_match_sympy_ground_roots(p):
    F = GF(p)
    for coeffs in _seeded_polys(p):
        got = [r.index() for r in roots_in_field(Poly.from_ints(F, coeffs))]
        expect = sorted(int(r) % p for r in _sympy_poly(coeffs, p).ground_roots())
        assert got == expect, coeffs


@pytest.mark.parametrize("p", SPLITTING_PRIMES)
def test_splitting_degree_is_lcm_of_factor_degrees(p):
    F = GF(p)
    for coeffs in _seeded_polys(p):
        ext, _ = splitting_field(Poly.from_ints(F, coeffs))
        _, factors = _sympy_poly(coeffs, p).factor_list()
        assert ext.k == math.lcm(*(g.degree() for g, _ in factors)), coeffs


def test_is_prime_matches_sympy():
    rng = random.Random(11)
    samples = [rng.randrange(2, 10**k) for k in (3, 6, 9, 12, 18, 24) for _ in range(300)]
    samples += [rng.randrange(2, 10**12) | 1 for _ in range(2000)]
    carmichael = [561, 41041, 825265]
    strong_pseudoprime = [3215031751]  # to bases 2, 3, 5 and 7
    for n in samples + carmichael + strong_pseudoprime + [2**61 - 1, PRIME_LIMIT - 2]:
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize(
    "p, degrees",
    [
        (2, (1, 2, 3, 4, 5, 6, 7, 8)),
        (3, (1, 2, 3, 4, 5, 6)),
        (5, (1, 2, 3, 4)),
        (7, (1, 2, 3)),
    ],
)
def test_is_irreducible_matches_sympy_on_every_monic(p, degrees):
    for k in degrees:
        for lower in itertools.product(range(p), repeat=k):
            m = list(lower) + [1]
            assert _is_irreducible(m, p) == _sympy_poly(m, p).is_irreducible, m


@pytest.mark.parametrize("p", PRIMES)
def test_rootless_quadratic_is_irreducibility_per_sympy(p):
    from alg2d.poly import _rootless_quadratic

    if p <= 7:
        quadratics = [[c, b, a] for a in range(1, p) for b in range(p) for c in range(p)]
    else:
        rng = random.Random(p)
        quadratics = [_random_coeffs(rng, p, 2) for _ in range(200)]
    F = GF(p)
    for coeffs in quadratics:
        f = Poly.from_ints(F, coeffs)
        assert _rootless_quadratic(f) == _sympy_poly(coeffs, p).is_irreducible, coeffs


def _random_coeffs(rng, p, degree):
    """Constant-first coefficients of exactly this degree: ints mod p, or
    Fractions over Q (p = 0)."""
    def draw():
        if p:
            return rng.randrange(p)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    coeffs = [draw() for _ in range(degree)]
    lead = draw()
    while not lead:
        lead = draw()
    return coeffs + [lead]


def _sympy_of(coeffs, p):
    if p:
        return _sympy_poly(coeffs, p)
    rationals = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return sympy.Poly(rationals, sympy.Symbol("y"), domain="QQ")


def _leading_first(f: Poly):
    """Coefficients leading first as sympy lists them ([0] for zero)."""
    if f.is_zero:
        return [0]
    return [c.raw for c in reversed(f.coeffs)]  # residues, or Fractions over Q


def _sympy_leading_first(sp, p):
    if p:
        return [int(c) % p for c in sp.all_coeffs()]
    return [Fraction(int(c.p), int(c.q)) for c in sp.all_coeffs()]


@pytest.mark.parametrize("p", PRIMES + (0,))
def test_product_division_and_gcd_match_sympy(p):
    """40 seeded pairs f = a*c, g = b*c (so gcds are often nontrivial)."""
    F = GF(p) if p else QQ
    rng = random.Random(1000 + p)
    for _ in range(PER_PRIME):
        a, b, c = (_random_coeffs(rng, p, rng.randint(0, d)) for d in (3, 2, 2))
        ours = [Poly(F, [F.el(x) for x in v]) for v in (a, b, c)]
        theirs = [_sympy_of(v, p) for v in (a, b, c)]
        f, g = ours[0] * ours[2], ours[1] * ours[2]
        sf, sg = theirs[0] * theirs[2], theirs[1] * theirs[2]
        q, r = divmod(f, g)
        sq, sr = sympy.div(sf, sg)
        pairs = [(f, sf), (g, sg), (q, sq), (r, sr), (poly_gcd(f, g), sympy.gcd(sf, sg))]
        for got, expect in pairs:
            assert _leading_first(got) == _sympy_leading_first(expect, p), (a, b, c)


@pytest.mark.parametrize("p, k", [(5, 4), (2, 10), (3, 7), (10007, 2), (2**61 - 1, 2)])
def test_extension_arithmetic_matches_sympy_modulo_the_modulus(p, k):
    """Sums, differences, negatives and products in fields above the kernel's
    table limit, with memoised products (GF(5^4), GF(2^10)) or without,
    against sympy's arithmetic over GF(p) reduced by the field's modulus."""
    from alg2d.fields import _TABLE_MAX_ORDER

    F = GF(p, k)
    assert F.order > _TABLE_MAX_ORDER
    modulus = _sympy_poly(list(F.modulus), p)
    rng = random.Random(p + k)

    def back(sp):
        """sympy's reduced result as an element, through its coefficients."""
        return F.el([int(c) % p for c in reversed(sp.rem(modulus).all_coeffs())])

    for _ in range(100):
        ca, cb = ([rng.randrange(p) for _ in range(k)] for _ in range(2))
        a, b = F.el(ca), F.el(cb)
        sa, sb = _sympy_poly(ca, p), _sympy_poly(cb, p)
        assert a + b == back(sa + sb), (ca, cb)
        assert a - b == back(sa - sb), (ca, cb)
        assert -a == back(-sa), ca
        assert a * b == back(sa * sb), (ca, cb)


def _big(rng, digits):
    """A nonzero integer of exactly `digits` digits, either sign."""
    return rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)


def _rational_case(rng, i):
    """Constant-first Fraction coefficients of degree 1..3.  The cases cycle
    through: random coefficients of 1 to 100 digits; planted rational roots,
    one of them repeated; a root at 0; and planted non-integral roots under
    a negative rational leading coefficient."""
    kind = i % 4
    if kind == 0:
        digits = rng.randint(1, 100)
        coeffs = [Fraction(_big(rng, rng.randint(1, digits))) for _ in range(rng.randint(1, 3))]
        return coeffs + [Fraction(_big(rng, digits))]

    def factor(digits):  # u*y - v, a root v/u
        return [Fraction(_big(rng, rng.randint(1, digits))), Fraction(_big(rng, digits))]

    def times(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for j, x in enumerate(a):
            for k, y in enumerate(b):
                out[j + k] += x * y
        return out

    digits = rng.randint(1, 33)
    if kind == 1:
        f = factor(digits)
        f = times(times(f, f), factor(digits)) if rng.random() < 0.5 else times(f, f)
    elif kind == 2:
        f = [Fraction(0)] + times(factor(digits), factor(digits))[: rng.randint(1, 3)]
        while not f[-1]:
            f.pop()
    else:
        f = times(factor(digits), factor(digits))
        if rng.random() < 0.5:
            f = times(f, factor(digits))
    scale = Fraction(_big(rng, rng.randint(1, 10)), _big(rng, rng.randint(1, 10)))
    if kind == 3 and f[-1] * scale > 0:
        scale = -scale
    return [c * scale for c in f]


def test_rational_roots_match_sympy_ground_roots():
    rng = random.Random(2024)
    cases = [_rational_case(rng, i) for i in range(80)]
    # zero as a double and a triple root: y^2, y^3 and y^2 * (u*y - v)
    zero = Fraction(0)
    cases += [
        [zero, zero, Fraction(1)],
        [zero, zero, zero, Fraction(1)],
        [zero, zero, Fraction(-7), Fraction(3)],
        [zero, zero, Fraction(5, 2), Fraction(-4, 9)],
    ]
    for coeffs in cases:
        got = [r.raw for r in roots_in_field(Poly(QQ, [QQ.el(c) for c in coeffs]))]
        expect = sorted(
            Fraction(int(r.p), int(r.q)) for r in set(_sympy_of(coeffs, 0).ground_roots())
        )
        assert got == expect, coeffs
