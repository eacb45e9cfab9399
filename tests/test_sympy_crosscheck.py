"""Root finding, primality and polynomial arithmetic cross-checked against
sympy, an independent witness; and the printed family matrices evaluated on
sympy symbols, through the solver's own formulas.

Skipped when sympy is not installed; sympy is a test-only dependency.
"""

import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

from alg2d import (
    GF,
    MSC,
    QQ,
    Poly,
    RootCount,
    line_count_closed,
    poly,
    poly_gcd,
    roots_in_field,
    splitting_field,
)
from alg2d.families import FamilyId, Regime, all_family_ids, instantiate, matrix
from alg2d.fields import PRIME_LIMIT, _is_irreducible, is_prime
from alg2d.solvers import _left_system, _right_system, _subalgebra_cubic, slope_poly

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


@pytest.mark.parametrize("p", PRIMES + (17, 97, 257, 65537))
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
    if not p:
        for a, b, c in _integer_gcd_cases(rng):
            ours = [Poly(F, [F.el(x) for x in v]) for v in (a, b, c)]
            f, g = ours[0] * ours[2] * ours[2], ours[1] * ours[2]
            sf, sg = (_sympy_of([x.raw for x in h.coeffs], 0) for h in (f, g))
            assert _leading_first(poly_gcd(f, g)) == _sympy_leading_first(
                sympy.gcd(sf, sg), 0
            ), (a, b, c)
            assert _leading_first(poly_gcd(g, f)) == _leading_first(poly_gcd(f, g)), (a, b, c)


def _integer_gcd_cases(rng):
    """(a, b, c) for f = a*c^2 and g = b*c over Q, so that c's factors are
    shared, squared in f: coefficients of 30 to 100 digits, some of them
    n/d, with either sign, so leading coefficients are often negative; then
    a constant operand, a zero one, and c constant."""
    def coeffs(degree):
        digits = rng.randint(30, 100)
        out = []
        for _ in range(degree + 1):
            d = abs(_big(rng, rng.randint(1, 30))) if rng.random() < 0.3 else 1
            out.append(Fraction(_big(rng, rng.randint(1, digits)), d))
        return out

    for _ in range(PER_PRIME):
        yield coeffs(rng.randint(0, 3)), coeffs(rng.randint(0, 2)), coeffs(rng.randint(1, 2))
    yield coeffs(0), coeffs(2), coeffs(1)  # f constant times c^2
    yield coeffs(2), [], coeffs(2)  # g zero
    yield [], coeffs(1), coeffs(2)  # f zero
    yield coeffs(3), coeffs(3), coeffs(0)  # nothing shared


@pytest.mark.parametrize(
    "p, k", [(5, 4), (2, 10), (3, 7), (17, 3), (2, 80), (10007, 2), (2**61 - 1, 2)]
)
def test_extension_arithmetic_matches_sympy_modulo_the_modulus(p, k):
    """Sums, differences, negatives and products in fields above the kernel's
    table limit, read from log tables (GF(5^4), GF(2^10)) or computed on
    base-p digits, against sympy's arithmetic over GF(p) reduced by the
    field's modulus.  GF(2^80) folds 79 powers of x per product."""
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


def test_rational_roots_of_repeated_fractional_factors_match_sympy_ground_roots():
    """Products of up to four factors u*y - v with n/d coefficients, each
    factor drawn from a pool of two so that most inputs are not square-free,
    scaled by an n/d of either sign; degrees 1 to 4."""
    rng = random.Random(31)

    def rational():
        return Fraction(_big(rng, rng.randint(1, 12)), abs(_big(rng, rng.randint(1, 6))))

    for _ in range(60):
        pool = [[rational(), rational()] for _ in range(2)]
        coeffs = [rational()]
        for _ in range(rng.randint(1, 4)):
            coeffs = poly._rmul(QQ, coeffs, rng.choice(pool))
        got = [r.raw for r in roots_in_field(Poly(QQ, [QQ.el(c) for c in coeffs]))]
        expect = sorted(
            Fraction(int(r.p), int(r.q)) for r in set(_sympy_of(coeffs, 0).ground_roots())
        )
        assert got == expect, coeffs


@pytest.mark.parametrize("p", [2, 3, 7, 10007, 2**61 - 1])
def test_roots_on_the_int_path_match_sympy_ground_roots(p):
    """Seeded polynomials of degree <= 6, half of them products of linear
    factors, so that most have roots; root search over GF(p) runs on int
    residues."""
    F = GF(p)
    rng = random.Random(p % 997)
    for i in range(20):
        if i % 2:
            coeffs = [1]
            for _ in range(rng.randint(1, 6)):
                coeffs = poly._rmul(F, coeffs, [rng.randrange(p), 1])
        else:
            coeffs = _random_coeffs(rng, p, rng.randint(1, 6))
        got = [r.index() for r in roots_in_field(Poly.from_ints(F, coeffs))]
        expect = sorted(int(r) % p for r in _sympy_poly(coeffs, p).ground_roots())
        assert got == expect, coeffs


def _small_height_q_algebras(n, seed):
    """Seeded algebras over Q with entries u/v, |u| <= 3 and 1 <= v <= 3.
    Of every four, one is drawn freely; one has a2 = a3 and b2 = b3; one has
    the subalgebra cubic t*(y - r)^2*(y - s), with a double root unless
    t = 0 or r = s; and one has proportional left quadratics, so that their
    gcd is a quadratic, and every other such one also has a2 = a3 and
    b2 = b3."""
    rng = random.Random(seed)

    def draw():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    out = []
    for i in range(n):
        a1, a2, a3, a4, b1, b2, b3, b4 = (draw() for _ in range(8))
        if i % 4 == 1:
            a3, b3 = a2, b2
        elif i % 4 == 2:
            r, s, t = draw(), draw(), draw()
            # the cubic is -b1 + (a1 - b2 - b3)*y + (a2 + a3 - b4)*y^2 + a4*y^3
            b1, a1 = t * r * r * s, t * (r * r + 2 * r * s) + b2 + b3
            a2, a4 = -t * (2 * r + s) + b4 - a3, t
        elif i % 4 == 3:
            # (-b1, a1 - b2, a2) = k * (-b3, a3 - b4, a4)
            k = draw()
            a2 = k * a4
            if i % 8 == 7:
                a3, b3 = a2, b2
            b1, a1 = k * b3, b2 + k * (a3 - b4)
        out.append(MSC(QQ, [QQ.el(c) for c in (a1, a2, a3, a4)], [QQ.el(c) for c in (b1, b2, b3, b4)]))
    return out


# the alpha entries (a1..a4 as 0..3) that vanish exactly when F(e2) is a line
# of each kind: e2*e2 = a4*e1 + b4*e2 lies in it for a subalgebra, and e1*e2
# (a2) or e2*e1 (a3) too for a left or right ideal
_E2_QUALIFIES = {"subalgebras": (3,), "left": (1, 3), "right": (2, 3), "two_sided": (1, 2, 3)}


def test_closed_line_counts_over_q_match_sympy_square_free_parts():
    """The closed count of each kind over Q is the degree of the square-free
    part of the kind's slope polynomial, per sympy, plus one where F(e2)
    qualifies; every line when the polynomial is zero."""
    for A in _small_height_q_algebras(160, seed=24):
        for kind, e2 in _E2_QUALIFIES.items():
            f = slope_poly(A, kind)
            if f.is_zero:
                expect = RootCount.INFINITE
            else:
                n = _sympy_of([c.raw for c in f.coeffs], 0).sqf_part().degree()
                expect = RootCount.of(n + all(A.alpha[i].is_zero for i in e2))
            assert line_count_closed(A, kind) is expect, (A.text(), kind)


Y = sympy.Symbol("y")


def _in_y(coeffs):
    """The polynomial in y with these coefficients, constant first."""
    return sympy.expand(sum(c * Y**i for i, c in enumerate(coeffs)))


def _printed(family):
    """The family's parameters as sympy symbols, named as in its printed
    matrix, and the matrix's eight constants on them."""
    fn = matrix(family)
    syms = [sympy.Symbol(n) for n in list(inspect.signature(fn).parameters)[2:]]
    return syms, fn(sympy.Integer(1), sympy.Integer(0), *syms)


def test_every_printed_matrix_evaluates_on_sympy_symbols():
    """All 36 (index, regime) matrices evaluate on symbols, and substituting
    a point gives `instantiate`'s constants there."""
    rng = random.Random(27)
    for regime, F in ((Regime.NE23, QQ), (Regime.CHAR2, GF(2)), (Regime.CHAR3, GF(3))):
        for fam in all_family_ids(regime):
            syms, c = _printed(fam)
            assert len(c) == 8 and all(isinstance(e, sympy.Expr) for e in c), fam
            assert set().union(*(e.free_symbols for e in c)) <= set(syms), fam
            point = [rng.randint(-9, 9) for _ in syms]
            A = instantiate(fam, [F.el(v) for v in point], F)
            at = [Fraction(str(e.subs(dict(zip(syms, point))))) for e in c]
            assert A.alpha + A.beta == tuple(
                F.el(x.numerator) / F.el(x.denominator) for x in at
            ), (fam, point)


def test_ne23_critical_factors_from_the_solver_formulas():
    """The discriminants and resultants of the ne23 slope formulas on the
    printed A2, A3 and A7, where those families' counts change."""
    (a1, b1, b2), c = _printed(FamilyId(2, Regime.NE23))
    left = sympy.resultant(*map(_in_y, _left_system(*c)), Y)
    right = sympy.resultant(*map(_in_y, _right_system(*c)), Y)
    assert sympy.expand(left - (b1**2 - (1 - a1) * (a1 - b2) ** 2)) == 0
    expect = 4 * a1**2 * b2 - 4 * a1 * b2 - b1**2 + b2
    assert sympy.expand(right - expect) == 0 or sympy.expand(right + expect) == 0

    (b1, b2), c = _printed(FamilyId(3, Regime.NE23))
    disc = sympy.discriminant(_in_y(_subalgebra_cubic(*c)), Y)
    assert sympy.expand(disc - (12 * b1 + (b2 + 1) ** 2)) == 0

    (t,), c = _printed(FamilyId(7, Regime.NE23))
    assert sympy.expand(sympy.discriminant(_in_y(_subalgebra_cubic(*c)), Y)) == 12 * t + 1
    for system, factor in ((_left_system, t), (_right_system, 4 * t - 1)):
        res = sympy.resultant(*map(_in_y, system(*c)), Y)
        assert [g for g, _ in sympy.factor_list(res)[1]] == [factor], system
