import itertools
import random
from fractions import Fraction

import pytest

from alg2d import poly
from alg2d import (
    GF,
    QQ,
    Poly,
    RationalSplittingUnsupported,
    RootCount,
    ZeroPolynomial,
    cubic_root_count,
    distinct_root_count,
    parse_poly,
    poly_gcd,
    roots_in_field,
    splitting_field,
    sqrt_in_ext,
)
from alg2d.fields import is_prime


def P(field, *ints):
    return Poly.from_ints(field, ints)


def test_gcd_shared_linear_factor():
    F = GF(5)
    g = poly_gcd(P(F, -1, 0, 1), P(F, -1, 1))  # y^2-1, y-1
    assert g == P(F, -1, 1)


def test_gcd_cubic_cyclotomic():
    F = GF(7)
    g = poly_gcd(P(F, -1, 0, 0, 1), P(F, 1, 1, 1))  # y^3-1 = (y-1)(y^2+y+1)
    assert g == P(F, 1, 1, 1)


def test_gcd_of_zeros_is_zero():
    F = GF(3)
    assert poly_gcd(Poly(F, []), Poly(F, [])).is_zero


def test_gcd_is_monic_and_divides():
    F = GF(5)
    f = P(F, 2, 1) * P(F, 3, 1) * P(F, 1, 2)
    g = P(F, 2, 1) * P(F, 4, 3)
    h = poly_gcd(f, g)
    assert h.coeffs[-1] == F.one
    assert divmod(f, h)[1].is_zero and divmod(g, h)[1].is_zero


def test_arithmetic_over_q_keeps_fraction_coefficients():
    y, y1 = P(QQ, 0, 1), P(QQ, 1, 1)
    f = y * y1 * P(QQ, 0, 0, 3)  # zero low coefficients
    q, r = divmod(P(QQ, 5, 0, 0, 3, 3), P(QQ, 1, 2))  # f + 5
    results = [y * y1, f, q, r, poly_gcd(f, y1 * y1), poly_gcd(Poly(QQ, []), y1)]
    for g in results:
        assert g.coeffs, g
        assert all(type(c.raw) is Fraction for c in g.coeffs), g


def test_roots_double_root_at_zero():
    F = GF(11)
    assert roots_in_field(P(F, 0, 0, 3)) == [F.zero]


def test_roots_3y2_minus_1_mod_11():
    F = GF(11)
    assert roots_in_field(P(F, -1, 0, 3)) == [F.el(2), F.el(9)]


def test_roots_irreducible_quadratic_gf2():
    F = GF(2)
    assert roots_in_field(P(F, 1, 1, 1)) == []


def test_roots_zero_polynomial_marker():
    # every element is a root: callers decide that case from `f.is_zero`
    with pytest.raises(ZeroPolynomial):
        roots_in_field(Poly(GF(3), []))
    with pytest.raises(ZeroPolynomial):
        roots_in_field(Poly(QQ, []))


def test_roots_over_q_rational_root_search():
    f = P(QQ, -2, 1) * P(QQ, 3, 2) * P(QQ, 1, 0, 1)  # roots 2 and -3/2
    roots = roots_in_field(f)
    assert [r.text() for r in roots] == ["-3/2", "2"]
    assert roots_in_field(P(QQ, 1, 0, 1)) == []


def test_rational_roots_come_from_a_small_prime_field(monkeypatch):
    seen = []  # the finite field of each root search
    init = poly.RootSearch.__init__

    def counted(self, f):
        if f.field.is_finite:
            seen.append(f.field)
        init(self, f)

    monkeypatch.setattr(poly.RootSearch, "__init__", counted)
    big = 10**40 + 1
    f = P(QQ, -2, 1) * P(QQ, 3, 2) * P(QQ, -big, 7) * P(QQ, -big, 7)  # 7y - big twice
    assert [r.text() for r in roots_in_field(f)] == ["-3/2", "2", f"{big}/7"]
    assert len(seen) == 1 and seen[0].k == 1 and seen[0].p < 100


def test_distinct_root_cubics_over_q_run_no_gcd_over_q(monkeypatch):
    """A cubic whose discriminant rule counts three distinct roots is its
    own square-free part, so `_rational_roots` runs no gcd over Q, only the
    square-free test of its image modulo p.  Half the cubics are products
    of three distinct rational linear factors, half are drawn freely."""
    over_q = []
    gcd = poly._rgcd
    monkeypatch.setattr(poly, "_rgcd", lambda F, a, b: over_q.append(not F.p) or gcd(F, a, b))
    rng = random.Random(100)
    found = 0
    for i in range(100):
        if i % 2:
            roots = set()
            while len(roots) < 3:
                roots.add(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
            h = [Fraction(rng.choice((-3, -1, 2, 5)))]
            for r in roots:
                h = poly._rmul(QQ, h, [-r, Fraction(1)])
        else:
            h = [Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(3)] + [Fraction(1)]
            roots = None
        assert poly._closed_root_count(QQ, h) == 3, h
        got = sorted(poly._rational_roots(h))
        if roots is not None:
            assert got == sorted(roots), h
        found += len(got)
    assert over_q and not any(over_q)
    assert found >= 150


def test_roots_satisfy_polynomial_no_duplicates():
    for F in (GF(5), GF(2, 2), GF(3, 2)):
        for idx in range(0, F.order**3, 7):
            coeffs = []
            rem = idx
            for _ in range(3):
                coeffs.append(F.from_index(rem % F.order))
                rem //= F.order
            f = Poly(F, coeffs)
            if f.is_zero:
                continue
            roots = roots_in_field(f)
            assert len(set(roots)) == len(roots)
            assert all(f(r).is_zero for r in roots)


def test_splitting_field_examples():
    F2 = GF(2)
    ext, roots = splitting_field(P(F2, 1, 1, 1))
    assert ext == GF(2, 2)
    assert [r.text() for r in roots] == ["w", "1+w"]

    F5 = GF(5)
    ext, roots = splitting_field(P(F5, -3, 1))
    assert ext == F5 and roots == [F5.el(3)]

    ext, roots = splitting_field(P(F5, 0, -1, 0, 1))  # y^3 - y
    assert ext == F5 and roots == [F5.zero, F5.one, F5.el(4)]


def test_splitting_field_degree_divides_six():
    F = GF(5)
    for idx in range(0, 5**4, 3):
        coeffs = []
        rem = idx
        for _ in range(4):
            coeffs.append(F.from_index(rem % 5))
            rem //= 5
        f = Poly(F, coeffs)
        if f.is_zero:
            continue
        ext, roots = splitting_field(f)
        assert 6 % (ext.k // F.k) == 0
        lifted = f.lift(ext)
        assert all(lifted(r).is_zero for r in roots)


def test_splitting_field_rejects_q_and_zero():
    with pytest.raises(RationalSplittingUnsupported):
        splitting_field(P(QQ, 1, 1, 1))
    with pytest.raises(ZeroPolynomial):
        splitting_field(Poly(GF(3), []))


def test_classifier_examples():
    F7 = GF(7)
    assert cubic_root_count(F7.zero, F7.zero, F7.zero, F7.el(5)) is RootCount.ZERO
    assert cubic_root_count(F7.one, F7.zero, F7.zero, F7.zero) is RootCount.ONE
    assert cubic_root_count(F7.zero, F7.zero, F7.zero, F7.zero) is RootCount.INFINITE
    F5 = GF(5)
    assert cubic_root_count(F5.one, F5.zero, F5.el(-1), F5.zero) is RootCount.THREE


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (7, 1)])
def test_classifier_matches_splitting_field_exhaustively(field):
    F = GF(*field)
    for a, b, c, d in itertools.product(F.elements(), repeat=4):
        got = cubic_root_count(a, b, c, d)
        f = Poly(F, [d, c, b, a])
        if f.is_zero:
            assert got is RootCount.INFINITE
            continue
        _, roots = splitting_field(f)
        assert got is RootCount.of(len(roots)), (a.text(), b.text(), c.text(), d.text())


@pytest.mark.parametrize("field", [(2, 2), (2, 3), (3, 2)])
def test_classifier_quadratic_tail_matches_splitting_field(field):
    """Every b*y^2 + c*y + d over GF(4), GF(8) and GF(9): the one discriminant
    c^2 - 4bd covers characteristic 2 (4 = 0) and characteristic 3 (4 = 1)."""
    F = GF(*field)
    for b, c, d in itertools.product(F.elements(), repeat=3):
        got = cubic_root_count(F.zero, b, c, d)
        f = Poly(F, [d, c, b])
        if f.is_zero:
            assert got is RootCount.INFINITE
            continue
        _, roots = splitting_field(f)
        assert got is RootCount.of(len(roots)), (b.text(), c.text(), d.text())


def test_classifier_over_q_uses_symmetric_product():
    # y^3 - 3y + 2 = (y-1)^2 (y+2): two distinct roots
    assert cubic_root_count(QQ.el(1), QQ.el(0), QQ.el(-3), QQ.el(2)) is RootCount.TWO
    # y^3 - y: three distinct roots
    assert cubic_root_count(QQ.el(1), QQ.el(0), QQ.el(-1), QQ.el(0)) is RootCount.THREE
    # (y-1)^3
    assert cubic_root_count(QQ.el(1), QQ.el(-3), QQ.el(3), QQ.el(-1)) is RootCount.ONE


def test_sqrt_in_ext_deterministic_and_symmetric():
    F = GF(5)
    r, fld = sqrt_in_ext(F.el(4))
    assert fld == F and r == F.el(2)  # lex-smaller of {2, 3}
    r2, fld2 = sqrt_in_ext(F.el(2))  # 2 is not a square mod 5
    assert fld2 == GF(5, 2)
    from alg2d import embed

    assert (r2 * r2 - embed(F.el(2), fld2)).is_zero
    # both square roots give the same product-style conditions
    assert sqrt_in_ext(F.el(2)) == sqrt_in_ext(F.el(2))


def test_distinct_root_count_matches_splitting_exhaustive_gf4():
    F = GF(2, 2)
    for idx in range(F.order**4):
        coeffs = []
        rem = idx
        for _ in range(4):
            coeffs.append(F.from_index(rem % F.order))
            rem //= F.order
        f = Poly(F, coeffs)
        if f.is_zero:
            continue
        _, roots = splitting_field(f)
        assert distinct_root_count(f) is RootCount.of(len(roots))


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_closed_count_is_the_most_roots_of_the_field_and_its_extensions(spec):
    """Every nonzero a*y^3 + b*y^2 + c*y + d over F, leading zeros included:
    `cubic_root_count` and `distinct_root_count` give the most distinct roots
    that a root search lists over F, GF(q^2) and GF(q^3), one of which
    splits it."""
    F = GF(*spec)
    extensions = [F, GF(F.p, 2 * F.k), GF(F.p, 3 * F.k)]
    for coeffs in itertools.product(F.elements(), repeat=4):
        f = Poly(F, coeffs)
        if f.is_zero:
            continue
        most = max(len(poly.RootSearch(f.lift(E)).roots) for E in extensions)
        assert cubic_root_count(*coeffs[::-1]) is RootCount.of(most), f.text()
        assert distinct_root_count(f) is RootCount.of(most), f.text()


def test_poly_text_round_trip():
    F = GF(3, 2)
    f = Poly(F, [F.el([1, 2]), F.zero, F.el([0, 1])])
    assert parse_poly(F, f.text()) == f


def test_root_finding_leaves_element_cache_empty(monkeypatch):
    from alg2d import fields, poly

    # empty the memo caches so every call below really scans
    monkeypatch.setattr(poly, "_SQRT_CACHE", {})
    fields._embedding_images.cache_clear()
    listed, elements = [], fields.Field.elements
    monkeypatch.setattr(fields.Field, "elements", lambda F: listed.append(F) or elements(F))
    F = fields.Field(7)
    assert roots_in_field(P(F, -2, 0, 1)) == [F.el(3), F.el(4)]
    ext, roots = splitting_field(P(F, -2, 0, 0, 1))  # 2 is not a cube mod 7
    assert ext.k == 3 and len(roots) == 3
    assert sqrt_in_ext(F.el(3))[1] == GF(7, 2)  # 3 is not a square mod 7
    src, dst = fields.Field(3, 2), fields.Field(3, 4)
    w = fields.embed(src.el([0, 1]), dst)
    assert P(dst, *src.modulus)(w).is_zero
    assert listed == []


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_roots_match_a_full_field_scan(spec):
    from alg2d.poly import RootSearch

    F = GF(*spec)
    els = F.elements()
    for coeffs in itertools.product(els, repeat=4):
        f = Poly(F, coeffs)
        if f.is_zero:
            continue
        scan = [x for x in els if f(x).is_zero]
        assert roots_in_field(f) == scan, f.text()
        if f.degree > 0:
            assert RootSearch(f).roots[:1] == scan[:1], f.text()


def test_roots_over_a_huge_prime_field_come_back_in_index_order():
    F = GF(2**61 - 1)
    a, b, c = (F.el(v) for v in (2**60 + 12345, 7, 2**40 + 3))
    f = Poly(F, [-a, F.one]) * Poly(F, [-b, F.one]) * Poly(F, [-c, F.one])
    assert roots_in_field(f) == [b, c, a]
    assert roots_in_field(f * f * Poly(F, [F.el(5)])) == [b, c, a]


def test_splitting_field_of_an_irreducible_cubic_over_gf1009():
    p = 1009
    c = next(c for c in range(2, p) if pow(c, (p - 1) // 3, p) != 1)  # not a cube
    f = P(GF(p), -c, 0, 0, 1)
    ext, roots = splitting_field(f)
    assert ext == GF(p, 3)
    assert len(set(roots)) == 3
    assert all(f.lift(ext)(r).is_zero for r in roots)
    assert roots == sorted(roots, key=lambda r: r.index())


def _is_rootless_by_root_gcd(f):
    return poly.RootSearch(f).count == 0  # gcd(f, x^q - x) is constant


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_rootless_quadratic_matches_the_root_gcd_on_every_quadratic(spec):
    F = GF(*spec)
    els = [F.from_index(i) for i in range(F.order)]
    for a, b, c in itertools.product(els[1:], els, els):
        f = Poly(F, [c, b, a])
        assert poly._rootless_quadratic(f) == _is_rootless_by_root_gcd(f), f


@pytest.mark.parametrize("spec", [(2003, 1), (2, 8), (5, 4), (2**61 - 1, 1)])
def test_rootless_quadratic_matches_the_root_gcd_sampled(spec):
    F = GF(*spec)
    rng = random.Random(sum(spec))

    def draw():
        return F.from_index(rng.randrange(F.order))

    rootless = 0
    for i in range(300):
        a, b, c = F.from_index(rng.randrange(1, F.order)), draw(), draw()
        if i % 4 == 1:
            b = F.zero
        elif i % 4 == 2:  # a*(y - r)^2, a double root
            r = draw()
            b, c = -(a * (r + r)), a * r * r
        f = Poly(F, [c, b, a])
        rootless += poly._rootless_quadratic(f)
        assert poly._rootless_quadratic(f) == _is_rootless_by_root_gcd(f), f
    assert 0 < rootless < 300


def test_joint_quadratic_splitting_searches_no_roots(monkeypatch):
    def search(self, f):
        raise AssertionError("root search")

    monkeypatch.setattr(poly.RootSearch, "__init__", search)
    F7, F4 = GF(7), GF(2, 2)
    w = F4.el([0, 1])
    assert poly.joint_quadratic_splitting(F7, [P(F7, -1, 0, 1), P(F7, 3, 2)]) is F7
    assert poly.joint_quadratic_splitting(F7, [P(F7, -1, 0, 1), P(F7, 1, 0, 1)]) is GF(7, 2)
    assert poly.joint_quadratic_splitting(F4, [P(F4, 1, 1, 1), P(F4, 0, 0, 1)]) is F4
    assert poly.joint_quadratic_splitting(F4, [Poly(F4, [w, F4.one, F4.one])]) is GF(2, 4)


# ---------------------------------------------------------------------------
# The raw helpers against schoolbook arithmetic on Fel coefficients.  Over
# GF(p) the helpers compute on int residues and over Q on Fractions, with
# Python's operators; over GF(p^k) (a kernel field, log tables, base-p
# digits) they call the field per operation.  The reference goes through the
# elements' own operators.

RAW_FIELDS = [
    (2, 1), (3, 1), (7, 1), (10007, 1), (2**61 - 1, 1), (0, 1), (3, 2), (5, 4), (2, 11)
]


def _field_of(spec):
    return QQ if spec[0] == 0 else GF(*spec)


def _draw_raw(F, rng, degree):
    """A raw polynomial of exactly this degree, zero-heavy in its lower terms."""
    def draw():
        if rng.random() < 0.3:
            return F.zero.raw
        if F.is_finite:
            return rng.randrange(F.order)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    coeffs = [draw() for _ in range(degree)]
    lead = draw()
    while not lead:
        lead = F.one.raw if rng.random() < 0.5 else draw()
    return coeffs + [lead]


def _fels(F, raw):
    return [F._fel(c) for c in raw]


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return cs


def _raws(cs):
    return [c.raw for c in _trim(cs)]


def _ref_mul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _ref_divmod(F, a, m):
    r, q = _trim(a), [F.zero] * max(len(a) - len(m) + 1, 0)
    inv = m[-1].inv()
    while len(r) >= len(m):
        s = len(r) - len(m)
        c = r[-1] * inv
        q[s] = c
        for i, y in enumerate(m):
            r[s + i] = r[s + i] - c * y
        r = _trim(r)
    return q, r


def _ref_gcd(F, a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _ref_divmod(F, a, b)[1]
    return [c * a[-1].inv() for c in a] if a else a


@pytest.mark.parametrize("spec", RAW_FIELDS)
def test_raw_helpers_match_schoolbook_arithmetic_on_elements(spec):
    F = _field_of(spec)
    rng = random.Random(spec[0] % 1000 + 17)
    for _ in range(60):
        a, b, c = (_draw_raw(F, rng, rng.randint(0, d)) for d in (4, 3, 2))
        m = poly._rmonic(F, _draw_raw(F, rng, rng.randint(1, 3)))
        A, B, C, M = (_fels(F, v) for v in (a, b, c, m))
        assert poly._rmul(F, a, b) == _raws(_ref_mul(F, A, B))
        q, r = _ref_divmod(F, A, M)
        assert poly._rdivmod(F, a, m) == (_raws(q), _raws(r))
        # f = a*c and g = b*c share c, so gcds are often nontrivial
        f, g = poly._rmul(F, a, c), poly._rmul(F, b, c)
        assert poly._rgcd(F, f, g) == _raws(_ref_gcd(F, _ref_mul(F, A, C), _ref_mul(F, B, C)))
        assert poly._rgcd(F, [], g) == _raws(_ref_gcd(F, [], _ref_mul(F, B, C)))
        assert poly._rmonic(F, a) == _raws([x * A[-1].inv() for x in A])
        assert poly._rsub(F, a, b) == _raws(
            [x - y for x, y in itertools.zip_longest(A, B, fillvalue=F.zero)]
        )
        if F.is_finite:
            # b^e mod m, from the base x + t and from a general base
            e = rng.randint(1, 40)
            for base in ([rng.randrange(F.order), 1], b):
                want = [F.one]
                for _ in range(e):
                    want = _ref_divmod(F, _ref_mul(F, want, _fels(F, base)), M)[1]
                assert poly._rpow(F, base, e, m) == _raws(want)
        else:
            outputs = [poly._rmul(F, a, b), *poly._rdivmod(F, a, m), poly._rgcd(F, f, g)]
            outputs += [poly._rmonic(F, a), poly._rsub(F, a, b)]
            assert all(type(x) is Fraction for out in outputs for x in out)


@pytest.mark.parametrize("p, k", [(2, 5), (3, 4), (7, 3), (10007, 2), (2**61 - 1, 2)])
def test_raw_power_by_the_extension_order_fixes_x(p, k):
    """x^(p^k) = x modulo the modulus of GF(p^k), which is irreducible of
    degree k, on the int path over GF(p): an exponent far past the
    schoolbook range."""
    m = list(GF(p, k).modulus)
    assert poly._rpow(GF(p), [0, 1], p**k, m) == [0, 1]
    assert poly._rpow(GF(p), [0, 1], p, m) != [0, 1]


def _ref_pow(F, base, e, M):
    """base^e mod M by left-to-right square-and-multiply on the schoolbook
    helpers, on elements."""
    b = _ref_divmod(F, _fels(F, base), M)[1]
    want = [F.one]
    for bit in bin(e)[2:]:
        want = _ref_divmod(F, _ref_mul(F, want, want), M)[1]
        if bit == "1":
            want = _ref_divmod(F, _ref_mul(F, want, b), M)[1]
    return _raws(want)


@pytest.mark.parametrize("p", [2, 3, 5, 1009, 10007, 2**61 - 1])
def test_packed_powers_match_square_and_multiply_on_elements(p):
    """`_rpow` over GF(p) on both sides of its rule, which packs an exponent
    of more than 2 * min(d, 4) bits for a modulus of degree d: exponents of
    1, of that many bits and one more, and for d < 27 longer ones, up to q =
    p^d; bases zero, a multiple of m, of degree at least d, and for d < 27
    x."""
    F = GF(p)
    rng = random.Random(p)
    for d in [*range(1, 9), 27, 80]:
        m = poly._rmonic(F, _draw_raw(F, rng, d))
        M = _fels(F, m)
        t = 2 * min(d, 4)
        exps = {1, 2**t - 1, 2**t}
        if d < 27:  # where the schoolbook reference is quick
            exps.add(rng.randrange(2**t, max(min(F.order**d, 2 ** (t + 24)), 2**t + 1)))
        multiple = poly._rmul(F, m, _draw_raw(F, rng, rng.randint(0, 2)))
        dense = _draw_raw(F, rng, rng.randint(d, 2 * d))
        for e in sorted(exps):
            for base in [[], multiple, dense] + [[0, 1]] * (d < 27):
                assert poly._rpow(F, base, e, m) == _ref_pow(F, base, e, M), (d, e, base)


def test_packed_power_runs_no_list_loop(monkeypatch):
    """x^((p-1)/2) modulo a cubic over GF(10007) runs on packed ints: it
    makes no call of `fields._convolve` or `fields._fold`, the list loops
    that `poly` imports."""
    calls = []
    for name in ("_convolve", "_fold"):
        loop = getattr(poly, name)
        monkeypatch.setattr(poly, name, lambda *a, name=name, loop=loop: calls.append(name) or loop(*a))
    F, m = GF(10007), [5, 0, 3, 1]
    got = poly._rpow(F, [0, 1], 5003, m)
    assert calls == []
    assert got == _ref_pow(F, [0, 1], 5003, _fels(F, m))


# ---------------------------------------------------------------------------
# Splitting over odd q: the first split by the search's own x^((q-1)/2), the
# quadratic formula by Tonelli-Shanks square roots, and Cantor-Zassenhaus
# rounds for what is left.

@pytest.mark.parametrize("spec", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_roots_of_every_monic_quadratic_and_cubic_match_a_scan(spec):
    F = GF(*spec)
    els = F.elements()
    for degree in (2, 3):
        for middle in itertools.product(els, repeat=degree - 1):
            # x is a root of c + middle + x^degree exactly when c = -value(x)
            scans = {c: [] for c in els}
            for x in els:
                scans[-Poly(F, [F.zero, *middle, F.one])(x)].append(x)
            for c, scan in scans.items():
                f = Poly(F, [c, *middle, F.one])
                assert poly.RootSearch(f).roots == scan, f.text()


ODD_FIELDS_TO_81 = [
    (p, k) for p in range(3, 82) for k in range(1, 5) if is_prime(p) and p**k <= 81
]


@pytest.mark.parametrize("spec", ODD_FIELDS_TO_81)
def test_square_roots_square_back_on_every_square(spec):
    F = GF(*spec)
    squares = {F._mul(x, x) for x in range(1, F.order)}
    assert len(squares) == F.order // 2
    for a in squares:
        s = poly._sqrt(F, a)
        assert F._mul(s, s) == a, (spec, a)


@pytest.mark.parametrize(
    "p, k", [(65537, 1), (10007, 1), (2**61 - 1, 1), (17, 3), (10**9 + 7, 2)]
)
def test_square_roots_square_back_on_seeded_squares(p, k):
    """q - 1 = 2^16 over GF(65537) takes the longest Tonelli-Shanks loop;
    GF(17^3) multiplies past the log tables; over GF((10^9+7)^2) every
    element of GF(p) is a square, so the nonsquare comes from all of F."""
    F = GF(p, k)
    rng = random.Random(p + k)
    for _ in range(40):
        x = rng.randrange(1, F.order)
        s = poly._sqrt(F, F._mul(x, x))
        assert s in (x, F._neg(x)), (x, s)


def test_in_field_roots_cost_one_power_where_the_first_split_separates(monkeypatch):
    """Over GF(10007), 1 and 2 are squares and 5 is not, so the splitter of
    c = 0, read off the search's own x^((q-1)/2), separates 5 from the other
    two roots, and the quadratic formula solves the rest: one `_rpow` call in
    all.  Over odd q no quadratic reaches `_splitter`."""
    p = 10007
    assert [pow(r, p // 2, p) for r in (1, 2, 5)] == [1, 1, p - 1]
    powers, splitters = [], []
    rpow, splitter = poly._rpow, poly._splitter
    monkeypatch.setattr(poly, "_rpow", lambda *a: powers.append(a) or rpow(*a))
    monkeypatch.setattr(poly, "_splitter", lambda F, c, g: splitters.append(g) or splitter(F, c, g))
    F = GF(p)
    f = P(F, -1, 1) * P(F, -2, 1) * P(F, -5, 1)
    assert poly.RootSearch(f).roots == [F.el(1), F.el(2), F.el(5)]
    assert len(powers) == 1 and splitters == []
    for F in (GF(7), GF(3, 2), GF(5, 2)):
        for low in itertools.product(range(F.order), repeat=3):
            poly.RootSearch(Poly._of_raw(F, [*low, 1])).roots
    assert splitters and all(len(g) > 3 for g in splitters)


def _reference_splitter_calls(F, g):
    """The `_splitter` calls of Cantor-Zassenhaus with one shift per round,
    every factor of degree >= 2 split by it."""
    calls, factors, shifts = [], [g], poly._shifts(F)
    while any(len(h) > 2 for h in factors):
        c = next(shifts)
        refined = []
        for h in factors:
            if len(h) > 2:
                calls.append((c, h))
                d = poly._rgcd(F, h, poly._splitter(F, c, h))
                if 1 < len(d) < len(h):
                    refined += [d, poly._rdivmod(F, h, d)[0]]
                    continue
            refined.append(h)
        factors = refined
    return calls


@pytest.mark.parametrize("spec", [(2, 2), (2, 3), (2, 8)])
def test_characteristic_two_splits_by_the_trace_as_before(monkeypatch, spec):
    F = GF(*spec)
    rng = random.Random(F.order)
    cubics = [[rng.randrange(F.order) for _ in range(3)] + [1] for _ in range(300)]
    searches = [poly.RootSearch(Poly._of_raw(F, f)) for f in cubics]
    expected = [_reference_splitter_calls(F, search._g) for search in searches]
    calls, splitter = [], poly._splitter
    monkeypatch.setattr(poly, "_splitter", lambda F, c, g: calls.append((c, g)) or splitter(F, c, g))
    for search, want in zip(searches, expected):
        calls.clear()
        search.roots
        assert calls == want
    assert sum(len(want) > 0 for want in expected) > 20
