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
    assert poly_gcd(Poly.zero(F), Poly.zero(F)).is_zero


def test_gcd_is_monic_and_divides():
    F = GF(5)
    f = P(F, 2, 1) * P(F, 3, 1) * P(F, 1, 2)
    g = P(F, 2, 1) * P(F, 4, 3)
    h = poly_gcd(f, g)
    assert h.lead() == F.one
    assert (f % h).is_zero and (g % h).is_zero


def test_arithmetic_over_q_keeps_fraction_coefficients():
    y, y1 = P(QQ, 0, 1), P(QQ, 1, 1)
    f = y * y1 * P(QQ, 0, 0, 3)  # zero low coefficients
    q, r = divmod(f + P(QQ, 5), P(QQ, 1, 2))
    results = [y * y1, f, q, r, poly_gcd(f, y1 * y1), poly_gcd(Poly.zero(QQ), y1)]
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
        roots_in_field(Poly.zero(GF(3)))
    with pytest.raises(ZeroPolynomial):
        roots_in_field(Poly.zero(QQ))


def test_roots_over_q_rational_root_search():
    f = P(QQ, -2, 1) * P(QQ, 3, 2) * P(QQ, 1, 0, 1)  # roots 2 and -3/2
    roots = roots_in_field(f)
    assert [r.text() for r in roots] == ["-3/2", "2"]
    assert roots_in_field(P(QQ, 1, 0, 1)) == []


def test_rational_roots_come_from_a_small_prime_field(monkeypatch):
    seen = []
    search = poly._roots
    monkeypatch.setattr(poly, "_roots", lambda f: seen.append(f.field) or search(f))
    big = 10**40 + 1
    f = P(QQ, -2, 1) * P(QQ, 3, 2) * P(QQ, -big, 7) * P(QQ, -big, 7)  # 7y - big twice
    assert [r.text() for r in roots_in_field(f)] == ["-3/2", "2", f"{big}/7"]
    assert len(seen) == 1 and seen[0].k == 1 and seen[0].p < 100


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
        splitting_field(Poly.zero(GF(3)))


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


def test_poly_text_round_trip():
    F = GF(3, 2)
    f = Poly(F, [F.el([1, 2]), F.zero, F.el([0, 1])])
    assert parse_poly(F, f.text()) == f


def test_root_finding_leaves_element_cache_empty(monkeypatch):
    from alg2d import fields, poly

    # empty the memo caches so every call below really scans
    monkeypatch.setattr(poly, "_SQRT_CACHE", {})
    fields._embedding_images.cache_clear()
    F = fields.Field(7)
    assert roots_in_field(P(F, -2, 0, 1)) == [F.el(3), F.el(4)]
    ext, roots = splitting_field(P(F, -2, 0, 0, 1))  # 2 is not a cube mod 7
    assert ext.k == 3 and len(roots) == 3
    assert sqrt_in_ext(F.el(3))[1] == GF(7, 2)  # 3 is not a square mod 7
    src, dst = fields.Field(3, 2), fields.Field(3, 4)
    w = fields.embed(src.el([0, 1]), dst)
    assert P(dst, *src.modulus)(w).is_zero
    for field in (F, src, dst):
        assert field._elements is None


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_roots_match_a_full_field_scan(spec):
    from alg2d.poly import _first_root

    F = GF(*spec)
    els = F.elements()
    for coeffs in itertools.product(els, repeat=4):
        f = Poly(F, coeffs)
        if f.is_zero:
            continue
        scan = [x for x in els if f(x).is_zero]
        assert roots_in_field(f) == scan, f.text()
        if f.degree > 0:
            assert _first_root(f) == (scan[0] if scan else None), f.text()


def test_roots_over_a_huge_prime_field_come_back_in_index_order():
    F = GF(2**61 - 1)
    a, b, c = (F.el(v) for v in (2**60 + 12345, 7, 2**40 + 3))
    f = Poly(F, [-a, F.one]) * Poly(F, [-b, F.one]) * Poly(F, [-c, F.one])
    assert roots_in_field(f) == [b, c, a]
    assert roots_in_field(f * f.scale(F.el(5))) == [b, c, a]


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
    return len(poly._root_gcd(f)[1]) == 1


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
    def search(f):
        raise AssertionError("root search")

    monkeypatch.setattr(poly, "_root_gcd", search)
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
