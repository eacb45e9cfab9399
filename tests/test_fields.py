import copy
import math
import random

import pytest

from alg2d import (
    GF,
    QQ,
    DivisionByZero,
    IncompatibleFields,
    InfiniteField,
    NonPrimeCharacteristic,
    UnsupportedRationalExtension,
    embed,
    parse_el,
    parse_field,
)
from alg2d.fields import PRIME_LIMIT, FieldError, ParseError, is_prime
from alg2d.poly import _rdivmod, _rmul


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_prime_field_needs_no_modulus():
    F = GF(11, 1)
    assert F.p == 11 and F.k == 1 and F.modulus is None
    assert F.order == 11


def test_gf4_modulus_is_unique_irreducible_quadratic():
    F = GF(2, 2)
    assert F.modulus == (1, 1, 1)


def test_rational_extension_rejected():
    with pytest.raises(UnsupportedRationalExtension):
        GF(0, 2)


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        GF(6, 1)


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_is_prime_refuses_undecided_sizes():
    mersenne_89 = 2**89 - 1  # prime, above the deterministic bound
    assert mersenne_89 > PRIME_LIMIT
    with pytest.raises(FieldError, match=str(PRIME_LIMIT)) as err:
        GF(mersenne_89)
    assert not isinstance(err.value, NonPrimeCharacteristic)
    with pytest.raises(NonPrimeCharacteristic):
        GF(3 * mersenne_89)
    assert is_prime(2**61 - 1) and not is_prime((2**61 - 1) * 101)


# GF(p, k).modulus as chosen by the walk over every candidate tuple
MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (1, 0, 4, 1),
    (11, 4): (1, 0, 0, 4, 1),
    (13, 2): (1, 3, 1),
    (13, 3): (1, 0, 4, 1),
    (13, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (7, 5): (1, 0, 0, 0, 3, 1),
    (7, 6): (1, 0, 0, 0, 1, 0, 1),
    (17, 3): (1, 0, 3, 1),
}


def test_default_moduli_unchanged():
    assert {pk: GF(*pk).modulus for pk in MODULI} == MODULI


# Default moduli of large degree, as {degree: coefficient} of their nonzero
# terms.  Ben-Or's test builds x^(p^i) mod m from x^(p^(i-1)) mod m; these
# pin the search to the moduli it chose when every x^(p^i) was raised from x.
LARGE_MODULI = {
    (3, 54): {0: 1, 49: 1, 51: 2, 52: 1, 53: 1, 54: 1},
    (2, 80): {0: 1, 73: 1, 75: 1, 77: 1, 78: 1, 79: 1, 80: 1},
    (5, 36): {0: 1, 32: 3, 33: 1, 34: 4, 35: 2, 36: 1},
}


@pytest.mark.parametrize("pk", LARGE_MODULI)
def test_default_moduli_of_large_degree_unchanged(pk):
    from alg2d.fields import Field

    modulus = Field(*pk).modulus  # a fresh object, so the search runs here
    assert {i: c for i, c in enumerate(modulus) if c} == LARGE_MODULI[pk]
    assert len(modulus) == pk[1] + 1


def test_default_modulus_over_a_huge_prime():
    assert GF(2**61 - 1, 2).modulus == (1, 0, 1)  # 2^61 - 1 = 3 mod 4


def test_explicit_modulus_validated():
    GF(3, 2, (1, 0, 1))  # y^2 + 1 is irreducible over GF(3)
    with pytest.raises(Exception):
        GF(3, 2, (2, 0, 1))  # y^2 + 2 = (y+1)(y+2)
    # a prime field's modulus, if any, is checked too: monic of degree 1
    assert GF(5, 1, (1, 1)) is GF(5)
    for modulus in [(3, 3), (1, 0, 1), (1,)]:
        with pytest.raises(FieldError, match="monic of degree"):
            GF(5, 1, modulus)
    with pytest.raises(ParseError):
        parse_field("gf(5;1,1)")  # a modulus follows the degree


def test_every_spelling_builds_a_field_once(monkeypatch):
    from alg2d import fields

    searches = []
    search = fields._smallest_irreducible
    monkeypatch.setattr(
        fields, "_smallest_irreducible", lambda p, k: searches.append((p, k)) or search(p, k)
    )
    fields._field.cache_clear()  # GF's objects live on in _FIELDS
    F = parse_field("gf(3,4)")
    assert F is GF(3, 4) is GF(3, 4, None) is GF(3, k=4)
    assert searches == [(3, 4)]


def test_inverse_examples():
    F11 = GF(11)
    assert F11.el(5).inv() == F11.el(9)
    assert F11.one.inv() == F11.one
    F4 = GF(2, 2)
    w = F4.el([0, 1])
    assert w.inv() == F4.el([1, 1])
    with pytest.raises(DivisionByZero):
        F11.zero.inv()
    assert QQ.el(5).inv().text() == "1/5"


@pytest.mark.parametrize("p, k", [(2, 8), (3, 5), (31, 2)])
def test_every_inverse_in_a_memoised_extension(p, k):
    F = GF(p, k)
    for a in range(1, F.order):
        assert F._mul(a, F._inv(a)) == 1, a


@pytest.mark.parametrize("p, k", [(10**9 + 7, 3), (2**61 - 1, 2)])
def test_seeded_inverses_in_a_large_extension(p, k):
    F = GF(p, k)
    rng = random.Random(p)
    for _ in range(200):
        a = rng.randrange(1, F.order)
        assert F._mul(a, F._inv(a)) == 1, a
    assert not F._inv_cache


# Log-table arithmetic against the digit arithmetic that fields past
# `_LOG_TABLE_MAX_ORDER` use: the product of `poly`'s raw helpers over GF(p)
# reduced by the modulus, and the carry-free sum and difference.

def _digit_product(F, a, b):
    P = GF(F.p)
    return F._index(_rdivmod(P, _rmul(P, F._digits(a), F._digits(b)), F.modulus)[1])


def _check_tabled_pair(F, a, b):
    assert F._mul(a, b) == _digit_product(F, a, b), (a, b)
    assert F._add(a, b) == F._digitwise(a, b, 1), (a, b)
    assert F._sub(a, b) == F._digitwise(a, b, -1), (a, b)


def _check_tabled_unary(F, a):
    assert F._neg(a) == F._digitwise(0, a, -1), a
    if a:
        assert _digit_product(F, a, F._inv(a)) == 1, a


@pytest.mark.parametrize(
    "p, k",
    [(5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4), (11, 2), (5, 3), (2, 7), (13, 2), (3, 5), (2, 8)],
)
def test_log_tables_match_the_digit_arithmetic_on_every_pair(p, k):
    from alg2d.fields import Field

    F = Field(p, k)  # a fresh object: its tables are built here
    assert 16 < F.order <= 256
    for a in range(F.order):
        _check_tabled_unary(F, a)
        for b in range(F.order):
            _check_tabled_pair(F, a, b)


@pytest.mark.parametrize("p, k", [(5, 4), (3, 6), (31, 2), (2, 10)])
def test_log_tables_match_the_digit_arithmetic_on_seeded_pairs(p, k):
    F = GF(p, k)
    rng = random.Random(p**k)
    for _ in range(20000):
        _check_tabled_pair(F, rng.randrange(F.order), rng.randrange(F.order))
    for a in range(F.order):
        _check_tabled_unary(F, a)


@pytest.mark.parametrize("p, k", [(2, 4), (2, 10), (3, 2), (5, 4), (31, 2)])
def test_log_table_layout(p, k):
    """g is the smallest-index primitive element; the one Zech entry without
    a log is at log(-1), which is 0 in characteristic 2; and a sum whose
    Zech index log(b) - log(a) is negative comes out right."""
    from alg2d.fields import _LOG_TABLE_MAX_ORDER

    F = GF(p, k)
    n = F.order - 1
    assert F.order <= _LOG_TABLE_MAX_ORDER and F._mul(1, 1) == 1
    g = F._exp[1]
    assert sorted(F._exp[:n]) == list(range(1, F.order)) and F._exp[n:] == F._exp[:n]
    assert all(F._exp[F._log[a]] == a for a in range(1, F.order))
    # every element of smaller index has a log sharing a factor with n
    assert all(math.gcd(F._log[c], n) > 1 for c in range(1, g))
    minus_one = p - 1
    assert F._half == F._log[minus_one] == (0 if p == 2 else n // 2)
    assert [i for i in range(n) if F._zech[i] is None] == [F._half]
    a, b = F._exp[n - 1], F._exp[1]  # log(b) - log(a) = 2 - n < 0
    assert F._add(a, b) == F._digitwise(a, b, 1)
    assert F._add(a, F._neg(a)) == 0 and F._sub(a, a) == 0


def test_log_tables_are_lazy_and_bounded():
    """A fresh extension holds no tables until its first arithmetic; after
    200 seeded analyses over it, its state is the O(q) tables it held after
    the first, and no memo grows with the products."""
    from alg2d import MSC
    from alg2d.fields import Field
    from alg2d.report import analyze

    F = Field(5, 4)
    assert F._log is None and len(F._inv_cache) == 0 and F._mul_cache is None

    def state():
        return {
            name: len(value)
            for name in Field.__slots__
            if isinstance(value := getattr(F, name), (list, tuple, dict))
        }

    x = F.from_index(7)
    assert x * x == F.from_index(_digit_product(F, 7, 7))
    tables = state()
    assert tables["_exp"] == 2 * tables["_zech"] == 2 * (F.order - 1) and tables["_log"] == F.order
    rng = random.Random(625)
    for i in range(200):
        els = [F.from_index(rng.randrange(F.order)) for _ in range(8)]
        analyze(MSC(F, els[:4], els[4:]))
        if i == 0:
            first = state()
    assert state() == first and F._mul_cache is None
    assert sum(first.values()) <= 6 * F.order


def test_embedding_fixes_prime_subfield():
    assert embed(GF(2).one, GF(2, 2)) == GF(2, 2).one
    assert embed(GF(5).el(3), GF(5, 2)) == GF(5, 2).el(3)


def test_embedding_image_satisfies_modulus():
    F4, F16 = GF(2, 2), GF(2, 4)
    img = embed(F4.el([0, 1]), F16)
    assert (img * img + img + F16.one).is_zero


def test_embedding_is_homomorphism_gf2_to_gf4_exhaustive():
    F2, F4 = GF(2), GF(2, 2)
    for a in F2.elements():
        for b in F2.elements():
            assert embed(a * b, F4) == embed(a, F4) * embed(b, F4)
            assert embed(a + b, F4) == embed(a, F4) + embed(b, F4)


@pytest.mark.parametrize("src,dst", [((3, 1), (3, 2)), ((5, 1), (5, 2)), ((2, 2), (2, 4)), ((3, 2), (3, 4))])
def test_embedding_is_homomorphism_sampled(src, dst):
    S, D = GF(*src), GF(*dst)
    rng = random.Random(17)
    for _ in range(60):
        a = S.from_index(rng.randrange(S.order))
        b = S.from_index(rng.randrange(S.order))
        assert embed(a * b, D) == embed(a, D) * embed(b, D)
        assert embed(a + b, D) == embed(a, D) + embed(b, D)


@pytest.mark.parametrize("src,dst", [((2, 2), (2, 4)), ((5, 1), (5, 2)), ((3, 2), (3, 4)), ((2, 2), (2, 6))])
def test_embedding_is_the_sum_of_scaled_images(src, dst):
    from alg2d.fields import _embedding_images

    S, D = GF(*src), GF(*dst)
    images = _embedding_images(S, D)
    for i in range(S.order):
        a = S.from_index(i)
        want = D.zero
        for c, img in zip(S._digits(a.raw), images):
            want = want + D.el(c) * D.el(img)
        got = embed(a, D)
        assert got == want, a
        if D._kernel is not None:
            assert got is D._kernel.els[want.index()]


def test_incompatible_embeddings_rejected():
    with pytest.raises(IncompatibleFields):
        embed(GF(2).one, GF(3, 2))
    with pytest.raises(IncompatibleFields):
        embed(GF(2, 2).one, GF(2, 3))


def test_enumeration_order_and_count():
    F4 = GF(2, 2)
    assert [x.text() for x in F4.elements()] == ["0", "1", "w", "1+w"]
    F9 = GF(3, 2)
    els = F9.elements()
    assert len(els) == 9 and len(set(els)) == 9
    assert [e.index() for e in els] == list(range(9))
    with pytest.raises(InfiniteField):
        QQ.elements()


@pytest.mark.parametrize("spec", [(2, 1), (5, 1), (2, 2), (3, 2), (5, 2), (3, 3)])
def test_field_axioms_on_random_triples(spec):
    F = GF(*spec)
    rng = random.Random(spec[0] * 100 + spec[1])
    for _ in range(40):
        a, b, c = (F.from_index(rng.randrange(F.order)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == F.zero
        if not a.is_zero:
            assert a * a.inv() == F.one


def test_rational_arithmetic_exact():
    a = QQ.el(1) / QQ.el(3)
    b = QQ.el(1) / QQ.el(6)
    assert (a + b).text() == "1/2"
    assert (a * QQ.el(3)).text() == "1"


@pytest.mark.parametrize(
    "text,expect",
    [
        ("gf(7)", (7, 1)),
        ("gf(2,2)", (2, 2)),
        ("gf(2,2;1,1,1)", (2, 2)),
        ("q", (0, 1)),
        ("GF(5)", (5, 1)),
        ("gf(5, 2)", (5, 2)),  # spaces are dropped, as in elements
    ],
)
def test_parse_field(text, expect):
    F = parse_field(text)
    assert (F.p, F.k) == expect


def test_parse_field_errors():
    for bad in ("gf()", "gf(4x)", "field(5)", "gf(2,2,2)"):
        with pytest.raises(ParseError):
            parse_field(bad)


def test_element_text_round_trip():
    F = GF(3, 2)
    for x in F.elements():
        assert parse_el(F, x.text()) == x
    Fq = QQ
    for s in ("0", "7", "-3/4", "22/7"):
        assert parse_el(Fq, s).text() == s.lstrip("+")


def test_element_parse_rejects_garbage():
    F = GF(5, 2)
    for bad in ("", "w^9", "1**w", "x", "1+"):
        with pytest.raises(ParseError):
            parse_el(F, bad)


def test_canonical_form_unique():
    F = GF(7)
    assert F.el(9) == F.el(2)
    assert F.el(-1) == F.el(6)
    assert hash(F.el(9)) == hash(F.el(2))


# Every field small enough for the table-driven kernel: orders 2 .. 16.
KERNEL_SPECS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_kernel_agrees_with_raw_arithmetic_exhaustively(spec):
    F = GF(*spec)
    assert F._kernel is not None
    els = F.elements()

    def interned(x, raw):
        assert x.raw == raw
        return x is F.from_index(x.index())

    for a in els:
        assert interned(-a, F._neg(a.raw))
        if a.is_zero:
            with pytest.raises(DivisionByZero):
                a.inv()
        else:
            assert interned(a.inv(), F._inv(a.raw))
        for b in els:
            assert interned(a + b, F._add(a.raw, b.raw))
            assert interned(a - b, F._sub(a.raw, b.raw))
            assert interned(a * b, F._mul(a.raw, b.raw))
            if b.is_zero:
                with pytest.raises(DivisionByZero):
                    a / b
            else:
                assert interned(a / b, F._mul(a.raw, F._inv(b.raw)))


@pytest.mark.parametrize("spec", KERNEL_SPECS)
def test_kernel_elements_are_interned(spec):
    from alg2d.fields import Fel

    F = GF(*spec)
    for i in range(F.order):
        x = F.from_index(i)
        assert x.index() == i
        assert x is F.el(F._digits(x.raw))
        assert x is embed(x, F)
        direct = Fel(F, x.raw)
        assert direct == x and x == direct and hash(direct) == hash(x)
        assert copy.copy(x) == x and copy.copy(x) != x + F.one
        assert direct.is_zero == x.is_zero and direct.index() == i
    assert F.el(F.p + 1) is F.one and F.zero is F.from_index(0)


def test_kernel_mixes_equal_fields_and_rejects_others():
    from alg2d.fields import Field, FieldMismatch

    G, F = Field(7), GF(7)
    assert G is not F and G == F
    a, b = G.el(3), F.el(5)
    assert a + b == F.one and (a + b).field is G
    assert (b + a) is F.one and (b - a) is F.el(2) and (b * a) is F.one
    assert (b / a) is F.el(4) and (a / b).field is G
    assert a == F.el(3) and F.el(3) == a and hash(a) == hash(F.el(3))
    with pytest.raises(FieldMismatch):
        GF(5).one + F.one
    with pytest.raises(FieldMismatch):
        F.one * GF(5).one
    with pytest.raises(TypeError):
        F.one * 3
    with pytest.raises(TypeError):
        F.one + None
    with pytest.raises(DivisionByZero):
        F.one / F.zero
    with pytest.raises(DivisionByZero):
        F.one / G.zero


def test_fields_above_the_table_limit_keep_generic_elements():
    from alg2d.fields import _TABLE_MAX_ORDER, Fel

    for F in (GF(17), GF(5, 2), GF(2, 5), GF(10007)):
        assert F.order > _TABLE_MAX_ORDER and F._kernel is None
        x = F.from_index(3)
        assert type(x) is Fel and type(x * x) is Fel and x is not F.from_index(3)
    assert QQ._kernel is None and type(QQ.one) is Fel


def test_equal_fields_are_one_object():
    assert GF(5) is GF(5, 1) is GF(5, 1, None) is parse_field("gf(5)")
    assert GF(5, k=1) is GF(5) and parse_field("gf(5,1;0,1)") is GF(5)
    assert GF(3, 2, GF(3, 2).modulus) is GF(3, 2) is parse_field("gf(3,2)")
    assert GF(3, 2, (4, 3, 1)) is GF(3, 2)  # coefficients reduced mod 3
    assert GF(2**61 - 1, 2, (1, 0, 1)) is GF(2**61 - 1, 2)
    assert GF(0) is QQ is parse_field("q")
    assert GF(3, 2, (2, 2, 1)) is not GF(3, 2)  # another irreducible modulus
    assert GF.cache_info().currsize > 0
