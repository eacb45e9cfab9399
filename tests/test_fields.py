import copy
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
