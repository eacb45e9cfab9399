import random

import pytest

from alg2d import (
    GF,
    QQ,
    Element,
    InfiniteField,
    LineSet,
    MSC,
    ProjPoint,
    all_mscs,
    basis,
    is_idempotent,
    is_left_ideal,
    is_left_quasiunit,
    is_right_ideal,
    is_subalgebra,
    mul,
    oracle_enumerate,
    oracle_points,
    projective_points,
)

F5 = GF(5)
A12 = MSC.from_ints(F5, [0, 0, 0, 0], [1, 0, 0, 0])
A10 = MSC.from_ints(F5, [0, 1, 1, 0], [0, 0, 0, -1])
A11 = MSC.from_ints(F5, [0, 1, 1, 0], [1, 0, 0, -1])
ZERO5 = MSC.from_ints(F5, [0, 0, 0, 0], [0, 0, 0, 0])


def rand_msc(field, rng):
    return MSC(
        field,
        [field.from_index(rng.randrange(field.order)) for _ in range(4)],
        [field.from_index(rng.randrange(field.order)) for _ in range(4)],
    )


def rand_el(field, rng):
    return Element(
        field.from_index(rng.randrange(field.order)),
        field.from_index(rng.randrange(field.order)),
    )


def test_product_examples():
    e1, e2 = basis(F5)
    assert mul(A12, e1, e1) == e2
    assert mul(A10, e2, e2) == Element(F5.zero, F5.el(-1))
    zero = Element(F5.zero, F5.zero)
    assert mul(A11, zero, e1) == zero


def test_product_is_bilinear():
    rng = random.Random(3)
    for field in (GF(7), GF(2, 2)):
        for _ in range(25):
            A = rand_msc(field, rng)
            u, w, v = (rand_el(field, rng) for _ in range(3))
            a = field.from_index(rng.randrange(field.order))
            lhs = mul(A, u.scale(a) + w, v)
            rhs = mul(A, u, v).scale(a) + mul(A, w, v)
            assert lhs == rhs
            lhs = mul(A, v, u.scale(a) + w)
            rhs = mul(A, v, u).scale(a) + mul(A, v, w)
            assert lhs == rhs


def test_subalgebra_examples():
    assert is_subalgebra(A12, ProjPoint.e2())
    assert not is_subalgebra(A12, ProjPoint.affine(F5.zero))
    for P in projective_points(F5):
        assert is_subalgebra(ZERO5, P)


def test_idempotent_examples():
    neg_e2 = Element(F5.zero, F5.el(-1))
    assert is_idempotent(A10, neg_e2)
    assert not is_idempotent(A10, Element(F5.zero, F5.one))
    for x in F5.elements():
        for y in F5.elements():
            u = Element(x, y)
            if not u.is_zero:
                assert not is_idempotent(A12, u)
    assert not is_idempotent(A10, Element(F5.zero, F5.zero))


def test_left_right_ideal_examples():
    assert is_left_ideal(A12, ProjPoint.e2())
    assert is_right_ideal(A12, ProjPoint.e2())
    for P in projective_points(F5):
        assert not is_left_ideal(A11, P)
        assert is_left_ideal(ZERO5, P)


def test_lift_compares_no_fields(monkeypatch):
    from alg2d.fields import Field

    F, E = GF(3, 2), GF(3, 4)
    A = MSC.parse(F, "1,w,0,2;w+1,0,1,2*w")
    A.lift(E)  # builds the embedding once
    calls = []
    eq = Field.__eq__
    monkeypatch.setattr(Field, "__eq__", lambda self, other: calls.append(other) or eq(self, other))
    assert A.lift(E).field is E
    assert not calls


def test_checkers_invariant_under_rescaling():
    rng = random.Random(11)
    field = GF(7)
    for _ in range(40):
        A = rand_msc(field, rng)
        y = field.from_index(rng.randrange(field.order))
        k = field.from_index(rng.randrange(1, field.order))
        P = ProjPoint.affine(y)
        P_scaled = ProjPoint.affine((k * y) / k)
        assert P == P_scaled
        assert is_subalgebra(A, P) == is_subalgebra(A, P_scaled)
        # direct check against the unscaled vector definition
        u = Element(k, k * y)
        w = mul(A, u, u)
        on_line = (w.x * u.y - w.y * u.x).is_zero
        assert on_line == is_subalgebra(A, P)


def test_quasiunit_identity_holds_on_random_pairs():
    rng = random.Random(5)
    field = GF(3, 2)
    found = 0
    for _ in range(60):
        A = rand_msc(field, rng)
        for e in oracle_points(A, "quasiunits"):
            found += 1
            for _ in range(100):
                u, v = rand_el(field, rng), rand_el(field, rng)
                lhs = mul(A, e, mul(A, u, v))
                rhs = mul(A, mul(A, e, u), v) + mul(A, u, mul(A, e, v)) - mul(A, u, v)
                assert lhs == rhs
    # the identity must also have been exercised on a genuinely nontrivial case
    A10_9 = MSC.from_ints(field, [0, 1, 1, 0], [0, 0, 0, -1])
    e = Element(field.zero, -field.one)
    assert is_left_quasiunit(A10_9, e)
    for _ in range(100):
        u, v = rand_el(field, rng), rand_el(field, rng)
        lhs = mul(A10_9, e, mul(A10_9, u, v))
        rhs = (
            mul(A10_9, mul(A10_9, e, u), v)
            + mul(A10_9, u, mul(A10_9, e, v))
            - mul(A10_9, u, v)
        )
        assert lhs == rhs


def test_quasiunit_examples():
    assert is_left_quasiunit(A10, Element(F5.zero, F5.el(-1)))
    A3 = MSC.from_ints(F5, [0, 1, 1, 0], [2, 3, 1, -1])
    for x in F5.elements():
        for y in F5.elements():
            assert not is_left_quasiunit(A3, Element(x, y))
    a1 = F5.el(2)
    A2 = MSC(F5, [a1, F5.zero, F5.zero, F5.one], [F5.zero, a1, F5.one - a1, F5.zero])
    assert is_left_quasiunit(A2, Element(a1.inv(), F5.zero))


def _plane(field):
    return [Element(x, y) for x in field.elements() for y in field.elements()]


def _literal_quasiunit(A, e, pairs):
    """The defining identity e(uv) = (eu)v + u(ev) - uv through `mul`."""
    for u, v in pairs:
        lhs = mul(A, e, mul(A, u, v))
        rhs = mul(A, mul(A, e, u), v) + mul(A, u, mul(A, e, v)) - mul(A, u, v)
        if lhs != rhs:
            return False
    return True


def test_checkers_match_the_literal_definitions():
    """The checkers evaluate the definitions from the structure constants;
    `mul` evaluates them literally.  Every element and line of the plane is
    tried, so non-solutions are compared as well as solutions.  Over GF(2)
    that is every algebra and every pair (u, v); over GF(3), GF(4) and GF(9)
    seeded algebras, the A10 shape (which has a quasiunit and an idempotent)
    and the basis pairs, which suffice by bilinearity."""
    rng = random.Random(8)
    F2 = GF(2)
    plane2 = _plane(F2)
    cases = [(A, [(u, v) for u in plane2 for v in plane2]) for A in all_mscs(F2)]
    for field in (GF(3), GF(2, 2), GF(3, 2)):
        pairs = [(u, v) for u in basis(field) for v in basis(field)]
        algebras = [rand_msc(field, rng) for _ in range(25)]
        algebras.append(MSC.from_ints(field, [0, 1, 1, 0], [0, 0, 0, -1]))
        cases += [(A, pairs) for A in algebras]
    outcomes = {}
    for A, pairs in cases:
        seen = outcomes.setdefault(A.field, set())
        for e in _plane(A.field):
            qu = is_left_quasiunit(A, e)
            assert qu == _literal_quasiunit(A, e, pairs), (A, e)
            idem = is_idempotent(A, e)
            assert idem == (not e.is_zero and mul(A, e, e) == e), (A, e)
            seen.update((("quasiunit", qu), ("idempotent", idem)))
        for P in projective_points(A.field):
            u = P.generator(A.field)
            w = mul(A, u, u)
            assert is_subalgebra(A, P) == (w.x * u.y - w.y * u.x).is_zero, (A, P)
    for seen in outcomes.values():
        assert seen == {(kind, b) for kind in ("quasiunit", "idempotent") for b in (True, False)}


def test_oracle_point_scans_multiply_nothing_per_candidate(monkeypatch):
    """Every scan and checker evaluates its definition on raw values from the
    structure constants: no `mul`, no `basis()` and no `Field.elements()`,
    over a kernel field and over fields past the kernel bound."""
    from alg2d import algebra
    from alg2d.fields import Field

    calls = []
    for name in ("mul", "basis"):
        fn = getattr(algebra, name)
        monkeypatch.setattr(algebra, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
    elements = Field.elements
    monkeypatch.setattr(Field, "elements", lambda F: calls.append(F) or elements(F))
    rng = random.Random(13)
    for field in (GF(3, 2), GF(17), GF(5, 2)):
        for _ in range(4):
            A = rand_msc(field, rng)
            for kind in ("quasiunits", "idempotents"):
                oracle_points(A, kind)
            for kind in ("subalgebras", "left", "right", "two_sided"):
                oracle_enumerate(A, kind)
            u = rand_el(field, rng)
            is_idempotent(A, u)
            is_left_quasiunit(A, u)
            is_subalgebra(A, ProjPoint.affine(u.y))
            is_left_ideal(A, ProjPoint.e2())
    assert calls == []
    algebra.mul(A, u, u)  # the wrappers do see a call through the module
    assert len(calls) == 1


def test_oracle_enumerate_examples():
    subs = oracle_enumerate(A10, "subalgebras")
    assert subs == LineSet.of([ProjPoint.e2(), ProjPoint.affine(F5.zero)])
    F3 = GF(3)
    zero3 = MSC.from_ints(F3, [0, 0, 0, 0], [0, 0, 0, 0])
    assert oracle_enumerate(zero3, "left").is_all
    F11 = GF(11)
    A11b = MSC.from_ints(F11, [0, 1, 1, 0], [1, 0, 0, -1])
    subs11 = oracle_enumerate(A11b, "subalgebras")
    assert subs11 == LineSet.of(
        [ProjPoint.e2(), ProjPoint.affine(F11.el(2)), ProjPoint.affine(F11.el(9))]
    )


def test_oracle_points_examples():
    F7 = GF(7)
    A10_7 = MSC.from_ints(F7, [0, 1, 1, 0], [0, 0, 0, -1])
    assert oracle_points(A10_7, "idempotents") == [Element(F7.zero, F7.el(-1))]
    assert oracle_points(A12, "idempotents") == []
    # family of idempotents at the degenerate parameter of the A8 shape
    third = F5.el(3).inv()  # 1/3 = 2 mod 5
    A8 = MSC(
        F5,
        [third, F5.zero, F5.zero, F5.zero],
        [F5.zero, F5.one - third, -third, F5.zero],
    )
    got = oracle_points(A8, "idempotents")
    expect = sorted(
        (Element(F5.el(3), t) for t in F5.elements()), key=lambda u: u.sort_key()
    )
    assert got == expect


def test_oracle_deterministic_across_reenumeration():
    rng = random.Random(23)
    for field in (GF(2), GF(3)):
        for _ in range(20):
            A = rand_msc(field, rng)
            for kind in ("subalgebras", "left", "right", "two_sided"):
                first = oracle_enumerate(A, kind)
                assert first == oracle_enumerate(A, kind)
            assert oracle_points(A, "quasiunits") == oracle_points(A, "quasiunits")


def test_oracle_rejects_infinite_field():
    AQ = MSC.from_ints(QQ, [0, 0, 0, 0], [1, 0, 0, 0])
    with pytest.raises(InfiniteField):
        oracle_enumerate(AQ, "subalgebras")
    with pytest.raises(InfiniteField):
        oracle_points(AQ, "idempotents")


@pytest.mark.parametrize(
    "entry, kind",
    [
        ("oracle_enumerate", "ideals"),
        ("oracle_enumerate", "quasiunits"),
        ("oracle_points", "ideals"),
        ("oracle_points", "left"),
        ("oracle_check", "ideals"),
    ],
)
def test_every_oracle_entry_point_names_an_unknown_kind(entry, kind):
    from alg2d import algebra

    extra = (LineSet.all_lines(),) if entry == "oracle_check" else ()
    with pytest.raises(ValueError, match=repr(kind)):
        getattr(algebra, entry)(A10, kind, *extra)


def test_msc_text_and_json_round_trip():
    text = "0,1,1,0;1,0,0,4"
    A = MSC.parse(F5, text)
    assert A.text() == text
    assert A == MSC.parse(F5, A.text())
    F9 = GF(3, 2)
    B = MSC(
        F9,
        [F9.el([1, 2]), F9.zero, F9.one, F9.el([0, 1])],
        [F9.zero, F9.one, F9.el([2, 2]), F9.zero],
    )
    assert MSC.parse(F9, B.text()) == B


def test_lineset_json_round_trip():
    ls = LineSet.of([ProjPoint.e2(), ProjPoint.affine(F5.el(3))])
    assert LineSet.from_json(F5, ls.to_json()) == ls
    assert LineSet.from_json(F5, LineSet.all_lines().to_json()).is_all


def test_projpoint_ordering_puts_e2_first():
    pts = sorted(
        [ProjPoint.affine(F5.el(2)), ProjPoint.e2(), ProjPoint.affine(F5.zero)],
        key=lambda p: p.sort_key(),
    )
    assert pts[0].y0 is None
    assert [p.text() for p in pts] == ["F(e2)", "F(e1)", "F(e1+2e2)"]
