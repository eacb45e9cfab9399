import itertools
import random
from fractions import Fraction

import pytest

from alg2d import (
    GF,
    QQ,
    Element,
    Fel,
    InfiniteField,
    LineSet,
    MSC,
    Poly,
    ProjPoint,
    RootCount,
    basis,
    distinct_root_count,
    eigenvalue_poly,
    idempotents,
    is_idempotent,
    is_left_quasiunit,
    is_simple,
    left_ideal_system,
    left_ideals,
    left_quasiunits,
    line_count_closed,
    mul,
    oracle_points,
    poly_gcd,
    quasiunit_system,
    right_ideal_system,
    right_ideals,
    roots_in_field,
    simple_by_cases,
    simple_by_cases_extended,
    subalgebra_count_closed,
    subalgebra_poly,
    subalgebras,
    two_sided_ideals,
)
from alg2d.algebra import all_mscs
from alg2d.families import FamilyId, Regime, instantiate
from alg2d.poly import _rgcd
from alg2d.solvers import (
    AffineSolutionSet,
    IdempotentSet,
    closure,
    closure_field,
    root_search,
    slope_poly,
    solve_plane_system,
    subalgebra_splitting,
)
from alg2d.tables import (
    WrongCharacteristic,
    predict_left_line_count,
    predict_right_line_count,
)

F5 = GF(5)
F7 = GF(7)
A12 = MSC.from_ints(F5, [0, 0, 0, 0], [1, 0, 0, 0])
A10 = MSC.from_ints(F5, [0, 1, 1, 0], [0, 0, 0, -1])
A11 = MSC.from_ints(F5, [0, 1, 1, 0], [1, 0, 0, -1])
ZERO5 = MSC.from_ints(F5, [0, 0, 0, 0], [0, 0, 0, 0])


def fam(i, field, *ints):
    return instantiate(
        FamilyId(i, Regime.of_field(field)), [field.el(v) for v in ints], field
    )


def rand_msc(field, rng):
    return MSC(
        field,
        [field.from_index(rng.randrange(field.order)) for _ in range(4)],
        [field.from_index(rng.randrange(field.order)) for _ in range(4)],
    )


def test_subalgebra_poly_examples():
    assert subalgebra_poly(A12) == Poly.from_ints(F5, [-1])
    assert subalgebra_poly(A10) == Poly.from_ints(F5, [0, 0, 3])
    assert subalgebra_poly(ZERO5).is_zero


def test_eigenvalue_poly_examples():
    assert eigenvalue_poly(A10) == Poly.from_ints(F5, [0, 2])
    assert eigenvalue_poly(A12).is_zero
    A8 = fam(8, F5, 2)
    assert eigenvalue_poly(A8) == Poly.from_ints(F5, [2])


def test_subalgebras_examples():
    assert subalgebras(A12) == LineSet.of([ProjPoint.e2()])
    assert subalgebras(A10) == LineSet.of([ProjPoint.e2(), ProjPoint.affine(F5.zero)])
    F11 = GF(11)
    A11b = MSC.from_ints(F11, [0, 1, 1, 0], [1, 0, 0, -1])
    assert subalgebras(A11b) == LineSet.of(
        [ProjPoint.e2(), ProjPoint.affine(F11.el(2)), ProjPoint.affine(F11.el(9))]
    )
    assert subalgebras(ZERO5).is_all


def test_subalgebra_count_closed_examples():
    assert subalgebra_count_closed(A12) is RootCount.ONE
    assert subalgebra_count_closed(A11) is RootCount.THREE
    A8_inf = fam(8, F7, 5)  # 1/3 = 5 mod 7
    assert subalgebra_count_closed(A8_inf) is RootCount.INFINITE
    assert subalgebra_count_closed(ZERO5) is RootCount.INFINITE


def test_subalgebra_count_never_zero_over_small_fields():
    for field in (GF(2), GF(3)):
        for A in all_mscs(field):
            assert subalgebra_count_closed(A) is not RootCount.ZERO


def test_idempotents_examples_char_ne23():
    # one-point and empty sets
    assert idempotents(A10).materialize() == [Element(F5.zero, F5.el(-1))]
    assert idempotents(A12).materialize() == []
    for args in ((5, F7, 3), (9, F7), (12, F7)):
        assert idempotents(fam(*args)).materialize() == []
    assert idempotents(fam(4, F7, 0, 3)).materialize() == []
    assert idempotents(fam(8, F7, 0)).materialize() == []
    # A3(0, b2) with b2 != -1 gains the point 3/(2(b2+1)) e1 + (1/2) e2
    b2 = F7.el(2)
    got = idempotents(fam(3, F7, 0, 2)).materialize()
    x = F7.el(3) / (F7.el(2) * (b2 + F7.one))
    assert got == sorted(
        [Element(F7.zero, -F7.one), Element(x, F7.one / F7.el(2))],
        key=lambda u: u.sort_key(),
    )
    # A7(0)
    got = idempotents(fam(7, F7, 0)).materialize()
    assert got == sorted(
        [
            Element(F7.zero, -F7.one),
            Element(F7.el(3) / F7.el(2), F7.one / F7.el(2)),
        ],
        key=lambda u: u.sort_key(),
    )
    # isolated point of A4 / A8, and the parameter families
    a1 = F7.el(4)
    assert idempotents(fam(4, F7, 4, 1)).materialize() == [Element(a1.inv(), F7.zero)]
    ids = idempotents(fam(4, F7, 4, 2 * 4 - 1))
    assert ids.family is not None
    assert ids.materialize() == sorted(
        (Element(a1.inv(), t) for t in F7.elements()), key=lambda u: u.sort_key()
    )
    got = idempotents(fam(8, F7, 5))  # 1/3 = 5
    assert got.materialize() == sorted(
        (Element(F7.el(3), t) for t in F7.elements()), key=lambda u: u.sort_key()
    )


def test_idempotents_examples_char2():
    F2, F4 = GF(2), GF(2, 2)
    assert idempotents(fam(10, F2)).materialize() == [Element(F2.zero, F2.one)]
    got = idempotents(fam(11, F2)).materialize()
    expect = sorted(
        [
            Element(F2.one, F2.zero),
            Element(F2.one, F2.one),
            Element(F2.zero, F2.one),
        ],
        key=lambda u: u.sort_key(),
    )
    assert got == expect
    # A7,2 over GF(4) at a parameter outside the prime field; e2 squares to
    # itself here (b4 = 1), so it belongs to the set alongside the two
    # rescaled roots
    w = F4.el([0, 1])
    A = instantiate(FamilyId(7, Regime.CHAR2), [w], F4)
    inv = w.inv()
    expect = sorted(
        [
            Element(inv, F4.zero),
            Element(inv, (F4.one - w) * inv),
            Element(F4.zero, F4.one),
        ],
        key=lambda u: u.sort_key(),
    )
    got = idempotents(A).materialize()
    assert got == expect
    assert got == oracle_points(A, "idempotents")


def test_idempotents_examples_char3():
    F3 = GF(3)
    # the degenerate A3,3(0,-1) collapses to a single family of three points
    got = idempotents(fam(3, F3, 0, -1)).materialize()
    half = F3.el(2).inv()
    expect = sorted(
        {Element(t, half) for t in F3.elements()} | {Element(F3.zero, -F3.one)},
        key=lambda u: u.sort_key(),
    )
    assert got == expect
    assert idempotents(fam(9, F3)).materialize() == [Element(F3.zero, -F3.one)]
    got = idempotents(fam(10, F3)).materialize()
    assert got == sorted(
        (Element(t, -F3.one) for t in F3.elements()), key=lambda u: u.sort_key()
    )
    b1 = F3.el(2)
    got = idempotents(fam(7, F3, 2)).materialize()
    expect = sorted(
        [Element(b1.inv(), -F3.one), Element(F3.zero, -F3.one)],
        key=lambda u: u.sort_key(),
    )
    assert got == expect


def test_every_materialized_idempotent_passes_the_checker():
    rng = random.Random(9)
    for field in (GF(5), GF(2, 2), GF(3, 2)):
        for _ in range(60):
            A = rand_msc(field, rng)
            for u in idempotents(A).materialize():
                assert is_idempotent(A, u)


def test_left_right_system_examples():
    z = Poly(F5, [])
    l1, l2 = left_ideal_system(A12)
    assert l1 == z and l2 == Poly.from_ints(F5, [-1])
    l1, l2 = left_ideal_system(ZERO5)
    assert l1.is_zero and l2.is_zero
    l1, l2 = left_ideal_system(A11)
    assert l1 == Poly.from_ints(F5, [0, 2])
    assert l2 == Poly.from_ints(F5, [-1, 0, 1])
    r1, r2 = right_ideal_system(A12)
    assert r1 == z and r2 == Poly.from_ints(F5, [-1])
    # A8(1): the first right polynomial vanishes, the second is 2y
    r1, r2 = right_ideal_system(fam(8, F5, 1))
    assert r1.is_zero
    assert r2 == Poly.from_ints(F5, [0, 2])
    assert right_ideals(fam(8, F5, 1)) == LineSet.of(
        [ProjPoint.e2(), ProjPoint.affine(F5.zero)]
    )


def test_left_right_ideal_examples():
    assert left_ideals(A12) == LineSet.of([ProjPoint.e2()])
    assert left_ideals(A11) == LineSet.of([])
    assert right_ideals(A12) == LineSet.of([ProjPoint.e2()])
    assert right_ideals(A11) == LineSet.of([])
    # A4(1, b2 != 1) has two left ideals
    A = fam(4, F5, 1, 3)
    assert len(left_ideals(A).points) == 2


def test_predict_left_examples():
    assert predict_left_line_count(A11) is RootCount.ZERO
    assert predict_left_line_count(ZERO5) is RootCount.INFINITE
    # the line system of A8(0) has a single solution; F(e2) joins separately
    A80 = fam(8, F5, 0)
    assert predict_left_line_count(A80) is RootCount.ONE
    assert len(left_ideals(A80).points) == 2
    with pytest.raises(WrongCharacteristic):
        predict_left_line_count(MSC.from_ints(GF(2), [0] * 4, [0] * 4))


def test_predict_right_examples():
    assert predict_right_line_count(ZERO5) is RootCount.INFINITE
    assert predict_right_line_count(A11) is RootCount.ZERO
    F2 = GF(2)
    A82 = instantiate(FamilyId(8, Regime.CHAR2), [F2.one], F2)
    assert predict_right_line_count(A82) is RootCount.INFINITE


def test_two_sided_examples():
    assert two_sided_ideals(A12) == LineSet.of([ProjPoint.e2()])
    assert two_sided_ideals(A11) == LineSet.of([])
    # A1(a1, a2, -a1-2a2, 2a1+a2) carries exactly the ideal F(e1+e2)
    a1, a2 = F7.el(2), F7.el(3)
    A = fam(1, F7, 2, 3, -2 - 2 * 3, 2 * 2 + 3)
    assert two_sided_ideals(A) == LineSet.of([ProjPoint.affine(F7.one)])
    A6 = fam(6, F7, 3, 2)
    assert two_sided_ideals(A6) == LineSet.of([])


def test_simplicity_examples():
    assert is_simple(fam(6, F7, 3, 2))
    assert not is_simple(A12)
    assert not is_simple(ZERO5)
    assert is_simple(A11)
    # the commutative gap of the three-case test, repaired in the extended one
    assert not simple_by_cases(A11)
    assert simple_by_cases_extended(A11)


def test_simplicity_matches_two_sided_emptiness_exhaustively_gf2():
    from alg2d.solvers import ideal_splitting

    for A in all_mscs(GF(2)):
        ext = ideal_splitting(A)
        lifted = A.lift(ext) if ext != A.field else A
        lines = two_sided_ideals(lifted)
        empty = not lines.is_all and len(lines.points) == 0
        # is_simple also re-derives the answer from the repaired case list and
        # raises if the two routes ever part ways
        assert is_simple(A) == empty
    for A in list(all_mscs(GF(3)))[:500]:
        is_simple(A)


def _line_count_over_closure(A, which):
    """The closed count by its definition: the lines of the kind, solved on A
    lifted to the ideal closure, where every ideal system splits, or for
    subalgebras to the splitting field of the cubic."""
    if which == "subalgebras":
        # over GF(2) three lines are every line, which a LineSet reads as 'inf'
        B = A.lift(GF(2, 2)) if A.field.order == 2 else A
        return RootCount(subalgebras(closure(B, which)).count_label())
    fn = {"left": left_ideals, "right": right_ideals, "two_sided": two_sided_ideals}[which]
    return RootCount(fn(closure(A, which)).count_label())


def _witness_mscs():
    """Every MSC over GF(2), every one over GF(3) with a2, a3, a4 in {0, 1},
    and seeded ones over larger fields, each with a copy where a2 = a3 and
    b2 = b3 and one where a2 = a3 = a4 = 0, plus the zero algebra."""
    yield from all_mscs(GF(2))
    F3 = GF(3)
    for a2, a3, a4 in itertools.product((0, 1), repeat=3):
        for a1, b1, b2, b3, b4 in itertools.product(range(3), repeat=5):
            yield MSC.from_ints(F3, [a1, a2, a3, a4], [b1, b2, b3, b4])
    for spec in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2)):
        F = GF(*spec)
        yield MSC.from_ints(F, [0] * 4, [0] * 4)
        for A in _seeded_mscs(F, 40, seed=F.order):
            (a1, a2, a3, a4), (b1, b2, b3, b4) = A.alpha, A.beta
            yield A
            yield MSC(F, [a1, a2, a2, a4], [b1, b2, b2, b4])
            yield MSC(F, [a1, F.zero, F.zero, F.zero], [b1, b2, b3, b4])


def test_line_count_closed_equals_the_lines_of_the_ideal_closure():
    """The one closed count, which builds no extension field, counts the
    lines the solvers list over the closure, including F(e2) and 'inf'."""
    kinds = ("subalgebras", "left", "right", "two_sided")
    seen = set()
    for A in _witness_mscs():
        for which in kinds:
            got = line_count_closed(A, which)
            assert got is _line_count_over_closure(A, which), (which, A.text(), A.field.text())
            seen.add((which, got))
    # every count occurs; no ideal count passes 2, as F(e2) is an ideal only
    # where the system is linear, and there is always a subalgebra
    assert seen == {
        (which, n)
        for which in kinds
        for n in (RootCount.ZERO, RootCount.ONE, RootCount.TWO, RootCount.INFINITE)
        if which != "subalgebras"
    } | {
        ("subalgebras", n)
        for n in (RootCount.ONE, RootCount.TWO, RootCount.THREE, RootCount.INFINITE)
    }


def test_two_sided_slope_poly_keeps_the_common_roots_of_all_four_quadratics():
    """The linear candidate y0 = (b3-b2)/(a3-a2), the constant 1 when a2 = a3
    and b2 != b3, and the left gcd when the two systems coincide have the
    in-field roots and the closed root count of the gcd of all four ideal
    quadratics."""
    cases = set()
    for A in _witness_mscs():
        l1, l2 = left_ideal_system(A)
        r1, r2 = right_ideal_system(A)
        common = poly_gcd(poly_gcd(l1, l2), poly_gcd(r1, r2))
        f = slope_poly(A, "two_sided")
        where = (A.text(), A.field.text())
        assert f.is_zero == common.is_zero, where
        if not f.is_zero:
            assert roots_in_field(f) == roots_in_field(common), where
            assert distinct_root_count(f) is distinct_root_count(common), where
        (_, a2, a3, _), (_, b2, b3, _) = A.alpha, A.beta
        cases.add((a2 == a3, b2 == b3, f.degree))
    # the candidate both holds and fails; a2 = a3 with b2 != b3 leaves no
    # slope; the left gcd reaches every degree
    assert {(False, b, d) for b in (False, True) for d in (0, 1)} <= cases
    assert (True, False, 0) in cases
    assert {(True, True, d) for d in (-1, 0, 1, 2)} <= cases


def _system_gcd(A, which):
    """The monic `_rgcd` of the kind's ideal quadratics, computed here: the
    left or the right system, or all four for two-sided ideals."""
    F = A.field
    left = [f._raw() for f in left_ideal_system(A)]
    right = [f._raw() for f in right_ideal_system(A)]
    if which == "two_sided":
        return Poly._of_raw(F, _rgcd(F, _rgcd(F, *left), _rgcd(F, *right)))
    return Poly._of_raw(F, _rgcd(F, *(left if which == "left" else right)))


def _common_root_mscs(F, n, seed):
    """n seeded algebras over F, about a third of their constants zero, each
    followed by a copy whose left system and one whose right system has a
    common root r (b3, b1 and b2, b1 solved for), and one with a2 = a3 and
    b2 = b3."""
    rng = random.Random(seed)
    if F is QQ:
        draw = lambda: F.el(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
    else:
        draw = lambda: F.from_index(rng.randrange(F.order))
    for _ in range(n):
        a1, a2, a3, a4, b1, b2, b3, b4 = (
            F.zero if rng.randrange(3) == 0 else draw() for _ in range(8)
        )
        r = draw()
        yield MSC(F, [a1, a2, a3, a4], [b1, b2, b3, b4])
        yield MSC(F, [a1, a2, a3, a4], [a2 * r * r + (a1 - b2) * r, b2, a4 * r * r + (a3 - b4) * r, b4])
        yield MSC(F, [a1, a2, a3, a4], [a3 * r * r + (a1 - b3) * r, a4 * r * r + (a2 - b4) * r, b3, b4])
        yield MSC(F, [a1, a2, a2, a4], [b1, b2, b2, b4])


_IDEAL_KINDS = ("left", "right", "two_sided")


@pytest.mark.parametrize("spec", [(2, 1), (3, 1)])
def test_slope_poly_is_the_system_gcd_on_every_algebra(spec):
    """The resultant certificate answers 1 exactly where the gcd of the
    kind's system is 1, on every algebra over GF(2) and GF(3)."""
    for A in all_mscs(GF(*spec)):
        for which in _IDEAL_KINDS:
            assert slope_poly(A, which) == _system_gcd(A, which), (which, A.text())


@pytest.mark.parametrize("spec", [(2, 2), (3, 2), (101, 1), (5, 4), (2, 11), None])
def test_slope_poly_is_the_system_gcd_on_seeded_algebras(spec):
    """As on every algebra over GF(2) and GF(3), over GF(4), GF(9), GF(101),
    GF(5^4), GF(2^11) past the log tables, and Q; the common-root copies
    reach the gcd past a vanishing resultant."""
    F = GF(*spec) if spec else QQ
    degrees = set()
    for A in _common_root_mscs(F, 40, seed=F.order if spec else 0):
        for which in _IDEAL_KINDS:
            f = slope_poly(A, which)
            assert f == _system_gcd(A, which), (which, A.text())
            degrees.add(f.degree)
    assert {0, 1, 2} <= degrees


def test_generic_one_sided_slopes_run_no_gcd(monkeypatch):
    """A generic algebra over GF(10007) has a nonzero resultant in both
    one-sided systems, so neither kind runs `_rgcd`; a common root of the
    left system makes its resultant vanish and runs it."""
    from alg2d import solvers

    calls = []
    gcd = solvers._rgcd
    monkeypatch.setattr(solvers, "_rgcd", lambda *a: calls.append(a) or gcd(*a))
    F = GF(10007)
    A = MSC.from_ints(F, [3, 1, 4, 1], [5, 9, 2, 6])
    for which in ("left", "right"):
        assert slope_poly(A, which) == Poly.from_ints(F, [1])
    assert calls == []
    # b3 and b1 solved so that y = 2 is a common root of the left system
    B = MSC.from_ints(F, [3, 1, 4, 1], [-8, 9, 0, 6])
    assert roots_in_field(slope_poly(B, "left")) == [F.el(2)]
    assert len(calls) == 1


def test_plain_analyze_builds_no_extension_field(monkeypatch):
    """Plain analyze of a simple algebra over GF(3^27) decides simplicity
    without GF(3^54), which embedding alone made take over a minute."""
    from functools import lru_cache

    from alg2d import fields
    from alg2d.report import analyze

    # a fresh construction cache, so every field GF returns is built here;
    # GF still returns the one object per field through fields._FIELDS
    monkeypatch.setattr(fields, "_field", lru_cache(maxsize=None)(fields._field.__wrapped__))
    degrees = []
    init = fields.Field.__init__

    def counted(self, p, k=1, modulus=None):
        degrees.append(k)
        init(self, p, k, modulus)

    monkeypatch.setattr(fields.Field, "__init__", counted)
    F = fields.parse_field("gf(3,27)")
    report = analyze(MSC.parse(F, "1,1,0,1;1,0,1,1"))
    assert report.simple
    assert 27 in degrees and max(degrees) == 27


def test_quasiunit_system_printed_rows():
    rows, rhs = quasiunit_system(A10)
    # rows 2 and 8 pin y0 = -1, row 4 pins -3*x0 = 0
    assert rows[1] == (F5.zero, F5.one) and rhs[1] == -F5.one
    assert rows[3] == (F5.el(-3), F5.zero) and rhs[3] == F5.zero
    assert rows[7] == (F5.zero, -F5.one) and rhs[7] == F5.one
    assert left_quasiunits(A10).point == Element(F5.zero, F5.el(-1))

    A3 = fam(3, F5, 2, 3)
    rows, rhs = quasiunit_system(A3)
    pairs = set(zip(rows, rhs))
    assert ((F5.zero, F5.one), -F5.one) in pairs  # y0 + 1 = 0
    assert ((F5.el(-3), F5.zero), F5.zero) in pairs  # -3*x0 = 0
    assert ((-F5.one, -F5.one), F5.one) in pairs  # -x0 - y0 - 1 = 0
    assert left_quasiunits(A3).kind == "empty"

    rows, rhs = quasiunit_system(ZERO5)
    assert all(r == (F5.zero, F5.zero) for r in rows)
    assert all(b.is_zero for b in rhs)
    assert left_quasiunits(ZERO5).kind == "plane"


def quasiunit_system_derived(A: MSC):
    """The same system derived directly from the defining identity.

    For basis vectors u, v the identity e(uv) - (eu)v - u(ev) + uv = 0 is
    linear in e; collecting the e1- and e2-coordinates over the four basis
    pairs gives eight equations.  Used to cross-check the transcription.
    """
    F = A.field
    e1, e2 = basis(F)
    rows_c1, rows_c2 = [], []
    rhs_c1, rhs_c2 = [], []
    for u in (e1, e2):
        for v in (e1, e2):
            w = mul(A, u, v)
            cx = mul(A, e1, w) - mul(A, mul(A, e1, u), v) - mul(A, u, mul(A, e1, v))
            cy = mul(A, e2, w) - mul(A, mul(A, e2, u), v) - mul(A, u, mul(A, e2, v))
            rows_c1.append((cx.x, cy.x))
            rows_c2.append((cx.y, cy.y))
            rhs_c1.append(-w.x)
            rhs_c2.append(-w.y)
    return rows_c1 + rows_c2, rhs_c1 + rhs_c2


def test_quasiunit_printed_system_equals_derived():
    for A in all_mscs(GF(2)):
        assert quasiunit_system(A) == quasiunit_system_derived(A)
    rng = random.Random(31)
    for field in (GF(5), GF(3, 2), QQ):
        for _ in range(60):
            if field.is_finite:
                A = rand_msc(field, rng)
            else:
                A = MSC.from_ints(
                    field,
                    [rng.randrange(-5, 6) for _ in range(4)],
                    [rng.randrange(-5, 6) for _ in range(4)],
                )
            assert quasiunit_system(A) == quasiunit_system_derived(A)


def test_quasiunit_examples():
    # A4(1, b2): the whole line e1 + t*e2
    A = fam(4, F5, 1, 2)
    qs = left_quasiunits(A)
    assert qs.kind == "line"
    assert qs.materialize(F5) == sorted(
        (Element(F5.one, t) for t in F5.elements()), key=lambda u: u.sort_key()
    )
    # A3 has none
    assert left_quasiunits(fam(3, F5, 1, 1)).kind == "empty"


def test_quasiunit_solutions_pass_the_checker():
    rng = random.Random(41)
    for field in (GF(5), GF(2, 2), GF(3)):
        for _ in range(80):
            A = rand_msc(field, rng)
            sol = left_quasiunits(A)
            for e in sol.materialize(field):
                assert is_left_quasiunit(A, e)
            assert sol.materialize(field) == oracle_points(A, "quasiunits")


def test_quasiunits_read_the_rows_lazily(monkeypatch):
    """On a generic algebra the third row already misses the Cramer
    candidate of the first two, so the read ends there; a point answer
    reads all eight rows."""
    from alg2d import solvers

    read = []
    rows = solvers._quasiunit_rows

    def counted(*c):
        read.append(0)
        for row in rows(*c):
            read[-1] += 1
            yield row

    monkeypatch.setattr(solvers, "_quasiunit_rows", counted)
    F = GF(10007)
    rng = random.Random(10007)
    for _ in range(200):
        left_quasiunits(rand_msc(F, rng))
    assert len(read) == 200 and sum(n <= 3 for n in read) >= 190
    read.clear()
    assert left_quasiunits(A10).point == Element(F5.zero, F5.el(-1))
    assert read == [8]


def _plane_systems(F, rng, m, n):
    """n seeded m x 2 systems of each rank 0, 1 and 2, half with a
    right-hand side that holds at a point and half with a random one: rank 0
    is zero rows, rank 1 multiples of one nonzero row."""
    if F.is_finite:
        draw = lambda: F.from_index(rng.randrange(F.order))
    else:
        draw = lambda: F.el(rng.randrange(-3, 4))
    for rank in (0, 1, 2):
        for consistent in (True, False):
            for _ in range(n):
                if rank == 0:
                    rows = [(F.zero, F.zero)] * m
                elif rank == 1:
                    a, b = draw(), draw()
                    while a.is_zero and b.is_zero:
                        a, b = draw(), draw()
                    rows = [(t * a, t * b) for t in (draw() for _ in range(m))]
                else:
                    rows = [(draw(), draw()) for _ in range(m)]
                if consistent:
                    x, y = draw(), draw()
                    rhs = [r0 * x + r1 * y for r0, r1 in rows]
                else:
                    rhs = [draw() for _ in range(m)]
                yield rows, rhs


def _held_row_systems(F, rng, n):
    """n seeded systems whose first rows come before the row independent of
    the first nonzero one: zero rows, then the first nonzero row, then
    multiples of it, each with a right-hand side that misses the point the
    later rows hold at (a nonzero one for a zero row) or, one time in four,
    holds there; then the independent row and a few rows through the point."""
    draw = lambda: F.from_index(rng.randrange(F.order))
    nonzero = lambda: F.from_index(rng.randrange(1, F.order))
    for _ in range(n):
        x, y = draw(), draw()
        at = lambda r0, r1: r0 * x + r1 * y
        a, b = draw(), nonzero()
        if rng.randrange(2):
            a, b = b, a
        rows, rhs = [], []
        for _ in range(rng.randrange(3)):
            rows.append((F.zero, F.zero))
            rhs.append(F.zero if rng.randrange(4) == 0 else nonzero())
        rows.append((a, b))
        rhs.append(at(a, b))
        for _ in range(rng.randrange(3)):
            t = draw()
            rows.append((t * a, t * b))
            rhs.append(at(t * a, t * b) + (F.zero if rng.randrange(4) == 0 else nonzero()))
        c, d = draw(), draw()
        while a * d == b * c:
            c, d = draw(), draw()
        for r0, r1 in [(c, d)] + [(draw(), draw()) for _ in range(rng.randrange(3))]:
            rows.append((r0, r1))
            rhs.append(at(r0, r1))
        yield rows, rhs


def _holds(rows, rhs, e):
    return all(r0 * e.x + r1 * e.y == r for (r0, r1), r in zip(rows, rhs))


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_solve_plane_system_matches_a_scan(spec):
    F = GF(*spec)
    rng = random.Random(spec[0] * 10 + spec[1])
    plane = [Element(x, y) for x in F.elements() for y in F.elements()]
    kinds = set()
    for m in (1, 2, 3, 8):
        for rows, rhs in _plane_systems(F, rng, m, 25):
            got = solve_plane_system(rows, rhs, F)
            want = sorted((e for e in plane if _holds(rows, rhs, e)), key=lambda u: u.sort_key())
            assert got.materialize(F) == want, (rows, rhs)
            kinds.add(got.kind)
            if got.kind == "line":
                # any point and direction of the line give its one canonical form
                k = F.elements()[-1]
                for t in F.elements()[:3]:
                    at = got.base + got.direction.scale(t)
                    assert AffineSolutionSet.line(at, got.direction.scale(k)) == got
    assert kinds == {"empty", "point", "line", "plane"}
    # rows read before the independent one are held and checked last
    held = set()
    for rows, rhs in _held_row_systems(F, rng, 60):
        got = solve_plane_system(rows, rhs, F)
        want = sorted((e for e in plane if _holds(rows, rhs, e)), key=lambda u: u.sort_key())
        assert got.materialize(F) == want, (rows, rhs)
        held.add(got.kind)
    assert held == {"empty", "point"}


def test_solve_plane_system_over_q_satisfies_every_row():
    rng = random.Random(59)
    kinds = set()
    for m in (1, 2, 3, 8):
        for rows, rhs in _plane_systems(QQ, rng, m, 25):
            got = solve_plane_system(rows, rhs, QQ)
            kinds.add(got.kind)
            if got.kind == "point":
                assert _holds(rows, rhs, got.point)
            elif got.kind == "line":
                base, d = got.base, got.direction
                for e in (base, base + d, base + d.scale(QQ.el(2))):
                    assert _holds(rows, rhs, e)
                    assert AffineSolutionSet.line(e, d.scale(QQ.el(-3) / QQ.el(7))) == got
            elif got.kind == "plane":
                assert all(r == (QQ.zero, QQ.zero) for r in rows)
                assert all(c.is_zero for c in rhs)
    assert kinds == {"empty", "point", "line", "plane"}


def test_closed_count_over_q():
    AQ = MSC.from_ints(QQ, [0, 0, 0, 0], [1, 0, 0, 0])
    assert subalgebra_count_closed(AQ) is RootCount.ONE  # the cubic is -1; F(e2)


def test_q_structure_analysis():
    AQ = MSC.from_ints(QQ, [0, 1, 1, 0], [1, 0, 0, -1])
    assert subalgebras(AQ) == LineSet.of([ProjPoint.e2()])  # 3y^2-1 has no rational roots
    assert left_ideals(AQ) == LineSet.of([])
    assert simple_by_cases_extended(AQ)
    assert left_quasiunits(AQ).kind == "empty"


def test_subalgebra_closure_over_q_keeps_only_a_split_cubic():
    split = MSC.from_ints(QQ, [-1, 0, 0, 1], [0, 0, 0, 0])  # y^3 - y
    assert closure(split, "subalgebras") is split
    AQ = MSC.from_ints(QQ, [0, 1, 1, 0], [1, 0, 0, -1])  # 3y^2 - 1
    with pytest.raises(InfiniteField):
        closure(AQ, "subalgebras")


def test_is_simple_checks_the_case_analysis_over_q(monkeypatch):
    """Over Q, as over GF(q), the repaired case analysis is compared with the
    two-sided count: a flipped answer raises."""
    from alg2d import solvers

    algebras = [
        MSC.from_ints(QQ, [0, 1, 1, 0], [1, 0, 0, -1]),
        MSC.from_ints(QQ, [1, 2, 2, 1], [3, 4, 4, 5]),  # a2 = a3, b2 = b3
        MSC.from_ints(QQ, [0, 0, 0, 0], [1, 0, 0, 0]),
    ] + _seeded_mscs(QQ, 12, seed=24)
    simple = [is_simple(A) for A in algebras]
    assert any(simple) and not all(simple)
    cases = solvers.simple_by_cases_extended
    monkeypatch.setattr(solvers, "simple_by_cases_extended", lambda A: not cases(A))
    for A in algebras:
        with pytest.raises(solvers.InternalInconsistency):
            is_simple(A)


def _seeded_mscs(F, n, seed):
    rng = random.Random(seed)
    draw = (lambda: rng.randrange(-50, 50)) if F is QQ else (lambda: rng.randrange(F.order))
    out = []
    for _ in range(n):
        ints = [draw() for _ in range(8)]
        if F is QQ:
            out.append(MSC.from_ints(F, ints[:4], ints[4:]))
        else:
            els = [F.from_index(i) for i in ints]
            out.append(MSC(F, els[:4], els[4:]))
    return out


_KINDS = ("subalgebras", "left", "right", "two_sided")


def _kept_answers(A):
    """Every answer the solvers read from the searches and the ideal closure
    they keep on A."""
    answers = [
        subalgebras(A),
        left_ideals(A),
        right_ideals(A),
        two_sided_ideals(A),
        idempotents(A),
        is_simple(A),
    ]
    answers += [line_count_closed(A, which) for which in _KINDS]
    if A.field.is_finite:
        B = closure(A, "subalgebras")
        answers += [subalgebra_splitting(A), closure(A, "left"), B, subalgebras(B)]
    return answers


def _answers_in_turn(A):
    """The answers on A, on A again, on a fresh equal algebra, and on A
    lifted to the quadratic extension of its field after A's own are kept."""
    F = A.field
    out = [_kept_answers(A), _kept_answers(A), _kept_answers(MSC(F, A.alpha, A.beta))]
    if F.is_finite:
        out.append(_kept_answers(A.lift(GF(F.p, 2 * F.k))))
    return out


@pytest.mark.parametrize("spec", [(2, 1), (5, 1), (3, 2), (1009, 1), (0, 1)])
def test_shared_subalgebra_roots_give_the_same_answers(monkeypatch, spec):
    """What an algebra keeps gives the answers of searches made afresh for
    every call, and nothing kept on one algebra reaches an equal one or a
    lift of it."""
    from alg2d import solvers

    F = QQ if spec[0] == 0 else GF(*spec)
    zero_cubic = MSC.from_ints(F, [1, 0, 0, 0], [0, 1, 0, 0])  # cubic vanishes
    mscs = [zero_cubic] + _seeded_mscs(F, 12, seed=spec[0])
    with monkeypatch.context() as m:
        m.setattr(solvers, "_kept", lambda A, key, make: make())
        afresh = [_answers_in_turn(A) for A in mscs]
        assert all(not A.memo for A in mscs)
    assert [_answers_in_turn(A) for A in mscs] == afresh
    for A in mscs:
        for which in _KINDS:
            assert root_search(A, which) is root_search(A, which)
            assert root_search(A, which).f == slope_poly(A, which)
        if F.is_finite:
            for which in _KINDS:
                assert closure(A, which) is closure(A, which)
    assert root_search(zero_cubic, "subalgebras").rest == 0


def _reaches(start, target) -> bool:
    """Whether target is reachable from start through object references,
    not counting those through classes, modules and functions."""
    import gc
    import types

    seen, todo = set(), [start]
    while todo:
        obj = todo.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
    return False


def test_an_algebra_keeps_no_reference_to_itself(monkeypatch):
    """After closed oracle analyses, and after the oracle rechecks of family
    points, what an algebra keeps (its searches, its ideal closure and the
    fields) never leads back to it, so no algebra is part of a reference
    cycle."""
    from alg2d import sweep
    from alg2d.families import ARITY, all_family_ids
    from alg2d.report import analyze

    lifted = 0
    for F in (GF(2), GF(3), GF(5)):
        for A in _seeded_mscs(F, 10, seed=F.order):
            analyze(A, closed=True, oracle=True)
            assert A.memo and not _reaches(A.memo, A), A.text()
            lifted += closure(A, "left") is not A
    assert lifted
    points = []
    make = sweep.instantiate
    monkeypatch.setattr(sweep, "instantiate", lambda *a: points.append(make(*a)) or points[-1])
    F7 = GF(7)
    rechecked = 0
    for family in all_family_ids(Regime.NE23):
        for params in sweep._param_grid(F7, ARITY[family.index], 20, 0):
            records = sweep.verify_point(family, params, F7)
            rechecked += any(r["oracle"] not in (None, "skipped") for r in records)
            A = points[-1]
            assert A.memo and not _reaches(A.memo, A), (family.name(), A.text())
    assert rechecked


@pytest.mark.parametrize("closed", [False, True])
def test_analyze_searches_the_subalgebra_cubic_once(monkeypatch, closed):
    """One search of the cubic over F (and, in closed mode, one over its
    splitting field) and the two-sided ideals solved once.  Plain mode
    splits no ideal system and lifts nothing; closed mode splits the ideal
    systems once and lifts at most once per extension."""
    from alg2d import poly, report as report_mod, solvers
    from alg2d.report import analyze

    seen, calls, lifts = [], [], []
    init = poly.RootSearch.__init__
    monkeypatch.setattr(poly.RootSearch, "__init__", lambda s, f: seen.append(f) or init(s, f))
    for name in ("ideal_splitting", "two_sided_ideals"):
        fn = getattr(solvers, name)
        counted = lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a)
        for mod in (solvers, report_mod):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    lift = MSC.lift
    monkeypatch.setattr(MSC, "lift", lambda A, E: lifts.append(E) or lift(A, E))
    searched = lifted = 0
    for A in _seeded_mscs(GF(1009), 30, seed=4):
        seen.clear(), calls.clear(), lifts.clear()
        report = analyze(A, closed=closed)
        f = subalgebra_poly(A)
        if not f.is_zero:
            assert seen.count(f) == 1
            searched += 1
            E = report.line_fields["subalgebras"]
            if E != A.field:
                assert seen.count(f.lift(E)) == 1
                lifted += 1
        assert calls.count("ideal_splitting") == (1 if closed else 0)
        assert len(lifts) == len(set(lifts)) and A.field not in lifts
        assert closed or not lifts
        assert calls.count("two_sided_ideals") == 1
    assert searched >= 3
    assert (lifted > 0) == closed


def test_analyze_and_verify_point_make_one_root_search_per_kind(monkeypatch):
    """A plain analysis over GF(1009), and the verification of family points
    with their oracle rechecks, make exactly one root search per algebra and
    kind, counted in `poly.RootSearch` wherever one is made: every solver
    reads the search the algebra keeps.  Half the analysed algebras have
    a2 = a3 and b2 = b3, where the two-sided search is the left one and the
    repaired simplicity predicate reads the left search too."""
    from alg2d import poly, solvers, sweep
    from alg2d.families import ARITY, all_family_ids
    from alg2d.report import analyze

    asked, searched = [], []  # (algebra, kind) of each slope polynomial and search
    slope, init = solvers.slope_poly, poly.RootSearch.__init__
    monkeypatch.setattr(
        solvers, "slope_poly", lambda A, which: asked.append((A, which)) or slope(A, which)
    )

    def counted(self, f):
        searched.append(asked[-1])
        init(self, f)

    monkeypatch.setattr(poly.RootSearch, "__init__", counted)
    F = GF(1009)
    seeded = _seeded_mscs(F, 20, seed=6)
    symmetric = [
        MSC.from_ints(F, [1, 2, 2, 4], [5, 6, 6, 8]),
        MSC.from_ints(F, [0, 1, 1, 0], [1, 0, 0, -1]),
    ] + [
        MSC(F, [a1, a2, a2, a4], [b1, b2, b2, b4])
        for (a1, a2, _, a4), (b1, b2, _, b4) in ((A.alpha, A.beta) for A in seeded[:18])
    ]
    for A in seeded + symmetric:
        searched.clear()
        analyze(A)
        assert sorted(which for _, which in searched) == sorted(_KINDS), A.text()
        assert all(B is A for B, _ in searched)
    F7 = GF(7)
    lifted = 0
    for family in all_family_ids(Regime.NE23):
        for params in sweep._param_grid(F7, ARITY[family.index], 20, 1):
            searched.clear()
            sweep.verify_point(family, params, F7)
            A = searched[0][0]
            assert sorted(which for B, which in searched if B is A) == sorted(_KINDS)
            assert len({(id(B), which) for B, which in searched}) == len(searched)
            assert all(B.field != F7 for B, _ in searched if B is not A)
            lifted += len(searched) > len(_KINDS)
    assert lifted


def test_verify_point_lifts_at_most_once_per_field(monkeypatch):
    """Every family point of GF(5), GF(7) and GF(4): no two lifts of the
    point's algebra land in the same field, also when an oracle recheck of
    the subalgebra count needs the splitting field of the cubic and that
    field is the ideal closure's."""
    import itertools

    from alg2d import sweep
    from alg2d.families import ARITY, all_family_ids
    from alg2d.solvers import ideal_splitting, subalgebra_splitting

    lifts = []
    lift = MSC.lift
    monkeypatch.setattr(MSC, "lift", lambda A, E: lifts.append(E) or lift(A, E))
    shared = 0
    for F in (GF(5), GF(7), GF(2, 2)):
        for family in all_family_ids(Regime.of_field(F)):
            for params in itertools.product(F.elements(), repeat=ARITY[family.index]):
                lifts.clear()
                records = sweep.verify_point(family, params, F)
                assert len(lifts) == len(set(lifts)), (family, params)
                rechecked = any(
                    r["quantity"] == "subalgebras" and r["oracle"] is not None for r in records
                )
                if rechecked:
                    A = instantiate(family, params, F)
                    shared += subalgebra_splitting(A) == ideal_splitting(A) != F
    assert shared > 0


def test_one_lift_per_closure_field_and_one_reading_of_the_constants(monkeypatch):
    """The kinds whose closure is the same field share one lift, also the
    subalgebras where the cubic splits in the ideal closure; a plain analysis
    reads the structure constants once."""
    from alg2d import solvers
    from alg2d.report import analyze

    shared = 0
    for A in _seeded_mscs(GF(5), 60, seed=26):
        assert closure(A, "left") is closure(A, "right") is closure(A, "two_sided")
        if closure_field(A, "subalgebras") == closure_field(A, "left") != A.field:
            assert closure(A, "subalgebras") is closure(A, "left")
            shared += 1
    assert shared
    read = []
    numbers = solvers._numbers
    monkeypatch.setattr(solvers, "_numbers", lambda F: read.append(F) or numbers(F))
    for F in (GF(5), GF(3, 2), GF(1009), QQ):
        for A in [MSC.from_ints(F, [1, 2, 2, 1], [3, 4, 4, 5])] + _seeded_mscs(F, 10, seed=7):
            read.clear()
            analyze(A)
            assert read == [F], A.text()


def test_inverse_cache_stays_empty_above_the_memo_limit():
    from alg2d.report import analyze

    p = 10**9 + 7
    E = GF(p, 2)
    used = 0
    for A in _seeded_mscs(GF(p), 100, seed=3):
        report = analyze(A, closed=True)
        used += E in report.line_fields.values()
    assert used > 0  # the quadratic extension really did arithmetic
    assert len(E._inv_cache) == 0


# ---------------------------------------------------------------------------
# The formulas on raw values.  Over GF(p) and Q each formula runs on raw
# values with Python's operators; `solvers._Elements` runs the same formula
# on Fel elements, as GF(p^k) does, and must give the same answers.

def _zero_heavy_mscs(F, n, seed):
    """n seeded MSCs whose entries are 0 half the time, else 1, -1 or a
    random element, and the zero MSC: the quasiunit system takes every
    rank there."""
    rng = random.Random(seed)

    def draw():
        roll = rng.random()
        if roll < 0.5:
            return F.zero
        if roll < 0.7:
            return F.one
        if roll < 0.8:
            return -F.one
        if F.is_finite:
            return F.from_index(rng.randrange(F.order))
        return F.el(rng.randrange(-50, 50)) / F.el(rng.randrange(1, 9))

    return [MSC(F, [F.zero] * 4, [F.zero] * 4)] + [
        MSC(F, [draw() for _ in range(4)], [draw() for _ in range(4)]) for _ in range(n)
    ]


def _solver_answers(A):
    return (
        left_quasiunits(A),
        quasiunit_system(A),
        [slope_poly(A, which) for which in ("subalgebras", "left", "right", "two_sided")],
        left_ideal_system(A),
        right_ideal_system(A),
        eigenvalue_poly(A),
        simple_by_cases(A),
        idempotents(A),
    )


def _fels_in(obj):
    """Every field element an answer holds."""
    if isinstance(obj, Fel):
        yield obj
    elif isinstance(obj, (list, tuple, frozenset)):
        for x in obj:
            yield from _fels_in(x)
    elif isinstance(obj, Element):
        yield from (obj.x, obj.y)
    elif isinstance(obj, Poly):
        yield from obj.coeffs
    elif isinstance(obj, AffineSolutionSet):
        yield from _fels_in([obj.point, obj.base, obj.direction])
    elif isinstance(obj, IdempotentSet):
        yield from _fels_in([obj.isolated, obj.family, obj.e2_point])


@pytest.mark.parametrize("spec", [(7, 1), (10007, 1), (3, 2), (0, 1)])
def test_formulas_on_raw_values_equal_the_formulas_on_elements(monkeypatch, spec):
    from alg2d import solvers

    F = QQ if spec[0] == 0 else GF(*spec)
    mscs = _zero_heavy_mscs(F, 150, seed=spec[0] + spec[1])
    on_numbers = [_solver_answers(A) for A in mscs]
    with monkeypatch.context() as m:
        m.setattr(solvers, "_numbers", solvers._Elements)
        # fresh algebras, as each keeps the numbers it read first
        on_elements = [_solver_answers(MSC(A.field, A.alpha, A.beta)) for A in mscs]
    assert on_numbers == on_elements
    kinds = {answers[0].kind for answers in on_numbers}
    assert kinds == {"empty", "point", "line", "plane"}
    if not F.is_finite:
        # raw values over Q stay Fractions, never ints
        assert all(type(c.raw) is Fraction for a in on_numbers for c in _fels_in(a))
    elif F.order <= 16:
        for A, answers in zip(mscs, on_numbers):
            assert answers[0].materialize(F) == oracle_points(A, "quasiunits"), A.text()
    else:
        # GF(10007) has 10^8 points, past any scan: check the answer instead
        for A, answers in zip(mscs, on_numbers):
            qs = answers[0]
            if qs.kind == "point":
                assert is_left_quasiunit(A, qs.point), A.text()
            elif qs.kind == "line":
                for t in (F.zero, F.one, F.el(5)):
                    assert is_left_quasiunit(A, qs.base + qs.direction.scale(t)), A.text()


def _raw_values_in(obj):
    """The raw value of every field element reachable from obj through
    containers and slotted objects, fields excepted, and every raw
    coefficient a root search keeps."""
    from alg2d.fields import Field
    from alg2d.poly import RootSearch

    if isinstance(obj, Fel):
        yield obj.raw
        return
    if isinstance(obj, RootSearch):
        yield from obj._g or []
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        for x in obj:
            yield from _raw_values_in(x)
    elif hasattr(type(obj), "__slots__") and not isinstance(obj, Field):
        for name in type(obj).__slots__:
            yield from _raw_values_in(getattr(obj, name, None))


def test_closed_counts_over_q_find_no_rational_root(monkeypatch):
    """`line_count_closed` over Q decides every kind from the slope
    polynomial's coefficients: no `_rational_roots` call, so no modular
    root search and no Hensel lift, on seeded algebras with planted rational
    roots; listing the lines afterwards still finds the roots."""
    from alg2d import poly
    from test_golden import _seeded_q_mscs

    calls = []
    rational_roots = poly._rational_roots
    monkeypatch.setattr(poly, "_rational_roots", lambda h: calls.append(h) or rational_roots(h))
    mscs = [*_seeded_q_mscs(9, 40), *_zero_heavy_mscs(QQ, 40, seed=2)]
    counts = [[line_count_closed(A, which) for which in _KINDS] for A in mscs]
    assert calls == []
    assert {c for row in counts for c in row} >= {RootCount.ZERO, RootCount.ONE, RootCount.THREE}
    assert any(subalgebras(A).points for A in mscs) and calls


def test_raw_values_over_q_are_fractions():
    """The solver formulas run on ints where Q's constants are integral, but
    every element an analysis over Q builds, and every coefficient of its
    slope polynomials, keeps one reduced Fraction as its raw value: over
    seeded MSCs with integral, n/d and zero constants and planted rational
    roots, over MSCs whose quasiunits take every rank, and over one with an
    idempotent family."""
    from alg2d.report import analyze
    from test_golden import _seeded_q_mscs

    family = MSC.from_ints(QQ, [3, 1, 2, 0], [0, 1, 2, 3])
    mscs = [*_seeded_q_mscs(9), *_zero_heavy_mscs(QQ, 150, seed=1), family]
    kinds = set()
    for A in mscs:
        rep = analyze(A)
        raws = list(_raw_values_in([rep, A.memo]))
        assert raws and all(type(x) is Fraction for x in raws), A.text()
        # the four slope polynomials' searches and the constants they read
        assert len(A.memo) == 5, A.text()
        kinds.add(rep.quasiunits.kind)
    assert kinds == {"empty", "point", "line", "plane"}
    assert not idempotents(family).family.is_zero


def test_plain_analysis_over_a_prime_field_calls_no_field_product(monkeypatch):
    """Every formula and root search of a plain analysis over GF(10007) runs
    on int residues, a line of quasiunits in canonical form included: no
    `Field._mul` or `Field._add` call."""
    from alg2d import fields
    from alg2d.report import analyze

    calls = []
    for name in ("_mul", "_add"):
        op = getattr(fields.Field, name)
        counted = lambda F, a, b, _op=op, _name=name: calls.append(_name) or _op(F, a, b)
        monkeypatch.setattr(fields.Field, name, counted)
    F = GF(10007)
    kinds = []
    isolated = 0
    # the quasiunits of the last algebra are the line e2 + t*e1
    line = MSC.parse(F, "0,0,0,0;0,0,0,1")
    for A in _seeded_mscs(F, 40, seed=8) + _zero_heavy_mscs(F, 40, seed=8) + [line]:
        calls.clear()
        report = analyze(A)
        kinds.append(report.quasiunits.kind)
        isolated += len(report.idempotent_set.isolated)
        assert calls == [], A.text()
    # the paths that multiplied elements ran: roots were split, idempotents
    # scaled and quasiunits solved
    assert isolated > 10
    assert set(kinds) == {"empty", "point", "line", "plane"}
    # the counter sees the field's own product
    calls.clear()
    assert F.el(3) * F.el(5) == F.el(15) and calls == ["_mul"]


@pytest.mark.parametrize("closed", [False, True])
def test_analyze_searches_the_two_sided_slope_polynomial_once_per_field(monkeypatch, closed):
    """Simplicity reads the two-sided search over A's own field that also
    gives the two-sided ideals there; closed mode searches once more, over
    the ideal closure, only when that is another field."""
    from alg2d import solvers
    from alg2d.report import analyze

    seen = []
    slope = solvers.slope_poly

    def counted(A, which):
        if which == "two_sided":
            seen.append(A.field)
        return slope(A, which)

    monkeypatch.setattr(solvers, "slope_poly", counted)
    lifted = 0
    for A in _seeded_mscs(GF(1009), 30, seed=5):
        seen.clear()
        report = analyze(A, closed=closed)
        E = report.line_fields["two_sided"]
        assert sorted(seen, key=lambda F: F.k) == sorted({A.field, E}, key=lambda F: F.k)
        lifted += E != A.field
    assert (lifted > 0) == closed
