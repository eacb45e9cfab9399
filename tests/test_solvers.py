import random

import pytest

from alg2d import (
    GF,
    QQ,
    Element,
    InfiniteField,
    LineSet,
    MSC,
    Poly,
    ProjPoint,
    RootCount,
    WrongCharacteristic,
    eigenvalue_poly,
    idempotents,
    is_idempotent,
    is_left_quasiunit,
    is_simple,
    left_ideal_system,
    left_ideals,
    left_quasiunits,
    oracle_points,
    predict_left_line_count,
    predict_right_line_count,
    quasiunit_system,
    quasiunit_system_derived,
    right_ideal_system,
    right_ideals,
    simple_by_cases,
    simple_by_cases_extended,
    subalgebra_count_closed,
    subalgebra_poly,
    subalgebras,
    two_sided_ideals,
)
from alg2d.algebra import all_mscs
from alg2d.families import FamilyId, Regime, instantiate
from alg2d.solvers import solve_plane_system

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
    assert idempotents(A12).is_empty()
    for args in ((5, F7, 3), (9, F7), (12, F7)):
        assert idempotents(fam(*args)).is_empty()
    assert idempotents(fam(4, F7, 0, 3)).is_empty()
    assert idempotents(fam(8, F7, 0)).is_empty()
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
    z = Poly.zero(F5)
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
    assert kinds == {"empty", "point", "line", "plane"}


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
            elif got.kind == "plane":
                assert all(r == (QQ.zero, QQ.zero) for r in rows)
                assert all(c.is_zero for c in rhs)
    assert kinds == {"empty", "point", "line", "plane"}


def test_closed_counts_reject_q():
    AQ = MSC.from_ints(QQ, [0, 0, 0, 0], [1, 0, 0, 0])
    with pytest.raises(InfiniteField):
        subalgebra_count_closed(AQ)


def test_q_structure_analysis():
    AQ = MSC.from_ints(QQ, [0, 1, 1, 0], [1, 0, 0, -1])
    assert subalgebras(AQ) == LineSet.of([ProjPoint.e2()])  # 3y^2-1 has no rational roots
    assert left_ideals(AQ) == LineSet.of([])
    assert simple_by_cases_extended(AQ)
    assert left_quasiunits(AQ).kind == "empty"


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


@pytest.mark.parametrize("spec", [(2, 1), (5, 1), (3, 2), (1009, 1), (0, 1)])
def test_shared_subalgebra_roots_give_the_same_answers(spec):
    from alg2d.solvers import subalgebra_roots

    F = QQ if spec[0] == 0 else GF(*spec)
    zero_cubic = MSC.from_ints(F, [1, 0, 0, 0], [0, 1, 0, 0])  # cubic vanishes
    for A in [zero_cubic] + _seeded_mscs(F, 40, seed=spec[0]):
        found = subalgebra_roots(A)
        assert subalgebras(A, found) == subalgebras(A)
        assert idempotents(A, found) == idempotents(A)
        if F.is_finite:
            assert subalgebra_count_closed(A, found) == subalgebra_count_closed(A)
    assert subalgebra_roots(zero_cubic).rest == 0


@pytest.mark.parametrize("closed", [False, True])
def test_analyze_searches_the_subalgebra_cubic_once(monkeypatch, closed):
    """One search of the cubic over F (and, in closed mode, one over its
    splitting field), one ideal splitting, at most one lift per extension,
    and the two-sided ideals solved once unless plain mode needs them over
    both F and the ideal closure."""
    from alg2d import poly, report as report_mod, solvers
    from alg2d.report import analyze

    seen, calls, lifts = [], [], []
    root_gcd = poly._root_gcd
    monkeypatch.setattr(poly, "_root_gcd", lambda f: seen.append(f) or root_gcd(f))
    ideal_splitting = solvers.ideal_splitting
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
        ideal_field = ideal_splitting(A)
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
        assert calls.count("ideal_splitting") == 1
        assert len(lifts) == len(set(lifts)) and A.field not in lifts
        two_sided = 1 if closed or ideal_field == A.field else 2
        assert calls.count("two_sided_ideals") == two_sided
    assert searched >= 3
    assert (lifted > 0) == closed


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
