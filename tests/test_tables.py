import itertools
import random
from fractions import Fraction

import pytest

from alg2d import GF, QQ, Element, FieldMismatch, Poly, RootCount
from alg2d.fields import embed
from alg2d.poly import poly_gcd, sqrt_in_ext
from alg2d.families import FamilyId, Regime, RegimeMismatch
from alg2d.solvers import AffineSolutionSet
from alg2d.sweep import (
    adjudicate_flag,
    mismatch_records,
    sweep_all,
    sweep_family,
    verify_point,
)
from alg2d.tables import (
    DEFAULT_FLAGS,
    _pm_product_zero,
    _pm_target_hit,
    predict_count,
    predict_quasiunits,
)

F5 = GF(5)
F7 = GF(7)
F2 = GF(2)
F3 = GF(3)


def fid(i, regime=Regime.NE23):
    return FamilyId(i, regime)


def els(F, *ints):
    return tuple(F.el(v) for v in ints)


def test_subalgebra_predictions_spot():
    assert predict_count("subalgebras", fid(5), els(F7, 3), F7).category is RootCount.ONE
    # A4 with b2 = 2*a1 - 1 degenerates to infinitely many
    assert (
        predict_count("subalgebras", fid(4), els(F7, 2, 3), F7).category
        is RootCount.INFINITE
    )
    assert (
        predict_count("subalgebras", fid(10, Regime.CHAR3), (), F3).category
        is RootCount.INFINITE
    )
    assert predict_count("subalgebras", fid(12), (), F5).category is RootCount.ONE
    assert predict_count("subalgebras", fid(11), (), F5).category is RootCount.THREE
    assert (
        predict_count("subalgebras", fid(8), els(F7, 5), F7).category
        is RootCount.INFINITE
    )


def test_ideal_predictions_spot():
    assert predict_count("left", fid(11), (), F5).category is RootCount.ZERO
    assert (
        predict_count("left", fid(7, Regime.CHAR2), els(F2, 0), F2).category
        is RootCount.TWO
    )
    assert (
        predict_count("right", fid(4), els(F5, 3, 0), F5).category
        is RootCount.INFINITE
    )  # a1 = 1/2 mod 5, b2 = 0
    assert predict_count("two_sided", fid(12), (), F5).category is RootCount.ONE
    assert predict_count("two_sided", fid(6), els(F5, 2, 3), F5).category is RootCount.ZERO
    assert predict_count("two_sided", fid(11), (), F5).category is RootCount.ZERO


def test_quasiunit_predictions_spot():
    a1 = F5.el(2)
    pred, cell = predict_quasiunits(fid(2), els(F5, 2, 0, 2), F5)
    assert pred == AffineSolutionSet.single(Element(a1.inv(), F5.zero))
    assert cell is not None

    half = F7.el(2).inv()
    pred, _ = predict_quasiunits(fid(6), (half, F7.zero), F7)
    assert pred == AffineSolutionSet.single(Element(F7.el(2), F7.zero))

    pred, cell = predict_quasiunits(fid(11), (), F5)
    assert pred.kind == "empty" and cell is None

    pred, _ = predict_quasiunits(fid(10, Regime.CHAR3), (), F3)
    assert pred.kind == "line"


def test_prediction_regime_and_arity_guards():
    with pytest.raises(RegimeMismatch):
        predict_count("subalgebras", fid(9), (), F3)
    with pytest.raises(Exception):
        predict_count("left", fid(8), els(F5, 1, 2), F5)


def test_predictions_reject_parameters_from_another_field():
    F25 = GF(5, 2)
    for quantity in ("subalgebras", "left", "right", "two_sided"):
        with pytest.raises(FieldMismatch):
            predict_count(quantity, fid(4), els(F5, 2, 3), F25)
    with pytest.raises(FieldMismatch):
        predict_quasiunits(fid(4), els(F5, 2, 3), F25)


def test_verify_point_agreement_for_a12():
    records = verify_point(fid(12), (), F5)
    assert len(records) == 5
    assert all(r["verdict"] == "agree" for r in records)
    expectations = {
        "subalgebras": "1",
        "left": "1",
        "right": "1",
        "two_sided": "1",
        "quasiunits": "empty",
    }
    for rec in records:
        assert rec["solved"] == expectations[rec["quantity"]]


def test_fixed_rows_all_agree_over_gf5():
    for i in (5, 9, 10, 11, 12):
        for rec in sweep_family(fid(i), F5):
            assert rec["verdict"] == "agree", rec


def test_oracle_recheck_past_the_limit_is_skipped(monkeypatch):
    """A recheck whose scan passes RECHECK_LIMIT is not run and reads
    "skipped"; GF(101^2), whose recheck takes about half a second, is inside."""
    from alg2d import sweep

    # a1 = 0, b1 = b2 a nonsquare other than -1: the left A2 row predicts no
    # ideal, the system has one, and the ideal closure is GF(p^2)
    F = GF(1009)
    left = verify_point(fid(2), els(F, 0, 11, 11), F)[1]
    assert (left["quantity"], left["verdict"], left["oracle"]) == ("left", "mismatch", "skipped")
    F = GF(101)
    left = verify_point(fid(2), els(F, 0, 2, 2), F)[1]
    assert (left["quantity"], left["verdict"], left["oracle"]) == ("left", "mismatch", "1")

    # every kind of recheck over GF(5); a wrong quasiunit prediction forces that kind
    wrong = AffineSolutionSet.single(Element(F5.one, F5.one))
    monkeypatch.setattr(sweep, "predict_quasiunits", lambda *a: (wrong, "cell"))
    rechecked = mismatch_records(sweep_family(fid(1), F5))
    assert {r["quantity"] for r in rechecked} == {"subalgebras", "left", "right", "quasiunits"}
    assert "skipped" not in {r["oracle"] for r in rechecked}
    # at q the q + 1 lines of GF(q) are rechecked, the q^2 elements of F^2 not
    monkeypatch.setattr(sweep, "RECHECK_LIMIT", F5.order)
    at_q = mismatch_records(sweep_family(fid(1), F5))
    assert {r["oracle"] for r in at_q if r["quantity"] == "quasiunits"} == {"skipped"}
    assert {r["oracle"] for r in at_q if r["quantity"] == "left"} > {"skipped"}
    monkeypatch.setattr(sweep, "RECHECK_LIMIT", F5.order - 1)
    skipped = mismatch_records(sweep_family(fid(1), F5))
    assert [r["quantity"] for r in skipped] == [r["quantity"] for r in rechecked]
    assert {r["oracle"] for r in skipped} == {"skipped"}


def test_a_skipped_recheck_lifts_nothing(monkeypatch):
    """The left A2 mismatch at (0, 1, w) over GF(3^13) would recheck the lines
    of GF(3^26): the recheck is skipped from the closure field's order alone,
    before the point is lifted."""
    from alg2d import MSC
    from alg2d.fields import parse_el

    def lift(A, E):
        raise AssertionError(f"lifted to {E.text()}")

    monkeypatch.setattr(MSC, "lift", lift)
    F = GF(3, 13)
    left = verify_point(fid(2, Regime.CHAR3), [F.zero, F.one, parse_el(F, "w")], F)[1]
    assert (left["quantity"], left["verdict"], left["oracle"]) == ("left", "mismatch", "skipped")


def test_every_mismatch_carries_oracle_confirmation():
    records = sweep_family(fid(2), F5)
    bad = mismatch_records(records)
    assert bad, "the A2 ideal rows are known to disagree with the solver somewhere"
    for rec in bad:
        assert rec["oracle"] is not None
        assert rec["citation"]


@pytest.mark.parametrize("F", [F2, F3], ids=["gf2", "gf3"])
def test_rechecked_line_counts_equal_the_solved_counts(F):
    """The oracle labels a line set 'inf' only when the kind's slope
    polynomial is zero: the three lines of A1,2(0,0,0,0)'s subalgebras over
    GF(2) are every line of that plane, yet a count of 3."""
    rechecked = [
        r for r in sweep_all(F) if r["oracle"] is not None and r["quantity"] != "quasiunits"
    ]
    assert rechecked
    for rec in rechecked:
        assert rec["oracle"] == rec["solved"], rec
    if F is F2:
        assert {"family": "A1,2", "params": ["0", "0", "0", "0"], "quantity": "subalgebras",
                "solved": "3", "oracle": "3"}.items() <= rechecked[0].items()


def test_verify_point_splits_the_ideal_systems_once(monkeypatch):
    """The ideal counts split no ideal system; only an oracle recheck lifts
    the point, once however many of its quantities it rechecks."""
    from alg2d import solvers
    from alg2d.sweep import _param_grid

    calls = []
    split = solvers.ideal_splitting
    monkeypatch.setattr(solvers, "ideal_splitting", lambda A: calls.append(A) or split(A))
    rechecked = plain = 0
    for params in _param_grid(F5, 3, "exhaustive", 0):
        calls.clear()
        records = verify_point(fid(2), params, F5)
        oracles = {r["quantity"] for r in records if r["oracle"] is not None}
        if oracles & {"left", "right", "two_sided"}:
            assert len(calls) == 1
            rechecked += 1
        elif not oracles:
            assert calls == []
            plain += 1
        else:
            assert len(calls) <= 1
    assert rechecked and plain


def test_verify_point_searches_the_subalgebra_cubic_once(monkeypatch):
    """One root search of the subalgebra cubic over F serves the solved count,
    the oracle recheck's splitting field and, when the cubic splits in F, the
    solver's lines of that recheck.  The searches of the ideal kinds' slope
    polynomials are not searches of the cubic, even where a gcd equals a
    cubic with a4 = 0."""
    from alg2d import poly, solvers
    from alg2d.families import instantiate
    from alg2d.solvers import subalgebra_poly
    from alg2d.sweep import _param_grid

    searched = []  # the polynomial each root search or count in solvers ran on
    ideal = []  # the slope polynomials of the ideal kinds

    def slopes(A, which):
        f = slope_poly(A, which)
        if which != "subalgebras":
            ideal.append(f)
        return f

    def counted(self, f):
        if not any(f is g for g in ideal):
            searched.append(f)
        init(self, f)

    slope_poly, init = solvers.slope_poly, poly.RootSearch.__init__
    monkeypatch.setattr(solvers, "slope_poly", slopes)
    monkeypatch.setattr(poly.RootSearch, "__init__", counted)
    rechecked = 0
    for params in _param_grid(F7, 4, 300, 0):
        cubic = subalgebra_poly(instantiate(fid(1), params, F7))
        searched.clear(), ideal.clear()
        records = verify_point(fid(1), params, F7)
        assert searched.count(cubic) == 1, [c.text() for c in params]
        rechecked += any(
            r["oracle"] is not None and r["quantity"] == "subalgebras" for r in records
        )
    assert rechecked


@pytest.mark.parametrize(
    "field, family, params",
    [
        ((7,), fid(1), (2, 0, 1, 0)),
        ((7,), fid(2), (0, 0, 1)),
        ((7,), fid(3), (3, 0)),
        ((3, 2), fid(2, Regime.CHAR3), (1, 1, 0)),
        ((2, 2), fid(3, Regime.CHAR2), (0, (0, 1))),
    ],
)
def test_verify_point_splits_no_cubic_it_only_counts(monkeypatch, field, family, params):
    """Where the subalgebra cubic has at least two roots in F and its count is
    not rechecked, verify_point needs only the cubic's gcd with x^q - x, and
    these points make no Cantor-Zassenhaus split at all."""
    from alg2d import poly
    from alg2d.families import instantiate
    from alg2d.solvers import root_search

    F = GF(*field)
    params = tuple(F.el(c) for c in params)
    assert root_search(instantiate(family, params, F), "subalgebras").count >= 2
    verify_point(family, params, F)  # fills the square-root and embedding caches
    calls = []
    split = poly._split
    monkeypatch.setattr(poly, "_split", lambda F, g, *rest: calls.append(g) or split(F, g, *rest))
    records = verify_point(family, params, F)
    assert records[0]["quantity"] == "subalgebras" and records[0]["oracle"] is None
    assert calls == []


@pytest.mark.parametrize("spec", [(7,), (3, 2), (2, 2)])
def test_counts_raise_x_to_no_power(monkeypatch, spec):
    """The closed counts are decided from the slope polynomials' coefficients:
    `verify_point` on a point with no oracle recheck, and every flag
    adjudication of the field's regime, make no `poly._rpow` call, so no root
    search computes x^q."""
    from alg2d import poly
    from alg2d.families import ARITY, all_family_ids
    from alg2d.sweep import FLAG_ROWS, _param_grid

    F = GF(*spec)
    regime = Regime.of_field(F)
    calls = []
    rpow = poly._rpow
    monkeypatch.setattr(poly, "_rpow", lambda *a: calls.append(a) or rpow(*a))
    counted = 0
    for family in all_family_ids(regime):
        for params in _param_grid(F, ARITY[family.index], 12, 1):
            calls.clear()
            records = verify_point(family, params, F)
            if all(r["oracle"] is None for r in records):
                assert calls == [], (family.name(), [c.text() for c in params])
                counted += 1
    assert counted >= 30
    # no flag governs a row of characteristic 2
    flags = [flag for flag, (_, r, _) in FLAG_ROWS.items() if r == regime]
    assert bool(flags) == (F.p != 2)
    for flag in flags:
        calls.clear()
        adjudicate_flag(flag, F, 40, 2)
        assert calls == [], flag


def test_flag_adjudications_pick_one_reading():
    fields = {
        "table1_A1_disc": F5,
        "twosided_char3_A1_b1": F3,
        "table2_A23_one": F3,
        "left_char3_P": F3,
        "table6_A23_sq": GF(3, 2),  # over GF(3) both readings tie
    }
    assert fields.keys() == DEFAULT_FLAGS.keys()
    for flag, field in fields.items():
        assert adjudicate_flag(flag, field)["verdict"] == DEFAULT_FLAGS[flag]
    assert adjudicate_flag("table6_A23_sq", GF(3, 2))["readings"] == {
        "alpha1": 81,
        "alpha2": 177,
    }


def test_sweep_is_deterministic():
    import json

    a = json.dumps(sweep_family(fid(3), F5), sort_keys=True)
    b = json.dumps(sweep_family(fid(3), F5), sort_keys=True)
    assert a == b


def test_sampled_sweep_respects_budget_and_seed():
    recs1 = sweep_family(fid(1), F5, budget=10, seed=42)
    recs2 = sweep_family(fid(1), F5, budget=10, seed=42)
    assert recs1 == recs2
    assert len(recs1) == 10 * 5  # five quantities per sampled point
    recs3 = sweep_family(fid(1), F5, budget=10, seed=43)
    assert [r["params"] for r in recs3] != [r["params"] for r in recs1]


def _ext_pm_product_zero(cubic, neg_b, disc, denom):
    """Reference: evaluate at the two points (neg_b ± s)/denom in the field of
    s = sqrt(disc)."""
    s, ext = sqrt_in_ext(disc)
    f = cubic.lift(ext)
    nb, dn = embed(neg_b, ext), embed(denom, ext)
    return (f((nb + s) / dn) * f((nb - s) / dn)).is_zero


def _ext_pm_target_hit(target, center, coef, radicand):
    """Reference: compare with center ± coef*s in the field of s = sqrt(radicand)."""
    s, ext = sqrt_in_ext(radicand)
    t, c, k = (embed(v, ext) for v in (target, center, coef))
    return t == c + k * s or t == c - k * s


def _pm_cubics(F, g, rng):
    """The zero cubic, a multiple of g (zero at both points), and random ones."""
    draw = lambda: F.from_index(rng.randrange(F.order))
    linear = Poly(F, [draw(), F.one])
    return [Poly(F, []), g * linear] + [Poly(F, [draw() for _ in range(4)]) for _ in range(6)]


def _pm_check(F, neg_b, disc, denom, rng):
    g = Poly(F, [neg_b * neg_b - disc, -F.el(2) * denom * neg_b, denom * denom])
    for cubic in _pm_cubics(F, g, rng):
        want = _ext_pm_product_zero(cubic, neg_b, disc, denom)
        assert _pm_product_zero(cubic, neg_b, disc, denom) == want, (cubic, neg_b, disc, denom)


@pytest.mark.parametrize("F", [F5, F7])
def test_base_field_pm_helpers_match_the_extension_exhaustively(F):
    rng = random.Random(F.order)
    els_ = list(F.elements())
    for args in itertools.product(els_, repeat=4):
        assert _pm_target_hit(*args) == _ext_pm_target_hit(*args), args
    for neg_b, disc, denom in itertools.product(els_, els_, els_[1:]):
        _pm_check(F, neg_b, disc, denom, rng)


@pytest.mark.parametrize("spec", [(11, 1), (5, 2)])
def test_base_field_pm_helpers_match_the_extension_on_seeded_tuples(spec):
    F = GF(*spec)
    rng = random.Random(spec[0] ** spec[1])
    draw = lambda: F.from_index(rng.randrange(F.order))
    for _ in range(300):
        args = (draw(), draw(), draw(), draw())
        assert _pm_target_hit(*args) == _ext_pm_target_hit(*args), args
    for _ in range(100):
        denom = draw()
        if not denom.is_zero:
            _pm_check(F, draw(), draw(), denom, rng)


def _gcd_pm_product_zero(cubic, neg_b, disc, denom):
    """The definition: the cubic shares a root with g = (denom*y - neg_b)^2 -
    disc, whose roots are the two points, when gcd(cubic, g) is not constant."""
    F = denom.field
    g = Poly(F, [neg_b * neg_b - disc, -F.el(2) * denom * neg_b, denom * denom])
    return poly_gcd(cubic, g).degree > 0


@pytest.mark.parametrize("F", [F2, F3, GF(2, 2)])
def test_pm_product_zero_is_the_gcd_test_on_every_input(F):
    """Every cubic, the zero one and those with leading zeros included, at
    every (neg_b, disc, denom), denom = 0 included."""
    els_ = list(F.elements())
    for coeffs in itertools.product(els_, repeat=4):
        cubic = Poly(F, coeffs)
        for args in itertools.product(els_, repeat=3):
            want = _gcd_pm_product_zero(cubic, *args)
            assert _pm_product_zero(cubic, *args) == want, (cubic, args)


@pytest.mark.parametrize("spec", [(7,), (3, 2), (101,), (10007,), (2, 11), ("q",)])
def test_pm_product_zero_is_the_gcd_test_on_seeded_inputs(spec):
    """Seeded inputs with small entries, so that zeros, shared roots and
    zero denominators all occur, over larger fields and Q."""
    F = QQ if spec == ("q",) else GF(*spec)
    rng = random.Random(str(spec))

    def draw():
        if rng.random() < 0.6:
            return F.el(rng.randint(-2, 2))
        if F is QQ:
            return F.el(Fraction(rng.randint(-99, 99), rng.randint(1, 9)))
        return F.from_index(rng.randrange(F.order))

    for _ in range(400):
        args = nb, disc, dn = draw(), draw(), draw()
        g = Poly(F, [nb * nb - disc, -F.el(2) * dn * nb, dn * dn])
        shared = g * Poly(F, [draw(), draw()])  # vanishes at a point whenever g does
        for cubic in (Poly(F, [draw() for _ in range(4)]), shared):
            want = _gcd_pm_product_zero(cubic, *args)
            assert _pm_product_zero(cubic, *args) == want, (cubic, args)
