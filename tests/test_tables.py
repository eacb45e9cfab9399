import itertools
import random

import pytest

from alg2d import GF, Element, FieldMismatch, Poly, RootCount
from alg2d.fields import embed
from alg2d.poly import sqrt_in_ext
from alg2d.families import FamilyId, Regime, RegimeMismatch
from alg2d.solvers import AffineSolutionSet
from alg2d.sweep import adjudicate_flag, mismatch_records, sweep_family, verify_point
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


def test_every_mismatch_carries_oracle_confirmation():
    records = sweep_family(fid(2), F5)
    bad = mismatch_records(records)
    assert bad, "the A2 ideal rows are known to disagree with the solver somewhere"
    for rec in bad:
        assert rec["oracle"] is not None
        assert rec["citation"]


def test_verify_point_splits_the_ideal_systems_once(monkeypatch):
    """Oracle rechecks of ideal counts reuse the point's lifted algebra and lines."""
    from alg2d import solvers
    from alg2d.sweep import _param_grid

    calls = []
    split = solvers.ideal_splitting
    monkeypatch.setattr(solvers, "ideal_splitting", lambda A: calls.append(A) or split(A))
    rechecked = 0
    for params in _param_grid(F5, 3, "exhaustive", 0):
        calls.clear()
        records = verify_point(fid(2), params, F5)
        assert len(calls) == 1
        rechecked += any(
            r["oracle"] is not None and r["quantity"] in ("left", "right", "two_sided")
            for r in records
        )
    assert rechecked


def test_verify_point_searches_the_subalgebra_cubic_once(monkeypatch):
    """One root search of the subalgebra cubic over F serves the solved count,
    the oracle recheck's splitting field and, when the cubic splits in F, the
    solver's lines of that recheck."""
    from alg2d import solvers, sweep
    from alg2d.sweep import _param_grid

    calls = []

    def counted(fn):
        return lambda x: calls.append(x.field) or fn(x)

    roots = counted(solvers.subalgebra_roots)
    monkeypatch.setattr(solvers, "subalgebra_roots", roots)
    monkeypatch.setattr(sweep, "subalgebra_roots", roots, raising=False)
    monkeypatch.setattr(solvers, "distinct_root_count", counted(solvers.distinct_root_count))
    rechecked = 0
    for params in _param_grid(F7, 4, 300, 0):
        calls.clear()
        records = verify_point(fid(1), params, F7)
        assert calls.count(F7) == 1, [c.text() for c in params]
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
    from alg2d.solvers import subalgebra_roots

    F = GF(*field)
    params = tuple(F.el(c) for c in params)
    assert subalgebra_roots(instantiate(family, params, F)).count >= 2
    verify_point(family, params, F)  # fills the square-root and embedding caches
    calls = []
    split = poly._split
    monkeypatch.setattr(poly, "_split", lambda F, g: calls.append(g) or split(F, g))
    records = verify_point(family, params, F)
    assert records[0]["quantity"] == "subalgebras" and records[0]["oracle"] is None
    assert calls == []


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
    return [Poly.zero(F), g * linear] + [Poly(F, [draw() for _ in range(4)]) for _ in range(6)]


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
