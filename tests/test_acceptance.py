"""Acceptance suite: one test per criterion, each printing a PASS line with timing.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import random
import time

from alg2d import (
    GF,
    Element,
    MSC,
    Poly,
    ProjPoint,
    LineSet,
    RootCount,
    cubic_root_count,
    distinct_root_count,
    idempotents,
    is_simple,
    left_ideal_system,
    left_ideals,
    left_quasiunits,
    oracle_enumerate,
    oracle_points,
    poly_gcd,
    right_ideal_system,
    right_ideals,
    roots_in_field,
    simple_by_cases_extended,
    splitting_field,
    subalgebra_count_closed,
    subalgebras,
    two_sided_ideals,
)
from alg2d.algebra import all_mscs, msc_from_index
from alg2d.families import Regime, all_family_ids
from alg2d.report import analyze
from alg2d.solvers import ideal_splitting
from alg2d.sweep import (
    FLAG_ROWS,
    adjudicate_flag,
    mismatch_records,
    sweep_all,
    sweep_family,
)
from alg2d.tables import predict_left_line_count, predict_right_line_count


def _passline(name, detail, t0):
    print(f"{name}: PASS ({detail}, {time.time() - t0:.1f}s)")


def _census_digest(field) -> str:
    """Canonical JSON of solver vs oracle structure sets for every MSC."""
    rows = []
    for A in all_mscs(field):
        solver = {
            "subalgebras": subalgebras(A).to_json(),
            "left": left_ideals(A).to_json(),
            "right": right_ideals(A).to_json(),
            "two_sided": two_sided_ideals(A).to_json(),
            "idempotents": [u.to_json() for u in idempotents(A).materialize()],
            "quasiunits": [u.to_json() for u in left_quasiunits(A).materialize(field)],
        }
        rows.append({"msc": A.text(), "solver": solver})
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def test_c1_exhaustive_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for field in (GF(2), GF(3)):
        for A in all_mscs(field):
            assert subalgebras(A) == oracle_enumerate(A, "subalgebras"), A.text()
            assert left_ideals(A) == oracle_enumerate(A, "left"), A.text()
            assert right_ideals(A) == oracle_enumerate(A, "right"), A.text()
            assert two_sided_ideals(A) == oracle_enumerate(A, "two_sided"), A.text()
            assert idempotents(A).materialize() == oracle_points(A, "idempotents"), A.text()
            assert left_quasiunits(A).materialize(field) == oracle_points(
                A, "quasiunits"
            ), A.text()
            checked += 1
    elapsed = time.time() - t0
    assert checked == 2**8 + 3**8
    assert elapsed < 60, f"census took {elapsed:.1f}s (limit 60s)"
    _passline("C1 oracle equivalence", f"{checked} algebras, 6 structure kinds each", t0)


def test_c2_cubic_classifier_against_splitting_fields():
    t0 = time.time()
    checked = 0
    for field in (GF(2), GF(3), GF(5), GF(2, 2)):
        for a, b, c, d in itertools.product(field.elements(), repeat=4):
            got = cubic_root_count(a, b, c, d)
            f = Poly(field, [d, c, b, a])
            if f.is_zero:
                assert got is RootCount.INFINITE
            else:
                ext, _ = splitting_field(f)
                roots = roots_in_field(f.lift(ext))
                assert got is RootCount.of(len(roots)), (
                    field.text(),
                    [x.text() for x in (a, b, c, d)],
                )
            checked += 1
    elapsed = time.time() - t0
    assert checked == 16 + 81 + 625 + 256
    assert elapsed < 10, f"classifier check took {elapsed:.1f}s (limit 10s)"
    _passline("C2 cubic classifier", f"{checked} coefficient tuples", t0)


def test_c3_published_spot_values():
    t0 = time.time()
    F5, F7, F11 = GF(5), GF(7), GF(11)

    A12 = MSC.from_ints(F5, [0, 0, 0, 0], [1, 0, 0, 0])
    assert subalgebras(A12) == LineSet.of([ProjPoint.e2()])
    assert idempotents(A12).is_empty()
    assert len(left_ideals(A12).points) == 1
    assert len(right_ideals(A12).points) == 1
    assert len(two_sided_ideals(A12).points) == 1
    assert left_quasiunits(A12).kind == "empty"

    A10 = MSC.from_ints(F7, [0, 1, 1, 0], [0, 0, 0, -1])
    assert subalgebras(A10) == LineSet.of([ProjPoint.e2(), ProjPoint.affine(F7.zero)])
    assert idempotents(A10).materialize() == [Element(F7.zero, -F7.one)]
    q = left_quasiunits(A10)
    assert q.kind == "point" and q.point == Element(F7.zero, -F7.one)

    A11 = MSC.from_ints(F11, [0, 1, 1, 0], [1, 0, 0, -1])
    assert subalgebra_count_closed(A11) is RootCount.THREE
    assert len(left_ideals(A11).points) == 0
    assert len(right_ideals(A11).points) == 0
    assert is_simple(A11)
    # ... and over GF(5), where the slopes only exist in the quadratic extension
    A11_5 = MSC.from_ints(F5, [0, 1, 1, 0], [1, 0, 0, -1])
    assert subalgebra_count_closed(A11_5) is RootCount.THREE
    assert is_simple(A11_5)

    third = F5.el(3).inv()  # 1/3 = 2 mod 5
    A8 = MSC(
        F5,
        [third, F5.zero, F5.zero, F5.zero],
        [F5.zero, F5.one - third, -third, F5.zero],
    )
    assert subalgebra_count_closed(A8) is RootCount.INFINITE
    ids = idempotents(A8)
    assert ids.family is not None
    assert ids.materialize() == sorted(
        (Element(F5.el(3), t) for t in F5.elements()), key=lambda u: u.sort_key()
    )

    for v in (1, 2, 3, 4):
        a1 = F5.el(v)
        A2 = MSC(
            F5, [a1, F5.zero, F5.zero, F5.one], [F5.zero, a1, F5.one - a1, F5.zero]
        )
        q = left_quasiunits(A2)
        assert q.kind == "point" and q.point == Element(a1.inv(), F5.zero)

    elapsed = time.time() - t0
    assert elapsed < 5, f"spot values took {elapsed:.1f}s (limit 5s)"
    _passline("C3 published spot values", "A12, A10, A11, A8(1/3), A2(a,0,a)", t0)


SWEEP_FIELDS = {
    Regime.NE23: [GF(5)],
    Regime.CHAR2: [GF(2), GF(2, 2)],
    Regime.CHAR3: [GF(3), GF(3, 2)],
}


def _mismatch_key(rec):
    return (
        rec["family"],
        tuple(rec["params"]),
        rec["quantity"],
        rec["predicted"],
        rec["solved"],
        rec["citation"],
    )


def test_c4_table_sweep_with_erratum_adjudication():
    t0 = time.time()
    all_records = {}
    for regime, fields in SWEEP_FIELDS.items():
        for field in fields:
            all_records[field.text()] = sweep_all(field)
    # stability: a full second pass must reproduce the mismatch list exactly
    for regime, fields in SWEEP_FIELDS.items():
        for field in fields:
            again = sweep_all(field)
            first = sorted(map(_mismatch_key, mismatch_records(all_records[field.text()])))
            second = sorted(map(_mismatch_key, mismatch_records(again)))
            assert first == second, f"mismatch list unstable over {field.text()}"
    # every mismatch carries an oracle confirmation (verify_point would have
    # raised OracleMismatch otherwise, so presence of the field is the record)
    total_bad = 0
    for recs in all_records.values():
        for rec in mismatch_records(recs):
            assert rec["oracle"] is not None
            assert rec["citation"]
            total_bad += 1
    total = sum(len(r) for r in all_records.values())
    # the published ambiguities must each resolve to exactly one reading once
    # the mismatch counts of both regime fields are combined
    resolved = {}
    for flag, (_, regime, _) in FLAG_ROWS.items():
        combined = {}
        for field in SWEEP_FIELDS[regime]:
            counts = adjudicate_flag(flag, field)["readings"]
            for choice, n in counts.items():
                combined[choice] = combined.get(choice, 0) + n
        ranked = sorted(combined.items(), key=lambda kv: kv[1])
        assert ranked[0][1] < ranked[1][1], f"{flag} is not uniquely resolved: {combined}"
        resolved[flag] = ranked[0][0]
    assert resolved == {
        "left_char3_P": "left",
        "twosided_char3_A1_b1": "alpha1",
        "table2_A23_one": "alpha1",
        "table1_A1_disc": "with3",
        "table6_A23_sq": "alpha1",
    }
    # the two-parameter reading of the A3 subalgebra row is consistent as-is
    for rec in all_records["gf(5)"]:
        if rec["family"] == "A3" and rec["quantity"] == "subalgebras":
            assert rec["verdict"] == "agree"
    elapsed = time.time() - t0
    assert elapsed < 600, f"table sweep took {elapsed:.1f}s (limit 600s)"
    _passline(
        "C4 table sweep",
        f"{total} predictions, {total_bad} documented catalogue mismatches, "
        f"5 readings adjudicated",
        t0,
    )


def test_c5_proposition_predicates():
    t0 = time.time()

    def check_props(A, odd_char):
        l1, l2 = left_ideal_system(A)
        r1, r2 = right_ideal_system(A)
        if odd_char:
            assert predict_left_line_count(A) is distinct_root_count(poly_gcd(l1, l2)), A.text()
        assert predict_right_line_count(A) is distinct_root_count(poly_gcd(r1, r2)), A.text()
        ext = ideal_splitting(A)
        lifted = A.lift(ext) if ext != A.field else A
        lines = two_sided_ideals(lifted)
        empty = not lines.is_all and len(lines.points) == 0
        assert simple_by_cases_extended(A) == empty, A.text()

    checked = 0
    for A in all_mscs(GF(3)):
        check_props(A, odd_char=True)
        checked += 1
    for A in all_mscs(GF(2)):
        check_props(A, odd_char=False)
        checked += 1
    for A in all_mscs(GF(2, 2)):
        check_props(A, odd_char=False)
        checked += 1
    rng = random.Random(2024)
    F5, F25 = GF(5), GF(5, 2)
    for _ in range(60000):
        check_props(msc_from_index(F5, rng.randrange(F5.order**8)), odd_char=True)
        checked += 1
    for _ in range(40000):
        check_props(msc_from_index(F25, rng.randrange(F25.order**8)), odd_char=True)
        checked += 1
    elapsed = time.time() - t0
    assert checked == 3**8 + 2**8 + 4**8 + 100_000
    assert elapsed < 300, f"proposition check took {elapsed:.1f}s (limit 300s)"
    _passline("C5 proposition predicates", f"{checked} algebras", t0)


def test_c6_simplicity_census():
    t0 = time.time()
    always_simple = {(Regime.NE23, 6), (Regime.NE23, 7), (Regime.NE23, 11)}
    never_simple = {(Regime.CHAR3, 11)}
    for regime, fields in SWEEP_FIELDS.items():
        for field in fields:
            for fam in all_family_ids(regime):
                for rec in sweep_family(fam, field):
                    if rec["quantity"] != "two_sided":
                        continue
                    solved_simple = rec["solved"] == "0"
                    predicted_simple = rec["predicted"] == "0"
                    if rec["verdict"] == "agree":
                        assert solved_simple == predicted_simple
                    else:
                        # documented mismatch: the record itself is the evidence
                        assert rec["oracle"] is not None
                    key = (regime, fam.index)
                    if key in always_simple:
                        assert solved_simple, rec
                    if key in never_simple:
                        assert not solved_simple, rec
    elapsed = time.time() - t0
    _passline("C6 simplicity census", "0-ideal columns match modulo documented list", t0)


def test_c7_determinism():
    t0 = time.time()
    # census reports
    assert _census_digest(GF(2)) == _census_digest(GF(2))
    # sweep reports with the same seed
    a = json.dumps(sweep_all(GF(5), budget=200, seed=7), sort_keys=True)
    b = json.dumps(sweep_all(GF(5), budget=200, seed=7), sort_keys=True)
    assert a == b
    # analysis reports
    for msc_text in ("0,0,0,0;1,0,0,0", "0,1,1,0;1,0,0,4"):
        r1 = analyze(MSC.parse(GF(5), msc_text), closed=True, oracle=True).dumps()
        r2 = analyze(MSC.parse(GF(5), msc_text), closed=True, oracle=True).dumps()
        assert r1 == r2
    # proposition-predicate sample digests with a fixed seed
    def prop_digest():
        rng = random.Random(99)
        F25 = GF(5, 2)
        rows = []
        for _ in range(300):
            A = msc_from_index(F25, rng.randrange(F25.order**8))
            rows.append(
                {
                    "msc": A.text(),
                    "left": predict_left_line_count(A).label,
                    "right": predict_right_line_count(A).label,
                    "simple": simple_by_cases_extended(A),
                }
            )
        return json.dumps(rows, sort_keys=True, separators=(",", ":"))

    assert prop_digest() == prop_digest()
    _passline("C7 determinism", "census, sweep, analysis and predicate digests", t0)
