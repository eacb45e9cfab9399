"""Sweep harness: catalogued predictions vs closed-form solver vs brute oracle.

For every parameter point of a canonical family the harness computes the
solver's counts over the root closure, evaluates the table predictions, and
emits one record per quantity.  The counts are read off the coefficients
of polynomials over the point's own field (`solvers.line_count_closed`),
with no root search and no extension field.  A mismatching record is
re-checked against the brute-force oracle on `solvers.closure(A,
quantity)`, the algebra lifted to the field where the solver lists the
lines of the root closure, made at most once per field and only for a
recheck, the one step that searches roots.  If the oracle sides with the
solver the record documents a defect in the catalogued tables (reported,
exit status unaffected); if the oracle disagrees with the solver an
OracleMismatch is raised: that would be a bug in this package.  A recheck
whose scan would pass `RECHECK_LIMIT` is not run, and the record's oracle
reads "skipped"; that is decided from `solvers.closure_field`, before any
lift.
"""

from __future__ import annotations

import random
import sys

from .algebra import MSC, oracle_check
from .fields import Field, FieldError
from .families import ARITY, FamilyId, Regime, all_family_ids, instantiate
from .solvers import (
    closure,
    closure_field,
    left_ideals,
    left_quasiunits,
    line_count_closed,
    right_ideals,
    root_search,
    subalgebra_count_closed,
    subalgebras,
    two_sided_ideals,
)
from .tables import FLAGS, predict_count, predict_quasiunits

COUNT_QUANTITIES = ("subalgebras", "left", "right", "two_sided")


def _oracle_check(lifted: MSC, quantity: str, solver_lines) -> str:
    """The oracle's count label for the lines of an algebra already lifted to
    its splitting extension, insisting that they equal the solver's lines
    there: 'inf' when the kind's slope polynomial is zero, so that every slope
    qualifies over every extension, else the number of lines.  A finite set
    can hold every line of a small plane: all three over GF(2)."""
    lines = oracle_check(lifted, quantity, solver_lines)
    if root_search(lifted, quantity).f.is_zero:
        return "inf"
    return str(lifted.field.order + 1 if lines.is_all else len(lines.points))


# Largest scan one oracle recheck makes: the order of the field whose lines it
# tests (one line per element, plus F(e2)), or q^2 for the elements of F^2 a
# quasiunit recheck tests.  A recheck over GF(101^2) tests 10202 lines in
# about 0.2-0.3 s on a 2-core host, and the limit admits GF(139^2) (about
# 0.25-0.55 s) and GF(27^3).
RECHECK_LIMIT = 2 * 10**4


# Most parameter points one sweep visits, whether it walks the whole grid or
# samples it.  The largest exhaustive grid in the tests and the README is
# A1's GF(9)^4 = 6561 points; a larger grid must be sampled with a budget.
GRID_LIMIT = 10**5


def _param_grid(field: Field, n: int, budget, seed: int):
    total = field.order**n
    if (total if budget == "exhaustive" else min(budget, total)) > GRID_LIMIT:
        raise FieldError(
            f"{n} parameters over {field.text()} make a grid of {total} points, "
            f"and a sweep visits at most {GRID_LIMIT}: pass --budget N "
            f"with N <= {GRID_LIMIT}"
        )
    if budget == "exhaustive" or total <= budget:
        indices = range(total)
    elif total > sys.maxsize:  # random.sample cannot index a longer range
        raise FieldError(
            f"cannot sample {n} parameters over {field.text()}: "
            f"a sampled grid holds at most {sys.maxsize} points"
        )
    else:
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(total), budget))
    for idx in indices:
        yield field.index_digits(idx, n)


def verify_point(family: FamilyId, params, field: Field) -> list[dict]:
    """All five quantity records for one (family, parameter) point."""
    A = instantiate(family, params, field)
    solved_counts = {"subalgebras": subalgebra_count_closed(A)}
    solved_counts.update((q, line_count_closed(A, q)) for q in COUNT_QUANTITIES[1:])
    # (quantity, predicted, solved, agree, citation) per quantity
    rows = []
    for quantity in COUNT_QUANTITIES:
        pred = predict_count(quantity, family, params, field)
        solved = solved_counts[quantity]
        if pred.category is None:
            predicted = "ambiguous" if pred.matched else "none"
        else:
            predicted = pred.category.label
        citation = ";".join(pred.matched) if pred.matched else "none"
        rows.append((quantity, predicted, solved.label, pred.category == solved, citation))
    predicted_set, cell = predict_quasiunits(family, params, field)
    solved_set = left_quasiunits(A)
    rows.append((
        "quasiunits",
        _qu_label(predicted_set),
        _qu_label(solved_set),
        predicted_set == solved_set,
        cell or "none",
    ))
    def recheck(quantity: str) -> str:
        """The oracle's verdict on a point where the table and the solver part,
        or "skipped" when its scan would pass `RECHECK_LIMIT`."""
        if quantity == "quasiunits":
            if field.order**2 > RECHECK_LIMIT:
                return "skipped"
            return f"{len(oracle_check(A, quantity, solved_set.materialize(field)))} points"
        if closure_field(A, quantity).order > RECHECK_LIMIT:
            return "skipped"
        lifted = closure(A, quantity)
        solve = {"subalgebras": subalgebras, "left": left_ideals, "right": right_ideals}
        return _oracle_check(lifted, quantity, solve.get(quantity, two_sided_ideals)(lifted))

    base = {
        "family": family.name(),
        "regime": family.regime.value,
        "params": [c.text() for c in params],
    }
    return [
        {
            **base,
            "quantity": quantity,
            "predicted": predicted,
            "solved": solved,
            "oracle": None if agree else recheck(quantity),
            "verdict": "agree" if agree else "mismatch",
            "citation": citation,
        }
        for quantity, predicted, solved, agree, citation in rows
    ]


def _qu_label(s) -> str:
    if s.kind == "point":
        return f"point({s.point.x.text()},{s.point.y.text()})"
    if s.kind == "line":
        return (
            f"line({s.base.x.text()},{s.base.y.text()};"
            f"{s.direction.x.text()},{s.direction.y.text()})"
        )
    return s.kind


def sweep_family(family: FamilyId, field: Field, budget="exhaustive", seed: int = 0) -> list[dict]:
    """Verify a whole family; exhaustive over the parameter grid when it fits."""
    records = []
    for params in _param_grid(field, ARITY[family.index], budget, seed):
        records.extend(verify_point(family, params, field))
    return records


def sweep_all(field: Field, budget="exhaustive", seed: int = 0) -> list[dict]:
    records = []
    for family in all_family_ids(Regime.of_field(field)):
        records.extend(sweep_family(family, field, budget, seed))
    return records


def mismatch_records(records: list[dict]) -> list[dict]:
    return [r for r in records if r["verdict"] != "agree"]


# Rows governed by each ambiguous-reading flag: (quantity, regime, family index).
FLAG_ROWS = {flag: row[:3] for flag, row in FLAGS.items()}


def adjudicate_flag(flag: str, field: Field, budget="exhaustive", seed: int = 0) -> dict:
    """Mismatch counts of a flagged table row under each candidate reading."""
    quantity, regime, index, readings = FLAGS[flag]
    if Regime.of_field(field) != regime:
        raise ValueError(f"flag {flag} needs a field of regime {regime.value}")
    family = FamilyId(index, regime)
    # the solved count does not depend on the reading: solve each point once
    solved = [
        (params, line_count_closed(instantiate(family, params, field), quantity))
        for params in _param_grid(field, ARITY[index], budget, seed)
    ]
    counts = {}
    for choice in readings:
        counts[choice] = sum(
            predict_count(quantity, family, params, field, {flag: choice}).category != count
            for params, count in solved
        )
    ranked = sorted(counts.items(), key=lambda kv: kv[1])
    verdict = ranked[0][0] if ranked[0][1] < ranked[1][1] else "tie"
    return {"flag": flag, "readings": counts, "verdict": verdict}

