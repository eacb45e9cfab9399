"""Full structure analysis of one algebra, with JSON round-tripping.

The report bundles every quantity this package computes for a single matrix
of structure constants.  The algebra is lifted at most once per field: to
`solvers.ideal_closure`, where its ideal systems split, and with
``closed=True`` to the splitting field of its subalgebra cubic.  Each line
quantity is solved once on its lifted algebra, and simplicity and the oracle
reuse that answer; idempotents and quasiunits live in the algebra's own field.
"""

from __future__ import annotations

import json

from .algebra import MSC, LineSet, oracle_check
from .fields import FieldError, InfiniteField, parse_field
from .solvers import (
    AffineSolutionSet,
    IdempotentSet,
    ideal_closure,
    idempotents,
    is_simple,
    left_ideals,
    left_quasiunits,
    right_ideals,
    subalgebra_closure,
    subalgebra_count_closed,
    subalgebra_roots,
    subalgebras,
    two_sided_ideals,
)

# Largest field order the oracle runs on.  It scans all q^2 elements and up
# to q^3 + 1 lines of a splitting field: a closed oracle analysis over GF(25)
# with an irreducible subalgebra cubic scans the 15626 lines of GF(5^6) in
# about 1.0 s on a 2-core host.  The tests and the README stop at GF(11).
ORACLE_LIMIT = 25
# Largest field order whose idempotent families the text report lists member
# by member; above it, as over Q, it names the eigenvalue polynomial.
LISTING_LIMIT = 1024


def dumps(obj) -> str:
    """Compact JSON with sorted keys, the one encoding of every printed record."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# (JSON key, attribute) of the four line quantities
_LINE_PARTS = (
    ("subalgebras", "subalgebras"),
    ("left_ideals", "left"),
    ("right_ideals", "right"),
    ("two_sided", "two_sided"),
)


class AnalysisReport:
    """Everything known about one algebra, serialisable to and from JSON."""

    __slots__ = (
        "field",
        "msc",
        "closed",
        "line_fields",
        "subalgebras",
        "subalgebra_category_closed",
        "idempotent_set",
        "left",
        "right",
        "two_sided",
        "simple",
        "quasiunits",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def splitting_fields_used(self) -> list[str]:
        used = sorted({f.text() for f in self.line_fields.values()})
        return [t for t in used if t != self.field.text()]

    def __eq__(self, other):
        if not isinstance(other, AnalysisReport):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def to_json(self) -> dict:
        data = {
            "field": self.field.text(),
            "msc": self.msc.text(),
            "closed": self.closed,
            "subalgebra_category_closed": self.subalgebra_category_closed,
            "idempotents": self.idempotent_set.to_json(),
            "simple": self.simple,
            "quasiunits": self.quasiunits.to_json(),
            "splitting_fields_used": self.splitting_fields_used,
        }
        for key, name in _LINE_PARTS:
            data[key] = {"field": self.line_fields[name].text(), **getattr(self, name).to_json()}
        return data

    def dumps(self) -> str:
        return dumps(self.to_json())

    @classmethod
    def from_json(cls, data: dict) -> "AnalysisReport":
        field = parse_field(data["field"])
        lines = {"line_fields": {}}
        for key, name in _LINE_PARTS:
            part = dict(data[key])
            lines["line_fields"][name] = sub_field = parse_field(part.pop("field"))
            lines[name] = LineSet.from_json(sub_field, part)
        return cls(
            field=field,
            msc=MSC.parse(field, data["msc"]),
            closed=data["closed"],
            subalgebra_category_closed=data["subalgebra_category_closed"],
            idempotent_set=IdempotentSet.from_json(field, data["idempotents"]),
            simple=data["simple"],
            quasiunits=AffineSolutionSet.from_json(field, data["quasiunits"]),
            **lines,
        )


def analyze(A: MSC, closed: bool = False, oracle: bool = False) -> AnalysisReport:
    """Compute the full report; `closed` lifts line quantities to splitting fields,
    `oracle` re-derives every quantity by exhaustive search and insists on equality."""
    F = A.field
    if closed and not F.is_finite:
        raise InfiniteField("closed-field analysis needs a finite field")
    if oracle and not F.is_finite:
        raise InfiniteField("the brute-force oracle needs a finite field")
    if oracle and F.order > ORACLE_LIMIT:
        raise FieldError(
            f"the brute-force oracle runs on fields of order at most {ORACLE_LIMIT}, "
            f"and {F.text()} has {F.order} elements"
        )
    # one root search of the subalgebra cubic in F serves every solver below
    found = subalgebra_roots(A)
    closure = ideal_closure(A) if F.is_finite else A
    ideal_A = closure if closed else A
    sub = subalgebra_closure(A, found, closure) if closed else (A, subalgebras(A, found))
    # each line quantity with the algebra it was solved on
    parts = {
        "subalgebras": sub,
        "left": (ideal_A, left_ideals(ideal_A)),
        "right": (ideal_A, right_ideals(ideal_A)),
        "two_sided": (ideal_A, two_sided_ideals(ideal_A)),
    }
    two_sided = parts["two_sided"][1] if ideal_A is closure else two_sided_ideals(closure)
    closed_cat = subalgebra_count_closed(A, found).label if F.is_finite else None
    simple = is_simple(A, two_sided)
    idem = idempotents(A, found)
    quasi = left_quasiunits(A)

    if oracle:
        for q, (B, got) in parts.items():
            oracle_check(B, q, got)
        oracle_check(A, "idempotents", idem.materialize())
        oracle_check(A, "quasiunits", quasi.materialize(F))

    return AnalysisReport(
        field=F,
        msc=A,
        closed=closed,
        line_fields={q: B.field for q, (B, _) in parts.items()},
        subalgebra_category_closed=closed_cat,
        idempotent_set=idem,
        simple=simple,
        quasiunits=quasi,
        **{q: lines for q, (_, lines) in parts.items()},
    )


def render_text(report: AnalysisReport) -> str:
    """Human-readable rendering of an analysis report."""
    F = report.field
    lines = [f"algebra {report.msc.text()} over {F.text()}"]

    def describe_lines(name, ls, fld):
        where = "" if fld == F else f" (over {fld.text()})"
        if ls.is_all:
            return f"{name}{where}: all lines"
        pts = ls.sorted_points()
        if not pts:
            return f"{name}{where}: none"
        return f"{name}{where}: " + ", ".join(p.text() for p in pts)

    lines.append(describe_lines("subalgebras", report.subalgebras,
                                report.line_fields["subalgebras"]))
    if report.subalgebra_category_closed is not None:
        lines.append(f"subalgebra count over closure: {report.subalgebra_category_closed}")
    idem = report.idempotent_set
    listed = F.is_finite and F.order <= LISTING_LIMIT
    if listed or idem.family is None or idem.family.is_zero:
        mem = idem.materialize()
        lines.append(
            "idempotents: " + (", ".join(u.text() for u in mem) if mem else "none")
        )
    else:
        e2 = "" if idem.e2_point is None else f" and the point {idem.e2_point.text()}"
        lines.append(f"idempotents: family with eigenvalue {idem.family.text()}{e2}")
    lines.append(describe_lines("left ideals", report.left, report.line_fields["left"]))
    lines.append(describe_lines("right ideals", report.right, report.line_fields["right"]))
    lines.append(describe_lines("two-sided ideals", report.two_sided,
                                report.line_fields["two_sided"]))
    lines.append(f"simple: {'yes' if report.simple else 'no'}")
    q = report.quasiunits
    if q.kind == "empty":
        lines.append("left quasiunits: none")
    elif q.kind == "point":
        lines.append(f"left quasiunits: {q.point.text()}")
    elif q.kind == "line":
        lines.append(f"left quasiunits: {q.base.text()} + t*({q.direction.text()}) for all t")
    else:
        lines.append("left quasiunits: every element")
    return "\n".join(lines)
