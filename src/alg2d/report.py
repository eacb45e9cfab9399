"""Full structure analysis of one algebra, with JSON round-tripping.

The report bundles every quantity this package computes for a single matrix
of structure constants.  With ``closed=True`` the line quantities are
enumerated over splitting extensions (so the counts match the root-closed
theory); idempotents and quasiunits always live in the algebra's own field.
"""

from __future__ import annotations

import json

from .algebra import MSC, oracle_enumerate, oracle_points, LineSet
from .fields import InfiniteField, parse_field
from .solvers import (
    AffineSolutionSet,
    IdempotentSet,
    ideal_splitting,
    idempotents,
    is_simple,
    left_ideals,
    left_quasiunits,
    right_ideals,
    simple_by_cases_extended,
    subalgebra_count_closed,
    subalgebra_roots,
    subalgebra_splitting,
    subalgebras,
    two_sided_ideals,
)
from .sweep import OracleMismatch


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
        return {
            "field": self.field.text(),
            "msc": self.msc.text(),
            "closed": self.closed,
            "subalgebras": {
                "field": self.line_fields["subalgebras"].text(),
                **self.subalgebras.to_json(),
            },
            "subalgebra_category_closed": self.subalgebra_category_closed,
            "idempotents": self.idempotent_set.to_json(),
            "left_ideals": {
                "field": self.line_fields["left"].text(),
                **self.left.to_json(),
            },
            "right_ideals": {
                "field": self.line_fields["right"].text(),
                **self.right.to_json(),
            },
            "two_sided": {
                "field": self.line_fields["two_sided"].text(),
                **self.two_sided.to_json(),
            },
            "simple": self.simple,
            "quasiunits": self.quasiunits.to_json(),
            "splitting_fields_used": self.splitting_fields_used,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, data: dict) -> "AnalysisReport":
        field = parse_field(data["field"])
        msc = MSC.parse(field, data["msc"])
        line_fields = {}
        linesets = {}
        for key, name in (
            ("subalgebras", "subalgebras"),
            ("left_ideals", "left"),
            ("right_ideals", "right"),
            ("two_sided", "two_sided"),
        ):
            part = dict(data[key])
            sub_field = parse_field(part.pop("field"))
            line_fields[name] = sub_field
            linesets[name] = LineSet.from_json(sub_field, part)
        return cls(
            field=field,
            msc=msc,
            closed=data["closed"],
            line_fields=line_fields,
            subalgebras=linesets["subalgebras"],
            subalgebra_category_closed=data["subalgebra_category_closed"],
            idempotent_set=IdempotentSet.from_json(field, data["idempotents"]),
            left=linesets["left"],
            right=linesets["right"],
            two_sided=linesets["two_sided"],
            simple=data["simple"],
            quasiunits=AffineSolutionSet.from_json(field, data["quasiunits"]),
        )


def analyze(A: MSC, closed: bool = False, oracle: bool = False) -> AnalysisReport:
    """Compute the full report; `closed` lifts line quantities to splitting fields,
    `oracle` re-derives every quantity by exhaustive search and insists on equality."""
    F = A.field
    line_fields = {q: F for q in ("subalgebras", "left", "right", "two_sided")}
    if closed and not F.is_finite:
        raise InfiniteField("closed-field analysis needs a finite field")
    # one root search of the subalgebra cubic in F serves every solver below
    found = subalgebra_roots(A)
    if closed:
        line_fields["subalgebras"] = F if found[1] == 0 else subalgebra_splitting(A)
        ext = ideal_splitting(A)
        for q in ("left", "right", "two_sided"):
            line_fields[q] = ext

    def lifted(q):
        return A.lift(line_fields[q]) if line_fields[q] != F else A

    sub_found = found if line_fields["subalgebras"] == F else None
    parts = {
        "subalgebras": subalgebras(lifted("subalgebras"), sub_found),
        "left": left_ideals(lifted("left")),
        "right": right_ideals(lifted("right")),
        "two_sided": two_sided_ideals(lifted("two_sided")),
    }
    if F.is_finite:
        closed_cat = subalgebra_count_closed(A, found).label
        simple = is_simple(A)
    else:
        closed_cat = None
        simple = simple_by_cases_extended(A)
    idem = idempotents(A, found)
    quasi = left_quasiunits(A)

    if oracle:
        if not F.is_finite:
            raise InfiniteField("the brute-force oracle needs a finite field")
        for q, got in parts.items():
            expect = oracle_enumerate(lifted(q), q)
            if expect != got:
                raise OracleMismatch(f"{q} of {A.text()} disagrees with the oracle")
        if idem.materialize() != oracle_points(A, "idempotents"):
            raise OracleMismatch(f"idempotents of {A.text()} disagree with the oracle")
        if quasi.materialize(F) != oracle_points(A, "quasiunits"):
            raise OracleMismatch(f"quasiunits of {A.text()} disagree with the oracle")

    return AnalysisReport(
        field=F,
        msc=A,
        closed=closed,
        line_fields=line_fields,
        subalgebras=parts["subalgebras"],
        subalgebra_category_closed=closed_cat,
        idempotent_set=idem,
        left=parts["left"],
        right=parts["right"],
        two_sided=parts["two_sided"],
        simple=simple,
        quasiunits=quasi,
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
    if F.is_finite or idem.family is None or idem.family.is_zero:
        mem = idem.materialize()
        lines.append(
            "idempotents: " + (", ".join(u.text() for u in mem) if mem else "none")
        )
    else:
        lines.append(f"idempotents: family with eigenvalue {idem.family.text()}")
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
        n = q.normalized()
        lines.append(
            f"left quasiunits: {n.base.text()} + t*({n.direction.text()}) for all t"
        )
    else:
        lines.append("left quasiunits: every element")
    return "\n".join(lines)
