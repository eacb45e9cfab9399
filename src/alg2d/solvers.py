"""Closed-form enumeration of the structures of a two-dimensional algebra.

Every quantity is derived from small polynomial systems in the slope y of a
candidate line F(e1 + y*e2), plus an explicit side condition for the line
F(e2):

  subalgebras  -- the cubic `subalgebra_poly`;
  idempotents  -- the same cubic scaled through `eigenvalue_poly`;
  left ideals  -- the pair `left_ideal_system`, F(e2) when a2 = a4 = 0;
  right ideals -- the pair `right_ideal_system`, F(e2) when a3 = a4 = 0;
  two-sided    -- all four polynomials at once, F(e2) when a2 = a3 = a4 = 0;
  quasiunits   -- an 8x2 linear system in the coordinates of the candidate.

Callers solve each system once: the root search of the cubic passes in as
`found`, and the ideal lines of `ideal_closure(A)`, where all four
quadratics split, as `is_simple`'s `two_sided`.  `subalgebra_closure` lifts
A to the cubic's splitting field, reusing the ideal closure when the two
fields agree.

The module also carries transcriptions of the published count predicates
(`predict_left_line_count`, `predict_right_line_count`, `simple_by_cases`)
used as independent predictors; the generic solver is the ground truth they
are compared against.
"""

from __future__ import annotations

from .algebra import (
    Element,
    LineSet,
    MSC,
    ProjPoint,
    basis,
    mul,
)
from .fields import GF, Fel, Field, FieldError, InfiniteField
from .poly import (
    Poly,
    RootCount,
    RootSearch,
    distinct_root_count,
    joint_quadratic_splitting,
    poly_gcd,
    roots_in_field,
)


class WrongCharacteristic(FieldError):
    pass


class InternalInconsistency(Exception):
    """Two of this package's own derivations disagree: an implementation bug."""


# ---------------------------------------------------------------------------
# The defining polynomials.

def subalgebra_poly(A: MSC) -> Poly:
    """Cubic whose roots y give the subalgebra lines F(e1 + y*e2)."""
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    return Poly(A.field, [-b1, a1 - b2 - b3, a2 + a3 - b4, a4])


def eigenvalue_poly(A: MSC) -> Poly:
    """Quadratic giving u^2 = c*u with c = a4*y^2 + (a2+a3)*y + a1 along u = e1+y*e2."""
    a1, a2, a3, a4 = A.alpha
    return Poly(A.field, [a1, a2 + a3, a4])


def left_ideal_system(A: MSC) -> tuple[Poly, Poly]:
    """(a4*y^2+(a3-b4)*y-b3, a2*y^2+(a1-b2)*y-b1); common roots are left-ideal slopes."""
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    return (
        Poly(A.field, [-b3, a3 - b4, a4]),
        Poly(A.field, [-b1, a1 - b2, a2]),
    )


def right_ideal_system(A: MSC) -> tuple[Poly, Poly]:
    """(a4*y^2+(a2-b4)*y-b2, a3*y^2+(a1-b3)*y-b1); common roots are right-ideal slopes."""
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    return (
        Poly(A.field, [-b2, a2 - b4, a4]),
        Poly(A.field, [-b1, a1 - b3, a3]),
    )


def _lines(F: Field, roots, e2_line: bool) -> LineSet:
    """Every line when `roots` is None; otherwise the lines F(e1 + r*e2) for
    each root r, and F(e2) when `e2_line` holds."""
    if roots is None:
        return LineSet.all_lines()
    points = [ProjPoint.affine(r) for r in roots]
    if e2_line:
        points.append(ProjPoint.e2())
    return LineSet.in_plane(F, points)


# ---------------------------------------------------------------------------
# Subalgebras and idempotents.

def subalgebra_roots(A: MSC) -> RootSearch:
    """One root search of the subalgebra cubic in A's own field, which splits
    out the roots only for a solver that reads them.  The solvers that take
    it as `found` search on their own without it."""
    return RootSearch(subalgebra_poly(A))


def subalgebras(A: MSC, found: RootSearch | None = None) -> LineSet:
    """Lines closed under the product, with roots taken in A's own field."""
    found = subalgebra_roots(A) if found is None else found
    return _lines(A.field, None if found.f.is_zero else found.roots, A.alpha[3].is_zero)


def subalgebra_splitting(A: MSC, found: RootSearch | None = None) -> Field:
    """Smallest extension where the subalgebra cubic splits: GF(q^n) for the
    degree n of its factor without roots in GF(q), which is irreducible."""
    F = A.field
    if not F.is_finite:
        raise InfiniteField("splitting fields need a finite field")
    rest = (subalgebra_roots(A) if found is None else found).rest
    return GF(F.p, F.k * rest) if rest else F


def subalgebra_closure(A: MSC, found: RootSearch, closure: MSC) -> tuple[MSC, LineSet]:
    """A lifted to `subalgebra_splitting(A)`, or A itself when the cubic splits
    in A's field, with its subalgebra lines there.  `found` is
    `subalgebra_roots(A)`, and `closure` is `ideal_closure(A)`, which serves
    as the lift when the two splitting fields are the same."""
    if not found.rest:
        return A, subalgebras(A, found)
    ext = subalgebra_splitting(A, found)
    lifted = closure if closure.field == ext else A.lift(ext)
    return lifted, subalgebras(lifted)


def subalgebra_count_closed(A: MSC, found: RootSearch | None = None) -> RootCount:
    """Number of subalgebras over a root-closed extension of a finite field:
    the cubic's distinct roots there are its in-field roots plus the degree of
    the rootless, hence irreducible and separable, factor."""
    if not A.field.is_finite:
        raise InfiniteField("closed subalgebra counts need a finite field")
    found = subalgebra_roots(A) if found is None else found
    if found.f.is_zero:
        return RootCount.INFINITE
    n = found.count + found.rest + (1 if A.alpha[3].is_zero else 0)
    if n == 0:
        raise InternalInconsistency("a two-dimensional algebra always has a subalgebra")
    return RootCount.of(n)


class IdempotentSet:
    """Isolated idempotents, an optional one-parameter family, and the e2 point.

    The family is recorded by the eigenvalue polynomial `lam` (degree <= 1)
    and stands for { (1/lam(t)) * (e1 + t*e2) : lam(t) != 0 }.
    """

    __slots__ = ("field", "isolated", "family", "e2_point")

    def __init__(self, field, isolated, family: Poly | None, e2_point: Element | None):
        self.field = field
        self.isolated = frozenset(isolated)
        self.family = family
        self.e2_point = e2_point

    def materialize(self) -> list[Element]:
        live_family = self.family is not None and not self.family.is_zero
        if not self.field.is_finite and live_family:
            raise InfiniteField("cannot materialize an infinite family over Q")
        out = set(self.isolated)
        if live_family:
            for t in self.field.elements():
                lam = self.family(t)
                if not lam.is_zero:
                    inv = lam.inv()
                    out.add(Element(inv, inv * t))
        if self.e2_point is not None:
            out.add(self.e2_point)
        return sorted(out, key=lambda u: u.sort_key())

    def is_empty(self) -> bool:
        if self.isolated or self.e2_point is not None:
            return False
        if self.family is None:
            return True
        return self.family.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, IdempotentSet)
            and self.isolated == other.isolated
            and self.family == other.family
            and self.e2_point == other.e2_point
        )

    def to_json(self):
        return {
            "isolated": [u.to_json() for u in sorted(self.isolated, key=lambda u: u.sort_key())],
            "family_lambda": None if self.family is None else self.family.text(),
            "e2_point": None if self.e2_point is None else self.e2_point.to_json(),
        }

    @classmethod
    def from_json(cls, field, data) -> "IdempotentSet":
        from .poly import parse_poly

        fam = data.get("family_lambda")
        e2p = data.get("e2_point")
        return cls(
            field,
            [Element.from_json(field, d) for d in data["isolated"]],
            None if fam is None else parse_poly(field, fam),
            None if e2p is None else Element.from_json(field, e2p),
        )

    def __repr__(self):
        parts = [u.text() for u in sorted(self.isolated, key=lambda u: u.sort_key())]
        if self.family is not None:
            parts.append(f"family lam={self.family.text()}")
        if self.e2_point is not None:
            parts.append(f"e2pt {self.e2_point.text()}")
        return "IdempotentSet{" + ", ".join(parts) + "}"


def idempotents(A: MSC, found: RootSearch | None = None) -> IdempotentSet:
    """All v with v^2 = v, from the roots of the subalgebra cubic.

    A root y with nonzero eigenvalue c rescales to the idempotent (1/c)(e1+y*e2);
    when a4 = 0, e2*e2 = b4*e2 contributes (1/b4)e2 for b4 != 0; when the cubic
    vanishes identically every slope qualifies and a family appears.
    """
    F = A.field
    lam = eigenvalue_poly(A)
    found = subalgebra_roots(A) if found is None else found
    a4 = A.alpha[3]
    b4 = A.beta[3]
    e2_point = None
    if a4.is_zero and not b4.is_zero:
        e2_point = Element(F.zero, b4.inv())
    if found.f.is_zero:
        return IdempotentSet(F, [], lam, e2_point)
    isolated = []
    for y in found.roots:
        c = lam(y)
        if not c.is_zero:
            inv = c.inv()
            isolated.append(Element(inv, inv * y))
    return IdempotentSet(F, isolated, None, e2_point)


# ---------------------------------------------------------------------------
# One-sided and two-sided ideals.

def _common_roots(f: Poly, g: Poly) -> list | None:
    """In-field common roots of f and g; None when both vanish and every
    slope is one."""
    if f.is_zero and g.is_zero:
        return None
    return roots_in_field(poly_gcd(f, g))


def left_ideals(A: MSC) -> LineSet:
    a2, a4 = A.alpha[1], A.alpha[3]
    return _lines(A.field, _common_roots(*left_ideal_system(A)), a2.is_zero and a4.is_zero)


def right_ideals(A: MSC) -> LineSet:
    a3, a4 = A.alpha[2], A.alpha[3]
    return _lines(A.field, _common_roots(*right_ideal_system(A)), a3.is_zero and a4.is_zero)


def two_sided_ideals(A: MSC) -> LineSet:
    """Lines satisfying both one-sided systems, plus F(e2) when a2 = a3 = a4 = 0.

    The difference of the two quadratic leads reduces to the linear equation
    y*(a3-a2) - b3 + b2 = 0, so a single candidate slope exists when a2 != a3.
    """
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    l1, l2 = left_ideal_system(A)
    if a2 != a3:
        y0 = (b3 - b2) / (a3 - a2)
        r1, r2 = right_ideal_system(A)
        roots = [y0] if all(poly(y0).is_zero for poly in (l1, l2, r1, r2)) else []
    elif b2 != b3:
        roots = []  # the difference equation is a nonzero constant: no line qualifies
    else:
        # commutative in the relevant entries: both systems coincide
        roots = _common_roots(l1, l2)
    return _lines(A.field, roots, a2.is_zero and a3.is_zero and a4.is_zero)


def ideal_splitting(A: MSC) -> Field:
    """Smallest extension where all four ideal-system polynomials split."""
    l1, l2 = left_ideal_system(A)
    r1, r2 = right_ideal_system(A)
    return joint_quadratic_splitting(A.field, [l1, l2, r1, r2])


def ideal_closure(A: MSC) -> MSC:
    """A lifted to `ideal_splitting(A)`, or A itself when that field is A's own;
    its ideal lines there are those of the root closure."""
    ext = ideal_splitting(A)
    return A.lift(ext) if ext != A.field else A


def line_count_closed(A: MSC, which: str) -> RootCount:
    """Count of lines of the given kind over a root-closed extension."""
    if not A.field.is_finite:
        raise InfiniteField("closed line counts need a finite field")
    if which == "subalgebras":
        return subalgebra_count_closed(A)
    fn = {"left": left_ideals, "right": right_ideals, "two_sided": two_sided_ideals}[which]
    return RootCount(fn(ideal_closure(A)).count_label())


# ---------------------------------------------------------------------------
# Transcribed count predicates for the ideal systems (independent predictors).
# They count solutions of the line systems over a root-closed field; the
# F(e2) contribution is *not* included.

def _predict_system_count(
    a4: Fel, lin1: Fel, con1: Fel, q2: Fel, lin2: Fel, con2: Fel, char2: bool
) -> RootCount:
    """Shared case analysis for a system {a4*y^2+lin1*y-con1, q2*y^2+lin2*y-con2}.

    `char2` selects the characteristic-2 variant of the two discriminant
    conditions; everything else is identical between the two published case
    lists.
    """
    F = a4.field
    four = F.el(4)
    two = F.el(2)

    def iszero(x):
        return x.is_zero

    if char2:
        disc_nonzero = not lin1.is_zero
        one_root_cond = lin1.is_zero
        tangency = q2 * q2 * con1 * con1 + con1 * a4 * lin2 * lin2 - con2 * con2 * a4 * a4
    else:
        disc = lin1 * lin1 + four * a4 * con1
        disc_nonzero = not disc.is_zero
        one_root_cond = disc.is_zero
        tangency = q2 * lin1 * lin1 - two * a4 * lin2 * lin1 - four * con2 * a4 * a4

    resultant_like = q2 * con1 * con1 + con1 * lin2 * lin1 - con2 * lin1 * lin1
    pivot = a4 * lin2 - q2 * lin1
    pivot_con = a4 * con2 - q2 * con1

    def first_eval(y):
        return (a4 * y + lin1) * y - con1

    # no solution
    if iszero(a4) and iszero(lin1) and not iszero(con1):
        return RootCount.ZERO
    if iszero(a4) and not iszero(lin1) and not iszero(resultant_like):
        return RootCount.ZERO
    if not iszero(a4) and one_root_cond and not iszero(tangency):
        return RootCount.ZERO
    if not iszero(a4) and disc_nonzero and not iszero(pivot):
        if not first_eval(pivot_con / pivot).is_zero:
            return RootCount.ZERO
    if not iszero(a4) and disc_nonzero and iszero(pivot) and not iszero(pivot_con):
        return RootCount.ZERO
    if (
        iszero(a4)
        and iszero(lin1)
        and iszero(con1)
        and iszero(q2)
        and iszero(lin2)
        and not iszero(con2)
    ):
        return RootCount.ZERO

    # unique solution
    if iszero(a4) and not iszero(lin1) and iszero(resultant_like):
        return RootCount.ONE
    if not iszero(a4) and one_root_cond and iszero(tangency):
        return RootCount.ONE
    if not iszero(a4) and disc_nonzero and not iszero(pivot):
        if first_eval(pivot_con / pivot).is_zero:
            return RootCount.ONE
    if iszero(lin1) and iszero(a4) and iszero(con1):
        if char2:
            second_double = lin2.is_zero
        else:
            second_double = (lin2 * lin2 + four * q2 * con2).is_zero
        if second_double and not iszero(q2):
            return RootCount.ONE
        if iszero(q2) and not iszero(lin2):
            return RootCount.ONE

    # two solutions
    if not iszero(a4) and disc_nonzero and iszero(pivot) and iszero(pivot_con):
        return RootCount.TWO
    if iszero(lin1) and iszero(a4) and iszero(con1) and not iszero(q2):
        if char2:
            if not lin2.is_zero:
                return RootCount.TWO
        else:
            if not (lin2 * lin2 + four * q2 * con2).is_zero:
                return RootCount.TWO

    # infinitely many
    if all(
        iszero(x) for x in (lin2, q2, con2, lin1, a4, con1)
    ):
        return RootCount.INFINITE
    raise InternalInconsistency("count predicate case analysis missed a configuration")


def predict_left_line_count(A: MSC) -> RootCount:
    """Published count of solutions of the left-ideal system; odd characteristic only."""
    if A.field.p == 2:
        raise WrongCharacteristic("the left-ideal count predicate needs char != 2")
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    return _predict_system_count(a4, a3 - b4, b3, a2, a1 - b2, b1, char2=False)


def predict_right_line_count(A: MSC) -> RootCount:
    """Published count of solutions of the right-ideal system (both char branches)."""
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    return _predict_system_count(
        a4, a2 - b4, b2, a3, a1 - b3, b1, char2=(A.field.p == 2)
    )


def system_count_closed(f: Poly, g: Poly) -> RootCount:
    """Common-root count of a pair of degree <= 2 polynomials over the closure."""
    if f.is_zero and g.is_zero:
        return RootCount.INFINITE
    if f.is_zero:
        f, g = g, f
    if g.is_zero:
        return distinct_root_count(f) if f.degree > 0 else RootCount.ZERO
    h = poly_gcd(f, g)
    if h.degree <= 0:
        return RootCount.ZERO
    return distinct_root_count(h)


# ---------------------------------------------------------------------------
# Simplicity.

def simple_by_cases(A: MSC) -> bool:
    """The published three-case simplicity test, transcribed verbatim.

    Known gap: it never fires when a2 = a3 and b2 = b3 even though such
    algebras can be simple; `simple_by_cases_extended` documents the repair.
    """
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    if b2 != b3 and a2 == a3 and not a2.is_zero:
        return True
    if b2 != b3 and a2 == a3 and a2.is_zero and not a4.is_zero:
        return True
    if a2 != a3:
        d = b3 - b2
        e = a3 - a2
        q1 = d * d * a2 + d * e * (a1 - b2) - e * e * b1
        q2 = d * d * a4 + d * e * (a3 - b4) - e * e * b3
        if not q1.is_zero or not q2.is_zero:
            return True
    return False


def simple_by_cases_extended(A: MSC) -> bool:
    """Three published cases plus the missing commutative one.

    When a2 = a3 and b2 = b3 the two one-sided systems coincide, so the
    algebra is simple exactly when that system has no root in the closure and
    F(e2) is not an ideal (a2 and a4 not both zero).
    """
    if simple_by_cases(A):
        return True
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    if a2 != a3 or b2 != b3:
        return False
    if a2.is_zero and a4.is_zero:
        return False
    l1, l2 = left_ideal_system(A)
    return system_count_closed(l1, l2) == RootCount.ZERO


def is_simple(A: MSC, two_sided: LineSet | None = None) -> bool:
    """No nontrivial two-sided ideal over the root-closed extension.

    Ground truth is the two-sided line set of `ideal_closure(A)`, which a
    caller that already holds it passes as `two_sided`.  The repaired case
    predicate is recomputed alongside and any disagreement raises, since that
    would mean a transcription bug rather than a published erratum.  Over Q
    the case analysis is the closure-exact answer and `two_sided` is not read.
    """
    by_cases = simple_by_cases_extended(A)
    if not A.field.is_finite:
        return by_cases
    if two_sided is None:
        two_sided = two_sided_ideals(ideal_closure(A))
    solved = two_sided.count_label() == "0"
    if solved != by_cases:
        raise InternalInconsistency(
            f"simplicity transcription bug on {A.text()} over {A.field.text()}: "
            f"solver={solved} cases={by_cases}"
        )
    return solved


# ---------------------------------------------------------------------------
# Left quasiunits.

def quasiunit_system(A: MSC) -> tuple[list[tuple[Fel, Fel]], list[Fel]]:
    """The published 8x2 linear system for a left quasiunit x0*e1 + y0*e2.

    Returns (rows, rhs) with each row (cx, cy) meaning cx*x0 + cy*y0 = rhs.
    """
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    rows = [
        (-(a1 * a1) - a3 * b1, -(a3 * a1) + a4 * b1 - a2 * b3 - a3 * b3),
        (-(a1 * a2) - a4 * b1, -(b4 * a2) - a1 * a4 + a4 * b2 - a4 * b3),
        (-(a1 * a2) + b3 * a2 - a4 * b1 - a3 * b2, -(a1 * a4) - a3 * b4),
        (
            -(a2 * a2) - a3 * a2 + b4 * a2 + a1 * a4 - (a4 * b2 + a4 * b2),
            -(a4 * a2) - a4 * b4,
        ),
        (
            -(b1 * b3) - a1 * b1,
            -(b3 * b3) + a1 * b3 - b2 * b3 - (a3 * b1 + a3 * b1) + b1 * b4,
        ),
        (-(b4 * b1) - a1 * b2, -(a4 * b1) - a3 * b2 + a2 * b3 - b3 * b4),
        (-(a2 * b1) + a3 * b1 - b4 * b1 - a1 * b3, -(a4 * b1) - b3 * b4),
        (-(b2 * b4) + a4 * b1 - a2 * b2 - a2 * b3, -(b4 * b4) - a4 * b2),
    ]
    rhs = [-c for c in (a1, a2, a3, a4, b1, b2, b3, b4)]
    return rows, rhs


def quasiunit_system_derived(A: MSC) -> tuple[list[tuple[Fel, Fel]], list[Fel]]:
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


class AffineSolutionSet:
    """Solution set of a linear system in the plane: empty, point, line or plane."""

    __slots__ = ("kind", "point", "base", "direction")

    def __init__(self, kind: str, point=None, base=None, direction=None):
        self.kind = kind
        self.point = point
        self.base = base
        self.direction = direction

    @classmethod
    def empty(cls):
        return cls("empty")

    @classmethod
    def single(cls, point: Element):
        return cls("point", point=point)

    @classmethod
    def line(cls, base: Element, direction: Element):
        """The line base + t*direction, stored in its canonical form: monic
        direction, and a base that is zero in the direction's pivot coordinate."""
        if direction.is_zero:
            raise ValueError("a line needs a nonzero direction")
        pivot = direction.x if not direction.x.is_zero else direction.y
        d = direction.scale(pivot.inv())
        t = base.x if not direction.x.is_zero else base.y
        return cls("line", base=base - d.scale(t), direction=d)

    @classmethod
    def plane(cls):
        return cls("plane")

    def normalized(self) -> "AffineSolutionSet":
        """The canonical representative, which every set already is."""
        return self

    def __eq__(self, other):
        if not isinstance(other, AffineSolutionSet):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.point == other.point
            and self.base == other.base
            and self.direction == other.direction
        )

    def materialize(self, field: Field) -> list[Element]:
        if self.kind == "empty":
            return []
        if self.kind == "point":
            return [self.point]
        if not field.is_finite:
            raise InfiniteField("cannot materialize an infinite solution set")
        if self.kind == "line":
            out = [self.base + self.direction.scale(t) for t in field.elements()]
        else:
            out = [Element(x, y) for x in field.elements() for y in field.elements()]
        return sorted(set(out), key=lambda u: u.sort_key())

    def to_json(self):
        data = {"kind": self.kind}
        if self.kind == "point":
            data["point"] = self.point.to_json()
        elif self.kind == "line":
            data["base"] = self.base.to_json()
            data["direction"] = self.direction.to_json()
        return data

    @classmethod
    def from_json(cls, field: Field, data) -> "AffineSolutionSet":
        kind = data["kind"]
        if kind == "empty":
            return cls.empty()
        if kind == "point":
            return cls.single(Element.from_json(field, data["point"]))
        if kind == "line":
            return cls.line(
                Element.from_json(field, data["base"]),
                Element.from_json(field, data["direction"]),
            )
        return cls.plane()

    def __repr__(self):
        if self.kind == "point":
            return f"AffineSolutionSet(point {self.point.text()})"
        if self.kind == "line":
            return f"AffineSolutionSet({self.base.text()} + t*{self.direction.text()})"
        return f"AffineSolutionSet({self.kind})"


def solve_plane_system(rows, rhs, field: Field) -> AffineSolutionSet:
    """Cramer's rule on the first nonzero row and the first row independent
    of it.  The candidate, their one point or the first row's line, is the
    answer exactly when every row holds at it (at the line's base, which
    suffices when every row is a multiple of the first)."""
    eqs = [(a, b, c) for (a, b), c in zip(rows, rhs)]
    first = next(((a, b, c) for a, b, c in eqs if not (a.is_zero and b.is_zero)), None)
    if first is None:
        plane = all(c.is_zero for _, _, c in eqs)
        return AffineSolutionSet.plane() if plane else AffineSolutionSet.empty()
    a, b, c = first
    for a2, b2, c2 in eqs:
        det = a * b2 - b * a2
        if not det.is_zero:
            at = Element((c * b2 - b * c2) / det, (a * c2 - c * a2) / det)
            answer = AffineSolutionSet.single(at)
            break
    else:
        at = Element(c / a, field.zero) if not a.is_zero else Element(field.zero, c / b)
        answer = AffineSolutionSet.line(at, Element(-b, a))
    if all(r0 * at.x + r1 * at.y == r for r0, r1, r in eqs):
        return answer
    return AffineSolutionSet.empty()


def left_quasiunits(A: MSC) -> AffineSolutionSet:
    """Exact affine solution set of the quasiunit system."""
    rows, rhs = quasiunit_system(A)
    return solve_plane_system(rows, rhs, A.field)
