"""Closed-form enumeration of the structures of a two-dimensional algebra.

Every subalgebra and every left, right and two-sided ideal is a line: either
F(e1 + y*e2), whose slope y is a root of the kind's `slope_poly`, or F(e2),
which qualifies when the alpha entries named in `_E2_LINE` vanish:

  subalgebras  -- the cubic `subalgebra_poly`; F(e2) when a4 = 0;
  left ideals  -- the gcd of `left_ideal_system`, or 1 by a nonzero
                  resultant; F(e2) when a2 = a4 = 0;
  right ideals -- the same of `right_ideal_system`; F(e2) when a3 = a4 = 0;
  two-sided    -- the linear candidate where the two systems differ, or the
                  left gcd where they coincide; F(e2) when a2 = a3 = a4 = 0.

A count over the root closure, of GF(q) or Q, searches no roots and builds
no extension: `line_count_closed` reads it off the polynomial's coefficients
(`poly._closed_root_count`).  A root search is made only for a solver that
lists lines: `lines` in A's own field, through which the named solvers
(`subalgebras`, `left_ideals`, ...) go, the idempotents, which scale the
cubic's roots through `eigenvalue_poly`, and the subalgebra splitting field.
The slope polynomial and its search are made once per algebra and kind and
kept on it (`root_search`); the search runs when first read.  Quasiunits
solve an 8x2 linear system, read row by row until one rules out Cramer's
candidate.  Only callers that list the lines over the closure lift A, all
through `closure(A, which)`: to `closure_field(A, which)`, the cubic's
splitting field for subalgebras and, for the ideal kinds, the field where
all four ideal quadratics split.  The lift is kept on A under its field, so
kinds with one closure field share one lift.

Each formula in the structure constants (the cubic, the eigenvalue and ideal
quadratics, the two-sided candidate, the quasiunit system and Cramer's rule
on it, `simple_by_cases`) is written once and evaluated on the numbers of
A's field, which `_constants(A)` reads once per algebra and keeps on it:
with Python's operators on int residues over GF(p) and on ints, or
Fractions where a value is not integral, over Q; on elements over GF(p^k).
Elements, points and polynomials are built only for the answers, and a
division waits for them too.

The module also carries `simple_by_cases`, the published simplicity test,
as an independent predictor; the generic solver is the ground truth it is
compared against.  The published ideal count predicates live in `tables`.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, LineSet, MSC, ProjPoint
from .fields import GF, Fel, Field, InfiniteField
from .poly import (
    Poly,
    RootCount,
    RootSearch,
    _closed_root_count,
    _rgcd,
    joint_quadratic_splitting,
)


class InternalInconsistency(Exception):
    """Two of this package's own derivations disagree: an implementation bug."""


# ---------------------------------------------------------------------------
# The numbers the formulas run on.

class _Elements:
    """Field elements as the numbers of the solver formulas: every operator
    dispatches to the field and every value is canonical.  GF(p^k) computes
    on these."""

    def __init__(self, F: Field):
        self.field, self.zero, self.one = F, F.zero, F.one

    def of(self, els) -> list:
        return list(els)

    def canon(self, x):
        return x

    def inv(self, x):
        """The inverse of a canonical nonzero x."""
        return x.inv()

    def fel(self, x) -> Fel:
        return x

    def poly(self, xs) -> Poly:
        """The polynomial with the coefficients xs, constant first."""
        return Poly(self.field, xs)

    def raw(self, xs) -> list:
        """The raw polynomial with the coefficients xs, constant first."""
        return _trimmed([x.raw for x in xs])


class _Plain(_Elements):
    """Plain numbers as the numbers of the solver formulas: the int residues
    that are GF(p)'s raw values, which `canon` reduces by one `% p`, and over
    Q an int where a value is integral and a Fraction otherwise, which
    Python's operators mix exactly.  No formula calls the field per
    operation; `fel` and `raw` hand back raw values, Fractions over Q, and
    `inv` is the field's own `_inv`."""

    def __init__(self, F: Field):
        self.field, self.p, self.zero, self.one = F, F.p, 0, 1
        self.inv = F._inv

    def of(self, els) -> list:
        raws = [c.raw for c in els]
        return raws if self.p else [x.numerator if x.denominator == 1 else x for x in raws]

    def canon(self, x):
        return x % self.p if self.p else x

    def fel(self, x) -> Fel:
        return self.field._fel(x % self.p if self.p else Fraction(x))

    def poly(self, xs) -> Poly:
        return Poly._of_raw(self.field, self.raw(xs))

    def raw(self, xs) -> list:
        p = self.p
        return _trimmed([x % p for x in xs] if p else [Fraction(x) for x in xs])


def _numbers(F: Field) -> _Elements:
    return _Plain(F) if F.k == 1 else _Elements(F)


def _trimmed(raw: list) -> list:
    while raw and not raw[-1]:
        raw.pop()
    return raw


def _kept(A: MSC, key, make):
    """`make()`, made once per algebra and kept in `A.memo`; it is never None."""
    kept = A.memo.get(key)
    return A.memo.setdefault(key, make()) if kept is None else kept


def _constants(A: MSC) -> tuple[_Elements, list]:
    """The numbers of A's field and A's constants a1..a4, b1..b4 on them,
    read once per algebra and kept on A."""
    return _kept(A, "constants", lambda: (N := _numbers(A.field), N.of(A.alpha + A.beta)))


# ---------------------------------------------------------------------------
# The defining formulas, each written once on the eight structure constants
# as the numbers `_constants(A)` reads.  A polynomial is the list of its
# coefficients, constant first, and no value is brought to canonical form.

def _subalgebra_cubic(a1, a2, a3, a4, b1, b2, b3, b4) -> list:
    return [-b1, a1 - b2 - b3, a2 + a3 - b4, a4]


def _eigenvalue_quadratic(a1, a2, a3, a4, b1, b2, b3, b4) -> list:
    return [a1, a2 + a3, a4]


def _left_system(a1, a2, a3, a4, b1, b2, b3, b4) -> tuple[list, list]:
    return [-b3, a3 - b4, a4], [-b1, a1 - b2, a2]


def _right_system(a1, a2, a3, a4, b1, b2, b3, b4) -> tuple[list, list]:
    return [-b2, a2 - b4, a4], [-b1, a1 - b3, a3]


def _quadratic_at(f: list, y):
    return (f[2] * y + f[1]) * y + f[0]


def subalgebra_poly(A: MSC) -> Poly:
    """Cubic whose roots y give the subalgebra lines F(e1 + y*e2)."""
    N, c = _constants(A)
    return N.poly(_subalgebra_cubic(*c))


def eigenvalue_poly(A: MSC) -> Poly:
    """Quadratic giving u^2 = c*u with c = a4*y^2 + (a2+a3)*y + a1 along u = e1+y*e2."""
    N, c = _constants(A)
    return N.poly(_eigenvalue_quadratic(*c))


def left_ideal_system(A: MSC) -> tuple[Poly, Poly]:
    """(a4*y^2+(a3-b4)*y-b3, a2*y^2+(a1-b2)*y-b1); common roots are left-ideal slopes."""
    N, c = _constants(A)
    return tuple(map(N.poly, _left_system(*c)))


def right_ideal_system(A: MSC) -> tuple[Poly, Poly]:
    """(a4*y^2+(a2-b4)*y-b2, a3*y^2+(a1-b3)*y-b1); common roots are right-ideal slopes."""
    N, c = _constants(A)
    return tuple(map(N.poly, _right_system(*c)))


# ---------------------------------------------------------------------------
# The one rule for lines: slopes from a polynomial, F(e2) from a condition.

def slope_poly(A: MSC, which: str) -> Poly:
    """Polynomial over A's field whose roots are the slopes y of the lines
    F(e1 + y*e2) of the kind `which`; zero when every slope is one.

    Subalgebras: the cubic.  Left and right ideals: the gcd of the kind's
    system (f, g), or 1 with no gcd run when their resultant (f2*g0 -
    f0*g2)^2 - (f2*g1 - f1*g2)*(f1*g0 - f0*g1) is nonzero, since then f and
    g share no root over the closure (and f2, g2 are not both zero).
    Two-sided ideals: the leading quadratics of the two systems differ by
    y*(a3-a2) - b3 + b2, so when a2 != a3 the one candidate is y0 = n/d =
    (b3-b2)/(a3-a2), giving y - y0 when all four quadratics vanish there,
    as f2*n^2 + f1*n*d + f0*d^2 = 0, and 1 otherwise; when a2 = a3 no slope
    qualifies if b2 != b3, and if b2 = b3 the two systems coincide and the
    left system decides, as above.
    """
    if which == "subalgebras":
        return subalgebra_poly(A)
    F = A.field
    N, c = _constants(A)
    if which == "two_sided":
        _, a2, a3, _, _, b2, b3, _ = c
        if a2 != a3:
            n, d = b3 - b2, a3 - a2
            nn, nd, dd = n * n, n * d, d * d
            ideal = all(
                N.canon(f[2] * nn + f[1] * nd + f[0] * dd) == N.zero
                for f in _left_system(*c) + _right_system(*c)
            )
            return Poly(F, [N.fel(-n * N.inv(N.canon(d))), F.one] if ideal else [F.one])
        if b2 != b3:
            return Poly(F, [F.one])
    f, g = (_right_system if which == "right" else _left_system)(*c)
    (f0, f1, f2), (g0, g1, g2) = f, g
    u = f2 * g0 - f0 * g2
    if N.canon(u * u - (f2 * g1 - f1 * g2) * (f1 * g0 - f0 * g1)) != N.zero:
        return Poly(F, [F.one])
    return Poly._of_raw(F, _rgcd(F, N.raw(f), N.raw(g)))


# alpha entries that all vanish exactly when F(e2) is a line of each kind
_E2_LINE = {"subalgebras": (3,), "left": (1, 3), "right": (2, 3), "two_sided": (1, 2, 3)}


def _e2_line(A: MSC, which: str) -> bool:
    return all(A.alpha[i].is_zero for i in _E2_LINE[which])


def root_search(A: MSC, which: str) -> RootSearch:
    """The one root search of `slope_poly(A, which)` in A's own field, kept
    on A; it searches only for a solver that reads its roots, and splits
    them out only for one that lists them."""
    return _kept(A, which, lambda: RootSearch(slope_poly(A, which)))


def lines(A: MSC, which: str) -> LineSet:
    """The lines of the kind `which` with slopes in A's own field: every line
    when the slope polynomial is zero, otherwise F(e1 + r*e2) for each of its
    roots r, and F(e2) when that line qualifies."""
    found = root_search(A, which)
    if found.f.is_zero:
        return LineSet.all_lines()
    points = [ProjPoint.affine(r) for r in found.roots]
    if _e2_line(A, which):
        points.append(ProjPoint.e2())
    return LineSet.in_plane(A.field, points)


def line_count_closed(A: MSC, which: str) -> RootCount:
    """Count of lines of the kind `which` over a root-closed extension of A's
    field, GF(q) or Q, with no root search and no extension built: the
    distinct roots there of the slope polynomial that `root_search` keeps,
    by `poly._closed_root_count`, then F(e2) when it qualifies."""
    f = root_search(A, which).f
    if f.is_zero:
        return RootCount.INFINITE
    n = _closed_root_count(A.field, f._raw()) + _e2_line(A, which)
    if n == 0 and which == "subalgebras":
        raise InternalInconsistency("a two-dimensional algebra always has a subalgebra")
    return RootCount.of(n)


# ---------------------------------------------------------------------------
# Subalgebras and idempotents.

def subalgebras(A: MSC) -> LineSet:
    return lines(A, "subalgebras")


def subalgebra_splitting(A: MSC) -> Field:
    """Smallest extension where the subalgebra cubic splits: A's own field
    if it does there, else GF(q^n) for the number n of its roots outside F."""
    F = A.field
    rest = root_search(A, "subalgebras").rest
    if rest and not F.is_finite:
        raise InfiniteField("splitting fields need a finite field")
    return GF(F.p, F.k * rest) if rest else F


def subalgebra_count_closed(A: MSC) -> RootCount:
    return line_count_closed(A, "subalgebras")


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


def idempotents(A: MSC) -> IdempotentSet:
    """All v with v^2 = v, from the roots of the subalgebra cubic.

    A root y with nonzero eigenvalue c rescales to the idempotent (1/c)(e1+y*e2);
    when a4 = 0, e2*e2 = b4*e2 contributes (1/b4)e2 for b4 != 0; when the cubic
    vanishes identically every slope qualifies and a family appears.
    """
    F = A.field
    found = root_search(A, "subalgebras")
    a4 = A.alpha[3]
    b4 = A.beta[3]
    e2_point = None
    if a4.is_zero and not b4.is_zero:
        e2_point = Element(F.zero, b4.inv())
    if found.f.is_zero:
        return IdempotentSet(F, [], eigenvalue_poly(A), e2_point)
    N, constants = _constants(A)
    lam = _eigenvalue_quadratic(*constants)
    isolated = []
    for y in N.of(found.roots):
        c = N.canon(_quadratic_at(lam, y))
        if c != N.zero:
            inv = N.inv(c)
            isolated.append(Element(N.fel(inv), N.fel(inv * y)))
    return IdempotentSet(F, isolated, None, e2_point)


# ---------------------------------------------------------------------------
# One-sided and two-sided ideals.

def left_ideals(A: MSC) -> LineSet:
    return lines(A, "left")


def right_ideals(A: MSC) -> LineSet:
    return lines(A, "right")


def two_sided_ideals(A: MSC) -> LineSet:
    return lines(A, "two_sided")


def ideal_splitting(A: MSC) -> Field:
    """Smallest extension where all four ideal-system polynomials split."""
    l1, l2 = left_ideal_system(A)
    r1, r2 = right_ideal_system(A)
    return joint_quadratic_splitting(A.field, [l1, l2, r1, r2])


# ---------------------------------------------------------------------------
# The closure: where the lines of a kind are those of the root closure.

def closure_field(A: MSC, which: str) -> Field:
    """The smallest field where the lines of the kind `which` are those of
    the root closure of A's field: the cubic's splitting field for
    subalgebras, and for every ideal kind the field where all four ideal
    quadratics split, kept on A."""
    if which == "subalgebras":
        return subalgebra_splitting(A)
    return _kept(A, "ideal_splitting", lambda: ideal_splitting(A))


def closure(A: MSC, which: str) -> MSC:
    """A over `closure_field(A, which)`: A itself when that is A's own field,
    else A lifted there, kept on A under the field, so that kinds whose
    closure is the same field share one lift.  A itself is not kept, so no
    algebra refers to itself."""
    E = closure_field(A, which)
    return A if E == A.field else _kept(A, E, lambda: A.lift(E))


# ---------------------------------------------------------------------------
# Simplicity.

def simple_by_cases(A: MSC) -> bool:
    """The published three-case simplicity test, transcribed verbatim.

    Known gap: it never fires when a2 = a3 and b2 = b3 even though such
    algebras can be simple; `simple_by_cases_extended` documents the repair.
    """
    N, (a1, a2, a3, a4, b1, b2, b3, b4) = _constants(A)
    zero = N.zero
    if b2 != b3 and a2 == a3 and a2 != zero:
        return True
    if b2 != b3 and a2 == a3 and a2 == zero and a4 != zero:
        return True
    if a2 != a3:
        d = b3 - b2
        e = a3 - a2
        q1 = d * d * a2 + d * e * (a1 - b2) - e * e * b1
        q2 = d * d * a4 + d * e * (a3 - b4) - e * e * b3
        if N.canon(q1) != zero or N.canon(q2) != zero:
            return True
    return False


def simple_by_cases_extended(A: MSC) -> bool:
    """Three published cases plus the missing commutative one.

    When a2 = a3 and b2 = b3 the two one-sided systems coincide, so the
    algebra is simple exactly when that system has no root in the closure
    (`line_count_closed(A, "left")`, over GF(q) and Q alike) and F(e2) is not
    an ideal (a2 and a4 not both zero).
    """
    if simple_by_cases(A):
        return True
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    if a2 != a3 or b2 != b3:
        return False
    if a2.is_zero and a4.is_zero:
        return False
    # A's kept left slope polynomial; F(e2) is no left ideal here
    return line_count_closed(A, "left") is RootCount.ZERO


def is_simple(A: MSC) -> bool:
    """No nontrivial two-sided ideal over the root-closed extension.

    Ground truth is `line_count_closed(A, "two_sided")`, which searches no
    roots and reads the two-sided slope polynomial `two_sided_ideals` lists.
    The repaired case predicate is recomputed alongside, over GF(q) and Q
    alike, and any disagreement raises, since that would mean a
    transcription bug rather than a published erratum.
    """
    by_cases = simple_by_cases_extended(A)
    solved = line_count_closed(A, "two_sided") is RootCount.ZERO
    if solved != by_cases:
        raise InternalInconsistency(
            f"simplicity transcription bug on {A.text()} over {A.field.text()}: "
            f"solver={solved} cases={by_cases}"
        )
    return solved


# ---------------------------------------------------------------------------
# Left quasiunits.

def _quasiunit_rows(a1, a2, a3, a4, b1, b2, b3, b4):
    """The published 8x2 linear system for a left quasiunit x0*e1 + y0*e2,
    yielded row by row in its printed order: each (cx, cy, rhs) means
    cx*x0 + cy*y0 = rhs, and a row is computed only when it is read."""
    yield -(a1 * a1) - a3 * b1, -(a3 * a1) + a4 * b1 - a2 * b3 - a3 * b3, -a1
    yield -(a1 * a2) - a4 * b1, -(b4 * a2) - a1 * a4 + a4 * b2 - a4 * b3, -a2
    yield -(a1 * a2) + b3 * a2 - a4 * b1 - a3 * b2, -(a1 * a4) - a3 * b4, -a3
    yield (
        -(a2 * a2) - a3 * a2 + b4 * a2 + a1 * a4 - (a4 * b2 + a4 * b2),
        -(a4 * a2) - a4 * b4,
        -a4,
    )
    yield (
        -(b1 * b3) - a1 * b1,
        -(b3 * b3) + a1 * b3 - b2 * b3 - (a3 * b1 + a3 * b1) + b1 * b4,
        -b1,
    )
    yield -(b4 * b1) - a1 * b2, -(a4 * b1) - a3 * b2 + a2 * b3 - b3 * b4, -b2
    yield -(a2 * b1) + a3 * b1 - b4 * b1 - a1 * b3, -(a4 * b1) - b3 * b4, -b3
    yield -(b2 * b4) + a4 * b1 - a2 * b2 - a2 * b3, -(b4 * b4) - a4 * b2, -b4


def quasiunit_system(A: MSC) -> tuple[list[tuple[Fel, Fel]], list[Fel]]:
    """The published 8x2 linear system for a left quasiunit x0*e1 + y0*e2,
    as elements of A's field: (rows, rhs) with each row (cx, cy) meaning
    cx*x0 + cy*y0 = rhs.  `left_quasiunits` solves the same formula,
    `_quasiunit_rows`, on the numbers `_constants(A)` reads and builds
    elements only for its answer."""
    N, c = _constants(A)
    eqs = [(N.fel(cx), N.fel(cy), N.fel(r)) for cx, cy, r in _quasiunit_rows(*c)]
    return [eq[:2] for eq in eqs], [eq[2] for eq in eqs]


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
        """The line base + t*direction, stored in the canonical form of
        `_line`: it is dy*x - dx*y = dy*bx - dx*by."""
        if direction.is_zero:
            raise ValueError("a line needs a nonzero direction")
        N = _numbers(base.x.field)
        bx, by, dx, dy = N.of((base.x, base.y, direction.x, direction.y))
        return cls._of_numbers(N, *_line(N, dy, N.canon(-dx), dy * bx - dx * by))

    @classmethod
    def _of_numbers(cls, N: _Elements, x, y, dx, dy):
        """The line (x, y) + t*(dx, dy), given on the numbers N."""
        fel = N.fel
        return cls("line", base=Element(fel(x), fel(y)), direction=Element(fel(dx), fel(dy)))

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
            els = field.elements()
            out = [Element(x, y) for x in els for y in els]
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
    """The solution set of the system whose rows (cx, cy) and right-hand
    sides are elements of `field`, by `_solve_plane`."""
    N = _numbers(field)
    return _solve_plane(N, (N.of((*row, c)) for row, c in zip(rows, rhs)))


def _line(N: _Elements, a, b, c) -> tuple:
    """(x, y, dx, dy): the canonical form (x, y) + t*(dx, dy) of the line
    a*x + b*y = c on the numbers N, for (a, b) nonzero and b canonical: base
    (0, c/b) and direction (1, -a/b) when b != 0, else base (c/a, 0) and
    direction (0, 1).  The values are not brought to canonical form."""
    if b != N.zero:
        inv = N.inv(b)
        return N.zero, c * inv, N.one, -a * inv
    return c * N.inv(a), N.zero, N.zero, N.one


def _solve_plane(N: _Elements, eqs) -> AffineSolutionSet:
    """Cramer's rule on the first nonzero row and the first row independent
    of it, on the numbers N, reading the rows (cx, cy, rhs) of `eqs` one at
    a time.  The candidate, their one point (x/w, y/w) or the first row's
    line, is the answer exactly when every row holds at it, r0*x + r1*y =
    r*w (at the line's base, with w = 1, which suffices when every row is a
    multiple of the first).  Each row read after the candidate is checked
    as it is read, and the first that fails ends the read with the empty
    set; the rows read before the candidate are held and checked last.  w
    is inverted only for the answer."""
    canon, zero = N.canon, N.zero
    eqs = ((canon(a), canon(b), canon(c)) for a, b, c in eqs)
    held = []
    for a, b, c in eqs:
        held.append((a, b, c))
        if a != zero or b != zero:
            break
    else:
        plane = all(c == zero for _, _, c in held)
        return AffineSolutionSet.plane() if plane else AffineSolutionSet.empty()
    for a2, b2, c2 in eqs:
        w = canon(a * b2 - b * a2)
        if w != zero:
            x, y = canon(c * b2 - b * c2), canon(a * c2 - c * a2)
            point = True
            break
        held.append((a2, b2, c2))
    else:
        x, y, dx, dy = _line(N, a, b, c)
        w, point = N.one, False
    for rest in (eqs, held):
        if any(canon(r0 * x + r1 * y - r * w) != zero for r0, r1, r in rest):
            return AffineSolutionSet.empty()
    if point:
        inv = N.inv(w)
        return AffineSolutionSet.single(Element(N.fel(x * inv), N.fel(y * inv)))
    return AffineSolutionSet._of_numbers(N, x, y, dx, dy)


def left_quasiunits(A: MSC) -> AffineSolutionSet:
    """Exact affine solution set of the quasiunit system."""
    N, c = _constants(A)
    return _solve_plane(N, _quasiunit_rows(*c))
