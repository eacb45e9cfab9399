"""Two-dimensional algebras given by structure constants, with brute-force oracles.

An algebra is a 2x4 matrix of structure constants over an exact field:

    e1*e1 = a1*e1 + b1*e2    e1*e2 = a2*e1 + b2*e2
    e2*e1 = a3*e1 + b3*e2    e2*e2 = a4*e1 + b4*e2

This module holds the bilinear product, definition checkers for every
structure of interest (subalgebras, idempotents, one-sided and two-sided
ideals, left quasiunits), and exhaustive enumeration oracles over finite
fields, with `oracle_check`, the one comparison of a solver's answer with
them.  Each definition is one test on raw values (indices over GF(q),
Fractions over Q), built once per algebra from the structure constants, so
that testing one candidate costs only the arithmetic that depends on it.  It
reads sums and products as `add[a][b]` and `mul[a][b]` from
`Field.raw_ops`: int tables over a field with a kernel, row adaptors over
the field's raw operations elsewhere.  The checkers and the oracles run the
same tests, and the oracles create element objects only for hits.
Everything operates on immutable values.
"""

from __future__ import annotations

from .fields import Fel, Field, FieldMismatch, InfiniteField, ParseError, embed, parse_el


class MSC:
    """Matrix of structure constants (a1..a4; b1..b4) over one field.

    `memo` holds what `solvers` works out once per algebra (its root searches
    and its ideal closure).  It is filled append-only and never holds the
    algebra itself, and equality and hashing ignore it."""

    __slots__ = ("field", "alpha", "beta", "memo")

    def __init__(self, field: Field, alpha, beta):
        alpha = tuple(alpha)
        beta = tuple(beta)
        if len(alpha) != 4 or len(beta) != 4:
            raise ValueError("an MSC needs 4 alpha and 4 beta entries")
        for c in alpha + beta:
            if c.field is not field and c.field != field:
                raise FieldMismatch("structure constants must share the field")
        self.field = field
        self.alpha = alpha
        self.beta = beta
        self.memo = {}

    @classmethod
    def from_ints(cls, field: Field, alpha, beta) -> "MSC":
        return cls(field, [field.el(c) for c in alpha], [field.el(c) for c in beta])

    @classmethod
    def parse(cls, field: Field, text: str) -> "MSC":
        halves = text.strip().split(";")
        if len(halves) != 2:
            raise ParseError("MSC text must be 'a1,a2,a3,a4;b1,b2,b3,b4'")
        rows = []
        for half in halves:
            parts = half.split(",")
            if len(parts) != 4:
                raise ParseError("each MSC row needs 4 entries")
            rows.append([parse_el(field, t) for t in parts])
        return cls(field, rows[0], rows[1])

    def text(self) -> str:
        return (
            ",".join(c.text() for c in self.alpha)
            + ";"
            + ",".join(c.text() for c in self.beta)
        )

    def lift(self, dst: Field) -> "MSC":
        return MSC(
            dst,
            [embed(c, dst) for c in self.alpha],
            [embed(c, dst) for c in self.beta],
        )

    def __eq__(self, other):
        return (
            isinstance(other, MSC)
            and self.field == other.field
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.alpha, self.beta))

    def __repr__(self):
        return f"MSC[{self.text()}]"


class Element:
    """x*e1 + y*e2 in the fixed basis."""

    __slots__ = ("x", "y")

    def __init__(self, x: Fel, y: Fel):
        self.x = x
        self.y = y

    def __add__(self, other: "Element") -> "Element":
        return Element(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Element") -> "Element":
        return Element(self.x - other.x, self.y - other.y)

    def scale(self, c: Fel) -> "Element":
        return Element(c * self.x, c * self.y)

    @property
    def is_zero(self) -> bool:
        return self.x.is_zero and self.y.is_zero

    def __eq__(self, other):
        return isinstance(other, Element) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def sort_key(self):
        return (self.x.sort_key(), self.y.sort_key())

    def text(self) -> str:
        """Readable form like '3*e1+2*e2'; coordinates stay canonical."""
        parts = []
        for coord, name in ((self.x, "e1"), (self.y, "e2")):
            if coord.is_zero:
                continue
            t = coord.text()
            if t == "1":
                parts.append(name)
            elif "+" in t or "/" in t:
                parts.append(f"({t})*{name}")
            else:
                parts.append(f"{t}*{name}")
        return "+".join(parts) if parts else "0"

    def to_json(self) -> list[str]:
        return [self.x.text(), self.y.text()]

    @classmethod
    def from_json(cls, field: Field, data) -> "Element":
        return cls(parse_el(field, data[0]), parse_el(field, data[1]))

    def __repr__(self):
        return f"Element({self.text()})"


def basis(field: Field) -> tuple[Element, Element]:
    return (
        Element(field.one, field.zero),
        Element(field.zero, field.one),
    )


def mul(A: MSC, u: Element, v: Element) -> Element:
    """The bilinear product determined by the structure constants."""
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    xx = u.x * v.x
    xy = u.x * v.y
    yx = u.y * v.x
    yy = u.y * v.y
    return Element(
        a1 * xx + a2 * xy + a3 * yx + a4 * yy,
        b1 * xx + b2 * xy + b3 * yx + b4 * yy,
    )


class ProjPoint:
    """A one-dimensional subspace, normalised as F(e1 + y0*e2) or F(e2)."""

    __slots__ = ("y0",)

    def __init__(self, y0: Fel | None):
        self.y0 = y0  # None encodes F(e2)

    @classmethod
    def e2(cls) -> "ProjPoint":
        return cls(None)

    @classmethod
    def affine(cls, y0: Fel) -> "ProjPoint":
        return cls(y0)

    def generator(self, field: Field) -> Element:
        if self.y0 is None:
            return Element(field.zero, field.one)
        return Element(field.one, self.y0)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.y0 == other.y0

    def __hash__(self):
        return hash(self.y0)

    def sort_key(self):
        if self.y0 is None:
            return (0, 0)
        return (1, self.y0.sort_key())

    def text(self) -> str:
        if self.y0 is None:
            return "F(e2)"
        if self.y0.is_zero:
            return "F(e1)"
        t = self.y0.text()
        if "+" in t or "/" in t:
            return f"F(e1+({t})e2)"
        return f"F(e1+{t}e2)"

    def to_json(self) -> str:
        return "e2" if self.y0 is None else self.y0.text()

    @classmethod
    def from_json(cls, field: Field, data: str) -> "ProjPoint":
        if data == "e2":
            return cls(None)
        return cls(parse_el(field, data))

    def __repr__(self):
        return self.text()


def projective_points(field: Field) -> list[ProjPoint]:
    """All q+1 lines of the plane, F(e2) first, then by slope order."""
    if not field.is_finite:
        raise InfiniteField("cannot enumerate lines over Q")
    return [ProjPoint.e2()] + [ProjPoint.affine(y) for y in field.elements()]


class LineSet:
    """A set of lines, or the marker 'every line qualifies'."""

    __slots__ = ("points",)

    def __init__(self, points=None, is_all: bool = False):
        self.points = None if is_all else frozenset(points or ())

    @classmethod
    def all_lines(cls) -> "LineSet":
        return cls(is_all=True)

    @classmethod
    def of(cls, points) -> "LineSet":
        return cls(points=points)

    @classmethod
    def in_plane(cls, field: Field, points) -> "LineSet":
        """These lines of the plane over `field`, collapsed to the 'every
        line' marker when they are all q + 1 of them."""
        pts = frozenset(points)
        if field.is_finite and len(pts) == field.order + 1:
            return cls.all_lines()
        return cls(pts)

    @property
    def is_all(self) -> bool:
        return self.points is None

    def sorted_points(self) -> list[ProjPoint]:
        return sorted(self.points, key=lambda p: p.sort_key())

    def count_label(self) -> str:
        return "inf" if self.is_all else str(len(self.points))

    def __eq__(self, other):
        return isinstance(other, LineSet) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def to_json(self):
        if self.is_all:
            return {"all": True}
        return {"points": [p.to_json() for p in self.sorted_points()]}

    @classmethod
    def from_json(cls, field: Field, data) -> "LineSet":
        if data.get("all"):
            return cls.all_lines()
        return cls.of(ProjPoint.from_json(field, s) for s in data["points"])

    def __repr__(self):
        if self.is_all:
            return "LineSet(all)"
        return "LineSet{" + ", ".join(p.text() for p in self.sorted_points()) + "}"


# ---------------------------------------------------------------------------
# Definition tests on raw values.  Each is built once per algebra and reads
# `add[a][b]` and `mul[a][b]` from `Field.raw_ops`; the rows of the structure
# constants are taken once, so a candidate costs only the lookups that depend
# on it.  P_ij = e_i*e_j has the coordinates (alpha[k], beta[k]), k = 2i + j
# for i, j in (0, 1).

# (c, s) per product an ideal kind tests on u = e1 + y*e2: e_i*u = P_i0 +
# y*P_i1 and u*e_j = P_0j + y*P_1j, a constant and a slope term.
_SIDES = {
    "left": ((0, 1), (2, 3)),
    "right": ((0, 2), (1, 3)),
    "two_sided": ((0, 1), (2, 3), (0, 2), (1, 3)),
}


def _raw(A: MSC, c: Fel):
    if c.field is not A.field and c.field != A.field:
        raise FieldMismatch(f"{c.text()} is not in {A.field.text()}")
    return c.raw


def _line_test(A: MSC, kind: str):
    """(test, e2) for the lines of `kind`: test(y) is whether F(e1 + y*e2)
    is one, for raw y, and e2 whether F(e2) is.

    The generator u = e1 + y*e2 is tested by bilinearity.  A subalgebra
    needs u*u = (a1 + y*(a23 + y*a4), b1 + y*(b23 + y*b4)) in F*u, with a23
    = a2 + a3 and b23 = b2 + b3; an ideal needs both products of its kind
    (e_i*u for left, u*e_i for right) in F*u, which suffices by linearity.
    A vector (wx, wy) lies on F*u iff wy = y*wx.  At u = e2 each product is
    its top coefficient in y, which lies on F(e2) iff its e1-coordinate is
    zero."""
    add, mul = A.field.raw_ops()
    a = [c.raw for c in A.alpha]
    b = [c.raw for c in A.beta]
    if kind == "subalgebras":
        A1, A23, M4 = add[a[0]], add[add[a[1]][a[2]]], mul[a[3]]
        B1, B23, N4 = add[b[0]], add[add[b[1]][b[2]]], mul[b[3]]

        def closed(y) -> bool:
            my = mul[y]
            return B1[my[B23[N4[y]]]] == my[A1[my[A23[M4[y]]]]]

        return closed, not a[3]
    if kind not in _SIDES:
        raise ValueError(f"unknown line kind {kind!r}")
    sides = _SIDES[kind]
    products = [(add[a[c]], mul[a[s]], add[b[c]], mul[b[s]]) for c, s in sides]

    def absorbs(y) -> bool:
        my = mul[y]
        for Ac, Ms, Bc, Ns in products:
            if Bc[Ns[y]] != my[Ac[Ms[y]]]:
                return False
        return True

    return absorbs, not any(a[s] for _, s in sides)


def _line_holds(A: MSC, kind: str, P: ProjPoint) -> bool:
    test, e2 = _line_test(A, kind)
    return e2 if P.y0 is None else test(_raw(A, P.y0))


def is_subalgebra(A: MSC, P: ProjPoint) -> bool:
    """u^2 in F*u for a generator u of P."""
    return _line_holds(A, "subalgebras", P)


def is_left_ideal(A: MSC, P: ProjPoint) -> bool:
    """v*u in F*u for the two basis vectors v, which suffices by linearity."""
    return _line_holds(A, "left", P)


def is_right_ideal(A: MSC, P: ProjPoint) -> bool:
    return _line_holds(A, "right", P)


def is_two_sided_ideal(A: MSC, P: ProjPoint) -> bool:
    return _line_holds(A, "two_sided", P)


def _idempotent_test(A: MSC):
    """(x, y) -> whether u = x*e1 + y*e2 is nonzero with u*u = u, for raw x
    and y.  As xy = yx, u*u = (a1*x^2 + a23*xy + a4*y^2, likewise with the
    b's)."""
    add, mul = A.field.raw_ops()
    a1, a2, a3, a4 = (c.raw for c in A.alpha)
    b1, b2, b3, b4 = (c.raw for c in A.beta)
    M1, M23, M4 = mul[a1], mul[add[a2][a3]], mul[a4]
    N1, N23, N4 = mul[b1], mul[add[b2][b3]], mul[b4]

    def test(x, y) -> bool:
        mx = mul[x]
        xx, xy, yy = mx[x], mx[y], mul[y][y]
        return (
            add[add[M1[xx]][M23[xy]]][M4[yy]] == x
            and add[add[N1[xx]][N23[xy]]][N4[yy]] == y
            and bool(x or y)
        )

    return test


def _quasiunit_test(A: MSC):
    """(x, y) -> whether e = x*e1 + y*e2 is a left quasiunit, for raw x and y.

    The identity e(uv) + uv = (eu)v + u(ev) is checked coordinate by
    coordinate on the four basis pairs u = e_i, v = e_j, which suffices by
    bilinearity.  There uv = P_ij is a structure constant, and only c_j =
    e*e_j = x*P_0j + y*P_1j depends on e: e(uv) combines c_0 and c_1 with
    the coordinates of P_ij, (eu)v = c_i*e_j combines column j of P, and
    u(ev) = e_i*c_j combines row i of P.
    """
    add, mul = A.field.raw_ops()
    P = [(a.raw, b.raw) for a, b in zip(A.alpha, A.beta)]  # P[2i + j] = P_ij
    M = [(mul[s], mul[t]) for s, t in P]  # the rows of P's coordinates
    # c[2j + k] = coordinate k of c_j = x*P_0j[k] + y*P_1j[k]
    rows_c = [(M[j][k], M[2 + j][k]) for j in (0, 1) for k in (0, 1)]
    eqs = []
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                uv = 2 * i + j
                eqs.append((
                    k, add[P[uv][k]], *M[uv],  # e(uv) + uv
                    2 * i, *rows_c[2 * j + k],  # (eu)v
                    2 * j, M[2 * i][k], M[2 * i + 1][k],  # u(ev)
                ))

    def test(x, y) -> bool:
        c = [add[X[x]][Y[y]] for X, Y in rows_c]
        for k, Uk, U0, U1, i, C0, C1, j, R0, R1 in eqs:
            lhs = Uk[add[U0[c[k]]][U1[c[2 + k]]]]
            if lhs != add[add[C0[c[i]]][C1[c[i + 1]]]][add[R0[c[j]]][R1[c[j + 1]]]]:
                return False
        return True

    return test


def is_idempotent(A: MSC, u: Element) -> bool:
    """v^2 = v for a nonzero v; the zero element is rejected by convention."""
    return _idempotent_test(A)(_raw(A, u.x), _raw(A, u.y))


def is_left_quasiunit(A: MSC, e: Element) -> bool:
    """e(uv) = (eu)v + u(ev) - uv for all u, v."""
    return _quasiunit_test(A)(_raw(A, e.x), _raw(A, e.y))


_POINT_TESTS = {"idempotents": _idempotent_test, "quasiunits": _quasiunit_test}


def oracle_enumerate(A: MSC, kind: str) -> LineSet:
    """Test every line of the plane against the definition of `kind`."""
    test, e2 = _line_test(A, kind)
    F = A.field
    if not F.is_finite:
        raise InfiniteField("cannot enumerate lines over Q")
    hits = [ProjPoint.affine(F._fel(y)) for y in range(F.order) if test(y)]
    if e2:
        hits.append(ProjPoint.e2())
    return LineSet.in_plane(F, hits)


def oracle_points(A: MSC, kind: str) -> list[Element]:
    """Exhaustive element scan: idempotents skip zero, quasiunits include it.
    The scan runs over x, then y, in index order, so the hits come sorted."""
    if kind not in _POINT_TESTS:
        raise ValueError(f"unknown point kind {kind!r}")
    F = A.field
    if not F.is_finite:
        raise InfiniteField("cannot enumerate elements over Q")
    test = _POINT_TESTS[kind](A)
    q, fel = range(F.order), F._fel
    return [Element(fel(x), fel(y)) for x in q for y in q if test(x, y)]


class OracleMismatch(Exception):
    """Solver and brute-force oracle disagree: an implementation bug."""


def oracle_check(A: MSC, kind: str, solved):
    """The oracle's answer for `kind` on A, insisting that it equals the
    solver's: a LineSet for a line kind, the sorted element list of
    `oracle_points` for idempotents and quasiunits."""
    oracle = oracle_points(A, kind) if kind in _POINT_TESTS else oracle_enumerate(A, kind)
    if oracle != solved:
        raise OracleMismatch(f"{kind} of {A.text()} over {A.field.text()} disagree with the oracle")
    return oracle


def all_mscs(field: Field):
    """Iterate every MSC over a finite field in canonical order."""
    if not field.is_finite:
        raise InfiniteField("cannot enumerate MSCs over Q")
    for idx in range(field.order**8):
        yield msc_from_index(field, idx)


def msc_from_index(field: Field, idx: int) -> MSC:
    """MSC number idx in the canonical order: a1..a4, b1..b4 are the base-q
    digits of idx, least significant first."""
    digits = field.index_digits(idx, 8)
    return MSC(field, digits[:4], digits[4:])
