"""Two-dimensional algebras given by structure constants, with brute-force oracles.

An algebra is a 2x4 matrix of structure constants over an exact field:

    e1*e1 = a1*e1 + b1*e2    e1*e2 = a2*e1 + b2*e2
    e2*e1 = a3*e1 + b3*e2    e2*e2 = a4*e1 + b4*e2

This module holds the bilinear product, definition checkers for every
structure of interest (subalgebras, idempotents, one-sided and two-sided
ideals, left quasiunits), and exhaustive enumeration oracles over finite
fields, with `oracle_check`, the one comparison of a solver's answer with
them.  Each checker is built once per algebra from the structure
constants, so that testing one candidate costs only the arithmetic that
depends on it; the oracles scan with the same checkers.  Everything operates
on immutable values.
"""

from __future__ import annotations

from .fields import Fel, Field, FieldMismatch, InfiniteField, ParseError, embed, parse_el


class MSC:
    """Matrix of structure constants (a1..a4; b1..b4) over one field."""

    __slots__ = ("field", "alpha", "beta")

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

    def __neg__(self) -> "Element":
        return Element(-self.x, -self.y)

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

    @classmethod
    def from_vector(cls, x: Fel, y: Fel) -> "ProjPoint":
        if x.is_zero:
            if y.is_zero:
                raise ValueError("the zero vector spans no line")
            return cls(None)
        return cls(y / x)

    @property
    def is_e2(self) -> bool:
        return self.y0 is None

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


def _comb(x: Fel, p: tuple, y: Fel, q: tuple) -> tuple:
    """The coordinates of x*p + y*q, for p and q given by their coordinates."""
    return x * p[0] + y * q[0], x * p[1] + y * q[1]


def _square(A: MSC):
    """(x, y) -> the coordinates of u*u for u = x*e1 + y*e2.  As xy = yx, the
    e1-coordinate is a1*x^2 + (a2+a3)*xy + a4*y^2, the e2-coordinate likewise
    with the b's, and a2+a3 and b2+b3 are summed once per algebra."""
    a1, a2, a3, a4 = A.alpha
    b1, b2, b3, b4 = A.beta
    a23, b23 = a2 + a3, b2 + b3

    def square(x: Fel, y: Fel) -> tuple:
        xx, xy, yy = x * x, x * y, y * y
        return a1 * xx + a23 * xy + a4 * yy, b1 * xx + b23 * xy + b4 * yy

    return square


def _on_line(wx: Fel, wy: Fel, P: ProjPoint) -> bool:
    """Whether wx*e1 + wy*e2 lies on the line P."""
    if P.y0 is None:
        return wx.is_zero
    return wy == wx * P.y0


def _line_test(A: MSC, kind: str):
    """The definition of a line kind as a predicate on the line P, tested on
    the normalised generator u of P: u*u in F*u for a subalgebra; e_i*u (or
    u*e_i) in F*u for both basis vectors for an ideal, which suffices by
    linearity.  The basis is built once per algebra, and a two-sided ideal
    checks both sides on one generator."""
    F = A.field
    if kind == "subalgebras":
        square = _square(A)

        def closed(P):
            u = P.generator(F)
            return _on_line(*square(u.x, u.y), P)

        return closed
    sides = {"left": (False,), "right": (True,), "two_sided": (False, True)}[kind]
    e1, e2 = basis(F)

    def absorbs(P):
        u = P.generator(F)
        for right in sides:
            for v in (e1, e2):
                w = mul(A, u, v) if right else mul(A, v, u)
                if not _on_line(w.x, w.y, P):
                    return False
        return True

    return absorbs


def is_subalgebra(A: MSC, P: ProjPoint) -> bool:
    """u^2 in F*u for the normalised generator u of P."""
    return _line_test(A, "subalgebras")(P)


def is_left_ideal(A: MSC, P: ProjPoint) -> bool:
    """v*u in F*u for the two basis vectors v, which suffices by linearity."""
    return _line_test(A, "left")(P)


def is_right_ideal(A: MSC, P: ProjPoint) -> bool:
    return _line_test(A, "right")(P)


def is_two_sided_ideal(A: MSC, P: ProjPoint) -> bool:
    return _line_test(A, "two_sided")(P)


def _idempotent_test(A: MSC):
    """(x, y) -> whether u = x*e1 + y*e2 is nonzero with u*u = u."""
    square = _square(A)
    return lambda x, y: square(x, y) == (x, y) and not (x.is_zero and y.is_zero)


def _quasiunit_test(A: MSC):
    """(x, y) -> whether e = x*e1 + y*e2 is a left quasiunit.

    The identity e(uv) = (eu)v + u(ev) - uv is checked coordinate by
    coordinate on the four basis pairs u = e_i, v = e_j, which suffices by
    bilinearity.  There uv = P_ij is a structure constant, and only
    c_j = e*e_j = x*P_1j + y*P_2j depends on e: e(uv) combines c_1 and c_2
    with the coordinates of P_ij, (eu)v = c_i*e_j combines column j of P,
    and u(ev) = e_i*c_j combines row i of P.
    """
    a, b = A.alpha, A.beta
    P = ((a[0], b[0]), (a[1], b[1])), ((a[2], b[2]), (a[3], b[3]))  # P[i][j] = e_(i+1)*e_(j+1)
    eqs = [
        (i, j, k, P[i][j], P[0][j][k], P[1][j][k], P[i][0][k], P[i][1][k])
        for i in (0, 1)
        for j in (0, 1)
        for k in (0, 1)
    ]

    def test(x: Fel, y: Fel) -> bool:
        c = _comb(x, P[0][0], y, P[1][0]), _comb(x, P[0][1], y, P[1][1])
        for i, j, k, uv, col1, col2, row1, row2 in eqs:
            (s, t), (s2, t2) = c[i], c[j]
            lhs = uv[0] * c[0][k] + uv[1] * c[1][k]
            if lhs != s * col1 + t * col2 + s2 * row1 + t2 * row2 - uv[k]:
                return False
        return True

    return test


def is_idempotent(A: MSC, u: Element) -> bool:
    """v^2 = v for a nonzero v; the zero element is rejected by convention."""
    return _idempotent_test(A)(u.x, u.y)


def is_left_quasiunit(A: MSC, e: Element) -> bool:
    """e(uv) = (eu)v + u(ev) - uv for all u, v."""
    return _quasiunit_test(A)(e.x, e.y)


_POINT_TESTS = {"idempotents": _idempotent_test, "quasiunits": _quasiunit_test}


def oracle_enumerate(A: MSC, kind: str) -> LineSet:
    """Test every line of the plane against the definition of `kind`."""
    check = _line_test(A, kind)
    hits = (P for P in projective_points(A.field) if check(P))
    return LineSet.in_plane(A.field, hits)


def oracle_points(A: MSC, kind: str) -> list[Element]:
    """Exhaustive element scan: idempotents skip zero, quasiunits include it.
    The scan runs over x, then y, in index order, so the hits come sorted."""
    F = A.field
    if not F.is_finite:
        raise InfiniteField("cannot enumerate elements over Q")
    if kind not in _POINT_TESTS:
        raise ValueError(f"unknown point kind {kind!r}")
    test = _POINT_TESTS[kind](A)
    els = F.elements()
    return [Element(x, y) for x in els for y in els if test(x, y)]


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
