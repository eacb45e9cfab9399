"""The canonical-family classification tables as executable predicates.

Each table row is transcribed cell by cell; a cell is a conjunction of
parameter conditions and predicts a count category (or, for quasiunits, a
solution set).  Cells carry citation ids like ``left:ne23/A1/one/b`` so that
any disagreement with the solver can be reported against the exact row under
suspicion.  The transcription is deliberately verbatim: known-suspect cells
are kept as printed and adjudicated by the sweep harness, and a few
ambiguous readings are selectable through the ``flags`` mapping.
"""

from __future__ import annotations

from .algebra import Element
from .fields import Fel, Field
from .poly import Poly, RootCount, poly_gcd
from .families import FamilyId, Regime, check_point
from .solvers import AffineSolutionSet

ZERO = RootCount.ZERO
ONE = RootCount.ONE
TWO = RootCount.TWO
THREE = RootCount.THREE
INF = RootCount.INFINITE

# Ambiguous readings, adjudicated by the table sweep (see the verification
# report): each flag governs one row, (quantity, regime, family index), and
# lists its readings with the one the sweep confirms first.
FLAGS = {
    # symbol P in the char-3 left-ideal rows: formula from the left-ideal
    # caption ("left") or from the right-ideal caption ("right")
    "left_char3_P": ("left", Regime.CHAR3, 1, ("left", "right")),
    # char-3 one-ideal condition for A1: b1 = 2*a1 + a2 ("alpha1") or the
    # literal prose b1 = a2 + 2*a2 ("alpha2")
    "twosided_char3_A1_b1": ("two_sided", Regime.CHAR3, 1, ("alpha1", "alpha2")),
    # char-3 single-subalgebra condition for A2: b2 = 2*a1 - 1 ("alpha1") or
    # the literal b2 = 2*a2 - 1 with a2 the (zero) matrix entry ("alpha2")
    "table2_A23_one": ("subalgebras", Regime.CHAR3, 2, ("alpha1", "alpha2")),
    # discriminant under the square root in the two/three-subalgebra cells of
    # A1: with the factor 3 restored ("with3") or as printed ("printed")
    "table1_A1_disc": ("subalgebras", Regime.NE23, 1, ("with3", "printed")),
    # squared factor in the char-3 right-ideal A2 row: (2*a1-1)^2 ("alpha1")
    # or the literal (2*a2-1)^2 with a2 the (zero) matrix entry ("alpha2")
    "table6_A23_sq": ("right", Regime.CHAR3, 2, ("alpha1", "alpha2")),
}
FLAG_CHOICES = {flag: row[3] for flag, row in FLAGS.items()}
DEFAULT_FLAGS = {flag: choices[0] for flag, choices in FLAG_CHOICES.items()}


class Prediction:
    """Result of a table lookup: a category (or None) plus the matched cells."""

    __slots__ = ("category", "matched")

    def __init__(self, category: RootCount | None, matched: list[str]):
        self.category = category
        self.matched = matched

    def __repr__(self):
        cat = "none" if self.category is None else self.category.label
        return f"Prediction({cat}, {self.matched})"


def _resolve(cells: list[tuple[RootCount, str, bool]]) -> Prediction:
    matched = [(cat, cid) for cat, cid, hit in cells if hit]
    cats = {cat for cat, _ in matched}
    ids = [cid for _, cid in matched]
    if len(cats) == 1:
        return Prediction(next(iter(cats)), ids)
    return Prediction(None, ids)


def _fr(F: Field, num: int, den: int = 1) -> Fel:
    x = F.el(num)
    return x if den == 1 else x / F.el(den)


def _pm_product_zero(cubic: Poly, neg_b: Fel, disc: Fel, denom: Fel) -> bool:
    """Whether cubic((neg_b+s)/denom) * cubic((neg_b-s)/denom) vanishes, s = sqrt(disc).

    The two points are the roots of g(y) = (denom*y - neg_b)^2 - disc, so the
    product vanishes exactly when the cubic shares a root with g, which the
    base field decides: gcd(cubic, g) is not constant.
    """
    F = denom.field
    g = Poly(F, [neg_b * neg_b - disc, -F.el(2) * denom * neg_b, denom * denom])
    return poly_gcd(cubic, g).degree > 0


def _pm_target_hit(target: Fel, center: Fel, coef: Fel, radicand: Fel) -> bool:
    """Whether target equals center + coef*sqrt(radicand) for either sign,
    that is, whether (target - center)^2 = coef^2 * radicand."""
    d = target - center
    return d * d == coef * coef * radicand


# ---------------------------------------------------------------------------
# Subalgebra counts (regimes ne23, char2, char3).

def _subalg_ne23(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    z = F.zero
    three = F.el(3)
    if i == 1:
        a1, a2, a4, b1 = c
        t1 = three * a2 + one_
        t2 = three * a1 - one_
        cubic = Poly(F, [-b1, t2, t1, a4])
        cells = []
        if not a4.is_zero:
            peak_a1 = t1 * t1 / (F.el(9) * a4) + _fr(F, 1, 3)
            peak_b1 = -(t1**3) / (F.el(27) * a4 * a4)
            if flags["table1_A1_disc"] == "printed":
                disc = t1 * t1 - a4 * t2
            else:
                disc = t1 * t1 - three * a4 * t2
            prod0 = _pm_product_zero(cubic, -t1, disc, three * a4)
            cells += [
                (ONE, "subalg:ne23/A1/one/a", a1 == peak_a1 and b1 == peak_b1),
                (TWO, "subalg:ne23/A1/two/a", a1 != peak_a1 and prod0),
                (THREE, "subalg:ne23/A1/three/a", not prod0),
            ]
        else:
            third = _fr(F, 1, 3)
            mthird = -third
            hit = _pm_target_hit(a1, third, _fr(F, 2, 3), -(one_ + a2) * b1)
            cells += [
                (ONE, "subalg:ne23/A1/one/b", not b1.is_zero and a1 == third and a2 == mthird),
                (TWO, "subalg:ne23/A1/two/b", a2 != mthird and hit),
                (TWO, "subalg:ne23/A1/two/c", a1 != third and a2 == mthird),
                (THREE, "subalg:ne23/A1/three/b", a2 != mthird and not hit),
                (INF, "subalg:ne23/A1/inf", b1.is_zero and a1 == third and a2 == mthird),
            ]
        return cells
    if i == 2:
        a1, b1, b2 = c
        tail = F.el(2) * a1 - b2 - one_
        cubic = Poly(F, [-b1, tail, z, one_])
        prod0 = _pm_product_zero(
            cubic, z, three * (one_ + b2 - F.el(2) * a1), three
        )
        return [
            (ONE, "subalg:ne23/A2/one", b1.is_zero and b2 == F.el(2) * a1 - one_),
            (TWO, "subalg:ne23/A2/two", b2 != F.el(2) * a1 - one_ and prod0),
            (THREE, "subalg:ne23/A2/three", not prod0),
        ]
    if i == 3:
        b1, b2 = c
        knot = -((b2 + one_) ** 2) / F.el(12)
        return [
            (TWO, "subalg:ne23/A3/two", b1 == knot),
            (THREE, "subalg:ne23/A3/three", b1 != knot),
        ]
    if i == 4:
        a1, b2 = c
        line = F.el(2) * a1 - one_
        return [
            (TWO, "subalg:ne23/A4/two", b2 != line),
            (INF, "subalg:ne23/A4/inf", b2 == line),
        ]
    if i == 5:
        return [(ONE, "subalg:ne23/A5/one", True)]
    if i == 6:
        a1, b1 = c
        third = _fr(F, 1, 3)
        cubic = Poly(F, [-b1, three * a1 - one_, z, one_])
        prod0 = _pm_product_zero(cubic, z, three * (one_ - three * a1), three)
        return [
            (ONE, "subalg:ne23/A6/one", b1.is_zero and a1 == third),
            (TWO, "subalg:ne23/A6/two", a1 != third and prod0),
            (THREE, "subalg:ne23/A6/three", not prod0),
        ]
    if i == 7:
        (b1,) = c
        knot = _fr(F, -1, 12)
        return [
            (TWO, "subalg:ne23/A7/two", b1 == knot),
            (THREE, "subalg:ne23/A7/three", b1 != knot),
        ]
    if i == 8:
        (a1,) = c
        third = _fr(F, 1, 3)
        return [
            (TWO, "subalg:ne23/A8/two", a1 != third),
            (INF, "subalg:ne23/A8/inf", a1 == third),
        ]
    fixed = {9: ONE, 10: TWO, 11: THREE, 12: ONE}
    return [(fixed[i], f"subalg:ne23/A{i}/plus", True)]


def _subalg_char2(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    if i == 1:
        a1, a2, a4, b1 = c
        cells = []
        if not a4.is_zero:
            peak_a1 = one_ + (a2 + one_) ** 2 / a4
            peak_b1 = (a2 + one_) ** 3 / (a4 * a4)
            mid_b1 = (a1 - one_) * (a2 + one_) / a4
            cells += [
                (ONE, "subalg:char2/A1/one/a", a1 == peak_a1 and b1 == peak_b1),
                (TWO, "subalg:char2/A1/two/a", b1 == mid_b1 and a1 != peak_a1),
                (THREE, "subalg:char2/A1/three/a", b1 != (one_ + a1) * (one_ + a2) / a4),
            ]
        else:
            cells += [
                (ONE, "subalg:char2/A1/one/b", a1 == one_ and a2 == one_ and not b1.is_zero),
                (TWO, "subalg:char2/A1/two/b", a1 == one_ and a2 != one_),
                (TWO, "subalg:char2/A1/two/c", a1 != one_ and a2 != one_),
                (THREE, "subalg:char2/A1/three/b", a1 != one_ and a2 == one_),
                (INF, "subalg:char2/A1/inf", b1.is_zero and a1 == one_ and a2 == one_),
            ]
        return cells
    if i == 2:
        a1, b1, b2 = c
        return [
            (ONE, "subalg:char2/A2/one", b1.is_zero and b2 == one_),
            (TWO, "subalg:char2/A2/two", b1.is_zero and b2 != one_),
            (THREE, "subalg:char2/A2/three", not b1.is_zero),
        ]
    if i == 3:
        a1, b2 = c
        return [
            (TWO, "subalg:char2/A3/two", b2 == one_),
            (THREE, "subalg:char2/A3/three", b2 != one_),
        ]
    if i == 4:
        a1, b2 = c
        return [
            (TWO, "subalg:char2/A4/two", b2 != one_),
            (INF, "subalg:char2/A4/inf", b2 == one_),
        ]
    if i == 6:
        a1, b1 = c
        return [
            (ONE, "subalg:char2/A6/one", b1.is_zero and a1 == one_),
            (TWO, "subalg:char2/A6/two", a1 != one_ and b1.is_zero),
            (THREE, "subalg:char2/A6/three", not b1.is_zero),
        ]
    if i == 7:
        (a1,) = c
        return [
            (TWO, "subalg:char2/A7/two", a1 == one_),
            (THREE, "subalg:char2/A7/three", a1 != one_),
        ]
    if i == 8:
        (a1,) = c
        return [
            (TWO, "subalg:char2/A8/two", a1 != one_),
            (INF, "subalg:char2/A8/inf", a1 == one_),
        ]
    fixed = {5: ONE, 9: ONE, 10: TWO, 11: THREE, 12: ONE}
    return [(fixed[i], f"subalg:char2/A{i}/plus", True)]


def _subalg_char3(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    if i == 1:
        a1, a2, a4, b1 = c
        edge = -a4 - one_
        return [
            (TWO, "subalg:char3/A1/two/a", not a4.is_zero and b1 == edge),
            (TWO, "subalg:char3/A1/two/b", a4.is_zero and b1 == -one_),
            (THREE, "subalg:char3/A1/three/a", not (a4 * (b1 + a4 + one_)).is_zero),
            (THREE, "subalg:char3/A1/three/b", a4.is_zero and b1 != -one_),
        ]
    if i == 2:
        a1, b1, b2 = c
        if flags["table2_A23_one"] == "alpha1":
            line = F.el(2) * a1 - one_
        else:
            line = -one_  # literal 2*a2-1 with the zero matrix entry a2
        return [
            (ONE, "subalg:char3/A2/one", b2 == line),
            (THREE, "subalg:char3/A2/three", b2 != line),
        ]
    if i == 3:
        b1, b2 = c
        return [
            (ONE, "subalg:char3/A3/one", b2 == -one_ and not b1.is_zero),
            (TWO, "subalg:char3/A3/two", b2 != -one_),
            (INF, "subalg:char3/A3/inf", b2 == -one_ and b1.is_zero),
        ]
    if i == 4:
        a1, b2 = c
        line = F.el(2) * a1 - one_
        return [
            (TWO, "subalg:char3/A4/two", b2 != line),
            (INF, "subalg:char3/A4/inf", b2 == line),
        ]
    fixed = {5: ONE, 6: THREE, 7: TWO, 8: TWO, 9: ONE, 10: INF, 11: ONE, 12: ONE}
    return [(fixed[i], f"subalg:char3/A{i}/plus", True)]


# ---------------------------------------------------------------------------
# Left-ideal counts.

def _left_ne23(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    two_ = F.el(2)
    three = F.el(3)
    four = F.el(4)
    if i == 1:
        a1, a2, a4, b1 = c
        t = two_ * a2 + one_
        P = (a4 * b1 - a2 * (one_ - a1)) ** 2 + (
            two_ * a1 * a4 - a2 * t
        ) * (t * b1 - two_ * a1 * (one_ - a1))
        half_neg = _fr(F, -1, 2)
        cells = []
        if a4.is_zero:
            cells += [
                (
                    ZERO,
                    "left:ne23/A1/zero/a",
                    a2 != half_neg
                    and not a2.is_zero
                    and b1 != (one_ - a1) * (two_ * a1 + a2 + three * a1 * a2) / (t * t),
                ),
                (ZERO, "left:ne23/A1/zero/b", a1 != one_ and a2 == half_neg),
                (
                    ONE,
                    "left:ne23/A1/one/a",
                    a2 != half_neg
                    and not a2.is_zero
                    and b1 == (one_ - a1) * (two_ * a1 + a2 + three * a1 * a2) / (t * t),
                ),
                (
                    ONE,
                    "left:ne23/A1/one/d",
                    a1 == one_ and a2 == half_neg and b1 == two_,
                ),
                (
                    ONE,
                    "left:ne23/A1/one/e",
                    a2.is_zero and b1 != two_ * a1 * (one_ - a1),
                ),
                (
                    TWO,
                    "left:ne23/A1/two/b",
                    a1 == one_ and a2 == half_neg and b1 != two_,
                ),
                (TWO, "left:ne23/A1/two/c", a2.is_zero and b1 == two_ * a1 * (one_ - a1)),
            ]
        else:
            ridge = one_ + t * t / (four * a4)
            valley = a2 * t / (two_ * a4)
            cells += [
                (
                    ZERO,
                    "left:ne23/A1/zero/c",
                    not P.is_zero and a1 != ridge and a1 != valley,
                ),
                (
                    ZERO,
                    "left:ne23/A1/zero/d",
                    a1 == ridge
                    and b1 != t * (two_ * a2 * a2 + a2 - four * a4 * a1) / (four * a4 * a4),
                ),
                (
                    ZERO,
                    "left:ne23/A1/zero/e",
                    a1 != ridge and a1 == valley and b1 != a2 * (one_ - a1) / a4,
                ),
                (
                    ONE,
                    "left:ne23/A1/one/b",
                    a1 == ridge
                    and b1 == t * (two_ * a2 * a2 + a2 - four * a4 * a1) / (four * a4 * a4),
                ),
                (ONE, "left:ne23/A1/one/c", P.is_zero and a1 != ridge and a1 != valley),
                (
                    TWO,
                    "left:ne23/A1/two/a",
                    a1 == ridge
                    and b1 == valley
                    and a2 == -(four * a4 + one_) / two_,
                ),
            ]
        return cells
    if i == 2:
        a1, b1, b2 = c
        return [
            (ZERO, "left:ne23/A2/zero/a", not b1.is_zero and a1 == one_),
            (
                ZERO,
                "left:ne23/A2/zero/b",
                a1 != one_ and b2 != a1 and not (b1 * b1 + a1 - one_).is_zero,
            ),
            (ZERO, "left:ne23/A2/zero/c", a1 != one_ and b2 == a1 and not b1.is_zero),
            (ONE, "left:ne23/A2/one/a", a1 == one_ and b1.is_zero),
            (
                ONE,
                "left:ne23/A2/one/b",
                a1 != one_ and b2 != a1 and (b1 * b1 + a1 - one_).is_zero,
            ),
            (TWO, "left:ne23/A2/two", a1 != one_ and b2 == a1 and b1.is_zero),
        ]
    if i == 3:
        b1, b2 = c
        expr = one_ - two_ * b2 - four * b1
        return [
            (ZERO, "left:ne23/A3/zero", not expr.is_zero),
            (ONE, "left:ne23/A3/one", expr.is_zero),
        ]
    if i == 4:
        a1, b2 = c
        return [
            (ONE, "left:ne23/A4/one", a1 != one_),
            (TWO, "left:ne23/A4/two", a1 == one_ and b2 != a1),
            (INF, "left:ne23/A4/inf", b2 == a1 and a1 == one_),
        ]
    if i == 6:
        a1, b1 = c
        half = _fr(F, 1, 2)
        return [
            (ZERO, "left:ne23/A6/zero/a", a1.is_zero and not b1.is_zero),
            (
                ZERO,
                "left:ne23/A6/zero/b",
                not a1.is_zero and a1 != half and b1 * b1 != a1,
            ),
            (ONE, "left:ne23/A6/one/a", a1 == half and b1.is_zero),
            (
                ONE,
                "left:ne23/A6/one/b",
                not a1.is_zero and a1 != half and b1 * b1 == a1,
            ),
            (TWO, "left:ne23/A6/two", a1 == half and b1.is_zero),
        ]
    if i == 7:
        (b1,) = c
        return [
            (ZERO, "left:ne23/A7/zero", not b1.is_zero),
            (ONE, "left:ne23/A7/one", b1.is_zero),
        ]
    if i == 8:
        (a1,) = c
        return [
            (ONE, "left:ne23/A8/one", not a1.is_zero),
            (TWO, "left:ne23/A8/two", a1.is_zero),
        ]
    fixed = {5: ONE, 9: ONE, 10: ONE, 11: ZERO, 12: ONE}
    return [(fixed[i], f"left:ne23/A{i}/plus", True)]


def _left_char2(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    if i == 1:
        a1, a2, a4, b1 = c
        big = a4 * a4 * b1 * b1 + a2 * a2 * (one_ - a1) ** 2 + a2 * b1
        return [
            (
                ZERO,
                "left:char2/A1/zero/a",
                a4.is_zero and not a2.is_zero and a2 * (one_ - a1) ** 2 != b1,
            ),
            (
                ZERO,
                "left:char2/A1/zero/b",
                not (a2 * a4).is_zero and not big.is_zero,
            ),
            (ZERO, "left:char2/A1/zero/c", not (a4 * b1).is_zero and a2.is_zero),
            (
                ONE,
                "left:char2/A1/one/a",
                a4.is_zero and not a2.is_zero and a2 * (one_ - a1) ** 2 == b1,
            ),
            (ONE, "left:char2/A1/one/b", not (a2 * a4).is_zero and big.is_zero),
            (
                ONE,
                "left:char2/A1/one/c",
                a4.is_zero and a2.is_zero and not b1.is_zero,
            ),
            (
                TWO,
                "left:char2/A1/two/a",
                not a4.is_zero and a2.is_zero and b1.is_zero,
            ),
            (
                TWO,
                "left:char2/A1/two/b",
                a4.is_zero and a2.is_zero and b1.is_zero,
            ),
        ]
    if i == 2:
        a1, b1, b2 = c
        expr = (a1 * a1 + b2 * b2) * (one_ - a1) + b1 * b1
        return [
            (ZERO, "left:char2/A2/zero", not expr.is_zero),
            (ONE, "left:char2/A2/one", expr.is_zero),
        ]
    if i == 3:
        a1, b2 = c
        return [
            (ZERO, "left:char2/A3/zero", a1 != one_),
            (ONE, "left:char2/A3/one", a1 == one_ and b2 == one_),
            (TWO, "left:char2/A3/two", a1 == one_ and b2 != one_),
        ]
    if i == 4:
        a1, b2 = c
        return [
            (ONE, "left:char2/A4/one", a1 != one_),
            (TWO, "left:char2/A4/two", a1 == one_ and a1 != b2),
            (INF, "left:char2/A4/inf", b2 == a1 and a1 == one_),
        ]
    if i == 6:
        a1, b1 = c
        return [
            (ZERO, "left:char2/A6/zero", not (a1 + b1 * b1).is_zero),
            (ONE, "left:char2/A6/one", (a1 + b1 * b1).is_zero),
        ]
    if i == 7:
        (a1,) = c
        return [
            (ZERO, "left:char2/A7/zero", not a1.is_zero),
            (TWO, "left:char2/A7/two", a1.is_zero),
        ]
    if i == 8:
        (a1,) = c
        return [
            (ONE, "left:char2/A8/one", not a1.is_zero),
            (TWO, "left:char2/A8/two", a1.is_zero),
        ]
    fixed = {5: ONE, 9: ONE, 10: ONE, 11: ZERO, 12: ONE}
    return [(fixed[i], f"left:char2/A{i}/plus", True)]


def _left_char3(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    two_ = F.el(2)
    if i == 1:
        a1, a2, a4, b1 = c
        t = two_ * a2 + one_
        if flags["left_char3_P"] == "left":
            P = (a4 * b1 - a2 * (one_ - a1)) ** 2 + (
                two_ * a1 * a4 - a2 * t
            ) * (t * b1 - two_ * a1 * (one_ - a1))
        else:
            P = (a4 * b1 + a1 * (a2 + one_)) ** 2 + a2 * (a2 + one_) * (
                -F.el(4) * a2 * b1 - F.el(4) * a1 * a1 + two_ * a1
            ) + a4 * (
                F.el(4) * a2 * a1 * b1
                - two_ * a2 * b1
                + F.el(4) * (a1 - one_) * a1 * a1
                + a1
            )
        cells = []
        if a4.is_zero:
            cells += [
                (
                    ZERO,
                    "left:char3/A1/zero/a",
                    not a2.is_zero
                    and a2 != one_
                    and b1 != (one_ - a1) * (two_ * a1 + a2) / (t * t),
                ),
                (ZERO, "left:char3/A1/zero/b", a1 != one_ and a2 == one_),
                (
                    ONE,
                    "left:char3/A1/one/a",
                    not a2.is_zero
                    and a2 != one_
                    and b1 == (one_ - a1) * (two_ * a1 + a2) / (t * t),
                ),
                (
                    ONE,
                    "left:char3/A1/one/d",
                    a1 == one_ and a2 == one_ and b1 == two_,
                ),
                (ONE, "left:char3/A1/one/e", a2.is_zero and b1 != two_ * a1 * (one_ - a1)),
                (TWO, "left:char3/A1/two/b", a1 == one_ and a2 == one_ and b1 != two_),
                (TWO, "left:char3/A1/two/c", a2.is_zero and b1 == two_ * a1 * (one_ - a1)),
            ]
        else:
            ridge = one_ + t * t / a4
            valley = a2 * t / (two_ * a4)
            cells += [
                (ZERO, "left:char3/A1/zero/c", not P.is_zero and a1 != ridge and a1 != valley),
                (
                    ZERO,
                    "left:char3/A1/zero/d",
                    a1 == ridge and b1 != t * (two_ * a2 * a2 + a2 - a4 * a1) / (a4 * a4),
                ),
                (
                    ZERO,
                    "left:char3/A1/zero/e",
                    a1 != ridge and a1 == valley and b1 != a2 * (one_ - a1) / a4,
                ),
                (
                    ONE,
                    "left:char3/A1/one/b",
                    a1 == ridge and b1 == t * (two_ * a2 * a2 + a2 - a4 * a1) / (a4 * a4),
                ),
                (ONE, "left:char3/A1/one/c", P.is_zero and a1 != ridge and a1 != valley),
                (
                    TWO,
                    "left:char3/A1/two/a",
                    a1 == ridge and b1 == valley and a2 == -(a4 + one_),
                ),
            ]
        return cells
    if i == 2:
        a1, b1, b2 = c
        return [
            (ZERO, "left:char3/A2/zero/a", not b1.is_zero and a1 == one_),
            (
                ZERO,
                "left:char3/A2/zero/b",
                a1 != one_ and b2 != a1 and not (b1 * b1 + a1 - one_).is_zero,
            ),
            (ZERO, "left:char3/A2/zero/c", b2 == a1 and a1 != one_ and not b1.is_zero),
            (ONE, "left:char3/A2/one/a", a1 == one_ and b1.is_zero),
            (
                ONE,
                "left:char3/A2/one/b",
                a1 != one_ and b2 != a1 and (b1 * b1 + a1 - one_).is_zero,
            ),
            (TWO, "left:char3/A2/two", b2 == a1 and a1 != one_ and b1.is_zero),
        ]
    if i == 3:
        b1, b2 = c
        expr = one_ - two_ * b2 - b1
        return [
            (ZERO, "left:char3/A3/zero", not expr.is_zero),
            (ONE, "left:char3/A3/one", expr.is_zero),
        ]
    if i == 4:
        a1, b2 = c
        return [
            (ONE, "left:char3/A4/one", a1 != one_),
            (TWO, "left:char3/A4/two", a1 == one_ and b2 != a1),
            (INF, "left:char3/A4/inf", b2 == a1 and a1 == one_),
        ]
    if i == 6:
        a1, b1 = c
        neg1 = -one_
        return [
            (ZERO, "left:char3/A6/zero/a", a1.is_zero and not b1.is_zero),
            (
                ZERO,
                "left:char3/A6/zero/b",
                not a1.is_zero and a1 != neg1 and b1 * b1 != a1,
            ),
            (ONE, "left:char3/A6/one/a", a1 == neg1 and b1.is_zero),
            (
                ONE,
                "left:char3/A6/one/b",
                not a1.is_zero and a1 != neg1 and b1 * b1 == a1,
            ),
            (TWO, "left:char3/A6/two", a1 == neg1 and b1.is_zero),
        ]
    if i == 7:
        (b1,) = c
        return [
            (ZERO, "left:char3/A7/zero", not b1.is_zero),
            (ONE, "left:char3/A7/one", b1.is_zero),
        ]
    if i == 8:
        (a1,) = c
        return [
            (ONE, "left:char3/A8/one", not a1.is_zero),
            (TWO, "left:char3/A8/two", a1.is_zero),
        ]
    fixed = {5: ONE, 9: ZERO, 10: ONE, 11: ONE, 12: ONE}
    return [(fixed[i], f"left:char3/A{i}/plus", True)]


# ---------------------------------------------------------------------------
# Right-ideal counts.

def _right_ne23(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    two_ = F.el(2)
    four = F.el(4)
    if i == 1:
        a1, a2, a4, b1 = c
        P = (a4 * b1 + a1 * (a2 + one_)) ** 2 + a2 * (a2 + one_) * (
            -four * a2 * b1 - four * a1 * a1 + two_ * a1
        ) + a4 * (
            four * a2 * a1 * b1
            - two_ * a2 * b1
            + four * (a1 - one_) * a1 * a1
            + a1
        )
        cells = []
        if a4.is_zero:
            cells += [
                (
                    ZERO,
                    "right:ne23/A1/zero/a",
                    not a2.is_zero
                    and a2 != -one_
                    and b1 != a1 * (two_ * a2 + a1 - F.el(3) * a1 * a2) / (four * a2 * a2),
                ),
                (ZERO, "right:ne23/A1/zero/b", a2.is_zero and not a1.is_zero),
                (
                    ONE,
                    "right:ne23/A1/one/a",
                    not a2.is_zero
                    and a2 != -one_
                    and b1 == a1 * (two_ * a2 + a1 - F.el(3) * a1 * a2) / (four * a2 * a2),
                ),
                (
                    ONE,
                    "right:ne23/A1/one/b",
                    a1.is_zero and a2.is_zero and b1 == _fr(F, -1, 4),
                ),
                (
                    ONE,
                    "right:ne23/A1/one/e",
                    a2 == -one_ and b1 != a1 * (two_ * a1 - one_) / two_,
                ),
                (
                    TWO,
                    "right:ne23/A1/two/b",
                    a1.is_zero and a2.is_zero and b1 != _fr(F, -1, 4),
                ),
                (
                    TWO,
                    "right:ne23/A1/two/c",
                    a2 == -one_ and b1 == a1 * (two_ * a1 - one_) / two_,
                ),
            ]
        else:
            knee = a2 * a2 / a4
            crest = _fr(F, 1, 2) + a2 * (a2 + one_) / a4
            cells += [
                (
                    ZERO,
                    "right:ne23/A1/zero/c",
                    a1 != knee and a1 != crest and not P.is_zero,
                ),
                (
                    ZERO,
                    "right:ne23/A1/zero/d",
                    a1 == knee
                    and b1 != a2 * a2 * (a2 + two_ * a4 - four * a4 * a1 + one_) / (a4 * a4),
                ),
                (
                    ZERO,
                    "right:ne23/A1/zero/e",
                    a1 == crest and a2 != -a4 / two_ and b1 != -a1 * (a2 + one_) / a4,
                ),
                (ONE, "right:ne23/A1/one/c", a1 != knee and a1 != crest and P.is_zero),
                (
                    ONE,
                    "right:ne23/A1/one/d",
                    a1 == knee
                    and b1 == a2 * a2 * (a2 + two_ * a4 - four * a4 * a1 + one_) / (a4 * a4),
                ),
                (
                    TWO,
                    "right:ne23/A1/two/a",
                    a1 == crest and a2 != -a4 / two_ and b1 == -a1 * (a2 + one_) / a4,
                ),
            ]
        return cells
    if i == 2:
        a1, b1, b2 = c
        half = _fr(F, 1, 2)
        resid = b1 * b1 - b2 * (two_ * a1 - one_) ** 2
        return [
            (ZERO, "right:ne23/A2/zero/a", not b1.is_zero and b2.is_zero),
            (
                ZERO,
                "right:ne23/A2/zero/b",
                a1 != half and not b2.is_zero and not resid.is_zero,
            ),
            (ZERO, "right:ne23/A2/zero/c", a1 == half and not b2.is_zero and not b1.is_zero),
            (ONE, "right:ne23/A2/one/a", not b2.is_zero and b1.is_zero),
            (ONE, "right:ne23/A2/one/b", a1 != half and not b2.is_zero and resid.is_zero),
            (TWO, "right:ne23/A2/two", a1 == half and not b2.is_zero and b1.is_zero),
        ]
    if i == 3:
        b1, b2 = c
        expr = b2 * b2 - two_ * b2 - four * b1
        return [
            (ZERO, "right:ne23/A3/zero", not expr.is_zero),
            (ONE, "right:ne23/A3/one", expr.is_zero),
        ]
    if i == 4:
        a1, b2 = c
        half = _fr(F, 1, 2)
        return [
            (ONE, "right:ne23/A4/one", not b2.is_zero),
            (TWO, "right:ne23/A4/two", b2.is_zero and a1 != half),
            (INF, "right:ne23/A4/inf", b2.is_zero and a1 == half),
        ]
    if i == 6:
        a1, b1 = c
        resid = b1 * b1 - four * a1 * a1 + four * a1 * a1 * a1
        return [
            (ZERO, "right:ne23/A6/zero/a", a1 == one_ and not b1.is_zero),
            (
                ZERO,
                "right:ne23/A6/zero/b",
                a1 != one_ and not a1.is_zero and not resid.is_zero,
            ),
            (ZERO, "right:ne23/A6/zero/c", a1.is_zero and not b1.is_zero),
            (ONE, "right:ne23/A6/one/a", a1 == one_ and b1.is_zero),
            (ONE, "right:ne23/A6/one/b", a1 != one_ and not a1.is_zero and resid.is_zero),
            (TWO, "right:ne23/A6/two", a1.is_zero and b1.is_zero),
        ]
    if i == 7:
        (b1,) = c
        quarter = _fr(F, 1, 4)
        return [
            (ZERO, "right:ne23/A7/zero", b1 != quarter),
            (ONE, "right:ne23/A7/one", b1 == quarter),
        ]
    if i == 8:
        (a1,) = c
        return [
            (ONE, "right:ne23/A8/one", a1 != one_),
            (TWO, "right:ne23/A8/two", a1 == one_),
        ]
    fixed = {5: ONE, 9: ONE, 10: ONE, 11: ZERO, 12: ONE}
    return [(fixed[i], f"right:ne23/A{i}/plus", True)]


def _right_char2(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    if i == 1:
        a1, a2, a4, b1 = c
        cells = []
        if not a4.is_zero:
            fold = -((a2 + one_) ** 2 * (one_ - a1) ** 2 - b1 * b1 * a4 * a4) / a4
            cells += [
                (ZERO, "right:char2/A1/zero/b", a1 != fold),
                (ONE, "right:char2/A1/one/a", a1 == fold),
            ]
        else:
            cells += [
                (ZERO, "right:char2/A1/zero/a", not a1.is_zero and a2 != one_),
                (ONE, "right:char2/A1/one/b", not a1.is_zero and a2 == one_),
                (TWO, "right:char2/A1/two/a", a1.is_zero and a2 != one_),
                (TWO, "right:char2/A1/two/b", a1.is_zero and a2 == one_),
            ]
        return cells
    if i == 2:
        a1, b1, b2 = c
        return [
            (ZERO, "right:char2/A2/zero", b1 != b2 * b2),
            (ONE, "right:char2/A2/one", b1 == b2 * b2),
        ]
    if i == 3:
        a1, b2 = c
        return [
            (ZERO, "right:char2/A3/zero", not b2.is_zero),
            (TWO, "right:char2/A3/two", b2.is_zero),
        ]
    if i == 4:
        a1, b2 = c
        return [
            (ONE, "right:char2/A4/one", not b2.is_zero),
            (TWO, "right:char2/A4/two", b2.is_zero),
        ]
    if i == 6:
        a1, b1 = c
        return [
            (ZERO, "right:char2/A6/zero", not b1.is_zero),
            (ONE, "right:char2/A6/one", b1.is_zero),
        ]
    if i == 7:
        (a1,) = c
        return [
            (ZERO, "right:char2/A7/zero", not a1.is_zero),
            (ONE, "right:char2/A7/one", a1.is_zero),
        ]
    if i == 8:
        (a1,) = c
        return [
            (ONE, "right:char2/A8/one", a1 != one_),
            (INF, "right:char2/A8/inf", a1 == one_),
        ]
    fixed = {5: ONE, 9: ONE, 10: ONE, 11: ZERO, 12: ONE}
    return [(fixed[i], f"right:char2/A{i}/plus", True)]


def _right_char3(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    two_ = F.el(2)
    four = F.el(4)
    if i == 1:
        a1, a2, a4, b1 = c
        P = (a4 * b1 + a1 * (a2 + one_)) ** 2 + a2 * (a2 + one_) * (
            -four * a2 * b1 - four * a1 * a1 + two_ * a1
        ) + a4 * (
            four * a2 * a1 * b1
            - two_ * a2 * b1
            + four * (a1 - one_) * a1 * a1
            + a1
        )
        cells = []
        if a4.is_zero:
            cells += [
                (
                    ZERO,
                    "right:char3/A1/zero/a",
                    not a2.is_zero
                    and a2 != -one_
                    and b1 != a1 * (two_ * a2 + a1) / (a2 * a2),
                ),
                (ZERO, "right:char3/A1/zero/b", not a1.is_zero and a2.is_zero),
                (
                    ONE,
                    "right:char3/A1/one/a",
                    not a2.is_zero
                    and a2 != -one_
                    and b1 == a1 * (two_ * a2 + a1) / (a2 * a2),
                ),
                (
                    ONE,
                    "right:char3/A1/one/b",
                    a1.is_zero and a2.is_zero and b1 == _fr(F, -1, 4),
                ),
                (
                    ONE,
                    "right:char3/A1/one/e",
                    a2 == -one_ and b1 != -a1 * (two_ * a1 - one_),
                ),
                (
                    TWO,
                    "right:char3/A1/two/b",
                    a1.is_zero and a2.is_zero and b1 != -one_,
                ),
                (
                    TWO,
                    "right:char3/A1/two/c",
                    a2 == -one_ and b1 == -a1 * (two_ * a1 - one_),
                ),
            ]
        else:
            knee = a2 * a2 / a4
            crest = -one_ + a2 * (a2 + one_) / a4
            cells += [
                (ZERO, "right:char3/A1/zero/c", not P.is_zero and a1 != knee and a1 != crest),
                (
                    ZERO,
                    "right:char3/A1/zero/d",
                    a1 == knee
                    and b1 != a2 * a2 * (a2 + two_ * a4 - a4 * a1 + one_) / (a4 * a4),
                ),
                (
                    ZERO,
                    "right:char3/A1/zero/e",
                    a2 != a4 and a1 == crest and b1 != -a1 * (a2 + one_) / a4,
                ),
                (ONE, "right:char3/A1/one/c", P.is_zero and a1 != knee and a1 != crest),
                (
                    ONE,
                    "right:char3/A1/one/d",
                    a1 == knee
                    and b1 == a2 * a2 * (a2 + two_ * a4 - a4 * a1 + one_) / (a4 * a4),
                ),
                (
                    TWO,
                    "right:char3/A1/two/a",
                    a1 == _fr(F, 1, 2) + a2 * (a2 + one_) / a4
                    and a2 != a4
                    and b1 == -a1 * (a2 + one_) / a4,
                ),
            ]
        return cells
    if i == 2:
        a1, b1, b2 = c
        neg1 = -one_
        if flags["table6_A23_sq"] == "alpha1":
            sq = (two_ * a1 - one_) ** 2
        else:
            sq = (two_ * F.zero - one_) ** 2  # literal, with the zero matrix entry
        resid = b1 * b1 - b2 * sq
        return [
            (ZERO, "right:char3/A2/zero/a", not b1.is_zero and b2.is_zero),
            (
                ZERO,
                "right:char3/A2/zero/b",
                a1 != neg1 and not b2.is_zero and not resid.is_zero,
            ),
            (ZERO, "right:char3/A2/zero/c", a1 == neg1 and not b2.is_zero and not b1.is_zero),
            (ONE, "right:char3/A2/one/a", not b2.is_zero and b1.is_zero),
            (ONE, "right:char3/A2/one/b", a1 != neg1 and not b2.is_zero and resid.is_zero),
            (TWO, "right:char3/A2/two", a1 == neg1 and not b2.is_zero and b1.is_zero),
        ]
    if i == 3:
        b1, b2 = c
        expr = b2 * b2 - two_ * b2 - b1
        return [
            (ZERO, "right:char3/A3/zero", not expr.is_zero),
            (ONE, "right:char3/A3/one", expr.is_zero),
        ]
    if i == 4:
        a1, b2 = c
        neg1 = -one_
        return [
            (ONE, "right:char3/A4/one", not b2.is_zero),
            (TWO, "right:char3/A4/two", b2.is_zero and a1 != neg1),
            (INF, "right:char3/A4/inf", b2.is_zero and a1 == neg1),
        ]
    if i == 6:
        a1, b1 = c
        resid = b1 * b1 - a1 * a1 + a1 * a1 * a1
        return [
            (ZERO, "right:char3/A6/zero/a", a1 == one_ and not b1.is_zero),
            (
                ZERO,
                "right:char3/A6/zero/b",
                not a1.is_zero and a1 != one_ and not resid.is_zero,
            ),
            (ZERO, "right:char3/A6/zero/c", a1.is_zero and not b1.is_zero),
            (ONE, "right:char3/A6/one/a", a1 == one_ and b1.is_zero),
            (ONE, "right:char3/A6/one/b", a1 != one_ and not a1.is_zero and resid.is_zero),
            (TWO, "right:char3/A6/two", a1.is_zero and b1.is_zero),
        ]
    if i == 7:
        (b1,) = c
        return [
            (ZERO, "right:char3/A7/zero", b1 != one_),
            (ONE, "right:char3/A7/one", b1 == one_),
        ]
    if i == 8:
        (a1,) = c
        return [
            (ONE, "right:char3/A8/one", a1 != one_),
            (TWO, "right:char3/A8/two", a1 == one_),
        ]
    fixed = {5: ONE, 9: ONE, 10: ONE, 11: ONE, 12: ONE}
    return [(fixed[i], f"right:char3/A{i}/plus", True)]


# ---------------------------------------------------------------------------
# Two-sided ideal counts.

def _twosided_ne23(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    half = _fr(F, 1, 2)
    if i == 1:
        a1, a2, a4, b1 = c
        hit = a4 == -a1 - F.el(2) * a2 and b1 == F.el(2) * a1 + a2
        return [
            (ZERO, "twosided:ne23/A1/zero", not hit),
            (ONE, "twosided:ne23/A1/one", hit),
        ]
    if i == 2:
        a1, b1, b2 = c
        return [
            (ZERO, "twosided:ne23/A2/zero/a", a1 == one_ and not b1.is_zero and b2.is_zero),
            (
                ZERO,
                "twosided:ne23/A2/zero/b",
                a1 != half
                and a1 != one_
                and not (b1 * b1 + a1 - one_).is_zero
                and b2 == one_ - a1,
            ),
            (ZERO, "twosided:ne23/A2/zero/c", a1 == half and b2 == half and not b1.is_zero),
            (ZERO, "twosided:ne23/A2/zero/d", b2 != one_ - a1),
            (ONE, "twosided:ne23/A2/one/a", a1 == one_ and b1.is_zero and b2.is_zero),
            (
                ONE,
                "twosided:ne23/A2/one/b",
                a1 != half
                and a1 != one_
                and b2 == one_ - a1
                and (b1 * b1 + a1 - one_).is_zero,
            ),
            (TWO, "twosided:ne23/A2/two", a1 == half and b2 == half and b1.is_zero),
        ]
    if i == 3:
        b1, b2 = c
        quarter_neg = _fr(F, -1, 4)
        return [
            (ZERO, "twosided:ne23/A3/zero/a", b1 != quarter_neg and b2 == one_),
            (ZERO, "twosided:ne23/A3/zero/b", b1 != one_),
            (ONE, "twosided:ne23/A3/one", b1 == quarter_neg and b2 == one_),
        ]
    if i == 4:
        a1, b2 = c
        return [
            (ONE, "twosided:ne23/A4/one/a", a1 != one_ and b2 == one_ - a1),
            (ONE, "twosided:ne23/A4/one/b", b2 != one_ - a1),
            (TWO, "twosided:ne23/A4/two", a1 == one_ and b2.is_zero),
        ]
    fixed = {5: ONE, 6: ZERO, 7: ZERO, 8: ONE, 9: ONE, 10: ONE, 11: ZERO, 12: ONE}
    return [(fixed[i], f"twosided:ne23/A{i}/plus", True)]


def _twosided_char2(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    if i == 1:
        a1, a2, a4, b1 = c
        hit = a4 == a1 and b1 == a2
        return [
            (ZERO, "twosided:char2/A1/zero", not hit),
            (ONE, "twosided:char2/A1/one", hit),
        ]
    if i == 2:
        a1, b1, b2 = c
        expr = one_ - a1 + b1 * b1
        return [
            (
                ZERO,
                "twosided:char2/A2/zero/a",
                not expr.is_zero and b2 == one_ - a1,
            ),
            (ZERO, "twosided:char2/A2/zero/b", b2 != one_ - a1),
            (ONE, "twosided:char2/A2/one", expr.is_zero and b2 == one_ - a1),
        ]
    if i == 3:
        a1, b2 = c
        hit = a1 == one_ and b2.is_zero
        return [
            (ZERO, "twosided:char2/A3/zero", not hit),
            (TWO, "twosided:char2/A3/two", hit),
        ]
    if i == 4:
        a1, b2 = c
        return [
            (ONE, "twosided:char2/A4/one/a", a1 != one_ and b2 == one_ - a1),
            (ONE, "twosided:char2/A4/one/b", b2 != one_ - a1),
            (TWO, "twosided:char2/A4/two", a1 == one_ and b2.is_zero),
        ]
    fixed = {5: ONE, 6: ZERO, 7: ZERO, 8: ONE, 9: ONE, 10: ONE, 11: ZERO, 12: ONE}
    return [(fixed[i], f"twosided:char2/A{i}/plus", True)]


def _twosided_char3(i: int, F: Field, c, flags) -> list:
    one_ = F.one
    half = _fr(F, 1, 2)
    if i == 1:
        a1, a2, a4, b1 = c
        if flags["twosided_char3_A1_b1"] == "alpha1":
            b1_target = F.el(2) * a1 + a2
        else:
            b1_target = a2 + F.el(2) * a2  # literal prose reading
        hit = a4 == -a1 - F.el(2) * a2 and b1 == b1_target
        return [
            (ZERO, "twosided:char3/A1/zero", not hit),
            (ONE, "twosided:char3/A1/one", hit),
        ]
    if i == 2:
        a1, b1, b2 = c
        return [
            (ZERO, "twosided:char3/A2/zero/a", a1 == one_ and not b1.is_zero and b2.is_zero),
            (
                ZERO,
                "twosided:char3/A2/zero/b",
                a1 != half
                and a1 != one_
                and not (b1 * b1 + a1 - one_).is_zero
                and b2 == one_ - a1,
            ),
            (ZERO, "twosided:char3/A2/zero/c", a1 == half and b2 == half and not b1.is_zero),
            (ZERO, "twosided:char3/A2/zero/d", b2 != one_ - a1),
            (ONE, "twosided:char3/A2/one/a", a1 == one_ and b1.is_zero and b2.is_zero),
            (
                ONE,
                "twosided:char3/A2/one/b",
                a1 != half
                and a1 != one_
                and b2 == one_ - a1
                and (b1 * b1 + a1 - one_).is_zero,
            ),
            (TWO, "twosided:char3/A2/two", a1 == half and b2 == half and b1.is_zero),
        ]
    if i == 3:
        b1, b2 = c
        neg1 = -one_
        return [
            (ZERO, "twosided:char3/A3/zero/a", b1 != neg1 and b2 == one_),
            (ZERO, "twosided:char3/A3/zero/b", b2 != one_),
            (ONE, "twosided:char3/A3/one", b1 == neg1 and b2 == one_),
        ]
    if i == 4:
        a1, b2 = c
        return [
            (ONE, "twosided:char3/A4/one/a", a1 != one_ and b2 == one_ - a1),
            (ONE, "twosided:char3/A4/one/b", b2 != one_ - a1),
            (TWO, "twosided:char3/A4/two", a1 == one_ and b2.is_zero),
        ]
    fixed = {5: ONE, 6: ZERO, 7: ZERO, 8: ONE, 9: ZERO, 10: ONE, 11: ONE, 12: ONE}
    return [(fixed[i], f"twosided:char3/A{i}/plus", True)]


_TABLES = {
    ("subalgebras", Regime.NE23): _subalg_ne23,
    ("subalgebras", Regime.CHAR2): _subalg_char2,
    ("subalgebras", Regime.CHAR3): _subalg_char3,
    ("left", Regime.NE23): _left_ne23,
    ("left", Regime.CHAR2): _left_char2,
    ("left", Regime.CHAR3): _left_char3,
    ("right", Regime.NE23): _right_ne23,
    ("right", Regime.CHAR2): _right_char2,
    ("right", Regime.CHAR3): _right_char3,
    ("two_sided", Regime.NE23): _twosided_ne23,
    ("two_sided", Regime.CHAR2): _twosided_char2,
    ("two_sided", Regime.CHAR3): _twosided_char3,
}


def predict_count(
    quantity: str, family: FamilyId, params, field: Field, flags=None
) -> Prediction:
    """Table prediction for the count of the given quantity at a parameter point."""
    params = check_point(family, params, field)
    flags = {**DEFAULT_FLAGS, **(flags or {})}
    fn = _TABLES[(quantity, family.regime)]
    return _resolve(fn(family.index, field, params, flags))


# ---------------------------------------------------------------------------
# Left quasiunits (single table covering all three regimes).

def predict_quasiunits(
    family: FamilyId, params, field: Field
) -> tuple[AffineSolutionSet, str | None]:
    """The catalogued quasiunit set for a family row; Empty when no row matches."""
    params = check_point(family, params, field)
    F = field
    one_ = F.one
    zero = F.zero
    two_ = F.el(2)
    i = family.index
    r = family.regime

    def pt(x, y):
        return AffineSolutionSet.single(Element(x, y))

    def ln(base_x, base_y):
        return AffineSolutionSet.line(Element(base_x, base_y), Element(zero, one_))

    if r is Regime.NE23:
        if i == 1:
            a1, a2, a4, b1 = params
            if not b1.is_zero:
                a2_req = -(two_ * a1 * (a1 - one_) + b1) / (two_ * b1)
                a4_req = -(two_ * a2 * (a1 - one_)) / (two_ * b1)
                if a2 == a2_req and a4 == a4_req:
                    return pt(two_ * (a1 - one_) / b1, two_), "qu:ne23/A1/row1"
            else:
                if a1 == one_ and a4 == a2 * (one_ + two_ * a2) / two_:
                    return pt(-(one_ + two_ * a2), two_), "qu:ne23/A1/row2"
        elif i == 2:
            a1, b1, b2 = params
            if not a1.is_zero and b1.is_zero and b2 == a1:
                return pt(a1.inv(), zero), "qu:ne23/A2/row"
        elif i == 4:
            a1, b2 = params
            if a1 == one_:
                return ln(one_, zero), "qu:ne23/A4/row1"
            if not a1.is_zero and a1 != one_:
                if b2 != two_ * a1 - one_:
                    return pt(a1.inv(), zero), "qu:ne23/A4/row2"
                return ln(a1.inv(), zero), "qu:ne23/A4/row3"
        elif i == 5:
            (a1,) = params
            if a1 == one_:
                return ln(one_, zero), "qu:ne23/A5/row"
        elif i == 6:
            a1, b1 = params
            if a1 == _fr(F, 1, 2) and b1.is_zero:
                return pt(two_, zero), "qu:ne23/A6/row"
        elif i == 8:
            (a1,) = params
            third = _fr(F, 1, 3)
            if not a1.is_zero and a1 != third:
                return pt(a1.inv(), zero), "qu:ne23/A8/row1"
            if a1 == third:
                return ln(F.el(3), zero), "qu:ne23/A8/row2"
        elif i == 10:
            return pt(zero, -one_), "qu:ne23/A10/row"
        return AffineSolutionSet.empty(), None

    if r is Regime.CHAR2:
        if i == 1:
            a1, a2, a4, b1 = params
            if a2.is_zero and b1.is_zero and not a1.is_zero:
                return pt(-(a1.inv()), zero), "qu:char2/A1/row"
        elif i == 2:
            a1, b1, b2 = params
            if b1.is_zero and not a1.is_zero:
                return pt(a1.inv(), zero), "qu:char2/A2/row"
        elif i == 3:
            a1, b2 = params
            if b2 == one_ or a1 == one_:
                return pt(zero, one_), "qu:char2/A3/row"
        elif i == 4:
            a1, b2 = params
            if a1 == one_:
                return ln(one_, zero), "qu:char2/A4/row1"
            if not a1.is_zero and a1 != one_:
                if b2 != one_:
                    return pt(a1.inv(), zero), "qu:char2/A4/row2"
                return ln(a1.inv(), zero), "qu:char2/A4/row3"
        elif i == 5:
            (a1,) = params
            if a1 == one_:
                return ln(one_, zero), "qu:char2/A5/row"
        elif i == 6:
            a1, b1 = params
            if b1.is_zero and not a1.is_zero:
                return pt(a1.inv(), zero), "qu:char2/A6/row"
        elif i == 7:
            (a1,) = params
            if a1.is_zero or a1 == one_:
                return pt(zero, one_), "qu:char2/A7/row"
        elif i == 8:
            (a1,) = params
            if not a1.is_zero and a1 != one_:
                return pt(a1.inv(), zero), "qu:char2/A8/row1"
            if a1 == one_:
                return ln(one_, zero), "qu:char2/A8/row2"
        elif i == 10:
            return pt(zero, one_), "qu:char2/A10/row"
        return AffineSolutionSet.empty(), None

    # characteristic 3
    if i == 1:
        a1, a2, a4, b1 = params
        if not b1.is_zero:
            a2_req = a1 * (one_ - a1) / b1 - _fr(F, 1, 2)
            a4_req = a1 * (one_ - a1) ** 2 / (b1 * b1) - (one_ - a1) / (two_ * b1)
            if a2 == a2_req and a4 == a4_req:
                return pt((one_ - a1) / b1, two_), "qu:char3/A1/row1"
        else:
            if a1 == one_ and a4 == a2 * (two_ * a2 + one_) / two_:
                return pt(a2 - one_, two_), "qu:char3/A1/row2"
    elif i == 2:
        a1, b1, b2 = params
        if not a1.is_zero and b1.is_zero and b2 == a1:
            return pt(a1.inv(), zero), "qu:char3/A2/row"
    elif i == 4:
        a1, b2 = params
        neg = -one_ - a1
        if not a1.is_zero and a1 != one_:
            if b2 == neg:
                return ln(a1.inv(), zero), "qu:char3/A4/row1"
            return pt(a1.inv(), zero), "qu:char3/A4/row2"
        if a1 == one_:
            return ln(one_, zero), "qu:char3/A4/row3"
    elif i == 5:
        (a1,) = params
        if a1 == one_:
            return ln(one_, zero), "qu:char3/A5/row"
    elif i == 6:
        a1, b1 = params
        if a1 == -one_ and b1.is_zero:
            return pt(-one_, zero), "qu:char3/A6/row"
    elif i == 8:
        (a1,) = params
        if not a1.is_zero:
            return pt(a1.inv(), zero), "qu:char3/A8/row"
    elif i == 10:
        return (
            AffineSolutionSet.line(Element(zero, -one_), Element(one_, zero)),
            "qu:char3/A10/row",
        )
    return AffineSolutionSet.empty(), None
