"""The twelve canonical families of two-dimensional algebras, per characteristic regime.

Every nontrivial two-dimensional algebra is isomorphic to a member of the
families A1..A12; the parameterisation differs between characteristic not in
{2,3}, characteristic 2, and characteristic 3, so a family is identified by
(index, regime).  `check_point` validates a parameter vector, and
`instantiate` substitutes it into the printed matrix of structure constants.

The member is not always unique as printed: the change of basis e2 -> -e2
identifies A2(a1, b1, b2) with A2(a1, -b1, b2) and A6(a1, b1) with
A6(a1, -b1), in every characteristic but 2.  `instantiate` keeps the printed
parameter ranges.
"""

from __future__ import annotations

import enum

from .algebra import MSC
from .fields import Fel, Field, FieldError, FieldMismatch


class RegimeMismatch(FieldError):
    pass


class ArityMismatch(FieldError):
    pass


class Regime(enum.Enum):
    NE23 = "ne23"
    CHAR2 = "char2"
    CHAR3 = "char3"

    @classmethod
    def parse(cls, text: str) -> "Regime":
        t = text.strip().lower()
        for r in cls:
            if t == r.value:
                return r
        raise FieldError(f"unknown regime {text!r} (use ne23 | char2 | char3)")

    @classmethod
    def of_field(cls, field: Field) -> "Regime":
        if field.p == 2:
            return cls.CHAR2
        if field.p == 3:
            return cls.CHAR3
        return cls.NE23


class FamilyId:
    """A canonical family: index 1..12 within one characteristic regime."""

    __slots__ = ("index", "regime")

    def __init__(self, index: int, regime: Regime):
        if not 1 <= index <= 12:
            raise FieldError(f"family index {index} out of range 1..12")
        self.index = index
        self.regime = regime

    @classmethod
    def parse(cls, text: str, regime: Regime) -> "FamilyId":
        t = text.strip().upper().replace("_", "")
        if not (t.startswith("A") and t[1:].isdecimal() and len(t) <= 3):
            raise FieldError(f"unknown family {text!r}")
        return cls(int(t[1:]), regime)

    def name(self) -> str:
        suffix = {Regime.NE23: "", Regime.CHAR2: ",2", Regime.CHAR3: ",3"}[self.regime]
        return f"A{self.index}{suffix}"

    def __eq__(self, other):
        return (
            isinstance(other, FamilyId)
            and self.index == other.index
            and self.regime == other.regime
        )

    def __hash__(self):
        return hash((self.index, self.regime))

    def __repr__(self):
        return f"FamilyId({self.name()})"


ARITY = {1: 4, 2: 3, 3: 2, 4: 2, 5: 1, 6: 2, 7: 1, 8: 1, 9: 0, 10: 0, 11: 0, 12: 0}


def _frac(F: Field, num: int, den: int) -> Fel:
    return F.el(num) / F.el(den)


def check_point(family: FamilyId, params, F: Field) -> tuple:
    """The parameters as a tuple, after checking that they are a point of the
    family over F: F has the family's regime, and there are ARITY[index] of
    them, each an element of F."""
    if Regime.of_field(F) != family.regime:
        raise RegimeMismatch(
            f"{family.name()} belongs to regime {family.regime.value}, "
            f"got characteristic {F.p}"
        )
    params = tuple(params)
    if len(params) != ARITY[family.index]:
        raise ArityMismatch(
            f"{family.name()} takes {ARITY[family.index]} parameters, got {len(params)}"
        )
    for c in params:
        if c.field is not F and c.field != F:
            raise FieldMismatch(f"parameters must live in {F.text()}")
    return params


def instantiate(family: FamilyId, params, F: Field) -> MSC:
    """The printed structure constants of the family at the given parameters."""
    params = check_point(family, params, F)
    one = F.one
    zero = F.zero
    i = family.index
    r = family.regime

    if i == 1:  # identical shape in all three regimes
        a1, a2, a4, b1 = params
        return MSC(
            F,
            [a1, a2, a2 + one, a4],
            [b1, -a1, -a1 + one, -a2],
        )
    if i == 2:
        a1, b1, b2 = params
        return MSC(F, [a1, zero, zero, one], [b1, b2, one - a1, zero])
    if i == 3:
        if r is Regime.CHAR2:
            a1, b2 = params
            return MSC(F, [a1, one, one, zero], [zero, b2, one - a1, one])
        b1, b2 = params
        return MSC(F, [zero, one, one, zero], [b1, b2, one, -one])
    if i == 4:
        a1, b2 = params
        return MSC(F, [a1, zero, zero, zero], [zero, b2, one - a1, zero])
    if i == 5:
        (a1,) = params
        if r is Regime.CHAR2:
            return MSC(F, [a1, zero, zero, zero], [one, one, one - a1, zero])
        if r is Regime.CHAR3:
            return MSC(F, [a1, zero, zero, zero], [one, -one - a1, one - a1, zero])
        return MSC(F, [a1, zero, zero, zero], [one, F.el(2) * a1 - one, one - a1, zero])
    if i == 6:
        a1, b1 = params
        if r is Regime.CHAR2:
            return MSC(F, [a1, zero, zero, one], [b1, one - a1, a1, zero])
        return MSC(F, [a1, zero, zero, one], [b1, one - a1, -a1, zero])
    if i == 7:
        (c,) = params
        if r is Regime.CHAR2:
            return MSC(F, [c, one, one, zero], [zero, one - c, c, one])
        return MSC(F, [zero, one, one, zero], [c, one, zero, -one])
    if i == 8:
        (a1,) = params
        if r is Regime.CHAR2:
            return MSC(F, [a1, zero, zero, zero], [zero, one - a1, a1, zero])
        return MSC(F, [a1, zero, zero, zero], [zero, one - a1, -a1, zero])
    if i == 9:
        if r is Regime.NE23:
            third = _frac(F, 1, 3)
            return MSC(
                F,
                [third, zero, zero, zero],
                [one, _frac(F, 2, 3), -third, zero],
            )
        if r is Regime.CHAR2:
            return MSC(F, [one, zero, zero, zero], [one, zero, one, zero])
        return MSC(F, [zero, one, one, zero], [one, zero, zero, -one])
    if i == 10:
        if r is Regime.CHAR2:
            return MSC(F, [zero, one, one, zero], [zero, zero, zero, one])
        return MSC(F, [zero, one, one, zero], [zero, zero, zero, -one])
    if i == 11:
        if r is Regime.CHAR2:
            return MSC(F, [one, one, one, zero], [zero, one, one, one])
        if r is Regime.CHAR3:
            return MSC(F, [one, zero, zero, zero], [one, -one, -one, zero])
        return MSC(F, [zero, one, one, zero], [one, zero, zero, -one])
    # i == 12, identical in all regimes
    return MSC(F, [zero, zero, zero, zero], [one, zero, zero, zero])


def all_family_ids(regime: Regime) -> list[FamilyId]:
    return [FamilyId(i, regime) for i in range(1, 13)]
