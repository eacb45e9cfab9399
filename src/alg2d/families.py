"""The twelve canonical families of two-dimensional algebras, per characteristic regime.

Every nontrivial two-dimensional algebra is isomorphic to a member of the
families A1..A12; the parameterisation differs between characteristic not in
{2,3}, characteristic 2, and characteristic 3, so a family is identified by
(index, regime).  `MATRICES` holds each printed matrix of structure
constants once, as a function that field elements and sympy symbols both
evaluate.  `check_point` validates a parameter vector, and `instantiate`
evaluates the family's matrix at it over a field.

The member is not always unique as printed: the change of basis e2 -> -e2
identifies A2(a1, b1, b2) with A2(a1, -b1, b2) and A6(a1, b1) with
A6(a1, -b1), in every characteristic but 2.  `instantiate` keeps the printed
parameter ranges.
"""

from __future__ import annotations

import enum

from .algebra import MSC
from .fields import Field, FieldError, FieldMismatch, _numeral


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
        """`A` or `A_`, in either case, then the index in ASCII decimal digits."""
        t = text.strip().upper()
        digits = t[2:] if t.startswith("A_") else t[1:]
        if not t.startswith("A") or len(digits) > 2:
            raise FieldError(f"unknown family {text!r}")
        return cls(_numeral(digits, f"unknown family {text!r}"), regime)

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


# The printed matrix of every family, as a function of (one, zero, *params)
# that returns (a1, a2, a3, a4, b1, b2, b3, b4) using only + - * / on its
# arguments, so field elements and sympy symbols both evaluate it.  The
# regime None stands for every regime that the index does not list.
MATRICES = {
    (1, None): lambda o, z, a1, a2, a4, b1: (a1, a2, a2 + o, a4, b1, -a1, -a1 + o, -a2),
    (2, None): lambda o, z, a1, b1, b2: (a1, z, z, o, b1, b2, o - a1, z),
    (3, Regime.CHAR2): lambda o, z, a1, b2: (a1, o, o, z, z, b2, o - a1, o),
    (3, None): lambda o, z, b1, b2: (z, o, o, z, b1, b2, o, -o),
    (4, None): lambda o, z, a1, b2: (a1, z, z, z, z, b2, o - a1, z),
    (5, Regime.CHAR2): lambda o, z, a1: (a1, z, z, z, o, o, o - a1, z),
    (5, Regime.CHAR3): lambda o, z, a1: (a1, z, z, z, o, -o - a1, o - a1, z),
    (5, None): lambda o, z, a1: (a1, z, z, z, o, (o + o) * a1 - o, o - a1, z),
    (6, Regime.CHAR2): lambda o, z, a1, b1: (a1, z, z, o, b1, o - a1, a1, z),
    (6, None): lambda o, z, a1, b1: (a1, z, z, o, b1, o - a1, -a1, z),
    (7, Regime.CHAR2): lambda o, z, c: (c, o, o, z, z, o - c, c, o),
    (7, None): lambda o, z, c: (z, o, o, z, c, o, z, -o),
    (8, Regime.CHAR2): lambda o, z, a1: (a1, z, z, z, z, o - a1, a1, z),
    (8, None): lambda o, z, a1: (a1, z, z, z, z, o - a1, -a1, z),
    (9, Regime.NE23): lambda o, z: (
        o / (o + o + o), z, z, z, o, (o + o) / (o + o + o), -o / (o + o + o), z
    ),
    (9, Regime.CHAR2): lambda o, z: (o, z, z, z, o, z, o, z),
    (9, None): lambda o, z: (z, o, o, z, o, z, z, -o),
    (10, Regime.CHAR2): lambda o, z: (z, o, o, z, z, z, z, o),
    (10, None): lambda o, z: (z, o, o, z, z, z, z, -o),
    (11, Regime.CHAR2): lambda o, z: (o, o, o, z, z, o, o, o),
    (11, Regime.CHAR3): lambda o, z: (o, z, z, z, o, -o, -o, z),
    (11, None): lambda o, z: (z, o, o, z, o, z, z, -o),
    (12, None): lambda o, z: (z, z, z, z, o, z, z, z),
}


def matrix(family: FamilyId):
    """The family's entry of MATRICES: its own regime's, else the None one."""
    return MATRICES.get((family.index, family.regime)) or MATRICES[family.index, None]


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
    c = matrix(family)(F.one, F.zero, *check_point(family, params, F))
    return MSC(F, c[:4], c[4:])


def all_family_ids(regime: Regime) -> list[FamilyId]:
    return [FamilyId(i, regime) for i in range(1, 13)]
