import itertools
import random

import pytest

from alg2d import GF, Poly
from alg2d.families import (
    ARITY,
    ArityMismatch,
    FamilyId,
    Regime,
    RegimeMismatch,
    all_family_ids,
    instantiate,
)
from alg2d.solvers import subalgebra_poly

F5 = GF(5)
F7 = GF(7)


def test_instantiate_a12():
    A = instantiate(FamilyId(12, Regime.NE23), [], F5)
    assert A.text() == "0,0,0,0;1,0,0,0"


def test_instantiate_a9_computes_thirds():
    A = instantiate(FamilyId(9, Regime.NE23), [], F7)
    assert A.text() == "5,0,0,0;1,3,2,0"


def test_regime_guard():
    with pytest.raises(RegimeMismatch):
        instantiate(FamilyId(9, Regime.NE23), [], GF(3))
    with pytest.raises(RegimeMismatch):
        instantiate(FamilyId(10, Regime.CHAR2), [], GF(5))
    with pytest.raises(RegimeMismatch):
        instantiate(FamilyId(10, Regime.CHAR3), [], GF(2))


def test_arity_guard():
    with pytest.raises(ArityMismatch):
        instantiate(FamilyId(8, Regime.NE23), [F5.one, F5.one], F5)
    with pytest.raises(ArityMismatch):
        instantiate(FamilyId(1, Regime.NE23), [F5.one], F5)


def test_family_parsing():
    fam = FamilyId.parse("A_10", Regime.NE23)
    assert fam.index == 10 and fam.name() == "A10"
    assert FamilyId.parse("a3", Regime.CHAR2).name() == "A3,2"


def _expected_cubic(i, F, c):
    """The per-family slope cubics, in the char != 2,3 regime."""
    one = F.one
    three = F.el(3)
    if i == 1:
        a1, a2, a4, b1 = c
        return Poly(F, [-b1, three * a1 - one, three * a2 + one, a4])
    if i == 2:
        a1, b1, b2 = c
        return Poly(F, [-b1, F.el(2) * a1 - b2 - one, F.zero, one])
    if i == 3:
        b1, b2 = c
        return Poly(F, [-b1, -(one + b2), three])
    if i == 4:
        a1, b2 = c
        return Poly(F, [F.zero, F.el(2) * a1 - b2 - one])
    if i == 5:
        return Poly(F, [-one])
    if i == 6:
        a1, b1 = c
        return Poly(F, [-b1, three * a1 - one, F.zero, one])
    if i == 7:
        (b1,) = c
        return Poly(F, [-b1, -one, three])
    if i == 8:
        (a1,) = c
        return Poly(F, [F.zero, three * a1 - one])
    if i == 9:
        return Poly(F, [-one])
    if i == 10:
        return Poly(F, [F.zero, F.zero, three])
    if i == 11:
        return Poly(F, [-one, F.zero, three])
    return Poly(F, [-one])


def test_slope_cubics_match_printed_forms():
    rng = random.Random(77)
    for fam in all_family_ids(Regime.NE23):
        for _ in range(20):
            params = [
                F7.from_index(rng.randrange(F7.order)) for _ in range(ARITY[fam.index])
            ]
            A = instantiate(fam, params, F7)
            assert subalgebra_poly(A) == _expected_cubic(fam.index, F7, params), fam


def test_char2_and_char3_instantiation_basics():
    F2, F3 = GF(2), GF(3)
    A = instantiate(FamilyId(11, Regime.CHAR2), [], F2)
    assert A.text() == "1,1,1,0;0,1,1,1"
    A = instantiate(FamilyId(11, Regime.CHAR3), [], F3)
    assert A.text() == "1,0,0,0;1,2,2,0"
    A = instantiate(FamilyId(5, Regime.CHAR3), [F3.el(2)], F3)
    assert A.text() == "2,0,0,0;1,0,2,0"


def test_regime_of_field():
    assert Regime.of_field(GF(2, 2)) is Regime.CHAR2
    assert Regime.of_field(GF(3, 2)) is Regime.CHAR3
    assert Regime.of_field(GF(7)) is Regime.NE23
    from alg2d import QQ

    assert Regime.of_field(QQ) is Regime.NE23


@pytest.mark.parametrize("field", [GF(3), GF(5), GF(3, 2)])
@pytest.mark.parametrize("index", [2, 6])
def test_e2_sign_flip_identifies_a2_and_a6_members(field, index):
    """e2 -> -e2 maps A2(a1, b1, b2) to A2(a1, -b1, b2) and A6(a1, b1) to
    A6(a1, -b1), so the member an algebra is isomorphic to is not unique."""
    fam = FamilyId(index, Regime.of_field(field))
    for params in itertools.product(field.elements(), repeat=ARITY[index]):
        A = instantiate(fam, params, field)
        a1, a2, a3, a4 = A.alpha
        b1, b2, b3, b4 = A.beta
        flipped = (params[0], -params[1]) + params[2:]
        B = instantiate(fam, flipped, field)
        assert (B.alpha, B.beta) == ((a1, -a2, -a3, a4), (-b1, b2, b3, -b4)), params
