"""An independent reference for the definitions the oracle and checkers test.

`alg2d.algebra` evaluates each definition once, on raw values read from the
structure constants.  The reference here evaluates it literally, through
`algebra.mul` and `Fel` arithmetic:

- a subalgebra line F*u: u*u in F*u;
- a left (right) ideal line: e_i*u (u*e_i) in F*u for both basis vectors,
  both sides for a two-sided ideal;
- an idempotent: u*u = u with u != 0;
- a left quasiunit: e(uv) = (eu)v + u(ev) - uv on the four basis pairs.

Each case compares the reference with `oracle_enumerate`, `oracle_points` and
every `is_*` checker, on every line and every element of the plane (over Q
on single candidates).  The fields cover both kinds of raw arithmetic: the
kernel's int tables (order at most 16) and the row adaptors above them.
"""

import random
from fractions import Fraction

import pytest

from alg2d import (
    GF,
    QQ,
    MSC,
    Element,
    LineSet,
    ProjPoint,
    idempotents,
    is_idempotent,
    is_left_ideal,
    is_left_quasiunit,
    is_right_ideal,
    is_subalgebra,
    is_two_sided_ideal,
    left_ideals,
    left_quasiunits,
    oracle_enumerate,
    oracle_points,
    projective_points,
    right_ideals,
    subalgebras,
)
from alg2d.algebra import all_mscs, basis, mul

CHECKERS = {
    "subalgebras": is_subalgebra,
    "left": is_left_ideal,
    "right": is_right_ideal,
    "two_sided": is_two_sided_ideal,
}
POINT_CHECKERS = {"idempotents": is_idempotent, "quasiunits": is_left_quasiunit}


def _in_span(w, u):
    return (w.x * u.y - w.y * u.x).is_zero


def ref_line(A, kind, P):
    u = P.generator(A.field)
    if kind == "subalgebras":
        products = [mul(A, u, u)]
    else:
        products = []
        if kind in ("left", "two_sided"):
            products += [mul(A, v, u) for v in basis(A.field)]
        if kind in ("right", "two_sided"):
            products += [mul(A, u, v) for v in basis(A.field)]
    return all(_in_span(w, u) for w in products)


def ref_point(A, kind, e):
    if kind == "idempotents":
        return not e.is_zero and mul(A, e, e) == e
    for u in basis(A.field):
        for v in basis(A.field):
            uv = mul(A, u, v)
            lhs = mul(A, e, uv)
            rhs = mul(A, mul(A, e, u), v) + mul(A, u, mul(A, e, v)) - uv
            if lhs != rhs:
                return False
    return True


def _plane(F):
    return [Element(x, y) for x in F.elements() for y in F.elements()]


def _check_lines(A, kinds=tuple(CHECKERS)):
    F = A.field
    for kind in kinds:
        hits = []
        for P in projective_points(F):
            ref = ref_line(A, kind, P)
            assert CHECKERS[kind](A, P) == ref, (kind, A, P)
            if ref:
                hits.append(P)
        assert oracle_enumerate(A, kind) == LineSet.in_plane(F, hits), (kind, A)


def _check_points(A):
    for kind, checker in POINT_CHECKERS.items():
        hits = []
        for e in _plane(A.field):
            ref = ref_point(A, kind, e)
            assert checker(A, e) == ref, (kind, A, e)
            if ref:
                hits.append(e)
        assert oracle_points(A, kind) == hits, (kind, A)


def _zero_heavy(F, rng):
    """Each constant zero with probability 1/2, else uniform: such algebras
    have lines through F(e2), families and quasiunits far more often."""
    def c():
        return F.zero if rng.random() < 0.5 else F.from_index(rng.randrange(F.order))

    return MSC(F, [c() for _ in range(4)], [c() for _ in range(4)])


def test_reference_on_every_algebra_over_gf2():
    for A in all_mscs(GF(2)):
        _check_lines(A)
        _check_points(A)


@pytest.mark.parametrize("spec", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_reference_over_kernel_fields(spec):
    F = GF(*spec)
    rng = random.Random(1900 + F.order)
    for _ in range(12 if F.order < 9 else 6):
        A = _zero_heavy(F, rng)
        _check_lines(A)
        _check_points(A)


@pytest.mark.parametrize("spec", [(17, 1), (5, 2), (7, 2)])
def test_reference_past_the_kernel_bound(spec):
    F = GF(*spec)
    rng = random.Random(1900 + F.order)
    for _ in range(3 if F.order < 49 else 1):
        A = _zero_heavy(F, rng)
        _check_lines(A)
        _check_points(A)


def _check_sampled_lines(A, kinds, rng):
    """Past a few thousand lines the reference sees the oracle's hits and a
    seeded sample of 200 other lines."""
    F = A.field
    lines = projective_points(F)
    for kind in kinds:
        found = oracle_enumerate(A, kind)
        assert not found.is_all
        for P in found.points | set(rng.sample(lines, 200)):
            ref = ref_line(A, kind, P)
            assert CHECKERS[kind](A, P) == ref, (kind, A, P)
            assert (P in found.points) == ref, (kind, A, P)


def test_reference_line_scans_over_gf5_6():
    """Two algebras over GF(5^6): a seeded one, its ideals of each kind, and
    one lifted from GF(25) whose subalgebra cubic y^3 = w is irreducible
    there, so its three subalgebra lines appear only over GF(5^6)."""
    F = GF(5, 6)
    rng = random.Random(59)  # two right ideals, no left or two-sided one
    _check_sampled_lines(_zero_heavy(F, rng), ("left", "right", "two_sided"), rng)
    B = MSC.parse(GF(5, 2), "0,0,0,1;w,0,0,0")
    assert subalgebras(B) == LineSet.of([])
    lifted = B.lift(F)
    _check_sampled_lines(lifted, ("subalgebras",), rng)
    assert len(oracle_enumerate(lifted, "subalgebras").points) == 3


def test_reference_on_single_candidates_over_q():
    """Over Q the checkers see one candidate at a time: every line and point
    the solvers report, F(e2), and seeded small rationals."""
    rng = random.Random(1907)

    def rat():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def c():
        return QQ.zero if rng.random() < 0.4 else QQ.el(rat())

    seen = set()
    for _ in range(60):
        A = MSC(QQ, [c() for _ in range(4)], [c() for _ in range(4)])
        lines = [ProjPoint.e2()] + [ProjPoint.affine(QQ.el(rat())) for _ in range(4)]
        for found in (subalgebras(A), left_ideals(A), right_ideals(A)):
            if not found.is_all:
                lines += found.sorted_points()
        for kind, checker in CHECKERS.items():
            for P in lines:
                ref = ref_line(A, kind, P)
                assert checker(A, P) == ref, (kind, A, P)
                seen.add((kind, ref))
        points = [Element(QQ.el(rat()), QQ.el(rat())) for _ in range(4)]
        idem = idempotents(A)
        points += idem.isolated
        if idem.e2_point is not None:
            points.append(idem.e2_point)
        quasi = left_quasiunits(A)
        if quasi.kind == "point":
            points.append(quasi.point)
        elif quasi.kind == "line":
            points += [quasi.base, quasi.base + quasi.direction]
        for kind, checker in POINT_CHECKERS.items():
            for e in points:
                ref = ref_point(A, kind, e)
                assert checker(A, e) == ref, (kind, A, e)
                seen.add((kind, ref))
    assert seen == {(kind, b) for kind in (*CHECKERS, *POINT_CHECKERS) for b in (True, False)}
