"""Change-of-basis invariance: a witness that shares no code with `algebra.mul`.

A new basis f_j = sum_i g[i][j] e_i, for g in GL2(F), turns the structure
constants A (a 2x4 matrix, columns indexed by the products e1e1, e1e2, e2e1,
e2e2) into g^-1 * A * (g (x) g), and the coordinates of a vector into g^-1
times the old ones.  The action is written here from that definition with
plain field arithmetic.  Every answer the solver gives must then move with
the basis: the lines, idempotents and quasiunits of A, mapped through g^-1,
are those of the transformed algebra, and every count is unchanged.

The shear, the swap and diag(w, 1), for w a generator of F*, generate GL2(F),
so checking them checks the whole group.
"""

import random

import pytest

from alg2d import GF, MSC, Element, LineSet, ProjPoint
from alg2d.algebra import all_mscs
from alg2d.report import analyze


def _matmul(F, x, y):
    """The product of matrices given as row lists."""
    return [
        [sum((x[i][k] * y[k][j] for k in range(len(y))), F.zero) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def _inverse(g):
    (a, b), (c, d) = g
    inv = (a * d - b * c).inv()
    return [[d * inv, -b * inv], [-c * inv, a * inv]]


def _kron(g):
    """g (x) g, its rows and columns indexed by the pairs 11, 12, 21, 22."""
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return [[g[i][k] * g[j][l] for k, l in pairs] for i, j in pairs]


def act(g, A: MSC) -> MSC:
    """The structure constants of A in the basis that g maps e1, e2 to."""
    F = A.field
    rows = _matmul(F, _matmul(F, _inverse(g), [list(A.alpha), list(A.beta)]), _kron(g))
    return MSC(F, rows[0], rows[1])


def _coords(ginv, u: Element) -> Element:
    """The coordinates in the new basis of the vector u."""
    return Element(ginv[0][0] * u.x + ginv[0][1] * u.y, ginv[1][0] * u.x + ginv[1][1] * u.y)


def _map_lines(ginv, lines: LineSet, F) -> LineSet:
    if lines.is_all:
        return lines
    moved = (_coords(ginv, p.generator(F)) for p in lines.points)
    return LineSet.of(
        ProjPoint.e2() if v.x.is_zero else ProjPoint.affine(v.y / v.x) for v in moved
    )


def _generator_of_units(F):
    for w in F.elements()[1:]:
        x, seen = w, set()
        while x not in seen:
            seen.add(x)
            x = x * w
        if len(seen) == F.order - 1:
            return w
    raise AssertionError(f"{F.text()} has no generator of its units")


def generators(F):
    """The shear, the swap and diag(w, 1): together they generate GL2(F)."""
    o, z = F.one, F.zero
    return [[[o, o], [z, o]], [[z, o], [o, z]], [[_generator_of_units(F), z], [z, o]]]


def samples(F, n, seed):
    """n seeded algebras over F, each entry zero with probability at least 1/3,
    so that the degenerate branches (a4 = 0, a2 = a3, ...) come up."""
    rng = random.Random(seed)
    els = F.elements()

    def entry():
        return rng.choice(els) if rng.random() < 2 / 3 else F.zero

    return [MSC(F, [entry() for _ in range(4)], [entry() for _ in range(4)]) for _ in range(n)]


def _random_invertible(F, rng):
    els = F.elements()
    while True:
        g = [[rng.choice(els) for _ in range(2)] for _ in range(2)]
        if not (g[0][0] * g[1][1] - g[0][1] * g[1][0]).is_zero:
            return g


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 1)])
def test_the_action_composes(p, k):
    """Acting by h and then by g is acting by the product hg."""
    F = GF(p, k)
    rng = random.Random(p * 10 + k)
    for A in samples(F, 50, p + k):
        g, h = _random_invertible(F, rng), _random_invertible(F, rng)
        assert act(g, act(h, A)) == act(_matmul(F, h, g), A)
        for s in generators(F):
            assert act(_inverse(s), act(s, A)) == A


def _algebras(F):
    """Every algebra over GF(2); seeded samples over larger fields."""
    if F.order == 2:
        return list(all_mscs(F))
    return samples(F, {3: 600, 4: 200, 5: 200}[F.order], F.order)


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]


@pytest.mark.parametrize("p, k", FIELDS)
def test_plain_answers_move_with_the_basis(p, k):
    F = GF(p, k)
    for A in _algebras(F):
        before = analyze(A)
        for g in generators(F):
            ginv, after = _inverse(g), analyze(act(g, A))
            where = (A.text(), [[c.text() for c in row] for row in g])
            for part in ("subalgebras", "left", "right", "two_sided"):
                assert _map_lines(ginv, getattr(before, part), F) == getattr(after, part), where
            # the split into isolated points, a family and the e2 point
            # depends on the basis: compare the materialised sets
            idem = {_coords(ginv, u) for u in before.idempotent_set.materialize()}
            assert idem == set(after.idempotent_set.materialize()), where
            qs = before.quasiunits
            assert qs.kind == after.quasiunits.kind, where
            if qs.kind != "plane":
                moved = {_coords(ginv, u) for u in qs.materialize(F)}
                assert moved == set(after.quasiunits.materialize(F)), where


@pytest.mark.parametrize("p, k", FIELDS)
def test_closed_answers_are_invariant(p, k):
    F = GF(p, k)
    for A in _algebras(F):
        before = analyze(A, closed=True)
        for g in generators(F):
            after = analyze(act(g, A), closed=True)
            where = (A.text(), [[c.text() for c in row] for row in g])
            for part in ("subalgebras", "left", "right", "two_sided"):
                label = getattr(before, part).count_label()
                assert label == getattr(after, part).count_label(), where
            assert before.simple == after.simple, where
            assert before.quasiunits.kind == after.quasiunits.kind, where
            assert before.subalgebra_category_closed == after.subalgebra_category_closed, where
