"""Random-census equivalence of the closed-form solvers and the brute oracle."""

import random
from fractions import Fraction

from alg2d import (
    GF,
    MSC,
    QQ,
    cubic_root_count,
    distinct_root_count,
    idempotents,
    left_ideals,
    left_quasiunits,
    oracle_enumerate,
    oracle_points,
    right_ideals,
    subalgebra_poly,
    subalgebras,
    two_sided_ideals,
)
from alg2d.algebra import all_mscs, msc_from_index


def _check(A, field):
    assert subalgebras(A) == oracle_enumerate(A, "subalgebras"), A.text()
    assert left_ideals(A) == oracle_enumerate(A, "left"), A.text()
    assert right_ideals(A) == oracle_enumerate(A, "right"), A.text()
    assert two_sided_ideals(A) == oracle_enumerate(A, "two_sided"), A.text()
    assert idempotents(A).materialize() == oracle_points(A, "idempotents"), A.text()
    assert left_quasiunits(A).materialize(field) == oracle_points(A, "quasiunits"), A.text()


def test_random_census_over_four_fields():
    rng = random.Random(314159)
    for spec in ((5, 1), (7, 1), (2, 2), (3, 2)):
        field = GF(*spec)
        for _ in range(2500):
            A = msc_from_index(field, rng.randrange(field.order**8))
            _check(A, field)


def _seeded_q_algebras(n, seed):
    """Seeded algebras over Q with entries u/v, |u| <= 9 and 1 <= v <= 4;
    every third has the subalgebra cubic t*(y - r)^2*(y - s), with a double
    root unless t = 0 or r = s."""
    rng = random.Random(seed)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    out = []
    for i in range(n):
        a1, a2, a3, a4, b1, b2, b3, b4 = (draw() for _ in range(8))
        if i % 3 == 0:
            r, s, t = draw(), draw(), draw()
            # the cubic is -b1 + (a1 - b2 - b3)*y + (a2 + a3 - b4)*y^2 + a4*y^3
            b1, a1 = t * r * r * s, t * (r * r + 2 * r * s) + b2 + b3
            a2, a4 = -t * (2 * r + s) + b4 - a3, t
        out.append(MSC(QQ, [QQ.el(c) for c in (a1, a2, a3, a4)], [QQ.el(c) for c in (b1, b2, b3, b4)]))
    return out


def test_classifier_equals_subalgebra_root_component():
    # the root-count classifier and the root search's closed count agree on
    # the slope cubic of every algebra over GF(2) and GF(3), and of seeded
    # algebras over Q, where the two counts share no code
    algebras = [A for field in (GF(2), GF(3)) for A in all_mscs(field)]
    for A in algebras + _seeded_q_algebras(600, seed=24):
        p = subalgebra_poly(A)
        got = cubic_root_count(p.coeff(3), p.coeff(2), p.coeff(1), p.coeff(0))
        assert got is distinct_root_count(p), A.text()
