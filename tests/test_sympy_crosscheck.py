"""Root finding over GF(p) cross-checked against sympy, an independent witness.

Skipped when sympy is not installed; sympy is a test-only dependency.
"""

import math
import random

import pytest

from alg2d import GF, Poly, roots_in_field, splitting_field

sympy = pytest.importorskip("sympy")

PRIMES = (2, 3, 5, 7, 101, 1009)
# splitting_field scans GF(p^2) or GF(p^3) element by element, which is out
# of reach for p = 101 (10^6 elements) and p = 1009 (10^9); those primes get
# the root check only until root finding stops scanning the field
SPLITTING_PRIMES = (2, 3, 5, 7)
PER_PRIME = 40


def _seeded_polys(p):
    """Nonzero constant-first coefficient lists of degree <= 3."""
    rng = random.Random(p)
    out = []
    while len(out) < PER_PRIME:
        coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 4))]
        if coeffs[-1]:
            out.append(coeffs)
    return out


def _sympy_poly(coeffs, p):
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("y"), modulus=p)


@pytest.mark.parametrize("p", PRIMES)
def test_roots_match_sympy_ground_roots(p):
    F = GF(p)
    for coeffs in _seeded_polys(p):
        got = [r.index() for r in roots_in_field(Poly.from_ints(F, coeffs))]
        expect = sorted(int(r) % p for r in _sympy_poly(coeffs, p).ground_roots())
        assert got == expect, coeffs


@pytest.mark.parametrize("p", SPLITTING_PRIMES)
def test_splitting_degree_is_lcm_of_factor_degrees(p):
    F = GF(p)
    for coeffs in _seeded_polys(p):
        ext, _ = splitting_field(Poly.from_ints(F, coeffs))
        _, factors = _sympy_poly(coeffs, p).factor_list()
        assert ext.k == math.lcm(*(g.degree() for g, _ in factors)), coeffs
