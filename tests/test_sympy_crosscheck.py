"""Root finding and primality cross-checked against sympy, an independent witness.

Skipped when sympy is not installed; sympy is a test-only dependency.
"""

import math
import random

import pytest

from alg2d import GF, Poly, roots_in_field, splitting_field
from alg2d.fields import PRIME_LIMIT, is_prime

sympy = pytest.importorskip("sympy")

PRIMES = (2, 3, 5, 7, 101, 1009)
SPLITTING_PRIMES = PRIMES
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


def test_is_prime_matches_sympy():
    rng = random.Random(11)
    samples = [rng.randrange(2, 10**k) for k in (3, 6, 9, 12, 18, 24) for _ in range(300)]
    samples += [rng.randrange(2, 10**12) | 1 for _ in range(2000)]
    carmichael = [561, 41041, 825265]
    strong_pseudoprime = [3215031751]  # to bases 2, 3, 5 and 7
    for n in samples + carmichael + strong_pseudoprime + [2**61 - 1, PRIME_LIMIT - 2]:
        assert is_prime(n) == sympy.isprime(n), n
