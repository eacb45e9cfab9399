"""Exact structure analysis of two-dimensional algebras.

Given the structure constants of a two-dimensional algebra over a prime
field, a finite-field extension, or the rationals, this package enumerates
its one-dimensional subalgebras, idempotents, left/right/two-sided ideals
and left quasiunits, decides simplicity, and verifies the canonical-family
classification tables against both closed-form solvers and a brute-force
oracle.
"""

from .fields import (
    GF,
    QQ,
    DivisionByZero,
    Fel,
    Field,
    FieldError,
    FieldMismatch,
    IncompatibleFields,
    InfiniteField,
    NonPrimeCharacteristic,
    ParseError,
    UnsupportedRationalExtension,
    embed,
    parse_el,
    parse_field,
)
from .poly import (
    Poly,
    RationalSplittingUnsupported,
    RootCount,
    ZeroPolynomial,
    cubic_root_count,
    distinct_root_count,
    parse_poly,
    poly_gcd,
    roots_in_field,
    splitting_field,
    sqrt_in_ext,
)
from .algebra import (
    Element,
    LineSet,
    MSC,
    ProjPoint,
    all_mscs,
    basis,
    is_idempotent,
    is_left_ideal,
    is_left_quasiunit,
    is_right_ideal,
    is_subalgebra,
    is_two_sided_ideal,
    mul,
    oracle_enumerate,
    oracle_points,
    projective_points,
)
from .solvers import (
    AffineSolutionSet,
    IdempotentSet,
    WrongCharacteristic,
    eigenvalue_poly,
    idempotents,
    is_simple,
    left_ideal_system,
    left_ideals,
    left_quasiunits,
    line_count_closed,
    predict_left_line_count,
    predict_right_line_count,
    quasiunit_system,
    right_ideal_system,
    right_ideals,
    simple_by_cases,
    simple_by_cases_extended,
    subalgebra_count_closed,
    subalgebra_poly,
    subalgebras,
    two_sided_ideals,
)

__version__ = "0.1.0"
