"""Exact linear algebra kernels: fields, matrices, univariate polynomials, affine families."""

from .field import (
    Field, FieldError, GF, PrimeField, QQ, RationalField, parse_field, rational, same_field,
)
from .matrix import (
    CERTIFICATE_PRIME,
    EchelonBasis,
    Matrix,
    ShapeError,
    json_int,
    kernel_mod_span,
    matrix_from_json,
    matrix_to_json,
    quotient_map,
    rank_and_kernel,
    solve,
    solve_with_rank,
)
from .unipoly import (
    UniPoly,
    char_poly,
    express_in_echelon,
    express_in_span,
    rational_roots,
    roots_with_multiplicity,
)
from .param import AffineFamily
from .count import InfeasibleEnumeration, gaussian_binomial, is_prime_power
from .sampling import rand_invertible, rand_matrix, rand_nonzero_vector, rand_vector

__all__ = [
    "Field", "FieldError", "GF", "PrimeField", "QQ", "RationalField",
    "parse_field", "rational", "same_field",
    "CERTIFICATE_PRIME", "EchelonBasis", "Matrix", "ShapeError", "json_int", "kernel_mod_span",
    "matrix_from_json", "matrix_to_json", "quotient_map", "rank_and_kernel",
    "solve", "solve_with_rank",
    "UniPoly", "char_poly", "express_in_echelon", "express_in_span",
    "rational_roots", "roots_with_multiplicity",
    "AffineFamily",
    "InfeasibleEnumeration", "gaussian_binomial", "is_prime_power",
    "rand_invertible", "rand_matrix", "rand_nonzero_vector", "rand_vector",
]
