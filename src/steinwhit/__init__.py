"""Exact Iwahori-fixed Whittaker values for Steinberg representations of GL(n, Q_p)."""

from .affine_weyl import ExtAffineElement, length_ext, realize, reduced_word
from .hecke import HeckeElement, HeckeScalar, steinberg_character, verify_presentation
from .padic import (
    Cell,
    MatrixFormatError,
    PAdicMatrix,
    SingularMatrixError,
    iwahori_cell,
    iwasawa,
    matrix_from_json,
    matrix_to_json,
)
from .principal_series import InducedFunction, apply_generator, run_eigen_checks
from .reporting import CheckResult
from .values import PhaseSum
from .weyl import Permutation, all_permutations, dominance_shift, is_dominant
from .whittaker import (
    WhittakerValue,
    eval_cell,
    eval_matrix,
    serialize,
    verify_functional_equations,
)

__all__ = [
    "Cell",
    "CheckResult",
    "ExtAffineElement",
    "HeckeElement",
    "HeckeScalar",
    "InducedFunction",
    "MatrixFormatError",
    "PAdicMatrix",
    "Permutation",
    "PhaseSum",
    "SingularMatrixError",
    "WhittakerValue",
    "all_permutations",
    "apply_generator",
    "dominance_shift",
    "eval_cell",
    "eval_matrix",
    "is_dominant",
    "iwahori_cell",
    "iwasawa",
    "length_ext",
    "matrix_from_json",
    "matrix_to_json",
    "realize",
    "reduced_word",
    "run_eigen_checks",
    "serialize",
    "steinberg_character",
    "verify_functional_equations",
    "verify_presentation",
]

__version__ = "0.1.0"
