"""Exact finite-field and polynomial algebra in small characteristic.

Fields F_{p^e} (p in {2, 3, 5}) with explicit moduli, extension towers for
working with algebraic points, sparse multivariate polynomials, univariate
factorization, and the explicit Cartier-operator computations used by the
surface families.
"""

from .field import (FieldError, FieldSpec, BaseField, ExtField, get_field,
                    row_reduce)
from .poly import FqPoly, PolyError, poly_gcd_multivariate, resultant
from .factor import factor_univariate, poly_roots
from .cartier import (
    CLASS2_AMBIENT,
    CLASS4_AMBIENT,
    CartierError,
    FormElement,
    cartier_general,
    cartier_p2,
    check_p1_derivative,
    divisorial_gcd_check,
    f_ij_table,
    partials,
    pth_root_poly,
    z_filtration,
    z_filtration_dims,
)

__all__ = [
    "FieldError", "FieldSpec", "BaseField", "ExtField", "get_field",
    "row_reduce",
    "FqPoly", "PolyError", "poly_gcd_multivariate", "resultant",
    "factor_univariate", "poly_roots",
    "CLASS2_AMBIENT", "CLASS4_AMBIENT", "CartierError", "FormElement",
    "cartier_general", "cartier_p2", "check_p1_derivative",
    "divisorial_gcd_check", "f_ij_table", "partials", "pth_root_poly",
    "z_filtration", "z_filtration_dims",
]
