"""Exact finite-field and polynomial algebra in small characteristic.

Fields F_{p^e} (p in {2, 3, 5}) with explicit moduli, sparse multivariate
polynomials, and the explicit Cartier-operator computations used by the
surface families.  Extension towers for algebraic points and univariate
factorization are characteristic 2 only.  Odd p remains in `BaseField`,
`FqPoly`, `cartier_general`, `pth_root_poly` and `check_p1_derivative`,
which the Cartier checks over F_3, F_9 and F_5 run.
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
