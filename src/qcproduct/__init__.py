"""Quasi-cyclic product codes over finite fields.

A quasi-cyclic code of index ell is a submodule of F_q[X]^ell containing
<(X^m - 1)e_j>; this package reduces arbitrary generating sets to the
canonical upper-triangular basis, builds the product of a quasi-cyclic row
code with a cyclic column code (directly and in closed form for 1-level row
codes), and verifies every construction against exhaustive linear-algebra
ground truth.

Typical use::

    from qcproduct import (field_new, minimal_polynomial, cyclic_code_new,
                           OneLevelCode, bezout_pair, one_level_product_rgb)

    f2 = field_new(2)
    g = minimal_polynomial(2, 17, 1)        # row-code shared divisor
    ...
"""

from .errors import (
    BothZero,
    CoefficientNotInBaseField,
    DegreeMismatch,
    DegreeOverflow,
    DimensionMismatch,
    DivisionByZero,
    FieldMismatch,
    IndexOutOfRange,
    MessageDegreeTooLarge,
    NonPrefixPattern,
    NoSuchRoot,
    NotADivisor,
    NotCoprime,
    NotIrreducible,
    NotOneLevel,
    NotPrime,
    ParamMismatch,
    PolyParseError,
    QcError,
    RankMismatch,
    ShapeMismatch,
    TooLarge,
)
from .field import (
    Field,
    FieldElement,
    coeffs_to_poly_text,
    field_new,
    nth_root_of_unity,
    poly_text_to_coeffs,
)
from .polyring import (
    Poly,
    fold_mod_xm1,
    modular_substitute,
    poly_egcd,
    poly_gcd,
    x_pow_minus_one,
)
from .cyclic import (
    CyclicCode,
    cyclic_code_new,
    cyclotomic_coset,
    cyclotomic_cosets,
    factor_xm_minus_1,
    field_of_order,
    minimal_polynomial,
)
from .qcmodule import (
    GeneratingMatrix,
    PolyVector,
    QuasiCyclicCode,
    RgbPotBasis,
    dimension,
    encode,
    is_rgb_pot,
    level,
    qc_shift,
    reduce_vector,
    rgb_pot_reduce,
    univariate_to_vector,
    vector_to_univariate,
)
from .product import (
    CodewordMatrix,
    OneLevelCode,
    ProductParams,
    bezout_pair,
    map_f,
    map_g,
    matrix_to_components,
    matrix_to_univariate,
    one_level_product_rgb,
    univariate_to_matrix,
    unreduced_product_basis,
)
from .oracle import (
    LinearCodeView,
    check_product_membership,
    expand_to_linear,
    is_quasi_cyclic,
    min_distance,
    modules_equal,
)
from .serialize import (
    basis_from_doc,
    basis_to_doc,
    canonical_json,
    cyclic_from_doc,
    cyclic_to_doc,
    field_from_doc,
    field_to_doc,
    generating_matrix_from_doc,
    generating_matrix_to_doc,
    poly_from_text,
    poly_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "Field", "FieldElement", "Poly", "CyclicCode", "PolyVector",
    "GeneratingMatrix", "RgbPotBasis", "QuasiCyclicCode", "OneLevelCode",
    "ProductParams", "CodewordMatrix", "LinearCodeView",
    "field_new", "nth_root_of_unity", "poly_text_to_coeffs",
    "coeffs_to_poly_text", "modular_substitute", "fold_mod_xm1", "poly_gcd",
    "poly_egcd", "x_pow_minus_one", "cyclic_code_new",
    "cyclotomic_coset", "cyclotomic_cosets",
    "factor_xm_minus_1", "field_of_order", "minimal_polynomial",
    "rgb_pot_reduce", "is_rgb_pot", "dimension", "level", "encode",
    "reduce_vector", "vector_to_univariate", "univariate_to_vector",
    "qc_shift", "bezout_pair", "map_f", "map_g", "matrix_to_univariate",
    "univariate_to_matrix", "matrix_to_components", "unreduced_product_basis",
    "one_level_product_rgb", "expand_to_linear", "min_distance",
    "is_quasi_cyclic", "modules_equal", "check_product_membership",
    "poly_from_text", "poly_to_text", "field_to_doc", "field_from_doc",
    "basis_to_doc", "basis_from_doc", "generating_matrix_to_doc",
    "generating_matrix_from_doc", "cyclic_to_doc", "cyclic_from_doc",
    "canonical_json",
    "QcError", "NotPrime", "NotIrreducible", "DegreeMismatch",
    "FieldMismatch", "DivisionByZero", "NoSuchRoot", "BothZero", "NotCoprime",
    "CoefficientNotInBaseField", "NotADivisor", "MessageDegreeTooLarge",
    "DegreeOverflow", "NonPrefixPattern", "IndexOutOfRange",
    "DimensionMismatch", "ParamMismatch", "NotOneLevel", "RankMismatch",
    "TooLarge", "ShapeMismatch", "PolyParseError",
]
