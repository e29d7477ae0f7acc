"""Finite-dimensional laboratory for multiple operator integrals.

The package computes Schur-type transforms driven by one symbol grid and
several normal matrices, the operator norms of those transforms between
Hilbert-Schmidt and trace-class spaces, and matrix factorization norms via
a dense semidefinite solver, together with extractable witnesses and
certificates for every bound it reports.
"""

__version__ = "0.1.0"

from .errors import (
    BadPosition,
    BudgetExceeded,
    EigFailure,
    EvaluationFailure,
    NotNormal,
    NotPsd,
    NotSquare,
    NumericalBreakdown,
    OpintError,
    OrderTooLarge,
    ParseError,
    ShapeMismatch,
)
from .linalg import (
    NormalOperator,
    matrix_from_json,
    matrix_to_json,
    normal_eig,
    schatten_norm,
    trace_pairing,
)
from .norms import (
    FactorizationPair,
    NormEstimate,
    doi_s1_norm,
    gamma2,
    norm_estimate_to_json,
    recover_factorization,
    s1_bilinear_norm_lower,
    s2s2_to_s2_norm,
    trilinear_factor_norm,
)
from .opint import (
    apply_function,
    doi_apply,
    doi_via_toi,
    moi_apply,
    separable_apply,
    toi_apply,
)
from .sdp import SdpSolution, solve_gamma2_sdp
from .symbols import (
    SymbolGrid,
    elementary_tensor,
    embed_two_to_three,
    grid_from_function,
    grid_from_json,
    grid_to_json,
    middle_slices,
    pointwise_product,
    sup_norm,
)

__all__ = [
    "__version__",
    "OpintError",
    "NotSquare",
    "NotNormal",
    "EigFailure",
    "ShapeMismatch",
    "EvaluationFailure",
    "BadPosition",
    "OrderTooLarge",
    "NumericalBreakdown",
    "NotPsd",
    "ParseError",
    "BudgetExceeded",
    "NormalOperator",
    "normal_eig",
    "schatten_norm",
    "trace_pairing",
    "matrix_to_json",
    "matrix_from_json",
    "SymbolGrid",
    "grid_from_function",
    "sup_norm",
    "elementary_tensor",
    "embed_two_to_three",
    "pointwise_product",
    "middle_slices",
    "grid_to_json",
    "grid_from_json",
    "apply_function",
    "doi_apply",
    "toi_apply",
    "moi_apply",
    "separable_apply",
    "doi_via_toi",
    "SdpSolution",
    "solve_gamma2_sdp",
    "NormEstimate",
    "FactorizationPair",
    "s2s2_to_s2_norm",
    "s1_bilinear_norm_lower",
    "gamma2",
    "recover_factorization",
    "trilinear_factor_norm",
    "doi_s1_norm",
    "norm_estimate_to_json",
]
