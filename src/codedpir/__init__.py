"""Private information retrieval over systematically coded storage.

Library plus CLI workbench: exact GF(2^w) linear algebra, systematic code
modelling with erasure-correctability tests, the access-matrix width scan
that minimizes the download price of a private retrieval, and the protocol
itself with end-to-end recovery and privacy verification.
"""

from .algebra import (
    FieldMatrix,
    FieldMismatchError,
    FieldSpec,
    ReducibleModulusError,
    SingularSystemError,
    field_new,
    matrix_rank,
    rref,
    solve,
)
from .codes import (
    DerivedCode,
    ErasurePattern,
    LinearCode,
    MinDistanceCapError,
    NotSystematicError,
    PackedFile,
    RateError,
    StorageSymbol,
    code_from_parity_check,
    derived_code,
    encode_file,
    is_ml_correctable,
    min_distance,
)
from .optimizer import (
    EMatrix,
    OptimizationResult,
    OptimizerConfig,
    PatternList,
    ThetaBounds,
    compute_erasure_pattern_list,
    cpop,
    e_matrix_violations,
    optimize_cpop,
    theta_bounds,
)
from .protocol import (
    PrivacyReport,
    ProtocolViolationError,
    QuerySet,
    ResponseSet,
    StorageArray,
    build_queries,
    build_storage,
    collect_responses,
    exact_privacy_check,
    random_file,
    recover_file,
    verify_privacy,
)

__version__ = "0.1.0"

__all__ = [
    "DerivedCode",
    "EMatrix",
    "ErasurePattern",
    "FieldMatrix",
    "FieldMismatchError",
    "FieldSpec",
    "LinearCode",
    "MinDistanceCapError",
    "NotSystematicError",
    "OptimizationResult",
    "OptimizerConfig",
    "PackedFile",
    "PatternList",
    "PrivacyReport",
    "ProtocolViolationError",
    "QuerySet",
    "RateError",
    "ReducibleModulusError",
    "ResponseSet",
    "SingularSystemError",
    "StorageArray",
    "StorageSymbol",
    "ThetaBounds",
    "build_queries",
    "build_storage",
    "code_from_parity_check",
    "collect_responses",
    "compute_erasure_pattern_list",
    "cpop",
    "derived_code",
    "e_matrix_violations",
    "encode_file",
    "exact_privacy_check",
    "field_new",
    "is_ml_correctable",
    "matrix_rank",
    "min_distance",
    "optimize_cpop",
    "random_file",
    "recover_file",
    "rref",
    "solve",
    "theta_bounds",
    "verify_privacy",
]
