"""Numerical engine for dually epi-translation invariant valuations on
grid-sampled convex functions."""

from .convex import (
    biconjugate,
    biconjugate_gap,
    body_to_function,
    convex_split,
    default_dual_domain,
    epi_distance,
    extend_from_subdomain,
    is_discretely_convex,
    legendre,
    lipschitz_bound,
    lipschitz_regularize,
    lsc_extend,
    reconstruct_from_conjugate,
    restrict,
    slope_range,
)
from .errors import (
    ConvexityViolation,
    DomainExceeded,
    FormatError,
    StepAgreementError,
)
from .grids import Bump, ExtGridFn, GridDomain, Polytope, ScanMask, interpolate
from .gw import (
    GWQuery,
    diagonality_residual,
    gw_eval,
    gw_report,
    polarize,
    seminorm_estimate,
    support_scan,
    translate_covariance_residual,
)
from .sampling import random_convex_fn
from .valuations import (
    Composite,
    Constant,
    HessianDensity,
    HomogeneousComponents,
    PairingMeasure,
    component_functional,
    depi_invariance_residual,
    embed_T,
    evaluate,
    homogeneous_decompose,
    mixed_determinant,
    res_star,
    valuation_residual,
)

__version__ = "0.1.0"

__all__ = [
    "Bump", "Composite", "Constant", "ConvexityViolation", "DomainExceeded",
    "ExtGridFn", "FormatError", "GWQuery", "GridDomain", "HessianDensity",
    "HomogeneousComponents", "PairingMeasure", "Polytope", "ScanMask",
    "StepAgreementError", "biconjugate", "biconjugate_gap", "body_to_function",
    "component_functional", "convex_split", "default_dual_domain",
    "depi_invariance_residual", "diagonality_residual", "embed_T",
    "epi_distance", "evaluate", "extend_from_subdomain", "gw_eval",
    "gw_report", "homogeneous_decompose", "interpolate",
    "is_discretely_convex", "legendre", "lipschitz_bound",
    "lipschitz_regularize", "lsc_extend", "mixed_determinant", "polarize",
    "random_convex_fn", "reconstruct_from_conjugate", "res_star", "restrict",
    "seminorm_estimate", "slope_range", "support_scan",
    "translate_covariance_residual", "valuation_residual",
]
