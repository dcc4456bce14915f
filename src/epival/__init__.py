"""Numerical engine for dually epi-translation invariant valuations on
grid-sampled convex functions.

Public names are imported from their submodules on first use (PEP 562), so
`import epival` loads neither numpy nor scipy and has no side effects.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each public name
_HOMES = {
    "convex": (
        "biconjugate", "biconjugate_gap", "body_to_function", "convex_split",
        "default_dual_domain", "epi_distance", "extend_from_subdomain",
        "is_discretely_convex", "legendre", "lipschitz_bound", "lipschitz_regularize",
        "lsc_extend", "reconstruct_from_conjugate", "restrict", "slope_range",
    ),
    "errors": ("ConvexityViolation", "DomainExceeded", "FormatError", "StepAgreementError"),
    "grids": ("Bump", "ExtGridFn", "GridDomain", "Polytope", "ScanMask", "interpolate"),
    "gw": (
        "GWQuery", "diagonality_residual", "gw_eval", "gw_report", "polarize",
        "seminorm_estimate", "support_scan",
    ),
    "sampling": ("random_convex_fn",),
    "valuations": (
        "Composite", "Constant", "HessianDensity", "HomogeneousComponents", "PairingMeasure",
        "component_functional", "depi_invariance_residual", "embed_T", "evaluate",
        "homogeneous_decompose", "mixed_determinant", "res_star", "valuation_residual",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOMES:  # a submodule, as `epival.convex` after a bare `import epival`
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
