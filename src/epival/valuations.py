"""Declarative valuations on grid functions and their structural operations.

A valuation is described by a spec (pairing measure, Hessian density,
constant, or a linear combination) and evaluated against ExtGridFn inputs.
The module also provides the valuation/invariance residual probes, the
homogeneous decomposition through Vandermonde inversion, mixed determinants,
the embedding into body valuations, and restriction to open sub-domains.
"""

from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

from .convex import body_to_function, central_hessian_at, is_discretely_convex, restrict
from .errors import ConvexityViolation
from .grids import (ExtGridFn, GridDomain, Polytope, ScanMask, _dilate, _interpolate_rows,
                    _interpolation_corners, _margin_mask)

WEIGHT_CONDITION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PairingMeasure:
    """mu(f) = sum_i w_i f(node_i); weights must kill constants and linears."""

    nodes: np.ndarray
    weights: np.ndarray

    def __init__(self, nodes, weights, check=True):
        nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if nodes.shape[0] != weights.size:
            raise ValueError("one weight per node required")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if check:
            scale = 1.0 + float(np.max(np.abs(weights)))
            if abs(weights.sum()) > WEIGHT_CONDITION_TOL * scale:
                raise ValueError("weights violate sum(w) = 0")
            if np.max(np.abs(weights @ nodes)) > WEIGHT_CONDITION_TOL * scale * (
                    1.0 + float(np.max(np.abs(nodes)))):
                raise ValueError("weights violate sum(w * node) = 0")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def translate(self, v):
        return PairingMeasure(self.nodes + np.asarray(v, dtype=float),
                              self.weights, check=False)


@dataclass(frozen=True, eq=False)
class HessianDensity:
    """mu(f) = integral of weight * D(H_f [order], aux...) by midpoint quadrature.

    The weight must vanish on a margin of at least two cells so every
    central-difference stencil stays interior. Auxiliary matrices are
    constant symmetric matrices or per-cell fields of shape grid + (n, n).
    """

    order: int
    weight: ExtGridFn
    aux: tuple

    def __init__(self, order, weight, aux=()):
        n = weight.domain.ndim
        order = int(order)
        if not 1 <= order <= n:
            raise ValueError("order must be between 1 and the dimension")
        if not np.all(np.isfinite(weight.values)):
            raise ValueError("weight must be finite")
        margin = _margin_mask(weight.domain.shape, 2)
        if np.any(weight.values[margin] != 0.0):
            raise ValueError("weight must vanish on a 2-cell boundary margin")
        aux = tuple(np.asarray(a, dtype=float) for a in aux)
        if len(aux) != n - order:
            raise ValueError("need exactly dim - order auxiliary matrices")
        for a in aux:
            if a.shape[-2:] != (n, n):
                raise ValueError("auxiliary matrices must be n x n")
            if not np.allclose(a, np.swapaxes(a, -1, -2)):
                raise ValueError("auxiliary matrices must be symmetric")
            a.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "aux", aux)


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True, eq=False)
class Composite:
    """Linear combination sum_i coef_i * spec_i."""

    terms: tuple

    def __init__(self, terms):
        terms = tuple((float(c), s) for c, s in terms)
        object.__setattr__(self, "terms", terms)


def _permutation_signs(n):
    """(permutation, sign) pairs of range(n)."""
    out = []
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        out.append((p, -1.0 if inversions % 2 else 1.0))
    return out


def mixed_determinant(*mats):
    """Mixed discriminant of n symmetric n x n matrices, the polarization of det:
    D(A_1..A_n) = (1/n!) sum over permutations s, t of
    sign(s) sign(t) prod_i (A_i)[s(i), t(i)]
    (Schneider, Convex Bodies: The Brunn-Minkowski Theory, section 5.1).

    Accepts n stacked arrays of shape (..., n, n); broadcasts over leading axes.
    Every term is elementwise, so each leading index is computed on its own.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    n = mats[0].shape[-1]
    if len(mats) != n:
        raise ValueError("need exactly n matrices of size n x n")
    if n not in (1, 2, 3):
        raise ValueError("dimensions 1 to 3 only")
    signs = _permutation_signs(n)
    total = 0.0
    for s, sign_s in signs:
        for t, sign_t in signs:
            term = mats[0][..., s[0], t[0]]
            for i in range(1, n):
                term = term * mats[i][..., s[i], t[i]]
            total = total + (sign_s * sign_t) * term
    return total / factorial(n)


def _evaluate_stack(spec, domain: GridDomain, stack):
    """Values (B,) of the valuation at each row of a (B, *grid) value stack.

    Every reduction runs within a row, so a row's value does not depend on
    the other rows in the stack.
    """
    if callable(spec):
        return np.array([float(spec(ExtGridFn(domain, row))) for row in stack])
    if isinstance(spec, Constant):
        return np.full(stack.shape[0], float(spec.value))
    if isinstance(spec, PairingMeasure):
        idx, w = _interpolation_corners(domain, spec.nodes)
        vals = _interpolate_rows(stack.reshape(stack.shape[0], -1), idx, w)
        return np.sum(vals * spec.weights, axis=1)
    if isinstance(spec, HessianDensity):
        if not domain.same_as(spec.weight.domain):
            raise ValueError("probe function domain differs from the weight domain")
        supp = np.argwhere(spec.weight.values != 0.0)
        if supp.size == 0:
            return np.zeros(stack.shape[0])
        H = central_hessian_at(stack, domain.spacing, supp)
        mats = [H] * spec.order
        for a in spec.aux:
            mats.append(a if a.ndim == 2 else a[tuple(supp.T)])
        D = mixed_determinant(*mats)
        w = spec.weight.values[tuple(supp.T)]
        return np.sum(w * D, axis=-1) * np.prod(domain.spacing)
    if isinstance(spec, Composite):
        total = np.zeros(stack.shape[0])
        for c, s in spec.terms:
            total = total + c * _evaluate_stack(s, domain, stack)
        return total
    raise TypeError(f"not a valuation spec: {type(spec).__name__}")


def _read_mask(spec, domain: GridDomain):
    """Boolean grid of every cell _evaluate_stack(spec, domain, .) may read:
    changing a row anywhere else leaves that row's value unchanged."""
    if callable(spec):
        return np.ones(domain.shape, dtype=bool)
    if isinstance(spec, Constant):
        return np.zeros(domain.shape, dtype=bool)
    if isinstance(spec, PairingMeasure):
        idx, _ = _interpolation_corners(domain, spec.nodes)
        mask = np.zeros(domain.size, dtype=bool)
        mask[idx.ravel()] = True
        return mask.reshape(domain.shape)
    if isinstance(spec, HessianDensity):
        if not domain.same_as(spec.weight.domain):
            raise ValueError("probe function domain differs from the weight domain")
        return _dilate(spec.weight.values != 0.0)  # the 3^n central-difference stencil
    if isinstance(spec, Composite):
        mask = np.zeros(domain.shape, dtype=bool)
        for _, s in spec.terms:
            mask |= _read_mask(s, domain)
        return mask
    raise TypeError(f"not a valuation spec: {type(spec).__name__}")


def evaluate(spec, f: ExtGridFn) -> float:
    """Value of the valuation described by spec at the grid function f."""
    return float(_evaluate_stack(spec, f.domain, f.values[None])[0])


def grid_domain(spec, domain: GridDomain | None = None) -> GridDomain:
    """`domain` if given, else the grid the spec carries: a Hessian density's
    weight grid, or the first such grid among a composite's terms."""
    if domain is not None:
        return domain
    if isinstance(spec, HessianDensity):
        return spec.weight.domain
    if isinstance(spec, Composite):
        for _, s in spec.terms:
            try:
                return grid_domain(s)
            except ValueError:
                pass
    raise ValueError("a grid domain is required (spec carries none)")


def valuation_residual(spec, f: ExtGridFn, h: ExtGridFn) -> float:
    """|mu(f) + mu(h) - mu(max(f,h)) - mu(min(f,h))|, requiring min convex."""
    fmax = f.maximum(h)
    fmin = f.minimum(h)
    if not is_discretely_convex(fmin):
        raise ConvexityViolation("min(f, h) is not discretely convex")
    return abs(evaluate(spec, f) + evaluate(spec, h)
               - evaluate(spec, fmax) - evaluate(spec, fmin))


def depi_invariance_residual(spec, f: ExtGridFn, lam, c: float) -> float:
    """|mu(f + <lam, x> + c) - mu(f)|."""
    return abs(evaluate(spec, f.add_affine(lam, c)) - evaluate(spec, f))


@dataclass(frozen=True, eq=False)
class HomogeneousComponents:
    """Per-degree values mu_i(f) for degrees 0..n plus the degree-(n+1) residual."""

    components: np.ndarray
    top_residual: float
    probe_values: np.ndarray

    @property
    def scale(self):
        return 1.0 + float(np.max(np.abs(self.probe_values)))

    def total(self):
        return float(np.sum(self.components))


def _dilations(f: ExtGridFn, ts):
    """The stack of t * f for t in ts (all positive)."""
    return ts.reshape((-1,) + (1,) * f.values.ndim) * f.values


def _vandermonde(n):
    if n < 0:
        raise ValueError("n must be nonnegative")
    ts = np.arange(1, n + 3, dtype=float)
    V = np.vander(ts, N=n + 2, increasing=True)
    if np.linalg.cond(V) > 1e12:
        raise np.linalg.LinAlgError("Vandermonde system too ill-conditioned")
    return ts, V


def homogeneous_decompose(spec, f: ExtGridFn, n: int | None = None
                          ) -> HomogeneousComponents:
    """Split mu(f) into homogeneous components by probing mu(t f), t = 1..n+2,
    and inverting the Vandermonde system for the coefficients of t^0..t^(n+1).
    """
    if n is None:
        n = f.domain.ndim
    ts, V = _vandermonde(n)
    vals = _evaluate_stack(spec, f.domain, _dilations(f, ts))
    coeffs = np.linalg.solve(V, vals)
    return HomogeneousComponents(components=coeffs[:n + 1],
                                 top_residual=abs(float(coeffs[n + 1])),
                                 probe_values=vals)


def component_functional(spec, deg: int, n: int):
    """The degree-`deg` component as a standalone valuation (a callable),
    built from the same dilation probes as the decomposition."""
    ts, V = _vandermonde(n)
    if not 0 <= deg <= n:
        raise ValueError("deg must be between 0 and n")
    row = np.linalg.inv(V)[deg]

    def mu_deg(f):
        vals = _evaluate_stack(spec, f.domain, _dilations(f, ts))
        return float(sum(r * v for r, v in zip(row, vals)))

    return mu_deg


def embed_T(spec, K: Polytope, domain: GridDomain | None = None) -> float:
    """Body valuation T(mu)[K] = mu(h_K(., -1)) sampled on the grid."""
    return evaluate(spec, body_to_function(K, grid_domain(spec, domain)))


def res_star(spec, f: ExtGridFn, U_mask: ScanMask) -> float:
    """Evaluate a valuation living on the open cell set U at f restricted to U."""
    if np.any(~np.isfinite(f.values[U_mask.marked])):
        raise ValueError("f must be finite on every U cell")
    return evaluate(spec, restrict(f, U_mask))
