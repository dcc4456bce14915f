"""Declarative valuations on grid functions and their structural operations.

A valuation is described by a spec (pairing measure, Hessian density,
constant, or a linear combination) and evaluated against ExtGridFn inputs.
The module also provides the valuation/invariance residual probes, the
homogeneous decomposition through a Vandermonde system, mixed determinants,
the embedding into body valuations, and restriction to open sub-domains.
"""

from dataclasses import dataclass
from itertools import permutations
from math import factorial, prod

import numpy as np

from .convex import _support_values, central_hessian_at, is_discretely_convex, restrict
from .errors import ConvexityViolation
from .grids import (ExtGridFn, GridDomain, Polytope, ScanMask, _bounding_window, _dilate,
                    _interpolate_rows, _interpolation_corners, _margin_mask)

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


@dataclass(frozen=True, eq=False)
class HessianDensity:
    """mu(f) = integral of weight * D(H_f [order], aux...) by midpoint quadrature.

    The weight must vanish on a margin of at least two cells so every
    central-difference stencil stays interior. Auxiliary matrices are
    constant symmetric matrices or per-cell fields of shape weight grid + (n, n).
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
            if a.shape not in ((n, n), weight.domain.shape + (n, n)):
                raise ValueError("auxiliary matrices must be n x n, or one per weight grid cell")
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


def _det(cols):
    """Closed-form determinant of the n x n matrices (n = 1 to 3) whose
    columns are the stacks cols[j] of shape (..., n); broadcasts."""
    if len(cols) == 1:
        return cols[0][..., 0]
    if len(cols) == 2:
        a, b = cols
        return a[..., 0] * b[..., 1] - b[..., 0] * a[..., 1]
    a, b, c = cols
    return (a[..., 0] * (b[..., 1] * c[..., 2] - c[..., 1] * b[..., 2])
            - b[..., 0] * (a[..., 1] * c[..., 2] - c[..., 1] * a[..., 2])
            + c[..., 0] * (a[..., 1] * b[..., 2] - b[..., 1] * a[..., 2]))


def mixed_determinant(*mats):
    """Mixed discriminant of n symmetric n x n matrices, the polarization of det:
    D(A_1..A_n) = (1/n!) sum over permutations s of det[A_s(1) e_1 | ... | A_s(n) e_n]
    (Schneider, Convex Bodies: The Brunn-Minkowski Theory, section 5.1).

    Arguments that are one object, as in [H] * order, form a group, and the
    sum runs over the distinct assignments of groups to columns, each
    counted by the product of the groups' factorials: D(H, H, H) is one
    det, D(H, H, A) three. Accepts n stacked arrays of shape (..., n, n);
    broadcasts over leading axes. Every term is elementwise, so each leading
    index is computed on its own.
    """
    groups = {}
    for m in mats:
        groups.setdefault(id(m), [m, 0])[1] += 1
    arrays = [np.asarray(m, dtype=float) for m, _ in groups.values()]
    n = arrays[0].shape[-1]
    if len(mats) != n or any(a.shape[-2:] != (n, n) for a in arrays):
        raise ValueError("need exactly n matrices of size n x n")
    if n not in (1, 2, 3):
        raise ValueError("dimensions 1 to 3 only")
    labels = [g for g, (_, count) in enumerate(groups.values()) for _ in range(count)]
    total = 0.0
    for assignment in sorted(set(permutations(labels))):
        total = total + _det([arrays[g][..., :, j] for j, g in enumerate(assignment)])
    return total * (prod(factorial(count) for _, count in groups.values()) / factorial(n))


def _leaves(spec):
    """(coefficient, spec) of every distinct term of the spec that is no
    composite, in depth-first order of first appearance: a composite's
    coefficients multiply into its terms', and a term reached along several
    paths takes the sum of theirs. Terms are told apart by identity, so a
    composite that names another twice costs one visit, not one per path."""
    if not isinstance(spec, Composite):
        return [(1.0, spec)]
    leaves, coefs, done, stack = {}, {id(spec): 1.0}, [], [(spec, iter(spec.terms))]
    while stack:  # depth first, each composite once, without recursion
        for _, s in stack[-1][1]:
            if not isinstance(s, Composite):
                leaves.setdefault(id(s), [0.0, s])
            elif id(s) not in coefs:
                coefs[id(s)] = 0.0
                stack.append((s, iter(s.terms)))
                break
        else:
            done.append(stack.pop()[0])
    for node in reversed(done):  # each composite after every composite holding it
        for c, s in node.terms:
            if isinstance(s, Composite):
                coefs[id(s)] += coefs[id(node)] * c
            else:
                leaves[id(s)][0] += coefs[id(node)] * c
    return [(c, s) for c, s in leaves.values()]


def _evaluate_stack(spec, domain: GridDomain, stack, crop=None):
    """Values (R,) of the window form mu_W of the valuation at each row of a
    (R, *W) stack of values on the box `crop` of the grid, a tuple of slices
    (the whole grid by default). A callable takes whole rows, so its box
    must be the whole grid.

    mu_W sums the terms whose stencil lies in the box: a Hessian density's
    cells of supp(w) one cell inside the box's edges (aux taken at the same
    cells), a pairing's node corners in the box (a corner beyond it gets
    weight 0), a constant's value, a composite's terms. On a box that holds
    every cell mu reads (_read_mask), the whole grid among them, mu_W is mu.
    Every reduction runs within a row, so a row's value does not depend on
    the other rows in the stack.
    """
    R, window = stack.shape[0], stack.shape[1:]
    if crop is None:
        crop = tuple(slice(0, m) for m in domain.shape)
    total = np.zeros(R)
    for coef, s in _leaves(spec):
        if callable(s):
            v = np.array([float(s(ExtGridFn(domain, row))) for row in stack])
        elif isinstance(s, Constant):
            v = float(s.value)
        elif isinstance(s, PairingMeasure):
            idx, w = _interpolation_corners(domain, s.nodes)
            at = tuple(a - c.start for a, c in zip(np.unravel_index(idx, domain.shape), crop))
            inside = np.all([(0 <= a) & (a < m) for a, m in zip(at, window)], axis=0)
            vals = stack.reshape(R, -1)[:, np.ravel_multi_index(at, window, mode="clip")]
            v = np.sum(_interpolate_rows(vals, np.where(inside, w, 0.0)) * s.weights, axis=-1)
        elif isinstance(s, HessianDensity):
            if not domain.same_as(s.weight.domain):
                raise ValueError("probe function domain differs from the weight domain")
            inner = tuple(slice(c.start + 1, c.stop - 1) for c in crop)
            w = s.weight.values[inner]
            at = np.nonzero(w)
            H = central_hessian_at(stack, domain.spacing, np.stack(at, axis=1) + 1)
            mats = [H] * s.order + [a if a.ndim == 2 else a[inner][at] for a in s.aux]
            terms = w[at] * mixed_determinant(*mats)
            # in order: np.sum's pairwise order would move gw values by ~2e-12
            v = np.add.reduceat(terms, [0], axis=-1)[:, 0] if at[0].size else 0.0
            v = v * np.prod(domain.spacing)
        else:
            raise TypeError(f"not a valuation spec: {type(s).__name__}")
        total = total + coef * v
    return total


def _read_mask(spec, domain: GridDomain):
    """Boolean grid of every cell _evaluate_stack(spec, domain, ...) may
    read on the whole grid: changing a row anywhere else leaves that row's
    value unchanged."""
    mask = np.zeros(domain.shape, dtype=bool)
    for _, s in _leaves(spec):
        if callable(s):
            mask[...] = True
        elif isinstance(s, PairingMeasure):
            idx, _ = _interpolation_corners(domain, s.nodes)
            mask.flat[idx.ravel()] = True
        elif isinstance(s, HessianDensity):
            if not domain.same_as(s.weight.domain):
                raise ValueError("probe function domain differs from the weight domain")
            mask |= _dilate(s.weight.values != 0.0)  # the 3^n central-difference stencil
        elif not isinstance(s, Constant):
            raise TypeError(f"not a valuation spec: {type(s).__name__}")
    return mask


def evaluate(spec, f: ExtGridFn) -> float:
    """Value of the valuation described by spec at the grid function f."""
    return float(_evaluate_stack(spec, f.domain, f.values[None])[0])


def grid_domain(spec, domain: GridDomain | None = None) -> GridDomain:
    """`domain` if given, else the grid the spec carries: the weight grid of
    its first Hessian density, depth first through composites."""
    if domain is not None:
        return domain
    for _, s in _leaves(spec):
        if isinstance(s, HessianDensity):
            return s.weight.domain
    raise ValueError("a grid domain is required (spec carries none)")


def valuation_residual(spec, f: ExtGridFn, h: ExtGridFn) -> float:
    """|mu(f) + mu(h) - mu(max(f,h)) - mu(min(f,h))|, requiring min convex."""
    fmax = f.maximum(h)
    fmin = f.minimum(h)
    if not is_discretely_convex(fmin):
        raise ConvexityViolation("min(f, h) is not discretely convex")
    a, b, c, d = _evaluate_stack(spec, f.domain, np.stack(
        [f.values, h.values, fmax.values, fmin.values]))
    return float(abs(a + b - c - d))


def depi_invariance_residual(spec, f: ExtGridFn, lam, c: float) -> float:
    """|mu(f + <lam, x> + c) - mu(f)|."""
    a, b = _evaluate_stack(spec, f.domain, np.stack([f.add_affine(lam, c).values, f.values]))
    return float(abs(a - b))


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


def homogeneous_decompose(spec, f: ExtGridFn) -> HomogeneousComponents:
    """Split mu(f) into homogeneous components of degrees 0..n, n the
    dimension of f's grid, by probing mu(t f), t = 1..n+2, and solving the
    Vandermonde system for the coefficients of t^0..t^(n+1).
    """
    n = f.domain.ndim
    ts = np.arange(1, n + 3, dtype=float)
    vals = _evaluate_stack(spec, f.domain, _dilations(f, ts))
    coeffs = np.linalg.solve(np.vander(ts, increasing=True), vals)
    return HomogeneousComponents(components=coeffs[:n + 1],
                                 top_residual=abs(float(coeffs[n + 1])),
                                 probe_values=vals)


def component_functional(spec, deg: int):
    """The degree-`deg` component as a standalone valuation (a callable):
    f -> homogeneous_decompose(spec, f).components[deg], for f on a grid of
    dimension at least deg."""
    if deg < 0:
        raise ValueError("deg must be nonnegative")

    def mu_deg(f):
        if deg > f.domain.ndim:
            raise ValueError("deg must be at most the dimension of f's grid")
        return float(homogeneous_decompose(spec, f).components[deg])

    return mu_deg


def embed_T(spec, K: Polytope, domain: GridDomain | None = None) -> float:
    """Body valuation T(mu)[K] = mu(h_K(., -1)) sampled on the grid.

    h_K is sampled on the bounding box of the cells mu reads (_read_mask),
    where mu's window form is mu itself: every term's stencil lies inside
    it. A spec with a callable reads the whole grid."""
    dom = grid_domain(spec, domain)
    crop = _bounding_window(_read_mask(spec, dom))
    h = _support_values(K, [a[s] for a, s in zip(dom.axes(), crop)])
    return float(_evaluate_stack(spec, dom, h[None], crop)[0])


def res_star(spec, f: ExtGridFn, U_mask: ScanMask) -> float:
    """Evaluate a valuation living on the open cell set U at f restricted to U."""
    if np.any(~np.isfinite(f.values[U_mask.marked])):
        raise ValueError("f must be finite on every U cell")
    return evaluate(spec, restrict(f, U_mask))
