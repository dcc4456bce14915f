"""Independent reference computations the benchmark checks outputs against.

None of this imports epival: each oracle is a direct formula (brute-force
maxima and minima, scipy's interpolator, slicing stencils, the Levi-Civita
form of the mixed discriminant), so it shares no code path with the
program it checks.
"""

from itertools import permutations
from math import factorial

import numpy as np
from scipy.interpolate import RegularGridInterpolator


def brute_conjugate_at(grid, vals, ys):
    """f*(y) = max over finite cells x of <y, x> - f(x)."""
    fin = np.isfinite(vals.ravel())
    pts = grid.points()[fin]
    fv = vals.ravel()[fin]
    return np.array([np.max(pts @ y - fv) for y in np.atleast_2d(ys)])


def inf_convolution_at(grid, vals, xs, L):
    """min over finite cells y of f(y) + L |x - y|."""
    fin = np.isfinite(vals.ravel())
    pts = grid.points()[fin]
    fv = vals.ravel()[fin]
    return np.array([np.min(fv + L * np.linalg.norm(pts - x, axis=1))
                     for x in np.atleast_2d(xs)])


def interpolate(grid, vals, pts):
    """Multilinear interpolation on the grid."""
    return RegularGridInterpolator(grid.axes(), vals, method="linear")(np.atleast_2d(pts))


def central_hessians(grid, vals):
    """Central-difference Hessians at every cell at least one cell from the
    border, shape grid.shape + (n, n); border cells hold zeros."""
    n = grid.ndim
    dx = grid.spacing
    H = np.zeros(tuple(grid.shape) + (n, n))
    inner = tuple(slice(1, s - 1) for s in grid.shape)

    def shifted(offset):
        return vals[tuple(slice(1 + o, s - 1 + o) for o, s in zip(offset, grid.shape))]

    center = shifted([0] * n)
    for i in range(n):
        e = [0] * n
        e[i] = 1
        m = [-v for v in e]
        H[inner + (i, i)] = (shifted(e) - 2.0 * center + shifted(m)) / dx[i]**2
        for j in range(i + 1, n):
            def off(a, b):
                o = [0] * n
                o[i], o[j] = a, b
                return o
            mixed = (shifted(off(1, 1)) - shifted(off(1, -1)) - shifted(off(-1, 1))
                     + shifted(off(-1, -1))) / (4.0 * dx[i] * dx[j])
            H[inner + (i, j)] = mixed
            H[inner + (j, i)] = mixed
    return H


def _levi_civita(n):
    eps = np.zeros((n,) * n)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        eps[perm] = -1.0 if inversions % 2 else 1.0
    return eps


def _contract(eps, mats):
    n = mats[0].shape[-1]
    letters = "abcdefghijkl"
    rows, cols = letters[:n], letters[n:2 * n]
    terms = ",".join(f"...{r}{c}" for r, c in zip(rows, cols))
    expr = f"{rows},{cols},{terms}->..."
    return np.einsum(expr, eps, eps, *mats) / factorial(n)


def mixed_discriminant(*mats):
    """D(A_1..A_n) = (1/n!) eps_{i..} eps_{j..} (A_1)_{i1 j1} ... (A_n)_{in jn};
    D(A, ..., A) = det A. Broadcasts over leading axes."""
    return _contract(_levi_civita(mats[0].shape[-1]), mats)


def hessian_form(grid, weight, hessians):
    """sum over cells of weight * D(H_1, ..., H_n) * cell volume: the
    Hessian-density valuation polarized at the given Hessian fields."""
    return float(np.sum(weight * mixed_discriminant(*hessians)) * np.prod(grid.spacing))


def hessian_form_bound(grid, weight, hessians):
    """hessian_form with every term of the sum taken by its absolute value:
    the magnitude that rounding errors in the form scale with. Taking |H_i|
    alone is not enough, as the Levi-Civita signs can still cancel or turn
    the sum negative."""
    eps = np.abs(_levi_civita(grid.ndim))
    mats = [np.abs(h) for h in hessians]
    return float(np.sum(np.abs(weight) * _contract(eps, mats)) * np.prod(grid.spacing))
