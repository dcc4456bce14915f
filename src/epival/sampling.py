"""Random convex grid functions for probes and the seminorm sampler."""

import numpy as np

from .grids import ExtGridFn, GridDomain

_MAX_AFFINE = 8


def random_convex_fn(domain: GridDomain, rng) -> ExtGridFn:
    """Max of up to _MAX_AFFINE random affine functions plus a random PSD
    quadratic; finite and convex on the whole grid."""
    pts = domain.points()
    n = domain.ndim
    half = float(np.linalg.norm(domain.hi - domain.lo)) / 2.0
    m = int(rng.integers(1, _MAX_AFFINE + 1))
    slopes = rng.normal(size=(m, n)) * (2.0 / half)
    offsets = rng.uniform(-1.0, 1.0, size=m)
    vals = (pts @ slopes.T + offsets).max(axis=1)
    W = rng.normal(size=(n, n))
    Q = (W @ W.T) * (rng.uniform(0.1, 1.0) / (n * half**2))
    vals = vals + 0.5 * np.einsum("ki,ij,kj->k", pts, Q, pts)
    return ExtGridFn(domain, vals.reshape(domain.shape))
