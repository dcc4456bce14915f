"""Random convex grid functions for probes and the seminorm sampler."""

import numpy as np

from .grids import ExtGridFn, GridDomain

_MAX_AFFINE = 8


def _uniform(rng, lo, hi, shape=()):
    """An array of numbers uniform on [lo, hi), one rng.random() each."""
    count = int(np.prod(shape))
    return lo + (hi - lo) * np.array([rng.random() for _ in range(count)]).reshape(shape)


def random_convex_fn(domain: GridDomain, rng) -> ExtGridFn:
    """Max of up to _MAX_AFFINE random affine functions plus a random PSD
    quadratic; finite and convex on the whole grid.

    Every number is drawn with rng.random(), so rng may be a random.Random
    or a numpy Generator; the same seed of the same kind gives the same
    function.
    """
    pts = domain.points()
    n = domain.ndim
    half = float(np.linalg.norm(domain.hi - domain.lo)) / 2.0
    m = 1 + int(_MAX_AFFINE * rng.random())
    slopes = _uniform(rng, -2.0, 2.0, (m, n)) * (2.0 / half)
    offsets = _uniform(rng, -1.0, 1.0, m)
    vals = (pts @ slopes.T + offsets).max(axis=1)
    W = _uniform(rng, -2.0, 2.0, (n, n))
    Q = (W @ W.T) * (float(_uniform(rng, 0.1, 1.0)) / (n * half**2))
    vals = vals + 0.5 * np.einsum("ki,ij,kj->k", pts, Q, pts)
    return ExtGridFn(domain, vals.reshape(domain.shape))
