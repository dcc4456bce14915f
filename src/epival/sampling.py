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
    function. Both parts are built on the grid axes by broadcasting, one
    affine function or quadratic term at a time, so the working set is a
    few grids whatever the number of affine functions.
    """
    n = domain.ndim
    half = float(np.linalg.norm(domain.hi - domain.lo)) / 2.0
    m = 1 + int(_MAX_AFFINE * rng.random())
    slopes = _uniform(rng, -2.0, 2.0, (m, n)) * (2.0 / half)
    offsets = _uniform(rng, -1.0, 1.0, m)
    W = _uniform(rng, -2.0, 2.0, (n, n))
    Q = (W @ W.T) * (float(_uniform(rng, 0.1, 1.0)) / (n * half**2))
    # axis a as an array that broadcasts along it over the grid
    x = [ax.reshape((-1,) + (1,) * (n - 1 - a)) for a, ax in enumerate(domain.axes())]
    vals = np.full(domain.shape, -np.inf)
    for slope, offset in zip(slopes, offsets):
        plane = slope[0] * x[0]
        for a in range(1, n):
            plane = plane + slope[a] * x[a]
        plane += offset
        np.maximum(vals, plane, out=vals)
    del plane
    quad = np.zeros(domain.shape)
    for a in range(n):
        for b in range(a, n):
            quad += (Q[a, a] if a == b else Q[a, b] + Q[b, a]) * x[a] * x[b]
    quad *= 0.5
    vals += quad
    return ExtGridFn._of(domain, vals)
