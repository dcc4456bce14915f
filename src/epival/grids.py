"""Grid domains, extended-real grid functions, polytopes and bump test functions.

Values use IEEE +inf for the extended value; -inf and NaN are always rejected.
All types are immutable after construction: arrays are stored with the
writeable flag cleared, so sharing them across threads is safe.
"""

from math import prod

import numpy as np

from .errors import DomainExceeded


def _frozen(arr, dtype=float):
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


class _Immutable:
    """Base of epival's value types. Each sets its attributes once, in
    __init__, through object.__setattr__; assigning or deleting one later
    raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


def _product_points(axes):
    """The points of the product grid of `axes` as an (N, ndim) array,
    row-major (last axis fastest)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class GridDomain(_Immutable):
    """Axis-aligned box with a uniform tensor grid, dimensions 1 to 3."""

    def __init__(self, lo, hi, shape):
        lo = _frozen(np.atleast_1d(lo))
        hi = _frozen(np.atleast_1d(hi))
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        if not (1 <= lo.size <= 3) or lo.size != hi.size or len(shape) != lo.size:
            raise ValueError("lo, hi, shape must share a length in {1,2,3}")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise ValueError("box corners must be finite")
        if not np.all(lo < hi):
            raise ValueError("need lo < hi on every axis")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(hi - lo)):
                raise ValueError("hi - lo overflows")
            # |x|^2 at the farthest corner bounds every squared norm on the grid
            if not np.isfinite(np.sum(np.maximum(lo * lo, hi * hi))):
                raise ValueError("squared coordinates overflow")
        if any(s < 3 for s in shape):
            raise ValueError("need at least 3 samples per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", shape)

    @property
    def ndim(self):
        return self.lo.size

    @property
    def size(self):
        return prod(self.shape)  # Python ints: np.prod wraps past 2^63

    @property
    def spacing(self):
        return (self.hi - self.lo) / (np.array(self.shape) - 1)

    @property
    def center(self):
        return (self.lo + self.hi) / 2.0

    @property
    def radius(self):
        """Half-diagonal: covers the whole box from its center."""
        return float(np.linalg.norm((self.hi - self.lo) / 2.0))

    def axes(self):
        return [np.linspace(self.lo[i], self.hi[i], self.shape[i])
                for i in range(self.ndim)]

    def points(self):
        """All grid points as an (N, ndim) array, row-major (last axis fastest)."""
        return _product_points(self.axes())

    def point_norms(self, center=None):
        c = self.center if center is None else np.asarray(center, dtype=float)
        return np.linalg.norm(self.points() - c, axis=1).reshape(self.shape)

    def contains(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        eps = 1e-9 * np.maximum(1.0, np.abs(self.hi - self.lo))
        return np.all((pts >= self.lo - eps) & (pts <= self.hi + eps), axis=1)

    def same_as(self, other):
        return (self.shape == other.shape
                and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi))


class ExtGridFn(_Immutable):
    """Extended-real values sampled on a GridDomain (+inf allowed, -inf never)."""

    def __init__(self, domain, values):
        """`values` are copied, so the caller's array may change later."""
        self._take(domain, np.array(values, dtype=float))

    @classmethod
    def _of(cls, domain, values):
        """The function of `values`, a float array made for it that no one
        else holds: it is stored, write flag cleared, without a copy."""
        fn = cls.__new__(cls)
        fn._take(domain, np.asarray(values, dtype=float))
        return fn

    def _take(self, domain, values):
        values = values.reshape(domain.shape)
        if np.any(np.isnan(values)):
            raise ValueError("NaN values are not allowed")
        if np.any(np.isneginf(values)):
            raise ValueError("-inf values are not allowed")
        if not np.any(np.isfinite(values)):
            raise ValueError("function must be proper (some finite value)")
        values.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)

    @property
    def finite_mask(self):
        return np.isfinite(self.values)

    def __mul__(self, t):
        t = float(t)
        if t < 0:
            raise ValueError("only nonnegative scaling keeps +inf consistent")
        if t == 0.0:
            vals = np.where(self.finite_mask, 0.0, np.inf)
            return ExtGridFn._of(self.domain, vals)
        return ExtGridFn._of(self.domain, self.values * t)

    __rmul__ = __mul__

    def add_affine(self, slope, offset=0.0):
        """Pointwise f + <slope, x> + offset; +inf cells stay +inf."""
        slope = np.atleast_1d(np.asarray(slope, dtype=float))
        lin = (self.domain.points() @ slope + offset).reshape(self.domain.shape)
        return ExtGridFn._of(self.domain, np.where(self.finite_mask, self.values + lin, np.inf))

    def maximum(self, other):
        self._check_same(other)
        return ExtGridFn._of(self.domain, np.maximum(self.values, other.values))

    def minimum(self, other):
        self._check_same(other)
        return ExtGridFn._of(self.domain, np.minimum(self.values, other.values))

    def _check_same(self, other):
        if not self.domain.same_as(other.domain):
            raise ValueError("domains differ")


def _interpolation_corners(domain: GridDomain, pts):
    """Flat corner indices and multilinear weights, both (M, 2^n), of the
    cells around each point; exact on grid nodes and affine data.

    Raises DomainExceeded for points outside the box.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != domain.ndim:
        raise ValueError("point dimension mismatch")
    if not np.all(domain.contains(pts)):
        raise DomainExceeded("interpolation point outside the grid domain")
    shape = np.array(domain.shape)
    rel = (pts - domain.lo) / domain.spacing
    base = np.clip(np.floor(rel).astype(int), 0, shape - 2)
    frac = np.clip(rel - base, 0.0, 1.0)
    n = domain.ndim
    idx = np.empty((pts.shape[0], 1 << n), dtype=int)
    w = np.ones((pts.shape[0], 1 << n))
    for corner in range(1 << n):
        offs = np.array([(corner >> a) & 1 for a in range(n)])
        idx[:, corner] = np.ravel_multi_index(tuple((base + offs).T), domain.shape)
        for a in range(n):
            w[:, corner] *= frac[:, a] if offs[a] else 1.0 - frac[:, a]
    return idx, w


def _interpolate_rows(vals, w):
    """Interpolated values (..., M) from the gathered corner values
    (..., M, 2^n) of _interpolation_corners and weights that broadcast to
    them; a corner of weight 0 is not read, and ValueError is raised when a
    weighted corner is +inf."""
    if np.any((w > 0) & ~np.isfinite(vals)):
        raise ValueError("interpolation touches a +inf cell")
    terms = np.where(w > 0, w * np.where(np.isfinite(vals), vals, 0.0), 0.0)
    out = np.zeros(terms.shape[:-1])
    for corner in range(terms.shape[-1]):
        out = out + terms[..., corner]
    return out


def _dilate(mask):
    """Cells in the 3^n box around a marked cell: one shift each way per axis."""
    out = mask
    for a in range(mask.ndim):
        lo = (slice(None),) * a + (slice(None, -1),)
        hi = (slice(None),) * a + (slice(1, None),)
        grown = out.copy()
        grown[hi] |= out[lo]
        grown[lo] |= out[hi]
        out = grown
    return out


def _bounding_window(mask):
    """Slices of the smallest box of the boolean grid `mask` that holds every
    set cell; its first cell when none is set."""
    return tuple(slice(int(i.min()), int(i.max()) + 1) if i.size else slice(0, 1)
                 for i in np.nonzero(mask))


def _margin_mask(shape, width):
    """Cells within `width` of the grid boundary on some axis."""
    m = np.zeros(shape, dtype=bool)
    for a in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[a] = slice(0, width)
        m[tuple(sl)] = True
        sl[a] = slice(shape[a] - width, shape[a])
        m[tuple(sl)] = True
    return m


def interpolate(f: ExtGridFn, pts):
    """Multilinear interpolation of f at points; exact on grid nodes and affine data.

    Raises DomainExceeded for points outside the box and ValueError when a
    surrounding cell corner is +inf.
    """
    idx, w = _interpolation_corners(f.domain, pts)
    return _interpolate_rows(f.values.ravel()[idx], w)


class Polytope(_Immutable):
    """Finite vertex list in dual space V* x R; duplicates allowed."""

    def __init__(self, vertices):
        vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        if vertices.size == 0:
            raise ValueError("vertex list must be nonempty")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices must be finite")
        object.__setattr__(self, "vertices", _frozen(vertices))

    @property
    def ambient_dim(self):
        return self.vertices.shape[1]

    def translate(self, shift):
        return Polytope(self.vertices + np.asarray(shift, dtype=float))

    def scale(self, t):
        if t < 0:
            raise ValueError("scaling must be nonnegative")
        return Polytope(self.vertices * float(t))

    def support(self, directions):
        """h_K(y) = max over vertices of <y, v>."""
        directions = np.atleast_2d(np.asarray(directions, dtype=float))
        return (directions @ self.vertices.T).max(axis=1)


def _bump_values(pts, centers, radius, amplitude=1.0):
    """(C, N) values of the bumps with the given (C, n) centers and a shared
    radius and amplitude at the (N, n) points. Each value is bit-identical to
    Bump(center, radius, amplitude).value at its point."""
    d = pts - centers[:, None]
    u = np.sum(d * d, axis=-1) / radius**2
    out = np.zeros(u.shape)
    inside = u < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - u[inside]))
    return out


class Bump(_Immutable):
    """Smooth compactly supported bump: amp * exp(1 - 1/(1 - |x-c|^2/r^2))."""

    def __init__(self, center, radius, amplitude=1.0):
        center = _frozen(np.atleast_1d(center))
        radius = float(radius)
        # the bump's curvature is of order (2 / radius^2)^2: past the float
        # range no bound read from its samples can stand for it
        with np.errstate(over="ignore", divide="ignore"):
            curvature = (2.0 / np.float64(radius) ** 2) ** 2
        if not (radius > 0.0 and radius * radius < np.inf and np.isfinite(curvature)):
            raise ValueError("radius must be positive with finite radius^2 and 1/radius^4")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "amplitude", float(amplitude))

    def value(self, pts):
        """Values at (N, n) points, refusing points whose dimension is not the
        center's, which numpy would otherwise broadcast against it."""
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.center.size:
            raise ValueError(f"bump center has dimension {self.center.size}, "
                             f"points have dimension {pts.shape[1]}")
        return _bump_values(pts, self.center[None], self.radius, self.amplitude)[0]

    def sample(self, domain: GridDomain) -> ExtGridFn:
        return ExtGridFn._of(domain, self.value(domain.points()))


class ScanMask(_Immutable):
    """Boolean grid marking cells, e.g. the estimated support of a valuation."""

    def __init__(self, domain, marked):
        marked = np.asarray(marked, dtype=bool)
        if marked.shape != tuple(domain.shape):
            marked = marked.reshape(domain.shape)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "marked", _frozen(marked, dtype=bool))

    @property
    def count(self):
        return int(self.marked.sum())

    def indices(self):
        return np.argwhere(self.marked)
