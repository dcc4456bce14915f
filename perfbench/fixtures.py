"""Seeded benchmark inputs in epival's documented JSON file formats.

Written with plain numpy and json, not with epival.serialize, so a change
to the program's reader or writer cannot change what the benchmark feeds it.

Formats (from the README): a grid function is
``{"domain": {"lo": [...], "hi": [...], "shape": [...]}, "values": [...]}``
row-major with the string "inf" for the extended value; a pairing spec is
``{"kind": "pairing", "nodes": [...], "weights": [...]}``; a Hessian spec is
``{"kind": "hessian", "k": k, "weight": "<gridfile>", "aux": []}``; a
polytope is ``{"vertices": [[y_1..y_n, t], ...]}``.
"""

import json
import os

import numpy as np


class Grid:
    """Uniform tensor grid on the box [lo, hi] with `shape` points per axis."""

    def __init__(self, lo, hi, shape):
        self.lo = np.array(lo, dtype=float)
        self.hi = np.array(hi, dtype=float)
        self.shape = tuple(int(s) for s in shape)

    @classmethod
    def cube(cls, half, n, ndim):
        return cls([-half] * ndim, [half] * ndim, [n] * ndim)

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def spacing(self):
        return (self.hi - self.lo) / (np.array(self.shape) - 1)

    def axes(self):
        return [np.linspace(a, b, n) for a, b, n in zip(self.lo, self.hi, self.shape)]

    def points(self):
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def arg(self):
        """The CLI's --grid value: lo1,lo2:hi1,hi2:n1,n2."""
        def join(vals):
            return ",".join(repr(float(v)) for v in vals)
        return f"{join(self.lo)}:{join(self.hi)}:{','.join(map(str, self.shape))}"

    def to_dict(self):
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist(), "shape": list(self.shape)}

    @classmethod
    def from_dict(cls, obj):
        return cls(obj["lo"], obj["hi"], obj["shape"])


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_grid_fn(path, grid, values):
    flat = np.asarray(values, dtype=float).ravel()
    if flat.size != grid.size or np.any(np.isnan(flat)) or np.any(np.isneginf(flat)):
        raise ValueError("grid values must match the shape and avoid NaN and -inf")
    write_json(path, {"domain": grid.to_dict(),
                      "values": ["inf" if np.isposinf(v) else float(v) for v in flat]})


def read_grid_fn(path):
    obj = read_json(path)
    grid = Grid.from_dict(obj["domain"])
    vals = np.array([np.inf if v == "inf" else float(v) for v in obj["values"]])
    return grid, vals.reshape(grid.shape)


def convex_values(grid, rng, n_affine=6, curvature=(0.2, 1.0)):
    """max of random affine functions plus a positive definite quadratic."""
    pts = grid.points()
    n = grid.ndim
    slopes = rng.normal(size=(n_affine, n))
    offsets = rng.uniform(-1.0, 1.0, size=n_affine)
    W = rng.normal(size=(n, n))
    Q = W @ W.T / n + rng.uniform(*curvature) * np.eye(n)
    vals = (pts @ slopes.T + offsets).max(axis=1) + 0.5 * np.einsum("ki,ij,kj->k", pts, Q, pts)
    return vals.reshape(grid.shape)


def bump_values(pts, center, radius, amp=1.0):
    """The README's bump amp * exp(1 - 1/(1 - |x-c|^2/r^2)), zero outside."""
    u = np.sum((np.atleast_2d(pts) - np.asarray(center, dtype=float))**2, axis=1) / radius**2
    out = np.zeros(u.shape)
    inside = u < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - u[inside]))
    return out


def margin_mask(shape, width):
    m = np.zeros(shape, dtype=bool)
    for a, n in enumerate(shape):
        sl = [slice(None)] * len(shape)
        sl[a] = slice(0, width)
        m[tuple(sl)] = True
        sl[a] = slice(n - width, n)
        m[tuple(sl)] = True
    return m


def hessian_weight(grid, rng, n_bumps=2, spread=0.6, radius=(0.9, 1.3)):
    """Sum of seeded bumps near the centre, zero on the 2-cell margin the
    Hessian spec requires."""
    pts = grid.points()
    vals = np.zeros(grid.size)
    for _ in range(n_bumps):
        c = rng.uniform(-spread, spread, size=grid.ndim)
        vals += bump_values(pts, c, rng.uniform(*radius), rng.uniform(0.5, 1.5))
    vals = vals.reshape(grid.shape)
    vals[margin_mask(grid.shape, 2)] = 0.0
    return vals


def pairing(rng, ndim, n_nodes, lo, hi, min_gap):
    """Seeded nodes in [lo, hi]^ndim at least `min_gap` apart, with weights
    projected onto both moment conditions sum(w) = 0 and sum(w * node) = 0."""
    nodes = []
    while len(nodes) < n_nodes:
        p = rng.uniform(lo, hi, size=ndim)
        if all(np.linalg.norm(p - q) >= min_gap for q in nodes):
            nodes.append(p)
    nodes = np.array(nodes)
    M = np.vstack([np.ones(n_nodes), nodes.T])
    w = rng.normal(size=n_nodes)
    w -= M.T @ np.linalg.solve(M @ M.T, M @ w)
    scale = 1.0 + np.max(np.abs(w))
    if abs(w.sum()) > 1e-12 * scale or np.max(np.abs(w @ nodes)) > 1e-12 * scale * (1 + hi):
        raise ValueError("pairing weights miss the moment conditions")
    return nodes, w


def write_pairing(path, nodes, weights):
    write_json(path, {"kind": "pairing", "nodes": np.asarray(nodes).tolist(),
                      "weights": np.asarray(weights).tolist()})


def write_hessian(path, k, grid, weight):
    """Writes the spec and its weight grid file next to it."""
    weight_name = os.path.splitext(os.path.basename(path))[0] + ".weight.json"
    write_grid_fn(os.path.join(os.path.dirname(path), weight_name), grid, weight)
    write_json(path, {"kind": "hessian", "k": int(k), "weight": weight_name, "aux": []})
    return weight_name
