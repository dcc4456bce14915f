"""Shared builders and independent oracles for the test suite."""

import os
import tracemalloc

import numpy as np

import epival
from epival import Composite, Constant, ExtGridFn, GridDomain, HessianDensity, PairingMeasure

SRC = os.path.dirname(os.path.dirname(os.path.abspath(epival.__file__)))

# prints the thread count of every OpenBLAS the process has loaded, read
# through its own getter, as perfbench/run.py records it
BLAS_THREADS = r"""
import ctypes
threads = []
for path in sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l}):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            threads.append(getattr(lib, sym)())
            break
print(threads)
"""


def child_env(**extra):
    """os.environ for a child that imports epival from this checkout, with
    no thread-count variable of its own (an in-process main() sets one), and
    with `extra` added."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    return dict(env, PYTHONPATH=SRC, **extra)


def grid1d(lo=-2.0, hi=2.0, n=65):
    return GridDomain([lo], [hi], [n])


def grid2d(lo=-2.0, hi=2.0, n=33):
    return GridDomain([lo, lo], [hi, hi], [n, n])


def grid3d(lo=-2.0, hi=2.0, n=9):
    return GridDomain([lo] * 3, [hi] * 3, [n] * 3)


SPEC_KINDS = ("pairing", "hessian", "hessian-aux", "hessian-cell-aux", "constant",
              "composite")


def random_spec(kind, d, rng, depth=2):
    """A spec of `kind` (one of SPEC_KINDS) on the grid d, drawn from rng.

    A pairing has n + 2 or n + 3 nodes, one of them on a grid node, and
    weights from the null space of the moment conditions, so check=True
    passes. A Hessian density has a random weight scattered off the 2-cell
    margin; its order is n for "hessian" (and on a line), else random below
    n, with constant ("hessian-aux") or per-cell ("hessian-cell-aux")
    symmetric aux matrices. A composite has two terms of any kind, itself
    included while depth > 1."""
    n = d.ndim
    if kind == "pairing":
        nodes = rng.uniform(d.lo, d.hi, size=(n + int(rng.integers(2, 4)), n))
        nodes[0] = d.lo + d.spacing * rng.integers(0, np.array(d.shape), size=n)  # a grid node
        moments = np.vstack([np.ones(len(nodes)), nodes.T])
        null = np.linalg.svd(moments)[2][n + 1:]
        return PairingMeasure(nodes, rng.normal(size=len(null)) @ null)
    if kind == "constant":
        return Constant(float(rng.normal()))
    if kind == "composite":
        kinds = SPEC_KINDS if depth > 1 else SPEC_KINDS[:-1]
        return Composite([(float(rng.normal()), random_spec(str(rng.choice(kinds)), d, rng,
                                                             depth - 1)) for _ in range(2)])
    inner = np.zeros(d.shape, dtype=bool)
    inner[(slice(2, -2),) * n] = True
    w = np.where(inner & (rng.random(d.shape) < 0.1), rng.normal(size=d.shape), 0.0)
    order = n if kind == "hessian" or n == 1 else int(rng.integers(1, n))
    aux = []
    for _ in range(n - order):
        a = rng.normal(size=(n, n) if kind == "hessian-aux" else d.shape + (n, n))
        aux.append(a + np.swapaxes(a, -1, -2))
    return HessianDensity(order, ExtGridFn(d, w), aux=aux)


def sample(domain, fn):
    pts = domain.points()
    return ExtGridFn(domain, np.asarray(fn(pts)).reshape(domain.shape))


def quadratic(domain, A=None, b=None, c=0.0):
    n = domain.ndim
    A = np.eye(n) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    return sample(domain, lambda p: 0.5 * np.einsum("ki,ij,kj->k", p, A, p)
                  + p @ b + c)


def point_list_convex_fn(domain, rng):
    """The values of sampling.random_convex_fn as it built them from the
    point list: the (N, m) matrix of the affine functions and an einsum of
    the quadratic, with the same rng.random() draws in the same order."""
    def uniform(lo, hi, shape=()):
        draws = [rng.random() for _ in range(int(np.prod(shape)))]
        return lo + (hi - lo) * np.array(draws).reshape(shape)

    pts = domain.points()
    n = domain.ndim
    half = float(np.linalg.norm(domain.hi - domain.lo)) / 2.0
    m = 1 + int(8 * rng.random())
    slopes = uniform(-2.0, 2.0, (m, n)) * (2.0 / half)
    offsets = uniform(-1.0, 1.0, m)
    vals = (pts @ slopes.T + offsets).max(axis=1)
    W = uniform(-2.0, 2.0, (n, n))
    Q = (W @ W.T) * (float(uniform(0.1, 1.0)) / (n * half**2))
    return (vals + 0.5 * np.einsum("ki,ij,kj->k", pts, Q, pts)).reshape(domain.shape)


def brute_conjugate(f, dual_domain):
    """Independent direct conjugate: plain loops, no shared code path."""
    pts = f.domain.points()
    vals = f.values.ravel()
    fin = np.isfinite(vals)
    out = np.empty(dual_domain.size)
    for j, y in enumerate(dual_domain.points()):
        out[j] = np.max(pts[fin] @ y - vals[fin])
    return ExtGridFn(dual_domain, out.reshape(dual_domain.shape))


def brute_convex_envelope_1d(f):
    """Lower convex hull of the sampled graph, evaluated back on the grid."""
    x = f.domain.points().ravel()
    y = f.values.ravel()
    hull = [0]
    for i in range(1, x.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (y[b] - y[a]) * (x[i] - x[b]) >= (y[i] - y[b]) * (x[b] - x[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    env = np.interp(x, x[hull], y[hull])
    return ExtGridFn(f.domain, env)


def brute_inf_convolution(f, L):
    """reg as a direct double loop: min over y of f(y) + L |x - y|."""
    pts = f.domain.points()
    vals = f.values.ravel()
    fin = np.isfinite(vals)
    out = np.empty(pts.shape[0])
    for i, x in enumerate(pts):
        d = np.linalg.norm(pts[fin] - x, axis=1)
        out[i] = np.min(vals[fin] + L * d)
    return ExtGridFn(f.domain, out.reshape(f.domain.shape))


def brute_chord_extension_1d(f, il, iu):
    """Chordal-extrapolation sup over colinear grid pairs inside [il, iu]."""
    x = f.domain.points().ravel()
    v = f.values.ravel()
    out = np.array(v)
    for i in range(x.size):
        if il <= i <= iu:
            continue
        best = -np.inf
        for a in range(il, iu + 1):
            for b in range(il, iu + 1):
                if a == b:
                    continue
                # x_i = lam * x_a + (1 - lam) * x_b with lam >= 1
                lam = (x[i] - x[b]) / (x[a] - x[b])
                if lam >= 1.0:
                    best = max(best, lam * v[a] + (1 - lam) * v[b])
        out[i] = best
    return ExtGridFn(f.domain, out)


def mixed_coeff_oracle(values_fn, n, degree_per_axis, h=1.0):
    """Extract the lambda_1*...*lambda_n coefficient of a polynomial by
    sampling on a (degree_per_axis+1)^n stencil and inverting per-axis
    Vandermonde systems; exact for per-axis degree <= degree_per_axis."""
    m = degree_per_axis + 1
    ts = h * np.arange(m, dtype=float)
    grid = np.meshgrid(*([ts] * n), indexing="ij")
    flat = np.stack([g.ravel() for g in grid], axis=-1)
    data = np.array([values_fn(lam) for lam in flat]).reshape((m,) * n)
    Vinv = np.linalg.inv(np.vander(ts, N=m, increasing=True))
    row = Vinv[1]  # picks the linear coefficient
    for _ in range(n):
        data = np.tensordot(row, data, axes=(0, 0))
    return float(data)


def permutation_mixed_determinant(*mats):
    """Mixed discriminant as the sum over all (n!)^2 permutation pairs:
    (1/n!) sum over s, t of sign(s) sign(t) prod_i (A_i)[s(i), t(i)],
    stacked over leading axes."""
    from itertools import permutations
    from math import factorial
    n = len(mats)

    def sign(p):
        return -1.0 if sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 else 1.0

    total = 0.0
    for s in permutations(range(n)):
        for t in permutations(range(n)):
            term = sign(s) * sign(t)
            for i in range(n):
                term = term * mats[i][..., s[i], t[i]]
            total = total + term
    return total / factorial(n)


def inclusion_exclusion_mixed_determinant(*mats):
    """Mixed discriminant by polarizing det over subset sums:
    (1/n!) sum over nonempty S of (-1)^(n-|S|) det(sum_{i in S} A_i)."""
    from itertools import combinations
    from math import factorial
    n = len(mats)
    total = 0.0
    for size in range(1, n + 1):
        for S in combinations(range(n), size):
            total += (-1.0) ** (n - size) * np.linalg.det(sum(mats[i] for i in S))
    return total / factorial(n)


def brute_lsc_extend(f, marked):
    """lsc extension cell by cell: a marked cell keeps f, an unmarked cell
    takes the min of f over its marked face neighbours, else +inf."""
    out = np.full(f.domain.shape, np.inf)
    for idx in np.ndindex(*f.domain.shape):
        if marked[idx]:
            out[idx] = f.values[idx]
            continue
        for a in range(len(idx)):
            for step in (-1, 1):
                nb = list(idx)
                nb[a] += step
                if 0 <= nb[a] < f.domain.shape[a] and marked[tuple(nb)]:
                    out[idx] = min(out[idx], f.values[tuple(nb)])
    return ExtGridFn(f.domain, out)


def random_connected_mask(shape, rng, cells):
    """Up to `cells` face-connected cells grown from a random seed cell."""
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(rng.integers(0, s) for s in shape)] = True
    for _ in range(cells - 1):
        idx = list(map(int, rng.choice(np.argwhere(mask))))
        a = int(rng.integers(len(shape)))
        idx[a] = min(max(idx[a] + int(rng.choice([-1, 1])), 0), shape[a] - 1)
        mask[tuple(idx)] = True
    return mask


def subset_polarization(spec, k, fs):
    """Polarization as an explicit loop over nonempty subsets S:
    (1/k!) sum of (-1)^(k-|S|) mu(sum_{i in S} f_i), one evaluate per S."""
    from itertools import combinations
    from math import factorial
    from epival import evaluate
    total = 0.0
    for size in range(1, k + 1):
        for S in combinations(range(k), size):
            acc = fs[S[0]].values
            for i in S[1:]:
                acc = acc + fs[i].values
            total += (-1.0) ** (k - size) * evaluate(spec, ExtGridFn(fs[0].domain, acc))
    return total / factorial(k)


def reference_grid_json(f):
    """The text of a grid file, encoded one value at a time: the string
    "inf" for +inf, the float otherwise."""
    import json
    domain = {"lo": [float(v) for v in f.domain.lo],
              "hi": [float(v) for v in f.domain.hi],
              "shape": [int(s) for s in f.domain.shape]}
    values = ["inf" if np.isposinf(v) else float(v) for v in f.values.ravel()]
    return json.dumps({"domain": domain, "values": values}, sort_keys=True)


def peak_floats(call):
    """Peak of the memory `call()` allocates, in floats."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()


def direct_separable_max(vals, axes, dual_axes, block=1 << 21):
    """The separable maximum of convex._separable_max as a direct maximum
    over every (cell, dual point) pair of each axis pass, blocked so that
    no temporary exceeds about `block` floats: the same per-term arithmetic
    fl(fl(y x) + p), so equal results are equal bits."""
    for a, (xa, ya) in enumerate(zip(axes, dual_axes)):
        lines = np.moveaxis(vals, a, -1)
        flat = lines.reshape(-1, xa.size)
        step = max(1, block // (2 * xa.size))  # dual points per block
        cols = []
        for k in range(0, ya.size, step):
            pair = np.multiply.outer(ya[k:k + step], xa)
            rows = max(1, block // (2 * pair.size))
            cols.append(np.concatenate([(flat[i:i + rows, None, :] + pair).max(axis=2)
                                        for i in range(0, flat.shape[0], rows)]))
        out = np.concatenate(cols, axis=1)
        vals = np.moveaxis(out.reshape(lines.shape[:-1] + (ya.size,)), -1, a)
    return vals
