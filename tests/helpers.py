"""Shared builders and independent oracles for the test suite."""

import numpy as np

from epival import ExtGridFn, GridDomain


def grid1d(lo=-2.0, hi=2.0, n=65):
    return GridDomain([lo], [hi], [n])


def grid2d(lo=-2.0, hi=2.0, n=33):
    return GridDomain([lo, lo], [hi, hi], [n, n])


def sample(domain, fn):
    pts = domain.points()
    return ExtGridFn(domain, np.asarray(fn(pts)).reshape(domain.shape))


def quadratic(domain, A=None, b=None, c=0.0):
    n = domain.ndim
    A = np.eye(n) if A is None else np.asarray(A, dtype=float)
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    return sample(domain, lambda p: 0.5 * np.einsum("ki,ij,kj->k", p, A, p)
                  + p @ b + c)


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
