"""Polarization, Goodey-Weil evaluation, support scanning and the seminorm
lower-bound estimator.

The Goodey-Weil pairing extracts the mixed first-order coefficient of
mu(f + sum_i delta_i phi_i) through an exact corner difference (2^k corners
for distinct tests, k + 1 for identical ones); for a k-homogeneous valuation
the polynomial has total degree at most k, so the extraction is independent
of the base and of the step size, which the implementation verifies by
re-running at half the step. So both are fixed: the base is |x|^2 and the
step comes from the tests' curvature, which keeps every corner convex
(_auto_step), and no run checks a corner.

A support scan probes each cell c with the k-fold bump phi(x - c). Since
|x - c|^2 - |x|^2 is affine, dual epi-translation invariance makes every
probe the same test, translated: the scan samples one template, the bump
at the origin on a box of cell offsets, takes one step from its curvature,
and gets every probe's corner values at once, as correlations of each term
of the valuation with kernels read off the template's corners.
"""

import random
from itertools import product
from math import comb, factorial, prod

import numpy as np

from .convex import (_by_rows, _curvature, _require_finite, _test_function,
                     central_hessian_at, extend_from_subdomain, is_discretely_convex)
from .errors import ConvexityViolation, DomainExceeded, StepAgreementError
from .grids import (_MAX_CORNER_VALUES, ExtGridFn, GridDomain, ScanMask, _bounding_window,
                    _bump_values, _dilate, _Immutable, _interpolation_corners, _product_points)
from .sampling import random_convex_fn
from .valuations import (Constant, HessianDensity, PairingMeasure, _evaluate_stack, _leaves,
                         _read_mask, evaluate, grid_domain, mixed_determinant)

# Floats in one block of seminorm extensions, each cropped to the read
# cells' box: 2^14, 128 KB. On 81^2, where a 5-node pairing reads a 31 x 34
# box, 256 samples peak at 0.47 MB of traced memory and take 208 ms, against
# 0.38 MB and 234 ms at 2^12 (3 samples a block) and 1.13 MB and 204 ms at
# 2^16; the whole stack of the 81^2 extensions took 14.8 MB.
_SAMPLES = 1 << 14

REL_STEP_TOL = 1e-7
_EPS = np.finfo(float).eps
# The largest order k of a pairing, polarization or scan. It is refused
# before any corner is built: k + 1 to 2^k corners of the grid or of the
# scan's template, and binomial weights that overflow from k near 1030 on.
_MAX_ORDER = 16


def _check_order(k):
    if k > _MAX_ORDER:
        raise ValueError(f"k must be at most {_MAX_ORDER}")


def _check_work(rows, cells, probes=1):
    """Refuse `rows` corner rows of `cells` cells for each of `probes`
    probes over the work budget, before any corner is built. polarize, gw
    and a callable's scan then hold one convex._BLOCK of corners at a time,
    or one corner (two rows in gw, one probe in a scan) where that takes
    more."""
    if rows * cells * probes > _MAX_CORNER_VALUES:
        raise ValueError(f"{rows} corner rows of {cells} cells for {probes} probe(s) exceed "
                         f"the work budget of {_MAX_CORNER_VALUES} values")


def _scan_floats(k, box, cells, ndim):
    """Floats a support scan holds at its peak, at most, for order k, a
    template of `box` cells and a grid of `cells` in n = ndim dimensions.
    For each of its 2k corner rows (k corners at steps h and h/2): per box
    cell, the template's corners, five stencil reads of them and 4 n^2
    entries of Hessians and kernels (_probe_changes); per grid cell, three
    copies of the corner values (their sum, a term's correlation and its
    scaled copy). Besides, per grid cell, 2 n^2 floats of a term's data
    grids and 12 of the base |x|^2 and its checks."""
    return 2 * k * ((6 + 4 * ndim**2) * box + 3 * cells) + (2 * ndim**2 + 12) * cells


class GWQuery(_Immutable):
    """Order (1 to _MAX_ORDER) and test functions (Bump or grid) of a
    Goodey-Weil pairing.

    It is evaluated at the base |x|^2 on the resolved domain and the step
    min(0.1, 1/(k * max curvature of the tests' samples)), at which every
    corner is convex (see convex._curvature).
    """

    def __init__(self, order, tests):
        order = int(order)
        _check_order(order)
        tests = tuple(tests)
        if order < 1 or len(tests) != order:
            raise ValueError("need exactly `order` test functions, order >= 1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "tests", tests)


def polarize(spec, k: int, fs) -> float:
    """Symmetric multilinearization by inclusion-exclusion over subset sums:
    (1/k!) sum over nonempty S of (-1)^(k-|S|) mu(sum_{i in S} f_i).

    The subset sums are the Goodey-Weil corners at base 0 and step 1, so k
    equal inputs take k + 1 evaluations. Requires mu to be k-homogeneous
    (verified on the first argument).
    """
    _check_order(k)
    fs = list(fs)
    if len(fs) != k or k < 1:
        raise ValueError("need exactly k functions")
    g = fs[0]
    if not all(f.domain.same_as(g.domain) for f in fs):
        raise ValueError("functions must share a domain")
    distinct, mults = _multiset([f.values for f in fs])
    _check_work(prod(m + 1 for m in mults) + 1, g.values.size)  # two homogeneity rows
    dom, plan, phis = g.domain, _corner_plan(mults), np.stack(distinct)
    # each row reduces on its own, so blocks of corners give the same bits
    vals = _by_rows(len(plan) - 1, _row_floats(dom.shape, dom.ndim), lambda i, j: _evaluate_stack(
        spec, dom, _corners(0.0, phis, plan[1:][i:j], np.ones(1))[0]))
    a, b = map(float, _evaluate_stack(spec, dom, np.stack([g.values * 2.0, g.values])))
    if abs(a - 2.0**k * b) > 1e-8 * (1.0 + abs(a) + 2.0**k * abs(b)):
        raise ValueError("valuation fails the k-homogeneity residual check")
    return float(_difference(plan, 0.0, vals[None], 1.0, k)[0])


def _base(spec, domain: GridDomain):
    """Values and mu-value of |x|^2 on `domain`, the base of every mixed
    difference. _auto_step's certificate rests on its samples being convex:
    one check of the base, not of the corners, confirms it."""
    base = ExtGridFn._of(domain, np.sum(domain.points()**2, axis=1).reshape(domain.shape))
    if not is_discretely_convex(base):
        raise ConvexityViolation("base function is not convex")
    return base.values, evaluate(spec, base)


def _auto_step(k, curvature):
    """The step at which k tests of at most this curvature keep every corner
    on |x|^2 convex; refused where k * curvature overflows, which makes it 0."""
    h = min(0.1, 1.0 / (k * max(curvature, 1e-12)))
    if not h > 0:
        raise ValueError("step must be positive")
    return h


def _multiset(tests):
    """Distinct test arrays, in order of first appearance, and their
    multiplicities."""
    groups = {}
    for t in tests:
        groups.setdefault(t.tobytes(), [t, 0])[1] += 1
    return [t for t, _ in groups.values()], tuple(m for _, m in groups.values())


def _corner_plan(mults):
    """(coefficient, counts) of every corner base + h sum_g counts[g] phi_g of
    the mixed difference of tests with multiplicities mults: binomial
    weights for repeated tests, subset signs for distinct ones. The base
    comes first, then the corners by total degree, distinct tests in the
    order of itertools.combinations."""
    plan = []
    for js in sorted(product(*(range(m + 1) for m in mults)),
                     key=lambda js: (sum(js), [-j for j in js])):
        coef = 1.0
        for m, j in zip(mults, js):
            coef *= comb(m, j) * (-1.0) ** (m - j)
        plan.append((coef, js))
    return plan


def _corners(base_vals, phis, corners, steps):
    """(S, C, *W) stack of the C corners, (coefficient, counts) entries of a
    _corner_plan, at each of the S steps, where base_vals is (*W) or a
    number and phis is (G, *W), the distinct tests."""
    steps = steps.reshape((-1,) + (1,) * (phis.ndim - 1))
    out = np.empty((len(steps), len(corners)) + phis.shape[1:])
    for c, (_, js) in enumerate(corners):
        vals = base_vals
        for g, j in enumerate(js):
            if j:
                vals = vals + (j * steps) * phis[g]
        out[:, c] = vals
    return out


def _noise_floor(corner_max, k, h):
    return 64.0 * _EPS * corner_max * 2.0**k / (factorial(k) * h**k)


def _difference(plan, base_value, vals, h, k):
    """(1/(k! h^k)) sum over corners of coef * mu(corner) for each row of
    the (P, C) non-base corner values, with mu(base) = base_value."""
    total = np.full(vals.shape[0], plan[0][0] * base_value)
    for c, (coef, _) in enumerate(plan[1:]):
        total = total + coef * vals[:, c]
    return total / (factorial(k) * h**k)


def _row_floats(window, ndim):
    """Floats one corner row on `window` takes while it is evaluated: about
    three copies of the row alive at once, and up to one n x n Hessian per
    inner window cell, with as much again for the stencils and the mixed
    determinant."""
    return 3 * prod(window) + 2 * ndim**2 * prod(w - 2 for w in window)


def _gw_core(mults, base_value, vals, h):
    """Mixed differences of P probes at the step h and at h/2, with the
    agreement check: vals (P, 2, C) holds mu at each probe's non-base
    corners (the rows of _corner_plan(mults)[1:]) at both steps, and
    mu(base) = base_value. gw_report evaluates its one probe's corners,
    a scan correlates every probe's.

    The noise floor scales with the largest |mu| over a probe's corners,
    the base included, whose rounding the mixed difference amplifies by
    2^k / (k! h^k).

    Returns a (4, P) array of the value at h, the value at h/2, the largest
    |mu| over the corners at h, and the noise floor.
    """
    k = sum(mults)
    plan = _corner_plan(mults)
    v1 = _difference(plan, base_value, vals[:, 0], h, k)
    v2 = _difference(plan, base_value, vals[:, 1], h / 2.0, k)
    m1, m2 = (np.maximum(abs(base_value), np.max(np.abs(vals[:, s]), axis=1)) for s in (0, 1))
    floor = _noise_floor(m1, k, h) + _noise_floor(m2, k, h / 2.0)
    bad = np.abs(v1 - v2) > REL_STEP_TOL * np.maximum(np.abs(v1), np.abs(v2)) + floor
    if np.any(bad):
        i = int(np.argmax(bad))
        raise StepAgreementError(
            f"values at h and h/2 disagree: {float(v1[i])!r} vs {float(v2[i])!r}")
    return np.stack([v1, v2, m1, floor])


def gw_report(spec, query: GWQuery, domain: GridDomain | None = None) -> dict:
    """Goodey-Weil pairing value with the half-step verification data."""
    dom = grid_domain(spec, domain)
    k = query.order
    _check_work(k, dom.size)  # the tests' samples, before any is taken
    stack, curvatures = zip(*(_test_function(phi, dom) for phi in query.tests))
    h = _auto_step(k, max(curvatures))
    distinct, mults = _multiset(stack)
    _check_work(2 * (prod(m + 1 for m in mults) - 1), dom.size)  # at steps h and h/2
    base_vals, base_value = _base(spec, dom)
    plan, phis, steps = _corner_plan(mults), np.stack(distinct), np.array([h, h / 2.0])

    def corner_values(i, j):  # (j - i, 2): mu at the corners i:j of plan[1:]
        rows = _corners(base_vals, phis, plan[1:][i:j], steps).reshape((-1,) + dom.shape)
        return _evaluate_stack(spec, dom, rows).reshape(2, -1).T

    vals = _by_rows(len(plan) - 1, 2 * _row_floats(dom.shape, dom.ndim), corner_values)
    v1, v2, corner_max, floor = (float(v) for v in _gw_core(mults, base_value, vals.T[None],
                                                            h)[:, 0])
    # fixed points of the verification: agreement <= REL_STEP_TOL is exactly
    # the check the evaluation itself passed, noise floor included. It is 0
    # when mu is 0 at every corner, where the denominator is 0 too
    denom = max(abs(v1), abs(v2)) + floor / REL_STEP_TOL
    return {
        "value": v1,
        "value_half_step": v2,
        "step": h,
        "agreement": abs(v1 - v2) / denom if denom else 0.0,
        "corner_max": corner_max,
        "test_sup_norms": [float(np.max(np.abs(s))) for s in stack],
    }


def gw_eval(spec, query: GWQuery, domain: GridDomain | None = None) -> float:
    return gw_report(spec, query, domain)["value"]


def _diagonality(spec, query: GWQuery, domain: GridDomain | None = None) -> dict:
    """gw_report with "residual" = |value|, for tests whose supports, the
    cells where their samples do not vanish, are at least two empty cells
    apart: a Hessian stencil reads its 3^n box, so no cell then sees two
    tests."""
    dom = grid_domain(spec, domain)
    _check_work(query.order, dom.size)
    grown = [_dilate(_test_function(phi, dom)[0] != 0.0) for phi in query.tests]
    for i in range(len(grown)):
        for j in range(i + 1, len(grown)):
            if np.any(grown[i] & grown[j]):
                raise ValueError(
                    "test supports must be separated by at least two empty cells")
    report = gw_report(spec, query, dom)
    return dict(report, residual=abs(report["value"]))


def diagonality_residual(spec, k: int, bumps, domain: GridDomain | None = None) -> float:
    """|gw_eval| for test functions whose supports (the cells where their
    samples do not vanish) are at least two empty cells apart."""
    return _diagonality(spec, GWQuery(k, bumps), domain)["residual"]


def support_scan(spec, k: int, probe_radius: float, tol: float = 1e-6,
                 domain: GridDomain | None = None, return_responses: bool = False):
    """Probe response |s(c)| of a k-fold bump at every grid cell; cells above
    tol * max response and above their own noise floor (see _gw_core) are
    marked. Degree 0 reports the empty support; k above _MAX_ORDER is
    refused.

    The probe at c is Bump(c, probe_radius) on |x|^2. Its samples are those
    of one template T, the bump at the origin sampled at the cell offsets of
    (2W - 1)^n cells, W = 2 floor(r / spacing) + 5 cells of a window on each
    axis (the whole axis where that box does not fit; the whole grid for a
    spec with a callable), shifted by c. So the second differences of every
    probe, clipped by the grid's edge or not, are some of T's, and the one
    step _auto_step gives for T's curvature keeps every probe's corners
    convex. Each term of the valuation gives its change from mu(|x|^2) at
    every probe's corners at once (_probe_changes).
    """
    dom = grid_domain(spec, domain)
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_order(k)
    _require_finite(probe_radius=probe_radius, tol=tol)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if k == 0:
        mask = ScanMask(dom, np.zeros(dom.shape, dtype=bool))
        return (mask, np.zeros(dom.shape)) if return_responses else mask
    if probe_radius <= 0:
        raise ValueError("probe_radius must be positive")
    leaves = _leaves(spec)
    shape = np.array(dom.shape)
    half = shape
    called = any(callable(s) for _, s in leaves)
    if called:  # each probe's whole-grid rows, at steps h and h/2
        _check_work(2 * k, dom.size, dom.size)
    else:  # a bump vanishes beyond floor(r / spacing) cells
        half = np.minimum(np.floor(probe_radius / dom.spacing) + 2, shape).astype(int)
    window = [int(w) for w in np.minimum(2 * half + 1, shape)]
    floats = _scan_floats(k, prod(2 * w - 1 for w in window), dom.size, dom.ndim)
    if floats > _MAX_CORNER_VALUES:
        raise ValueError(f"a scan of order {k} holding {floats} floats exceeds the work budget "
                         f"of {_MAX_CORNER_VALUES} values")
    base_vals, base_value = _base(spec, dom)
    offsets = _product_points([np.arange(1 - w, w) * dx for w, dx in zip(window, dom.spacing)])
    template = _bump_values(offsets, np.zeros((1, dom.ndim)), probe_radius).reshape(
        [2 * w - 1 for w in window])
    h = _auto_step(k, _curvature(template, dom.spacing))
    # j s T at both steps s: the corners of the probe at the origin, less the base
    corners = _corners(0.0, template[None], _corner_plan((k,))[1:], np.array([h, h / 2.0]))
    vals = np.full(corners.shape[:2] + dom.shape, base_value)
    for coef, s in leaves:
        vals += coef * _probe_changes(s, dom, corners, base_vals)
    responses, floors = _gw_core((k,), base_value, np.moveaxis(
        vals.reshape(vals.shape[:2] + (-1,)), -1, 0), h)[[0, 3]].reshape((2,) + dom.shape)
    size = np.abs(responses)
    mask = ScanMask(dom, size > np.maximum(tol * np.max(size), floors))
    return (mask, responses) if return_responses else mask


def _probe_changes(s, dom: GridDomain, corners, base_vals):
    """mu(base + corner at c) - mu(base) of a term mu that is no composite,
    (S, C, *grid) at every probe c, where corners (S, C, *B) are the probe
    at the origin's corners less the base on the box B of cell offsets, odd
    on every axis and centred on offset 0, and base_vals the base's values.

    A term is a sum over cells, so each change is a correlation (_correlate)
    of a grid of the term's data with a kernel of the corners:
    - a pairing's weights at the cells its nodes interpolate, with the
      corners;
    - for a Hessian density of order 1, linear in the Hessian, the weight
      times D(E_ab, aux...) with entry ab of the corners' Hessians;
    - for a higher order, which leaves at most one aux slot (n <= 3), the
      weight with D((2I + H)^[order], aux) - D((2I)^[order], aux) of the
      corners' Hessians H, 2I being the Hessian of |x|^2; a per-cell aux is
      expanded over its n^2 entries, D being linear in it.
    A callable takes the probes' whole-grid corner rows, which need a box
    of twice the grid, a block of probes at a time.
    """
    n, box = dom.ndim, corners.shape[2:]
    mid = np.array(box) // 2
    support = np.any(corners != 0.0, axis=(0, 1))
    if isinstance(s, Constant):
        return 0.0
    if isinstance(s, PairingMeasure):
        idx, w = _interpolation_corners(dom, s.nodes)
        grid = np.bincount(idx.ravel(), (w * s.weights[:, None]).ravel(), dom.size)
        at = np.nonzero(support)
        return _correlate(grid.reshape((1,) + dom.shape), np.stack(at, axis=1) - mid,
                          corners[(slice(None), slice(None)) + at][:, :, None])
    if isinstance(s, HessianDensity):
        # offsets whose stencil meets the template's support, inside the box
        inner = tuple(slice(1, b - 1) for b in box)
        idx = np.stack(np.nonzero(_dilate(support)[inner]), axis=1) + 1
        H = central_hessian_at(corners, dom.spacing, idx)  # (S, C, M, n, n)
        units = np.eye(n * n).reshape(n * n, n, n)
        if s.order == 1:
            grids = [s.weight.values * mixed_determinant(e, *s.aux) for e in units]
            kernels = H.reshape(H.shape[:3] + (n * n,))
        else:
            aux = s.aux[0] if s.aux else None
            if aux is not None and aux.ndim > 2:  # per cell: D is linear in it
                grids = [s.weight.values * aux[..., a, b] for a, b in np.ndindex(n, n)]
                slots = [[e] for e in units]
            else:
                grids, slots = [s.weight.values], [list(s.aux)]
            two = 2.0 * np.eye(n)
            X = two + H
            kernels = np.stack([mixed_determinant(*[X] * s.order, *m)
                                - mixed_determinant(*[two] * s.order, *m) for m in slots], axis=-1)
        return np.prod(dom.spacing) * _correlate(np.stack(grids), idx - mid,
                                                 np.moveaxis(kernels, -1, 2))
    # a callable: the probe at c is the box's corners cut to the grid shifted by c
    cells = np.indices(dom.shape).reshape(n, -1).T

    def block(i, j):  # (j - i, S C): mu at the corners of the probes i:j
        rows = np.stack([corners[(slice(None), slice(None)) + tuple(
            slice(m - c, m - c + g) for m, c, g in zip(mid, cell, dom.shape))]
            for cell in cells[i:j]]) + base_vals
        return _evaluate_stack(s, dom, rows.reshape((-1,) + dom.shape)).reshape(len(rows), -1)

    vals = _by_rows(dom.size, corners.shape[0] * corners.shape[1] * dom.size, block)
    mu_base = _evaluate_stack(s, dom, base_vals[None])[0]
    return (vals - mu_base).T.reshape(corners.shape[:2] + dom.shape)


def _correlate(grids, offsets, kernels):
    """sum over q and m of kernels[..., q, m] * grids[q][c + offsets[m]] at
    every cell c, reading 0 beyond the grid: (..., *grid) from grids
    (Q, *grid), integer offsets (M, n), each within the grid's shape, and
    kernels (..., Q, M). Slice sums, one per offset."""
    lead, shape = kernels.shape[:-2], grids.shape[1:]
    kernels = kernels.reshape((-1,) + kernels.shape[-2:])
    out = np.zeros((len(kernels),) + shape)
    for m, o in enumerate(offsets):
        dst = tuple(slice(max(0, -a), g - max(0, a)) for a, g in zip(o, shape))
        src = tuple(slice(max(0, a), g + min(0, a)) for a, g in zip(o, shape))
        out[(slice(None),) + dst] += np.tensordot(kernels[:, :, m],
                                                  grids[(slice(None),) + src], 1)
    return out.reshape(lead + shape)


def seminorm_estimate(spec, A_lo, A_hi, s: float, n_samples: int, seed: int,
                      domain: GridDomain | None = None) -> float:
    """Lower bound for sup{|mu(f)| : sup norm of f at most 1 on the grown box}.

    Sample 0 is the canonical cone scaled to span [-1, 1] on the norm box;
    further samples are random convex functions normalized there. Each
    sample's canonical extension (extend_from_subdomain, with all its checks)
    is computed at the cells mu reads, so the estimate only ever sees
    canonical extensions of box data; when those cells lie in the source box
    no hull is built. Deterministic in `seed`, a nonnegative integer that
    seeds a stdlib random.Random (random_convex_fn); the sample stream makes
    the estimate monotone in n_samples.

    The extensions are evaluated in blocks of about _SAMPLES floats, each
    cropped to the bounding box of the read cells: mu's window form there is
    mu itself (every term's stencil lies inside it), so the working set does
    not grow with n_samples.
    """
    dom = grid_domain(spec, domain)
    A_lo = np.atleast_1d(np.asarray(A_lo, dtype=float))
    A_hi = np.atleast_1d(np.asarray(A_hi, dtype=float))
    _require_finite(A_lo=A_lo, A_hi=A_hi, s=s)
    if s <= 0 or n_samples < 1:
        raise ValueError("need s > 0 and at least one sample")
    if seed < 0:  # random.Random would take abs(seed)
        raise ValueError("seed must be nonnegative")
    pad = 1e-9 * np.maximum(1.0, np.abs(dom.hi - dom.lo))
    if np.any(A_lo - 2 * s < dom.lo - pad) or np.any(A_hi + 2 * s > dom.hi + pad):
        raise DomainExceeded("norm box exceeds the grid domain")
    pts = dom.points()
    norm_box = np.all((pts >= A_lo - 2 * s - pad) & (pts <= A_hi + 2 * s + pad),
                      axis=1).reshape(dom.shape)
    del pts
    if np.count_nonzero(norm_box) < 2:
        raise ValueError("the norm box holds fewer than two grid cells")
    reads = _read_mask(spec, dom)
    crop = _bounding_window(reads)
    window = tuple(c.stop - c.start for c in crop)
    rng = random.Random(seed)

    def samples():
        dist = dom.point_norms((A_lo + A_hi) / 2.0)
        yield ExtGridFn._of(dom, (2.0 / float(np.max(dist[norm_box]))) * dist - 1.0)
        del dist
        while True:
            yield random_convex_fn(dom, rng)

    stream = samples()
    rows = max(1, _SAMPLES // prod(window))
    best = 0.0
    for start in range(0, n_samples, rows):
        exts = np.empty((min(rows, n_samples - start),) + window)
        for ext, f in zip(exts, stream):
            m = float(np.max(np.abs(f.values[norm_box])))
            if m > 0:
                f = ExtGridFn._of(dom, f.values / m)
            ext[...] = extend_from_subdomain(f, A_lo, A_hi, s, reads).values[crop]
        best = max(best, float(np.max(np.abs(_evaluate_stack(spec, dom, exts, crop)))))
    return best
