"""Polarization, Goodey-Weil evaluation, support scanning and the seminorm
lower-bound estimator.

The Goodey-Weil pairing extracts the mixed first-order coefficient of
mu(f + sum_i delta_i phi_i) through an exact corner difference (2^k corners
for distinct tests, k + 1 for identical ones); for a k-homogeneous valuation
the polynomial has total degree at most k, so the extraction is independent
of the base and of the step size, which the implementation verifies by
re-running at half the step. So both are fixed: the base is |x|^2 and the
step comes from the tests' curvature, which keeps every corner convex
(_auto_step), and no run checks a corner. Many probes are evaluated at
once: their corners form one stack.

A corner differs from the base only where its tests do not vanish, so a
support scan evaluates each probe on a window of O(probe support) cells, in
the valuation's window form, whose terms beyond the window cancel in the
mixed difference, at the step of its own curvature. gw_report is the same
computation with the whole grid as its one window, on which the window form
is the valuation itself.
"""

import random
from dataclasses import dataclass
from itertools import product
from math import comb, factorial, inf, prod

import numpy as np

from .convex import (_by_rows, _curvature, _require_finite, _test_function,
                     extend_from_subdomain, is_discretely_convex)
from .errors import ConvexityViolation, DomainExceeded, StepAgreementError
from .grids import (ExtGridFn, GridDomain, ScanMask, _bounding_window, _bump_values, _dilate,
                    _window_cells)
from .sampling import random_convex_fn
from .valuations import (PairingMeasure, _evaluate_stack, _evaluate_windows, _local,
                         _read_mask, evaluate, grid_domain)

# Floats in one block of seminorm extensions, each cropped to the read
# cells' box: 2^14, 128 KB. On 81^2, where a 5-node pairing reads a 31 x 34
# box, 256 samples peak at 0.47 MB of traced memory and take 208 ms, against
# 0.38 MB and 234 ms at 2^12 (3 samples a block) and 1.13 MB and 204 ms at
# 2^16; the whole stack of the 81^2 extensions took 14.8 MB.
_SAMPLES = 1 << 14

REL_STEP_TOL = 1e-7
_EPS = np.finfo(float).eps
# The largest order k of a pairing, polarization or scan. It is refused
# before any corner is built: k + 1 to 2^k corners of the grid or of each
# probe's window, and binomial weights that overflow from k near 1030 on.
_MAX_ORDER = 16


# The most corner values one pairing, polarization or scan may take: corner
# rows x window cells x probes. It is checked before any corner is built,
# and gw checks k rows, its tests' samples, before it takes them. polarize,
# gw and a scan hold one convex._BLOCK of corners at a time, or one corner
# (two rows in gw) or _SCAN_PROBES probes where those take more, and the
# run time grows with the count (a 17^3 k = 3 Hessian scan at radius 0.3
# takes 10.1M values, in about 0.6 s).
_MAX_CORNER_VALUES = 1 << 27
# The fewest probes in one block of a support scan. A block costs about
# 0.8 ms of fixed Python overhead in 3D (curvatures, stencil gathers, window
# cells), whatever its size, so a 17^3 k = 3 Hessian scan at radius 0.3,
# whose probes take about 19.7k floats each, would run 819 blocks of 6 probes
# at convex._BLOCK and take twice as long. 24 probes (205 blocks) keeps that
# scan faster than with 4 MB blocks and traces 1.68 MB against 1.81 MB.
# Smaller windows, such as the benchmark's 33^2 scans, fit more probes in a
# block, and the floor does not bind.
_SCAN_PROBES = 24


def _check_order(k):
    if k > _MAX_ORDER:
        raise ValueError(f"k must be at most {_MAX_ORDER}")


def _check_work(rows, cells, probes=1):
    """Refuse `rows` corner rows of `cells` cells for each of `probes`
    probes when they exceed _MAX_CORNER_VALUES."""
    if rows * cells * probes > _MAX_CORNER_VALUES:
        raise ValueError(f"{rows} corner rows of {cells} cells for {probes} probe(s) exceed "
                         f"the work budget of {_MAX_CORNER_VALUES} values")


@dataclass(frozen=True, eq=False)
class GWQuery:
    """Order (1 to _MAX_ORDER) and test functions (Bump or grid) of a
    Goodey-Weil pairing.

    It is evaluated at the base |x|^2 on the resolved domain and the step
    min(0.1, 1/(k * max curvature of the tests' samples)), at which every
    corner is convex (see convex._curvature).
    """

    order: int
    tests: tuple

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
    dom, plan = g.domain, _corner_plan(mults)
    base, phis, step = np.zeros((1,) + dom.shape), np.stack(distinct)[None], np.ones((1, 1))
    # each row reduces on its own, so blocks of corners give the same bits
    vals = _by_rows(len(plan) - 1, _row_floats(dom.shape, dom.ndim), lambda i, j: _evaluate_stack(
        spec, dom, _corners(base, phis, plan[1:][i:j], step)[0, 0]))
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
    """The step at which k tests of at most this curvature (a number or an
    array) keep every corner on |x|^2 convex; 0 where k * curvature
    overflows."""
    with np.errstate(over="ignore"):
        return np.minimum(0.1, 1.0 / (k * np.maximum(curvature, 1e-12)))


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
    """(P, S, C, *W) stack of the C corners, (coefficient, counts) entries of
    a _corner_plan, of P probes, each at its S steps, where base_vals is
    (P, *W) or, shared, (1, *W), phis is (P, G, *W) and steps is (P, S)."""
    steps = steps.reshape(steps.shape + (1,) * (phis.ndim - 2))
    out = np.empty(steps.shape[:2] + (len(corners),) + phis.shape[2:])
    for c, (_, js) in enumerate(corners):
        vals = base_vals[:, None]
        for g, j in enumerate(js):
            if j:
                vals = vals + (j * steps) * phis[:, None, g]
        out[:, :, c] = vals
    return out


def _noise_floor(corner_max, k, h):
    return 64.0 * _EPS * corner_max * 2.0**k / (factorial(k) * h**k)


def _difference(plan, base_value, vals, h, k):
    """(1/(k! h^k)) sum over corners of coef * mu(corner) for each row of
    the (P, C) non-base corner values, with mu(base) = base_value (a number
    or (P,))."""
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


def _gw_core(spec, dom, base_vals, base_value, phis, mults, h, cells, width=None):
    """Mixed differences of P probes at their steps h (P,) and at h/2, with
    the agreement check; mu(base) = base_value, and phis is (P, G, *W), the G
    distinct tests of each probe with multiplicities mults on its window,
    whose flat grid indices are cells (P, *W). Tests vanish on the two outer
    layers of a window's cells, except where it meets the grid's edge, and
    the caller makes sure that every corner is convex.

    The corners are built and evaluated all at once or, given the floats
    `width` that one corner of the P probes takes at both steps, in blocks
    of convex._BLOCK floats (_by_rows). Each corner row is reduced on its
    own, so the values do not depend on the blocks.

    Corners differ from the base only inside the window, so a probe is
    evaluated there. Its mixed difference is the one of the window form mu_W,
    where the terms beyond the window cancel. The noise floor scales with mu
    itself, mu_W + mu(base) - mu_W(base) at a corner. On a window that is the
    whole grid mu_W is mu.

    Returns a (4, P) array of the value at h, the value at h/2, the largest
    |mu| over the corners at h, and the noise floor.
    """
    k = sum(mults)
    plan = _corner_plan(mults)
    P, window = len(h), cells.shape[1:]
    base_win = base_vals.ravel()[cells]
    mu_w = _evaluate_windows(spec, dom, base_win[:, None], cells)[:, 0]
    # mu = mu_W + offset at every corner: the noise floor scales with mu,
    # whose rounding in the stencils the window terms alone understate
    offset = base_value - mu_w
    steps = np.stack([h, h / 2.0], axis=1)

    def corner_values(i, j):  # (C, P, 2): mu_W at the C corners i:j of plan[1:]
        stack = _corners(base_win, phis, plan[1:][i:j], steps)
        vals = _evaluate_windows(spec, dom, stack.reshape((P, -1) + window), cells)
        return np.moveaxis(vals.reshape(stack.shape[:3]), 2, 0)

    corners = len(plan) - 1
    vals = np.moveaxis(corner_values(0, corners) if width is None
                       else _by_rows(corners, width, corner_values), 0, 2)
    v1 = _difference(plan, mu_w, vals[:, 0], h, k)
    v2 = _difference(plan, mu_w, vals[:, 1], h / 2.0, k)
    m1, m2 = (np.maximum(abs(base_value), np.max(np.abs(v + offset[:, None]), axis=1))
              for v in (vals[:, 0], vals[:, 1]))
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
    h = float(_auto_step(k, max(curvatures)))
    if not h > 0:  # k * curvature overflowed
        raise ValueError("step must be positive")
    distinct, mults = _multiset(stack)
    _check_work(2 * (prod(m + 1 for m in mults) - 1), dom.size)  # at steps h and h/2
    base_vals, base_value = _base(spec, dom)
    whole = np.arange(dom.size).reshape((1,) + dom.shape)
    v1, v2, corner_max, floor = (float(v) for v in _gw_core(
        spec, dom, base_vals, base_value, np.stack(distinct)[None], mults, np.array([h]),
        whole, width=2 * _row_floats(dom.shape, dom.ndim))[:, 0])
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

    Each probe is evaluated on a window of floor(r / spacing) + 2 cells each
    side of its node, shifted into the grid (the whole axis where that box
    does not fit; the whole grid for a spec with a callable), see _gw_core,
    at the step _auto_step gives for its curvature on |x|^2.
    """
    dom = grid_domain(spec, domain)
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_order(k)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if k == 0:
        mask = ScanMask(dom, np.zeros(dom.shape, dtype=bool))
        return (mask, np.zeros(dom.shape)) if return_responses else mask
    if probe_radius <= 0:
        raise ValueError("probe_radius must be positive")
    shape = np.array(dom.shape)
    half = shape
    if _local(spec):  # a bump vanishes beyond floor(r / spacing) cells
        half = np.minimum(np.floor(probe_radius / dom.spacing) + 2, shape).astype(int)
    window = tuple(int(w) for w in np.minimum(2 * half + 1, shape))
    _check_work(2 * k, prod(window), dom.size)  # each probe at steps h and h/2
    base_vals, base_value = _base(spec, dom)
    pts = dom.points()
    starts = np.clip(np.indices(dom.shape).reshape(dom.ndim, -1).T - half, 0,
                     shape - window)

    def block(i, j):
        cells = _window_cells(dom.shape, window, starts[i:j])
        # the values Bump(pts[c], probe_radius).sample(dom) has on the window
        phis = _bump_values(pts[cells.reshape(len(cells), -1)], pts[i:j], probe_radius)
        phis = phis.reshape((len(cells), 1) + window)
        # a window holds every nonzero sample of its probe and, on each side,
        # two zero layers or the grid's edge: its curvature is the whole grid's
        h = _auto_step(k, _curvature(phis[:, 0], dom.spacing))
        return _gw_core(spec, dom, base_vals, base_value, phis, (k,), h, cells)[[0, 3]].T

    # a probe's temporaries are its 2k corner rows (steps h and h/2) on the
    # window; a block of probes is one block of corners in _gw_core, since
    # splitting it again costs each part the per-block overhead
    width = 2 * k * _row_floats(window, dom.ndim)
    responses, floors = _by_rows(dom.size, width, block, _SCAN_PROBES).T.reshape(
        (2,) + dom.shape)
    size = np.abs(responses)
    mask = ScanMask(dom, size > np.maximum(tol * np.max(size), floors))
    return (mask, responses) if return_responses else mask


def _hausdorff_cells(idx_a, idx_b) -> float:
    """Symmetric Hausdorff distance between index sets, Chebyshev metric."""
    if len(idx_a) == 0 and len(idx_b) == 0:
        return 0.0
    if len(idx_a) == 0 or len(idx_b) == 0:
        return inf
    d = np.max(np.abs(idx_a[:, None, :] - idx_b[None, :, :]), axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def translate_covariance_residual(spec: PairingMeasure, v, probe_radius: float,
                                  tol: float = 1e-6,
                                  domain: GridDomain | None = None) -> float:
    """Hausdorff distance (in cells) between the scan of the node-shifted
    valuation and the shifted scan of the original."""
    if not isinstance(spec, PairingMeasure):
        raise TypeError("translate covariance probe is defined for pairings")
    domain = grid_domain(spec, domain)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    shifted = spec.translate(v)
    if not np.all(domain.contains(shifted.nodes)) or \
            not np.all(domain.contains(spec.nodes)):
        raise DomainExceeded("pairing nodes leave the grid domain")
    m0 = support_scan(spec, 1, probe_radius, tol, domain)
    m1 = support_scan(shifted, 1, probe_radius, tol, domain)
    cells = np.rint(v / domain.spacing).astype(int)
    return _hausdorff_cells(m1.indices(), m0.indices() + cells)


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
    crop, cells = _bounding_window(reads)
    rng = random.Random(seed)

    def samples():
        dist = dom.point_norms((A_lo + A_hi) / 2.0)
        yield ExtGridFn._of(dom, (2.0 / float(np.max(dist[norm_box]))) * dist - 1.0)
        del dist
        while True:
            yield random_convex_fn(dom, rng)

    stream = samples()
    rows = max(1, _SAMPLES // cells.size)
    best = 0.0
    for start in range(0, n_samples, rows):
        exts = np.empty((min(rows, n_samples - start),) + cells.shape[1:])
        for ext, f in zip(exts, stream):
            m = float(np.max(np.abs(f.values[norm_box])))
            if m > 0:
                f = ExtGridFn._of(dom, f.values / m)
            ext[...] = extend_from_subdomain(f, A_lo, A_hi, s, reads).values[crop]
        best = max(best, float(np.max(np.abs(_evaluate_windows(spec, dom, exts[None], cells)))))
    return best
