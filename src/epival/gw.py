"""Polarization, Goodey-Weil evaluation, support scanning and the seminorm
lower-bound estimator.

The Goodey-Weil pairing extracts the mixed first-order coefficient of
mu(f + sum_i delta_i phi_i) through an exact corner difference (2^k corners
for distinct tests, k + 1 for identical ones); for a k-homogeneous valuation
the polynomial has total degree at most k, so the extraction is independent
of the step size, which the implementation verifies by re-running at half
the step. Many probes are evaluated at once: their corners form one stack.
"""

from dataclasses import dataclass
from itertools import product
from math import comb, factorial, inf

import numpy as np

from .convex import _by_rows, _convex_rows, _extend, _test_function, is_discretely_convex
from .errors import ConvexityViolation, DomainExceeded, StepAgreementError
from .grids import Bump, ExtGridFn, GridDomain, ScanMask, _bump_values, _dilate
from .sampling import random_convex_fn
from .valuations import PairingMeasure, _evaluate_stack, _read_mask, evaluate, grid_domain

REL_STEP_TOL = 1e-7
_MAX_HALVINGS = 10
_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class GWQuery:
    """Order, test functions (Bump or grid), optional base and step.

    The default base is |x|^2 on the resolved domain; the default step is
    min(0.1, 1/(k * max C2 bound of the tests' samples)), at which corners on
    that base pass the convexity check; corners that fail halve the step.
    """

    order: int
    tests: tuple
    base: ExtGridFn | None = None
    step: float | None = None

    def __init__(self, order, tests, base=None, step=None):
        order = int(order)
        tests = tuple(tests)
        if order < 1 or len(tests) != order:
            raise ValueError("need exactly `order` test functions, order >= 1")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "tests", tests)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "step", step)


def polarize(spec, k: int, fs) -> float:
    """Symmetric multilinearization by inclusion-exclusion over subset sums:
    (1/k!) sum over nonempty S of (-1)^(k-|S|) mu(sum_{i in S} f_i).

    The subset sums are the Goodey-Weil corners at base 0 and step 1, so k
    equal inputs take k + 1 evaluations. Requires mu to be k-homogeneous
    (verified on the first argument).
    """
    fs = list(fs)
    if len(fs) != k or k < 1:
        raise ValueError("need exactly k functions")
    g = fs[0]
    if not all(f.domain.same_as(g.domain) for f in fs):
        raise ValueError("functions must share a domain")
    distinct, mults = _multiset([f.values for f in fs])
    plan = _corner_plan(mults)
    corners = _corners(np.zeros(g.values.shape), np.stack(distinct)[None], plan,
                       np.ones((1, 1)))[0, 0]
    rows = np.concatenate([[g.values * 2.0, g.values], corners])
    vals = _evaluate_stack(spec, g.domain, rows)
    a, b = float(vals[0]), float(vals[1])
    if abs(a - 2.0**k * b) > 1e-8 * (1.0 + abs(a) + 2.0**k * abs(b)):
        raise ValueError("valuation fails the k-homogeneity residual check")
    return float(_difference(plan, 0.0, vals[None, 2:], 1.0, k)[0][0])


def _base(spec, domain: GridDomain, base: ExtGridFn | None = None):
    """Values and mu-value of the base function of a mixed difference:
    |x|^2 on `domain` unless given; refused unless discretely convex."""
    if base is None:
        base = ExtGridFn(domain, np.sum(domain.points()**2, axis=1).reshape(domain.shape))
    if not is_discretely_convex(base):
        raise ConvexityViolation("base function is not convex")
    return base.values, evaluate(spec, base)


def _auto_step(k, c2s):
    return min(0.1, 1.0 / (k * max(max(c2s), 1e-12)))


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


def _corners(base_vals, phis, plan, steps):
    """(P, S, C, *grid) stack of the non-base corners of P probes, each at
    its S steps, where phis is (P, G, *grid) and steps is (P, S)."""
    steps = steps.reshape(steps.shape + (1,) * base_vals.ndim)
    out = np.empty(steps.shape[:2] + (len(plan) - 1,) + base_vals.shape)
    for c, (_, js) in enumerate(plan[1:]):
        vals = base_vals
        for g, j in enumerate(js):
            if j:
                vals = vals + (j * steps) * phis[:, None, g]
        out[:, :, c] = vals
    return out


def _noise_floor(corner_max, k, h):
    return 64.0 * _EPS * corner_max * 2.0**k / (factorial(k) * h**k)


def _difference(plan, base_value, vals, h, k):
    """(1/(k! h^k)) sum over corners of coef * mu(corner) for each row of
    the (P, C) non-base corner values, and the largest |mu| over corners."""
    total = np.full(vals.shape[0], plan[0][0] * base_value)
    for c, (coef, _) in enumerate(plan[1:]):
        total = total + coef * vals[:, c]
    corner_max = np.maximum(abs(base_value), np.max(np.abs(vals), axis=1))
    return total / (factorial(k) * h**k), corner_max


def _gw_core(spec, dom, base_vals, base_value, phis, mults, h):
    """Mixed differences of P probes at their steps h and h/2, with the
    agreement check; phis is (P, G, *grid), the G distinct tests of each
    probe with multiplicities mults, and mu(base) = base_value.

    Each probe starts at step h; a probe whose corners at h or h/2 fail the
    convexity check halves its own step and is tried again. Returns a
    (5, P) array of the value at h, the value at h/2, the step used, the
    largest |mu| over the corners at h, and the noise floor.
    """
    k = sum(mults)
    plan = _corner_plan(mults)
    shape = base_vals.shape
    out = np.empty((5, phis.shape[0]))
    steps = np.full(phis.shape[0], float(h))
    todo = np.arange(phis.shape[0])
    for _ in range(_MAX_HALVINGS + 1):
        h = steps[todo]
        stack = _corners(base_vals, phis[todo], plan, np.stack([h, h / 2.0], axis=1))
        ok = _convex_rows(stack.reshape((-1,) + shape)).reshape(todo.size, -1).all(axis=1)
        if np.any(ok):
            rows = stack if np.all(ok) else stack[ok]
            vals = _evaluate_stack(spec, dom, rows.reshape((-1,) + shape))
            vals = vals.reshape(rows.shape[:3])
            h1 = h[ok]
            v1, m1 = _difference(plan, base_value, vals[:, 0], h1, k)
            v2, m2 = _difference(plan, base_value, vals[:, 1], h1 / 2.0, k)
            floor = _noise_floor(m1, k, h1) + _noise_floor(m2, k, h1 / 2.0)
            bad = np.abs(v1 - v2) > REL_STEP_TOL * np.maximum(np.abs(v1), np.abs(v2)) + floor
            if np.any(bad):
                i = int(np.argmax(bad))
                raise StepAgreementError(
                    f"values at h and h/2 disagree: {float(v1[i])!r} vs {float(v2[i])!r}")
            out[:, todo[ok]] = v1, v2, h1, m1, floor
        todo = todo[~ok]
        if todo.size == 0:
            return out
        steps[todo] /= 2.0
    raise ConvexityViolation("no admissible step found after halvings: corner "
                             "functions are not convex")


def gw_report(spec, query: GWQuery, domain: GridDomain | None = None) -> dict:
    """Goodey-Weil pairing value with the half-step verification data."""
    dom = grid_domain(spec, domain if query.base is None else query.base.domain)
    k = query.order
    stack, c2s = zip(*(_test_function(phi, dom) for phi in query.tests))
    h = query.step if query.step is not None else _auto_step(k, c2s)
    if h <= 0:
        raise ValueError("step must be positive")
    base_vals, base_value = _base(spec, dom, query.base)
    distinct, mults = _multiset(stack)
    v1, v2, h_used, corner_max, floor = (float(v) for v in _gw_core(
        spec, dom, base_vals, base_value, np.stack(distinct)[None], mults, h)[:, 0])
    # fixed points of the verification: agreement <= REL_STEP_TOL is exactly
    # the check the evaluation itself passed, noise floor included
    denom = max(abs(v1), abs(v2)) + floor / REL_STEP_TOL
    return {
        "value": v1,
        "value_half_step": v2,
        "step": h_used,
        "agreement": abs(v1 - v2) / denom,
        "corner_max": corner_max,
        "test_sup_norms": [float(np.max(np.abs(s))) for s in stack],
    }


def gw_eval(spec, query: GWQuery, domain: GridDomain | None = None) -> float:
    return gw_report(spec, query, domain)["value"]


def _support_masks(tests, domain):
    masks = []
    for phi in tests:
        if isinstance(phi, Bump):
            masks.append(phi.support_mask(domain))
        else:
            masks.append(phi.values != 0.0)
    return masks


def diagonality_residual(spec, k: int, bumps, domain: GridDomain | None = None,
                         base: ExtGridFn | None = None,
                         step: float | None = None) -> float:
    """|gw_eval| for test functions with pairwise disjoint supports
    (at least one empty cell between them)."""
    query = GWQuery(k, bumps, base=base, step=step)
    dom = grid_domain(spec, domain if base is None else base.domain)
    masks = _support_masks(query.tests, dom)
    for i in range(len(masks)):
        grown = _dilate(masks[i])
        for j in range(i + 1, len(masks)):
            if np.any(grown & masks[j]):
                raise ValueError(
                    "test supports must be separated by at least one empty cell")
    return abs(gw_eval(spec, query, dom))


def support_scan(spec, k: int, probe_radius: float, tol: float = 1e-6,
                 domain: GridDomain | None = None, step: float | None = None,
                 return_responses: bool = False):
    """Probe response |s(c)| of a k-fold bump at every grid cell; cells above
    tol * max response are marked. Degree 0 reports the empty support."""
    dom = grid_domain(spec, domain)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        mask = ScanMask(dom, np.zeros(dom.shape, dtype=bool))
        return (mask, np.zeros(dom.shape)) if return_responses else mask
    if probe_radius <= 0:
        raise ValueError("probe_radius must be positive")
    base_vals, base_value = _base(spec, dom)
    pts = dom.points()
    # probes sit on nodes and share the samples of this one up to the
    # boundary; a probe off the nodes could sample to zero
    mid = pts[np.ravel_multi_index(tuple(n // 2 for n in dom.shape), dom.shape)]
    _, c2 = _test_function(Bump(mid, probe_radius, 1.0), dom)
    h0 = step if step is not None else _auto_step(k, [c2])

    def block(i, j):
        # the same values Bump(pts[c], probe_radius).sample(dom) gives
        phis = _bump_values(pts, pts[i:j], probe_radius)
        phis = phis.reshape((phis.shape[0], 1) + dom.shape)
        return _gw_core(spec, dom, base_vals, base_value, phis, (k,), h0)[0]

    # a probe's widest temporary: its 2k corner rows (steps h and h/2), each
    # with up to one n x n Hessian per cell
    width = 2 * k * dom.size * dom.ndim**2
    responses = _by_rows(dom.size, width, block).reshape(dom.shape)
    peak = float(np.max(np.abs(responses)))
    marked = np.abs(responses) > tol * peak if peak > 0 else \
        np.zeros(dom.shape, dtype=bool)
    mask = ScanMask(dom, marked)
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
    if domain is None:
        raise ValueError("a grid domain is required")
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
    no hull is built. Deterministic in `seed`; the sample stream makes the
    estimate monotone in n_samples.
    """
    dom = grid_domain(spec, domain)
    A_lo = np.atleast_1d(np.asarray(A_lo, dtype=float))
    A_hi = np.atleast_1d(np.asarray(A_hi, dtype=float))
    if s <= 0 or n_samples < 1:
        raise ValueError("need s > 0 and at least one sample")
    pad = 1e-9 * np.maximum(1.0, np.abs(dom.hi - dom.lo))
    if np.any(A_lo - 2 * s < dom.lo - pad) or np.any(A_hi + 2 * s > dom.hi + pad):
        raise DomainExceeded("norm box exceeds the grid domain")
    pts = dom.points()
    norm_box = np.all((pts >= A_lo - 2 * s - pad) & (pts <= A_hi + 2 * s + pad),
                      axis=1).reshape(dom.shape)
    if np.count_nonzero(norm_box) < 2:
        raise ValueError("the norm box holds fewer than two grid cells")
    center = (A_lo + A_hi) / 2.0
    reads = _read_mask(spec, dom)
    rng = np.random.default_rng(seed)
    exts = []
    for i in range(n_samples):
        if i == 0:
            dist = dom.point_norms(center)
            r_max = float(np.max(dist[norm_box]))
            vals = (2.0 / r_max) * dist - 1.0
            f = ExtGridFn(dom, vals)
        else:
            f = random_convex_fn(dom, rng)
        m = float(np.max(np.abs(f.values[norm_box])))
        if m > 0:
            f = ExtGridFn(dom, f.values / m)
        exts.append(_extend(f, A_lo, A_hi, s, reads))
    return float(np.max(np.abs(_evaluate_stack(spec, dom, np.stack(exts)))))
