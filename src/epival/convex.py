"""Constructive convex analysis on grid functions.

Conjugation, Lipschitz regularization, epi-distance, support-function
sampling, reconstruction through truncated conjugate epigraphs, convex
extension from a sub-box, lsc extension/restriction and convex splitting.
"""

import warnings

import numpy as np

from .errors import ConvexityViolation, DomainExceeded
from .grids import Bump, ExtGridFn, GridDomain, Polytope, ScanMask, _margin_mask

_BLOCK = 1 << 21  # floats in one temporary block of the row-blocked kernels


def _directions(ndim):
    """Axis and diagonal step directions, one representative per +-pair."""
    dirs = []
    for flat in range(3**ndim):
        d = []
        x = flat
        for _ in range(ndim):
            d.append(x % 3 - 1)
            x //= 3
        if any(d):
            first = next(v for v in d if v)
            if first > 0:
                dirs.append(tuple(d))
    return dirs


def _shifted_views(values, d):
    """Triple of views (v[i-d], v[i], v[i+d]) over the valid index window."""
    ndim = values.ndim
    sl_m, sl_c, sl_p = [], [], []
    for a in range(ndim):
        step = d[a]
        n = values.shape[a]
        if step == 0:
            sl_m.append(slice(0, n))
            sl_c.append(slice(0, n))
            sl_p.append(slice(0, n))
        else:
            sl_m.append(slice(0, n - 2) if step > 0 else slice(2, n))
            sl_c.append(slice(1, n - 1))
            sl_p.append(slice(2, n) if step > 0 else slice(0, n - 2))
    return values[tuple(sl_m)], values[tuple(sl_c)], values[tuple(sl_p)]


def is_discretely_convex(f: ExtGridFn, tol: float = 1e-9) -> bool:
    """Second differences along axis and diagonal directions >= -tol*scale,
    and finite cells form a contiguous segment along every axis scan line.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return bool(_convex_rows(f.values[None], tol)[0])


def _convex_rows(stack, tol=1e-9):
    """is_discretely_convex for each row of a (B, *grid) value stack, each
    row against its own scale. A stack with no +inf cell skips the masking
    and the scan-line test, which then hold trivially."""
    rows, ndim = stack.shape[0], stack.ndim - 1
    axes = tuple(range(1, ndim + 1))
    fin = np.isfinite(stack)
    finite = bool(fin.all())
    vals = stack if finite else np.where(fin, stack, 0.0)
    thr = -tol * (1.0 + np.max(np.abs(vals), axis=axes))
    ok = np.ones(rows, dtype=bool)
    for d in _directions(ndim):
        vm, vc, vp = _shifted_views(vals, (0,) + d)
        second = vm - 2.0 * vc + vp
        if not finite:
            fm, fc, fp = _shifted_views(fin, (0,) + d)
            second = np.where(fm & fc & fp, second, np.inf)
        ok &= np.min(second, axis=axes) >= thr
    if finite:
        return ok

    # domain convexity along axis scan lines: no +inf strictly between finite
    for a in axes:
        m = np.moveaxis(fin, a, -1)
        m2 = m.reshape(rows, -1, m.shape[-1])
        count = m2.sum(axis=2)
        first = np.argmax(m2, axis=2)
        last = m2.shape[2] - 1 - np.argmax(m2[..., ::-1], axis=2)
        ok &= np.all((count == 0) | (last - first + 1 == count), axis=1)
    return ok


def lipschitz_bound(f: ExtGridFn) -> float:
    """Max |difference quotient| over adjacent finite cells, axis and diagonal."""
    best = 0.0
    dx = f.domain.spacing
    for d in _directions(f.domain.ndim):
        _, vc, vp = _shifted_views(f.values, d)
        ok = np.isfinite(vc) & np.isfinite(vp)
        if np.any(ok):
            step = float(np.linalg.norm(dx * np.array(d)))
            best = max(best, float(np.max(np.abs(vp[ok] - vc[ok]))) / step)
    return best


def slope_range(f: ExtGridFn):
    """Per-axis (min, max) one-sided difference quotients over finite pairs."""
    lo, hi = [], []
    dx = f.domain.spacing
    for a in range(f.domain.ndim):
        v = np.moveaxis(f.values, a, -1)
        ok = np.isfinite(v[..., 1:]) & np.isfinite(v[..., :-1])
        if np.any(ok):
            d = (v[..., 1:][ok] - v[..., :-1][ok]) / dx[a]
            lo.append(float(np.min(d)))
            hi.append(float(np.max(d)))
        else:
            lo.append(0.0)
            hi.append(0.0)
    return np.array(lo), np.array(hi)


def default_dual_domain(f: ExtGridFn) -> GridDomain:
    """Slope range padded by 10%, primal resolution (point count forced odd
    so a degenerate slope range keeps its center on the grid)."""
    lo, hi = slope_range(f)
    c = (lo + hi) / 2.0
    half = 0.55 * (hi - lo)
    tiny = half < 1e-12 * (1.0 + np.abs(c))
    half = np.where(tiny, 1.0 + 0.1 * np.abs(c), half)
    shape = tuple(s if s % 2 == 1 else s + 1 for s in f.domain.shape)
    return GridDomain(c - half, c + half, shape)


def _by_rows(count, width, block):
    """block(i, j) for rows i:j of `count`, in blocks of about _BLOCK / width
    rows so no temporary exceeds _BLOCK floats; results are stacked."""
    rows = max(1, _BLOCK // width)
    return np.concatenate([block(i, i + rows) for i in range(0, count, rows)])


def _pairing_max(targets, sources, charges):
    """max over j of <targets_i, sources_j> - charges_j."""
    return _by_rows(targets.shape[0], sources.shape[0],
                    lambda i, j: (targets[i:j] @ sources.T - charges).max(axis=1))


def _separable_max(vals, axes, dual_axes):
    """max over x of <y, x> + vals(x) at every y of the product grid
    `dual_axes`, for vals on the product grid `axes`.

    The grid is a product, so the maximum factors axis by axis: each pass
    maximises <y_a, x_a> + p over one axis of p. -inf cells drop out of
    every later maximum. Lines and dual points are both blocked: a block of
    products and the sums over it hold at most _BLOCK floats together.
    """
    for a, (xa, ya) in enumerate(zip(axes, dual_axes)):
        lines = np.moveaxis(vals, a, -1)
        flat = lines.reshape(-1, xa.size)
        step = max(1, _BLOCK // (2 * xa.size))  # dual points per block
        cols = []
        for k in range(0, ya.size, step):
            pair = np.multiply.outer(ya[k:k + step], xa)
            cols.append(_by_rows(flat.shape[0], 2 * pair.size,
                                 lambda i, j: (flat[i:j, None, :] + pair).max(axis=2)))
        out = np.concatenate(cols, axis=1)
        vals = np.moveaxis(out.reshape(lines.shape[:-1] + (ya.size,)), -1, a)
    return vals


def legendre(f: ExtGridFn, dual_domain: GridDomain | None = None) -> ExtGridFn:
    """Discrete convex conjugate: f*(y) = max over finite cells of <y,x> - f(x).

    The separable maximum of -f, with a -inf sentinel at +inf cells.
    """
    if dual_domain is None:
        dual_domain = default_dual_domain(f)
    else:
        lo, hi = slope_range(f)
        slack = 1e-9 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        if np.any(dual_domain.lo > lo + slack) or np.any(dual_domain.hi < hi - slack):
            warnings.warn("dual domain does not cover the slope range of f",
                          stacklevel=2)
    if dual_domain.ndim != f.domain.ndim:
        raise ValueError("dual domain dimension mismatch")
    if not np.any(f.finite_mask):
        raise ValueError("conjugate of an improper function")
    vals = np.where(f.finite_mask, -f.values, -np.inf)
    return ExtGridFn(dual_domain, _separable_max(vals, f.domain.axes(), dual_domain.axes()))


def biconjugate(f: ExtGridFn) -> ExtGridFn:
    """legendre(legendre(f)) back on the primal grid.

    The discrete construction satisfies f** <= f at finite cells in exact
    arithmetic; the result is clamped there to remove sub-ulp rounding
    overshoot so the dominance invariant holds for the returned values.
    """
    return _biconjugate(f, legendre(f))


def _biconjugate(f: ExtGridFn, fstar: ExtGridFn) -> ExtGridFn:
    """biconjugate(f) from its conjugate fstar = legendre(f)."""
    fss = legendre(fstar, f.domain)
    vals = np.where(f.finite_mask, np.minimum(fss.values, f.values), fss.values)
    return ExtGridFn(f.domain, vals)


def biconjugate_gap(f: ExtGridFn) -> float:
    """sup over finite interior cells of |f** - f|; zero certifies convexity."""
    return _biconjugate_gap(f, legendre(f))


def _biconjugate_gap(f: ExtGridFn, fstar: ExtGridFn) -> float:
    """biconjugate_gap(f) from its conjugate fstar = legendre(f)."""
    fss = _biconjugate(f, fstar)
    sel = ~_margin_mask(f.domain.shape, 1) & f.finite_mask
    if not np.any(sel):
        return 0.0
    return float(np.max(np.abs(fss.values[sel] - f.values[sel])))


def _cone_min(tgt, src, vals, L):
    """min over j of vals_j + L |tgt_i - src_j| for (P, T, n) targets and
    (P, S, n) sources, as (P, T). Squares are summed axis by axis, in the
    order np.linalg.norm adds them, and the arithmetic is done in place, so
    every pair gets the same bits wherever it is evaluated. Two (P, T, S)
    arrays are alive at once, so callers keep P * T * S to _BLOCK / 2."""
    sq = (tgt[:, :, None, 0] - src[:, None, :, 0]) ** 2
    for a in range(1, tgt.shape[2]):
        sq += (tgt[:, :, None, a] - src[:, None, :, a]) ** 2
    np.sqrt(sq, out=sq)
    sq *= L
    sq += vals[:, None, :]
    return sq.min(axis=2)


def _tiles(shape):
    """(tiles, cells) flat grid indices of about 256 boxes of cells; boxes at
    the far end are padded by repeating their last cell, which changes no
    minimum."""
    per_axis = int(np.ceil(256 ** (1 / len(shape))))
    flat = np.zeros((), dtype=int)
    for n in shape:
        side = -(-n // per_axis)
        idx = np.minimum(np.arange(-(-n // side) * side), n - 1).reshape(-1, side)
        flat = flat[..., None, None] * n + idx
    k = len(shape)
    flat = flat.transpose(tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2)))
    return flat.reshape(int(np.prod(flat.shape[:k])), -1)


def lipschitz_regularize(f: ExtGridFn, r: float) -> ExtGridFn:
    """Infimal convolution with (1/r)|.|; equals (f* + indicator of B_{1/r})*.

    Exact: the minimum over every finite source of f(y) + |x - y| / r, with
    source boxes that cannot hold a target box's minimum skipped.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if not is_discretely_convex(f):
        raise ConvexityViolation("input must be discretely convex")
    L = 1.0 / r
    fin = f.finite_mask
    if not np.any(fin):
        raise ValueError("regularization of an improper function")
    pts = f.domain.points()
    vals = f.values.ravel()

    # Pass 1: ub(x), the minimum over the finite cells on every 4th grid
    # line of each axis, an attained value and so an upper bound.
    strided = np.zeros(fin.shape, dtype=bool)
    strided[(slice(None, None, 4),) * fin.ndim] = True
    strided = (strided & fin).ravel()
    ub = np.full(pts.shape[0], np.inf)
    if np.any(strided):
        src, sv = pts[None, strided], vals[None, strided]
        ub = _by_rows(pts.shape[0], 2 * src.shape[1],
                      lambda i, j: _cone_min(pts[None, i:j], src, sv, L)[0])

    # Pass 2: box A skips box B when min_B f + L dist(A, B) > max_A ub. For x
    # in A and y in B, |x_a - y_a| is at least the gap between the boxes on
    # axis a and rounding is monotone, so the evaluated f(y) + L|x - y| is at
    # least the evaluated bound; past the slack it exceeds ub(x), a value
    # from a kept box, so no skipped pair is a minimum and the minimum over
    # the kept pairs is the full one, bit for bit.
    cells = _tiles(fin.shape)
    tp, tv = pts[cells], vals[cells]            # +inf sources never win
    lo, hi = tp.min(axis=1), tp.max(axis=1)
    gap = np.maximum(0.0, np.maximum(lo[None] - hi[:, None], lo[:, None] - hi[None]))
    sq = gap[..., 0] ** 2
    for a in range(1, gap.shape[2]):
        sq += gap[..., a] ** 2
    reach = L * np.sqrt(sq)
    vmin, ubmax = tv.min(axis=1), ub[cells].max(axis=1)
    lb = vmin[None] + reach
    slack = 1e-12 * (np.abs(vmin)[None] + reach + np.abs(ubmax)[:, None])
    keep = np.isfinite(vmin)[None] & (lb <= ubmax[:, None] + slack)
    pa, pb = np.nonzero(keep)                   # row-major: grouped by target box
    best = np.full(tv.shape, np.inf)
    step = max(1, _BLOCK // (2 * tv.shape[1] ** 2))
    for k in range(0, pa.size, step):
        a, b = pa[k:k + step], pb[k:k + step]
        m = _cone_min(tp[a], tp[b], tv[b], L)
        first = np.flatnonzero(np.r_[True, a[1:] != a[:-1]])
        best[a[first]] = np.minimum(best[a[first]], np.minimum.reduceat(m, first))
    out = np.empty(vals.size)
    out[cells] = best
    return ExtGridFn(f.domain, out.reshape(f.domain.shape))


def epi_distance(f: ExtGridFn, g: ExtGridFn) -> float:
    """Shell-weighted sup distance surrogate for epi-convergence.

    Shells are nested balls B_j of radius j/8 of the domain half-diagonal;
    a cell finite for exactly one argument contributes 1 to its shells.
    """
    if not f.domain.same_as(g.domain):
        raise ValueError("epi_distance needs a shared domain")
    dom = f.domain
    rad = dom.point_norms()
    both = f.finite_mask & g.finite_mask
    one = f.finite_mask ^ g.finite_mask
    diff = np.zeros(dom.shape)
    diff[both] = np.abs(f.values[both] - g.values[both])
    total = 0.0
    R = dom.radius
    for j in range(1, 9):
        ball = rad <= j * R / 8.0 + 1e-12 * R
        s = float(np.max(diff[ball & both])) if np.any(ball & both) else 0.0
        if np.any(ball & one):
            s = max(s, 1.0)
        total += 2.0**-j * min(1.0, s)
    return total


def body_to_function(K: Polytope, domain: GridDomain) -> ExtGridFn:
    """Sample x -> h_K(x, -1) = max over vertices (y,t) of <y,x> - t."""
    n = domain.ndim
    if K.ambient_dim != n + 1:
        raise ValueError("polytope must live in V* x R")
    y = K.vertices[:, :n]
    t = K.vertices[:, n]
    vals = _pairing_max(domain.points(), y, t)
    return ExtGridFn(domain, vals.reshape(domain.shape))


def reconstruct_from_conjugate(f: ExtGridFn, R: float) -> ExtGridFn:
    """Support evaluation of the truncated conjugate epigraph.

    With c the sup of |f| on the ball of radius R+2, the body is
    epi(f*) with |y| <= 2c and |t| <= (2R+3)c; its support function in
    direction (x, -1) recovers f on the ball of radius R+1.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    dom = f.domain
    if np.any(dom.lo > -(R + 2)) or np.any(dom.hi < R + 2):
        raise DomainExceeded("domain must contain the ball of radius R+2")
    rad = dom.point_norms(center=np.zeros(dom.ndim))
    ball = rad <= R + 2
    if not np.all(np.isfinite(f.values[ball])):
        raise ValueError("f must be finite on the ball of radius R+2")
    c = float(np.max(np.abs(f.values[ball])))
    c = max(c, 1e-300)
    fstar = legendre(f)
    ynorm = fstar.domain.point_norms(center=np.zeros(dom.ndim))
    tcap = (2 * R + 3) * c
    keep = (ynorm <= 2 * c * (1 + 1e-12)) & (fstar.values <= tcap)
    if not np.any(keep):
        keep.flat[np.argmin(ynorm)] = True
    # the body's support in direction (x, -1): a separable maximum over the
    # kept dual cells, the others carrying the -inf sentinel
    charge = np.where(keep, -np.maximum(fstar.values, -tcap), -np.inf)
    return ExtGridFn(dom, _separable_max(charge, fstar.domain.axes(), dom.axes()))


def _box_index_ranges(domain: GridDomain, lo, hi):
    dx = domain.spacing
    il = np.ceil((np.asarray(lo) - domain.lo) / dx - 1e-9).astype(int)
    iu = np.floor((np.asarray(hi) - domain.lo) / dx + 1e-9).astype(int)
    il = np.clip(il, 0, np.array(domain.shape) - 1)
    iu = np.clip(iu, 0, np.array(domain.shape) - 1)
    return il, iu


def _lower_hull_planes(pts, vals, edge):
    """Affine minorants from the lower convex hull of the lifted samples,
    kept only for facets with a vertex where the mask `edge` is set.

    Returns (slopes, offsets); each plane is x -> slopes[j] @ x + offsets[j].
    Falls back to a single shifted least-squares plane for affinely
    degenerate data (qhull cannot triangulate flat input).
    """
    # imported here, not with the module: scipy is most of the CLI's
    # start-up time and only the extension needs qhull
    from scipy.spatial import ConvexHull, QhullError

    n = pts.shape[1]
    lifted = np.column_stack([pts, vals])
    try:
        hull = ConvexHull(lifted)
        eq = hull.equations  # normal . p + off = 0
        lower = (eq[:, n] < -1e-12) & edge[hull.simplices].any(axis=1)
        if not np.any(lower):
            raise QhullError("no lower facets")
        nrm = eq[lower, :n + 1]
        off = eq[lower, n + 1]
        slopes = -nrm[:, :n] / nrm[:, n:n + 1]
        offsets = -off / nrm[:, n]
        return slopes, offsets
    except QhullError:
        A = np.column_stack([pts, np.ones(pts.shape[0])])
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        slope, b = coef[:n], coef[n]
        resid = pts @ slope + b - vals
        return slope[None, :], np.array([b - max(0.0, float(np.max(resid)))])


def extend_from_subdomain(f: ExtGridFn, A_lo, A_hi, s: float) -> ExtGridFn:
    """Finite convex extension of f from the box [A_lo - s, A_hi + s].

    Outside the box the value is the max over supporting planes of the box
    data (the chordal extrapolation sup); inside it the input is kept
    verbatim. The output is finite everywhere and discretely convex.
    """
    fill = np.ones(f.domain.shape, dtype=bool)
    return ExtGridFn(f.domain, _extend(f, A_lo, A_hi, s, fill))


def _extend(f: ExtGridFn, A_lo, A_hi, s: float, fill):
    """Values of extend_from_subdomain(f, A_lo, A_hi, s) at the cells where
    the boolean grid `fill` is set and inside the source box; f's own values
    at the other cells outside it.

    Every check runs whatever `fill` is. The hull is built, and scipy
    loaded, only when a cell to fill lies outside the box.
    """
    dom = f.domain
    A_lo = np.atleast_1d(np.asarray(A_lo, dtype=float))
    A_hi = np.atleast_1d(np.asarray(A_hi, dtype=float))
    if s <= 0:
        raise ValueError("s must be positive")
    if s < 2 * np.max(dom.spacing):
        raise ValueError("s must be at least two grid spacings")
    if np.any(A_lo >= A_hi):
        raise ValueError("need A_lo < A_hi")
    il, iu = _box_index_ranges(dom, A_lo - s, A_hi + s)
    if np.any(iu - il + 1 < 3):
        raise ValueError("extension source box has fewer than 3 cells per axis")
    window = tuple(slice(a, b + 1) for a, b in zip(il, iu))
    if not np.all(np.isfinite(f.values[window])):
        raise ValueError("f must be finite on the source box")
    sub = ExtGridFn(
        GridDomain(dom.lo + il * dom.spacing, dom.lo + iu * dom.spacing,
                   tuple(iu - il + 1)),
        f.values[window])
    if not is_discretely_convex(sub):
        raise ConvexityViolation("f must be discretely convex on the source box")
    out = np.array(f.values)
    box = np.zeros(dom.shape, dtype=bool)
    box[window] = True
    targets = fill & ~box
    if not np.any(targets):
        return out

    # Only facets with a vertex on the box boundary can be the largest plane
    # outside the box. Take x outside, any lower facet F with plane P, a point
    # z of F and the point b where the segment from z to x leaves the box. The
    # facet containing b has a vertex on the box face through b; its plane Q
    # touches the envelope at b while P touches it at z. Q - P is affine along
    # the segment, <= 0 at z and >= 0 at b, so Q(x) >= P(x) beyond b.
    pts = dom.points()
    edge = _margin_mask(sub.domain.shape, 1).ravel()
    slopes, offsets = _lower_hull_planes(pts[box.ravel()], sub.values.ravel(), edge)
    out[targets] = _pairing_max(pts[targets.ravel()], slopes, -offsets)
    return out


def _connected(mask):
    from scipy import ndimage  # imported here for start-up time, as in _lower_hull_planes

    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    _, num = ndimage.label(mask, structure=structure)
    return num == 1


def restrict(f: ExtGridFn, U_mask: ScanMask) -> ExtGridFn:
    """+inf outside the marked cells, f on them."""
    _check_mask(f, U_mask)
    vals = np.where(U_mask.marked, f.values, np.inf)
    return ExtGridFn(f.domain, vals)


def lsc_extend(f_open: ExtGridFn, U_mask: ScanMask) -> ExtGridFn:
    """Discrete lsc extension: boundary cells get the min over face-adjacent
    marked cells, everything farther out is +inf."""
    _check_mask(f_open, U_mask)
    marked = U_mask.marked
    if not np.all(np.isfinite(f_open.values[marked])):
        raise ValueError("f must be finite on the marked cells")
    vals = np.where(marked, f_open.values, np.inf)
    best = np.full(vals.shape, np.inf)
    # one shift each way per axis, as in grids._dilate, but always of `vals`
    # rather than of the running minimum, so only face neighbours count
    for a in range(vals.ndim):
        lo = (slice(None),) * a + (slice(None, -1),)
        hi = (slice(None),) * a + (slice(1, None),)
        best[hi] = np.minimum(best[hi], vals[lo])
        best[lo] = np.minimum(best[lo], vals[hi])
    return ExtGridFn(f_open.domain, np.where(marked, vals, best))


def _check_mask(f: ExtGridFn, U_mask: ScanMask):
    if not f.domain.same_as(U_mask.domain):
        raise ValueError("mask domain differs from function domain")
    if U_mask.count == 0:
        raise ValueError("mask is empty")
    if not _connected(U_mask.marked):
        raise ValueError("mask is disconnected")


def _discrete_c2_bound(phi: ExtGridFn) -> float:
    """|phi| + |grad phi| + curvature bound from the sampled data.

    The curvature part is the larger of the spectral norm of the central
    difference Hessian and the raw directional second-difference quotients,
    so quadratic splits and Goodey-Weil corners pass the convexity check.
    """
    vals = phi.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("phi must be finite everywhere")
    dom = phi.domain
    sup = float(np.max(np.abs(vals)))
    grads = np.reshape(np.gradient(vals, *dom.axes(), edge_order=1),
                       (dom.ndim,) + vals.shape)
    gnorm = float(np.max(np.sqrt(np.sum(grads * grads, axis=0))))
    curv = 0.0
    dx = dom.spacing
    for d in _directions(dom.ndim):
        vm, vc, vp = _shifted_views(vals, d)
        step2 = float(np.sum((dx * np.array(d))**2))
        curv = max(curv, float(np.max(np.abs(vm - 2 * vc + vp))) / step2)
    if all(s >= 5 for s in dom.shape):  # Hessians two cells in from the boundary
        H = central_hessian_at(vals, dx, np.argwhere(~_margin_mask(dom.shape, 2)))
        curv = max(curv, float(np.max(np.abs(np.linalg.eigvalsh(H)))))
    return sup + gnorm + curv


def central_hessian_at(values, spacing, idx):
    """Central-difference Hessians, shape (..., M, n, n), at the (M, n)
    integer cell indices of a (..., *grid) value stack with grid spacing dx.

    Every stencil point must be in range and finite; raises otherwise.
    """
    dx = np.asarray(spacing, dtype=float)
    n = dx.size
    grid = values.shape[-n:]
    idx = np.atleast_2d(np.asarray(idx, dtype=int))
    shape = np.array(grid)
    if np.any(idx < 1) or np.any(idx > shape - 2):
        raise ValueError("Hessian stencil leaves the grid")
    flat = values.reshape(values.shape[:-n] + (-1,))
    strides = np.ones(n, dtype=int)
    for a in range(n - 2, -1, -1):
        strides[a] = strides[a + 1] * shape[a + 1]
    base = idx @ strides

    def at(offset):
        vals = flat[..., base + np.asarray(offset, dtype=int) @ strides]
        if not np.all(np.isfinite(vals)):
            raise ValueError("Hessian stencil touches a +inf cell")
        return vals

    center = at(np.zeros(n, dtype=int))
    H = np.empty(center.shape + (n, n))
    for i in range(n):
        e = np.zeros(n, dtype=int)
        e[i] = 1
        H[..., i, i] = (at(e) - 2.0 * center + at(-e)) / dx[i]**2
        for j in range(i + 1, n):
            ej = np.zeros(n, dtype=int)
            ej[j] = 1
            mixed = (at(e + ej) - at(e - ej) - at(-e + ej) + at(-e - ej)) \
                / (4.0 * dx[i] * dx[j])
            H[..., i, j] = mixed
            H[..., j, i] = mixed
    return H


def _test_function(phi, domain: GridDomain):
    """Values on `domain` and the C2-type bound of a test function, read from
    its samples: a Bump is sampled on `domain`, a grid function must live there."""
    if isinstance(phi, Bump):
        phi = phi.sample(domain)
    elif not isinstance(phi, ExtGridFn):
        raise TypeError("test functions must be Bump or ExtGridFn")
    elif not phi.domain.same_as(domain):
        raise ValueError("test function domain mismatch")
    return phi.values, _discrete_c2_bound(phi)


def convex_split(phi, domain: GridDomain | None = None):
    """Write phi as a difference f - h of two discretely convex functions.

    f = c|x|^2/2 + phi and h = c|x|^2/2 with c the C2-type bound of phi.
    A grid input lives on its own domain; a Bump needs one.
    """
    if domain is None:
        if isinstance(phi, Bump):
            raise ValueError("a domain is required for Bump input")
        domain = phi.domain
    vals, c = _test_function(phi, domain)
    q = 0.5 * np.sum(domain.points()**2, axis=1).reshape(domain.shape)
    return ExtGridFn(domain, c * q + vals), ExtGridFn(domain, c * q)
