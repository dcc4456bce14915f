"""Constructive convex analysis on grid functions.

Conjugation, Lipschitz regularization, epi-distance, support-function
sampling, reconstruction through truncated conjugate epigraphs, convex
extension from a sub-box, lsc extension/restriction and convex splitting.
"""

import warnings
from functools import cache
from math import prod

import numpy as np

from .errors import ConvexityViolation, DomainExceeded
from .grids import (Bump, ExtGridFn, GridDomain, Polytope, ScanMask, _margin_mask,
                    _product_points)

# Floats in one temporary block of the row-blocked kernels: 2^17, 1 MB.
# gw_report and polarize size their blocks of corners from it, a scan of a
# spec with a callable its blocks of probes, and a fresh CLI process faults
# each block's pages in. Rows reduce on their own, so no value depends on
# the size.
_BLOCK = 1 << 17
# Floats one block of a Legendre axis pass (_separable_max) holds per
# line, times lines: 2^14. A bisected line counts its grid plus dual-grid
# points, N + M, a direct one its N M terms. Each block pays _line_max's
# fixed cost, a few dozen numpy calls per bisection step. On the seed-3
# 129^2 benchmark input (3 blocks of 43 lines a pass), legendre peaks at 2.9
# floats per grid and dual-grid point against 6.2 when each pass took all
# lines at once, and _separable_max takes 7.8 ms against 6.8 (medians of 60
# interleaved calls); 2^13 gives 2.3 floats in 10.2 ms and 2^15 3.9 floats
# in 6.7 ms. Direct blocks sized by N + M held 11.1 floats per point on
# 17^3; by N M they hold 4.3, for 0.2 ms more per legendre and gap.
_LINES = 1 << 14


@cache
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
    return tuple(dirs)


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


def is_discretely_convex(f: ExtGridFn) -> bool:
    """Second differences along axis and diagonal directions >= -1e-9*scale,
    and finite cells form a contiguous segment along every axis scan line.
    """
    return bool(_convex_rows(f.values[None])[0])


def _convex_rows(stack):
    """is_discretely_convex for each row of a (B, *grid) value stack, each
    row against its own scale. A stack with no +inf cell skips the masking
    and the scan-line test, which then hold trivially.
    """
    rows, ndim = stack.shape[0], stack.ndim - 1
    axes = tuple(range(1, ndim + 1))
    fin = np.isfinite(stack)
    finite = bool(fin.all())
    vals = stack if finite else np.where(fin, stack, 0.0)
    thr = -1e-9 * (1.0 + np.max(np.abs(vals), axis=axes))
    ok = np.ones(rows, dtype=bool)
    for d in _directions(ndim):
        vm, vc, vp = _shifted_views(vals, (0,) + d)
        second = np.multiply(vc, -2.0)  # (vm - 2 vc) + vp, in one temporary
        second += vm
        second += vp
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
        ok = np.isfinite(v[..., 1:])
        ok &= np.isfinite(v[..., :-1])
        if np.any(ok):  # the quotients of the finite pairs, in one temporary
            d = np.full(ok.shape, np.inf)
            np.subtract(v[..., 1:], v[..., :-1], out=d, where=ok)
            d /= dx[a]
            lo.append(float(d.min()))
            d[~ok] = -np.inf
            hi.append(float(d.max()))
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


def _require_finite(**args):
    """Raise a ValueError naming the first argument with a NaN or infinite entry."""
    for name, value in args.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def _by_rows(count, width, block):
    """block(i, j) for rows i:j of `count`, in blocks of about _BLOCK / width
    rows, and at least one, so no temporary exceeds _BLOCK floats unless one
    row does; results are stacked."""
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
    maximises over one axis of p, for a block of lines of that axis at once
    (_line_max), which writes into the pass's output. The blocks are equal
    slices of the first other axis, as few as keep the floats a line holds
    (see _LINES) times lines within _LINES, so a pass holds the input, its
    output and one block's temporaries. A line's maximum does not depend on
    the other lines of its block. -inf cells drop out of every later maximum.
    """
    for a, (xa, ya) in enumerate(zip(axes, dual_axes)):
        lines = np.moveaxis(vals, a, 0)
        rest = lines.shape[1:]
        # (N, R, S): a slice of R is a view of whole lines
        n, m = xa.size, ya.size
        lines = lines.reshape((n, rest[0] if rest else 1, -1))
        out = np.empty((m,) + lines.shape[1:])
        held = n * m if _stride(n, m) == 1 else n + m  # N M terms when direct
        blocks = -(-held * lines[0].size // _LINES)
        step = -(-lines.shape[1] // blocks)
        for i in range(0, lines.shape[1], step):  # (M, L) views of whole lines
            _line_max(lines[:, i:i + step].reshape(n, -1), xa, ya,
                      out[:, i:i + step].reshape(m, -1))
        vals = np.moveaxis(out.reshape((m,) + rest), 0, a)
    return vals


def _stride(n, m):
    """s of _line_max for N grid and M dual points on the axis."""
    return max(1, -(-n * (m - 1) // (8 * (n + m))))


def _line_max(p, x, y, out):
    """The (M, L) maxima, written to `out`, over i of g_j(i) =
    fl(fl(y_j x_i) + p_i) for each column p of the (N, L) array p and each
    y_j of the increasing y, bit for bit the direct maximum, with L the
    lines of one block of _separable_max: by bisection in O(L (N log M + M))
    work and O(L (N + M)) memory, or directly in O(L N M) of both on short
    axes. A column's maxima depend on no other column: D below is taken
    over the block, and any bound on the rounding of its terms keeps every
    window's maximizer.

    On short axes, where N (M - 1) <= 8 (N + M), every dual point is taken
    over whole lines in one block: the direct maximum. Otherwise every s-th
    dual point and the last, with s = ceil(N (M - 1) / (8 (N + M))), are
    taken over whole lines, in chunks of about N + M terms per line
    with the cells last: argmax along them gives each line's first
    maximizer k, and fl(fl(y_j x_k) + p_k), evaluated again, is the maximum,
    bit for bit. The rest are taken by bisection: the middle m of each
    interval (l, r) of known points, over the window from the maximizer k_l
    found at l less w cells to the one found at r plus w cells. With c the
    fewest dual steps from a middle point to its interval's ends, dy and h
    the smallest dual and primal steps, u the unit roundoff and
    D = u (2 max|y| max|x| + max|p|) over finite p, w = floor(8 D / (c dy h)).
    On ordinary grids 8 D is far below dy h and w is 0.

    Why each window holds a maximizer of g_m, so that its maximum is the
    line's. Let e_j(i) = y_j x_i + p_i exactly; with one rounding of y x and
    one of the sum, each evaluated term is within E = (1 + u) D of it.
    Suppose k = k_l maximizes g_l over the whole line (true in the first
    block, and then at every window by induction) and i < k - w. Then
    k - i >= w + 1 > 8 D / (c dy h) as computed, which is more than
    4 E / ((y_m - y_l) h) since y_m - y_l >= c dy, the spare factor 2
    covering the rounding of D, dy, h and the quotient. As x_k - x_i is at
    least (k - i) h, (y_m - y_l)(x_k - x_i) > 4 E and
        e_m(i) - e_m(k) = e_l(i) - e_l(k) - (y_m - y_l)(x_k - x_i)
                        < (g_l(i) - g_l(k) + 2 E) - 4 E <= -2 E,
    so g_m(i) <= e_m(i) + E < e_m(k) - E <= g_m(k): i is no maximizer at m.
    The right side is the mirror image. A -inf cell is never above a finite
    one, and a line of -inf cells keeps its first cell as maximizer, which
    every later window holds (each window takes its first maximizer). No
    term overflows unless 2 max|y| max|x| + max|p| does, and then D is
    infinite and every window is the whole line.

    The windows of one bisection step are laid end to end and taken in
    chunks of whole dual points, about 8 (N + M) cells per line each, so
    wide windows (values far above their slopes times the steps) cost
    work, up to the direct N M per line, but no more memory.
    """
    n, rows = p.shape
    budget = 8 * rows * (n + y.size)
    s = _stride(n, y.size)
    if s == 1:  # every dual point: the direct maximum
        return (np.multiply.outer(x, y)[:, :, None] + p[:, None, :]).max(axis=0, out=out)
    arg = np.empty((y.size, rows), dtype=np.intp)
    flat, xs = p.T.ravel(), np.tile(x, rows)    # line by line
    lines, every = flat.reshape(rows, n), np.arange(rows)
    ends = np.append(np.arange(0, y.size - 1, s), y.size - 1)
    per = max(1, (n + y.size) // n)             # dual points per first-block chunk
    for j in range(0, ends.size, per):
        e = ends[j:j + per]
        g = np.multiply.outer(y[e], x)[:, None, :] + lines
        k = arg[e] = g.argmax(axis=2)           # the first maximizer on each line
        del g
        out[e] = y[e, None] * x[k] + p[k, every]    # its term, the same bits

    # 8 D and dy h as Python floats; 8 u = 4 eps
    d8 = 4 * np.finfo(float).eps * float(2 * np.max(np.abs(y)) * np.max(np.abs(x))
                                         + np.max(np.abs(p), where=np.isfinite(p), initial=0.0))
    step = float(np.min(np.diff(y)) * np.min(np.diff(x)))
    first_cell = np.arange(rows) * n
    left, right = ends[:-1], ends[1:]
    while True:
        wide = right - left >= 2
        left, right = left[wide], right[wide]
        if not left.size:
            return out
        mid = (left + right) // 2
        gap = step * int(np.min(mid - left))         # right - mid >= mid - left
        w = n if d8 >= n * gap else int(d8 / gap)
        lo = np.maximum(arg[left] - w, 0)
        hi = np.minimum(arg[right] + w, n - 1)
        bisect_next = np.max(right - left) >= 3     # arg at mid is needed
        size = hi - lo + 1
        group = size.sum(axis=1)                     # window cells per dual point
        total = np.cumsum(group)                     # chunks of about `budget` cells
        bounds = range(budget, int(total[-1]), budget)
        cuts = [0, *(np.searchsorted(total, bounds).tolist() if bounds else []), mid.size]
        for a, b in zip(cuts[:-1], cuts[1:]):
            part = size[a:b].ravel()
            start = np.cumsum(part) - part
            cell = np.arange(start[-1] + part[-1])
            cell += np.repeat((first_cell + lo[a:b]).ravel() - start, part)
            g = np.repeat(y[mid[a:b]], group[a:b])
            g *= xs[cell]
            g += flat[cell]
            best = np.maximum.reduceat(g, start)
            out[mid[a:b]] = best.reshape(-1, rows)
            if bisect_next:
                hit = np.flatnonzero(g == np.repeat(best, part))
                arg[mid[a:b]] = cell[hit[np.searchsorted(hit, start)]].reshape(-1, rows) - first_cell
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])


def legendre(f: ExtGridFn, dual_domain: GridDomain | None = None) -> ExtGridFn:
    """Discrete convex conjugate: f*(y) = max over finite cells of <y,x> - f(x).

    The separable maximum of -f, with a -inf sentinel at +inf cells.
    """
    if dual_domain is None:
        dual_domain = default_dual_domain(f)
    elif dual_domain.ndim != f.domain.ndim:
        raise ValueError("dual domain dimension mismatch")
    else:
        lo, hi = slope_range(f)
        slack = 1e-9 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        if np.any(dual_domain.lo > lo + slack) or np.any(dual_domain.hi < hi - slack):
            warnings.warn("dual domain does not cover the slope range of f",
                          stacklevel=2)
    # -f is the -inf sentinel at the +inf cells; no name holds it, so
    # _separable_max frees it after the first axis pass
    return ExtGridFn._of(dual_domain, _separable_max(np.negative(f.values), f.domain.axes(),
                                                     dual_domain.axes()))


def biconjugate(f: ExtGridFn, fstar: ExtGridFn | None = None) -> ExtGridFn:
    """legendre(legendre(f)) back on the primal grid, from `fstar`, the
    conjugate legendre(f), when the caller already has it.

    The discrete construction satisfies f** <= f at finite cells in exact
    arithmetic; the result is clamped there to remove sub-ulp rounding
    overshoot so the dominance invariant holds for the returned values.
    """
    fss = legendre(legendre(f) if fstar is None else fstar, f.domain)
    # at the +inf cells of f the minimum is f**
    return ExtGridFn._of(f.domain, np.minimum(fss.values, f.values))


def biconjugate_gap(f: ExtGridFn, fstar: ExtGridFn | None = None) -> float:
    """sup over finite interior cells of |f** - f|; zero certifies convexity.
    `fstar`, when given, is legendre(f)."""
    fss = biconjugate(f, fstar)
    inner = (slice(1, -1),) * f.domain.ndim
    sel = np.isfinite(f.values[inner])
    if not np.any(sel):
        return 0.0
    diff = np.subtract(fss.values[inner], f.values[inner], out=np.zeros(sel.shape), where=sel)
    return float(np.max(np.abs(diff, out=diff)))


def _cone_min(tgt, src, vals, L, work):
    """min over j of vals_j + L |tgt_i - src_j| for (T, n) targets and (S, n)
    sources, as (T,). Squares are summed axis by axis, in the order
    np.linalg.norm adds them, so every pair gets the same bits wherever it
    is evaluated. The (T, S) arrays live in the float buffer `work`, at
    least 2 T S long, which the caller reuses: fresh arrays of this size
    would be mapped and faulted in anew for every box."""
    t, s = tgt.shape[0], src.shape[0]
    sq, d = work[:t * s].reshape(t, s), work[t * s:2 * t * s].reshape(t, s)
    np.subtract.outer(tgt[:, 0], src[:, 0], out=sq)
    np.square(sq, out=sq)
    for a in range(1, tgt.shape[1]):
        np.subtract.outer(tgt[:, a], src[:, a], out=d)
        np.square(d, out=d)
        sq += d
    np.sqrt(sq, out=sq)
    sq *= L
    sq += vals
    return sq.min(axis=1)


def _tiles(shape):
    """(tiles, cells) flat grid indices of about 256 boxes of cells, or 32 on
    a line, where 256 boxes would hold a few cells each and the per-box numpy
    calls would cost more than the pairs they skip; boxes at the far end are
    padded by repeating their last cell, which changes no minimum."""
    per_axis = 32 if len(shape) == 1 else int(np.ceil(256 ** (1 / len(shape))))
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
    if not r > 0:  # NaN included; r = inf is the infimum of f
        raise ValueError("r must be positive")
    if not is_discretely_convex(f):
        raise ConvexityViolation("input must be discretely convex")
    L = 1.0 / r
    fin = f.finite_mask
    if not np.any(fin):
        raise ValueError("regularization of an improper function")
    pts = f.domain.points()
    vals = f.values.ravel()
    # the cells on every 4th grid line of each axis, for upper bounds
    strided = np.zeros(fin.shape, dtype=bool)
    strided[(slice(None, None, 4),) * fin.ndim] = True
    strided = (strided & fin).ravel()
    src, sv = pts[strided], vals[strided]
    cells = _tiles(fin.shape)
    tp, tv = pts[cells], vals[cells]            # +inf sources never win
    del pts
    lo, hi, vmin = tp.min(axis=1), tp.max(axis=1), tv.min(axis=1)
    out, work = np.empty(vals.size), np.empty(2 * tp.shape[1] * sv.size)
    # kept boxes are taken `per` at a time, so the buffer holds at most 6
    # floats per grid cell however many boxes a box keeps. On the seed-3
    # 17^3 benchmark input it traces 0.70 MB against 1.01 MB at 24 floats,
    # in up to 1.1x the time; 8 floats traced 0.77 MB
    per = max(1, 3 * vals.size // tp.shape[1] ** 2)
    for a, box in enumerate(tp):
        # ub(x), the minimum over the strided sources, is attained and so an
        # upper bound. Box a skips box b when min_b f + L dist(a, b) > max_a
        # ub. For x in a and y in b, |x_i - y_i| is at least the gap between
        # the boxes on axis i and rounding is monotone, so the evaluated
        # f(y) + L|x - y| is at least the evaluated bound; past the slack it
        # exceeds ub(x), a value from a kept box, so no skipped pair is a
        # minimum and the minimum over the kept pairs is the full one, bit
        # for bit.
        ubmax = _cone_min(box, src, sv, L, work).max() if sv.size else np.inf
        gap = np.maximum(0.0, np.maximum(lo - hi[a], lo[a] - hi))
        sq = gap[:, 0] ** 2
        for i in range(1, gap.shape[1]):
            sq += gap[:, i] ** 2
        reach = L * np.sqrt(sq)
        slack = 1e-12 * (np.abs(vmin) + reach + np.abs(ubmax))
        kept = np.flatnonzero(np.isfinite(vmin) & (vmin + reach <= ubmax + slack))
        need = 2 * tp.shape[1] ** 2 * min(kept.size, per)
        if work.size < need:
            del work  # before its successor, so the two never coexist
            work = np.empty(need)
        best = np.inf
        for part in np.split(kept, range(per, kept.size, per)):
            best = np.minimum(best, _cone_min(box, tp[part].reshape(-1, box.shape[1]),
                                              tv[part].ravel(), L, work))
        out[cells[a]] = best
    return ExtGridFn._of(f.domain, out)


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


def _support_values(K: Polytope, axes):
    """h_K(x, -1) = max over vertices (y,t) of <y,x> - t at every point of
    the product grid `axes`, in its shape."""
    n = len(axes)
    if K.ambient_dim != n + 1:
        raise ValueError("polytope must live in V* x R")
    vals = _pairing_max(_product_points(axes), K.vertices[:, :n], K.vertices[:, n])
    return vals.reshape(tuple(a.size for a in axes))


def body_to_function(K: Polytope, domain: GridDomain) -> ExtGridFn:
    """Sample x -> h_K(x, -1) on the grid."""
    return ExtGridFn._of(domain, _support_values(K, domain.axes()))


def reconstruct_from_conjugate(f: ExtGridFn, R: float,
                               fstar: ExtGridFn | None = None) -> ExtGridFn:
    """Support evaluation of the truncated conjugate epigraph.

    With c the sup of |f| on the ball of radius R+2, the body is
    epi(f*) with |y| <= 2c and |t| <= (2R+3)c; its support function in
    direction (x, -1) recovers f on the ball of radius R+1. `fstar`, when
    given, is legendre(f); otherwise it is taken after every check passes.
    """
    _require_finite(R=R)
    if R <= 0:
        raise ValueError("R must be positive")
    dom = f.domain
    if np.any(dom.lo > -(R + 2)) or np.any(dom.hi < R + 2):
        raise DomainExceeded("domain must contain the ball of radius R+2")
    rad = dom.point_norms(center=np.zeros(dom.ndim))
    ball = rad <= R + 2
    if not np.all(np.isfinite(f.values[ball])):
        raise ValueError("f must be finite on the ball of radius R+2")
    if fstar is None:
        fstar = legendre(f)
    c = float(np.max(np.abs(f.values[ball])))
    c = max(c, 1e-300)
    ynorm = fstar.domain.point_norms(center=np.zeros(dom.ndim))
    tcap = (2 * R + 3) * c
    keep = (ynorm <= 2 * c * (1 + 1e-12)) & (fstar.values <= tcap)
    if not np.any(keep):
        keep.flat[np.argmin(ynorm)] = True
    # the body's support in direction (x, -1): a separable maximum over the
    # kept dual cells, the others carrying the -inf sentinel
    charge = np.where(keep, -np.maximum(fstar.values, -tcap), -np.inf)
    return ExtGridFn._of(dom, _separable_max(charge, fstar.domain.axes(), dom.axes()))


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


def extend_from_subdomain(f: ExtGridFn, A_lo, A_hi, s: float, fill=None) -> ExtGridFn:
    """Finite convex extension of f from the box [A_lo - s, A_hi + s].

    Outside the box the value is the max over supporting planes of the box
    data (the chordal extrapolation sup); inside it the input is kept
    verbatim. The output is finite everywhere and discretely convex.

    With `fill`, a boolean grid, only the cells it sets are extended: the
    other cells outside the box keep f's values. Every check runs whatever
    `fill` is; the hull is built, and scipy loaded, only when a cell to fill
    lies outside the box.
    """
    dom = f.domain
    A_lo = np.atleast_1d(np.asarray(A_lo, dtype=float))
    A_hi = np.atleast_1d(np.asarray(A_hi, dtype=float))
    _require_finite(A_lo=A_lo, A_hi=A_hi, s=s)
    if fill is not None and np.shape(fill) != dom.shape:
        raise ValueError("fill must be a boolean grid of f's shape")
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
    box = np.zeros(dom.shape, dtype=bool)
    box[window] = True
    targets = ~box if fill is None else fill & ~box
    if not np.any(targets):
        return f

    # Only facets with a vertex on the box boundary can be the largest plane
    # outside the box. Take x outside, any lower facet F with plane P, a point
    # z of F and the point b where the segment from z to x leaves the box. The
    # facet containing b has a vertex on the box face through b; its plane Q
    # touches the envelope at b while P touches it at z. Q - P is affine along
    # the segment, <= 0 at z and >= 0 at b, so Q(x) >= P(x) beyond b.
    pts = dom.points()
    edge = _margin_mask(sub.domain.shape, 1).ravel()
    slopes, offsets = _lower_hull_planes(pts[box.ravel()], sub.values.ravel(), edge)
    out = np.array(f.values)
    out[targets] = _pairing_max(pts[targets.ravel()], slopes, -offsets)
    return ExtGridFn._of(dom, out)


def _connected(mask):
    from scipy import ndimage  # imported here for start-up time, as in _lower_hull_planes

    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    _, num = ndimage.label(mask, structure=structure)
    return num == 1


def restrict(f: ExtGridFn, U_mask: ScanMask) -> ExtGridFn:
    """+inf outside the marked cells, f on them."""
    _check_mask(f, U_mask)
    return ExtGridFn._of(f.domain, np.where(U_mask.marked, f.values, np.inf))


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
    return ExtGridFn._of(f_open.domain, np.where(marked, vals, best))


def _check_mask(f: ExtGridFn, U_mask: ScanMask):
    if not f.domain.same_as(U_mask.domain):
        raise ValueError("mask domain differs from function domain")
    if U_mask.count == 0:
        raise ValueError("mask is empty")
    if not _connected(U_mask.marked):
        raise ValueError("mask is disconnected")


def _curvature(values, spacing):
    """The largest |second difference| / |d∘dx|^2 of a grid of values over
    the directions d of _directions, the quotients that _convex_rows reads;
    inf where they overflow.

    |x|^2 has the second difference 2|d∘dx|^2 in every direction, so |x|^2
    plus functions of curvature at most c, at steps that sum to at most 1/c,
    keeps every second difference at least |d∘dx|^2 > 0.
    """
    dirs = _directions(values.ndim)
    denominators = np.sum((spacing * np.array(dirs))**2, axis=1)
    curv = 0.0
    with np.errstate(over="ignore", divide="ignore"):
        for d, den in zip(dirs, denominators):
            vm, vc, vp = _shifted_views(values, d)
            second = np.multiply(vc, -2.0)
            second += vm
            second += vp
            curv = max(curv, float(np.max(np.abs(second, out=second)) / den))
    return curv


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
    strides = [prod(grid[a + 1:]) for a in range(n)]  # the flat offset of e_a
    base = idx @ strides

    def at(offset):
        vals = flat[..., base + offset]
        if not np.isfinite(vals).all():
            raise ValueError("Hessian stencil touches a +inf cell")
        return vals

    center = at(0)
    H = np.empty(center.shape + (n, n))
    for i, si in enumerate(strides):
        H[..., i, i] = (at(si) - 2.0 * center + at(-si)) / dx[i]**2
        for j in range(i + 1, n):
            sj = strides[j]
            mixed = (at(si + sj) - at(si - sj) - at(-si + sj) + at(-si - sj)) \
                / (4.0 * dx[i] * dx[j])
            H[..., i, j] = mixed
            H[..., j, i] = mixed
    return H


def _test_function(phi, domain: GridDomain):
    """Values on `domain` and the curvature of a test function, read from its
    samples: a Bump is sampled on `domain`, a grid function must live there.
    Both must be finite everywhere, and so must their curvature."""
    if isinstance(phi, Bump):
        phi = phi.sample(domain)
    elif not isinstance(phi, ExtGridFn):
        raise TypeError("test functions must be Bump or ExtGridFn")
    elif not phi.domain.same_as(domain):
        raise ValueError("test function domain mismatch")
    if not np.all(np.isfinite(phi.values)):
        raise ValueError("phi must be finite everywhere")
    curvature = _curvature(phi.values, domain.spacing)
    if curvature == np.inf:
        raise ValueError("the curvature of phi overflows the float range")
    return phi.values, curvature


def convex_split(phi, domain: GridDomain | None = None):
    """Write phi as a difference f - h of two discretely convex functions.

    f = c|x|^2/2 + phi and h = c|x|^2/2 with c the curvature of phi, so every
    second difference of f is at least 0 (see _curvature).
    A grid input lives on its own domain; a Bump needs one.
    """
    if domain is None:
        if isinstance(phi, Bump):
            raise ValueError("a domain is required for Bump input")
        domain = phi.domain
    vals, c = _test_function(phi, domain)
    q = 0.5 * np.sum(domain.points()**2, axis=1).reshape(domain.shape)
    return ExtGridFn._of(domain, c * q + vals), ExtGridFn._of(domain, c * q)
