import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

from epival import (
    Bump,
    ConvexityViolation,
    DomainExceeded,
    ExtGridFn,
    GridDomain,
    PairingMeasure,
    Polytope,
    ScanMask,
    biconjugate,
    biconjugate_gap,
    body_to_function,
    convex_split,
    default_dual_domain,
    epi_distance,
    extend_from_subdomain,
    is_discretely_convex,
    legendre,
    lipschitz_bound,
    lipschitz_regularize,
    lsc_extend,
    random_convex_fn,
    reconstruct_from_conjugate,
    restrict,
    seminorm_estimate,
    slope_range,
)
from epival import convex
from epival.convex import _BLOCK, _convex_rows, _separable_max

from helpers import (
    brute_chord_extension_1d,
    brute_conjugate,
    brute_convex_envelope_1d,
    brute_inf_convolution,
    brute_lsc_extend,
    direct_separable_max,
    grid1d,
    grid2d,
    peak_floats,
    quadratic,
    random_connected_mask,
    sample,
)


# ---------------------------------------------------------------- convexity

def test_convexity_examples():
    d = grid1d()
    x = d.points().ravel()
    assert is_discretely_convex(ExtGridFn(d, x**2))
    assert not is_discretely_convex(ExtGridFn(d, -(x**2)))
    assert is_discretely_convex(ExtGridFn(d, np.abs(x)))


def test_convexity_diagonal_direction_matters():
    d = grid2d(n=9)
    p = d.points()
    # saddle passes both axis tests but fails on a diagonal
    f = ExtGridFn(d, 2.0 * p[:, 0] * p[:, 1])
    assert not is_discretely_convex(f)


def test_convexity_infinity_patterns():
    d = grid1d(n=7)
    point_indicator = ExtGridFn(d, [np.inf] * 3 + [0.0] + [np.inf] * 3)
    assert is_discretely_convex(point_indicator)
    gap = ExtGridFn(d, [0.0, np.inf, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert not is_discretely_convex(gap)


def test_convexity_rows_are_checked_independently():
    d = grid1d(n=7)
    x = d.points().ravel()
    rows = [1e6 * x**2,                                   # large scale
            x + 1e-6 * (np.arange(7) == 3),               # small kink, small scale
            [np.inf] * 3 + [0.0] + [np.inf] * 3,          # point indicator
            [0.0, np.inf, 0.0, 0.0, 0.0, 0.0, 0.0],       # +inf gap
            np.abs(x)]
    got = _convex_rows(np.array(rows, dtype=float))
    assert got.tolist() == [True, False, True, False, True]
    assert got.tolist() == [is_discretely_convex(ExtGridFn(d, r)) for r in rows]


def test_convexity_all_finite_stack_agrees_with_masked_stack():
    d = grid2d(n=15)
    p = d.points()
    r2 = np.sum(p**2, axis=1).reshape(d.shape)
    rng = np.random.default_rng(23)
    disc = np.where(r2 <= 2.0, r2, np.inf)
    holed = np.array(r2)
    holed[7, 3] = np.inf                                  # +inf between finite cells
    finite = [random_convex_fn(d, rng).values for _ in range(3)] + [
        -r2, r2 + 0.2 * rng.normal(size=d.shape), np.abs(p[:, 0] - p[:, 1]).reshape(d.shape)]
    with_inf = [disc, holed, np.where(r2 <= 2.0, -r2, np.inf)]
    stack = np.array(finite + with_inf)
    got = _convex_rows(stack)
    assert got.tolist() == [is_discretely_convex(ExtGridFn(d, r)) for r in stack]
    assert got.tolist() == [True] * 3 + [False, False, True, True, False, False]
    assert np.array_equal(_convex_rows(stack[:len(finite)]), got[:len(finite)])


# ----------------------------------------------------------------- legendre

def test_legendre_self_conjugate():
    d = GridDomain([-4.0], [4.0], [257])
    f = quadratic(d)  # x^2 / 2
    fs = legendre(f, GridDomain([-4.0], [4.0], [257]))
    y = np.linspace(-4, 4, 257)
    dx = 8.0 / 256
    assert np.max(np.abs(fs.values - 0.5 * y**2)) <= 2 * dx


def test_legendre_abs_gives_ball_indicator_shape():
    d = GridDomain([-2.0], [2.0], [129])
    f = sample(d, lambda p: np.abs(p[:, 0]))
    fs = legendre(f)
    y = fs.domain.points().ravel()
    dy = fs.domain.spacing[0]
    inside = np.abs(y) <= 1.0 - dy
    assert np.max(np.abs(fs.values[inside])) <= 1e-12
    outside = np.abs(y) > 1.0 + dy
    if np.any(outside):
        assert np.all(fs.values[outside] >= 0.0)


def test_legendre_matches_brute_force_and_roundtrips():
    rng = np.random.default_rng(11)
    d = grid1d(n=65)
    for _ in range(5):
        f = random_convex_fn(d, rng)
        dual = default_dual_domain(f)
        assert np.allclose(legendre(f, dual).values,
                           brute_conjugate(f, dual).values, atol=1e-11)
        fss = biconjugate(f)
        lip = lipschitz_bound(f)
        inner = slice(1, -1)
        err = np.max(np.abs(fss.values[inner] - f.values[inner]))
        assert err <= 4 * d.spacing[0] * lip


def _assert_matches_brute_conjugate(f):
    dual = default_dual_domain(f)
    got = legendre(f, dual).values
    want = brute_conjugate(f, dual).values
    assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


def test_legendre_2d_matches_brute_conjugate():
    rng = np.random.default_rng(5)
    d = grid2d(n=17)
    f = random_convex_fn(d, rng)
    _assert_matches_brute_conjugate(f)
    # +inf outside a disc: whole lines carry the sentinel into the next axis
    disc = np.linalg.norm(d.points(), axis=1).reshape(d.shape) <= 1.3
    _assert_matches_brute_conjugate(ExtGridFn(d, np.where(disc, f.values, np.inf)))


def test_legendre_order_reversal_exact():
    rng = np.random.default_rng(7)
    d = grid1d(n=65)
    f = random_convex_fn(d, rng)
    g = ExtGridFn(d, f.values + np.abs(np.sin(d.points().ravel())))  # g >= f
    dual = default_dual_domain(g)
    fs = legendre(f, dual)
    gs = legendre(g, dual)
    assert np.all(fs.values >= gs.values)


def _random_grid_fn(data, seed):
    """A random convex function on a random 1-3D grid, +inf outside a
    random sub-box half of the time."""
    n = data.draw(st.integers(1, 3))
    shape = [data.draw(st.integers(3, {1: 40, 2: 12, 3: 6}[n])) for _ in range(n)]
    lo = [data.draw(st.floats(-3.0, -0.5)) for _ in range(n)]
    hi = [data.draw(st.floats(0.5, 3.0)) for _ in range(n)]
    d = GridDomain(lo, hi, shape)
    f = random_convex_fn(d, np.random.default_rng(seed))
    if data.draw(st.booleans()):
        idx = np.indices(d.shape)
        box = np.ones(d.shape, dtype=bool)
        for a, m in enumerate(d.shape):
            i = data.draw(st.integers(0, m - 1))
            box &= (idx[a] >= i) & (idx[a] <= data.draw(st.integers(i, m - 1)))
        f = ExtGridFn(d, np.where(box, f.values, np.inf))
    return f


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_fenchel_young_at_every_pair(seed, data):
    """f(x) + f*(y) >= <x, y> at every primal cell and dual point, up to
    the rounding of the sums."""
    f = _random_grid_fn(data, seed)
    fstar = legendre(f)
    x, y = f.domain.points(), fstar.domain.points()
    fin = f.finite_mask.ravel()
    fx, fy = f.values.ravel()[fin], fstar.values.ravel()
    xy = x[fin] @ y.T
    scale = 1.0 + np.max(np.abs(fx)) + np.max(np.abs(fy)) + np.max(np.abs(xy))
    assert np.min(fx[:, None] + fy[None, :] - xy) >= -1e-13 * scale


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_conjugate_of_an_affine_shift_is_the_shifted_conjugate(seed, data):
    """(f + <a, .> + c)*(z) = f*(z - a) - c, with z on the dual grid of f*
    shifted by a."""
    f = _random_grid_fn(data, seed)
    n = f.domain.ndim
    a = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    c = data.draw(st.floats(-5.0, 5.0))
    dual = default_dual_domain(f)
    fstar = legendre(f, dual)
    with warnings.catch_warnings():  # the identity holds on any dual grid
        warnings.simplefilter("ignore")
        gstar = legendre(f.add_affine(a, c), GridDomain(dual.lo + a, dual.hi + a, dual.shape))
    x = f.domain.points()[f.finite_mask.ravel()]
    reach = np.max(np.abs(x)) * (np.max(np.abs(dual.points())) + np.max(np.abs(a)))
    scale = 1.0 + np.max(np.abs(f.values[f.finite_mask])) + abs(c) + reach
    assert np.max(np.abs(gstar.values - (fstar.values - c))) <= 1e-13 * scale


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_order_reversal_on_a_shared_dual_grid(seed, data):
    """f <= g in every cell gives f* >= g* exactly: each term of g* is at
    most the matching term of f*, and rounding is monotone."""
    f = _random_grid_fn(data, seed)
    rng = np.random.default_rng(seed + 1)
    g = f.values + data.draw(st.floats(0.0, 5.0)) * rng.uniform(0.0, 1.0, f.domain.shape)
    if data.draw(st.booleans()):
        g = np.where(rng.uniform(size=g.shape) < 0.3, np.inf, g)
    assume(np.any(np.isfinite(g)))
    dual = default_dual_domain(f)
    with warnings.catch_warnings():  # the order holds on any dual grid
        warnings.simplefilter("ignore")
        gstar = legendre(ExtGridFn(f.domain, g), dual)
    assert np.all(legendre(f, dual).values >= gstar.values)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_biconjugate_is_dominated_by_f(seed, data):
    """f** <= f at finite cells: the second conjugate passes f by rounding
    only, and the clamped biconjugate not at all."""
    f = _random_grid_fn(data, seed)
    fstar = legendre(f)
    fin = f.finite_mask
    raw = legendre(fstar, f.domain).values[fin]
    reach = np.max(np.abs(f.domain.points())) * np.max(np.abs(fstar.domain.points()))
    scale = 1.0 + np.max(np.abs(f.values[fin])) + np.max(np.abs(fstar.values)) + reach
    assert np.all(raw <= f.values[fin] + 1e-13 * scale)
    assert np.all(biconjugate(f).values[fin] <= f.values[fin])


def _separable_max_input(data):
    """(vals, axes, dual_axes) on random 1-3D grids of their own shapes:
    non-concave, constant, affine or integer-step lines, sometimes on a
    tiny spacing, with -inf cells or whole -inf lines, and dual ranges from
    far narrower to far wider than the slopes. Half the draws are lines
    near 1e14 on 40 or more points, where one term's rounding passes a dual
    step times a primal step and the bisection windows widen."""
    hazard = data.draw(st.booleans())
    n = data.draw(st.integers(1, 2 if hazard else 3))
    low, top = (40, {1: 300, 2: 40}[n]) if hazard else (3, {1: 200, 2: 30, 3: 10}[n])
    shape = [data.draw(st.integers(low, top)) for _ in range(n)]
    dual_shape = [data.draw(st.integers(low, top)) for _ in range(n)]
    lo = np.array([data.draw(st.floats(-3.0, -0.1)) for _ in range(n)])
    tiny = data.draw(st.booleans())
    width = [data.draw(st.floats(1e-7, 1e-4) if tiny else st.floats(0.2, 6.0)) for _ in range(n)]
    d = GridDomain(lo, lo + np.array(width), shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = d.points()
    kind = data.draw(st.sampled_from(["noise", "constant", "affine", "concave", "steps"]))
    vals = {"noise": lambda: rng.normal(size=d.size),
            "constant": lambda: np.full(d.size, rng.normal()),
            "affine": lambda: pts @ rng.normal(size=n) + rng.normal(),
            "concave": lambda: -np.sum((pts - pts.mean(axis=0))**2, axis=1),
            "steps": lambda: rng.integers(-2, 3, d.size).astype(float)}[kind]()
    vals = vals * data.draw(st.floats(0.0, 1.0 if hazard else 10.0)) + (1e14 if hazard else 0.0)
    vals = vals.reshape(shape)
    sentinel = data.draw(st.sampled_from(["none", "cells", "lines"]))
    if sentinel == "cells":
        vals[rng.uniform(size=shape) < data.draw(st.floats(0.1, 0.9))] = -np.inf
    elif sentinel == "lines":  # a whole hyperplane, so whole lines on the other axes
        vals[(slice(None),) * (n - 1) + (int(rng.integers(shape[-1])),)] = -np.inf
    centre = [data.draw(st.floats(-5.0, 5.0)) for _ in range(n)]
    half = [10.0 ** data.draw(st.floats(-1.0, 1.0) if hazard else st.floats(-3.0, 3.0))
            for _ in range(n)]
    dual = GridDomain(np.subtract(centre, half), np.add(centre, half), dual_shape)
    return vals, d.axes(), dual.axes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_separable_max_is_the_direct_maximum_bit_for_bit(data):
    vals, axes, dual_axes = _separable_max_input(data)
    # passes in blocks of one slice of lines, of a few slices, or whole
    with mock.patch.object(convex, "_LINES", data.draw(st.sampled_from([1, 500, 1 << 14]))):
        got = _separable_max(vals, axes, dual_axes)
    assert np.array_equal(got, direct_separable_max(vals, axes, dual_axes))


def test_separable_max_widens_windows_where_rounding_demands():
    """Lines near 1e14 on [-1, 1]: one term's rounding bound D (about 0.03)
    times 8 exceeds a dual step times a primal step, so the bisection
    windows widen by whole cells, and the maximum is still the direct one
    to the bit. Without the widening some of these lines come out wrong."""
    x = GridDomain([-1.0], [1.0], [165]).axes()
    y = GridDomain([-5.0], [5.0], [251]).axes()
    rng = np.random.default_rng(3)
    for noise in (0.0, 0.01, 1.0) * 4:
        v = 1e14 + noise * rng.normal(size=165)
        d8 = 8 * 2.0**-53 * (2 * 5.0 * 1.0 + np.max(np.abs(v)))
        assert d8 >= np.min(np.diff(y[0])) * np.min(np.diff(x[0]))  # a margin of >= 1 cell
        assert np.array_equal(_separable_max(v, x, y), direct_separable_max(v, x, y))


def test_conjugates_are_the_direct_ones_at_the_benchmark_shapes(monkeypatch):
    """legendre on 2049 points with +inf tails, 129^2 and 17^3, and the
    reconstruction on 65^2, against the same calls on the direct maximum."""
    rng = np.random.default_rng(3)
    d1 = GridDomain([-3.0], [3.0], [2049])
    x = d1.points().ravel()
    f1 = ExtGridFn(d1, np.where((x < -2.5) | (x > 2.3), np.inf, random_convex_fn(d1, rng).values))
    f2 = random_convex_fn(GridDomain([-2.0] * 2, [2.0] * 2, [129, 129]), rng)
    f3 = random_convex_fn(GridDomain([-2.0] * 3, [2.0] * 3, [17] * 3), rng)
    h = random_convex_fn(GridDomain([-3.5] * 2, [3.5] * 2, [65, 65]), rng)

    def outputs():
        return [legendre(f1), legendre(f2), legendre(f3), reconstruct_from_conjugate(h, 1.0)]

    got = outputs()
    monkeypatch.setattr(convex, "_separable_max", direct_separable_max)
    for g, w in zip(got, outputs()):
        assert g.domain.same_as(w.domain)
        assert np.array_equal(g.values, w.values)


def test_legendre_with_inf_tails_is_warning_free():
    d = grid1d(n=65)
    x = d.points().ravel()
    f = ExtGridFn(d, np.where(np.abs(x) <= 1.0, x**2, np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fstar = legendre(f)
    lo, hi = slope_range(f)
    assert lo[0] == pytest.approx(-2.0 + 1 / 16) and hi[0] == pytest.approx(2.0 - 1 / 16)
    assert np.all(np.isfinite(fstar.values))


def test_legendre_warns_when_dual_domain_misses_slopes():
    d = grid1d()
    f = quadratic(d)
    with pytest.warns(UserWarning):
        legendre(f, GridDomain([-0.1], [0.1], [11]))


def test_biconjugate_dominance_exact():
    rng = np.random.default_rng(13)
    for _ in range(5):
        d = grid1d(n=129)
        f = random_convex_fn(d, rng)
        fss = biconjugate(f)
        assert np.all(fss.values <= f.values)


# ---------------------------------------------------------- biconjugate gap

def test_gap_convex_and_affine():
    d = GridDomain([-2.0], [2.0], [129])
    f = sample(d, lambda p: p[:, 0] ** 2)
    assert biconjugate_gap(f) <= 2 * d.spacing[0]
    aff = sample(d, lambda p: 1.5 * p[:, 0] - 0.3)
    assert biconjugate_gap(aff) <= 1e-12


def test_gap_detects_nonconvexity_against_envelope_oracle():
    d = GridDomain([-1.5], [1.5], [129])
    f = sample(d, lambda p: p[:, 0] ** 4 - p[:, 0] ** 2)
    gap = biconjugate_gap(f)
    assert gap >= 0.2
    env = brute_convex_envelope_1d(f)
    oracle_gap = float(np.max(f.values - env.values))
    assert gap == pytest.approx(oracle_gap, abs=4 * d.spacing[0])


def test_gap_halves_under_refinement():
    gaps = []
    for n in (33, 65, 129):
        d = GridDomain([-2.0], [2.0], [n])
        f = sample(d, lambda p: np.maximum(p[:, 0] ** 2, 0.5 + 0.5 * p[:, 0]))
        gaps.append(biconjugate_gap(f))
    # discretely convex input: gap shrinks roughly linearly in dx
    assert gaps[1] <= gaps[0] / 2 * 4 + 1e-12
    assert gaps[2] <= gaps[1] / 2 * 4 + 1e-12


# ------------------------------------------------------------ regularization

def test_reg_of_point_indicator_is_distance():
    d = GridDomain([-2.0], [2.0], [65])
    x = d.points().ravel()
    i0 = np.argmin(np.abs(x))
    vals = np.full(x.size, np.inf)
    vals[i0] = 0.0
    f = ExtGridFn(d, vals)
    reg = lipschitz_regularize(f, 1.0)
    assert np.allclose(reg.values, np.abs(x - x[i0]), atol=1e-12)


def test_reg_affine_with_small_slope_unchanged():
    d = grid1d()
    f = sample(d, lambda p: 0.5 * p[:, 0] + 0.25)
    reg = lipschitz_regularize(f, 1.0)
    assert np.array_equal(reg.values, f.values)


def test_reg_quadratic_matches_huber_and_brute_force():
    d = GridDomain([-2.0], [2.0], [129])
    f = sample(d, lambda p: p[:, 0] ** 2)
    reg = lipschitz_regularize(f, 1.0)
    x = d.points().ravel()
    huber = np.where(np.abs(x) <= 0.5, x**2, np.abs(x) - 0.25)
    assert np.max(np.abs(reg.values - huber)) <= 2 * d.spacing[0]
    brute = brute_inf_convolution(f, 1.0)
    assert np.allclose(reg.values, brute.values, atol=1e-12)


@pytest.mark.parametrize("shape", [(17, 17), (7, 7, 7)])
def test_reg_matches_brute_inf_convolution_with_inf_cells(shape):
    d = GridDomain([-1.5] * len(shape), [1.5] * len(shape), list(shape))
    f = random_convex_fn(d, np.random.default_rng(len(shape)))
    ball = np.linalg.norm(d.points(), axis=1).reshape(shape) <= 1.1
    f = ExtGridFn(d, np.where(ball, f.values, np.inf))
    reg = lipschitz_regularize(f, 0.5)
    want = brute_inf_convolution(f, 2.0).values
    assert np.max(np.abs(reg.values - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


@pytest.mark.parametrize("shape", [(65, 65), (17, 17, 17)])
def test_reg_is_the_direct_minimum_at_the_benchmark_shapes(shape):
    d = GridDomain([-2.0] * len(shape), [2.0] * len(shape), list(shape))
    f = random_convex_fn(d, np.random.default_rng(3))
    assert np.array_equal(lipschitz_regularize(f, 0.5).values,
                          brute_inf_convolution(f, 2.0).values)


def test_reg_takes_many_kept_boxes_in_chunks_bit_for_bit(monkeypatch):
    # 32 boxes of 47 cells on 1500 points, taken at most 12 * 1500 // 47^2 = 8
    # at a time: a box that keeps more needs more than one pass
    d = GridDomain([-2.0], [2.0], [1500])
    f = random_convex_fn(d, np.random.default_rng(1))
    calls = []
    cone_min = convex._cone_min
    monkeypatch.setattr(convex, "_cone_min", lambda *a: calls.append(1) or cone_min(*a))
    reg = lipschitz_regularize(f, 0.5)
    assert len(calls) > 2 * 32    # one upper bound and one pass per box, and more
    assert np.array_equal(reg.values, brute_inf_convolution(f, 2.0).values)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.one_of(st.tuples(st.integers(3, 1500)),
                       st.tuples(st.integers(3, 40), st.integers(3, 40)),
                       st.tuples(st.integers(3, 12), st.integers(3, 12), st.integers(3, 12))),
       scale=st.floats(0.1, 30.0), r=st.floats(0.05, 8.0), hole=st.booleans())
def test_reg_equals_brute_inf_convolution_bit_for_bit(seed, shape, scale, r, hole):
    rng = np.random.default_rng(seed)
    d = GridDomain([-1.5] * len(shape), [1.5] * len(shape), list(shape))
    vals = random_convex_fn(d, rng).values * scale
    if hole:
        # +inf outside a ball, so the finite cells stay a convex set
        c = rng.uniform(-0.5, 0.5, len(shape))
        outside = np.linalg.norm(d.points() - c, axis=1).reshape(shape) > rng.uniform(0.6, 1.6)
        assume(not outside.all())
        vals = np.where(outside, np.inf, vals)
    f = ExtGridFn(d, vals)
    assume(is_discretely_convex(f))
    assert np.array_equal(lipschitz_regularize(f, r).values,
                          brute_inf_convolution(f, 1.0 / r).values)


def test_reg_pointwise_bounds_and_monotonicity():
    rng = np.random.default_rng(23)
    d = grid1d(n=65)
    f = random_convex_fn(d, rng)
    r1 = lipschitz_regularize(f, 1.0)
    r2 = lipschitz_regularize(f, 0.5)
    assert np.all(r1.values <= f.values)
    assert np.all(r2.values <= f.values)
    assert np.all(r2.values >= r1.values)  # smaller r, larger result


def test_reg_unchanged_where_slopes_bounded():
    d = grid1d(n=65)
    f = sample(d, lambda p: p[:, 0] ** 2)
    L = 1.0
    reg = lipschitz_regularize(f, 1.0 / L)
    pts = d.points()
    vals = f.values.ravel()
    for i in range(pts.shape[0]):
        others = np.delete(np.arange(pts.shape[0]), i)
        chord = (vals[i] - vals[others]) / np.abs(pts[others, 0] - pts[i, 0])
        if np.max(chord) <= L:
            assert reg.values.ravel()[i] == vals[i]


def test_reg_max_min_compatibility():
    d = grid1d(n=65)
    f = sample(d, lambda p: p[:, 0] ** 2)
    g = sample(d, lambda p: p[:, 0] ** 2 + 0.05 * p[:, 0])  # f - g affine
    assert is_discretely_convex(f.minimum(g))
    L = max(lipschitz_bound(f), lipschitz_bound(g))
    r = 1.0 / (2 * L)
    rm = lipschitz_regularize(f.maximum(g), r)
    mm = lipschitz_regularize(f, r).maximum(lipschitz_regularize(g, r))
    assert np.max(np.abs(rm.values - mm.values)) <= 1e-12
    rmin = lipschitz_regularize(f.minimum(g), r)
    mmin = lipschitz_regularize(f, r).minimum(lipschitz_regularize(g, r))
    assert np.max(np.abs(rmin.values - mmin.values)) <= 1e-12


def test_reg_rejects_bad_inputs():
    d = grid1d()
    f = quadratic(d)
    with pytest.raises(ValueError):
        lipschitz_regularize(f, 0.0)
    bad = sample(d, lambda p: -p[:, 0] ** 2)
    with pytest.raises(ConvexityViolation):
        lipschitz_regularize(bad, 1.0)
    with pytest.raises(ValueError):
        lipschitz_regularize(ExtGridFn(d, np.full(d.shape, np.inf)), 1.0)


# -------------------------------------------------------------- epi distance

def test_epi_distance_identity_and_offset():
    d = grid1d()
    f = quadratic(d)
    assert epi_distance(f, f) == 0.0
    g = ExtGridFn(d, f.values + 1.0)
    assert epi_distance(f, g) == pytest.approx(sum(2.0**-j for j in range(1, 9)))


def test_epi_distance_indicator_regularization_monotone():
    d = GridDomain([-2.0], [2.0], [129])
    x = d.points().ravel()
    vals = np.where(x >= 0.0, 0.0, np.inf)
    ind = ExtGridFn(d, vals)
    dists = []
    for k in (1, 2, 4, 8):
        fk = lipschitz_regularize(ind, 1.0 / k)
        dists.append(epi_distance(fk, ind))
    assert all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))
    with pytest.raises(ValueError):
        epi_distance(ind, quadratic(grid1d(n=5)))


# ---------------------------------------------------------- body to function

def test_body_to_function_examples():
    d = grid1d()
    x = d.points().ravel()
    single = body_to_function(Polytope([[1.5, 0.25]]), d)
    assert np.allclose(single.values, 1.5 * x - 0.25, atol=1e-14)
    seg = body_to_function(Polytope([[1.0, 0.0], [-1.0, 0.0]]), d)
    assert np.allclose(seg.values, np.abs(x), atol=1e-14)
    square = body_to_function(
        Polytope([[1, 1], [1, -1], [-1, 1], [-1, -1]]), d)
    assert np.allclose(square.values, np.abs(x) + 1.0, atol=1e-14)


def test_body_translation_adds_affine_exactly():
    d = grid2d(n=17)
    K = Polytope([[1.0, 0.5, 0.0], [-1.0, 0.2, 0.3], [0.0, -1.0, -0.2]])
    v, s = np.array([0.3, -0.4]), 0.7
    f = body_to_function(K, d)
    g = body_to_function(K.translate(np.append(v, s)), d)
    lin = d.points() @ v - s
    assert np.allclose(g.values.ravel(), f.values.ravel() + lin, atol=1e-13)


# ------------------------------------------------------------- reconstruction

def _brute_reconstruct(f, R, n_t=2001):
    """Oracle: explicit sup over a (y, t) grid of the truncated epigraph."""
    ball = f.domain.point_norms(np.zeros(f.domain.ndim)) <= R + 2
    c = float(np.max(np.abs(f.values[ball])))
    fstar = legendre(f)
    y = fstar.domain.points()
    fy = fstar.values.ravel()
    cap = (2 * R + 3) * c
    out = np.full(f.domain.size, -np.inf)
    pts = f.domain.points()
    for j in range(y.shape[0]):
        if np.linalg.norm(y[j]) > 2 * c * (1 + 1e-12) or fy[j] > cap:
            continue
        for t in np.linspace(max(fy[j], -cap), cap, 64):
            out = np.maximum(out, pts @ y[j] - t)
    return ExtGridFn(f.domain, out.reshape(f.domain.shape))


def test_reconstruct_quadratic():
    d = GridDomain([-4.0], [4.0], [257])
    f = quadratic(d)  # x^2/2
    g = reconstruct_from_conjugate(f, 1.0)
    ball = np.abs(d.points().ravel()) <= 2.0
    assert np.max(np.abs(g.values[ball.reshape(d.shape)]
                         - f.values[ball.reshape(d.shape)])) <= 2 * d.spacing[0]
    assert np.all(np.isfinite(g.values))


def test_reconstruct_affine_exact_on_ball():
    d = GridDomain([-4.0], [4.0], [129])
    f = sample(d, lambda p: 0.8 * p[:, 0] - 0.2)
    g = reconstruct_from_conjugate(f, 1.0)
    ball = (np.abs(d.points().ravel()) <= 2.0).reshape(d.shape)
    assert np.max(np.abs(g.values[ball] - f.values[ball])) <= 1e-10


def test_reconstruct_random_vs_oracle():
    rng = np.random.default_rng(29)
    d = GridDomain([-4.0], [4.0], [129])
    f = random_convex_fn(d, rng)
    R = 1.0
    g = reconstruct_from_conjugate(f, R)
    oracle = _brute_reconstruct(f, R)
    ball = (np.abs(d.points().ravel()) <= R + 1).reshape(d.shape)
    lip = lipschitz_bound(f)
    assert np.max(np.abs(g.values[ball] - f.values[ball])) <= 4 * d.spacing[0] * lip
    assert np.max(np.abs(g.values[ball] - oracle.values[ball])) \
        <= 4 * d.spacing[0] * (1 + lip)


def test_reconstruct_domain_guard():
    d = grid1d(lo=-2.0, hi=2.0)
    with pytest.raises(DomainExceeded):
        reconstruct_from_conjugate(quadratic(d), 1.0)  # needs B_3


def test_reconstruct_refuses_before_any_legendre_transform(monkeypatch):
    d = GridDomain([-4.0], [4.0], [129])
    f = quadratic(d)
    holed = ExtGridFn(d, np.where(np.abs(d.points().ravel()) < 0.5, np.inf, f.values.ravel()))
    small = quadratic(grid1d(lo=-2.0, hi=2.0))
    calls = []
    monkeypatch.setattr(convex, "legendre", lambda *a: calls.append(a))
    for g, R, error in [(f, 0.0, ValueError), (f, np.nan, ValueError), (f, np.inf, ValueError),
                        (holed, 1.0, ValueError), (small, 1.0, DomainExceeded)]:
        with pytest.raises(error):
            reconstruct_from_conjugate(g, R)
    assert calls == []


def test_a_given_conjugate_gives_the_one_argument_results_bit_for_bit():
    rng = np.random.default_rng(41)
    for d in (GridDomain([-4.0], [4.0], [129]), GridDomain([-3.5] * 2, [3.5] * 2, [33, 33])):
        f = random_convex_fn(d, rng)
        fstar = legendre(f)
        assert np.array_equal(biconjugate(f, fstar).values, biconjugate(f).values)
        assert biconjugate_gap(f, fstar) == biconjugate_gap(f)
        assert np.array_equal(reconstruct_from_conjugate(f, 1.0, fstar).values,
                              reconstruct_from_conjugate(f, 1.0).values)


@pytest.mark.parametrize("call, name", [
    (lambda f: extend_from_subdomain(f, [np.nan], [1.0], 0.5), "A_lo"),
    (lambda f: extend_from_subdomain(f, [-1.0], [np.inf], 0.5), "A_hi"),
    (lambda f: extend_from_subdomain(f, [-1.0], [1.0], np.nan), "s"),
    (lambda f: extend_from_subdomain(f, [-1.0], [1.0], np.inf), "s"),
    (lambda f: reconstruct_from_conjugate(f, np.nan), "R"),
    (lambda f: reconstruct_from_conjugate(f, -np.inf), "R"),
    (lambda f: lipschitz_regularize(f, np.nan), "r"),
    (lambda f: seminorm_estimate(PairingMeasure([[1.0], [-1.0], [0.0]], [1.0, 1.0, -2.0]),
                                 [-1.0], [1.0], np.nan, 2, seed=0, domain=f.domain), "s"),
], ids=["extend-A_lo", "extend-A_hi", "extend-s-nan", "extend-s-inf", "reconstruct-R-nan",
        "reconstruct-R-inf", "regularize-r-nan", "seminorm-s-nan"])
def test_non_finite_arguments_are_refused_by_name(call, name):
    f = quadratic(GridDomain([-4.0], [4.0], [41]))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(f)


# ------------------------------------------------------------------ extension

def test_extend_affine_is_identity():
    d = GridDomain([-3.0], [3.0], [97])
    f = sample(d, lambda p: 1.2 * p[:, 0] - 0.4)
    out = extend_from_subdomain(f, [-1.0], [1.0], 0.5)
    assert np.max(np.abs(out.values - f.values)) <= 1e-10
    assert is_discretely_convex(out)


def test_extend_quadratic_tangent_growth():
    d = GridDomain([-3.0], [3.0], [193])
    f = sample(d, lambda p: p[:, 0] ** 2)
    s = 0.25
    # source box [A_lo - s, A_hi + s] = [-1, 1]
    out = extend_from_subdomain(f, [-1.0 + s], [1.0 - s], s)
    x = d.points().ravel()
    beyond = x > 1.0 + 2 * d.spacing[0]
    tangent = 1.0 + 2.0 * (x[beyond] - 1.0)
    assert np.max(np.abs(out.values[beyond] - tangent)) <= 2 * d.spacing[0] \
        + 4 * d.spacing[0] * (x[beyond].max() - 1.0)
    inner = np.abs(x) <= 1.0 - s
    assert np.array_equal(out.values[inner], f.values[inner])


def test_extend_zero_stays_zero():
    d = grid1d()
    f = ExtGridFn(d, np.zeros(d.shape))
    out = extend_from_subdomain(f, [-0.5], [0.5], 0.5)
    assert np.max(np.abs(out.values)) <= 1e-12


def test_extend_matches_chord_sup_oracle_1d():
    rng = np.random.default_rng(31)
    d = GridDomain([-3.0], [3.0], [61])
    f = random_convex_fn(d, rng)
    s = 0.5
    out = extend_from_subdomain(f, [-1.0], [1.0], s)
    x = d.points().ravel()
    il = int(np.argmin(np.abs(x - (-1.0 - s))))
    iu = int(np.argmin(np.abs(x - (1.0 + s))))
    oracle = brute_chord_extension_1d(f, il, iu)
    assert np.allclose(out.values, oracle.values, atol=1e-9)


def test_extend_2d_convex_and_exact_inside():
    rng = np.random.default_rng(37)
    d = GridDomain([-2.0, -2.0], [2.0, 2.0], [33, 33])
    f = random_convex_fn(d, rng)
    out = extend_from_subdomain(f, [-0.8, -0.8], [0.8, 0.8], 0.5)
    assert is_discretely_convex(out)
    pts = d.points()
    inner = np.all(np.abs(pts) <= 0.8 + 0.5, axis=1).reshape(d.shape)
    assert np.array_equal(out.values[inner], f.values[inner])
    # growth bound in the shape of the chordal-extension estimate
    lip = lipschitz_bound(f)
    norm_box = np.all(np.abs(pts) <= 0.8 + 1.0, axis=1).reshape(d.shape)
    sup = float(np.max(np.abs(f.values[norm_box])))
    box_lo, box_hi = np.array([-1.3, -1.3]), np.array([1.3, 1.3])
    dist = np.linalg.norm(np.maximum(0.0, np.maximum(box_lo - pts,
                                                     pts - box_hi)), axis=1)
    diam = float(np.linalg.norm(box_hi - box_lo))
    bound = lip * (dist + diam) + sup
    assert np.all(out.values.ravel() <= bound + 1e-9)


def test_extend_2d_matches_all_lower_hull_planes():
    rng = np.random.default_rng(43)
    d = GridDomain([-2.0, -2.0], [2.0, 2.0], [25, 25])
    f = random_convex_fn(d, rng)
    A_lo, A_hi, s = np.array([-0.6, -0.4]), np.array([0.5, 0.7]), 0.4
    out = extend_from_subdomain(f, A_lo, A_hi, s)
    pts = d.points()
    box = np.all((pts >= A_lo - s) & (pts <= A_hi + s), axis=1)
    eq = ConvexHull(np.column_stack([pts[box], f.values.ravel()[box]])).equations
    eq = eq[eq[:, 2] < -1e-12]
    full = (pts[~box] @ (-eq[:, :2] / eq[:, 2:3]).T - eq[:, 3] / eq[:, 2]).max(axis=1)
    got = out.values.ravel()[~box]
    assert np.max(np.abs(got - full)) <= 1e-12 * (1 + np.max(np.abs(full)))


def test_extend_fill_gives_the_extension_on_its_cells_and_f_elsewhere():
    rng = np.random.default_rng(47)
    d = GridDomain([-2.0, -2.0], [2.0, 2.0], [25, 25])
    far = np.max(np.abs(d.points()), axis=1).reshape(d.shape) > 1.7
    f = ExtGridFn(d, np.where(far, np.inf, random_convex_fn(d, rng).values))
    A_lo, A_hi, s = [-0.6, -0.4], [0.5, 0.7], 0.4
    full = extend_from_subdomain(f, A_lo, A_hi, s)
    fill = rng.random(d.shape) < 0.3
    out = extend_from_subdomain(f, A_lo, A_hi, s, fill)
    assert np.array_equal(out.values[fill], full.values[fill])
    assert np.array_equal(out.values[~fill], f.values[~fill])
    assert np.all(np.isfinite(out.values[fill])) and np.any(np.isinf(out.values[~fill]))
    none = extend_from_subdomain(f, A_lo, A_hi, s, np.zeros(d.shape, dtype=bool))
    assert np.array_equal(none.values, f.values)
    with pytest.raises(ValueError, match="fill"):
        extend_from_subdomain(f, A_lo, A_hi, s, fill[0])


def test_extend_guards():
    d = grid1d(n=17)
    f = quadratic(d)
    with pytest.raises(ValueError):
        extend_from_subdomain(f, [-0.1], [0.1], 0.01)  # s below two spacings
    with pytest.raises(ConvexityViolation):
        bad = sample(d, lambda p: -p[:, 0] ** 2)
        extend_from_subdomain(bad, [-1.0], [1.0], 0.5)


# ----------------------------------------------------- lsc extend / restrict

def _interval_mask(domain, lo, hi):
    x = domain.points().ravel()
    return ScanMask(domain, (x > lo) & (x < hi))


def test_lsc_extend_constant_and_linear():
    d = GridDomain([-1.0], [2.0], [61])
    x = d.points().ravel()
    mask = _interval_mask(d, 0.01, 0.99)
    f = ExtGridFn(d, np.zeros_like(x))
    ext = lsc_extend(f, mask)
    covered = (x >= -1e-9) & (x <= 1.0 + 1e-9)  # marked cells plus boundary
    assert np.all(np.isfinite(ext.values[covered.reshape(d.shape)]))
    assert np.all(np.isposinf(ext.values[~covered.reshape(d.shape)]))
    g = ExtGridFn(d, x)
    extg = lsc_extend(g, mask)
    left_boundary = np.where(np.isfinite(extg.values))[0][0]
    right_boundary = np.where(np.isfinite(extg.values))[0][-1]
    assert not mask.marked[left_boundary] and not mask.marked[right_boundary]
    first_inner = np.where(mask.marked)[0][0]
    last_inner = np.where(mask.marked)[0][-1]
    assert extg.values[left_boundary] == g.values[first_inner]
    assert extg.values[right_boundary] == g.values[last_inner]


def test_lsc_extend_blowup_grows_under_refinement():
    prev = None
    for n in (41, 81, 161):
        d = GridDomain([0.0], [1.0], [n])
        x = d.points().ravel()
        mask = ScanMask(d, (x > 0.0) & (x < 1.0))
        vals = np.where((x > 0) & (x < 1), 1.0 / np.where(x > 0, x, 1.0), 0.0)
        f = ExtGridFn(d, vals)
        ext = lsc_extend(f, mask)
        left = ext.values[0]
        assert np.isfinite(left)
        if prev is not None:
            assert left > prev
        prev = left


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_lsc_extend_matches_face_neighbour_loop(ndim):
    rng = np.random.default_rng(40 + ndim)
    for _ in range(12):
        shape = tuple(int(s) for s in rng.integers(3, 10 if ndim < 3 else 6, size=ndim))
        d = GridDomain([-1.0] * ndim, [1.0] * ndim, shape)
        marked = random_connected_mask(shape, rng, int(rng.integers(1, d.size)))
        vals = rng.normal(size=shape)
        vals[~marked & (rng.random(shape) < 0.2)] = np.inf  # ignored off the mask
        f = ExtGridFn(d, vals)
        got = lsc_extend(f, ScanMask(d, marked))
        assert np.array_equal(got.values, brute_lsc_extend(f, marked).values)


def test_restrict_roundtrip_and_guards():
    d = grid1d(n=33)
    f = quadratic(d)
    mask = _interval_mask(d, -1.0, 1.0)
    ext = lsc_extend(f, mask)
    back = restrict(ext, mask)
    assert np.array_equal(back.values[mask.marked], f.values[mask.marked])
    assert np.all(np.isposinf(back.values[~mask.marked]))
    with pytest.raises(ValueError):
        lsc_extend(f, ScanMask(d, np.zeros(d.shape, dtype=bool)))
    x = d.points().ravel()
    disconnected = ScanMask(d, (np.abs(x) > 1.5))
    with pytest.raises(ValueError):
        lsc_extend(f, disconnected)


# ----------------------------------------------------------------- splitting

def test_convex_split_zero_and_sin():
    d = grid1d()
    zero = ExtGridFn(d, np.zeros(d.shape))
    f, h = convex_split(zero)
    assert np.allclose(f.values, h.values, atol=0.0)
    d3 = GridDomain([-3.0], [3.0], [129])
    phi = sample(d3, lambda p: np.sin(p[:, 0]))
    f, h = convex_split(phi)
    assert np.max(np.abs((f.values - h.values) - phi.values)) <= 1e-12
    assert is_discretely_convex(f) and is_discretely_convex(h)


def test_convex_split_bump_outputs_convex():
    d = grid2d(lo=-2.0, hi=2.0, n=33)
    f, h = convex_split(Bump([0.0, 0.0], 1.0, 1.0), domain=d)
    assert is_discretely_convex(f)
    assert is_discretely_convex(h)
    phi = Bump([0.0, 0.0], 1.0, 1.0).sample(d)
    assert np.max(np.abs((f.values - h.values) - phi.values)) <= 1e-12


# ------------------------------------------------------------------ 3d paths

def test_legendre_3d_matches_brute_conjugate():
    d = GridDomain([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [9, 9, 9])
    rng = np.random.default_rng(61)
    _assert_matches_brute_conjugate(random_convex_fn(d, rng))


def test_reg_output_is_lipschitz_between_adjacent_cells():
    d = GridDomain([-2.0], [2.0], [129])
    x = d.points().ravel()
    f = ExtGridFn(d, np.where(np.abs(x) < 0.5, x**2, np.inf))
    L = 2.0
    reg = lipschitz_regularize(f, 1.0 / L)
    steps = np.abs(np.diff(reg.values)) / d.spacing[0]
    assert np.max(steps) <= L * (1 + 1e-12)
    assert np.all(np.isfinite(reg.values))


# ------------------------------------------------------------------- memory

def test_conjugate_kernels_allocate_at_most_two_and_a_half_blocks():
    rng = np.random.default_rng(7)
    f1 = random_convex_fn(GridDomain([-3.0], [3.0], [2049]), rng)
    f2 = random_convex_fn(GridDomain([-2.0] * 2, [2.0] * 2, [65, 65]), rng)
    f3 = random_convex_fn(GridDomain([-3.5] * 2, [3.5] * 2, [65, 65]), rng)
    for call in (lambda: legendre(f1), lambda: lipschitz_regularize(f2, 0.5),
                 lambda: reconstruct_from_conjugate(f3, 1.0)):
        assert peak_floats(call) <= 2.5 * _BLOCK


def test_legendre_takes_its_first_block_in_chunks():
    """On 129^2 each axis pass takes three blocks of 43 lines, and the first
    block of every 8th dual point in chunks of about 2 (N + M) terms per
    line (measured: 2.9 floats per grid and dual-grid point; 6.2 when each
    pass took all lines at once, 12.7 when the first block was one piece)."""
    f = random_convex_fn(GridDomain([-2.0] * 2, [2.0] * 2, [129, 129]), np.random.default_rng(7))
    size = f.domain.size + default_dual_domain(f).size
    assert peak_floats(lambda: legendre(f)) <= 4 * size


def test_conjugate_kernels_take_memory_linear_in_the_grids():
    """At most 10 floats per grid and dual-grid point for legendre
    (measured: 8.9 for the 1D transform, whose one line is one block; 2.9 on
    129^2) and 24 for the regularizations (measured: 14.6 and 18.9; their
    largest part is the buffer of one box against its kept cells, which
    holds at most 24 floats per grid cell however many are kept)."""
    rng = np.random.default_rng(7)
    reg = lambda f: lipschitz_regularize(f, 0.5)  # noqa: E731
    for f, call, bound in [
            (random_convex_fn(GridDomain([-3.0], [3.0], [4097]), rng), legendre, 10),
            (random_convex_fn(GridDomain([-2.0] * 2, [2.0] * 2, [129, 129]), rng), legendre, 10),
            (random_convex_fn(GridDomain([-2.0] * 2, [2.0] * 2, [65, 65]), rng), reg, 24),
            (random_convex_fn(GridDomain([-2.0] * 3, [2.0] * 3, [17] * 3), rng), reg, 24)]:
        size = f.domain.size + default_dual_domain(f).size
        assert peak_floats(lambda: call(f)) <= bound * size
