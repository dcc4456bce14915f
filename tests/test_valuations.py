import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epival import (
    Bump,
    Composite,
    Constant,
    ConvexityViolation,
    DomainExceeded,
    ExtGridFn,
    GridDomain,
    HessianDensity,
    PairingMeasure,
    Polytope,
    ScanMask,
    body_to_function,
    component_functional,
    depi_invariance_residual,
    embed_T,
    evaluate,
    homogeneous_decompose,
    lipschitz_regularize,
    lsc_extend,
    mixed_determinant,
    random_convex_fn,
    res_star,
    valuation_residual,
)

from epival.grids import _bounding_window, _dilate, _window_cells
from epival.valuations import _evaluate_stack, _evaluate_windows, _leaves, _read_mask, grid_domain

from helpers import (SPEC_KINDS, grid1d, grid2d, grid3d, inclusion_exclusion_mixed_determinant,
                     mixed_coeff_oracle, quadratic, random_spec, sample)


def mu1(x=1.0):
    """f(x) + f(-x) - 2 f(0) on the line."""
    return PairingMeasure([[x], [-x], [0.0]], [1.0, 1.0, -2.0])


def bump_weight(domain, radius=None, amplitude=1.0):
    lo, hi = domain.lo, domain.hi
    if radius is None:
        radius = 0.45 * float(np.min(hi - lo)) / 2
    return Bump(domain.center, radius, amplitude).sample(domain)


# ------------------------------------------------------------------ evaluate

def test_pairing_examples():
    d = grid1d()
    f = sample(d, lambda p: p[:, 0] ** 2)
    assert evaluate(mu1(), f) == pytest.approx(2.0, abs=1e-12)
    aff = sample(d, lambda p: 1.3 * p[:, 0] + 0.7)
    assert evaluate(mu1(), aff) == pytest.approx(0.0, abs=1e-12)


def test_pairing_off_grid_nodes_interpolate():
    d = grid1d(n=64)  # 0.123 will not be a node
    spec = PairingMeasure([[0.123], [-0.123], [0.0]], [1.0, 1.0, -2.0])
    aff = sample(d, lambda p: -0.4 * p[:, 0] + 0.1)
    assert evaluate(spec, aff) == pytest.approx(0.0, abs=1e-12)


def test_pairing_rejects_inf_node_values():
    d = grid1d(n=9)
    vals = np.full(9, np.inf)
    vals[4] = 0.0
    f = ExtGridFn(d, vals)
    with pytest.raises(ValueError):
        evaluate(mu1(), f)


@pytest.mark.parametrize("check", [True, False])
def test_pairing_rejects_non_finite_nodes_and_weights(check):
    with pytest.raises(ValueError, match="finite"):
        PairingMeasure([[0.0], [0.5], [1.0]], [1.0, np.nan, 1.0], check=check)
    with pytest.raises(ValueError, match="finite"):
        PairingMeasure([[0.0], [np.inf], [1.0]], [1.0, -2.0, 1.0], check=check)


def _stack_specs():
    d = grid2d(lo=-2.0, hi=2.0, n=17)
    w = bump_weight(d)
    scal = (1.0 + np.sum(d.points() ** 2, axis=1) / 8.0).reshape(d.shape)
    pairing = PairingMeasure([[0.3, -0.2], [-0.7, 0.55], [0.2, 0.1]], [1.0, 1.0, -2.0],
                             check=False)
    hess_const = HessianDensity(1, w, aux=[np.array([[2.0, 0.3], [0.3, 1.0]])])
    hess_field = HessianDensity(1, w, aux=[scal[..., None, None] * np.eye(2)])
    return d, {
        "pairing": pairing,
        "hessian-const-aux": hess_const,
        "hessian-field-aux": hess_field,
        "constant": Constant(1.5),
        "composite": Composite([(2.0, pairing), (-0.5, HessianDensity(2, w))]),
        "callable": lambda f: float(np.sum(f.values)),
    }


@pytest.mark.parametrize("kind", ["pairing", "hessian-const-aux", "hessian-field-aux",
                                  "constant", "composite", "callable"])
def test_evaluate_stack_matches_evaluate_row_by_row(kind):
    d, specs = _stack_specs()
    spec = specs[kind]
    rng = np.random.default_rng(17)
    fs = [random_convex_fn(d, rng) for _ in range(5)]
    got = _evaluate_stack(spec, d, np.stack([f.values for f in fs]))
    assert got.shape == (5,)
    assert np.array_equal(got, [evaluate(spec, f) for f in fs])


def test_evaluate_stack_errors():
    d, specs = _stack_specs()
    rng = np.random.default_rng(18)
    good = random_convex_fn(d, rng).values
    holed = np.array(good)
    holed[d.shape[0] // 2, d.shape[1] // 2] = np.inf  # under the weight and a node
    stack = np.stack([good, holed])
    for kind in ("pairing", "hessian-const-aux", "composite"):
        with pytest.raises(ValueError, match=r"\+inf"):
            _evaluate_stack(specs[kind], d, stack)
    outside = PairingMeasure([[2.5, 0.0], [0.0, 0.0]], [1.0, -1.0], check=False)
    with pytest.raises(DomainExceeded):
        _evaluate_stack(outside, d, stack[:1])
    with pytest.raises(ValueError, match="domain"):
        _evaluate_stack(specs["hessian-field-aux"], grid2d(n=19), np.zeros((1, 19, 19)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ndim=st.sampled_from([1, 2, 3]), kind=st.sampled_from(SPEC_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_values_outside_read_mask_do_not_change_evaluation(ndim, kind, seed):
    rng = np.random.default_rng(seed)
    d = {1: grid1d(n=17), 2: grid2d(n=13), 3: grid3d(n=9)}[ndim]
    spec = random_spec(kind, d, rng)
    reads = _read_mask(spec, d)
    assert not reads.all()
    stack = rng.normal(size=(3,) + d.shape)
    other = np.where(rng.random(stack.shape) < 0.3, np.inf, 1e3 * rng.normal(size=stack.shape))
    changed = np.where(reads, stack, other)
    assert np.array_equal(_evaluate_stack(spec, d, changed), _evaluate_stack(spec, d, stack))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ndim=st.sampled_from([1, 2, 3]), kind=st.sampled_from(SPEC_KINDS),
       seed=st.integers(0, 2**32 - 1), with_callable=st.booleans())
def test_window_form_on_the_box_of_the_read_cells_is_the_valuation(ndim, kind, seed,
                                                                   with_callable):
    # seminorm_estimate evaluates its samples on this box: every term's
    # stencil lies in it, so mu_W is mu bit for bit, whatever the cells of
    # the box that mu does not read hold (+inf here); with a callable term
    # the box is the whole grid, and with no read cell it is one cell
    rng = np.random.default_rng(seed)
    d = {1: grid1d(n=17), 2: grid2d(n=13), 3: grid3d(n=9)}[ndim]
    spec = random_spec(kind, d, rng)
    if with_callable:
        spec = Composite([(1.0, spec), (0.5, lambda f: float(np.sum(f.values**2)))])
    reads = _read_mask(spec, d)
    crop, cells = _bounding_window(reads)
    stack = np.where(reads, rng.normal(size=(3,) + d.shape), np.inf)
    want = _evaluate_stack(spec, d, stack)
    assert np.array_equal(_evaluate_windows(spec, d, stack[(slice(None),) + crop][None],
                                            cells)[0], want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ndim=st.sampled_from([1, 2, 3]), kind=st.sampled_from(SPEC_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_window_form_leaves_out_only_terms_beyond_the_window(ndim, kind, seed):
    # f and g differ only on cells two cells inside a random box window's
    # edges (or on the grid's edge), so mu - mu_W, the terms beyond the
    # window, is the same for both; window cells mu does not read are +inf
    rng = np.random.default_rng(seed)
    d = {1: grid1d(n=17), 2: grid2d(n=13), 3: grid3d(n=9)}[ndim]
    spec = random_spec(kind, d, rng)
    shape = np.array(d.shape)
    window = tuple(int(w) for w in rng.integers(3, shape + 1))
    start = rng.integers(0, shape - window + 1)
    cells = _window_cells(d.shape, window, start[None])
    free = np.ones(window, dtype=bool)
    for a, (w, s, n) in enumerate(zip(window, start, d.shape)):
        pos = np.arange(w)
        ok = ((pos >= 2) | (s == 0)) & ((pos < w - 2) | (s + w == n))
        free &= ok.reshape((w,) + (1,) * (ndim - 1 - a))
    reads = _read_mask(spec, d).ravel()[cells[0]]
    f = rng.normal(size=d.size)
    f[cells[0][~reads]] = np.inf
    g = np.array(f)
    g[cells[0][free & reads]] += 10.0 * rng.normal(size=np.count_nonzero(free & reads))
    rows = np.stack([f, g])
    mu = _evaluate_stack(spec, d, rows.reshape((2,) + d.shape))
    mu_w = _evaluate_windows(spec, d, rows[:, cells[0]][None], cells)[0]
    assert np.all(np.isfinite(mu)) and np.all(np.isfinite(mu_w))
    scale = 1.0 + float(np.max(np.abs(np.r_[mu, mu_w])))
    assert abs((mu[0] - mu_w[0]) - (mu[1] - mu_w[1])) <= 1e-12 * scale


def test_grid_domain_is_the_given_one_or_the_first_hessian_weight_grid():
    rng = np.random.default_rng(5)
    d, e = grid2d(n=13), grid2d(n=17)
    pairing, on_d, on_e = (random_spec("pairing", d, rng), random_spec("hessian", d, rng),
                           random_spec("hessian", e, rng))
    assert grid_domain(on_d, e) is e
    assert grid_domain(pairing, d) is d
    nested = Composite([(1.0, pairing), (2.0, Composite([(1.0, Constant(1.0)), (1.0, on_e)])),
                        (1.0, on_d)])
    assert grid_domain(nested) is on_e.weight.domain
    for spec in (pairing, Composite([(1.0, pairing), (3.0, Composite([(1.0, Constant(2.0))]))])):
        with pytest.raises(ValueError, match="grid domain is required"):
            grid_domain(spec)


@pytest.mark.parametrize("shape", [(3, 2, 2), (16, 17, 2, 2), (17, 17, 3, 3)])
def test_hessian_refuses_aux_fields_off_the_weight_grid(shape):
    d = grid2d(n=17)
    with pytest.raises(ValueError, match="auxiliary matrices"):
        HessianDensity(1, bump_weight(d), aux=[np.ones(shape)])
    HessianDensity(1, bump_weight(d), aux=[np.ones((17, 17, 2, 2))])


def test_read_mask_of_each_spec_kind():
    d = grid1d(n=9)  # nodes at -2, -1.5, ..., 2
    pairing = PairingMeasure([[-1.25], [0.0]], [1.0, -1.0], check=False)
    assert _read_mask(pairing, d).nonzero()[0].tolist() == [1, 2, 4, 5]
    w = np.zeros(9)
    w[4] = 1.0
    hess = HessianDensity(1, ExtGridFn(d, w))
    assert _read_mask(hess, d).nonzero()[0].tolist() == [3, 4, 5]
    assert not _read_mask(Constant(2.0), d).any()
    assert _read_mask(lambda f: 0.0, d).all()
    both = _read_mask(Composite([(1.0, pairing), (3.0, hess)]), d)
    assert both.nonzero()[0].tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(DomainExceeded):
        _read_mask(PairingMeasure([[2.5], [0.0]], [1.0, -1.0], check=False), d)
    with pytest.raises(ValueError, match="domain"):
        _read_mask(hess, grid1d(n=11))


def test_pairing_weight_conditions_enforced():
    with pytest.raises(ValueError, match="sum\\(w\\) = 0"):
        PairingMeasure([[0.0]], [1.0])
    with pytest.raises(ValueError, match="node"):
        PairingMeasure([[1.0], [0.0]], [1.0, -1.0])
    PairingMeasure([[1.0], [0.0]], [1.0, -1.0], check=False)  # probe spec


def test_hessian_full_determinant_against_quadrature_oracle():
    d = grid2d(lo=-2.0, hi=2.0, n=41)
    w = bump_weight(d)
    spec = HessianDensity(2, w)
    f = quadratic(d)  # |x|^2 / 2, det H = 1
    oracle = float(np.sum(w.values) * np.prod(d.spacing))
    assert evaluate(spec, f) == pytest.approx(oracle, rel=1e-10)


def test_hessian_mixed_with_aux_matrix():
    d = grid2d(lo=-2.0, hi=2.0, n=41)
    w = bump_weight(d)
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = HessianDensity(1, w, aux=[A])
    B = np.array([[1.0, -0.25], [-0.25, 3.0]])
    f = quadratic(d, A=B)
    D = mixed_determinant(B, A)
    oracle = D * float(np.sum(w.values) * np.prod(d.spacing))
    assert evaluate(spec, f) == pytest.approx(oracle, rel=1e-9)


def test_hessian_weight_margin_required():
    d = grid2d(n=17)
    vals = np.ones(d.shape)
    with pytest.raises(ValueError, match="margin"):
        HessianDensity(2, ExtGridFn(d, vals))


def test_hessian_homogeneity():
    d = grid2d(lo=-2.0, hi=2.0, n=33)
    spec = HessianDensity(2, bump_weight(d))
    rng = np.random.default_rng(2)
    f = random_convex_fn(d, rng)
    base = evaluate(spec, f)
    for t in (0.5, 2.0, 3.0):
        assert evaluate(spec, f * t) == pytest.approx(t**2 * base, rel=1e-10)


def test_pairing_additivity_exact():
    d = grid1d()
    rng = np.random.default_rng(4)
    f = random_convex_fn(d, rng)
    g = random_convex_fn(d, rng)
    lhs = evaluate(mu1(), ExtGridFn(d, f.values + g.values))
    rhs = evaluate(mu1(), f) + evaluate(mu1(), g)
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_composite_and_constant():
    d = grid1d()
    f = sample(d, lambda p: p[:, 0] ** 2)
    spec = Composite([(2.0, Constant(3.0)), (0.5, mu1())])
    assert evaluate(spec, f) == pytest.approx(2 * 3 + 0.5 * 2, abs=1e-12)


# ---------------------------------------------------------------- residuals

def test_valuation_residual_pairing_and_constant():
    d = grid1d()
    rng = np.random.default_rng(8)
    f = random_convex_fn(d, rng)
    g = random_convex_fn(d, rng)
    if not np.all(np.minimum(f.values, g.values) == f.minimum(g).values):
        raise AssertionError
    try:
        r = valuation_residual(mu1(), f, g)
        assert r <= 1e-12 * (1 + abs(evaluate(mu1(), f)))
    except ConvexityViolation:
        pass  # depends on the draw; covered deterministically below
    h = ExtGridFn(d, f.values + 0.25)  # min(f, f + c) = f is convex
    assert valuation_residual(mu1(), f, h) <= 1e-12
    assert valuation_residual(Constant(5.0), f, h) == 0.0


def test_valuation_residual_hessian_quadratic_pair():
    d = grid2d(lo=-2.0, hi=2.0, n=65)
    spec = HessianDensity(2, bump_weight(d))
    dx = d.spacing[0]
    a = np.array([dx, 0.0])  # kink within one cell keeps the min convex
    f = quadratic(d)
    g = sample(d, lambda p: 0.5 * np.sum((p - a) ** 2, axis=1))
    res = valuation_residual(spec, f, g)
    scale = float(np.max(np.abs(spec.weight.values)))
    assert res <= 12.0 * dx * scale
    bad = sample(d, lambda p: 0.5 * np.sum((p - 8 * a) ** 2, axis=1))
    with pytest.raises(ConvexityViolation):
        valuation_residual(spec, f, bad)


def test_valuation_residual_hessian_shrinks_with_dx():
    residuals = []
    for n in (33, 65):
        d = grid2d(lo=-2.0, hi=2.0, n=n)
        spec = HessianDensity(2, bump_weight(d))
        dx = d.spacing[0]
        f = quadratic(d)
        g = sample(d, lambda p: 0.5 * np.sum((p - [dx, 0.0]) ** 2, axis=1))
        residuals.append(valuation_residual(spec, f, g))
    assert residuals[1] <= residuals[0] * 0.75 + 1e-12


@settings(derandomize=True, max_examples=80, deadline=None)
@given(ndim=st.sampled_from([1, 2, 3]), kind=st.sampled_from(SPEC_KINDS),
       one_axis=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_valuation_property_across_a_kink(ndim, kind, one_axis, seed):
    """f = q + max(0, a) and h = q + max(0, -a) for convex q and affine a:
    min(f, h) = q and max(f, h) = q + |a|. Pairings are linear, so the
    residual is rounding. A Hessian density's kink stencils have rank one
    when a varies along one grid axis, where every mixed determinant is
    affine in them: rounding again. Otherwise the residual is O(dx), within
    12 dx max|w| (measured at most 2.1 dx max|w| over 300 draws)."""
    rng = np.random.default_rng(seed)
    d = {1: grid1d(n=17), 2: grid2d(n=13), 3: grid3d(n=9)}[ndim]
    spec = random_spec(kind, d, rng)
    q = random_convex_fn(d, rng)
    slope = rng.normal(size=ndim)
    one_axis = one_axis or ndim == 1
    if one_axis:
        slope[np.arange(ndim) != rng.integers(ndim)] = 0.0
    a = ((d.points() - rng.uniform(d.lo, d.hi)) @ slope).reshape(d.shape)
    f, h = (ExtGridFn(d, q.values + np.maximum(0.0, s * a)) for s in (1.0, -1.0))
    values = _evaluate_stack(spec, d, np.stack([f.values, h.values, q.values + np.abs(a)]))
    tol = 1e-12 * (1.0 + float(np.max(np.abs(values))))
    if not one_axis:
        w_max = sum(abs(c) * float(np.max(np.abs(s.weight.values)))
                    for c, s in _leaves(spec) if isinstance(s, HessianDensity))
        tol += 12.0 * float(np.max(d.spacing)) * w_max
    assert valuation_residual(spec, f, h) <= tol


def test_invariance_residuals():
    rng = np.random.default_rng(16)
    d1 = grid1d()
    f1 = random_convex_fn(d1, rng)
    d2 = grid2d(lo=-2.0, hi=2.0, n=33)
    f2 = random_convex_fn(d2, rng)
    hess = HessianDensity(2, bump_weight(d2))
    for _ in range(20):
        lam1 = rng.normal(size=1)
        lam2 = rng.normal(size=2) * 0.5
        c = rng.normal()
        s1 = 1 + abs(evaluate(mu1(), f1))
        assert depi_invariance_residual(mu1(), f1, lam1, c) <= 1e-12 * s1
        s2 = 1 + abs(evaluate(hess, f2))
        assert depi_invariance_residual(hess, f2, lam2, c) <= 1e-12 * s2


def test_invariance_negative_control():
    d = grid1d()
    point_mass = PairingMeasure([[0.0]], [1.0], check=False)
    f = sample(d, lambda p: p[:, 0] ** 2)
    c = 0.37
    res = depi_invariance_residual(point_mass, f, [0.5], c)
    assert res == pytest.approx(abs(c), abs=1e-12)
    assert res > 1e-3


# ------------------------------------------------------------- decomposition

def test_decompose_constant_and_pairing():
    d = grid1d()
    f = sample(d, lambda p: p[:, 0] ** 2)
    parts = homogeneous_decompose(Constant(3.0), f, n=1)
    assert parts.components[0] == pytest.approx(3.0, abs=1e-10)
    assert np.all(np.abs(parts.components[1:]) <= 1e-10)
    parts = homogeneous_decompose(mu1(), f, n=1)
    assert parts.components[1] == pytest.approx(2.0, rel=1e-9)
    assert abs(parts.components[0]) <= 1e-9


def test_decompose_composite_matches_per_term():
    d = grid2d(lo=-2.0, hi=2.0, n=33)
    hess = HessianDensity(2, bump_weight(d))
    pair = PairingMeasure([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                          [1.0, 1.0, -2.0])
    spec = Composite([(1.0, Constant(3.0)), (1.0, pair), (1.0, hess)])
    f = quadratic(d)  # |x|^2/2
    parts = homogeneous_decompose(spec, f, n=2)
    assert parts.components[0] == pytest.approx(3.0, rel=1e-9)
    assert parts.components[1] == pytest.approx(evaluate(pair, f), rel=1e-9)
    assert parts.components[2] == pytest.approx(evaluate(hess, f), rel=1e-9)
    assert parts.top_residual <= 1e-8 * parts.scale
    assert parts.total() == pytest.approx(evaluate(spec, f), rel=1e-9)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ndim=st.sampled_from([1, 2, 3]), kind=st.sampled_from(SPEC_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_decompose_components_are_homogeneous(ndim, kind, seed):
    # component i at t f is t^i times component i at f
    rng = np.random.default_rng(seed)
    d = {1: grid1d(n=17), 2: grid2d(n=13), 3: grid3d(n=9)}[ndim]
    spec = random_spec(kind, d, rng)
    f = rng.normal(size=d.shape)
    parts = homogeneous_decompose(spec, ExtGridFn(d, f))  # n defaults to the grid's
    for t in (0.5, 2.0, 3.0):
        scaled = homogeneous_decompose(spec, ExtGridFn(d, t * f), ndim)
        want = t ** np.arange(ndim + 1) * parts.components
        assert np.max(np.abs(scaled.components - want)) <= 1e-11 * max(parts.scale,
                                                                        scaled.scale)


def test_decompose_components_are_valuations():
    d = grid1d()
    spec = Composite([(1.0, Constant(2.0)), (1.0, mu1())])
    comp1 = component_functional(spec, 1, n=1)
    f = sample(d, lambda p: p[:, 0] ** 2)
    h = ExtGridFn(d, f.values + 0.5)
    scale = 1 + abs(comp1(f)) + abs(comp1(h))
    assert valuation_residual(comp1, f, h) <= 1e-9 * scale
    for deg, n in ((-1, 1), (2, 1), (0, -1)):
        with pytest.raises(ValueError, match="deg|n must"):
            component_functional(spec, deg, n)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        homogeneous_decompose(spec, f, n=-1)


def test_decompose_refuses_a_huge_n_before_building_the_system(monkeypatch):
    # the (n + 2)^2 Vandermonde matrix would take 7.3 TiB at n = 10**6
    def no_system(*args, **kwargs):
        raise AssertionError("the Vandermonde system was built")

    monkeypatch.setattr(np, "vander", no_system)
    f = sample(grid1d(), lambda p: p[:, 0] ** 2)
    with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
        homogeneous_decompose(mu1(), f, n=10**6)
    with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
        component_functional(mu1(), 1, n=10**6)


# --------------------------------------------------------- mixed determinant

def test_mixed_determinant_diagonal_and_identity():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(2, 2))
    A = A + A.T
    assert mixed_determinant(A, A) == pytest.approx(np.linalg.det(A), rel=1e-12)
    assert mixed_determinant(np.eye(2), np.diag([3.0, 5.0])) \
        == pytest.approx((3.0 + 5.0) / 2, abs=1e-12)
    B = rng.normal(size=(2, 2))
    B = B + B.T
    expected = (np.linalg.det(A + B) - np.linalg.det(A) - np.linalg.det(B)) / 2
    assert mixed_determinant(A, B) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_mixed_determinant_vs_stencil_oracle(n):
    rng = np.random.default_rng(100 + n)
    mats = []
    for _ in range(n):
        M = rng.normal(size=(n, n))
        mats.append(M + M.T)

    def det_of_combination(lam):
        return np.linalg.det(sum(l * m for l, m in zip(lam, mats)))

    from math import factorial
    oracle = mixed_coeff_oracle(det_of_combination, n, 4) / factorial(n)
    assert mixed_determinant(*mats) == pytest.approx(oracle, abs=1e-10)


def test_mixed_determinant_symmetric_multilinear():
    rng = np.random.default_rng(41)
    A, B, C = (rng.normal(size=(3, 3)) for _ in range(3))
    A, B, C = A + A.T, B + B.T, C + C.T
    assert mixed_determinant(A, B, C) == pytest.approx(
        mixed_determinant(C, A, B), rel=1e-12)
    lhs = mixed_determinant(A + B, B, C)
    rhs = mixed_determinant(A, B, C) + mixed_determinant(B, B, C)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_determinant_matches_inclusion_exclusion(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        mats = [M + M.T for M in rng.normal(size=(n, n, n))]
        want = inclusion_exclusion_mixed_determinant(*mats)
        scale = np.prod([np.max(np.abs(M)) for M in mats])
        assert abs(mixed_determinant(*mats) - want) <= 1e-12 * max(abs(want), scale)
    # stacked: leading axes broadcast, each index on its own
    stack = [rng.normal(size=(4, 5, n, n)) for _ in range(n)]
    stack = [M + np.swapaxes(M, -1, -2) for M in stack]
    got = mixed_determinant(*stack)
    assert got.shape == (4, 5)
    assert got[2, 3] == mixed_determinant(*[M[2, 3] for M in stack])


# ------------------------------------------------------------------ embedding

def test_embed_translation_invariance_and_value():
    d = GridDomain([-2.0], [2.0], [129])
    K = Polytope([[1.0, 0.0], [-1.0, 0.0]])
    v = embed_T(mu1(), K, d)
    assert v == pytest.approx(2.0, abs=1e-10)  # mu1(|x|) = 2
    Kt = K.translate([0.4, -0.3])
    assert embed_T(mu1(), Kt, d) == pytest.approx(v, abs=1e-12)


def test_embed_homogeneity():
    d = GridDomain([-2.0], [2.0], [129])
    K = Polytope([[0.8, 0.1], [-0.5, -0.2], [0.2, 0.4]])
    base = embed_T(mu1(), K, d)
    for t in (0.5, 2.0):
        assert embed_T(mu1(), K.scale(t), d) == pytest.approx(t * base,
                                                              rel=1e-9,
                                                              abs=1e-12)


def test_embed_body_valuation_identity_on_segments():
    rng = np.random.default_rng(55)
    d = GridDomain([-2.0], [2.0], [129])
    for _ in range(10):
        alpha, beta = rng.normal(size=2) * 0.5
        y = np.sort(rng.uniform(-1.5, 1.5, size=4))
        seg = lambda a, b: Polytope([[a, alpha * a + beta],
                                     [b, alpha * b + beta]])
        K, L = seg(y[0], y[2]), seg(y[1], y[3])
        union, inter = seg(y[0], y[3]), seg(y[1], y[2])
        lhs = embed_T(mu1(), union, d) + embed_T(mu1(), inter, d)
        rhs = embed_T(mu1(), K, d) + embed_T(mu1(), L, d)
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


# ------------------------------------------------------------------ res_star

def _open_interval_mask(domain, lo, hi):
    x = domain.points().ravel()
    return ScanMask(domain, (x > lo) & (x < hi))


def test_res_star_direct_and_roundtrip():
    d = GridDomain([-2.0], [2.0], [129])
    mask = _open_interval_mask(d, -1.5, 1.5)
    f = sample(d, lambda p: p[:, 0] ** 2)
    assert res_star(mu1(), f, mask) == pytest.approx(evaluate(mu1(), f),
                                                     abs=1e-12)
    ext = lsc_extend(f, mask)
    assert res_star(mu1(), ext, mask) == pytest.approx(evaluate(mu1(), f),
                                                       abs=1e-12)


def test_res_star_agrees_with_regularized_evaluation():
    d = GridDomain([-2.0], [2.0], [129])
    x = d.points().ravel()
    mask = _open_interval_mask(d, -1.5, 1.5)
    vals = np.where(mask.marked, x**2, np.inf)
    f = ExtGridFn(d, vals)
    direct = res_star(mu1(), f, mask)
    reg = lipschitz_regularize(f, 0.05)
    assert direct == pytest.approx(evaluate(mu1(), reg), abs=1e-9)
    bad = ExtGridFn(d, np.where((x > -1.0) & (x < 1.0), x**2, np.inf))
    with pytest.raises(ValueError):
        res_star(mu1(), bad, mask)  # +inf on U cells


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ndim=st.sampled_from([1, 2, 3]), kind=st.sampled_from(SPEC_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_res_star_on_a_box_around_the_read_cells_is_the_valuation(ndim, kind, seed):
    # the extension statement: a valuation whose reads lie in an open U is
    # determined by f on U, so res_star over U is mu(f); a connected U that
    # leaves out a read cell gives that value or is refused, and a
    # disconnected U is refused
    rng = np.random.default_rng(seed)
    d = {1: grid1d(n=17), 2: grid2d(n=13), 3: grid3d(n=9)}[ndim]
    spec = random_spec(kind, d, rng)
    f = random_convex_fn(d, rng)
    want = evaluate(spec, f)
    reads = _read_mask(spec, d)
    box = np.zeros(d.shape, dtype=bool)
    box[_bounding_window(_dilate(reads))[0]] = True
    assert res_star(spec, f, ScanMask(d, box)) == want
    first = np.nonzero(reads)[0]
    cut = np.array(box)
    if first.size:
        cut[:first.min() + 1] = False   # the box less the slab of its first read cell
    if first.size and cut.any():
        try:
            value = res_star(spec, f, ScanMask(d, cut))
        except ValueError:
            value = want
        assert value == want
    apart = np.zeros(d.shape, dtype=bool)
    apart.flat[[0, -1]] = True
    with pytest.raises(ValueError, match="disconnected"):
        res_star(spec, f, ScanMask(d, apart))


# ------------------------------------------------------------------ 3d paths

def test_hessian_3d_full_determinant():
    d = GridDomain([-1.5, -1.5, -1.5], [1.5, 1.5, 1.5], [17, 17, 17])
    w = Bump(d.center, 0.9, 1.0).sample(d)
    spec = HessianDensity(3, w)
    f = quadratic(d)  # det H = 1
    oracle = float(np.sum(w.values) * np.prod(d.spacing))
    assert evaluate(spec, f) == pytest.approx(oracle, rel=1e-9)
    A = np.diag([2.0, 1.0, 0.5])
    g = quadratic(d, A=A)
    assert evaluate(spec, g) == pytest.approx(np.linalg.det(A) * oracle,
                                              rel=1e-9)


def test_hessian_3d_mixed_with_two_aux():
    d = GridDomain([-1.5, -1.5, -1.5], [1.5, 1.5, 1.5], [17, 17, 17])
    w = Bump(d.center, 0.9, 1.0).sample(d)
    A1 = np.diag([1.0, 2.0, 3.0])
    A2 = np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.2], [0.0, 0.2, 1.0]])
    spec = HessianDensity(1, w, aux=[A1, A2])
    B = np.diag([0.5, 1.5, 1.0])
    f = quadratic(d, A=B)
    oracle = mixed_determinant(B, A1, A2) * float(np.sum(w.values)
                                                  * np.prod(d.spacing))
    assert evaluate(spec, f) == pytest.approx(oracle, rel=1e-8)


def test_hessian_aux_grid_field():
    d = grid2d(lo=-2.0, hi=2.0, n=33)
    w = bump_weight(d)
    # position-dependent symmetric field A(x) = (1 + |x|^2/8) * I
    scal = (1.0 + np.sum(d.points() ** 2, axis=1) / 8.0).reshape(d.shape)
    field = scal[..., None, None] * np.eye(2)
    spec = HessianDensity(1, w, aux=[field])
    f = quadratic(d)  # H = I, so D(H, A) = trace-type average = scal
    oracle = float(np.sum(w.values * scal) * np.prod(d.spacing))
    assert evaluate(spec, f) == pytest.approx(oracle, rel=1e-9)
