import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epival.convex
import epival.gw
from epival import (
    Bump,
    Composite,
    Constant,
    ConvexityViolation,
    DomainExceeded,
    ExtGridFn,
    GWQuery,
    GridDomain,
    HessianDensity,
    PairingMeasure,
    StepAgreementError,
    convex_split,
    diagonality_residual,
    evaluate,
    gw_eval,
    gw_report,
    is_discretely_convex,
    mixed_determinant,
    polarize,
    random_convex_fn,
    seminorm_estimate,
    support_scan,
    translate_covariance_residual,
)
from epival.convex import _discrete_c2_bound, central_hessian_at

from helpers import grid1d, grid2d, mixed_coeff_oracle, quadratic, sample, subset_polarization


def mu1(x=1.0):
    return PairingMeasure([[x], [-x], [0.0]], [1.0, 1.0, -2.0])


def hess2(domain, radius=0.8):
    w = Bump(domain.center, radius, 1.0).sample(domain)
    return HessianDensity(2, w)


# ---------------------------------------------------------------- polarize

def test_polarize_order_one_is_evaluate():
    d = grid1d()
    f = sample(d, lambda p: p[:, 0] ** 2)
    assert polarize(mu1(), 1, [f]) == pytest.approx(evaluate(mu1(), f),
                                                    abs=1e-14)


def test_polarize_diagonal_recovery():
    d = grid2d(lo=-2.0, hi=2.0, n=33)
    spec = hess2(d)
    rng = np.random.default_rng(3)
    f = random_convex_fn(d, rng)
    v = evaluate(spec, f)
    assert polarize(spec, 2, [f, f]) == pytest.approx(v, abs=1e-12 * (1 + abs(v)))


def test_polarize_symmetry_and_additivity():
    d = grid2d(lo=-2.0, hi=2.0, n=33)
    spec = hess2(d)
    rng = np.random.default_rng(9)
    f, g, h = (random_convex_fn(d, rng) for _ in range(3))
    ab = polarize(spec, 2, [f, g])
    ba = polarize(spec, 2, [g, f])
    assert ab == pytest.approx(ba, abs=1e-12 * (1 + abs(ab)))
    fg = ExtGridFn(d, f.values + g.values)
    lhs = polarize(spec, 2, [fg, h])
    rhs = polarize(spec, 2, [f, h]) + polarize(spec, 2, [g, h])
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))


def test_polarize_hessian_quadratics_match_mixed_determinant():
    d = grid2d(lo=-2.0, hi=2.0, n=41)
    w = Bump(d.center, 0.8, 1.0).sample(d)
    spec = HessianDensity(2, w)
    A1 = np.array([[1.5, 0.3], [0.3, 1.0]])
    A2 = np.array([[0.8, -0.2], [-0.2, 2.0]])
    f1 = quadratic(d, A=A1)
    f2 = quadratic(d, A=A2)
    expected = mixed_determinant(A1, A2) * float(np.sum(w.values)
                                                 * np.prod(d.spacing))
    assert polarize(spec, 2, [f1, f2]) == pytest.approx(expected, rel=1e-8)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3]), seed=st.integers(0, 2**16), data=st.data())
def test_polarize_is_symmetric_and_merges_repeated_inputs(k, seed, data):
    """Permuting the inputs leaves the value unchanged, and repeated inputs
    (k + 1 corners) give the subset loop's value over 2^k - 1 subsets; on
    distinct inputs the two evaluate the same rows in the same order."""
    d = GridDomain([-2.0] * k, [2.0] * k, [17 if k == 2 else 9] * k)
    spec = HessianDensity(k, Bump(d.center, 1.4 if k == 2 else 0.9, 1.0).sample(d))
    rng = np.random.default_rng(seed)
    pool = [random_convex_fn(d, rng) for _ in range(k)]
    picks = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    fs = [pool[i] for i in picks]
    v = polarize(spec, k, fs)
    want = subset_polarization(spec, k, fs)
    if len(set(picks)) == k:
        assert v == want
    assert v == pytest.approx(want, abs=1e-12 * (1 + abs(want)))
    perm = data.draw(st.permutations(range(k)))
    permuted = polarize(spec, k, [fs[i] for i in perm])
    assert permuted == pytest.approx(v, abs=1e-12 * (1 + abs(v)))


def test_polarize_rejects_wrong_homogeneity():
    d = grid1d()
    f = sample(d, lambda p: p[:, 0] ** 2 + 1.0)
    with pytest.raises(ValueError, match="homogeneity"):
        polarize(Constant(2.0), 2, [f, f])


# ------------------------------------------------------------------ gw_eval

def test_gw_pairing_matches_node_sum():
    d = GridDomain([-2.0], [2.0], [129])
    spec = mu1()
    bump = Bump([0.3], 0.7, 1.0)
    got = gw_eval(spec, GWQuery(1, [bump]), domain=d)
    want = float(spec.weights @ bump.value(spec.nodes))
    assert got == pytest.approx(want, abs=1e-10 * (1 + abs(want)))


def test_gw_pairing_away_from_nodes_vanishes():
    d = GridDomain([-2.0], [2.0], [129])
    got = gw_eval(mu1(), GWQuery(1, [Bump([1.7], 0.2, 1.0)]), domain=d)
    assert abs(got) <= 1e-12


def test_gw_hessian_matches_delta_stencil_oracle():
    d = grid2d(lo=-2.0, hi=2.0, n=33)
    spec = hess2(d)
    b1 = Bump([-0.3, 0.1], 0.5, 1.0)
    b2 = Bump([0.4, -0.2], 0.5, 1.0)
    base = ExtGridFn(d, np.sum(d.points() ** 2, axis=1).reshape(d.shape))
    phi1, phi2 = b1.sample(d).values, b2.sample(d).values

    h = 1e-3

    def mu_at(delta):
        g = ExtGridFn(d, base.values + delta[0] * phi1 + delta[1] * phi2)
        return evaluate(spec, g)

    oracle = mixed_coeff_oracle(mu_at, 2, 2, h=h) / 2.0
    got = gw_eval(spec, GWQuery(2, [b1, b2], base=base), domain=d)
    assert got == pytest.approx(oracle, rel=1e-7, abs=1e-9)
    # and against the quadrature of the mixed determinant of the bump Hessians
    supp = np.argwhere(spec.weight.values != 0.0)
    H1 = central_hessian_at(b1.sample(d).values, d.spacing, supp)
    H2 = central_hessian_at(b2.sample(d).values, d.spacing, supp)
    D = mixed_determinant(H1, H2)
    w = spec.weight.values[tuple(supp.T)]
    direct = float(np.sum(w * D) * np.prod(d.spacing))
    assert got == pytest.approx(direct, rel=1e-7, abs=1e-9)


def test_gw_half_step_report_and_multilinearity():
    d = grid2d(lo=-2.0, hi=2.0, n=33)
    spec = hess2(d)
    b1 = Bump([-0.3, 0.1], 0.5, 1.0)
    b2 = Bump([0.4, -0.2], 0.5, 1.0)
    rep = gw_report(spec, GWQuery(2, [b1, b2]), domain=d)
    assert rep["agreement"] <= 1e-7
    v1 = gw_eval(spec, GWQuery(2, [b1, b2]), domain=d)
    alpha = 3.0
    b1s = Bump([-0.3, 0.1], 0.5, alpha)
    v2 = gw_eval(spec, GWQuery(2, [b1s, b2]), domain=d)
    assert v2 == pytest.approx(alpha * v1, rel=1e-10)


def test_gw_step_agreement_guard_fires_for_non_polynomial_probe():
    d = GridDomain([-2.0], [2.0], [129])

    def fake(f):  # not a valuation: quadratic in the pairing
        return evaluate(mu1(), f) ** 2

    with pytest.raises(StepAgreementError):
        gw_eval(fake, GWQuery(1, [Bump([0.0], 0.5, 1.0)]), domain=d)


def test_gw_rejects_nonconvex_base():
    d = GridDomain([-2.0], [2.0], [65])
    bad = sample(d, lambda p: -p[:, 0] ** 2)
    with pytest.raises(ConvexityViolation):
        gw_eval(mu1(), GWQuery(1, [Bump([0.0], 0.5, 1.0)], base=bad), domain=d)


# ------------------------------------------------------------- diagonality

def test_diagonality_disjoint_bumps():
    d = grid2d(lo=-4.0, hi=4.0, n=49)
    w = Bump(d.center, 3.0, 1.0).sample(d)
    spec = HessianDensity(2, w)
    b1 = Bump([-2.0, 0.0], 0.5, 1.0)
    b2 = Bump([2.0, 0.0], 0.5, 1.0)
    res = diagonality_residual(spec, 2, [b1, b2])
    base = ExtGridFn(d, np.sum(d.points() ** 2, axis=1).reshape(d.shape))
    scale = (1 + abs(evaluate(spec, base)))
    assert res <= 1e-8 * scale


def test_diagonality_negative_control_same_center():
    d = grid2d(lo=-4.0, hi=4.0, n=49)
    w = Bump(d.center, 3.0, 1.0).sample(d)
    spec = HessianDensity(2, w)
    b1 = Bump([0.0, 0.0], 0.6, 1.0)
    b2 = Bump([0.0, 0.0], 0.6, 0.7)
    v = gw_eval(spec, GWQuery(2, [b1, b2]), domain=d)
    assert abs(v) > 1e-4
    with pytest.raises(ValueError, match="separated"):
        diagonality_residual(spec, 2, [b1, b2])


def test_diagonality_order_one_vacuous_case():
    d = GridDomain([-2.0], [2.0], [129])
    res = diagonality_residual(mu1(), 1, [Bump([1.7], 0.2, 1.0)], domain=d)
    assert res <= 1e-12


# ------------------------------------------------------------- support scan

def test_scan_pairing_nodes_covered_and_bounded():
    d = GridDomain([-2.0], [2.0], [129])
    pr = 0.3
    mask, resp = support_scan(mu1(), 1, pr, domain=d, return_responses=True)
    x = d.points().ravel()
    nodes = np.array([-1.0, 0.0, 1.0])
    # every node neighborhood is hit
    for nd in nodes:
        assert np.any(mask.marked & (np.abs(x - nd) <= pr)), nd
    # nothing marked beyond probe radius of the node set (responses vanish)
    dist = np.min(np.abs(x[:, None] - nodes[None, :]), axis=1)
    assert not np.any(mask.marked & (dist > pr))
    assert np.all(np.abs(resp[dist > pr]) <= 1e-12)
    # closed form: s(c) = sum_i w_i phi_c(node_i)
    spec = mu1()
    for idx in (10, 64, 96):
        phi = Bump([x[idx]], pr, 1.0)
        want = float(spec.weights @ phi.value(spec.nodes))
        assert resp[idx] == pytest.approx(want, abs=1e-9 * (1 + abs(want)))


def test_scan_constant_is_empty():
    d = GridDomain([-2.0], [2.0], [65])
    mask = support_scan(Constant(4.0), 0, 0.3, domain=d)
    assert mask.count == 0
    with pytest.raises(ValueError, match="k must be nonnegative"):
        support_scan(Constant(4.0), -1, 0.3, domain=d)


def test_scan_hessian_support_tracks_weight():
    d = grid2d(lo=-2.0, hi=2.0, n=25)
    w = Bump(d.center, 1.0, 1.0).sample(d)
    spec = HessianDensity(2, w)
    pr = 0.4
    mask = support_scan(spec, 2, pr, domain=d)
    assert mask.count > 0
    pts = d.points()
    r = np.linalg.norm(pts, axis=1).reshape(d.shape)
    assert not np.any(mask.marked & (r > 1.0 + pr + np.max(d.spacing)))


def test_scan_dilation_moves_argmax():
    d = GridDomain([-3.0], [3.0], [193])
    pr = 0.25
    x = d.points().ravel()
    _, r1 = support_scan(mu1(1.0), 1, pr, domain=d, return_responses=True)
    _, r2 = support_scan(mu1(2.0), 1, pr, domain=d, return_responses=True)
    right1 = np.argmax(np.where(x > 0.5, np.abs(r1), 0.0))
    right2 = np.argmax(np.where(x > 0.5, np.abs(r2), 0.0))
    assert abs(x[right1] - 1.0) <= pr + d.spacing[0]
    assert abs(x[right2] - 2.0) <= pr + d.spacing[0]
    assert abs(x[right2] - 2.0 * x[right1]) <= 2 * d.spacing[0] + 1e-12


def test_scan_does_not_depend_on_block_size(monkeypatch):
    d = grid2d(lo=-2.0, hi=2.0, n=17)
    spec = hess2(d)
    d1 = GridDomain([-2.0], [2.0], [65])
    whole = [support_scan(spec, 2, 0.5, domain=d, return_responses=True)[1],
             support_scan(mu1(), 1, 0.3, domain=d1, return_responses=True)[1]]
    # blocks of a single probe, and of a few probes with a ragged last block
    for block in (1, 7 * 2 * 2 * d.size * 4):
        monkeypatch.setattr(epival.convex, "_BLOCK", block)
        assert np.array_equal(
            support_scan(spec, 2, 0.5, domain=d, return_responses=True)[1], whole[0])
        assert np.array_equal(
            support_scan(mu1(), 1, 0.3, domain=d1, return_responses=True)[1], whole[1])


@pytest.mark.parametrize("k, step", [(1, 0.2), (2, 0.1)])
def test_scan_probes_halve_their_own_step(k, step):
    d = grid2d(lo=-2.0, hi=2.0, n=17)
    spec = hess2(d) if k == 2 else HessianDensity(1, hess2(d).weight, aux=[np.eye(2)])
    radius = 0.5
    _, resp = support_scan(spec, k, radius, domain=d, step=step, return_responses=True)
    steps = set()
    # every fourth cell, the four corner cells among them
    for c, r in zip(d.points()[::4], resp.ravel()[::4]):
        report = gw_report(spec, GWQuery(k, [Bump(c, radius, 1.0)] * k, step=step),
                           domain=d)
        assert r == report["value"]
        steps.add(report["step"])
    # the corner probes see little of their bump and keep the larger step
    assert len(steps) > 1 and step in steps


def test_scan_step_on_an_even_grid_with_a_sub_cell_probe():
    # the grid centre is no node, so a probe there samples to zero; the step
    # must come from a probe on a node, or 10 halvings do not reach it
    d = GridDomain([-1.0], [1.0], [400])
    mask = support_scan(mu1(0.5), 1, 0.4 * float(d.spacing[0]), domain=d)
    x = d.points()[mask.marked.ravel(), 0]
    assert mask.count == 6
    assert np.all(np.min(np.abs(x[:, None] - [-0.5, 0.0, 0.5]), axis=1) < d.spacing[0])


# --------------------------------------------------- the sampled C2 bound

def _cube(n):
    """[-1, 1]^n with 33, 17 or 9 samples per axis."""
    return GridDomain([-1.0] * n, [1.0] * n, [{1: 33, 2: 17, 3: 9}[n]] * n)


def _random_bumps(data, domain, count):
    """`count` bumps in `domain`, half of them of radius under two cells."""
    n, cell = domain.ndim, float(domain.spacing[0])
    radii = st.one_of(st.floats(cell / 3, 2 * cell), st.floats(2 * cell, 0.8))
    return [Bump(data.draw(st.lists(st.floats(-0.7, 0.7), min_size=n, max_size=n)),
                 data.draw(radii), data.draw(st.floats(-3.0, 3.0)))
            for _ in range(count)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_default_step_comes_from_the_samples_and_is_never_halved(data):
    n = data.draw(st.integers(1, 3))
    dom = _cube(n)
    k = data.draw(st.integers(1, n))
    tests = _random_bumps(data, dom, k)
    if data.draw(st.booleans()):
        tests = [tests[0]] * k  # identical tests: the binomial corners
    if k == 1:
        nodes = np.zeros((3, n))
        nodes[0, 0], nodes[1, 0] = 0.5, -0.5
        spec = PairingMeasure(nodes, [1.0, 1.0, -2.0])
    else:
        spec = HessianDensity(k, Bump(np.zeros(n), 0.5, 1.0).sample(dom),
                              [np.eye(n)] * (n - k))
    report = gw_report(spec, GWQuery(k, tests), dom)
    c2 = max(_discrete_c2_bound(b.sample(dom)) for b in tests)
    assert report["step"] == min(0.1, 1.0 / (k * max(c2, 1e-12)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_convex_split_of_random_bumps_has_convex_halves(data):
    dom = _cube(data.draw(st.integers(1, 3)))
    bump, = _random_bumps(data, dom, 1)
    f, h = convex_split(bump, dom)
    assert is_discretely_convex(f) and is_discretely_convex(h)
    residual = np.max(np.abs(f.values - h.values - bump.sample(dom).values))
    assert residual <= 1e-12 * (1.0 + np.max(h.values))


# ----------------------------------------------------- translate covariance

def test_translate_covariance():
    d = GridDomain([-3.0], [3.0], [121])
    assert translate_covariance_residual(mu1(), [0.0], 0.3, domain=d) == 0.0
    res = translate_covariance_residual(mu1(), [0.5], 0.3, domain=d)
    assert res <= 1.0
    with pytest.raises(DomainExceeded):
        translate_covariance_residual(mu1(), [3.0], 0.3, domain=d)


# ----------------------------------------------------------------- seminorm

def test_seminorm_zero_valuation():
    d = GridDomain([-2.0], [2.0], [65])
    assert seminorm_estimate(Constant(0.0), [-1.0], [1.0], 0.2, 8, seed=1,
                             domain=d) == 0.0


def test_seminorm_canonical_witness_reaches_two():
    d = GridDomain([-2.0], [2.0], [161])
    est = seminorm_estimate(mu1(), [-1.2], [1.2], 0.2, 1, seed=0, domain=d)
    assert est >= 2.0 - 1e-9


def test_seminorm_monotone_and_deterministic():
    d = GridDomain([-2.0], [2.0], [81])
    small = seminorm_estimate(mu1(), [-1.2], [1.2], 0.2, 5, seed=7, domain=d)
    big = seminorm_estimate(mu1(), [-1.2], [1.2], 0.2, 25, seed=7, domain=d)
    again = seminorm_estimate(mu1(), [-1.2], [1.2], 0.2, 25, seed=7, domain=d)
    assert small <= big
    assert big == again
    with pytest.raises(DomainExceeded):
        seminorm_estimate(mu1(), [-1.9], [1.9], 0.2, 4, seed=1, domain=d)


@pytest.mark.parametrize("A_lo, A_hi, grid", [
    ([2.0], [1.2], GridDomain([-2.0], [2.0], [81])),  # inside out: [1.6, 1.6]
    ([-0.1], [0.1], GridDomain([-2.0], [2.0], [3])),  # one grid cell, its center
])
def test_seminorm_norm_box_needs_two_cells(A_lo, A_hi, grid):
    with pytest.raises(ValueError, match="two grid cells"):
        seminorm_estimate(mu1(), A_lo, A_hi, 0.2, 4, seed=1, domain=grid)


def _seminorm_specs(ndim):
    """Specs of every kind on a grid whose source box [A_lo - s, A_hi + s] is
    [-1.1, 1.1]^n: some read only cells inside it, some cells outside."""
    if ndim == 1:
        d = GridDomain([-2.0], [2.0], [81])
        inside = PairingMeasure([[-0.5], [0.0], [0.5]], [1.0, -2.0, 1.0])
        outside = PairingMeasure([[0.03], [0.78], [1.53]], [1.0, -2.0, 1.0])

        def hess(c, r):
            return HessianDensity(1, Bump([c], r, 1.0).sample(d))
    else:
        d = GridDomain([-2.0, -2.0], [2.0, 2.0], [33, 33])
        star = np.array([[0.0, 0.0], [0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3]])
        lap = [-4.0, 1.0, 1.0, 1.0, 1.0]
        inside = PairingMeasure(star, lap)
        outside = PairingMeasure(star + [1.17, 0.1], lap)

        def hess(c, r):
            return HessianDensity(2, Bump([c, 0.1], r, 1.0).sample(d))
    A = ([-0.8] * ndim, [0.8] * ndim, 0.3)
    specs = {
        "pairing-inside": inside,
        "pairing-outside": outside,
        "hessian-inside": hess(0.0, 0.6),
        "hessian-straddling": hess(1.0, 0.5),
        "composite": Composite([(1.0, outside), (-0.5, hess(0.0, 0.6)),
                                (2.0, Constant(1.0))]),
        "constant": Constant(1.5),
        "callable": lambda f: float(np.sum(f.values)),
    }
    return d, A, specs


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("kind", ["pairing-inside", "pairing-outside", "hessian-inside",
                                  "hessian-straddling", "composite", "constant", "callable"])
def test_seminorm_read_mask_matches_full_extension(monkeypatch, ndim, kind):
    d, (A_lo, A_hi, s), specs = _seminorm_specs(ndim)
    spec = specs[kind]
    got = seminorm_estimate(spec, A_lo, A_hi, s, 6, seed=5, domain=d)
    monkeypatch.setattr(epival.gw, "_read_mask", lambda spec, dom: np.ones(dom.shape, bool))
    full = seminorm_estimate(spec, A_lo, A_hi, s, 6, seed=5, domain=d)
    assert got == full
    if kind != "constant":
        assert got > 0.0
