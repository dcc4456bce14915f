import random
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import epival.convex
import epival.gw
from epival import (
    Bump,
    Composite,
    Constant,
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
)
from epival.convex import _convex_rows, _curvature, central_hessian_at
from epival.grids import _bounding_window
from epival.valuations import _leaves, _read_mask

from helpers import (SPEC_KINDS, grid1d, grid2d, mixed_coeff_oracle, peak_floats,
                     point_list_convex_fn, quadratic, random_spec, sample, subset_polarization)


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


def _polarize_k3_3d():
    """A k = 3 polarization of three distinct inputs on 17^3: 7 corner rows,
    about 75k floats each by _row_floats."""
    d = GridDomain([-2.0] * 3, [2.0] * 3, [17] * 3)
    rng = np.random.default_rng(5)
    return (HessianDensity(3, Bump(d.center, 1.2, 1.0).sample(d)),
            [random_convex_fn(d, rng) for _ in range(3)])


def test_polarize_does_not_depend_on_block_size(monkeypatch):
    spec, fs = _polarize_k3_3d()
    monkeypatch.setattr(epival.convex, "_BLOCK", 1 << 30)
    whole = polarize(spec, 3, fs)  # every corner at once
    # one corner a block; three of the seven, with a ragged last block
    for block in (1, 3 * epival.gw._row_floats((17,) * 3, 3)):
        monkeypatch.setattr(epival.convex, "_BLOCK", block)
        assert polarize(spec, 3, fs) == whole


def test_polarize_takes_its_corners_in_blocks():
    """Each corner is built and evaluated in a block of its own, and then
    the two homogeneity rows: measured 55k floats, against 150k when the nine
    rows were built at once."""
    spec, fs = _polarize_k3_3d()
    assert peak_floats(lambda: polarize(spec, 3, fs)) <= 65_000


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
    got = gw_eval(spec, GWQuery(2, [b1, b2]), domain=d)
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


def test_diagonality_needs_two_empty_cells_between_supports():
    # a Hessian cell term reads its 3^n box: with one empty column between
    # the supports (column 20 at x = 0), that cell's stencil sees both tests
    d = grid2d(n=41)
    spec = HessianDensity(2, Bump([0.0, 0.0], 1.8).sample(d))
    close = [Bump([-0.499, 0.13], 0.45), Bump([0.499, -0.21], 0.45)]
    cols = [np.flatnonzero(b.sample(d).values.any(axis=1)) for b in close]
    assert cols[0].max() == 19 and cols[1].min() == 21
    assert abs(gw_eval(spec, GWQuery(2, close))) > 1e-4
    with pytest.raises(ValueError, match="two empty cells"):
        diagonality_residual(spec, 2, close)
    apart = [Bump([-0.549, 0.13], 0.45), Bump([0.499, -0.21], 0.45)]
    report = epival.gw._diagonality(spec, GWQuery(2, apart))
    assert report["residual"] <= 1e-10 * report["corner_max"]


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


@pytest.mark.parametrize("probe_radius, tol, name", [
    (np.inf, 1e-6, "probe_radius"), (np.nan, 1e-6, "probe_radius"),
    (0.5, np.nan, "tol"), (0.5, np.inf, "tol"),
])
def test_scan_refuses_a_non_finite_radius_or_tol(probe_radius, tol, name):
    """An infinite radius or tolerance, or a NaN one, would mark no cell or
    fail inside numpy; each is refused by name. At radius 0.5 and tol 1e-6
    the scan marks cells."""
    spec = PairingMeasure([[1.0], [-1.0], [0.0]], [1.0, 1.0, -2.0])
    d = grid1d(n=33)
    assert support_scan(spec, 1, 0.5, domain=d).count > 0
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        support_scan(spec, 1, probe_radius, tol, domain=d)


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
    """Only a callable's corner rows are taken a block of probes at a time,
    and each row reduces on its own, so no response depends on the block."""
    d = grid2d(lo=-2.0, hi=2.0, n=17)
    spec = hess2(d)
    cases = [(spec, 2, 0.5, d), (Composite([(1.0, spec), (0.5, lambda f: evaluate(spec, f))]),
                                 2, 0.5, d), (mu1(), 1, 0.3, GridDomain([-2.0], [2.0], [65]))]
    whole = [support_scan(s, k, r, domain=g, return_responses=True)[1] for s, k, r, g in cases]
    # blocks of a single probe, and of 7 probes with a ragged last block
    for block in (1, 7 * 2 * 2 * d.size):
        monkeypatch.setattr(epival.convex, "_BLOCK", block)
        for (s, k, r, g), want in zip(cases, whole):
            assert np.array_equal(support_scan(s, k, r, domain=g, return_responses=True)[1], want)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_scan_steps_keep_every_corner_convex_on_the_whole_grid(data):
    """A scan takes one step, from the curvature of its template; every
    corner |x|^2 + j h phi_c (j = 1..k, at h and h/2) of every probe c, phi_c
    being Bump(c, r) sampled on the whole grid, passes the convexity check.
    The spec cannot fail the agreement check, and corner convexity does not
    depend on it."""
    n = data.draw(st.integers(1, 3))
    shape = [data.draw(st.integers(3, {1: 40, 2: 15, 3: 7}[n])) for _ in range(n)]
    hi = np.array([data.draw(st.floats(0.5, 3.0)) for _ in range(n)])
    dom = GridDomain(-hi, hi, shape)
    k = data.draw(st.integers(1, 3))
    radius = data.draw(st.floats(float(np.min(dom.spacing)) / 3, 3 * float(np.max(2 * hi))))
    steps, auto_step = [], epival.gw._auto_step
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(epival.gw, "_auto_step",
                            lambda k, curvature: steps.append(auto_step(k, curvature)) or steps[-1])
        support_scan(Constant(0.0), k, radius, domain=dom)
    h, = steps
    base = np.sum(dom.points()**2, axis=1).reshape(dom.shape)
    js = np.array([j * s for j in range(1, k + 1) for s in (h, h / 2.0)])
    for c in dom.points():
        phi = Bump(c, radius, 1.0).sample(dom).values
        assert np.all(_convex_rows(base + js.reshape((-1,) + (1,) * n) * phi))


def _window_specs(kind):
    """(spec, grid, k, probe radius) of every kind of spec a scan takes."""
    d1 = GridDomain([-2.0], [2.0], [65])
    d2 = grid2d(lo=-2.0, hi=2.0, n=21)
    d3 = GridDomain([-2.0] * 3, [2.0] * 3, [11] * 3)
    hess = hess2(d2)
    x = d2.points().reshape(d2.shape + (2,))
    aux = np.empty(d2.shape + (2, 2))
    aux[..., 0, 0], aux[..., 1, 1] = 1.0 + x[..., 0] ** 2, 1.0 + x[..., 1] ** 2
    aux[..., 0, 1] = aux[..., 1, 0] = 0.3 * x[..., 0] * x[..., 1]
    star = PairingMeasure([[0.0, 0.1], [0.5, 0.1], [-0.5, 0.1], [0.0, 0.6], [0.0, -0.4]],
                          [-4.0, 1.0, 1.0, 1.0, 1.0])
    return {
        "pairing-1d": (mu1(), d1, 1, 0.3),
        "pairing-2d": (star, d2, 1, 0.45),
        "hessian-k1-cell-aux": (HessianDensity(1, hess.weight, aux=[aux]), d2, 1, 0.5),
        "hessian-k2": (hess, d2, 2, 0.5),
        "hessian-k3-3d": (HessianDensity(3, Bump(d3.center, 1.0, 1.0).sample(d3)), d3, 3, 0.5),
        "composite": (Composite([(1.0, hess), (-0.5, star), (2.0, Constant(1.0))]),
                      d2, 2, 0.5),
        "composite-callable": (Composite([(1.0, hess), (0.5, lambda f: evaluate(hess, f))]),
                               d2, 2, 0.5),
    }[kind]


def _assert_scan_is_gw_report(spec, d, k, radius, cells):
    """At about `cells` cells the scan's response is the value gw_report
    takes of the probe's k-fold bump on the whole grid, within 1e-10 of the
    peak response."""
    _, resp = support_scan(spec, k, radius, domain=d, return_responses=True)
    peak = np.max(np.abs(resp))
    every = max(1, d.size // cells)
    for c, r in zip(d.points()[::every], resp.ravel()[::every]):
        report = gw_report(spec, GWQuery(k, [Bump(c, radius, 1.0)] * k), domain=d)
        assert abs(r - report["value"]) <= 1e-10 * peak
    return peak


@pytest.mark.parametrize("kind", ["pairing-1d", "pairing-2d", "hessian-k1-cell-aux",
                                  "hessian-k2", "hessian-k3-3d", "composite",
                                  "composite-callable"])
def test_scan_windows_match_the_whole_grid(kind):
    # every probe the scan correlates is the whole-grid Goodey-Weil value
    assert _assert_scan_is_gw_report(*_window_specs(kind), cells=40) > 0


def _degree(spec):
    """The largest degree of the spec's terms: 0 for a constant, 1 for a
    pairing, the order of a Hessian density."""
    return max((1 if isinstance(s, PairingMeasure) else getattr(s, "order", 0))
               for _, s in _leaves(spec))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ndim=st.sampled_from([1, 2, 3]), kind=st.sampled_from(SPEC_KINDS + ("composite-callable",)),
       seed=st.integers(0, 2**32 - 1))
def test_scan_responses_are_gw_report_values(ndim, kind, seed):
    """For every kind of spec, at k its degree (1 for a constant), on 1D-3D
    grids: the scan's responses are gw_report's values of the probes."""
    rng = np.random.default_rng(seed)
    d = _cube(ndim)
    if kind == "composite-callable":
        inner = random_spec("hessian", d, rng)
        spec = Composite([(1.0, inner), (0.5, lambda f: evaluate(inner, f))])
        k = inner.order
    else:
        spec = random_spec(kind, d, rng)
        k = max(_degree(spec), 1)
    _assert_scan_is_gw_report(spec, d, k, 0.5, cells=12)


def test_scan_allocates_at_most_two_and_a_half_blocks():
    """A 65^2 k=2 and a 17^3 k=3 Hessian scan at radius 0.3 hold their
    template's corners, kernels and one correlation per kernel row: measured
    87k and 147k floats (205k and 341k when each probe was evaluated on its
    window, in blocks of at least 24 probes); the bounds are 2.5 blocks of
    2^17 and 400k floats."""
    d2 = GridDomain([-2.0] * 2, [2.0] * 2, [65, 65])
    d3 = GridDomain([-2.0] * 3, [2.0] * 3, [17] * 3)
    for spec, k, bound in ((hess2(d2, radius=1.2), 2, 2.5 * epival.convex._BLOCK),
                           (HessianDensity(3, Bump(d3.center, 1.2, 1.0).sample(d3)), 3,
                            400_000)):
        assert peak_floats(lambda: support_scan(spec, k, 0.3)) <= bound


def test_benchmark_sized_scans_allocate_at_most_200k_floats():
    """The probe workload's scans, a 33^2 Hessian k=2 and a 33^2 pairing k=1
    scan at radius 0.3, each start a fresh process, where every float
    allocated is a page faulted in: measured about 28k and 15k floats (121k
    and 92k with per-probe windows in 1 MB blocks, 457k and 318k in 4 MB
    blocks)."""
    d = grid2d(n=33)
    pairing = PairingMeasure([[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]],
                             [1.0, -1.0, -1.0, 1.0])
    for spec, k in ((hess2(d, radius=1.2), 2), (pairing, 1)):
        assert peak_floats(lambda: support_scan(spec, k, 0.3, domain=d)) <= 200_000


def _gw_k3_3d():
    """A 17^3 Hessian density of order 3 and a query of three distinct bumps:
    14 whole-grid corner rows at steps h and h/2."""
    d = GridDomain([-2.0] * 3, [2.0] * 3, [17] * 3)
    bumps = [Bump([0.2, -0.1, 0.3], 0.8, 1.0), Bump([-0.3, 0.2, 0.0], 0.7, 1.0),
             Bump([0.0, 0.3, -0.2], 0.9, 1.0)]
    return HessianDensity(3, Bump(d.center, 1.2, 1.0).sample(d)), GWQuery(3, bumps)


def test_gw_report_takes_its_corners_in_blocks():
    """Each corner's two rows (about 151k floats by _row_floats) are built
    and evaluated in a block of their own: measured 85k floats, against
    212k when the 14 rows were built at once."""
    spec, query = _gw_k3_3d()
    assert peak_floats(lambda: gw_report(spec, query)) <= 100_000


def test_gw_report_does_not_depend_on_block_size(monkeypatch):
    spec, query = _gw_k3_3d()
    monkeypatch.setattr(epival.convex, "_BLOCK", 1 << 30)
    whole = gw_report(spec, query)  # every corner at once
    # one corner a block; three of the seven, with a ragged last block
    for block in (1, 3 * 2 * epival.gw._row_floats((17,) * 3, 3)):
        monkeypatch.setattr(epival.convex, "_BLOCK", block)
        assert gw_report(spec, query) == whole


def test_scan_refuses_a_negative_tol():
    # a negative tol would mark every cell, zero responses included
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        support_scan(mu1(), 1, 0.3, tol=-1.0, domain=GridDomain([-2.0], [2.0], [65]))


def _spike(d):
    """A grid test function whose second difference overflows."""
    values = np.zeros(d.shape)
    values[16], values[15] = 1e308, -1e308
    return ExtGridFn(d, values)


@pytest.mark.parametrize("tests, message", [
    ([Bump([0.0], 0.5, 1e308)], "curvature of phi overflows"),
    ([_spike(GridDomain([-2.0], [2.0], [33]))], "curvature of phi overflows"),
    # a finite curvature c, but k * c overflows: the step would be 0
    ([Bump([0.0], 0.3, 3e306)] * 2, "step must be positive"),
], ids=["bump", "grid", "k-times-curvature"])
def test_gw_refuses_a_test_whose_curvature_overflows(tests, message):
    # refused before any work, and without a numpy warning: a zero step
    # would divide by zero
    d = GridDomain([-2.0], [2.0], [33])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            gw_report(mu1(0.5), GWQuery(len(tests), tests), d)


def test_scan_marks_no_response_within_its_noise_floor():
    # above its degree a pairing's responses are rounding noise, below their
    # floors, however small tol * peak is
    d = GridDomain([-2.0], [2.0], [33])
    masks = {k: support_scan(mu1(0.5), k, 0.5, domain=d) for k in (1, 2, 3)}
    assert masks[1].count == 15
    assert np.flatnonzero(masks[1].marked).tolist() == list(range(9, 24))
    assert masks[2].count == masks[3].count == 0


def test_scan_step_on_an_even_grid_with_a_sub_cell_probe():
    # a probe of radius under half a cell samples its own node only, and its
    # step comes from that sample; the grid centre is no node, so a probe
    # there would sample to zero
    d = GridDomain([-1.0], [1.0], [400])
    mask = support_scan(mu1(0.5), 1, 0.4 * float(d.spacing[0]), domain=d)
    x = d.points()[mask.marked.ravel(), 0]
    assert mask.count == 6
    assert np.all(np.min(np.abs(x[:, None] - [-0.5, 0.0, 0.5]), axis=1) < d.spacing[0])


# ---------------------------------------------------- the sampled curvature

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
def test_default_step_comes_from_the_samples_and_keeps_every_corner_convex(data):
    """gw_report's step comes from the curvature of its tests' samples, and
    every corner |x|^2 + s sum_{i in S} phi_i (S a nonempty subset of the
    tests, s = h or h/2) passes the convexity check on the whole grid."""
    n = data.draw(st.integers(1, 3))
    dom = _cube(n)
    k = data.draw(st.integers(1, n))
    tests = _random_bumps(data, dom, k)
    if data.draw(st.booleans()):  # rough grid tests, as from a --test file
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        tests = [ExtGridFn(dom, rng.uniform(-3.0, 3.0, dom.shape)) for _ in tests]
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
    phis = np.stack([t.sample(dom).values if isinstance(t, Bump) else t.values
                     for t in tests])
    h = report["step"]
    assert h == min(0.1, 1.0 / (k * max(max(_curvature(p, dom.spacing) for p in phis), 1e-12)))
    sums = np.stack([phis[list(S)].sum(axis=0) for r in range(1, k + 1)
                     for S in combinations(range(k), r)])
    base = np.sum(dom.points()**2, axis=1).reshape(dom.shape)
    corners = np.concatenate([base + s * sums for s in (h, h / 2.0)])
    assert np.all(_convex_rows(corners))


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

def _shift(a, v):
    """a moved by the whole cells v along its first len(v) axes, 0 where
    nothing moves in."""
    out = np.zeros_like(a)
    out[tuple(slice(max(0, s), m - max(0, -s)) for s, m in zip(v, a.shape))] = \
        a[tuple(slice(max(0, -s), m - max(0, s)) for s, m in zip(v, a.shape))]
    return out


def _moved(spec, v, d):
    """The spec and its copy moved by the whole cells v: a pairing's nodes
    move, a Hessian density's weight and per-cell aux move, the weight first
    cut to the cells that stay off the 2-cell margin both ways."""
    if isinstance(spec, Composite):
        pairs = [(c, _moved(s, v, d)) for c, s in spec.terms]
        return tuple(Composite([(c, p[i]) for c, p in pairs]) for i in (0, 1))
    if isinstance(spec, PairingMeasure):
        return spec, PairingMeasure(spec.nodes + v * d.spacing, spec.weights, check=False)
    if isinstance(spec, HessianDensity):
        inner = np.zeros(d.shape, dtype=bool)
        inner[(slice(2, -2),) * d.ndim] = True
        w = np.where(inner & _shift(inner, -v), spec.weight.values, 0.0)
        aux = [a if a.ndim == 2 else _shift(a, v) for a in spec.aux]
        return (HessianDensity(spec.order, ExtGridFn(d, w), spec.aux),
                HessianDensity(spec.order, ExtGridFn(d, _shift(w, v)), aux))
    return spec, spec


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ndim=st.sampled_from([1, 2, 3]), kind=st.sampled_from(SPEC_KINDS),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_translate_covariance(ndim, kind, seed, data):
    """Moving a spec by whole cells moves its scan's responses by the same
    cells, at every cell whose origin is on the grid: every probe is the one
    template, translated."""
    rng = np.random.default_rng(seed)
    d = _cube(ndim)
    spec = random_spec(kind, d, rng)
    nodes = [s.nodes for _, s in _leaves(spec) if isinstance(s, PairingMeasure)]
    lo, hi = np.full(ndim, -3), np.full(ndim, 3)
    for x in nodes:  # the shifts that keep every node on the grid
        lo = np.maximum(lo, np.ceil((d.lo - x.min(axis=0)) / d.spacing - 1e-9).astype(int))
        hi = np.minimum(hi, np.floor((d.hi - x.max(axis=0)) / d.spacing + 1e-9).astype(int))
    v = np.array([data.draw(st.integers(int(a), int(b))) for a, b in zip(lo, hi)])
    spec, moved = _moved(spec, v, d)
    k = max(_degree(spec), 1)
    resp, shifted = (support_scan(s, k, 0.5, domain=d, return_responses=True)[1]
                     for s in (spec, moved))
    peak = max(np.max(np.abs(resp)), np.max(np.abs(shifted)))
    assert np.all(np.abs(shifted - _shift(resp, v))[_shift(np.ones(d.shape), v) > 0]
                  <= 1e-10 * peak)


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


@pytest.mark.parametrize("domain", [GridDomain([-2.0], [3.0], [257]),
                                    GridDomain([-2.0, -1.0], [2.0, 3.0], [81, 60]),
                                    GridDomain([-2.0] * 3, [2.0, 1.0, 4.0], [17, 9, 12])])
@pytest.mark.parametrize("make_rng", [random.Random, np.random.default_rng])
def test_random_convex_fn_matches_the_point_list_formula(domain, make_rng):
    """Built on the axes, the sampler takes the draws of the point-list
    formula (the same rng state after it) and agrees with its values to
    1e-12 of their largest magnitude."""
    for seed in range(20):
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        got = random_convex_fn(domain, rng).values
        want = point_list_convex_fn(domain, oracle_rng)
        state = (lambda r: r.getstate()) if make_rng is random.Random else \
            (lambda r: r.bit_generator.state)
        assert state(rng) == state(oracle_rng)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _pairing_in_the_box():
    """Five nodes inside the source box [-1.4, 1.4]^2 of the tests below,
    with weights from the null space of the moment conditions."""
    nodes = np.array([[0.5, 0.2], [-0.7, 0.4], [0.1, -0.8], [0.9, 0.9], [-0.3, -0.2]])
    null = np.linalg.svd(np.vstack([np.ones(5), nodes.T]))[2][3:]
    return PairingMeasure(nodes, np.array([0.3, 1.0]) @ null)


def test_seminorm_memory_does_not_grow_with_samples():
    """The extensions are taken in blocks, each cropped to the box of the
    read cells: the peak at 256 samples is within 10% of the one at 32 (the
    whole stack of 81^2 extensions took 3.0 and 14.8 MB; blocks take 0.6)."""
    d = GridDomain([-2.0] * 2, [2.0] * 2, [81, 81])
    spec = _pairing_in_the_box()
    box = np.ones(d.shape)[_bounding_window(_read_mask(spec, d))]
    assert epival.gw._SAMPLES // box.size < 32      # 32 samples take two blocks
    peak = {n: peak_floats(lambda: seminorm_estimate(spec, [-1.2] * 2, [1.2] * 2, 0.2, n,
                                                     seed=3, domain=d))
            for n in (32, 256)}
    assert peak[256] <= 1.1 * peak[32]


def test_seminorm_is_monotone_across_sample_blocks(monkeypatch):
    """With blocks of 3 samples, each estimate is the one of a single block
    and grows with the sample count; on this seed the 7th sample, the first
    of the third block, raises it."""
    d = GridDomain([-2.0] * 2, [2.0] * 2, [41, 41])
    spec = _pairing_in_the_box()

    def estimates():
        return [seminorm_estimate(spec, [-1.2] * 2, [1.2] * 2, 0.2, n, seed=3, domain=d)
                for n in range(1, 11)]

    whole = estimates()
    box = np.ones(d.shape)[_bounding_window(_read_mask(spec, d))]
    monkeypatch.setattr(epival.gw, "_SAMPLES", 3 * box.size)
    assert estimates() == whole
    assert whole == sorted(whole) and whole[6] > whole[5]


def test_seminorm_refuses_a_negative_seed():
    # random.Random(-7) would draw the samples of seed 7
    d = GridDomain([-2.0], [2.0], [81])
    with pytest.raises(ValueError, match="seed"):
        seminorm_estimate(mu1(), [-1.2], [1.2], 0.2, 4, seed=-7, domain=d)


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
