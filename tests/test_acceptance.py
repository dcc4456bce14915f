"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all
even on success). Grids stay at desk scale so the whole suite runs in well
under five minutes.
"""

import json

import numpy as np
import pytest

from epival import (
    Bump,
    Composite,
    Constant,
    ExtGridFn,
    GWQuery,
    GridDomain,
    HessianDensity,
    PairingMeasure,
    ScanMask,
    biconjugate,
    depi_invariance_residual,
    epi_distance,
    evaluate,
    extend_from_subdomain,
    gw_report,
    diagonality_residual,
    gw_eval,
    homogeneous_decompose,
    legendre,
    default_dual_domain,
    lipschitz_bound,
    lipschitz_regularize,
    mixed_determinant,
    polarize,
    random_convex_fn,
    res_star,
    support_scan,
)
from epival.cli import main as cli_main
from epival.serialize import dump_json_atomic

from helpers import grid2d, quadratic, sample


def _report(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def mu1_1d():
    return PairingMeasure([[1.0], [-1.0], [0.0]], [1.0, 1.0, -2.0])


def mu1_2d():
    return PairingMeasure([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                          [1.0, 1.0, -2.0])


def hess_spec(domain, order=2, radius=0.8):
    w = Bump(domain.center, radius, 1.0).sample(domain)
    return HessianDensity(order, w)


def _interior(shape):
    m = np.ones(shape, dtype=bool)
    for a in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[a] = 0
        m[tuple(sl)] = False
        sl[a] = shape[a] - 1
        m[tuple(sl)] = False
    return m


def test_criterion_1_conjugation_suite():
    rng = np.random.default_rng(101)
    ok = True
    domains = [GridDomain([-2.0], [2.0], [129])] * 30 + [grid2d(n=33)] * 20
    for dom in domains:
        f = random_convex_fn(dom, rng)
        fss = biconjugate(f)
        lip = lipschitz_bound(f)
        inner = _interior(dom.shape)
        err = float(np.max(np.abs(fss.values[inner] - f.values[inner])))
        ok &= err <= 4 * float(np.max(dom.spacing)) * lip
        ok &= bool(np.all(fss.values <= f.values))  # dominance, exact
        g = ExtGridFn(dom, f.values + rng.uniform(0.1, 1.0))  # g >= f
        dual = default_dual_domain(g)
        ok &= bool(np.all(legendre(f, dual).values >= legendre(g, dual).values))
    _report(1, "conjugation round-trip, order reversal, dominance", ok)


def test_criterion_2_reconstruction():
    from epival import reconstruct_from_conjugate
    rng = np.random.default_rng(202)
    ok = True
    R = 1.0
    doms = [GridDomain([-4.0], [4.0], [129])] * 15 \
        + [GridDomain([-4.0, -4.0], [4.0, 4.0], [33, 33])] * 5
    for dom in doms:
        f = random_convex_fn(dom, rng)
        g = reconstruct_from_conjugate(f, R)
        ball = dom.point_norms(np.zeros(dom.ndim)) <= R + 1
        lip = lipschitz_bound(f)
        err = float(np.max(np.abs(g.values[ball] - f.values[ball])))
        ok &= err <= 4 * float(np.max(dom.spacing)) * lip
    _report(2, "reconstruction agrees on the inner ball", ok)


def test_criterion_3_regularization():
    rng = np.random.default_rng(303)
    dom = GridDomain([-2.0], [2.0], [129])
    ok = True
    for _ in range(5):
        f = random_convex_fn(dom, rng)
        reg = lipschitz_regularize(f, 0.5)
        ok &= bool(np.all(reg.values <= f.values))
        # cells whose chord slopes stay inside the Lipschitz ball are kept
        pts = dom.points()
        vals = f.values.ravel()
        for i in range(0, dom.size, 7):
            others = np.delete(np.arange(dom.size), i)
            chord = (vals[i] - vals[others]) / np.abs(pts[others, 0] - pts[i, 0])
            if np.max(chord) <= 2.0:
                ok &= reg.values.ravel()[i] == vals[i]
    x = dom.points().ravel()
    f = ExtGridFn(dom, random_convex_fn(dom, rng).values + 1.5 * x**2)
    g = ExtGridFn(dom, f.values + 0.02 * x)  # curvature dominates the kink
    from epival import is_discretely_convex
    assert is_discretely_convex(f.minimum(g))
    L = max(lipschitz_bound(f), lipschitz_bound(g))
    r0 = 1.0 / (2 * L)
    pair_max = lipschitz_regularize(f.maximum(g), r0)
    max_pair = lipschitz_regularize(f, r0).maximum(lipschitz_regularize(g, r0))
    ok &= float(np.max(np.abs(pair_max.values - max_pair.values))) <= 1e-10
    pair_min = lipschitz_regularize(f.minimum(g), r0)
    min_pair = lipschitz_regularize(f, r0).minimum(lipschitz_regularize(g, r0))
    ok &= float(np.max(np.abs(pair_min.values - min_pair.values))) <= 1e-10
    ind = ExtGridFn(dom, np.where(x >= 0, 0.0, np.inf))
    dists = [epi_distance(lipschitz_regularize(ind, r), ind)
             for r in (1.0, 0.5, 0.25, 0.125)]
    ok &= all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))
    _report(3, "regularization bounds, fixed cells, max/min, epi-distance", ok)


def test_criterion_4_homogeneous_decomposition():
    dom = grid2d(n=33)
    hess = hess_spec(dom)
    parts_spec = [(3.0, Constant(1.0)), (1.0, mu1_2d()), (1.0, hess)]
    spec = Composite(parts_spec)
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(5):
        f = random_convex_fn(dom, rng)
        parts = homogeneous_decompose(spec, f, n=2)
        expect = [3.0, evaluate(mu1_2d(), f), evaluate(hess, f)]
        for d in range(3):
            ok &= abs(parts.components[d] - expect[d]) \
                <= 1e-9 * (1 + abs(expect[d]))
        ok &= parts.top_residual <= 1e-8 * parts.scale
    _report(4, "homogeneous components match per-term values", ok)


def test_criterion_5_polarization():
    dom = grid2d(n=33)
    spec = hess_spec(dom)
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(20):
        f, g, h = (random_convex_fn(dom, rng) for _ in range(3))
        v = evaluate(spec, f)
        ok &= abs(polarize(spec, 2, [f, f]) - v) <= 1e-12 * (1 + abs(v))
        ab = polarize(spec, 2, [f, g])
        ok &= abs(ab - polarize(spec, 2, [g, f])) <= 1e-12 * (1 + abs(ab))
        fg = ExtGridFn(dom, f.values + g.values)
        lhs = polarize(spec, 2, [fg, h])
        rhs = polarize(spec, 2, [f, h]) + polarize(spec, 2, [g, h])
        ok &= abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))
    w = spec.weight
    mass = float(np.sum(w.values) * np.prod(dom.spacing))
    for _ in range(5):
        M1, M2 = rng.normal(size=(2, 2, 2))
        A1 = M1 @ M1.T + 0.2 * np.eye(2)
        A2 = M2 @ M2.T + 0.2 * np.eye(2)
        got = polarize(spec, 2, [quadratic(dom, A=A1), quadratic(dom, A=A2)])
        want = mixed_determinant(A1, A2) * mass
        ok &= abs(got - want) <= 1e-8 * (1 + abs(want))
    _report(5, "polarization diagonal, symmetry, additivity, mixed dets", ok)


def test_criterion_6_goodey_weil():
    rng = np.random.default_rng(606)
    ok = True
    d1 = GridDomain([-2.0], [2.0], [129])
    d2 = GridDomain([-4.0, -4.0], [4.0, 4.0], [49, 49])
    spec2 = HessianDensity(2, Bump([0.0, 0.0], 3.0, 1.0).sample(d2))
    # 30 random queries: step halving must agree to rel 1e-7
    for i in range(30):
        if i % 2 == 0:
            b = Bump(rng.uniform(-1.2, 1.2, 1), rng.uniform(0.2, 0.6),
                     rng.uniform(0.5, 2.0))
            rep = gw_report(mu1_1d(), GWQuery(1, [b]), domain=d1)
        else:
            c1 = rng.uniform(-1.5, 1.5, 2)
            c2 = rng.uniform(-1.5, 1.5, 2)
            bs = [Bump(c1, rng.uniform(0.3, 0.7), 1.0),
                  Bump(c2, rng.uniform(0.3, 0.7), 1.0)]
            rep = gw_report(spec2, GWQuery(2, bs), domain=d2)
        ok &= rep["agreement"] <= 1e-7
    # pairing pairing: equals the node sum to 1e-12
    spec = mu1_1d()
    for _ in range(10):
        b = Bump(rng.uniform(-1.5, 1.5, 1), rng.uniform(0.2, 0.8),
                 rng.uniform(0.5, 2.0))
        got = gw_eval(spec, GWQuery(1, [b]), domain=d1)
        want = float(spec.weights @ b.value(spec.nodes))
        ok &= abs(got - want) <= 1e-12 * (1 + abs(want)) + 1e-13
    # diagonality at 10 random separations
    base2 = ExtGridFn(d2, np.sum(d2.points() ** 2, axis=1).reshape(d2.shape))
    scale = 1 + abs(evaluate(spec2, base2))
    for _ in range(10):
        c = rng.uniform(1.2, 2.8)
        y = rng.uniform(-0.5, 0.5)
        bs = [Bump([-c, y], 0.4, 1.0), Bump([c, -y], 0.4, 1.0)]
        ok &= diagonality_residual(spec2, 2, bs) <= 1e-8 * scale
    # probe responses vanish away from the pairing nodes
    _, resp = support_scan(spec, 1, 0.3, domain=d1, return_responses=True)
    x = d1.points().ravel()
    dist = np.min(np.abs(x[:, None] - np.array([[-1.0, 0.0, 1.0]])), axis=1)
    ok &= float(np.max(np.abs(resp[dist > 0.3]))) <= 1e-12
    _report(6, "step-halving agreement, node sums, diagonality, decay", ok)


def test_criterion_7_support_semantics():
    d1 = GridDomain([-2.0], [2.0], [129])
    spec = mu1_1d()
    pr = 0.3
    mask = support_scan(spec, 1, pr, domain=d1)
    x = d1.points().ravel()
    nodes = np.array([-1.0, 0.0, 1.0])
    ok = True
    for nd in nodes:
        ok &= bool(np.any(mask.marked & (np.abs(x - nd) <= pr)))
    dist = np.min(np.abs(x[:, None] - nodes[None, :]), axis=1)
    ok &= not np.any(mask.marked & (dist > pr))
    # altering f outside the scanned support leaves the value unchanged
    rng = np.random.default_rng(707)
    for _ in range(5):
        f = random_convex_fn(d1, rng)
        f_ext = extend_from_subdomain(f, [-1.2], [1.2], 0.4)
        delta = abs(evaluate(spec, f_ext) - evaluate(spec, f))
        ok &= delta <= 1e-12 * (1 + abs(evaluate(spec, f)))
        probe = Bump([1.8], 0.1, 3.0).sample(d1)
        f_alt = ExtGridFn(d1, f.values + probe.values)
        ok &= abs(evaluate(spec, f_alt) - evaluate(spec, f)) \
            <= 1e-12 * (1 + abs(evaluate(spec, f)))
    # res_star matches regularized evaluation on probes with +inf outside U
    umask = ScanMask(d1, (x > -1.5) & (x < 1.5))
    for i in range(10):
        g = random_convex_fn(d1, rng)
        vals = np.where(umask.marked, g.values, np.inf)
        fU = ExtGridFn(d1, vals)
        direct = res_star(spec, fU, umask)
        regged = evaluate(spec, lipschitz_regularize(fU, 0.02))
        ok &= abs(direct - regged) <= 1e-9 * (1 + abs(direct))
    _report(7, "scan coverage, outside-support immunity, res-star", ok)


def test_criterion_8_invariance():
    rng = np.random.default_rng(808)
    d1 = GridDomain([-2.0], [2.0], [65])
    d2 = grid2d(n=33)
    hess_full = hess_spec(d2, order=2)
    hess_mixed = HessianDensity(1, Bump(d2.center, 0.8, 1.0).sample(d2),
                                aux=[np.array([[1.0, 0.2], [0.2, 2.0]])])
    composite = Composite([(2.0, Constant(1.5)), (1.0, mu1_2d()),
                           (0.5, hess_full)])
    f1 = random_convex_fn(d1, rng)
    f2 = random_convex_fn(d2, rng)
    cases = [(mu1_1d(), f1, 1), (mu1_2d(), f2, 2), (hess_full, f2, 2),
             (hess_mixed, f2, 2), (Constant(4.0), f2, 2), (composite, f2, 2)]
    ok = True
    count = 0
    while count < 100:
        spec, f, n = cases[count % len(cases)]
        lam = rng.normal(size=n) * 0.5
        c = rng.normal()
        base = evaluate(spec, f)
        shifted = evaluate(spec, f.add_affine(lam, c))
        scale = 1 + abs(base) + abs(shifted)
        ok &= depi_invariance_residual(spec, f, lam, c) <= 1e-12 * scale
        count += 1
    probe = PairingMeasure([[0.0]], [1.0], check=False)
    ok &= depi_invariance_residual(probe, f1, [0.4], 0.7) > 1e-3
    _report(8, "dual epi-translation invariance and negative control", ok)


def test_criterion_9_determinism(tmp_path, capsys):
    dump_json_atomic({"kind": "pairing",
                      "nodes": [[1.0], [-1.0], [0.0]],
                      "weights": [1.0, 1.0, -2.0]}, tmp_path / "mu1.json")
    outputs, streams = [], []
    for name in ("r1.json", "r2.json"):
        rc = cli_main(["seminorm", "--spec", str(tmp_path / "mu1.json"),
                       "--A-lo=-1.2", "--A-hi", "1.2", "--s", "0.2",
                       "--samples", "16", "--seed", "7", "--grid=-2:2:81",
                       "--out", str(tmp_path / name)])
        assert rc == 0
        streams.append(capsys.readouterr().out)
        outputs.append((tmp_path / name).read_bytes())
    masks = []
    for name in ("m1.json", "m2.json"):
        rc = cli_main(["scan", "--spec", str(tmp_path / "mu1.json"),
                       "--k", "1", "--probe-radius", "0.3",
                       "--grid=-2:2:65", "--out", str(tmp_path / name)])
        assert rc == 0
        capsys.readouterr()
        masks.append((tmp_path / name).read_bytes())
    ok = outputs[0] == outputs[1] and masks[0] == masks[1]
    ok &= json.loads(streams[0])["estimate"] == json.loads(streams[1])["estimate"]
    with capsys.disabled():
        _report(9, "seeded command reruns are byte-identical", ok)
