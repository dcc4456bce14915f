"""The benchmark's workloads: fixed epival command sequences on seeded
fixtures, each command with an output check against an independent oracle.

A workload builder writes its fixtures into a directory and returns the
commands in the order they run. File names in the commands are relative
to that directory, which is the commands' working directory.
"""

import csv
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import oracles
from .fixtures import (Grid, bump_values, convex_values, hessian_weight, pairing,
                       read_grid_fn, read_json, write_grid_fn, write_hessian,
                       write_json, write_pairing)

# Relative tolerance for a value the program computes by the same arithmetic
# as its oracle, up to summation order.
REL_TOL = 1e-9
# Goodey-Weil values come from an exact polynomial extraction, so they agree
# with the closed form up to cancellation noise, which the program bounds
# at a relative 1e-7 between steps h and h/2.
GW_TOL = 1e-7


class CheckFailed(Exception):
    pass


@dataclass
class Command:
    name: str
    args: list                      # epival arguments, after the program name
    reads: list                     # files the command reads
    writes: list = field(default_factory=list)
    check: Callable = None          # check(report, workdir); raises CheckFailed
    scanned_cells: int = 0


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(got, want, scale, tol=REL_TOL, what="value"):
    expect(np.all(np.isfinite(got)), f"{what}: non-finite output")
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    expect(err <= tol * (1.0 + scale),
           f"{what}: error {err:.3e} above {tol:g} * (1 + {scale:.3e})")


def sample_indices(seed, size, count=64):
    return np.random.default_rng(seed).choice(size, size=min(count, size), replace=False)


def _vec(values):
    return ",".join(repr(float(v)) for v in values)


def _farther_than(pts, targets, reach):
    dist = np.linalg.norm(pts[:, None, :] - targets[None, :, :], axis=2)
    return dist.min(axis=1) > reach


# ---------------------------------------------------------------- conjugate
#
# A convex input is recovered by the discrete biconjugate up to the dual
# grid's resolution: at each cell the error is at most about one primal
# step times one dual step per axis. The bound below allows twice that.

def _gap_bound(grid, dual_spacing):
    return 2.0 * float(np.sum(grid.spacing * dual_spacing))


def _default_dual_spacing(grid, vals):
    """Spacing of the default dual grid: the per-axis slope range padded by
    10% at the primal resolution, point count forced odd (README, design notes)."""
    out = []
    for a, n in enumerate(grid.shape):
        v = np.moveaxis(vals, a, -1)
        q = (v[..., 1:] - v[..., :-1]) / grid.spacing[a]
        q = q[np.isfinite(q)]
        n_odd = n if n % 2 else n + 1
        out.append(1.1 * (q.max() - q.min()) / (n_odd - 1))
    return np.array(out)


def _check_legendre(src, dst, seed):
    def check(report, d):
        grid, vals = read_grid_fn(os.path.join(d, src))
        dual, out = read_grid_fn(os.path.join(d, dst))
        expect(np.all(np.isfinite(out)), "conjugate has +inf cells")
        idx = sample_indices(seed, dual.size)
        close(out.ravel()[idx], oracles.brute_conjugate_at(grid, vals, dual.points()[idx]),
              float(np.max(np.abs(out))), what="conjugate")
        gap, bound = report["biconjugate_gap"], _gap_bound(grid, dual.spacing)
        expect(0.0 <= gap <= bound, f"biconjugate_gap {gap!r} above {bound!r}")
    return check


def _check_reg(src, dst, r, seed):
    def check(report, d):
        grid, vals = read_grid_fn(os.path.join(d, src))
        _, out = read_grid_fn(os.path.join(d, dst))
        idx = sample_indices(seed, grid.size)
        close(out.ravel()[idx],
              oracles.inf_convolution_at(grid, vals, grid.points()[idx], 1.0 / r),
              float(np.max(np.abs(out))), what="inf-convolution")
        close(report["sup_change"], np.max(np.abs(out - vals)), 0.0, what="sup_change")
        gap, bound = report["biconjugate_gap"], _gap_bound(grid, _default_dual_spacing(grid, vals))
        expect(0.0 <= gap <= bound, f"biconjugate_gap {gap!r} above {bound!r}")
    return check


def _check_reconstruct(src, dst, R):
    def check(report, d):
        grid, vals = read_grid_fn(os.path.join(d, src))
        _, out = read_grid_fn(os.path.join(d, dst))
        ball = (np.linalg.norm(grid.points(), axis=1) <= R + 1).reshape(grid.shape)
        err = float(np.max(np.abs(out[ball] - vals[ball])))
        close(report["sup_error_ball"], err, 0.0, what="sup_error_ball")
        bound = _gap_bound(grid, _default_dual_spacing(grid, vals))
        expect(err <= bound, f"reconstruction error {err!r} on the ball above {bound!r}")
    return check


def conjugate(d, rng):
    cmds = []

    def legendre(name, grid):
        vals = convex_values(grid, rng)
        if grid.ndim == 1:
            # +inf outside a seeded interval: the extended value on the line
            x = grid.points().ravel()
            vals[(x < rng.uniform(-2.8, -2.2)) | (x > rng.uniform(2.0, 2.6))] = np.inf
        write_grid_fn(os.path.join(d, f"{name}.json"), grid, vals)
        cmds.append(Command(f"legendre-{name}",
                            ["transform", "--op", "legendre", "--in", f"{name}.json",
                             "--out", f"{name}.star.json"],
                            [f"{name}.json"], [f"{name}.star.json"],
                            _check_legendre(f"{name}.json", f"{name}.star.json",
                                            int(rng.integers(2**31)))))

    def reg(name, grid, r):
        write_grid_fn(os.path.join(d, f"{name}.json"), grid, convex_values(grid, rng))
        cmds.append(Command(f"reg-{name}",
                            ["transform", "--op", "reg", "--r", repr(r), "--in", f"{name}.json",
                             "--out", f"{name}.reg.json"],
                            [f"{name}.json"], [f"{name}.reg.json"],
                            _check_reg(f"{name}.json", f"{name}.reg.json", r,
                                       int(rng.integers(2**31)))))

    legendre("f1d", Grid.cube(3.0, 2049, 1))
    legendre("f2d", Grid.cube(2.0, 129, 2))
    legendre("f3d", Grid.cube(2.0, 17, 3))
    reg("g2d", Grid.cube(2.0, 65, 2), 0.5)
    reg("g3d", Grid.cube(2.0, 17, 3), 0.5)
    # reconstruct exits with code 3 unless the box contains the ball of radius R + 2
    R = 1.0
    grid = Grid.cube(R + 2.5, 65, 2)
    write_grid_fn(os.path.join(d, "h2d.json"), grid, convex_values(grid, rng))
    cmds.append(Command("reconstruct-h2d",
                        ["transform", "--op", "reconstruct", "--R", repr(R), "--in", "h2d.json",
                         "--out", "h2d.rec.json"],
                        ["h2d.json"], ["h2d.rec.json"],
                        _check_reconstruct("h2d.json", "h2d.rec.json", R)))
    return cmds


# -------------------------------------------------------------------- probe

def _bump_arg(center, radius, amp):
    return f"--bump={_vec(center)}:{radius!r}:{amp!r}"


def _check_gw(grid, weight, bumps, diagonality=False):
    def check(report, d):
        H = [oracles.central_hessians(grid, bump_values(grid.points(), *b).reshape(grid.shape))
             for b in bumps]
        want = oracles.hessian_form(grid, weight, H)
        scale = oracles.hessian_form_bound(grid, weight, H)
        if diagonality:
            close(report["residual"], abs(want), scale, tol=GW_TOL, what="diagonality residual")
        else:
            close(report["value"], want, scale, tol=GW_TOL, what="gw value")
            expect(report["agreement"] <= GW_TOL, "values at h and h/2 disagree")
    return check


def _check_scan_hessian(grid, weight, mask_file, radius):
    def check(report, d):
        marked = np.array(read_json(os.path.join(d, mask_file))["marked"], dtype=bool)
        expect(report["marked_cells"] == int(marked.sum()), "marked_cells differs from the mask")
        support = weight.ravel() != 0.0
        expect(np.all(marked[support]),
               f"{int(np.sum(support & ~marked))} weight-support cells unmarked")
        # a probe sees the weight only through its own support and the stencil
        reach = radius + 1.5 * float(np.linalg.norm(grid.spacing))
        far = _farther_than(grid.points()[marked], grid.points()[support], reach)
        expect(not np.any(far), f"{int(np.sum(far))} marked cells out of the probe's reach")
    return check


def _check_polarize(grid, weight, f1, f2):
    def check(report, d):
        H1, H2 = oracles.central_hessians(grid, f1), oracles.central_hessians(grid, f2)
        both = np.abs(H1) + np.abs(H2)
        close(report["value"], oracles.hessian_form(grid, weight, [H1, H2]),
              oracles.hessian_form_bound(grid, weight, [both, both]), what="polarization")
    return check


def _check_decompose(grid, weight, f, out):
    def check(report, d):
        with open(os.path.join(d, out), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        expect(rows[0] == ["degree", "value"] and len(rows) == 5, "unexpected CSV layout")
        parts = [float(v) for _, v in rows[1:]]
        expect(parts[:3] == report["components"], "CSV and report disagree")
        H = oracles.central_hessians(grid, f)
        # the probes run up to t = n + 2 = 4, so their values reach 16 mu(f)
        scale = 16.0 * oracles.hessian_form_bound(grid, weight, [H, H])
        close(parts, [0.0, 0.0, oracles.hessian_form(grid, weight, [H, H]), 0.0], scale,
              tol=1e-8, what="homogeneous components")
    return check


def probe(d, rng):
    grid = Grid.cube(2.0, 33, 2)
    weight = hessian_weight(grid, rng)
    write_hessian(os.path.join(d, "hess.json"), 2, grid, weight)
    spec = ["hess.json", "hess.weight.json"]
    radius = 0.3
    near = [(rng.uniform(-0.5, 0.5, size=2), float(rng.uniform(0.5, 0.7)), 1.0) for _ in range(2)]
    y = float(rng.uniform(-0.3, 0.3))
    apart = [(np.array([-0.9, y]), 0.45, 1.0), (np.array([0.9, -y]), 0.45, 1.0)]
    f1, f2, f = (convex_values(grid, rng) for _ in range(3))
    for name, vals in (("p1", f1), ("p2", f2), ("p", f)):
        write_grid_fn(os.path.join(d, f"{name}.json"), grid, vals)
    grid3 = Grid.cube(2.0, 17, 3)
    weight3 = hessian_weight(grid3, rng, spread=0.4)
    write_hessian(os.path.join(d, "hess3.json"), 3, grid3, weight3)
    bumps3 = [(rng.uniform(-0.4, 0.4, size=3), float(rng.uniform(0.7, 0.9)), 1.0)
              for _ in range(3)]
    return [
        Command("scan-k2", ["scan", "--spec", "hess.json", "--k", "2", "--probe-radius",
                            repr(radius), "--out", "mask.json"],
                spec, ["mask.json"], _check_scan_hessian(grid, weight, "mask.json", radius),
                scanned_cells=grid.size),
        Command("gw-k2", ["gw", "--spec", "hess.json", "--k", "2",
                          *[_bump_arg(*b) for b in near]],
                spec, [], _check_gw(grid, weight, near)),
        Command("gw-diagonality", ["gw", "--spec", "hess.json", "--k", "2", "--diagonality",
                                   *[_bump_arg(*b) for b in apart]],
                spec, [], _check_gw(grid, weight, apart, diagonality=True)),
        Command("polarize-k2", ["polarize", "--spec", "hess.json", "--k", "2",
                                "--inputs", "p1.json", "p2.json"],
                spec + ["p1.json", "p2.json"], [], _check_polarize(grid, weight, f1, f2)),
        Command("decompose", ["decompose", "--spec", "hess.json", "--in", "p.json",
                              "--out", "parts.csv"],
                spec + ["p.json"], ["parts.csv"], _check_decompose(grid, weight, f, "parts.csv")),
        Command("gw-k3-3d", ["gw", "--spec", "hess3.json", "--k", "3",
                             *[_bump_arg(*b) for b in bumps3]],
                ["hess3.json", "hess3.weight.json"], [], _check_gw(grid3, weight3, bumps3)),
    ]


# ------------------------------------------------------------------ witness

def _check_seminorm(grid, nodes, weights, A_lo, A_hi, s):
    def check(report, d):
        pts = grid.points()
        pad = 1e-9 * np.maximum(1.0, grid.hi - grid.lo)
        norm_box = np.all((pts >= A_lo - 2 * s - pad) & (pts <= A_hi + 2 * s + pad), axis=1)
        # Sample 0 is the cone spanning [-1, 1] on the norm box. The nodes sit
        # inside the source box, where the extension keeps every sample, and
        # every sample is bounded by 1 there.
        dist = np.linalg.norm(pts - (A_lo + A_hi) / 2.0, axis=1)
        cone = (2.0 / dist[norm_box].max()) * dist - 1.0
        lower = abs(float(weights @ oracles.interpolate(grid, cone.reshape(grid.shape), nodes)))
        upper = float(np.sum(np.abs(weights)))
        est = report["estimate"]
        expect(lower * (1 - 1e-12) <= est <= upper * (1 + 1e-12),
               f"seminorm estimate {est!r} outside [{lower!r}, {upper!r}]")
    return check


def _check_scan_pairing(grid, nodes, mask_file, radius):
    def check(report, d):
        marked = np.array(read_json(os.path.join(d, mask_file))["marked"], dtype=bool)
        expect(report["marked_cells"] == int(marked.sum()), "marked_cells differs from the mask")
        pts = grid.points()
        nearest = np.argmin(np.linalg.norm(pts[:, None, :] - nodes[None, :, :], axis=2), axis=0)
        expect(np.all(marked[nearest]), "a pairing node's cell is unmarked")
        far = _farther_than(pts[marked], nodes, radius + float(np.linalg.norm(grid.spacing)))
        expect(not np.any(far), f"{int(np.sum(far))} marked cells out of the probe's reach")
    return check


def _check_embed(grid, nodes, weights, vertices):
    def check(report, d):
        n = grid.ndim
        h = (grid.points() @ vertices[:, :n].T - vertices[:, n]).max(axis=1)
        vals = oracles.interpolate(grid, h.reshape(grid.shape), nodes)
        close(report["value"], float(weights @ vals), float(np.abs(weights) @ np.abs(vals)),
              what="embed")
    return check


def witness(d, rng):
    A_lo, A_hi, s = np.array([-1.2, -1.2]), np.array([1.2, 1.2]), 0.2
    # nodes stay one cell inside the source box [A_lo - s, A_hi + s]
    nodes, weights = pairing(rng, 2, 5, -1.0, 1.0, min_gap=0.6)
    write_pairing(os.path.join(d, "pair.json"), nodes, weights)
    vertices = np.column_stack([rng.uniform(-1.5, 1.5, size=(6, 2)), rng.uniform(-1, 1, size=6)])
    write_json(os.path.join(d, "K.json"), {"vertices": vertices.tolist()})
    g81, g33, g129 = (Grid.cube(2.0, n, 2) for n in (81, 33, 129))
    seed = int(rng.integers(1, 2**31))
    radius = 0.3
    return [
        Command("seminorm", ["seminorm", "--spec", "pair.json", f"--A-lo={_vec(A_lo)}",
                             f"--A-hi={_vec(A_hi)}", "--s", repr(s), "--samples", "32",
                             "--seed", str(seed), f"--grid={g81.arg()}"],
                ["pair.json"], [], _check_seminorm(g81, nodes, weights, A_lo, A_hi, s)),
        Command("scan-k1", ["scan", "--spec", "pair.json", "--k", "1", "--probe-radius",
                            repr(radius), f"--grid={g33.arg()}", "--out", "pmask.json"],
                ["pair.json"], ["pmask.json"],
                _check_scan_pairing(g33, nodes, "pmask.json", radius), scanned_cells=g33.size),
        Command("embed", ["embed", "--spec", "pair.json", "--polytope", "K.json",
                          f"--grid={g129.arg()}"],
                ["pair.json", "K.json"], [], _check_embed(g129, nodes, weights, vertices)),
    ]


def convex_workload(d, rng):
    """The `conjugate` workload: the seminorm estimate, whose cost is the
    qhull lower hull, then the transforms, whose cost is the direct
    Legendre transform and the inf-convolution."""
    return witness(d, rng)[:1] + conjugate(d, rng)


def scan_workload(d, rng):
    """The `probe` workload: the Hessian-density commands, then the pairing
    scan, which reaches support_scan through interpolation instead of
    stencils, and embed."""
    return probe(d, rng) + witness(d, rng)[1:]


WORKLOADS = {"conjugate": convex_workload, "probe": scan_workload}
