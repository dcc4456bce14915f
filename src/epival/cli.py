"""Command-line front end: transform, decompose, polarize, gw, scan,
seminorm, embed.

Every run validates its inputs before computing, writes outputs through
atomic renames, and prints one JSON line embedding the fully resolved
configuration, so a rerun of any seeded command is byte-identical.

Exit codes: 0 success, 2 I/O or parse failure, 3 precondition or
math-domain violation.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import convex, gw, serialize, valuations
from .errors import FormatError
from .grids import Bump, GridDomain


def _parse_grid(text) -> GridDomain:
    try:
        lo, hi, shape = text.split(":")
        return GridDomain([float(v) for v in lo.split(",")],
                          [float(v) for v in hi.split(",")],
                          [int(v) for v in shape.split(",")])
    except ValueError as err:
        raise FormatError(f"bad --grid value {text!r}: {err}") from err


def _parse_bump(text) -> Bump:
    try:
        center, radius, amp = text.split(":")
        return Bump([float(v) for v in center.split(",")],
                    float(radius), float(amp))
    except ValueError as err:
        raise FormatError(f"bad --bump value {text!r}: {err}") from err


def _parse_vector(text):
    return [float(v) for v in text.split(",")]


def _check_out(path):
    """Raise OSError unless a file can be written at `path`, so a command
    fails before its work rather than after it."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(directory, os.W_OK | os.X_OK):
        raise OSError(f"cannot write {path!r}: not a file in a writable directory")


def _emit(report):
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


def _config(args, keys):
    return {k: getattr(args, k) for k in keys}


def cmd_transform(args):
    f = serialize.load_grid_fn(args.infile)
    config = _config(args, ["op", "infile", "out", "r", "R", "grid"])
    if args.op == "legendre":
        dual = _parse_grid(args.grid) if args.grid else None
        out = convex.legendre(f, dual)
        gap = convex.biconjugate_gap(f)
        sup_diff = None
        if out.domain.same_as(f.domain):
            both = f.finite_mask & out.finite_mask
            sup_diff = float(np.max(np.abs(out.values[both] - f.values[both])))
        report = {"biconjugate_gap": gap, "sup_diff_vs_input": sup_diff}
    elif args.op == "reg":
        if args.r is None:
            raise ValueError("--op reg requires --r")
        out = convex.lipschitz_regularize(f, args.r)
        report = {"biconjugate_gap": convex.biconjugate_gap(f),
                  "sup_change": float(np.max(np.abs(
                      out.values[f.finite_mask] - f.values[f.finite_mask])))}
    elif args.op == "reconstruct":
        if args.R is None:
            raise ValueError("--op reconstruct requires --R")
        out = convex.reconstruct_from_conjugate(f, args.R)
        ball = f.domain.point_norms(np.zeros(f.domain.ndim)) <= args.R + 1
        report = {"biconjugate_gap": convex.biconjugate_gap(f),
                  "sup_error_ball": float(np.max(np.abs(
                      out.values[ball] - f.values[ball])))}
    else:
        raise ValueError(f"unknown transform op {args.op!r}")
    serialize.save_grid_fn(out, args.out)
    _emit({"command": "transform", "config": config, **report})
    return 0


def cmd_decompose(args):
    spec = serialize.load_valuation_spec(args.spec, check=not args.unchecked)
    f = serialize.load_grid_fn(args.infile)
    n = args.n if args.n is not None else f.domain.ndim
    parts = valuations.homogeneous_decompose(spec, f, n)
    lines = ["degree,value"]
    for d, v in enumerate(parts.components):
        lines.append(f"{d},{float(v)!r}")
    lines.append(f"residual_{n + 1},{float(parts.top_residual)!r}")
    serialize.dump_text_atomic("\n".join(lines) + "\n", args.out)
    _emit({"command": "decompose",
           "config": _config(args, ["spec", "infile", "out", "n", "unchecked"]),
           "components": [float(v) for v in parts.components],
           "top_residual": parts.top_residual})
    return 0


def cmd_polarize(args):
    spec = serialize.load_valuation_spec(args.spec, check=not args.unchecked)
    fs = [serialize.load_grid_fn(p) for p in args.inputs]
    value = gw.polarize(spec, args.k, fs)
    report = {"command": "polarize",
              "config": _config(args, ["spec", "k", "inputs", "unchecked"]),
              "value": value}
    if args.out:
        serialize.dump_json_atomic(report, args.out)
    _emit(report)
    return 0


def cmd_gw(args):
    spec = serialize.load_valuation_spec(args.spec, check=not args.unchecked)
    domain = _parse_grid(args.grid) if args.grid else None
    tests = [_parse_bump(b) for b in args.bump]
    tests += [serialize.load_grid_fn(p) for p in args.test]
    base = serialize.load_grid_fn(args.base) if args.base else None
    config = _config(args, ["spec", "k", "bump", "test", "base", "grid",
                            "h", "diagonality", "unchecked"])
    if args.diagonality:
        residual = gw.diagonality_residual(spec, args.k, tests, domain=domain,
                                           base=base, step=args.h)
        report = {"command": "gw", "config": config, "residual": residual}
    else:
        query = gw.GWQuery(args.k, tests, base=base, step=args.h)
        report = {"command": "gw", "config": config,
                  **gw.gw_report(spec, query, domain)}
    if args.out:
        serialize.dump_json_atomic(report, args.out)
    _emit(report)
    return 0


def cmd_scan(args):
    spec = serialize.load_valuation_spec(args.spec, check=not args.unchecked)
    domain = _parse_grid(args.grid) if args.grid else None
    mask = gw.support_scan(spec, args.k, args.probe_radius, args.tol,
                           domain=domain)
    serialize.save_mask(mask, args.out)
    _emit({"command": "scan",
           "config": _config(args, ["spec", "k", "probe_radius", "tol",
                                    "grid", "out", "unchecked"]),
           "marked_cells": mask.count})
    return 0


def cmd_seminorm(args):
    spec = serialize.load_valuation_spec(args.spec, check=not args.unchecked)
    domain = _parse_grid(args.grid) if args.grid else None
    value = gw.seminorm_estimate(spec, _parse_vector(args.A_lo),
                                 _parse_vector(args.A_hi), args.s,
                                 args.samples, args.seed, domain=domain)
    report = {"command": "seminorm",
              "config": _config(args, ["spec", "A_lo", "A_hi", "s", "samples",
                                       "seed", "grid", "unchecked"]),
              "estimate": value, "samples": args.samples, "seed": args.seed}
    if args.out:
        serialize.dump_json_atomic(report, args.out)
    _emit(report)
    return 0


def cmd_embed(args):
    spec = serialize.load_valuation_spec(args.spec, check=not args.unchecked)
    K = serialize.load_polytope(args.polytope)
    domain = _parse_grid(args.grid) if args.grid else None
    value = valuations.embed_T(spec, K, domain)
    _emit({"command": "embed",
           "config": _config(args, ["spec", "polytope", "grid", "unchecked"]),
           "value": value})
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="epival",
        description="Valuations on grid-sampled convex functions")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)

    def spec_arg(sp):
        sp.add_argument("--spec", required=True)
        sp.add_argument("--unchecked", action="store_true",
                        help="skip the pairing weight-condition check")

    t = sub.add_parser("transform", help="legendre / reg / reconstruct")
    t.add_argument("--op", required=True,
                   choices=["legendre", "reg", "reconstruct"])
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--r", type=float, default=None)
    t.add_argument("--R", type=float, default=None)
    t.add_argument("--grid", default=None,
                   help="dual grid for --op legendre, lo:hi:shape")
    common(t)
    t.set_defaults(func=cmd_transform)

    d = sub.add_parser("decompose", help="homogeneous components as CSV")
    spec_arg(d)
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--n", type=int, default=None)
    common(d)
    d.set_defaults(func=cmd_decompose)

    pol = sub.add_parser("polarize", help="multilinear polarization value")
    spec_arg(pol)
    pol.add_argument("--k", type=int, required=True)
    pol.add_argument("--inputs", nargs="+", required=True)
    pol.add_argument("--out", default=None)
    common(pol)
    pol.set_defaults(func=cmd_polarize)

    g = sub.add_parser("gw", help="Goodey-Weil pairing / diagonality residual")
    spec_arg(g)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--bump", action="append", default=[],
                   help="center:radius:amplitude, e.g. 0.5,0:0.4:1")
    g.add_argument("--test", action="append", default=[],
                   help="grid-function file used as a test function")
    g.add_argument("--base", default=None)
    g.add_argument("--grid", default=None, help="lo:hi:shape, comma-separated")
    g.add_argument("--h", type=float, default=None)
    g.add_argument("--diagonality", action="store_true")
    g.add_argument("--out", default=None)
    common(g)
    g.set_defaults(func=cmd_gw)

    s = sub.add_parser("scan", help="support scan mask")
    spec_arg(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--probe-radius", dest="probe_radius", type=float,
                   required=True)
    s.add_argument("--tol", type=float, default=1e-6)
    s.add_argument("--grid", default=None)
    s.add_argument("--out", required=True)
    common(s)
    s.set_defaults(func=cmd_scan)

    sn = sub.add_parser("seminorm", help="seminorm lower-bound estimate")
    spec_arg(sn)
    sn.add_argument("--A-lo", dest="A_lo", required=True)
    sn.add_argument("--A-hi", dest="A_hi", required=True)
    sn.add_argument("--s", type=float, required=True)
    sn.add_argument("--samples", type=int, default=32)
    sn.add_argument("--grid", default=None)
    sn.add_argument("--out", default=None)
    common(sn)
    sn.set_defaults(func=cmd_seminorm)

    e = sub.add_parser("embed", help="body valuation T(mu)[K]")
    spec_arg(e)
    e.add_argument("--polytope", required=True)
    e.add_argument("--grid", default=None)
    common(e)
    e.set_defaults(func=cmd_embed)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except (OSError, FormatError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (ValueError, TypeError, np.linalg.LinAlgError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
