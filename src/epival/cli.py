"""Command-line front end: transform, decompose, polarize, gw, scan,
seminorm, embed.

Every run validates its inputs before computing, writes outputs through
atomic renames, and prints one JSON line embedding the fully resolved
configuration, so a rerun of any seeded command is byte-identical.

Exit codes: 0 success, 2 I/O or parse failure, 3 precondition or
math-domain violation, or a computation too large for memory.
"""

import gc
import os
import sys

# Before numpy loads: starting OpenBLAS's thread pool costs each command
# about 120 ms of CPU time, and no command's BLAS calls are large enough to
# use it. A value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# epival's modules before argparse and numpy: where they are compiled from
# source (no bytecode cache), the largest, convex, is then compiled before
# numpy loads and none is compiled on top of argparse, which keeps a
# command's peak RSS up to 0.8 MB lower
from . import convex, gw, serialize, valuations
from .errors import FormatError
from .grids import Bump, GridDomain

import argparse
import json

import numpy as np

# A command frees none of the objects its imports made (about 21.8k, mostly
# numpy's and epival's modules), yet every full collection walks them, the
# one at interpreter exit included: about 6 ms each. Frozen, they are left
# out, and exit after `import epival.cli` takes 7-9 rather than 20-30 ms
# (spawn and wait included). The library modules stay free of this side
# effect.
gc.freeze()


def finite(text) -> float:
    """float(text), refusing NaN and +-inf."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _vector(text):
    return [finite(v) for v in text.split(",")]


def _grid(text) -> GridDomain:
    lo, hi, shape = text.split(":")
    return GridDomain(_vector(lo), _vector(hi), [int(v) for v in shape.split(",")])


def _bump(text) -> Bump:
    center, radius, amp = text.split(":")
    return Bump(_vector(center), finite(radius), finite(amp))


def _parsed(option, read, text):
    """read(text), with a ValueError raised as a FormatError (exit 2);
    None when the option was not given."""
    if text is None:
        return None
    try:
        return read(text)
    except ValueError as err:
        raise FormatError(f"bad {option} value {text!r}: {err}") from err


def _check_out(path):
    """Raise OSError unless a file can be written at `path`, so a command
    fails before its work rather than after it."""
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(directory, os.W_OK | os.X_OK):
        raise OSError(f"cannot write {path!r}: not a file in a writable directory")


def cmd_transform(args, spec):
    dual = _parsed("--grid", _grid, args.grid)
    if args.op == "reg" and args.r is None:
        raise ValueError("--op reg requires --r")
    if args.op == "reconstruct" and args.R is None:
        raise ValueError("--op reconstruct requires --R")
    f = serialize.load_grid_fn(args.infile)
    fstar = convex.legendre(f)  # f* on the default dual grid, which the gap starts from
    if args.op == "legendre":
        out = fstar if dual is None else convex.legendre(f, dual)
        key, cells = "sup_diff_vs_input", None
        if out.domain.same_as(f.domain):
            cells = f.finite_mask & out.finite_mask
    elif args.op == "reg":
        out = convex.lipschitz_regularize(f, args.r)
        key, cells = "sup_change", f.finite_mask
    else:
        out = convex.reconstruct_from_conjugate(f, args.R, fstar)
        key = "sup_error_ball"
        cells = f.domain.point_norms(np.zeros(f.domain.ndim)) <= args.R + 1
    report = {"biconjugate_gap": convex.biconjugate_gap(f, fstar), key: None}
    if cells is not None:
        report[key] = float(np.max(np.abs(out.values[cells] - f.values[cells])))
    serialize.save_grid_fn(out, args.out)
    return report


def cmd_decompose(args, spec):
    f = serialize.load_grid_fn(args.infile)
    n = args.n if args.n is not None else f.domain.ndim
    parts = valuations.homogeneous_decompose(spec, f, n)
    lines = ["degree,value"]
    for d, v in enumerate(parts.components):
        lines.append(f"{d},{float(v)!r}")
    lines.append(f"residual_{n + 1},{float(parts.top_residual)!r}")
    serialize.dump_text_atomic("\n".join(lines) + "\n", args.out)
    return {"components": [float(v) for v in parts.components],
            "top_residual": parts.top_residual}


def cmd_polarize(args, spec):
    fs = [serialize.load_grid_fn(p) for p in args.inputs]
    return {"value": gw.polarize(spec, args.k, fs)}


def cmd_gw(args, spec):
    domain = _parsed("--grid", _grid, args.grid)
    tests = [_parsed("--bump", _bump, b) for b in args.bump]
    tests += [serialize.load_grid_fn(p) for p in args.test]
    query = gw.GWQuery(args.k, tests)
    return (gw._diagonality if args.diagonality else gw.gw_report)(spec, query, domain)


def cmd_scan(args, spec):
    mask = gw.support_scan(spec, args.k, args.probe_radius, args.tol,
                           domain=_parsed("--grid", _grid, args.grid))
    serialize.save_mask(mask, args.out)
    return {"marked_cells": mask.count}


def cmd_seminorm(args, spec):
    domain = _parsed("--grid", _grid, args.grid)
    value = gw.seminorm_estimate(spec, _parsed("--A-lo", _vector, args.A_lo),
                                 _parsed("--A-hi", _vector, args.A_hi), args.s,
                                 args.samples, args.seed, domain=domain)
    return {"estimate": value, "samples": args.samples, "seed": args.seed}


def cmd_embed(args, spec):
    K = serialize.load_polytope(args.polytope)
    return {"value": valuations.embed_T(spec, K, _parsed("--grid", _grid, args.grid))}


def build_parser():
    p = argparse.ArgumentParser(
        prog="epival", description="Valuations on grid-sampled convex functions")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, spec=True, out=None):
        """A subcommand. out="data": --out is the data file it writes, echoed
        in the config. out="report": --out optionally receives a copy of the
        report and stays out of its config, so reruns that write to different
        files print and write the same bytes."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        if spec:
            sp.add_argument("--spec", required=True)
            sp.add_argument("--unchecked", action="store_true",
                            help="skip the pairing weight-condition check")
        if out == "data":
            sp.add_argument("--out", required=True)
        elif out == "report":
            sp.add_argument("--out", dest="report_out", default=None)
        return sp

    t = command("transform", cmd_transform, "legendre / reg / reconstruct",
                spec=False, out="data")
    t.add_argument("--op", required=True, choices=["legendre", "reg", "reconstruct"])
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--r", type=finite, default=None)
    t.add_argument("--R", type=finite, default=None)
    t.add_argument("--grid", help="dual grid for --op legendre, lo:hi:shape")

    d = command("decompose", cmd_decompose, "homogeneous components as CSV",
                out="data")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--n", type=int, default=None)

    pol = command("polarize", cmd_polarize, "multilinear polarization value",
                  out="report")
    pol.add_argument("--k", type=int, required=True)
    pol.add_argument("--inputs", nargs="+", required=True)

    g = command("gw", cmd_gw, "Goodey-Weil pairing / diagonality residual",
                out="report")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--bump", action="append", default=[],
                   help="center:radius:amplitude, e.g. 0.5,0:0.4:1")
    g.add_argument("--test", action="append", default=[],
                   help="grid-function file used as a test function")
    g.add_argument("--grid", default=None, help="lo:hi:shape, comma-separated")
    g.add_argument("--diagonality", action="store_true")

    s = command("scan", cmd_scan, "support scan mask", out="data")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--probe-radius", dest="probe_radius", type=finite,
                   required=True)
    s.add_argument("--tol", type=finite, default=1e-6)
    s.add_argument("--grid", default=None)

    sn = command("seminorm", cmd_seminorm, "seminorm lower-bound estimate",
                 out="report")
    sn.add_argument("--A-lo", dest="A_lo", required=True)
    sn.add_argument("--A-hi", dest="A_hi", required=True)
    sn.add_argument("--s", type=finite, required=True)
    sn.add_argument("--samples", type=int, default=32)
    sn.add_argument("--seed", type=int, default=0)
    sn.add_argument("--grid", default=None)

    e = command("embed", cmd_embed, "body valuation T(mu)[K]")
    e.add_argument("--polytope", required=True)
    e.add_argument("--grid", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report_out = vars(args).pop("report_out", None)
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    try:
        out = report_out or getattr(args, "out", None)
        if out:
            _check_out(out)
        spec = serialize.load_valuation_spec(args.spec, check=not args.unchecked) \
            if "spec" in config else None
        report = {"command": args.command, "config": config, **args.func(args, spec)}
        if report_out:
            serialize.dump_json_atomic(report, report_out)
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return 0
    except (OSError, FormatError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (ValueError, TypeError, ArithmeticError, MemoryError,
            np.linalg.LinAlgError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
