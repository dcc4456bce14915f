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
from importlib import import_module

# Before numpy loads: starting OpenBLAS's thread pool costs each command
# about 120 ms of CPU time, and no command's BLAS calls are large enough to
# use it. A value already in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The engine modules each subcommand runs, imported in this order. Where a
# process has no bytecode cache, it compiles each module it imports (gw: 5
# ms and a 1.6 MB traced peak; serialize and valuations: 3 ms and 1 MB
# each), so a command imports only its own. convex, the largest, comes
# first and is compiled before numpy loads, and none is compiled on top of
# argparse. The spec commands keep the order in which their peak RSS was
# lowest.
_SPEC_MODULES = ("convex", "gw", "serialize", "valuations")
_MODULES = {
    "transform": ("convex", "serialize"),
    "decompose": ("convex", "serialize", "valuations"),
    "embed": ("convex", "serialize", "valuations"),
    "polarize": _SPEC_MODULES,
    "gw": _SPEC_MODULES,
    "scan": _SPEC_MODULES,
    "seminorm": _SPEC_MODULES,
}


def _load(command):
    """Import the modules `command` runs and bind them here, where the
    handlers find them; every module when `command` names no subcommand."""
    for name in _MODULES.get(command, _SPEC_MODULES):
        globals()[name] = import_module(f".{name}", __package__)


# The command is read from sys.argv. Where sys.argv[1] names none (-h, a test
# run, perfbench's traced_cli, which wraps functions in every module after
# this import), every module is loaded; main loads its command's in any case.
_load(sys.argv[1] if len(sys.argv) > 1 else None)

from .errors import FormatError
from .grids import _MAX_CORNER_VALUES, Bump, GridDomain

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
    domain = GridDomain(_vector(lo), _vector(hi), [int(v) for v in shape.split(",")])
    if domain.size > _MAX_CORNER_VALUES:  # before any command allocates it
        # too large for memory (exit 3), not a bad value (a ValueError, exit 2)
        raise MemoryError(f"a grid of {domain.size} cells exceeds the work budget of "
                          f"{_MAX_CORNER_VALUES} cells")
    return domain


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
    for op, name in (("legendre", "grid"), ("reg", "r"), ("reconstruct", "R")):
        if op != args.op and getattr(args, name) is not None:
            raise ValueError(f"--op {args.op} does not read --{name}")
    if args.op == "reg" and args.r is None:
        raise ValueError("--op reg requires --r")
    if args.op == "reconstruct" and args.R is None:
        raise ValueError("--op reconstruct requires --R")
    dual = _parsed("--grid", _grid, args.grid)
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
    parts = valuations.homogeneous_decompose(spec, f)
    lines = ["degree,value"]
    for d, v in enumerate(parts.components):
        lines.append(f"{d},{float(v)!r}")
    lines.append(f"residual_{f.domain.ndim + 1},{float(parts.top_residual)!r}")
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


# Options the subcommands share. --out is the data file a command writes,
# echoed in the config; where it writes none, an optional copy of the report,
# kept out of the config so reruns that write to different files print and
# write the same bytes.
_SPEC = ("--spec", {"required": True})
_DATA_OUT = ("--out", {"required": True})
_REPORT_OUT = ("--out", {"dest": "report_out"})

# name: handler, summary, and its options as (flag, add_argument keywords)
_COMMANDS = {
    "transform": (cmd_transform, "legendre / reg / reconstruct", [
        _DATA_OUT,
        ("--op", {"required": True, "choices": ["legendre", "reg", "reconstruct"]}),
        ("--in", {"dest": "infile", "required": True}),
        ("--r", {"type": finite}),
        ("--R", {"type": finite}),
        ("--grid", {"help": "dual grid for --op legendre, lo:hi:shape"})]),
    "decompose": (cmd_decompose, "homogeneous components as CSV", [
        _SPEC, _DATA_OUT, ("--in", {"dest": "infile", "required": True})]),
    "polarize": (cmd_polarize, "multilinear polarization value", [
        _SPEC, _REPORT_OUT,
        ("--k", {"type": int, "required": True}),
        ("--inputs", {"nargs": "+", "required": True})]),
    "gw": (cmd_gw, "Goodey-Weil pairing / diagonality residual", [
        _SPEC, _REPORT_OUT,
        ("--k", {"type": int, "required": True}),
        ("--bump", {"action": "append", "default": [],
                    "help": "center:radius:amplitude, e.g. 0.5,0:0.4:1"}),
        ("--test", {"action": "append", "default": [],
                    "help": "grid-function file used as a test function"}),
        ("--grid", {"help": "lo:hi:shape, comma-separated"}),
        ("--diagonality", {"action": "store_true"})]),
    "scan": (cmd_scan, "support scan mask", [
        _SPEC, _DATA_OUT,
        ("--k", {"type": int, "required": True}),
        ("--probe-radius", {"dest": "probe_radius", "type": finite, "required": True}),
        ("--tol", {"type": finite, "default": 1e-6}),
        ("--grid", {})]),
    "seminorm": (cmd_seminorm, "seminorm lower-bound estimate", [
        _SPEC, _REPORT_OUT,
        ("--A-lo", {"dest": "A_lo", "required": True}),
        ("--A-hi", {"dest": "A_hi", "required": True}),
        ("--s", {"type": finite, "required": True}),
        ("--samples", {"type": int, "default": 32}),
        ("--seed", {"type": int, "default": 0}),
        ("--grid", {})]),
    "embed": (cmd_embed, "body valuation T(mu)[K]", [
        _SPEC, ("--polytope", {"required": True}), ("--grid", {})]),
}


def build_parser(command=None):
    """The CLI's parser. Given the name of a subcommand, it holds only that
    subcommand's parser, whose usage and errors are the same; otherwise all
    of them, for the top-level help and errors."""
    p = argparse.ArgumentParser(
        prog="epival", description="Valuations on grid-sampled convex functions")
    one = command in _COMMANDS
    # argparse names the subcommands it holds in the usage line of an error;
    # with one, it is told them all. Not otherwise: a metavar also renames
    # the `command` argument in the errors about it.
    sub = p.add_subparsers(dest="command", required=True,
                           metavar="{" + ",".join(_COMMANDS) + "}" if one else None)
    for name in [command] if one else _COMMANDS:
        func, summary, options = _COMMANDS[name]
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        for flag, keywords in options:
            sp.add_argument(flag, **keywords)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    _load(args.command)
    report_out = vars(args).pop("report_out", None)
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    try:
        out = report_out or getattr(args, "out", None)
        if out:
            _check_out(out)
        spec = serialize.load_valuation_spec(args.spec) if "spec" in config else None
        report = {"command": args.command, "config": config, **args.func(args, spec)}
        if report_out:
            serialize.dump_json_atomic(report, report_out)
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return 0
    except (OSError, FormatError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except (ValueError, TypeError, ArithmeticError, MemoryError) as err:  # LinAlgError included
        sys.stderr.write(f"error: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
