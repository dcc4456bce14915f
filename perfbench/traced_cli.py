"""Run one epival CLI command with spans recorded around public functions.

    python traced_cli.py SPANS_FILE COMMAND_ID epival-arguments...

Each listed function is replaced, in every epival module namespace that
holds it, by a wrapper that records a span: name, start, end, the span
that called it and whether it returned False (for the convexity check's
reject ratio). Spans stay in memory and are written to SPANS_FILE as JSON
when the command ends; the exit code is the CLI's.
"""

import json
import sys
import time

TRACED = {
    "serialize": ["load_grid_fn", "save_grid_fn", "load_valuation_spec"],
    "convex": ["legendre", "lipschitz_regularize", "reconstruct_from_conjugate",
               "is_discretely_convex", "central_hessian_at", "extend_from_subdomain",
               "body_to_function"],
    "valuations": ["evaluate", "mixed_determinant", "homogeneous_decompose", "embed_T"],
    "gw": ["support_scan", "gw_report", "polarize", "seminorm_estimate"],
    "grids": ["interpolate"],
    "sampling": ["random_convex_fn"],
}


def _wrap(name, fn, spans, stack):
    clock = time.perf_counter

    def traced(*args, **kwargs):
        parent = stack[-1] if stack else -1
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        result = None
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = clock()
            stack.pop()
            spans[idx] = [name, t0, t1, parent, result is False]

    return traced


def install(spans):
    """Wrap every TRACED function wherever an epival module imported it.

    A function the program no longer has is skipped, so its counts read 0
    instead of the traced command failing."""
    import epival.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [m for n, m in list(sys.modules.items()) if n == "epival" or n.startswith("epival.")]
    stack = []
    for mod_name, names in TRACED.items():
        home = sys.modules.get(f"epival.{mod_name}")
        for fn_name in names:
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue
            wrapper = _wrap(f"{mod_name}.{fn_name}", original, spans, stack)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def main(argv):
    spans_file, command_id, cli_args = argv[0], argv[1], argv[2:]
    spans = []
    install(spans)
    from epival.cli import main as cli_main
    code = 1
    try:
        code = cli_main(cli_args)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"command": command_id, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
