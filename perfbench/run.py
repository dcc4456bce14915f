"""epival benchmark: end-to-end CLI metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload conjugate --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program under test is the
epival package in its src/ directory. Set-up writes the seeded fixtures and
runs one warm-up command, five times; the median is setup_s. Then the
workload's commands run in order, one at a time and round and round, until
the next would overrun --seconds (at least one whole pass), so the whole
window is measured. With --trace 1 whole untraced and traced passes
alternate instead, and the traced ones give the per-layer numbers. The
last line of stdout is the JSON result; a fuller record with the
environment, every command's argv and every execution is written to
.perfbench/results/ in the checkout.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from perfbench import harness  # noqa: E402
from perfbench.fixtures import Grid, convex_values, write_grid_fn  # noqa: E402
from perfbench.traced_cli import TRACED  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUPS = 5

FUNCTIONS = [f"{mod}.{fn}" for mod, names in TRACED.items() for fn in names]
CALL_COUNTS = ["serialize.load_grid_fn", "serialize.save_grid_fn", "convex.legendre",
               "convex.is_discretely_convex", "convex.central_hessian_at",
               "valuations.evaluate", "valuations.mixed_determinant",
               "convex.extend_from_subdomain", "sampling.random_convex_fn", "grids.interpolate"]

END_TO_END = [("setup_s", "s", "lower"), ("wall_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"), ("pass_ratio", "ratio", "higher")]
PER_LAYER = (
    [("cli.startup_s", "s", "lower"), ("cli.cpu_s", "s", "lower"),
     ("cli.commands", "count", "lower"),
     ("serialize.read_bytes", "bytes", "lower"), ("serialize.write_bytes", "bytes", "lower")]
    + [(f"{f}.calls", "count", "lower") for f in CALL_COUNTS]
    + [(f"{f}.self_s", "s", "lower") for f in FUNCTIONS]
    + [("convex.is_discretely_convex.reject_ratio", "ratio", "lower"),
       ("valuations.evaluate.calls_per_cell", "count", "lower"),
       ("trace.overhead_s", "s", "lower"), ("trace.coverage", "ratio", "higher")])

ENV_PROBE = r"""
import ctypes, json, os, platform, sys
import numpy, scipy, epival
threads = {}
for path in sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l}):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            threads[os.path.basename(path)] = getattr(lib, sym)()
            break
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version, "platform": platform.platform(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
                  "blas_threads": threads, "nproc": os.cpu_count(),
                  "epival_file": epival.__file__}))
"""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def median_of(values):
    return statistics.median(values) if values else 0.0


def set_up(workload, seed, d, env, spawner):
    """Fixtures plus one warm-up command; returns the workload's commands."""
    os.makedirs(d)
    cmds = WORKLOADS[workload](d, np.random.default_rng(seed))
    warm = Grid.cube(1.0, 33, 1)
    write_grid_fn(os.path.join(d, "warmup.json"), warm,
                  convex_values(warm, np.random.default_rng(seed)))
    argv = [sys.executable, "-c", harness.CLI, "transform", "--op", "legendre",
            "--in", "warmup.json", "--out", "warmup.star.json"]
    code = spawner.run(argv, d, env)["returncode"]
    if code != 0:
        raise RuntimeError(f"warm-up command exited with code {code}")
    return cmds


def measure(runner, cmds, seconds, startup=None):
    """(untraced executions, traced passes, start-up times), run until the
    next would overrun `seconds`. Untraced, the commands go round in order,
    at least one whole pass. With a `startup` timer, whole untraced and
    traced passes alternate, each traced pass followed by one start-up
    sample per command, so that start-up is timed alongside the commands."""
    start = time.perf_counter()
    if startup:
        untraced, traced, startups, durations = [], [], [], []
        while True:
            t0 = time.perf_counter()
            untraced.extend(runner.sequence(cmds))
            traced.append(runner.sequence(cmds, traced=True))
            startups.extend(startup() for _ in cmds)
            durations.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(durations) > seconds:
                return untraced, traced, startups
    executions, durations = [], {}
    for i in itertools.count():
        cmd = cmds[i % len(cmds)]
        if i >= len(cmds) and (time.perf_counter() - start
                               + statistics.median(durations[cmd.name]) > seconds):
            return executions, [], []
        t0 = time.perf_counter()
        executions.append(runner.run(cmd, command_id=i % len(cmds)))
        durations.setdefault(cmd.name, []).append(time.perf_counter() - t0)


def file_bytes(d, names):
    return sum(os.path.getsize(os.path.join(d, n)) for n in names)


def per_layer(cmds, untraced, traced, startup_s, workdir):
    """Per-layer metrics: span statistics are medians over the traced passes."""
    cells = sum(c.scanned_cells for c in cmds)
    rows, roots = [], []
    for p in traced:
        totals, scan_evals = {}, 0
        for ex in p:
            for name, (calls, self_s, rejects) in harness.self_times(ex.spans).items():
                c, s, r = totals.get(name, (0, 0.0, 0))
                totals[name] = (c + calls, s + self_s, r + rejects)
            scan_evals += sum(ex.spans[i][0] == "valuations.evaluate"
                              for i in harness.under(ex.spans, "gw.support_scan"))
        roots.append(sum(t1 - t0 for ex in p for _, t0, t1, parent, _ in ex.spans if parent < 0))
        row = {"valuations.evaluate.calls_per_cell": scan_evals / cells if cells else 0.0}
        for f in FUNCTIONS:
            calls, self_s, rejects = totals.get(f, (0, 0.0, 0))
            row[f"{f}.calls"], row[f"{f}.self_s"] = calls, self_s
            if f == "convex.is_discretely_convex":
                row[f"{f}.reject_ratio"] = rejects / calls if calls else 0.0
        rows.append(row)
    m = {k: median_of([r[k] for r in rows]) for k in rows[0]}
    untraced_wall = harness.end_to_end(untraced)["wall_s"]
    traced_wall = harness.end_to_end([ex for p in traced for ex in p])["wall_s"]
    m.update({
        "cli.startup_s": startup_s,
        "cli.cpu_s": sum(harness.per_command(untraced, "cpu_s", statistics.mean).values()),
        "cli.commands": len(cmds),
        "serialize.read_bytes": file_bytes(workdir, {n for c in cmds for n in c.reads}),
        "serialize.write_bytes": file_bytes(workdir, [n for c in cmds for n in c.writes]),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.coverage": (median_of(roots) + startup_s * len(cmds)) / traced_wall,
    })
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "epival", "cli.py")):
        return fail(f"no epival sources at {src}; run from a source checkout")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, capture_output=True,
                           text=True, timeout=60)
    if probe.returncode != 0:
        return fail(f"cannot import epival from {src}: {probe.stderr.strip()[-300:]}")
    environment = json.loads(probe.stdout)
    if os.path.commonpath([os.path.abspath(environment["epival_file"]), src]) != src:
        return fail(f"epival resolves to {environment['epival_file']}, not the checkout")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench", "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    with harness.Spawner() as spawner:
        setup_times = []
        try:
            for i in range(SETUPS):
                t0 = time.perf_counter()
                cmds = set_up(args.workload, args.seed, os.path.join(work, str(i)), env, spawner)
                setup_times.append(time.perf_counter() - t0)
        except RuntimeError as err:
            return fail(str(err))
        workdir = os.path.join(work, str(SETUPS - 1))
        startup = None
        if args.trace:
            import_argv = [sys.executable, "-c", "import epival.cli"]

            def startup():
                return spawner.run(import_argv, workdir, env)["wall_s"]
        runner = harness.Runner(workdir, env, spawner)
        untraced, traced, startups = measure(runner, cmds, args.seconds, startup)
    executions = untraced + [ex for p in traced for ex in p]
    failed = [ex for ex in executions if ex.failure]

    e2e = harness.end_to_end(untraced)
    e2e["setup_s"] = median_of(setup_times)
    e2e["pass_ratio"] = 1.0 - len(failed) / len(executions)
    names = PER_LAYER if args.trace else END_TO_END
    values = per_layer(cmds, untraced, traced, median_of(startups), workdir) if args.trace else e2e
    metrics = {n: {"value": values[n], "unit": unit} for n, unit, _ in names}

    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": environment,
                   "commands": [{"name": c.name, "argv": ["epival", *c.args]} for c in cmds],
                   "setup_s": setup_times, "traced_passes": len(traced),
                   "attempted": len(executions), "failed": len(failed),
                   "fail_ratio": len(failed) / len(executions),
                   "failures": [f"{ex.command}: {ex.failure}" for ex in failed],
                   "executions": [{k: v for k, v in vars(ex).items() if k != "spans"}
                                  for ex in executions],
                   "metrics": metrics, "end_to_end": e2e}, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    for ex in failed:
        print(f"perfbench: {ex.command} failed: {ex.failure}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(executions),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
