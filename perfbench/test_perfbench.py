"""The benchmark's own tests, negative controls included.

    python3 -m pytest perfbench -q

They run real epival commands from the checkout's src/ directory, in a
scratch directory under .perfbench/ that is removed afterwards.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import harness, oracles, run
from perfbench.fixtures import Grid, read_grid_fn, write_grid_fn
from perfbench.workloads import WORKLOADS, Command, conjugate, probe

ROOT = run.ROOT
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


@pytest.fixture
def spawner():
    with harness.Spawner() as sp:
        yield sp


@pytest.fixture
def workdir(request):
    d = os.path.join(ROOT, ".perfbench", "test", request.node.name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def failed_share(executions):
    return sum(bool(ex.failure) for ex in executions) / len(executions)


def test_benchmark_json_matches_what_the_runner_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_a_perturbed_output_file_counts_as_failed(workdir, spawner):
    cmd = conjugate(workdir, np.random.default_rng(3))[0]
    runner = harness.Runner(workdir, ENV, spawner)
    clean = runner.sequence([cmd])
    assert failed_share(clean) == 0.0, clean[0].failure

    original = cmd.check

    def perturb_then_check(report, d):
        path = os.path.join(d, cmd.writes[0])
        grid, vals = read_grid_fn(path)
        fin = np.isfinite(vals)
        vals[fin] += 1e-6 * (1.0 + np.abs(vals[fin]))
        write_grid_fn(path, grid, vals)
        original(report, d)

    cmd.check = perturb_then_check
    perturbed = runner.sequence([cmd])
    assert failed_share(clean + perturbed) == 0.5
    assert "conjugate" in perturbed[0].failure


def test_a_changed_output_between_runs_counts_as_failed(workdir, spawner):
    cmd = conjugate(workdir, np.random.default_rng(4))[0]
    runner = harness.Runner(workdir, ENV, spawner)
    runner.fingerprints[cmd.name] = "digest of some other output"
    assert "differs" in runner.sequence([cmd])[0].failure


def test_a_command_that_exits_non_zero_counts_as_failed(workdir, spawner):
    conjugate(workdir, np.random.default_rng(5))
    # --op reg without --r is a precondition violation: exit code 3
    bad = Command("reg-without-r", ["transform", "--op", "reg", "--in", "g2d.json",
                                    "--out", "x.json"], ["g2d.json"], ["x.json"],
                  check=lambda report, d: None)
    ex = harness.Runner(workdir, ENV, spawner).sequence([bad])
    assert ex[0].returncode == 3 and failed_share(ex) == 1.0


def test_traced_run_wraps_every_namespace_and_keeps_output(workdir, spawner):
    cmds = probe(workdir, np.random.default_rng(6))
    gw_k2 = next(c for c in cmds if c.name == "gw-k2")
    runner = harness.Runner(workdir, ENV, spawner)
    plain, traced = runner.run(gw_k2), runner.run(gw_k2, traced=True)
    assert plain.failure is None and traced.failure is None  # same bytes both ways
    spans = traced.spans
    names = {s[0] for s in spans}
    # evaluate and is_discretely_convex are reached through gw's own imports
    assert {"gw.gw_report", "valuations.evaluate", "convex.is_discretely_convex",
            "convex.central_hessian_at", "valuations.mixed_determinant"} <= names
    inside = harness.under(spans, "gw.gw_report")
    assert any(spans[i][0] == "valuations.evaluate" for i in inside)
    stats = harness.self_times(spans)
    total = sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent < 0)
    assert sum(s for _, s, _ in stats.values()) == pytest.approx(total, rel=1e-9)


def test_self_time_subtracts_child_spans():
    spans = [["a", 0.0, 10.0, -1, False], ["b", 1.0, 4.0, 0, True],
             ["c", 2.0, 3.0, 1, False], ["b", 5.0, 6.0, 0, False]]
    assert harness.self_times(spans) == {"a": (1, 6.0, 0), "b": (2, 3.0, 1), "c": (1, 1.0, 0)}
    assert harness.under(spans, "b") == [2]


def test_tolerance_scale_bounds_the_form_even_where_signs_cancel():
    # D(|A|, |A|) = det |A| = -1 for this A, so |weights| and |Hessians| alone
    # would give a negative scale and a tolerance no output can meet
    grid = Grid.cube(1.0, 3, 2)
    A = np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]]), (3, 3, 2, 2))
    weight = np.ones((3, 3))
    assert oracles.hessian_form(grid, weight, [np.abs(A), np.abs(A)]) < 0.0
    bound = oracles.hessian_form_bound(grid, weight, [A, A])
    assert bound > 0.0 and bound >= abs(oracles.hessian_form(grid, weight, [A, A]))


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "probe", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=workdir,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
