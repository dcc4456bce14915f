import argparse
import ast
import copy
import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import epival
from epival import serialize
from epival import Bump, ExtGridFn, FormatError, GridDomain, Polytope, ScanMask
from epival.cli import build_parser, main
from epival.serialize import (
    dump_json_atomic,
    load_grid_fn,
    load_mask,
    save_grid_fn,
    save_mask,
    save_polytope,
)

from helpers import (BLAS_THREADS, child_env, peak_floats, reference_grid_json, sample,
                     whole_text_load_grid_fn)


@pytest.fixture
def dom():
    return GridDomain([-4.0], [4.0], [257])


def write_grid(path, domain, fn):
    save_grid_fn(sample(domain, fn), path)


def write_mu1(path):
    dump_json_atomic({"kind": "pairing",
                      "nodes": [[1.0], [-1.0], [0.0]],
                      "weights": [1.0, 1.0, -2.0]}, path)


def test_transform_legendre_self_conjugate(tmp_path, capsys, dom):
    fin = tmp_path / "f.json"
    fout = tmp_path / "fstar.json"
    write_grid(fin, dom, lambda p: 0.5 * p[:, 0] ** 2)
    rc = main(["transform", "--op", "legendre", "--in", str(fin),
               "--out", str(fout), "--grid=-4:4:257"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["sup_diff_vs_input"] is not None
    assert report["sup_diff_vs_input"] <= 2 * (8.0 / 256)
    out = load_grid_fn(fout)
    y = out.domain.points().ravel()
    assert np.max(np.abs(out.values.ravel() - 0.5 * y**2)) <= 2 * (8.0 / 256)


def test_transform_reg_affine_identity_bytes(tmp_path, capsys):
    d = GridDomain([-2.0], [2.0], [65])
    fin = tmp_path / "aff.json"
    fout = tmp_path / "reg.json"
    write_grid(fin, d, lambda p: 0.5 * p[:, 0] - 0.2)
    rc = main(["transform", "--op", "reg", "--r", "1.0", "--in", str(fin),
               "--out", str(fout)])
    assert rc == 0
    capsys.readouterr()
    assert json.load(open(fin))["values"] == json.load(open(fout))["values"]


@pytest.mark.parametrize("shape, grid", [([5, 5, 5], "-1,-1:1,1:5,5"),   # 2D grid, 3D input
                                         ([9, 9], "-1:1:5")])            # 1D grid, 2D input
def test_transform_legendre_dual_grid_of_another_dimension_exits_3(tmp_path, shape, grid):
    """The dimension is checked before the slope coverage: no broadcast
    error, no coverage warning, no output file."""
    n = len(shape)
    write_grid(tmp_path / "f.json", GridDomain([-2.0] * n, [2.0] * n, shape),
               lambda p: np.sum(p**2, axis=1))
    src = os.path.dirname(os.path.dirname(os.path.abspath(epival.__file__)))
    run = subprocess.run([sys.executable, "-m", "epival.cli", "transform", "--op", "legendre",
                          "--in", "f.json", "--out", "fstar.json", f"--grid={grid}"],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 3
    assert run.stderr == "error: dual domain dimension mismatch\n"
    assert not (tmp_path / "fstar.json").exists()


def test_transform_missing_input_exit2(tmp_path, capsys):
    fout = tmp_path / "out.json"
    rc = main(["transform", "--op", "legendre", "--in",
               str(tmp_path / "missing.json"), "--out", str(fout)])
    assert rc == 2
    assert not fout.exists()
    capsys.readouterr()


def test_transform_precondition_exit3_no_output(tmp_path, capsys):
    d = GridDomain([-2.0], [2.0], [65])
    fin = tmp_path / "f.json"
    fout = tmp_path / "out.json"
    write_grid(fin, d, lambda p: p[:, 0] ** 2)
    rc = main(["transform", "--op", "reconstruct", "--R", "1.0",
               "--in", str(fin), "--out", str(fout)])  # needs B_3, domain is B_2
    assert rc == 3
    assert not fout.exists()
    capsys.readouterr()


def test_decompose_composite_and_bad_spec(tmp_path, capsys):
    d = GridDomain([-2.0, -2.0], [2.0, 2.0], [33, 33])
    fin = tmp_path / "f.json"
    write_grid(fin, d, lambda p: 0.5 * np.sum(p**2, axis=1))
    w = Bump([0.0, 0.0], 0.8, 1.0).sample(d)
    save_grid_fn(w, tmp_path / "w.json")
    dump_json_atomic({"kind": "hessian", "k": 2, "weight": "w.json",
                      "aux": []}, tmp_path / "hess.json")
    dump_json_atomic({"kind": "constant", "value": 3.0},
                     tmp_path / "const.json")
    dump_json_atomic({"kind": "pairing",
                      "nodes": [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                      "weights": [1.0, 1.0, -2.0]}, tmp_path / "mu1.json")
    dump_json_atomic({"kind": "composite",
                      "terms": [[1.0, "const.json"], [1.0, "mu1.json"],
                                [1.0, "hess.json"]]}, tmp_path / "comp.json")
    out = tmp_path / "parts.csv"
    rc = main(["decompose", "--spec", str(tmp_path / "comp.json"),
               "--in", str(fin), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "degree,value"
    rows = dict(line.split(",", 1) for line in lines[1:])
    assert float(rows["0"]) == pytest.approx(3.0, rel=1e-9)
    assert float(rows["1"]) == pytest.approx(1.0, rel=1e-9)  # mu1 on |x|^2/2
    assert "residual_3" in rows
    assert abs(float(rows["residual_3"])) < 1e-8 * 30
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    dump_json_atomic({"kind": "pairing", "nodes": [[0.0]], "weights": [1.0]},
                     bad)
    rc = main(["decompose", "--spec", str(bad), "--in", str(fin),
               "--out", str(tmp_path / "nope.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "sum(w) = 0" in err
    assert not (tmp_path / "nope.csv").exists()


@pytest.mark.parametrize("shape", [(3, 2, 2), (16, 17, 2, 2)])
def test_aux_field_off_the_weight_grid_exits_3(tmp_path, capsys, shape):
    d = GridDomain([-2.0, -2.0], [2.0, 2.0], [17, 17])
    write_grid(tmp_path / "f.json", d, lambda p: 0.5 * np.sum(p**2, axis=1))
    save_grid_fn(Bump([0.0, 0.0], 0.8, 1.0).sample(d), tmp_path / "w.json")
    dump_json_atomic({"kind": "hessian", "k": 1, "weight": "w.json",
                      "aux": [np.ones(shape).tolist()]}, tmp_path / "hess.json")
    out = tmp_path / "parts.csv"
    rc = main(["decompose", "--spec", str(tmp_path / "hess.json"),
               "--in", str(tmp_path / "f.json"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3 and "Traceback" not in err and "auxiliary matrices" in err
    assert not out.exists()


def _decompose_rc(tmp_path, capsys, spec):
    fin = tmp_path / "f.json"
    write_grid(fin, GridDomain([-2.0], [2.0], [33]), lambda p: 0.5 * p[:, 0] ** 2)
    out = tmp_path / "parts.csv"
    rc = main(["decompose", "--spec", str(spec), "--in", str(fin), "--out", str(out)])
    assert not out.exists()
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("refs", [{"self.json": "self.json"},
                                  {"a.json": "b.json", "b.json": "a.json"}])
def test_composite_spec_cycle_exit2(tmp_path, capsys, refs):
    write_mu1(tmp_path / "mu1.json")
    for name, ref in refs.items():
        dump_json_atomic({"kind": "composite",
                          "terms": [[1.0, "mu1.json"], [1.0, ref]]}, tmp_path / name)
    rc, err = _decompose_rc(tmp_path, capsys, tmp_path / next(iter(refs)))
    assert rc == 2
    assert "cycle" in err


def test_a_file_named_by_many_composites_is_read_once(tmp_path, monkeypatch):
    """A chain of 40 composites, each naming the next twice with weight 1/2,
    has 2^40 paths to its leaf: it reads each of its 41 files once, and its
    value is the leaf's."""
    write_mu1(tmp_path / "c0.json")
    for i in range(1, 41):
        dump_json_atomic({"kind": "composite",
                          "terms": [[0.5, f"c{i - 1}.json"], [0.5, f"c{i - 1}.json"]]},
                         tmp_path / f"c{i}.json")
    reads, load_json = [], serialize.load_json
    monkeypatch.setattr(serialize, "load_json", lambda path: reads.append(path) or load_json(path))
    spec = serialize.load_valuation_spec(tmp_path / "c40.json")
    assert len(reads) == len(set(reads)) == 41
    f = sample(GridDomain([-2.0], [2.0], [33]), lambda p: p[:, 0] ** 2 + np.sin(p[:, 0]))
    leaf = serialize.load_valuation_spec(tmp_path / "c0.json")
    assert epival.evaluate(spec, f) == epival.evaluate(leaf, f)


def test_a_file_read_once_is_still_refused_deeper_than_the_cap(tmp_path):
    """x5 holds five composites. The root names it directly and again at the
    end of a chain of composites: at depth 92 it fits the cap of 100, at
    depth 100 it does not, although it was read at depth 1 first."""
    write_mu1(tmp_path / "x0.json")
    for i in range(1, 6):
        dump_json_atomic({"kind": "composite", "terms": [[1.0, f"x{i - 1}.json"]]},
                         tmp_path / f"x{i}.json")
    dump_json_atomic({"kind": "composite", "terms": [[1.0, "x5.json"]]}, tmp_path / "d0.json")
    for i in range(1, 99):
        dump_json_atomic({"kind": "composite", "terms": [[1.0, f"d{i - 1}.json"]]},
                         tmp_path / f"d{i}.json")
    for depth, chain in ((92, "d90.json"), (100, "d98.json")):
        dump_json_atomic({"kind": "composite", "terms": [[1.0, "x5.json"], [1.0, chain]]},
                         tmp_path / "root.json")
        if depth + 5 <= serialize._NESTING:
            serialize.load_valuation_spec(tmp_path / "root.json")
        else:
            with pytest.raises(FormatError, match="nested more than"):
                serialize.load_valuation_spec(tmp_path / "root.json")


NODES = [[1.0], [-1.0], [0.0]]


@pytest.mark.parametrize("spec", [
    {"kind": "pairing", "nodes": NODES, "weights": "x"},
    {"kind": "pairing", "nodes": NODES, "weights": [1.0, None, -2.0]},
    {"kind": "pairing", "nodes": [[1.0], "x", [0.0]], "weights": [1.0, 1.0, -2.0]},
    {"kind": "constant", "value": "x"},
    {"kind": "hessian", "k": "two", "weight": "w.json"},
    {"kind": "composite", "terms": [["x", "mu1.json"]]},
    # JSON booleans, numeric strings and non-integral orders, which float()
    # and int() would read as numbers
    {"kind": "pairing", "nodes": NODES, "weights": [True, "1", -2.0]},
    {"kind": "pairing", "nodes": [[True], [-1.0], [0.0]], "weights": [1.0, 1.0, -2.0]},
    {"kind": "pairing", "nodes": NODES, "weights": [1.0, 1.0, -2 * 10**400]},
    {"kind": "constant", "value": True},
    {"kind": "constant", "value": 10**400},
    {"kind": "hessian", "k": 1.9, "weight": "w.json"},
    {"kind": "hessian", "k": True, "weight": "w.json"},
    {"kind": "hessian", "k": "1", "weight": "w.json"},
    {"kind": "composite", "terms": [[True, "mu1.json"]]},
    # arrays of the wrong rank, which numpy would broadcast or reshape
    {"kind": "pairing", "nodes": NODES, "weights": [[1.0], [1.0], [-2.0]]},
    {"kind": "pairing", "nodes": [1.0, -1.0, 0.0], "weights": [1.0, 1.0, -2.0]},
])
def test_malformed_spec_field_exit2(tmp_path, capsys, spec):
    write_mu1(tmp_path / "mu1.json")
    save_grid_fn(ExtGridFn(GridDomain([-2.0], [2.0], [33]), np.zeros(33)),
                 tmp_path / "w.json")
    dump_json_atomic(spec, tmp_path / "spec.json")
    rc, err = _decompose_rc(tmp_path, capsys, tmp_path / "spec.json")
    assert rc == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("text", ['{"kind": "constant", "value": 1e999}',
                                  '{"kind": "pairing", "nodes": [[1], [-1], [0]], '
                                  '"weights": [1e999, 1, -2]}'])
def test_spec_number_that_overflows_to_inf_exit2(tmp_path, capsys, text):
    (tmp_path / "spec.json").write_text(text)  # a finite literal that reads as inf
    rc, err = _decompose_rc(tmp_path, capsys, tmp_path / "spec.json")
    assert rc == 2
    assert "finite" in err


def test_spec_violating_moment_conditions_exit3(tmp_path, capsys):
    dump_json_atomic({"kind": "pairing", "nodes": NODES, "weights": [1.0, 1.0, -1.0]},
                     tmp_path / "spec.json")
    rc, err = _decompose_rc(tmp_path, capsys, tmp_path / "spec.json")
    assert rc == 3
    assert "sum(w) = 0" in err


def test_gw_diagonality_report(tmp_path, capsys):
    d = GridDomain([-4.0, -4.0], [4.0, 4.0], [49, 49])
    w = Bump([0.0, 0.0], 3.0, 1.0).sample(d)
    save_grid_fn(w, tmp_path / "w.json")
    dump_json_atomic({"kind": "hessian", "k": 2, "weight": "w.json",
                      "aux": []}, tmp_path / "hess.json")
    rc = main(["gw", "--spec", str(tmp_path / "hess.json"), "--k", "2",
               "--bump=-2.0,0.0:0.5:1", "--bump=2.0,0.0:0.5:1",
               "--diagonality"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["residual"] <= 1e-8 * 40


def test_gw_value_report_fields(tmp_path, capsys):
    write_mu1(tmp_path / "mu1.json")
    rc = main(["gw", "--spec", str(tmp_path / "mu1.json"), "--k", "1",
               "--bump=0.3:0.7:1", "--grid=-2:2:129"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip())
    for key in ("value", "value_half_step", "step", "agreement", "config"):
        assert key in report
    assert report["agreement"] <= 1e-7


def test_gw_of_a_pairing_that_vanishes_at_every_corner_reports_agreement_0(tmp_path, capsys):
    """mu(f) = f(1, 0) + f(-1, 0) - f(0, 1) - f(0, -1) is 0 on |x|^2 and on
    every corner of a bump that misses its nodes, so the agreement is 0/0:
    it was "float division by zero", exit 3."""
    dump_json_atomic({"kind": "pairing", "nodes": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                      "weights": [1, 1, -1, -1]}, tmp_path / "zero.json")
    assert main(["gw", "--spec", str(tmp_path / "zero.json"), "--k", "1",
                 "--grid=-2,-2:2,2:33,33", "--bump=-1.5,-1.5:0.3:1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == report["value_half_step"] == report["corner_max"] == 0.0
    assert report["agreement"] == 0.0


def test_gw_diagonality_report_carries_the_gw_report_fields(tmp_path, capsys):
    d = GridDomain([-2.0, -2.0], [2.0, 2.0], [33, 33])
    save_grid_fn(Bump([0.0, 0.0], 1.6, 1.0).sample(d), tmp_path / "w.json")
    dump_json_atomic({"kind": "hessian", "k": 2, "weight": "w.json", "aux": []},
                     tmp_path / "hess.json")
    rc = main(["gw", "--spec", str(tmp_path / "hess.json"), "--k", "2",
               "--bump=-0.9,0.2:0.5:1", "--bump=0.8,-0.3:0.5:1", "--diagonality"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("value", "value_half_step", "step", "agreement", "corner_max",
                "test_sup_norms"):
        assert key in report
    assert report["residual"] == abs(report["value"])
    assert report["residual"] <= 1e-10 * report["corner_max"]


def test_gw_diagonality_of_grid_file_tests(tmp_path, capsys):
    # tests are separated by their nonzero samples: two empty cells pass at
    # noise level, one exits 3
    d = GridDomain([-2.0, -2.0], [2.0, 2.0], [41, 41])
    save_grid_fn(Bump([0.0, 0.0], 1.8, 1.0).sample(d), tmp_path / "w.json")
    dump_json_atomic({"kind": "hessian", "k": 2, "weight": "w.json", "aux": []},
                     tmp_path / "hess.json")
    left = Bump([-0.8, 0.0], 0.45, 1.0).sample(d)
    save_grid_fn(left, tmp_path / "left.json")
    width = np.flatnonzero(left.values.any(axis=1)).size
    for empty, rc in ((2, 0), (1, 3)):
        save_grid_fn(ExtGridFn(d, np.roll(left.values, width + empty, axis=0)),
                     tmp_path / "right.json")
        assert main(["gw", "--spec", str(tmp_path / "hess.json"), "--k", "2",
                     "--test", str(tmp_path / "left.json"),
                     "--test", str(tmp_path / "right.json"), "--diagonality"]) == rc
        out, err = capsys.readouterr()
        if rc == 0:
            report = json.loads(out)
            assert report["residual"] <= 1e-10 * report["corner_max"]
        else:
            assert out == "" and err.startswith("error: ") and "two empty cells" in err
            assert "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ('{"domain": ', "invalid JSON"),
    ('{"domain": {"lo": [-1.0], "hi": [1.0], "shape": [3]}, '
     '"values": ["inf", "inf", "inf"]}', "must be proper"),
    ('{"domain": {"lo": [-1.0], "hi": [1.0], "shape": [3]}, '
     '"values": [1.0, 1e999, 1.0]}', "non-finite numeric value"),
])
def test_unreadable_grid_file_exits_2(tmp_path, capsys, text, message):
    (tmp_path / "f.json").write_text(text)
    out = tmp_path / "out.json"
    rc = main(["transform", "--op", "legendre", "--in", str(tmp_path / "f.json"),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and message in err
    assert not out.exists()


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command, name, content", [
    ("transform", "f.json",
     '{"domain": {"lo": [-1.0], "hi": [1.0], "shape": [3]}, "values": %s}' % _DEEP),
    ("decompose", "mu1.json", '{"kind": "pairing", "nodes": %s, "weights": [1.0]}' % _DEEP),
    ("embed", "seg.json", '{"vertices": %s}' % _DEEP),
    ("decompose", "mu1.json", '{"kind": "constant", "value": 1.5, "note": "\xff"}'),
], ids=["grid-nested", "spec-nested", "polytope-nested", "spec-not-utf8"])
def test_unparsable_files_exit_2(tmp_path, capsys, command, name, content):
    """JSON nested deeper than the parser recurses, and a file that is not
    UTF-8 (the latin-1 byte 0xff), are parse failures: one error line."""
    argv = _commands(tmp_path)[command]
    (tmp_path / name).write_bytes(content.encode("latin-1"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.data").exists()


def test_composites_nested_beyond_the_cap_exit_2(tmp_path, capsys):
    """A chain of 500 composite files loads, but evaluating it would overflow
    the stack; a chain as deep as the cap runs."""
    write_mu1(tmp_path / "c0.json")
    for i in range(1, 501):
        dump_json_atomic({"kind": "composite", "terms": [[1.0, f"c{i - 1}.json"]]},
                         tmp_path / f"c{i}.json")
    argv = _commands(tmp_path)["decompose"]

    def decompose(depth):
        argv[2] = str(tmp_path / f"c{depth}.json")
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 0 or (out == "" and "nested more than" in err)
        assert (tmp_path / "out.data").exists() == (rc == 0)
        (tmp_path / "out.data").unlink(missing_ok=True)
        return rc

    assert decompose(500) == 2
    assert decompose(serialize._NESTING + 1) == 2
    assert decompose(serialize._NESTING) == 0


def test_pairing_spec_without_weights_exits_2(tmp_path, capsys):
    dump_json_atomic({"kind": "pairing", "nodes": NODES}, tmp_path / "spec.json")
    rc, err = _decompose_rc(tmp_path, capsys, tmp_path / "spec.json")
    assert rc == 2
    assert "missing 'weights'" in err


@pytest.mark.parametrize("args, message", [
    (["transform", "--op", "reg", "--in", "f.json"], "requires --r"),
    (["transform", "--op", "reconstruct", "--in", "f.json"], "requires --R"),
    (["scan", "--spec", "mu1.json", "--k", "1", "--probe-radius", "0", "--grid=-2:2:33"],
     "probe_radius must be positive"),
])
def test_missing_radius_or_zero_probe_radius_exits_3(tmp_path, capsys, monkeypatch, args,
                                                     message):
    write_mu1(tmp_path / "mu1.json")
    write_grid(tmp_path / "f.json", GridDomain([-2.0], [2.0], [33]), lambda p: p[:, 0] ** 2)
    monkeypatch.chdir(tmp_path)
    rc = main(args + ["--out", "out.json"])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("error: ") and message in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("op, option", [
    ("legendre", "--r=0.5"), ("legendre", "--R=9"),
    ("reg", "--grid=-2:2:33"), ("reg", "--R=9"),
    ("reconstruct", "--r=0.5"), ("reconstruct", "--grid=-2:2:33"),
])
def test_transform_refuses_an_option_its_op_does_not_read(tmp_path, capsys, op, option):
    # --in names no file, so a refusal after the read would exit 2
    needs = {"reg": ["--r=0.5"], "reconstruct": ["--R=1"]}.get(op, [])
    rc = main(["transform", "--op", op, *needs, option, "--in", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "out.json")])
    out, err = capsys.readouterr()
    assert rc == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and f"does not read {option.split('=')[0]}" in err
    assert os.listdir(tmp_path) == []


def test_scan_covers_nodes(tmp_path, capsys):
    write_mu1(tmp_path / "mu1.json")
    out = tmp_path / "mask.json"
    rc = main(["scan", "--spec", str(tmp_path / "mu1.json"), "--k", "1",
               "--probe-radius", "0.3", "--grid=-2:2:129",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    mask = load_mask(out)
    x = mask.domain.points().ravel()
    for nd in (-1.0, 0.0, 1.0):
        assert np.any(mask.marked & (np.abs(x - nd) <= 0.3))


def test_scan_negative_tol_exits_3_and_writes_no_mask(tmp_path, capsys):
    write_mu1(tmp_path / "mu1.json")
    out = tmp_path / "mask.json"
    rc = main(["scan", "--spec", str(tmp_path / "mu1.json"), "--k", "1",
               "--probe-radius", "0.3", "--grid=-2:2:33", "--tol", "-1", "--out", str(out)])
    assert rc == 3
    assert "tol must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def _count_calls(monkeypatch, module, name):
    """Wrap module.name in every epival namespace that binds it, so a call
    by any of them is recorded; returns the list of recorded arguments."""
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "epival" or mod_name.startswith("epival."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_transform_reconstruct_conjugates_once(tmp_path, capsys, monkeypatch):
    """f* is taken once, for the reconstruction and the gap; the other
    Legendre transform is the gap's f**. Both go through the public
    functions, which take the f* the command already has."""
    d = GridDomain([-3.5] * 2, [3.5] * 2, [15, 15])
    fin, fout = tmp_path / "f.json", tmp_path / "rec.json"
    write_grid(fin, d, lambda p: np.sum(p**2, axis=1) + 0.3 * p[:, 0])
    calls = {name: _count_calls(monkeypatch, epival.convex, name)
             for name in ("legendre", "reconstruct_from_conjugate", "biconjugate_gap")}
    rc = main(["transform", "--op", "reconstruct", "--R", "1", "--in", str(fin),
               "--out", str(fout)])
    assert rc == 0
    assert {name: len(c) for name, c in calls.items()} == {
        "legendre": 2, "reconstruct_from_conjugate": 1, "biconjugate_gap": 1}
    assert calls["reconstruct_from_conjugate"][0][2] is calls["biconjugate_gap"][0][1]
    capsys.readouterr()
    want = epival.convex.reconstruct_from_conjugate(load_grid_fn(fin), 1.0)
    assert np.array_equal(load_grid_fn(fout).values, want.values)


@pytest.mark.parametrize("samples", [1, 5])
def test_seminorm_extends_each_sample_once(tmp_path, capsys, monkeypatch, samples):
    write_mu1(tmp_path / "mu1.json")
    calls = _count_calls(monkeypatch, epival.convex, "extend_from_subdomain")
    rc = main(["seminorm", "--spec", str(tmp_path / "mu1.json"), "--A-lo=-1.2", "--A-hi",
               "1.2", "--s", "0.2", "--samples", str(samples), "--grid=-2:2:81"])
    assert rc == 0 and len(calls) == samples
    capsys.readouterr()


def test_seminorm_seeded_rerun_byte_identical(tmp_path, capsys):
    write_mu1(tmp_path / "mu1.json")
    outs = []
    for name in ("a.json", "b.json"):
        rc = main(["seminorm", "--spec", str(tmp_path / "mu1.json"),
                   "--A-lo=-1.2", "--A-hi", "1.2", "--s", "0.2",
                   "--samples", "12", "--seed", "7", "--grid=-2:2:81",
                   "--out", str(tmp_path / name)])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    report = json.loads(outs[0].strip())
    assert report["estimate"] >= 2.0 - 1e-9


def test_embed_command(tmp_path, capsys):
    write_mu1(tmp_path / "mu1.json")
    save_polytope(Polytope([[1.0, 0.0], [-1.0, 0.0]]), tmp_path / "seg.json")
    rc = main(["embed", "--spec", str(tmp_path / "mu1.json"),
               "--polytope", str(tmp_path / "seg.json"),
               "--grid=-2:2:129"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["value"] == pytest.approx(2.0, abs=1e-10)


def test_polarize_command(tmp_path, capsys):
    d = GridDomain([-2.0], [2.0], [65])
    write_mu1(tmp_path / "mu1.json")
    write_grid(tmp_path / "f.json", d, lambda p: p[:, 0] ** 2)
    rc = main(["polarize", "--spec", str(tmp_path / "mu1.json"), "--k", "1",
               "--inputs", str(tmp_path / "f.json")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["value"] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("vertices", [
    [[True, "0.5"], [-1.0, 0.0]],
    [[1.0, "0.5"], [-1.0, 0.0]],
    [[1.0, False], [-1.0, 0.0]],
    [[1.0, 0.0], [-1.0]],
    5,
    [1.0, 2.0],
    [[[1.0]]],
])
def test_malformed_polytope_exit2(tmp_path, capsys, vertices):
    write_mu1(tmp_path / "mu1.json")
    dump_json_atomic({"vertices": vertices}, tmp_path / "K.json")
    rc = main(["embed", "--spec", str(tmp_path / "mu1.json"),
               "--polytope", str(tmp_path / "K.json"), "--grid=-2:2:33"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad polytope")


@pytest.mark.parametrize("command", ["gw", "scan", "seminorm", "embed"])
def test_pairing_without_grid_exits_3(tmp_path, capsys, command):
    argv = [a for a in _commands(tmp_path)[command] if not a.startswith("--grid")]
    assert main(argv) == 3
    assert "a grid domain is required" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("option", ["--grid=-1e308:1e308:5", "--grid=-1e307:1e307:5",
                                    "--bump=0:1e300:1e300", "--bump=0:1e-300:1",
                                    "--bump=0:1e-160:1", "--bump=0:1e-100:1"])
def test_overflowing_grid_or_bump_exits_2_with_one_error_line(tmp_path, capsys, option):
    write_mu1(tmp_path / "mu1.json")
    argv = ["gw", "--spec", str(tmp_path / "mu1.json"), "--k", "1", "--grid=-2:2:33", option]
    assert main(argv if "--grid" not in option else argv + ["--bump=0.3:0.7:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad {option.split('=')[0]} value") and err.count("\n") == 1


def test_grid_file_round_trip_rejects_nan(tmp_path):
    d = GridDomain([-1.0], [1.0], [5])
    f = ExtGridFn(d, [np.inf, 1.0, 0.0, 1.0, np.inf])
    p = tmp_path / "f.json"
    save_grid_fn(f, p)
    obj = json.load(open(p))
    assert obj["values"][0] == "inf"
    back = load_grid_fn(p)
    assert np.array_equal(back.values, f.values)
    obj["values"][1] = "nan"
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    from epival import FormatError
    with pytest.raises(FormatError):
        load_grid_fn(tmp_path / "bad.json")
    (tmp_path / "bad2.json").write_text(json.dumps(obj).replace('"nan"', "NaN"))
    with pytest.raises(FormatError):
        load_grid_fn(tmp_path / "bad2.json")


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_grid_file_round_trip_matches_per_value_encoder(tmp_path, data):
    shape = data.draw(st.lists(st.integers(3, 7), min_size=1, max_size=3))
    size = int(np.prod(shape))
    values = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                         min_size=size, max_size=size)))
    inf = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    assume(not inf.all())
    f = ExtGridFn(GridDomain([-1.5] * len(shape), [2.5] * len(shape), shape),
                  np.where(inf, np.inf, values).reshape(shape))
    p = tmp_path / "f.json"
    save_grid_fn(f, p)
    assert p.read_text(encoding="utf-8") == reference_grid_json(f)
    assert np.array_equal(load_grid_fn(p).values, f.values)


# spellings of grid values the reader refuses: a string, literals, a nested
# list, a number beyond the float range, an integer beyond it, NaN
_BAD_VALUES = ['"nan"', '"1.5"', "true", "null", "[1, 2]", '{"a": ","}', "1e999",
               "9" * 400, "NaN", "-Infinity"]


def _spelled_value(data):
    kind = data.draw(st.sampled_from(["float", "int", "exp", "inf", "bad"]))
    if kind == "float":
        return json.dumps(data.draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "int":
        return str(data.draw(st.integers(-10**20, 10**20)))
    if kind == "exp":
        return (data.draw(st.sampled_from(["", "-"])) + str(data.draw(st.integers(0, 999)))
                + data.draw(st.sampled_from(["", ".5", ".0625"]))
                + data.draw(st.sampled_from(["e", "E"])) + data.draw(st.sampled_from(["", "+", "-"]))
                + str(data.draw(st.integers(0, 320))))
    if kind == "inf":
        return '"inf"'
    return data.draw(st.sampled_from(_BAD_VALUES)) if data.draw(st.integers(0, 9)) == 0 else "1.0"


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_streamed_grid_reader_matches_the_whole_text_reader(tmp_path, monkeypatch, data):
    """1D-3D grid files with "inf" cells, integers and exponent forms, random
    whitespace, keys in any order and repeated, and some malformed: the
    reader, in pieces of a few characters or of 2^14, returns the bits the
    whole-text reader returns, and refuses the files it refuses."""
    monkeypatch.setattr(serialize, "_PIECE", data.draw(st.sampled_from([1, 7, 64, 1 << 14])))
    ws = lambda: data.draw(st.sampled_from(["", " ", "\n", "\t ", "\r\n  "]))  # noqa: E731
    shape = data.draw(st.lists(st.integers(3, 5), min_size=1, max_size=3))
    count = int(np.prod(shape)) + data.draw(st.sampled_from([0, 0, 0, 0, -1, 1]))

    def array(items):
        return "[" + ws() + ("," + ws()).join(items) + ws() + "]"

    domain = "{" + ws() + ("," + ws()).join([
        f'"lo"{ws()}:{ws()}' + array(["-1.5"] * len(shape)),
        f'"hi"{ws()}:{ws()}' + array(["2"] * len(shape)),
        f'"shape"{ws()}:{ws()}' + array([str(n) for n in shape])]) + ws() + "}"
    members = [("domain", domain), ("values", array([_spelled_value(data) for _ in range(count)]))]
    extras = data.draw(st.lists(st.sampled_from([
        ("values", array(["1.0", '"a, b]"', "[3, [4]]"])),       # replaced by a later "values"
        ("values", array(["2.5"] * count)),
        ("values", "7"),
        ("domain", '{"lo": [0], "hi": [1], "shape": [3]}'),
        ("note", '"x, y] }"'),
        ("nested", '{"values": [1, 2], "k": [[], {}]}')]), max_size=2))
    members = data.draw(st.permutations(members + extras))
    text = ws() + "{" + ws() + ("," + ws()).join(
        f'"{k}"{ws()}:{ws()}{v}' for k, v in members) + ws() + "}" + ws()
    path = tmp_path / "g.json"
    path.write_text(text, encoding="utf-8")
    try:
        want = whole_text_load_grid_fn(path)
    except FormatError:
        with pytest.raises(FormatError):
            load_grid_fn(path)
        return
    got = load_grid_fn(path)
    assert got.domain.same_as(want.domain)
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("text", [
    "", "[]", "{}", '{"domain": 1', '{"values": [1, 2,], "domain": {}}', '{"values": [1,, 2]}',
    '{"values": [, 1]}', '{"a": 1,}', '{"a" 1}', '{"values": [1, 2]} x', '\ufeff{}',
    '{"values": [1', '{"values": ["inf]}', '{"domain": {"lo": [0], "hi": [1], "shape": [3]}, '
    '"values": [1, 2, 3], "values": [1, "x", 3]}'])
def test_streamed_grid_reader_refuses_malformed_json(tmp_path, monkeypatch, text):
    monkeypatch.setattr(serialize, "_PIECE", 4)
    (tmp_path / "g.json").write_text(text, encoding="utf-8")
    for read in (load_grid_fn, whole_text_load_grid_fn):
        with pytest.raises(FormatError):
            read(tmp_path / "g.json")


def test_grid_reader_takes_under_0_3_mb_on_129_squared(tmp_path):
    """The whole text and one Python float per value took 0.86 MB; the
    float array grown in place and one piece of text take 0.26 MB."""
    d = GridDomain([-2.0] * 2, [2.0] * 2, [129, 129])
    save_grid_fn(sample(d, lambda p: np.sin(3 * p[:, 0]) * np.exp(p[:, 1])), tmp_path / "f.json")
    assert peak_floats(lambda: load_grid_fn(tmp_path / "f.json")) * 8 <= 0.3e6


def _whole_list_json(domain, key, listed):
    """A grid or mask file's text as the writer made it before it streamed:
    one json.dumps of the whole value list."""
    return json.dumps({"domain": serialize._domain_to_dict(domain), key: listed},
                      sort_keys=True)


# 1D to 3D grids of 27 cells, and one of the 1024 cells of a default chunk
_WRITER_SHAPES = [(27,), (3, 9), (3, 3, 3), (1024,)]


@pytest.mark.parametrize("shape", _WRITER_SHAPES)
@pytest.mark.parametrize("offset", [-1, 0, 1, None])  # the chunk is the size plus it
def test_grid_writer_streams_the_bytes_of_the_whole_list(tmp_path, monkeypatch, shape, offset):
    """save_grid_fn's file is the whole list's json.dumps for grids one below
    (offset 1), at (0) and one above (-1) a chunk boundary, and at the
    default chunk size (None), +inf cells included."""
    size = int(np.prod(shape))
    if offset is not None:
        monkeypatch.setattr(serialize, "_CHUNK", size + offset)
    rng = np.random.default_rng(size)
    values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)
    values[rng.random(size) < 0.3] = np.inf
    values[[0, -1]] = [np.inf, -0.0]        # +inf at a chunk's first cell
    f = ExtGridFn(GridDomain([-1.5] * len(shape), [2.5] * len(shape), shape), values)
    listed = f.values.ravel().tolist()
    for i in np.flatnonzero(f.values.ravel() == np.inf):
        listed[i] = "inf"
    save_grid_fn(f, tmp_path / "f.json")
    assert (tmp_path / "f.json").read_text(encoding="utf-8") == \
        _whole_list_json(f.domain, "values", listed)
    assert np.array_equal(load_grid_fn(tmp_path / "f.json").values, f.values)


@pytest.mark.parametrize("shape", _WRITER_SHAPES)
@pytest.mark.parametrize("offset", [-1, 0, 1, None])
def test_mask_writer_streams_the_bytes_of_the_whole_list(tmp_path, monkeypatch, shape, offset):
    size = int(np.prod(shape))
    if offset is not None:
        monkeypatch.setattr(serialize, "_CHUNK", size + offset)
    mask = ScanMask(GridDomain([-1.0] * len(shape), [1.0] * len(shape), shape),
                    np.random.default_rng(size).random(shape) < 0.5)
    save_mask(mask, tmp_path / "m.json")
    assert (tmp_path / "m.json").read_text(encoding="utf-8") == \
        _whole_list_json(mask.domain, "marked", [int(v) for v in mask.marked.ravel()])
    assert np.array_equal(load_mask(tmp_path / "m.json").marked, mask.marked)


def test_grid_writer_takes_under_1_mb_on_257_squared(tmp_path):
    """The whole list of a 257^2 grid took 7.0 MB; chunks take 0.17 MB."""
    d = GridDomain([-2.0] * 2, [2.0] * 2, [257, 257])
    f = sample(d, lambda p: np.where(p[:, 0] > 1.5, np.inf, np.sum(p**2, axis=1)))
    mask = ScanMask(d, np.isinf(f.values))
    assert peak_floats(lambda: save_grid_fn(f, tmp_path / "f.json")) * 8 < 1e6
    assert peak_floats(lambda: save_mask(mask, tmp_path / "m.json")) * 8 < 1e6


def test_gw_with_grid_file_test_function(tmp_path, capsys):
    d = GridDomain([-2.0], [2.0], [129])
    write_mu1(tmp_path / "mu1.json")
    save_grid_fn(Bump([0.3], 0.7, 1.0).sample(d), tmp_path / "t.json")
    rc = main(["gw", "--spec", str(tmp_path / "mu1.json"), "--k", "1",
               "--test", str(tmp_path / "t.json"), "--grid=-2:2:129"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip())
    want = float(np.array([1.0, 1.0, -2.0])
                 @ Bump([0.3], 0.7, 1.0).value(np.array([[1.0], [-1.0], [0.0]])))
    assert report["value"] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("command", ["scan", "transform", "decompose", "gw"])
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    d = GridDomain([-2.0], [2.0], [65])
    write_mu1(tmp_path / "mu1.json")
    write_grid(tmp_path / "f.json", d, lambda p: p[:, 0] ** 2)
    before = sorted(os.listdir(tmp_path))
    out = str(tmp_path / "nodir" / "out.json")
    spec = ["--spec", str(tmp_path / "mu1.json")]
    argv = {
        "scan": ["scan", *spec, "--k", "1", "--probe-radius", "0.3", "--grid=-2:2:65"],
        "transform": ["transform", "--op", "legendre", "--in", str(tmp_path / "f.json")],
        "decompose": ["decompose", *spec, "--in", str(tmp_path / "f.json")],
        "gw": ["gw", *spec, "--k", "1", "--bump=0.2:0.5:1", "--grid=-2:2:65"],
    }[command]

    def no_work(*args, **kwargs):
        raise AssertionError("inputs read before the output path was checked")

    monkeypatch.setattr(serialize, "load_valuation_spec", no_work)
    monkeypatch.setattr(serialize, "load_grid_fn", no_work)
    assert main(argv + ["--out", out]) == 2
    assert "nodir" in capsys.readouterr().err
    assert main(argv + ["--out", str(tmp_path)]) == 2  # a directory
    assert sorted(os.listdir(tmp_path)) == before


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, epival.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(epival.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _blas_threads(env):
    """OpenBLAS thread counts of a child that has imported epival.cli."""
    out = subprocess.run([sys.executable, "-c", "import epival.cli\n" + BLAS_THREADS], env=env,
                         capture_output=True, text=True, check=True).stdout
    threads = ast.literal_eval(out.strip())
    if not threads:
        pytest.skip("numpy is not linked against OpenBLAS")
    return threads


def test_cli_import_starts_openblas_with_one_thread():
    assert _blas_threads(child_env()) == [1]


@pytest.mark.skipif(os.cpu_count() < 2, reason="OpenBLAS caps its pool at the core count")
def test_cli_keeps_a_thread_count_set_in_the_environment():
    assert _blas_threads(child_env(OPENBLAS_NUM_THREADS="2")) == [2]


@pytest.mark.parametrize("command", ["embed", "seminorm"])
def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    """embed reads the support function through a matmul; this seminorm's
    pairing nodes lie outside the source box, so it builds the qhull lower
    hull and takes _pairing_max's matmuls."""
    dump_json_atomic({"kind": "pairing", "nodes": [[1.8], [0.2], [1.0]],
                      "weights": [1.0, 1.0, -2.0]}, tmp_path / "mu.json")
    save_polytope(Polytope([[1.0, 0.0], [-1.0, 0.5], [0.2, -0.3]]), tmp_path / "K.json")
    argv = {"embed": ["embed", "--spec", "mu.json", "--polytope", "K.json", "--grid=-2:2:129"],
            "seminorm": ["seminorm", "--spec", "mu.json", "--A-lo=-1.2", "--A-hi", "1.2",
                         "--s", "0.2", "--samples", "6", "--grid=-2:2:81"]}[command]
    outs = [subprocess.run([sys.executable, "-m", "epival.cli", *argv], cwd=tmp_path,
                           env=child_env(OPENBLAS_NUM_THREADS=t), capture_output=True,
                           check=True).stdout for t in ("1", "2")]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["command"] == command


@pytest.mark.parametrize("command", ["scan", "gw", "decompose"])
def test_child_process_output_matches_in_process_main(tmp_path, capsys, command):
    """A child started as perfbench starts one (its imports frozen out of
    the collector) writes the report and output file an in-process main()
    writes, byte for byte."""
    argv = _commands(tmp_path)[command]
    assert main(argv) == 0
    out = tmp_path / "out.data"
    want = (capsys.readouterr().out.encode(), out.read_bytes())
    out.unlink()
    child = subprocess.run([sys.executable, "-c", "import sys; from epival.cli import main; "
                            "sys.exit(main())", *argv], env=child_env(), capture_output=True,
                           check=True)
    assert (child.stdout, out.read_bytes()) == want


# a child that caps its own address space at 1.5 GB, then runs the CLI
_CAPPED_MAIN = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))\n"
                "from epival.cli import main\nsys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("command, grid", [
    ("gw", "--grid=-2:2:10000000000"),  # 75 GiB of grid points
    ("scan", "--grid=-2:2:400000000"),  # 3 GiB
    ("seminorm", "--grid=-2:2:10000000000"),
    ("embed", "--grid=-2:2:10000000000"),
    ("transform", "--grid=-5:5:1000000000"),  # a 7.5 GiB dual grid, covering the slopes
])
def test_a_grid_too_large_for_memory_exits_3(tmp_path, command, grid):
    argv = [a for a in _commands(tmp_path)[command] if not a.startswith("--grid")] + [grid]
    if command == "transform":
        argv = ["transform", "--op", "legendre", "--in", str(tmp_path / "f.json"),
                "--out", str(tmp_path / "out.data"), grid]
    _assert_capped_run_fails(tmp_path, argv, 3)


@pytest.mark.parametrize("command", ["transform", "seminorm"])
def test_a_grid_over_the_cell_budget_is_refused_before_the_command_runs(tmp_path, command):
    """A 20000^2 grid, 4e8 cells, is over the budget of 2^27: refused with
    one error line naming the budget, before any warning or allocation."""
    write_grid(tmp_path / "f2.json", GridDomain([-2.0, -2.0], [2.0, 2.0], [9, 9]),
               lambda p: np.sum(p * p, axis=1))
    dump_json_atomic({"kind": "pairing", "nodes": [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]],
                      "weights": [1.0, 1.0, -2.0]}, tmp_path / "mu2.json")
    grid, out = "--grid=-5,-5:5,5:20000,20000", ["--out", str(tmp_path / "out.data")]
    argv = {"transform": ["transform", "--op", "legendre", "--in", str(tmp_path / "f2.json")],
            "seminorm": ["seminorm", "--spec", str(tmp_path / "mu2.json"), "--A-lo=-1,-1",
                         "--A-hi", "1,1", "--s", "0.2"]}[command]
    stderr = _assert_capped_run_fails(tmp_path, argv + out + [grid], 3)
    assert f"the work budget of {epival.gw._MAX_CORNER_VALUES} cells" in stderr


def _assert_capped_run_fails(tmp_path, argv, code):
    """The CLI, capped at 1.5 GB, exits `code` with one error line and
    writes no output; the error line is returned."""
    run = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *argv], env=child_env(),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == code
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr
    assert not (tmp_path / "out.data").exists()
    return run.stderr


@pytest.mark.parametrize("diagonality", [[], ["--diagonality"]])
def test_gw_refuses_a_grid_too_large_before_sampling_its_tests(tmp_path, capsys, monkeypatch,
                                                               diagonality):
    """One test on 2^28 cells exceeds the corner budget of 2^27 values: gw
    exits 3 before it samples the test on the grid."""
    def no_samples(*args, **kwargs):
        raise AssertionError("a test was sampled")

    monkeypatch.setattr(epival.gw, "_test_function", no_samples)
    write_mu1(tmp_path / "mu1.json")
    argv = ["gw", "--spec", str(tmp_path / "mu1.json"), "--k", "1", "--bump=0.3:0.7:1",
            f"--grid=-2:2:{1 << 28}"]
    assert main(argv + diagonality) == 3
    assert "work budget" in capsys.readouterr().err


def test_a_grid_file_declaring_a_huge_shape_exits_2(tmp_path):
    # 10^10 cells declared, 9 values held: refused before any allocation
    (tmp_path / "big.json").write_text(json.dumps(
        {"domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "shape": [100000, 100000]},
         "values": [0.0] * 9}))
    _assert_capped_run_fails(tmp_path, [
        "transform", "--op", "legendre", "--in", str(tmp_path / "big.json"),
        "--out", str(tmp_path / "out.data")], 2)


def test_a_huge_scan_order_exits_3(tmp_path):
    _assert_capped_run_fails(tmp_path, _commands(tmp_path)["scan"] + ["--k", "1000"], 3)


@pytest.mark.parametrize("command", ["polarize", "gw", "scan"])
def test_an_order_above_the_cap_exits_3_before_building_corners(tmp_path, capsys, monkeypatch,
                                                               command):
    def no_corners(*args, **kwargs):
        raise AssertionError("corners were built")

    monkeypatch.setattr(epival.gw, "_corners", no_corners)
    commands, cap = _commands(tmp_path), epival.gw._MAX_ORDER

    def argv(k):  # k tests or inputs where the command takes them
        extra = {"polarize": ["--inputs"] + [str(tmp_path / "f.json")] * k,
                 "gw": ["--bump=0.3:0.7:1"] * (k - 1), "scan": []}[command]
        return commands[command] + ["--k", str(k)] + extra

    with pytest.raises(AssertionError, match="corners were built"):
        main(argv(cap))
    capsys.readouterr()
    assert main(argv(cap + 1)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: k must be at most {cap}\n"
    assert not (tmp_path / "out.data").exists()


@pytest.mark.parametrize("command", ["polarize", "gw", "scan"])
def test_corners_over_the_work_budget_exit_3_before_they_are_built(tmp_path, capsys,
                                                                  monkeypatch, command):
    """k = 16 distinct tests, or a k = 16 scan on whole-grid windows, on a
    line of n cells: 2^16 or 2^17 corner rows of n cells, and for a scan
    32 rows for each of n probes. n = 33 is within the budget; n = 4097 is
    over it and is refused with one error line."""
    def no_corners(*args, **kwargs):
        raise AssertionError("corners were built")

    monkeypatch.setattr(epival.gw, "_corners", no_corners)
    commands = _commands(tmp_path)

    def argv(n):
        grid = f"--grid=-2:2:{n}"
        if command == "polarize":
            paths = [str(tmp_path / f"f{n}-{i}.json") for i in range(16)]
            for i, path in enumerate(paths):
                write_grid(path, GridDomain([-2.0], [2.0], [n]), lambda p: (i + 1) * p[:, 0] ** 2)
            extra = ["--inputs", *paths]
        elif command == "gw":
            extra = [grid] + [f"--bump={-1.5 + 0.2 * i!r}:0.3:1" for i in range(15)]  # and 0.3:0.7:1
        else:
            extra = [grid, "--probe-radius", "10"]
        return commands[command] + ["--k", "16"] + extra

    with pytest.raises(AssertionError, match="corners were built"):
        main(argv(33))
    capsys.readouterr()
    assert main(argv(4097)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "work budget" in err and err.count("\n") == 1
    assert not (tmp_path / "out.data").exists()


GRID_1D ={"domain": {"lo": [-1.0], "hi": [1.0], "shape": [5]},
           "values": [1.0, 0.25, 0.0, 0.25, 1.0]}


@pytest.mark.parametrize("field, value", [
    ("values", [True, 0.25, 0.0, 0.25, 1.0]),
    ("values", 5),
    ("shape", [5.7]),
    ("shape", [5.0]),
    ("lo", [False]),
    ("values", [1.0, 10**400, 0.0, 0.25, 1.0]),  # beyond the float range
    ("lo", [-10**400]),
    # domains GridDomain refuses
    ("lo", [2.0]),
    ("shape", []),
    ("shape", [2]),
])
def test_malformed_grid_file_exit2(tmp_path, capsys, field, value):
    obj = json.loads(json.dumps(GRID_1D))
    (obj if field == "values" else obj["domain"])[field] = value
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    rc = main(["transform", "--op", "legendre", "--in", str(fin), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == ["f.json"]
    if field != "values":  # the mask reader reads domains the same way
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"domain": obj["domain"], "marked": [0] * 5}))
        with pytest.raises(epival.FormatError):
            load_mask(mask)


def test_readers_refuse_a_shape_whose_cell_count_overflows(tmp_path):
    # 2^32 * 2^32 cells wrap to 0 in int64, which an empty list would match
    domain = {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "shape": [2**32, 2**32]}
    for name, read, field in (("f.json", load_grid_fn, "values"),
                              ("mask.json", load_mask, "marked")):
        (tmp_path / name).write_text(json.dumps({"domain": domain, field: []}))
        with pytest.raises(epival.FormatError, match="match"):
            read(tmp_path / name)


def test_no_command_takes_unchecked(tmp_path, capsys):
    # a pairing's weight conditions are always checked
    for argv in _commands(tmp_path).values():
        assert _exit_code(argv + ["--unchecked"]) == 2
        assert "--unchecked" in capsys.readouterr().err


@pytest.mark.parametrize("nodes, scipy_loaded", [
    ([[1.0], [-1.0], [0.0]], False),   # every read cell in the source box [-1.4, 1.4]
    ([[1.8], [0.2], [1.0]], True),     # a node outside it: the hull runs
])
def test_seminorm_loads_scipy_only_for_reads_outside_the_box(tmp_path, nodes, scipy_loaded):
    dump_json_atomic({"kind": "pairing", "nodes": nodes, "weights": [1.0, 1.0, -2.0]},
                     tmp_path / "mu.json")
    argv = ["seminorm", "--spec", str(tmp_path / "mu.json"), "--A-lo=-1.2",
            "--A-hi", "1.2", "--s", "0.2", "--samples", "4", "--grid=-2:2:81"]
    code = ("import sys\nfrom epival.cli import main\n"
            f"rc = main({argv!r})\nprint(rc, 'scipy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(epival.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == f"0 {scipy_loaded}"


def test_scan_loads_no_scipy(tmp_path):
    # a scan correlates with numpy slice sums: scipy.ndimage alone takes
    # longer to import than a whole scan
    d = GridDomain([-2.0, -2.0], [2.0, 2.0], [33, 33])
    save_grid_fn(Bump([0.0, 0.0], 1.2, 1.0).sample(d), tmp_path / "w.json")
    dump_json_atomic({"kind": "hessian", "k": 2, "weight": "w.json", "aux": []},
                     tmp_path / "hess.json")
    write_mu1(tmp_path / "mu1.json")
    runs = [["scan", "--spec", str(tmp_path / "hess.json"), "--k", "2", "--probe-radius", "0.3",
             "--out", str(tmp_path / "hess.mask")],
            ["scan", "--spec", str(tmp_path / "mu1.json"), "--k", "1", "--probe-radius", "0.3",
             "--grid=-2:2:33", "--out", str(tmp_path / "mu1.mask")]]
    for argv in runs:
        code = ("import sys\nfrom epival.cli import main\n"
                f"rc = main({argv!r})\nprint(rc, 'scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == "0 False"


def _commands_loading(tmp_path, module):
    """The commands after which `module` is loaded, all run in order in one
    child."""
    code = ("import sys\nfrom epival.cli import main\nloaded = []\n"
            f"for name, argv in {_commands(tmp_path)!r}.items():\n"
            "    assert main(argv) == 0, name\n"
            f"    if {module!r} in sys.modules:\n"
            "        loaded.append(name)\n"
            "print(loaded)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                         text=True, check=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_no_command_loads_numpy_random(tmp_path):
    # numpy.random brings secrets, hmac and OpenSSL, about 5.5 MB of RSS
    assert _commands_loading(tmp_path, "numpy.random") == []


def test_no_command_loads_dataclasses(tmp_path):
    # it exec-compiles the methods of every class it decorates at import
    assert _commands_loading(tmp_path, "dataclasses") == []


def test_import_of_the_cli_leaves_at_most_half_a_megabyte_traced():
    """What `import epival.cli` adds to a process that already holds numpy,
    argparse and json: epival's modules, their value types and functions."""
    code = ("import argparse, json, tracemalloc\nimport numpy\ntracemalloc.start()\n"
            "import epival.cli\nprint(tracemalloc.get_traced_memory()[0])")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                         text=True, check=True).stdout
    assert int(out) <= 0.5 * 2**20


def _run(argv, capsys):
    """main's exit code, stdout and stderr, whether it returns or argparse exits."""
    code = _exit_code(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_one_subcommand_parser_prints_what_all_seven_print(tmp_path, capsys, monkeypatch):
    """A command names its subcommand first, and only that subcommand's
    parser is built; the CLI prints the same bytes and exits with the same
    code as with all seven built, on runs, help and parse errors."""
    commands = _commands(tmp_path)
    corpus = [["-h"], [], ["frobnicate"], ["frobnicate", "--k", "1"]]
    for name, argv in commands.items():
        corpus += [argv, [name, "-h"], argv + ["--frobnicate"], [name],
                   [name, "--spec", str(tmp_path / "mu1.json")], argv + ["extra"]]
    one = [_run(argv, capsys) for argv in corpus]
    every = epival.cli.build_parser
    monkeypatch.setattr(epival.cli, "build_parser", lambda command=None: every())
    assert [_run(argv, capsys) for argv in corpus] == one
    codes = [code for code, _, _ in one]
    assert codes.count(0) == len(commands) + 8 and set(codes) == {0, 2}


@pytest.mark.parametrize("marked", [[0.5, 1, 1, 1, 0], [0, 1, True, 1, 0],
                                    [0, 1.0, 1, 1, 0], [0, 2, 1, 1, 0]])
def test_mask_reader_takes_only_the_integers_0_and_1(tmp_path, marked):
    path = tmp_path / "mask.json"
    path.write_text(json.dumps({"domain": GRID_1D["domain"], "marked": marked}))
    with pytest.raises(epival.FormatError):
        load_mask(path)
    path.write_text(json.dumps({"domain": GRID_1D["domain"], "marked": [0, 1, 1, 1, 0]}))
    assert load_mask(path).marked.tolist() == [False, True, True, True, False]


def _exit_code(argv):
    """main's exit code, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _commands(tmp_path):
    """A small run of every subcommand, each with --out where it takes one."""
    write_mu1(tmp_path / "mu1.json")
    write_grid(tmp_path / "f.json", GridDomain([-2.0], [2.0], [33]), lambda p: p[:, 0] ** 2)
    save_polytope(Polytope([[1.0, 0.0], [-1.0, 0.0]]), tmp_path / "seg.json")
    spec = ["--spec", str(tmp_path / "mu1.json")]
    f, out = str(tmp_path / "f.json"), ["--out", str(tmp_path / "out.data")]
    return {
        "transform": ["transform", "--op", "reg", "--r", "1.0", "--in", f, *out],
        "decompose": ["decompose", *spec, "--in", f, *out],
        "polarize": ["polarize", *spec, "--k", "1", "--inputs", f, *out],
        "gw": ["gw", *spec, "--k", "1", "--bump=0.3:0.7:1", "--grid=-2:2:65", *out],
        "scan": ["scan", *spec, "--k", "1", "--probe-radius", "0.3", "--grid=-2:2:33",
                 *out],
        "seminorm": ["seminorm", *spec, "--A-lo=-1.2", "--A-hi", "1.2", "--s", "0.2",
                     "--samples", "4", "--seed", "7", "--grid=-2:2:41", *out],
        "embed": ["embed", *spec, "--polytope", str(tmp_path / "seg.json"),
                  "--grid=-2:2:129"],
    }


REPORT_OUT = {"polarize", "gw", "seminorm"}


@pytest.mark.parametrize("command", ["transform", "scan", "decompose", "gw"])
def test_outputs_take_the_umask_permissions(tmp_path, capsys, command):
    """A grid, a mask, a CSV and a report file are created as open(path, "w")
    creates them: 0o666 less the umask."""
    argv = _commands(tmp_path)[command]
    old = os.umask(0o022)
    try:
        assert main(argv) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert os.stat(tmp_path / "out.data").st_mode & 0o777 == 0o644
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


@pytest.mark.parametrize("command", ["transform", "decompose", "polarize", "gw",
                                     "scan", "seminorm", "embed"])
def test_config_echoes_every_parsed_option(tmp_path, capsys, command):
    assert main(_commands(tmp_path)[command]) == 0
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    options = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"
               and not (command in REPORT_OUT and "--out" in a.option_strings)}
    assert report["command"] == command
    assert set(report["config"]) == options
    if command in REPORT_OUT:  # the --out file is the report itself
        assert (tmp_path / "out.data").read_text() + "\n" == stdout


@pytest.mark.parametrize("command", ["transform", "decompose", "polarize", "gw",
                                     "scan", "embed"])
def test_seed_only_where_it_seeds(tmp_path, capsys, command):
    assert _exit_code(_commands(tmp_path)[command] + ["--seed", "3"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_seminorm_echoes_its_seed(tmp_path, capsys):
    assert main(_commands(tmp_path)["seminorm"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["seed"] == report["seed"] == 7


@pytest.mark.parametrize("command, option, value", [
    ("seminorm", "--A-lo", "abc"),
    ("seminorm", "--A-lo", "-1.2,nan"),
    ("seminorm", "--A-hi", "inf"),
    ("seminorm", "--s", "nan"),
    ("scan", "--tol", "nan"),
    ("scan", "--probe-radius", "inf"),
    ("transform", "--r", "-inf"),
    ("transform", "--r", "one"),
    ("gw", "--bump", "nan:0.7:1"),
    ("gw", "--bump", "0.3:inf:1"),
    ("gw", "--bump", "0.3:0.7:-inf"),
])
def test_non_finite_numbers_exit_2_and_write_nothing(tmp_path, capsys, command, option,
                                                     value):
    argv = _commands(tmp_path)[command] + [f"{option}={value}"]
    before = sorted(os.listdir(tmp_path))
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_gw_test_whose_curvature_overflows_exits_3_with_one_line(tmp_path, capsys):
    # its step would be 0; refused without a numpy warning
    write_mu1(tmp_path / "mu1.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["gw", "--spec", str(tmp_path / "mu1.json"), "--k", "1",
                   "--grid=-2:2:33", "--bump=0:0.5:1e308"])
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "curvature" in err


def test_gw_bump_of_another_dimension_exits_3(tmp_path, capsys):
    d = GridDomain([-2.0, -2.0], [2.0, 2.0], [17, 17])
    save_grid_fn(Bump([0.0, 0.0], 1.2, 1.0).sample(d), tmp_path / "w.json")
    dump_json_atomic({"kind": "hessian", "k": 2, "weight": "w.json", "aux": []},
                     tmp_path / "hess.json")
    rc = main(["gw", "--spec", str(tmp_path / "hess.json"), "--k", "2",
               "--bump=0.5:0.4:1", "--bump=-0.5:0.4:1"])
    assert rc == 3
    assert "dimension" in capsys.readouterr().err


def _small_grid(text):
    """False for a --grid value naming more than 200 samples on an axis, which
    the fuzz test skips to keep its runs small."""
    parts = text.split(":")
    for item in parts[-1].split(",") if len(parts) == 3 else ():
        try:
            if int(item) > 200:
                return False
        except ValueError:
            pass
    return True


_NUMBER = st.one_of(st.integers(-3, 3).map(str), st.floats(-3, 3).map(repr),
                    st.floats().map(repr), st.text(max_size=4))
_VECTOR = st.lists(_NUMBER, min_size=1, max_size=3).map(",".join)
_FIELDS = st.lists(_VECTOR, min_size=1, max_size=4).map(":".join)
# three fields of one length, as a grid or a bump of any dimension has; the
# last is a grid's shape, so it favours sample counts
_TRIPLE = st.integers(1, 3).flatmap(lambda n: st.tuples(*[
    st.lists(x, min_size=n, max_size=n).map(",".join)
    for x in (_NUMBER, _NUMBER, st.one_of(st.integers(-1, 40).map(str), _NUMBER))
])).map(":".join)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on inputs like 1e308
@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(option="--grid", text="-2:2:33")
@example(option="--grid", text="-1e308:1e308:5")
@example(option="--grid", text="-1e307:1e307:5")   # squared coordinates overflow
@example(option="--bump", text="0:1e300:1e300")   # radius**2 overflows
@example(option="--bump", text="0:1e-300:1")
@example(option="--A-lo", text="2")               # past A_hi
@given(option=st.sampled_from(["--grid", "--bump", "--A-lo"]),
       text=st.one_of(st.text(max_size=30), _VECTOR, _FIELDS, _TRIPLE))
def test_text_options_exit_0_2_or_3(tmp_path, capsys, option, text):
    assume(option != "--grid" or _small_grid(text))
    argv = _commands(tmp_path)["seminorm"]
    if option != "--A-lo":
        argv = ["gw", "--spec", str(tmp_path / "mu1.json"), "--k", "1", "--grid=-2:2:33",
                *(["--bump=0.3:0.7:1"] if option == "--grid" else [])]
    assert _exit_code(argv + [f"{option}={text}"]) in (0, 2, 3)
    capsys.readouterr()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_option=st.sampled_from([("polarize", "--k"), ("gw", "--k"), ("scan", "--k"),
                                       ("seminorm", "--samples"),
                                       ("seminorm", "--seed")]),
       value=st.integers(-3, 6))
def test_integer_options_exit_0_2_or_3(tmp_path, capsys, command_option, value):
    command, option = command_option
    assert _exit_code(_commands(tmp_path)[command] + [f"{option}={value}"]) in (0, 2, 3)
    capsys.readouterr()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


# ------------------------------------------------------------- reader fuzz

# JSON values; file names never hold a path separator, so a spec's
# references stay inside the test directory
_NAME = st.text(st.characters(blacklist_characters="/\\"), max_size=6)
_NUM = st.one_of(st.integers(-4, 40), st.floats(-1e3, 1e3), st.floats(),
                st.sampled_from([10**400, 2**63, 1e308, -1e308]))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUM, _NAME,
              st.sampled_from(["inf", "mu1.json", "w.json", "spec.json", "pairing",
                               "hessian", "constant", "composite"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_NAME, inner, max_size=3)),
    max_leaves=10)
_DROP = object()

GRID_2D = {"domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "shape": [3, 3]},
           "values": [2.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 2.0]}
FILES = {
    "grid": [GRID_1D, GRID_2D],
    "polytope": [{"vertices": [[1.0, 0.0], [-1.0, 0.0]]}, {"vertices": [[0.5, 1.0]]}],
    "spec": [{"kind": "pairing", "nodes": NODES, "weights": [1.0, 1.0, -2.0]},
             {"kind": "hessian", "k": 1, "weight": "w.json", "aux": []},
             {"kind": "constant", "value": 1.5},
             {"kind": "composite", "terms": [[1.0, "mu1.json"], [0.5, "c.json"]]}],
    "mask": [{"domain": GRID_1D["domain"], "marked": [0, 1, 1, 1, 0]}],
}


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutated(data, obj):
    """obj with one or two values replaced, mostly by numbers, or dropped."""
    obj = copy.deepcopy(obj)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(obj))))
        value = data.draw(st.one_of(st.just(_DROP), _NUM, st.lists(_NUM, max_size=4),
                                    _JSON))
        if not path:
            obj = {} if value is _DROP else value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return obj


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on inputs like 1e308
@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
@pytest.mark.parametrize("kind", sorted(FILES))
def test_malformed_files_exit_0_2_or_3(tmp_path, capsys, kind, data):
    """Each reader, through the CLI (or load_mask directly), on valid files
    with random JSON put in or cut out: exit 0, 2 or 3 and never a
    traceback, and a failed command leaves no output or temporary file."""
    write_mu1(tmp_path / "mu1.json")
    dump_json_atomic({"kind": "constant", "value": 2.0}, tmp_path / "c.json")
    d = GridDomain([-2.0], [2.0], [33])
    save_grid_fn(Bump([0.0], 1.2, 1.0).sample(d), tmp_path / "w.json")
    write_grid(tmp_path / "f.json", d, lambda p: p[:, 0] ** 2)
    if data.draw(st.integers(0, 4)):
        obj = _mutated(data, data.draw(st.sampled_from(FILES[kind])))
    else:
        obj = data.draw(_JSON)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(obj))
    if kind == "mask":
        try:
            load_mask(path)
        except epival.FormatError:
            pass
        return
    out = tmp_path / "out.data"
    spec = ["--spec", str(tmp_path / "mu1.json")]
    op = data.draw(st.sampled_from(["legendre", "reg"]))
    argv = {
        "grid": ["transform", "--op", op, *(["--r", "0.5"] if op == "reg" else []),
                 "--in", str(path), "--out", str(out)],
        "polytope": ["embed", *spec, "--polytope", str(path), "--grid=-2:2:33"],
        "spec": ["decompose", "--spec", str(path), "--in", str(tmp_path / "f.json"),
                 "--out", str(out)],
    }[kind]
    rc = _exit_code(argv)
    capsys.readouterr()
    assert rc in (0, 2, 3)
    assert rc == 0 or not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    if out.exists():
        out.unlink()


def test_every_traced_function_exists():
    """perfbench/traced_cli.py skips a TRACED function the package lacks, so
    its per-layer metrics would read 0 rather than fail; read the list
    without importing the harness and look each name up."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "traced_cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"])
    for module, names in traced.items():
        home = importlib.import_module(f"epival.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"epival.{module}.{name}"
