import json
import os
import subprocess
import sys

import numpy as np
import pytest

import epival
from epival import serialize
from epival import Bump, ExtGridFn, GridDomain, Polytope
from epival.cli import main
from epival.serialize import (
    dump_json_atomic,
    load_grid_fn,
    load_mask,
    save_grid_fn,
    save_polytope,
)

from helpers import sample


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


NODES = [[1.0], [-1.0], [0.0]]


@pytest.mark.parametrize("spec", [
    {"kind": "pairing", "nodes": NODES, "weights": "x"},
    {"kind": "pairing", "nodes": NODES, "weights": [1.0, None, -2.0]},
    {"kind": "pairing", "nodes": [[1.0], "x", [0.0]], "weights": [1.0, 1.0, -2.0]},
    {"kind": "constant", "value": "x"},
    {"kind": "hessian", "k": "two", "weight": "w.json"},
    {"kind": "composite", "terms": [["x", "mu1.json"]]},
])
def test_malformed_spec_field_exit2(tmp_path, capsys, spec):
    write_mu1(tmp_path / "mu1.json")
    save_grid_fn(ExtGridFn(GridDomain([-2.0], [2.0], [33]), np.zeros(33)),
                 tmp_path / "w.json")
    dump_json_atomic(spec, tmp_path / "spec.json")
    rc, err = _decompose_rc(tmp_path, capsys, tmp_path / "spec.json")
    assert rc == 2
    assert err.startswith("error: ")


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


GRID_1D = {"domain": {"lo": [-1.0], "hi": [1.0], "shape": [5]},
           "values": [1.0, 0.25, 0.0, 0.25, 1.0]}


@pytest.mark.parametrize("field, value", [
    ("values", [True, 0.25, 0.0, 0.25, 1.0]),
    ("values", 5),
    ("shape", [5.7]),
    ("shape", [5.0]),
    ("lo", [False]),
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


def test_transform_takes_no_unchecked(tmp_path, capsys):
    fin = tmp_path / "f.json"
    fin.write_text(json.dumps(GRID_1D))
    argv = ["transform", "--op", "legendre", "--in", str(fin),
            "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--unchecked"])
    assert exc.value.code == 2
    assert "--unchecked" in capsys.readouterr().err
    assert main(argv + ["--seed", "3"]) == 0


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
