import ast
import os
import subprocess
import sys

import numpy as np
import pytest

import epival
from epival import (Bump, Composite, Constant, ExtGridFn, GWQuery, GridDomain, HessianDensity,
                    PairingMeasure, Polytope, ScanMask, homogeneous_decompose)

from helpers import child_env


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from epival import *", ns)
    assert set(epival.__all__) <= set(ns)
    assert ns["legendre"] is sys.modules["epival.convex"].legendre
    assert ns["GridDomain"] is sys.modules["epival.grids"].GridDomain


def test_dir_lists_every_public_name():
    names = dir(epival)
    assert set(epival.__all__) <= set(names)
    assert "__version__" in names


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        epival.no_such_name
    assert not hasattr(epival, "sys")


def test_submodules_import_as_before():
    from epival import convex
    assert convex is sys.modules["epival.convex"]
    assert epival.gw is sys.modules["epival.gw"]


def test_import_has_no_side_effects():
    """A bare `import epival` touches no environment variable and loads no
    numpy; a submodule reached as an attribute is imported on demand."""
    code = ("import os, sys\nbefore = dict(os.environ)\nimport epival\n"
            "print(dict(os.environ) == before, 'numpy' in sys.modules)\n"
            "print(epival.gw.__name__, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["True False", "epival.gw True"]


@pytest.mark.parametrize("modules, frozen", [
    (["epival.cli"], True),
    (["epival", "epival.convex", "epival.grids", "epival.gw", "epival.valuations",
      "epival.serialize"], False),
])
def test_only_the_cli_freezes_the_import_heap(modules, frozen):
    """The CLI moves its imports' objects out of the collector's reach, for
    a short process that never frees them; the library leaves the collector
    as it found it."""
    code = ("import gc, importlib, sys\nfor name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\nprint(gc.get_freeze_count())")
    out = subprocess.run([sys.executable, "-c", code, *modules], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert (int(out) > 0) == frozen


def test_no_module_imports_a_name_it_does_not_use():
    package = os.path.dirname(epival.__file__)
    unused = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{node.lineno} {bound}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for bound in ((a.asname or a.name).split(".")[0] for a in node.names)
                   if bound not in read]
    assert unused == []


def test_value_types_refuse_assignment_and_deletion():
    d = GridDomain([-2.0], [2.0], [9])
    f = ExtGridFn(d, d.points()[:, 0] ** 2)
    pairing = PairingMeasure([[1.0], [-1.0], [0.0]], [1.0, 1.0, -2.0])
    values = [d, f, Polytope([[1.0, 0.0]]), Bump([0.0], 0.5), ScanMask(d, np.zeros(9)),
              pairing, HessianDensity(1, ExtGridFn(d, [0, 0, 0, 1, 1, 1, 0, 0, 0])),
              Constant(1.0), Composite([(1.0, pairing)]), homogeneous_decompose(pairing, f),
              GWQuery(1, [Bump([0.0], 0.5)])]
    assert len({type(v) for v in values}) == 11
    for value in values:
        before = dict(vars(value))
        for name in [*before, "other"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert before and vars(value).keys() == before.keys()
        assert all(vars(value)[name] is held for name, held in before.items())
