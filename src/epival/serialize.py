"""JSON file formats for grid functions, polytopes, masks and valuation specs.

Grid values are stored row-major (last axis fastest) with the string "inf"
for the extended value. Readers reject NaN and any non-finite numeric
literal; -inf never round-trips. Writes go through a temp file and an
atomic rename so a failed command never leaves a partial output.
"""

import json
import os
import tempfile
from collections import Counter

import numpy as np

from .errors import FormatError
from .grids import ExtGridFn, GridDomain, Polytope, ScanMask
from .valuations import Composite, Constant, HessianDensity, PairingMeasure


def _reject_constant(name):
    raise FormatError(f"non-finite literal {name!r} is not allowed")


def loads(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise FormatError(f"invalid JSON: {err}") from err


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def dump_text_atomic(text: str, path):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json_atomic(obj, path):
    dump_text_atomic(json.dumps(obj, sort_keys=True), path)


def _domain_to_dict(domain: GridDomain):
    return {"lo": [float(v) for v in domain.lo],
            "hi": [float(v) for v in domain.hi],
            "shape": [int(s) for s in domain.shape]}


def _entries(v):
    return v if isinstance(v, list) else [v]


def _number(v):
    """v if it is a JSON number: true, false and strings would also pass
    float() and np.asarray, as 1.0, 0.0 and the number they spell."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{v!r} is not a number")
    return v


def _integer(v):
    """v if it is a JSON integer: int() would truncate 1.9 to 1."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{v!r} is not an integer")
    return v


def _domain_from_dict(obj):
    try:
        lo, hi, shape = obj["lo"], obj["hi"], obj["shape"]
        for v in _entries(lo) + _entries(hi):
            _number(v)
        for v in _entries(shape):
            _integer(v)
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"bad domain record: {err}") from err
    try:
        return GridDomain(lo, hi, shape)
    except (TypeError, ValueError, OverflowError) as err:
        raise FormatError(f"bad domain record: {err}") from err


def save_grid_fn(f: ExtGridFn, path):
    values = f.values.ravel()
    listed = values.tolist()
    for i in np.flatnonzero(values == np.inf).tolist():
        listed[i] = "inf"
    dump_json_atomic({"domain": _domain_to_dict(f.domain), "values": listed}, path)


def _grid_values(listed):
    """A grid file's value list as floats: JSON numbers, finite and within
    the float range, and the string "inf" for +inf."""
    kinds = Counter(map(type, listed))
    if not kinds.keys() <= {int, float, str} or kinds[str] != listed.count("inf"):
        bad = next(v for v in listed if type(v) not in (int, float) and v != "inf")
        raise FormatError(f"bad grid value {bad!r}")
    values = np.array(listed, dtype=object)
    inf = values == "inf"
    values[inf] = 0.0
    try:
        values = values.astype(float)
    except OverflowError as err:
        raise FormatError(f"grid value beyond the float range: {err}") from err
    if not np.all(np.isfinite(values)):
        raise FormatError("non-finite numeric value in grid file")
    values[inf] = np.inf
    return values


def load_grid_fn(path) -> ExtGridFn:
    obj = load_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("values"), list) \
            or "domain" not in obj:
        raise FormatError("grid file needs 'domain' and a 'values' list")
    domain = _domain_from_dict(obj["domain"])
    values = _grid_values(obj["values"])
    if values.size != domain.size:
        raise FormatError("value count does not match the domain shape")
    try:
        return ExtGridFn(domain, values)
    except ValueError as err:
        raise FormatError(str(err)) from err


def save_polytope(K: Polytope, path):
    dump_json_atomic({"vertices": [[float(v) for v in row]
                                   for row in K.vertices]}, path)


def load_polytope(path) -> Polytope:
    obj = load_json(path)
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise FormatError("polytope file needs 'vertices'")
    try:
        return Polytope(_finite(obj["vertices"], rank=2))
    except (TypeError, ValueError, OverflowError) as err:
        raise FormatError(f"bad polytope: {err}") from err


def save_mask(mask: ScanMask, path):
    dump_json_atomic({"domain": _domain_to_dict(mask.domain),
                      "marked": [int(v) for v in mask.marked.ravel()]}, path)


def load_mask(path) -> ScanMask:
    obj = load_json(path)
    if not isinstance(obj, dict) or "domain" not in obj or "marked" not in obj:
        raise FormatError("mask file needs 'domain' and 'marked'")
    domain = _domain_from_dict(obj["domain"])
    marked = obj["marked"]
    # only the JSON integers 0 and 1: true would read as 1 and 0.5 as 0
    if not isinstance(marked, list) or len(marked) != domain.size \
            or any(type(v) is not int or v not in (0, 1) for v in marked):
        raise FormatError("marked must be a flat 0/1 list matching the domain")
    return ScanMask(domain, np.array(marked, dtype=bool))


def load_valuation_spec(path, check: bool = True):
    """Load a valuation spec; relative references resolve against the file.

    With check=True (the default) pairing weights must satisfy both moment
    conditions at 1e-10; violating specs are refused. Malformed fields and
    composite specs that reference themselves raise FormatError.
    """
    return _load_spec(os.path.abspath(path), check, ())


def _finite(value, rank=None):
    """A JSON number or nested lists of them as a finite float array, with
    `rank` axes when given."""
    leaves = [value]
    while leaves:
        v = leaves.pop()
        if isinstance(v, list):
            leaves.extend(v)
        else:
            _number(v)
    arr = np.asarray(value, dtype=float)
    if rank is not None and arr.ndim != rank:
        raise ValueError(f"expected {rank} levels of lists, got {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    return arr


def _parse(kind, read):
    """read(), with a missing or malformed field raised as a FormatError."""
    try:
        return read()
    except KeyError as err:
        raise FormatError(f"{kind} spec missing {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
        raise FormatError(f"bad {kind} spec field: {err}") from err


def _load_spec(path, check, stack):
    """Fields are parsed first, so only the checks a built spec makes stay
    preconditions (ValueError); `stack` holds the composites being loaded."""
    if path in stack:
        raise FormatError(f"composite spec cycle through {path}")
    obj = load_json(path)
    directory = os.path.dirname(path)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError("valuation spec needs a 'kind'")
    kind = obj["kind"]
    if kind == "pairing":
        nodes, weights = _parse(kind, lambda: (_finite(obj["nodes"], rank=2),
                                               _finite(obj["weights"], rank=1)))
        return PairingMeasure(nodes, weights, check=check)
    if kind == "constant":
        return Constant(_parse(kind, lambda: float(_finite(_number(obj["value"])))))
    if kind == "hessian":
        order, weight, aux = _parse(kind, lambda: (
            _integer(obj["k"]), os.path.join(directory, obj["weight"]),
            [_finite(a) for a in obj.get("aux", ())]))
        return HessianDensity(order, load_grid_fn(weight), aux)
    if kind == "composite":
        terms = obj.get("terms")
        if not isinstance(terms, list):
            raise FormatError("composite spec needs a 'terms' list")
        loaded = []
        for item in terms:
            if not (isinstance(item, list) and len(item) == 2):
                raise FormatError("composite terms are [coefficient, file] pairs")
            coef, ref = _parse(kind, lambda: (
                float(_number(item[0])), os.path.abspath(os.path.join(directory, item[1]))))
            loaded.append((coef, _load_spec(ref, check, stack + (path,))))
        return Composite(loaded)
    raise FormatError(f"unknown valuation kind {kind!r}")
