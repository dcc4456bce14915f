"""JSON file formats for grid functions, polytopes, masks and valuation specs.

Grid values are stored row-major (last axis fastest) with the string "inf"
for the extended value. Readers reject NaN and any non-finite numeric
literal; -inf never round-trips. Writes go through a temp file and an
atomic rename so a failed command never leaves a partial output.
"""

import json
import os
import tempfile

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


def _domain_from_dict(obj):
    try:
        lo, hi, shape = obj["lo"], obj["hi"], obj["shape"]
    except (KeyError, TypeError) as err:
        raise FormatError(f"bad domain record: {err}") from err
    # JSON true/false would read as 1/0 and 5.7 would truncate to 5
    if any(isinstance(v, bool) for v in _entries(lo) + _entries(hi)):
        raise FormatError("bad domain record: lo and hi must be numbers")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in _entries(shape)):
        raise FormatError("bad domain record: shape entries must be integers")
    try:
        return GridDomain(lo, hi, shape)
    except TypeError as err:
        raise FormatError(f"bad domain record: {err}") from err


def _encode_value(v):
    return "inf" if np.isposinf(v) else float(v)


def _decode_value(v):
    if v == "inf":
        return np.inf
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        v = float(v)
        if not np.isfinite(v):
            raise FormatError("non-finite numeric value in grid file")
        return v
    raise FormatError(f"bad grid value {v!r}")


def save_grid_fn(f: ExtGridFn, path):
    obj = {"domain": _domain_to_dict(f.domain),
           "values": [_encode_value(v) for v in f.values.ravel()]}
    dump_json_atomic(obj, path)


def load_grid_fn(path) -> ExtGridFn:
    obj = load_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("values"), list) \
            or "domain" not in obj:
        raise FormatError("grid file needs 'domain' and a 'values' list")
    domain = _domain_from_dict(obj["domain"])
    values = np.array([_decode_value(v) for v in obj["values"]])
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
        return Polytope(np.asarray(obj["vertices"], dtype=float))
    except (TypeError, ValueError) as err:
        raise FormatError(f"bad polytope: {err}") from err


def save_mask(mask: ScanMask, path):
    dump_json_atomic({"domain": _domain_to_dict(mask.domain),
                      "marked": [int(v) for v in mask.marked.ravel()]}, path)


def load_mask(path) -> ScanMask:
    obj = load_json(path)
    if not isinstance(obj, dict) or "domain" not in obj or "marked" not in obj:
        raise FormatError("mask file needs 'domain' and 'marked'")
    domain = _domain_from_dict(obj["domain"])
    marked = np.array(obj["marked"], dtype=int)
    if marked.size != domain.size or not np.all((marked == 0) | (marked == 1)):
        raise FormatError("marked must be a flat 0/1 list matching the domain")
    return ScanMask(domain, marked.astype(bool))


def load_valuation_spec(path, check: bool = True):
    """Load a valuation spec; relative references resolve against the file.

    With check=True (the default) pairing weights must satisfy both moment
    conditions at 1e-10; violating specs are refused. Malformed fields and
    composite specs that reference themselves raise FormatError.
    """
    return _load_spec(os.path.abspath(path), check, ())


def _finite(value):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    return arr


def _parse(kind, read):
    """read(), with a missing or malformed field raised as a FormatError."""
    try:
        return read()
    except KeyError as err:
        raise FormatError(f"{kind} spec missing {err}") from err
    except (TypeError, ValueError) as err:
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
        nodes, weights = _parse(kind, lambda: (_finite(obj["nodes"]),
                                               _finite(obj["weights"])))
        return PairingMeasure(nodes, weights, check=check)
    if kind == "constant":
        return Constant(_parse(kind, lambda: float(obj["value"])))
    if kind == "hessian":
        order, weight, aux = _parse(kind, lambda: (
            int(obj["k"]), os.path.join(directory, obj["weight"]),
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
                float(item[0]), os.path.abspath(os.path.join(directory, item[1]))))
            loaded.append((coef, _load_spec(ref, check, stack + (path,))))
        return Composite(loaded)
    raise FormatError(f"unknown valuation kind {kind!r}")
