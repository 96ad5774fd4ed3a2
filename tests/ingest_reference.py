"""Problem-file reader kept as the reference for `model.from_json`.

This is the reader `model` used before it converted each family by one
flat pass over its leaves: every "t,k" key is parsed into its own tuple,
each family is converted by one nested `np.asarray` of its blocks, and the
terminal lists block by block.  A family whose blocks do not all fit goes
block by block, so that `model.validate` words them.  It does not refuse
string or boolean leaves, nor non-integer dimensions: `np.asarray` and
`int` convert them.
"""

import json

import numpy as np

from meanfield_lq.errors import ProblemFormatError
from meanfield_lq.model import FAMILY_NAMES, SHOWN_ERRORS, ProblemData, validate


def _block(value, where):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"{where}: not a numeric block ({exc})") from exc


def _parse_key(name, key):
    try:
        t_s, k_s = key.split(",")
        return int(t_s), int(k_s)
    except ValueError as exc:
        raise ProblemFormatError(f"{name}: bad index key {key!r}") from exc


def _index(keys, N):
    if not all(0 <= t <= k < N for t, k in keys):
        return None
    t, k = np.array(keys, dtype=np.intp).reshape(-1, 2).T
    return (t, k) if len(np.unique(t * N + k)) == len(keys) else None


def _family_entries(name, entry, N):
    if isinstance(entry, dict):
        keys = [_parse_key(name, key) for key in entry]
        return keys, _index(keys, N), list(entry.values())
    if isinstance(entry, list):
        keys, blocks = [], []
        for t, row in enumerate(entry):
            if not isinstance(row, list):
                raise ProblemFormatError(f"{name}[{t}]: expected a list of blocks")
            for k, block in enumerate(row):
                if block is not None:
                    keys.append((t, k))
                    blocks.append(block)
        return keys, _index(keys, N), blocks
    raise ProblemFormatError(f"{name}: expected object or list")


def _fill(fam, name, keys, index, blocks):
    try:
        stacked = np.asarray(blocks, dtype=float)
    except (TypeError, ValueError, OverflowError):
        stacked = None
    if index is not None and stacked is not None and stacked.shape == (len(keys),) + fam.shape:
        fam.assign(*index, stacked)
        return
    for (t, k), block in zip(keys, blocks):
        fam[t, k] = _block(block, f"{name}[{t}][{k}]")


def from_json(text):
    """Parse and validate a problem file; raises ProblemFormatError on errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("the document must be an object")
    for key in ("n", "m", "N", "data", "terminal"):
        if key not in doc:
            raise ProblemFormatError(f"missing top-level key {key!r}")
    try:
        p = ProblemData(int(doc["n"]), int(doc["m"]), int(doc["N"]))
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"bad dimensions: {exc}") from exc
    data = doc["data"]
    if not isinstance(data, dict):
        raise ProblemFormatError("'data' must be an object")
    triangle = p.N * (p.N + 1) // 2
    for name in FAMILY_NAMES:
        if name not in data:
            raise ProblemFormatError(f"missing family {name!r}")
        keys, index, blocks = _family_entries(name, data[name], p.N)
        if p.N >= 1 and len(keys) < triangle - SHOWN_ERRORS:
            raise ProblemFormatError(
                f"{name}: {len(keys)} blocks for N={p.N}, which needs {triangle}")
        _fill(getattr(p, name), name, keys, index, blocks)
    term = doc["terminal"]
    if not isinstance(term, dict):
        raise ProblemFormatError("'terminal' must be an object")
    for key in ("G", "Gbar", "g"):
        if key not in term:
            raise ProblemFormatError(f"missing terminal key {key!r}")
        if not isinstance(term[key], list):
            raise ProblemFormatError(f"{key}: expected a list of blocks")
        setattr(p, key, [_block(b, f"{key}[{t}]") for t, b in enumerate(term[key])])
    findings = validate(p)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise ProblemFormatError(
            "; ".join(f"{f.path}: {f.message}" for f in errors[:SHOWN_ERRORS])
        )
    return p, findings
