"""Problem data model: triangular coefficient families, special cases, JSON I/O.

A problem instance carries one copy of every system/weight block for each
pair of indices (t, k) with 0 <= t <= k <= N-1: the data genuinely depend on
the time the problem is (re)started at, which is the whole point of the
model.  Each family is one `Family`: a zero-filled (N, N, ...) array with a
mask of the (t, k) keys present, read and written as a mapping keyed by
(t, k).  `stacks` forms the arrays that every kernel reads (the backward
sweep, the exact tree and Monte Carlo): the family stacks, the script sums
A + Abar, ..., G + Gbar and the terminal data.  The JSON reader and writer
move a whole family at once.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import mmap
import os
import struct
from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass, field
from itertools import chain, repeat
from types import SimpleNamespace

import numpy as np
import orjson

from .errors import DimensionMismatch, ProblemFormatError

# family name -> (shape kind, symmetric?)
MATRIX_FAMILIES = {
    "A": ("nn", False),
    "Abar": ("nn", False),
    "B": ("nm", False),
    "Bbar": ("nm", False),
    "C": ("nn", False),
    "Cbar": ("nn", False),
    "D": ("nm", False),
    "Dbar": ("nm", False),
    "Q": ("nn", True),
    "Qbar": ("nn", True),
    "R": ("mm", True),
    "Rbar": ("mm", True),
}
VECTOR_FAMILIES = {"f": "n", "d": "n", "q": "n", "rho": "m"}
FAMILY_NAMES = tuple(MATRIX_FAMILIES) + tuple(VECTOR_FAMILIES)

# symmetry defects below SYM_OK are ignored; up to SYM_WARN they are fixed
# with a warning; beyond that the block is rejected.
SYM_OK = 1e-12
SYM_WARN_REL = 1e-2

# a rejected file's message lists at most this many findings
SHOWN_ERRORS = 8


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" | "warning"
    path: str
    message: str


def _sound(a: np.ndarray, symmetric: bool) -> bool:
    """Every entry finite and, if ``symmetric``, every trailing square
    block exactly symmetric: one pass over the whole array, where the
    per-block reductions over tiny trailing axes cost several times more."""
    return bool(np.isfinite(a).all()) and not (symmetric and (a != np.swapaxes(a, -1, -2)).any())


class Family(MutableMapping):
    """Blocks keyed by (t, k), 0 <= t <= k, t < rows, k < cols, held stacked.

    ``stack`` is a zero-filled (rows, cols, *shape) float array and ``mask``
    the (rows, cols) map of the keys present; both are allocated at the
    first block stored, so an empty family costs nothing.  ``fam[t, k]`` is
    a view into the stack, and storing a block copies it in.  A block that
    does not fit (its key lies outside the triangle, or its shape is not
    ``shape``) is kept as given in ``extra``, so that ``validate`` can word
    it.  Iteration yields the stacked keys in (t, k) order, then the extra
    ones in the order they were stored.
    """

    def __init__(self, rows: int, cols: int, shape: tuple):
        self.rows, self.cols, self.shape = rows, cols, tuple(shape)
        self.stack, self.mask, self.extra = None, None, {}

    @classmethod
    def full(cls, stack: np.ndarray) -> "Family":
        """Every triangle key of a (rows, cols, ...) stack, as views of it."""
        fam = cls(stack.shape[0], stack.shape[1], stack.shape[2:])
        fam.stack, fam.mask = stack, fam._triangle()
        return fam

    def _triangle(self) -> np.ndarray:
        return np.triu(np.ones((self.rows, self.cols), dtype=bool))

    def _inside(self, t, k) -> bool:
        return 0 <= t <= k < self.cols and t < self.rows

    def _allocate(self) -> None:
        self.stack = np.zeros((self.rows, self.cols) + self.shape)
        self.mask = np.zeros((self.rows, self.cols), dtype=bool)

    def __getitem__(self, key):
        t, k = key
        if self.mask is not None and self._inside(t, k) and self.mask[t, k]:
            return self.stack[t, k]
        return self.extra[key]

    def __setitem__(self, key, value) -> None:
        t, k = key
        a = np.asarray(value, dtype=float)
        inside = self._inside(t, k)
        if inside and a.shape == self.shape:
            if self.stack is None:
                self._allocate()
            self.stack[t, k] = a
            self.mask[t, k] = True
            self.extra.pop(key, None)
            return
        if inside and self.mask is not None:
            self._clear(t, k)
        self.extra[key] = a

    def __delitem__(self, key) -> None:
        if key in self.extra:
            del self.extra[key]
            return
        t, k = key
        if not (self.mask is not None and self._inside(t, k) and self.mask[t, k]):
            raise KeyError(key)
        self._clear(t, k)

    def _clear(self, t, k) -> None:
        self.mask[t, k] = False
        self.stack[t, k] = 0.0

    def __iter__(self):
        if self.mask is not None:
            yield from zip(*(ix.tolist() for ix in np.nonzero(self.mask)))
        yield from list(self.extra)

    def __len__(self) -> int:
        return (0 if self.mask is None else int(np.count_nonzero(self.mask))) + len(self.extra)

    def assign(self, t: np.ndarray, k: np.ndarray, blocks: np.ndarray) -> None:
        """Store blocks[i] under (t[i], k[i]); the keys must be distinct
        triangle keys and the blocks of shape ``shape``."""
        if self.stack is None:
            self._allocate()
        self.stack[t, k] = blocks
        self.mask[t, k] = True
        for key in [key for key in self.extra if self._inside(*key) and self.mask[key]]:
            del self.extra[key]

    def stacked(self) -> np.ndarray:
        """The stack itself; KeyError unless the blocks are exactly the triangle."""
        missing = np.argwhere(self._triangle() & (True if self.mask is None else ~self.mask))
        if len(missing) or self.extra:
            raise KeyError(tuple(missing[0].tolist()) if len(missing) else next(iter(self.extra)))
        return self.stack

    def flagged(self, symmetric: bool) -> list[tuple[int, int]]:
        """Triangle keys, in (t, k) order, whose block is missing, does not
        fit, is non-finite or (if ``symmetric``) is not exactly symmetric."""
        bad = self._triangle()
        if self.stack is not None:
            ok = self.mask
            if not _sound(self.stack, symmetric):
                blocks = tuple(range(2, self.stack.ndim))
                ok = ok & np.isfinite(self.stack).all(axis=blocks)
                if symmetric:
                    ok &= (self.stack == np.swapaxes(self.stack, -1, -2)).all(axis=blocks)
            bad &= ~ok
        return list(zip(*(ix.tolist() for ix in np.nonzero(bad))))


@dataclass
class ProblemData:
    """All coefficients of one control problem instance.

    Each name in FAMILY_NAMES (A, Abar, ..., rho) is a `Family` over the
    triangular index set {0 <= t <= k <= N-1}: one stacked (N, N, ...)
    array with a mask of the blocks present, set up empty here and filled
    by item assignment, ``p.A[t, k] = block``.  Terminal weights are lists
    indexed by t.
    """

    n: int
    m: int
    N: int
    G: list = field(default_factory=list)
    Gbar: list = field(default_factory=list)
    g: list = field(default_factory=list)

    def __post_init__(self):
        for name in FAMILY_NAMES:
            setattr(self, name, Family(self.N, self.N, self.shape_of(name)))

    def pairs(self):
        """All valid (t, k) index pairs, t <= k <= N-1."""
        return ((t, k) for t in range(self.N) for k in range(t, self.N))

    def shape_of(self, name: str) -> tuple:
        if name in MATRIX_FAMILIES:
            kind = MATRIX_FAMILIES[name][0]
            return {"nn": (self.n, self.n), "nm": (self.n, self.m), "mm": (self.m, self.m)}[kind]
        dim = self.n if VECTOR_FAMILIES[name] == "n" else self.m
        return (dim,)


def stacks(p: ProblemData) -> SimpleNamespace:
    """The coefficients as arrays, the one source every kernel reads.

    Each family in FAMILY_NAMES is its (N, N, ...) stack, zero off the
    triangle; cA = A + Abar, cB, cC, cD, cQ and cR are the script sums of
    the paired stacks; G, Gbar, script-G cG = G + Gbar and g are (N, ...)
    arrays.  Raises KeyError unless every family holds exactly the
    triangle's blocks.  Nothing is cached, since `validate` repairs blocks
    in place.
    """
    s = SimpleNamespace(**{name: getattr(p, name).stacked() for name in FAMILY_NAMES})
    for name in ("A", "B", "C", "D", "Q", "R"):
        setattr(s, "c" + name, getattr(s, name) + getattr(s, name + "bar"))
    s.G, s.Gbar = (np.array(v, dtype=float).reshape(p.N, p.n, p.n) for v in (p.G, p.Gbar))
    s.cG = s.G + s.Gbar
    s.g = np.array(p.g, dtype=float).reshape(p.N, p.n)
    return s


@dataclass(frozen=True)
class InitialPair:
    """A start time and a state.

    ``x`` is a deterministic n-vector, the atom every command starts from.
    Only the exact tree (`tree`) also reads a node family here, one state
    per scenario node at time t, and lays it out itself.
    """

    t: int
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


def validate(p: ProblemData) -> list[Finding]:
    """Check invariants, auto-symmetrising weight blocks with small defects.

    Returns the empty list iff the instance is sound.  Symmetry defects up
    to 1e-2 relative are repaired in place and reported as warnings (a
    hand-typed weight matrix is rarely bit-symmetric); anything larger, plus
    missing blocks, bad shapes or non-finite entries, is an error.
    """
    findings: list[Finding] = []
    if p.n < 1 or p.m < 1 or p.N < 1:
        findings.append(Finding("error", "dims", f"bad dimensions n={p.n} m={p.m} N={p.N}"))
        return findings

    def check_block(name, key, value, shape, symmetric, path):
        if value is None:
            findings.append(Finding("error", path, "missing block"))
            return
        a = np.asarray(value, dtype=float)
        if a.shape != shape:
            findings.append(Finding("error", path, f"shape {a.shape}, expected {shape}"))
            return
        if a.size and not np.all(np.isfinite(a)):
            findings.append(Finding("error", path, "non-finite entries"))
            return
        if symmetric:
            defect = float(np.max(np.abs(a - a.T))) if a.size else 0.0
            if defect > SYM_WARN_REL * (1.0 + float(np.max(np.abs(a)))):
                findings.append(Finding("error", path, f"asymmetric (defect {defect:.3g})"))
                return
            if defect > 0.0:
                getattr(p, name)[key] = 0.5 * (a + a.T)
                if defect > SYM_OK:
                    findings.append(
                        Finding("warning", path, f"symmetrised (defect {defect:.3g})")
                    )

    for name in FAMILY_NAMES:
        fam = getattr(p, name)
        shape = p.shape_of(name)
        symmetric = name in MATRIX_FAMILIES and MATRIX_FAMILIES[name][1]
        # one array pass finds the blocks to word; a sound family has none
        for t, k in fam.flagged(symmetric):
            check_block(name, (t, k), fam.get((t, k)), shape, symmetric, f"{name}[{t}][{k}]")
        for t, k in [tk for tk in fam.extra if not fam._inside(*tk)]:
            findings.append(Finding("error", f"{name}[{t}][{k}]", "index out of range"))

    for name, lst, shape, symmetric in (
        ("G", p.G, (p.n, p.n), True),
        ("Gbar", p.Gbar, (p.n, p.n), True),
        ("g", p.g, (p.n,), False),
    ):
        if len(lst) != p.N:
            findings.append(Finding("error", name, f"{len(lst)} blocks, expected {p.N}"))
            continue
        try:
            whole = np.asarray(lst, dtype=float)
        except (TypeError, ValueError, OverflowError):
            whole = None
        if whole is not None and whole.shape == (p.N, *shape) and _sound(whole, symmetric):
            continue
        for t in range(p.N):
            check_block(name, t, lst[t], shape, symmetric, f"{name}[{t}]")
    return findings


def _per_index(datum, N: int, shape: tuple, name: str) -> np.ndarray:
    """One block (repeated N times) or a length-N sequence of blocks, as an
    (N, *shape) array."""
    a = np.asarray(datum, dtype=float)
    if a.shape == shape:
        return np.broadcast_to(a, (N, *shape))
    if a.shape != (N, *shape):
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected {shape} or {N} of them")
    return a


def _triangle_blocks(datum, N: int, shape: tuple, name: str) -> np.ndarray:
    """A family's blocks at the keys (t, k) of `np.triu_indices(N)`, from
    one block, a length-N sequence over k or a mapping keyed by (t, k)."""
    t, k = np.triu_indices(N)
    if not isinstance(datum, Mapping):
        return _per_index(datum, N, shape, name)[k]
    blocks = np.empty((len(t), *shape))
    for i, key in enumerate(zip(t.tolist(), k.tolist())):
        if key not in datum:
            raise DimensionMismatch(f"{name} missing block ({key[0]},{key[1]})")
        block = np.asarray(datum[key], dtype=float)
        if block.shape != shape:
            raise DimensionMismatch(f"{name}[{key[0]}][{key[1]}] has shape {block.shape}")
        blocks[i] = block
    return blocks


def from_time_invariant(n, m, N, **data) -> ProblemData:
    """Build an instance from one datum per family (A, Abar, ..., rho) and
    per terminal weight (G, Gbar, g), all given by keyword.

    A family's datum is one block (shared by every key (t, k)), a length-N
    sequence over k (the block of step k, shared by every start time
    t <= k), or a mapping keyed by (t, k) with a block at every triangle
    key.  A terminal datum is one block (shared by every t) or a length-N
    sequence over t.  A block of the wrong shape raises DimensionMismatch,
    a missing or unknown name TypeError.
    """
    names = FAMILY_NAMES + ("G", "Gbar", "g")
    wrong = set(data).symmetric_difference(names)
    if wrong:
        raise TypeError(f"from_time_invariant: missing or unknown data {sorted(wrong)}")
    p = ProblemData(n, m, N)
    t, k = np.triu_indices(N)
    for name in FAMILY_NAMES:
        getattr(p, name).assign(t, k, _triangle_blocks(data[name], N, p.shape_of(name), name))
    for name, shape in (("G", (n, n)), ("Gbar", (n, n)), ("g", (n,))):
        setattr(p, name, list(np.array(_per_index(data[name], N, shape, name))))
    return p


def bundled_example() -> ProblemData:
    """The bundled 2-state/2-control, two-step reference instance."""
    p = ProblemData(2, 2, 2)
    M = np.array
    p.A[0, 0] = M([[3.3, 0.41], [-1.3, 1.9]])
    p.A[0, 1] = M([[5.12, -0.35], [1.31, 2.03]])
    p.A[1, 1] = M([[8.5, 3.03], [-2.23, 7.2]])
    p.Abar[0, 0] = M([[3.34, -1.01], [1.43, 2.03]])
    p.Abar[0, 1] = M([[3.45, -0.3], [1.2, 4.0]])
    p.Abar[1, 1] = M([[5.67, 1.93], [-1.16, 6.54]])
    p.B[0, 0] = M([[3.5, 1.6], [-0.2, 3.0]])
    p.B[0, 1] = M([[4.45, 2.36], [-1.2, 5.0]])
    p.B[1, 1] = M([[7.35, -2.35], [-3.38, 6.32]])
    p.Bbar[0, 0] = M([[3.2, 0.32], [1.5, 3.0]])
    p.Bbar[0, 1] = M([[3.65, -0.3], [-0.42, 5.6]])
    p.Bbar[1, 1] = M([[5.67, 1.93], [-1.16, 6.54]])
    p.C[0, 0] = M([[5.6, 1.0], [0.73, 7.8]])
    p.C[0, 1] = M([[5.0, 0.73], [-0.47, 5.2]])
    p.C[1, 1] = M([[2.5, 3.03], [-4.23, 6.2]])
    p.Cbar[0, 0] = M([[5.6, 1.0], [0.73, 7.8]])
    p.Cbar[0, 1] = M([[5.0, 0.73], [-0.47, 5.2]])
    p.Cbar[1, 1] = M([[10.17, 5.93], [-6.16, 7.54]])
    # Entry (1, 0) was -1.37 until a sign correction.  With -1.37 the step-0
    # deviation coefficient M2[0] comes out [[24617.78, 9233.43], [.., 28651.80]],
    # 20 % off the recorded [[24209, 11560], [.., 28652]]; with +1.37 it is
    # [[24208.89, 11559.87], [.., 28651.80]], every recorded digit (1.1e-5
    # relative).  A free fit of this one entry gives 1.37015, and no change
    # to any other single entry comes closer than 3.2 %.  Only D + Dbar at
    # (0, 0) reaches an output (the t = 0 state is deterministic), and a sign
    # typo explains D, not Dbar.  The paper's own table is not in the repo,
    # so whether it prints -1.37 is not settled here.
    p.D[0, 0] = M([[6.0, 1.63], [1.37, 7.0]])
    p.D[0, 1] = M([[4.0, 0.93], [1.07, 3.0]])
    p.D[1, 1] = M([[8.56, -4.75], [-2.8, 7.0]])
    p.Dbar[0, 0] = M([[4.6, 0.63], [-1.57, 6.4]])
    p.Dbar[0, 1] = M([[4.4, 1.93], [2.34, 5.63]])
    p.Dbar[1, 1] = M([[-8.72, 2.43], [1.16, -6.54]])
    p.Q[0, 0] = M([[-1.0, 0.8], [0.8, -1.6]])
    p.Q[0, 1] = M([[4.0, 0.0], [0.0, 0.0]])
    p.Q[1, 1] = M([[2.0, 0.1], [0.1, 5.0]])
    p.Qbar[0, 0] = M([[-0.5, -0.1], [-0.1, 1.0]])
    p.Qbar[0, 1] = M([[-2.0, 0.0], [0.0, -3.0]])
    p.Qbar[1, 1] = M([[-1.0, 0.1], [0.1, -3.0]])
    p.R[0, 0] = M([[-0.5, 0.0], [0.0, 1.0]])
    p.R[0, 1] = M([[1.0, 0.0], [0.0, -2.0]])
    p.R[1, 1] = M([[4.0, -0.3], [-0.3, -2.0]])
    p.Rbar[0, 0] = M([[0.0, 0.0], [0.0, 0.0]])
    p.Rbar[0, 1] = M([[-2.0, 0.0], [0.0, 2.0]])
    p.Rbar[1, 1] = M([[-7.0, -1.3], [-1.3, -4.0]])
    p.f[0, 0] = M([-0.5, -1.0])
    p.f[0, 1] = M([-1.34, 2.5])
    p.f[1, 1] = M([1.0, 2.0])
    p.d[0, 0] = M([1.32, 2.79])
    p.d[0, 1] = M([-0.35, 8.9])
    p.d[1, 1] = M([0.0, 1.0])
    p.q[0, 0] = M([-0.85, -1.8])
    p.q[0, 1] = M([2.0, 7.0])
    p.q[1, 1] = M([6.0, 8.0])
    p.rho[0, 0] = M([3.2, 2.1])
    p.rho[0, 1] = M([1.42, 2.71])
    p.rho[1, 1] = M([6.2, -5.7])
    p.G = [M([[1.0, 0.0], [0.0, 2.0]]), M([[2.0, -0.3], [-0.3, 3.0]])]
    p.Gbar = [M([[2.0, 0.0], [0.0, 3.0]]), M([[-0.5, -0.2], [-0.2, 1.0]])]
    p.g = [M([5.6, 7.8]), M([-9.0, 8.7])]
    return p


def canonical_dumps(obj) -> str:
    """`canonical_bytes` as text."""
    return canonical_bytes(obj).decode()


def canonical_bytes(obj) -> bytes:
    """Deterministic UTF-8 JSON for nested dict/list/number/str/bool/None.

    Leaves may also be ndarrays and numpy scalars, and a `Family` is
    written as an object keyed "t,k".  Keys are sorted and every float is
    the shortest decimal that parses back to the same double, so
    serialise -> parse -> serialise is byte-identical.  A non-finite float
    raises ProblemFormatError, where orjson would write null.  orjson
    refuses an integer beyond 64 bits, a string with a lone surrogate and a
    key that is not a string; such a document is written by `json` with
    sorted keys and compact separators, which spells floats as `repr` does
    and escapes every character outside ASCII.  The bytes are orjson's own,
    so a writer holds no decoded copy of the document.
    """
    if not _finite(obj):
        raise ProblemFormatError("cannot serialise non-finite float")
    try:
        return orjson.dumps(obj, default=_plain, option=orjson.OPT_SORT_KEYS)
    except orjson.JSONEncodeError:
        return json.dumps(obj, default=_plain, sort_keys=True, separators=(",", ":")).encode()


def _finite(obj) -> bool:
    """False if any float of the document is NaN or infinite."""
    if isinstance(obj, (float, np.floating)):
        return math.isfinite(obj)
    if isinstance(obj, (list, tuple)):
        return all(map(_finite, obj))
    if isinstance(obj, dict):
        return all(map(_finite, obj.values()))
    if isinstance(obj, np.ndarray):
        return bool(np.isfinite(obj).all()) if obj.dtype.kind == "f" else _finite(obj.tolist())
    if isinstance(obj, Family):
        return (obj.stack is None or bool(np.isfinite(obj.stack).all())) and _finite(
            list(obj.extra.values()))
    return True


def _plain(obj):
    """The JSON value of a leaf that orjson does not write itself."""
    if isinstance(obj, Family):
        if obj.extra or obj.stack is None:
            return {f"{t},{k}": v for (t, k), v in obj.items()}
        t, k = np.nonzero(obj.mask)
        return dict(zip(map("{},{}".format, t.tolist(), k.tolist()), obj.stack[t, k].tolist()))
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise ProblemFormatError(f"cannot serialise {type(obj).__name__}")


def _problem_doc(p: ProblemData) -> dict:
    return {
        "n": p.n,
        "m": p.m,
        "N": p.N,
        "data": {name: getattr(p, name) for name in FAMILY_NAMES},
        "terminal": {"G": p.G, "Gbar": p.Gbar, "g": p.g},
    }


def to_json(p: ProblemData) -> str:
    """Serialise a problem instance to canonical JSON text."""
    return canonical_dumps(_problem_doc(p))


def _bad_leaf(value):
    """The first string or boolean leaf of nested lists, else None.

    `np.asarray` converts both ("3.3" -> 3.3, true -> 1.0); the schema
    allows numbers only.
    """
    if isinstance(value, list):
        for item in value:
            bad = _bad_leaf(item)
            if bad is not None:
                return bad
        return None
    return value if isinstance(value, (str, bool)) else None


def _block(value, where: str) -> np.ndarray:
    """One block as a float array; a non-numeric block is a format error."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"{where}: not a numeric block ({exc})") from exc
    bad = _bad_leaf(value)
    if bad is not None:
        raise ProblemFormatError(f"{where}: not a numeric block (entry {json.dumps(bad)})")
    return a


def _flat(blocks: list, shape: tuple):
    """The blocks as one (len(blocks), *shape) float array, or None.

    One pass checks the nesting lengths level by level; one `struct` pass
    converts the leaves, as `np.asarray` would, and refuses any leaf that
    is not an int or a float: a string, a null, a list, or a row or block
    that is an object or a string (their keys and characters are strings).
    Booleans pass; `from_json` screens the text for them.  None sends the
    caller to its block-by-block path, which words the mismatch.
    """
    level = blocks
    try:
        for size in shape:
            if set(map(len, level)) != {size}:
                return None
            level = list(chain.from_iterable(level))
        out = np.empty((len(blocks), *shape))
        struct.pack_into(f"{len(level)}d", out, 0, *level)
    except (TypeError, struct.error):
        return None
    return out


def _parse_key(name: str, key: str) -> tuple[int, int]:
    try:
        t_s, k_s = key.split(",")
        return int(t_s), int(k_s)
    except ValueError as exc:
        raise ProblemFormatError(f"{name}: bad index key {key!r}") from exc


def _parse_keys(name: str, keys: tuple) -> tuple[list, list]:
    """The t and k indices of a family's "t,k" keys, in file order, by one
    joined split; the first bad key is worded by `_parse_key`."""
    try:
        if set(map(str.count, keys, repeat(","))) == {1}:
            tk = list(map(int, ",".join(keys).split(",")))
            return tk[0::2], tk[1::2]
    except ValueError:
        pass
    for key in keys:  # raises at the first bad key; only an empty family gets past
        _parse_key(name, key)
    return [], []


def _index(t: list, k: list, N: int):
    """(t, k) index arrays of keys that are distinct triangle keys, else None."""
    if t and (min(t) < 0 or min(k) < 0 or max(t) >= N or max(k) >= N):
        return None
    t, k = np.array(t, dtype=np.intp), np.array(k, dtype=np.intp)
    if not (t <= k).all() or len(np.unique(t * N + k)) != len(t):
        return None
    return t, k


def _counted(name: str, t: list, k: list, N: int):
    """t, k and their index arrays (or None), once the count is checked.

    A family whose blocks fall short of the declared N(N+1)/2 by more than
    an error message would list is rejected with its counts, before any
    array of size N is made, so a file declaring a huge N fails at once.
    """
    triangle = N * (N + 1) // 2
    if N >= 1 and len(t) < triangle - SHOWN_ERRORS:
        raise ProblemFormatError(f"{name}: {len(t)} blocks for N={N}, which needs {triangle}")
    return t, k, _index(t, k, N)


def _family_entries(name: str, entry, N: int, seen: dict):
    """t and k indices, their index arrays (or None) and blocks of one
    family, in file order.

    ``seen`` maps the key tuples of dict-layout families already read to
    their indices; the families of one file usually share them.
    """
    if isinstance(entry, dict):
        keys = tuple(entry)
        if keys not in seen:
            seen[keys] = _counted(name, *_parse_keys(name, keys), N)
        return (*seen[keys], list(entry.values()))
    if isinstance(entry, list):
        # dense layout: entry[t][k], null below the diagonal
        ts, ks, blocks = [], [], []
        for t, row in enumerate(entry):
            if not isinstance(row, list):
                raise ProblemFormatError(f"{name}[{t}]: expected a list of blocks")
            for k, block in enumerate(row):
                if block is not None:
                    ts.append(t)
                    ks.append(k)
                    blocks.append(block)
        return (*_counted(name, ts, ks, N), blocks)
    raise ProblemFormatError(f"{name}: expected object or list")


def _may_hold_booleans(data) -> bool:
    """False unless the text holds a true or a false token.

    Each test looks for one letter first ("u" of true, "s" of false), a
    memchr scan; no key of a problem file holds either, so a file without
    booleans never pays for the word searches.
    """
    u, true, s, false = ("u", "true", "s", "false") if isinstance(data, str) else (
        b"u", b"true", b"s", b"false")
    # from 0: an mmap searches from its file position by default
    return ((data.find(u, 0) >= 0 and data.find(true, 0) >= 0)
            or (data.find(s, 0) >= 0 and data.find(false, 0) >= 0))


def _dim(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    if isinstance(value, (list, dict)):  # quoted, a deep one would overflow json.dumps
        quote = "a JSON " + ("array" if isinstance(value, list) else "object")
    else:
        quote = json.dumps(value)
        quote = quote if len(quote) <= 40 else quote[:36] + "...\""
    raise ProblemFormatError(f"bad dimensions: {key} is not an integer ({quote})")


def _json_loads(data):
    """`json.loads` of a document.  Bytes are decoded as a text-mode read
    of the file would decode them: UTF-8 with universal newlines, and a
    BOM kept, which `json` refuses.  Bytes that are not UTF-8 raise
    UnicodeDecodeError, which callers word as invalid JSON."""
    if not isinstance(data, str):
        data = str(data, "utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(data)


def parse_json(data):
    """The value of a JSON document (text, bytes or another buffer such as
    an mmap), parsed by orjson.

    orjson refuses some documents that `json` reads: NaN and Infinity
    tokens, numbers beyond the float range and lone surrogates.  It also
    refuses a BOM, invalid UTF-8 and malformed JSON, which `json` refuses
    in words of its own.  Only a refused document goes to `json.loads`,
    whose value or error is then the outcome, as if `json` alone had read
    it.  Two differences stay: orjson reads an integer beyond 64 bits as
    its nearest float, where `json` keeps every digit, and it reads
    documents nested deeper than `json`'s recursion limit (about 1000
    levels), on which `json` raises RecursionError.
    """
    try:
        return orjson.loads(data if isinstance(data, str) else memoryview(data))
    except orjson.JSONDecodeError:
        pass
    return _json_loads(data)


def from_json(data) -> tuple[ProblemData, list[Finding]]:
    """Parse and validate a problem file, given as text, bytes or another
    buffer; raises ProblemFormatError on errors.

    The cyclic garbage collector is paused until the parse tree is gone:
    the tree holds no cycles and is freed by reference counting, but a
    collection while it is alive walks every one of its containers (a
    long-horizon file has about 1.5e5).  The caller's collector state is
    restored on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read(data)
    finally:
        if enabled:
            gc.enable()


def _read(text) -> tuple[ProblemData, list[Finding]]:
    try:
        doc = parse_json(text)
        if isinstance(doc, dict) and any(type(doc.get(key)) is float and abs(doc[key]) >= 2.0**63
                                         for key in ("n", "m", "N")):
            doc = _json_loads(text)  # such a dimension may be an integer: `json` keeps its digits
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("the document must be an object")
    for key in ("n", "m", "N", "data", "terminal"):
        if key not in doc:
            raise ProblemFormatError(f"missing top-level key {key!r}")
    p = ProblemData(_dim(doc, "n"), _dim(doc, "m"), _dim(doc, "N"))
    data = doc["data"]
    if not isinstance(data, dict):
        raise ProblemFormatError("'data' must be an object")
    # with a boolean somewhere, every block goes through `_block`, which words it
    flat = not _may_hold_booleans(text)
    seen = {}
    for name in FAMILY_NAMES:
        if name not in data:
            raise ProblemFormatError(f"missing family {name!r}")
        # popped: the family's parse subtree is freed once it is stored
        ts, ks, index, blocks = _family_entries(name, data.pop(name), p.N, seen)
        fam = getattr(p, name)
        stacked = _flat(blocks, fam.shape) if flat and index is not None else None
        if stacked is not None:
            fam.assign(*index, stacked)
            continue
        for t, k, block in zip(ts, ks, blocks):
            fam[t, k] = _block(block, f"{name}[{t}][{k}]")
    term = doc["terminal"]
    if not isinstance(term, dict):
        raise ProblemFormatError("'terminal' must be an object")
    for key, shape in (("G", (p.n, p.n)), ("Gbar", (p.n, p.n)), ("g", (p.n,))):
        if key not in term:
            raise ProblemFormatError(f"missing terminal key {key!r}")
        blocks = term[key]
        if not isinstance(blocks, list):
            raise ProblemFormatError(f"{key}: expected a list of blocks")
        stacked = _flat(blocks, shape) if flat else None
        setattr(p, key, list(stacked) if stacked is not None
                else [_block(b, f"{key}[{t}]") for t, b in enumerate(blocks)])
    findings = validate(p)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise ProblemFormatError(
            "; ".join(f"{f.path}: {f.message}" for f in errors[:SHOWN_ERRORS])
        )
    return p, findings


def write_text(path, text: str | bytes) -> None:
    """Write ``text`` and a newline to ``path``, as UTF-8 with "\\n" line
    ends: the one file writer of the package.  Bytes are taken as UTF-8
    and written as they are.  Callers build the whole text first, so a
    document that cannot be serialised fails before the file is opened,
    and an existing file keeps its bytes."""
    with open(path, "wb") as fh:
        fh.write(text.encode() if isinstance(text, str) else text)
        fh.write(b"\n")


def save(p: ProblemData, path) -> None:
    """Write ``p`` as its canonical JSON (`to_json`'s text, as bytes)."""
    write_text(path, canonical_bytes(_problem_doc(p)))


def _read_file(path):
    """The bytes of a file, read once, into an anonymous memory map of the
    file's size.

    A map goes back to the system when it is closed.  A bytes object of a
    few MB comes from the malloc heap, which keeps the space once it is
    freed: read that way, the long-horizon benchmark's N = 80 input (4.4
    MB) leaves its peak RSS about 3 MiB higher.  A file whose size reads 0
    (empty, or a pipe) or changes while it is read is read into bytes.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size:
            buf = mmap.mmap(-1, size)
            if fh.readinto(buf) == size and not fh.read(1):
                return buf
            buf.close()
            fh.seek(0)
        return fh.read()


def load(path) -> tuple[ProblemData, list[Finding], str]:
    """Read a problem file: the problem, its findings and the SHA-256 of
    the bytes parsed.  The file is read once, so the digest describes
    exactly those bytes."""
    data = _read_file(path)
    try:
        p, findings = from_json(data)
        return p, findings, hashlib.sha256(data).hexdigest()
    finally:
        if isinstance(data, mmap.mmap):
            data.close()
