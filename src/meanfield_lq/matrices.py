"""Small dense-matrix kernel: pseudoinverse, PSD verdicts, range residuals,
and the verdict rule of an equilibrium certificate.

Everything here operates on plain ``numpy`` arrays of modest size (the
solvers never exceed a few dozen rows), favouring explicit tolerances over
cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonSquare, NumericalBreakdown

UNIT_ROUNDOFF = float(np.finfo(np.float64).eps)
TOL_STATIONARY = 1e-8
TOL_CONVEXITY = 1e-9


def _as_matrix(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """A float matrix (a vector becomes a column); with ``stack``, also a
    stack of matrices on leading axes."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    return a


def sym_part(m: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T) / 2 (of every matrix in a stack)."""
    return 0.5 * m + 0.5 * np.swapaxes(m, -1, -2)


def fro_each(m) -> np.ndarray:
    """Frobenius norm of every matrix in a stack.

    Each norm is the square root of one dot product of the matrix's entries
    in row order, the arithmetic of ``np.linalg.norm`` on one row-major
    matrix: a stacked row-times-column ``matmul`` is computed as that dot
    product.  A pairwise-summed norm (``np.linalg.norm`` with ``axis``) can
    differ from it in the last bit.
    """
    a = np.ascontiguousarray(m, dtype=float)
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.matmul(flat[..., None, :], flat[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test with an explicit margin."""

    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


def pinv(m) -> np.ndarray:
    """Moore-Penrose inverse via SVD (of every matrix in a stack).

    Singular values sigma_i <= max(rows, cols) * u * sigma_max are treated
    as zero, with u the double-precision unit roundoff.  Each matrix is
    scale-normalised by its largest entry first (the cutoff criterion is
    scale-invariant), so extreme magnitudes do not overflow intermediate
    quantities.  A stacked call gives every matrix the bits of its own call.
    """
    a = _as_matrix(m, "pinv input", stack=True)
    if not np.isfinite(a).all():
        raise NonFinite("pinv: input has non-finite entries")
    at = a.swapaxes(-1, -2)
    if a.size == 0:
        return at.copy()
    scale = np.abs(a).max(axis=(-2, -1), keepdims=True)
    zero = scale == 0.0
    any_zero = zero.any()
    if any_zero:  # the pseudoinverse of a zero matrix is its transpose
        scale = np.where(zero, 1.0, scale)
    u, s, vt = np.linalg.svd(a / scale, full_matrices=False)
    keep = s > max(a.shape[-2:]) * UNIT_ROUNDOFF * s[..., :1]
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    out = ((vt.swapaxes(-1, -2) * inv[..., None, :]) @ u.swapaxes(-1, -2)) / scale
    return np.where(zero, at, out) if any_zero else out


def psd_check(m) -> PsdVerdict:
    """Smallest eigenvalue of the symmetrised matrix against the tolerance
    1e-9 * (1 + ||M||_F).  Callers are expected to pass symmetric matrices;
    the symmetrisation only guards against roundoff.
    """
    return psd_checks(_as_matrix(m, "psd_check input")[None])[0]


def psd_checks(m) -> list[PsdVerdict]:
    """``psd_check`` of every matrix in a stack, by one ``eigvalsh`` call."""
    a = _as_matrix(m, "psd_check input", stack=True)
    if a.shape[-2] != a.shape[-1]:
        raise NonSquare(f"psd_check needs a square matrix, got {a.shape[-2:]}")
    if a.size and not np.all(np.isfinite(a)):
        raise NonFinite("psd_check: input has non-finite entries")
    tols = 1e-9 * (1.0 + fro_each(a))
    if a.shape[-1] == 0:
        lam = np.full(a.shape[:-2], np.inf)
    else:
        lam = np.linalg.eigvalsh(sym_part(a))[..., 0]
    return [PsdVerdict(bool(v >= -t), float(v), float(t))
            for v, t in zip(lam.ravel().tolist(), tols.ravel().tolist())]


def range_residual(w, v) -> float:
    """Normalised residual ||(I - W W^+) V||_F / (1 + ||V||_F).

    Zero (up to roundoff) exactly when every column of V lies in the column
    space of W, i.e. when W X = V is solvable.
    """
    a = _as_matrix(w, "range_residual W")
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"range_residual needs square W, got {a.shape}")
    b = _as_matrix(v, "range_residual V")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"range_residual: V has {b.shape[0]} rows, W is {a.shape[0]}x{a.shape[1]}"
        )
    return float(range_residuals(a, pinv(a), b))


def range_residuals(w, w_dag, v) -> np.ndarray:
    """``range_residual`` of every (W, V) pair of two stacks, given W^+."""
    proj = w @ w_dag
    return fro_each(v - proj @ v) / (1.0 + fro_each(v))


def eigh_pinv(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M^+ from the eigendecomposition (w, V) of a symmetric M.  Eigenvalues
    within m * eps of the largest count as zero, so a rounding-level one is
    not inverted."""
    keep = np.abs(w) > len(w) * UNIT_ROUNDOFF * np.max(np.abs(w), initial=0.0)
    return (V[:, keep] / w[keep]) @ V[:, keep].T


@dataclass
class EquilibriumCertificate:
    """Verdict of a certificate of a candidate control, built step by step.

    A one-instant deviation v of the step-k control at a state x changes
    the restarted cost there by 2 <g, v> + v' M_k v, with g the
    stationarity gradient at x.  Whoever computes M_k and g (the exact
    tree at its nodes, or the moment forms over the law of the state)
    reduces each step to a residual of g, lambda_min(M_k) and a ``min_gap``
    of -g' M_k^+ g, and hands them to ``record``.

    ``worst_gaps`` holds per step ``{k, min_gap}``; the tree adds a
    ``realised_gap``, the cost change of rolling the minimisers
    v* = -M_k^+ g, which is a diagnostic.  The verdict needs every
    residual <= TOL_STATIONARY and every lambda_min(M_k) and min_gap >=
    -TOL_CONVEXITY.  That covers every deviation: a non-PSD M_k fails the
    convexity term, and a part of g outside range(M_k), along which the
    cost is unbounded below, is no larger than g.
    """

    stationary_residuals: dict = field(default_factory=dict)
    convexity_values: dict = field(default_factory=dict)
    worst_gaps: list = field(default_factory=list)
    tol_stationary: ClassVar[float] = TOL_STATIONARY
    tol_convexity: ClassVar[float] = TOL_CONVEXITY

    @property
    def verdict(self) -> bool:
        lows = [*self.convexity_values.values(), *(g["min_gap"] for g in self.worst_gaps)]
        return (all(v <= TOL_STATIONARY for v in self.stationary_residuals.values())
                and all(v >= -TOL_CONVEXITY for v in lows))

    def record(self, k: int, residual, convexity, min_gap, base, realised_gap=None) -> None:
        """Record step k.  Raises NumericalBreakdown unless every value and
        the restarted cost ``base`` are finite."""
        self.stationary_residuals[k] = float(residual)
        self.convexity_values[k] = float(convexity)
        gap = {"k": k, "min_gap": float(min_gap)}
        if realised_gap is not None:
            gap["realised_gap"] = float(realised_gap)
        self.worst_gaps.append(gap)
        if not (np.isfinite([residual, convexity, *gap.values()]).all()
                and np.isfinite(base).all()):
            raise NumericalBreakdown(f"the restarted cost or certificate is not finite at step {k}")

    def to_dict(self) -> dict:
        return {
            "stationary_residuals": {str(k): v for k, v in self.stationary_residuals.items()},
            "convexity_values": {str(k): v for k, v in self.convexity_values.items()},
            "worst_gaps": [dict(g) for g in self.worst_gaps],
            "verdict": self.verdict,
            "tol_stationary": self.tol_stationary,
            "tol_convexity": self.tol_convexity,
        }
