"""Small dense-matrix kernel: pseudoinverse, PSD verdicts, tiny spectra.

Everything here operates on plain ``numpy`` arrays of modest size (the
solvers never exceed a few dozen rows), favouring explicit tolerances over
cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonSquare

UNIT_ROUNDOFF = float(np.finfo(np.float64).eps)


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    return a


def sym_part(m: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T) / 2 (of every matrix in a stack)."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def fro(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m, dtype=float)))


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test with an explicit margin."""

    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


def pinv(m) -> np.ndarray:
    """Moore-Penrose inverse via SVD.

    Singular values sigma_i <= max(rows, cols) * u * sigma_max are treated
    as zero, with u the double-precision unit roundoff.  The input is
    scale-normalised first (the cutoff criterion is scale-invariant), so
    extreme magnitudes do not overflow intermediate quantities.
    """
    a = _as_matrix(m, "pinv input")
    if a.size and not np.all(np.isfinite(a)):
        raise NonFinite("pinv: input has non-finite entries")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return a.T.copy()
    u, s, vt = np.linalg.svd(a / scale, full_matrices=False)
    cutoff = max(a.shape) * UNIT_ROUNDOFF * s[0]
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return ((vt.T * inv) @ u.T) / scale


def penrose_residuals(m, m_dag) -> tuple[float, float, float, float]:
    """Frobenius residuals of the four Penrose identities for (M, M^+)."""
    a = _as_matrix(m)
    d = _as_matrix(m_dag)
    ad = a @ d
    da = d @ a
    return (
        fro(ad @ a - a),
        fro(da @ d - d),
        fro(ad.T - ad),
        fro(da.T - da),
    )


def psd_check(m, tol: float | None = None) -> PsdVerdict:
    """Smallest eigenvalue of the symmetrised matrix against a tolerance.

    ``tol`` defaults to 1e-9 * (1 + ||M||_F).  Callers are expected to pass
    symmetric matrices; the symmetrisation only guards against roundoff.
    """
    a = _as_matrix(m, "psd_check input")
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"psd_check needs a square matrix, got {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise NonFinite("psd_check: input has non-finite entries")
    if tol is None:
        tol = 1e-9 * (1.0 + fro(a))
    if a.size == 0:
        return PsdVerdict(True, float("inf"), float(tol))
    lam_min = float(np.linalg.eigvalsh(sym_part(a))[0])
    return PsdVerdict(lam_min >= -tol, lam_min, float(tol))


def sym_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of the symmetrised matrix."""
    a = _as_matrix(m, "sym_eigenvalues input")
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"sym_eigenvalues needs a square matrix, got {a.shape}")
    return np.linalg.eigvalsh(sym_part(a))


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
    proj = a @ pinv(a)
    return fro(b - proj @ b) / (1.0 + fro(b))


def eig_general_2x2(m) -> tuple[complex, complex]:
    """Eigenvalues of a (possibly nonsymmetric) 2x2 matrix.

    Quadratic formula with a cancellation-safe root pairing; complex pairs
    are returned as conjugates.  Larger nonsymmetric spectra are out of
    scope for this kernel.
    """
    a = _as_matrix(m, "eig_general_2x2 input")
    if a.shape != (2, 2):
        raise DimensionMismatch(f"eig_general_2x2 needs a 2x2 matrix, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("eig_general_2x2: input has non-finite entries")
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = tr * tr - 4.0 * det
    if disc < 0.0:
        s = np.sqrt(-disc)
        return complex(tr / 2.0, s / 2.0), complex(tr / 2.0, -s / 2.0)
    s = np.sqrt(disc)
    # take the larger-magnitude root first, recover the other from det
    r1 = (tr + s) / 2.0 if tr >= 0.0 else (tr - s) / 2.0
    r2 = det / r1 if r1 != 0.0 else 0.0
    return complex(r1), complex(r2)
