"""Backward recursions, gain assembly and solvability verdicts.

The solvers fill doubly-indexed tables keyed by (start index k, stage l):
a symmetric pair (P, script-P), a generally nonsymmetric pair (T, script-T)
and an affine term pi.  Row k at stage l needs row k at stage l + 1 and the
gains of step l, and those gains need only row l at stage l + 1.  So the
general solver sweeps stages l = N-1 .. 0 once: at stage l, row l of stage
l + 1 is final, one pseudoinverse fixes the step-l gains, and rows 0..l
then advance to stage l together as stacked arrays.  Every value is final
before anything reads it, which is what makes the order causal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import matrices as mx
from .errors import EpsilonNonPositive, NumericalBreakdown
from .matrices import PsdVerdict
from .model import FAMILY_NAMES, Family, ProblemData

RANGE_TOL = 1e-8


@dataclass
class RecursionTables:
    """Solution tables, keyed by (k, l) with 0 <= k <= N-1, k <= l <= N.

    The stage-sweep solvers give each table as a `Family` over one stacked
    (N, N + 1, ...) array, whose items are views into it.
    """

    N: int
    P: dict = field(default_factory=dict)
    Pcal: dict = field(default_factory=dict)
    T: dict = field(default_factory=dict)
    Tcal: dict = field(default_factory=dict)
    pi: dict = field(default_factory=dict)

    def Pbar(self, k, l):
        return self.Pcal[k, l] - self.P[k, l]

    def Tbar(self, k, l):
        return self.Tcal[k, l] - self.T[k, l]


@dataclass
class GainSchedule:
    """Per-step gain data: W, its pseudoinverse, H, beta and feedback form."""

    W: list
    Wdag: list
    H: list
    beta: list
    Psi: list      # -Wdag @ H
    alpha: list    # -Wdag @ beta

    @property
    def N(self) -> int:
        return len(self.W)

    def control(self, k: int, x: np.ndarray) -> np.ndarray:
        """Feedback value Psi_k x + alpha_k (x may be a stack of states)."""
        return x @ self.Psi[k].T + self.alpha[k]


@dataclass
class SolvabilityReport:
    convexity_margins: list
    convexity_verdicts: list
    M2: list
    rangeH_residuals: list
    rangeBeta_residuals: list
    verdict_all_pairs: bool
    per_pair_note: str
    range_tolerance: float

    def to_dict(self) -> dict:
        return {
            "convexity_margins": [float(v) for v in self.convexity_margins],
            "convexity_psd": [bool(v.is_psd) for v in self.convexity_verdicts],
            "psd_tolerances": [float(v.tolerance_used) for v in self.convexity_verdicts],
            "M2": [m.tolist() for m in self.M2],
            "rangeH_residuals": [float(v) for v in self.rangeH_residuals],
            "rangeBeta_residuals": [float(v) for v in self.rangeBeta_residuals],
            "verdict_all_pairs": bool(self.verdict_all_pairs),
            "per_pair_note": self.per_pair_note,
            "range_tolerance": float(self.range_tolerance),
        }


def _stack(p: ProblemData) -> SimpleNamespace:
    """The problem's (t, k) families as their (N, N, ...) stacks, zero off
    the triangle, plus the script sums (cA = A + Abar, ...) and the
    terminal data G, script-G and g as (N, ...) arrays."""
    s = SimpleNamespace(**{name: getattr(p, name).stacked() for name in FAMILY_NAMES})
    for name in ("A", "B", "C", "D", "Q", "R"):
        setattr(s, "c" + name, getattr(s, name) + getattr(s, name + "bar"))
    s.G = np.array(p.G, dtype=float).reshape(p.N, p.n, p.n)
    s.cG = s.G + np.array(p.Gbar, dtype=float).reshape(p.N, p.n, p.n)
    s.g = np.array(p.g, dtype=float).reshape(p.N, p.n)
    return s


def _t(x: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(x, -1, -2)


def _tables(N: int, **stacks) -> RecursionTables:
    """(N, N + 1, ...) stacked tables, keyed by (k, l) as views into them."""
    return RecursionTables(N, **{name: Family.full(a) for name, a in stacks.items()})


def _check_finite(l: int, row0: int = 0, **stacks) -> None:
    """Raise NumericalBreakdown if a stage-l stack (rows row0, row0 + 1, ...)
    holds a non-finite entry, naming the table and its first bad row."""
    for name, rows in stacks.items():
        if not np.isfinite(rows).all():
            bad = ~np.isfinite(rows.reshape(len(rows), -1)).all(axis=1)
            raise NumericalBreakdown(
                f"stage {l}: {name} is non-finite from row k={row0 + int(np.argmax(bad))}"
            )


def _symmetric_stage(s: SimpleNamespace, P: np.ndarray, Pc: np.ndarray, l: int):
    """Advance rows 0..l of P and script-P from stage l + 1 to stage l.

    Returns the products A' P, C' P, scr-A' scr-P and scr-C' P at stage
    l + 1, which the coupled recursions reuse.
    """
    rows = slice(0, l + 1)
    A, C, cA, cC = s.A[rows, l], s.C[rows, l], s.cA[rows, l], s.cC[rows, l]
    Pn, Pcn = P[rows, l + 1], Pc[rows, l + 1]
    AtP, CtP = _t(A) @ Pn, _t(C) @ Pn
    cAtPc, cCtP = _t(cA) @ Pcn, _t(cC) @ Pn
    P[rows, l] = mx.sym_part(s.Q[rows, l] + AtP @ A + CtP @ C)
    Pc[rows, l] = mx.sym_part(s.cQ[rows, l] + cAtPc @ cA + cCtP @ cC)
    _check_finite(l, P=P[rows, l], Pcal=Pc[rows, l])
    return AtP, CtP, cAtPc, cCtP


# overflow is reported as NumericalBreakdown, so numpy's warnings are silenced
@np.errstate(over="ignore", invalid="ignore")
def solve_symmetric(p: ProblemData) -> RecursionTables:
    """Fill the symmetric tables P and script-P by backward induction.

    For each start index k: P[k][N] = G_k, script-P[k][N] = script-G_k, then
    P[k][l]        = Q + A' P A + C' P C           (plain blocks)
    script-P[k][l] = scr-Q + scr-A' scr-P scr-A + scr-C' P scr-C
    with every result re-symmetrised to kill roundoff drift.  Rows advance
    stage by stage, all rows 0..l of stage l at once.
    """
    N, n = p.N, p.n
    s = _stack(p)
    P, Pc = np.zeros((N, N + 1, n, n)), np.zeros((N, N + 1, n, n))
    P[:, N], Pc[:, N] = s.G, s.cG
    for l in range(N - 1, -1, -1):
        _symmetric_stage(s, P, Pc, l)
    return _tables(N, P=P, Pcal=Pc)


def assemble_m2(p: ProblemData, tables: RecursionTables, k: int) -> np.ndarray:
    """Quadratic coefficient of a one-instant control deviation at step k."""
    cal = p.cal
    cB, cD = cal.B(k, k), cal.D(k, k)
    return cal.R(k, k) + cB.T @ tables.Pcal[k, k + 1] @ cB + cD.T @ tables.P[k, k + 1] @ cD


def convexity_margins(p: ProblemData, tables: RecursionTables,
                      tol: float | None = None) -> tuple[list[PsdVerdict], list[np.ndarray]]:
    """Per-step PSD verdicts for the deviation-cost coefficients."""
    verdicts, mats = [], []
    for k in range(p.N):
        m2 = assemble_m2(p, tables, k)
        mats.append(m2)
        verdicts.append(mx.psd_check(m2, tol))
    return verdicts, mats


@np.errstate(over="ignore", invalid="ignore")
def solve_gdre_global(p: ProblemData, epsilon: float = 0.0,
                      range_tol: float = RANGE_TOL) -> tuple[RecursionTables, GainSchedule, SolvabilityReport]:
    """Solve every table and assemble the gain schedule in one stage sweep.

    For l = N-1 .. 0: the gains of step l are assembled (and their
    pseudoinverse fixed) from row l at stage l + 1, then rows 0..l of P,
    script-P, T, script-T and pi advance to stage l as stacked arrays.
    Each row's arithmetic is that of a per-cell update, operand for
    operand, so a row does not depend on how many rows share its stage.

    ``epsilon`` > 0 adds epsilon * I to the control weight sum inside the
    W blocks only (the perturbed-cost variant); the recursions themselves
    are unchanged apart from flowing through the perturbed pseudoinverses.

    Raises NumericalBreakdown when a stage produces a non-finite entry.
    """
    N, n, m = p.N, p.n, p.m
    s = _stack(p)
    P, Pc, T, Tc = (np.zeros((N, N + 1, n, n)) for _ in range(4))
    pi = np.zeros((N, N + 1, n))
    P[:, N], Pc[:, N], pi[:, N] = s.G, s.cG, s.g
    W, Wdag, H, beta, Psi, alpha = ([None] * N for _ in range(6))

    for l in range(N - 1, -1, -1):
        PT = P[l, l + 1] + T[l, l + 1]
        PcTc = Pc[l, l + 1] + Tc[l, l + 1]
        dA, dB, dC, dD = s.cA[l, l], s.cB[l, l], s.cC[l, l], s.cD[l, l]
        W[l] = s.cR[l, l] + dB.T @ PcTc @ dB + dD.T @ PT @ dD
        if epsilon:
            W[l] = W[l] + epsilon * np.eye(m)
        H[l] = dB.T @ PcTc @ dA + dD.T @ PT @ dC
        beta[l] = dB.T @ (PcTc @ s.f[l, l] + pi[l, l + 1]) + dD.T @ (PT @ s.d[l, l]) + s.rho[l, l]
        _check_finite(l, l, W=W[l][None], H=H[l][None], beta=beta[l][None])
        Wdag[l] = mx.pinv(W[l])
        Psi[l] = -Wdag[l] @ H[l]
        alpha[l] = -Wdag[l] @ beta[l]

        AtP, CtP, cAtPc, cCtP = _symmetric_stage(s, P, Pc, l)
        rows = slice(0, l + 1)
        A, B, C, D = s.A[rows, l], s.B[rows, l], s.C[rows, l], s.D[rows, l]
        cA, cB, cC, cD = s.cA[rows, l], s.cB[rows, l], s.cC[rows, l], s.cD[rows, l]
        Tn, Tcn = T[rows, l + 1], Tc[rows, l + 1]
        AtT, CtT = _t(A) @ Tn, _t(C) @ Tn
        cAtTc, cCtT = _t(cA) @ Tcn, _t(cC) @ Tn
        WdH = Wdag[l] @ H[l]
        Wdb = Wdag[l] @ beta[l]
        wdb = Wdb[:, None]
        T[rows, l] = (
            AtT @ dA + CtT @ dC
            - (AtP @ B + AtT @ dB + CtP @ D + CtT @ dD) @ WdH
        )
        Tc[rows, l] = (
            cAtTc @ dA + cCtT @ dC
            - (cAtPc @ cB + cAtTc @ dB + cCtP @ cD + cCtT @ dD) @ WdH
        )
        # vectors as (n, 1) columns: the matrix-vector products of a single row
        pi[rows, l] = (
            cAtPc @ (s.f[rows, l, :, None] - cB @ wdb)
            + cAtTc @ (s.f[l, l] - dB @ Wdb)[:, None]
            + cCtP @ (s.d[rows, l, :, None] - cD @ wdb)
            + cCtT @ (s.d[l, l] - dD @ Wdb)[:, None]
            + _t(cA) @ pi[rows, l + 1, :, None]
            + s.q[rows, l, :, None]
        )[..., 0]
        _check_finite(l, T=T[rows, l], Tcal=Tc[rows, l], pi=pi[rows, l])

    tables = _tables(N, P=P, Pcal=Pc, T=T, Tcal=Tc, pi=pi)
    gains = GainSchedule(W, Wdag, H, beta, Psi, alpha)
    verdicts, mats = convexity_margins(p, tables)
    res_h = [mx.range_residual(W[k], H[k]) for k in range(N)]
    res_b = [mx.range_residual(W[k], beta[k].reshape(m, 1)) for k in range(N)]
    # finite tables can still have norms that overflow; name the first step, in sweep order
    for k in range(N - 1, -1, -1):
        for name, value in (("convexity margin", verdicts[k].min_eigenvalue),
                            ("PSD tolerance", verdicts[k].tolerance_used),
                            ("range residual of H", res_h[k]),
                            ("range residual of beta", res_b[k])):
            if not np.isfinite(value):
                raise NumericalBreakdown(f"stage {k}: {name} is non-finite (table norms overflow)")
    ok = (
        all(v.is_psd for v in verdicts)
        and all(r <= range_tol for r in res_h)
        and all(r <= range_tol for r in res_b)
    )
    report = SolvabilityReport(
        convexity_margins=[v.min_eigenvalue for v in verdicts],
        convexity_verdicts=verdicts,
        M2=mats,
        rangeH_residuals=res_h,
        rangeBeta_residuals=res_b,
        verdict_all_pairs=ok,
        per_pair_note=(
            "fixed-pair solvability additionally needs the projected residual "
            "(I - W Wdag)(H X + beta) = 0 along the trajectory realised from the "
            "initial pair; it depends on that pair, so this all-pairs report "
            "does not test it"
        ),
        range_tolerance=range_tol,
    )
    return tables, gains, report


def solve_epsilon(p: ProblemData, epsilon: float) -> tuple[GainSchedule, RecursionTables]:
    """Gain schedule of the perturbed problem with control weight + eps * I."""
    if not (epsilon > 0.0):
        raise EpsilonNonPositive(f"epsilon must be > 0, got {epsilon}")
    tables, gains, _ = solve_gdre_global(p, epsilon=float(epsilon))
    return gains, tables


def gains_to_dict(gains: GainSchedule) -> dict:
    return {
        "W": [w.tolist() for w in gains.W],
        "Wdag": [w.tolist() for w in gains.Wdag],
        "H": [h.tolist() for h in gains.H],
        "beta": [b.tolist() for b in gains.beta],
        "Psi": [s.tolist() for s in gains.Psi],
        "alpha": [a.tolist() for a in gains.alpha],
    }


def gains_from_dict(doc: dict) -> GainSchedule:
    return GainSchedule(
        W=[np.asarray(w, dtype=float) for w in doc["W"]],
        Wdag=[np.asarray(w, dtype=float) for w in doc["Wdag"]],
        H=[np.asarray(h, dtype=float) for h in doc["H"]],
        beta=[np.asarray(b, dtype=float) for b in doc["beta"]],
        Psi=[np.asarray(s, dtype=float) for s in doc["Psi"]],
        alpha=[np.asarray(a, dtype=float) for a in doc["alpha"]],
    )


def tables_to_dict(tables: RecursionTables) -> dict:
    """The stage-sweep tables as a document; `model.canonical_dumps` writes
    each `Family` table as an object keyed "k,l"."""
    return {"N": tables.N, "P": tables.P, "Pcal": tables.Pcal, "T": tables.T,
            "Tcal": tables.Tcal, "pi": tables.pi}
