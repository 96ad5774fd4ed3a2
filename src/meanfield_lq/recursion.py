"""Backward recursions, gain assembly and solvability verdicts.

The solvers fill doubly-indexed tables keyed by (start index k, stage l):
a symmetric pair (P, script-P), a generally nonsymmetric pair (T, script-T)
and an affine term pi.  Row k at stage l needs row k at stage l + 1 and the
gains of step l, and those gains need only row l at stage l + 1.  So one
sweep over stages l = N-1 .. 0 fills every table (`solve_symmetric` reads
P and script-P off it): at stage l, row l of stage l + 1 is final, one
pseudoinverse fixes the step-l gains, and rows 0..l then advance to stage
l together as stacked arrays.  Every value is final before anything reads
it, which is what makes the order causal.

T, script-T and pi advance through the step-l closed loop of the feedback
u_l = Psi_l X_l + alpha_l, X_{l+1} = Fd X_l + fd + (Fw X_l + fw) w_l: with
dA .. dD the script sums and f_l, d_l the offsets at (l, l), Fd = dA + dB
Psi_l, Fw = dC + dD Psi_l, fd = f_l + dB alpha_l, fw = d_l + dD alpha_l,
and with blocks at (k, l) and tables at stage l + 1 on the right,
T      = A' T Fd + C' T Fw + (A' P B + C' P D) Psi_l
scr-T  = scr-A' scr-T Fd + scr-C' T Fw + (scr-A' scr-P scr-B + scr-C' P scr-D) Psi_l
pi     = scr-A' (scr-P (f + scr-B alpha_l) + scr-T fd + pi)
         + scr-C' (P (d + scr-D alpha_l) + T fw) + q.

One sweep can carry several problems that differ only by a shift
epsilon * I of the control weight in W (`solve_shifts`, which the
epsilon-sweep uses): they sit on a leading batch axis of the gain-dependent
tables, and each member's bits are those of its own one-member sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import matrices as mx, model
from .errors import NumericalBreakdown
from .matrices import PsdVerdict
from .model import Family, ProblemData

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


@dataclass
class GainSchedule:
    """Per-step gain data: W, its pseudoinverse, H, beta and feedback form.

    The fields, in order, are the gain document's schema: each field's
    ``shape`` metadata names the dimensions of its per-step block.
    """

    W: list = field(metadata={"shape": "mm"})
    Wdag: list = field(metadata={"shape": "mm"})
    H: list = field(metadata={"shape": "mn"})
    beta: list = field(metadata={"shape": "m"})
    Psi: list = field(metadata={"shape": "mn"})      # -Wdag @ H
    alpha: list = field(metadata={"shape": "m"})     # -Wdag @ beta

    @property
    def N(self) -> int:
        return len(self.W)


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


def _t(x: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(x, -1, -2)


class _Breakdown(NumericalBreakdown):
    """A breakdown of one member of a batched sweep."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


def _check_finite(l: int, row0: int = 0, **stacks) -> None:
    """Raise NumericalBreakdown if a stage-l stack (batch members, then rows
    row0, row0 + 1, ...) holds a non-finite entry, naming the table and the
    first bad row of the first bad member."""
    for name, rows in stacks.items():
        if not np.isfinite(rows).all():
            bad = ~np.isfinite(rows.reshape(rows.shape[:2] + (-1,))).all(axis=2)
            b = int(np.argmax(bad.any(axis=1)))
            raise _Breakdown(
                f"stage {l}: {name} is non-finite from row k={row0 + int(np.argmax(bad[b]))}", b
            )


def solve_symmetric(p: ProblemData) -> RecursionTables:
    """The symmetric tables P and script-P of `solve_gdre_global`'s sweep.

    For each start index k: P[k][N] = G_k, script-P[k][N] = script-G_k, then
    P[k][l]        = Q + A' P A + C' P C           (plain blocks)
    script-P[k][l] = scr-Q + scr-A' scr-P scr-A + scr-C' P scr-C
    with every result re-symmetrised to kill roundoff drift.  A row's
    arithmetic does not depend on how many rows share its stage.  The sweep
    also assembles the gains, so this raises its NumericalBreakdown.
    """
    tables = solve_gdre_global(p)[0]
    return RecursionTables(p.N, P=tables.P, Pcal=tables.Pcal)


def convexity_margins(p: ProblemData, tables: RecursionTables,
                      stacks: SimpleNamespace | None = None
                      ) -> tuple[list[PsdVerdict], list[np.ndarray]]:
    """Per-step PSD verdicts for M2_k, the quadratic coefficient of a
    one-instant step-k control deviation, from one stacked eigenvalue call.
    ``stacks`` is `model.stacks(p)`, when the caller already has it."""
    s = model.stacks(p) if stacks is None else stacks
    k = np.arange(p.N)
    Pc = np.array([tables.Pcal[j, j + 1] for j in range(p.N)])
    P = np.array([tables.P[j, j + 1] for j in range(p.N)])
    cB, cD = s.cB[k, k], s.cD[k, k]
    m2 = s.cR[k, k] + _t(cB) @ Pc @ cB + _t(cD) @ P @ cD
    return mx.psd_checks(m2), list(m2)


def _sweep(p: ProblemData, shifts: tuple) -> list:
    """The stage sweep of `solve_gdre_global` for every W-shift in
    ``shifts`` at once, one (tables, gains, report) per shift.

    T, script-T, pi and the gains carry the shifts on a leading batch
    axis; P and script-P do not depend on W, so the members share them.
    Raises `_Breakdown` naming the first member to break down.
    """
    N, n, m, nb = p.N, p.n, p.m, len(shifts)
    s = model.stacks(p)
    P, Pc = np.zeros((N, N + 1, n, n)), np.zeros((N, N + 1, n, n))
    T, Tc = np.zeros((nb, N, N + 1, n, n)), np.zeros((nb, N, N + 1, n, n))
    pi = np.zeros((nb, N, N + 1, n))
    P[:, N], Pc[:, N], pi[:, :, N] = s.G, s.cG, s.g
    W, Wdag = np.zeros((nb, N, m, m)), np.zeros((nb, N, m, m))
    H, Psi = np.zeros((nb, N, m, n)), np.zeros((nb, N, m, n))
    beta, alpha = np.zeros((nb, N, m)), np.zeros((nb, N, m))
    # a zero shift adds nothing: 0 * I would turn a -0.0 in W into +0.0
    shifted = np.array(shifts) != 0.0
    shift_eye = np.array(shifts)[shifted, None, None] * np.eye(m)

    for l in range(N - 1, -1, -1):
        PT = P[l, l + 1] + T[:, l, l + 1]
        PcTc = Pc[l, l + 1] + Tc[:, l, l + 1]
        dA, dB, dC, dD = s.cA[l, l], s.cB[l, l], s.cC[l, l], s.cD[l, l]
        Wl = s.cR[l, l] + dB.T @ PcTc @ dB + dD.T @ PT @ dD
        if shifted.any():
            Wl[shifted] += shift_eye
        Hl = dB.T @ PcTc @ dA + dD.T @ PT @ dC
        betal = (dB.T @ (PcTc @ s.f[l, l] + pi[:, l, l + 1])[..., None]
                 + dD.T @ (PT @ s.d[l, l])[..., None])[..., 0] + s.rho[l, l]
        _check_finite(l, l, W=Wl[:, None], H=Hl[:, None], beta=betal[:, None])
        Wdl = mx.pinv(Wl)
        W[:, l], Wdag[:, l], H[:, l], beta[:, l] = Wl, Wdl, Hl, betal
        Psi[:, l] = -Wdl @ Hl
        alpha[:, l] = (-Wdl @ betal[..., None])[..., 0]

        # the step-l closed loop X_{l+1} = Fd X_l + fd + (Fw X_l + fw) w_l
        Psil, al = Psi[:, l, None], alpha[:, l, None, :, None]
        Fd, Fw = dA + dB @ Psil, dC + dD @ Psil
        fd, fw = s.f[l, l, :, None] + dB @ al, s.d[l, l, :, None] + dD @ al

        rows = slice(0, l + 1)
        A, B, C, D = s.A[rows, l], s.B[rows, l], s.C[rows, l], s.D[rows, l]
        cA, cB, cC, cD = s.cA[rows, l], s.cB[rows, l], s.cC[rows, l], s.cD[rows, l]
        Pn, Pcn = P[rows, l + 1], Pc[rows, l + 1]
        AtP, CtP = _t(A) @ Pn, _t(C) @ Pn
        cAtPc, cCtP = _t(cA) @ Pcn, _t(cC) @ Pn
        P[rows, l] = mx.sym_part(s.Q[rows, l] + AtP @ A + CtP @ C)
        Pc[rows, l] = mx.sym_part(s.cQ[rows, l] + cAtPc @ cA + cCtP @ cC)
        _check_finite(l, P=P[None, rows, l], Pcal=Pc[None, rows, l])
        Tn, Tcn = T[:, rows, l + 1], Tc[:, rows, l + 1]
        T[:, rows, l] = _t(A) @ Tn @ Fd + _t(C) @ Tn @ Fw + (AtP @ B + CtP @ D) @ Psil
        Tc[:, rows, l] = (_t(cA) @ Tcn @ Fd + _t(cC) @ Tn @ Fw
                          + (cAtPc @ cB + cCtP @ cD) @ Psil)
        # vectors as (n, 1) columns: the matrix-vector products of a single row
        pi[:, rows, l] = (
            _t(cA) @ (Pcn @ (s.f[rows, l, :, None] + cB @ al) + Tcn @ fd
                      + pi[:, rows, l + 1, :, None])
            + _t(cC) @ (Pn @ (s.d[rows, l, :, None] + cD @ al) + Tn @ fw)
            + s.q[rows, l, :, None]
        )[..., 0]
        _check_finite(l, T=T[:, rows, l], Tcal=Tc[:, rows, l], pi=pi[:, rows, l])

    tables = [RecursionTables(N, *(Family.full(a) for a in (P, Pc, T[b], Tc[b], pi[b])))
              for b in range(nb)]
    verdicts, mats = convexity_margins(p, tables[0], stacks=s)
    margins = [v.min_eigenvalue for v in verdicts]
    psd = all(v.is_psd for v in verdicts)
    res_h = mx.range_residuals(W, Wdag, H)
    res_b = mx.range_residuals(W, Wdag, beta[..., None])
    out = []
    for b in range(nb):
        # finite tables can still have norms that overflow; name the first step, in sweep order
        for k in range(N - 1, -1, -1):
            for name, value in (("convexity margin", margins[k]),
                                ("PSD tolerance", verdicts[k].tolerance_used),
                                ("range residual of H", res_h[b, k]),
                                ("range residual of beta", res_b[b, k])):
                if not np.isfinite(value):
                    raise _Breakdown(f"stage {k}: {name} is non-finite (table norms overflow)", b)
        report = SolvabilityReport(
            convexity_margins=margins,
            convexity_verdicts=verdicts,
            M2=mats,
            rangeH_residuals=res_h[b].tolist(),
            rangeBeta_residuals=res_b[b].tolist(),
            verdict_all_pairs=psd and bool((res_h[b] <= RANGE_TOL).all()
                                           and (res_b[b] <= RANGE_TOL).all()),
            per_pair_note=(
                "fixed-pair solvability additionally needs the projected residual "
                "(I - W Wdag)(H X + beta) = 0 along the trajectory realised from the "
                "initial pair; it depends on that pair, so this all-pairs report "
                "does not test it"
            ),
            range_tolerance=RANGE_TOL,
        )
        gains = GainSchedule(*(list(a[b]) for a in (W, Wdag, H, beta, Psi, alpha)))
        out.append((tables[b], gains, report))
    return out


def solve_gdre_global(p: ProblemData) -> tuple[RecursionTables, GainSchedule, SolvabilityReport]:
    """Solve every table and assemble the gain schedule in one stage sweep.

    For l = N-1 .. 0: the gains of step l are assembled (and their
    pseudoinverse fixed) from row l at stage l + 1, then rows 0..l of P and
    script-P advance to stage l, and those of T, script-T and pi through
    the step-l closed-loop maps (module docstring).  A row's arithmetic
    does not depend on how many rows or members share its stage.

    Raises NumericalBreakdown when a stage produces a non-finite entry.
    """
    return solve_shifts(p, (0.0,))[0]


@np.errstate(over="ignore", invalid="ignore")
def solve_shifts(p: ProblemData, shifts
                 ) -> list[tuple[RecursionTables, GainSchedule, SolvabilityReport]]:
    """`solve_gdre_global` for every control-weight shift in ``shifts``, in
    one stage sweep: one (tables, gains, report) per shift, each bit for
    bit that of its own one-member sweep.  A shift eps adds eps * I to the
    control weight sum inside the W blocks only (the perturbed-cost
    variant); the recursions themselves are unchanged apart from flowing
    through the perturbed pseudoinverses.

    Raises the NumericalBreakdown that solving the shifts one after another
    would raise first; a shifted member's message names its eps.
    """
    shifts = tuple(float(e) for e in shifts)
    if not shifts:
        return []
    try:
        return _sweep(p, shifts)
    except _Breakdown as exc:
        if exc.member:  # an earlier member may still break down at a later stage
            solve_shifts(p, shifts[:exc.member])
        eps = shifts[exc.member]
        raise NumericalBreakdown(f"{exc} (eps={eps!r})" if eps else str(exc)) from None


def gains_to_dict(gains: GainSchedule) -> dict:
    return {f.name: [b.tolist() for b in getattr(gains, f.name)] for f in fields(GainSchedule)}


def gains_from_dict(doc: dict) -> GainSchedule:
    return GainSchedule(**{f.name: [np.asarray(b, dtype=float) for b in doc[f.name]]
                           for f in fields(GainSchedule)})


def tables_to_dict(tables: RecursionTables) -> dict:
    """The stage-sweep tables as a document; `model.canonical_dumps` writes
    each `Family` table as an object keyed "k,l"."""
    return {"N": tables.N, "P": tables.P, "Pcal": tables.Pcal, "T": tables.T,
            "Tcal": tables.Tcal, "pi": tables.pi}
