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

The sweep runs in homogeneous coordinates (X, 1), with pi as script-T's
last column.  With [A f B], [C d D] the step blocks at (k, l) and dA .. dD
the script sums at (l, l), the step-l gains come out of one product chain,
[H | beta | W] = [0 | rho | scr-R] + dB' [scr-P + scr-T | pi] [dA f dB; 0 1 0]
                 + dD' (P + T) [dC d dD],   Psi~ = [Psi | alpha] = -W^+ [H | beta],
the closed loop is F~d = [dA f; 0 1] + [dB; 0] Psi~, [Fw | fw] = [dC d] + dD Psi~,
and with tables at stage l + 1 on the right, one update gives
[scr-T | pi] = scr-A' [scr-T | pi] F~d + scr-C' T [Fw | fw] + [0 | q + scr-A' scr-P f
               + scr-C' P d] + (scr-A' scr-P scr-B + scr-C' P scr-D) Psi~;
T is the same update in the plain blocks and tables, its last column dropped.
Each (plain, script) pair shares one axis, so P and script-P advance in one
expression and T and script-T in another.  A stage's gains are tested once;
the tables are scanned once, at the end, in sweep order.

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


def _scan_finite(N: int, bases: tuple, **stacks) -> None:
    """Unless the arrays ``bases`` are finite, raise `_Breakdown` at the first
    non-finite block of the stacks (views of them) in sweep order: stage, stack,
    member, row.  Gains are (member, stage l, block), tables (member, k, l, block)."""
    if all(np.isfinite(a).all() for a in bases):
        return
    for l in range(N - 1, -1, -1):
        for name, a in stacks.items():
            bad = ~np.isfinite(a[:, l, None] if a.ndim == 4 else a[:, :, l]).all(axis=(-2, -1))
            if bad.any():
                b = int(np.argmax(bad.any(axis=1)))
                raise _Breakdown(f"stage {l}: {name} is non-finite from row "
                                 f"k={l if a.ndim == 4 else int(np.argmax(bad[b]))}", b)


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
    ``shifts``, one (tables, gains, report) per shift.  Tables are
    stage-major [.., l, k, pair]: a member's rows 0..l times a step-l map
    are one (2 (l + 1) n, n + 1) matrix product, never a vector one, so no
    row's bits depend on l.  Raises `_Breakdown` naming the first member to
    break down."""
    N, n, m, nb = p.N, p.n, p.m, len(shifts)
    s = model.stacks(p)
    # (plain, script) pairs of the row blocks [A f B], [C d D] and [Q q], as [l, k, pair]
    A, C, Q = (np.stack([np.concatenate(blocks, -1) for blocks in pair], axis=2).swapaxes(0, 1)
               for pair in (((s.A, s.f[..., None], s.B), (s.cA, s.f[..., None], s.cB)),
                            ((s.C, s.d[..., None], s.D), (s.cC, s.d[..., None], s.cD)),
                            ((s.Q, s.q[..., None]), (s.cQ, s.q[..., None]))))
    # A' of each pair; the pair's C' as one (2n, n) block, since both multiply plain tables
    At, Ct = _t(A[..., :n]), _t(C[..., :n]).reshape(N, N, 2 * n, n)
    # per step l, the script blocks at (l, l), homogeneous: [dC d dD; 0 0 0], [dA f dB; 0 1 0]
    k = np.arange(N)
    step = np.zeros((N, 2, n + 1, n + 1 + m))
    step[:, 0, :n], step[:, 1, :n], step[:, 1, n, n] = C[k, k, 1], A[k, k, 1], 1.0
    weight = np.concatenate((np.zeros((N, m, n)), s.rho[k, k, :, None], s.cR[k, k]), -1)
    # a zero shift adds nothing: 0 * I would turn a -0.0 in W into +0.0
    shifted = np.array(shifts) != 0.0
    shift_eye = np.array(shifts)[shifted, None, None] * np.eye(m) if shifted.any() else None

    # tables [.., l, k, pair]; gains [H | beta | W], W^+ and Psi~ = [Psi | alpha]
    PP, TT = np.zeros((N + 1, N, 2, n, n)), np.zeros((nb, N + 1, N, 2, n, n + 1))
    PP[N, :, 0], PP[N, :, 1], TT[:, N, :, 1, :, n] = s.G, s.cG, s.g
    HBW, Wdag, Psit = (np.zeros((nb, N, m, width)) for width in (n + 1 + m, m, n + 1))

    for l in range(N - 1, -1, -1):
        S = TT[:, l + 1, l].copy()      # [P + T | 0], [script-P + script-T | pi]
        S[..., :n] += PP[l + 1, l]
        gains = weight[l] + (_t(step[l, :, :n, n + 1:]) @ (S @ step[l])).sum(axis=1)
        if shift_eye is not None:       # after the sum, so that a tiny eps is not absorbed
            gains[shifted, :, n + 1:] += shift_eye
        HBW[:, l] = gains
        if not np.isfinite(gains).all():
            break
        Wdag[:, l] = Wd = mx.pinv(gains[..., n + 1:])
        Psit[:, l] = -Wd @ gains[..., :n + 1]
        # the step-l closed loop: F~w = [dC d; 0 0] + [dD; 0] Psi~, and F~d likewise
        Fw, Fd = (step[l, :, :, :n + 1] + step[l, :, :, n + 1:] @ Psit[:, l, None]).swapaxes(0, 1)

        r, rows = l + 1, (nb, l + 1, 2, n, n + 1)
        AtP, CtP = At[l, :r] @ PP[l + 1, :r], (Ct[l, :r] @ PP[l + 1, :r, 0]).reshape(r, 2, n, n)
        X, Y = AtP @ A[l, :r], CtP @ C[l, :r]        # [A'PA A'Pf A'PB], [C'PC C'Pd C'PD]
        Z = Q[l, :r] + X[..., :n + 1] + Y[..., :n + 1]      # [Q + A'PA + C'PC | q + ..]
        PP[l, :r] = mx.sym_part(Z[..., :n])
        Tn = TT[:, l + 1, :r].reshape(nb, -1, n + 1)
        G = (X[..., n + 1:] + Y[..., n + 1:]).reshape(-1, m)
        TT[:, l, :r] = (At[l, :r] @ (Tn @ Fd).reshape(rows)
                        + (Ct[l, :r] @ (Tn @ Fw).reshape(rows)[:, :, 0]).reshape(rows)
                        + (G @ Psit[:, l]).reshape(rows))
        TT[:, l, :r, :, :, n] += Z[..., n]
        TT[:, l, :r, 0, :, n] = 0.0      # plain T has no affine column

    PP, TT = PP.transpose(2, 1, 0, 3, 4), TT.transpose(0, 3, 2, 1, 4, 5)   # [.., pair, k, l]
    H, beta, W = HBW[..., :n], HBW[..., n:n + 1], HBW[..., n + 1:]
    T, Tc, pi = TT[:, 0, ..., :n], TT[:, 1, ..., :n], TT[:, 1, ..., n]
    _scan_finite(N, (HBW, PP, TT), W=W, H=H, beta=beta, P=PP[None, 0], Pcal=PP[None, 1],
                 T=T, Tcal=Tc, pi=TT[:, 1, ..., n:])
    tables = [RecursionTables(N, *(Family.full(a) for a in (PP[0], PP[1], T[b], Tc[b], pi[b])))
              for b in range(nb)]
    verdicts, mats = convexity_margins(p, tables[0], stacks=s)
    margins = [v.min_eigenvalue for v in verdicts]
    psd = all(v.is_psd for v in verdicts)
    res_h = mx.range_residuals(W, Wdag, H)
    res_b = mx.range_residuals(W, Wdag, beta)
    tolerances, out = [v.tolerance_used for v in verdicts], []
    for b in range(nb):
        # finite tables can still have norms that overflow; name the first step, in sweep order
        bad = ~np.isfinite([margins, tolerances, res_h[b], res_b[b]])
        if bad.any():
            k = int(np.flatnonzero(bad.any(axis=0))[-1])
            name = ("convexity margin", "PSD tolerance", "range residual of H",
                    "range residual of beta")[int(np.argmax(bad[:, k]))]
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
        gains = GainSchedule(*(list(a[b]) for a in (W, Wdag, H, beta[..., 0], Psit[..., :n],
                                                     Psit[..., n])))
        out.append((tables[b], gains, report))
    return out


def solve_gdre_global(p: ProblemData) -> tuple[RecursionTables, GainSchedule, SolvabilityReport]:
    """Solve every table and assemble the gain schedule in one stage sweep
    (module docstring).  A row's arithmetic does not depend on how many
    rows or members share its stage.

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
    variant); the members share P and script-P.

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
