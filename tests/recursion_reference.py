"""Solvers the tests use as oracles for `recursion.solve_gdre_global`.

`affine_feedback_tables` solves the T, script-T and pi recursions of an
arbitrary affine feedback, one start index at a time.  `solve_fixed_pair`
tests the projected range residual along a closed-loop trajectory on the
tree.  `solve_no_meanfield` is the single-family solver of instances
without barred blocks, written with the plain blocks only, so its agreement
with the general solver is a consistency check rather than a re-run of the
same arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from meanfield_lq import matrices as mx
from meanfield_lq import recursion
from meanfield_lq.errors import HorizonMismatch
from meanfield_lq.model import InitialPair, ProblemData
from meanfield_lq.recursion import (RANGE_TOL, GainSchedule, RecursionTables,
                                    SolvabilityReport)
from meanfield_lq.tree import equilibrium_pair


def affine_feedback_tables(p: ProblemData, psi, alpha, k: int,
                           tables: RecursionTables | None = None) -> tuple[dict, dict, dict]:
    """Backward tables for an arbitrary affine feedback u_l = Psi_l x + alpha_l.

    Returns (T, Tbar, pi) rows for start index k as dicts keyed by stage l
    in {k..N}.  With Psi = -Wdag H and alpha = -Wdag beta these coincide
    with the globally solved tables (Tbar being script-T minus T).
    """
    if tables is None:
        tables = recursion.solve_symmetric(p)
    N = p.N
    psi = {l: np.asarray(psi[l], dtype=float) for l in range(k, N)}
    alpha = {l: np.asarray(alpha[l], dtype=float) for l in range(k, N)}
    T = {N: np.zeros((p.n, p.n))}
    Tb = {N: np.zeros((p.n, p.n))}
    pi = {N: p.g[k].copy()}
    for l in range(N - 1, k - 1, -1):
        A, Ab, C, Cb = p.A[k, l], p.Abar[k, l], p.C[k, l], p.Cbar[k, l]
        B, Bb, D, Db = p.B[k, l], p.Bbar[k, l], p.D[k, l], p.Dbar[k, l]
        cA, cB, cC, cD = A + Ab, B + Bb, C + Cb, D + Db
        dA, dB = p.A[l, l] + p.Abar[l, l], p.B[l, l] + p.Bbar[l, l]
        dC, dD = p.C[l, l] + p.Cbar[l, l], p.D[l, l] + p.Dbar[l, l]
        Pn, Pcn = tables.P[k, l + 1], tables.Pcal[k, l + 1]
        Pbn = Pcn - Pn
        Tn, Tbn = T[l + 1], Tb[l + 1]
        Tcn = Tn + Tbn
        T[l] = (
            A.T @ Tn @ dA + C.T @ Tn @ dC
            + (A.T @ Pn @ B + A.T @ Tn @ dB + C.T @ Pn @ D + C.T @ Tn @ dD) @ psi[l]
        )
        Tb[l] = (
            A.T @ Tbn @ dA + Ab.T @ Tcn @ dA + Cb.T @ Tn @ dC
            + (
                A.T @ Pn @ Bb + A.T @ Pbn @ cB + A.T @ Tbn @ dB + C.T @ Pn @ Db
                + Ab.T @ Pcn @ cB + Ab.T @ Tcn @ dB + Cb.T @ Pn @ cD + Cb.T @ Tn @ dD
            ) @ psi[l]
        )
        pi[l] = (
            cA.T @ Pcn @ (cB @ alpha[l] + p.f[k, l])
            + cA.T @ Tcn @ (dB @ alpha[l] + p.f[l, l])
            + cC.T @ Pn @ (cD @ alpha[l] + p.d[k, l])
            + cC.T @ Tn @ (dD @ alpha[l] + p.d[l, l])
            + cA.T @ pi[l + 1]
            + p.q[k, l]
        )
    return T, Tb, pi


@dataclass
class FixedPairReport:
    """Trajectory-dependent solvability check for one initial pair."""

    max_residual: float
    per_step: dict  # k -> max node residual of (I - W Wdag)(H x + beta)
    tolerance: float

    @property
    def satisfied(self) -> bool:
        return self.max_residual <= self.tolerance


def solve_fixed_pair(p: ProblemData, tables: RecursionTables, gains: GainSchedule,
                     init: InitialPair, tree, tol: float = RANGE_TOL) -> FixedPairReport:
    """Roll the closed-loop state on the tree and test the projected residual.

    At every node of every level k >= t the condition
    (I - W_k Wdag_k)(H_k x + beta_k) = 0 must hold for the feedback form of
    the control to solve the stationarity equation; with the all-pairs
    verdict true this is automatic.
    """
    if tree.depth < p.N:
        raise HorizonMismatch(f"tree depth {tree.depth} < horizon {p.N}")
    state = equilibrium_pair(p, gains, init)[0]
    per_step = {}
    worst = 0.0
    for k in range(init.t, p.N):
        proj = np.eye(p.m) - gains.W[k] @ gains.Wdag[k]
        vals = state.values[k] @ gains.H[k].T + gains.beta[k]
        res = float(np.max(np.linalg.norm(vals @ proj.T, axis=1))) if vals.size else 0.0
        per_step[k] = res
        worst = max(worst, res)
    return FixedPairReport(worst, per_step, tol)


# ---------------------------------------------------------------------------
# Dedicated path for instances with no mean-field blocks: the single-family
# recursions collapse every script quantity onto its plain counterpart.

def solve_no_meanfield(p: ProblemData) -> tuple[RecursionTables, GainSchedule, SolvabilityReport]:
    """Solver specialised to instances whose barred blocks all vanish.

    Uses only A, B, C, D, Q, R, G (no sums), so agreement with the general
    solver on bar-free instances is a real consistency check rather than a
    re-run of the same arithmetic.
    """
    N, n, m = p.N, p.n, p.m
    tab = RecursionTables(N)
    for k in range(N):
        tab.P[k, N] = p.G[k].copy()
        for l in range(N - 1, k - 1, -1):
            A, C = p.A[k, l], p.C[k, l]
            Pn = tab.P[k, l + 1]
            tab.P[k, l] = mx.sym_part(p.Q[k, l] + A.T @ Pn @ A + C.T @ Pn @ C)
    for key, val in list(tab.P.items()):
        tab.Pcal[key] = val.copy()

    W = [None] * N
    Wdag = [None] * N
    H = [None] * N
    beta = [None] * N
    Psi = [None] * N
    alpha = [None] * N
    for k in range(N - 1, -1, -1):
        tab.T[k, N] = np.zeros((n, n))
        tab.pi[k, N] = p.g[k].copy()

        def step(l):
            A, C = p.A[k, l], p.C[k, l]
            B, D = p.B[k, l], p.D[k, l]
            dA, dB = p.A[l, l], p.B[l, l]
            dC, dD = p.C[l, l], p.D[l, l]
            Pn, Tn = tab.P[k, l + 1], tab.T[k, l + 1]
            WdH = Wdag[l] @ H[l]
            Wdb = Wdag[l] @ beta[l]
            # P pairs with the wide-index blocks, T with the diagonal ones
            tab.T[k, l] = (
                A.T @ Tn @ dA + C.T @ Tn @ dC
                - (A.T @ Pn @ B + A.T @ Tn @ dB + C.T @ Pn @ D + C.T @ Tn @ dD) @ WdH
            )
            tab.pi[k, l] = (
                A.T @ Pn @ (p.f[k, l] - B @ Wdb)
                + A.T @ Tn @ (p.f[l, l] - dB @ Wdb)
                + C.T @ Pn @ (p.d[k, l] - D @ Wdb)
                + C.T @ Tn @ (p.d[l, l] - dD @ Wdb)
                + A.T @ tab.pi[k, l + 1]
                + p.q[k, l]
            )

        for l in range(N - 1, k, -1):
            step(l)
        B, D = p.B[k, k], p.D[k, k]
        PT = tab.P[k, k + 1] + tab.T[k, k + 1]
        W[k] = p.R[k, k] + B.T @ PT @ B + D.T @ PT @ D
        H[k] = B.T @ PT @ p.A[k, k] + D.T @ PT @ p.C[k, k]
        beta[k] = B.T @ (PT @ p.f[k, k] + tab.pi[k, k + 1]) + D.T @ (PT @ p.d[k, k]) + p.rho[k, k]
        Wdag[k] = mx.pinv(W[k])
        Psi[k] = -Wdag[k] @ H[k]
        alpha[k] = -Wdag[k] @ beta[k]
        step(k)
    for key, val in list(tab.T.items()):
        tab.Tcal[key] = val.copy()

    gains = GainSchedule(W, Wdag, H, beta, Psi, alpha)
    verdicts, mats = recursion.convexity_margins(p, tab)
    res_h = [mx.range_residual(W[k], H[k]) for k in range(N)]
    res_b = [mx.range_residual(W[k], beta[k].reshape(m, 1)) for k in range(N)]
    ok = (
        all(v.is_psd for v in verdicts)
        and all(r <= RANGE_TOL for r in res_h)
        and all(r <= RANGE_TOL for r in res_b)
    )
    report = SolvabilityReport(
        convexity_margins=[v.min_eigenvalue for v in verdicts],
        convexity_verdicts=verdicts,
        M2=mats,
        rangeH_residuals=res_h,
        rangeBeta_residuals=res_b,
        verdict_all_pairs=ok,
        per_pair_note="no-mean-field specialisation",
        range_tolerance=RANGE_TOL,
    )
    return tab, gains, report
