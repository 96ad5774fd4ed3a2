"""Seeded, well-conditioned problem instances for the benchmark workloads.

The generator mirrors the convex mean-field branch of the test suite's
random instance builder, but lives here so that editing a test can never
change a workload.  It draws every block at SCALE = 0.3.  At the test
suite's default scale of 0.5 the long-horizon instances are numerically
meaningless: with n = m = 2 and N = 80 the gains reach 6e10 and a 1e-9
perturbation of the control weight moves them by 22 %.  At 0.3 the tables
and gains stay O(1), which `conditioning` records and `well_conditioned`
enforces for every instance a run uses.
"""

from __future__ import annotations

import numpy as np

from meanfield_lq import model, recursion

SCALE = 0.3

# bounds of the numerics gate; measured values at SCALE are O(1)-O(10)
MAX_TABLE = 1e4
MAX_GAIN = 1e3


def _rand_psd(rng, d, scale):
    a = rng.normal(size=(d, d)) * scale
    return a @ a.T


def make_problem(rng: np.random.Generator, n: int, m: int, N: int,
                 scale: float = SCALE) -> model.ProblemData:
    """Random convex instance with nonzero mean-field blocks on every (t, k)."""
    p = model.ProblemData(n, m, N)
    for t, k in p.pairs():
        p.A[t, k] = rng.normal(size=(n, n)) * scale
        p.C[t, k] = rng.normal(size=(n, n)) * scale
        p.Abar[t, k] = rng.normal(size=(n, n)) * scale
        p.Cbar[t, k] = rng.normal(size=(n, n)) * scale
        for name, bar in (("B", "Bbar"), ("D", "Dbar")):
            getattr(p, name)[t, k] = rng.normal(size=(n, m)) * scale
            getattr(p, bar)[t, k] = rng.normal(size=(n, m)) * 0.5 * scale
        Q = _rand_psd(rng, n, scale)
        Qsum = _rand_psd(rng, n, scale)
        R = _rand_psd(rng, m, scale) + 0.4 * np.eye(m)
        Rsum = _rand_psd(rng, m, scale) + 0.4 * np.eye(m)
        p.Q[t, k] = Q
        p.Qbar[t, k] = Qsum - Q
        p.R[t, k] = R
        p.Rbar[t, k] = Rsum - R
        for name, dim in (("f", n), ("d", n), ("q", n), ("rho", m)):
            getattr(p, name)[t, k] = rng.normal(size=dim) * scale
    for _ in range(N):
        G = _rand_psd(rng, n, scale)
        Gsum = _rand_psd(rng, n, scale)
        p.G.append(G)
        p.Gbar.append(Gsum - G)
        p.g.append(rng.normal(size=n) * scale)
    return p


def tail_problem(p: model.ProblemData, length: int) -> model.ProblemData:
    """The instance restricted to start indices >= N - length, re-indexed from 0.

    Rows k >= N - length of the full solution depend only on this data, so
    solving the tail problem must reproduce them bit for bit.
    """
    if not 1 <= length <= p.N:
        raise ValueError(f"tail length must be in 1..{p.N}, got {length}")
    s = p.N - length
    out = model.ProblemData(p.n, p.m, length)
    for name in model.FAMILY_NAMES:
        src, dst = getattr(p, name), getattr(out, name)
        for t, k in out.pairs():
            dst[t, k] = src[t + s, k + s].copy()
    out.G = [v.copy() for v in p.G[s:]]
    out.Gbar = [v.copy() for v in p.Gbar[s:]]
    out.g = [v.copy() for v in p.g[s:]]
    return out


def tail_gains(gains: recursion.GainSchedule, length: int) -> recursion.GainSchedule:
    """The last `length` steps of a gain schedule, re-indexed from 0."""
    s = gains.N - length
    return recursion.GainSchedule(*(list(getattr(gains, f)[s:]) for f in
                                    ("W", "Wdag", "H", "beta", "Psi", "alpha")))


def conditioning(p: model.ProblemData) -> tuple[dict, recursion.GainSchedule]:
    """Max |table entry|, max |gain entry| and the solver verdict of one instance."""
    tables, gains, report = recursion.solve_gdre_global(p)
    max_table = max(float(np.max(np.abs(v)))
                    for fam in (tables.P, tables.Pcal, tables.T, tables.Tcal, tables.pi)
                    for v in fam.values())
    max_gain = max(float(np.max(np.abs(v))) for v in gains.Psi + gains.alpha)
    record = {"max_abs_table": max_table, "max_abs_gain": max_gain,
              "verdict": bool(report.verdict_all_pairs)}
    return record, gains


def well_conditioned(record: dict) -> bool:
    return (record["verdict"] and record["max_abs_table"] <= MAX_TABLE
            and record["max_abs_gain"] <= MAX_GAIN)


def tampered_gains_doc(gains: recursion.GainSchedule, step: int, delta: float = 1e-2) -> dict:
    """A solve-report-shaped document whose Psi[step][0][0] is shifted by delta."""
    doc = recursion.gains_to_dict(gains)
    doc["Psi"][step][0][0] += delta
    return {"gains": doc}
