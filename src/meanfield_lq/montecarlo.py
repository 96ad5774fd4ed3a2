"""Monte Carlo simulation of equilibrium trajectories and costs.

Paths are driven by a counter-based generator (Philox keyed by the seed),
so the noise of path i is a pure function of (seed, i): growing the path
count or changing the execution layout never changes existing paths, and
reruns are bit-identical.

Mean-field terms condition on the supplied initial atom, so every E_t in
the dynamics and cost is estimated by the cross-path average at that step.

One kernel, ``_rollout``, makes a single pass over the steps.  It holds the
closed-loop equilibrium state and the (t, .)-family state of all paths in
one (2n, paths) array, one contiguous row per state component, and at each
step adds to the per-path cost and records the state moments.  Apart from
the (paths, N - t) noise matrix it keeps O(n * paths) floats, whatever the
horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyConfig, HorizonMismatch
from .matrices import sym_part
from .model import InitialPair, ProblemData

NOISE_LAWS = ("rademacher", "standard_gaussian")


@dataclass(frozen=True)
class SimConfig:
    paths: int
    seed: int = 0
    noise_law: str = "rademacher"
    keep_paths: int = 0

    def __post_init__(self):
        if self.paths < 1:
            raise EmptyConfig(f"paths must be >= 1, got {self.paths}")
        if self.noise_law not in NOISE_LAWS:
            raise EmptyConfig(f"noise_law must be one of {NOISE_LAWS}")


@dataclass
class SimResult:
    mean_cost: float
    std_error: float | None
    trajectory_moments: list  # [{"k", "mean", "cov"}] for the realised state
    path_sample: np.ndarray | None

    def to_dict(self) -> dict:
        return {
            "mean_cost": float(self.mean_cost),
            "std_error": None if self.std_error is None else float(self.std_error),
            "trajectory_moments": [
                {"k": int(r["k"]), "mean": r["mean"].tolist(), "cov": r["cov"].tolist()}
                for r in self.trajectory_moments
            ],
            "path_sample": None if self.path_sample is None else self.path_sample.tolist(),
        }


def draw_noise(cfg: SimConfig, paths: int, steps: int) -> np.ndarray:
    """(paths, steps) noise matrix; row i depends only on (seed, i)."""
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    u = gen.random((paths, steps))
    if cfg.noise_law == "rademacher":
        return np.where(u < 0.5, -1.0, 1.0)
    from scipy.special import ndtri  # not at the top: it is most of the import time
    tiny = 2.0**-53
    return ndtri(np.clip(u, tiny, 1.0 - tiny))


def _atom_state(p: ProblemData, init: InitialPair) -> np.ndarray:
    x = np.asarray(init.x, dtype=float)
    if x.ndim != 1 or x.shape != (p.n,):
        raise DimensionMismatch(
            "simulation conditions on one information-set atom: pass a deterministic n-vector"
        )
    return x


def _rollout(p: ProblemData, gains, t: int, x0: np.ndarray, w: np.ndarray,
             deviation: np.ndarray | None = None, keep: int = 0):
    """One pass over steps t..N-1: per-path family costs and state moments.

    The closed-loop equilibrium state x and the (t, .)-family state y are
    stacked as z = [x; y], a (2n, paths) array whose column i is path i.
    The control u = Psi_k x + alpha_k is substituted into the blocks, so a
    step is z <- kd z + cd + (kw z + cw) w_k and its per-path cost is
    z' weight z + 2 lin'z plus the mean-field terms.  The family sees
    alpha_t + ``deviation`` at step t; x always follows the equilibrium
    feedback.  E_t factors are cross-path means, consistent because all
    paths share the level-t atom.

    Returns the per-path family cost, the {"k", "mean", "cov"} moments of x
    at steps t..N and the first ``keep`` columns of x at each step as a
    (keep, N-t+1, n) array.
    """
    n, paths = p.n, w.shape[0]
    cal = p.cal
    zero = np.zeros((n, n))
    z = np.repeat(np.concatenate([x0, x0])[:, None], paths, axis=1)
    # fixed buffers: at 1e5 paths, allocating fresh (2n, paths) temporaries
    # at every step measured several times slower than the arithmetic
    nxt, tmp = np.empty_like(z), np.empty_like(z)  # next state; scratch
    wk = np.empty(paths)
    cost = np.zeros(paths)
    offset = 0.0  # path-independent part of the cost
    moments, sample = [], []

    def record(k, mean):
        cov = np.zeros((n, n))
        if paths > 1:
            centred = np.subtract(z[:n], mean[:n, None], out=tmp[:n])
            cov = sym_part(centred @ centred.T * (1.0 / (paths - 1)))
        moments.append({"k": k, "mean": mean[:n], "cov": cov})
        sample.append(z[:n, :keep].T.copy())

    for k in range(t, p.N):
        mean = z.mean(axis=1)
        record(k, mean)
        mx, my = mean[:n], mean[n:]
        psi, alpha = gains.Psi[k], gains.alpha[k]
        af = alpha if deviation is None or k > t else alpha + deviation
        mu = psi @ mx + af
        R, rho = p.R[t, k], p.rho[t, k]
        weight = np.block([[psi.T @ R @ psi, zero], [zero, p.Q[t, k]]])
        lin = np.concatenate([psi.T @ (R @ af + rho), p.q[t, k]])
        np.matmul(weight, z, out=tmp)
        tmp += 2.0 * lin[:, None]
        cost += np.einsum("in,in->n", tmp, z)
        offset += (my @ p.Qbar[t, k] @ my + mu @ p.Rbar[t, k] @ mu
                   + af @ R @ af + 2.0 * rho @ af)

        kd = np.block([[cal.A(k, k) + cal.B(k, k) @ psi, zero], [p.B[t, k] @ psi, p.A[t, k]]])
        kw = np.block([[cal.C(k, k) + cal.D(k, k) @ psi, zero], [p.D[t, k] @ psi, p.C[t, k]]])
        cd = np.concatenate([cal.B(k, k) @ alpha + p.f[k, k],
                             p.B[t, k] @ af + p.Abar[t, k] @ my + p.Bbar[t, k] @ mu + p.f[t, k]])
        cw = np.concatenate([cal.D(k, k) @ alpha + p.d[k, k],
                             p.D[t, k] @ af + p.Cbar[t, k] @ my + p.Dbar[t, k] @ mu + p.d[t, k]])
        np.matmul(kw, z, out=tmp)
        tmp += cw[:, None]
        wk[:] = w[:, k - t]  # one gather of the strided column for all 2n rows
        tmp *= wk
        np.matmul(kd, z, out=nxt)
        nxt += tmp
        nxt += cd[:, None]
        z, nxt = nxt, z

    mean = z.mean(axis=1)
    record(p.N, mean)
    y, my, s = z[n:], mean[n:], tmp[n:]
    np.matmul(p.G[t], y, out=s)
    s += 2.0 * p.g[t][:, None]
    cost += np.einsum("in,in->n", s, y)
    cost += offset + my @ p.Gbar[t] @ my
    return cost, moments, np.stack(sample, axis=1)


def simulate(p: ProblemData, init: InitialPair, gains, cfg: SimConfig) -> SimResult:
    """Estimate the cost of the equilibrium pair at the given initial atom.

    The gain schedule realises the equilibrium control along the per-path
    closed-loop state; the cost is accumulated along the (t, .)-family
    system driven by that control, matching the exact tree evaluation.
    """
    t = init.t
    if t >= p.N:
        raise HorizonMismatch(f"initial time {t} >= horizon {p.N}")
    x0 = _atom_state(p, init)
    w = draw_noise(cfg, cfg.paths, p.N - t)
    keep = min(cfg.keep_paths, cfg.paths)
    costs, moments, sample = _rollout(p, gains, t, x0, w, keep=keep)
    mean_cost = float(costs.mean())
    std_error = None
    if cfg.paths > 1:
        std_error = float(costs.std(ddof=1) / np.sqrt(cfg.paths))
    return SimResult(mean_cost, std_error, moments, sample if keep else None)


def estimate_deviation_gap(p: ProblemData, init: InitialPair, gains, k: int,
                           perturbation, cfg: SimConfig,
                           history=None) -> tuple[float, float | None]:
    """Paired estimate of the one-instant deviation cost gap at step k.

    Conditions on an information-set atom at k (noise history ``history``,
    all +1 by default), rolls the equilibrium pair forward under common
    random numbers, and compares the restarted cost of the deviated control
    (shifted by ``perturbation`` at step k only) against the candidate.
    """
    t = init.t
    if not (t <= k < p.N):
        raise HorizonMismatch(f"deviation step {k} outside {{{t}..{p.N - 1}}}")
    x0 = _atom_state(p, init)
    hist = [1.0] * (k - t) if history is None else [float(h) for h in history]
    if len(hist) != k - t:
        raise DimensionMismatch(f"history must have length {k - t}")
    cal = p.cal
    xk = x0.copy()
    for j in range(t, k):
        u = gains.Psi[j] @ xk + gains.alpha[j]
        drift = cal.A(j, j) @ xk + cal.B(j, j) @ u + p.f[j, j]
        diff = cal.C(j, j) @ xk + cal.D(j, j) @ u + p.d[j, j]
        xk = drift + diff * hist[j - t]

    delta = np.asarray(perturbation, dtype=float)
    if delta.shape != (p.m,):
        raise DimensionMismatch(f"perturbation has shape {delta.shape}, expected ({p.m},)")
    w = draw_noise(cfg, cfg.paths, p.N - k)
    base, _, _ = _rollout(p, gains, k, xk, w)
    pert, _, _ = _rollout(p, gains, k, xk, w, deviation=delta)
    gap = pert - base
    se = None
    if cfg.paths > 1:
        se = float(gap.std(ddof=1) / np.sqrt(cfg.paths))
    return float(gap.mean()), se
