"""Two-pass Monte Carlo estimator, kept as the reference for the blocked kernel.

The closed-loop rollout keeps every step's (paths, n) states and (paths, m)
controls of all paths at once, then a second pass costs the (t, .)-family
system driven by those controls.  Every E_t term is the exact mean, carried
by its own deterministic recursion beside the paths; the noise is the whole
`draw_noise` matrix, drawn in one call.  Same noise, same estimator as
`montecarlo`; only the rounding differs.
"""

import numpy as np

from meanfield_lq import montecarlo as mc
from meanfield_lq.matrices import sym_part


def _sums(p, t, k):
    """The script sums A + Abar, B + Bbar, C + Cbar and D + Dbar of block (t, k)."""
    return tuple(getattr(p, name)[t, k] + getattr(p, name + "bar")[t, k] for name in "ABCD")


def closed_loop_paths(p, gains, x0, t, w):
    """Per-path equilibrium state and control from the feedback schedule,
    and the exact mean of the control at each step."""
    paths = w.shape[0]
    states = {t: np.tile(x0, (paths, 1))}
    controls, control_means = {}, {}
    mean = x0
    for k in range(t, p.N):
        xk = states[k]
        uk = xk @ gains.Psi[k].T + gains.alpha[k]
        controls[k] = uk
        control_means[k] = gains.Psi[k] @ mean + gains.alpha[k]
        cA, cB, cC, cD = _sums(p, k, k)
        drift = xk @ cA.T + uk @ cB.T + p.f[k, k]
        diff = xk @ cC.T + uk @ cD.T + p.d[k, k]
        states[k + 1] = drift + diff * w[:, k - t][:, None]
        mean = cA @ mean + cB @ control_means[k] + p.f[k, k]
    return states, controls, control_means


def family_cost_paths(p, t, x0, controls, control_means, w):
    """Per-path cost of the (t, .)-family system driven by a control table
    whose exact per-step means are ``control_means``."""
    paths = w.shape[0]
    xk = np.tile(x0, (paths, 1))
    mx = x0
    total = np.zeros(paths)
    for k in range(t, p.N):
        uk = controls[k]
        mu = control_means[k]
        total += np.einsum("ni,ij,nj->n", xk, p.Q[t, k], xk)
        total += mx @ p.Qbar[t, k] @ mx
        total += np.einsum("ni,ij,nj->n", uk, p.R[t, k], uk)
        total += mu @ p.Rbar[t, k] @ mu
        total += 2.0 * xk @ p.q[t, k]
        total += 2.0 * uk @ p.rho[t, k]
        drift = (xk @ p.A[t, k].T + p.Abar[t, k] @ mx
                 + uk @ p.B[t, k].T + p.Bbar[t, k] @ mu + p.f[t, k])
        diff = (xk @ p.C[t, k].T + p.Cbar[t, k] @ mx
                + uk @ p.D[t, k].T + p.Dbar[t, k] @ mu + p.d[t, k])
        xk = drift + diff * w[:, k - t][:, None]
        cA, cB, _, _ = _sums(p, t, k)
        mx = cA @ mx + cB @ mu + p.f[t, k]
    total += np.einsum("ni,ij,nj->n", xk, p.G[t], xk)
    total += mx @ p.Gbar[t] @ mx
    total += 2.0 * xk @ p.g[t]
    return total


def simulate(p, init, gains, cfg):
    """`montecarlo.simulate` computed by the two passes."""
    t = init.t
    x0 = np.asarray(init.x, dtype=float)
    w = mc.draw_noise(cfg, cfg.paths, p.N - t)
    states, controls, means = closed_loop_paths(p, gains, x0, t, w)
    costs = family_cost_paths(p, t, x0, controls, means, w)
    std_error = None
    if cfg.paths > 1:
        std_error = float(costs.std(ddof=1) / np.sqrt(cfg.paths))
    moments = []
    for k in range(t, p.N + 1):
        xk = states[k]
        if cfg.paths > 1:
            cov = sym_part(np.cov(xk.T).reshape(p.n, p.n))
        else:
            cov = np.zeros((p.n, p.n))
        moments.append({"k": k, "mean": xk.mean(axis=0), "cov": cov})
    return mc.SimResult(float(costs.mean()), std_error, moments)

