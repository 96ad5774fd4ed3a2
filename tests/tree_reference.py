"""An independent exact-tree reference for `tree`, with a sampled certificate.

Every restart, cost, adjoint and variational cost here is its own per-level
loop over (nodes, dim) arrays, written apart from `tree`'s kernels, and
every probe is a separate call.  Its certificate is the sampled one `tree`
used before the exact one: convexity values are minima over unit and
seeded random directions, deviation gaps come from seeded random directions
at the three `DEVIATION_SCALES`, and descent gaps from the per-node
direction -g/|g| at the nodes whose gradient exceeds the stationarity
tolerance.  Where the deviation coefficient M_k is PSD, every sampled value
bounds its exact counterpart from above.

The level helpers (conditional means, lifts, child moments) are its own:
of `tree` it takes only the process type and the closed-loop rollouts.
"""

import numpy as np

from meanfield_lq import tree
from meanfield_lq.model import InitialPair
from meanfield_lq.tree import AdaptedProcess

DEVIATION_SCALES = (1.0, 0.1, 0.01)


def cond_mean(values, level, k):
    """Conditional expectation given level k of a level-`level` process."""
    width = 2 ** (level - k)
    return np.asarray(values, dtype=float).reshape(2**k, width, -1).mean(axis=1)


def lift(values, k, level):
    """Broadcast a level-k process to its level-`level` descendants."""
    return np.repeat(np.asarray(values, dtype=float), 2 ** (level - k), axis=0)


def child_mean(values):
    """E_l of a level-(l+1) process: plain average of the two children."""
    return 0.5 * (values[0::2] + values[1::2])


def child_wmean(values):
    """E_l of (level-(l+1) process * w_l): signed half-difference of children."""
    return 0.5 * (values[0::2] - values[1::2])


def deviated_control(control, k, delta):
    """Copy of a control with the level-k values shifted by ``delta``."""
    out = AdaptedProcess({l: v.copy() for l, v in control.values.items()})
    out.values[k] = out.values[k] + np.asarray(delta, dtype=float)
    return out


def roll_forward(p, init, control, t):
    """Exact state rollout of the system restarted at family index t."""
    control.require(t, p.N - 1, p.m)
    x = np.asarray(init.x, dtype=float)
    state = AdaptedProcess({t: np.tile(x, (2**t, 1)) if x.ndim == 1 else x.copy()})
    for k in range(t, p.N):
        xk = state.values[k]
        uk = control.values[k]
        ex = lift(cond_mean(xk, k, t), t, k)
        eu = lift(cond_mean(uk, k, t), t, k)
        drift = (xk @ p.A[t, k].T + ex @ p.Abar[t, k].T
                 + uk @ p.B[t, k].T + eu @ p.Bbar[t, k].T + p.f[t, k])
        diff = (xk @ p.C[t, k].T + ex @ p.Cbar[t, k].T
                + uk @ p.D[t, k].T + eu @ p.Dbar[t, k].T + p.d[t, k])
        nxt = np.empty((2 ** (k + 1), p.n))
        nxt[0::2] = drift + diff
        nxt[1::2] = drift - diff
        state.values[k + 1] = nxt
    return state


def cost(p, init, control, t, state=None):
    """Exact conditional cost of the (t, .)-family problem, per level-t node."""
    if state is None:
        state = roll_forward(p, init, control, t)
    total = np.zeros(2**t)
    for k in range(t, p.N):
        xk = state.values[k]
        uk = control.values[k]
        qx = np.einsum("ni,ij,nj->n", xk, p.Q[t, k], xk)
        qu = np.einsum("ni,ij,nj->n", uk, p.R[t, k], uk)
        mean_x = cond_mean(xk, k, t)
        mean_u = cond_mean(uk, k, t)
        total += cond_mean(qx[:, None], k, t)[:, 0]
        total += np.einsum("ni,ij,nj->n", mean_x, p.Qbar[t, k], mean_x)
        total += cond_mean(qu[:, None], k, t)[:, 0]
        total += np.einsum("ni,ij,nj->n", mean_u, p.Rbar[t, k], mean_u)
        total += 2.0 * mean_x @ p.q[t, k]
        total += 2.0 * mean_u @ p.rho[t, k]
    xN = state.values[p.N]
    gx = np.einsum("ni,ij,nj->n", xN, p.G[t], xN)
    mean_xN = cond_mean(xN, p.N, t)
    total += cond_mean(gx[:, None], p.N, t)[:, 0]
    total += np.einsum("ni,ij,nj->n", mean_xN, p.Gbar[t], mean_xN)
    total += 2.0 * mean_xN @ p.g[t]
    return total


def solve_bsde(p, forward_state, k):
    """Exact backward pass of the adjoint equation restarted at index k."""
    z = AdaptedProcess()
    xN = forward_state.values[p.N]
    ek_xN = lift(cond_mean(xN, p.N, k), k, p.N)
    z.values[p.N] = xN @ p.G[k].T + ek_xN @ p.Gbar[k].T + p.g[k]
    for l in range(p.N - 1, k - 1, -1):
        zn = z.values[l + 1]
        ez = child_mean(zn)
        ezw = child_wmean(zn)
        ek_z = lift(cond_mean(zn, l + 1, k), k, l)
        ek_zw = lift(cond_mean(ezw, l, k), k, l)
        xl = forward_state.values[l]
        ek_x = lift(cond_mean(xl, l, k), k, l)
        z.values[l] = (
            ez @ p.A[k, l] + ek_z @ p.Abar[k, l]
            + ezw @ p.C[k, l] + ek_zw @ p.Cbar[k, l]
            + xl @ p.Q[k, l].T + ek_x @ p.Qbar[k, l].T + p.q[k, l]
        )
    return z


def stationarity_gradient(p, state_k, control, k):
    """Left side of the first-order condition at step k, per level-k node."""
    z = solve_bsde(p, state_k, k)
    zn = z.values[k + 1]
    cR, cB, cD = (p.R[k, k] + p.Rbar[k, k], p.B[k, k] + p.Bbar[k, k],
                  p.D[k, k] + p.Dbar[k, k])
    return (control.values[k] @ cR.T + child_mean(zn) @ cB + child_wmean(zn) @ cD
            + p.rho[k, k])


def stationarity_residuals(p, init, control, t):
    star = tree.concatenated_state(p, control, init)
    out = {}
    for k in range(t, p.N):
        state_k = roll_forward(p, InitialPair(k, star.values[k]), control, k)
        grad = stationarity_gradient(p, state_k, control, k)
        out[k] = float(np.max(np.linalg.norm(grad, axis=1)))
    return out


def variation_cost(p, k, ubar):
    """Exact cost of a single-instant control variation at step k."""
    ub = np.asarray(ubar, dtype=float)
    scalar_input = ub.ndim == 1
    nodes = np.tile(ub, (2**k, 1)) if scalar_input else ub
    y = AdaptedProcess({k: np.zeros((2**k, p.n))})
    jump_drift = nodes @ (p.B[k, k] + p.Bbar[k, k]).T
    jump_diff = nodes @ (p.D[k, k] + p.Dbar[k, k]).T
    first = np.empty((2 ** (k + 1), p.n))
    first[0::2] = jump_drift + jump_diff
    first[1::2] = jump_drift - jump_diff
    y.values[k + 1] = first
    for l in range(k + 1, p.N):
        yl = y.values[l]
        ek_y = lift(cond_mean(yl, l, k), k, l)
        drift = yl @ p.A[k, l].T + ek_y @ p.Abar[k, l].T
        diff = yl @ p.C[k, l].T + ek_y @ p.Cbar[k, l].T
        nxt = np.empty((2 ** (l + 1), p.n))
        nxt[0::2] = drift + diff
        nxt[1::2] = drift - diff
        y.values[l + 1] = nxt
    total = np.einsum("ni,ij,nj->n", nodes, p.R[k, k] + p.Rbar[k, k], nodes)
    for l in range(k, p.N):
        yl = y.values[l]
        qy = np.einsum("ni,ij,nj->n", yl, p.Q[k, l], yl)
        mean_y = cond_mean(yl, l, k)
        total += cond_mean(qy[:, None], l, k)[:, 0]
        total += np.einsum("ni,ij,nj->n", mean_y, p.Qbar[k, l], mean_y)
    yN = y.values[p.N]
    gy = np.einsum("ni,ij,nj->n", yN, p.G[k], yN)
    mean_yN = cond_mean(yN, p.N, k)
    total += cond_mean(gy[:, None], p.N, k)[:, 0]
    total += np.einsum("ni,ij,nj->n", mean_yN, p.Gbar[k], mean_yN)
    if scalar_input:
        return float(total[0])
    return total


def difference_formula_check(p, k, zeta, u, ubar, lam):
    """Residual of the exact cost-difference expansion at step k."""
    init = InitialPair(k, np.asarray(zeta, dtype=float))
    ub = np.asarray(ubar, dtype=float)
    ub_nodes = np.tile(ub, (2**k, 1)) if ub.ndim == 1 else ub
    state = roll_forward(p, init, u, k)
    j_base = cost(p, init, u, k, state=state)
    j_pert = cost(p, init, deviated_control(u, k, lam * ub_nodes), k)
    lhs = j_pert - j_base
    grad = stationarity_gradient(p, state, u, k)
    quad = variation_cost(p, k, ub_nodes)
    rhs = 2.0 * lam * np.sum(grad * ub_nodes, axis=1) + lam * lam * quad
    return float(np.max(np.abs(lhs - rhs)))


def representation_check(p, gains, t, x, k, tables):
    """Max gap between the exact adjoint and its table representation."""
    init = InitialPair(t, np.asarray(x, dtype=float))
    star, control = tree.equilibrium_pair(p, gains, init)
    state_k = roll_forward(p, InitialPair(k, star.values[k]), control, k)
    z = solve_bsde(p, state_k, k)
    worst = 0.0
    for l in range(k, p.N + 1):
        xl = state_k.values[l]
        xs = star.values[l]
        ek_x = lift(cond_mean(xl, l, k), k, l)
        ek_xs = lift(cond_mean(xs, l, k), k, l)
        pred = (
            (xl - ek_x) @ tables.P[k, l].T
            + ek_x @ tables.Pcal[k, l].T
            + (xs - ek_xs) @ tables.T[k, l].T
            + ek_xs @ tables.Tcal[k, l].T
            + tables.pi[k, l]
        )
        worst = max(worst, float(np.max(np.linalg.norm(z.values[l] - pred, axis=1))))
    return worst


def certify_equilibrium(p, init, control, t, deviations=4, seed=20240801,
                        tol_stationary=1e-8, tol_convexity=1e-9):
    """The sampled certificate, with its convexity values, deviation gaps and
    descent gaps, and the verdict they give."""
    residuals = stationarity_residuals(p, init, control, t)
    rng = np.random.default_rng(seed)
    convexity = {}
    for k in range(t, p.N):
        dirs = [np.eye(p.m)[i] for i in range(p.m)]
        for _ in range(deviations):
            v = rng.normal(size=p.m)
            dirs.append(v / np.linalg.norm(v))
        convexity[k] = min(variation_cost(p, k, v) for v in dirs)

    star = tree.concatenated_state(p, control, init)
    gaps = []
    descent = []
    for k in range(t, p.N):
        restart = InitialPair(k, star.values[k])
        state = roll_forward(p, restart, control, k)
        base = cost(p, restart, control, k, state=state)
        for scale in DEVIATION_SCALES:
            worst = np.inf
            for _ in range(max(1, deviations // 2)):
                v = rng.normal(size=p.m)
                delta = scale * v / np.linalg.norm(v)
                pert = cost(p, restart, deviated_control(control, k, delta), k)
                worst = min(worst, float(np.min(pert - base)))
            gaps.append({"k": k, "scale": scale, "min_gap": worst})
        grad = stationarity_gradient(p, state, control, k)
        moving = np.linalg.norm(grad, axis=1) > tol_stationary
        direction = np.zeros_like(grad)
        direction[moving] = -grad[moving] / np.linalg.norm(grad[moving], axis=1)[:, None]
        for scale in DEVIATION_SCALES:
            pert = cost(p, restart, deviated_control(control, k, scale * direction), k)
            gap = np.where(moving, pert - base, 0.0)
            descent.append({"k": k, "scale": scale, "min_gap": float(np.min(gap))})

    ok = (
        all(v <= tol_stationary for v in residuals.values())
        and all(v >= -tol_convexity for v in convexity.values())
        and all(g["min_gap"] >= -tol_convexity for g in gaps + descent)
    )
    return {
        "stationary_residuals": {str(k): v for k, v in residuals.items()},
        "convexity_values": {str(k): v for k, v in convexity.items()},
        "deviation_gaps": gaps,
        "descent_gaps": descent,
        "verdict": ok,
    }
