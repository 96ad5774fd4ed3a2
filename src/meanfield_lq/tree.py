"""Exact probability-tree engine for binary (Rademacher) noise.

Every operation here is brute force on the complete binary tree, a plain
loop over levels on (2**l, dim) arrays, one restart and one control at a
time: E_k is the mean over each level-k subtree, and a noise-weighted
expectation is the signed half-difference of two children.  Nothing in this
module consults the backward recursions, so it can serve as an independent
oracle for them.  The coefficients come from `model.stacks`.

One restart kernel, `_roll`, moves every state: X* advances by one `_roll`
level of the system restarted at each step, the concatenation of one-step
restarts.  Node families live here too: `_nodes` lays out an atom (one
vector for every node) or a family (one row per node) as node rows.

Node convention: the level-k node with index i has children 2*i (noise +1)
and 2*i + 1 (noise -1) at level k+1; node probability is 2**-k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, HorizonMismatch
from .matrices import EquilibriumCertificate, eigh_pinv
from .model import InitialPair, ProblemData, stacks

MAX_DEPTH = 14


class ScenarioTree:
    """Complete binary tree of a given depth with a memory guard."""

    def __init__(self, depth: int):
        if depth < 0:
            raise HorizonMismatch(f"tree depth must be >= 0, got {depth}")
        if depth > MAX_DEPTH:
            raise HorizonMismatch(f"tree depth {depth} exceeds the cap {MAX_DEPTH}")
        self.depth = depth


@dataclass
class AdaptedProcess:
    """Per-node values of a tree-adapted process, keyed by level."""

    values: dict = field(default_factory=dict)

    def require(self, lo: int, hi: int, dim: int | None = None):
        for lev in range(lo, hi + 1):
            if lev not in self.values:
                raise HorizonMismatch(f"process missing level {lev}")
            v = self.values[lev]
            if v.shape[0] != 2**lev:
                raise DimensionMismatch(f"level {lev} has {v.shape[0]} nodes, expected {2**lev}")
            if dim is not None and v.shape[1] != dim:
                raise DimensionMismatch(f"level {lev} has dim {v.shape[1]}, expected {dim}")


def _check_tree(p: ProblemData, tree: ScenarioTree | None) -> None:
    if tree is None:
        ScenarioTree(p.N)
    elif tree.depth < p.N:
        raise HorizonMismatch(f"tree depth {tree.depth} < horizon {p.N}")


def _nodes(v, level: int, width: int, what: str) -> np.ndarray:
    """``v`` as level-``level`` node rows, (2**level, width): an atom (a
    ``width``-vector) is tiled, a node family is copied."""
    v = np.asarray(v, dtype=float)
    if v.shape == (width,):
        return np.tile(v, (2**level, 1))
    if v.shape != (2**level, width):
        raise DimensionMismatch(
            f"{what} has shape {v.shape}, expected ({width},) or {(2**level, width)}")
    return v.copy()


# Level kernels on (2**l, dim) arrays; ``s`` is `model.stacks` of the problem.

def _mean(v: np.ndarray, k: int) -> np.ndarray:
    """E_k of a level-l array: its mean over each level-k subtree, (2**k, dim)."""
    return v.reshape(2**k, -1, v.shape[-1]).mean(axis=1)


def _lift(v: np.ndarray, nodes: int) -> np.ndarray:
    """A level-k array at the ``nodes`` nodes of a level below: each takes its ancestor's row."""
    return np.repeat(v, nodes // len(v), axis=0)


def _roll(s, t: int, x: np.ndarray, us: list, one: float = 1.0) -> list:
    """States of the (t, .)-family system at levels t..N, from the level-t
    state ``x`` under the level-l controls ``us[l - t]``.  ``one`` multiplies
    f and d; from x = 0 with one = 0 this is the variational system."""
    xs = [x]
    for l, u in enumerate(us, start=t):
        x = xs[-1]
        ex, eu = _mean(x, t), _mean(u, t)
        drift = x @ s.A[t, l].T + u @ s.B[t, l].T + _lift(
            ex @ s.Abar[t, l].T + eu @ s.Bbar[t, l].T + one * s.f[t, l], len(x))
        diff = x @ s.C[t, l].T + u @ s.D[t, l].T + _lift(
            ex @ s.Cbar[t, l].T + eu @ s.Dbar[t, l].T + one * s.d[t, l], len(x))
        nxt = np.empty((2 * len(x), x.shape[1]))  # children: noise +1, then -1
        nxt[0::2], nxt[1::2] = drift + diff, drift - diff
        xs.append(nxt)
    return xs


def _weigh(v: np.ndarray, t: int, W: np.ndarray, Wbar: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E_t v'Wv + (E_t v)' Wbar E_t v + 2 w' E_t v per level-t node."""
    ev = _mean(v, t)
    quad = np.sum((v @ W) * v, axis=1, keepdims=True)
    return _mean(quad, t)[:, 0] + np.sum((ev @ Wbar) * ev, axis=1) + 2.0 * ev @ w


def _cost(s, t: int, xs: list, us: list, one: float = 1.0) -> np.ndarray:
    """Conditional cost per level-t node of a roll: states ``xs`` at levels
    t..N under controls ``us``.  ``one`` multiplies q, rho and g."""
    total = _weigh(xs[-1], t, s.G[t], s.Gbar[t], one * s.g[t])
    for l, (x, u) in enumerate(zip(xs, us), start=t):
        total += _weigh(x, t, s.Q[t, l], s.Qbar[t, l], one * s.q[t, l])
        total += _weigh(u, t, s.R[t, l], s.Rbar[t, l], one * s.rho[t, l])
    return total


def _child_means(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E_l z and E_l (z w) of a level-(l+1) array, from each child pair."""
    return 0.5 * (z[0::2] + z[1::2]), 0.5 * (z[0::2] - z[1::2])


def _adjoint(s, k: int, xs: list) -> list:
    """The adjoint (BSDE) of the (k, .)-family system along the states ``xs``
    of levels k..N, as a list over the same levels."""
    x = xs[-1]
    zs = [x @ s.G[k].T + _lift(_mean(x, k) @ s.Gbar[k].T + s.g[k], len(x))]
    for l in range(k + len(xs) - 2, k - 1, -1):
        x = xs[l - k]
        ez, ezw = _child_means(zs[-1])
        zs.append(ez @ s.A[k, l] + ezw @ s.C[k, l] + x @ s.Q[k, l].T + _lift(
            _mean(ez, k) @ s.Abar[k, l] + _mean(ezw, k) @ s.Cbar[k, l]
            + _mean(x, k) @ s.Qbar[k, l].T + s.q[k, l], len(x)))
    return zs[::-1]


def _gradient(s, k: int, u: np.ndarray, xs: list) -> np.ndarray:
    """Step-k stationarity gradient per level-k node, (2**k, m), from the
    level-k control ``u`` and the adjoint along ``xs`` at level k + 1."""
    ez, ezw = _child_means(_adjoint(s, k, xs)[1])
    return u @ s.cR[k, k].T + ez @ s.cB[k, k] + ezw @ s.cD[k, k] + s.rho[k, k]


def _variation(s, k: int, ub: np.ndarray) -> np.ndarray:
    """Cost per level-k node of the step-k variation ``ub``, (2**k, m)."""
    N, n = s.g.shape
    us = [ub] + [np.zeros((2**l, ub.shape[1])) for l in range(k + 1, N)]
    return _cost(s, k, _roll(s, k, np.zeros((2**k, n)), us, one=0.0), us, one=0.0)


def _deviation_matrices(s, t: int) -> np.ndarray:
    """M_k for k = t..N-1, (N - t, m, m): the quadratic part of the restarted
    cost in the step-k control, which is the cost of the variational system.
    Its coefficients are deterministic and an F_k-measurable variation is one
    constant vector on each level-k subtree, so M_k is the same at every
    node; polarisation reads it off the costs c of the node-constant
    variations e_i and e_i + e_j:
    M_ii = c(e_i), M_ij = (c(e_i + e_j) - c(e_i) - c(e_j)) / 2."""
    m = s.rho.shape[-1]
    (i, j), eye = np.triu_indices(m, 1), np.eye(m)
    probes = np.concatenate((eye, eye[i] + eye[j]))
    Ms = np.zeros((len(s.g) - t, m, m))
    for k, M in enumerate(Ms, start=t):
        c = np.array([_variation(s, k, np.tile(v, (2**k, 1)))[0] for v in probes])
        M[np.diag_indices(m)] = c[:m]
        M[i, j] = M[j, i] = 0.5 * (c[m:] - c[i] - c[j])
    return Ms


# Public per-call operations.

def roll_forward(p: ProblemData, init: InitialPair, control: AdaptedProcess,
                 t: int) -> AdaptedProcess:
    """Exact state rollout of the system restarted at family index t; the E_t
    terms in the dynamics are subtree averages at each node's level-t ancestor."""
    ScenarioTree(p.N)  # the depth cap
    control.require(t, p.N - 1, p.m)
    if init.t != t:
        raise HorizonMismatch(f"initial pair is at t={init.t}, rollout starts at {t}")
    us = [control.values[l] for l in range(t, p.N)]
    xs = _roll(stacks(p), t, _nodes(init.x, t, p.n, "initial state"), us)
    return AdaptedProcess(dict(enumerate(xs, start=t)))


def cost(p: ProblemData, init: InitialPair, control: AdaptedProcess, t: int) -> np.ndarray:
    """Exact conditional cost of the (t, .)-family problem, per level-t node."""
    xs = list(roll_forward(p, init, control, t).values.values())
    return _cost(stacks(p), t, xs, [control.values[l] for l in range(t, p.N)])


def _closed_loop(p: ProblemData, init: InitialPair,
                 policy) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Restart-at-every-step rollout: level k advances to level k + 1 by one
    `_roll` level of the system restarted at k, so X* is the concatenation
    of one-step restarts.  ``policy(k, x_k)`` gives u_k.
    """
    s = stacks(p)
    state = AdaptedProcess({init.t: _nodes(init.x, init.t, p.n, "initial state")})
    control = AdaptedProcess()
    for k in range(init.t, p.N):
        control.values[k] = uk = policy(k, state.values[k])
        state.values[k + 1] = _roll(s, k, state.values[k], [uk])[1]
    return state, control


def concatenated_state(p: ProblemData, control: AdaptedProcess,
                       init: InitialPair) -> AdaptedProcess:
    """State realised when the problem is restarted at every step."""
    ScenarioTree(p.N)  # the depth cap
    control.require(init.t, p.N - 1, p.m)
    return _closed_loop(p, init, lambda k, _: control.values[k])[0]


def equilibrium_pair(p: ProblemData, gains, init: InitialPair,
                     tree: ScenarioTree | None = None) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Closed-loop state and the control it realises, from a gain schedule."""
    _check_tree(p, tree)
    return _closed_loop(p, init, lambda k, x: x @ gains.Psi[k].T + gains.alpha[k])


def solve_bsde(p: ProblemData, forward_state: AdaptedProcess, k: int) -> AdaptedProcess:
    """Exact backward pass of the adjoint equation restarted at index k.  The
    stage-l value mixes the one-step child mean (E_l), the child half-difference
    (E_l of the noise-weighted value) and level-k subtree averages for the
    barred coefficients."""
    ScenarioTree(p.N)  # the depth cap
    forward_state.require(k, p.N, p.n)
    xs = [forward_state.values[l] for l in range(k, p.N + 1)]
    return AdaptedProcess(dict(enumerate(_adjoint(stacks(p), k, xs), start=k)))


def stationarity_gradient(p: ProblemData, state_k: AdaptedProcess,
                          control: AdaptedProcess, k: int) -> np.ndarray:
    """Left side of the first-order condition at step k, per level-k node."""
    ScenarioTree(p.N)  # the depth cap
    state_k.require(k, p.N, p.n)
    xs = [state_k.values[l] for l in range(k, p.N + 1)]
    return _gradient(stacks(p), k, control.values[k], xs)


def stationarity_residuals(p: ProblemData, init: InitialPair, control: AdaptedProcess,
                           t: int) -> dict:
    """Max node-wise norm of the stationarity equation for each k in {t..N-1},
    the system restarted at (k, X*_k) along the candidate control."""
    star = concatenated_state(p, control, init)
    s = stacks(p)
    out = {}
    for k in range(t, p.N):
        us = [control.values[l] for l in range(k, p.N)]
        grad = _gradient(s, k, us[0], _roll(s, k, star.values[k], us))
        out[k] = float(np.max(np.linalg.norm(grad, axis=1)))
    return out


def variation_cost(p: ProblemData, k: int, ubar):
    """Exact cost of a single-instant control variation at step k.

    ``ubar`` is either an m-vector (same variation at every level-k node,
    returns a float) or a (2**k, m) node family (returns per-node values).
    The variational state starts at zero, jumps through the summed input
    blocks at step k and then follows the homogeneous dynamics.
    """
    ScenarioTree(p.N)  # the depth cap
    costs = _variation(stacks(p), k, _nodes(ubar, k, p.m, "ubar"))
    return float(costs[0]) if np.ndim(ubar) == 1 else costs


def difference_formula_check(p: ProblemData, k: int, zeta, u: AdaptedProcess,
                             ubar, lam: float) -> float:
    """Residual of the exact cost-difference expansion at step k.

    Left side: two exact cost evaluations differing only in the step-k
    control.  Right side: linear term through the restarted adjoint plus
    lam**2 times the variational cost.  Returns the max node-wise gap.
    """
    ScenarioTree(p.N)  # the depth cap
    u.require(k, p.N - 1, p.m)
    zeta, ub_nodes = _nodes(zeta, k, p.n, "zeta"), _nodes(ubar, k, p.m, "ubar")
    s, us = stacks(p), [u.values[l] for l in range(k, p.N)]
    xs = _roll(s, k, zeta, us)
    moved = [us[0] + lam * ub_nodes] + us[1:]
    lhs = _cost(s, k, _roll(s, k, zeta, moved), moved) - _cost(s, k, xs, us)
    grad = _gradient(s, k, us[0], xs)
    rhs = 2.0 * lam * np.sum(grad * ub_nodes, axis=1) + lam * lam * _variation(s, k, ub_nodes)
    return float(np.max(np.abs(lhs - rhs)))


def representation_check(p: ProblemData, gains, t: int, x, k: int, tables) -> float:
    """Max gap between the exact adjoint and its table representation.

    The adjoint restarted at (k, X*_k) along the feedback control must equal
    P (X - E_k X) + script-P E_k X + T (X* - E_k X*) + script-T E_k X* + pi
    stage by stage; ``tables`` are the solved backward tables.
    """
    star, control = equilibrium_pair(p, gains, InitialPair(t, np.asarray(x, dtype=float)))
    s = stacks(p)
    xs = _roll(s, k, star.values[k], [control.values[l] for l in range(k, p.N)])
    worst = 0.0
    for l, x_l, z in zip(range(k, p.N + 1), xs, _adjoint(s, k, xs)):
        ex, es = _lift(_mean(x_l, k), len(x_l)), _lift(_mean(star.values[l], k), len(x_l))
        pred = ((x_l - ex) @ tables.P[k, l].T + ex @ tables.Pcal[k, l].T
                + (star.values[l] - es) @ tables.T[k, l].T + es @ tables.Tcal[k, l].T
                + tables.pi[k, l])
        worst = max(worst, float(np.max(np.linalg.norm(z - pred, axis=1))))
    return worst


@np.errstate(over="ignore", invalid="ignore")  # checked: a non-finite result raises
def certify_equilibrium(p: ProblemData, init: InitialPair, control: AdaptedProcess,
                        t: int, tree: ScenarioTree | None = None) -> EquilibriumCertificate:
    """Exact certification: stationarity, convexity and the worst deviation.

    A deviation v of the step-k control at a level-k node changes the
    restarted cost there by 2 <g, v> + v' M_k v, with g the node's
    stationarity gradient from the restart and M_k built by polarisation
    (`_deviation_matrices`).  A step reduces over its nodes to max |g|,
    lambda_min(M_k), the least -g' M_k^+ g and the least cost change of
    rolling every node's minimiser v* = -M_k^+ g on the tree.  Raises
    NumericalBreakdown at the first step whose restarted cost or
    certificate value is not finite.
    """
    _check_tree(p, tree)
    control.require(t, p.N - 1, p.m)
    star = concatenated_state(p, control, init)
    s = stacks(p)
    cert = EquilibriumCertificate()
    for k, w, V in zip(range(t, p.N), *np.linalg.eigh(_deviation_matrices(s, t))):
        us = [control.values[l] for l in range(k, p.N)]
        xs = _roll(s, k, star.values[k], us)
        base = _cost(s, k, xs, us)
        g = _gradient(s, k, us[0], xs)
        vstar = -(eigh_pinv(w, V) @ g.T).T
        moved = [us[0] + vstar] + us[1:]
        change = _cost(s, k, _roll(s, k, star.values[k], moved), moved) - base
        cert.record(k, np.max(np.linalg.norm(g, axis=1)), w[0], np.min(np.sum(g * vstar, axis=1)),
                    base, np.min(change))
    return cert
