"""Exact probability-tree engine for binary (Rademacher) noise.

Every operation here is brute force on the complete binary tree: conditional
expectations are subtree averages, noise-weighted expectations are signed
half-differences of children.  Nothing in this module consults the backward
recursions, so it can serve as an independent oracle for them.

Node convention: the level-k node with index i has children 2*i (noise +1)
and 2*i + 1 (noise -1) at level k+1; node probability is 2**-k.

Layout.  `AdaptedProcess` holds (nodes, dim) arrays per level.  Inside, the
(t, .)-family system restarted at level t runs on node-last arrays of shape
(dim, probes, 2**t, 2**(l-t)) at level l: axis 2 is the level-t ancestor,
the last axis the node within its subtree.  E_t is then a mean over the
last, contiguous axis, and a child pair is two neighbours on it.

Batch axis.  The probes axis carries controls that differ only at step t,
the deviations of a one-instant perturbation.  `_roll` and `_cost` advance
and cost all of them in one pass per level.  The controls the probes share
after step t are held once, with a probes axis of length 1.  `roll_forward`,
`cost` and `variation_cost` are the one-probe cases.

Restart cache.  `certify_equilibrium` restarts the candidate once per step
k from (k, X*_k) (`_restart`: the rolled state, its adjoint and the step-k
stationarity gradient).  That one restart gives the stationarity residual,
the base cost of the deviation gaps and the representation and
cost-difference checks.

Exact certificate.  The restarted cost is quadratic in the step-k control,
so a deviation v at a level-k node changes it by 2 <g, v> + v' M_k v, with
g the node's stationarity gradient.  The quadratic part is the cost of the
variational system, which starts at zero and whose coefficients are
deterministic; a variation that is F_k-measurable is one constant vector
on each level-k subtree, so M_k is the same at every node and the
node-constant variations determine it.  Polarisation reads it off the
m(m+1)/2 variations e_i and e_i + e_j (`_deviation_matrix`), one batch of
probes.  The worst gap
per node is then -g' M_k^+ g, and its minimisers are a second batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, HorizonMismatch, NumericalBreakdown
from .model import InitialPair, ProblemData

MAX_DEPTH = 14


class ScenarioTree:
    """Complete binary tree of a given depth with a memory guard."""

    def __init__(self, depth: int, force: bool = False):
        if depth < 0:
            raise HorizonMismatch(f"tree depth must be >= 0, got {depth}")
        if depth > MAX_DEPTH and not force:
            raise HorizonMismatch(
                f"tree depth {depth} exceeds the cap {MAX_DEPTH}; pass force=True to override"
            )
        self.depth = depth


def cond_mean(values: np.ndarray, level: int, k: int) -> np.ndarray:
    """Conditional expectation given level k of a level-`level` process."""
    if k > level:
        raise HorizonMismatch(f"cannot condition level {level} on later level {k}")
    v = np.asarray(values, dtype=float)
    width = 2 ** (level - k)
    return v.reshape(2**k, width, -1).mean(axis=1)


def lift(values: np.ndarray, k: int, level: int) -> np.ndarray:
    """Broadcast a level-k process to its level-`level` descendants."""
    if level < k:
        raise HorizonMismatch(f"cannot lift level {k} down to {level}")
    return np.repeat(np.asarray(values, dtype=float), 2 ** (level - k), axis=0)


def child_mean(values: np.ndarray) -> np.ndarray:
    """E_l of a level-(l+1) process: plain average of the two children."""
    return 0.5 * (values[0::2] + values[1::2])


def child_wmean(values: np.ndarray) -> np.ndarray:
    """E_l of (level-(l+1) process * w_l): signed half-difference of children."""
    return 0.5 * (values[0::2] - values[1::2])


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

    def copy(self) -> "AdaptedProcess":
        return AdaptedProcess({k: v.copy() for k, v in self.values.items()})


def constant_control(p: ProblemData, t: int, value=None) -> AdaptedProcess:
    """Control process equal to one fixed vector (default zero) at every node."""
    vec = np.zeros(p.m) if value is None else np.asarray(value, dtype=float)
    return AdaptedProcess({k: np.tile(vec, (2**k, 1)) for k in range(t, p.N)})


def _check_tree(p: ProblemData, tree: ScenarioTree | None) -> ScenarioTree:
    if tree is None:
        return ScenarioTree(p.N)
    if tree.depth < p.N:
        raise HorizonMismatch(f"tree depth {tree.depth} < horizon {p.N}")
    return tree


# ---------------------------------------------------------------------------
# Node-last kernels.  Arrays are (dim, probes, 2**t, width) for family t.

def _columns(proc: AdaptedProcess, lo: int, hi: int) -> dict:
    """Levels lo..hi of a process as contiguous (dim, nodes) arrays."""
    return {l: np.ascontiguousarray(proc.values[l].T) for l in range(lo, hi + 1)}


def _at(col: np.ndarray, t: int) -> np.ndarray:
    """A (dim, nodes) level as a one-probe node-last array of family t."""
    return col.reshape(col.shape[0], 1, 2**t, -1)


def _rows(v: np.ndarray) -> np.ndarray:
    """A one-probe node-last array as (nodes, dim)."""
    return v.reshape(v.shape[0], -1).T


def _mul(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M applied along the leading (component) axis of a node-last array."""
    return (M @ v.reshape(v.shape[0], -1)).reshape((M.shape[0],) + v.shape[1:])


def _mean(v: np.ndarray) -> np.ndarray:
    """E_t of a node-last array: the mean over each level-t subtree."""
    out = np.add.reduce(v, axis=-1, keepdims=True)
    out /= v.shape[-1]
    return out


def _col(vec: np.ndarray) -> np.ndarray:
    return vec[:, None, None, None]


def _roll(p: ProblemData, t: int, x0: np.ndarray, us: list, affine: bool = True) -> list:
    """States of the (t, .)-family system at levels t..N, node-last.

    ``x0`` is the level-t state with the batch's probe count; ``us[l - t]``
    is the level-l control (None for zero), with that count or one probe.
    Without ``affine`` the offsets f, d drop out (the variational system).
    """
    n = p.n
    x = x0
    xs = [x]
    for l in range(t, p.N):
        out = _mul(np.vstack((p.A[t, l], p.C[t, l])), x)
        out += _mul(np.vstack((p.Abar[t, l], p.Cbar[t, l])), _mean(x))
        u = us[l - t]
        if u is not None:
            out += _mul(np.vstack((p.B[t, l], p.D[t, l])), u)
            out += _mul(np.vstack((p.Bbar[t, l], p.Dbar[t, l])), _mean(u))
        if affine:
            out += _col(np.concatenate((p.f[t, l], p.d[t, l])))
        drift, diff = out[:n], out[n:]
        x = np.empty(drift.shape + (2,))
        np.add(drift, diff, out=x[..., 0])
        np.subtract(drift, diff, out=x[..., 1])
        x = x.reshape(drift.shape[:-1] + (-1,))
        xs.append(x)
    return xs


def _quad(v: np.ndarray, M: np.ndarray, Mbar: np.ndarray, lin=None) -> np.ndarray:
    """E_t[v'Mv] + E_t[v]' Mbar E_t[v] (+ 2 lin'E_t[v]) per probe and level-t node."""
    ev = _mean(v)
    out = np.einsum("ipsw,ipsw->ps", v, _mul(M, v)) / v.shape[-1]
    out += np.einsum("ipsw,ipsw->ps", ev, _mul(Mbar, ev))
    if lin is not None:
        out += 2.0 * _mul(lin[None, :], ev)[0, ..., 0]
    return out


def _cost(p: ProblemData, t: int, xs: list, us: list, affine: bool = True) -> np.ndarray:
    """Conditional cost of the (t, .)-family system, (probes, 2**t)."""
    total = 0.0
    for l in range(t, p.N):
        total = total + _quad(xs[l - t], p.Q[t, l], p.Qbar[t, l], p.q[t, l] if affine else None)
        u = us[l - t]
        if u is not None:
            total = total + _quad(u, p.R[t, l], p.Rbar[t, l], p.rho[t, l] if affine else None)
    return total + _quad(xs[-1], p.G[t], p.Gbar[t], p.g[t] if affine else None)


def _adjoint(p: ProblemData, k: int, xs: list) -> list:
    """Adjoint of the (k, .)-family system at levels k..N along states ``xs``."""
    xN = xs[-1]
    z = _mul(p.G[k], xN) + _mul(p.Gbar[k], _mean(xN)) + _col(p.g[k])
    zs = [z]
    for l in range(p.N - 1, k - 1, -1):
        pair = z.reshape(z.shape[:-1] + (-1, 2))
        ez = pair.mean(axis=-1)
        ezw = 0.5 * (pair[..., 0] - pair[..., 1])
        x = xs[l - k]
        z = (_mul(p.A[k, l].T, ez) + _mul(p.Abar[k, l].T, _mean(z))
             + _mul(p.C[k, l].T, ezw) + _mul(p.Cbar[k, l].T, _mean(ezw))
             + _mul(p.Q[k, l], x) + _mul(p.Qbar[k, l], _mean(x)) + _col(p.q[k, l]))
        zs.append(z)
    return zs[::-1]


def _gradient(p: ProblemData, k: int, u: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """Step-k stationarity gradient from the level-(k+1) adjoint, (m, 1, 2**k, 1)."""
    cal = p.cal
    ez = z1.mean(axis=-1, keepdims=True)
    ezw = 0.5 * (z1[..., :1] - z1[..., 1:])
    return (_mul(cal.R(k, k), u) + _mul(cal.B(k, k).T, ez)
            + _mul(cal.D(k, k).T, ezw) + _col(p.rho[k, k]))


def _restart(p: ProblemData, k: int, star: dict, ctl: dict):
    """The system restarted at (k, X*_k) under the control: its node-last
    controls, states, adjoint and step-k stationarity gradient."""
    us = [_at(ctl[l], k) for l in range(k, p.N)]
    xs = _roll(p, k, _at(star[k], k), us)
    zs = _adjoint(p, k, xs)
    return us, xs, zs, _gradient(p, k, us[0], zs[1])


def _variation(p: ProblemData, k: int, ub: np.ndarray) -> np.ndarray:
    """Costs of step-k variations ``ub`` (m, probes, 1 or 2**k), (probes, nodes)."""
    us = [ub[..., None]] + [None] * (p.N - k - 1)
    xs = _roll(p, k, np.zeros((p.n,) + ub.shape[1:] + (1,)), us, affine=False)
    return _cost(p, k, xs, us, affine=False)


def _deviation_matrix(p: ProblemData, k: int) -> np.ndarray:
    """M_k by polarisation of the costs c of the variations e_i and e_i + e_j:
    M_ii = c(e_i), M_ij = (c(e_i + e_j) - c(e_i) - c(e_j)) / 2."""
    m = p.m
    i, j = np.triu_indices(m, 1)
    eye = np.eye(m)
    c = _variation(p, k, np.concatenate((eye, eye[i] + eye[j])).T[:, :, None])[:, 0]
    M = np.diag(c[:m])
    M[i, j] = M[j, i] = 0.5 * (c[m:] - c[i] - c[j])
    return M


def _representation_gap(p: ProblemData, k: int, tables, xs: list, zs: list, star: dict) -> float:
    """Max node-wise gap between a restart's adjoint and its table form."""
    worst = 0.0
    for l in range(k, p.N + 1):
        x, xs_l = xs[l - k], _at(star[l], k)
        ex, es = _mean(x), _mean(xs_l)
        pred = (_mul(tables.P[k, l], x - ex) + _mul(tables.Pcal[k, l], ex)
                + _mul(tables.T[k, l], xs_l - es) + _mul(tables.Tcal[k, l], es)
                + _col(tables.pi[k, l]))
        worst = max(worst, float(np.max(np.linalg.norm(zs[l - k] - pred, axis=0))))
    return worst


def _difference_residual(lhs, lam, grad, ub, quad) -> float:
    """Gap between a cost difference and 2 lam <grad, ub> + lam**2 quad."""
    rhs = 2.0 * lam * np.sum(_rows(grad) * ub, axis=1) + lam * lam * quad
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Public per-call operations.

def roll_forward(p: ProblemData, init: InitialPair, control: AdaptedProcess,
                 t: int, tree: ScenarioTree | None = None) -> AdaptedProcess:
    """Exact state rollout of the system restarted at family index t.

    Conditional means (the E_t terms in the dynamics) are subtree averages
    at the level-t ancestor of each node.
    """
    _check_tree(p, tree)
    control.require(t, p.N - 1, p.m)
    if init.t != t:
        raise HorizonMismatch(f"initial pair is at t={init.t}, rollout starts at {t}")
    ctl = _columns(control, t, p.N - 1)
    xs = _roll(p, t, _at(init.node_values(p.n).T, t), [_at(ctl[l], t) for l in ctl])
    return AdaptedProcess({t + j: _rows(x) for j, x in enumerate(xs)})


def cost(p: ProblemData, init: InitialPair, control: AdaptedProcess,
         t: int, tree: ScenarioTree | None = None,
         state: AdaptedProcess | None = None) -> np.ndarray:
    """Exact conditional cost of the (t, .)-family problem, per level-t node."""
    if state is None:
        state = roll_forward(p, init, control, t, tree)
    ctl = _columns(control, t, p.N - 1)
    xs = _columns(state, t, p.N)
    return _cost(p, t, [_at(xs[l], t) for l in xs], [_at(ctl[l], t) for l in ctl])[0]


@np.errstate(over="ignore", invalid="ignore")  # checked: a non-finite state raises
def _closed_loop(p: ProblemData, init: InitialPair,
                 policy) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Restart-at-every-step rollout: each step k uses the diagonal (k, k)
    blocks.  States and controls at level k are measurable there, so the
    conditional-mean terms collapse into the summed (calligraphic)
    coefficients and the rollout is node-wise.  ``policy(k, x_k)`` gives u_k.
    Raises NumericalBreakdown at the first step whose state is not finite.
    """
    cal = p.cal
    state = AdaptedProcess({init.t: init.node_values(p.n)})
    control = AdaptedProcess()
    for k in range(init.t, p.N):
        xk = state.values[k]
        uk = policy(k, xk)
        control.values[k] = uk
        drift = xk @ cal.A(k, k).T + uk @ cal.B(k, k).T + p.f[k, k]
        diff = xk @ cal.C(k, k).T + uk @ cal.D(k, k).T + p.d[k, k]
        nxt = np.empty((2 ** (k + 1), p.n))
        nxt[0::2] = drift + diff
        nxt[1::2] = drift - diff
        if not np.isfinite(nxt).all():
            raise NumericalBreakdown(f"the closed-loop state is not finite at step {k}")
        state.values[k + 1] = nxt
    return state, control


def concatenated_state(p: ProblemData, control: AdaptedProcess,
                       init: InitialPair, tree: ScenarioTree | None = None) -> AdaptedProcess:
    """State realised when the problem is restarted at every step."""
    _check_tree(p, tree)
    control.require(init.t, p.N - 1, p.m)
    return _closed_loop(p, init, lambda k, _: control.values[k])[0]


def equilibrium_pair(p: ProblemData, gains, init: InitialPair,
                     tree: ScenarioTree | None = None) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Closed-loop state and the control it realises, from a gain schedule."""
    _check_tree(p, tree)
    return _closed_loop(p, init, gains.control)


def solve_bsde(p: ProblemData, forward_state: AdaptedProcess, k: int,
               tree: ScenarioTree | None = None) -> AdaptedProcess:
    """Exact backward pass of the adjoint equation restarted at index k.

    The stage-l value mixes the one-step child mean (E_l), the child
    half-difference (E_l of the noise-weighted value) and level-k subtree
    averages for the barred coefficients.
    """
    _check_tree(p, tree)
    forward_state.require(k, p.N, p.n)
    xs = _columns(forward_state, k, p.N)
    zs = _adjoint(p, k, [_at(xs[l], k) for l in xs])
    return AdaptedProcess({k + j: _rows(z) for j, z in enumerate(zs)})


def stationarity_gradient(p: ProblemData, state_k: AdaptedProcess,
                          control: AdaptedProcess, k: int) -> np.ndarray:
    """Left side of the first-order condition at step k, per level-k node."""
    z1 = solve_bsde(p, state_k, k).values[k + 1]
    u = control.values[k]
    return _rows(_gradient(p, k, _at(u.T, k), _at(z1.T, k)))


def stationarity_residuals(p: ProblemData, init: InitialPair, control: AdaptedProcess,
                           t: int, tree: ScenarioTree | None = None) -> dict:
    """Max node-wise norm of the stationarity equation for each k in {t..N-1}.

    For each k the adjoint system is restarted at (k, X*_k) along the
    candidate control, solved exactly, and the gradient norm is maximised
    over level-k nodes.
    """
    star = _columns(concatenated_state(p, control, init, tree), t, p.N)
    ctl = _columns(control, t, p.N - 1)
    return {k: float(np.max(np.linalg.norm(_restart(p, k, star, ctl)[3], axis=0)))
            for k in range(t, p.N)}


def variation_cost(p: ProblemData, k: int, ubar, tree: ScenarioTree | None = None):
    """Exact cost of a single-instant control variation at step k.

    ``ubar`` is either an m-vector (same variation at every level-k node,
    returns a float) or a (2**k, m) node family (returns per-node values).
    The variational state starts at zero, jumps through the summed input
    blocks at step k and then follows the homogeneous dynamics.
    """
    _check_tree(p, tree)
    ub = np.asarray(ubar, dtype=float)
    if ub.shape == (p.m,):
        return float(_variation(p, k, ub[:, None, None])[0, 0])
    if ub.shape != (2**k, p.m):
        raise DimensionMismatch(f"ubar has shape {ub.shape}, expected ({p.m},) or {(2**k, p.m)}")
    return _variation(p, k, ub.T[:, None, :])[0]


def deviated_control(control: AdaptedProcess, k: int, delta) -> AdaptedProcess:
    """Copy of a control with the level-k values shifted by ``delta``."""
    out = control.copy()
    d = np.asarray(delta, dtype=float)
    out.values[k] = out.values[k] + d
    return out


def difference_formula_check(p: ProblemData, k: int, zeta, u: AdaptedProcess,
                             ubar, lam: float, tree: ScenarioTree | None = None) -> float:
    """Residual of the exact cost-difference expansion at step k.

    Left side: two exact cost evaluations differing only in the step-k
    control.  Right side: linear term through the restarted adjoint plus
    lam**2 times the variational cost.  Returns the max node-wise gap.
    """
    _check_tree(p, tree)
    u.require(k, p.N - 1, p.m)
    zeta = InitialPair(k, np.asarray(zeta, dtype=float)).node_values(p.n)
    star = {k: np.ascontiguousarray(zeta.T)}
    ub = np.asarray(ubar, dtype=float)
    ub_nodes = np.tile(ub, (2**k, 1)) if ub.ndim == 1 else ub
    us, xs, _, grad = _restart(p, k, star, _columns(u, k, p.N - 1))
    base = _cost(p, k, xs, us)[0]
    moved = [us[0] + lam * _at(ub_nodes.T, k)] + us[1:]
    lhs = _cost(p, k, _roll(p, k, xs[0], moved), moved)[0] - base
    quad = variation_cost(p, k, ub_nodes, tree)
    return _difference_residual(lhs, lam, grad, ub_nodes, quad)


def representation_check(p: ProblemData, gains, t: int, x, k: int,
                         tables, tree: ScenarioTree | None = None) -> float:
    """Max gap between the exact adjoint and its table representation.

    The adjoint restarted at (k, X*_k) along the feedback control must equal
    P (X - E_k X) + script-P E_k X + T (X* - E_k X*) + script-T E_k X* + pi
    stage by stage; ``tables`` are the solved backward tables.
    """
    tree = _check_tree(p, tree)
    star, control = equilibrium_pair(p, gains, InitialPair(t, np.asarray(x, dtype=float)), tree)
    star = _columns(star, k, p.N)
    _, xs, zs, _ = _restart(p, k, star, _columns(control, k, p.N - 1))
    return _representation_gap(p, k, tables, xs, zs, star)


@dataclass
class EquilibriumCertificate:
    """Verdict of the exact tree certification of a candidate control.

    ``worst_gaps`` holds per step ``{k, min_gap, realised_gap}``.
    ``identity_checks`` holds the representation and cost-difference
    residuals per step when the certification was given the solved tables;
    they are diagnostics and do not enter the verdict.
    """

    stationary_residuals: dict
    convexity_values: dict
    worst_gaps: list
    verdict: bool
    tol_stationary: float
    tol_convexity: float
    seed: int
    identity_checks: dict | None = None

    def to_dict(self) -> dict:
        return {
            "stationary_residuals": {str(k): float(v) for k, v in self.stationary_residuals.items()},
            "convexity_values": {str(k): float(v) for k, v in self.convexity_values.items()},
            "worst_gaps": [{"k": int(g["k"]), "min_gap": float(g["min_gap"]),
                            "realised_gap": float(g["realised_gap"])} for g in self.worst_gaps],
            "verdict": bool(self.verdict),
            "tol_stationary": float(self.tol_stationary),
            "tol_convexity": float(self.tol_convexity),
            "seed": int(self.seed),
        }


@np.errstate(over="ignore", invalid="ignore")  # checked: a non-finite result raises
def certify_equilibrium(p: ProblemData, init: InitialPair, control: AdaptedProcess,
                        t: int, seed: int = 20240801,
                        tol_stationary: float = 1e-8, tol_convexity: float = 1e-9,
                        tree: ScenarioTree | None = None,
                        tables=None) -> EquilibriumCertificate:
    """Exact certification: stationarity, convexity and the worst deviation.

    A deviation v of the step-k control at a level-k node changes the
    restarted cost there by 2 <g, v> + v' M_k v, with g the node's
    stationarity gradient and M_k built by polarisation (module docstring).
    The convexity value is lambda_min(M_k), and the per-node worst gap
    ``min_gap`` is -g' M_k^+ g, at v* = -M_k^+ g.  ``realised_gap`` is the
    cost change of rolling every node's v* on the tree; it is reported
    only.  The verdict needs every residual max |g| <= tol_stationary and
    every lambda_min and min_gap >= -tol_convexity.  That covers every
    deviation: a non-PSD M_k fails the convexity term, and a part of g
    outside range(M_k), along which the cost is unbounded below, is no
    longer than g.

    ``tables`` are the solved backward tables of the gains behind
    ``control``.  With them, the same restarts also give the identity checks
    (representation residual, and the cost-difference residual of a seeded
    direction and step) in ``identity_checks``.  Raises NumericalBreakdown
    at the first step whose state, cost or reported value is not finite.
    """
    tree = _check_tree(p, tree)
    control.require(t, p.N - 1, p.m)
    rng = np.random.default_rng(seed)  # direction and step of each cost-difference check
    star = _columns(concatenated_state(p, control, init, tree), t, p.N)
    ctl = _columns(control, t, p.N - 1)
    residuals, convexity, gaps = {}, {}, []
    representation, difference = {}, {}
    for k in range(t, p.N):
        us, xs, zs, grad = _restart(p, k, star, ctl)
        base = _cost(p, k, xs, us)[0]
        residuals[k] = float(np.max(np.linalg.norm(grad, axis=0)))
        M = _deviation_matrix(p, k)
        w, V = np.linalg.eigh(M)
        convexity[k] = float(w[0])
        keep = np.abs(w) > p.m * np.finfo(float).eps * np.max(np.abs(w), initial=0.0)
        Mdag = (V[:, keep] / w[keep]) @ V[:, keep].T

        g = grad[:, 0, :, 0]
        vstar = -Mdag @ g
        # the minimisers, then the cost-difference direction, one probe each
        deltas = [vstar[:, None, :, None]]
        if tables is not None:
            ubar, lam = rng.normal(size=p.m), float(rng.uniform(-1.0, 1.0))
            deltas.append(np.broadcast_to(lam * ubar[:, None, None, None], (p.m, 1, 2**k, 1)))
        moved = [us[0] + np.concatenate(deltas, axis=1)] + us[1:]
        x0 = np.broadcast_to(xs[0], (p.n,) + moved[0].shape[1:])
        change = _cost(p, k, _roll(p, k, x0, moved), moved) - base
        gaps.append({"k": k, "min_gap": float(np.min(np.sum(g * vstar, axis=0))),
                     "realised_gap": float(np.min(change[0]))})
        if tables is not None:
            representation[str(k)] = _representation_gap(p, k, tables, xs, zs, star)
            difference[str(k)] = _difference_residual(change[-1], lam, grad, ubar,
                                                      ubar @ M @ ubar)
        reported = [base, residuals[k], convexity[k], gaps[-1]["min_gap"],
                    gaps[-1]["realised_gap"], representation.get(str(k), 0.0),
                    difference.get(str(k), 0.0)]
        if not all(np.isfinite(v).all() for v in reported):
            raise NumericalBreakdown(f"the restarted cost or certificate is not finite at step {k}")

    ok = (
        all(v <= tol_stationary for v in residuals.values())
        and all(v >= -tol_convexity for v in convexity.values())
        and all(g["min_gap"] >= -tol_convexity for g in gaps)
    )
    return EquilibriumCertificate(
        stationary_residuals=residuals,
        convexity_values=convexity,
        worst_gaps=gaps,
        verdict=ok,
        tol_stationary=tol_stationary,
        tol_convexity=tol_convexity,
        seed=seed,
        identity_checks=None if tables is None else {
            "representation_residuals": representation,
            "difference_formula_residuals": difference,
        },
    )
