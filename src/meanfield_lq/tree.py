"""Exact probability-tree engine for binary (Rademacher) noise.

Every operation here is brute force on the complete binary tree: conditional
expectations are subtree averages, noise-weighted expectations are signed
half-differences of children.  Nothing in this module consults the backward
recursions, so it can serve as an independent oracle for them.

Node convention: the level-k node with index i has children 2*i (noise +1)
and 2*i + 1 (noise -1) at level k+1; node probability is 2**-k.

Layout.  `AdaptedProcess` holds (nodes, dim) arrays per level.  Inside, the
(t, .)-family system restarted at level t runs on one buffer per level l,
(rows, probes, 2**t, 2**(l-t)): axis 2 is the level-t ancestor, the last
axis the node within its subtree.  E_t is an `np.add.reduce` over that
contiguous axis, never a recursion of means, and a child pair is two
neighbours on it.  The rows are v = [x; E_t x; 1; u; E_t u] ([x; E_t x; 1]
at level N); the constant row carries f, d, q, rho and g, and is 0 for the
variational system.  `_Blocks` builds, once per call from `model.stacks`
(the arrays that the backward sweep and Monte Carlo read too), the block
[drift; diffusion; cost weight W] of each (t, l), so one matmul advances a
level and gives its node costs v'Wv (`_roll`).  The closed loop reads the
diagonal script sums cA[k, k], ..., cD[k, k] of the same stacks.

Batch axis.  The probes axis carries controls that differ only at step t,
the deviations of a one-instant perturbation, all rolled by one `_roll`;
the controls they share after step t have a probes axis of length 1.
`roll_forward`, `cost` and `variation_cost` are the one-probe cases.

Restart cache.  `certify_equilibrium` restarts the candidate from (k, X*_k)
once per step k (`_restart`), one restart at a time: stacked on one axis,
the restarts of a level leave the cache.  Their buffers carry 4n more rows,
[E_l z; E_k E_l z; E_l (z w); E_k E_l (z w)] of the level-(l+1) adjoint z,
filled by the backward pass, so that the adjoint and the step-k gradient
are one matmul a level too.  One restart gives the stationarity residual
and the base cost of the deviation gaps; `representation_check` and
`difference_formula_check` read their identities off one restart each.

Exact certificate.  The restarted cost is quadratic in the step-k control,
so a deviation v at a level-k node changes it by 2 <g, v> + v' M_k v, with
g the node's stationarity gradient.  The quadratic part is the cost of the
variational system, which starts at zero and whose coefficients are
deterministic; a variation that is F_k-measurable is one constant vector
on each level-k subtree, so M_k is the same at every node and the
node-constant variations determine it.  Polarisation reads it off the
m(m+1)/2 variations e_i and e_i + e_j, one batch of probes and one pass per
step, and one stacked `eigh` serves every M_k (`_deviation_matrices`).  The
worst gap per node is -g' M_k^+ g, and its minimisers are a second batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, HorizonMismatch, NumericalBreakdown
from .matrices import EquilibriumCertificate
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


def _check_tree(p: ProblemData, tree: ScenarioTree | None) -> ScenarioTree:
    if tree is None:
        return ScenarioTree(p.N)
    if tree.depth < p.N:
        raise HorizonMismatch(f"tree depth {tree.depth} < horizon {p.N}")
    return tree


# ---------------------------------------------------------------------------
# Level kernels.  Buffers are (rows, probes, 2**t, width) for family t.

class _Blocks:
    """The blocks of every (t, l): ``step``, ``term`` ([adjoint; W] at level N),
    ``adj`` and ``grad`` (the step-k gradient) on a restart's buffers.  W
    holds the linear weights in the column of the constant row."""

    def __init__(self, p: ProblemData):
        n, m, N = self.n, self.m, self.N = p.n, p.m, p.N
        r = self.r = 2 * n + 1 + 2 * m
        s = vars(stacks(p))
        X, EX, ONE = slice(0, n), slice(n, 2 * n), 2 * n
        U, EU = slice(2 * n + 1, r - m), slice(r - m, r)
        step = self.step = np.zeros((N, N, 2 * n + r, r))
        for rows, names in ((X, "A Abar f B Bbar"), (EX, "C Cbar d D Dbar")):
            for col, name in zip((X, EX, ONE, U, EU), names.split()):
                step[:, :, rows, col] = s[name]
        W = step[:, :, 2 * n:]
        for col, name in ((X, "Q"), (EX, "Qbar"), (U, "R"), (EU, "Rbar")):
            W[:, :, col, col] = s[name]
        W[:, :, EX, ONE], W[:, :, EU, ONE] = 2.0 * s["q"], 2.0 * s["rho"]
        G, Gbar, g = s["G"], s["Gbar"], s["g"]
        term = self.term = np.zeros((N, 3 * n + 1, 2 * n + 1))
        term[:, X, X], term[:, X, EX], term[:, X, ONE] = G, Gbar, g
        term[:, n:][:, X, X], term[:, n:][:, EX, EX], term[:, n:][:, EX, ONE] = G, Gbar, 2.0 * g
        adj, grad, d = np.zeros((N, N, n, r + 4 * n)), np.zeros((N, m, r + 4 * n)), np.arange(N)
        adj[..., X], adj[..., EX], adj[..., ONE] = s["Q"], s["Qbar"], s["q"]
        grad[..., ONE], grad[..., U], grad[..., EU] = s["rho"][d, d], s["R"][d, d], s["Rbar"][d, d]
        for j, (a, b) in enumerate(zip(("A", "Abar", "C", "Cbar"), ("B", "Bbar", "D", "Dbar"))):
            adj[..., r + j * n:r + j * n + n] = s[a].transpose(0, 1, 3, 2)
            grad[..., r + j * n:r + j * n + n] = s[b][d, d].transpose(0, 2, 1)
        self.adj, self.grad = adj, grad


def _columns(proc: AdaptedProcess, lo: int, hi: int) -> dict:
    """Levels lo..hi of a process as contiguous (dim, nodes) arrays."""
    return {l: np.ascontiguousarray(proc.values[l].T) for l in range(lo, hi + 1)}


def _at(col: np.ndarray, t: int) -> np.ndarray:
    """A (dim, nodes) level as a one-probe node-last array of family t."""
    return col.reshape(col.shape[0], 1, 2**t, -1)


def _rows(v: np.ndarray) -> np.ndarray:
    """A one-probe node-last array as (nodes, dim)."""
    return v.reshape(v.shape[0], -1).T


def _mean(v: np.ndarray) -> np.ndarray:
    """E_t of a node-last array: the mean over each level-t subtree."""
    out = np.add.reduce(v, axis=-1, keepdims=True)
    out /= v.shape[-1]
    return out


def _roll(bl: _Blocks, t: int, xs: list, us: list, one: float = 1.0, adjoint: bool = False):
    """Roll the (t, .)-family system through levels t..N, one matmul a level.

    ``xs[0]`` is the level-t state; states that ``xs`` holds for later
    levels are taken as given, not rolled.  ``us[l - t]`` is the level-l
    control (None for zero).  ``one`` fills the constant row.  With
    ``adjoint`` the buffers get the adjoint's rows.  Returns the level
    buffers, the conditional cost (probes, nodes) and, with ``adjoint``,
    the level-N adjoint.
    """
    n, m, N, r = bl.n, bl.m, bl.N, bl.r
    lead = [xs[0].shape[1:3]] + [u.shape[1:3] for u in us[:1] if u is not None]
    rows = [r + 4 * n * adjoint] * (N - t) + [2 * n + 1]
    buf = np.empty((rows[0],) + np.broadcast_shapes(*lead) + (1,))
    bufs, cost, zN = [], 0.0, None
    for j, l in enumerate(range(t, N + 1)):
        if j < len(xs):
            buf[:n] = xs[j]
        buf[n:2 * n] = _mean(buf[:n])
        buf[2 * n] = one
        width = buf.shape[-1]
        if l == N:
            out = (bl.term[t] if adjoint else bl.term[t, n:]) @ buf.reshape(2 * n + 1, -1)
            zN = out[:n] if adjoint else None
        else:
            u = np.zeros((m, 1, 1, 1)) if us[j] is None else us[j]
            buf[2 * n + 1:r - m], buf[r - m:r] = u, _mean(u)
            out = bl.step[t, l] @ buf[:r].reshape(r, -1)
            nxt = np.empty((rows[j + 1],) + buf.shape[1:-1] + (2 * width,))
            x = nxt[:n].reshape(buf[:n].shape + (2,))
            drift, diff = out[:n].reshape(x.shape[:-1]), out[n:2 * n].reshape(x.shape[:-1])
            np.add(drift, diff, out=x[..., 0])
            np.subtract(drift, diff, out=x[..., 1])
        v = buf[:min(r, len(buf))]
        cost += np.einsum("ipsw,ipsw->ps", v, out[-len(v):].reshape(v.shape)) / width
        bufs.append(buf)
        buf = nxt if l < N else None
    return bufs, cost, zN


def _restart(bl: _Blocks, k: int, xs: list, us: list):
    """The (k, .)-family system as ``_roll`` rolls it: its level buffers,
    cost, adjoint at levels k..N and step-k stationarity gradient."""
    n, r = bl.n, bl.r
    bufs, cost, z = _roll(bl, k, xs, us, adjoint=True)
    zs = [z.reshape((n,) + bufs[-1].shape[1:])]
    for buf in bufs[-2::-1]:
        pair = zs[-1].reshape(zs[-1].shape[:-1] + (-1, 2))
        ez = np.multiply(pair[..., 0] + pair[..., 1], 0.5, out=buf[r:r + n])
        ezw = np.multiply(pair[..., 0] - pair[..., 1], 0.5, out=buf[r + 2 * n:r + 3 * n])
        buf[r + n:r + 2 * n] = _mean(ez)
        buf[r + 3 * n:] = _mean(ezw)
        zs.append((bl.adj[k, bl.N - len(zs)] @ buf.reshape(len(buf), -1)).reshape(ez.shape))
    b = bufs[0]
    grad = (bl.grad[k] @ b.reshape(len(b), -1)).reshape((bl.m,) + b.shape[1:])
    return bufs, cost, zs[::-1], grad


def _variation(bl: _Blocks, k: int, ub: np.ndarray) -> np.ndarray:
    """Costs of step-k variations ``ub`` (m, probes, 1 or 2**k), (probes, nodes)."""
    us = [ub[..., None]] + [None] * (bl.N - k - 1)
    return _roll(bl, k, [np.zeros((bl.n,) + ub.shape[1:] + (1,))], us, one=0.0)[1]


def _deviation_matrices(bl: _Blocks, t: int) -> np.ndarray:
    """M_k for k = t..N-1, (N - t, m, m), by polarisation of the costs c of
    the variations e_i and e_i + e_j, one variational pass per step:
    M_ii = c(e_i), M_ij = (c(e_i + e_j) - c(e_i) - c(e_j)) / 2."""
    m, (i, j), eye = bl.m, np.triu_indices(bl.m, 1), np.eye(bl.m)
    probes = np.concatenate((eye, eye[i] + eye[j])).T[:, :, None]
    Ms = np.zeros((bl.N - t, m, m))
    for k, M in enumerate(Ms, start=t):
        c = _variation(bl, k, probes)[:, 0]
        M[np.diag_indices(m)] = c[:m]
        M[i, j] = M[j, i] = 0.5 * (c[m:] - c[i] - c[j])
    return Ms


def _representation_gap(tables, k: int, bufs: list, zs: list, star: dict) -> float:
    """Max node-wise gap between a restart's adjoint and its table form, one
    matmul a level of [P | Pcal | T | Tcal | pi] on
    [x - E x; E x; X* - E X*; E X*; 1]."""
    n, levels = zs[0].shape[0], range(k, k + len(zs))
    blocks = np.concatenate([np.array([getattr(tables, name)[k, l] for l in levels])
                             .reshape(len(zs), n, -1)
                             for name in ("P", "Pcal", "T", "Tcal", "pi")], axis=2)
    worst = 0.0
    for l, blk, buf, z in zip(levels, blocks, bufs, zs):
        x, ex, xs_l = buf[:n], buf[n:2 * n], _at(star[l], k)
        es = _mean(xs_l)
        rep = np.concatenate((x - ex, ex, xs_l - es, np.broadcast_to(es, xs_l.shape),
                              buf[2 * n:2 * n + 1]))
        gap = z.reshape(n, -1) - blk @ rep.reshape(4 * n + 1, -1)
        worst = max(worst, float(np.sqrt(np.max(np.add.reduce(gap * gap)))))
    return worst


def _difference_residual(lhs, lam, grad, ub, quad) -> float:
    """Gap between a cost difference and 2 lam <grad, ub> + lam**2 quad."""
    rhs = 2.0 * lam * np.sum(_rows(grad) * ub, axis=1) + lam * lam * quad
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Public per-call operations.

def _levels(proc: AdaptedProcess, t: int, hi: int) -> list:
    """Levels t..hi of a process as one-probe node-last arrays of family t."""
    return [_at(c, t) for c in _columns(proc, t, hi).values()]


def roll_forward(p: ProblemData, init: InitialPair, control: AdaptedProcess,
                 t: int) -> AdaptedProcess:
    """Exact state rollout of the system restarted at family index t.

    Conditional means (the E_t terms in the dynamics) are subtree averages
    at the level-t ancestor of each node.
    """
    ScenarioTree(p.N)  # the depth cap
    control.require(t, p.N - 1, p.m)
    if init.t != t:
        raise HorizonMismatch(f"initial pair is at t={init.t}, rollout starts at {t}")
    x0 = _at(init.node_values(p.n).T, t)
    bufs = _roll(_Blocks(p), t, [x0], _levels(control, t, p.N - 1))[0]
    return AdaptedProcess({t + j: _rows(b[:p.n]).copy() for j, b in enumerate(bufs)})


def cost(p: ProblemData, init: InitialPair, control: AdaptedProcess, t: int) -> np.ndarray:
    """Exact conditional cost of the (t, .)-family problem, per level-t node."""
    state = roll_forward(p, init, control, t)
    return _roll(_Blocks(p), t, _levels(state, t, p.N), _levels(control, t, p.N - 1))[1][0]


@np.errstate(over="ignore", invalid="ignore")  # checked: a non-finite state raises
def _closed_loop(p: ProblemData, init: InitialPair,
                 policy) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Restart-at-every-step rollout: each step k uses the diagonal (k, k)
    blocks.  States and controls at level k are measurable there, so the
    conditional-mean terms collapse into the summed (calligraphic)
    coefficients and the rollout is node-wise.  ``policy(k, x_k)`` gives u_k.
    Raises NumericalBreakdown at the first step whose state is not finite.
    """
    s = stacks(p)
    state = AdaptedProcess({init.t: init.node_values(p.n)})
    control = AdaptedProcess()
    for k in range(init.t, p.N):
        xk = state.values[k]
        uk = policy(k, xk)
        control.values[k] = uk
        drift = xk @ s.cA[k, k].T + uk @ s.cB[k, k].T + s.f[k, k]
        diff = xk @ s.cC[k, k].T + uk @ s.cD[k, k].T + s.d[k, k]
        nxt = np.empty((2 ** (k + 1), p.n))
        nxt[0::2] = drift + diff
        nxt[1::2] = drift - diff
        if not np.isfinite(nxt).all():
            raise NumericalBreakdown(f"the closed-loop state is not finite at step {k}")
        state.values[k + 1] = nxt
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
    return _closed_loop(p, init, gains.control)


def solve_bsde(p: ProblemData, forward_state: AdaptedProcess, k: int) -> AdaptedProcess:
    """Exact backward pass of the adjoint equation restarted at index k.

    The stage-l value mixes the one-step child mean (E_l), the child
    half-difference (E_l of the noise-weighted value) and level-k subtree
    averages for the barred coefficients.
    """
    ScenarioTree(p.N)  # the depth cap
    forward_state.require(k, p.N, p.n)
    zs = _restart(_Blocks(p), k, _levels(forward_state, k, p.N), [None] * (p.N - k))[2]
    return AdaptedProcess({k + j: _rows(z) for j, z in enumerate(zs)})


def stationarity_gradient(p: ProblemData, state_k: AdaptedProcess,
                          control: AdaptedProcess, k: int) -> np.ndarray:
    """Left side of the first-order condition at step k, per level-k node."""
    ScenarioTree(p.N)  # the depth cap
    state_k.require(k, p.N, p.n)
    us = _levels(control, k, k) + [None] * (p.N - k - 1)
    return _rows(_restart(_Blocks(p), k, _levels(state_k, k, p.N), us)[3])


def stationarity_residuals(p: ProblemData, init: InitialPair, control: AdaptedProcess,
                           t: int) -> dict:
    """Max node-wise norm of the stationarity equation for each k in {t..N-1}.

    For each k the adjoint system is restarted at (k, X*_k) along the
    candidate control, solved exactly, and the gradient norm is maximised
    over level-k nodes.
    """
    star = concatenated_state(p, control, init)
    bl = _Blocks(p)
    return {k: float(np.max(np.linalg.norm(
        _restart(bl, k, _levels(star, k, k), _levels(control, k, p.N - 1))[3], axis=0)))
        for k in range(t, p.N)}


def variation_cost(p: ProblemData, k: int, ubar):
    """Exact cost of a single-instant control variation at step k.

    ``ubar`` is either an m-vector (same variation at every level-k node,
    returns a float) or a (2**k, m) node family (returns per-node values).
    The variational state starts at zero, jumps through the summed input
    blocks at step k and then follows the homogeneous dynamics.
    """
    ScenarioTree(p.N)  # the depth cap
    ub = np.asarray(ubar, dtype=float)
    if ub.shape == (p.m,):
        return float(_variation(_Blocks(p), k, ub[:, None, None])[0, 0])
    if ub.shape != (2**k, p.m):
        raise DimensionMismatch(f"ubar has shape {ub.shape}, expected ({p.m},) or {(2**k, p.m)}")
    return _variation(_Blocks(p), k, ub.T[:, None, :])[0]


def difference_formula_check(p: ProblemData, k: int, zeta, u: AdaptedProcess,
                             ubar, lam: float) -> float:
    """Residual of the exact cost-difference expansion at step k.

    Left side: two exact cost evaluations differing only in the step-k
    control.  Right side: linear term through the restarted adjoint plus
    lam**2 times the variational cost.  Returns the max node-wise gap.
    """
    ScenarioTree(p.N)  # the depth cap
    u.require(k, p.N - 1, p.m)
    zeta = InitialPair(k, np.asarray(zeta, dtype=float)).node_values(p.n)
    ub = np.asarray(ubar, dtype=float)
    ub_nodes = np.tile(ub, (2**k, 1)) if ub.ndim == 1 else ub
    bl, us = _Blocks(p), _levels(u, k, p.N - 1)
    bufs, base, _, grad = _restart(bl, k, [_at(zeta.T, k)], us)
    moved = [us[0] + lam * _at(ub_nodes.T, k)] + us[1:]
    lhs = _roll(bl, k, [bufs[0][:p.n]], moved)[1][0] - base[0]
    quad = _variation(bl, k, ub_nodes.T[:, None, :])[0]
    return _difference_residual(lhs, lam, grad, ub_nodes, quad)


def representation_check(p: ProblemData, gains, t: int, x, k: int, tables) -> float:
    """Max gap between the exact adjoint and its table representation.

    The adjoint restarted at (k, X*_k) along the feedback control must equal
    P (X - E_k X) + script-P E_k X + T (X* - E_k X*) + script-T E_k X* + pi
    stage by stage; ``tables`` are the solved backward tables.
    """
    star, control = equilibrium_pair(p, gains, InitialPair(t, np.asarray(x, dtype=float)))
    star = _columns(star, k, p.N)
    bufs, _, zs, _ = _restart(_Blocks(p), k, [_at(star[k], k)], _levels(control, k, p.N - 1))
    return _representation_gap(tables, k, bufs, zs, star)


@np.errstate(over="ignore", invalid="ignore")  # checked: a non-finite result raises
def certify_equilibrium(p: ProblemData, init: InitialPair, control: AdaptedProcess,
                        t: int, tree: ScenarioTree | None = None) -> EquilibriumCertificate:
    """Exact certification: stationarity, convexity and the worst deviation.

    A deviation v of the step-k control at a level-k node changes the
    restarted cost there by 2 <g, v> + v' M_k v, with g the node's
    stationarity gradient from the restart and M_k built by polarisation
    (module docstring).  `EquilibriumCertificate` reduces each step and
    holds the verdict rule.  ``realised_gap`` is the cost change of rolling
    every node's minimiser v* = -M_k^+ g on the tree; it is reported only.
    Raises NumericalBreakdown at the first step whose restarted cost or
    certificate value is not finite.
    """
    _check_tree(p, tree)
    control.require(t, p.N - 1, p.m)
    star = _columns(concatenated_state(p, control, init), t, p.N)
    ctl = _columns(control, t, p.N - 1)
    bl = _Blocks(p)
    cert = EquilibriumCertificate()
    for k, w, V in zip(range(t, p.N), *np.linalg.eigh(_deviation_matrices(bl, t))):
        us = [_at(ctl[l], k) for l in range(k, p.N)]
        bufs, base, _, grad = _restart(bl, k, [_at(star[k], k)], us)
        vstar = cert.deviation_step(k, w, V, grad[:, 0, :, 0])
        moved = [us[0] + vstar[:, None, :, None]] + us[1:]
        change = _roll(bl, k, [bufs[0][:p.n]], moved)[1] - base
        cert.finish_step(k, float(np.min(change)), base)
    return cert
