"""Monte Carlo simulation of equilibrium trajectories and costs.

Paths are driven by a counter-based generator (Philox keyed by the seed),
so the noise of path i is a pure function of (seed, i): growing the path
count, or drawing the rows of a block on their own, never changes existing
paths, and reruns are bit-identical.  The (paths, steps) noise matrix is
read off the generator's stream in row order.  A Rademacher sign takes one
bit of the raw 64-bit words: entry (i, j) is 1 - 2 c, where c is bit b % 64
of word b // 64, counted from the least significant bit, for
b = i * steps + j.  It is held as an exact int8.  A Gaussian entry takes
one uniform, mapped through the normal quantile.

The simulation starts from a deterministic information-set atom, where
every E_t term is an exact mean: the noise is zero-mean and independent of
the current state, so the mean of the state follows a deterministic
recursion.  With the mean-field terms exact the paths are independent, and
`std_error` is the honest spread of the mean cost.

A rollout has two parts.  ``_plan`` makes one O(N) pass that computes, for
every step, the path-independent block matrices, cost weights, mean-field
constants and the exact mean.  ``_rollout`` then loops over blocks of
``BLOCK`` paths: each block draws only its own noise rows and runs every
step on one cache-resident (2n, BLOCK) state centred on the exact mean,
accumulating the per-path costs and the sums behind the sample moments.
A constant row of ones under the state carries each step's offsets into
its one matmul.  Memory is O(n * BLOCK) plus the O(paths) per-path costs,
whatever the horizon.

``deviation_forms`` writes the restarted cost of every step k as a
quadratic form Q_k in theta = [x; v; 1] (the restart state and a shift of
the step-k control), every restart on one batch axis; its restart at the
atom gives the exact mean and covariance of the closed-loop state and the
exact cost that the samples estimate.  ``certify_forms`` reads an
equilibrium certificate off Q_k and those moments, with no node and at
any horizon.  Forms and moments use only the noise's mean 0, variance 1
and independence of the past, so the certificate holds for any such noise.
``solver_identities`` compares Q_k with the solver's M2, W Psi + H and
W alpha + beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyConfig, HorizonMismatch, NumericalBreakdown
from .matrices import EquilibriumCertificate, eigh_pinv, sym_part
from .model import InitialPair, ProblemData, stacks

NOISE_LAWS = ("rademacher", "standard_gaussian")

# Paths per block.  A block's (2n, BLOCK) state and scratch stay in cache
# through all steps.  On a 2 MB-per-core L2, blocks of 4096..16384 ran an
# (N = 50, 1e5 paths) and an (N = 2, 1e6 paths) simulation about equally
# fast, and 2048 or 65536 slower.
BLOCK = 8192


@dataclass(frozen=True)
class SimConfig:
    paths: int
    seed: int = 0
    noise_law: str = "rademacher"

    def __post_init__(self):
        if self.paths < 1:
            raise EmptyConfig(f"paths must be >= 1, got {self.paths}")
        if self.noise_law not in NOISE_LAWS:
            raise EmptyConfig(f"noise_law must be one of {NOISE_LAWS}")
        if not 0 <= self.seed < 2**128:  # the Philox key
            raise EmptyConfig(f"seed must be in 0..2**128 - 1, got {self.seed}")


@dataclass
class SimResult:
    mean_cost: float
    std_error: float | None
    trajectory_moments: list  # [{"k", "mean", "cov"}] for the realised state

    def to_dict(self) -> dict:
        return {
            "mean_cost": float(self.mean_cost),
            "std_error": None if self.std_error is None else float(self.std_error),
            "trajectory_moments": [
                {"k": int(r["k"]), "mean": r["mean"].tolist(), "cov": r["cov"].tolist()}
                for r in self.trajectory_moments
            ],
        }


def draw_noise(cfg: SimConfig, paths: int, steps: int, start: int = 0) -> np.ndarray:
    """Rows start..start+paths-1 of the (cfg.paths, steps) noise matrix.

    Row i depends only on (seed, i), so a block of rows is bit-identical to
    the same rows of the whole matrix.  A Rademacher sign is 1 - 2 b for
    the bit b = i * steps + j of the word stream of
    ``Philox(key=seed).random_raw``: bit b % 64 of word b // 64, counted
    from the least significant, returned as exact int8 (one byte a sign).
    A Gaussian entry is ``ndtri`` of one Philox uniform.
    """
    bits = np.random.Philox(key=cfg.seed)
    skip = start * steps
    if cfg.noise_law == "rademacher":
        word, offset = divmod(skip, 64)
        bits.advance(word // 4)  # one Philox counter step yields four 64-bit words
        bits.random_raw(word % 4)
        words = bits.random_raw(-(-(offset + paths * steps) // 64))
        w = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                          bitorder="little").view(np.int8)
        w *= -2
        w += 1
        return w[offset:offset + paths * steps].reshape(paths, steps)
    bits.advance(skip // 4)
    gen = np.random.Generator(bits)
    if skip % 4:
        gen.random(skip % 4)
    u = gen.random((paths, steps))
    from scipy.special import ndtri  # not at the top: it is most of the import time
    tiny = 2.0**-53
    return ndtri(np.clip(u, tiny, 1.0 - tiny, out=u), out=u)


def _atom_state(p: ProblemData, init: InitialPair) -> np.ndarray:
    x = np.asarray(init.x, dtype=float)
    if x.ndim != 1 or x.shape != (p.n,):
        raise DimensionMismatch(
            "simulation conditions on one information-set atom: pass a deterministic n-vector"
        )
    return x


def _plan(p: ProblemData, gains, t: int, x0: np.ndarray):
    """The path-independent part of a rollout from the atom x0 at step t.

    The closed-loop equilibrium state x and the (t, .)-family state y are
    stacked as z = [x; y].  Both read `model.stacks`: x steps through the
    diagonal script sums cA[k, k], ..., cD[k, k], y through the (t, k)
    blocks.  The control u = Psi_k x + alpha_k is substituted into the
    blocks, so a step is z <- kd z + cd + (kw z + cw) w_k and its cost is
    z' weight z + 2 lin'z plus mean-field terms.  The noise is zero-mean
    and independent of z_k, so the exact mean follows m <- kd m + cd, and
    every E_t factor (in cd, cw and the cost) is read off m.  In the
    centred state d = z - m a step is d <- kd d + (kw d + kw m + cw) w_k
    and its cost d' weight d + 2 (weight m + lin)'d plus a constant.

    Returns the per-step (6n, 2n + 1) matrices [weight, lin2; kw, c; kd, 0]
    with lin2 = 2 (weight m + lin) and c = kw m + cw the centred noise
    offset, which act on the centred state with a constant row of ones
    appended; the terminal (G, 2 (G m_y + g)); the sum of all constants;
    and the exact means m at steps t..N.  Raises NumericalBreakdown at the
    first step whose mean or constant is not finite.
    """
    n, s = p.n, stacks(p)
    zero = np.zeros((n, n))
    m = np.concatenate([x0, x0])
    means, coefs, offset = [m], [], 0.0
    for k in range(t, p.N):
        mx, my = m[:n], m[n:]
        psi, alpha = gains.Psi[k], gains.alpha[k]
        mu = psi @ mx + alpha
        R, rho = s.R[t, k], s.rho[t, k]
        weight = np.block([[psi.T @ R @ psi, zero], [zero, s.Q[t, k]]])
        lin = np.concatenate([psi.T @ (R @ alpha + rho), s.q[t, k]])
        offset += (m @ weight @ m + 2.0 * lin @ m
                   + my @ s.Qbar[t, k] @ my + mu @ s.Rbar[t, k] @ mu
                   + alpha @ R @ alpha + 2.0 * rho @ alpha)
        kd = np.block([[s.cA[k, k] + s.cB[k, k] @ psi, zero], [s.B[t, k] @ psi, s.A[t, k]]])
        kw = np.block([[s.cC[k, k] + s.cD[k, k] @ psi, zero], [s.D[t, k] @ psi, s.C[t, k]]])
        cd = np.concatenate([s.cB[k, k] @ alpha + s.f[k, k],
                             s.B[t, k] @ alpha + s.Abar[t, k] @ my + s.Bbar[t, k] @ mu + s.f[t, k]])
        cw = np.concatenate([s.cD[k, k] @ alpha + s.d[k, k],
                             s.D[t, k] @ alpha + s.Cbar[t, k] @ my + s.Dbar[t, k] @ mu + s.d[t, k]])
        bias = np.concatenate([2.0 * (weight @ m + lin), kw @ m + cw, np.zeros(2 * n)])
        coefs.append(np.column_stack([np.vstack([weight, kw, kd]), bias]))
        m = kd @ m + cd
        if not (np.isfinite(m).all() and np.isfinite(offset)):
            raise NumericalBreakdown(f"the exact mean or cost is not finite at step {k}")
        means.append(m)
    G, g, my = s.G[t], s.g[t], m[n:]
    offset += my @ G @ my + 2.0 * g @ my + my @ s.Gbar[t] @ my
    return coefs, (G, 2.0 * (G @ my + g)), offset, means


@np.errstate(over="ignore", invalid="ignore")  # checked: moments here, forms in certify_forms
def deviation_forms(p: ProblemData, gains, init: InitialPair) -> tuple[np.ndarray, list]:
    """The restarted cost of every step k = t..N-1 as a quadratic form Q_k,
    (N - t, n + m + 1, n + m + 1), and the {"k", "mean", "cov"} moments of
    the closed-loop state X* at steps t..N from the atom of ``init``.

    Restart at an atom x at step k and shift the step-k control by v: the
    expected cost of the (k, .)-family is theta' Q_k theta, theta = [x; v; 1].
    As in ``_plan``, z = [x; y] stacks the closed-loop state (diagonal
    script sums, control u = Psi x + alpha) and the (k, .)-family state,
    which v moves at step k.  The mean of z is affine in theta, m_j = L_j
    theta from L_k = [I 0 0; I 0 0], and so is each step's noise offset
    c_j = C_j theta, with the E_k terms read off the mean.  The mean part
    of the cost is a quadratic form in L_j; the covariance part is
    sum_j C_j' V_{j+1} C_j, with the backward Lyapunov adjoint V_N =
    diag(0, G_k), V_j = weight_j + kd_j' V_{j+1} kd_j + kw_j' V_{j+1} kw_j.
    Every restart sits on one leading batch axis, live for steps j >= k:
    one forward pass over j gives every L_j and C_j, one backward pass
    every V_j.

    Restart t at theta_0 = [x_0; 0; 1] is X* itself: its mean is
    Lx_j theta_0, and its covariance follows S <- K S K' + K_w S K_w' + c c'
    from S = 0, with c the x-rows of C_j theta_0 and K = cA + cB Psi_j,
    K_w = cC + cD Psi_j the x-blocks of kd_j and kw_j, which the backward
    pass reuses.  The expected cost at the atom is theta_0' Q_t theta_0.
    Raises NumericalBreakdown at the first step j whose mean or covariance
    at step j + 1 is not finite.

    Q_k's v-rows hold M_k (the v-columns), Gamma_k (the x-columns) and
    gamma_k (the last column): the stationarity gradient at x is
    Gamma_k x + gamma_k.
    """
    n, m, N, s, t = p.n, p.m, p.N, stacks(p), init.t
    if t >= N:
        raise HorizonMismatch(f"initial time {t} >= horizon {N}")
    ks, size, one = np.arange(t, N), n + m + 1, n + m
    theta = np.concatenate([_atom_state(p, init), np.zeros(m), [1.0]])
    Psi, alpha = np.asarray(gains.Psi), np.asarray(gains.alpha)
    L = np.zeros((N - t, 2 * n, size))
    L[:, :n, :n] = L[:, n:, :n] = np.eye(n)
    Q = np.zeros((N - t, size, size))
    S = np.zeros((n, n))
    moments, offsets, blocks = [{"k": t, "mean": theta[:n], "cov": S}], [], []
    for j in range(t, N):
        live, kj = slice(0, j - t + 1), ks[:j - t + 1]
        Lx, Ly = L[live, :n], L[live, n:]
        mu = Psi[j] @ Lx
        mu[..., one] += alpha[j]
        muy = mu.copy()  # the family's control: v moves it at step k = j, the last live restart
        muy[-1, :, n:one] += np.eye(m)
        lin = (Ly.transpose(0, 2, 1) @ s.q[kj, j][..., None]
               + muy.transpose(0, 2, 1) @ s.rho[kj, j][..., None])[..., 0]
        Q[live] += (Ly.transpose(0, 2, 1) @ s.cQ[kj, j] @ Ly
                    + muy.transpose(0, 2, 1) @ s.cR[kj, j] @ muy)
        Q[live, :, one] += lin
        Q[live, one, :] += lin
        C = np.concatenate([s.cC[j, j] @ Lx + s.cD[j, j] @ mu,
                            s.cC[kj, j] @ Ly + s.cD[kj, j] @ muy], axis=1)
        C[:, :n, one] += s.d[j, j]
        C[:, n:, one] += s.d[kj, j]
        offsets.append(C)
        Lx, Ly = s.cA[j, j] @ Lx + s.cB[j, j] @ mu, s.cA[kj, j] @ Ly + s.cB[kj, j] @ muy
        Lx[..., one] += s.f[j, j]
        Ly[..., one] += s.f[kj, j]
        L[live, :n], L[live, n:] = Lx, Ly
        K, Kw = s.cA[j, j] + s.cB[j, j] @ Psi[j], s.cC[j, j] + s.cD[j, j] @ Psi[j]
        blocks.append((K, Kw))
        c = C[0, :n] @ theta
        S = sym_part(K @ S @ K.T + Kw @ S @ Kw.T + np.outer(c, c))
        moments.append({"k": j + 1, "mean": Lx[0] @ theta, "cov": S})
        if not (np.isfinite(moments[-1]["mean"]).all() and np.isfinite(S).all()):
            raise NumericalBreakdown(f"the exact mean or covariance is not finite at step {j}")
    Ly = L[:, n:]
    lin = (Ly.transpose(0, 2, 1) @ s.g[ks][..., None])[..., 0]
    Q += Ly.transpose(0, 2, 1) @ s.cG[ks] @ Ly
    Q[:, :, one] += lin
    Q[:, one, :] += lin

    V = np.zeros((N - t, 2 * n, 2 * n))
    V[:, n:, n:] = s.G[ks]
    for j in range(N - 1, t - 1, -1):
        C = offsets[j - t]
        Q[:j - t + 1] += C.transpose(0, 2, 1) @ V[:j - t + 1] @ C
        live, kj = slice(0, j - t), ks[:j - t]  # V_j is read by the restarts k < j only
        psi = Psi[j]
        kd, kw = np.zeros((2, j - t, 2 * n, 2 * n))
        kd[:, :n, :n], kw[:, :n, :n] = blocks[j - t]
        kd[:, n:, :n], kd[:, n:, n:] = s.B[kj, j] @ psi, s.A[kj, j]
        kw[:, n:, :n], kw[:, n:, n:] = s.D[kj, j] @ psi, s.C[kj, j]
        Vn = V[live]
        V[live] = kd.transpose(0, 2, 1) @ Vn @ kd + kw.transpose(0, 2, 1) @ Vn @ kw
        V[live, :n, :n] += psi.T @ s.R[kj, j] @ psi
        V[live, n:, n:] += s.Q[kj, j]
    return sym_part(Q), moments


@np.errstate(over="ignore", invalid="ignore")  # checked: a non-finite result raises
def certify_forms(forms: np.ndarray, moments) -> EquilibriumCertificate:
    """The certificate of a candidate control from the forms and the
    moments of its closed-loop state X* that ``deviation_forms`` returns:
    no node.

    The step-k gradient g = Gamma_k X*_k + gamma_k must vanish almost
    surely.  With m and S the mean and covariance of X*_k, the residual is
    sqrt(E|g|^2) = sqrt(|Gamma_k m + gamma_k|^2 + tr(Gamma_k S Gamma_k'))
    and ``min_gap`` the mean gap -E[g' M_k^+ g], which is also the expected
    cost change of the minimisers v* = -M_k^+ g.  Raises NumericalBreakdown
    at the first step whose expected restarted cost or certificate value is
    not finite.
    """
    size, n = forms.shape[-1], len(moments[0]["mean"])
    v, one = slice(n, size - 1), size - 1
    cert = EquilibriumCertificate()
    for Q, w, V, row in zip(forms, *np.linalg.eigh(forms[:, v, v]), moments):
        mean, cov, Gamma, pinv = row["mean"], row["cov"], Q[v, :n], eigh_pinv(w, V)
        g = Gamma @ mean + Q[v, one]  # the gradient at the mean state
        theta = np.concatenate([mean, np.zeros(size - 1 - n), [1.0]])
        second = np.outer(theta, theta) + np.pad(cov, (0, size - n))  # E[theta theta']
        # a covariance indefinite at rounding can make the trace slightly negative
        square = np.maximum(g @ g + np.sum((Gamma @ cov) * Gamma), 0.0)
        cert.record(row["k"], np.sqrt(square), w[0],
                    -(g @ pinv @ g + np.sum((pinv @ Gamma @ cov) * Gamma)), np.sum(Q * second))
    return cert


def solver_identities(forms, gains, solved, report, t: int) -> dict:
    """Max entry gaps, per step k, of the identities between the
    ``deviation_forms`` of ``gains`` and the solver: M_k = M2[k],
    Gamma_k = W_k Psi_k + H_k and gamma_k = W_k alpha_k + beta_k.  W, H,
    beta and M2 are the solver's (``solved`` and ``report``); Psi and alpha
    are the certified gains.  H and beta are built from the solver's later
    gains, so a gain edited at step j breaks the last two at every step
    before j."""
    m = report.M2[0].shape[0]
    n = forms.shape[-1] - m - 1
    checks = {"M2_residuals": {}, "WPsi_H_residuals": {}, "Walpha_beta_residuals": {}}
    for k, Q in enumerate(forms, start=t):
        M, Gamma, gamma = Q[n:n + m, n:n + m], Q[n:n + m, :n], Q[n:n + m, -1]
        for name, got, want in (
                ("M2_residuals", M, report.M2[k]),
                ("WPsi_H_residuals", Gamma, solved.W[k] @ gains.Psi[k] + solved.H[k]),
                ("Walpha_beta_residuals", gamma, solved.W[k] @ gains.alpha[k] + solved.beta[k])):
            checks[name][str(k)] = float(np.max(np.abs(got - want)))
    return checks


@np.errstate(over="ignore", invalid="ignore")  # checked: a non-finite result raises
def _rollout(p: ProblemData, gains, t: int, x0: np.ndarray, paths: int, noise):
    """Per-path family costs over steps t..N-1, streamed in blocks of paths.

    ``noise(start, rows)`` returns rows start..start+rows-1 of the
    (paths, N - t) noise matrix.  Each block of ``BLOCK`` paths is drawn
    once and rolled through all steps on one (2n, rows) centred state.
    Only the per-path costs grow with the path count.

    Every path starts at the atom, where the centred state is zero, so
    step t only moves it by its noise offset and adds nothing to the cost
    beyond the constants.  The moment sums are of x / 2^e, with 4^e the
    first power of four >= paths: a power of two scales exactly, and the
    second moment then overflows with the covariance it estimates, not
    ``paths`` times sooner.

    Returns the (paths,) costs and the {"k", "mean", "cov"} sample moments
    of x at steps t..N, accumulated as sums centred on the exact mean.
    Raises NumericalBreakdown at the first step whose sampled second
    moment is not finite, and if a per-path cost is not.
    """
    n, steps = p.n, p.N - t
    coefs, (G, g2), offset, means = _plan(p, gains, t, x0)
    costs = np.empty(paths)
    scale = 2.0 ** (-(paths - 1).bit_length() // 2)  # 2^-e
    s1 = np.zeros((steps + 1, n))
    s2 = np.zeros((steps + 1, n, n))

    for start in range(0, paths, BLOCK):
        rows = min(BLOCK, paths - start)
        # a one-column product would go to gemv, which rounds differently
        # from gemm: pad to two columns so that a path's cost never depends
        # on the block layout
        cols = max(rows, 2)
        w = np.ascontiguousarray(noise(start, rows).T)  # step j's noise is row j
        wk = np.zeros(cols)
        wk[:rows] = w[0]
        # the centred state over a constant row of ones, which applies each
        # step's offsets inside its matmul.  After step t it is c_t w_t, plus
        # 0.0 so that a -0.0 reads +0.0, as its sum with the zero kd-term did
        d = np.ones((2 * n + 1, cols))
        z, x = d[:2 * n], d[:n, :rows]
        np.multiply(coefs[0][2 * n:4 * n, 2 * n:], wk, out=z)
        z += 0.0
        xs = np.empty((n, rows))
        out = np.empty((6 * n, cols))
        cost = np.full(cols, offset)
        for j in range(1, steps + 1):
            np.multiply(x, scale, out=xs)
            s1[j] += xs.sum(axis=1)
            s2[j] += xs @ xs.T
            if j == steps:
                break
            np.matmul(coefs[j], d, out=out)
            q, kwd, kdd = out[:2 * n], out[2 * n:4 * n], out[4 * n:]
            cost += np.einsum("in,in->n", q, z)
            wk[:rows] = w[j]
            kwd *= wk
            np.add(kdd, kwd, out=z)
        y, q = d[n:2 * n], out[:n]
        np.matmul(G, y, out=q)
        q += g2[:, None]
        cost += np.einsum("in,in->n", q, y)
        costs[start:start + rows] = cost[:rows]

    moments = []
    for j in range(steps + 1):
        cov = np.zeros((n, n))
        if paths > 1:
            cov = sym_part((s2[j] - np.outer(s1[j], s1[j]) / paths) / (paths - 1)) / scale**2
        if not (np.isfinite(s2[j]).all() and np.isfinite(cov).all()):
            # the state at step t + j is the outcome of step t + j - 1
            raise NumericalBreakdown(
                f"the sampled second moment is not finite at step {t + j - 1}")
        moments.append({"k": t + j, "mean": means[j][:n] + s1[j] / paths / scale, "cov": cov})
    if not np.isfinite(costs).all():
        raise NumericalBreakdown("a per-path cost is not finite")
    return costs, moments


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
    steps = p.N - t
    costs, moments = _rollout(p, gains, t, x0, cfg.paths,
                              lambda start, rows: draw_noise(cfg, rows, steps, start))
    with np.errstate(over="ignore", invalid="ignore"):  # finite costs can sum past the float range
        mean_cost = float(costs.mean())
    if not np.isfinite(mean_cost):
        raise NumericalBreakdown("the mean of the per-path costs is not finite")
    std_error = None
    if cfg.paths > 1:
        with np.errstate(over="ignore"):
            std_error = float(costs.std(ddof=1) / np.sqrt(cfg.paths))
        if not np.isfinite(std_error):
            raise NumericalBreakdown("the spread of the per-path costs is not finite")
    return SimResult(mean_cost, std_error, moments)

