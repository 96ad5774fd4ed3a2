"""Shared generators for randomised solver and oracle tests."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from meanfield_lq import model, montecarlo, recursion
from meanfield_lq.tree import AdaptedProcess


def rand_psd(rng, d, scale=0.5):
    a = rng.normal(size=(d, d)) * scale
    return a @ a.T


def make_problem(rng, n, m, N, scale=0.5, convex=True, meanfield=True,
                 coupled=False, homogeneous=False):
    """Random instance with full triangular data.

    convex      weights chosen PSD (controls strictly PD) so the one-instant
                deviation coefficients are positive at every step
    meanfield   include nonzero barred blocks
    coupled     rescale input blocks so the summed B and D have norm >= 0.5
    homogeneous zero out every affine term
    """
    p = model.ProblemData(n, m, N)
    for t, k in p.pairs():
        p.A[t, k] = rng.normal(size=(n, n)) * scale
        p.C[t, k] = rng.normal(size=(n, n)) * scale
        p.Abar[t, k] = rng.normal(size=(n, n)) * scale if meanfield else np.zeros((n, n))
        p.Cbar[t, k] = rng.normal(size=(n, n)) * scale if meanfield else np.zeros((n, n))
        for name, bar in (("B", "Bbar"), ("D", "Dbar")):
            base = rng.normal(size=(n, m)) * scale
            extra = rng.normal(size=(n, m)) * 0.5 * scale if meanfield else np.zeros((n, m))
            if coupled:
                total = np.linalg.norm(base + extra)
                if total < 0.5:
                    factor = 0.8 / max(total, 1e-6)
                    base = base * factor
                    extra = extra * factor
            getattr(p, name)[t, k] = base
            getattr(p, bar)[t, k] = extra
        if convex:
            Q = rand_psd(rng, n, scale)
            Qsum = rand_psd(rng, n, scale)
            R = rand_psd(rng, m, scale) + 0.4 * np.eye(m)
            Rsum = rand_psd(rng, m, scale) + 0.4 * np.eye(m)
        else:
            Q = rand_sym(rng, n, scale)
            Qsum = Q + (rand_sym(rng, n, scale) if meanfield else 0.0)
            R = rand_sym(rng, m, scale)
            Rsum = R + (rand_sym(rng, m, scale) if meanfield else 0.0)
        p.Q[t, k] = Q
        p.Qbar[t, k] = Qsum - Q if meanfield else np.zeros((n, n))
        p.R[t, k] = R
        p.Rbar[t, k] = Rsum - R if meanfield else np.zeros((m, m))
        for name, dim in (("f", n), ("d", n), ("q", n), ("rho", m)):
            vec = np.zeros(dim) if homogeneous else rng.normal(size=dim) * scale
            getattr(p, name)[t, k] = vec
    for t in range(N):
        if convex:
            G = rand_psd(rng, n, scale)
            Gsum = rand_psd(rng, n, scale)
        else:
            G = rand_sym(rng, n, scale)
            Gsum = G + (rand_sym(rng, n, scale) if meanfield else 0.0)
        p.G.append(G)
        p.Gbar.append(Gsum - G if meanfield else np.zeros((n, n)))
        p.g.append(np.zeros(n) if homogeneous else rng.normal(size=n) * scale)
    return p


def rand_sym(rng, d, scale=0.5):
    a = rng.normal(size=(d, d)) * scale
    return 0.5 * (a + a.T)


def from_no_meanfield(n, m, N, **data):
    """`model.from_time_invariant` with every barred block, and Gbar, set
    to zero; the unbarred data (A, B, C, D, f, d, Q, R, q, rho, G, g) take
    its forms."""
    nn, nm = np.zeros((n, n)), np.zeros((n, m))
    return model.from_time_invariant(n, m, N, **data, Abar=nn, Bbar=nm, Cbar=nn, Dbar=nm,
                                     Qbar=nn, Rbar=np.zeros((m, m)), Gbar=nn)


def identity_dynamics_problem(N=3):
    """A = I, no noise terms, unit terminal weight: P stays the identity."""
    z = np.zeros((1, 1))
    one = np.ones((1, 1))
    return model.from_time_invariant(
        1, 1, N, A=one, Abar=z, B=z, Bbar=z, C=z, Cbar=z, D=z, Dbar=z,
        f=np.zeros(1), d=np.zeros(1), Q=z, Qbar=z, R=one, Rbar=z,
        q=np.zeros(1), rho=np.zeros(1), G=one, Gbar=z, g=np.zeros(1),
    )


def zero_weight_problem(rho=0.0):
    """identity_dynamics_problem with no control: W = 0 at every step."""
    p = identity_dynamics_problem()
    for t, k in p.pairs():
        p.R[t, k] = np.zeros((1, 1))
        p.B[t, k] = np.zeros((1, 1))
        p.D[t, k] = np.zeros((1, 1))
        p.rho[t, k] = rho * np.ones(1)
    return p


def overflowing_member_problem(N=3):
    """A scalar instance with W = 0 at every step: the unperturbed solve is
    finite, but a subnormal shift has a pseudoinverse that overflows, and T
    with it, at stage N - 1."""
    one, z = np.ones((1, 1)), np.zeros((1, 1))
    return model.from_time_invariant(
        1, 1, N, A=one, Abar=z, B=one, Bbar=z, C=z, Cbar=z, D=z, Dbar=z,
        f=np.zeros(1), d=np.zeros(1), Q=z, Qbar=z, R=-one, Rbar=z, q=np.zeros(1),
        rho=np.zeros(1), G=one, Gbar=z, g=np.zeros(1),
    )


def bench_problem(N, seed=1, n=2, m=2):
    """The benchmark's instance `bench/instances.make_problem` at
    default_rng(seed), loaded from its file so that the tests import no
    benchmark package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    return instances.make_problem(np.random.default_rng(seed), n, m, N)


def scaled_noise_problem(p, factor):
    """``p`` with every C block (the state's noise coefficient) times
    ``factor``, in place."""
    for key in list(p.C):
        p.C[key] = p.C[key] * factor
    return p


def duplicated_control_problem(rng, n=2, N=3):
    """Both control channels act identically, so every W is singular by
    construction while H and beta stay inside its column space."""
    m = 2
    p = make_problem(rng, n, m, N, convex=True)
    for t, k in p.pairs():
        colb = rng.normal(size=(n, 1)) * 0.6
        cold = rng.normal(size=(n, 1)) * 0.6
        p.B[t, k] = np.hstack([colb, colb])
        p.Bbar[t, k] = np.zeros((n, m))
        p.D[t, k] = np.hstack([cold, cold])
        p.Dbar[t, k] = np.zeros((n, m))
        r = 0.5 + float(rng.random())
        p.R[t, k] = r * np.ones((m, m))
        p.Rbar[t, k] = np.zeros((m, m))
        p.rho[t, k] = float(rng.normal()) * np.ones(m)
    return p


def constant_control(p, t, value=None):
    """Control process equal to one fixed vector (default zero) at every node."""
    vec = np.zeros(p.m) if value is None else np.asarray(value, dtype=float)
    return AdaptedProcess({k: np.tile(vec, (2**k, 1)) for k in range(t, p.N)})


def zero_gains(p):
    """The gain schedule of the zero control (`constant_control(p, t)`)."""
    return recursion.GainSchedule(*([np.zeros(shape)] * p.N for shape in (
        (p.m, p.m), (p.m, p.m), (p.m, p.n), (p.m,), (p.m, p.n), (p.m,))))


def moment_certificate(p, gains, init):
    """The certificate that `verify` runs on one `deviation_forms` call,
    and the forms it read.  A start family (one state per level-t node)
    mixes the moments of its atoms; the forms do not depend on the atom."""
    x = np.asarray(init.x, dtype=float)
    atoms = [montecarlo.deviation_forms(p, gains, model.InitialPair(init.t, row))
             for row in (x[None] if x.ndim == 1 else x)]
    forms, moments = atoms[0]
    if len(atoms) > 1:
        moments = []
        for rows in zip(*(a[1] for a in atoms)):
            mean = np.mean([r["mean"] for r in rows], axis=0)
            second = np.mean([r["cov"] + np.outer(r["mean"], r["mean"]) for r in rows], axis=0)
            moments.append({"k": rows[0]["k"], "mean": mean,
                            "cov": second - np.outer(mean, mean)})
    return montecarlo.certify_forms(forms, moments), forms


def assert_certificates_agree(exact, moment, forms, states):
    """The moment certificate gives the exact tree's verdict and its
    lambda_min(M_k), and its values sit where the law of the level-k
    states puts them, each up to 1e-12 of the size of the restarted cost,
    the form's largest entry times (1 + the largest |x| at the step)**2.
    A level-k node has probability 2**-k, so the residual (the rms of g)
    and the node max |g| satisfy rms <= max <= 2**(k/2) rms; the mean gap
    is no less than the least node gap, and when M_k is positive definite
    every node gap is <= 0, so the mean gap is at most 2**-k times the
    least one."""
    assert moment.verdict == exact.verdict
    ks = list(exact.stationary_residuals)
    assert list(moment.stationary_residuals) == ks == list(moment.convexity_values)
    for k, Q, mine, theirs in zip(ks, forms, moment.worst_gaps, exact.worst_gaps):
        tol = 1e-12 * (1.0 + np.max(np.abs(Q))) * (1.0 + np.max(np.abs(states[k]))) ** 2
        rms, top = moment.stationary_residuals[k], exact.stationary_residuals[k]
        assert rms <= top + tol and top <= 2.0 ** (k / 2) * (rms + tol), (k, rms, top)
        assert abs(moment.convexity_values[k] - exact.convexity_values[k]) <= tol
        assert mine["k"] == theirs["k"] == k
        assert theirs["min_gap"] - tol <= mine["min_gap"], (k, mine, theirs)
        if exact.convexity_values[k] > 0.0:
            assert mine["min_gap"] <= 2.0 ** -k * theirs["min_gap"] + tol, (k, mine, theirs)


def fro(m):
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m, dtype=float)))


def penrose_residuals(a, d):
    """Frobenius residuals of the four Penrose identities for (M, M^+)."""
    a, d = np.asarray(a, dtype=float), np.asarray(d, dtype=float)
    ad, da = a @ d, d @ a
    return fro(ad @ a - a), fro(da @ d - d), fro(ad.T - ad), fro(da.T - da)


def random_dims(rng, max_nm=3, max_N=5):
    return int(rng.integers(1, max_nm + 1)), int(rng.integers(1, max_nm + 1)), int(rng.integers(2, max_N + 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture(scope="session")
def example():
    p = model.bundled_example()
    assert model.validate(p) == []
    return p
