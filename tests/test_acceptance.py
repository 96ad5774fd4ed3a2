"""Release criteria, one test per numbered check.

Each test prints a PASS line on success (visible with ``pytest -s``); under
``pytest -v`` the test name itself is the pass/fail line.  Every tolerance
is pinned here, not in helper code.

Step-1 references (criteria 1a, 2a, 3a) and the step-0 deviation
coefficient (1b) are the values recorded for the bundled example.  The
recorded step-0 gains and spectrum (``W0_REF``, ``W0H0_REF``, ``W0B0_REF``,
``EIG_W0_REF``) are not an equilibrium of the example's data: the exact tree
rejects the control they define (``test_recorded_step0_gains_rejected``).
Criteria 2b and 3b therefore take their references from the exact tree
alone: the step-k stationarity map is affine in (x, u_k) with the later
controls frozen as an open-loop process, and its coefficients W_k, H_k,
beta_k are read off by unit-vector differences (``tree_gain_blocks``).
The tree never consults the recursions, so agreement is evidence.
"""

import time

import numpy as np
import pytest

from meanfield_lq import matrices as mx
from meanfield_lq import model, montecarlo as mc, recursion, tree
from meanfield_lq.model import InitialPair
from meanfield_lq.tree import AdaptedProcess

import recursion_reference as rref
from conftest import assert_certificates_agree, make_problem, moment_certificate, penrose_residuals
from tree_reference import deviated_control

M12_REF = np.array([[400.8004, -330.6524], [-330.6524, 673.2241]])
M02_REF = np.array([[24209.0, 11560.0], [11560.0, 28652.0]])
W1H1_REF = np.array([[1.1320, 0.1179], [0.0254, 1.0388]])
W1B1_REF = np.array([-0.3381, 0.1433])
# Printed step-0 gains and spectrum of the bundled example.  They fail the
# exact-tree certificate (test_recorded_step0_gains_rejected), so 2b and 3b
# compare against tree_gain_blocks instead.
W0H0_REF = np.array([[0.8661, -0.4704], [0.0520, 0.9824]])
W0B0_REF = np.array([-0.2003, -0.1582])
W0_REF = np.array([[12637.0, 932.0], [-6334.0, 3464.0]])
EIG_W1_REF = (179.4026, 894.6219)
EIG_W0_REF = (11940.0, 4160.0)


def tree_gain_blocks(p):
    """Per-step (W_k, H_k, beta_k) read off the exact tree, last step first.

    The step-k stationarity gradient at a restart (k, x) with step-k control
    u is W_k u + H_k x + beta_k, where each later control is the open-loop
    process Psi_l X*_l + alpha_l along the state concatenated from (k, x).
    Unit-vector differences of that map give its coefficients; the later
    feedback comes from the steps already read.
    """
    blocks, feedback = {}, {}
    for k in range(p.N - 1, -1, -1):
        def grad(x, u):
            init = InitialPair(k, x)
            control = AdaptedProcess({l: np.zeros((2**l, p.m)) for l in range(k, p.N)})
            control.values[k][:] = u
            for l in range(k + 1, p.N):
                star = tree.concatenated_state(p, control, init)
                psi, alpha = feedback[l]
                control.values[l] = star.values[l] @ psi.T + alpha
            state = tree.roll_forward(p, init, control, k)
            return tree.stationarity_gradient(p, state, control, k)[0]

        beta = grad(np.zeros(p.n), np.zeros(p.m))
        H = np.column_stack([grad(e, np.zeros(p.m)) - beta for e in np.eye(p.n)])
        W = np.column_stack([grad(np.zeros(p.n), e) - beta for e in np.eye(p.m)])
        feedback[k] = (-np.linalg.solve(W, H), -np.linalg.solve(W, beta))
        blocks[k] = (W, H, beta)
    return blocks


@pytest.fixture(scope="module")
def solved_example():
    p = model.bundled_example()
    start = time.monotonic()
    tables, gains, report = recursion.solve_gdre_global(p)
    elapsed = time.monotonic() - start
    return p, tables, gains, report, elapsed


def test_criterion_1a_step1_deviation_coefficient(solved_example):
    p, tables, _, report, elapsed = solved_example
    m12 = report.M2[1]
    assert np.max(np.abs(m12 - M12_REF)) <= 1e-3
    assert elapsed < 1.0
    print(f"criterion 1a: PASS (step-1 coefficient, {elapsed * 1e3:.1f} ms)")


def test_criterion_1b_step0_deviation_coefficient(solved_example):
    p, tables, _, report, _ = solved_example
    m02 = report.M2[0]
    rel = np.max(np.abs(m02 - M02_REF) / np.abs(M02_REF))
    assert rel <= 5e-3, f"step-0 coefficient off by {rel:.3%} relative"
    print("criterion 1b: PASS")


def test_criterion_2a_step1_gains(solved_example):
    _, _, gains, _, _ = solved_example
    assert np.max(np.abs(-gains.Psi[1] - W1H1_REF)) <= 1e-3
    assert np.max(np.abs(-gains.alpha[1] - W1B1_REF)) <= 1e-3
    print("criterion 2a: PASS (step-1 gains)")


def test_criterion_2b_step0_gains(solved_example):
    p, _, gains, _, _ = solved_example
    w0, h0, beta0 = tree_gain_blocks(p)[0]
    rel_w = np.max(np.abs(gains.W[0] - w0) / np.abs(w0))
    err_h = np.max(np.abs(-gains.Psi[0] - np.linalg.solve(w0, h0)))
    err_b = np.max(np.abs(-gains.alpha[0] - np.linalg.solve(w0, beta0)))
    assert rel_w <= 5e-3, f"step-0 weight matrix off by {rel_w:.3%} relative"
    assert err_h <= 1e-3, f"step-0 feedback gain off by {err_h:.3g}"
    assert err_b <= 1e-3, f"step-0 offset gain off by {err_b:.3g}"
    print("criterion 2b: PASS (step-0 gains match the exact tree)")


def test_recorded_step0_gains_rejected(solved_example):
    # the control the printed gains define at x = (1, 1) is no equilibrium:
    # it is not stationary at step 0, and moving its step-0 value along the
    # negative gradient lowers the restarted cost
    p, _, _, _, _ = solved_example
    x = np.array([1.0, 1.0])
    init = InitialPair(0, x)
    control = AdaptedProcess({0: (-(W0H0_REF @ x) - W0B0_REF)[None, :],
                              1: np.zeros((2, p.m))})
    star = tree.concatenated_state(p, control, init)
    control.values[1] = -(star.values[1] @ W1H1_REF.T) - W1B1_REF
    cert = tree.certify_equilibrium(p, init, control, 0)
    assert not cert.verdict
    assert cert.stationary_residuals[0] > 1e3 * cert.tol_stationary
    # the closed-form certificate that `verify` runs rejects the same control
    printed = recursion.GainSchedule([None] * 2, [None] * 2, [None] * 2, [None] * 2,
                                     [-W0H0_REF, -W1H1_REF], [-W0B0_REF, -W1B1_REF])
    moment, forms = moment_certificate(p, printed, init)
    assert_certificates_agree(cert, moment, forms, star.values)
    # the certificate's exact worst gap, confirmed by rolling its minimiser
    worst = cert.worst_gaps[0]
    assert worst["k"] == 0 and worst["min_gap"] <= -1e3
    restarted = abs(tree.cost(p, init, control, 0)[0])
    assert abs(worst["realised_gap"] - worst["min_gap"]) <= 1e-12 * (1.0 + restarted)

    state = tree.roll_forward(p, init, control, 0)
    grad = tree.stationarity_gradient(p, state, control, 0)[0]
    direction = -grad / np.linalg.norm(grad)
    step = np.linalg.norm(grad) / tree.variation_cost(p, 0, direction)
    base = tree.cost(p, init, control, 0)[0]
    moved = tree.cost(p, init, deviated_control(control, 0, step * direction), 0)[0]
    assert moved - base < -1e-6 * abs(base)
    print(f"recorded step-0 gains: rejected (residual {cert.stationary_residuals[0]:.3g}, "
          f"worst step-0 deviation gap {worst['min_gap']:.6g})")


def test_criterion_3a_step1_spectrum_and_invertibility(solved_example):
    _, _, gains, _, _ = solved_example
    eig1 = np.linalg.eigvalsh(mx.sym_part(gains.W[1]))
    assert abs(eig1[0] - EIG_W1_REF[0]) <= 1e-2
    assert abs(eig1[1] - EIG_W1_REF[1]) <= 1e-2
    for k in (0, 1):
        roots = np.linalg.eigvals(gains.W[k])
        assert min(abs(r) for r in roots) > 1e-6 * np.max(np.abs(gains.W[k]))
    print("criterion 3a: PASS (step-1 spectrum, both weights invertible)")


def test_criterion_3b_step0_spectrum(solved_example):
    p, _, gains, _, _ = solved_example
    w0 = tree_gain_blocks(p)[0][0]
    ref = sorted(np.linalg.eigvals(w0).real, reverse=True)
    roots = sorted(np.linalg.eigvals(gains.W[0]).real, reverse=True)
    assert abs(roots[0] - ref[0]) / abs(ref[0]) <= 0.01
    assert abs(roots[1] - ref[1]) / abs(ref[1]) <= 0.01
    print(f"criterion 3b: PASS (step-0 spectrum {roots[0]:.1f}, {roots[1]:.1f})")


def test_criterion_4_equilibrium_certification(solved_example):
    p, _, gains, _, _ = solved_example
    start = time.monotonic()
    init = InitialPair(0, np.array([1.0, 1.0]))
    _, control = tree.equilibrium_pair(p, gains, init)
    cert = tree.certify_equilibrium(p, init, control, 0)
    assert cert.verdict
    assert max(cert.stationary_residuals.values()) <= 1e-8
    assert all(g["min_gap"] >= -1e-9 for g in cert.worst_gaps)
    assert moment_certificate(p, gains, init)[0].verdict

    rng = np.random.default_rng(20250804)
    done = 0
    while done < 25:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 7))
        q = make_problem(rng, n, m, N, convex=True)
        _, g, rep = recursion.solve_gdre_global(q)
        if min(rep.convexity_margins) < 0.0 or max(
            max(rep.rangeH_residuals), max(rep.rangeBeta_residuals)
        ) > 1e-8:
            continue
        init_q = InitialPair(0, rng.normal(size=n))
        _, ctrl = tree.equilibrium_pair(q, g, init_q)
        c = tree.certify_equilibrium(q, init_q, ctrl, 0)
        assert c.verdict, f"instance {done} failed certification"
        assert moment_certificate(q, g, init_q)[0].verdict, f"instance {done}: moment verdict"
        assert max(c.stationary_residuals.values()) <= 1e-8
        assert all(gap["min_gap"] >= -1e-9 for gap in c.worst_gaps)
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"criterion 4: PASS (example + 25 random instances certified, {elapsed:.1f} s)")


def test_criterion_5a_cost_difference_identity():
    rng = np.random.default_rng(55_01)
    for trial in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        p = make_problem(rng, n, m, N, convex=False, scale=0.45)
        k = int(rng.integers(0, N))
        u = AdaptedProcess({l: rng.normal(size=(2**l, m)) for l in range(k, N)})
        zeta = rng.normal(size=(2**k, n))
        ubar = rng.normal(size=m)
        lam = float(rng.uniform(-1.0, 1.0))
        res = tree.difference_formula_check(p, k, zeta, u, ubar, lam)
        assert res <= 1e-10, f"tuple {trial}: residual {res:.3e}"
    print("criterion 5a: PASS (cost-difference identity, 50 tuples)")


def test_criterion_5b_variation_cost_identity():
    rng = np.random.default_rng(55_02)
    for trial in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 6))
        p = make_problem(rng, n, m, N, convex=False, scale=0.45)
        tab = recursion.solve_symmetric(p)
        k = int(rng.integers(0, N))
        ubar = rng.normal(size=m)
        want = float(ubar @ recursion.convexity_margins(p, tab)[1][k] @ ubar)
        got = tree.variation_cost(p, k, ubar)
        assert abs(got - want) <= 1e-9, f"tuple {trial}: gap {abs(got - want):.3e}"
    print("criterion 5b: PASS (variation cost identity, 50 tuples)")


def test_criterion_5c_adjoint_representation():
    rng = np.random.default_rng(55_03)
    for trial in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        p = make_problem(rng, n, m, N, convex=False, scale=0.45)
        tab, gains, _ = recursion.solve_gdre_global(p)
        x = rng.normal(size=n)
        k = int(rng.integers(0, N))
        res = tree.representation_check(p, gains, 0, x, k, tab)
        assert res <= 1e-8, f"instance {trial}: residual {res:.3e}"
    print("criterion 5c: PASS (adjoint representation, 25 instances)")


def test_criterion_5d_restart_consistency():
    rng = np.random.default_rng(55_04)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 6))
        p = make_problem(rng, n, m, N, convex=False, scale=0.5)
        control = AdaptedProcess({l: rng.normal(size=(2**l, m)) for l in range(N)})
        init = InitialPair(0, rng.normal(size=n))
        star = tree.concatenated_state(p, control, init)
        for k in range(N):
            restart = tree.roll_forward(p, InitialPair(k, star.values[k]), control, k)
            gap = np.max(np.abs(restart.values[k + 1] - star.values[k + 1]))
            scale = 1.0 + np.max(np.abs(star.values[k + 1]))
            assert gap <= 1e-12 * scale
    print("criterion 5d: PASS (restart consistency, node-wise)")


def test_criterion_5e_pseudoinverse_identities():
    rng = np.random.default_rng(55_05)
    checked = 0
    for trial in range(200):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        if trial % 2 and min(r, c) > 1:
            rank = int(rng.integers(1, min(r, c)))
            a = rng.normal(size=(r, rank)) @ rng.normal(size=(rank, c))
        else:
            a = rng.normal(size=(r, c)) * 2.0
        d = mx.pinv(a)
        assert max(penrose_residuals(a, d)) <= 1e-10
        checked += 1
    assert checked == 200
    print("criterion 5e: PASS (four pseudoinverse identities, 200 matrices)")


def test_criterion_6_negative_controls():
    rng = np.random.default_rng(66_01)
    flips = 0
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        p = make_problem(rng, n, m, N, convex=True, coupled=True)
        _, gains, rep = recursion.solve_gdre_global(p)
        assert rep.verdict_all_pairs
        init = InitialPair(0, rng.normal(size=n))
        kk = int(rng.integers(0, N))
        bad_psi = [s.copy() for s in gains.Psi]
        bad_psi[kk][int(rng.integers(0, m)), int(rng.integers(0, n))] += 0.1
        bad = recursion.GainSchedule(gains.W, gains.Wdag, gains.H, gains.beta,
                                     bad_psi, gains.alpha)
        _, control = tree.equilibrium_pair(p, bad, init)
        cert = tree.certify_equilibrium(p, init, control, 0)
        assert moment_certificate(p, bad, init)[0].verdict == cert.verdict
        if not cert.verdict and max(cert.stationary_residuals.values()) > 1e-3:
            flips += 1
    assert flips >= 24, f"only {flips}/25 perturbed schedules were rejected"
    print(f"criterion 6: PASS (negative controls, {flips}/25 rejected)")


def test_criterion_7_reductions():
    rng = np.random.default_rng(77_01)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 5))
        p = make_problem(rng, n, m, N, meanfield=False, convex=False, scale=0.5)
        if trial % 2:
            # route through the dedicated constructor on alternate trials
            p = model.from_no_meanfield(
                n, m, N, A=p.A, B=p.B, C=p.C, D=p.D, f=p.f, d=p.d,
                Q=p.Q, R=p.R, q=p.q, rho=p.rho, G=p.G, g=p.g,
            )
        t1, g1, _ = recursion.solve_gdre_global(p)
        t2, g2, _ = rref.solve_no_meanfield(p)
        for key in t1.P:
            scale = 1.0 + np.max(np.abs(t1.P[key]))
            assert np.max(np.abs(t1.P[key] - t2.P[key])) <= 1e-10 * scale
            assert np.max(np.abs(t1.Pcal[key] - t1.P[key])) <= 1e-10 * scale
            assert np.max(np.abs(t1.T[key] - t2.T[key])) <= 1e-10 * (
                1.0 + np.max(np.abs(t1.T[key])))
            assert np.max(np.abs(t1.Tcal[key] - t1.T[key])) <= 1e-10 * (
                1.0 + np.max(np.abs(t1.T[key])))
            assert np.max(np.abs(t1.pi[key] - t2.pi[key])) <= 1e-10 * (
                1.0 + np.max(np.abs(t1.pi[key])))
        for k in range(N):
            for a, b in ((g1.W[k], g2.W[k]), (g1.H[k], g2.H[k]),
                         (g1.Psi[k], g2.Psi[k]), (g1.alpha[k], g2.alpha[k])):
                assert np.max(np.abs(a - b)) <= 1e-10 * (1.0 + np.max(np.abs(a)))

    for _ in range(5):
        N = int(rng.integers(2, 6))
        blocks = {name: rng.normal(size=(2, 2)) * 0.5
                  for name in ("A", "Abar", "B", "Bbar", "C", "Cbar", "D", "Dbar")}
        blocks.update(f=rng.normal(size=2), d=rng.normal(size=2),
                      q=rng.normal(size=2), rho=rng.normal(size=2))
        s1 = rng.normal(size=(2, 2)); s2 = rng.normal(size=(2, 2))
        blocks["Q"] = s1 @ s1.T
        blocks["Qbar"] = s2 @ s2.T - blocks["Q"]
        s3 = rng.normal(size=(2, 2)); s4 = rng.normal(size=(2, 2))
        blocks["R"] = s3 @ s3.T + 0.4 * np.eye(2)
        blocks["Rbar"] = s4 @ s4.T + 0.4 * np.eye(2) - blocks["R"]
        s5 = rng.normal(size=(2, 2))
        p = model.from_time_invariant(2, 2, N, **blocks, G=s5 @ s5.T,
                                      Gbar=np.eye(2), g=rng.normal(size=2))
        tab, _, _ = recursion.solve_gdre_global(p)
        for name in ("P", "Pcal", "T", "Tcal", "pi"):
            d = getattr(tab, name)
            for l in range(N + 1):
                for k in range(1, min(l + 1, N)):
                    scale = 1.0 + np.max(np.abs(d[0, l]))
                    assert np.max(np.abs(d[k, l] - d[0, l])) <= 1e-10 * scale
    print("criterion 7: PASS (no-mean-field and time-invariant reductions)")


def test_criterion_8_epsilon_sweep(solved_example):
    p, _, gains, _, _ = solved_example

    def dist(eps):
        _, g_eps, _ = recursion.solve_shifts(p, (eps,))[0]
        return max(
            max(np.max(np.abs(g_eps.Psi[k] - gains.Psi[k])),
                np.max(np.abs(g_eps.alpha[k] - gains.alpha[k])))
            for k in range(p.N)
        )

    d = [dist(e) for e in (1e-2, 1e-4, 1e-6)]
    assert d[0] > d[1] > d[2]
    assert d[2] <= 1e-4
    print(f"criterion 8: PASS (gain distances {d[0]:.2e} > {d[1]:.2e} > {d[2]:.2e})")


def test_criterion_9_monte_carlo_cross_check(solved_example):
    p, _, gains, _, _ = solved_example
    start = time.monotonic()
    init = InitialPair(0, np.array([1.0, 1.0]))
    _, control = tree.equilibrium_pair(p, gains, init)
    exact = float(tree.cost(p, init, control, 0)[0])
    cfg = mc.SimConfig(paths=100_000, seed=42)
    res = mc.simulate(p, init, gains, cfg)
    assert abs(res.mean_cost - exact) <= 4.0 * res.std_error
    rerun = mc.simulate(p, init, gains, cfg)
    assert rerun.mean_cost == res.mean_cost
    assert rerun.std_error == res.std_error
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        "criterion 9: PASS "
        f"(cost {res.mean_cost:.2f} vs exact {exact:.2f}, "
        f"z = {(res.mean_cost - exact) / res.std_error:.2f}, {elapsed:.1f} s)"
    )
