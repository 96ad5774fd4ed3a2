import ast
from pathlib import Path

import numpy as np
import pytest

from meanfield_lq import matrices, model, montecarlo, recursion, tree
from meanfield_lq.errors import DimensionMismatch, HorizonMismatch
from meanfield_lq.model import InitialPair
from meanfield_lq.tree import AdaptedProcess, ScenarioTree

import tree_reference as ref
from conftest import (assert_certificates_agree, constant_control, duplicated_control_problem,
                      identity_dynamics_problem, make_problem, moment_certificate, random_dims,
                      zero_gains, zero_weight_problem)


def all_ones_scalar_problem(N=2):
    one = np.ones((1, 1))
    vec1 = np.ones(1)
    return model.from_time_invariant(
        1, 1, N, A=one, Abar=one, B=one, Bbar=one, C=one, Cbar=one,
        D=one, Dbar=one, f=np.zeros(1), d=np.zeros(1), Q=one, Qbar=one,
        R=one, Rbar=one, q=np.zeros(1), rho=np.zeros(1), G=one, Gbar=one,
        g=np.zeros(1),
    )


class TestTreeBasics:
    def test_depth_cap(self):
        with pytest.raises(HorizonMismatch):
            ScenarioTree(15)
        assert ScenarioTree(tree.MAX_DEPTH).depth == tree.MAX_DEPTH

    @pytest.mark.parametrize("call", [
        lambda p: tree.roll_forward(p, None, None, 0),
        lambda p: tree.cost(p, None, None, 0),
        lambda p: tree.concatenated_state(p, None, None),
        lambda p: tree.solve_bsde(p, None, 0),
        lambda p: tree.stationarity_gradient(p, None, None, 0),
        lambda p: tree.stationarity_residuals(p, None, None, 0),
        lambda p: tree.variation_cost(p, 0, None),
        lambda p: tree.difference_formula_check(p, 0, None, None, None, 1.0),
        lambda p: tree.representation_check(p, None, 0, None, 0, None),
        lambda p: tree.equilibrium_pair(p, None, None),
        lambda p: tree.certify_equilibrium(p, None, None, 0),
    ])
    def test_every_operation_keeps_the_depth_cap(self, call, rng):
        # no operation takes a tree that lifts the cap; each checks it first
        with pytest.raises(HorizonMismatch, match="exceeds the cap"):
            call(make_problem(rng, 1, 1, tree.MAX_DEPTH + 1))

    def test_tower_property(self, rng):
        vals = rng.normal(size=(2**5, 3))
        inner = ref.cond_mean(vals, 5, 3)
        # identical up to summation order
        np.testing.assert_allclose(
            ref.cond_mean(inner, 3, 1), ref.cond_mean(vals, 5, 1), rtol=0, atol=1e-14
        )

    def test_child_moments_realise_unit_noise(self, rng):
        # E[w] = 0 and E[w^2] = 1 at every node: averaging the children of a
        # process of the form a + b*w recovers a, the half-difference b
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(4, 2))
        child = np.empty((8, 2))
        child[0::2] = a + b
        child[1::2] = a - b
        np.testing.assert_allclose(ref.child_mean(child), a, rtol=0, atol=1e-15)
        np.testing.assert_allclose(ref.child_wmean(child), b, rtol=0, atol=1e-15)


class TestRollForward:
    def test_no_diffusion_children_equal(self, rng):
        p = make_problem(rng, 2, 2, 3)
        for t, k in p.pairs():
            p.C[t, k] = np.zeros((2, 2))
            p.Cbar[t, k] = np.zeros((2, 2))
            p.D[t, k] = np.zeros((2, 2))
            p.Dbar[t, k] = np.zeros((2, 2))
            p.d[t, k] = np.zeros(2)
        control = constant_control(p, 0, rng.normal(size=2))
        state = tree.roll_forward(p, InitialPair(0, rng.normal(size=2)), control, 0)
        for k in range(1, p.N + 1):
            v = state.values[k]
            assert np.array_equal(v[0::2], v[1::2])

    def test_all_ones_scalar_hand_values(self):
        p = all_ones_scalar_problem()
        control = constant_control(p, 0)
        state = tree.roll_forward(p, InitialPair(0, np.ones(1)), control, 0)
        np.testing.assert_array_equal(state.values[1][:, 0], [4.0, 0.0])
        # by hand: X2 = 2*(X1 + E0 X1)/2 summed drift/diffusion with E0 X1 = 2
        e0 = 2.0
        drift = state.values[1][:, 0] + e0
        leaves = np.empty(4)
        leaves[0::2] = drift + drift
        leaves[1::2] = drift - drift
        np.testing.assert_array_equal(state.values[2][:, 0], leaves)

    def test_missing_control_level_raises(self, rng):
        p = make_problem(rng, 2, 2, 3)
        control = AdaptedProcess({0: np.zeros((1, 2))})
        with pytest.raises(HorizonMismatch):
            tree.roll_forward(p, InitialPair(0, np.zeros(2)), control, 0)

    def test_atom_start_is_tiled(self, rng):
        # an n-vector start is one atom: every level-t node starts there
        p = make_problem(rng, 2, 2, 3)
        state = tree.roll_forward(p, InitialPair(2, [1.0, 2.0]), constant_control(p, 2), 2)
        assert np.array_equal(state.values[2], np.tile([1.0, 2.0], (4, 1)))

    def test_node_family_start_passes_through_as_a_copy(self, rng):
        p = make_problem(rng, 2, 2, 3)
        init = InitialPair(2, np.arange(8.0).reshape(4, 2))
        state = tree.roll_forward(p, init, constant_control(p, 2), 2)
        assert np.array_equal(state.values[2], init.x)
        state.values[2][0, 0] = 99.0
        assert np.array_equal(init.x, np.arange(8.0).reshape(4, 2))

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (1, 2), (4, 3)])
    def test_wrong_start_shape_raises(self, shape, rng):
        p = make_problem(rng, 2, 2, 3)
        with pytest.raises(DimensionMismatch, match="initial state"):
            tree.roll_forward(p, InitialPair(2, np.ones(shape)), constant_control(p, 2), 2)


class TestCost:
    def test_zero_weights_zero_cost(self, rng):
        p = make_problem(rng, 2, 2, 3)
        for t, k in p.pairs():
            p.Q[t, k] = np.zeros((2, 2))
            p.Qbar[t, k] = np.zeros((2, 2))
            p.R[t, k] = np.zeros((2, 2))
            p.Rbar[t, k] = np.zeros((2, 2))
            p.q[t, k] = np.zeros(2)
            p.rho[t, k] = np.zeros(2)
        p.G = [np.zeros((2, 2))] * p.N
        p.Gbar = [np.zeros((2, 2))] * p.N
        p.g = [np.zeros(2)] * p.N
        control = constant_control(p, 0, rng.normal(size=2))
        j = tree.cost(p, InitialPair(0, rng.normal(size=2)), control, 0)
        assert np.array_equal(j, np.zeros(1))

    def test_two_leaf_terminal_variance(self):
        z = np.zeros((1, 1))
        one = np.ones((1, 1))
        p = model.from_time_invariant(
            1, 1, 1, A=one, Abar=z, B=z, Bbar=z, C=one, Cbar=z, D=z, Dbar=z,
            f=np.zeros(1), d=np.zeros(1), Q=z, Qbar=z, R=z, Rbar=z,
            q=np.zeros(1), rho=np.zeros(1), G=one, Gbar=z, g=np.zeros(1),
        )
        j = tree.cost(p, InitialPair(0, np.ones(1)), constant_control(p, 0), 0)
        # X1 = 1 +/- 1, so E[X1^2] = (4 + 0) / 2
        assert j[0] == 2.0

    def test_conditional_costs_per_node(self, rng):
        p = make_problem(rng, 2, 1, 3)
        control = constant_control(p, 1, rng.normal(size=1))
        fam = rng.normal(size=(2, 2))
        j = tree.cost(p, InitialPair(1, fam), control, 1)
        assert j.shape == (2,)
        assert np.all(np.isfinite(j))


class TestSolveBsde:
    def test_telescoping_conditional_expectation(self, rng):
        n = 2
        z = np.zeros((n, n))
        p = make_problem(rng, n, 1, 3)
        for t, k in p.pairs():
            p.A[t, k] = np.eye(n)
            p.Abar[t, k] = z.copy()
            p.C[t, k] = z.copy()
            p.Cbar[t, k] = z.copy()
            p.Q[t, k] = z.copy()
            p.Qbar[t, k] = z.copy()
            p.q[t, k] = np.zeros(n)
        p.G = [np.eye(n)] * 3
        p.Gbar = [z.copy()] * 3
        p.g = [np.zeros(n)] * 3
        control = constant_control(p, 0, np.zeros(1))
        state = tree.roll_forward(p, InitialPair(0, rng.normal(size=n)), control, 0)
        zproc = tree.solve_bsde(p, state, 0)
        for l in range(0, 4):
            want = ref.lift(ref.cond_mean(state.values[3], 3, l), l, l)
            np.testing.assert_allclose(zproc.values[l], want, atol=1e-12)

    def test_scalar_two_step_vs_enumeration(self, rng):
        p = make_problem(rng, 1, 1, 2, convex=False)
        control = AdaptedProcess({k: rng.normal(size=(2**k, 1)) for k in range(2)})
        x0 = rng.normal(size=1)
        state = tree.roll_forward(p, InitialPair(0, x0), control, 0)
        got = tree.solve_bsde(p, state, 0)

        # independent enumeration over the four leaves with explicit maps
        X1 = {s: float(state.values[1][i, 0]) for i, s in enumerate("+-")}
        X2 = {s1 + s2: float(state.values[2][2 * i + (0 if s2 == "+" else 1), 0])
              for i, s1 in enumerate("+-") for s2 in "+-"}
        G, Gb, gv = float(p.G[0][0, 0]), float(p.Gbar[0][0, 0]), float(p.g[0][0])
        e0x2 = sum(X2.values()) / 4.0
        Z2 = {w: G * X2[w] + Gb * e0x2 + gv for w in X2}
        a, ab = float(p.A[0, 1][0, 0]), float(p.Abar[0, 1][0, 0])
        c, cb = float(p.C[0, 1][0, 0]), float(p.Cbar[0, 1][0, 0])
        qv, qb, qc = float(p.Q[0, 1][0, 0]), float(p.Qbar[0, 1][0, 0]), float(p.q[0, 1][0])
        e0x1 = sum(X1.values()) / 2.0
        e0z2w = sum(0.5 * (Z2[w + "+"] - Z2[w + "-"]) for w in X1) / 2.0
        e0z2 = sum(Z2.values()) / 4.0
        Z1 = {}
        for w in X1:
            e1z2 = 0.5 * (Z2[w + "+"] + Z2[w + "-"])
            e1z2w = 0.5 * (Z2[w + "+"] - Z2[w + "-"])
            Z1[w] = (a * e1z2 + ab * e0z2 + c * e1z2w + cb * e0z2w
                     + qv * X1[w] + qb * e0x1 + qc)
        np.testing.assert_allclose(got.values[1][:, 0], [Z1["+"], Z1["-"]], atol=1e-12)


class TestStationarity:
    def test_uncontrolled_system_zero_residual(self, rng):
        p = make_problem(rng, 2, 2, 3)
        for t, k in p.pairs():
            p.B[t, k] = np.zeros((2, 2))
            p.Bbar[t, k] = np.zeros((2, 2))
            p.D[t, k] = np.zeros((2, 2))
            p.Dbar[t, k] = np.zeros((2, 2))
            p.R[t, k] = np.eye(2)
            p.Rbar[t, k] = np.zeros((2, 2))
            p.rho[t, k] = np.zeros(2)
        control = constant_control(p, 0)
        res = tree.stationarity_residuals(p, InitialPair(0, rng.normal(size=2)), control, 0)
        assert all(v == 0.0 for v in res.values())

    def test_solver_control_is_stationary(self, rng):
        p = make_problem(rng, 2, 2, 4)
        _, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(0, rng.normal(size=2))
        _, control = tree.equilibrium_pair(p, gains, init)
        res = tree.stationarity_residuals(p, init, control, 0)
        assert max(res.values()) <= 1e-9

    def test_perturbed_control_is_detected(self, rng):
        p = make_problem(rng, 2, 2, 3, coupled=True)
        _, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(0, rng.normal(size=2))
        _, control = tree.equilibrium_pair(p, gains, init)
        control.values[0] = control.values[0] + 0.1
        res = tree.stationarity_residuals(p, init, control, 0)
        assert res[0] > 0.01


class TestRestartConsistency:
    def test_first_step_matches_concatenated_state(self, rng):
        for _ in range(5):
            p = make_problem(rng, 2, 2, 4, convex=False)
            control = AdaptedProcess(
                {k: rng.normal(size=(2**k, 2)) for k in range(4)}
            )
            init = InitialPair(0, rng.normal(size=2))
            star = tree.concatenated_state(p, control, init)
            for k in range(p.N):
                restart = tree.roll_forward(p, InitialPair(k, star.values[k]), control, k)
                got = restart.values[k + 1]
                want = star.values[k + 1]
                assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))


class TestJhat:
    def test_zero_variation(self, rng):
        p = make_problem(rng, 2, 2, 3)
        assert tree.variation_cost(p, 1, np.zeros(2)) == 0.0

    def test_reference_step1_diagonal_entry(self, example):
        got = tree.variation_cost(example, 1, np.array([1.0, 0.0]))
        assert abs(got - 400.8004) < 1e-3

    def test_matches_quadratic_coefficient(self, rng):
        for _ in range(8):
            p = make_problem(rng, 2, 2, 4, convex=False)
            tab = recursion.solve_symmetric(p)
            k = int(rng.integers(0, 4))
            ub = rng.normal(size=2)
            want = float(ub @ recursion.convexity_margins(p, tab)[1][k] @ ub)
            assert abs(tree.variation_cost(p, k, ub) - want) <= 1e-9 * (1.0 + abs(want))

    def test_node_varying_variation(self, rng):
        p = make_problem(rng, 2, 2, 3)
        tab = recursion.solve_symmetric(p)
        ub = rng.normal(size=(2, 2))
        got = tree.variation_cost(p, 1, ub)
        m2 = recursion.convexity_margins(p, tab)[1][1]
        want = np.einsum("ni,ij,nj->n", ub, m2, ub)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_sign_tracks_convexity_margin(self, rng):
        # nonnegative variation costs in every direction iff the quadratic
        # coefficient is PSD: probe along its extreme eigvector
        found_negative = False
        for _ in range(20):
            p = make_problem(rng, 2, 2, 3, convex=False)
            tab = recursion.solve_symmetric(p)
            verdicts, mats = recursion.convexity_margins(p, tab)
            for k, (v, m2) in enumerate(zip(verdicts, mats)):
                w, vec = np.linalg.eigh(0.5 * (m2 + m2.T))
                val = tree.variation_cost(p, k, vec[:, 0])
                if v.min_eigenvalue < -1e-9:
                    assert val < 0.0
                    found_negative = True
                else:
                    assert val >= -1e-9 * (1.0 + abs(w[0]))
        assert found_negative  # the generator does produce nonconvex steps


class TestDifferenceFormula:
    def test_zero_lambda(self, rng):
        p = make_problem(rng, 2, 2, 3, convex=False)
        u = AdaptedProcess({k: rng.normal(size=(2**k, 2)) for k in range(3)})
        res = tree.difference_formula_check(p, 1, rng.normal(size=(2, 2)), u,
                                            rng.normal(size=2), 0.0)
        assert res <= 1e-12

    def test_zero_variation(self, rng):
        p = make_problem(rng, 2, 2, 3, convex=False)
        u = AdaptedProcess({k: rng.normal(size=(2**k, 2)) for k in range(3)})
        res = tree.difference_formula_check(p, 1, rng.normal(size=(2, 2)), u,
                                            np.zeros(2), 0.8)
        assert res <= 1e-12

    def test_random_tuples(self, rng):
        for _ in range(10):
            n, m, N = 2, 2, int(rng.integers(2, 5))
            p = make_problem(rng, n, m, N, convex=False)
            k = int(rng.integers(0, N))
            u = AdaptedProcess({l: rng.normal(size=(2**l, m)) for l in range(k, N)})
            zeta = rng.normal(size=(2**k, n))
            res = tree.difference_formula_check(p, k, zeta, u, rng.normal(size=m),
                                                float(rng.uniform(-1, 1)))
            assert res <= 1e-10


class TestNodeFamilyShapes:
    # at k = 2 with n = m = 2, a node family has 4 rows of width 2
    @pytest.mark.parametrize("shape", [(3, 2), (1, 2), (4, 3)])
    def test_wrong_ubar_family_is_a_typed_error(self, shape, rng):
        p = make_problem(rng, 2, 2, 3)
        with pytest.raises(DimensionMismatch, match="ubar"):
            tree.variation_cost(p, 2, np.ones(shape))
        with pytest.raises(DimensionMismatch, match="ubar"):
            tree.difference_formula_check(p, 2, np.zeros(2), constant_control(p, 2),
                                          np.ones(shape), 0.5)

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (1, 2), (4, 3)])
    def test_wrong_zeta_family_is_a_typed_error(self, shape, rng):
        p = make_problem(rng, 2, 2, 3)
        with pytest.raises(DimensionMismatch, match="zeta"):
            tree.difference_formula_check(p, 2, np.ones(shape), constant_control(p, 2),
                                          np.ones(2), 0.5)


class TestRepresentation:
    def test_solver_feedback_representation(self, rng):
        for _ in range(5):
            p = make_problem(rng, 2, 2, 4, convex=False)
            tab, gains, _ = recursion.solve_gdre_global(p)
            x = rng.normal(size=2)
            for k in range(p.N):
                assert tree.representation_check(p, gains, 0, x, k, tab) <= 1e-8

    def test_homogeneous_zero_state(self, rng):
        p = make_problem(rng, 2, 2, 3, homogeneous=True)
        tab, gains, _ = recursion.solve_gdre_global(p)
        res = tree.representation_check(p, gains, 0, np.zeros(2), 0, tab)
        assert res <= 1e-12


class TestTreeArgument:
    """The ``tree=`` argument that the benchmark's tail oracle passes."""

    @pytest.mark.parametrize("extra", [0, 2])
    def test_tree_at_least_as_deep_as_the_horizon(self, extra, rng):
        p = make_problem(rng, 2, 2, 4)
        _, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(0, rng.normal(size=2))
        scen = ScenarioTree(p.N + extra)
        star, control = tree.equilibrium_pair(p, gains, init, scen)
        want_star, want_control = tree.equilibrium_pair(p, gains, init)
        for l in range(p.N + 1):
            np.testing.assert_array_equal(star.values[l], want_star.values[l])
        for l in range(p.N):
            np.testing.assert_array_equal(control.values[l], want_control.values[l])
        cert = tree.certify_equilibrium(p, init, control, 0, tree=scen)
        assert cert.verdict
        assert cert.to_dict() == tree.certify_equilibrium(p, init, control, 0).to_dict()

    def test_shallower_tree_is_refused(self, rng):
        p = make_problem(rng, 2, 2, 4)
        _, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(0, rng.normal(size=2))
        _, control = tree.equilibrium_pair(p, gains, init)
        scen = ScenarioTree(p.N - 1)
        with pytest.raises(HorizonMismatch, match="tree depth 3 < horizon 4"):
            tree.equilibrium_pair(p, gains, init, scen)
        with pytest.raises(HorizonMismatch, match="tree depth 3 < horizon 4"):
            tree.certify_equilibrium(p, init, control, 0, tree=scen)


class TestCertification:
    def test_reference_example_certifies(self, example):
        tables, gains, _ = recursion.solve_gdre_global(example)
        init = InitialPair(0, np.array([1.0, 1.0]))
        _, control = tree.equilibrium_pair(example, gains, init)
        cert = tree.certify_equilibrium(example, init, control, 0)
        assert cert.verdict
        assert max(cert.stationary_residuals.values()) <= 1e-8
        # at the equilibrium the exact worst gap is zero up to g' M^+ g rounding
        assert all(abs(g["min_gap"]) <= 1e-20 for g in cert.worst_gaps)
        for k, want in ((0, 14658.96), (1, 179.40)):
            lam = np.linalg.eigvalsh(recursion.convexity_margins(example, tables)[1][k])[0]
            assert abs(cert.convexity_values[k] - lam) <= 1e-9 * abs(lam)
            assert abs(lam - want) <= 5e-3

    def test_gap_and_convexity_terms_reject_alone(self):
        # residual 5e-9 is within tolerance, but with M = 1e-10 the deviation
        # v* = -g/M = -50 lowers the cost by g^2/M = 2.5e-7: only the gap sees it
        p = identity_dynamics_problem()
        for t, k in p.pairs():
            p.R[t, k] = 1e-10 * np.ones((1, 1))
            p.rho[t, k] = 5e-9 * np.ones(1)
        init = InitialPair(0, np.ones(1))
        cert = tree.certify_equilibrium(p, init, constant_control(p, 0), 0)
        assert max(cert.stationary_residuals.values()) <= cert.tol_stationary
        assert min(cert.convexity_values.values()) >= -cert.tol_convexity
        assert not cert.verdict
        for g in cert.worst_gaps:
            assert g["min_gap"] == pytest.approx(-2.5e-7, rel=1e-9)
            assert g["realised_gap"] == pytest.approx(-2.5e-7, rel=1e-6)
        # the zero control is stationary where M < 0, and still no equilibrium
        for t, k in p.pairs():
            p.R[t, k] = -1e-3 * np.ones((1, 1))
            p.rho[t, k] = np.zeros(1)
        cert = tree.certify_equilibrium(p, init, constant_control(p, 0), 0)
        assert max(cert.stationary_residuals.values()) == 0.0
        assert all(g["min_gap"] == 0.0 for g in cert.worst_gaps)
        assert not cert.verdict
        assert cert.convexity_values[0] == pytest.approx(-1e-3, rel=1e-9)

    def test_rounding_level_eigenvalue_is_not_inverted(self, rng):
        # duplicated channels make M_k singular, and polarisation leaves an
        # eigenvalue of rounding size (about 1e-15) for the zero one; a
        # gradient part along its direction within tol_stationary must not
        # be amplified through it into a gap
        p = duplicated_control_problem(rng)
        for t, k in p.pairs():
            p.rho[t, k] = p.rho[t, k] + 1e-9 * np.array([1.0, -1.0])
        _, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(0, np.ones(2))
        _, control = tree.equilibrium_pair(p, gains, init)
        cert = tree.certify_equilibrium(p, init, control, 0)
        assert min(cert.stationary_residuals.values()) > 1e-9
        assert cert.verdict
        assert all(abs(g["min_gap"]) <= 1e-20 for g in cert.worst_gaps)

    def test_zeroed_feedback_fails_on_coupled_instance(self, rng):
        p = make_problem(rng, 2, 2, 3, coupled=True)
        _, gains, _ = recursion.solve_gdre_global(p)
        bad_psi = [s.copy() for s in gains.Psi]
        bad_psi[0] = np.zeros_like(bad_psi[0])
        bad = recursion.GainSchedule(gains.W, gains.Wdag, gains.H, gains.beta,
                                     bad_psi, gains.alpha)
        init = InitialPair(0, rng.normal(size=2) + 1.0)
        _, control = tree.equilibrium_pair(p, bad, init)
        cert = tree.certify_equilibrium(p, init, control, 0)
        assert not cert.verdict
        assert cert.stationary_residuals[0] > 1e-6

    def test_certifies_from_interior_start_with_node_family(self, rng):
        p = make_problem(rng, 2, 2, 4)
        _, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(1, rng.normal(size=(2, 2)))
        _, control = tree.equilibrium_pair(p, gains, init)
        cert = tree.certify_equilibrium(p, init, control, 1)
        assert cert.verdict
        assert set(cert.stationary_residuals) == {1, 2, 3}

    def test_uncoupled_zero_control_trivially_certifies(self, rng):
        p = make_problem(rng, 2, 2, 3)
        for t, k in p.pairs():
            p.B[t, k] = np.zeros((2, 2))
            p.Bbar[t, k] = np.zeros((2, 2))
            p.D[t, k] = np.zeros((2, 2))
            p.Dbar[t, k] = np.zeros((2, 2))
            p.R[t, k] = np.eye(2)
            p.Rbar[t, k] = np.zeros((2, 2))
            p.rho[t, k] = np.zeros(2)
        control = constant_control(p, 0)
        cert = tree.certify_equilibrium(p, InitialPair(0, rng.normal(size=2)), control, 0)
        assert cert.verdict

    def test_quadratic_structure_of_single_step_cost(self, rng):
        # the restarted cost is exactly quadratic in the step-k control value
        p = make_problem(rng, 2, 2, 3, convex=False)
        tab = recursion.solve_symmetric(p)
        k = 1
        u = AdaptedProcess({l: rng.normal(size=(2**l, 2)) for l in range(k, p.N)})
        zeta = rng.normal(size=(2**k, 2))
        init = InitialPair(k, zeta)

        def j(ub):
            return tree.cost(p, init, ref.deviated_control(u, k, ub - u.values[k]), k)

        zero = np.zeros(2)
        e = np.eye(2)
        j0 = j(zero)
        m_fit = np.empty((2, 2))
        lin = np.empty((2, zeta.shape[0]))
        for i in range(2):
            jp, jm = j(e[i]), j(-e[i])
            m_fit[i, i] = float((jp + jm - 2 * j0)[0]) / 2.0
            lin[i] = (jp - jm) / 4.0
        jpp = j(e[0] + e[1])
        m_fit[0, 1] = m_fit[1, 0] = float((jpp - j(e[0]) - j(e[1]) + j0)[0]) / 2.0
        m2 = recursion.convexity_margins(p, tab)[1][k]
        np.testing.assert_allclose(m_fit, m2, atol=1e-9 * (1 + np.max(np.abs(m2))))
        ub = rng.normal(size=2)
        want = j0 + ub @ m2 @ ub + 2.0 * lin.T @ ub
        np.testing.assert_allclose(j(ub), want, atol=1e-9 * (1 + np.max(np.abs(want))))


class TestDeviationMatrix:
    def test_matches_the_recursion_coefficient(self, rng):
        # the tree polarises variational costs; convexity_margins reads the tables
        cases = [make_problem(rng, *random_dims(rng), convex=bool(j % 2)) for j in range(16)]
        cases += [duplicated_control_problem(rng), zero_weight_problem()]
        for p in cases:
            tables = recursion.solve_symmetric(p)
            x = rng.normal(size=p.n)
            cert = tree.certify_equilibrium(p, InitialPair(0, x), constant_control(p, 0), 0)
            stack = tree._deviation_matrices(model.stacks(p), 0)
            assert stack.shape == (p.N, p.m, p.m)
            for k, want in enumerate(recursion.convexity_margins(p, tables)[1]):
                bound = 1e-10 * (1.0 + np.linalg.norm(want))
                assert np.max(np.abs(stack[k] - want)) <= bound
                assert abs(cert.convexity_values[k] - np.linalg.eigvalsh(want)[0]) <= bound


def uncouple(p):
    """Zero every input block and the control offsets, with R = I: the zero
    control is then stationary with a gradient that is exactly zero."""
    for t, k in p.pairs():
        p.B[t, k] = np.zeros((p.n, p.m))
        p.Bbar[t, k] = np.zeros((p.n, p.m))
        p.D[t, k] = np.zeros((p.n, p.m))
        p.Dbar[t, k] = np.zeros((p.n, p.m))
        p.R[t, k] = np.eye(p.m)
        p.Rbar[t, k] = np.zeros((p.m, p.m))
        p.rho[t, k] = np.zeros(p.m)
    return p


# (n, m, N, t, node-family start, tamper, uncoupled, reference deviations)
REFERENCE_CASES = {
    "n_ne_m": (3, 2, 4, 0, False, False, False, 4),
    "n_is_1": (1, 2, 4, 0, False, False, False, 3),
    "N_is_1": (2, 2, 1, 0, False, False, False, 4),
    "t_gt_0": (2, 1, 5, 2, False, False, False, 1),
    "node_family_start": (2, 2, 4, 1, True, False, False, 4),
    "tampered_gains": (2, 2, 4, 0, False, True, False, 5),
    "zero_gradient": (2, 2, 3, 0, False, False, True, 0),
}
# subtree means over up to 2**10 nodes, seeded after the cases above.  They
# draw their blocks at scale 0.3: at the default 0.5 a ten-step instance has
# restarted costs near 1e8, and its stationarity residuals are rounding noise
# of about 3e-11, which the 1e-12 floor of the comparison cannot resolve.
DEEP_CASES = {
    "deep_n_ne_m": (3, 2, 10, 0, False, False, False, 4),
    "deep_node_family_start": (2, 1, 9, 3, True, False, False, 4),
}
CASE_ORDER = sorted(REFERENCE_CASES) + sorted(DEEP_CASES)


class TestAgainstPerCallReference:
    """The exact certificate against the sampled per-call one it replaced."""

    @pytest.mark.parametrize("case", CASE_ORDER)
    def test_certificate_and_identity_checks(self, case):
        n, m, N, t, family, tamper, uncoupled, deviations = {**REFERENCE_CASES, **DEEP_CASES}[case]
        rng = np.random.default_rng(CASE_ORDER.index(case))
        p = make_problem(rng, n, m, N, scale=0.3 if case in DEEP_CASES else 0.5, coupled=tamper)
        if uncoupled:
            uncouple(p)
        tables, gains, _ = recursion.solve_gdre_global(p)
        if tamper:
            gains.Psi[1] = gains.Psi[1] + 0.05
        x = rng.normal(size=(2**t, n) if family else n)
        init = InitialPair(t, x)
        star, control = tree.equilibrium_pair(p, gains, init)
        seed = 97 + len(case)

        got = tree.certify_equilibrium(p, init, control, t)
        want = ref.certify_equilibrium(p, init, control, t, deviations=deviations, seed=seed)
        cert = got.to_dict()
        assert cert["verdict"] == want["verdict"]
        assert cert["verdict"] == (not tamper)

        def close(a, b, scale):
            assert abs(a - b) <= 1e-12 * (1.0 + scale), (a, b)

        assert cert["stationary_residuals"].keys() == want["stationary_residuals"].keys()
        for k, v in want["stationary_residuals"].items():
            close(cert["stationary_residuals"][k], v, abs(v))
        restarted = {}  # the size of each step's restarted cost
        for k in range(t, N):
            j = ref.cost(p, InitialPair(k, star.values[k]), control, k)
            restarted[k] = float(np.max(np.abs(j)))
        # the exact values bound every sampled one from below
        assert cert["convexity_values"].keys() == want["convexity_values"].keys()
        for k, v in want["convexity_values"].items():
            assert cert["convexity_values"][k] <= v + 1e-12 * (1.0 + abs(v))
        assert [g["k"] for g in cert["worst_gaps"]] == list(range(t, N))
        for g in cert["worst_gaps"]:
            slack = 1e-12 * (1.0 + restarted[g["k"]])
            close(g["realised_gap"], g["min_gap"], restarted[g["k"]])
            sampled = [s["min_gap"] for s in want["deviation_gaps"] + want["descent_gaps"]
                       if s["k"] == g["k"]]
            assert len(sampled) == 6
            assert g["min_gap"] <= min(sampled) + slack, (g, sampled)

        # the per-call identity checks, restarted from the same nodes
        draws = np.random.default_rng(seed)
        for k in range(t, N):
            v = ref.representation_check(p, gains, t, x, k, tables)
            close(tree.representation_check(p, gains, t, x, k, tables), v, abs(v))
            ubar = draws.normal(size=m)
            lam = float(draws.uniform(-1.0, 1.0))
            v = ref.difference_formula_check(p, k, star.values[k], control, ubar, lam)
            close(tree.difference_formula_check(p, k, star.values[k], control, ubar, lam), v,
                  restarted[k])

    def test_per_call_wrappers(self, rng):
        p = make_problem(rng, 3, 2, 4, convex=False)
        tables, gains, _ = recursion.solve_gdre_global(p)
        k = 1
        u = AdaptedProcess({l: rng.normal(size=(2**l, 2)) for l in range(k, p.N)})
        init = InitialPair(k, rng.normal(size=(2, 3)))
        state = tree.roll_forward(p, init, u, k)
        want = ref.roll_forward(p, init, u, k)
        for l in range(k, p.N + 1):
            np.testing.assert_allclose(state.values[l], want.values[l], rtol=1e-13, atol=1e-13)
        z, z_ref = tree.solve_bsde(p, state, k), ref.solve_bsde(p, want, k)
        for l in range(k, p.N + 1):
            np.testing.assert_allclose(z.values[l], z_ref.values[l], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tree.stationarity_gradient(p, state, u, k),
                                   ref.stationarity_gradient(p, want, u, k), rtol=1e-12, atol=1e-12)
        j = ref.cost(p, init, u, k)
        np.testing.assert_allclose(tree.cost(p, init, u, k), j, rtol=1e-13)
        for ub in (rng.normal(size=2), rng.normal(size=(2, 2))):
            np.testing.assert_allclose(tree.variation_cost(p, k, ub), ref.variation_cost(p, k, ub),
                                       rtol=1e-12)
            lam = float(rng.uniform(-1.0, 1.0))
            got = tree.difference_formula_check(p, k, init.x, u, ub, lam)
            assert abs(got - ref.difference_formula_check(p, k, init.x, u, ub, lam)) <= 1e-12 * (
                1.0 + np.max(np.abs(j)))
        x = rng.normal(size=3)
        for k in range(p.N):
            got = tree.representation_check(p, gains, 0, x, k, tables)
            assert abs(got - ref.representation_check(p, gains, 0, x, k, tables)) <= 1e-12


class TestMomentCertificate:
    """The closed-form moment certificate that `verify` runs against the
    exact tree: the same verdict, and the same values at rounding level."""

    def check(self, p, gains, init):
        _, control = tree.equilibrium_pair(p, gains, init)
        exact = tree.certify_equilibrium(p, init, control, init.t)
        moment, forms = moment_certificate(p, gains, init)
        star = tree.concatenated_state(p, control, init)
        assert_certificates_agree(exact, moment, forms, star.values)
        Ms = tree._deviation_matrices(model.stacks(p), init.t)
        v = slice(p.n, p.n + p.m)
        for Q, M in zip(forms, Ms):
            assert np.max(np.abs(Q[v, v] - M)) <= 1e-12 * (1.0 + np.max(np.abs(M)))
        return moment

    @pytest.mark.parametrize("case", CASE_ORDER)
    def test_reference_cases(self, case):
        n, m, N, t, family, tamper, uncoupled, _ = {**REFERENCE_CASES, **DEEP_CASES}[case]
        rng = np.random.default_rng(CASE_ORDER.index(case))
        p = make_problem(rng, n, m, N, scale=0.3 if case in DEEP_CASES else 0.5, coupled=tamper)
        if uncoupled:
            uncouple(p)
        _, gains, _ = recursion.solve_gdre_global(p)
        if tamper:
            gains.Psi[1] = gains.Psi[1] + 0.05
        x = rng.normal(size=(2**t, n) if family else n)
        assert self.check(p, gains, InitialPair(t, x)).verdict == (not tamper)

    def test_randomised_suite(self, rng):
        # every other instance is not convex; every third has a gain edited
        cases = [make_problem(rng, *random_dims(rng), convex=bool(j % 2)) for j in range(16)]
        cases += [duplicated_control_problem(rng)]
        for j, p in enumerate(cases):
            _, gains, _ = recursion.solve_gdre_global(p)
            if j % 3 == 0:
                gains.Psi[p.N // 2] = gains.Psi[p.N // 2] + 0.1
            self.check(p, gains, InitialPair(0, rng.normal(size=p.n)))

    @pytest.mark.parametrize("seed", range(100, 140))
    def test_tampered_alpha_suite(self, seed):
        # the solved gains, and alpha_k + 1e-6 and + 1e-3 at one random step:
        # the moment residual is the rms of g over the law of X*_k, the tree's
        # its node max, and the two give one verdict
        rng = np.random.default_rng(seed)
        n, m, N = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(3, 9))
        p = make_problem(rng, n, m, N, scale=float(rng.choice([0.1, 0.3, 0.5])))
        _, gains, _ = recursion.solve_gdre_global(p)
        init, k = InitialPair(0, rng.normal(size=n)), int(rng.integers(0, N))
        verdicts = []
        for delta in (0.0, 1e-6, 1e-3):
            alpha = [a.copy() for a in gains.alpha]
            alpha[k] = alpha[k] + delta
            tampered = recursion.GainSchedule(gains.W, gains.Wdag, gains.H, gains.beta,
                                              gains.Psi, alpha)
            verdicts.append(self.check(p, tampered, init).verdict)
        assert verdicts == [True, False, False]

    def test_certification_cases(self, rng):
        # TestCertification's instances, with the zero control as a gain schedule
        p = identity_dynamics_problem()
        for t, k in p.pairs():
            p.R[t, k] = 1e-10 * np.ones((1, 1))
            p.rho[t, k] = 5e-9 * np.ones(1)
        init = InitialPair(0, np.ones(1))
        assert not self.check(p, zero_gains(p), init).verdict  # the gap alone rejects
        for t, k in p.pairs():
            p.R[t, k] = -1e-3 * np.ones((1, 1))
            p.rho[t, k] = np.zeros(1)
        assert not self.check(p, zero_gains(p), init).verdict  # the convexity term alone
        assert not self.check(zero_weight_problem(rho=1e-3), zero_gains(zero_weight_problem()),
                              init).verdict

        p = duplicated_control_problem(rng)
        for t, k in p.pairs():
            p.rho[t, k] = p.rho[t, k] + 1e-9 * np.array([1.0, -1.0])
        _, gains, _ = recursion.solve_gdre_global(p)
        moment = self.check(p, gains, InitialPair(0, np.ones(2)))
        assert moment.verdict and min(moment.stationary_residuals.values()) > 1e-9

        p = make_problem(rng, 2, 2, 3, coupled=True)
        _, gains, _ = recursion.solve_gdre_global(p)
        gains.Psi[0] = np.zeros_like(gains.Psi[0])
        assert not self.check(p, gains, InitialPair(0, rng.normal(size=2) + 1.0)).verdict

        p = make_problem(rng, 2, 2, 4)
        _, gains, _ = recursion.solve_gdre_global(p)
        assert self.check(p, gains, InitialPair(1, rng.normal(size=(2, 2)))).verdict

        p = uncouple(make_problem(rng, 2, 2, 3))
        assert self.check(p, zero_gains(p), InitialPair(0, rng.normal(size=2))).verdict


def imported_names(module):
    """Every module name an import statement anywhere in ``module`` names."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            imported += [name] + [f"{name}.{alias.name}" for alias in node.names]
    assert imported
    return imported


class TestIndependence:
    # the tree is evidence for the recursions only while neither uses the other
    def test_tree_imports_neither_recursion_nor_montecarlo(self):
        for name in imported_names(tree):
            assert not set(name.split(".")) & {"recursion", "montecarlo"}, name

    def test_recursion_imports_neither_tree_nor_montecarlo(self):
        for name in imported_names(recursion):
            assert not set(name.split(".")) & {"tree", "montecarlo"}, name

    def test_montecarlo_imports_neither_recursion_nor_tree(self):
        for name in imported_names(montecarlo):
            assert not set(name.split(".")) & {"recursion", "tree"}, name

    @pytest.mark.parametrize("module", [montecarlo, matrices], ids=lambda m: m.__name__)
    def test_moment_certificate_imports_only_data_and_matrix_kernels(self, module):
        # the moment forms and the verdict rule that `verify` runs read, of
        # the package, only the data model, the matrix kernel and the errors
        for name in imported_names(module):
            assert not set(name.split(".")) & {"cli", "recursion", "tree", "montecarlo"}, name

    def test_reference_takes_only_processes_and_closed_loop_from_tree(self):
        # the per-call oracle keeps its own level helpers: what it reads of
        # `tree`, by import or attribute, is the process type and the
        # closed-loop rollout it restarts from
        source = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
        used = set()
        for node in ast.walk(source):
            if isinstance(node, ast.ImportFrom) and node.module == "meanfield_lq.tree":
                used |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "tree":
                used.add(node.attr)
        assert used and used <= {"AdaptedProcess", "concatenated_state", "equilibrium_pair"}
