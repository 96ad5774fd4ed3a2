import copy
import os
from types import SimpleNamespace

import numpy as np
import pytest

from meanfield_lq import cli, matrices as mx, model, recursion, tree
from meanfield_lq.errors import EpsilonNonPositive, NumericalBreakdown
from meanfield_lq.model import InitialPair

import recursion_reference as rref
from conftest import (bench_problem, duplicated_control_problem, identity_dynamics_problem,
                      make_problem, overflowing_member_problem, scaled_noise_problem,
                      zero_weight_problem)


def tail_problem(p, s):
    """The instance restricted to start indices >= s, re-indexed from 0."""
    out = model.ProblemData(p.n, p.m, p.N - s)
    for name in model.FAMILY_NAMES:
        src, dst = getattr(p, name), getattr(out, name)
        for t, k in out.pairs():
            dst[t, k] = src[t + s, k + s]
    out.G, out.Gbar, out.g = p.G[s:], p.Gbar[s:], p.g[s:]
    return out


class TestSolveSymmetric:
    def test_terminal_conditions(self, rng):
        p = make_problem(rng, 2, 2, 4)
        tab = recursion.solve_symmetric(p)
        for k in range(p.N):
            np.testing.assert_array_equal(tab.P[k, p.N], p.G[k])
            np.testing.assert_array_equal(tab.Pcal[k, p.N], p.G[k] + p.Gbar[k])

    def test_symmetry_everywhere(self, rng):
        p = make_problem(rng, 3, 2, 5, convex=False)
        tab = recursion.solve_symmetric(p)
        for key, val in tab.P.items():
            assert np.max(np.abs(val - val.T)) <= 1e-10
        for key, val in tab.Pcal.items():
            assert np.max(np.abs(val - val.T)) <= 1e-10

    def test_identity_case(self):
        p = identity_dynamics_problem()
        tab = recursion.solve_symmetric(p)
        for k in range(p.N):
            for l in range(k, p.N + 1):
                assert tab.P[k, l][0, 0] == 1.0
                assert tab.Pcal[k, l][0, 0] == 1.0

    def test_scalar_matches_hand_rollout(self, rng):
        p = make_problem(rng, 1, 1, 3, convex=False)
        tab = recursion.solve_symmetric(p)
        for k in range(3):
            expected = float(p.G[k][0, 0])
            for l in range(2, k - 1, -1):
                a = float(p.A[k, l][0, 0])
                c = float(p.C[k, l][0, 0])
                expected = float(p.Q[k, l][0, 0]) + a * a * expected + c * c * expected
            assert abs(tab.P[k, k][0, 0] - expected) < 1e-12 * (1 + abs(expected))


class TestConvexityMargins:
    def test_reference_step1_coefficient(self, example):
        tab = recursion.solve_symmetric(example)
        _, mats = recursion.convexity_margins(example, tab)
        np.testing.assert_allclose(
            mats[1], [[400.8004, -330.6524], [-330.6524, 673.2241]], atol=1e-3
        )

    def test_no_input_coupling_gives_weight(self):
        p = identity_dynamics_problem()
        tab = recursion.solve_symmetric(p)
        verdicts, mats = recursion.convexity_margins(p, tab)
        for v, m in zip(verdicts, mats):
            assert m[0, 0] == 1.0
            assert v.is_psd and abs(v.min_eigenvalue - 1.0) < 1e-12

    def test_negative_weight_flags(self):
        p = identity_dynamics_problem()
        for t, k in p.pairs():
            p.R[t, k] = -np.ones((1, 1))
        tab = recursion.solve_symmetric(p)
        verdicts, _ = recursion.convexity_margins(p, tab)
        assert all(not v.is_psd for v in verdicts)
        assert all(abs(v.min_eigenvalue + 1.0) < 1e-12 for v in verdicts)


class TestSolveGdreGlobal:
    def test_terminal_conditions(self, rng):
        p = make_problem(rng, 2, 2, 4)
        tab, gains, _ = recursion.solve_gdre_global(p)
        for k in range(p.N):
            assert not tab.T[k, p.N].any()
            assert not tab.Tcal[k, p.N].any()
            np.testing.assert_array_equal(tab.pi[k, p.N], p.g[k])

    def test_reference_step1_gains(self, example):
        _, gains, report = recursion.solve_gdre_global(example)
        np.testing.assert_allclose(
            -gains.Psi[1], [[1.1320, 0.1179], [0.0254, 1.0388]], atol=1e-3
        )
        np.testing.assert_allclose(-gains.alpha[1], [-0.3381, 0.1433], atol=1e-3)
        assert report.verdict_all_pairs

    def test_homogeneous_terms_vanish(self, rng):
        p = make_problem(rng, 2, 2, 4, homogeneous=True)
        tab, gains, _ = recursion.solve_gdre_global(p)
        for k in range(p.N):
            assert np.max(np.abs(gains.beta[k])) == 0.0
            assert np.max(np.abs(gains.alpha[k])) == 0.0
            for l in range(k, p.N + 1):
                assert np.max(np.abs(tab.pi[k, l])) == 0.0

    def test_single_step_hand_assembly(self, rng):
        p = make_problem(rng, 2, 2, 1)
        _, gains, _ = recursion.solve_gdre_global(p)
        cA, cB = p.A[0, 0] + p.Abar[0, 0], p.B[0, 0] + p.Bbar[0, 0]
        cC, cD = p.C[0, 0] + p.Cbar[0, 0], p.D[0, 0] + p.Dbar[0, 0]
        cR, cG = p.R[0, 0] + p.Rbar[0, 0], p.G[0] + p.Gbar[0]
        W = cR + cB.T @ cG @ cB + cD.T @ p.G[0] @ cD
        H = cB.T @ cG @ cA + cD.T @ p.G[0] @ cC
        beta = cB.T @ (cG @ p.f[0, 0] + p.g[0]) + cD.T @ p.G[0] @ p.d[0, 0] + p.rho[0, 0]
        np.testing.assert_allclose(gains.W[0], W, atol=1e-12)
        np.testing.assert_allclose(gains.H[0], H, atol=1e-12)
        np.testing.assert_allclose(gains.beta[0], beta, atol=1e-12)

    def test_scale_equivariance_of_feedback(self, rng):
        p = make_problem(rng, 2, 2, 3, convex=False)
        c = 3.7
        q = copy.deepcopy(p)
        for t, k in q.pairs():
            for name in ("Q", "Qbar", "R", "Rbar"):
                getattr(q, name)[t, k] = c * getattr(q, name)[t, k]
            q.q[t, k] = c * q.q[t, k]
            q.rho[t, k] = c * q.rho[t, k]
        q.G = [c * b for b in q.G]
        q.Gbar = [c * b for b in q.Gbar]
        q.g = [c * b for b in q.g]
        _, g1, _ = recursion.solve_gdre_global(p)
        _, g2, _ = recursion.solve_gdre_global(q)
        for k in range(p.N):
            scale = 1.0 + np.max(np.abs(g1.W[k]))
            assert np.max(np.abs(g2.W[k] - c * g1.W[k])) <= 1e-9 * c * scale
            assert np.max(np.abs(g2.Psi[k] - g1.Psi[k])) <= 1e-9 * (1 + np.max(np.abs(g1.Psi[k])))
            assert np.max(np.abs(g2.alpha[k] - g1.alpha[k])) <= 1e-9 * (1 + np.max(np.abs(g1.alpha[k])))


class TestStageSweep:
    def test_tail_rows_match_tail_problem_bitwise(self, rng):
        # a row's arithmetic must not depend on how many rows share its stage
        for n, m, N in ((2, 2, 9), (1, 3, 6), (3, 1, 5)):
            p = make_problem(rng, n, m, N, scale=0.3)
            tab, gains, _ = recursion.solve_gdre_global(p)
            for s in (1, N // 2, N - 1):
                sub_tab, sub_gains, _ = recursion.solve_gdre_global(tail_problem(p, s))
                for k in range(s, N):
                    for name in ("W", "Wdag", "H", "beta", "Psi", "alpha"):
                        assert (getattr(gains, name)[k].tobytes()
                                == getattr(sub_gains, name)[k - s].tobytes())
                    for l in range(k, N + 1):
                        for name in ("P", "Pcal", "T", "Tcal", "pi"):
                            assert (getattr(tab, name)[k, l].tobytes()
                                    == getattr(sub_tab, name)[k - s, l - s].tobytes())

    def test_table_keys_are_triangular(self, rng):
        p = make_problem(rng, 2, 1, 4)
        tab, _, _ = recursion.solve_gdre_global(p)
        keys = [(k, l) for k in range(4) for l in range(k, 5)]
        for name in ("P", "Pcal", "T", "Tcal", "pi"):
            assert list(getattr(tab, name)) == keys
        assert list(recursion.solve_symmetric(p).P) == keys

    def test_overflow_names_stage_table_and_row(self):
        z, e = np.zeros((2, 2)), np.eye(2)
        p = model.from_time_invariant(
            2, 2, 5, A=1e80 * e, Abar=z, B=e, Bbar=z, C=z, Cbar=z, D=z, Dbar=z,
            f=np.zeros(2), d=np.zeros(2), Q=e, Qbar=z, R=e, Rbar=z, q=np.zeros(2),
            rho=np.zeros(2), G=e, Gbar=z, g=np.zeros(2),
        )
        with pytest.raises(NumericalBreakdown, match=r"^stage 3: P is non-finite from row k=0$"):
            recursion.solve_gdre_global(p)
        with pytest.raises(NumericalBreakdown, match=r"^stage 3: P "):
            recursion.solve_symmetric(p)

    def test_norm_overflow_of_finite_tables_is_a_breakdown(self):
        # P[0, 1] = 1e200 I is finite, but its Frobenius norm, and with it
        # the step-0 PSD tolerance, is not
        z, e = np.zeros((2, 2)), np.eye(2)
        p = model.from_time_invariant(
            2, 2, 2, A=[0.5 * e, 1e100 * e], Abar=z, B=e, Bbar=z, C=z, Cbar=z, D=z,
            Dbar=z, f=np.zeros(2), d=np.zeros(2), Q=e, Qbar=z, R=e, Rbar=z,
            q=np.zeros(2), rho=np.zeros(2), G=e, Gbar=z, g=np.zeros(2),
        )
        with pytest.raises(NumericalBreakdown, match=r"^stage 0: PSD tolerance is non-finite"):
            recursion.solve_gdre_global(p)


BIG = float(np.finfo(float).max)


class TestBatchedSweep:
    """Every member of a multi-shift sweep is its own one-member solve, bit for bit."""

    SHIFTS = (0.0, 3.0, 1e-2, 1e-5)

    @staticmethod
    def assert_same_solve(got, ref):
        (tab, gains, rep), (tab_ref, gains_ref, rep_ref) = got, ref
        for name in ("W", "Wdag", "H", "beta", "Psi", "alpha"):
            a, b = getattr(gains, name), getattr(gains_ref, name)
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
        for name in ("P", "Pcal", "T", "Tcal", "pi"):
            a, b = getattr(tab, name), getattr(tab_ref, name)
            assert list(a) == list(b)
            assert a.stack.tobytes() == b.stack.tobytes(), name
        assert model.canonical_dumps(rep.to_dict()) == model.canonical_dumps(rep_ref.to_dict())

    def test_members_equal_their_own_solves(self, rng):
        cases = [make_problem(rng, n, m, N, **kw)
                 for n, m, N, kw in ((2, 2, 6, {}), (3, 2, 20, {}), (1, 1, 2, {}),
                                     (2, 3, 7, {"convex": False}), (2, 2, 12, {"convex": False}),
                                     (2, 2, 9, {"meanfield": False}),
                                     (3, 1, 5, {"meanfield": False, "convex": False}))]
        cases += [duplicated_control_problem(rng), duplicated_control_problem(rng, n=3, N=8),
                  zero_weight_problem(), zero_weight_problem(1.0)]
        for p in cases:
            batch = recursion.solve_shifts(p, self.SHIFTS)
            assert len(batch) == len(self.SHIFTS)
            for eps, member in zip(self.SHIFTS, batch):
                self.assert_same_solve(member, recursion.solve_shifts(p, (eps,))[0])
            self.assert_same_solve(batch[0], recursion.solve_gdre_global(p))

    def test_members_match_the_per_cell_reference(self, rng):
        # each shifted member's T, script-T and pi are the recursions of its
        # own gains, as the reference solves them one start index at a time
        for n, m, N in ((2, 2, 6), (1, 3, 5), (3, 1, 7), (2, 1, 9)):
            p = make_problem(rng, n, m, N, scale=0.3)
            for tab, gains, _ in recursion.solve_shifts(p, self.SHIFTS):
                for k in range(N):
                    T, Tb, pi = rref.affine_feedback_tables(p, gains.Psi, gains.alpha, k, tab)
                    for l in range(k, N + 1):
                        for got, want in ((tab.T[k, l], T[l]), (tab.Tcal[k, l], T[l] + Tb[l]),
                                          (tab.pi[k, l], pi[l])):
                            assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))

    def test_no_shifts_solve_nothing(self, rng):
        p = make_problem(rng, 2, 2, 4)
        assert recursion.solve_shifts(p, ()) == []
        assert recursion.solve_shifts(p, np.array([])) == []

    def test_member_order_and_repeats_do_not_matter(self, rng):
        p = make_problem(rng, 2, 2, 8)
        a = recursion.solve_shifts(p, (1e-3, 0.0, 1e-3))
        b = recursion.solve_shifts(p, [0.0, 1e-3])
        self.assert_same_solve(a[0], b[1])
        self.assert_same_solve(a[2], b[1])
        self.assert_same_solve(a[1], b[0])

    def test_verdicts_are_the_per_step_checks(self, rng):
        # the stacked M2, margins and residuals use the sweep's own W+ and
        # one eigenvalue call; each must be the per-step formula's value
        for p in (make_problem(rng, 2, 2, 10, convex=False), duplicated_control_problem(rng),
                  make_problem(rng, 3, 2, 6, scale=1.5)):
            for tab, gains, rep in recursion.solve_shifts(p, (0.0, 0.5)):
                for k in range(p.N):
                    cB, cD = p.B[k, k] + p.Bbar[k, k], p.D[k, k] + p.Dbar[k, k]
                    cR = p.R[k, k] + p.Rbar[k, k]
                    m2 = cR + cB.T @ tab.Pcal[k, k + 1] @ cB + cD.T @ tab.P[k, k + 1] @ cD
                    assert rep.M2[k].tobytes() == m2.tobytes()
                    assert rep.convexity_verdicts[k] == mx.psd_check(m2)
                    assert rep.rangeH_residuals[k] == mx.range_residual(gains.W[k], gains.H[k])
                    assert rep.rangeBeta_residuals[k] == mx.range_residual(
                        gains.W[k], gains.beta[k].reshape(p.m, 1))

    def test_overflowing_member_names_stage_and_eps(self):
        p = overflowing_member_problem()
        msg = r"^stage 2: T is non-finite from row k=0 \(eps=1e-310\)$"
        with pytest.raises(NumericalBreakdown, match=msg):
            recursion.solve_shifts(p, (0.0, 1e-2, 1e-310))
        with pytest.raises(NumericalBreakdown, match=msg):
            recursion.solve_shifts(p, (1e-310,))
        # the members before it solve as they do alone
        batch = recursion.solve_shifts(p, (0.0, 1e-2))
        self.assert_same_solve(batch[0], recursion.solve_gdre_global(p))
        self.assert_same_solve(batch[1], recursion.solve_shifts(p, (1e-2,))[0])

    def test_earlier_member_breakdown_is_reported_first(self):
        # the shifted member breaks down at stage 4, the unperturbed one
        # only at stage 3; solved one after another, the unperturbed one
        # raises first, and so does the sweep
        z, e = np.zeros((2, 2)), np.eye(2)
        p = model.from_time_invariant(
            2, 2, 5, A=1e80 * e, Abar=z, B=e, Bbar=z, C=z, Cbar=z, D=z, Dbar=z,
            f=np.zeros(2), d=np.zeros(2), Q=e, Qbar=z, R=e, Rbar=z, q=np.zeros(2),
            rho=np.zeros(2), G=e, Gbar=z, g=np.zeros(2),
        )
        p.R[4, 4] = 1e300 * e
        with pytest.raises(NumericalBreakdown, match=r"^stage 4: W .* \(eps=1\.79"):
            recursion.solve_shifts(p, (BIG,))
        with pytest.raises(NumericalBreakdown, match=r"^stage 3: P is non-finite from row k=0$"):
            recursion.solve_shifts(p, (0.0, BIG))
        with pytest.raises(NumericalBreakdown, match=r"^stage 3: P .* \(eps=0\.5\)$"):
            recursion.solve_shifts(p, (0.5, BIG))


def breakdown_problem(edits):
    """A 2-d, N = 5 instance with A = I/2, B = Q = R = G = I and nothing
    else, whose blocks ``edits`` ((family, t, k) -> block) replace."""
    z, e = np.zeros((2, 2)), np.eye(2)
    p = model.from_time_invariant(
        2, 2, 5, A=0.5 * e, Abar=z, B=e, Bbar=z, C=z, Cbar=z, D=z, Dbar=z,
        f=np.zeros(2), d=np.zeros(2), Q=e, Qbar=z, R=e, Rbar=z, q=np.zeros(2),
        rho=np.zeros(2), G=e, Gbar=z, g=np.zeros(2),
    )
    for (name, t, k), block in edits.items():
        getattr(p, name)[t, k] = block
    return p


E2 = np.eye(2)


class TestBreakdownMessages:
    """Each table, and each part of the step gains, that can go non-finite
    first is named with its stage and first bad row, alone and as an eps
    member.  Row k = 1 overflows at stage 3 while the gains of stage 3
    read row 3, so the sweep's later stages run on with rows that are no
    longer finite; the first non-finite table in sweep order is still the
    one named."""

    CASES = {
        "W": ({("B", 3, 3): 1e200 * E2}, "W", 3),
        "H": ({("A", 3, 3): 1e300 * E2, ("B", 3, 3): 1e10 * E2}, "H", 3),
        "beta": ({("f", 3, 3): np.full(2, 1e300), ("B", 3, 3): 1e10 * E2}, "beta", 3),
        "P": ({("A", 1, 3): 1e200 * E2}, "P", 1),
        "Pcal": ({("Abar", 1, 3): 1e200 * E2}, "Pcal", 1),
        "T": ({("A", 1, 3): 1e150 * E2, ("B", 1, 3): 1e160 * E2}, "T", 1),
        "Tcal": ({("A", 1, 3): 1e150 * E2, ("Bbar", 1, 3): 1e160 * E2}, "Tcal", 1),
        "pi": ({("q", 1, 3): np.full(2, 1.7e308), ("f", 1, 3): np.full(2, 1e308)}, "pi", 1),
        # the offsets overflow on their own: T and script-T stay finite
        "pi-f": ({("A", 1, 3): 2 * E2, ("f", 1, 3): np.full(2, 1e308)}, "pi", 1),
        "pi-d": ({("C", 1, 3): 2 * E2, ("d", 1, 3): np.full(2, 1e308)}, "pi", 1),
        "pi-alpha": ({("B", 3, 3): 0 * E2, ("R", 3, 3): 1e-300 * E2,
                      ("rho", 3, 3): np.full(2, 1e308)}, "pi", 0),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_names_stage_table_and_row(self, case):
        edits, table, row = self.CASES[case]
        p = breakdown_problem(edits)
        msg = f"stage 3: {table} is non-finite from row k={row}"
        for shifts, suffix in (((0.0,), ""), ((0.5,), " (eps=0.5)"), ((0.0, 0.5), ""),
                               ((0.25, 0.5), " (eps=0.25)")):
            with pytest.raises(NumericalBreakdown) as info:
                recursion.solve_shifts(p, shifts)
            assert str(info.value) == msg + suffix, shifts
        with pytest.raises(NumericalBreakdown) as info:
            recursion.solve_gdre_global(p)
        assert str(info.value) == msg

    def test_bench_instance_with_loud_noise(self):
        # the benchmark's N = 80 instance with every C block times 1e3
        p = scaled_noise_problem(bench_problem(80), 1e3)
        msg = r"^stage 20: P is non-finite from row k=8"
        with pytest.raises(NumericalBreakdown, match=msg + "$"):
            recursion.solve_gdre_global(p)
        with pytest.raises(NumericalBreakdown, match=msg + r" \(eps=0\.0001\)$"):
            recursion.solve_shifts(p, (1e-4, 1e-6, 1e-8))


class TestAffineFeedbackTables:
    def test_every_row_matches_the_reference_at_depth(self):
        # the benchmark's N = 80 instance, and shapes whose n + 1 and
        # m + n + 1 columns differ from the square case
        for p in (bench_problem(80), bench_problem(20, n=3, m=1),
                  bench_problem(20, n=1, m=3)):
            tab, gains, _ = recursion.solve_gdre_global(p)
            ref = [rref.affine_feedback_tables(p, gains.Psi, gains.alpha, k, tab)
                   for k in range(p.N)]
            for name, want in (("T", lambda r, l: r[0][l]),
                               ("Tcal", lambda r, l: r[0][l] + r[1][l]),
                               ("pi", lambda r, l: r[2][l])):
                got = getattr(tab, name)
                scale = max(np.max(np.abs(want(ref[k], l)))
                            for k in range(p.N) for l in range(k, p.N + 1))
                worst = max(np.max(np.abs(got[k, l] - want(ref[k], l)))
                            for k in range(p.N) for l in range(k, p.N + 1))
                assert worst <= 1e-12 * scale, (p.n, p.m, p.N, name, worst, scale)

    def test_matches_global_solution_under_solved_feedback(self, rng):
        # random (n, m, N) down to 1, plus singular and zero W
        cases = [make_problem(rng, n, m, N, convex=convex)
                 for n, m, N, convex in ((1, 1, 1, True), (1, 1, 5, False), (2, 1, 4, True),
                                         (1, 2, 4, False), (2, 2, 4, False), (3, 2, 5, True),
                                         (2, 3, 3, False))]
        cases += [duplicated_control_problem(rng), zero_weight_problem(), zero_weight_problem(1.0)]

        def close(a, b):
            return np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(b)))

        for p in cases:
            tab, gains, _ = recursion.solve_gdre_global(p)
            for k in range(p.N):
                T, Tb, pi = rref.affine_feedback_tables(p, gains.Psi, gains.alpha, k, tab)
                for l in range(k, p.N + 1):
                    assert close(T[l], tab.T[k, l])
                    assert close(T[l] + Tb[l], tab.Tcal[k, l])
                    assert close(pi[l], tab.pi[k, l])

    def test_zero_feedback_homogeneous(self, rng):
        p = make_problem(rng, 2, 2, 3, homogeneous=True)
        psi = [np.zeros((2, 2))] * 3
        alpha = [np.zeros(2)] * 3
        T, Tb, pi = rref.affine_feedback_tables(p, psi, alpha, 0)
        for l in range(0, 4):
            assert not T[l].any()
            assert not Tb[l].any()
            assert not pi[l].any()

    def test_scalar_two_step_hand_expansion(self, rng):
        p = make_problem(rng, 1, 1, 2, convex=False)
        tab = recursion.solve_symmetric(p)
        psi = [rng.normal(size=(1, 1)) for _ in range(2)]
        alpha = [rng.normal(size=1) for _ in range(2)]
        T, Tb, pi = rref.affine_feedback_tables(p, psi, alpha, 0, tab)

        def s(fam, t, k):
            return float(getattr(p, fam)[t, k][0, 0] if getattr(p, fam)[t, k].ndim == 2
                         else getattr(p, fam)[t, k][0])

        def cs(fam, bar, t, k):
            return s(fam, t, k) + s(bar, t, k)

        g0, cg0 = float(p.G[0][0, 0]), float(p.G[0][0, 0] + p.Gbar[0][0, 0])
        # stage 1 uses zero terminal tables, stage 0 threads them through
        t1 = (s("A", 0, 1) * g0 * s("B", 0, 1)
              + s("C", 0, 1) * g0 * s("D", 0, 1)) * float(psi[1][0, 0])
        assert abs(T[1][0, 0] - t1) < 1e-12 * (1 + abs(t1))
        pbar1 = cg0 - g0
        tb1 = (s("A", 0, 1) * g0 * s("Bbar", 0, 1)
               + s("A", 0, 1) * pbar1 * cs("B", "Bbar", 0, 1)
               + s("C", 0, 1) * g0 * s("Dbar", 0, 1)
               + s("Abar", 0, 1) * cg0 * cs("B", "Bbar", 0, 1)
               + s("Cbar", 0, 1) * g0 * cs("D", "Dbar", 0, 1)) * float(psi[1][0, 0])
        assert abs(Tb[1][0, 0] - tb1) < 1e-12 * (1 + abs(tb1))
        pi1 = (cs("A", "Abar", 0, 1) * cg0
               * (cs("B", "Bbar", 0, 1) * float(alpha[1][0]) + s("f", 0, 1))
               + cs("C", "Cbar", 0, 1) * g0
               * (cs("D", "Dbar", 0, 1) * float(alpha[1][0]) + s("d", 0, 1))
               + cs("A", "Abar", 0, 1) * float(p.g[0][0]) + s("q", 0, 1))
        assert abs(pi[1][0] - pi1) < 1e-12 * (1 + abs(pi1))


class TestSolveFixedPair:
    def test_reference_example_invertible_case(self, example):
        tab, gains, _ = recursion.solve_gdre_global(example)
        scen = tree.ScenarioTree(example.N)
        init = InitialPair(0, np.array([1.0, 1.0]))
        report = rref.solve_fixed_pair(example, tab, gains, init, scen)
        assert report.max_residual <= 1e-8
        assert report.satisfied

    def test_singular_weight_with_consistent_ranges(self, rng):
        p = duplicated_control_problem(rng)
        tab, gains, rep = recursion.solve_gdre_global(p)
        # the duplicated channels force rank-one W at every step
        for k in range(p.N):
            assert np.linalg.matrix_rank(gains.W[k]) == 1
        assert max(rep.rangeH_residuals) <= 1e-10
        assert max(rep.rangeBeta_residuals) <= 1e-10
        init = InitialPair(0, rng.normal(size=2))
        report = rref.solve_fixed_pair(p, tab, gains, init, tree.ScenarioTree(p.N))
        assert report.max_residual <= 1e-10

    def test_zero_state_zero_offsets(self, rng):
        p = make_problem(rng, 2, 2, 3, homogeneous=True)
        tab, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(0, np.zeros(2))
        report = rref.solve_fixed_pair(p, tab, gains, init, tree.ScenarioTree(p.N))
        assert report.max_residual == 0.0


class TestDegenerateWeight:
    def test_zero_weight_uses_zero_feedback(self):
        # W = 0 everywhere: pseudoinverse 0, zero gains, zero residuals
        p = zero_weight_problem()
        _, gains, report = recursion.solve_gdre_global(p)
        for k in range(p.N):
            assert not gains.W[k].any()
            assert not gains.Wdag[k].any()
            assert not gains.Psi[k].any()
            assert not gains.alpha[k].any()
        assert max(report.rangeH_residuals) == 0.0
        assert max(report.rangeBeta_residuals) == 0.0
        assert report.verdict_all_pairs

    def test_zero_weight_with_live_offset_is_flagged(self):
        # same degenerate W but a cost gradient the control cannot cancel
        _, gains, report = recursion.solve_gdre_global(zero_weight_problem(rho=1.0))
        assert max(report.rangeBeta_residuals) > 1e-3
        assert not report.verdict_all_pairs


class TestGainSerialization:
    def test_round_trip(self, rng):
        p = make_problem(rng, 2, 2, 3)
        _, gains, _ = recursion.solve_gdre_global(p)
        back = recursion.gains_from_dict(recursion.gains_to_dict(gains))
        for k in range(p.N):
            assert np.array_equal(back.W[k], gains.W[k])
            assert np.array_equal(back.Wdag[k], gains.Wdag[k])
            assert np.array_equal(back.Psi[k], gains.Psi[k])
            assert np.array_equal(back.alpha[k], gains.alpha[k])


class TestSolveEpsilon:
    """The perturbed problem with control weight + eps * I, solved as a
    one-member `solve_shifts` (the epsilon-sweep checks eps itself)."""

    @staticmethod
    def sweep(example, tmp_path, eps):
        path = tmp_path / "example.json"
        model.save(example, path)
        out = tmp_path / "s"
        cli.cmd_epsilon_sweep(SimpleNamespace(input=str(path), out=str(out), eps=eps))

    def test_rejects_non_positive(self, example, tmp_path):
        with pytest.raises(EpsilonNonPositive):
            self.sweep(example, tmp_path, "0")
        with pytest.raises(EpsilonNonPositive):
            self.sweep(example, tmp_path, "-1e-3")
        assert sorted(os.listdir(tmp_path)) == ["example.json"]

    @pytest.mark.parametrize("eps", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, example, tmp_path, eps):
        with pytest.raises(EpsilonNonPositive, match="must be finite and > 0"):
            self.sweep(example, tmp_path, f"1e-2,{eps}")

    def test_small_epsilon_close_to_unperturbed(self, example):
        _, gains, _ = recursion.solve_gdre_global(example)
        _, g_eps, _ = recursion.solve_shifts(example, (1e-6,))[0]
        dist = max(np.max(np.abs(g_eps.Psi[k] - gains.Psi[k])) for k in range(example.N))
        assert dist < 1e-4

    def test_three_point_convergence(self, example):
        _, gains, _ = recursion.solve_gdre_global(example)

        def dist(eps):
            _, g_eps, _ = recursion.solve_shifts(example, (eps,))[0]
            return max(
                max(np.max(np.abs(g_eps.Psi[k] - gains.Psi[k])),
                    np.max(np.abs(g_eps.alpha[k] - gains.alpha[k])))
                for k in range(example.N)
            )

        d = [dist(e) for e in (1e-2, 1e-4, 1e-6)]
        assert d[0] > d[1] > d[2]

    def test_decoupled_control_gives_negated_offset(self):
        p = identity_dynamics_problem()
        for t, k in p.pairs():
            p.R[t, k] = np.zeros((1, 1))
            p.rho[t, k] = np.array([0.3 + 0.1 * k])
        _, gains, _ = recursion.solve_shifts(p, (1.0,))[0]
        for k in range(p.N):
            assert np.allclose(gains.W[k], np.eye(1))
            assert np.max(np.abs(gains.Psi[k])) == 0.0
            np.testing.assert_allclose(gains.alpha[k], -p.rho[k, k], atol=1e-14)

    def test_zero_epsilon_path_is_bitwise_identical(self, rng):
        p = make_problem(rng, 2, 2, 3)
        t1, g1, _ = recursion.solve_gdre_global(p)
        # the zero member of a sweep with a live shift
        t2, g2, _ = recursion.solve_shifts(p, (0.0, 1e-3))[0]
        for k in range(p.N):
            assert np.array_equal(g1.W[k], g2.W[k])
            assert np.array_equal(g1.Psi[k], g2.Psi[k])
        for key in t1.T:
            assert np.array_equal(t1.T[key], t2.T[key])


class TestReductions:
    def test_no_meanfield_paths_agree(self, rng):
        for _ in range(5):
            n, m, N = 2, 2, int(rng.integers(2, 5))
            p = make_problem(rng, n, m, N, meanfield=False, convex=False)
            t1, g1, _ = recursion.solve_gdre_global(p)
            t2, g2, _ = rref.solve_no_meanfield(p)
            for key in t1.P:
                scale = 1.0 + np.max(np.abs(t1.P[key]))
                assert np.max(np.abs(t1.P[key] - t2.P[key])) <= 1e-10 * scale
                assert np.max(np.abs(t1.Pcal[key] - t1.P[key])) <= 1e-10 * scale
                assert np.max(np.abs(t1.T[key] - t2.T[key])) <= 1e-10 * (
                    1 + np.max(np.abs(t1.T[key]))
                )
                assert np.max(np.abs(t1.pi[key] - t2.pi[key])) <= 1e-10 * (
                    1 + np.max(np.abs(t1.pi[key]))
                )
            for k in range(N):
                assert np.max(np.abs(g1.Psi[k] - g2.Psi[k])) <= 1e-10 * (
                    1 + np.max(np.abs(g1.Psi[k]))
                )

    def test_time_invariant_tables_do_not_depend_on_start(self, rng):
        N = 4
        blocks = {
            name: rng.normal(size=(2, 2)) * 0.5
            for name in ("A", "Abar", "B", "Bbar", "C", "Cbar", "D", "Dbar")
        }
        for name, dim in (("f", 2), ("d", 2), ("q", 2)):
            blocks[name] = rng.normal(size=dim)
        blocks["rho"] = rng.normal(size=2)
        q1 = rng.normal(size=(2, 2)); q2 = rng.normal(size=(2, 2))
        blocks["Q"] = q1 @ q1.T; blocks["Qbar"] = q2 @ q2.T - q1 @ q1.T
        r1 = rng.normal(size=(2, 2)); r2 = rng.normal(size=(2, 2))
        blocks["R"] = r1 @ r1.T + 0.4 * np.eye(2)
        blocks["Rbar"] = r2 @ r2.T + 0.4 * np.eye(2) - blocks["R"]
        g1m = rng.normal(size=(2, 2))
        p = model.from_time_invariant(2, 2, N, **blocks, G=g1m @ g1m.T,
                                      Gbar=np.eye(2), g=rng.normal(size=2))
        tab, gains, _ = recursion.solve_gdre_global(p)
        for l in range(N + 1):
            for k in range(1, min(l + 1, N)):
                for name in ("P", "Pcal", "T", "Tcal", "pi"):
                    d = getattr(tab, name)
                    scale = 1.0 + np.max(np.abs(d[0, l]))
                    assert np.max(np.abs(d[k, l] - d[0, l])) <= 1e-10 * scale
