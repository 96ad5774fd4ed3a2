import tracemalloc

import numpy as np
import pytest

from meanfield_lq import model, montecarlo as mc, recursion, tree
from meanfield_lq.errors import DimensionMismatch, EmptyConfig, HorizonMismatch
from meanfield_lq.model import InitialPair

import mc_reference
from conftest import constant_control, make_problem, random_dims


@pytest.fixture(scope="module")
def example_solved():
    p = model.bundled_example()
    _, gains, _ = recursion.solve_gdre_global(p)
    return p, gains


class TestConfig:
    def test_rejects_zero_paths(self):
        with pytest.raises(EmptyConfig):
            mc.SimConfig(paths=0)

    def test_rejects_unknown_law(self):
        with pytest.raises(EmptyConfig):
            mc.SimConfig(paths=10, noise_law="cauchy")


class TestNoise:
    def test_rademacher_values(self):
        w = mc.draw_noise(mc.SimConfig(paths=500, seed=1), 500, 4)
        assert set(np.unique(w)) == {-1.0, 1.0}

    def test_paths_are_prefix_stable(self):
        cfg = mc.SimConfig(paths=200, seed=9)
        small = mc.draw_noise(cfg, 100, 3)
        big = mc.draw_noise(cfg, 200, 3)
        assert np.array_equal(big[:100], small)

    def test_rademacher_signs_are_the_raw_philox_bits(self):
        """The sign of path i at step j is 1 - 2 b for bit b = i * steps + j of
        the raw word stream, bit b % 64 of word b // 64 counted from the least
        significant; rebuilt here on integer values, bit by bit."""
        paths, steps = 1000, 7
        words = np.random.Philox(key=4).random_raw(-(-paths * steps // 64))
        expected = np.empty((paths, steps))
        for i in range(paths):
            for j in range(steps):
                b = i * steps + j
                expected[i, j] = 1.0 - 2.0 * ((int(words[b // 64]) >> (b % 64)) & 1)
        w = mc.draw_noise(mc.SimConfig(paths=paths, seed=4), paths, steps)
        assert w.dtype == np.int8
        assert np.array_equal(w, expected)
        # a block starting mid-word and mid-counter reads the same bits
        assert np.array_equal(mc.draw_noise(mc.SimConfig(paths=paths, seed=4), 5, steps, 310),
                              expected[310:315])

    @pytest.mark.parametrize("law", mc.NOISE_LAWS)
    @pytest.mark.parametrize("steps", [1, 3, 50])
    def test_blocks_are_rows_of_the_full_matrix(self, law, steps):
        cfg = mc.SimConfig(paths=41, seed=12, noise_law=law)
        full = mc.draw_noise(cfg, 41, steps)
        # at most of these starts, start * steps is not a multiple of the
        # four words Philox yields per counter step
        cuts = [0, 1, 2, 7, 13, 14, 30, 41]
        for lo, hi in zip(cuts, cuts[1:]):
            assert np.array_equal(mc.draw_noise(cfg, hi - lo, steps, lo), full[lo:hi])
        for i in range(41):
            assert np.array_equal(mc.draw_noise(cfg, 1, steps, i), full[i:i + 1])

    def test_gaussian_moments(self):
        cfg = mc.SimConfig(paths=200000, seed=3, noise_law="standard_gaussian")
        w = mc.draw_noise(cfg, 200000, 2)
        assert abs(w.mean()) < 0.01
        assert abs(w.var() - 1.0) < 0.01


class TestSimulate:
    def test_noise_free_system_is_deterministic(self, rng):
        p = make_problem(rng, 2, 2, 3)
        for t, k in p.pairs():
            p.C[t, k] = np.zeros((2, 2))
            p.Cbar[t, k] = np.zeros((2, 2))
            p.D[t, k] = np.zeros((2, 2))
            p.Dbar[t, k] = np.zeros((2, 2))
            p.d[t, k] = np.zeros(2)
        _, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(0, rng.normal(size=2))
        res = mc.simulate(p, init, gains, mc.SimConfig(paths=64, seed=5))
        # every path realises the same cost; the reported spread is at most
        # the roundoff of the mean subtraction
        assert res.std_error <= 1e-14 * (1.0 + abs(res.mean_cost))
        _, control = tree.equilibrium_pair(p, gains, init)
        exact = float(tree.cost(p, init, control, 0)[0])
        assert abs(res.mean_cost - exact) <= 1e-9 * (1.0 + abs(exact))

    def test_same_seed_bitwise_identical(self, example_solved):
        p, gains = example_solved
        init = InitialPair(0, np.array([1.0, 1.0]))
        cfg = mc.SimConfig(paths=5000, seed=42)
        r1 = mc.simulate(p, init, gains, cfg)
        r2 = mc.simulate(p, init, gains, cfg)
        assert r1.mean_cost == r2.mean_cost
        assert r1.std_error == r2.std_error
        for a, b in zip(r1.trajectory_moments, r2.trajectory_moments):
            assert np.array_equal(a["mean"], b["mean"])
            assert np.array_equal(a["cov"], b["cov"])

    def test_single_path_has_no_std_error(self, example_solved):
        p, gains = example_solved
        res = mc.simulate(p, InitialPair(0, np.ones(2)), gains, mc.SimConfig(paths=1, seed=0))
        assert res.std_error is None

    def test_requires_atom_state(self, example_solved):
        p, gains = example_solved
        with pytest.raises(DimensionMismatch):
            mc.simulate(p, InitialPair(1, np.ones((2, 2))), gains,
                        mc.SimConfig(paths=10, seed=0))

    def test_rejects_initial_time_at_horizon(self, example_solved):
        p, gains = example_solved
        with pytest.raises(HorizonMismatch, match="initial time 2 >= horizon 2"):
            mc.simulate(p, InitialPair(p.N, np.ones(2)), gains, mc.SimConfig(paths=10, seed=0))

    def test_cost_within_oracle_band(self, example_solved):
        p, gains = example_solved
        init = InitialPair(0, np.array([1.0, 1.0]))
        _, control = tree.equilibrium_pair(p, gains, init)
        exact = float(tree.cost(p, init, control, 0)[0])
        res = mc.simulate(p, init, gains, mc.SimConfig(paths=40000, seed=7))
        assert abs(res.mean_cost - exact) <= 4.0 * res.std_error

    def test_gaussian_and_rademacher_costs_agree(self, example_solved):
        p, gains = example_solved
        init = InitialPair(0, np.array([1.0, 1.0]))
        r = mc.simulate(p, init, gains, mc.SimConfig(paths=60000, seed=21))
        g = mc.simulate(p, init, gains,
                        mc.SimConfig(paths=60000, seed=22, noise_law="standard_gaussian"))
        joint = float(np.hypot(r.std_error, g.std_error))
        assert abs(r.mean_cost - g.mean_cost) <= 4.0 * joint

    def test_zero_control_cost_matches_tree(self, example_solved):
        p, gains = example_solved
        zero = recursion.GainSchedule(
            W=gains.W, Wdag=gains.Wdag, H=gains.H, beta=gains.beta,
            Psi=[np.zeros((p.m, p.n))] * p.N, alpha=[np.zeros(p.m)] * p.N,
        )
        init = InitialPair(0, np.array([1.0, 1.0]))
        exact = float(tree.cost(p, init, constant_control(p, 0), 0)[0])
        res = mc.simulate(p, init, zero, mc.SimConfig(paths=100_000, seed=19))
        assert np.isfinite(exact)
        assert abs(res.mean_cost - exact) <= 3.0 * res.std_error

    def test_covariances_are_symmetric_psd(self, example_solved):
        p, gains = example_solved
        res = mc.simulate(p, InitialPair(0, np.ones(2)), gains,
                          mc.SimConfig(paths=5000, seed=23))
        for row in res.trajectory_moments:
            cov = row["cov"]
            assert np.array_equal(cov, cov.T)
            assert np.linalg.eigvalsh(cov)[0] >= -1e-10 * (1.0 + np.max(np.abs(cov)))

    def test_trajectory_moments_match_tree(self, example_solved):
        p, gains = example_solved
        init = InitialPair(0, np.array([1.0, 1.0]))
        state, _ = tree.equilibrium_pair(p, gains, init)
        paths = 50000
        res = mc.simulate(p, init, gains, mc.SimConfig(paths=paths, seed=13))
        for row in res.trajectory_moments:
            k = row["k"]
            nodes = state.values[k]
            exact_mean = nodes.mean(axis=0)
            se = np.sqrt(np.maximum(np.diag(row["cov"]), 1e-30) / paths)
            assert np.all(np.abs(row["mean"] - exact_mean) <= 4.0 * se + 1e-12)
            centred = nodes - exact_mean
            exact_cov = centred.T @ centred / nodes.shape[0]
            # crude band for second moments on frozen seeds
            tol = 4.0 * (np.sqrt(2.0 / paths) * (np.abs(exact_cov) + np.outer(se, se) * paths))
            assert np.all(np.abs(row["cov"] - exact_cov) <= tol + 1e-12)

    @pytest.mark.parametrize("paths", [1, 100, mc.BLOCK, 2 * mc.BLOCK + 3])
    def test_draws_each_block_once(self, example_solved, monkeypatch, paths):
        p, gains = example_solved
        calls = []
        draw = mc.draw_noise

        def spy(cfg, rows, steps, start=0):
            calls.append((start, rows, steps))
            return draw(cfg, rows, steps, start)

        monkeypatch.setattr(mc, "draw_noise", spy)
        mc.simulate(p, InitialPair(0, np.ones(2)), gains, mc.SimConfig(paths=paths, seed=2))
        assert calls == [(s, min(mc.BLOCK, paths - s), p.N) for s in range(0, paths, mc.BLOCK)]

    def test_std_error_is_calibrated(self, example_solved):
        """The paths are independent once the mean-field terms are exact, so
        the z-score of the mean cost against the exact tree cost has unit
        spread over seeds."""
        p, gains = example_solved
        init = InitialPair(0, np.array([1.0, 1.0]))
        _, control = tree.equilibrium_pair(p, gains, init)
        exact = float(tree.cost(p, init, control, 0)[0])
        z = []
        for seed in range(20):
            res = mc.simulate(p, init, gains, mc.SimConfig(paths=20_000, seed=seed))
            z.append((res.mean_cost - exact) / res.std_error)
        assert 0.6 <= np.std(z, ddof=1) <= 1.5


def _rows(w):
    """A kernel noise source serving the blocks of a whole noise matrix."""
    return lambda start, rows: w[start:start + rows]


def _solved(dims):
    """A seeded convex instance of dims (n, m, N) and its gains; None gives
    the bundled example."""
    if dims is None:
        p = model.bundled_example()
    else:
        p = make_problem(np.random.default_rng(17), *dims, scale=0.4)
    _, gains, _ = recursion.solve_gdre_global(p)
    return p, gains


class TestEnumeratedNoise:
    """Under Rademacher noise the exact tree is Monte Carlo over all 2^(N-t)
    sign paths, each with weight 2^-(N-t): the kernel fed the full sign
    matrix reproduces the tree cost up to rounding."""

    @pytest.mark.parametrize("dims", [(2, 2, 8), (1, 1, 6), (3, 2, 10), (2, 2, 1), None,
                                      (2, 1, 14)])
    def test_mean_cost_equals_tree_cost(self, dims):
        # (2, 1, 14) has 16384 sign paths, so the kernel runs it in blocks
        p, gains = _solved(dims)
        x0 = np.linspace(-1.0, 1.0, p.n) + 0.5
        steps = p.N
        bits = (np.arange(2**steps)[:, None] >> np.arange(steps)) & 1
        signs = 1.0 - 2.0 * bits
        costs, moments = mc._rollout(p, gains, 0, x0, len(signs), _rows(signs))
        init = InitialPair(0, x0)
        state, control = tree.equilibrium_pair(p, gains, init)
        exact = float(tree.cost(p, init, control, 0)[0])
        assert abs(costs.mean() - exact) <= 1e-12 * abs(exact)
        for row in moments:
            nodes = state.values[row["k"]]
            scale = 1.0 + np.max(np.abs(nodes))
            assert np.max(np.abs(row["mean"] - nodes.mean(axis=0))) <= 1e-12 * scale


class TestExactMoments:
    """The second-moment recursion gives the exact expected cost and moments
    at any horizon: the tree's where the tree reaches, and Monte Carlo's
    target beyond it."""

    @pytest.mark.parametrize("dims, t, convex", [
        ((2, 2, 10), 0, True), ((3, 1, 8), 0, False), ((1, 3, 12), 0, True),
        ((2, 2, 12), 0, False), ((2, 2, 10), 3, True), ((3, 2, 6), 5, False), (None, 0, True),
        (None, 1, True),
    ])
    def test_matches_the_tree(self, dims, t, convex):
        if dims is None:
            p, gains = _solved(None)
        else:
            p = make_problem(np.random.default_rng(sum(dims) + t), *dims, scale=0.3,
                             convex=convex)
            _, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(t, np.linspace(-1.0, 1.0, p.n) + 0.3)
        cost, moments = mc.exact_moments(p, gains, init)
        state, control = tree.equilibrium_pair(p, gains, init)
        exact = float(tree.cost(p, init, control, t)[0])
        assert abs(cost - exact) <= 1e-12 * abs(exact)
        assert [r["k"] for r in moments] == list(range(t, p.N + 1))
        for row in moments:
            nodes = state.values[row["k"]]
            centred = nodes - nodes.mean(axis=0)
            cov = centred.T @ centred / nodes.shape[0]
            assert np.max(np.abs(row["mean"] - nodes.mean(axis=0))) <= 1e-12 * (
                1.0 + np.max(np.abs(nodes)))
            assert np.max(np.abs(row["cov"] - cov)) <= 1e-12 * (1.0 + np.max(np.abs(cov)))
            assert np.array_equal(row["cov"], row["cov"].T)

    @pytest.mark.parametrize("law", mc.NOISE_LAWS)
    def test_simulate_is_unbiased_beyond_the_tree(self, law):
        """At N = 50 the z-scores of the mean cost against the exact value,
        over a seed set fixed before the noise stream last changed, have unit
        spread and no bias."""
        p = make_problem(np.random.default_rng(5), 2, 2, 50, scale=0.3)
        _, gains, _ = recursion.solve_gdre_global(p)
        init = InitialPair(0, np.ones(2))
        exact, _ = mc.exact_moments(p, gains, init)
        z = []
        for seed in range(20):
            res = mc.simulate(p, init, gains, mc.SimConfig(paths=20_000, seed=seed,
                                                            noise_law=law))
            z.append((res.mean_cost - exact) / res.std_error)
        assert 0.6 <= np.std(z, ddof=1) <= 1.5
        assert abs(np.mean(z)) <= 3.0 / np.sqrt(len(z))

    def test_rejects_initial_time_at_horizon(self, example_solved):
        p, gains = example_solved
        with pytest.raises(HorizonMismatch):
            mc.exact_moments(p, gains, InitialPair(p.N, np.ones(2)))


def _identity_scales(forms, gains, solved, report, t):
    """The size of each term of the solver identities, per step."""
    scales = {"M2_residuals": {}, "WPsi_H_residuals": {}, "Walpha_beta_residuals": {}}
    for k, Q in enumerate(forms, start=t):
        W = solved.W[k]
        for name, terms in (("M2_residuals", (Q, report.M2[k])),
                            ("WPsi_H_residuals", (Q, W @ gains.Psi[k], solved.H[k])),
                            ("Walpha_beta_residuals", (Q, W @ gains.alpha[k], solved.beta[k]))):
            scales[name][str(k)] = 1.0 + max(np.max(np.abs(a)) for a in terms)
    return scales


class TestDeviationForms:
    """The restarted cost theta' Q_k theta, theta = [x; v; 1], in closed form."""

    @pytest.mark.parametrize("dims, t", [((2, 2, 6), 0), ((3, 1, 5), 2), ((1, 3, 4), 0)])
    def test_zero_deviation_gives_the_exact_cost(self, dims, t):
        rng = np.random.default_rng(sum(dims) + t)
        p = make_problem(rng, *dims, scale=0.4, convex=bool(t))
        _, gains, _ = recursion.solve_gdre_global(p)
        forms = mc.deviation_forms(p, gains, t)
        assert forms.shape == (p.N - t, p.n + p.m + 1, p.n + p.m + 1)
        for k, Q in enumerate(forms, start=t):
            x = rng.normal(size=p.n)
            theta = np.concatenate([x, np.zeros(p.m), [1.0]])
            exact, _ = mc.exact_moments(p, gains, InitialPair(k, x))
            assert abs(theta @ Q @ theta - exact) <= 1e-12 * (1.0 + abs(exact))

    def test_solver_identities_on_the_randomised_suite(self, rng):
        # M_k = M2[k], Gamma_k = W_k Psi_k + H_k, gamma_k = W_k alpha_k + beta_k
        for j in range(20):
            p = make_problem(rng, *random_dims(rng, max_N=7), convex=bool(j % 2))
            _, gains, report = recursion.solve_gdre_global(p)
            t = int(rng.integers(0, p.N))
            forms = mc.deviation_forms(p, gains, t)
            checks = mc.solver_identities(forms, gains, gains, report, t)
            scales = _identity_scales(forms, gains, gains, report, t)
            for name, residuals in checks.items():
                assert list(residuals) == [str(k) for k in range(t, p.N)]
                for k, v in residuals.items():
                    assert v <= 1e-12 * scales[name][k], (j, name, k, v)

    def test_identities_break_before_an_edited_gain(self, rng):
        # H_k and beta_k are built from the solved later gains: with the gains
        # edited at steps 2 and 5, the gain identities hold from step 5 on and
        # fail before it; M_k does not depend on the gains
        p = make_problem(rng, 2, 2, 8, coupled=True)
        _, solved, report = recursion.solve_gdre_global(p)
        gains = recursion.GainSchedule(*(list(getattr(solved, f)) for f in
                                         ("W", "Wdag", "H", "beta", "Psi", "alpha")))
        for k in (2, 5):
            gains.Psi[k] = gains.Psi[k] + 0.1
            gains.alpha[k] = gains.alpha[k] - 0.1
        forms = mc.deviation_forms(p, gains, 0)
        checks = mc.solver_identities(forms, gains, solved, report, 0)
        scales = _identity_scales(forms, gains, solved, report, 0)
        for name, residuals in checks.items():
            for k in range(p.N):
                ratio = residuals[str(k)] / scales[name][str(k)]
                if k >= 5 or name == "M2_residuals":
                    assert ratio <= 1e-12, (name, k, ratio)
                else:
                    assert ratio > 1e-6, (name, k, ratio)


class TestAgainstTwoPassReference:
    """The fused kernel computes the two-pass estimator; only rounding differs."""

    @pytest.mark.parametrize("dims, t, paths, law", [
        ((2, 3, 5), 0, 3000, "rademacher"),
        ((1, 1, 4), 0, 3000, "standard_gaussian"),
        ((3, 2, 1), 0, 2000, "rademacher"),
        ((2, 2, 6), 2, 3000, "standard_gaussian"),
        ((3, 1, 7), 3, 2500, "rademacher"),
        ((2, 2, 5), 1, 1, "rademacher"),
        (None, 0, 5000, "rademacher"),
        (None, 1, 5000, "standard_gaussian"),
        (None, 0, 2 * mc.BLOCK + 1, "rademacher"),
        ((2, 2, 6), 2, mc.BLOCK + 500, "standard_gaussian"),
    ])
    def test_simulate_matches_reference(self, dims, t, paths, law):
        p, gains = _solved(dims)
        init = InitialPair(t, np.linspace(-1.0, 1.0, p.n) + 0.3)
        cfg = mc.SimConfig(paths=paths, seed=p.N + 7, noise_law=law)
        got = mc.simulate(p, init, gains, cfg)
        ref = mc_reference.simulate(p, init, gains, cfg)
        assert abs(got.mean_cost - ref.mean_cost) <= 1e-10 * abs(ref.mean_cost)
        if paths == 1:
            assert got.std_error is None and ref.std_error is None
        else:
            assert abs(got.std_error - ref.std_error) <= 1e-10 * ref.std_error
        assert [r["k"] for r in got.trajectory_moments] == list(range(t, p.N + 1))
        for a, b in zip(got.trajectory_moments, ref.trajectory_moments, strict=True):
            scale = 1.0 + max(np.max(np.abs(b["mean"])), np.max(np.abs(b["cov"])))
            assert np.max(np.abs(a["mean"] - b["mean"])) <= 1e-10 * scale
            assert np.max(np.abs(a["cov"] - b["cov"])) <= 1e-10 * scale
            assert np.array_equal(a["cov"], a["cov"].T)


class TestBlockLayout:
    """A path's cost is a function of its own noise row alone: neither the
    total path count nor where the block boundaries fall changes it."""

    @pytest.mark.parametrize("law", mc.NOISE_LAWS)
    @pytest.mark.parametrize("dims", [(2, 2, 6), (3, 2, 5), None])
    def test_path_costs_are_bitwise_independent_of_blocks(self, dims, law, monkeypatch):
        p, gains = _solved(dims)
        x0 = np.linspace(-1.0, 1.0, p.n) + 0.3
        cfg = mc.SimConfig(paths=600, seed=p.N, noise_law=law)
        w = mc.draw_noise(cfg, cfg.paths, p.N)
        ref, _ = mc._rollout(p, gains, 0, x0, cfg.paths, _rows(w))
        for block, paths in [(7, 600), (64, 599), (600, 37), (2, 5), (1, 9), (13, 1)]:
            monkeypatch.setattr(mc, "BLOCK", block)
            got, _ = mc._rollout(p, gains, 0, x0, paths, _rows(w))
            assert np.array_equal(got, ref[:paths])

    def test_moments_are_independent_of_blocks(self, example_solved, monkeypatch):
        p, gains = example_solved
        init = InitialPair(0, np.array([0.4, -1.0]))
        cfg = mc.SimConfig(paths=500, seed=8)
        ref = mc.simulate(p, init, gains, cfg)
        monkeypatch.setattr(mc, "BLOCK", 7)
        got = mc.simulate(p, init, gains, cfg)
        assert got.mean_cost == ref.mean_cost
        for a, b in zip(got.trajectory_moments, ref.trajectory_moments, strict=True):
            # the per-block sums add up in another order
            scale = 1.0 + max(np.max(np.abs(b["mean"])), np.max(np.abs(b["cov"])))
            assert np.max(np.abs(a["mean"] - b["mean"])) <= 1e-12 * scale
            assert np.max(np.abs(a["cov"] - b["cov"])) <= 1e-12 * scale


def test_simulate_memory_is_bounded_by_the_noise_matrix():
    """The noise is drawn per block, so the peak stays well below the
    (paths, N) noise matrix and grows with the path count by little more
    than the per-path cost vector."""
    p = make_problem(np.random.default_rng(5), 2, 2, 50, scale=0.3)
    _, gains, _ = recursion.solve_gdre_global(p)

    def peak(paths):
        tracemalloc.start()
        try:
            mc.simulate(p, InitialPair(0, np.ones(2)), gains, mc.SimConfig(paths=paths, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    paths = 100_000
    small, big = peak(paths), peak(2 * paths)
    assert small <= paths * p.N * 8 / 4
    assert big - small <= 8 * paths + 1_000_000
