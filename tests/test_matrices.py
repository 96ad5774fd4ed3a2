import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meanfield_lq import matrices as mx
from meanfield_lq.errors import DimensionMismatch, NonFinite, NonSquare

from conftest import fro, penrose_residuals


def penrose_ok(a, tol_factor=1e-10, rounding=False):
    # each identity bounded relative to its own scale: reconstruction
    # residuals follow M and M-dagger, projector asymmetry follows their
    # product (condition-number scale).  With ``rounding`` the
    # reconstruction bounds also admit max(dim) * u * kappa: a singular
    # value just above the rank cutoff leaves M-dagger determined only to
    # that relative accuracy, so no pinv can do better there
    d = mx.pinv(a)
    r1, r2, r3, r4 = penrose_residuals(a, d)
    cond_scale = fro(a) * fro(d)
    if np.isnan(cond_scale):  # 0 * inf from under/overflowing norms
        cond_scale = np.inf
    rel = tol_factor
    if rounding:
        rel += max(np.shape(a)) * mx.UNIT_ROUNDOFF * cond_scale
    return (
        r1 <= rel * (1.0 + fro(a))
        and r2 <= rel * (1.0 + fro(d))
        and r3 <= tol_factor * (1.0 + cond_scale)
        and r4 <= tol_factor * (1.0 + cond_scale)
    )


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(mx.pinv(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal_with_zero_row(self):
        got = mx.pinv([[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(got, [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_column_vector(self):
        got = mx.pinv([[1.0], [1.0]])
        np.testing.assert_allclose(got, [[0.5, 0.5]], atol=1e-14)
        assert penrose_ok([[1.0], [1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            mx.pinv([[np.nan, 0.0], [0.0, 1.0]])

    def test_random_penrose_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            r = int(rng.integers(1, 9))
            c = int(rng.integers(1, 9))
            assert penrose_ok(rng.normal(size=(r, c)) * 3.0)

    def test_rank_deficient_penrose_identities(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            r = int(rng.integers(2, 9))
            c = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(r, c)))
            a = rng.normal(size=(r, k)) @ rng.normal(size=(k, c))
            assert penrose_ok(a)

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            back = mx.pinv(mx.pinv(a))
            assert np.max(np.abs(back - a)) <= 1e-8 * (1.0 + fro(a))

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, (3, 2),
                  elements=st.floats(-5, 5).map(lambda v: 0.0 if abs(v) < 1e-30 else v)))
    # second singular value just above the cutoff: kappa ~ 1.2e15
    @example(np.array([[0.0, 0.0], [0.0, 1.10636148e-14], [2.18359375, 5.0]]))
    def test_penrose_property(self, a):
        # magnitudes where the exact pseudoinverse is representable; at
        # subnormal scales its entries exceed the double range altogether
        assert penrose_ok(a, rounding=True)


class TestStackedPinv:
    """A stack's pseudoinverse is every matrix's own, bit for bit."""

    @staticmethod
    def assert_each(stack):
        got = mx.pinv(stack)
        assert got.shape == stack.shape[:-2] + stack.shape[:-3:-1]
        for a, d in zip(stack.reshape((-1,) + stack.shape[-2:]),
                        got.reshape((-1,) + got.shape[-2:])):
            assert d.tobytes() == mx.pinv(a).tobytes()

    def test_members_match_single_calls(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 5):
            stack = rng.normal(size=(7, d, d))
            stack[1] = 0.0
            stack[2] = -0.0
            stack[3, 0, 0] = -0.0 if d > 1 else stack[3, 0, 0]
            if d > 1:  # rank-deficient members
                u = rng.normal(size=(d, 1))
                stack[4] = u @ u.T
                stack[5] = rng.normal(size=(d, d - 1)) @ rng.normal(size=(d - 1, d))
            stack[6] *= 1e-300
            stack[0] *= 1e300
            self.assert_each(stack)

    def test_extreme_scales_and_shapes(self):
        rng = np.random.default_rng(12)
        for r, c in ((1, 1), (5, 5), (2, 3), (4, 1)):
            stack = rng.normal(size=(3, 4, r, c))
            stack *= 10.0 ** rng.choice([-300, -150, 0, 150, 300], size=(3, 4, 1, 1))
            stack[0, 0] = 0.0
            self.assert_each(stack)

    def test_all_zero_stack(self):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = -0.0
        self.assert_each(stack)
        assert np.signbit(mx.pinv(stack)[1, 1, 0])

    def test_non_finite_member_raises(self):
        stack = np.stack([np.eye(2), np.eye(2), np.eye(2)])
        for bad in (np.nan, np.inf, -np.inf):
            stack[1, 1, 0] = bad
            with pytest.raises(NonFinite):
                mx.pinv(stack)


class TestStackedChecks:
    """fro_each, psd_checks and range_residuals against their per-matrix forms."""

    def test_fro_each_is_fro_of_each_matrix(self):
        rng = np.random.default_rng(13)
        for r in range(1, 8):
            for c in range(1, 8):
                stack = rng.normal(size=(5, r, c)) * 10.0 ** rng.integers(-150, 150, size=(5, 1, 1))
                got = mx.fro_each(stack)
                assert [float(v) for v in got] == [fro(a) for a in stack]

    def test_psd_checks_are_psd_check_of_each_matrix(self):
        rng = np.random.default_rng(14)
        for d in (1, 2, 4):
            a = rng.normal(size=(6, d, d))
            stack = a + np.swapaxes(a, -1, -2)
            assert mx.psd_checks(stack) == [mx.psd_check(m) for m in stack]

    def test_range_residuals_are_range_residual_of_each_pair(self):
        rng = np.random.default_rng(15)
        for d, k in ((1, 1), (2, 1), (3, 2), (4, 4)):
            w = rng.normal(size=(6, d, k)) @ rng.normal(size=(6, k, d))
            v = rng.normal(size=(6, d, 2))
            got = mx.range_residuals(w, mx.pinv(w), v)
            assert [float(r) for r in got] == [mx.range_residual(a, b) for a, b in zip(w, v)]


class TestPsdCheck:
    def test_identity(self):
        v = mx.psd_check(np.eye(2))
        assert v.is_psd and abs(v.min_eigenvalue - 1.0) < 1e-12

    def test_indefinite_weight(self):
        v = mx.psd_check([[-0.5, 0.0], [0.0, 1.0]])
        assert not v.is_psd
        assert abs(v.min_eigenvalue + 0.5) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            mx.psd_check(np.ones((2, 3)))

    def test_default_tolerance_scales_with_norm(self):
        v = mx.psd_check(1e6 * np.eye(3))
        assert v.tolerance_used > 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            a = rng.normal(size=(d, d))
            a = a + a.T
            perm = rng.permutation(d)
            pmat = np.eye(d)[perm]
            v1 = mx.psd_check(a)
            v2 = mx.psd_check(pmat.T @ a @ pmat)
            assert abs(v1.min_eigenvalue - v2.min_eigenvalue) < 1e-12 * (1 + fro(a))


class TestRangeResidual:
    def test_full_rank(self):
        assert mx.range_residual(np.eye(3), np.arange(9.0).reshape(3, 3)) == 0.0

    def test_rank_one_projector(self):
        # (I - W W^+) keeps the second coordinate; ||V||=1 so the residual halves
        assert abs(mx.range_residual([[1.0, 0.0], [0.0, 0.0]], [[0.0], [1.0]]) - 0.5) < 1e-12

    def test_in_column_space(self):
        assert mx.range_residual([[1.0, 0.0], [0.0, 0.0]], [[1.0], [0.0]]) < 1e-14

    def test_constructive_solvability(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = int(rng.integers(1, 7))
            k = int(rng.integers(1, d + 1))
            w = rng.normal(size=(d, k)) @ rng.normal(size=(k, d))
            v = w @ rng.normal(size=(d, int(rng.integers(1, 4))))
            assert mx.range_residual(w, v) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mx.range_residual(np.eye(2), np.ones((3, 1)))

