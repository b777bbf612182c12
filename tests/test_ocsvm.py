"""Batch one-class SVM against a dense projected-gradient QP oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import (
    KernelSpec,
    KktViolationError,
    NuTooSmallError,
    OcsvmModel,
    ShapeMismatchError,
    ValidationError,
    add_sample,
    decision_value,
    kernel_matrix,
    kkt_partition,
    median_pairwise_sigma,
    train_batch,
)


def kernel_eval(k, x, y):
    """Per-pair kernel value, the oracle for ``kernel_matrix``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if k.kind == "linear":
        return float(x @ y)
    return float(np.exp(-np.sum((x - y) ** 2) / (2.0 * k.sigma**2)))


def kernel_value(k, x, y):
    """``kernel_matrix`` on the single rows x and y."""
    kmat = kernel_matrix(k, [x], [y])
    assert kmat.shape == (1, 1)
    return float(kmat[0, 0])


def qp_oracle(x, nu, kernel, iters=200_000):
    """Projected gradient on the dual: min 1/2 a^T K a, sum(a)=1, 0<=a<=C.

    The projection onto the box-capped simplex is exact: the sum of
    clip(v - t, 0, C) falls piecewise linearly in the shift t, with
    breakpoints at v_i - C and v_i, so the shift that makes it 1 is found on
    its piece and solved there in closed form.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    c_bound = 1.0 / (nu * n)
    kmat = kernel_matrix(kernel, x)
    lr = 1.0 / (np.linalg.norm(kmat, 2) + 1e-12)
    alpha = np.full(n, 1.0 / n)

    def project(v):
        shifts = np.unique(np.concatenate([v - c_bound, v]))
        sums = np.clip(v[None, :] - shifts[:, None], 0.0, c_bound).sum(axis=1)
        k = int(np.argmax(sums <= 1.0))  # sums falls from n*C >= 1 to 0
        if k == 0 or sums[k] == 1.0:
            t = shifts[k]
        else:
            t = shifts[k - 1] + (sums[k - 1] - 1.0) \
                * (shifts[k] - shifts[k - 1]) / (sums[k - 1] - sums[k])
        return np.clip(v - t, 0.0, c_bound)

    for _ in range(iters):
        alpha = project(alpha - lr * (kmat @ alpha))
    f = kmat @ alpha
    eps = 1e-7 * c_bound
    s_mask = (alpha > eps) & (alpha < c_bound - eps)
    if np.any(s_mask):
        rho = float(np.mean(f[s_mask]))
    else:
        lo = np.max(f[alpha >= c_bound - eps], initial=-np.inf)
        hi = np.min(f[alpha <= eps], initial=np.inf)
        rho = float(0.5 * (lo + hi)) if np.isfinite(lo) and np.isfinite(hi) \
            else float(lo if np.isfinite(lo) else hi)
    return alpha, rho, kmat


class TestKernels:
    def test_rbf_self(self):
        k = KernelSpec("rbf", 1.0)
        assert kernel_value(k, [1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_rbf_large_sigma_limit(self):
        k = KernelSpec("rbf", 1e6)
        assert kernel_value(k, [0.0, 0.0], [3.0, 4.0]) == \
            pytest.approx(1.0, abs=1e-6)

    def test_linear(self):
        k = KernelSpec("linear")
        assert kernel_value(k, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            kernel_matrix(KernelSpec("linear"), [[1.0]], [[1.0, 2.0]])

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            KernelSpec("poly")

    def test_matrix_matches_eval(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 2))
        k = KernelSpec("rbf", 0.7)
        kmat = kernel_matrix(k, x)
        for i in range(5):
            for j in range(5):
                assert kmat[i, j] == pytest.approx(kernel_eval(k, x[i], x[j]))

    def test_median_sigma_positive(self):
        rng = np.random.default_rng(4)
        assert median_pairwise_sigma(rng.standard_normal((10, 2))) > 0


class TestTrainBatch:
    def test_two_identical_points(self):
        m = train_batch([[1.0, 1.0], [1.0, 1.0]], 0.9, KernelSpec("rbf", 1.0))
        np.testing.assert_allclose(m.alpha, [0.5, 0.5], atol=1e-8)

    def test_nu_too_small(self):
        x = np.eye(3)
        with pytest.raises(NuTooSmallError):
            train_batch(x, 0.1, KernelSpec("rbf", 1.0))

    def test_nu_property_counts(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 2))
        m = train_batch(x, 0.3, KernelSpec("rbf", 1.0))
        at_bound = np.sum(m.alpha >= m.c_bound - 1e-9)
        positive = np.sum(m.alpha > 1e-9)
        assert at_bound <= int(np.ceil(0.3 * 20))
        assert positive >= at_bound

    def test_collinear_linear_kernel_matches_oracle(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        kernel = KernelSpec("linear")
        m = train_batch(x, 0.5, kernel)
        alpha_o, rho_o, _ = qp_oracle(x, 0.5, kernel)
        obj = 0.5 * m.alpha @ m.gram() @ m.alpha
        obj_o = 0.5 * alpha_o @ m.gram() @ alpha_o
        assert abs(obj - obj_o) <= 1e-6

    @pytest.mark.parametrize("seed,nu", [(0, 0.2), (1, 0.4), (2, 0.6)])
    def test_oracle_objective_and_scores(self, seed, nu):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((18, 2))
        kernel = KernelSpec("rbf", median_pairwise_sigma(x))
        m = train_batch(x, nu, kernel)
        alpha_o, rho_o, kmat = qp_oracle(x, nu, kernel)
        obj = 0.5 * m.alpha @ kmat @ m.alpha
        obj_o = 0.5 * alpha_o @ kmat @ alpha_o
        assert abs(obj - obj_o) <= 1e-6
        probe = rng.standard_normal((10, 2))
        k_probe = kernel_matrix(kernel, probe, x)
        np.testing.assert_allclose(
            k_probe @ m.alpha - m.rho, k_probe @ alpha_o - rho_o, atol=1e-5
        )

    def test_invariants_hold(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((25, 3))
        m = train_batch(x, 0.25, KernelSpec("rbf", 1.5))
        assert m.alpha.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(m.alpha >= -1e-12)
        assert np.all(m.alpha <= m.c_bound + 1e-12)
        kkt_partition(m)  # must not raise


class TestDecisionAndClassify:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.x = rng.normal(0.0, 1.0, (30, 2))
        self.kernel = KernelSpec("rbf", median_pairwise_sigma(self.x))
        self.m = train_batch(self.x, 0.2, self.kernel)

    def test_support_vectors_on_margin(self):
        s_idx, _, _ = kkt_partition(self.m)
        for i in s_idx:
            assert abs(decision_value(self.m, self.x[i])) <= 1e-6

    def test_far_point_approaches_minus_rho(self):
        far = np.array([100.0 * self.kernel.sigma, 0.0])
        assert decision_value(self.m, far) == pytest.approx(-self.m.rho, abs=1e-6)

    def test_far_point_negative_class(self):
        assert self.m.rho > 0
        far = np.array([100.0 * self.kernel.sigma, 0.0])
        assert decision_value(self.m, far) < 0.0

    def test_centroid_positive(self):
        rng = np.random.default_rng(13)
        tight = 0.05 * rng.standard_normal((20, 2)) + np.array([1.0, 1.0])
        m = train_batch(tight, 0.2, KernelSpec("rbf", 0.5))
        assert decision_value(m, tight.mean(axis=0)) >= 0.0

    def test_zero_maps_to_positive(self):
        # a support vector put exactly on the boundary scores g = 0, which
        # is the inside (g >= 0) of the boundary
        m = self.m.copy()
        s_idx, _, _ = kkt_partition(m)
        g_s = decision_value(m, self.x[s_idx[0]])
        m.rho += g_s  # force the support vector exactly onto the boundary
        assert decision_value(m, self.x[s_idx[0]]) >= 0.0

    def test_lipschitz_bound_rbf(self):
        rng = np.random.default_rng(14)
        lip = self.m.alpha.sum() / (self.kernel.sigma * np.sqrt(np.e))
        for _ in range(50):
            a, b = rng.standard_normal((2, 2))
            lhs = abs(decision_value(self.m, a) - decision_value(self.m, b))
            assert lhs <= lip * np.linalg.norm(a - b) + 1e-12


def scoring_model(kind):
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, 3))
    rbf = KernelSpec("rbf", median_pairwise_sigma(x))
    if kind == "rbf":
        return train_batch(x, 0.2, rbf)
    if kind == "linear":
        # off the origin, so the linear boundary leaves rows at alpha = 0
        return train_batch(x + 2.0, 0.2, KernelSpec("linear"))
    if kind == "add_sample":
        m, _ = add_sample(train_batch(x[:-1], 0.2, rbf), x[-1])
        return m
    alpha = rng.uniform(0.5, 1.5, size=40)
    return OcsvmModel(x, alpha / alpha.sum(), 0.3, 0.2, rbf)


class TestScoringOracle:
    @pytest.mark.parametrize("kind",
                             ["rbf", "linear", "add_sample", "all_nonzero"])
    def test_matches_sum_over_all_rows(self, kind):
        # oracle: the decision function summed over every training row
        m = scoring_model(kind)
        assert np.any(m.alpha == 0.0) == (kind != "all_nonzero")
        rng = np.random.default_rng(16)
        points = np.vstack([m.x, rng.standard_normal((25, 3))])
        expected = kernel_matrix(m.kernel, points, m.x) @ m.alpha - m.rho
        np.testing.assert_allclose(m.decision_values(points), expected,
                                   rtol=0.0, atol=1e-12)


class TestKktPartition:
    def test_fresh_model_partitions(self):
        rng = np.random.default_rng(21)
        m = train_batch(rng.standard_normal((15, 2)), 0.3, KernelSpec("rbf", 1.0))
        s, e, r = kkt_partition(m)
        assert sorted(s + e + r) == list(range(15))

    def test_constructed_violation(self):
        rng = np.random.default_rng(22)
        m = train_batch(rng.standard_normal((15, 2)), 0.3, KernelSpec("rbf", 1.0))
        s, _, _ = kkt_partition(m)
        bad = m.copy()
        bad.alpha[s[0]] = 0.0  # breaks the equality constraint balance
        with pytest.raises(KktViolationError):
            kkt_partition(bad)

    def test_all_at_bound_degenerate_model(self):
        # nu -> 1 limit: C = 1/n and the equality constraint pins every
        # alpha to the bound, so the margin set is empty
        rng = np.random.default_rng(23)
        x = rng.standard_normal((10, 2))
        kernel = KernelSpec("rbf", 1.0)
        alpha = np.full(10, 0.1)
        f = kernel_matrix(kernel, x) @ alpha
        m = OcsvmModel(x, alpha, float(f.max()), 1.0, kernel)
        s, e, r = kkt_partition(m)
        assert s == [] and len(e) == 10 and r == []


class TestNuProperty:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_bound_and_outlier_fractions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 61))
        nu = float(rng.uniform(0.1, 0.8))
        if nu * n < 1.0:
            nu = 1.5 / n
        x = rng.standard_normal((n, 2))
        m = train_batch(x, nu, KernelSpec("rbf", median_pairwise_sigma(x)))
        g = m.training_decision_values()
        frac_neg = np.mean(g < -1e-9)
        frac_bound = np.mean(m.alpha >= m.c_bound - 1e-9 * m.c_bound)
        assert frac_bound <= nu + 1e-12
        assert frac_neg <= nu + 2.0 / n


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((12, 2))
        m = train_batch(x, 0.25, KernelSpec("rbf", 0.8))
        back = OcsvmModel.from_dict(json.loads(json.dumps(m.to_dict())))
        assert back.rho == m.rho
        assert back.nu == m.nu
        assert back.kernel == m.kernel
        np.testing.assert_array_equal(back.alpha, m.alpha)
        np.testing.assert_array_equal(back.x, m.x)
