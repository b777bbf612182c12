"""Khatri-Rao and reconstruction identities, the RMSE of a reconstruction,
and CSV round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import (
    DenseTensor3,
    KruskalFactors,
    ShapeMismatchError,
    ValidationError,
    khatri_rao,
    kruskal_reconstruct,
    load_tensor_csv,
    save_factor_csv,
    save_tensor_csv,
    window_rmse,
)

RNG = np.random.default_rng(1234)


def random_factors(i_n, j_n, k_n, rank, rng=RNG):
    return KruskalFactors(
        rng.standard_normal((i_n, rank)),
        rng.standard_normal((j_n, rank)),
        rng.standard_normal((k_n, rank)),
    )


class TestConstruction:
    def test_rejects_nan(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            DenseTensor3(arr)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValidationError):
            DenseTensor3(np.zeros((2, 2)))

    def test_factor_rank_mismatch(self):
        with pytest.raises(ValidationError):
            KruskalFactors(np.ones((2, 2)), np.ones((3, 2)), np.ones((4, 3)))

    def test_tensor_is_readonly(self):
        t = DenseTensor3(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_from_checked_freezes_without_copying(self):
        mats = [np.ones((2, 2)), np.ones((3, 2)), np.ones((4, 2))]
        f = KruskalFactors.from_checked(*mats)
        assert f.a is mats[0] and f.b is mats[1] and f.c is mats[2]
        assert f.dims == (2, 3, 4) and f.rank == 2
        with pytest.raises(ValueError):
            f.b[0, 0] = 2.0


class TestKhatriRao:
    def test_single_column(self):
        out = khatri_rao(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(out, [[3.0], [4.0], [6.0], [8.0]])

    def test_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0
        expected[3, 1] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_gram_hadamard_identity(self):
        p = RNG.standard_normal((3, 2))
        q = RNG.standard_normal((4, 2))
        kr = khatri_rao(p, q)
        np.testing.assert_allclose(kr.T @ kr, (p.T @ p) * (q.T @ q), atol=1e-12)

    def test_column_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            khatri_rao(np.ones((2, 2)), np.ones((2, 3)))

    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_bilinear(self, seed, s1, s2):
        rng = np.random.default_rng(seed)
        p1, p2 = rng.standard_normal((2, 3, 2))
        q = rng.standard_normal((4, 2))
        np.testing.assert_allclose(
            khatri_rao(s1 * p1 + s2 * p2, q),
            s1 * khatri_rao(p1, q) + s2 * khatri_rao(p2, q),
            atol=1e-9,
        )


class TestReconstructAndRmse:
    def test_rank1_example(self):
        f = KruskalFactors(
            np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]]), np.array([[2.0]])
        )
        np.testing.assert_array_equal(
            kruskal_reconstruct(f).data[:, :, 0], [[2.0, 2.0], [0.0, 0.0]]
        )

    def test_zero_factors(self):
        f = KruskalFactors(np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((4, 1)))
        assert np.all(kruskal_reconstruct(f).data == 0.0)

    def test_rmse_zero_on_exact(self):
        f = random_factors(3, 4, 5, 2)
        assert window_rmse(kruskal_reconstruct(f), f) == 0.0

    def test_rmse_ones_against_zero_factors(self):
        f = KruskalFactors(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)))
        t = DenseTensor3(np.ones((2, 2, 2)))
        assert window_rmse(t, f) == pytest.approx(1.0)

    def test_rmse_matches_direct_sum(self):
        f = random_factors(3, 4, 2, 2)
        t = DenseTensor3(RNG.standard_normal((3, 4, 2)))
        resid = t.data - kruskal_reconstruct(f).data
        expected = np.sqrt((resid**2).sum() / resid.size)
        assert window_rmse(t, f) == pytest.approx(expected, rel=1e-12)

    def test_rmse_dim_mismatch(self):
        f = random_factors(3, 4, 5, 2)
        with pytest.raises(ShapeMismatchError):
            window_rmse(DenseTensor3(np.zeros((3, 4, 6))), f)


class TestCsvRoundTrip:
    def test_tensor_round_trip(self, tmp_path):
        t = DenseTensor3(RNG.standard_normal((3, 2, 4)))
        path = str(tmp_path / "t.csv")
        save_tensor_csv(t, path)
        back = load_tensor_csv(path)
        np.testing.assert_array_equal(back.data, t.data)

    def test_duplicate_cell_rejected(self, tmp_path):
        t = DenseTensor3(np.zeros((1, 1, 2)))
        path = str(tmp_path / "t.csv")
        save_tensor_csv(t, path)
        with open(path) as fh:
            lines = fh.readlines()
        lines.append(lines[1])
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ValidationError):
            load_tensor_csv(path)

    def test_missing_cell_rejected(self, tmp_path):
        t = DenseTensor3(np.zeros((1, 1, 2)))
        path = str(tmp_path / "t.csv")
        save_tensor_csv(t, path)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:-1])
        with pytest.raises(ValidationError):
            load_tensor_csv(path)

    def test_factor_export(self, tmp_path):
        m = RNG.standard_normal((3, 2))
        path = str(tmp_path / "f.csv")
        save_factor_csv(m, path)
        back = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(back, m)
