import numpy as np
import pytest
import scipy.stats

from barlineage import chi2_sf, replica_stream
from barlineage.numerics import gaussian_pair, symmetric_2x2


class TestSymmetric2x2:
    def test_matches_lapack_on_a_stack(self, rng):
        a = rng.normal(size=(3, 5, 2, 2))
        m = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(2)
        adj, det, lmax = symmetric_2x2(m)
        assert adj.shape == m.shape and det.shape == lmax.shape == (3, 5)
        inv = np.linalg.inv(m)
        assert np.abs(adj / det[..., None, None] - inv).max() <= 1e-12 * np.abs(inv).max()
        assert np.allclose(det, np.linalg.det(m), rtol=1e-12)
        assert np.allclose(lmax, np.linalg.eigvalsh(m)[..., 1], rtol=1e-12)

    def test_singular_matrix_has_zero_determinant(self):
        adj, det, lmax = symmetric_2x2(np.array([[1.0, 3.0], [3.0, 9.0]]))
        assert det == 0.0 and lmax == 10.0
        assert np.array_equal(adj, [[9.0, -3.0], [-3.0, 1.0]])


class TestChi2Sf:
    def test_at_zero(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(0.0, 2) == 1.0

    def test_five_percent_quantiles(self):
        assert abs(chi2_sf(3.841459, 1) - 0.05) < 1e-4
        assert abs(chi2_sf(5.991465, 2) - 0.05) < 1e-4

    @pytest.mark.parametrize("df", [1, 2])
    def test_against_scipy(self, df):
        for x in np.linspace(0.0, 40.0, 101):
            assert chi2_sf(float(x), df) == pytest.approx(
                scipy.stats.chi2.sf(x, df), rel=1e-10, abs=1e-300
            )

    @pytest.mark.parametrize("df", [1, 2])
    def test_strictly_decreasing(self, df):
        grid = np.linspace(0.0, 40.0, 100)
        vals = [chi2_sf(float(x), df) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.1, 1)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 3)
        for df in (1, 2):
            with pytest.raises(ValueError):
                chi2_sf(float("nan"), df)


class TestGaussianPair:
    def test_rank_one_covariance_means_identical_sisters(self):
        e0, e1 = gaussian_pair(1.0, 1.0, *replica_stream(5).standard_normal((2, 1000)))
        assert np.array_equal(e0, e1)

    def test_zero_correlation(self):
        e0, e1 = gaussian_pair(1.0, 0.0, *replica_stream(6).standard_normal((2, 100_000)))
        assert abs(np.corrcoef(e0, e1)[0, 1]) < 0.01

    def test_covariance_matches_target(self):
        e0, e1 = gaussian_pair(1.0, 0.5, *replica_stream(7).standard_normal((2, 1_000_000)))
        cov = np.cov(e0, e1)
        assert abs(cov[0, 0] - 1.0) < 0.01
        assert abs(cov[1, 1] - 1.0) < 0.01
        assert abs(cov[0, 1] - 0.5) < 0.01

    def test_rejects_invalid_correlation(self):
        with pytest.raises(ValueError):
            gaussian_pair(1.0, 1.5, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            gaussian_pair(0.0, 0.0, np.zeros(1), np.zeros(1))

    def test_standard_normal_moments(self):
        g = replica_stream(99).standard_normal(1_000_000)
        assert abs(g.mean()) < 0.005
        assert abs(g.var() - 1.0) < 0.01


class TestReplicaStream:
    def test_reproducible(self):
        a = replica_stream(42, 1, 7, 3).random(8)
        b = replica_stream(42, 1, 7, 3).random(8)
        assert np.array_equal(a, b)

    def test_distinct_subkeys_give_distinct_streams(self):
        a = replica_stream(42, 1, 7, 3).random(8)
        b = replica_stream(42, 1, 7, 4).random(8)
        c = replica_stream(43, 1, 7, 3).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
