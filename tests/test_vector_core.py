"""Unit tests for k-means and seeded beta sampling."""

import numpy as np
import pytest

from ipqgr import vector_core
from ipqgr.rng import RandomSource
from ipqgr.vector_core import beta_sample, kmeans


class TestKmeans:
    def test_k_equals_n_distinct_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        centroids, assign = kmeans(pts, 4, RandomSource(0))
        # Inertia zero: every point sits on its own centroid.
        for i, c in enumerate(assign):
            assert np.allclose(pts[i], centroids[c])
        assert len(set(assign.tolist())) == 4

    def test_two_blobs_recover_means(self):
        rng = np.random.default_rng(11)
        blob_a = rng.normal(size=(10, 3)) * 0.05 + np.array([0.0, 0.0, 0.0])
        blob_b = rng.normal(size=(10, 3)) * 0.05 + np.array([10.0, 10.0, 10.0])
        pts = np.vstack([blob_a, blob_b])
        centroids, assign = kmeans(pts, 2, RandomSource(1))
        means = sorted([blob_a.mean(axis=0), blob_b.mean(axis=0)], key=lambda v: v[0])
        got = sorted(centroids, key=lambda v: v[0])
        assert np.allclose(got[0], means[0], atol=1e-9)
        assert np.allclose(got[1], means[1], atol=1e-9)

    def test_converged_run_is_a_fixed_point(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 4))
        centroids, assign = kmeans(pts, 5, RandomSource(2))
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(d2.argmin(axis=1), assign)

    def test_a_capped_run_fills_every_cluster(self, monkeypatch):
        # After one Lloyd iteration the final reassignment left cluster 3 empty.
        monkeypatch.setattr(vector_core, "KMEANS_MAX_ITERS", 1)
        pts = np.random.default_rng(1066).normal(size=(40, 2))
        centroids, assign = kmeans(pts, 8, RandomSource(1066))
        assert (np.bincount(assign, minlength=8) > 0).all()
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(d2.argmin(axis=1), assign)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 2)), 1, RandomSource(0))
        with pytest.raises(ValueError):
            kmeans(np.ones((5, 2)), 0, RandomSource(0))
        # more clusters than distinct points
        with pytest.raises(ValueError):
            kmeans(np.ones((5, 2)), 2, RandomSource(0))

    def test_deterministic_under_seed(self):
        pts = np.random.default_rng(9).normal(size=(30, 4))
        c1, a1 = kmeans(pts, 4, RandomSource(42))
        c2, a2 = kmeans(pts, 4, RandomSource(42))
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)


class TestBetaSample:
    def test_support(self):
        rng = RandomSource(0)
        for _ in range(200):
            assert 0.0 <= beta_sample(0.7, 3.1, rng) <= 1.0

    def test_uniform_special_case_mean(self):
        rng = RandomSource(1)
        draws = [beta_sample(1.0, 1.0, rng) for _ in range(10_000)]
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_alpha4_beta2_mean(self):
        # Analytic Beta mean alpha/(alpha+beta) = 2/3.
        rng = RandomSource(2)
        draws = [beta_sample(4.0, 2.0, rng) for _ in range(10_000)]
        assert abs(np.mean(draws) - 2.0 / 3.0) < 0.02

    def test_nonpositive_shapes_rejected(self):
        with pytest.raises(ValueError):
            beta_sample(0.0, 1.0, RandomSource(0))
        with pytest.raises(ValueError):
            beta_sample(1.0, -2.0, RandomSource(0))


class TestRandomSource:
    def test_bit_reproducible(self):
        a = RandomSource(123).normal(16)
        b = RandomSource(123).normal(16)
        assert np.array_equal(a, b)

    def test_derived_streams_are_stable_and_distinct(self):
        root = RandomSource(5)
        x = root.derive("bank", 3).uniform(size=4)
        y = RandomSource(5).derive("bank", 3).uniform(size=4)
        z = root.derive("bank", 4).uniform(size=4)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 33, 1000, 10_000, 10_001, 123_457, 2**32 + 5])
    def test_one_pick_without_replacement_is_numpys_choice(self, n):
        # A numpy release that draws one pick differently fails here rather
        # than silently changing memory banks and k-means seeds.
        for seed in range(200):
            ours = RandomSource(seed)
            numpy_gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
            got = ours.choice_without_replacement(n, 1)
            want = numpy_gen.choice(n, size=1, replace=False)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert ours.integers(n) == numpy_gen.integers(0, n)  # the stream stays in step
