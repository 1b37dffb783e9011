"""Tests for codebook construction, quantization, and reconstruction."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipqgr.codebook import Codebook, SubCodebook, build_base_codebook, cluster_base, split_groups
from ipqgr.rng import RandomSource


def brute_force_code(cb, x):
    """Exhaustive per-group argmin, independent of the library's vectorized path."""
    subs = split_groups(x, cb.n_groups)
    code = []
    for g, sub in zip(cb.groups, subs):
        best, best_d = 0, float("inf")
        for k in range(g.n_centroids):
            d = float(((g.centroids[k] - sub) ** 2).sum())
            if d < best_d:
                best, best_d = k, d
        code.append(best)
    return tuple(code)


class TestSplitGroups:
    def test_direct_slicing(self):
        out = split_groups(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert np.array_equal(out[0], [1.0, 2.0])
        assert np.array_equal(out[1], [3.0, 4.0])

    def test_single_group_is_identity(self):
        x = np.arange(6.0)
        (out,) = split_groups(x, 1)
        assert np.array_equal(out, x)

    def test_paper_scale_shapes(self):
        out = split_groups(np.zeros(768), 24)
        assert len(out) == 24
        assert all(s.shape == (32,) for s in out)

    def test_concatenation_round_trip(self):
        x = np.random.default_rng(0).normal(size=12)
        assert np.array_equal(np.concatenate(split_groups(x, 4)), x)

    def test_non_divisible_dimension(self):
        with pytest.raises(ValueError):
            split_groups(np.zeros(10), 3)


class TestBuildBaseCodebook:
    def test_k_equals_n_gives_zero_error(self):
        embs = np.array(
            [[0.0, 0, 10, 0], [1, 0, 0, 10], [0, 1, 5, 5], [9, 9, 1, 1]]
        )
        cb = build_base_codebook(embs, 2, 4, RandomSource(0))
        for e in embs:
            assert np.allclose(cb.reconstruct(cb.quantize(e)), e)

    def test_every_doc_on_true_nearest_centroid(self):
        embs = np.random.default_rng(1).normal(size=(64, 8))
        cb = build_base_codebook(embs, 2, 4, RandomSource(3))
        for e in embs:
            assert cb.quantize(e) == brute_force_code(cb, e)

    def test_identical_embeddings_share_codes(self):
        rng = np.random.default_rng(2)
        embs = rng.normal(size=(10, 4))
        embs[7] = embs[2]
        cb = build_base_codebook(embs, 2, 3, RandomSource(0))
        assert cb.quantize(embs[2]) == cb.quantize(embs[7])

    def test_centroids_are_membership_means(self):
        embs = np.random.default_rng(4).normal(size=(50, 6))
        cb = build_base_codebook(embs, 3, 4, RandomSource(5))
        for g in cb.groups:
            for k in range(g.n_centroids):
                if len(g.member_vecs[k]) == 0:
                    continue
                assert np.allclose(g.centroids[k], g.member_vecs[k].mean(axis=0), atol=1e-6)

    def test_session_and_shape_metadata(self):
        embs = np.random.default_rng(6).normal(size=(20, 8))
        cb = build_base_codebook(embs, 4, 3, RandomSource(0))
        assert cb.session == 0
        assert cb.sizes() == [3, 3, 3, 3]
        assert cb.sub_dim == 2

    def test_too_few_documents(self):
        with pytest.raises(ValueError):
            build_base_codebook(np.random.default_rng(0).normal(size=(3, 4)), 2, 4, RandomSource(0))


@st.composite
def grid_corpora(draw):
    """Embeddings on a small integer grid, where documents can tie between centroids."""
    # Widths 8 and 9 take numpy's eight-accumulator sum, where k-means' table and
    # `quantize` go through different code.
    m, sub_dim, n = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 8, 9])), draw(st.integers(4, 40))
    embs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(-2, 3, size=(n, m * sub_dim))
    embs = embs.astype(float)
    distinct = min(len(np.unique(sub, axis=0)) for sub in np.split(embs, m, axis=1))
    return embs, m, draw(st.integers(1, distinct)), draw(st.integers(0, 2**16))


class TestClusterBase:
    @given(grid_corpora())
    @settings(max_examples=100, deadline=None)
    def test_codes_are_the_quantized_embeddings(self, corpus):
        embs, m, k, seed = corpus
        cb, codes = cluster_base(embs, m, k, RandomSource(seed))
        assert codes.shape == (len(embs), m)
        assert list(map(tuple, codes.tolist())) == [cb.quantize(e) for e in embs]
        plain = build_base_codebook(embs, m, k, RandomSource(seed))
        for g, want in zip(cb.groups, plain.groups):
            assert g.centroids.tobytes() == want.centroids.tobytes()
            assert [v.tobytes() for v in g.member_vecs] == [v.tobytes() for v in want.member_vecs]

    def test_a_group_with_too_few_distinct_sub_vectors_is_named(self):
        embs = np.random.default_rng(3).normal(size=(20, 4))
        embs[:, 2:] = embs[np.arange(20) % 4, 2:]
        message = r"^group 1 cannot be clustered into k_clusters=8: k=8 exceeds number of distinct points \(4\)$"
        with pytest.raises(ValueError, match=message):
            cluster_base(embs, 2, 8, RandomSource(0))

    def test_a_tie_goes_to_the_lowest_index(self):
        embs = np.array([[1.0, 0.0], [1.0, -1.0], [-2.0, 1.0], [-2.0, -2.0]])
        cb, codes = cluster_base(embs, 2, 2, RandomSource(0))
        # Document 0's second coordinate sits midway between that group's centroids.
        assert cb.groups[1].centroids.ravel().tolist() == [-1.0, 1.0]
        assert codes[0].tolist() == [0, 0]
        assert list(map(tuple, codes.tolist())) == [cb.quantize(e) for e in embs]


class TestQuantize:
    @pytest.fixture()
    def cb(self):
        embs = np.random.default_rng(10).normal(size=(40, 8))
        return build_base_codebook(embs, 2, 5, RandomSource(1))

    def test_exact_centroid_concatenation(self, cb):
        x = np.concatenate([cb.groups[0].centroids[3], cb.groups[1].centroids[0]])
        assert cb.quantize(x) == (3, 0)

    def test_matches_exhaustive_scan(self, cb):
        for x in np.random.default_rng(11).normal(size=(200, 8)):
            assert cb.quantize(x) == brute_force_code(cb, x)

    def test_tie_breaks_to_lowest_index(self):
        g = SubCodebook(centroids=np.array([[5.0], [-1.0], [1.0]]))
        cb = Codebook(session=0, dim=1, groups=[g])
        # x = 0 is equidistant from centroids 1 and 2; index 1 wins.
        assert cb.quantize(np.array([0.0])) == (1,)

    def test_dimension_mismatch(self, cb):
        with pytest.raises(ValueError):
            cb.quantize(np.zeros(7))


class TestReconstruct:
    @pytest.fixture()
    def cb(self):
        embs = np.random.default_rng(12).normal(size=(30, 6))
        return build_base_codebook(embs, 3, 4, RandomSource(2))

    def test_round_trip_on_centroid_grid(self, cb):
        x = np.concatenate([g.centroids[1] for g in cb.groups])
        assert np.array_equal(cb.reconstruct(cb.quantize(x)), x)

    def test_error_equals_per_group_minimum_sum(self, cb):
        for x in np.random.default_rng(13).normal(size=(20, 6)):
            err = float(((x - cb.reconstruct(cb.quantize(x))) ** 2).sum())
            oracle = 0.0
            for g, sub in zip(cb.groups, split_groups(x, 3)):
                oracle += min(
                    float(((g.centroids[k] - sub) ** 2).sum()) for k in range(g.n_centroids)
                )
            assert abs(err - oracle) < 1e-9

    def test_quantize_is_optimal_among_random_codes(self, cb):
        rng = np.random.default_rng(14)
        for x in rng.normal(size=(10, 6)):
            best = float(((x - cb.reconstruct(cb.quantize(x))) ** 2).sum())
            for _ in range(20):
                other = tuple(rng.integers(0, 4, size=3).tolist())
                alt = float(((x - cb.reconstruct(other)) ** 2).sum())
                assert best <= alt + 1e-12

    def test_degenerate_single_centroid(self):
        g = SubCodebook(centroids=np.array([[2.0, 3.0]]))
        cb = Codebook(session=0, dim=2, groups=[g])
        assert np.array_equal(cb.reconstruct((0,)), [2.0, 3.0])

    def test_out_of_range_index(self, cb):
        with pytest.raises(ValueError):
            cb.reconstruct((0, 9, 0))
        with pytest.raises(ValueError):
            cb.reconstruct((0, 0))  # wrong length


def test_codebook_pickle_round_trip_is_bit_exact():
    embs = np.random.default_rng(15).normal(size=(25, 4))
    cb = build_base_codebook(embs, 2, 3, RandomSource(7))
    blob = pickle.dumps(cb, protocol=4)
    assert pickle.dumps(pickle.loads(blob), protocol=4) == blob
