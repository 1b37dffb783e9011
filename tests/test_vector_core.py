"""Unit tests for k-means, its distance table and seeded beta sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipqgr import vector_core
from ipqgr.rng import RandomSource
from ipqgr.vector_core import beta_sample, kmeans, sq_dist_table


# The k-means that built the masked means and the (N x K x d) table, kept as
# the oracle: `kmeans` must return the same bytes.
def reference_nearest(points: np.ndarray, centroids: np.ndarray):
    # Squared distances, shape (N, K). argmin breaks ties at the lowest index.
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


def reference_refill(pts: np.ndarray, centroids: np.ndarray, assign: np.ndarray, d2: np.ndarray) -> bool:
    """Reseed each empty cluster in place; returns whether any was reseeded.

    An empty cluster's centroid moves to the point farthest from it among
    the points whose cluster keeps another member and that lie off their
    centroid, and that point joins it.
    """
    k = len(centroids)
    repaired = False
    for c in range(k):
        if (assign == c).any():
            continue
        counts = np.bincount(assign, minlength=k)
        own = np.array([((pts[i] - centroids[assign[i]]) ** 2).sum() for i in range(len(pts))])
        movable = (counts[assign] > 1) & (own > 0)
        if not movable.any():
            continue
        cand = np.where(movable, d2[:, c], -np.inf)
        p = int(cand.argmax())
        centroids[c] = pts[p]
        assign[p] = c
        d2[:, c] = ((pts - centroids[c]) ** 2).sum(axis=1)
        repaired = True
    return repaired


def reference_kmeans(points, k: int, rng: RandomSource):
    """Lloyd's k-means with seeded init from k distinct input points.

    Empty clusters are reseeded by `_refill`, in each iteration and after
    the final assignment, so every cluster is returned with a member.
    Returns (centroids, assignments); the returned assignments are nearest
    with respect to the returned centroids.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    distinct = np.unique(pts, axis=0)
    if k > distinct.shape[0]:
        raise ValueError(f"k={k} exceeds number of distinct points ({distinct.shape[0]})")

    n = pts.shape[0]
    init_idx = rng.choice_without_replacement(distinct.shape[0], k)
    centroids = distinct[init_idx].copy()

    prev_assign = None
    prev_inertia = np.inf
    for _ in range(vector_core.KMEANS_MAX_ITERS):
        assign, d2 = reference_nearest(pts, centroids)
        repaired = reference_refill(pts, centroids, assign, d2)
        inertia = float(d2[np.arange(n), assign].sum())
        if not repaired:
            # Lloyd iterations cannot increase inertia; a repair step resets
            # the reference because it deliberately perturbs the objective.
            assert inertia <= prev_inertia + 1e-9 * max(1.0, abs(prev_inertia))
        prev_inertia = inertia
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for c in range(k):
            centroids[c] = pts[assign == c].mean(axis=0)
    # Each round lowers the inertia unless a reseeded point sat exactly on its
    # old centroid. The assignment this ends with is nearest and fills every cluster.
    final_assign, d2 = reference_nearest(pts, centroids)
    while reference_refill(pts, centroids, final_assign, d2):
        final_assign, d2 = reference_nearest(pts, centroids)
    return centroids, final_assign


def scaled_rows(draw, rng, n, width):
    """n rows of magnitudes 1e-4 to 1e4 per column; on a grid of that scale if drawn, so rows tie."""
    scale = 10.0 ** rng.uniform(-4, 4, size=width) if draw(st.booleans()) else 10.0 ** draw(st.integers(-4, 4))
    rows = rng.normal(size=(n, width)) * 3
    return (np.round(rows) if draw(st.booleans()) else rows) * scale


@st.composite
def kmeans_inputs(draw):
    """Points drawn with repeats from a pool, k up to their distinct count, and a seed."""
    width = draw(st.sampled_from([*range(1, 11), 16, 130]))
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = scaled_rows(draw, rng, draw(st.integers(1, n)), width)
    pts = pool[rng.integers(0, len(pool), size=n)]
    k = draw(st.integers(1, len(np.unique(pts, axis=0))))
    return pts, k, draw(st.integers(0, 2**16))


@st.composite
def distance_inputs(draw):
    """Points and centroids with zeros, shared rows and mixed magnitudes."""
    width = draw(st.sampled_from([*range(1, 21), *range(126, 131)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = scaled_rows(draw, rng, draw(st.integers(1, 20)) + draw(st.integers(1, 20)), width)
    rows[rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    split = draw(st.integers(1, len(rows) - 1))
    points, centroids = rows[:split], rows[split:]
    if draw(st.booleans()):  # a centroid on a point: zero distances, and ties
        centroids[0] = points[-1]
    return points, centroids


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
        want = reference_kmeans(pts, 8, RandomSource(1066))
        assert [centroids.tobytes(), assign.tobytes()] == [a.tobytes() for a in want]
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

    @given(kmeans_inputs())
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_as_the_reference(self, inputs):
        pts, k, seed = inputs
        want = reference_kmeans(pts, k, RandomSource(seed))
        got = kmeans(pts, k, RandomSource(seed))
        assert [a.shape for a in got] == [a.shape for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # Lloyd runs from distinct points seldom empty a cluster: these are the
    # 5 of 4000 corpora drawn so whose run repairs one.
    @pytest.mark.parametrize("seed", [994, 1424, 2407, 2468, 3002])
    def test_runs_that_repair_match_the_reference(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n, width = int(rng.integers(10, 60)), int(rng.choice([1, 2, 3]))
        pts = rng.normal(size=(n, width))
        if seed % 2:
            pts = np.round(pts * 2) / 2
        distinct = len(np.unique(pts, axis=0))
        k = int(rng.integers(distinct // 4, distinct + 1))
        repairs = []
        refill = vector_core._refill
        monkeypatch.setattr(vector_core, "_refill", lambda *a: repairs.append(refill(*a)) or repairs[-1])
        got = kmeans(pts, k, RandomSource(seed))
        assert any(repairs)
        want = reference_kmeans(pts, k, RandomSource(seed))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # Corpora of repeated points whose last repairs, when they could move a
    # point sitting on its own centroid, handed two such points back and
    # forth forever. A round puts a point off its centroid onto one for
    # good, so the repairs after the Lloyd rounds number at most n + 1.
    @pytest.mark.parametrize("seed", [9782, 81731])
    def test_repairs_end_and_fill_every_cluster(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n, width = int(rng.integers(4, 30)), int(rng.choice([1, 2]))
        pool = rng.integers(-4, 5, size=(int(rng.integers(2, n + 1)), width)).astype(float)
        pts = pool[rng.integers(0, len(pool), size=n)]
        k = int(rng.integers(1, len(np.unique(pts, axis=0)) + 1))
        calls = []
        refill = vector_core._refill

        def counted(*a):
            calls.append(0)
            assert len(calls) <= vector_core.KMEANS_MAX_ITERS + n + 1, "the repairs do not end"
            return refill(*a)

        monkeypatch.setattr(vector_core, "_refill", counted)
        centroids, assign = kmeans(pts, k, RandomSource(seed))
        assert np.bincount(assign, minlength=k).all()
        assert np.array_equal(assign, reference_nearest(pts, centroids)[0])
        want = reference_kmeans(pts, k, RandomSource(seed))
        assert [a.tobytes() for a in (centroids, assign)] == [a.tobytes() for a in want]

    @given(kmeans_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_refill_matches_the_reference(self, inputs, data):
        # An assignment with clusters left empty, as a Lloyd step can leave it.
        pts, k, _ = inputs
        centroids = pts[data.draw(st.permutations(range(len(pts))))[:k]]
        assign = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=len(pts), max_size=len(pts))))
        d2 = ((pts[:, None] - centroids[None]) ** 2).sum(axis=2)
        want = [centroids.copy(), assign.copy(), d2.copy()]
        repaired = reference_refill(pts, *want)
        got = [centroids.copy(), assign.copy(), d2.copy()]
        assert vector_core._refill(pts, *got) == repaired
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestSqDistTable:
    @given(distance_inputs())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_the_broadcast_sum(self, inputs):
        points, centroids = inputs
        want = ((points[:, None] - centroids[None]) ** 2).sum(axis=2)
        got = sq_dist_table(points, centroids)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [7, 8, 15, 16, 17, 128, 129, 136, 300])
    def test_each_summation_regime(self, width):
        # Below 8 terms, eight accumulators up to 128, halves above that, on
        # rows whose sum depends on the order.
        rng = np.random.default_rng(width)
        points = rng.normal(size=(30, width)) * 10.0 ** rng.uniform(-4, 4, size=width)
        centroids = rng.normal(size=(7, width)) * 10.0 ** rng.uniform(-4, 4, size=width)
        want = ((points[:, None] - centroids[None]) ** 2).sum(axis=2)
        assert sq_dist_table(points, centroids).tobytes() == want.tobytes()


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
