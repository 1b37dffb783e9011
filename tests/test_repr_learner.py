"""Tests for span sampling, pooling, the projector, and the two losses."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipqgr import repr_learner
from ipqgr.codebook import build_base_codebook
from ipqgr.repr_learner import (
    DEFAULT_GRANULARITIES,
    _pool_spans,
    _sample_epoch_spans,
    GranularitySpec,
    ProjectorParams,
    clustering_loss,
    contrastive_loss,
    doc_embedding,
    iterative_train,
    mse_to_targets,
    sample_span,
)
from ipqgr.rng import RandomSource


def rel_err(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), 1e-8)
    return abs(analytic - numeric) / denom


class TestSampleSpan:
    def test_degenerate_length_interval(self):
        doc = np.zeros((10, 2))
        spec = GranularitySpec("fixed", 3, 3)
        rng = RandomSource(0)
        starts = set()
        for _ in range(300):
            start, end = sample_span(doc, spec, rng)
            assert end - start == 3
            assert 1 <= start <= 7
            starts.add(start)
        assert starts == set(range(1, 8))  # every legal start occurs

    def test_spans_always_proper_and_in_bounds(self):
        rng = RandomSource(1)
        for n in (2, 3, 5, 20, 130):
            doc = np.zeros((n, 2))
            for spec in DEFAULT_GRANULARITIES:
                for _ in range(50):
                    start, end = sample_span(doc, spec, rng)
                    assert 1 <= start <= end - 1 <= n - 1

    @given(st.integers(2, 200), st.integers(1, 30), st.integers(0, 50), st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_bounds(self, n, l_min, extra, seed):
        spec = GranularitySpec("fuzz", l_min, l_min + extra)
        start, end = sample_span(np.zeros((n, 1)), spec, RandomSource(seed))
        assert 1 <= start < end <= n
        reference_pool_span(np.zeros((n, 1)), (start, end))  # must be poolable

    def test_single_token_document_rejected(self):
        with pytest.raises(ValueError):
            sample_span(np.zeros((1, 2)), DEFAULT_GRANULARITIES[0], RandomSource(0))


def reference_pool_span(doc, span):
    """Mean of the token vectors in a 1-based [start, end) span, one span at a time."""
    doc = np.asarray(doc, dtype=float)
    start, end = span
    if not (1 <= start < end <= doc.shape[0] + 1):
        raise ValueError(f"empty or out-of-bounds span {span} for {doc.shape[0]} tokens")
    return doc[start - 1 : end - 1].mean(axis=0)


def reference_sample_span(doc, spec, rng, alpha=4.0, beta=2.0):
    """The scalar sampler: one draw per call, with Python rounding and clamping."""
    n = np.asarray(doc).shape[0]
    g1 = rng.gamma(alpha)
    g2 = rng.gamma(beta)
    p = g1 / (g1 + g2)
    length = int(round(p * (spec.l_max - spec.l_min))) + spec.l_min
    length = max(1, min(length, n - 1))
    start = 1 + int(rng.integers(n - length))
    return start, start + length


class TestSampleSpanMatchesScalarReference:
    @given(st.integers(2, 200), st.integers(1, 300), st.integers(0, 300), st.integers(0, 2**63 - 1))
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_draws(self, n, l_min, extra, seed):
        # Five draws in a row from one stream, so the stream stays aligned too.
        doc = np.zeros((n, 1))
        spec = GranularitySpec("fuzz", l_min, l_min + extra)
        got, ref = RandomSource(seed), RandomSource(seed)
        for _ in range(5):
            span = sample_span(doc, spec, got)
            assert span == reference_sample_span(doc, spec, ref)
            assert all(type(x) is int for x in span)


SPECS = (GranularitySpec("short", 1, 3), GranularitySpec("mid", 4, 16),
         GranularitySpec("long", 40, 90))


def mixed_docs(sizes, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, dim)) + rng.normal(size=dim) for n in sizes]


class TestEpochSpans:
    @given(st.lists(st.integers(2, 120), min_size=1, max_size=12), st.integers(1, 4),
           st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_spans_are_proper_and_in_bounds(self, sizes, g, seed):
        start, end = _sample_epoch_spans(mixed_docs(sizes, 1), g, SPECS, RandomSource(seed))
        assert start.shape == end.shape == (len(sizes), len(SPECS), g)
        n = np.array(sizes)[:, None, None]
        assert (start >= 1).all() and (start < end).all() and (end <= n).all()

    def test_array_pooling_matches_pool_span(self):
        # n = 2 and n below every l_min except the shortest level's.
        sizes = [2, 3, 5, 17, 2, 64, 130, 39, 7]
        docs = mixed_docs(sizes, dim=4, seed=5)
        for seed in range(5):
            start, end = _sample_epoch_spans(docs, 3, SPECS, RandomSource(seed))
            pooled = _pool_spans(docs, start, end).reshape(start.shape + (4,))
            for idx in np.ndindex(start.shape):
                oracle = reference_pool_span(docs[idx[0]], (int(start[idx]), int(end[idx])))
                assert np.abs(pooled[idx] - oracle).max() <= 1e-10

    def test_rows_are_ordered_by_document_then_level_then_draw(self):
        docs = mixed_docs([6, 9], dim=2, seed=1)
        start, end = _sample_epoch_spans(docs, 2, SPECS[:2], RandomSource(4))
        pooled = _pool_spans(docs, start, end)
        assert pooled.shape == (2 * 2 * 2, 2)
        row = 1 * 4 + 1 * 2 + 0  # document 1, level 1, draw 0
        oracle = reference_pool_span(docs[1], (int(start[1, 1, 0]), int(end[1, 1, 0])))
        assert np.abs(pooled[row] - oracle).max() <= 1e-12

    def test_every_legal_start_occurs_at_a_fixed_length(self):
        spec = GranularitySpec("fixed", 3, 3)
        start, end = _sample_epoch_spans([np.zeros((10, 2))], 300, (spec,), RandomSource(0))
        assert (end - start == 3).all()
        assert set(start.ravel().tolist()) == set(range(1, 8))

    def test_mean_phrase_length_is_in_the_criterion_13_band(self):
        spec = GranularitySpec("phrase", 4, 16)
        start, end = _sample_epoch_spans([np.zeros((64, 2))], 10_000, (spec,), RandomSource(13))
        assert 11.7 <= float((end - start).mean()) <= 12.3

    def test_short_document_is_named(self):
        docs = [np.zeros((5, 2)), np.zeros((4, 2)), np.zeros((1, 2))]
        with pytest.raises(ValueError, match="document 2 has 1 token"):
            _sample_epoch_spans(docs, 1, SPECS, RandomSource(0))


class TestPoolSpan:
    """`reference_pool_span`, the oracle of `_pool_spans`, against hand-computed means."""

    def test_single_token_span(self):
        doc = np.array([[1.0, 2.0], [5.0, 7.0], [0.0, 0.0]])
        assert np.array_equal(reference_pool_span(doc, (2, 3)), [5.0, 7.0])

    def test_midpoint(self):
        doc = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert np.array_equal(reference_pool_span(doc, (1, 3)), [1.0, 1.0])

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(2)
        doc = rng.normal(size=(30, 4))
        for _ in range(50):
            start = int(rng.integers(1, 30))
            end = int(rng.integers(start + 1, 32))
            got = reference_pool_span(doc, (start, end))
            window = doc[start - 1 : end - 1]
            oracle = window.sum(axis=0) / window.shape[0]
            assert np.allclose(got, oracle, atol=1e-12)

    def test_empty_or_out_of_bounds_span(self):
        doc = np.zeros((5, 2))
        with pytest.raises(ValueError):
            reference_pool_span(doc, (3, 3))
        with pytest.raises(ValueError):
            reference_pool_span(doc, (0, 2))
        with pytest.raises(ValueError):
            reference_pool_span(doc, (4, 8))


class TestProjector:
    def test_zero_projector_maps_to_zero(self):
        proj = ProjectorParams(np.zeros((3, 2)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        doc = np.random.default_rng(0).normal(size=(6, 2))
        assert np.array_equal(doc_embedding(doc, proj), np.zeros(4))

    def test_identity_like_forward(self):
        proj = ProjectorParams(np.eye(3), np.zeros(3), 2.0 * np.eye(3), np.zeros(3))
        doc = np.array([[0.3, -0.2, 0.8], [0.1, 0.0, 0.4]])
        pooled = doc.mean(axis=0)
        assert np.allclose(doc_embedding(doc, proj), 2.0 * np.tanh(pooled))

    def test_backward_matches_finite_differences(self):
        rng = RandomSource(3)
        proj = ProjectorParams.init_random(4, 4, 4, rng)
        pooled = np.random.default_rng(4).normal(size=(3, 4))
        d_out = np.random.default_rng(5).normal(size=(3, 4))
        grads = proj.backward(pooled, d_out)
        h = 1e-5

        def objective(p):
            return float((p.forward(pooled) * d_out).sum())

        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(proj, name)
            g = getattr(grads, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                p_hi, p_lo = copy.deepcopy(proj), copy.deepcopy(proj)
                getattr(p_hi, name)[idx] += h
                getattr(p_lo, name)[idx] -= h
                numeric = (objective(p_hi) - objective(p_lo)) / (2 * h)
                assert rel_err(float(g[idx]), numeric) < 1e-4

    def test_backward_from_the_forward_hidden_layer_is_bit_identical(self):
        proj = ProjectorParams.init_random(5, 3, 4, RandomSource(6))
        pooled = np.random.default_rng(7).normal(size=(6, 5))
        d_out = np.random.default_rng(8).normal(size=(6, 4))
        hidden, reps = proj.layers(pooled)
        assert reps.tobytes() == proj.forward(pooled).tobytes()
        given, recomputed = proj.backward(pooled, d_out, hidden), proj.backward(pooled, d_out)
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(given, name).tobytes() == getattr(recomputed, name).tobytes()

    def test_dimension_mismatch(self):
        proj = ProjectorParams.init_random(4, 4, 4, RandomSource(0))
        with pytest.raises(ValueError):
            doc_embedding(np.zeros((3, 5)), proj)


class TestContrastiveLoss:
    def test_orthonormal_closed_form(self):
        # One doc, four spans, all unit-orthogonal: every positive term is
        # -log(1/4) because the four spans share the softmax mass equally.
        reps = np.eye(5)
        loss, _ = contrastive_loss(reps, n_docs=1, n_spans=4, tau=1.0)
        assert abs(loss - math.log(4.0)) < 1e-9

    def test_symmetric_collapse(self):
        n_docs, n_spans = 3, 4
        total = n_docs * (n_spans + 1)
        reps = np.tile(np.array([0.4, -0.7, 0.1]), (total, 1))
        loss, _ = contrastive_loss(reps, n_docs, n_spans, tau=0.5)
        assert abs(loss - n_docs * math.log(total - 1)) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        n_docs, n_spans, dim = 2, 4, 4
        reps = rng.normal(size=(n_docs * (n_spans + 1), dim))
        loss, grad = contrastive_loss(reps, n_docs, n_spans, tau=0.7)
        h = 1e-5
        for i in range(reps.shape[0]):
            for j in range(dim):
                hi, lo = reps.copy(), reps.copy()
                hi[i, j] += h
                lo[i, j] -= h
                numeric = (
                    contrastive_loss(hi, n_docs, n_spans, 0.7)[0]
                    - contrastive_loss(lo, n_docs, n_spans, 0.7)[0]
                ) / (2 * h)
                assert rel_err(float(grad[i, j]), numeric) < 1e-4

    def test_invariant_under_document_relabeling(self):
        rng = np.random.default_rng(7)
        n_docs, n_spans = 3, 2
        reps = rng.normal(size=(n_docs * (n_spans + 1), 4))
        loss, _ = contrastive_loss(reps, n_docs, n_spans, tau=1.0)
        # Swap docs 0 and 2 along with their span blocks.
        perm = [2, 1, 0]
        rows = perm + [n_docs + p * n_spans + j for p in perm for j in range(n_spans)]
        loss_perm, _ = contrastive_loss(reps[rows], n_docs, n_spans, tau=1.0)
        assert abs(loss - loss_perm) < 1e-9

    def test_invalid_temperature_and_shape(self):
        reps = np.zeros((5, 2))
        with pytest.raises(ValueError):
            contrastive_loss(reps, 1, 4, tau=0.0)
        with pytest.raises(ValueError):
            contrastive_loss(reps, 2, 4, tau=1.0)

    def test_zero_spans_is_a_value_error(self):
        with pytest.raises(ValueError, match="span"):
            contrastive_loss(np.zeros((3, 2)), 3, 0, tau=1.0)

    def test_empty_batch(self):
        loss, grad = contrastive_loss(np.zeros((0, 3)), 0, 5, tau=0.1)
        assert loss == 0.0
        assert grad.shape == (0, 3)

    def test_memory_is_linear_in_rows(self):
        # Only the n_docs anchor rows of the logits are built: the bound is
        # four (n_docs, total) float64 matrices, far below one (total, total).
        n_docs, n_spans, dim = 200, 20, 8
        total = n_docs * (n_spans + 1)
        reps = np.random.default_rng(3).normal(size=(total, dim))
        tracemalloc.start()
        try:
            contrastive_loss(reps, n_docs, n_spans, tau=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n_docs * total * 8


def dense_contrastive_loss(reps, n_docs, n_spans, tau):
    """The full (total, total) logit matrix with a loop over the anchors."""
    if tau <= 0:
        raise ValueError("temperature must be positive")
    reps = np.asarray(reps, dtype=float)
    total = n_docs * (n_spans + 1)
    if reps.shape[0] != total:
        raise ValueError(f"expected {total} representations, got {reps.shape[0]}")

    logits = reps @ reps.T / tau
    loss = 0.0
    g_logits = np.zeros_like(logits)
    for i in range(n_docs):
        pos = np.arange(n_docs + i * n_spans, n_docs + (i + 1) * n_spans)
        row = logits[i].copy()
        row[i] = -np.inf
        mx = row.max()
        lse = mx + np.log(np.exp(row - mx).sum())
        loss += float(-(row[pos] - lse).sum() / n_spans)
        soft = np.exp(row - lse)
        soft[i] = 0.0
        # d(loss_i)/d(logits[i, j]) summed over the n_spans positive terms.
        g = soft.copy()
        g[pos] -= 1.0 / n_spans
        g_logits[i] = g
    grad = (g_logits @ reps + g_logits.T @ reps) / tau
    return loss, grad


@st.composite
def contrastive_batches(draw):
    n_docs = draw(st.integers(1, 40))
    n_spans = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 8))
    tau = draw(st.floats(0.05, 2.0))
    total = n_docs * (n_spans + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    reps = rng.uniform(-1, 1, size=(total, dim))
    # Copy some rows over others so that logits tie exactly.
    n_dups = draw(st.integers(0, total - 1))
    reps[total - n_dups :] = reps[rng.integers(0, total, size=n_dups)]
    return reps, n_docs, n_spans, tau


class TestContrastiveLossMatchesDenseReference:
    @given(contrastive_batches())
    @settings(max_examples=150, deadline=None)
    def test_loss_and_gradient_agree(self, batch):
        reps, n_docs, n_spans, tau = batch
        loss, grad = contrastive_loss(reps, n_docs, n_spans, tau)
        ref_loss, ref_grad = dense_contrastive_loss(reps, n_docs, n_spans, tau)
        assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
        assert grad.shape == ref_grad.shape
        assert np.abs(grad - ref_grad).max() <= 1e-12 * max(1.0, np.abs(ref_grad).max())


class TestClusteringLoss:
    @pytest.fixture()
    def cb(self):
        embs = np.random.default_rng(8).normal(size=(30, 4))
        return build_base_codebook(embs, 2, 3, RandomSource(9))

    def test_zero_on_centroid_grid(self, cb):
        reps = np.stack(
            [
                np.concatenate([cb.groups[0].centroids[i], cb.groups[1].centroids[j]])
                for i in range(3)
                for j in range(3)
            ]
        )
        loss, grad = clustering_loss(reps, cb)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(reps))

    def test_hand_sum_with_unit_offset(self):
        reps = np.ones((1, 8))
        targets = np.zeros((1, 8))
        loss, grad = mse_to_targets(reps, targets)
        assert loss == 8.0
        assert np.array_equal(grad, 2.0 * reps)

    def test_gradient_matches_finite_differences(self, cb):
        # Perturbations are small enough that quantization cells do not flip.
        reps = np.random.default_rng(10).normal(size=(5, 4))
        loss, grad = clustering_loss(reps, cb)
        h = 1e-6
        for i in range(reps.shape[0]):
            for j in range(4):
                hi, lo = reps.copy(), reps.copy()
                hi[i, j] += h
                lo[i, j] -= h
                numeric = (clustering_loss(hi, cb)[0] - clustering_loss(lo, cb)[0]) / (2 * h)
                assert rel_err(float(grad[i, j]), numeric) < 1e-4

    def test_dimension_mismatch(self, cb):
        with pytest.raises(ValueError):
            clustering_loss(np.zeros((2, 5)), cb)


class TestIterativeTrain:
    @pytest.fixture(autouse=True)
    def one_span_per_level(self, monkeypatch):
        # One span per granularity and document keeps these runs fast.
        monkeypatch.setattr(repr_learner, "SPANS_PER_LEVEL", 1)

    def make_docs(self, n=32, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(int(rng.integers(4, 20)), dim)) for _ in range(n)]

    def test_zero_epochs_skips_training(self):
        docs = self.make_docs()
        rng = RandomSource(11)
        proj, cb, codes, reps = iterative_train(docs, m=2, k=4, v=0, rng=rng, out_dim=8)
        # The projector is exactly its random initialization and the codebook
        # is plain per-group clustering over the initial representations.
        init = ProjectorParams.init_random(6, 8, 8, RandomSource(11).derive("proj-init"))
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(proj, name), getattr(init, name))
        assert reps.tobytes() == proj.forward(np.stack([d.mean(axis=0) for d in docs])).tobytes()
        cb_oracle = build_base_codebook(reps, 2, 4, RandomSource(11).derive("kmeans", 0))
        for g, go in zip(cb.groups, cb_oracle.groups):
            assert np.array_equal(g.centroids, go.centroids)
        assert list(map(tuple, codes.tolist())) == [cb.quantize(r) for r in reps]

    def test_training_improves_span_alignment(self):
        # Training minimizes a joint contrastive + quantization objective, so
        # the observable improvement is on span-to-document alignment: the
        # contrastive loss on a fixed held-out span batch should drop relative
        # to the random initialization.
        docs = self.make_docs(seed=12)
        spec = GranularitySpec("word", 1, 4)
        srng = RandomSource(99)
        spans = [
            [sample_span(d, spec, srng.derive(i, j)) for j in range(2)]
            for i, d in enumerate(docs)
        ]

        def held_out_loss(proj):
            anchors = proj.forward(np.stack([d.mean(axis=0) for d in docs]))
            pools = np.stack(
                [reference_pool_span(d, s) for d, ss in zip(docs, spans) for s in ss]
            )
            reps = np.vstack([anchors, proj.forward(pools)])
            return contrastive_loss(reps, len(docs), 2, 0.1)[0]

        losses = []
        for v in (0, 2):
            proj, *_ = iterative_train(docs, m=2, k=4, v=v, rng=RandomSource(13), out_dim=8)
            losses.append(held_out_loss(proj))
        assert losses[1] < losses[0]

    def test_bit_identical_across_runs(self):
        docs = self.make_docs(seed=14)
        out1 = iterative_train(docs, 2, 4, 2, RandomSource(15), out_dim=8)
        out2 = iterative_train(docs, 2, 4, 2, RandomSource(15), out_dim=8)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(out1[0], name), getattr(out2[0], name))
        assert np.array_equal(out1[2], out2[2])
        assert out1[3].tobytes() == out2[3].tobytes()

    def test_too_few_documents(self):
        with pytest.raises(ValueError):
            iterative_train(self.make_docs(n=3), 2, 4, 1, RandomSource(0), out_dim=8)

    @pytest.mark.parametrize("seed, step", [(16, 1e-2), (17, 0.5), (18, 5.0)])
    def test_loss_only_trials_keep_every_byte(self, monkeypatch, seed, step):
        for name, value in (("SPANS_PER_LEVEL", 2), ("PROJ_STEP", step), ("PROJ_INNER_STEPS", 6)):
            monkeypatch.setattr(repr_learner, name, value)
        docs = self.make_docs(n=20, seed=seed)
        proj, cb, codes, _ = iterative_train(docs, 2, 4, 2, RandomSource(seed), 8)
        want_proj, want_cb, want_codes = reference_iterative_train(
            docs, 2, 4, 2, repr_learner.TAU, 2, step, RandomSource(seed), 8, inner_iters=6
        )
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(proj, name).tobytes() == getattr(want_proj, name).tobytes()
        assert [g.centroids.tobytes() for g in cb.groups] == [g.centroids.tobytes() for g in want_cb.groups]
        assert list(map(tuple, codes.tolist())) == want_codes


def reference_iterative_train(docs, m, k, v, tau, g_per_level, step, rng, out_dim, inner_iters):
    """The projector loop, quantizing every document, with the step rule written out.

    A step starts at `step`, or after the first step of an epoch at 1.25 times
    the last accepted step size if that is smaller, and halves until the loss
    does not rise.
    """
    in_dim = np.asarray(docs[0]).shape[1]
    proj = ProjectorParams.init_random(in_dim, out_dim, out_dim, rng.derive("proj-init"))
    pooled_docs = np.stack([np.asarray(d, dtype=float).mean(axis=0) for d in docs])
    n = len(docs)
    n_spans = len(DEFAULT_GRANULARITIES) * g_per_level
    for epoch in range(v):
        reps = proj.forward(pooled_docs)
        cb = build_base_codebook(reps, m, k, rng.derive("kmeans", epoch))
        frozen = np.stack([cb.reconstruct(cb.quantize(r)) for r in reps])
        spans = _sample_epoch_spans(docs, g_per_level, DEFAULT_GRANULARITIES, rng.derive("spans", epoch))
        pooled_all = np.vstack([pooled_docs, _pool_spans(docs, *spans)])

        def total_loss(p):
            reps_all = p.forward(pooled_all)
            l_cl, g_cl = contrastive_loss(reps_all, n, n_spans, tau)
            l_mse, g_mse = mse_to_targets(reps_all[:n], frozen)
            g_cl[:n] += g_mse
            return l_cl + l_mse, g_cl

        cur, grad_reps = total_loss(proj)
        lr = step
        for _ in range(inner_iters):
            grads = proj.backward(pooled_all, grad_reps)
            for _ in range(40):
                trial = proj.step(lr, grads)
                trial_loss, trial_grad = total_loss(trial)
                if trial_loss <= cur + 1e-9 * max(1.0, abs(cur)):
                    proj, cur, grad_reps = trial, trial_loss, trial_grad
                    break
                lr *= 0.5
            else:
                break
            lr = min(step, 1.25 * lr)
    reps = proj.forward(pooled_docs)
    cb = build_base_codebook(reps, m, k, rng.derive("kmeans", v))
    return proj, cb, [cb.quantize(r) for r in reps]
