"""Tests for the factorized docid decoder, its training, and constrained search."""

import copy
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipqgr import decoder, harness, synthetic
from ipqgr.codebook import Codebook, SubCodebook
from ipqgr.decoder import (
    LOSS_BLOCK,
    DecoderParams,
    DocidTrie,
    FisherDiag,
    PairBatch,
    align_to_codebook,
    constrained_beam_search,
    docid_log_prob,
    estimate_fisher,
    ewc_loss,
    mle_loss,
    search,
    train_session,
)
from ipqgr.rng import RandomSource


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def random_params(sizes, dim, seed):
    rng = np.random.default_rng(seed)
    return DecoderParams(
        weights=[rng.normal(size=(k, dim)) for k in sizes],
        biases=[rng.normal(size=k) for k in sizes],
    )


def toy_codebook(sizes, sub_dim=1):
    groups = [
        SubCodebook(centroids=np.arange(k * sub_dim, dtype=float).reshape(k, sub_dim))
        for k in sizes
    ]
    return Codebook(session=0, dim=sub_dim * len(sizes), groups=groups)


class TestDocidLogProb:
    def test_uniform_decoder(self):
        params = DecoderParams.zeros([4, 4, 4], dim=3)
        e = np.random.default_rng(0).normal(size=3)
        for code in [(0, 0, 0), (3, 2, 1)]:
            assert abs(docid_log_prob(e, code, params) + 3 * math.log(4)) < 1e-12

    def test_hand_set_logits(self):
        # Group logits are exactly (1, 0) and (0, 1) when e = e1.
        params = DecoderParams(
            weights=[np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])],
            biases=[np.zeros(2), np.zeros(2)],
        )
        e = np.array([1.0])
        z = math.exp(1.0) + 1.0
        expected = math.log(math.exp(1.0) / z) + math.log(1.0 / z)
        assert abs(docid_log_prob(e, (0, 0), params) - expected) < 1e-12

    def test_normalizes_over_all_codes(self):
        params = random_params([3, 3], dim=4, seed=1)
        e = np.random.default_rng(2).normal(size=4)
        total = sum(
            math.exp(docid_log_prob(e, code, params))
            for code in itertools.product(range(3), range(3))
        )
        assert abs(total - 1.0) < 1e-9

    def test_group_probabilities_normalize(self):
        params = random_params([5, 2, 7], dim=6, seed=3)
        e = np.random.default_rng(4).normal(size=6)
        for logp in decoder._log_softmax_block(params, e[None]):
            assert abs(np.exp(logp[0]).sum() - 1.0) < 1e-9

    def test_invalid_code(self):
        params = DecoderParams.zeros([2, 2], dim=2)
        with pytest.raises(ValueError):
            docid_log_prob(np.zeros(2), (0, 5), params)
        with pytest.raises(ValueError):
            docid_log_prob(np.zeros(2), (0,), params)


class TestMleLoss:
    def test_uniform_cross_entropy(self):
        params = DecoderParams.zeros([5, 5, 5], dim=2)
        loss, _ = mle_loss([(np.ones(2), (0, 1, 2))], params)
        assert abs(loss - 3 * math.log(5)) < 1e-12

    def test_additivity_under_duplication(self):
        params = random_params([3, 4], dim=3, seed=5)
        pairs = [(np.random.default_rng(6).normal(size=3), (1, 2))]
        single, _ = mle_loss(pairs, params)
        double, _ = mle_loss(pairs * 2, params)
        assert abs(double - 2 * single) < 1e-9

    def test_gradient_matches_finite_differences(self):
        params = random_params([3, 3], dim=4, seed=7)
        rng = np.random.default_rng(8)
        pairs = [(rng.normal(size=4), (int(rng.integers(3)), int(rng.integers(3)))) for _ in range(5)]
        _, (gw, gb) = mle_loss(pairs, params)
        h = 1e-5
        for m in range(2):
            for arr, grad in ((params.weights[m], gw[m]), (params.biases[m], gb[m])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    arr[idx] += h
                    hi, _ = mle_loss(pairs, params)
                    arr[idx] -= 2 * h
                    lo, _ = mle_loss(pairs, params)
                    arr[idx] += h
                    assert rel_err(float(grad[idx]), (hi - lo) / (2 * h)) < 1e-4

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            mle_loss([], DecoderParams.zeros([2], dim=1))

    def test_stacked_batch_matches_pair_list(self):
        params = random_params([3, 4], dim=3, seed=32)
        rng = np.random.default_rng(33)
        pairs = [(rng.normal(size=3), (int(rng.integers(3)), int(rng.integers(4)))) for _ in range(7)]
        batch = PairBatch.stack(pairs)
        assert len(batch) == 7
        loss, (gw, gb) = mle_loss(pairs, params)
        b_loss, (b_gw, b_gb) = mle_loss(batch, params)
        assert b_loss == loss
        assert all(np.array_equal(a, b) for a, b in zip(gw + gb, b_gw + b_gb))


class TestEstimateFisher:
    def test_single_pair_is_squared_gradient(self):
        params = random_params([3, 2], dim=3, seed=9)
        pair = (np.random.default_rng(10).normal(size=3), (2, 0))
        _, (gw, gb) = mle_loss([pair], params)
        fisher = estimate_fisher([pair], params)
        for m in range(2):
            assert np.allclose(fisher.weights[m], gw[m] ** 2)
            assert np.allclose(fisher.biases[m], gb[m] ** 2)

    def test_entries_non_negative(self):
        params = random_params([4, 4], dim=3, seed=11)
        rng = np.random.default_rng(12)
        pairs = [(rng.normal(size=3), (int(rng.integers(4)), int(rng.integers(4)))) for _ in range(9)]
        fisher = estimate_fisher(pairs, params)
        for m in range(2):
            assert (fisher.weights[m] >= 0).all()
            assert (fisher.biases[m] >= 0).all()

    def test_symmetric_targets_give_symmetric_rows(self):
        # Uniform decoder, inputs differing only in sign, targets covering both
        # classes equally: the two rows see mirror-image statistics.
        params = DecoderParams.zeros([2], dim=1)
        pairs = [(np.array([1.0]), (0,)), (np.array([-1.0]), (1,))]
        fisher = estimate_fisher(pairs, params)
        assert np.allclose(fisher.weights[0][0], fisher.weights[0][1], atol=1e-9)
        assert np.allclose(fisher.biases[0][0], fisher.biases[0][1], atol=1e-9)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            estimate_fisher([], DecoderParams.zeros([2], dim=1))


class TestEwcLoss:
    def test_identical_params_give_zero(self):
        params = random_params([3, 3], dim=2, seed=13)
        fisher = FisherDiag(
            [np.ones_like(w) for w in params.weights], [np.ones_like(b) for b in params.biases]
        )
        loss, (gw, gb) = ewc_loss(params, copy.deepcopy(params), fisher)
        assert loss == 0.0
        assert all(np.array_equal(g, np.zeros_like(g)) for g in gw + gb)

    def test_hand_square(self):
        prev = DecoderParams.zeros([1], dim=1)
        cur = copy.deepcopy(prev)
        cur.biases[0][0] = 0.5
        fisher = FisherDiag([np.ones((1, 1))], [np.ones(1)])
        loss, _ = ewc_loss(cur, prev, fisher)
        assert abs(loss - 0.25) < 1e-15

    def test_gradient_matches_finite_differences(self):
        prev = random_params([2, 3], dim=3, seed=14)
        cur = random_params([2, 3], dim=3, seed=15)
        rng = np.random.default_rng(16)
        fisher = FisherDiag(
            [rng.uniform(size=w.shape) for w in prev.weights],
            [rng.uniform(size=b.shape) for b in prev.biases],
        )
        _, (gw, gb) = ewc_loss(cur, prev, fisher)
        h = 1e-5
        for m in range(2):
            for arr, grad in ((cur.weights[m], gw[m]), (cur.biases[m], gb[m])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    arr[idx] += h
                    hi, _ = ewc_loss(cur, prev, fisher)
                    arr[idx] -= 2 * h
                    lo, _ = ewc_loss(cur, prev, fisher)
                    arr[idx] += h
                    assert rel_err(float(grad[idx]), (hi - lo) / (2 * h)) < 1e-6

    def test_a_prev_or_fisher_without_the_appended_rows_is_refused(self):
        # `train_session` pads both to the session's layout; `ewc_loss` does not.
        prev = random_params([2], dim=2, seed=17)
        cur = align_to_codebook(prev, toy_codebook([3]))
        fisher = FisherDiag([np.ones((2, 2))], [np.ones(2)])
        with pytest.raises(ValueError, match=r"previous params have shape \(2, 2\), the params \(3, 2\)"):
            ewc_loss(cur, prev, fisher.padded(cur.layout))
        with pytest.raises(ValueError, match=r"fisher have shape \(2, 2\), the params \(3, 2\)"):
            ewc_loss(cur, prev.padded(cur.layout), fisher)
        loss, _ = ewc_loss(cur, prev.padded(cur.layout), fisher.padded(cur.layout))
        assert loss == 0.0

    def test_shape_mismatch_beyond_appended_rows(self):
        prev = random_params([3], dim=2, seed=18)
        cur = random_params([2], dim=2, seed=19)  # shrank: invalid
        fisher = FisherDiag([np.ones((3, 2))], [np.ones(3)])
        with pytest.raises(ValueError):
            ewc_loss(cur, prev, fisher)


class TestTrainSession:
    def make_pairs(self, sizes, dim, n, seed):
        rng = np.random.default_rng(seed)
        return [
            (rng.normal(size=dim), tuple(int(rng.integers(k)) for k in sizes))
            for _ in range(n)
        ]

    def test_zero_steps_only_pads(self):
        cb = toy_codebook([3, 3])
        prev = random_params([2, 3], dim=2, seed=20)
        out = train_session(prev, cb, PairBatch.stack(self.make_pairs([2, 3], 2, 4, 21)), None, 0.0, 0)
        assert out.sizes() == [3, 3]
        assert np.array_equal(out.weights[0][:2], prev.weights[0])
        assert np.array_equal(out.weights[0][2], np.zeros(2))

    def test_pure_mle_training_decreases_loss(self):
        cb = toy_codebook([3, 3])
        prev = DecoderParams.zeros([3, 3], dim=4)
        pairs = self.make_pairs([3, 3], 4, 12, 22)
        before, _ = mle_loss(pairs, prev)
        out = train_session(prev, cb, PairBatch.stack(pairs), None, 0.0, 100)
        after, _ = mle_loss(pairs, out)
        assert after < before

    def test_large_lambda_pins_shared_coordinates(self):
        cb = toy_codebook([3, 3])
        prev = random_params([3, 3], dim=4, seed=23)
        pairs = self.make_pairs([3, 3], 4, 12, 24)
        fisher = estimate_fisher(pairs, prev)
        free = train_session(prev, cb, PairBatch.stack(pairs), fisher, 0.0, 100)
        pinned = train_session(prev, cb, PairBatch.stack(pairs), fisher, 1e6, 100)
        drift_free = sum(
            float(np.abs(a - b).sum()) for a, b in zip(free.weights, prev.weights)
        )
        drift_pinned = sum(
            float(np.abs(a - b).sum()) for a, b in zip(pinned.weights, prev.weights)
        )
        assert drift_pinned < drift_free

    def test_zero_lambda_is_no_anchor(self):
        # lam=0 is the no-EWC ablation: the Fisher is carried but weighs nothing.
        cb = toy_codebook([3, 4])
        prev = random_params([3, 3], dim=4, seed=26)
        pairs = self.make_pairs([3, 4], 4, 12, 27)
        fisher = estimate_fisher(self.make_pairs([3, 3], 4, 6, 28), prev)
        got = train_session(prev, cb, PairBatch.stack(pairs), fisher, 0.0, 30)
        want = train_session(prev, cb, PairBatch.stack(pairs), None, 0.0, 30)
        assert got.w.tobytes() == want.w.tobytes()
        assert got.b.tobytes() == want.b.tobytes()

    def test_loss_is_monotone_along_training(self):
        cb = toy_codebook([4, 4])
        prev = DecoderParams.zeros([4, 4], dim=3)
        pairs = self.make_pairs([4, 4], 3, 10, 25)
        losses = []
        cur = prev
        for _ in range(10):
            cur = train_session(cur, cb, PairBatch.stack(pairs), None, 0.0, 5)
            losses.append(mle_loss(pairs, cur)[0])
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def record_trials(monkeypatch, run):
    """The step size of every trial that `run` makes, and every loss evaluated.

    A session's first loss is that of its starting point; each later one is
    a trial's.
    """
    lrs, losses = [], []
    step, mle = DecoderParams.step, decoder.mle_loss

    def recorded_step(p, lr, grad):
        lrs.append(lr)
        return step(p, lr, grad)

    def recorded_loss(*args):
        out = mle(*args)
        losses.append(out[0])
        return out

    monkeypatch.setattr(DecoderParams, "step", recorded_step)
    monkeypatch.setattr(decoder, "mle_loss", recorded_loss)
    run()
    return lrs, losses


def accepted_trials(losses):
    """Whether each trial was accepted: its loss did not rise above the current one."""
    cur, out = losses[0], []
    for loss in losses[1:]:
        out.append(loss <= cur + 1e-9 * max(1.0, abs(cur)))
        cur = loss if out[-1] else cur
    return out


class TestStepRule:
    def test_a_step_starts_at_most_a_quarter_above_the_last_accepted_one(self, monkeypatch):
        cb = toy_codebook([4, 4])
        pairs = TestTrainSession().make_pairs([4, 4], 3, 10, 29)
        monkeypatch.setattr(decoder, "TRAIN_STEP", 5.0)
        lrs, losses = record_trials(
            monkeypatch,
            lambda: train_session(DecoderParams.zeros([4, 4], 3), cb, PairBatch.stack(pairs), None, 0.0, 30),
        )
        accepted = accepted_trials(losses)
        assert len(accepted) == len(lrs) and lrs[0] == 5.0
        for lr, ok, nxt in zip(lrs, accepted, lrs[1:]):
            assert nxt == (min(5.0, 1.25 * lr) if ok else 0.5 * lr)
        assert max(lrs) == 5.0
        # After a halving, an accepted step carries over to the next one's start.
        assert any(ok and nxt == 1.25 * lr < 5.0 for lr, ok, nxt in zip(lrs, accepted, lrs[1:]))

    def test_an_s_base_session_takes_at_most_one_and_a_half_losses_per_step(self, monkeypatch):
        cfg = harness.ExperimentConfig(dim=16, m_groups=4, k_clusters=8, seed=0, decoder_steps=100)
        data = synthetic.generate(500, 16, 25, RandomSource(0).derive("synthetic"))
        _, losses = record_trials(
            monkeypatch, lambda: harness.run_experiment(cfg, data, stop_after_session=0)
        )
        accepted = sum(accepted_trials(losses))
        assert accepted == 100
        assert len(losses) <= 1.5 * accepted


def reference_ewc_loss(params, prev, fisher):
    """The per-group loop: rows appended after `prev` was trained are left out."""
    loss, d_w, d_b = 0.0, [], []
    for m in range(params.n_groups):
        w, b = params.weights[m], params.biases[m]
        r = len(prev.biases[m])
        dw, db = w[:r] - prev.weights[m], b[:r] - prev.biases[m]
        loss += float((fisher.weights[m] * dw**2).sum() + (fisher.biases[m] * db**2).sum())
        d_w.append(np.zeros_like(w))
        d_b.append(np.zeros_like(b))
        d_w[m][:r] = 2.0 * fisher.weights[m] * dw
        d_b[m][:r] = 2.0 * fisher.biases[m] * db
    return loss, (d_w, d_b)


def reference_train_session(prev, cb, pair_groups, fisher, lam, step, steps):
    """Descent on the sum of one mle_loss per pair list plus lam * the per-group EWC.

    A step starts at `step`, or after the first at 1.25 times the last
    accepted step size if that is smaller, and halves until the loss does
    not rise.
    """

    def total(p):
        loss = 0.0
        d_w = [np.zeros_like(w) for w in p.weights]
        d_b = [np.zeros_like(b) for b in p.biases]
        terms = [mle_loss(pairs, p) for pairs in pair_groups if pairs]
        weights = [1.0] * len(terms)
        if lam != 0.0 and fisher is not None:
            terms.append(reference_ewc_loss(p, prev, fisher))
            weights.append(lam)
        for c, (l, (gw, gb)) in zip(weights, terms):
            loss += c * l
            for m in range(p.n_groups):
                d_w[m] += c * gw[m]
                d_b[m] += c * gb[m]
        return loss, (d_w, d_b)

    params = align_to_codebook(prev, cb)
    cur, (gw, gb) = total(params)
    lr = step
    for _ in range(steps):
        for _ in range(40):
            trial = DecoderParams(
                [w - lr * g for w, g in zip(params.weights, gw)],
                [b - lr * g for b, g in zip(params.biases, gb)],
            )
            trial_loss, trial_grads = total(trial)
            if trial_loss <= cur + 1e-9 * max(1.0, abs(cur)):
                params, cur, (gw, gb) = trial, trial_loss, trial_grads
                break
            lr *= 0.5
        else:
            break
        lr = min(step, 1.25 * lr)
    return params


class TestTrainSessionMatchesReference:
    @pytest.mark.parametrize(
        "n_bank, anchored", [(5, True), (0, True), (5, False)], ids=["full", "empty-bank", "no-ewc"]
    )
    def test_stacked_batch_matches_per_list_descent(self, n_bank, anchored):
        rng = np.random.default_rng(34)
        sizes, dim = [4, 3, 5], 4
        prev = random_params([3, 3, 4], dim, seed=35)
        cb = toy_codebook(sizes)

        def pairs(n, sizes=sizes):
            return [
                (rng.normal(size=dim), tuple(int(rng.integers(k)) for k in sizes))
                for _ in range(n)
            ]

        groups = (pairs(8), pairs(n_bank), pairs(12))
        if anchored:
            fisher, lam = estimate_fisher(pairs(6, prev.sizes()), prev), 0.5
        else:
            fisher, lam = None, 0.0
        got = train_session(prev, cb, PairBatch.stack([p for g in groups for p in g]), fisher, lam, 30)
        want = reference_train_session(prev, cb, groups, fisher, lam, decoder.TRAIN_STEP, 30)
        assert got.sizes() == want.sizes() == cb.sizes()
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


class TestTargetCodesAreValidated:
    SIZES = [3, 2]

    @pytest.mark.parametrize(
        "bad", [(-1, 0), (3, 0), (0, 2), (0,), (0, 0, 0)],
        ids=["negative", "past-group", "past-last-group", "short", "long"],
    )
    @pytest.mark.parametrize("fn", ["mle_loss", "estimate_fisher", "train_session"])
    def test_bad_code_names_the_pair(self, fn, bad):
        params = random_params(self.SIZES, dim=2, seed=40)
        vecs = np.random.default_rng(41).normal(size=(3, 2))
        pairs = [(vecs[0], (1, 1)), (vecs[1], (2, 0)), (vecs[2], bad)]
        calls = {
            "mle_loss": lambda: mle_loss(pairs, params),
            "estimate_fisher": lambda: estimate_fisher(pairs, params),
            "train_session": lambda: train_session(
                params, toy_codebook(self.SIZES), PairBatch.stack(pairs), None, 0.0, 3
            ),
        }
        with pytest.raises(ValueError, match="pair 2"):
            calls[fn]()

    def test_all_codes_too_long(self):
        params = random_params(self.SIZES, dim=1, seed=42)
        with pytest.raises(ValueError, match="pair 0: code \\(0, 0, 0\\) has 3 positions"):
            mle_loss([(np.ones(1), (0, 0, 0))] * 2, params)


def reference_mle_loss(pairs, params):
    """The per-group loop: one dense softmax over the whole batch per group."""
    vecs = np.stack([v for v, _ in pairs])
    codes = np.array([c for _, c in pairs])
    rows = np.arange(len(pairs))
    loss, d_w, d_b = 0.0, [], []
    for m in range(params.n_groups):
        logits = vecs @ params.weights[m].T + params.biases[m]
        mx = logits.max(axis=1, keepdims=True)
        z = np.exp(logits - mx).sum(axis=1, keepdims=True)
        loss -= float((logits - mx - np.log(z))[rows, codes[:, m]].sum())
        g = np.exp(logits - mx) / z
        g[rows, codes[:, m]] -= 1.0
        d_w.append(g.T @ vecs)
        d_b.append(g.sum(axis=0))
    return loss, (d_w, d_b)


def close(got, want, bound=1e-12):
    return len(got) == len(want) and all(
        np.abs(a - b).max() <= bound * np.abs(b).max() for a, b in zip(got, want)
    )


@st.composite
def block_problems(draw):
    """Batches around the LOSS_BLOCK boundaries, uneven groups, one with a single row."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    sizes.insert(draw(st.integers(0, len(sizes))), 1)
    prev_sizes = [draw(st.integers(1, k)) for k in sizes]
    dim = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, LOSS_BLOCK - 1, LOSS_BLOCK, LOSS_BLOCK + 1, 2 * LOSS_BLOCK + 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(rng.normal(size=dim), tuple(int(rng.integers(k)) for k in sizes)) for _ in range(n)]
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    prev = random_params(prev_sizes, dim, seed=int(rng.integers(2**32)))
    anchored = draw(st.booleans())
    return sizes, prev, pairs, cuts, anchored


class TestLossBlocks:
    @given(block_problems())
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_the_per_group_loop(self, problem):
        sizes, prev, pairs, cuts, anchored = problem
        params = align_to_codebook(prev, toy_codebook(sizes))
        loss, (gw, gb) = mle_loss(pairs, params)
        want_loss, (want_gw, want_gb) = reference_mle_loss(pairs, params)
        assert rel_err(loss, want_loss) <= 1e-12
        assert close(gw + gb, want_gw + want_gb)
        # The Fisher: the mean of squared per-pair gradients.
        per_pair = [reference_mle_loss([pair], params)[1] for pair in pairs]
        want_fw = [sum(g[0][m] ** 2 for g in per_pair) / len(pairs) for m in range(len(sizes))]
        want_fb = [sum(g[1][m] ** 2 for g in per_pair) / len(pairs) for m in range(len(sizes))]
        fisher = estimate_fisher(pairs, params)
        assert close(fisher.weights + fisher.biases, want_fw + want_fb)

    @given(block_problems())
    @settings(max_examples=40, deadline=None)
    def test_train_session_matches_reference(self, problem):
        sizes, prev, pairs, (a, b), anchored = problem
        cb = toy_codebook(sizes)
        groups = (pairs[:a], pairs[a:b], pairs[b:])
        if anchored:
            prev_pairs = [(v, tuple(min(k, p - 1) for k, p in zip(c, prev.sizes()))) for v, c in pairs]
            fisher, lam = estimate_fisher(prev_pairs, prev), 0.5
        else:
            fisher, lam = None, 0.0
        got = train_session(prev, cb, PairBatch.stack(pairs), fisher, lam, 10)
        want = reference_train_session(prev, cb, groups, fisher, lam, decoder.TRAIN_STEP, 10)
        assert got.sizes() == want.sizes() == sizes
        assert close(got.weights + got.biases, want.weights + want.biases)


def reference_segmented_nll(vecs, cols, params, squared=False):
    """The two-buffer kernel: group statistics broadcast with `np.take`."""
    n, (total, dim) = len(vecs), params.w.shape
    starts = params.layout.starts
    group = np.repeat(np.arange(len(starts)), params.sizes())
    logits = np.empty((min(n, LOSS_BLOCK), total))
    work = np.empty_like(logits)
    at = cols + (np.arange(n) % LOSS_BLOCK * total)[:, None]
    target_logp = np.empty((len(starts), n))
    d_w, d_b = np.zeros((total, dim)), np.zeros(total)
    for lo in range(0, n, LOSS_BLOCK):
        x, t = vecs[lo : lo + LOSS_BLOCK], at[lo : lo + LOSS_BLOCK]
        z, g = logits[: len(x)], work[: len(x)]
        np.matmul(x, params.w.T, out=z)
        z += params.b
        z -= np.take(np.maximum.reduceat(z, starts, axis=1), group, axis=1, out=g, mode="clip")
        np.exp(z, out=g)
        norm = np.add.reduceat(g, starts, axis=1)
        target_logp[:, lo : lo + len(x)] = (z.ravel()[t] - np.log(norm)).T
        g /= np.take(norm, group, axis=1, out=z, mode="clip")
        g.ravel()[t] -= 1.0
        if squared:
            np.square(g, out=g)
            x = x**2
        d_w += g.T @ x
        d_b += g.sum(axis=0)
    return -sum(target_logp.sum(axis=1).tolist()), d_w, d_b


class TestKernelBytes:
    """The one-buffer kernel against the two-buffer one it replaced, byte for byte."""

    @given(block_problems())
    @settings(max_examples=40, deadline=None)
    def test_loss_gradient_and_fisher(self, problem):
        sizes, prev, pairs, _, _ = problem
        params = align_to_codebook(prev, toy_codebook(sizes))
        batch = PairBatch.stack(pairs)
        cols = batch.codes + params.layout.starts
        # The second point shares the layout, so it reuses the batch's state.
        for p in (params, params.step(0.3, mle_loss(batch, params)[1])):
            loss, grad = mle_loss(batch, p)
            want_loss, want_w, want_b = reference_segmented_nll(batch.vecs, cols, p)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.w.tobytes() == want_w.tobytes() and grad.b.tobytes() == want_b.tobytes()
            fisher = estimate_fisher(batch, p)
            _, want_w, want_b = reference_segmented_nll(batch.vecs, cols, p, squared=True)
            assert fisher.w.tobytes() == (want_w / len(pairs)).tobytes()
            assert fisher.b.tobytes() == (want_b / len(pairs)).tobytes()


@st.composite
def anchor_problems(draw):
    """`block_problems` with a Fisher taken at `prev`, a random current point and a weight."""
    sizes, prev, pairs, cuts, _ = draw(block_problems())
    prev_pairs = [(v, tuple(min(k, p - 1) for k, p in zip(c, prev.sizes()))) for v, c in pairs]
    fisher = estimate_fisher(prev_pairs, prev)
    cur = align_to_codebook(prev, toy_codebook(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cur.w += rng.normal(size=cur.w.shape)
    cur.b += rng.normal(size=cur.b.shape)
    return sizes, prev, pairs, cuts, fisher, cur, draw(st.sampled_from([0.0, 0.5, 50.0]))


class TestFlatAnchor:
    """The one-expression anchor against the per-group loop it replaced."""

    @given(anchor_problems())
    @settings(max_examples=40, deadline=None)
    def test_ewc_loss_matches_the_per_group_loop(self, problem):
        sizes, prev, _, _, fisher, cur, _ = problem
        loss, (gw, gb) = ewc_loss(cur, prev.padded(cur.layout), fisher.padded(cur.layout))
        want_loss, (want_gw, want_gb) = reference_ewc_loss(cur, prev, fisher)
        assert rel_err(loss, want_loss) <= 1e-12
        assert close(gw + gb, want_gw + want_gb)
        for m, k in enumerate(prev.sizes()):  # rows added since `prev` are free
            assert not gw[m][k:].any() and not gb[m][k:].any()

    @given(anchor_problems())
    @settings(max_examples=40, deadline=None)
    def test_anchored_train_session_matches_reference(self, problem):
        sizes, prev, pairs, (a, b), fisher, _, lam = problem
        cb = toy_codebook(sizes)
        groups = (pairs[:a], pairs[a:b], pairs[b:])
        got = train_session(prev, cb, PairBatch.stack(pairs), fisher, lam, 10)
        want = reference_train_session(prev, cb, groups, fisher, lam, decoder.TRAIN_STEP, 10)
        assert got.sizes() == want.sizes() == sizes
        assert close(got.weights + got.biases, want.weights + want.biases)

    def test_group_views_write_into_the_matrix(self):
        params = random_params([3, 1, 2], dim=2, seed=45)
        rng = np.random.default_rng(46)
        pairs = [(rng.normal(size=2), (int(rng.integers(3)), 0, int(rng.integers(2)))) for _ in range(5)]
        before, _ = mle_loss(pairs, params)
        assert all(np.shares_memory(w, params.w) for w in params.weights)
        assert all(np.shares_memory(b, params.b) for b in params.biases)
        params.weights[2][1] += 1.0
        params.biases[0][0] -= 0.5
        assert params.w[5].tolist() == (params.weights[2][1]).tolist()
        after, _ = mle_loss(pairs, params)
        assert after != before
        assert after == mle_loss(pairs, DecoderParams(params.weights, params.biases))[0]

    def test_train_session_leaves_prev_and_fisher_alone(self):
        prev = random_params([2, 1, 3], dim=3, seed=47)
        rng = np.random.default_rng(48)
        pairs = [(rng.normal(size=3), tuple(int(rng.integers(k)) for k in (4, 2, 3))) for _ in range(9)]
        fisher = estimate_fisher([(v, (c[0] % 2, 0, c[2])) for v, c in pairs], prev)
        saved = [a.copy() for a in (prev.w, prev.b, fisher.w, fisher.b)]
        layouts = prev.layout, fisher.layout
        out = train_session(prev, toy_codebook([4, 2, 3]), PairBatch.stack(pairs), fisher, 50.0, 5)
        assert out.sizes() == [4, 2, 3]
        assert (prev.layout, fisher.layout) == layouts
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip((prev.w, prev.b, fisher.w, fisher.b), saved)
        )


class TestLossMemory:
    """Peak memory of training and of the Fisher stays below one n x ΣK matrix."""

    N, SIZES, DIM = 400, [128] * 8, 32

    def setup_problem(self):
        rng = np.random.default_rng(43)
        pairs = [
            (rng.normal(size=self.DIM), tuple(int(c) for c in rng.integers(100, size=len(self.SIZES))))
            for _ in range(self.N)
        ]
        prev = random_params([100] * len(self.SIZES), self.DIM, seed=44)
        return pairs, prev, estimate_fisher(pairs, prev)

    def peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_train_session_and_fisher_peaks(self):
        pairs, prev, fisher = self.setup_problem()
        cb = toy_codebook(self.SIZES)
        limit = self.N * sum(self.SIZES) * 8
        batch = PairBatch.stack(pairs)
        assert self.peak(lambda: train_session(prev, cb, batch, fisher, 0.5, 2)) < limit
        params = align_to_codebook(prev, cb)
        assert self.peak(lambda: estimate_fisher(pairs, params)) < limit


def exhaustive_ranking(q, params, codes, top_n):
    """Every issued docid scored by `docid_log_prob`, ties by ascending id."""
    scored = ((d, docid_log_prob(q, c, params)) for d, c in codes.items())
    return sorted(scored, key=lambda t: (-t[1], t[0]))[:top_n]


@st.composite
def search_problems(draw):
    """A decoder, an issued code dict, queries, top_n, and a query block size."""
    n_groups = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 5)) for _ in range(n_groups)]
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        params = DecoderParams.zeros(sizes, dim)  # every score ties
    else:
        params = random_params(sizes, dim, seed=int(rng.integers(2**32)))
    # Few distinct codes for many docs, so codes collide.
    ids = rng.permutation(1000)[: draw(st.integers(0, 30))].tolist()
    codes = {d: tuple(int(rng.integers(k)) for k in sizes) for d in ids}
    block = draw(st.integers(1, 4))
    n_queries = draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 2]))
    queries = rng.normal(size=(n_queries, dim))
    return params, codes, queries, draw(st.integers(1, 35)), block


class TestSearch:
    @given(search_problems())
    @example((DecoderParams.zeros([2], dim=1), {}, np.zeros((2, 1)), 3, 1))  # from_codes({})
    @example(  # all ties, colliding codes, top_n = N, two blocks
        (DecoderParams.zeros([2, 3], dim=1), {12: (0, 1), 7: (1, 2), 10: (0, 1), -1: (1, 0)},
         np.zeros((3, 1)), 4, 2)
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_exhaustive_oracle(self, problem):
        params, codes, queries, top_n, block = problem
        trie = DocidTrie.from_codes(codes)
        with mock.patch.object(decoder, "SEARCH_SCORES", block * max(len(codes), 1)):
            got = search(queries, params, trie, top_n)
        assert len(got) == len(queries)
        for q, ranking in zip(queries, got):
            assert ranking == exhaustive_ranking(q, params, codes, top_n)
            assert ranking == search(q[None], params, trie, top_n)[0]

    def test_no_queries_and_empty_trie(self):
        params = DecoderParams.zeros([2], dim=1)
        assert search(np.zeros((0, 1)), params, DocidTrie.from_codes({0: (1,)}), 3) == []
        assert search(np.zeros((2, 1)), params, DocidTrie(), 3) == [[], []]

    def test_beam_of_one_keeps_the_true_top_doc(self):
        # Group 0 prefers centroid 0, but doc 2's centroid 1 in group 1 outweighs it:
        # a one-prefix beam kept only (0, *) and lost doc 2.
        params = DecoderParams([np.zeros((2, 1))] * 2, [np.log([0.6, 0.4]), np.log([0.01, 0.99])])
        codes = {1: (0, 0), 2: (1, 1)}
        q = np.zeros(1)
        got = constrained_beam_search(q, params, DocidTrie.from_codes(codes), beam=1, top_n=2)
        assert [doc for doc, _ in got] == [2, 1]
        assert got == exhaustive_ranking(q, params, codes, 2)


class TestBeamSearch:
    def test_singleton_index(self):
        params = random_params([3, 3], dim=2, seed=26)
        trie = DocidTrie.from_codes({42: (1, 2)})
        q = np.random.default_rng(27).normal(size=2)
        [(doc, score)] = constrained_beam_search(q, params, trie, beam=5, top_n=10)
        assert doc == 42
        assert score == docid_log_prob(q, (1, 2), params)

    def test_wide_beam_equals_exhaustive_scoring(self):
        rng = np.random.default_rng(28)
        sizes = [4, 4, 4]
        params = random_params(sizes, dim=5, seed=29)
        codes = {i: tuple(int(rng.integers(4)) for _ in sizes) for i in range(20)}
        trie = DocidTrie.from_codes(codes)
        for _ in range(25):
            q = rng.normal(size=5)
            got = constrained_beam_search(q, params, trie, beam=64, top_n=20)
            assert got == exhaustive_ranking(q, params, codes, 20)

    def test_unindexed_code_is_never_emitted(self):
        params = DecoderParams.zeros([2, 2], dim=1)
        # Only (0, 0) is indexed; all codes score equally under a uniform
        # decoder, so any leakage would surface here.
        trie = DocidTrie.from_codes({1: (0, 0)})
        out = constrained_beam_search(np.zeros(1), params, trie, beam=8, top_n=8)
        assert [doc for doc, _ in out] == [1]

    def test_collisions_expand_in_insertion_order(self):
        params = DecoderParams.zeros([2], dim=1)
        trie = DocidTrie.from_codes({9: (0,), 4: (0,)})
        assert trie.doc_ids == [4, 9]
        out = constrained_beam_search(np.zeros(1), params, trie, beam=4, top_n=4)
        # Equal scores: sorted by doc id ascending.
        assert [doc for doc, _ in out] == [4, 9]

    def test_empty_trie_and_bad_beam(self):
        params = DecoderParams.zeros([2], dim=1)
        assert constrained_beam_search(np.zeros(1), params, DocidTrie(), 4, 4) == []
        with pytest.raises(ValueError):
            constrained_beam_search(np.zeros(1), params, DocidTrie.from_codes({0: (0,)}), 0, 4)


class TestAlignAndTrie:
    def test_align_appends_zero_rows(self):
        cb = toy_codebook([4, 2])
        params = random_params([2, 2], dim=2, seed=30)
        out = align_to_codebook(params, cb)
        assert out.sizes() == [4, 2]
        assert np.array_equal(out.weights[0][2:], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            align_to_codebook(random_params([5, 2], dim=2, seed=31), cb)

    def test_trie_counts(self):
        trie = DocidTrie.from_codes({3: (1, 1), 1: (0, 0), 2: (0, 0)})
        assert len(trie) == 3  # issued docids, shared codes included
        assert trie.doc_ids == [1, 2, 3]
        assert trie.codes.dtype == np.int64
        assert trie.codes.tolist() == [[0, 0, 1], [0, 0, 1]]  # one row per group


@st.composite
def code_dicts(draw):
    """1-5 groups, 1-40 docs on few distinct codes, with int ids in any order."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    n_docs = draw(st.integers(1, 40))
    keys = draw(st.lists(st.integers(-(2**40), 2**40), min_size=n_docs, max_size=n_docs, unique=True))
    code = st.tuples(*(st.integers(0, k - 1) for k in sizes))
    return {d: draw(code) for d in keys}


class TestTrieBuild:
    @given(code_dicts())
    @example({5: (2, 0, 1)})  # one code
    @settings(max_examples=150, deadline=None)
    def test_columns_hold_the_codes_in_rank_order(self, codes):
        trie = DocidTrie.from_codes(codes)
        assert trie.doc_ids == sorted(codes)
        assert trie.codes.shape == (len(next(iter(codes.values()))), len(codes))
        assert [tuple(c) for c in trie.codes.T.tolist()] == [codes[d] for d in trie.doc_ids]

    def test_empty_dict(self):
        trie = DocidTrie.from_codes({})
        assert len(trie) == 0 and len(DocidTrie()) == 0
        assert trie.doc_ids == [] and trie.codes.shape == (0, 0)
