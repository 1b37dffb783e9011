"""Tests for MRR@N, Hits@N, VERT, and the continual-learning summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipqgr.metrics import QrelEntry, continual_metrics, hits_at, mrr_at, vert


def random_run(n_queries, n_docs, seed):
    rng = np.random.default_rng(seed)
    run = {}
    qrels = {}
    for q in range(n_queries):
        ranking = rng.permutation(n_docs).tolist()
        run[q] = ranking
        qrels[q] = QrelEntry(int(rng.integers(n_docs)), 0)
    return run, qrels


class TestMrr:
    def test_perfect_run(self):
        run = {0: [7, 1], 1: [3, 9]}
        qrels = {0: QrelEntry(7, 0), 1: QrelEntry(3, 0)}
        assert mrr_at(run, qrels, 10) == 1.0

    def test_hand_computation(self):
        run = {0: [5, 7], 1: [1, 2, 3]}
        qrels = {0: QrelEntry(7, 0), 1: QrelEntry(99, 0)}
        assert mrr_at(run, qrels, 10) == 0.25  # (1/2 + 0) / 2

    def test_matches_per_query_scan_oracle(self):
        run, qrels = random_run(50, 30, seed=0)
        for n in (1, 5, 10):
            total = 0.0
            for q, ranking in run.items():
                rel = qrels[q].doc_id
                rr = 0.0
                for pos, d in enumerate(ranking[:n], start=1):
                    if d == rel:
                        rr = 1.0 / pos
                        break
                total += rr
            assert abs(mrr_at(run, qrels, n) - total / len(run)) < 1e-12

    @pytest.mark.parametrize("metric", [mrr_at, hits_at])
    def test_a_scored_query_must_be_judged(self, metric):
        # It used to be dropped with a logged warning, so the mean ran over fewer queries than were scored.
        run = {0: [1], 99: [1]}
        qrels = {0: QrelEntry(1, 0)}
        with pytest.raises(ValueError, match="^query 99 is scored but not judged; the qrels have no entry for it$"):
            metric(run, qrels, 10)

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            mrr_at({}, {}, 0)


class TestHits:
    def test_perfect_run(self):
        run = {0: [4]}
        assert hits_at(run, {0: QrelEntry(4, 0)}, 10) == 1.0

    def test_hand_computation(self):
        run = {0: [9] + list(range(20)), 1: list(range(20))}
        qrels = {0: QrelEntry(9, 0), 1: QrelEntry(10, 0)}  # ranks 1 and 11
        assert hits_at(run, qrels, 10) == 0.5

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_hits_dominates_mrr(self, seed):
        run, qrels = random_run(20, 15, seed)
        assert hits_at(run, qrels, 10) >= mrr_at(run, qrels, 10)


class TestVert:
    def test_final_session_covers_everything(self):
        run, qrels = random_run(30, 20, seed=1)
        qrels = {q: QrelEntry(e.doc_id, q % 5) for q, e in qrels.items()}
        full = mrr_at(run, qrels, 10)
        assert vert(run, qrels, lambda r, q: mrr_at(r, q, 10), max_session=4) == full

    def test_base_session_subset(self):
        # 3 of 5 relevant docs arrive at session 0.
        run = {q: [q] for q in range(5)}
        qrels = {q: QrelEntry(q if q < 3 else 99, 0 if q < 3 else 1) for q in range(5)}
        got = vert(run, qrels, lambda r, q: mrr_at(r, q, 10), max_session=0)
        assert got == 1.0  # only the three answerable queries are averaged

    def test_manual_five_query_toy(self):
        run = {0: [0], 1: [9], 2: [2], 3: [3], 4: [9]}
        qrels = {
            0: QrelEntry(0, 0),
            1: QrelEntry(1, 0),
            2: QrelEntry(2, 1),
            3: QrelEntry(3, 2),
            4: QrelEntry(4, 2),
        }
        metric = lambda r, q: mrr_at(r, q, 10)
        assert vert(run, qrels, metric, 0) == 0.5  # queries {0, 1}
        assert vert(run, qrels, metric, 1) == pytest.approx(2.0 / 3.0)
        assert vert(run, qrels, metric, 2) == pytest.approx(3.0 / 5.0)


class TestContinualMetrics:
    def test_constant_matrix(self):
        c = 0.37
        matrix = [[c], [c, c], [c, c, c]]
        ap, bwt, fwt = continual_metrics(matrix)
        assert ap == pytest.approx(c)
        assert bwt == pytest.approx(0.0)
        assert fwt == pytest.approx(c)

    def test_hand_arithmetic(self):
        matrix = [[0.8], [0.6, 0.7]]
        ap, bwt, fwt = continual_metrics(matrix)
        assert ap == pytest.approx(0.65)
        assert bwt == pytest.approx(0.2)
        assert fwt == pytest.approx(0.7)

    def test_zero_bwt_when_last_row_matches_diagonal(self):
        matrix = [[0.5], [0.5, 0.9], [0.5, 0.9, 0.2]]
        _, bwt, _ = continual_metrics(matrix)
        assert bwt == pytest.approx(0.0)

    def test_single_session_leaves_transfer_undefined(self):
        ap, bwt, fwt = continual_metrics([[0.4]])
        assert ap == 0.4
        assert bwt is None and fwt is None

    def test_incomplete_matrix_rejected(self):
        with pytest.raises(ValueError):
            continual_metrics([[0.1], [0.2]])
        with pytest.raises(ValueError):
            continual_metrics([])
