"""Retrieval metrics (MRR@N, Hits@N, VERT) and continual-learning summaries."""

from __future__ import annotations

from dataclasses import dataclass

CUTOFF = 10  # rank cutoff of the engine's reported MRR@N and Hits@N


@dataclass(frozen=True)
class QrelEntry:
    doc_id: int
    session: int  # session at which the relevant document arrived


Qrels = dict  # query id -> QrelEntry
RunResult = dict  # query id -> ranked list of doc ids


def _per_query_ranks(run: RunResult, qrels: Qrels, n: int):
    """Yield the relevant doc's rank (or None for a miss) per scored query; every scored query must be judged."""
    for qid, ranking in run.items():
        entry = qrels.get(qid)
        if entry is None:
            raise ValueError(f"query {qid!r} is scored but not judged; the qrels have no entry for it")
        rank = None
        for pos, doc_id in enumerate(ranking[:n], start=1):
            if doc_id == entry.doc_id:
                rank = pos
                break
        yield rank


def mrr_at(run: RunResult, qrels: Qrels, n: int) -> float:
    """Mean reciprocal rank at cutoff n over the run's queries."""
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    ranks = list(_per_query_ranks(run, qrels, n))
    if not ranks:
        return 0.0
    return sum(1.0 / r for r in ranks if r is not None) / len(ranks)


def hits_at(run: RunResult, qrels: Qrels, n: int) -> float:
    """Fraction of queries whose relevant doc appears in the top n."""
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    ranks = list(_per_query_ranks(run, qrels, n))
    if not ranks:
        return 0.0
    return sum(1 for r in ranks if r is not None) / len(ranks)


def vert(run: RunResult, qrels: Qrels, metric, max_session: int) -> float:
    """Metric restricted to queries whose relevant doc arrived by max_session."""
    sub_run = {
        qid: ranking
        for qid, ranking in run.items()
        if qid in qrels and qrels[qid].session <= max_session
    }
    sub_qrels = {qid: qrels[qid] for qid in sub_run}
    return metric(sub_run, sub_qrels)


def continual_metrics(matrix: list[list[float]]):
    """(AP, BWT, FWT) from a lower-triangular session-performance matrix.

    matrix[t][i] is the metric on query set i evaluated after session t,
    defined for i <= t. BWT is oriented as forgetting (lower is better).
    For a single session, BWT and FWT are undefined and returned as None.
    """
    t_max = len(matrix) - 1
    if t_max < 0:
        raise ValueError("matrix must cover at least one session")
    for t, row in enumerate(matrix):
        if len(row) < t + 1:
            raise ValueError(f"row {t} is incomplete: need {t + 1} entries")
    ap = sum(matrix[t_max][i] for i in range(t_max + 1)) / (t_max + 1)
    if t_max == 0:
        return ap, None, None
    bwt = sum(matrix[i][i] - matrix[t_max][i] for i in range(t_max)) / t_max
    fwt = sum(matrix[i][i] for i in range(1, t_max + 1)) / t_max
    return ap, bwt, fwt
