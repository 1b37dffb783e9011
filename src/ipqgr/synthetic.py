"""Synthetic corpora: Gaussian-mixture documents with perturbation queries.

`ExperimentInputs` is the corpus a run takes, synthetic or read from files.
Synthetic corpora let the full experiment protocol (and the acceptance suite)
run with no external data. Each document gets one labeled training query and
one test query, both sampled as noisy copies of the document embedding.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .rng import RandomSource

# Standard deviations of the Gaussian noise around a cluster center (documents),
# a document (queries) and a document (its tokens); the scale of the centers.
DOC_NOISE = 0.3
QUERY_NOISE = 0.1
TOKEN_NOISE = 0.5
CLUSTER_SCALE = 1.0


@dataclass
class ExperimentInputs:
    """A corpus of embedding rows or of token matrices, numbered with its queries by their rows."""

    doc_embs: np.ndarray | None
    test_query_embs: np.ndarray
    test_qrels: dict  # query row -> relevant doc row
    train_query_embs: np.ndarray | None = None
    train_qrels: dict = field(default_factory=dict)
    token_docs: list | None = None

    def __post_init__(self):
        if (self.doc_embs is None) == (self.token_docs is None):
            raise ValueError("a corpus holds doc_embs or token_docs, one of the two")

    @property
    def doc_ids(self) -> list:
        return list(range(len(self.doc_embs if self.token_docs is None else self.token_docs)))

    @property
    def test_query_ids(self) -> list:
        return list(range(len(self.test_query_embs)))

    @property
    def train_query_ids(self) -> list:
        return [] if self.train_query_embs is None else list(range(len(self.train_query_embs)))

    @classmethod
    def from_synthetic(cls, data: "ExperimentInputs") -> "ExperimentInputs":
        return dataclasses.replace(data)  # a shallow copy


def generate(
    n_docs: int,
    dim: int,
    n_clusters: int,
    rng: RandomSource,
    with_tokens: bool = False,
    token_range: tuple[int, int] = (20, 60),
) -> ExperimentInputs:
    """Build a clustered corpus with one train and one test query per doc; its docs are token matrices `with_tokens`."""
    if min(n_docs, dim, n_clusters) < 1:
        raise ValueError(f"n_docs, dim and n_clusters must be positive, got {n_docs}, {dim}, {n_clusters}")
    centers = CLUSTER_SCALE * rng.derive("centers").normal((n_clusters, dim))
    assign = rng.derive("assign").integers(n_clusters, size=n_docs)
    doc_embs = centers[assign] + DOC_NOISE * rng.derive("docs").normal((n_docs, dim))
    test_embs = doc_embs + QUERY_NOISE * rng.derive("test-queries").normal((n_docs, dim))
    train_embs = doc_embs + QUERY_NOISE * rng.derive("train-queries").normal((n_docs, dim))

    ids = range(n_docs)  # document i's queries are query i of each set
    token_docs = None
    if with_tokens:
        tok_rng = rng.derive("tokens")
        lo, hi = token_range
        token_docs = []
        for i in range(n_docs):
            n_tok = lo + int(tok_rng.derive(i, "len").integers(hi - lo + 1))
            noise = TOKEN_NOISE * tok_rng.derive(i, "vals").normal((n_tok, dim))
            token_docs.append(doc_embs[i] + noise)
    return ExperimentInputs(
        doc_embs=None if with_tokens else doc_embs,
        test_query_embs=test_embs,
        test_qrels=dict(zip(ids, ids)),
        train_query_embs=train_embs,
        train_qrels=dict(zip(ids, ids)),
        token_docs=token_docs,
    )
