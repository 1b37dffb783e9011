"""Discriminative representation learning over token-embedding sequences.

Documents are sequences of token vectors. A small tanh projector maps the
mean-pooled tokens into the codebook space; it is trained by alternating
per-group clustering (which fixes codes for an epoch) with gradient descent
on a span-contrastive loss plus a quantization MSE loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, cluster_base
from .rng import RandomSource
from .vector_core import backtracking_descent, beta_sample


@dataclass(frozen=True)
class GranularitySpec:
    """Span-length bounds (in tokens) for one sampling granularity."""

    level: str
    l_min: int
    l_max: int

    def __post_init__(self):
        if not 1 <= self.l_min <= self.l_max:
            raise ValueError("need 1 <= l_min <= l_max")


# Word-level bounds are a desk-scale choice; the other three follow the
# 4/16, 16/64, 64/128 ladder.
DEFAULT_GRANULARITIES = (
    GranularitySpec("word", 1, 4),
    GranularitySpec("phrase", 4, 16),
    GranularitySpec("sentence", 16, 64),
    GranularitySpec("paragraph", 64, 128),
)

# The settings of `iterative_train`: the contrastive temperature, the spans
# sampled per granularity and document, the initial step size and the
# descent steps per epoch.
TAU = 0.1
SPANS_PER_LEVEL = 5
PROJ_STEP = 1e-2
PROJ_INNER_STEPS = 20


@dataclass
class ProjectorParams:
    """Two-layer tanh projector: out = W2 tanh(W1 p + b1) + b2."""

    w1: np.ndarray  # (H, E)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (D, H)
    b2: np.ndarray  # (D,)

    @classmethod
    def init_random(cls, in_dim: int, hidden: int, out_dim: int, rng: RandomSource):
        return cls(
            w1=0.1 * rng.normal((hidden, in_dim)),
            b1=np.zeros(hidden),
            w2=0.1 * rng.normal((out_dim, hidden)),
            b2=np.zeros(out_dim),
        )

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    def forward(self, pooled: np.ndarray) -> np.ndarray:
        """Map pooled inputs (n, E) to representations (n, D)."""
        return self.layers(pooled)[1]

    def layers(self, pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The hidden layer (n, H) and the representations (n, D) of pooled inputs (n, E)."""
        pooled = np.atleast_2d(np.asarray(pooled, dtype=float))
        if pooled.shape[1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {pooled.shape[1]}")
        h = np.tanh(pooled @ self.w1.T + self.b1)
        return h, h @ self.w2.T + self.b2

    def backward(self, pooled: np.ndarray, d_out: np.ndarray, h: np.ndarray | None = None):
        """Parameter gradients given upstream gradients d_out (n, D) and the hidden layer h, if known."""
        pooled = np.atleast_2d(np.asarray(pooled, dtype=float))
        h = np.tanh(pooled @ self.w1.T + self.b1) if h is None else h
        d_w2 = d_out.T @ h
        d_b2 = d_out.sum(axis=0)
        d_h = (d_out @ self.w2) * (1.0 - h**2)
        d_w1 = d_h.T @ pooled
        d_b1 = d_h.sum(axis=0)
        return ProjectorParams(d_w1, d_b1, d_w2, d_b2)

    def step(self, lr: float, grads: "ProjectorParams") -> "ProjectorParams":
        return ProjectorParams(
            self.w1 - lr * grads.w1,
            self.b1 - lr * grads.b1,
            self.w2 - lr * grads.w2,
            self.b2 - lr * grads.b2,
        )


def _sample_epoch_spans(docs, g_per_level, granularities, rng: RandomSource):
    """Draw `g_per_level` 1-based [start, end) spans per granularity of every document.

    Length is round(p * (l_max - l_min)) + l_min with p ~ Beta(4, 2),
    clamped so a span is non-empty and never the whole document. All Beta
    fractions, then all starts, come from one call each on `rng`. Returns
    (start, end) arrays of shape (n_docs, levels, g_per_level).
    """
    sizes = np.array([len(d) for d in docs])
    if (sizes < 2).any():
        i = int(np.argmax(sizes < 2))
        raise ValueError(f"document {i} has {sizes[i]} token(s); a proper span needs at least 2")
    n = np.broadcast_to(sizes[:, None, None], (len(docs), len(granularities), g_per_level))
    bounds = np.array([[s.l_min, s.l_max] for s in granularities])
    l_min, l_max = bounds[:, :1], bounds[:, 1:]
    p = beta_sample(4.0, 2.0, rng, size=n.shape)
    length = np.clip(np.rint(p * (l_max - l_min)).astype(np.int64) + l_min, 1, n - 1)
    start = 1 + rng.integers(n - length)
    return start, start + length


def sample_span(doc: np.ndarray, spec: GranularitySpec, rng: RandomSource) -> tuple[int, int]:
    """Sample one 1-based (start, end) window; tokens covered are [start, end)."""
    start, end = _sample_epoch_spans([doc], 1, (spec,), rng)
    return int(start.item()), int(end.item())


def _pool_spans(docs, start, end):
    """Span means from one cumulative sum over the concatenated tokens.

    One row per span, by document, then granularity, then draw, as
    `contrastive_loss` expects.
    """
    tokens = np.concatenate([np.asarray(d, dtype=float) for d in docs])
    csum = np.vstack([np.zeros((1, tokens.shape[1])), np.cumsum(tokens, axis=0)])
    offset = np.cumsum([0] + [len(d) for d in docs[:-1]])[:, None, None] - 1
    pooled = (csum[offset + end] - csum[offset + start]) / (end - start)[..., None]
    return pooled.reshape(-1, tokens.shape[1])


def doc_embedding(doc: np.ndarray, proj: ProjectorParams) -> np.ndarray:
    """Project the mean-pooled token sequence into the codebook space."""
    doc = np.asarray(doc, dtype=float)
    if doc.ndim != 2 or doc.shape[1] != proj.in_dim:
        raise ValueError(f"expected (n, {proj.in_dim}) token matrix, got {doc.shape}")
    return proj.forward(doc.mean(axis=0))[0]


def contrastive_loss(reps: np.ndarray, n_docs: int, n_spans: int, tau: float):
    """Span-contrastive loss over a batch of projected representations.

    `reps` has shape (n_docs * (n_spans + 1), dim): rows [0, n_docs) are the
    whole-document anchors, rows [n_docs + i*n_spans, n_docs + (i+1)*n_spans)
    are the spans of document i. Similarity is the dot product. Returns
    (loss, gradient wrt reps).

    Only the anchor rows carry a loss term, so only their (n_docs, total)
    block of logits is built.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    if n_spans < 1:
        raise ValueError(f"need at least one span per document, got {n_spans}")
    reps = np.asarray(reps, dtype=float)
    total = n_docs * (n_spans + 1)
    if reps.shape[0] != total:
        raise ValueError(f"expected {total} representations, got {reps.shape[0]}")
    if n_docs == 0:
        return 0.0, np.zeros_like(reps)

    anchors = reps[:n_docs]
    diag = np.arange(n_docs)
    rows = diag[:, None]
    # Anchor i's positives are its own n_spans span columns.
    pos = n_docs + rows * n_spans + np.arange(n_spans)
    logits = anchors @ reps.T
    logits /= tau
    logits[diag, diag] = -np.inf
    mx = logits.max(axis=1, keepdims=True)
    soft = logits - mx
    np.exp(soft, out=soft)
    lse = mx + np.log(soft.sum(axis=1, keepdims=True))
    # Python floats added in document order, so the total does not depend on
    # numpy's pairwise summation.
    loss = 0.0
    for term in (-(logits[rows, pos] - lse).sum(axis=1) / n_spans).tolist():
        loss += term
    # d(loss)/d(logits): the softmax (0 on the diagonal) minus 1/n_spans at
    # each positive.
    np.subtract(logits, lse, out=soft)
    np.exp(soft, out=soft)
    soft[rows, pos] -= 1.0 / n_spans
    d_reps = soft.T @ anchors
    d_reps[:n_docs] += soft @ reps
    d_reps /= tau
    return loss, d_reps


def clustering_loss(reps: np.ndarray, cb: Codebook):
    """Sum of squared quantization errors, with reconstructions held constant."""
    reps = np.asarray(reps, dtype=float)
    if reps.ndim != 2 or reps.shape[1] != cb.dim:
        raise ValueError(f"expected (n, {cb.dim}) representations, got {reps.shape}")
    recon = np.stack([cb.reconstruct(cb.quantize(r)) for r in reps])
    return mse_to_targets(reps, recon)


def mse_to_targets(reps: np.ndarray, targets: np.ndarray):
    diff = reps - targets
    return float((diff**2).sum()), 2.0 * diff


def iterative_train(docs: list[np.ndarray], m: int, k: int, v: int, rng: RandomSource, out_dim: int):
    """Alternate per-group clustering with projector gradient descent.

    Each epoch rebuilds the codebook from the current document representations,
    freezes the resulting reconstructions, and runs PROJ_INNER_STEPS
    `backtracking_descent` steps from PROJ_STEP on contrastive (at TAU) + MSE
    loss over SPANS_PER_LEVEL spans at each of the `DEFAULT_GRANULARITIES`;
    each trial evaluates the loss and its gradient once. The projector's
    hidden layer is `out_dim` wide.
    Returns (projector, session-0 codebook, (n x m) codes, (n x out_dim)
    representations the codebook was clustered from).
    """
    if len(docs) < k:
        raise ValueError(f"need at least k={k} documents, got {len(docs)}")
    in_dim = np.asarray(docs[0]).shape[1]
    proj = ProjectorParams.init_random(in_dim, out_dim, out_dim, rng.derive("proj-init"))
    pooled_docs = np.stack([np.asarray(d, dtype=float).mean(axis=0) for d in docs])
    n = len(docs)
    n_spans = len(DEFAULT_GRANULARITIES) * SPANS_PER_LEVEL

    for epoch in range(v):
        cb, codes = cluster_base(proj.forward(pooled_docs), m, k, rng.derive("kmeans", epoch))
        frozen = np.hstack([g.centroids[c] for g, c in zip(cb.groups, codes.T)])
        spans = _sample_epoch_spans(docs, SPANS_PER_LEVEL, DEFAULT_GRANULARITIES, rng.derive("spans", epoch))
        pooled_all = np.vstack([pooled_docs, _pool_spans(docs, *spans)])

        def total_loss(p):
            hidden, reps_all = p.layers(pooled_all)
            l_cl, g_all = contrastive_loss(reps_all, n, n_spans, TAU)
            l_mse, g_mse = mse_to_targets(reps_all[:n], frozen)
            g_all[:n] += g_mse
            return l_cl + l_mse, p.backward(pooled_all, g_all, hidden)

        proj = backtracking_descent(total_loss, proj, PROJ_STEP, PROJ_INNER_STEPS)

    reps = proj.forward(pooled_docs)
    cb, codes = cluster_base(reps, m, k, rng.derive("kmeans", v))
    return proj, cb, codes, reps
