"""Surrogate generative-retrieval decoder.

Docids are length-M PQ codes; the decoder factorizes the docid likelihood
into M independent linear-softmax heads conditioned on the query or document
embedding. Training is full-batch gradient descent on summed cross-entropy
losses plus an optional Fisher-weighted quadratic anchor to the previous
session's parameters. Retrieval scores every assigned docid exactly and keeps
the top N, which is trie-constrained decoding without a beam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codebook import Codebook, PqCode
from .vector_core import backtracking_descent

Pair = tuple[np.ndarray, PqCode]  # (conditioning vector, target code)

# Scores per query block of `search`; bounds the size of its (block x N) score arrays.
SEARCH_SCORES = 2**17
# Pairs per block of the training loss; bounds its (block x ΣK) logit buffers.
LOSS_BLOCK = 64
# The initial step size for each descent step of `train_session`.
TRAIN_STEP = 5e-2


@dataclass(frozen=True, eq=False)
class Layout:
    """Where each group's rows sit in a flat (ΣK x D) matrix.

    Group m owns `sizes[m]` rows from `starts[m]`. Every step of one training
    session shares one Layout object.
    """

    sizes: tuple[int, ...]
    starts: np.ndarray

    @classmethod
    def of(cls, sizes) -> "Layout":
        sizes = tuple(int(k) for k in sizes)
        return cls(sizes, np.cumsum((0,) + sizes)[:-1])


class GroupRows:
    """Every group's rows in one matrix `w` (ΣK x D) and one vector `b` (ΣK).

    Built from per-group lists, or, with `layout`, around flat arrays as they
    are. `weights[m]` and `biases[m]` are views of group m's rows: writing
    into them writes into `w` and `b`, but replacing a list item does not.
    """

    def __init__(self, weights, biases, *, layout: Layout | None = None):
        if layout is None:
            layout = Layout.of([len(b) for b in biases])
            weights, biases = np.concatenate(weights), np.concatenate(biases)
        self.w, self.b, self.layout = weights, biases, layout

    def _with(self, w: np.ndarray, b: np.ndarray, layout: Layout):
        return type(self)(w, b, layout=layout)

    @property
    def n_groups(self) -> int:
        return len(self.layout.sizes)

    def sizes(self) -> list[int]:
        return list(self.layout.sizes)

    @property
    def weights(self) -> list[np.ndarray]:
        return np.split(self.w, self.layout.starts[1:])

    @property
    def biases(self) -> list[np.ndarray]:
        return np.split(self.b, self.layout.starts[1:])

    def n_params(self) -> int:
        return self.w.size + self.b.size

    def padded(self, layout: Layout):
        """A copy with zero rows appended to each group, up to the sizes of `layout`."""
        have = self.layout.sizes
        if len(have) != len(layout.sizes):
            raise ValueError(f"{len(have)} groups, the layout has {len(layout.sizes)}")
        grow = np.subtract(layout.sizes, have)
        if (grow < 0).any():
            m = int(np.argmax(grow < 0))
            raise ValueError(f"group {m} has {have[m]} rows, more than the {layout.sizes[m]} to fill")
        at = np.repeat(self.layout.starts + have, grow)
        return self._with(np.insert(self.w, at, 0.0, axis=0), np.insert(self.b, at, 0.0), layout)


class DecoderParams(GroupRows):
    """Score matrices W_m (K_m x D) and biases b_m (K_m), one row per centroid."""

    @classmethod
    def zeros(cls, sizes: list[int], dim: int) -> "DecoderParams":
        return cls([np.zeros((k, dim)) for k in sizes], [np.zeros(k) for k in sizes])

    def step(self, lr: float, grad: "Gradient") -> "DecoderParams":
        return self._with(self.w - lr * grad.w, self.b - lr * grad.b, self.layout)


class FisherDiag(GroupRows):
    """Diagonal Fisher estimate, laid out like the DecoderParams it was taken at."""


class Gradient(GroupRows):
    """A loss gradient in the layout of its parameters.

    It unpacks and indexes as the pair (weights, biases) of per-group views.
    """

    def __getitem__(self, i: int) -> list[np.ndarray]:
        return (self.weights, self.biases)[i]


def _log_softmax_block(params: DecoderParams, queries: np.ndarray) -> list[np.ndarray]:
    """Per-group (Q x K_m) log-softmax scores for a block of conditioning vectors.

    The logits are one matrix-vector product per query (a stacked matmul), so
    a query's scores are bit-identical whatever block it is decoded in.
    """
    out = []
    for w, b in zip(params.weights, params.biases):
        logits = (w @ queries[:, :, None])[:, :, 0] + b
        mx = logits.max(axis=1, keepdims=True)
        out.append(logits - (mx + np.log(np.exp(logits - mx).sum(axis=1, keepdims=True))))
    return out


def docid_log_prob(e: np.ndarray, code: PqCode, params: DecoderParams) -> float:
    """log p(code | e) summed over the M factorized positions."""
    if len(code) != params.n_groups:
        raise ValueError(f"code length {len(code)} != {params.n_groups} groups")
    logps = _log_softmax_block(params, np.asarray(e, dtype=float)[None])
    total = 0.0
    for m, k in enumerate(code):
        if not 0 <= k < params.layout.sizes[m]:
            raise ValueError(f"centroid index {k} out of range in group {m}")
        total += float(logps[m][0, k])
    return total


@dataclass
class PairBatch:
    """Training pairs stacked once: vectors (n x D) and target codes (n x M)."""

    vecs: np.ndarray
    codes: np.ndarray
    # The layout of the last `loss_state` call, and that state.
    _state: tuple = field(default=(None, None), init=False, repr=False)

    @classmethod
    def stack(cls, pairs: list[Pair]) -> "PairBatch":
        width = len(pairs[0][1]) if pairs else 0
        for i, (_, code) in enumerate(pairs):
            if len(code) != width:
                raise ValueError(f"pair {i}: code {tuple(code)} has {len(code)} positions, pair 0 has {width}")
        vecs = np.stack([np.asarray(v, dtype=float) for v, _ in pairs])
        return cls(vecs, np.array([c for _, c in pairs], dtype=int))

    def __len__(self) -> int:
        return len(self.vecs)

    def loss_state(self, layout: Layout) -> "_LossState":
        """The loss kernel's blocks and buffers for `layout`.

        Built once per layout: every step of a training session reuses it.
        Raises ValueError naming the first pair whose code does not have one
        position per group or has a position outside [0, K_m).
        """
        if self._state[0] is layout:
            return self._state[1]
        codes = self.codes
        if codes.shape[1] != len(layout.sizes):
            raise ValueError(
                f"pair 0: code {tuple(codes[0].tolist())} has {codes.shape[1]} positions, "
                f"the decoder has {len(layout.sizes)} groups"
            )
        bad = (codes < 0) | (codes >= layout.sizes)
        if bad.any():
            i = int(bad.any(axis=1).argmax())
            raise ValueError(
                f"pair {i}: code {tuple(codes[i].tolist())} is outside the group sizes {list(layout.sizes)}"
            )
        self._state = (layout, _LossState(self.vecs, codes + layout.starts, layout))
        return self._state[1]


class _LossState:
    """What `_segmented_nll` needs of one batch in one layout, built once.

    The pairs go in blocks of LOSS_BLOCK: each block's first pair, its
    vectors, and its targets' positions in the raveled (block x ΣK) buffer
    that every block reuses, so memory does not grow with the batch.
    `target_logp` (M x n) receives each target's log-probability.
    """

    def __init__(self, vecs: np.ndarray, cols: np.ndarray, layout: Layout):
        n, total = len(vecs), sum(layout.sizes)
        at = cols + (np.arange(n) % LOSS_BLOCK * total)[:, None]
        self.layout, self.sizes = layout, np.array(layout.sizes)
        self.blocks = [
            (lo, vecs[lo : lo + LOSS_BLOCK], at[lo : lo + LOSS_BLOCK]) for lo in range(0, n, LOSS_BLOCK)
        ]
        self.buf = np.empty((min(n, LOSS_BLOCK), total))
        self.target_logp = np.empty((len(layout.sizes), n))


def _as_batch(pairs: PairBatch | list[Pair]) -> PairBatch:
    if not len(pairs):
        raise ValueError("pair list must be non-empty")
    return pairs if isinstance(pairs, PairBatch) else PairBatch.stack(pairs)


def _segmented_nll(state: _LossState, params: DecoderParams, squared: bool = False):
    """-Σ log p(targets) and the sums of G.T @ X and of G over the pairs.

    G = softmax - onehot(targets), per group, is the gradient of -log p with
    respect to the logits. With `squared`, G**2 and X**2 replace G and X: the
    sums the diagonal Fisher needs. Each group's max and normaliser reach its
    columns by repeating them over the group sizes; the target logits are
    read before the buffer is exponentiated in place.
    """
    starts, sizes = state.layout.starts, state.sizes
    d_w, d_b = np.zeros(params.w.shape), np.zeros(len(params.b))
    for lo, x, t in state.blocks:
        z = state.buf[: len(x)]
        np.matmul(x, params.w.T, out=z)
        z += params.b
        z -= np.maximum.reduceat(z, starts, axis=1).repeat(sizes, axis=1)
        target = z.ravel()[t]
        np.exp(z, out=z)
        norm = np.add.reduceat(z, starts, axis=1)
        state.target_logp[:, lo : lo + len(x)] = (target - np.log(norm)).T
        z /= norm.repeat(sizes, axis=1)
        z.ravel()[t] -= 1.0
        if squared:
            np.square(z, out=z)
            x = x**2
        d_w += z.T @ x
        d_b += z.sum(axis=0)
    # Per group, then across groups in order: the sums a per-group loop takes.
    return -sum(state.target_logp.sum(axis=1).tolist()), d_w, d_b


def mle_loss(pairs: PairBatch | list[Pair], params: DecoderParams) -> tuple[float, Gradient]:
    """Negative log-likelihood of the target codes; analytic gradients."""
    batch = _as_batch(pairs)
    loss, d_w, d_b = _segmented_nll(batch.loss_state(params.layout), params)
    return loss, Gradient(d_w, d_b, layout=params.layout)


def estimate_fisher(pairs: PairBatch | list[Pair], params: DecoderParams) -> FisherDiag:
    """Empirical diagonal Fisher: mean squared per-pair gradient of -log p."""
    batch = _as_batch(pairs)
    _, f_w, f_b = _segmented_nll(batch.loss_state(params.layout), params, squared=True)
    f_w /= len(batch)
    f_b /= len(batch)
    return FisherDiag(f_w, f_b, layout=params.layout)


def ewc_loss(params: DecoderParams, prev: DecoderParams, fisher: FisherDiag) -> tuple[float, Gradient]:
    """Fisher-weighted squared distance to the previous parameters.

    `prev` and `fisher` have the shape of `params`: `train_session` pads
    both once per session, with zero rows where the codebook grew, so those
    rows add nothing to the loss or its gradient.
    """
    for what, rows in (("previous params", prev), ("fisher", fisher)):
        if rows.w.shape != params.w.shape:
            raise ValueError(f"{what} have shape {rows.w.shape}, the params {params.w.shape}")
    d_w, d_b = params.w - prev.w, params.b - prev.b
    loss = float((fisher.w * d_w**2).sum() + (fisher.b * d_b**2).sum())
    return loss, Gradient(2.0 * fisher.w * d_w, 2.0 * fisher.b * d_b, layout=params.layout)


def align_to_codebook(params: DecoderParams, cb: Codebook) -> DecoderParams:
    """Append zero rows for centroids added since the decoder was trained."""
    return params.padded(Layout.of(cb.sizes()))


def train_session(
    prev: DecoderParams,
    cb: Codebook,
    batch: PairBatch,
    fisher: FisherDiag | None,
    lam: float,
    steps: int,
) -> DecoderParams:
    """Full-batch descent on MLE(batch) + lam * EWC.

    `batch` holds every training pair of the session, stacked once by the
    caller; its target rows are checked once per layout. The anchor is the
    descent's start: the previous decoder padded to the session's layout,
    zero where the codebook grew. The Fisher is padded once to the same
    layout. Each of the `steps` steps is a `backtracking_descent` step: it
    starts at TRAIN_STEP, or after the first at min(TRAIN_STEP, STEP_GROWTH x
    the last accepted step size), and halves until the loss does not rise.
    """
    params = align_to_codebook(prev, cb)
    if steps <= 0 or not len(batch):
        return params
    anchored = lam != 0.0 and fisher is not None
    if anchored:
        fisher = fisher.padded(params.layout)

    def objective(p: DecoderParams):
        loss, grad = mle_loss(batch, p)
        if anchored:
            l, g = ewc_loss(p, params, fisher)
            loss += lam * l
            grad.w += lam * g.w
            grad.b += lam * g.b
        return loss, grad

    return backtracking_descent(objective, params, TRAIN_STEP, steps)


class DocidTrie:
    """The issued docids that decoding is constrained to, held flat.

    `doc_ids` lists the ids in ascending order, and column i of `codes`
    (M x N) is the code of `doc_ids[i]`. A column's position is therefore its
    doc id's rank, which breaks ties in `search`.
    """

    def __init__(self, doc_ids=(), codes=None):
        self.doc_ids = list(doc_ids)
        self.codes = np.zeros((0, 0), dtype=np.int64) if codes is None else codes

    @classmethod
    def from_codes(cls, codes: dict) -> "DocidTrie":
        """The issued docids of a doc id -> code dict."""
        if not codes:
            return cls()
        ids = sorted(codes)
        return cls(ids, np.array([codes[d] for d in ids], dtype=np.int64).T)

    def __len__(self) -> int:
        """The number of issued docids."""
        return len(self.doc_ids)


def search(
    queries: np.ndarray,
    params: DecoderParams,
    trie: DocidTrie,
    top_n: int,
) -> list[list[tuple[object, float]]]:
    """The exact top_n issued docids for each query (rows of `queries`).

    Every docid is scored as its summed per-group log-probability, in group
    order from zero, so a score equals `docid_log_prob` bit for bit. Returns,
    per query, up to top_n (doc_id, log-prob) entries sorted by score
    descending, ties broken by ascending doc id; docids sharing a code share
    its score. Queries go in blocks of about SEARCH_SCORES scores, and a
    query's ranking does not depend on its block.
    """
    queries = np.asarray(queries, dtype=float)
    results: list[list] = [[] for _ in range(len(queries))]
    n = len(trie)
    if n == 0:
        return results
    if len(trie.codes) != params.n_groups:
        raise ValueError(f"trie codes do not have {params.n_groups} positions, one per decoder group")
    block, cut = max(1, SEARCH_SCORES // n), min(max(n - top_n, 0), n - 1)
    for lo in range(0, len(queries), block):
        logps = _log_softmax_block(params, queries[lo : lo + block])
        score = np.zeros((len(logps[0]), n))
        for logp, code in zip(logps, trie.codes):
            score += np.take(logp, code, axis=1)
        # Every score at least the top_n-th largest of its row, ties included.
        query, doc = np.nonzero(score >= np.partition(score, cut, axis=1)[:, cut, None])
        kept = score[query, doc]
        order = np.lexsort((doc, -kept, query))
        query, doc, kept = query[order], doc[order], kept[order]
        # `query` is sorted, so an entry's place in its query is its distance from the first.
        top = np.arange(len(query)) - np.searchsorted(query, query) < top_n
        for q, d, s in zip(query[top].tolist(), doc[top].tolist(), kept[top].tolist()):
            results[lo + q].append((trie.doc_ids[d], s))
    return results


def constrained_beam_search(
    q: np.ndarray,
    params: DecoderParams,
    trie: DocidTrie,
    beam: int,
    top_n: int,
) -> list[tuple[object, float]]:
    """`search` for a single query vector.

    The search is exact, so every beam of at least 1 gives the same ranking.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    return search(np.asarray(q, dtype=float)[None], params, trie, top_n)[0]
