"""Surrogate generative-retrieval decoder.

Docids are length-M PQ codes; the decoder factorizes the docid likelihood
into M independent linear-softmax heads conditioned on the query or document
embedding. Training is full-batch gradient descent on summed cross-entropy
losses plus an optional Fisher-weighted quadratic anchor to the previous
session's parameters. Retrieval decodes codes with beam search constrained to
a prefix trie of assigned docids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, PqCode

Pair = tuple[np.ndarray, PqCode]  # (conditioning vector, target code)

# Queries decoded together by `beam_search`; bounds the size of its score arrays.
BEAM_BLOCK = 64
# Pairs per block of the training loss; bounds its (block x ΣK) logit buffers.
LOSS_BLOCK = 64


@dataclass
class DecoderParams:
    """Per-group score matrices W_m (K_m x D) and biases b_m (K_m)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    session: int = 0

    @classmethod
    def zeros(cls, sizes: list[int], dim: int, session: int = 0) -> "DecoderParams":
        return cls(
            weights=[np.zeros((k, dim)) for k in sizes],
            biases=[np.zeros(k) for k in sizes],
            session=session,
        )

    @property
    def n_groups(self) -> int:
        return len(self.weights)

    def sizes(self) -> list[int]:
        return [w.shape[0] for w in self.weights]

    def copy(self) -> "DecoderParams":
        return DecoderParams(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases], self.session
        )

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


@dataclass
class FisherDiag:
    """Diagonal Fisher estimate, shaped like the DecoderParams it was taken at."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


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


def group_log_probs(params: DecoderParams, e: np.ndarray) -> list[np.ndarray]:
    """Per-group log-softmax score vectors for a conditioning vector."""
    return [lp[0] for lp in _log_softmax_block(params, np.asarray(e, dtype=float)[None])]


def docid_log_prob(e: np.ndarray, code: PqCode, params: DecoderParams) -> float:
    """log p(code | e) summed over the M factorized positions."""
    if len(code) != params.n_groups:
        raise ValueError(f"code length {len(code)} != {params.n_groups} groups")
    logps = group_log_probs(params, e)
    total = 0.0
    for m, k in enumerate(code):
        if not 0 <= k < params.weights[m].shape[0]:
            raise ValueError(f"centroid index {k} out of range in group {m}")
        total += float(logps[m][k])
    return total


@dataclass(frozen=True)
class PairBatch:
    """Training pairs stacked once: vectors (n x D) and target codes (n x M)."""

    vecs: np.ndarray
    codes: np.ndarray

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


def _as_batch(pairs: PairBatch | list[Pair]) -> PairBatch:
    if not len(pairs):
        raise ValueError("pair list must be non-empty")
    return pairs if isinstance(pairs, PairBatch) else PairBatch.stack(pairs)


@dataclass(frozen=True)
class FlatParams:
    """Every group's score rows in one matrix: W (ΣK x D) and b (ΣK).

    Group m owns `sizes[m]` rows from `starts[m]`; `group[j]` is the group of
    row j. Training descends on this layout, so a step is one array op.
    """

    weights: np.ndarray
    biases: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    group: np.ndarray

    @classmethod
    def of(cls, params: DecoderParams) -> "FlatParams":
        sizes = np.array(params.sizes())
        return cls(
            np.concatenate(params.weights),
            np.concatenate(params.biases),
            np.cumsum(sizes) - sizes,
            sizes,
            np.repeat(np.arange(len(sizes)), sizes),
        )

    @property
    def n_groups(self) -> int:
        return len(self.sizes)

    def split(self, rows: np.ndarray) -> list[np.ndarray]:
        """Per-group views of an array laid out like `weights` or `biases`."""
        return [rows[s : s + k] for s, k in zip(self.starts.tolist(), self.sizes.tolist())]

    def step(self, lr: float, d_w: np.ndarray, d_b: np.ndarray) -> "FlatParams":
        return FlatParams(self.weights - lr * d_w, self.biases - lr * d_b, self.starts, self.sizes, self.group)

    def to_params(self, session: int) -> DecoderParams:
        return DecoderParams(self.split(self.weights), self.split(self.biases), session)


def _as_flat(params: DecoderParams | FlatParams) -> FlatParams:
    return params if isinstance(params, FlatParams) else FlatParams.of(params)


def _in_layout_of(params, flat: FlatParams, d_w: np.ndarray, d_b: np.ndarray):
    """Flat gradients as given, or split per group when `params` is DecoderParams."""
    return (d_w, d_b) if params is flat else (flat.split(d_w), flat.split(d_b))


def _target_columns(batch: PairBatch, flat: FlatParams) -> np.ndarray:
    """Each pair's target row per group in the flat layout (`codes + starts`).

    Raises ValueError naming the first pair whose code does not have one
    position per group or has a position outside [0, K_m).
    """
    codes = batch.codes
    if codes.shape[1] != flat.n_groups:
        raise ValueError(
            f"pair 0: code {tuple(codes[0].tolist())} has {codes.shape[1]} positions, "
            f"the decoder has {flat.n_groups} groups"
        )
    bad = (codes < 0) | (codes >= flat.sizes)
    if bad.any():
        i = int(bad.any(axis=1).argmax())
        raise ValueError(
            f"pair {i}: code {tuple(codes[i].tolist())} is outside the group sizes {flat.sizes.tolist()}"
        )
    return codes + flat.starts


def _segmented_nll(vecs: np.ndarray, cols: np.ndarray, flat: FlatParams, squared: bool = False):
    """-Σ log p(targets) and the sums of G.T @ X and of G over the pairs.

    G = softmax - onehot(targets), per group, is the gradient of -log p with
    respect to the logits. With `squared`, G**2 and X**2 replace G and X: the
    sums the diagonal Fisher needs. Pairs go in blocks of LOSS_BLOCK, each
    through two preallocated (block x ΣK) buffers, so memory does not grow
    with the batch.
    """
    n, (total, dim) = len(vecs), flat.weights.shape
    logits = np.empty((min(n, LOSS_BLOCK), total))
    work = np.empty_like(logits)
    # Each target's position in a block's raveled buffer.
    at = cols + (np.arange(n) % LOSS_BLOCK * total)[:, None]
    target_logp = np.empty((flat.n_groups, n))
    d_w, d_b = np.zeros((total, dim)), np.zeros(total)
    for lo in range(0, n, LOSS_BLOCK):
        x, t = vecs[lo : lo + LOSS_BLOCK], at[lo : lo + LOSS_BLOCK]
        z, g = logits[: len(x)], work[: len(x)]
        np.matmul(x, flat.weights.T, out=z)
        z += flat.biases
        z -= np.take(np.maximum.reduceat(z, flat.starts, axis=1), flat.group, axis=1, out=g, mode="clip")
        np.exp(z, out=g)
        norm = np.add.reduceat(g, flat.starts, axis=1)
        target_logp[:, lo : lo + len(x)] = (z.ravel()[t] - np.log(norm)).T
        g /= np.take(norm, flat.group, axis=1, out=z, mode="clip")
        g.ravel()[t] -= 1.0
        if squared:
            np.square(g, out=g)
            x = x**2
        d_w += g.T @ x
        d_b += g.sum(axis=0)
    # Per group, then across groups in order: the sums a per-group loop takes.
    return -sum(target_logp.sum(axis=1).tolist()), d_w, d_b


def mle_loss(pairs: PairBatch | list[Pair], params: DecoderParams | FlatParams):
    """Negative log-likelihood of the target codes; analytic gradients.

    The gradients come in the layout of `params`: per-group lists for
    DecoderParams, single arrays for FlatParams.
    """
    batch = _as_batch(pairs)
    flat = _as_flat(params)
    loss, d_w, d_b = _segmented_nll(batch.vecs, _target_columns(batch, flat), flat)
    return loss, _in_layout_of(params, flat, d_w, d_b)


def estimate_fisher(pairs: PairBatch | list[Pair], params: DecoderParams) -> FisherDiag:
    """Empirical diagonal Fisher: mean squared per-pair gradient of -log p."""
    batch = _as_batch(pairs)
    flat = FlatParams.of(params)
    _, f_w, f_b = _segmented_nll(batch.vecs, _target_columns(batch, flat), flat, squared=True)
    f_w /= len(batch)
    f_b /= len(batch)
    return FisherDiag(flat.split(f_w), flat.split(f_b))


def ewc_loss(params: DecoderParams | FlatParams, prev: DecoderParams, fisher: FisherDiag):
    """Fisher-weighted squared distance to the previous parameters.

    Rows appended after `prev` was trained have no counterpart and are
    excluded from both the loss and its gradient. The gradients come in the
    layout of `params`, as in `mle_loss`.
    """
    if params.n_groups != prev.n_groups:
        raise ValueError("group count mismatch")
    flat = _as_flat(params)
    grads = (np.zeros_like(flat.weights), np.zeros_like(flat.biases))
    weights, biases, d_w, d_b = (flat.split(a) for a in (flat.weights, flat.biases, *grads))
    loss = 0.0
    for m in range(params.n_groups):
        r = prev.weights[m].shape[0]
        if weights[m].shape[0] < r or weights[m].shape[1] != prev.weights[m].shape[1]:
            raise ValueError(f"group {m} shrank or changed width relative to previous params")
        dw = weights[m][:r] - prev.weights[m]
        db = biases[m][:r] - prev.biases[m]
        loss += float((fisher.weights[m] * dw**2).sum() + (fisher.biases[m] * db**2).sum())
        d_w[m][:r] = 2.0 * fisher.weights[m] * dw
        d_b[m][:r] = 2.0 * fisher.biases[m] * db
    return loss, _in_layout_of(params, flat, *grads)


def align_to_codebook(params: DecoderParams, cb: Codebook) -> DecoderParams:
    """Append zero rows for centroids added since the decoder was trained."""
    out = params.copy()
    for m, k in enumerate(cb.sizes()):
        have = out.weights[m].shape[0]
        if k < have:
            raise ValueError(f"group {m}: codebook has fewer centroids ({k}) than decoder rows ({have})")
        if k > have:
            dim = out.weights[m].shape[1]
            out.weights[m] = np.vstack([out.weights[m], np.zeros((k - have, dim))])
            out.biases[m] = np.concatenate([out.biases[m], np.zeros(k - have)])
    return out


def train_session(
    prev: DecoderParams,
    cb: Codebook,
    doc_pairs: list[Pair],
    bank_pairs: list[Pair],
    pseudo_pairs: list[Pair],
    fisher: FisherDiag | None,
    lam: float,
    step: float,
    steps: int,
) -> DecoderParams:
    """Full-batch descent on MLE(new) + MLE(bank) + MLE(pseudo) + lam * EWC.

    The three pair lists are stacked into one batch once per session, and
    descent runs on the flat (ΣK x D) layout of the parameters. The step size
    is halved (deterministically, per step) whenever the full step would
    increase the loss, which keeps the loss non-increasing.
    """
    params = align_to_codebook(prev, cb)
    params.session = prev.session + 1
    pairs = doc_pairs + bank_pairs + pseudo_pairs
    if steps <= 0 or not pairs:
        return params
    batch = PairBatch.stack(pairs)
    flat, session = FlatParams.of(params), params.session
    del params  # `flat` holds a copy of its rows; drop the per-group one
    anchored = lam != 0.0 and fisher is not None

    def objective(p: FlatParams):
        loss, (d_w, d_b) = mle_loss(batch, p)
        if anchored:
            l, (gw, gb) = ewc_loss(p, prev, fisher)
            loss += lam * l
            gw *= lam
            gb *= lam
            d_w += gw
            d_b += gb
        return loss, (d_w, d_b)

    cur, grads = objective(flat)
    for _ in range(steps):
        lr = step
        accepted = False
        for _ in range(40):
            trial = flat.step(lr, *grads)
            trial_loss, trial_grads = objective(trial)
            if trial_loss <= cur + 1e-9 * max(1.0, abs(cur)):
                flat, cur, grads = trial, trial_loss, trial_grads
                accepted = True
                break
            lr *= 0.5
        if not accepted:
            break
    return flat.to_params(session)


class DocidTrie:
    """Prefix tree over assigned PQ codes; leaves keep insertion-ordered doc ids.

    Search reads the tree as flat per-level arrays, built on first use after
    the last insert. Level m holds the distinct length-(m+1) prefixes in
    lexicographic order. `centroids[m]` is each node's last centroid index,
    and the children of node j of level m-1 (the root for m = 0) are the
    level-m nodes `offsets[m][j]:offsets[m][j + 1]`. A final offsets array
    maps each leaf to its doc ids in `doc_ids`, which is in leaf order.
    """

    def __init__(self):
        self._docs: dict[PqCode, list] = {}
        self._levels: tuple | None = None

    @classmethod
    def from_codes(cls, codes: dict) -> "DocidTrie":
        trie = cls()
        for doc_id, code in codes.items():
            trie.insert(tuple(code), doc_id)
        return trie

    def insert(self, code: PqCode, doc_id) -> None:
        self._docs.setdefault(tuple(code), []).append(doc_id)
        self._levels = None

    def docs_for(self, code: PqCode) -> list:
        return self._docs.get(tuple(code), [])

    def __len__(self) -> int:
        return len(self._docs)

    def n_docs(self) -> int:
        return sum(len(v) for v in self._docs.values())

    def levels(self) -> tuple:
        """(centroids, offsets, doc_ids, doc_rank); doc_rank orders doc_ids ascending."""
        if self._levels is None:
            leaves = sorted(self._docs)
            codes = np.array(leaves, dtype=np.int64)
            # changed[i, m]: leaf i + 1 and leaf i differ in their first m + 1 positions.
            changed = np.logical_or.accumulate(codes[1:] != codes[:-1], axis=1)
            # Per level, the leaf row where each node's subtree starts.
            firsts = [np.flatnonzero(np.r_[True, c]) for c in changed.T]
            centroids = [codes[first, m] for m, first in enumerate(firsts)]
            offsets = [np.array([0, len(firsts[0])])]
            for parent, child in zip(firsts, firsts[1:]):
                offsets.append(np.append(np.searchsorted(child, parent), len(child)))
            counts = [len(self._docs[code]) for code in leaves]
            offsets.append(np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]))
            doc_ids = [d for code in leaves for d in self._docs[code]]
            doc_rank = np.empty(len(doc_ids), dtype=np.int64)
            doc_rank[sorted(range(len(doc_ids)), key=doc_ids.__getitem__)] = np.arange(len(doc_ids))
            self._levels = (centroids, offsets, doc_ids, doc_rank)
        return self._levels


def _expand(offsets: np.ndarray, node: np.ndarray, *carried: np.ndarray):
    """Every child of each node, with the node's carried values repeated."""
    lo, counts = offsets[node], offsets[node + 1] - offsets[node]
    total = int(counts.sum())
    child = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(total)
    return (child, *(np.repeat(c, counts) for c in carried))


def _take_top(limit: int, query: np.ndarray, score: np.ndarray, tie: np.ndarray, *carried):
    """Per query, the `limit` best entries by descending score, then ascending tie.

    `query` must be sorted. The sort keeps it so, so an entry's rank within its
    query is its distance from the query's first entry.
    """
    order = np.lexsort((tie, -score, query))
    order = order[np.arange(len(query)) - np.searchsorted(query, query) < limit]
    return tuple(a[order] for a in (query, score, tie, *carried))


def _beam_block(logps, trie: DocidTrie, beam: int, top_n: int) -> list[list]:
    centroids, offsets, doc_ids, doc_rank = trie.levels()
    n_queries = len(logps[0])
    query, score = np.arange(n_queries), np.zeros(n_queries)
    node = np.zeros(n_queries, dtype=np.int64)  # the root, shared by every query
    for m, logp in enumerate(logps):
        node, query, score = _expand(offsets[m], node, query, score)
        score = score + logp[query, centroids[m][node]]
        query, score, node = _take_top(beam, query, score, node)
    doc, query, score = _expand(offsets[-1], node, query, score)
    query, score, _, doc = _take_top(top_n, query, score, doc_rank[doc], doc)
    results: list[list] = [[] for _ in range(n_queries)]
    for q, d, s in zip(query.tolist(), doc.tolist(), score.tolist()):
        results[q].append((doc_ids[d], s))
    return results


def beam_search(
    queries: np.ndarray,
    params: DecoderParams,
    trie: DocidTrie,
    beam: int,
    top_n: int,
) -> list[list[tuple[object, float]]]:
    """Decode docids for each query (rows of `queries`), restricted to the trie.

    Each level keeps the `beam` best prefixes per query by descending score,
    ties broken by ascending prefix. Returns, per query, up to top_n
    (doc_id, log-prob) entries sorted by score descending, ties broken by
    ascending doc id. Code collisions expand to every carrier of the code, all
    sharing the code's score. Queries run in blocks of BEAM_BLOCK.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    queries = np.asarray(queries, dtype=float)
    if len(trie) == 0:
        return [[] for _ in range(len(queries))]
    if len(trie.levels()[0]) != params.n_groups:
        raise ValueError(f"trie codes do not have {params.n_groups} positions, one per decoder group")
    results = []
    for lo in range(0, len(queries), BEAM_BLOCK):
        logps = _log_softmax_block(params, queries[lo : lo + BEAM_BLOCK])
        results.extend(_beam_block(logps, trie, beam, top_n))
    return results


def constrained_beam_search(
    q: np.ndarray,
    params: DecoderParams,
    trie: DocidTrie,
    beam: int,
    top_n: int,
) -> list[tuple[object, float]]:
    """`beam_search` for a single query vector."""
    return beam_search(np.asarray(q, dtype=float)[None], params, trie, beam, top_n)[0]
