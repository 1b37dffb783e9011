"""Memory-bank construction by PQ-code perturbation and pseudo-query pairs.

Old documents similar to an incoming document are found by flipping a few
positions of the new document's PQ code and looking the perturbed codes up in
an index of previously issued codes. Pseudo queries are sampled as Gaussian
perturbations of a document's embedding; the engine trains each toward the
document's own docid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codebook import Codebook, PqCode
from .rng import RandomSource

# The noise scale of pseudo queries: sd of the Gaussian added to the embedding.
SIGMA = 0.1


class CodeIndex:
    """Lookup from PqCode to the ordered document ids that carry it."""

    def __init__(self):
        self._by_code: dict[PqCode, list] = {}

    @classmethod
    def from_codes(cls, codes: dict) -> "CodeIndex":
        idx = cls()
        for doc_id, code in codes.items():
            idx._by_code.setdefault(tuple(code), []).append(doc_id)
        return idx

    def lookup(self, code: PqCode) -> list:
        return self._by_code.get(tuple(code), [])


@dataclass
class MemoryBank:
    session: int
    ids: dict = field(default_factory=dict)  # old doc id -> None, in the order the search first found it

    def doc_ids(self) -> list:
        return list(self.ids)


def max_perturb_dims(m: int) -> int:
    """Largest number of code positions the bank search may flip."""
    return max(1, m // 6)


def _selectable(cb: Codebook) -> list[tuple[int, int]]:
    """(position, centroid count) of every group with at least two centroids."""
    return [(d, g.n_centroids) for d, g in enumerate(cb.groups) if g.n_centroids >= 2]


def perturb_codes(code: PqCode, o: int, c: int, selectable: list, rng: RandomSource) -> list[PqCode]:
    """Draw up to c codes differing from `code` in exactly o positions.

    Only the `selectable` positions, as `_selectable` lists them, can change;
    if fewer than o exist, no perturbation exists and the result is empty.
    Duplicates across the c draws are removed, preserving draw order.
    """
    if o < 1 or c < 1:
        raise ValueError(f"need o >= 1 and c >= 1, got o={o}, c={c}")
    if len(selectable) < o:
        return []
    out: dict[PqCode, None] = {}
    for _ in range(c):
        new = code
        for i in rng.choice_without_replacement(len(selectable), o):
            d, k_d = selectable[i]
            alt = int(rng.integers(k_d - 1))
            if alt >= code[d]:
                alt += 1
            new = new[:d] + (alt,) + new[d + 1 :]
        out[new] = None
    return list(out)


def build_memory_bank(
    new_codes: dict,
    index: CodeIndex,
    c: int,
    cb: Codebook,
    rng: RandomSource,
    session: int,
) -> MemoryBank:
    """Collect old documents reachable by perturbing each new document's code.

    The flip count o sweeps 1..max_perturb_dims(M) for each new document in
    turn, and each old document is recorded once, where the search first
    finds it. Each (new document, o) uses a stream derived from the id and o,
    so the set of old documents is independent of iteration order.
    """
    selectable = _selectable(cb)
    bank = MemoryBank(session=session)
    for doc_id, code in new_codes.items():
        for o in range(1, max_perturb_dims(cb.n_groups) + 1):
            for cand in perturb_codes(tuple(code), o, c, selectable, rng.derive(doc_id, o)):
                for old_id in index.lookup(cand):
                    bank.ids.setdefault(old_id)
    return bank


def generate_pseudo_queries(embedding: np.ndarray, n_q: int, rng: RandomSource) -> np.ndarray:
    """Sample n_q noisy copies of a document embedding (noise sd SIGMA) as pseudo queries, one per row."""
    if n_q < 1:
        raise ValueError("n_q must be >= 1")
    embedding = np.asarray(embedding, dtype=float)
    return embedding + SIGMA * rng.normal((n_q, *embedding.shape))
