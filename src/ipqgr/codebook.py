"""Product-quantization codebook: base construction, quantization, reconstruction.

A codebook holds M sub-codebooks, one per vector group. Each sub-codebook
keeps the member sub-vectors of every centroid: those it was clustered from,
those that moved it by a streaming-mean update, and the one that seeded it if
it was added incrementally. Documents that only take a centroid's index are
not members. The incremental update thresholds are functions of the members'
distances to the current centroid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import RandomSource
from .vector_core import kmeans

PqCode = tuple[int, ...]


@dataclass
class SubCodebook:
    """Centroids and their member sub-vectors for one vector group."""

    centroids: np.ndarray  # (K_m, sub_dim)
    member_vecs: list[np.ndarray] = field(default_factory=list)

    @property
    def n_centroids(self) -> int:
        return self.centroids.shape[0]


@dataclass
class Codebook:
    """M sub-codebooks over a D-dimensional space, versioned by session."""

    session: int
    dim: int
    groups: list[SubCodebook]

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def sub_dim(self) -> int:
        return self.dim // self.n_groups

    def quantize(self, x) -> PqCode:
        """Per-group nearest-centroid code for `x` (ties to lowest index)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of dim {self.dim}, got {x.shape}")
        subs = split_groups(x, self.n_groups)
        return tuple(int(((g.centroids - s) ** 2).sum(axis=1).argmin()) for g, s in zip(self.groups, subs))

    def reconstruct(self, code: PqCode) -> np.ndarray:
        """Concatenation of the centroids selected by `code`."""
        if len(code) != self.n_groups:
            raise ValueError(f"code length {len(code)} != {self.n_groups} groups")
        parts = []
        for g, k in zip(self.groups, code):
            if not 0 <= k < g.n_centroids:
                raise ValueError(f"centroid index {k} out of range [0, {g.n_centroids})")
            parts.append(g.centroids[k])
        return np.concatenate(parts)

    def sizes(self) -> list[int]:
        return [g.n_centroids for g in self.groups]


def split_groups(x, m: int) -> list[np.ndarray]:
    """Split a D-dim vector into M contiguous sub-vectors of dim D/M."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if m < 1 or x.shape[0] % m != 0:
        raise ValueError(f"dimension {x.shape[0]} not divisible by {m} groups")
    return list(x.reshape(m, x.shape[0] // m))


def build_base_codebook(embeddings, m: int, k: int, rng: RandomSource) -> Codebook:
    """Session-0 codebook: k-means per group with memberships from assignments."""
    return cluster_base(embeddings, m, k, rng)[0]


def cluster_base(embeddings, m: int, k: int, rng: RandomSource) -> tuple[Codebook, np.ndarray]:
    """`build_base_codebook` and its (n x m) codes, k-means' final assignments.

    Row i is `quantize(embeddings[i])`: nearest, with ties to the lowest index.
    """
    embs = np.asarray(embeddings, dtype=float)
    if embs.ndim != 2:
        raise ValueError("embeddings must be a 2-D array")
    n, dim = embs.shape
    if n < k:
        raise ValueError(f"need at least k={k} documents, got {n}")
    if dim % m != 0:
        raise ValueError(f"dimension {dim} not divisible by {m} groups")

    sub_dim = dim // m
    groups, codes = [], np.empty((n, m), dtype=np.int64)
    for g in range(m):
        sub = embs[:, g * sub_dim : (g + 1) * sub_dim]
        centroids, codes[:, g] = kmeans(sub, k, rng.derive("kmeans", g))
        groups.append(SubCodebook(centroids, [sub[codes[:, g] == c] for c in range(k)]))
    return Codebook(session=0, dim=dim, groups=groups), codes
