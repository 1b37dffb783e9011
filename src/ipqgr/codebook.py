"""Product-quantization codebook: base construction, quantization, reconstruction.

A codebook holds M sub-codebooks, one per vector group. Each sub-codebook
keeps its group's sub-vector of every coded document, in arrival order, and
per centroid the rows of its members: the documents it was clustered from,
those that moved it by a streaming-mean update, and the one that seeded it if
it was added incrementally. Documents that only take a centroid's index are
not members. The incremental update thresholds are functions of the members'
distances to the current centroid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .rng import RandomSource
from .vector_core import kmeans

PqCode = tuple[int, ...]


@dataclass
class SubCodebook:
    """Centroids, the group's document sub-vectors and each centroid's member rows."""

    centroids: np.ndarray  # (K_m, sub_dim)
    vecs: np.ndarray | None = None  # (N, sub_dim), in the order the documents were coded
    members: tuple = ()  # per centroid, its members' rows of `vecs` in ascending order

    @property
    def n_centroids(self) -> int:
        return self.centroids.shape[0]

    @property
    def member_vecs(self) -> tuple[np.ndarray, ...]:
        """Each centroid's member sub-vectors, gathered by row."""
        return tuple(self.vecs.take(rows, axis=0) for rows in self.members)


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

    def vectors(self, rows=slice(None)) -> np.ndarray:
        """The coded documents' vectors at `rows` (default all): each group's sub-vectors side by side."""
        return np.hstack([g.vecs[rows] for g in self.groups])


def split_groups(x, m: int) -> list[np.ndarray]:
    """Split a D-dim vector into M contiguous sub-vectors of dim D/M."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if m < 1 or x.shape[0] % m != 0:
        raise ValueError(f"dimension {x.shape[0]} not divisible by {m} groups")
    return list(x.reshape(m, x.shape[0] // m))


def split_rows(a, counts) -> list:
    """Consecutive row blocks of `a` with the given row counts, as views (or slices of a tuple)."""
    ends = list(itertools.accumulate(counts))
    return [a[e - c : e] for c, e in zip(counts, ends)]


def member_rows(codes: np.ndarray, rows: np.ndarray, k: int) -> tuple[tuple[int, ...], ...]:
    """`rows` by their code in `codes` (one group's column): k tuples of ascending rows."""
    counts = np.bincount(codes[rows], minlength=k).tolist()
    keys = codes[rows].astype(np.int64)  # code * n + row orders by code, then row; in place
    keys *= len(codes)
    keys += rows
    keys.sort()
    keys %= max(len(codes), 1)
    return tuple(split_rows(tuple(keys.tolist()), counts))


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
        try:
            centroids, codes[:, g] = kmeans(sub, k, rng.derive("kmeans", g))
        except ValueError as exc:
            raise ValueError(f"group {g} cannot be clustered into k_clusters={k}: {exc}") from None
        groups.append(SubCodebook(centroids, sub.copy(), member_rows(codes[:, g], np.arange(n), k)))
    return Codebook(session=0, dim=dim, groups=groups), codes
