"""Incremental codebook update for new document sessions.

When a session of new documents arrives, each document sub-vector is compared
against its nearest centroid and two adaptive thresholds decide whether that
centroid is left alone, moved by a streaming-mean step, or a new centroid is
appended. Existing centroid indices are never reassigned or removed, so codes
issued in earlier sessions stay valid forever.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, SubCodebook
from .rng import RandomSource
from .vector_core import sq_dist_table


class InvalidStateError(RuntimeError):
    """An operation was attempted against inconsistent engine state."""


class UpdateKind(enum.Enum):
    UNCHANGED = "unchanged"
    CHANGED = "changed"
    ADDED = "added"


THRESHOLD_MODES = ("none", "ad_only", "md_only", "both")

# Documents per block of a group's squared distances to its centroids, which
# bounds that table to DIST_BLOCK x (centroids + DIST_BLOCK) floats.
DIST_BLOCK = 256


@dataclass(frozen=True)
class Thresholds:
    ad: float  # mean member distance to the centroid
    md: float  # max member distance plus uniform slack in [0, ad]


@dataclass(frozen=True)
class UpdateDecision:
    doc_id: object
    group: int
    kind: UpdateKind
    cluster: int
    dist: float
    ad: float | None
    md: float | None


def classify(dist: float, th: Thresholds, mode: str = "both") -> UpdateKind:
    """Three-way decision; boundary distances fall into the Changed branch.

    Under "ad_only" nothing adds a centroid: everything at or beyond ad moves
    it. Under "md_only" nothing is left unchanged: everything within md moves it.
    """
    if dist < 0:
        raise ValueError("distance must be non-negative")
    if dist < th.ad and mode != "md_only":
        return UpdateKind.UNCHANGED
    if dist <= th.md or mode == "ad_only":
        return UpdateKind.CHANGED
    return UpdateKind.ADDED


def ingest_session(
    cb: Codebook,
    new_docs: list[tuple[object, np.ndarray]],
    rng: RandomSource,
    threshold_mode: str = "both",
) -> tuple[Codebook, dict, list[UpdateDecision]]:
    """Apply one session of documents to a codebook.

    Documents are processed in input order and each document's code reflects
    the codebook state after its own update, so centroids added earlier in the
    session are visible to later documents. A group's decisions read only its
    own sub-vectors, centroids and members, so the groups go one at a time.
    Vectors must be finite. Returns the next-session codebook, a doc-id ->
    PqCode map, and the decision log in document-major order.
    """
    if threshold_mode not in THRESHOLD_MODES:
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    # The groups are rebuilt below: arrays and member tuples are shared, never written.
    out = Codebook(cb.session + 1, cb.dim, [SubCodebook(g.centroids, g.vecs, g.members) for g in cb.groups])
    rows = [np.asarray(x, dtype=float) for _, x in new_docs]
    for x in rows:
        if x.shape != (cb.dim,):
            raise ValueError(f"expected vector of dim {cb.dim}, got {x.shape}")
    subs = np.reshape(rows, (len(rows), out.n_groups, out.sub_dim))
    # One U(0, ad) per (document, group), in document-major order: numpy draws
    # it as 0 + ad * u, so md is max + ad * u.
    slack = None if threshold_mode == "none" else rng.uniform(size=subs.shape[:2]).tolist()
    ids = [doc_id for doc_id, _ in new_docs]
    by_group = [_ingest_group(g, m, ids, subs[:, m], slack, threshold_mode) for m, g in enumerate(out.groups)]
    codes, log = {}, []
    for doc_id, made in zip(ids, zip(*by_group)):
        codes[doc_id] = tuple(d.cluster for d in made)
        log += made
    return out, codes, log


def _ingest_group(group, m: int, ids: list, subs: np.ndarray, slack, mode: str) -> list[UpdateDecision]:
    """Group m's decision for each document, in order; updates `group` in place.

    Squared distances to the centroids are one `sq_dist_table` per block of
    DIST_BLOCK documents; a decision that moves or adds a centroid recomputes
    its column only. A cluster's (ad, max) is cached until a decision changes
    it. The documents' sub-vectors are appended to the group's, and a member
    joins its cluster as a row index.
    """
    k_now, first, members = group.n_centroids, len(group.vecs), list(group.members)
    vecs = np.concatenate([group.vecs, subs])
    cents = np.concatenate([group.centroids, np.empty_like(subs)])
    stats: dict[int, tuple[float, float]] = {}
    made = []
    for lo in range(0, len(subs), DIST_BLOCK):
        block = subs[lo : lo + DIST_BLOCK]
        d2 = np.empty((len(block), k_now + len(block)))
        d2[:, :k_now] = sq_dist_table(block, cents[:k_now])
        for j, sub in enumerate(block):
            k = int(d2[j, :k_now].argmin())
            dist = math.sqrt(d2[j, k])
            if mode == "none":
                made.append(UpdateDecision(ids[lo + j], m, UpdateKind.UNCHANGED, k, dist, None, None))
                continue
            if k not in stats:
                if not members[k]:
                    raise InvalidStateError(f"group {m}, cluster {k} has no members")
                dists = np.sqrt(((vecs.take(members[k], axis=0) - cents[k]) ** 2).sum(axis=1))
                # numpy's mean of float64 is the same sum divided by the count.
                stats[k] = float(dists.sum()) / len(dists), float(dists.max())
            ad, top = stats[k]
            if not math.isfinite(ad):
                raise ValueError(f"group {m}, cluster {k}: mean member distance {ad} is not finite")
            md = top + ad * slack[lo + j][m]
            kind = classify(dist, Thresholds(ad, md), mode)
            if kind is UpdateKind.CHANGED:
                members[k] += (first + lo + j,)
                cents[k] = cents[k] + (sub - cents[k]) / len(members[k])
                del stats[k]
            elif kind is UpdateKind.ADDED:
                k, k_now = k_now, k_now + 1
                cents[k], stats[k] = sub, (0.0, 0.0)
                members.append((first + lo + j,))
            if kind is not UpdateKind.UNCHANGED:
                d2[j + 1 :, k] = ((cents[k] - block[j + 1 :]) ** 2).sum(axis=1)
            made.append(UpdateDecision(ids[lo + j], m, kind, k, dist, ad, md))
    group.vecs, group.members, group.centroids = vecs, tuple(members), cents[:k_now].copy()
    return made


def decision_log_lines(session: int, log: list[UpdateDecision]) -> list[str]:
    """Line-delimited JSON records of a session's update decisions."""
    fields = ("doc_id", "group", "dist", "ad", "md")
    return [
        json.dumps({"session": session, "kind": d.kind.value, **{f: getattr(d, f) for f in fields}},
                   sort_keys=True)
        for d in log
    ]
