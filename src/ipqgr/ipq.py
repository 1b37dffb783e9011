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
from dataclasses import dataclass

import numpy as np

from .codebook import Codebook, PqCode, split_groups
from .rng import RandomSource


class InvalidStateError(RuntimeError):
    """An operation was attempted against inconsistent engine state."""


class UpdateKind(enum.Enum):
    UNCHANGED = "unchanged"
    CHANGED = "changed"
    ADDED = "added"


THRESHOLD_MODES = ("none", "ad_only", "md_only", "both")


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


def compute_thresholds(sub_codebook, k: int, rng: RandomSource) -> Thresholds:
    """Adaptive thresholds for cluster k: ad = mean, md = max + U(0, ad)."""
    members = sub_codebook.member_vecs[k]
    if len(members) == 0:
        raise InvalidStateError(f"cluster {k} has no members")
    dists = np.sqrt(((members - sub_codebook.centroids[k]) ** 2).sum(axis=1))
    ad = float(dists.mean())
    md = float(dists.max()) + float(rng.uniform(0.0, ad))
    return Thresholds(ad=ad, md=md)


def classify(dist: float, th: Thresholds) -> UpdateKind:
    """Three-way decision; boundary distances fall into the Changed branch."""
    if dist < 0:
        raise ValueError("distance must be non-negative")
    if dist < th.ad:
        return UpdateKind.UNCHANGED
    if dist <= th.md:
        return UpdateKind.CHANGED
    return UpdateKind.ADDED


def _decide(dist: float, th: Thresholds, mode: str) -> UpdateKind:
    if mode == "both":
        return classify(dist, th)
    if mode == "ad_only":
        # No new centroids: everything at or beyond ad moves the centroid.
        return UpdateKind.UNCHANGED if dist < th.ad else UpdateKind.CHANGED
    if mode == "md_only":
        # No unchanged branch: everything within md moves the centroid.
        return UpdateKind.CHANGED if dist <= th.md else UpdateKind.ADDED
    raise ValueError(f"unknown threshold mode {mode!r}")


def ingest_session(
    cb: Codebook,
    new_docs: list[tuple[object, np.ndarray]],
    rng: RandomSource,
    threshold_mode: str = "both",
    target_session: int | None = None,
) -> tuple[Codebook, dict, list[UpdateDecision]]:
    """Apply one session of documents to a codebook.

    Documents are processed in input order and each document's code reflects
    the codebook state after its own update, so centroids added earlier in the
    session are visible to later documents. Returns the next-session codebook,
    a doc-id -> PqCode map, and the per-group decision log.
    """
    if threshold_mode not in THRESHOLD_MODES:
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    t = cb.session + 1
    if target_session is not None and target_session != t:
        raise InvalidStateError(
            f"codebook is at session {cb.session}, cannot produce session {target_session}"
        )
    out = cb.copy()
    out.session = t
    codes: dict = {}
    log: list[UpdateDecision] = []

    for doc_id, x in new_docs:
        x = np.asarray(x, dtype=float)
        if x.shape != (cb.dim,):
            raise ValueError(f"expected vector of dim {cb.dim}, got {x.shape}")
        subs = split_groups(x, out.n_groups)
        code = []
        for m, (group, sub) in enumerate(zip(out.groups, subs)):
            k, dist = group.nearest(sub)
            if threshold_mode == "none":
                code.append(k)
                log.append(UpdateDecision(doc_id, m, UpdateKind.UNCHANGED, k, dist, None, None))
                continue
            th = compute_thresholds(group, k, rng)
            kind = _decide(dist, th, threshold_mode)
            if kind is UpdateKind.UNCHANGED:
                code.append(k)
            elif kind is UpdateKind.CHANGED:
                group.add_member(k, sub)
                size = len(group.member_vecs[k])
                group.centroids[k] = group.centroids[k] + (sub - group.centroids[k]) / size
                code.append(k)
            else:
                new_k = group.add_centroid(sub)
                code.append(new_k)
                k = new_k
            log.append(UpdateDecision(doc_id, m, kind, k, dist, th.ad, th.md))
        codes[doc_id] = tuple(code)
    return out, codes, log


def decision_log_lines(session: int, log: list[UpdateDecision]) -> list[str]:
    """Line-delimited JSON records of a session's update decisions."""
    lines = []
    for d in log:
        lines.append(
            json.dumps(
                {
                    "session": session,
                    "doc_id": d.doc_id,
                    "group": d.group,
                    "kind": d.kind.value,
                    "dist": d.dist,
                    "ad": d.ad,
                    "md": d.md,
                },
                sort_keys=True,
            )
        )
    return lines
