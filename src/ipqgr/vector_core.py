"""Numeric primitives: k-means clustering, backtracking descent and beta sampling."""

from __future__ import annotations

import numpy as np

from .rng import RandomSource

KMEANS_MAX_ITERS = 50  # Lloyd iterations per k-means run, at most
STEP_GROWTH = 1.25  # a descent step starts at this multiple of the last accepted step size


def beta_sample(alpha: float, beta: float, rng: RandomSource, size=None):
    """Beta(alpha, beta) as g1 / (g1 + g2) of two gammas: a float, or an array of shape `size`."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("beta shape parameters must be positive")
    g1 = rng.gamma(alpha, size)
    g2 = rng.gamma(beta, size)
    return g1 / (g1 + g2)


def sq_dist_table(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances, shape (N, K), bit-identical to `((points[:, None] - centroids[None]) ** 2).sum(axis=2)`.

    The table is built one dimension at a time, and the d per-dimension tables
    are added in the order numpy sums a contiguous axis: one after another
    below 8 terms, in eight accumulators up to 128, by halves above that.
    """
    def term(j):
        t = np.subtract.outer(points[:, j], centroids[:, j])
        t *= t
        return t

    def pairwise(lo, n):
        # numpy starts its sum at +0.0, which adds nothing to a square.
        if n < 8:
            acc = term(lo)
            for j in range(lo + 1, lo + n):
                acc += term(j)
            return acc
        if n <= 128:
            r = [term(lo + j) for j in range(8)]
            end = lo + n - n % 8
            for j in range(lo + 8, end):
                r[(j - lo) % 8] += term(j)
            acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for j in range(end, lo + n):
                acc += term(j)
            return acc
        half = n // 2 - n // 2 % 8
        return pairwise(lo, half) + pairwise(lo + half, n - half)

    return pairwise(0, points.shape[1])


def _nearest(points: np.ndarray, centroids: np.ndarray):
    # Squared distances, shape (N, K). argmin breaks ties at the lowest index.
    d2 = sq_dist_table(points, centroids)
    return d2.argmin(axis=1), d2


def _refill(pts: np.ndarray, centroids: np.ndarray, assign: np.ndarray, d2: np.ndarray) -> bool:
    """Reseed each empty cluster in place; returns whether any was reseeded.

    An empty cluster's centroid moves to the point farthest from it among
    the points whose cluster keeps another member, and that point joins it.
    Such a move empties no cluster, so only the clusters empty on entry are
    visited, in index order.
    """
    counts = np.bincount(assign, minlength=len(centroids))
    repaired = False
    for c in np.flatnonzero(counts == 0):
        movable = counts[assign] > 1
        if not movable.any():
            continue
        cand = np.where(movable, d2[:, c], -np.inf)
        p = int(cand.argmax())
        counts[assign[p]] -= 1
        counts[c] += 1
        centroids[c] = pts[p]
        assign[p] = c
        d2[:, c] = ((pts - centroids[c]) ** 2).sum(axis=1)
        repaired = True
    return repaired


def _means(pts: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Each cluster's `pts[assign == c].mean(axis=0)`, bit for bit; every cluster has a member.

    numpy sums a mean's rows one after another from +0.0 when the rows are at
    least 2 wide, as `bincount` does; a 1-wide column it sums pairwise, so that
    case takes the mean of each cluster's contiguous run after one stable sort.
    """
    counts = np.bincount(assign, minlength=k)
    if pts.shape[1] == 1:
        col = pts[np.argsort(assign, kind="stable")]
        ends = np.cumsum(counts)
        return np.array([col[e - c : e].mean(axis=0) for c, e in zip(counts, ends)])
    sums = np.column_stack([np.bincount(assign, weights=pts[:, j], minlength=k) for j in range(pts.shape[1])])
    return sums / counts[:, None]


def kmeans(points, k: int, rng: RandomSource):
    """Lloyd's k-means with seeded init from k distinct input points.

    Empty clusters are reseeded by `_refill`, in each iteration and after
    the final assignment, so every cluster is returned with a member.
    Returns (centroids, assignments); the returned assignments are nearest
    with respect to the returned centroids.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    distinct = np.unique(pts, axis=0)
    if k > distinct.shape[0]:
        raise ValueError(f"k={k} exceeds number of distinct points ({distinct.shape[0]})")

    n = pts.shape[0]
    init_idx = rng.choice_without_replacement(distinct.shape[0], k)
    centroids = distinct[init_idx].copy()

    prev_assign = None
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITERS):
        assign, d2 = _nearest(pts, centroids)
        repaired = _refill(pts, centroids, assign, d2)
        inertia = float(d2[np.arange(n), assign].sum())
        if not repaired:
            # Lloyd iterations cannot increase inertia; a repair step resets
            # the reference because it deliberately perturbs the objective.
            assert inertia <= prev_inertia + 1e-9 * max(1.0, abs(prev_inertia))
        prev_inertia = inertia
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        centroids = _means(pts, assign, k)
    # Each round lowers the inertia unless a reseeded point sat exactly on its
    # old centroid. The assignment this ends with is nearest and fills every cluster.
    final_assign, d2 = _nearest(pts, centroids)
    while _refill(pts, centroids, final_assign, d2):
        final_assign, d2 = _nearest(pts, centroids)
    return centroids, final_assign


def backtracking_descent(objective, params, step: float, steps: int):
    """Up to `steps` descent steps from `params`; returns the last accepted parameters.

    `objective(p)` returns (loss, gradient); `p.step(lr, gradient)` moves
    against it. A trial whose loss does not rise (up to a 1e-9 relative
    slack) is accepted; otherwise its step size halves, and 40 halvings end
    the descent. The first step starts at `step`, each later one at
    min(step, STEP_GROWTH * the last accepted step size).
    """
    cur, grad = objective(params)
    lr = step
    for _ in range(steps):
        for _ in range(40):
            trial = params.step(lr, grad)
            trial_loss, trial_grad = objective(trial)
            if trial_loss <= cur + 1e-9 * max(1.0, abs(cur)):
                params, cur, grad = trial, trial_loss, trial_grad
                break
            lr *= 0.5
        else:
            break
        lr = min(step, STEP_GROWTH * lr)
    return params
