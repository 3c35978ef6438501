"""From-scratch KMeans and Ward agglomerative clustering with seeded, deterministic behavior.

Distances are squared Euclidean throughout. KMeans runs Lloyd iterations from
k-means++ seeding, keeps the best of a fixed number of seeded restarts, and
repairs empty clusters so the requested cluster count is always met exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-4  # summed squared center shift below which Lloyd stops


@dataclass
class ClusterAssignment:
    """One cluster id per input point, the fitted centers, and the total inertia.

    ``repairs`` counts empty-cluster repairs performed while fitting; it is
    diagnostic only.
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    repairs: int = 0


@dataclass(frozen=True)
class MergeStep:
    """One Ward merge: cluster indices (into the partition before the merge)
    and the merge cost |A||B|/(|A|+|B|) * ||mean_A - mean_B||^2."""

    left: int
    right: int
    delta: float


def _as_points(points) -> np.ndarray:
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise InputError(f"points do not form a rectangular array: {exc}") from exc
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InputError("points must form a non-empty 2-D array")
    if not np.all(np.isfinite(pts)):
        raise InputError("points must be finite")
    return pts


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # All remaining mass sits on already-chosen positions (duplicate
            # points); fall back to the lowest unchosen index.
            idx = next(i for i in range(n) if i not in chosen)
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _fill_empty_clusters(
    points: np.ndarray, labels: np.ndarray, centers: np.ndarray, k: int
) -> tuple[np.ndarray, int]:
    """Move the point farthest from its assigned center into each empty cluster.

    Points that are the sole member of their cluster stay put, so no repair can
    empty another cluster. Ties break toward the lowest point index.
    """
    counts = np.bincount(labels, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return labels, 0
    labels = labels.copy()
    dist_to_own = ((points - centers[labels]) ** 2).sum(axis=1)
    repairs = 0
    for e in empties:
        order = np.argsort(-dist_to_own, kind="stable")
        for p in order:
            p = int(p)
            if counts[labels[p]] <= 1:
                continue
            counts[labels[p]] -= 1
            labels[p] = e
            counts[e] = 1
            dist_to_own[p] = -np.inf  # not a candidate again
            repairs += 1
            break
    return labels, repairs


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    k = centers.shape[0]
    prev_labels: np.ndarray | None = None
    prev_inertia = np.inf
    labels = np.zeros(points.shape[0], dtype=int)
    inertia = 0.0
    repairs = 0
    for _ in range(KMEANS_MAX_ITER):
        labels = _sq_dists(points, centers).argmin(axis=1)
        labels, nrep = _fill_empty_clusters(points, labels, centers, k)
        repairs += nrep
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, points)
        counts = np.bincount(labels, minlength=k)
        new_centers = sums / counts[:, None]
        inertia = float(((points - new_centers[labels]) ** 2).sum())
        assert inertia <= prev_inertia + 1e-9 * max(1.0, abs(prev_inertia)), (
            "inertia increased across a Lloyd iteration"
        )
        prev_inertia = inertia
        shift = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        if shift < KMEANS_TOL:
            break
    return labels, centers, inertia, repairs


def kmeans(points, n_clusters: int, seed: int) -> ClusterAssignment:
    """Cluster ``points`` into exactly ``n_clusters`` non-empty clusters.

    Runs Lloyd iterations from k-means++ seeding and returns the best of
    KMEANS_RESTARTS seeded restarts by inertia (ties favor the earlier
    restart). Identical inputs and seed give bit-identical output.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if not 1 <= n_clusters <= n:
        raise InputError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    best: ClusterAssignment | None = None
    for child in np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        centers0 = _plus_plus_init(pts, n_clusters, rng)
        labels, centers, inertia, repairs = _lloyd(pts, centers0)
        if best is None or inertia < best.inertia:
            best = ClusterAssignment(labels, centers, inertia, repairs)
    assert best is not None
    return best


def ward_merge(centroids, sizes: Sequence[int]) -> MergeStep:
    """Return the cheapest Ward merge for the given partition.

    ``centroids`` holds one row per cluster, ``sizes`` the member counts. Ties
    break toward the smallest (left, right) index pair.
    """
    cents = _as_points(centroids)
    counts = np.asarray(sizes, dtype=float)
    c = cents.shape[0]
    if c < 2:
        raise InputError("a merge needs at least two clusters")
    if counts.shape != (c,) or np.any(counts < 1):
        raise InputError("sizes must list one positive count per cluster")
    best: tuple[float, int, int] | None = None
    for i in range(c - 1):
        diff = cents[i + 1 :] - cents[i]
        d2 = (diff**2).sum(axis=1)
        deltas = counts[i] * counts[i + 1 :] / (counts[i] + counts[i + 1 :]) * d2
        for off, delta in enumerate(deltas):
            cand = (float(delta), i, i + 1 + off)
            if best is None or cand < best:
                best = cand
    assert best is not None
    return MergeStep(best[1], best[2], best[0])


def agglomerate(points) -> list[MergeStep]:
    """Full Ward merge sequence down to a single cluster (length = #points - 1).

    Each step's indices refer to the partition before that step; the merged
    cluster takes the left index and clusters after the right one shift down.
    """
    pts = _as_points(points)
    members: list[list[int]] = [[i] for i in range(pts.shape[0])]
    steps: list[MergeStep] = []
    while len(members) > 1:
        centroids = np.stack([pts[m].mean(axis=0) for m in members])
        step = ward_merge(centroids, [len(m) for m in members])
        members[step.left].extend(members[step.right])
        del members[step.right]
        steps.append(step)
    return steps
