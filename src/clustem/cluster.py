"""From-scratch KMeans and Ward agglomerative clustering with seeded, deterministic behavior.

Both take their points as a finite float 2-D array (points x features), and
``kmeans`` a cluster count in [1, #points]. Neither checks this: their caller,
``vgh.build_vgh``, checks the embeddings where they enter and asks ``kmeans``
for one cluster fewer than it has points.
Distances are squared Euclidean throughout. KMeans runs Lloyd iterations from
k-means++ seeding, keeps the best of a fixed number of seeded restarts, and
repairs empty clusters so the requested cluster count is always met exactly.
Within one call each point's distance row is computed once and shared by the
restarts, and the seeding draw is numpy's ``Generator.choice`` steps inlined.
Ward keeps a matrix of pairwise merge costs, recomputing only the merged
cluster's row and column after each merge, and returns the partition after
every merge: one cluster id per point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _plus_plus_init(row, n: int, k: int, rng: np.random.Generator) -> list[int]:
    """The indices of k k-means++ seeds; ``row(i)`` gives squared distances to point i."""
    chosen = [int(rng.integers(n))]
    # The uniforms successive choice() calls would draw, in order. A fallback
    # step uses none, and the rng is not used again, so unused ones are harmless.
    uniforms = iter(rng.random(k - 1).tolist())
    d2 = row(chosen[0])
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            # The steps of rng.choice(n, p=d2 / total), which draws one uniform.
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(next(uniforms), side="right"))
        else:
            # All remaining mass sits on already-chosen positions (duplicate
            # points); fall back to the lowest unchosen index.
            idx = int(np.setdiff1d(np.arange(n), chosen)[0])
        chosen.append(idx)
        d2 = np.minimum(d2, row(idx))
    return chosen


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
    # One scan for all empties: a point passed over stays ineligible, since
    # counts only fall, and a moved point is the sole member of its cluster.
    candidates = iter(np.argsort(-dist_to_own, kind="stable").tolist())
    for e in empties:
        for p in candidates:
            if counts[labels[p]] <= 1:
                continue
            counts[labels[p]] -= 1
            labels[p] = e
            counts[e] = 1
            break
    return labels, int(empties.size)


def _lloyd(
    points: np.ndarray, centers: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Lloyd iterations from ``centers``; ``dists`` holds each point's squared
    distance to each of them and is updated in place as the centers move."""
    k = centers.shape[0]
    prev_labels: np.ndarray | None = None
    prev_inertia = np.inf
    labels = np.zeros(points.shape[0], dtype=int)
    inertia = 0.0
    repairs = 0
    for _ in range(KMEANS_MAX_ITER):
        labels = dists.argmin(axis=1)
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
        moved = (new_centers != centers).any(axis=1)
        centers = new_centers
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        if shift < KMEANS_TOL:
            break
        dists[:, moved] = _sq_dists(points, centers[moved])
    return labels, centers, inertia, repairs


def kmeans(points: np.ndarray, n_clusters: int, seed: int) -> ClusterAssignment:
    """Cluster ``points`` into exactly ``n_clusters`` non-empty clusters.

    ``points`` is a finite float 2-D array of n points, and
    1 <= ``n_clusters`` <= n; neither is checked.

    Runs Lloyd iterations from k-means++ seeding and returns the best of
    KMEANS_RESTARTS seeded restarts by inertia (ties favor the earlier
    restart). Identical inputs and seed give bit-identical output.

    Each point's row of squared distances is computed at most once per call
    and shared by the restarts' seeding and first Lloyd assignment (whose
    centers are data points). The seeding draw is numpy's ``Generator.choice``
    steps inlined, on the same uniforms, so it picks what ``choice`` would.
    """
    n = points.shape[0]

    @functools.cache
    def row(i: int) -> np.ndarray:
        return ((points - points[i]) ** 2).sum(axis=1)

    best: ClusterAssignment | None = None
    for child in np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        chosen = _plus_plus_init(row, n, n_clusters, rng)
        dists = np.stack([row(i) for i in chosen], axis=1)
        labels, centers, inertia, repairs = _lloyd(points, points[chosen], dists)
        if best is None or inertia < best.inertia:
            best = ClusterAssignment(labels, centers, inertia, repairs)
    assert best is not None
    return best


def _refresh_costs(cost: np.ndarray, centroids: np.ndarray, sizes: np.ndarray, a: int) -> None:
    """Recompute the Ward cost between cluster ``a`` and every other live cluster."""
    others = np.flatnonzero(sizes)
    others = others[others != a]
    d2 = ((centroids[others] - centroids[a]) ** 2).sum(axis=1)
    w = sizes[a] * sizes[others] / (sizes[a] + sizes[others]) * d2
    left = others < a
    cost[others[left], a] = w[left]
    cost[a, others[~left]] = w[~left]


def agglomerate(points: np.ndarray) -> list[np.ndarray]:
    """Ward's greedy merge sequence down to one cluster, as partitions.

    ``points`` is a finite float 2-D array (points x features); it is not
    checked.

    Returns one int array per merge (#points - 1 of them): entry i is point
    i's cluster after that merge, named by the cluster's smallest point
    index. Each merge joins the pair with the lowest cost
    |A||B|/(|A|+|B|) * ||mean_A - mean_B||^2; ties go to the smallest
    (left, right) pair, clusters ordered by their smallest point.
    """
    n = points.shape[0]
    members: list[list[int]] = [[i] for i in range(n)]
    centroids = points.copy()
    sizes = np.ones(n)  # 0 once a cluster has been merged away
    # cost[a, b] for live a < b, inf elsewhere; argmin takes the first minimum
    # in row-major order, which is the smallest-(left, right) tie-break.
    cost = np.full((n, n), np.inf)
    for a in range(n):
        _refresh_costs(cost, centroids, sizes, a)
    labels = np.arange(n)
    partitions: list[np.ndarray] = []
    for _ in range(n - 1):
        a, b = divmod(int(cost.argmin()), n)
        if a >= b:  # every live pair costs inf, so argmin hit cell 0: take the first live pair
            a, b = np.flatnonzero(sizes)[:2].tolist()
        members[a].extend(members[b])
        labels[members[b]] = a
        members[b] = []
        sizes[a] += sizes[b]
        sizes[b] = 0
        cost[b] = cost[:, b] = np.inf
        centroids[a] = points[members[a]].mean(axis=0)
        _refresh_costs(cost, centroids, sizes, a)
        partitions.append(labels.copy())
    return partitions
