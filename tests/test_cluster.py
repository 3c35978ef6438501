from __future__ import annotations

import itertools

import numpy as np
import pytest
from _oracles import reference_kmeans
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustem import cluster
from clustem.cluster import agglomerate, kmeans
from clustem.errors import InputError
from clustem.vgh import build_vgh


def set_partitions(items, k):
    """All partitions of ``items`` into exactly k non-empty blocks."""
    if k == 1:
        yield [list(items)]
        return
    if len(items) == k:
        yield [[x] for x in items]
        return
    head, rest = items[0], items[1:]
    for smaller in set_partitions(rest, k - 1):
        yield [[head]] + [list(b) for b in smaller]
    for smaller in set_partitions(rest, k):
        for i in range(len(smaller)):
            yield [b + [head] if i == j else list(b) for j, b in enumerate(smaller)]


def brute_force_inertia(points: np.ndarray, k: int) -> float:
    best = np.inf
    for blocks in set_partitions(list(range(len(points))), k):
        total = 0.0
        for block in blocks:
            sub = points[block]
            total += ((sub - sub.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return float(best)


def lance_williams_ward(points: np.ndarray) -> list[tuple[int, int]]:
    """Independent greedy Ward sequence via the Lance-Williams recursion."""
    n = len(points)
    sizes = [1] * n
    dist = {}
    for i, j in itertools.combinations(range(n), 2):
        dist[(i, j)] = float(((points[i] - points[j]) ** 2).sum()) / 2.0
    merges = []
    while len(sizes) > 1:
        (i, j) = min(dist, key=lambda p: (dist[p], p))
        merges.append((i, j))
        si, sj = sizes[i], sizes[j]
        new_dist = {}
        for a, b in dist:
            if j in (a, b):
                continue
            if i in (a, b):
                c = b if a == i else a
                d_ic = dist[(min(i, c), max(i, c))]
                d_jc = dist[(min(j, c), max(j, c))]
                d_ij = dist[(i, j)]
                sc = sizes[c]
                merged = (
                    (si + sc) * d_ic + (sj + sc) * d_jc - sc * d_ij
                ) / (si + sj + sc)
                cc = c - 1 if c > j else c
                new_dist[(min(i, cc), max(i, cc))] = merged
            else:
                aa = a - 1 if a > j else a
                bb = b - 1 if b > j else b
                new_dist[(min(aa, bb), max(aa, bb))] = dist[(a, b)]
        sizes[i] = si + sj
        del sizes[j]
        dist = new_dist
    return merges


def replayed_partitions(points: np.ndarray) -> list[list[int]]:
    """``lance_williams_ward``'s merges as partitions: after each merge, point
    i's cluster, named by the cluster's smallest point index."""
    clusters = [[i] for i in range(len(points))]
    partitions = []
    for left, right in lance_williams_ward(points):
        clusters[left] += clusters.pop(right)
        labels = [0] * len(points)
        for members in clusters:
            for i in members:
                labels[i] = min(members)
        partitions.append(labels)
    return partitions


@st.composite
def kmeans_problems(draw):
    """(points, k, seed): 1-14 points in 1-4 dims, often on a small integer
    grid so that duplicates, zero-mass seeding and empty clusters are common."""
    m = draw(st.integers(1, 14))
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        cells = st.integers(0, 2).map(float)
    else:
        cells = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    rows = st.lists(cells, min_size=d, max_size=d)
    points = np.array(draw(st.lists(rows, min_size=m, max_size=m)))
    return points, draw(st.integers(1, m)), draw(st.integers(0, 2**32 - 1))


def partitions(points) -> list[list[int]]:
    return [labels.tolist() for labels in agglomerate(points)]


class TestKmeans:
    def test_each_point_its_own_center(self):
        pts = np.array([[0.0], [3.0], [7.0]])
        res = kmeans(pts, 3, seed=0)
        assert res.inertia == 0.0
        assert sorted(res.centers.ravel()) == [0.0, 3.0, 7.0]

    def test_single_cluster_is_the_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 4.0], [4.0, 2.0]])
        res = kmeans(pts, 1, seed=0)
        assert np.allclose(res.centers, [[2.0, 2.0]])
        assert set(res.labels) == {0}

    def test_two_separated_pairs(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = kmeans(pts, 2, seed=0)
        assert abs(res.inertia - brute_force_inertia(pts, 2)) < 1e-9
        assert res.labels[0] == res.labels[1] != res.labels[2] == res.labels[3]
        assert sorted(res.centers.ravel()) == [0.5, 10.5]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_brute_force_on_small_sets(self, k):
        rng = np.random.default_rng(77)
        pts = rng.normal(size=(7, 2))
        res = kmeans(pts, k, seed=5)
        assert abs(res.inertia - brute_force_inertia(pts, k)) < 1e-9

    def test_inertia_matches_definition(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 3))
        res = kmeans(pts, 4, seed=9)
        recomputed = ((pts - res.centers[res.labels]) ** 2).sum()
        assert abs(res.inertia - recomputed) < 1e-12

    def test_labels_are_argmin_at_convergence(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 2))
        res = kmeans(pts, 5, seed=1)
        dists = ((pts[:, None, :] - res.centers[None, :, :]) ** 2).sum(axis=2)
        best = dists.min(axis=1)
        chosen = dists[np.arange(len(pts)), res.labels]
        assert np.allclose(chosen, best)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(25, 4))
        a = kmeans(pts, 3, seed=42)
        b = kmeans(pts, 3, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia

    def test_duplicate_points_still_fill_every_cluster(self):
        pts = np.array([[0.0, 0.0]] * 3 + [[10.0, 0.0]])
        res = kmeans(pts, 3, seed=0)
        assert len(set(res.labels.tolist())) == 3


class TestPoints:
    """Neither clustering checks its points: ``build_vgh``, which hands them the
    caller's embeddings, refuses those they cannot take, for either method."""

    @pytest.mark.parametrize("method", ["kmeans", "ward"], ids=["kmeans", "agglomerate"])
    @pytest.mark.parametrize(
        "points, message",
        [([], "no values"), ([[0.0], [np.nan]], "not finite"), ([[0.0, np.inf]], "not finite")],
        ids=["empty", "nan", "inf"],
    )
    def test_empty_or_non_finite_points_are_input_errors(self, method, points, message):
        values = [f"v{i}" for i in range(len(points))]
        with pytest.raises(InputError, match=message):
            build_vgh(values, dict(zip(values, points)), method)


class TestKmeansMatchesReference:
    """``kmeans`` shares distance rows across restarts and inlines the seeding
    draw; every output must stay bit-equal to the former code's."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(problem=kmeans_problems())
    # Identical points: the seeding finds no mass left (the lowest-unchosen
    # fallback), and every point ties to center 0, so clusters 1 and 2 are
    # repaired.
    @example(problem=(np.zeros((3, 2)), 3, 0))
    # After one seed on the triple and one on the far point no mass is left:
    # the third seed (from the fallback) duplicates the first, and its empty
    # cluster is repaired.
    @example(problem=(np.array([[0.0, 0.0]] * 3 + [[10.0, 0.0]]), 3, 0))
    def test_bit_equal_to_reference(self, problem):
        points, k, seed = problem
        got, want = kmeans(points, k, seed), reference_kmeans(points, k, seed)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.centers, want.centers)
        assert got.inertia == want.inertia
        assert got.repairs == want.repairs

    def test_vgh_levels_equal_those_built_by_reference(self, monkeypatch):
        rng = np.random.default_rng(30)
        values = [f"v{i}" for i in range(30)]
        embeddings = dict(zip(values, rng.normal(size=(30, 16))))
        built = build_vgh(values, embeddings, "kmeans", seed=42)
        monkeypatch.setattr(cluster, "kmeans", reference_kmeans)
        assert built == build_vgh(values, embeddings, "kmeans", seed=42)

    def test_numpy_choice_is_one_uniform_and_a_cdf_search(self):
        """The seeding relies on this: after ``integers(n)``, successive
        ``choice(n, p=p_i)`` calls pick what one ``random(m)`` call and the cdf
        steps pick, and consume as much of the stream."""
        draws = np.random.default_rng(5)
        for seed in range(40):
            n, m = int(draws.integers(1, 12)), int(draws.integers(1, 8))
            weights = draws.random((m, n)) * (draws.random((m, n)) < 0.6)
            weights[:, int(draws.integers(n))] += 1.0
            ps = [w / float(w.sum()) for w in weights]
            with_choice, inlined = np.random.default_rng(seed), np.random.default_rng(seed)
            picks = [int(with_choice.integers(n))]
            picks += [int(with_choice.choice(n, p=p)) for p in ps]
            steps = [int(inlined.integers(n))]
            for p, u in zip(ps, inlined.random(m)):
                cdf = p.cumsum()
                cdf /= cdf[-1]
                steps.append(int(cdf.searchsorted(u, side="right")))
            assert picks == steps
            assert with_choice.bit_generator.state == inlined.bit_generator.state


class TestAgglomerate:
    def test_single_point(self):
        assert agglomerate(np.array([[1.0]])) == []

    def test_two_points(self):
        assert partitions(np.array([[0.0], [2.0]])) == [[0, 0]]

    def test_collinear_pairs_merge_first(self):
        assert partitions(np.array([[0.0], [1.0], [10.0], [11.0]])) == [
            [0, 0, 2, 3],
            [0, 0, 2, 2],
            [0, 0, 0, 0],
        ]

    @pytest.mark.parametrize("n", [3, 5, 8, 10])
    def test_matches_lance_williams_recursion(self, n):
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 3))
        assert partitions(pts) == replayed_partitions(pts)

    def test_matches_lance_williams_on_a_planar_draw(self):
        pts = np.random.default_rng(123).normal(size=(6, 2))
        assert partitions(pts) == replayed_partitions(pts)

    @pytest.mark.parametrize(
        "pts",
        [
            np.arange(8.0)[:, None],  # equally spaced: every neighbour pair ties
            np.array([[0.0, 0.0]] * 3 + [[4.0, 0.0]] * 2 + [[9.0, 1.0]] * 2),
            np.array([[x, y] for x in range(3) for y in range(3)], dtype=float),
        ],
        ids=["equal-spacing", "duplicates", "grid"],
    )
    def test_exact_ties_break_like_lance_williams(self, pts):
        assert partitions(pts) == replayed_partitions(pts)

    def test_size_weights_decide_the_order(self):
        # After the duplicates merge, {0, 1} is 6 from point 2 and point 3 is
        # 6.5 from it, but 2*1/3 * 36 = 24 exceeds 1*1/2 * 42.25 = 21.125.
        pts = np.array([[0.0], [0.0], [6.0], [12.5]])
        steps = partitions(pts)
        assert steps[1] == [0, 0, 2, 2]
        assert steps == replayed_partitions(pts)

    def test_overflowing_costs_still_merge_the_first_pair(self):
        with np.errstate(over="ignore"):
            steps = partitions(np.array([[1e200], [2e200], [-1e200]]))
        assert steps == [[0, 0, 2], [0, 0, 0]]
