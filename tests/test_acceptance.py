"""End-to-end acceptance checks. Each test prints one pass/fail line."""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

import _datagen as datagen
import _oracles as oracles
from clustem import efficacy, metrics
from clustem.anonymize import PrivacyParams, generate_vghs, search
from clustem.cli import main
from clustem.cluster import agglomerate, kmeans
from clustem.embed import WordVectorProvider
from clustem.tabular import Column, QiSpec, group_ids, load_csv
from clustem.vgh import KMEANS, WARD, build_vgh, read_hierarchy, write_hierarchy
from test_cluster import brute_force_inertia, replayed_partitions
from test_vgh import assert_valid_structure


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL: {title}")
        raise
    print(f"[acceptance] criterion {number} PASS: {title}")


@pytest.fixture(scope="module")
def adult(adult_paths):
    train = load_csv(adult_paths["train"])
    test = load_csv(adult_paths["test"])
    spec = QiSpec(list(datagen.QI), datagen.SA)
    provider = WordVectorProvider(adult_paths["vectors"])
    vghs = generate_vghs(train, spec.qi, provider, WARD, seed=42)
    return {"train": train, "test": test, "spec": spec, "vghs": vghs}


@pytest.fixture(scope="module")
def adult_runs(adult):
    runs = {}
    for k in (2, 5, 10, 30, 200):
        params = PrivacyParams(k=k, l=2, sup_limit=0.5)
        started = time.monotonic()
        [result] = search(adult["train"], adult["spec"], adult["vghs"], [params])
        runs[k] = (result, time.monotonic() - started)
    return runs


def test_criterion_1_search_matches_exhaustive_enumeration():
    with criterion(1, "lattice search equals the exhaustive optimum on 200 instances"):
        rng = np.random.default_rng(20250810)
        started = time.monotonic()
        satisfied_count = {oracles.random_vgh: 0, oracles.random_handwritten_vgh: 0}
        for make_vgh in satisfied_count:
            for _ in range(100):
                table, spec, vghs, params = oracles.random_instance(rng, make_vgh)
                [result] = search(table, spec, vghs, [params])
                satisfying = oracles.exhaustive_satisfying(table, spec, vghs, params)
                if satisfying:
                    assert result.satisfied
                    assert result.loss == min(loss for loss, _ in satisfying)
                    satisfied_count[make_vgh] += 1
                else:
                    assert not result.satisfied
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        # Each generator's draws must exercise the satisfiable path.
        assert all(satisfied_count.values())


KMEANS_FIXTURES = [
    (np.array([[0.0], [1.0], [10.0], [11.0]]), 2),
    (np.array([[0.0], [1.0], [10.0], [11.0]]), 3),
    (np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [9.0, 0.0]]), 3),
    (np.random.default_rng(1).normal(size=(8, 2)), 2),
    (np.random.default_rng(2).normal(size=(8, 3)), 3),
    (np.random.default_rng(3).normal(size=(7, 2)), 4),
    (np.array([[0.0, 0.0]] * 3 + [[4.0, 0.0]] * 2 + [[9.0, 1.0]]), 3),
    (np.random.default_rng(4).uniform(size=(6, 1)), 1),
]

WARD_FIXTURES = [
    np.array([[0.0], [1.0], [10.0], [11.0]]),
    np.random.default_rng(10).normal(size=(5, 2)),
    np.random.default_rng(11).normal(size=(8, 3)),
    np.random.default_rng(12).normal(size=(10, 2)),
    np.random.default_rng(13).uniform(size=(10, 4)),
    np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]),
]


def test_criterion_2_clustering_matches_brute_force():
    with criterion(2, "kmeans and ward agree with brute-force references"):
        for points, k in KMEANS_FIXTURES:
            result = kmeans(points, k, seed=1234)
            assert abs(result.inertia - brute_force_inertia(points, k)) < 1e-9
        for points in WARD_FIXTURES:
            steps = [labels.tolist() for labels in agglomerate(points)]
            assert steps == replayed_partitions(points)


def test_criterion_3_vgh_structure_and_round_trip(tmp_path):
    with criterion(3, "1300 random hierarchies keep every invariant and round-trip"):
        rng = np.random.default_rng(99)
        path = tmp_path / "h.csv"
        second = tmp_path / "h2.csv"
        for draw in range(1000):
            n = int(rng.integers(1, 11))
            dim = int(rng.integers(1, 5))
            method = KMEANS if draw % 2 else WARD
            values = [f"v{i}" for i in range(n)]
            embeddings = {v: rng.normal(size=dim) for v in values}
            vgh = build_vgh(values, embeddings, method, seed=draw, attribute="h")
            assert_valid_structure(vgh)
            write_hierarchy(vgh, str(path))
            assert read_hierarchy(str(path)) == vgh
            write_hierarchy(read_hierarchy(str(path)), str(second))
            assert path.read_bytes() == second.read_bytes()
        # Hand-written labels: set labels of other blocks' leaf names, one
        # string on several levels, and line boundaries other than "\n".
        for _ in range(300):
            vgh = oracles.random_handwritten_vgh(rng, "h", int(rng.integers(1, 11)), max_levels=6)
            assert_valid_structure(vgh)
            write_hierarchy(vgh, str(path))
            assert read_hierarchy(str(path)) == vgh
            write_hierarchy(read_hierarchy(str(path)), str(second))
            assert path.read_bytes() == second.read_bytes()


def test_criterion_4_adult_protocol_at_desk_scale(adult, adult_runs):
    with criterion(4, "k in {2,5,10,30} on the Adult-schema subset meets every bound"):
        train, spec = adult["train"], adult["spec"]
        for k in (2, 5, 10, 30):
            result, elapsed = adult_runs[k]
            params = PrivacyParams(k=k, l=2, sup_limit=0.5)
            assert result.satisfied, f"k={k} not satisfied"
            report = metrics.compute_report(
                result.groups, train.column(spec.sa), params, result.node
            )
            assert report.achieved_k >= k
            assert min(np.unique(result.groups[~result.suppressed], return_counts=True)[1]) >= k
            assert report.perc_recs >= 0.5
            assert report.c_avg >= 1.0
            assert report.achieved_l == 2
            assert elapsed < 300.0, f"k={k} took {elapsed:.1f}s"


def test_criterion_5_efficacy_declines_gently_then_further(adult, adult_runs):
    with criterion(5, "accuracy at k=10 near baseline, not recovered at k=200"):
        spec, test = adult["spec"], adult["test"]
        numeric = [n for n in efficacy.DEFAULT_NUMERIC_FEATURES if test.has_column(n)]

        def accuracy_of(train_table):
            train_fm, test_fm = efficacy.encode(
                train_table, test, spec.qi, numeric, spec.sa, datagen.POSITIVE
            )
            model = efficacy.train_classifier(train_fm)
            return efficacy.evaluate(model, test_fm, datagen.POSITIVE).accuracy

        baseline = accuracy_of(adult["train"])
        acc_k10 = accuracy_of(adult_runs[10][0].table)
        acc_k200 = accuracy_of(adult_runs[200][0].table)
        assert abs(acc_k10 - baseline) <= 0.05, f"baseline={baseline:.4f} k10={acc_k10:.4f}"
        assert acc_k200 <= acc_k10 + 0.01, f"k10={acc_k10:.4f} k200={acc_k200:.4f}"


def test_criterion_6_metric_unit_values():
    with criterion(6, "metric formulas hit their exact reference values"):
        assert metrics.c_avg(12, 3, 4) == 1.0
        sa = Column("s", ["x", "y"])
        one_group = metrics.count_matrix(np.array([0, 0]), sa)
        assert metrics.t_closeness(one_group) == 0.0
        two_groups = metrics.count_matrix(np.array([0, 1]), sa)
        assert metrics.t_closeness(two_groups) == 0.5
        assert metrics.perc_recs(5, 4) == 0.8


def test_criterion_7_pipeline_is_byte_deterministic(adult_paths, tmp_path):
    with criterion(7, "two identical runs write byte-identical CSVs and hierarchies"):
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = main(
                [
                    "anonymize",
                    "--input", adult_paths["train"],
                    "--out", str(out),
                    "--qi", ",".join(datagen.QI),
                    "--sa", datagen.SA,
                    "--k", "5",
                    "--l", "2",
                    "--sup-limit", "0.5",
                    "--method", "ward",
                    "--seed", "42",
                    "--vectors", adult_paths["vectors"],
                ]
            )
            assert code == 0
            outs.append(out)

            # The reported k must be recomputable from the written CSV alone.
            table = load_csv(str(out / "anonymized.csv"))
            ids = group_ids(table, datagen.QI)
            assert min(np.unique(ids[ids >= 0], return_counts=True)[1]) >= 5
        a, b = outs
        assert (a / "anonymized.csv").read_bytes() == (b / "anonymized.csv").read_bytes()
        for attr in datagen.QI:
            assert (a / "hierarchies" / f"{attr}.csv").read_bytes() == (
                b / "hierarchies" / f"{attr}.csv"
            ).read_bytes()
