from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from clustem.anonymize import _CodedLattice
from clustem.efficacy import infer_leaves
from clustem.errors import InputError
from clustem.tabular import Column, QiSpec, Table
from clustem.vgh import (
    KMEANS,
    WARD,
    Vgh,
    build_vgh,
    check_values,
    get_categories,
    label_leaves,
    read_hierarchy,
    write_hierarchy,
)


def embeddings_1d(values, positions):
    return {v: np.array([float(x)]) for v, x in zip(values, positions)}


def assert_valid_structure(vgh: Vgh):
    """Identity bottom, "*" top, totality, coarsening chain."""
    leaves = vgh.leaves
    assert all(vgh.levels[0][leaf] == leaf for leaf in leaves)
    assert all(vgh.levels[-1][leaf] == "*" for leaf in leaves)
    for level in vgh.levels:
        assert set(level) == set(leaves)
    for fine, coarse in zip(vgh.levels, vgh.levels[1:]):
        blocks = {}
        for leaf in leaves:
            blocks.setdefault(fine[leaf], set()).add(coarse[leaf])
        assert all(len(labels) == 1 for labels in blocks.values())


class TestGetCategories:
    def test_mixed_clusters(self):
        out = get_categories(["a", "b", "c"], [0, 0, 1])
        assert out == {"a": "{a,b}", "b": "{a,b}", "c": "c"}

    def test_all_singletons(self):
        assert get_categories(["a", "b"], [0, 1]) == {"a": "a", "b": "b"}

    def test_single_cluster(self):
        out = get_categories(["b", "a", "c"], [7, 7, 7])
        assert out == {"a": "{a,b,c}", "b": "{a,b,c}", "c": "{a,b,c}"}

    def test_parallel_lengths_enforced(self):
        with pytest.raises(InputError):
            get_categories(["a"], [0, 1])


class TestBuildVgh:
    def test_single_value(self):
        vgh = build_vgh(["v"], {"v": np.zeros(3)}, WARD, attribute="x")
        assert vgh.levels == [{"v": "v"}, {"v": "*"}]
        assert_valid_structure(vgh)

    def test_ward_groups_the_close_pair_first(self):
        vgh = build_vgh(["a", "b", "c"], embeddings_1d("abc", [0, 1, 10]), WARD)
        assert vgh.levels[1] == {"a": "{a,b}", "b": "{a,b}", "c": "c"}
        assert vgh.levels[2] == {v: "{a,b,c}" for v in "abc"}
        assert vgh.level_count == 4
        assert_valid_structure(vgh)

    def test_ward_level_count_tracks_value_count(self):
        for n in (2, 5, 16):
            values = [f"v{i}" for i in range(n)]
            embeddings = embeddings_1d(values, np.arange(n) * 1.7)
            vgh = build_vgh(values, embeddings, WARD)
            assert vgh.level_count == n + 1

    def test_kmeans_level_count_bounds(self):
        for n in (2, 5, 9):
            values = [f"v{i}" for i in range(n)]
            embeddings = embeddings_1d(values, np.arange(n) ** 1.3)
            vgh = build_vgh(values, embeddings, KMEANS, seed=3)
            assert 2 <= vgh.level_count <= n + 1
            assert_valid_structure(vgh)

    @settings(max_examples=40, deadline=None)
    @given(positions=st.lists(st.integers(0, 2), min_size=1, max_size=9), seed=st.integers(0, 999))
    def test_kmeans_merges_two_clusters_per_level(self, positions, seed):
        # Few distinct positions, so most draws embed several values at one point.
        values = [f"v{i}" for i in range(len(positions))]
        vgh = build_vgh(values, embeddings_1d(values, positions), KMEANS, seed=seed)
        assert vgh.level_count == len(values) + 1
        assert_valid_structure(vgh)

    def test_missing_embedding(self):
        with pytest.raises(InputError, match="missing"):
            build_vgh(["a", "b"], {"a": np.zeros(2)}, WARD)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            build_vgh(["a"], {"a": np.zeros(1)}, "dbscan")

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 9),
        dim=st.integers(1, 4),
        method=st.sampled_from([KMEANS, WARD]),
        seed=st.integers(0, 999),
    )
    def test_random_draws_keep_all_invariants(self, n, dim, method, seed):
        values = [f"t{i}" for i in range(n)]
        rng = np.random.default_rng(seed)
        embeddings = {v: rng.normal(size=dim) for v in values}
        vgh = build_vgh(values, embeddings, method, seed=seed)
        assert_valid_structure(vgh)
        if method == WARD and n >= 2:
            assert vgh.level_count == n + 1


class TestHierarchyFiles:
    def test_two_leaf_shape(self, tmp_path):
        vgh = build_vgh(["a", "b"], embeddings_1d("ab", [0, 1]), WARD, attribute="col")
        path = tmp_path / "col.csv"
        write_hierarchy(vgh, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(line.endswith(";*") for line in lines)
        assert lines[0].split(";")[0] == "a"

    def test_round_trip(self, tmp_path):
        values = [f"deg{i}" for i in range(7)]
        rng = np.random.default_rng(1)
        vgh = build_vgh(
            values, {v: rng.normal(size=3) for v in values}, WARD, attribute="education"
        )
        path = tmp_path / "education.csv"
        write_hierarchy(vgh, str(path))
        assert read_hierarchy(str(path)) == vgh

    def test_write_is_byte_deterministic(self, tmp_path):
        values = ["x", "y", "z"]
        vgh = build_vgh(values, embeddings_1d(values, [3, 1, 2]), KMEANS, seed=8)
        write_hierarchy(vgh, str(tmp_path / "a.csv"))
        write_hierarchy(vgh, str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_reads_handwritten_multilevel_file(self, tmp_path):
        # Same layout as published Adult hierarchies: leaf; mid levels; "*".
        path = tmp_path / "workclass.csv"
        path.write_text(
            "Private;Non-Government;*\n"
            "Self-emp-inc;Non-Government;*\n"
            "Federal-gov;Government;*\n"
            "State-gov;Government;*\n",
            encoding="utf-8",
        )
        vgh = read_hierarchy(str(path))
        assert vgh.attribute == "workclass"
        assert vgh.level_count == 3
        assert vgh.levels[1]["Private"] == "Non-Government"

    def test_unequal_column_counts(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a;*\nb;b;*\n", encoding="utf-8")
        with pytest.raises(InputError, match="column counts"):
            read_hierarchy(str(path))

    def test_coarsening_violation(self, tmp_path):
        # Level 1 groups a/b, level 2 splits them again.
        path = tmp_path / "bad.csv"
        path.write_text("a;g;u;*\nb;g;v;*\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"level 2 splits a level-1 block \('g'\)$"):
            read_hierarchy(str(path))

    def test_top_level_must_be_star(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a;g\nb;g\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"\*"):
            read_hierarchy(str(path))

    @pytest.mark.parametrize(
        "leaves, levels, message",
        [
            ([], [{}], "has no leaves"),
            (["a"], [], "has no levels"),
            (["a", "b"], [{"a": "b", "b": "b"}, {"a": "*", "b": "*"}], "level 0 must be the identity"),
        ],
        ids=["no-leaves", "no-levels", "level-0-not-identity"],
    )
    def test_malformed_hierarchy_rejected_on_construction(self, leaves, levels, message):
        with pytest.raises(InputError, match=f"^hierarchy for 'x'.* {message}$"):
            Vgh("x", leaves, levels)

    def test_check_values_rejects_a_repeated_value(self):
        with pytest.raises(InputError, match="^the values of attribute 'x' must be distinct$"):
            check_values(["a", "b", "a"], "x")

    def test_separator_inside_label_rejected_on_construction(self):
        # So no hierarchy whose file would not read back can be written.
        with pytest.raises(InputError, match="separator"):
            Vgh("x", ["a;b"], [{"a;b": "a;b"}, {"a;b": "*"}])

    @pytest.mark.parametrize(
        "text",
        [
            "*\n",  # one level, whose only leaf is "*"
            "*;*\na;*\n",  # "*" as a leaf
            "a;*;*\nb;*;*\nc;c;*\n",  # "*" as the level-1 label of {a,b}
        ],
    )
    def test_suppression_mark_is_only_the_top_label(self, tmp_path, text):
        path = tmp_path / "q.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match=r"'\*'"):
            read_hierarchy(str(path))

    def test_duplicate_leaves_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a;*\na;*\n", encoding="utf-8")
        with pytest.raises(InputError, match="duplicate"):
            read_hierarchy(str(path))


class TestLabelGrammar:
    @pytest.mark.parametrize(
        "label, leaves",
        [("*", []), ("a", ["a"]), ("{a,b}", ["a", "b"]), ("{,a,}", ["a"]), ("{a", ["{a"])],
    )
    def test_label_leaves(self, label, leaves):
        assert label_leaves(label) == leaves

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(["random", KMEANS, WARD]),
        n=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reader_names_the_blocks_the_writer_labelled(self, source, n, seed):
        rng = np.random.default_rng(seed)
        if source == "random":
            vgh = oracles.random_vgh(rng, "q", n)
        else:
            values = [f"q{i}" for i in range(n)]
            vgh = build_vgh(values, {v: rng.normal(size=2) for v in values}, source, seed)
        for level in vgh.levels:
            blocks: dict[str, list[str]] = {}
            for leaf in vgh.leaves:
                blocks.setdefault(level[leaf], []).append(leaf)
            for label, block in blocks.items():
                if label == "*":  # names no leaf itself: it stands for every leaf
                    assert label_leaves(label) == [] and len(block) == len(vgh.leaves)
                else:
                    assert label_leaves(label) == sorted(block)

        # A table generalized at a random node, some rows suppressed.
        rows = [str(rng.choice(vgh.leaves)) for _ in range(int(rng.integers(1, 20)))]
        table = Table([Column("q", rows)])
        lattice = _CodedLattice(table, QiSpec(["q"]), {"q": vgh})
        node = (int(rng.integers(vgh.level_count)),)
        generalized = lattice.generalize(table, node, rng.random(len(rows)) < 0.3)
        assert set(infer_leaves([generalized], ["q"])["q"]) <= set(vgh.leaves)
        for leaf, cell in zip(rows, generalized.column("q").values):
            assert cell == "*" or leaf in label_leaves(cell)
