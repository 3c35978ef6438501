from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from clustem import cluster
from clustem.anonymize import _CodedLattice
from clustem.efficacy import infer_leaves
from clustem.errors import InputError
from clustem.tabular import Column, QiSpec, Table
from clustem.vgh import (
    KMEANS,
    WARD,
    Vgh,
    _merged_levels,
    build_vgh,
    check_values,
    label_leaves,
    read_hierarchy,
    write_hierarchy,
)


def embeddings_1d(values, positions):
    return {v: np.array([float(x)]) for v, x in zip(values, positions)}


def assert_valid_structure(vgh: Vgh):
    """Identity bottom, "*" top, totality, coarsening chain."""
    leaves = vgh.leaves
    levels = oracles.level_dicts(vgh)
    assert all(levels[0][leaf] == leaf for leaf in leaves)
    assert all(levels[-1][leaf] == "*" for leaf in leaves)
    for level in levels:
        assert set(level) == set(leaves)
    for fine, coarse in zip(levels, levels[1:]):
        blocks = {}
        for leaf in leaves:
            blocks.setdefault(fine[leaf], set()).add(coarse[leaf])
        assert all(len(labels) == 1 for labels in blocks.values())


class TestGetCategories:
    def test_mixed_clusters(self):
        out = oracles.get_categories(["a", "b", "c"], [0, 0, 1])
        assert out == {"a": "{a,b}", "b": "{a,b}", "c": "c"}

    def test_all_singletons(self):
        assert oracles.get_categories(["a", "b"], [0, 1]) == {"a": "a", "b": "b"}

    def test_single_cluster(self):
        out = oracles.get_categories(["b", "a", "c"], [7, 7, 7])
        assert out == {"a": "{a,b,c}", "b": "{a,b,c}", "c": "{a,b,c}"}

    def test_parallel_lengths_enforced(self):
        with pytest.raises(InputError):
            oracles.get_categories(["a"], [0, 1])


class TestBuildVgh:
    def test_single_value(self):
        vgh = build_vgh(["v"], {"v": np.zeros(3)}, WARD, attribute="x")
        assert oracles.level_dicts(vgh) == [{"v": "v"}, {"v": "*"}]
        assert_valid_structure(vgh)

    def test_ward_groups_the_close_pair_first(self):
        vgh = build_vgh(["a", "b", "c"], embeddings_1d("abc", [0, 1, 10]), WARD)
        assert oracles.level_dicts(vgh)[1] == {"a": "{a,b}", "b": "{a,b}", "c": "c"}
        assert oracles.level_dicts(vgh)[2] == {v: "{a,b,c}" for v in "abc"}
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

    def test_kmeans_seed_defaults_to_zero(self):
        # Equal spacing ties the first merge, so the seed picks the pair.
        values = ["a", "b", "c"]
        embeddings = embeddings_1d(values, [0, 1, 2])
        default = build_vgh(values, embeddings, KMEANS)
        assert default == build_vgh(values, embeddings, KMEANS, seed=0)
        assert default != build_vgh(values, embeddings, KMEANS, seed=1)

    def test_kmeans_repairs_sum_those_of_the_fits(self, monkeypatch):
        fits = []
        kmeans = cluster.kmeans
        monkeypatch.setattr(cluster, "kmeans", lambda *args: fits.append(kmeans(*args)) or fits[-1])
        values = [f"v{i}" for i in range(6)]
        embeddings = embeddings_1d(values, [0, 0, 0, 0, 5, 5])
        assert build_vgh(values, embeddings, WARD).kmeans_repairs == 0 and not fits
        vgh = build_vgh(values, embeddings, KMEANS, seed=3)
        assert vgh.kmeans_repairs == sum(fit.repairs for fit in fits) > 0

    def test_missing_embedding(self):
        with pytest.raises(InputError, match="missing"):
            build_vgh(["a", "b"], {"a": np.zeros(2)}, WARD)
        # At most five are named.
        listed = r"\['v0', 'v1', 'v2', 'v3', 'v4'\]"
        with pytest.raises(InputError, match=f"^missing embeddings for values: {listed}$"):
            build_vgh([f"v{i}" for i in range(7)], {}, WARD)

    @pytest.mark.parametrize(
        "embeddings, message",
        [
            ({"a": [0.0], "b": [1.0, 2.0]}, "not real vectors of one length"),
            ({"a": None, "b": [1.0]}, "not real vectors of one length"),
            ({"a": [1j], "b": [1.0]}, "not real vectors of one length"),
            ({"a": 0.0, "b": 1.0}, "not 1-D vectors"),
            ({"a": [[0.0]], "b": [[1.0]]}, "not 1-D vectors"),
            # Squared distances overflow: Ward merged {a, b}, the farthest pair, first.
            ({"a": [1e308], "b": [-1e308], "c": [0.0]}, "'a' is not finite or has a component"),
            ({"a": [0.0], "b": [1e100], "c": [-1.01e100]}, "'c' is not finite or has a component"),
            # A numpy cast would keep the real parts, 0 and 1.
            ({"a": np.array([1j]), "b": np.array([1 + 0j])}, "'a' is complex"),
        ],
        ids=[
            "ragged", "none", "complex", "scalar", "matrix", "overflow", "beyond-bound",
            "complex-array",
        ],
    )
    def test_malformed_embeddings_are_input_errors(self, embeddings, message):
        with pytest.raises(InputError, match=message):
            build_vgh(sorted(embeddings), embeddings, WARD, attribute="x")

    def test_non_string_value_is_an_input_error(self):
        with pytest.raises(InputError, match="^value 1 of attribute '' is not a string$"):
            build_vgh([1, 2], {1: [0.0], 2: [1.0]}, WARD)

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


# Distinct values in any order, so that a set label's sorted members often
# differ from their order of appearance.
_VALUES = st.lists(st.text("abcz", min_size=1, max_size=3), min_size=2, max_size=10, unique=True)


def merged_level_dicts(values, partitions):
    return oracles.level_dicts(Vgh("q", values, *_merged_levels(values, partitions)))


def expected_levels(values, partitions):
    """The identity, ``get_categories`` of each partition, and the top."""
    middle = [oracles.get_categories(values, p) for p in partitions]
    return [dict(zip(values, values)), *middle, dict.fromkeys(values, "*")]


class TestMergedLevels:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        values=_VALUES,
        coords=st.lists(st.integers(0, 2), min_size=20, max_size=20),
        dim=st.integers(1, 2),
    )
    def test_ward_partitions_label_as_get_categories(self, values, coords, dim):
        # Coordinates on a small grid, so points repeat and distances tie.
        points = np.array(coords[: len(values) * dim], dtype=float).reshape(len(values), dim)
        partitions = [p.tolist() for p in cluster.agglomerate(points)]
        assert merged_level_dicts(values, partitions) == expected_levels(values, partitions)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(values=_VALUES, data=st.data())
    def test_renumbered_merges_label_as_get_categories(self, values, data):
        # Each level joins two blocks and numbers the blocks afresh, as the
        # k-means levels do.
        blocks = [[i] for i in range(len(values))]
        partitions = []
        while len(blocks) > 1:
            pair = st.lists(st.sampled_from(range(len(blocks))), min_size=2, max_size=2, unique=True)
            a, b = sorted(data.draw(pair))
            blocks[a] += blocks.pop(b)
            ids = data.draw(st.permutations(range(len(blocks))))
            partition = [0] * len(values)
            for block, block_id in zip(blocks, ids):
                for i in block:
                    partition[i] = block_id
            partitions.append(partition)
        assert merged_level_dicts(values, partitions) == expected_levels(values, partitions)


NUMBERING = "codes must be levels x leaves, numbered by first appearance"


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
        assert oracles.level_dicts(vgh)[1]["Private"] == "Non-Government"

    def test_unequal_column_counts(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a;*\nb;b;*\n", encoding="utf-8")
        with pytest.raises(InputError, match="column counts"):
            read_hierarchy(str(path))

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"", "empty line"),
            (b"a;*\nb;b;*\n\nc;*\n", "empty line"),
            (b"a;*\n\nb;*\n\xff\n", "can't decode byte 0xff in position 9"),
            (b"a;*\nb;b;*\nc;c;c;*\nd;*\n", r"column counts \[2, 3, 4\]$"),
            (b"a;*\n" * 3000 + b"\xff", "can't decode byte 0xff in position 12000"),
            (b"\na\n", "empty line"),
        ],
        ids=["no-lines", "empty-after-widths", "utf8-after-empty", "every-width",
             "utf8-past-a-chunk", "empty-first"],
    )
    def test_a_fault_is_reported_by_kind_not_by_place(self, tmp_path, data, message):
        # Not UTF-8 comes first, then an empty line, then unequal widths; a
        # position counts from the start of the file.
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(InputError, match=message):
            read_hierarchy(str(path))

    def test_reading_holds_little_more_than_the_hierarchy(self, tmp_path):
        values = [f"value{i}" for i in range(150)]
        rng = np.random.default_rng(150)
        vgh = build_vgh(values, {v: rng.normal(size=4) for v in values}, WARD, attribute="q")
        path = tmp_path / "q.csv"
        write_hierarchy(vgh, str(path))
        tracemalloc.start()
        try:
            assert read_hierarchy(str(path)) == vgh
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The file grows with the cube of the value count, and the hierarchy
        # with its square.
        assert peak < 1.5 * path.stat().st_size

    def test_checking_the_codes_copies_them_in_their_own_dtype(self):
        values = [f"value{i}" for i in range(150)]
        rng = np.random.default_rng(150)
        vgh = build_vgh(values, {v: rng.normal(size=4) for v in values}, WARD, attribute="q")
        tracemalloc.start()
        try:
            Vgh(vgh.attribute, vgh.leaves, vgh.codes, vgh.labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The running maximum and the step between its neighbours are int32
        # copies of the codes (about 250 kB in all); int64 steps took 590 kB.
        assert peak < 4 * vgh.codes.nbytes

    def test_coarsening_violation(self, tmp_path):
        # Level 1 groups a/b, level 2 splits them again.
        path = tmp_path / "bad.csv"
        path.write_text("a;g;u;*\nb;g;v;*\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"level 2 splits a level-1 block \('g'\)$"):
            read_hierarchy(str(path))

    def test_top_level_must_be_star(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("a;g\nb;g\n", "a;*\nb;g\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(InputError, match=r"top level must map everything to '\*'$"):
                read_hierarchy(str(path))

    @pytest.mark.parametrize(
        "leaves, levels, message",
        [
            ([], [{}], "has no leaves"),
            (["a"], [], "has no levels"),
            (["a", "b"], [{"a": "b", "b": "b"}, {"a": "*", "b": "*"}], "level 0 must be the identity"),
            (["a"], [{"a": "a"}, {"a": "*", "b": "*"}], "level 1 does not map every leaf"),
        ],
        ids=["no-leaves", "no-levels", "level-0-not-identity", "level-maps-a-stranger"],
    )
    def test_malformed_hierarchy_rejected_on_construction(self, leaves, levels, message):
        with pytest.raises(InputError, match=f"^hierarchy for 'x'.* {message}$"):
            Vgh.from_levels("x", leaves, levels)

    def test_split_names_the_block_of_the_first_leaf_that_parts(self, tmp_path):
        # Both level-1 blocks split; leaf d parts from c before b parts from a.
        path = tmp_path / "bad.csv"
        path.write_text("a;g;u;*\nc;h;w;*\nd;h;x;*\nb;g;v;*\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"level 2 splits a level-1 block \('h'\)$"):
            read_hierarchy(str(path))

    @pytest.mark.parametrize(
        "codes, labels, message",
        [
            ([[0, 1], [0, 0], [0, 0]], [["a", "b"], ["*"]], NUMBERING),
            ([[0, 1, 0], [0, 0, 0]], [["a", "b"], ["*"]], NUMBERING),
            ([0, 0], [["a", "b"], ["*"]], NUMBERING),
            ([[0, 1], [0, -1]], [["a", "b"], ["*"]], NUMBERING),
            ([[1, 0], [0, 0]], [["b", "a"], ["*"]], NUMBERING),
            ([[0, 2], [0, 0]], [["a", "b"], ["*"]], NUMBERING),
            ([[0, 1], [0, 0]], [["a", "b"], ["*", "g"]], NUMBERING),
            ([[0, 1, 2], [0, 1, 1], [0, 0, 0]], [["a", "b", "c"], ["g", "g"], ["*"]],
             "level 1 gives two blocks one label"),
            ([[0, 1], [0, 0]], [["a", "b"], ["a"]], "top level must map everything to '\\*'"),
            ([[0, 1], [0, 0]], [["a", "c"], ["*"]], "level 0 must be the identity"),
            # A later code may not be skipped either: 2 comes before 1.
            ([[0, 2, 1], [0, 0, 0]], [["a", "b", "c"], ["*"]], NUMBERING),
        ],
    )
    def test_malformed_codes_rejected_on_construction(self, codes, labels, message):
        with pytest.raises(InputError, match=f"^hierarchy for 'x': .*{message}$"):
            Vgh("x", ["a", "b", "c"][: len(labels[0])], np.array(codes, dtype=np.int32), labels)

    def test_equality_is_attribute_leaves_and_levels(self):
        levels = [{"a": "a", "b": "b", "c": "c"}, {"a": "g", "b": "h", "c": "g"}]
        vgh = Vgh.from_levels("x", ["a", "b", "c"], [*levels, dict.fromkeys("abc", "*")])
        same = Vgh.from_levels("x", ["a", "b", "c"], [*levels, dict.fromkeys("cba", "*")])
        assert vgh == same and vgh.kmeans_repairs == 0
        assert vgh != dataclasses.replace(vgh, attribute="y")
        other = [levels[0], {"a": "g", "b": "g", "c": "h"}, dict.fromkeys("abc", "*")]
        assert vgh != Vgh.from_levels("x", ["a", "b", "c"], other)
        assert vgh != dataclasses.replace(vgh, labels=[["a", "b", "c"], ["h", "g"], ["*"]])
        assert vgh != Vgh.from_levels("x", ["b", "a", "c"], [levels[0], *other[1:]])
        assert vgh != levels

    def test_check_values_rejects_a_repeated_value(self):
        with pytest.raises(InputError, match="^the values of attribute 'x' must be distinct$"):
            check_values(["a", "b", "a"], "x")

    def test_separator_inside_label_rejected_on_construction(self):
        # So no hierarchy whose file would not read back can be written.
        with pytest.raises(InputError, match="separator"):
            Vgh.from_levels("x", ["a;b"], [{"a;b": "a;b"}, {"a;b": "*"}])

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
        for level in oracles.level_dicts(vgh):
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
