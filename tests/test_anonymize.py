from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import re
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _datagen as datagen
import _oracles as oracles
from clustem import anonymize
from clustem.anonymize import (
    _PASS,
    _UNKNOWN,
    PrivacyParams,
    _classify,
    _CodedLattice,
    _ranking,
    check_plan,
    generate_vghs,
    loss,
    search,
)
from clustem.embed import HttpApiProvider, WordVectorProvider, embed_all
from clustem.errors import InputError, ProviderError
from clustem.tabular import (
    DENSE_RANGE_FACTOR,
    Column,
    QiSpec,
    Table,
    distinct_rows,
    fold,
    group_ids,
    load_csv,
)
from clustem.vgh import METHODS, WARD, Vgh, build_vgh
from conftest import make_table


@pytest.fixture
def ab_vgh():
    return build_vgh(
        ["a", "b"], {"a": np.array([0.0]), "b": np.array([1.0])}, "ward", attribute="q"
    )


@pytest.fixture
def abc_table_spec():
    table = make_table(q=["a", "a", "b"], s=["x", "y", "x"])
    return table, QiSpec(["q"], "s")


class TestPrivacyParams:
    def test_validation(self):
        with pytest.raises(InputError):
            PrivacyParams(k=0)
        with pytest.raises(InputError):
            PrivacyParams(k=1, l=0)
        with pytest.raises(InputError):
            PrivacyParams(k=1, sup_limit=1.5)


class TestLoss:
    def test_endpoints(self, ab_vgh):
        vghs = [ab_vgh, ab_vgh]
        assert loss((0, 0), vghs) == 0.0
        assert loss((2, 2), vghs) == 1.0

    def test_mixed_node(self, ab_vgh):
        assert loss((1, 0), [ab_vgh, ab_vgh]) == 0.25

    def test_single_level_hierarchy_contributes_zero(self):
        # A valid Vgh has at least two levels; loss only reads the level counts.
        flat = SimpleNamespace(attribute="c", level_count=1)
        assert loss((0, 1), [flat, Vgh("q", ["a"], [{"a": "a"}, {"a": "*"}])]) == 0.5

    @pytest.mark.parametrize(
        "node, message",
        [
            ((0,), "node length does not match the hierarchy count"),
            ((0, 3), "level 3 out of range for 'q'"),
            ((-1, 0), "level -1 out of range for 'q'"),
        ],
        ids=["short", "above-the-top", "negative"],
    )
    def test_a_node_outside_the_lattice_is_an_input_error(self, ab_vgh, node, message):
        with pytest.raises(InputError, match=re.escape(message)):
            loss(node, [ab_vgh, ab_vgh])


@pytest.fixture
def abc_vgh():
    return build_vgh(
        ["a", "b", "c"],
        {v: np.array([float(i)]) for i, v in enumerate("abc")},
        "ward",
        attribute="q",
    )


class TestApplyNode:
    """Generalizing the table at a node, from the coded lattice."""

    def generalize(self, table, spec, vgh, node, mask=None):
        mask = np.zeros(table.row_count, dtype=bool) if mask is None else np.asarray(mask)
        return _CodedLattice(table, spec, {"q": vgh}).generalize(table, node, mask)

    def test_identity_node_is_a_no_op(self, abc_table_spec, ab_vgh):
        table, spec = abc_table_spec
        out = self.generalize(table, spec, ab_vgh, (0,))
        assert out.column("q").values == ["a", "a", "b"]
        assert out.column("s") == table.column("s")

    def test_top_node_stars_everything(self, abc_table_spec, ab_vgh):
        table, spec = abc_table_spec
        out = self.generalize(table, spec, ab_vgh, (2,))
        assert out.column("q").values == ["*", "*", "*"]

    def test_middle_level_label(self, abc_table_spec, ab_vgh):
        table, spec = abc_table_spec
        out = self.generalize(table, spec, ab_vgh, (1,))
        assert out.column("q").values == ["{a,b}", "{a,b}", "{a,b}"]
        assert out.row_count == table.row_count

    def test_masked_rows_are_starred(self, abc_table_spec, ab_vgh):
        table, spec = abc_table_spec
        out = self.generalize(table, spec, ab_vgh, (1,), [False, True, False])
        assert out.column("q").values == ["{a,b}", "*", "{a,b}"]
        assert out.column("s") == table.column("s")

    def test_unknown_leaf_names_column_and_value(self, ab_vgh):
        table = make_table(q=["zzz"])
        with pytest.raises(InputError, match=r"'zzz' in column 'q'"):
            list(search(table, QiSpec(["q"]), {"q": ab_vgh}, [PrivacyParams(k=1)]))


class TestCheckPrivacy:
    """The per-node check and per-row group ids of the coded lattice."""

    def test_vacuous_params_always_satisfied(self, toy_table, abc_vgh):
        lattice = _CodedLattice(toy_table, QiSpec(["q"], "s"), {"q": abc_vgh})
        params = PrivacyParams(k=1, l=1)
        assert lattice.check((0,), params)
        assert (lattice.groups((0,), params) >= 0).all()

    def test_group_suppression_within_limit(self, toy_table, abc_vgh):
        spec = QiSpec(["q"], "s")
        lattice = _CodedLattice(toy_table, spec, {"q": abc_vgh})
        params = PrivacyParams(k=2, l=2, sup_limit=0.2)
        assert lattice.check((0,), params)
        groups = lattice.groups((0,), params)
        assert groups.tolist() == [0, 0, 1, 1, -1]
        out = lattice.generalize(toy_table, (0,), groups < 0)
        assert out.column("q").values == ["a", "a", "b", "b", "*"]

    def test_same_suppression_over_tighter_limit_fails(self, toy_table, abc_vgh):
        lattice = _CodedLattice(toy_table, QiSpec(["q"], "s"), {"q": abc_vgh})
        params = PrivacyParams(k=2, l=2, sup_limit=0.1)
        assert not lattice.check((0,), params)
        assert (lattice.groups((0,), params) < 0).sum() == 1

    def test_l_above_one_requires_sa(self, abc_table_spec, ab_vgh):
        # check_plan owns the rule; search applies it before its first result.
        table, spec = abc_table_spec
        sweep = [PrivacyParams(k=1), PrivacyParams(k=1, l=2)]
        check_plan(table, spec, {"q": ab_vgh}, sweep)
        with pytest.raises(InputError, match="sensitive"):
            check_plan(table, QiSpec(["q"]), {"q": ab_vgh}, sweep)
        for rows in (table, make_table(q=[])):
            with pytest.raises(InputError, match="sensitive"):
                next(search(rows, QiSpec(["q"]), {"q": ab_vgh}, sweep))

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("qi", "quasi-identifier column 'nope' not in table"),
            ("sa", "sensitive attribute 'nope' not in table"),
            ("l", "l-diversity above 1 requires a sensitive attribute"),
            ("leaf", "value 'pilot' in column 'job' is not a hierarchy leaf"),
            ("cap", "generalization lattice has 4 nodes, above the 3 limit"),
        ],
    )
    def test_search_refuses_each_plan_fault_with_the_cli_message(
        self, monkeypatch, fault, message
    ):
        table = make_table(job=["cook", "nurse", "pilot"], s=["x", "y", "x"])
        values = ["cook", "nurse"] if fault == "leaf" else ["cook", "nurse", "pilot"]
        embeddings = {v: np.array([float(i)]) for i, v in enumerate(values)}
        vghs = {"job": build_vgh(values, embeddings, WARD, attribute="job")}
        spec, sweep = QiSpec(["job"], "s"), [PrivacyParams(k=1)]
        if fault == "qi":
            spec = QiSpec(["nope"], "s")
        elif fault == "sa":
            spec = QiSpec(["job"], "nope")
        elif fault == "l":
            spec, sweep = QiSpec(["job"]), [PrivacyParams(k=1, l=2)]
        elif fault == "cap":
            monkeypatch.setattr(anonymize, "MAX_LATTICE_NODES", 3)  # the hierarchy has 4 levels
        with pytest.raises(InputError) as checked:
            check_plan(table, spec, vghs, sweep)
        with pytest.raises(InputError) as searched:
            next(search(table, spec, vghs, sweep))
        assert str(checked.value) == str(searched.value) == message


RADICES = [1, 2, 3, 7, 2**20, 2**31]


@st.composite
def code_columns(draw):
    """1-5 integer columns of 0-60 rows, each drawn from a few values below its
    radix so that rows repeat; two radices of 2**31 force the renumbering."""
    radices = draw(st.lists(st.sampled_from(RADICES), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 60))
    columns = []
    for radix in radices:
        pool = draw(st.lists(st.integers(0, radix - 1), min_size=1, max_size=4))
        picks = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        columns.append(np.array(picks, dtype=np.int64))
    return columns, radices


def _mixed_radix(row: Sequence[int], radices: Sequence[int]) -> int:
    return functools.reduce(lambda key, pair: key * pair[1] + pair[0], zip(row, radices), 0)


@st.composite
def dense_or_sparse_folds(draw):
    """1-3 integer columns whose radix product lies on either side of the
    presence-table switch (DENSE_RANGE_FACTOR times the row count), with
    radix-1 columns and empty columns among them."""
    n_rows = draw(st.integers(0, 40))
    limit = DENSE_RANGE_FACTOR * n_rows
    radices = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    scale = draw(st.sampled_from([1, max(limit // math.prod(radices), 1), limit + 1]))
    radices[-1] *= scale
    columns = [
        np.array(draw(st.lists(st.integers(0, r - 1), min_size=n_rows, max_size=n_rows)),
                 dtype=np.int64)
        for r in radices
    ]
    return columns, radices


class TestFold:
    @settings(max_examples=300, deadline=None)
    @given(drawn=code_columns())
    @example(drawn=([np.array([2**31 - 1, 0, 2**31 - 1, 5])] * 3, [2**31] * 3))
    @example(drawn=([np.zeros(0, dtype=np.int64)] * 2, [2**31, 2**31]))
    # Products of 3 * 2**60, which packs as is, and 7 * 2**60, which renumbers.
    @example(drawn=([np.array([2**20 - 1, 0, 1])] * 3 + [np.array([2, 0, 1])], [2**20] * 3 + [3]))
    @example(drawn=([np.array([2**20 - 1, 0, 1])] * 3 + [np.array([6, 0, 1])], [2**20] * 3 + [7]))
    def test_matches_unique_rows(self, drawn):
        columns, radices = drawn
        ids, keys = fold(columns, radices)
        stacked = np.stack(columns, axis=1)
        distinct, expected_ids = np.unique(stacked, axis=0, return_inverse=True)
        assert ids.tolist() == expected_ids.reshape(-1).tolist()
        assert len(keys) == len(distinct) and (np.diff(keys) > 0).all()
        assert keys.max(initial=0) < 2**62
        if math.prod(radices) < 2**62:
            assert keys.tolist() == [_mixed_radix(row, radices) for row in distinct.tolist()]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(drawn=dense_or_sparse_folds())
    @example(drawn=([np.zeros(0, dtype=np.int64)] * 2, [3, 5]))
    @example(drawn=([np.zeros(6, dtype=np.int64), np.arange(6)], [1, 6]))
    @example(drawn=([np.arange(5), np.arange(5)], [5, DENSE_RANGE_FACTOR]))  # at the switch
    @example(drawn=([np.array([2**31 - 1, 0, 2**31 - 1, 5])] * 3, [2**31] * 3))  # renumbers
    def test_ids_and_pair_counts_match_the_reference_fold(self, drawn):
        # The per-check folds on both sides of the presence-table switch,
        # against the frozen sort-based fold: the same ids, and the same
        # distinct (group, last column) pairs per group, as _bad_groups counts.
        columns, radices = drawn
        ids, _ = fold(columns, radices)
        expected_ids, _ = oracles.reference_fold(columns, radices)
        assert ids.tolist() == expected_ids.tolist()

        # distinct_rows against a dict over the row tuples, in first-appearance order.
        rows = list(zip(*(column.tolist() for column in columns)))
        number: dict[tuple, int] = {}
        for row in rows:
            number.setdefault(row, len(number))
        got = distinct_rows([(column, range(r)) for column, r in zip(columns, radices)])
        assert [part.tolist() for part in got] == [
            [number[row] for row in rows],
            [rows.index(row) for row in number],
            [rows.count(row) for row in number],
        ]

        groups, n_last = len(set(ids.tolist())), radices[-1]
        _, pairs = fold([ids, columns[-1]], [groups, n_last])
        _, first = oracles.reference_fold([ids, columns[-1]], [groups, n_last])
        assert (
            np.bincount(pairs // n_last, minlength=groups).tolist()
            == np.bincount(ids[first], minlength=groups).tolist()
        )


class TestGenerateVghs:
    class NeverFetched:
        provider_id = "never-fetched"

        def fetch(self, values):
            raise AssertionError(f"fetched {values!r}")

    @pytest.mark.parametrize("bad", ["a,b", "{a}", "a;b", "a\nb", "a\rb", ""])
    def test_every_column_is_checked_before_any_is_embedded(self, bad):
        table = make_table(p=["x", "y"], q=["c", bad])
        with pytest.raises(InputError, match=re.escape(repr(bad))):
            generate_vghs(table, ["p", "q"], self.NeverFetched(), WARD)

    class Counting:
        provider_id = "counting"

        def __init__(self):
            self.calls = []

        def fetch(self, values):
            self.calls.append(list(values))
            return [np.array([float(len(v)), float(ord(v[0]))]) for v in values]

    @pytest.mark.parametrize("method", METHODS)
    def test_one_fetch_embeds_every_column(self, method):
        table = make_table(p=["cook", "nurse", "cook"], q=["pilot", "nurse", "ab"])
        provider = self.Counting()
        vghs = generate_vghs(table, ["p", "q"], provider, method, seed=3)
        assert provider.calls == [["ab", "cook", "nurse", "pilot"]]
        for attr in ("p", "q"):
            values = sorted(set(table.column(attr).values))
            embeddings = embed_all(values, self.Counting())
            assert vghs[attr] == build_vgh(values, embeddings, method, 3, attribute=attr)

    def test_one_http_request_carries_the_union_of_the_columns(self, embeddings_api):
        p = [f"v{i:03d}" for i in range(100)]
        q = [f"v{i:03d}" for i in range(50, 150)]
        provider = HttpApiProvider(embeddings_api.url, "m")
        generate_vghs(make_table(p=p, q=q), ["p", "q"], provider, WARD)
        sent = [request.json["input"] for request in embeddings_api.requests]
        assert sent == [[f"v{i:03d}" for i in range(150)]]

    def test_columns_of_different_dimensions_are_refused(self):
        class TwoDimensions:
            provider_id = "two-dimensions"

            def fetch(self, values):
                return [np.zeros(2 if v.startswith("p") else 3) for v in values]

        table = make_table(p=["p1", "p2"], q=["q1", "q2"])
        with pytest.raises(ProviderError, match="inconsistent embedding dimensions in one run"):
            generate_vghs(table, ["p", "q"], TwoDimensions(), WARD)


class TestSearch:
    def test_vacuous_params_pick_the_identity(self, abc_table_spec, ab_vgh):
        table, spec = abc_table_spec
        [result] = search(table, spec, {"q": ab_vgh}, [PrivacyParams(k=1, l=1)])
        assert result.node == (0,)
        assert result.loss == 0.0
        assert result.satisfied
        assert result.table == table

    def test_prefers_suppression_when_loss_is_lower(self, abc_table_spec, ab_vgh):
        table, spec = abc_table_spec
        [result] = search(table, spec, {"q": ab_vgh}, [PrivacyParams(k=2, sup_limit=0.34)])
        assert result.node == (0,)
        assert result.loss == 0.0
        assert result.suppressed.tolist() == [False, False, True]
        assert result.table.column("q").values == ["a", "a", "*"]

    def test_generalizes_when_suppression_budget_is_tight(self, abc_table_spec, ab_vgh):
        table, spec = abc_table_spec
        [result] = search(table, spec, {"q": ab_vgh}, [PrivacyParams(k=2, sup_limit=0.2)])
        assert result.node == (1,)
        assert result.loss == 0.5
        assert not result.suppressed.any()
        assert result.table.column("q").values == ["{a,b}"] * 3

    def test_unsatisfiable_returns_all_top(self, ab_vgh):
        table = make_table(q=["a"])
        [result] = search(table, QiSpec(["q"]), {"q": ab_vgh}, [PrivacyParams(k=2, sup_limit=0.0)])
        assert not result.satisfied
        assert result.node == (2,)
        assert result.loss == 1.0
        assert result.suppressed.tolist() == [True]

    def test_empty_table_is_trivially_satisfied(self, ab_vgh):
        table = make_table(q=[])
        [result] = search(table, QiSpec(["q"]), {"q": ab_vgh}, [PrivacyParams(k=3)])
        assert result.satisfied
        assert result.node == (0,)

    def test_a_qi_attribute_without_a_hierarchy_is_an_input_error(self, abc_table_spec):
        table, spec = abc_table_spec
        results = search(table, spec, {}, [PrivacyParams(k=1)])
        with pytest.raises(InputError, match="no hierarchy provided for QI attribute 'q'"):
            next(results)

    def test_refuses_oversized_lattices(self):
        values = [f"v{i}" for i in range(100)]
        rng = np.random.default_rng(0)
        big = build_vgh(values, {v: rng.normal(size=2) for v in values}, "ward", attribute="q")
        table = make_table(**{f"q{j}": ["v0"] for j in range(4)})
        vghs = {f"q{j}": Vgh(f"q{j}", big.leaves, big.levels) for j in range(4)}
        with pytest.raises(InputError, match="lattice"):
            list(search(table, QiSpec([f"q{j}" for j in range(4)]), vghs, [PrivacyParams(k=1)]))

    @pytest.mark.parametrize(
        "levels, message",
        [
            ([{"a": "a", "b": "b", "c": "c"}, {"a": "{a,b}", "c": "c"}], "level 1 does not map"),
            (
                [
                    {"a": "a", "b": "b", "c": "c"},
                    {"a": "{a,b}", "b": "{a,b}", "c": "c"},
                    {"a": "a", "b": "{b,c}", "c": "{b,c}"},
                ],
                "level 2 splits a level-1 block",
            ),
        ],
        ids=["leaf-missing-from-a-level", "level-splits-a-block"],
    )
    def test_a_broken_hierarchy_cannot_reach_the_search(self, levels, message):
        # search reads every level as a total map that coarsens the one below:
        # a level missing a leaf ended it with a KeyError, a split went unseen.
        top = {leaf: "*" for leaf in "abc"}
        with pytest.raises(InputError, match=message):
            Vgh("q", ["a", "b", "c"], [*levels, top])

    def test_post_hoc_guarantee_on_satisfied_results(self):
        rng = np.random.default_rng(404)
        for _ in range(15):
            table, spec, vghs, params = oracles.random_instance(rng)
            [result] = search(table, spec, vghs, [params])
            if not result.satisfied:
                continue
            assert result.suppressed.sum() / max(table.row_count, 1) <= params.sup_limit
            members: dict[int, list[int]] = {}
            for i, gid in enumerate(result.groups.tolist()):
                if gid >= 0:
                    members.setdefault(gid, []).append(i)
            sa = table.column(spec.sa).values
            for rows in members.values():
                assert len(rows) >= params.k
                assert len({sa[i] for i in rows}) >= params.l

    @staticmethod
    def assert_matches_oracle(table, spec, vghs, params, result=None):
        if result is None:
            [result] = search(table, spec, vghs, [params])
        satisfying = oracles.exhaustive_satisfying(table, spec, vghs, params)
        if satisfying:
            assert result.satisfied
            assert result.loss == min(l for l, _ in satisfying)
            assert result.node == min(satisfying, key=lambda s: (s[0], sum(s[1]), s[1]))[1]
        else:
            assert not result.satisfied
            assert result.node == tuple(vghs[a].level_count - 1 for a in spec.qi)
        return result.satisfied

    def test_ranking_is_the_brute_force_key_order(self):
        # 1-level attributes and equal level counts give loss ties, broken by
        # the level sum and then the levels.
        rng = np.random.default_rng(1717)
        ties = 0
        for _ in range(40):
            counts = rng.choice([1, 2, 3, 3, 4, 5, 7], size=int(rng.integers(1, 5))).tolist()
            vghs = [SimpleNamespace(attribute=f"q{j}", level_count=c) for j, c in enumerate(counts)]
            expected = sorted(
                itertools.product(*map(range, counts)),
                key=lambda n: (loss(n, vghs), sum(n), n),
            )
            ranked = np.unravel_index(_ranking(counts), counts)
            assert list(zip(*(axis.tolist() for axis in ranked))) == expected
            ties += len(expected) - len({loss(n, vghs) for n in expected})
        assert ties > 0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            self.assert_matches_oracle(*oracles.random_instance(rng))

    def test_matches_exhaustive_enumeration_on_deep_lattices(self):
        # Four attributes with up to seven levels: long chains, so the binary
        # search and both tag directions decide most verdicts. k=64 exceeds
        # the row count, so those draws are unsatisfiable.
        rng = np.random.default_rng(31)
        attrs = [f"q{j}" for j in range(4)]
        outcomes = []
        for k in [1, 2, 4, 8, 16, 64] * 4:
            vghs = {
                a: oracles.random_vgh(rng, a, int(rng.integers(5, 9)), max_levels=7)
                for a in attrs
            }
            n_rows = int(rng.integers(10, 40))
            columns = [
                Column(a, [str(rng.choice(vghs[a].leaves)) for _ in range(n_rows)])
                for a in attrs
            ]
            columns.append(Column("sa", [str(rng.choice(["s0", "s1"])) for _ in range(n_rows)]))
            params = PrivacyParams(
                k=k, l=int(rng.choice([1, 2])), sup_limit=float(rng.choice([0.0, 0.1, 0.3]))
            )
            outcomes.append(
                self.assert_matches_oracle(Table(columns), QiSpec(attrs, "sa"), vghs, params)
            )
        assert any(outcomes) and not all(outcomes)

    @staticmethod
    def random_sweep(rng):
        """A random instance with 3-5 privacy entries; k up to 60 exceeds the
        row count, so sweeps mix satisfiable and unsatisfiable entries."""
        table, spec, vghs, params = oracles.random_instance(rng)
        sweep = [params] + [
            PrivacyParams(
                k=int(rng.integers(1, 61)),
                l=int(rng.choice([1, 2])),
                sup_limit=float(rng.choice([0.0, 0.2, 0.5])),
            )
            for _ in range(int(rng.integers(2, 5)))
        ]
        return table, spec, vghs, sweep

    @staticmethod
    def assert_same_result(result, other):
        assert result.node == other.node
        assert result.loss == other.loss
        assert result.satisfied == other.satisfied
        assert result.groups.tolist() == other.groups.tolist()
        assert result.table == other.table

    def test_sweep_matches_one_entry_sweeps_and_the_oracle(self):
        rng = np.random.default_rng(1010)
        outcomes = []
        for _ in range(20):
            table, spec, vghs, sweep = self.random_sweep(rng)
            results = list(search(table, spec, vghs, sweep))
            assert len(results) == len(sweep)
            for params, result in zip(sweep, results):
                [alone] = search(table, spec, vghs, [params])
                self.assert_same_result(result, alone)
                outcomes.append(self.assert_matches_oracle(table, spec, vghs, params, result))
        assert any(outcomes) and not all(outcomes)

    def test_reversed_sweep_gives_reversed_results(self):
        rng = np.random.default_rng(2020)
        for _ in range(20):
            table, spec, vghs, sweep = self.random_sweep(rng)
            forward = list(search(table, spec, vghs, sweep))
            backward = list(search(table, spec, vghs, sweep[::-1]))
            for result, other in zip(forward, backward[::-1]):
                self.assert_same_result(result, other)

    def test_checks_only_the_boundary_on_the_adult_fixture(self, adult_paths, monkeypatch):
        train = load_csv(adult_paths["train"])
        spec = QiSpec(list(datagen.QI), datagen.SA)
        provider = WordVectorProvider(adult_paths["vectors"])
        vghs = generate_vghs(train, spec.qi, provider, WARD, seed=42)
        checks = []
        check = _CodedLattice.check

        def counting_check(lattice, node, params):
            checks.append(node)
            return check(lattice, node, params)

        monkeypatch.setattr(_CodedLattice, "check", counting_check)
        sweep = [PrivacyParams(k=k, l=2, sup_limit=0.5) for k in [2, 10, 30, 200]]
        counts = []
        for result in search(train, spec, vghs, sweep):
            assert result.satisfied
            counts.append(len(checks))
            checks.clear()
        # At k=200 the boundary is 69 minimal passing and 66 maximal failing
        # nodes, while 72,191 of the lattice's 116,960 nodes fail.
        assert counts == [1, 1, 83, 154]

    @staticmethod
    def walk_instances(seed):
        """200 oracle-scale problems, each with a sweep of its params and two
        more k values (up to 60, above the row count, so some fail)."""
        rng = np.random.default_rng(seed)
        for _ in range(200):
            table, spec, vghs, params = oracles.random_instance(rng)
            more = [dataclasses.replace(params, k=int(k)) for k in rng.integers(1, 61, size=2)]
            yield table, spec, vghs, [params, *more]

    def test_checks_the_nodes_of_the_reference_walk(self, monkeypatch):
        checks = []
        check = _CodedLattice.check

        def recording_check(lattice, node, params):
            checks.append(node)
            return check(lattice, node, params)

        monkeypatch.setattr(_CodedLattice, "check", recording_check)
        outcomes = []
        for table, spec, vghs, sweep in self.walk_instances(2611):
            lattice = _CodedLattice(table, spec, vghs)
            ranking = _ranking([v.level_count for v in lattice.vghs])
            results = search(table, spec, vghs, sweep)
            for params in sweep:
                result = next(results)
                walked = checks[:]
                checks.clear()
                expected = oracles.reference_walk(lattice, params, ranking)
                assert walked == checks
                assert (result.node, result.satisfied) == expected
                checks.clear()
                outcomes.append(result.satisfied)
        assert any(outcomes) and not all(outcomes)

    def test_one_classify_step_leaves_the_reference_state(self):
        # Every untagged node in rank order, not only those a walk reaches, so
        # the steps start from many tag states.
        chains = []
        for table, spec, vghs, sweep in self.walk_instances(2612):
            lattice = _CodedLattice(table, spec, vghs)
            counts = tuple(v.level_count for v in lattice.vghs)
            tops = tuple(c - 1 for c in counts)
            for params in sweep:
                state = np.full(counts, _UNKNOWN, dtype=np.int8)
                for index in _ranking(counts):
                    if state.flat[index] != _UNKNOWN:
                        continue
                    node = tuple(map(int, np.unravel_index(index, counts)))
                    mine = state.copy()
                    passed = _classify(lattice, params, node, tops, mine)
                    chain = oracles.reference_chain(node, tops, state)
                    chains.append(len(chain))
                    oracles.reference_classify(lattice, params, chain, state)
                    assert (mine == state).all()
                    assert passed == (state[node] == _PASS)
        assert max(chains) >= 5

    def test_table_and_mask_match_dict_lookups(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            table, spec, vghs, params = oracles.random_instance(rng)
            [result] = search(table, spec, vghs, [params])
            mask = oracles.naive_suppressed(table, spec, vghs, result.node, params)
            assert result.suppressed.tolist() == mask
            assert result.table == oracles.naive_generalize(table, spec, vghs, result.node, mask)
            assert result.table.column("sa") == table.column("sa")

    def test_group_ids_match_those_of_the_written_table(self):
        # A retained group at the all-"*" node reads as suppressed in a written
        # table, so those draws are skipped.
        rng = np.random.default_rng(88)
        compared = 0
        for _ in range(60):
            table, spec, vghs, params = oracles.random_instance(rng)
            [result] = search(table, spec, vghs, [params])
            if result.node == tuple(vghs[a].level_count - 1 for a in spec.qi):
                continue
            compared += 1
            from_table = group_ids(result.table, spec.qi)
            assert ((from_table < 0) == result.suppressed).all()
            pairs = set(zip(result.groups.tolist(), from_table.tolist()))
            assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
        assert compared > 30

    def test_privacy_is_monotone_on_the_lattice(self):
        rng = np.random.default_rng(515)
        for _ in range(10):
            table, spec, vghs, params = oracles.random_instance(rng)
            level_counts = [vghs[a].level_count for a in spec.qi]
            verdicts = {}
            for node in itertools.product(*[range(c) for c in level_counts]):
                verdicts[node] = oracles.naive_satisfied(table, spec, vghs, node, params)
            for node, ok in verdicts.items():
                if not ok:
                    continue
                for other, other_ok in verdicts.items():
                    if all(o >= v for o, v in zip(other, node)):
                        assert other_ok
