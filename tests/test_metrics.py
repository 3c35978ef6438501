from __future__ import annotations

import numpy as np
import pytest

import _oracles as oracles
from clustem.anonymize import PrivacyParams, search
from clustem.metrics import (
    achieved_privacy,
    c_avg,
    compute_report,
    count_matrix,
    perc_recs,
    t_closeness,
)
from clustem.tabular import QiSpec, group_ids, load_csv, write_csv
from clustem.vgh import build_vgh
from conftest import make_table


def counts(groups, sa):
    return count_matrix(np.array(groups, dtype=np.int64), sa)


class TestCountMatrix:
    def test_rows_per_group_and_value(self):
        matrix = counts([0, 0, 1, -1, 1, 1], ["x", "y", "x", "y", "x", "x"])
        assert matrix.tolist() == [[1, 1], [3, 0]]

    def test_gaps_in_the_ids_are_dropped(self):
        assert counts([4, -1, 4, 2], ["x", "y", "y", "x"]).tolist() == [[1, 0], [1, 1]]

    def test_single_column_without_a_sensitive_attribute(self):
        assert counts([1, 0, 1], None).tolist() == [[1], [2]]

    def test_no_retained_rows(self):
        assert counts([-1, -1], ["x", "y"]).shape == (0, 1)
        assert counts([], []).shape == (0, 1)


class TestPercRecs:
    def test_no_suppression(self):
        assert perc_recs(4, 4) == 1.0

    def test_one_of_five_suppressed(self):
        assert perc_recs(5, 4) == 0.8

    def test_empty_table(self):
        assert perc_recs(0, 0) == 1.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            perc_recs(1, 2)


class TestCAvg:
    def test_optimal_when_groups_have_size_k(self):
        assert c_avg(12, 3, 4) == 1.0

    def test_direct_evaluation(self):
        assert c_avg(10, 2, 4) == 1.25

    def test_k_one_collapses_to_mean_group_size(self):
        assert c_avg(9, 3, 1) == 3.0

    def test_zero_retained(self):
        assert c_avg(0, 0, 5) == 0.0


class TestTCloseness:
    def test_single_group_is_zero(self):
        assert t_closeness(counts([0, 0, 0], ["x", "y", "x"])) == 0.0

    def test_pure_group_against_even_global(self):
        assert t_closeness(counts([0, 1], ["x", "y"])) == 0.5

    def test_bounded_on_random_tables(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            sa = [str(rng.choice(["u", "v", "w"])) for _ in range(n)]
            cut = int(rng.integers(1, n + 1))
            groups = [0] * cut + [1] * (n - cut)
            value = t_closeness(counts(groups, sa))
            assert 0.0 <= value <= 1.0

    def test_zero_iff_group_matches_global(self):
        assert t_closeness(counts([0, 0, 1, 1], ["x", "y", "x", "y"])) == 0.0

    def test_needs_a_retained_row(self):
        with pytest.raises(ValueError):
            t_closeness(counts([-1], ["x"]))


class TestAchievedPrivacy:
    def test_min_group_size(self):
        assert achieved_privacy(counts([0] * 3 + [1] * 5, ["x"] * 8)) == (3, 1)

    def test_distinct_sa_count(self):
        assert achieved_privacy(counts([0, 0, 0], ["x", "x", "y"])) == (3, 2)

    def test_empty_groups(self):
        assert achieved_privacy(counts([-1], ["x"])) == (0, 0)

    def test_binary_sa_caps_l_at_two(self):
        matrix = counts([0, 0, 0, 1, 1], ["p", "q", "p", "q", "p"])
        assert achieved_privacy(matrix)[1] == 2


class TestComputeReport:
    def test_without_a_sensitive_attribute_l_and_t_are_zero(self):
        report = compute_report(3, np.array([0, 0, -1]), None, PrivacyParams(k=2))
        assert (report.achieved_k, report.achieved_l, report.t_closeness) == (2, 0, 0.0)
        assert report.perc_recs == 2 / 3

    @pytest.mark.parametrize("n_sa", [1, 2, 3, 4])
    def test_matches_the_dict_reference(self, n_sa):
        rng = np.random.default_rng(100 + n_sa)
        domain = [f"s{i}" for i in range(n_sa)]
        shapes = ["random", "no suppression", "all suppressed", "empty"]
        for draw in range(200):
            shape = shapes[draw % len(shapes)]
            n = 0 if shape == "empty" else int(rng.integers(1, 60))
            groups = rng.integers(-1, int(rng.integers(1, 12)), size=n)
            if shape == "no suppression":
                groups = np.abs(groups)
            elif shape == "all suppressed":
                groups[:] = -1
            sa = [str(rng.choice(domain)) for _ in range(n)]
            params = PrivacyParams(k=int(rng.integers(1, 6)))
            for sa_values in (sa, None):
                got = compute_report(n, groups, sa_values, params, (1, 2))
                want = oracles.naive_report(n, groups, sa_values, params, (1, 2))
                if n_sa >= 3:
                    assert abs(got.t_closeness - want.t_closeness) <= 1e-15
                    got.t_closeness = want.t_closeness
                assert got == want


class TestReportRecompute:
    def test_report_reproducible_from_written_csv(self, tmp_path):
        table = make_table(
            q=["a", "a", "b", "b", "c", "c", "d"],
            s=["x", "y", "x", "y", "x", "y", "x"],
        )
        spec = QiSpec(["q"], "s")
        values = sorted(set(table.column("q").values))
        vgh = build_vgh(
            values, {v: np.array([float(i)]) for i, v in enumerate(values)}, "ward", attribute="q"
        )
        params = PrivacyParams(k=2, l=2, sup_limit=0.2)
        result = search(table, spec, {"q": vgh}, params)
        direct = compute_report(
            table.row_count, result.groups, table.column("s").values, params, result.node
        )

        out = tmp_path / "anon.csv"
        write_csv(result.table, str(out))
        reloaded = load_csv(str(out))
        recomputed = compute_report(
            reloaded.row_count,
            group_ids(reloaded, spec.qi),
            reloaded.column("s").values,
            params,
            result.node,
        )
        assert recomputed == direct
