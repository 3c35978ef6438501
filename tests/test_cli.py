from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clustem.cli import main
from clustem.tabular import group_ids, load_csv
from clustem.vgh import build_vgh, read_hierarchy, write_hierarchy

CONFIG_KEYS = ["qi", "sa", "k", "l", "sup_limit", "method", "seed", "hierarchies"]
VALID_CONFIG = {"qi": ["job", "grade"], "sa": "salary-class", "k": 2, "sup_limit": 0.5}
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()  # NaN and +-inf are written as NaN/Infinity, which json reads back
    | st.text(max_size=6)
    | st.sampled_from(["job", "grade", "salary-class", "ward", "kmeans", "preset", "2,5", "0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(["job", "grade"]), inner, max_size=3),
    max_leaves=6,
)
OVERRIDES = st.dictionaries(st.sampled_from(CONFIG_KEYS + ["k_values", ""]), JSON_VALUES, max_size=3)
CONFIG_TEXTS = st.one_of(
    OVERRIDES.map(lambda o: json.dumps({**VALID_CONFIG, **o})),  # mostly valid, some keys bad
    OVERRIDES.map(json.dumps),
    JSON_VALUES.map(json.dumps),  # often not an object
    st.sampled_from(
        [
            '{"qi": ["job"], "k": 1e999}',
            '{"qi": ["job"], "k": 2, "sup_limit": -1e999}',
            '{"qi": ["job"], "k": 2, "l": 1e999}',
            "[",
            "",
        ]
    ),
)


@pytest.fixture
def small_inputs(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(
        "job,grade,salary-class,hours\n"
        + "".join(
            f"{job},{grade},{label},{hours}\n"
            for job, grade, label, hours in [
                ("cook", "low", "<=50K", "40"),
                ("cook", "low", ">50K", "50"),
                ("cook", "mid", "<=50K", "38"),
                ("cook", "mid", ">50K", "45"),
                ("nurse", "low", "<=50K", "36"),
                ("nurse", "low", ">50K", "60"),
                ("nurse", "mid", "<=50K", "40"),
                ("nurse", "mid", ">50K", "41"),
                ("pilot", "high", ">50K", "30"),
            ]
        ),
        encoding="utf-8",
    )
    vectors = tmp_path / "vecs.txt"
    vectors.write_text(
        "6 2\ncook 0 0\nnurse 0.4 0\npilot 5 5\nlow 0 0\nmid 0.4 0\nhigh 5 5\n",
        encoding="utf-8",
    )
    return {"csv": str(csv_path), "vectors": str(vectors), "dir": tmp_path}


class TestVghBuild:
    def test_writes_one_file_per_column(self, small_inputs):
        out = small_inputs["dir"] / "h"
        code = main(
            [
                "vgh", "build",
                "--input", small_inputs["csv"],
                "--columns", "job,grade",
                "--vectors", small_inputs["vectors"],
                "--method", "ward",
                "--seed", "42",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        for column in ("job", "grade"):
            vgh = read_hierarchy(str(out / f"{column}.csv"))
            vgh.validate()
            assert vgh.attribute == column

    def test_missing_input_flag_is_a_config_error(self, capsys):
        assert main(["vgh", "build", "--columns", "x", "--out-dir", "o"]) == 2
        assert "--input" in capsys.readouterr().err

    def test_unknown_column_is_a_config_error(self, small_inputs, capsys):
        code = main(
            [
                "vgh", "build",
                "--input", small_inputs["csv"],
                "--columns", "nope",
                "--vectors", small_inputs["vectors"],
                "--out-dir", str(small_inputs["dir"] / "h"),
            ]
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_vector_file_is_a_provider_error(self, small_inputs, capsys):
        code = main(
            [
                "vgh", "build",
                "--input", small_inputs["csv"],
                "--columns", "job",
                "--vectors", str(small_inputs["dir"] / "missing.txt"),
                "--out-dir", str(small_inputs["dir"] / "h"),
            ]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, bad", [(["a,b", "c"], "a,b"), (["{a,b}", "a", "b"], "{a,b}")]
    )
    def test_value_with_set_label_characters_is_a_config_error(
        self, tmp_path, capsys, values, bad
    ):
        data = tmp_path / "data.csv"
        data.write_text("q\n" + "".join(f'"{v}"\n' for v in values), encoding="utf-8")
        vectors = tmp_path / "vecs.txt"
        vectors.write_text(
            f"{len(values)} 1\n" + "".join(f"{v} {i}\n" for i, v in enumerate(values)),
            encoding="utf-8",
        )
        code = main(
            [
                "vgh", "build",
                "--input", str(data),
                "--columns", "q",
                "--vectors", str(vectors),
                "--out-dir", str(tmp_path / "h"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert repr(bad) in err and "'q'" in err
        assert not (tmp_path / "h" / "q.csv").exists()

    @pytest.mark.parametrize("method", ["ward", "kmeans"])
    def test_overflowing_vectors_are_a_provider_error(self, small_inputs, capsys, method):
        vectors = small_inputs["dir"] / "huge.txt"
        vectors.write_text("3 2\ncook 1e200 0\nnurse 2e200 0\npilot -1e200 0\n", encoding="utf-8")
        out = small_inputs["dir"] / "h"
        code = main(
            [
                "vgh", "build",
                "--input", small_inputs["csv"],
                "--columns", "job",
                "--vectors", str(vectors),
                "--method", method,
                "--out-dir", str(out),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "beyond 1e+100" in err
        assert "Traceback" not in err
        assert not (out / "job.csv").exists()


def run_anonymize(small_inputs, out_name, *extra):
    out = small_inputs["dir"] / out_name
    code = main(
        [
            "anonymize",
            "--input", small_inputs["csv"],
            "--out", str(out),
            "--qi", "job,grade",
            "--sa", "salary-class",
            "--vectors", small_inputs["vectors"],
            "--seed", "7",
            *extra,
        ]
    )
    return code, out


class TestAnonymize:
    def test_satisfied_run_writes_everything(self, small_inputs):
        code, out = run_anonymize(
            small_inputs, "run1", "--k", "2", "--l", "2", "--sup-limit", "0.2"
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["satisfied"] is True
        assert report["achieved_k"] >= 2
        assert report["achieved_l"] == 2
        assert (out / "hierarchies" / "job.csv").exists()

        # The report numbers must be recomputable from the written CSV.
        table = load_csv(str(out / "anonymized.csv"))
        ids = group_ids(table, ["job", "grade"])
        assert min(Counter(ids[ids >= 0].tolist()).values()) == report["achieved_k"]

    def test_k_sweep_creates_one_directory_per_k(self, small_inputs):
        code, out = run_anonymize(
            small_inputs, "sweep", "--k", "2,3,4", "--sup-limit", "0.5"
        )
        assert code == 0
        for k in (2, 3, 4):
            assert (out / f"k{k}" / "anonymized.csv").exists()
            assert (out / f"k{k}" / "report.json").exists()

    def test_out_of_range_sup_limit(self, small_inputs, capsys):
        code, _ = run_anonymize(small_inputs, "bad", "--k", "2", "--sup-limit", "1.5")
        assert code == 2
        assert "suppression limit" in capsys.readouterr().err

    def test_unsatisfiable_exits_one_but_reports(self, small_inputs):
        code, out = run_anonymize(
            small_inputs, "unsat", "--k", "99", "--sup-limit", "0.0"
        )
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["satisfied"] is False
        assert (out / "anonymized.csv").exists()

    def test_hierarchy_files_override_generation(self, small_inputs, tmp_path):
        import numpy as np

        hdir = tmp_path / "given"
        hdir.mkdir()
        for attr, values in (("job", ["cook", "nurse", "pilot"]), ("grade", ["high", "low", "mid"])):
            emb = {v: np.array([float(i)]) for i, v in enumerate(values)}
            write_hierarchy(build_vgh(values, emb, "ward", attribute=attr), str(hdir / f"{attr}.csv"))
        out = small_inputs["dir"] / "override"
        code = main(
            [
                "anonymize",
                "--input", small_inputs["csv"],
                "--out", str(out),
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--hierarchies-dir", str(hdir),
                "--k", "2",
                "--sup-limit", "0.5",
            ]
        )
        assert code == 0  # no embedding provider needed
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["provider"] == "hierarchy-files"

    @pytest.mark.parametrize("rows", [[], ["a", "b"]])
    def test_l_above_one_without_sa_is_a_config_error(self, tmp_path, capsys, rows):
        import numpy as np

        data = tmp_path / "data.csv"
        data.write_text("q\n" + "".join(f"{v}\n" for v in rows), encoding="utf-8")
        hdir = tmp_path / "given"
        hdir.mkdir()
        emb = {"a": np.array([0.0]), "b": np.array([1.0])}
        write_hierarchy(build_vgh(["a", "b"], emb, "ward", attribute="q"), str(hdir / "q.csv"))
        code = main(
            [
                "anonymize",
                "--input", str(data),
                "--out", str(tmp_path / "out"),
                "--qi", "q",
                "--hierarchies-dir", str(hdir),
                "--k", "1",
                "--l", "2",
            ]
        )
        assert code == 2
        assert "requires a sensitive attribute" in capsys.readouterr().err

    def test_k_preset_expands_to_the_standard_sweep(self, small_inputs):
        code, out = run_anonymize(
            small_inputs, "preset", "--k", "preset", "--sup-limit", "0.5"
        )
        assert code in (0, 1)  # large k values may be unsatisfiable on 9 rows
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir() and p.name.startswith("k"))
        assert dirs == sorted(
            f"k{k}" for k in (2, 5, 10, 15, 20, 25, 30, 50, 100, 150, 200)
        )

    def test_config_can_point_at_hierarchy_files(self, small_inputs, tmp_path):
        import numpy as np

        hdir = tmp_path / "h"
        hdir.mkdir()
        for attr, values in (("job", ["cook", "nurse", "pilot"]), ("grade", ["high", "low", "mid"])):
            emb = {v: np.array([float(i)]) for i, v in enumerate(values)}
            write_hierarchy(build_vgh(values, emb, "ward", attribute=attr), str(hdir / f"{attr}.csv"))
        config = small_inputs["dir"] / "h.json"
        config.write_text(
            json.dumps(
                {
                    "qi": ["job", "grade"],
                    "sa": "salary-class",
                    "k": 2,
                    "sup_limit": 0.5,
                    "hierarchies": {attr: str(hdir / f"{attr}.csv") for attr in ("job", "grade")},
                }
            ),
            encoding="utf-8",
        )
        out = small_inputs["dir"] / "config_hier"
        code = main(
            [
                "anonymize",
                "--input", small_inputs["csv"],
                "--out", str(out),
                "--config", str(config),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["provider"] == "hierarchy-files"

    def test_config_file_supplies_settings(self, small_inputs):
        config = small_inputs["dir"] / "run.json"
        config.write_text(
            json.dumps(
                {
                    "qi": ["job", "grade"],
                    "sa": "salary-class",
                    "k": 2,
                    "l": 2,
                    "sup_limit": 0.5,
                    "method": "ward",
                    "seed": 7,
                }
            ),
            encoding="utf-8",
        )
        out = small_inputs["dir"] / "fromconfig"
        code = main(
            [
                "anonymize",
                "--input", small_inputs["csv"],
                "--out", str(out),
                "--config", str(config),
                "--vectors", small_inputs["vectors"],
            ]
        )
        assert code == 0
        assert (out / "report.json").exists()


    @pytest.mark.parametrize(
        "override",
        [
            {"l": "2"},
            {"qi": "job"},
            {"qi": ["job", 3]},
            {"sa": 5},
            {"k": True},
            {"k": [2, 3]},
            {"sup_limit": "0.5"},
            {"sup_limit": False},
            {"method": 1},
            {"seed": "7"},
            {"seed": -1},
            {"hierarchies": ["job.csv"]},
            {"hierarchies": {"job": 1}},
            {"k_values": 2},
        ],
        ids=lambda override: "-".join(f"{k}={v!r}" for k, v in override.items()),
    )
    def test_config_of_the_wrong_type_is_a_config_error(self, small_inputs, capsys, override):
        config = small_inputs["dir"] / "bad.json"
        settings = {"qi": ["job", "grade"], "sa": "salary-class", "k": 2, "sup_limit": 0.5}
        config.write_text(json.dumps({**settings, **override}), encoding="utf-8")
        code = main(
            [
                "anonymize",
                "--input", small_inputs["csv"],
                "--out", str(small_inputs["dir"] / "bad"),
                "--config", str(config),
                "--vectors", small_inputs["vectors"],
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert next(iter(override)) in err

    def test_negative_seed_flag_is_a_config_error(self, small_inputs, capsys):
        code, _ = run_anonymize(small_inputs, "negseed", "--k", "2", "--seed", "-1")
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,file_name,expected",
        [
            ("--input", "data.csv", 2),
            ("--hierarchies-dir", "job.csv", 2),
            ("--config", "run.json", 2),
            ("--vectors", "vecs.txt", 3),
            ("--cache", "cache.json", 3),
        ],
    )
    def test_non_utf8_file_is_an_error_naming_it(
        self, small_inputs, capsys, flag, file_name, expected
    ):
        bad_dir = small_inputs["dir"] / "latin1"
        bad_dir.mkdir()
        bad = bad_dir / file_name
        bad.write_bytes("caf\u00e9,low\n".encode("latin-1"))
        argument = bad_dir if flag == "--hierarchies-dir" else bad
        code, _ = run_anonymize(
            small_inputs, "nonutf8", "--k", "2", "--sup-limit", "0.5", flag, str(argument)
        )
        assert code == expected
        assert str(bad) in capsys.readouterr().err

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=CONFIG_TEXTS)
    @example(text=json.dumps({**VALID_CONFIG, "hierarchies": {"job": "job\0.csv"}}))
    @example(text='{"qi": ["job"], "k": 2, "sup_limit": 1e999}')
    def test_any_config_exits_with_a_documented_code(self, small_inputs, capsys, text):
        config = small_inputs["dir"] / "fuzz.json"
        config.write_text(text, encoding="utf-8")
        code = main(
            [
                "anonymize",
                "--input", small_inputs["csv"],
                "--out", str(small_inputs["dir"] / "fuzz"),
                "--config", str(config),
                "--vectors", small_inputs["vectors"],
            ]
        )
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err


class TestEvaluate:
    def test_unanonymized_against_itself(self, small_inputs):
        out = small_inputs["dir"] / "eval.json"
        code = main(
            [
                "evaluate",
                "--train", small_inputs["csv"],
                "--test", small_inputs["csv"],
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--numeric-features", "hours",
                "--out", str(out),
                "--seed", "3",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["perc_recs"] == 1.0
        assert "node" not in report
        assert "loss" not in report
        assert 0.0 <= report["t_closeness"] <= 1.0
        assert 0.0 <= report["efficacy"]["accuracy"] <= 1.0

    def test_reports_are_deterministic_up_to_timestamps(self, small_inputs):
        outs = []
        for name in ("eval_a.json", "eval_b.json"):
            out = small_inputs["dir"] / name
            code = main(
                [
                    "evaluate",
                    "--train", small_inputs["csv"],
                    "--test", small_inputs["csv"],
                    "--qi", "job,grade",
                    "--sa", "salary-class",
                    "--numeric-features", "hours",
                    "--out", str(out),
                    "--seed", "3",
                ]
            )
            assert code == 0
            payload = json.loads(out.read_text())
            payload["meta"].pop("started_at")
            payload["meta"].pop("finished_at")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_seed_does_not_change_the_report(self, small_inputs):
        outs = []
        for seed in ("0", "7"):
            out = small_inputs["dir"] / f"eval_seed{seed}.json"
            code = main(
                [
                    "evaluate",
                    "--train", small_inputs["csv"],
                    "--test", small_inputs["csv"],
                    "--qi", "job,grade",
                    "--sa", "salary-class",
                    "--numeric-features", "hours",
                    "--out", str(out),
                    "--seed", seed,
                ]
            )
            assert code == 0
            payload = json.loads(out.read_text())
            assert payload["meta"].pop("seed") == int(seed)
            payload["meta"].pop("started_at")
            payload["meta"].pop("finished_at")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_repeated_numeric_feature_is_an_input_error(self, small_inputs, capsys):
        out = small_inputs["dir"] / "eval_repeated.json"
        code = main(
            [
                "evaluate",
                "--train", small_inputs["csv"],
                "--test", small_inputs["csv"],
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--numeric-features", "hours,hours",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'hours'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_evaluates_an_anonymized_output(self, small_inputs):
        code, run_dir = run_anonymize(
            small_inputs, "for_eval", "--k", "2", "--l", "2", "--sup-limit", "0.2"
        )
        assert code == 0
        out = small_inputs["dir"] / "eval_anon.json"
        code = main(
            [
                "evaluate",
                "--train", str(run_dir / "anonymized.csv"),
                "--test", small_inputs["csv"],
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--k", "2",
                "--l", "2",
                "--numeric-features", "hours",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["achieved_k"] >= 2
        assert report["requested"]["k"] == 2

    def test_header_only_training_set_is_an_input_error(self, small_inputs, capsys):
        train = small_inputs["dir"] / "header-only.csv"
        train.write_text("job,grade,salary-class,hours\n", encoding="utf-8")
        out = small_inputs["dir"] / "eval_empty.json"
        code = main(
            [
                "evaluate",
                "--train", str(train),
                "--test", small_inputs["csv"],
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "non-empty training set" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "feature, hours", [("job", "40"), ("hours", "inf"), ("hours", "nan")]
    )
    def test_non_numeric_feature_cell_is_an_input_error(
        self, small_inputs, capsys, feature, hours
    ):
        train = small_inputs["dir"] / "bad-hours.csv"
        text = (small_inputs["dir"] / "data.csv").read_text(encoding="utf-8")
        train.write_text(text.replace("<=50K,40\n", f"<=50K,{hours}\n", 1), encoding="utf-8")
        out = small_inputs["dir"] / "eval_bad.json"
        code = main(
            [
                "evaluate",
                "--train", str(train),
                "--test", small_inputs["csv"],
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--numeric-features", feature,
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{feature!r}, data row 1" in err
        assert "Traceback" not in err
        assert not out.exists()
