from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import _datagen as datagen
import clustem
from _loopback import response, vector_of
from clustem import tabular
from clustem.anonymize import _CodedLattice
from clustem.cli import main, run
from clustem.tabular import group_ids, load_csv
from clustem.vgh import build_vgh, read_hierarchy, write_hierarchy
from conftest import tree

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
            assert read_hierarchy(str(out / f"{column}.csv")).attribute == column

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

    def test_header_only_input_is_a_config_error(self, small_inputs, capsys):
        data = small_inputs["dir"] / "header-only.csv"
        data.write_text("job,grade\n", encoding="utf-8")
        out = small_inputs["dir"] / "h"
        code = main(
            [
                "vgh", "build",
                "--input", str(data),
                "--columns", "job",
                "--vectors", small_inputs["vectors"],
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: attribute 'job' has no values to generalize\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "value, vectors, use",
        [
            # No vector for the value's token: rejected before any fetch.
            ("a,b", "1 1\nc 0\n", "set labels"),
            # A vector exists, but the value would break the hierarchy file.
            ("a;b", "2 1\na;b 1\nc 0\n", "hierarchy file"),
            # The vector file is malformed, but it is read only after the values are checked.
            ("a;b", "1 2\nnurse 0 x\n", "hierarchy file"),
        ],
    )
    def test_bad_value_is_rejected_before_embedding(self, tmp_path, capsys, value, vectors, use):
        data = tmp_path / "data.csv"
        data.write_text(f'q\n"{value}"\nc\n', encoding="utf-8")
        (tmp_path / "vecs.txt").write_text(vectors, encoding="utf-8")
        code = main(
            [
                "vgh", "build",
                "--input", str(data),
                "--columns", "q",
                "--vectors", str(tmp_path / "vecs.txt"),
                "--out-dir", str(tmp_path / "h"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert repr(value) in err and use in err
        assert not (tmp_path / "h").exists()

    def test_cell_over_the_csv_field_limit_is_an_input_error(self, small_inputs, capsys):
        data = small_inputs["dir"] / "long.csv"
        data.write_text("job\ncook\n" + "x" * 200_000 + "\n", encoding="utf-8")
        out = small_inputs["dir"] / "h"
        code = main(
            [
                "vgh", "build",
                "--input", str(data),
                "--columns", "job",
                "--vectors", small_inputs["vectors"],
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{data}: line 3: field larger than field limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, column, message",
        [
            ('job\ncook\n"nurse\npilot\n', "job", "line 4: unexpected end of data"),
            ('a,b\n"x"y,1\n', "a", "line 2: ',' expected after '\"'"),
        ],
    )
    def test_malformed_quoting_is_an_input_error(
        self, small_inputs, capsys, text, column, message
    ):
        data = small_inputs["dir"] / "quoted.csv"
        data.write_text(text, encoding="utf-8")
        out = small_inputs["dir"] / "h"
        code = main(
            [
                "vgh", "build",
                "--input", str(data),
                "--columns", column,
                "--vectors", small_inputs["vectors"],
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert f"{data}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_values_all_in_the_cache_need_no_vector_file(self, small_inputs):
        vectors = Path(small_inputs["vectors"])
        cache = small_inputs["dir"] / "cache.json"
        outs = [small_inputs["dir"] / "h1", small_inputs["dir"] / "h2"]
        for out in outs:
            code = main(
                [
                    "vgh", "build",
                    "--input", small_inputs["csv"],
                    "--columns", "job,grade",
                    "--vectors", str(vectors),
                    "--cache", str(cache),
                    "--out-dir", str(out),
                ]
            )
            assert code == 0
            vectors.unlink(missing_ok=True)
        for column in ("job", "grade"):
            first, second = (out / f"{column}.csv" for out in outs)
            assert first.read_bytes() == second.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_a_named_pipe_works_as_the_vector_file(self, small_inputs):
        fifo = small_inputs["dir"] / "vecs.fifo"
        os.mkfifo(fifo)
        text = Path(small_inputs["vectors"]).read_text(encoding="utf-8")

        def write_once():
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(text)

        def open_and_close():
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # ENXIO: no reader waits on the pipe
                pass

        def build(vectors, out):
            return main(
                [
                    "vgh", "build",
                    "--input", small_inputs["csv"],
                    "--columns", "job,grade",
                    "--vectors", str(vectors),
                    "--out-dir", str(small_inputs["dir"] / out),
                ]
            )

        writer = threading.Thread(target=write_once, daemon=True)
        writer.start()
        # A second open of the pipe would wait for a writer for ever; this one
        # ends such a wait with an empty read, so the run fails instead of hanging.
        closer = threading.Timer(5.0, open_and_close)
        closer.start()
        try:
            assert build(fifo, "from-pipe") == 0
        finally:
            closer.cancel()
        writer.join(5.0)
        assert not writer.is_alive()
        assert build(small_inputs["vectors"], "from-file") == 0
        for column in ("job", "grade"):
            from_pipe = small_inputs["dir"] / "from-pipe" / f"{column}.csv"
            from_file = small_inputs["dir"] / "from-file" / f"{column}.csv"
            assert from_pipe.read_bytes() == from_file.read_bytes()

    def test_repeated_column_is_a_config_error(self, small_inputs, capsys):
        out = small_inputs["dir"] / "h"
        code = main(
            [
                "vgh", "build",
                "--input", small_inputs["csv"],
                "--columns", "job,job",
                "--vectors", small_inputs["vectors"],
                "--out-dir", str(out),
            ]
        )
        assert code == 2
        assert "column 'job' is named more than once" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 4294967295\ncook 1\n", "{path}: line 2: expected 4294967295 components, got 1"),
            (
                "1 99999999999999999999\ncook 1\n",
                "{path}: line 2: expected 99999999999999999999 components, got 1",
            ),
            ("0 4294967295\n\n\n", "no vector for any token of value 'cook'"),
        ],
        ids=["repeat-limit", "beyond-int64", "blank-lines"],
    )
    def test_header_dimension_beyond_a_counted_repeat_is_a_provider_error(
        self, small_inputs, capsys, text, message
    ):
        # A regular expression cannot repeat a group 2**32 - 1 times or more.
        vectors = small_inputs["dir"] / "wide.txt"
        vectors.write_text(text, encoding="utf-8")
        out = small_inputs["dir"] / "h"
        code = main(
            [
                "vgh", "build",
                "--input", small_inputs["csv"],
                "--columns", "job",
                "--vectors", str(vectors),
                "--out-dir", str(out),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {message.format(path=vectors)}\n"
        assert not (out / "job.csv").exists()

    def test_zero_dimension_cache_is_a_provider_error(self, small_inputs, capsys):
        cache = small_inputs["dir"] / "cache.json"
        stamp = f"wordvec:{os.path.realpath(small_inputs['vectors'])}"
        vectors = {v: [] for v in ("cook", "nurse", "pilot")}
        cache.write_text(json.dumps({"provider": stamp, "dim": 0, "vectors": vectors}))
        out = small_inputs["dir"] / "h"
        code = main(
            [
                "vgh", "build",
                "--input", small_inputs["csv"],
                "--columns", "job",
                "--vectors", small_inputs["vectors"],
                "--cache", str(cache),
                "--out-dir", str(out),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"embedding cache {cache}: dim 0 is not a positive integer" in err
        assert not (out / "job.csv").exists()

    def test_cached_integer_too_large_for_a_float_is_a_provider_error(self, small_inputs, capsys):
        cache = small_inputs["dir"] / "cache.json"
        stamp = f"wordvec:{os.path.realpath(small_inputs['vectors'])}"
        cache.write_text(
            '{"provider": %s, "dim": 1, "vectors": {"cook": [%s]}}' % (json.dumps(stamp), "9" * 400)
        )
        out = small_inputs["dir"] / "h"
        code = main(
            [
                "vgh", "build",
                "--input", small_inputs["csv"],
                "--columns", "job",
                "--vectors", small_inputs["vectors"],
                "--cache", str(cache),
                "--out-dir", str(out),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert f"error: malformed embedding cache {cache}" in err
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

    def test_sweep_codes_the_table_once(self, small_inputs, monkeypatch):
        inits = []
        init = _CodedLattice.__init__

        def counting_init(lattice, *args):
            inits.append(args)
            init(lattice, *args)

        monkeypatch.setattr(_CodedLattice, "__init__", counting_init)
        code, out = run_anonymize(small_inputs, "once", "--k", "2,3", "--sup-limit", "0.5")
        assert code == 0
        assert len(inits) == 1
        for k in (2, 3):
            report = json.loads((out / f"k{k}" / "report.json").read_text())
            assert report["requested"]["k"] == k
            assert report["meta"]["started_at"] <= report["meta"]["finished_at"]

    def test_a_sweep_codes_the_sensitive_column_once(self, adult_paths, tmp_path, monkeypatch):
        # The search and every k's report share the column's one coding.
        sa_values = load_csv(adult_paths["train"]).column(datagen.SA).values
        received = []
        code_column = tabular.code_column

        def spy(values):
            received.append(values)
            return code_column(values)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("clustem") and (
                getattr(module, "code_column", None) is code_column
            ):
                monkeypatch.setattr(module, "code_column", spy)
        code = main(
            [
                "anonymize",
                "--input", adult_paths["train"],
                "--out", str(tmp_path / "out"),
                "--qi", ",".join(datagen.QI),
                "--sa", datagen.SA,
                "--k", "2,10,30,200",
                "--l", "2",
                "--sup-limit", "0.5",
                "--vectors", adult_paths["vectors"],
            ]
        )
        assert code == 0
        assert sum(list(values) == sa_values for values in received) == 1

    def test_repeated_k_flag_is_a_config_error(self, small_inputs, capsys):
        code, out = run_anonymize(small_inputs, "twice", "--k", "2,2")
        assert code == 2
        assert "k 2 is named more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_k_in_config_is_a_config_error(self, small_inputs, capsys):
        config = small_inputs["dir"] / "twice.json"
        config.write_text(json.dumps({**VALID_CONFIG, "k": "2,2"}), encoding="utf-8")
        out = small_inputs["dir"] / "twice"
        code = main(
            [
                "anonymize",
                "--input", small_inputs["csv"],
                "--out", str(out),
                "--config", str(config),
                "--vectors", small_inputs["vectors"],
            ]
        )
        assert code == 2
        assert "k 2 is named more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_value_leaves_no_hierarchy_directory(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("q,s\na;b,x\nc,y\n", encoding="utf-8")
        (tmp_path / "vecs.txt").write_text("2 1\na;b 1\nc 0\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "anonymize",
                "--input", str(data),
                "--out", str(out),
                "--qi", "q",
                "--k", "1",
                "--vectors", str(tmp_path / "vecs.txt"),
            ]
        )
        assert code == 2
        assert "'a;b'" in capsys.readouterr().err
        assert not (out / "hierarchies").exists()

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

    @pytest.mark.parametrize(
        "rows, generated",
        [([], False), (["a", "b"], False), (["a", "b"], True)],
        ids=["rows0", "rows1", "generated"],
    )
    def test_l_above_one_without_sa_is_a_config_error(self, tmp_path, capsys, rows, generated):
        data = tmp_path / "data.csv"
        data.write_text("q\n" + "".join(f"{v}\n" for v in rows), encoding="utf-8")
        if generated:
            # A deleted vector file: the run must stop before the provider reads it.
            source = ["--vectors", str(tmp_path / "deleted.txt")]
        else:
            hdir = tmp_path / "given"
            hdir.mkdir()
            emb = {"a": np.array([0.0]), "b": np.array([1.0])}
            write_hierarchy(build_vgh(["a", "b"], emb, "ward", attribute="q"), str(hdir / "q.csv"))
            source = ["--hierarchies-dir", str(hdir)]
        out = tmp_path / "out"
        code = main(
            [
                "anonymize",
                "--input", str(data),
                "--out", str(out),
                "--qi", "q",
                "--k", "1",
                "--l", "2",
                *source,
            ]
        )
        assert code == 2
        assert "requires a sensitive attribute" in capsys.readouterr().err
        assert not out.exists()

    def test_crlf_input_writes_the_same_bytes(self, tmp_path, paths_taken):
        # The pins' input, once with "\n" (split directly) and once with "\r\n"
        # line ends (read by the csv module).
        lf, crlf, vectors = tmp_path / "lf.csv", tmp_path / "crlf.csv", tmp_path / "vecs.txt"
        datagen.write_csv(str(lf), datagen.make_rows(2000, seed=11))
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        datagen.write_word_vectors(str(vectors))
        outputs = []
        for data in (lf, crlf):
            out = tmp_path / f"out-{data.stem}"
            code = main(
                ["anonymize", "--input", str(data), "--out", str(out)]
                + ["--qi", ",".join(datagen.QI), "--sa", datagen.SA, "--k", "2,10,30,200"]
                + ["--l", "2", "--sup-limit", "0.5", "--seed", "42", "--vectors", str(vectors)]
            )
            assert code == 0
            files = {}
            for path in sorted(out.rglob("*.*")):
                content = path.read_bytes()
                if path.name == "report.json":
                    report = json.loads(content)
                    del report["meta"]["started_at"], report["meta"]["finished_at"]
                    content = report
                files[str(path.relative_to(out))] = content
            outputs.append(files)
        assert paths_taken == Counter({"split": 1, "csv": 1})
        assert len(outputs[0]) == 4 + 2 * 4
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--qi", "nope", "--k", "2"], None, "quasi-identifier column 'nope' not in table"),
            (["--qi", "job", "--sa", "nope", "--k", "2"], None, "attribute 'nope' not in table"),
            (["--qi", "job", "--k", "2,x"], None, "malformed k value '2,x'"),
            (["--qi", "job"], None, "k is required"),
            ([], {"qi": ["job"], "k": 2, "method": "spectral"}, "method 'spectral'"),
            ([], {"qi": ["job", "job"], "k": 2}, "columns must be distinct"),
        ],
        ids=["unknown-qi", "unknown-sa", "malformed-k", "no-k", "unknown-method", "repeated-qi"],
    )
    def test_unusable_setting_is_a_config_error(
        self, small_inputs, capsys, flags, config, message
    ):
        if config is not None:
            path = small_inputs["dir"] / "run.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            flags = ["--config", str(path)]
        out = small_inputs["dir"] / "unusable"
        code = main(
            [
                "anonymize",
                "--input", small_inputs["csv"],
                "--out", str(out),
                "--vectors", small_inputs["vectors"],
                *flags,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, file_name, text, message",
        [
            ("--input", "data.csv", "", "missing header row"),
            ("--input", "data.csv", "job,,salary-class\ncook,low,>50K\n", "empty column name"),
            ("--hierarchies-dir", "job.csv", "cook;*\n\nnurse;*\n", "empty line"),
        ],
        ids=["empty-csv", "empty-column-name", "blank-hierarchy-line"],
    )
    def test_malformed_file_is_an_error_naming_it(
        self, small_inputs, capsys, flag, file_name, text, message
    ):
        bad_dir = small_inputs["dir"] / "given"
        bad_dir.mkdir()
        bad = bad_dir / file_name
        bad.write_text(text, encoding="utf-8")
        argument = bad_dir if flag == "--hierarchies-dir" else bad
        code, out = run_anonymize(
            small_inputs, "malformed", "--k", "2", "--sup-limit", "0.5", flag, str(argument)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}")
        assert message in err
        assert not out.exists()

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

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_hierarchies_dir_that_is_not_a_directory_is_an_error(
        self, small_inputs, capsys, kind
    ):
        hdir = small_inputs["dir"] / "hierarchiez"
        if kind == "file":
            hdir.write_text("", encoding="utf-8")
        code, out = run_anonymize(
            small_inputs, "typo", "--k", "2", "--sup-limit", "0.5", "--hierarchies-dir", str(hdir)
        )
        assert code == 2
        assert str(hdir) in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "flags, features",
        [
            ([], ["capital-gain", "capital-loss", "hours-per-week"]),
            (["--numeric-features", "hours-per-week"], ["hours-per-week"]),
            (["--qi-only"], []),
        ],
        ids=["default", "named", "qi-only"],
    )
    def test_meta_names_the_numeric_features(self, adult_paths, tmp_path, flags, features):
        out = tmp_path / "eval.json"
        code = main(
            [
                "evaluate",
                "--train", adult_paths["train"],
                "--test", adult_paths["test"],
                "--qi", ",".join(datagen.QI),
                "--sa", datagen.SA,
                "--out", str(out),
                *flags,
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["meta"]["features"] == features

    def test_qi_only_with_numeric_features_is_a_usage_error(self, small_inputs, capsys):
        out = small_inputs["dir"] / "eval_both.json"
        code = main(
            [
                "evaluate",
                "--train", small_inputs["csv"],
                "--test", small_inputs["csv"],
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--qi-only",
                "--numeric-features", "hours",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_test_cell_that_overflows_when_standardized_exits_2(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("w,h,y\na,0,p\na,1,n\na,0,p\na,1,n\n", encoding="utf-8")
        test = tmp_path / "test.csv"
        test.write_text("w,h,y\na,1.7e308,p\na,-1.7e308,n\na,0.5,p\n", encoding="utf-8")
        out = tmp_path / "eval.json"
        code = main(
            [
                "evaluate",
                "--train", str(train),
                "--test", str(test),
                "--qi", "w",
                "--sa", "y",
                "--positive-class", "p",
                "--numeric-features", "h",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "numeric feature 'h', data row 1: '1.7e308' overflows" in capsys.readouterr().err
        assert not out.exists()

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

    def test_label_named_as_a_numeric_feature_is_an_input_error(self, tmp_path, capsys):
        # Fed to the classifier, the label column would predict itself.
        data = tmp_path / "data.csv"
        data.write_text("w,y\na,0\na,1\nb,0\nb,1\nb,1\n", encoding="utf-8")
        before = tree(tmp_path)
        code = main(
            [
                "evaluate",
                "--train", str(data),
                "--test", str(data),
                "--qi", "w",
                "--sa", "y",
                "--positive-class", "1",
                "--numeric-features", "y",
                "--out", str(tmp_path / "out" / "eval.json"),
            ]
        )
        assert code == 2
        assert "label column 'y' cannot also be a numeric feature" in capsys.readouterr().err
        assert tree(tmp_path) == before

    def test_qi_named_as_a_numeric_feature_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(
            "job,hours-per-week,salary-class\n"
            + "".join(
                f"{job},{hours},{label}\n"
                for job, hours, label in zip(
                    "aabbaabb", [38, 40, 38, 40, 50, 60, 50, 60], ["<=50K", ">50K"] * 4
                )
            ),
            encoding="utf-8",
        )
        out = tmp_path / "eval.json"
        code = main(
            [
                "evaluate",
                "--train", str(data),
                "--test", str(data),
                "--qi", "job,hours-per-week",
                "--sa", "salary-class",
                "--numeric-features", "hours-per-week",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "QI column 'hours-per-week' cannot also be a numeric feature" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_default_numeric_features_leave_out_the_label(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("w,capital-loss\na,0\na,1\nb,0\nb,1\nb,1\n", encoding="utf-8")
        out = tmp_path / "eval.json"
        code = main(
            [
                "evaluate",
                "--train", str(data),
                "--test", str(data),
                "--qi", "w",
                "--sa", "capital-loss",
                "--positive-class", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["meta"]["features"] == []
        assert report["efficacy"]["accuracy"] == 0.6

    @pytest.mark.parametrize("qi", ["job,hours-per-week", "hours-per-week,job"])
    def test_default_numeric_features_leave_out_the_qi(self, tmp_path, qi):
        # A generalized numeric QI holds set labels, which no numeric feature
        # may hold; the QI columns are categorical features already.
        data = tmp_path / "data.csv"
        data.write_text(
            "job,hours-per-week,salary-class\n"
            + "".join(
                f"{job},{hours},{label}\n"
                for job, hours, label in zip(
                    "aabbaabb", [38, 40, 38, 40, 50, 60, 50, 60], ["<=50K", ">50K"] * 4
                )
            ),
            encoding="utf-8",
        )
        vectors = tmp_path / "vecs.txt"
        vectors.write_text(
            "6 2\na 0 0\nb 1 0\n38 0 0\n40 0.1 0\n50 5 5\n60 5.1 5\n", encoding="utf-8"
        )
        code = main(
            [
                "anonymize",
                "--input", str(data),
                "--out", str(tmp_path / "anon"),
                "--qi", qi,
                "--k", "2",
                "--vectors", str(vectors),
            ]
        )
        assert code == 0
        anonymized = tmp_path / "anon" / "anonymized.csv"
        assert "{" in anonymized.read_text(encoding="utf-8")
        for train in (anonymized, data):
            out = tmp_path / "eval.json"
            code = main(
                [
                    "evaluate",
                    "--train", str(train),
                    "--test", str(data),
                    "--qi", qi,
                    "--sa", "salary-class",
                    "--out", str(out),
                ]
            )
            assert code == 0
            assert json.loads(out.read_text())["meta"]["features"] == []

    def test_default_numeric_features_are_those_the_training_set_holds(self, tmp_path, capsys):
        with_gain = tmp_path / "with-gain.csv"
        with_gain.write_text("w,y,capital-gain\na,0,1\na,1,2\nb,0,3\nb,1,4\n", "utf-8")
        without = tmp_path / "without.csv"
        without.write_text("w,y\na,0\na,1\nb,0\nb,1\n", "utf-8")
        out = tmp_path / "eval.json"
        for train, test, code in ((without, with_gain, 0), (with_gain, without, 2)):
            argv = ["evaluate", "--train", str(train), "--test", str(test), "--qi", "w"]
            assert main(argv + ["--sa", "y", "--positive-class", "1", "--out", str(out)]) == code
        assert json.loads(out.read_text())["meta"]["features"] == []
        assert f"test set {without}: unknown column 'capital-gain'" in capsys.readouterr().err

    def test_positive_class_no_label_holds_is_an_input_error(self, small_inputs, capsys):
        # The labels are "<=50K" and ">50K"; the class differs in case only.
        out = small_inputs["dir"] / "eval_positive.json"
        code = main(
            [
                "evaluate",
                "--train", small_inputs["csv"],
                "--test", small_inputs["csv"],
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--positive-class", ">50k",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'salary-class'" in err and "'>50k'" in err and "'<=50K', '>50K'" in err
        assert not out.exists()

    @pytest.mark.parametrize("missing_from", ["train", "test"])
    def test_numeric_feature_missing_from_one_table_is_an_input_error(
        self, small_inputs, capsys, missing_from
    ):
        lines = (small_inputs["dir"] / "data.csv").read_text(encoding="utf-8").splitlines()
        no_hours = small_inputs["dir"] / "no-hours.csv"
        no_hours.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines), "utf-8")
        paths = {"train": small_inputs["csv"], "test": small_inputs["csv"]}
        paths[missing_from] = str(no_hours)
        out = small_inputs["dir"] / "eval_missing.json"
        code = main(
            [
                "evaluate",
                "--train", paths["train"],
                "--test", paths["test"],
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--numeric-features", "hours",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "unknown column 'hours'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing_from", ["train", "test"])
    @pytest.mark.parametrize(
        "column, message",
        [
            ("job", "quasi-identifier column 'job' not in table"),
            ("salary-class", "sensitive attribute 'salary-class' not in table"),
            ("hours", "unknown column 'hours'"),
        ],
        ids=["qi", "sa", "numeric"],
    )
    def test_a_column_missing_from_one_table_is_named_with_that_table(
        self, small_inputs, capsys, missing_from, column, message
    ):
        text = Path(small_inputs["csv"]).read_text(encoding="utf-8")
        rows = [line.split(",") for line in text.splitlines()]
        drop = rows[0].index(column)
        lacking = small_inputs["dir"] / f"no-{column}.csv"
        kept = [",".join(row[:drop] + row[drop + 1 :]) + "\n" for row in rows]
        lacking.write_text("".join(kept), encoding="utf-8")
        paths = {"train": small_inputs["csv"], "test": small_inputs["csv"]}
        paths[missing_from] = str(lacking)
        out = small_inputs["dir"] / "eval_missing.json"
        code = main(
            [
                "evaluate",
                "--train", paths["train"],
                "--test", paths["test"],
                "--qi", "job,grade",
                "--sa", "salary-class",
                "--numeric-features", "hours",
                "--out", str(out),
            ]
        )
        role = {"train": "training", "test": "test"}[missing_from]
        assert code == 2
        assert capsys.readouterr().err == f"error: {role} set {lacking}: {message}\n"
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
                "--qi", "grade",
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


def run_with_hierarchy_files(tmp_path, rows, hierarchies, *flags):
    """Anonymize ``rows`` (the first is the header; the last column is the SA)
    with hand-written hierarchy files; returns the exit code and --out."""
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    hdir = tmp_path / "given"
    hdir.mkdir()
    for attr, text in hierarchies.items():
        (hdir / f"{attr}.csv").write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        [
            "anonymize",
            "--input", str(data),
            "--out", str(out),
            "--qi", ",".join(hierarchies),
            "--sa", rows[0][-1],
            "--hierarchies-dir", str(hdir),
            *flags,
        ]
    )
    return code, out


class TestSuppressionMark:
    """A written table marks a suppressed row by "*" in every QI cell, so "*"
    is no data value and no hierarchy label below the top."""

    def test_value_star_is_a_config_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("q,s\n*,x\na,y\n*,y\na,x\n", encoding="utf-8")
        (tmp_path / "vecs.txt").write_text("2 1\n* 0\na 1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "anonymize",
                "--input", str(data),
                "--out", str(out),
                "--qi", "q",
                "--k", "2",
                "--vectors", str(tmp_path / "vecs.txt"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "value '*' of attribute 'q'" in err
        assert not (out / "hierarchies").exists()

    def test_star_below_the_top_of_a_hierarchy_file_is_a_config_error(self, tmp_path, capsys):
        rows = [("q", "s")] + list(zip("aaaabcde", "xyxyxyxy"))
        code, out = run_with_hierarchy_files(
            tmp_path, rows, {"q": "a;*;*\nb;*;*\nc;c;*\nd;d;*\ne;e;*\n"},
            "--k", "2", "--sup-limit", "0.4",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "hierarchy for 'q': level 1 has the suppression mark '*'" in err
        assert not out.exists()

    def test_all_top_rows_read_as_suppressed_in_the_written_table(self, tmp_path):
        # Only the all-top node gives k=4. The search counts those rows as
        # retained; the written table cannot tell them from suppressed rows.
        rows = [row.split(",") for row in ("q1,q2,s", "a,x,n", "a,y,p", "b,x,n", "b,y,p")]
        code, out = run_with_hierarchy_files(
            tmp_path, rows, {"q1": "a;*\nb;*\n", "q2": "x;*\ny;*\n"}, "--k", "4"
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["node"], report["perc_recs"], report["achieved_k"]) == ([1, 1], 1.0, 4)
        evaluation = out / "evaluation.json"
        code = main(
            [
                "evaluate",
                "--train", str(out / "anonymized.csv"),
                "--test", str(tmp_path / "data.csv"),
                "--qi", "q1,q2",
                "--sa", "s",
                "--k", "4",
                "--positive-class", "p",
                "--out", str(evaluation),
            ]
        )
        assert code == 0
        evaluated = json.loads(evaluation.read_text())
        assert (evaluated["perc_recs"], evaluated["achieved_k"]) == (0.0, 0)


def command_args(command, small_inputs, out):
    """The flags of a run on ``small_inputs``, less its embedding source."""
    if command == "vgh":
        return ["vgh", "build", "--input", small_inputs["csv"], "--columns", "job,grade",
                "--out-dir", str(out)]
    return ["anonymize", "--input", small_inputs["csv"], "--out", str(out),
            "--qi", "job,grade", "--sa", "salary-class", "--k", "2", "--sup-limit", "0.5"]


class TestEmbeddingsApi:
    """The commands against a scripted embeddings API on 127.0.0.1."""

    @pytest.fixture
    def api_flags(self, embeddings_api, monkeypatch):
        monkeypatch.setenv("CLUSTEM_TEST_KEY", "sekret")
        return ["--api-endpoint", embeddings_api.url, "--api-model", "m",
                "--api-key-env", "CLUSTEM_TEST_KEY"]

    def expected_hierarchy(self, small_inputs, column) -> bytes:
        values = sorted(set(load_csv(small_inputs["csv"]).column(column).values))
        embeddings = {v: np.array(vector_of(v)) for v in values}
        path = small_inputs["dir"] / f"expected-{column}.csv"
        write_hierarchy(build_vgh(values, embeddings, "ward", attribute=column), str(path))
        return path.read_bytes()

    def assert_one_authorized_request(self, embeddings_api):
        [request] = embeddings_api.requests
        assert request.headers["Authorization"] == "Bearer sekret"
        values = ["cook", "high", "low", "mid", "nurse", "pilot"]  # both columns, sorted
        assert request.json == {"model": "m", "input": values}

    def test_vgh_build(self, small_inputs, embeddings_api, api_flags):
        out = small_inputs["dir"] / "h"
        assert main(command_args("vgh", small_inputs, out) + api_flags) == 0
        self.assert_one_authorized_request(embeddings_api)
        for column in ("job", "grade"):
            expected = self.expected_hierarchy(small_inputs, column)
            assert (out / f"{column}.csv").read_bytes() == expected

    def test_anonymize(self, small_inputs, embeddings_api, api_flags):
        out = small_inputs["dir"] / "run"
        assert main(command_args("anonymize", small_inputs, out) + api_flags) == 0
        self.assert_one_authorized_request(embeddings_api)
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["provider"] == f"http:m@{embeddings_api.url}"
        for column in ("job", "grade"):
            written = out / "hierarchies" / f"{column}.csv"
            assert written.read_bytes() == self.expected_hierarchy(small_inputs, column)

    @pytest.mark.parametrize("command", ["vgh", "anonymize"])
    def test_error_reply_exits_3_and_writes_nothing(
        self, small_inputs, embeddings_api, api_flags, capsys, command
    ):
        embeddings_api.reply = lambda request: response(500, b"internal error")
        out = small_inputs["dir"] / "out"
        assert main(command_args(command, small_inputs, out) + api_flags) == 3
        assert "embeddings API returned 500: internal error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "reply, endpoint",
        [
            (b"garbage\r\n", None),
            (response(200, b'{"data": []}', length=100), None),
            (response(307, headers=("Location: /v1/embeddings",)), None),
            (None, "http://[::1/x"),
            (None, "FILE"),  # the vector file's file: URL
        ],
        ids=["garbage-status-line", "truncated-body", "redirect", "unparseable-url", "file-url"],
    )
    def test_transport_failure_exits_3_without_a_traceback(
        self, small_inputs, embeddings_api, reply, endpoint
    ):
        if reply:
            embeddings_api.reply = lambda request: reply
        if endpoint == "FILE":
            endpoint = Path(small_inputs["vectors"]).as_uri()
        out = small_inputs["dir"] / "out"
        args = command_args("vgh", small_inputs, out)
        args += ["--api-endpoint", endpoint or embeddings_api.url, "--api-model", "m"]
        src = str(Path(clustem.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "clustem.cli", *args],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not out.exists()


@pytest.mark.parametrize("command", ["vgh", "anonymize"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--vectors", "VECTORS", "--api-endpoint", "http://127.0.0.1:9/"], "not both"),
        (["--vectors", "VECTORS", "--api-model", "m"], "not both"),
        ([], "an embedding source is required"),
    ],
    ids=["vectors-and-endpoint", "vectors-and-model", "none"],
)
def test_one_embedding_source_or_exit_2(small_inputs, capsys, command, flags, message):
    out = small_inputs["dir"] / "out"
    flags = [small_inputs["vectors"] if flag == "VECTORS" else flag for flag in flags]
    assert main(command_args(command, small_inputs, out) + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--vectors", "nope.txt", "--api-endpoint", "http://127.0.0.1:9/"], 2),
        (["--vectors", "nope.txt", "--api-model", "m"], 2),
        (["--vectors", "nope.txt"], 0),  # a provider is built, never used
    ],
    ids=["vectors-and-endpoint", "vectors-and-model", "vectors"],
)
def test_embedding_flags_are_judged_when_no_hierarchy_is_generated(
    small_inputs, capsys, flags, code
):
    hdir = small_inputs["dir"] / "given"
    hdir.mkdir()
    for attr, values in (("job", ["cook", "nurse", "pilot"]), ("grade", ["high", "low", "mid"])):
        emb = {v: np.array([float(i)]) for i, v in enumerate(values)}
        write_hierarchy(build_vgh(values, emb, "ward", attribute=attr), str(hdir / f"{attr}.csv"))
    out = small_inputs["dir"] / "out"
    args = command_args("anonymize", small_inputs, out) + ["--hierarchies-dir", str(hdir)]
    assert main(args + flags) == code
    if code:
        assert "not both" in capsys.readouterr().err
        assert not out.exists()
    else:
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["provider"] == "hierarchy-files"
        assert not (out / "hierarchies").exists()


@pytest.mark.parametrize("command", ["vgh", "anonymize"])
@pytest.mark.parametrize("where", ["file", "below-a-file", "blocked-output"])
def test_output_path_through_a_file_exits_2_before_embedding(
    small_inputs, capsys, command, where
):
    taken = small_inputs["dir"] / "taken"
    vectors = small_inputs["dir"] / "deleted.txt"  # the provider must not be reached
    flags = ["--vectors", str(vectors)]
    if where == "blocked-output":
        # The first output can be written; a later one is blocked.
        out = small_inputs["dir"] / "out"
        out.mkdir()
        if command == "vgh":
            (out / "grade.csv").mkdir()
            message = f"output file {out / 'grade.csv'} is a directory"
        else:
            (out / "k10").write_text("keep\n", encoding="utf-8")
            flags += ["--k", "2,10"]
            message = f"output directory {out / 'k10'}: {out / 'k10'} is not a directory"
        before = tree(out)
    else:
        taken.write_text("keep\n", encoding="utf-8")
        out = taken / "sub" if where == "below-a-file" else taken
        message = f"output directory {out}: {taken} is not a directory"
    assert main(command_args(command, small_inputs, out) + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    if where == "blocked-output":
        assert tree(out) == before
    else:
        assert taken.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("command", ["vgh", "anonymize"])
@pytest.mark.parametrize("place", ["missing-dir", "through-a-file", "is-a-directory"])
def test_cache_outside_a_directory_exits_2_before_embedding(
    small_inputs, capsys, command, place
):
    if place == "through-a-file":
        (small_inputs["dir"] / "taken").write_text("keep\n", encoding="utf-8")
    cache = small_inputs["dir"] / ("nodir" if place == "missing-dir" else "taken") / "c.json"
    problem = "is not in an existing directory"
    if place == "is-a-directory":
        cache = small_inputs["dir"] / "c.json"
        cache.mkdir()
        problem = "is a directory"
    out = small_inputs["dir"] / "out"
    vectors = small_inputs["dir"] / "deleted.txt"  # the provider must not be reached
    args = command_args(command, small_inputs, out) + ["--vectors", str(vectors)]
    assert main(args + ["--cache", str(cache)]) == 2
    assert capsys.readouterr().err == f"error: embedding cache {cache} {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, raw",
    [("anonymize", "--qi", "job,,grade"), ("vgh", "--columns", ",job")],
)
def test_malformed_column_list_exits_2_and_writes_nothing(
    small_inputs, capsys, command, flag, raw
):
    out = small_inputs["dir"] / "out"
    args = command_args(command, small_inputs, out)
    args[args.index(flag) + 1] = raw
    assert main(args + ["--vectors", small_inputs["vectors"]]) == 2
    assert capsys.readouterr().err == f"error: malformed column list {raw!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("config", [None, {"qi": ["job"], "k": 2}], ids=["flags", "config"])
def test_empty_qi_flag_is_a_malformed_column_list(small_inputs, capsys, config):
    out = small_inputs["dir"] / "out"
    args = command_args("anonymize", small_inputs, out)
    args[args.index("--qi") + 1] = ""
    if config is not None:
        path = small_inputs["dir"] / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(path)]
    assert main(args + ["--vectors", small_inputs["vectors"]]) == 2
    assert capsys.readouterr().err == "error: malformed column list ''\n"
    assert not out.exists()


def _rename_columns(small_inputs, job, grade, hours="hours"):
    data = Path(small_inputs["csv"])
    text = data.read_text(encoding="utf-8")
    text = text.replace("job,grade,salary-class,hours", f"{job},{grade},salary-class,{hours}", 1)
    data.write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "command, names, flags",
    [
        ("vgh", "../edu", []),
        ("anonymize", "../edu", []),
        ("anonymize", "work/class,../edu", []),
        ("anonymize", "../edu", ["--hierarchies-dir", "given"]),
        ("vgh", "ho\0urs", []),
        ("anonymize", "ho\0urs", []),
    ],
    ids=["vgh", "anonymize", "anonymize-two", "hierarchies-dir", "vgh-nul", "anonymize-nul"],
)
def test_column_name_holding_a_path_separator_or_nul_exits_2_and_writes_nothing(
    small_inputs, capsys, command, names, flags
):
    root = small_inputs["dir"]
    _rename_columns(small_inputs, "work/class", "../edu", "ho\0urs")
    (root / "given").mkdir()
    args = command_args(command, small_inputs, root / "out")
    args[args.index("--columns" if command == "vgh" else "--qi") + 1] = names
    flags = [str(root / flag) if flag == "given" else flag for flag in flags]
    vectors = root / "deleted.txt"  # the provider must not be reached
    before = tree(root)
    assert main(args + ["--vectors", str(vectors), *flags]) == 2
    first = names.split(",")[0]
    message = f"column name {first!r} holds a path separator or NUL"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert tree(root) == before


@pytest.mark.parametrize("command", ["vgh", "anonymize"])
def test_column_name_holding_the_alternative_separator_exits_2(
    small_inputs, capsys, monkeypatch, command
):
    monkeypatch.setattr(os, "altsep", "\\")
    root = small_inputs["dir"]
    _rename_columns(small_inputs, "job", "..\\edu")
    args = command_args(command, small_inputs, root / "out")
    args[args.index("--columns" if command == "vgh" else "--qi") + 1] = "..\\edu"
    before = tree(root)
    assert main(args + ["--vectors", small_inputs["vectors"]]) == 2
    message = "column name '..\\\\edu' holds a path separator or NUL"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert tree(root) == before


def test_hierarchies_dir_is_not_searched_for_a_column_the_config_names(small_inputs):
    # The config names a hierarchy for "../edu", so no "<dir>/../edu.csv" is formed.
    root = small_inputs["dir"]
    _rename_columns(small_inputs, "job", "../edu")
    values = ["high", "low", "mid"]
    _write_hierarchy_of(values, root / "edu.csv", "../edu")
    config = root / "run.json"
    config.write_text(json.dumps({"hierarchies": {"../edu": str(root / "edu.csv")}}), "utf-8")
    (root / "given").mkdir()
    out = root / "out"
    args = command_args("anonymize", small_inputs, out)
    args[args.index("--qi") + 1] = "../edu"
    flags = ["--config", str(config), "--hierarchies-dir", str(root / "given")]
    assert main(args + flags + ["--vectors", small_inputs["vectors"]]) == 0
    assert json.loads((out / "report.json").read_text())["meta"]["provider"] == "hierarchy-files"


@pytest.mark.parametrize("method", ["ward", "kmeans"])
def test_both_commands_write_the_same_hierarchies(small_inputs, method):
    flags = ["--method", method, "--seed", "7", "--vectors", small_inputs["vectors"]]
    built, run = small_inputs["dir"] / "built", small_inputs["dir"] / "run"
    assert main(command_args("vgh", small_inputs, built) + flags) == 0
    assert main(command_args("anonymize", small_inputs, run) + flags) == 0
    for column in ("job", "grade"):
        written = (run / "hierarchies" / f"{column}.csv").read_bytes()
        assert written == (built / f"{column}.csv").read_bytes()


def test_written_hierarchies_with_unicode_line_breaks_read_back(small_inputs):
    # "\x85" and "\u2028" are line boundaries to str.splitlines, not to a
    # hierarchy file.
    csv_path = Path(small_inputs["csv"])
    text = csv_path.read_text(encoding="utf-8")
    csv_path.write_text(
        text.replace("cook", "cook\x85chef").replace("nurse", "nurse\u2028aid"), encoding="utf-8"
    )
    generate = ["--seed", "7", "--vectors", small_inputs["vectors"]]
    built, given, run = (small_inputs["dir"] / name for name in ("built", "given", "run"))
    assert main(command_args("vgh", small_inputs, built) + generate) == 0
    read_back = ["--hierarchies-dir", str(built)]
    assert main(command_args("anonymize", small_inputs, given) + read_back) == 0
    assert main(command_args("anonymize", small_inputs, run) + generate) == 0
    written = (given / "anonymized.csv").read_bytes()
    assert written == (run / "anonymized.csv").read_bytes()
    assert "cook\x85chef".encode() in written


def test_evaluate_out_naming_a_directory_exits_2_before_loading(small_inputs, capsys):
    taken = small_inputs["dir"] / "taken"
    taken.mkdir()
    missing = small_inputs["dir"] / "missing.csv"  # loading it would fail differently
    code = main(
        [
            "evaluate",
            "--train", str(missing),
            "--test", str(missing),
            "--qi", "job,grade",
            "--sa", "salary-class",
            "--out", str(taken),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: output file {taken} is a directory\n"
    assert list(taken.iterdir()) == []


def _write_hierarchy_of(values, path, attr):
    embeddings = {v: np.array([float(i)]) for i, v in enumerate(values)}
    write_hierarchy(build_vgh(values, embeddings, "ward", attribute=attr), str(path))


@pytest.mark.parametrize("with_file", [False, True], ids=["generated", "with-a-file"])
def test_oversized_lattice_exits_2_before_embedding(tmp_path, capsys, with_file):
    # Four generated 57-value columns give 58**4 = 11,316,496 nodes; with a
    # 60-value file hierarchy (61 levels) as the fourth, 58**3 * 61.
    data = tmp_path / "wide.csv"
    rows = [f"a{i % 57},b{i % 57},c{i % 57},d{i},s{i % 2}\n" for i in range(60 if with_file else 57)]
    data.write_text("a,b,c,d,sa\n" + "".join(rows), encoding="utf-8")
    flags = []
    if with_file:
        hdir = tmp_path / "given"
        hdir.mkdir()
        _write_hierarchy_of([f"d{i}" for i in range(60)], hdir / "d.csv", "d")
        flags = ["--hierarchies-dir", str(hdir)]
    out = tmp_path / "out"
    vectors = tmp_path / "deleted.txt"  # the provider must not be reached
    code = main(
        ["anonymize", "--input", str(data), "--out", str(out), "--qi", "a,b,c,d", "--sa", "sa",
         "--k", "2", "--vectors", str(vectors), *flags]
    )
    assert code == 2
    expected = 58**3 * 61 if with_file else 58**4
    assert capsys.readouterr().err == (
        f"error: generalization lattice has {expected} nodes, above the 10000000 limit\n"
    )
    assert not out.exists()


def test_value_missing_from_a_hierarchy_file_exits_2_before_embedding(small_inputs, capsys):
    hdir = small_inputs["dir"] / "given"
    hdir.mkdir()
    _write_hierarchy_of(["cook", "nurse"], hdir / "job.csv", "job")  # no "pilot"
    out = small_inputs["dir"] / "out"
    vectors = small_inputs["dir"] / "deleted.txt"  # grade is generated, but not reached
    args = command_args("anonymize", small_inputs, out)
    code = main(args + ["--hierarchies-dir", str(hdir), "--vectors", str(vectors)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: value 'pilot' in column 'job' is not a hierarchy leaf\n"
    assert not out.exists()


def test_console_entry_point_exits_with_mains_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["clustem", "--help"])
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: clustem ")


def test_module_runs_as_a_script():
    src = str(Path(clustem.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "clustem.cli", "--help"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: clustem ")


def test_anonymize_and_evaluate_import_no_further_numpy_module(small_inputs):
    # Every numpy module the commands need is loaded by importing the CLI,
    # so a fresh process pays for no lazily imported one (numpy.ma, ...).
    out = small_inputs["dir"] / "out"
    anonymize = command_args("anonymize", small_inputs, out) + [
        "--method", "ward", "--vectors", small_inputs["vectors"]
    ]
    evaluate = ["evaluate", "--train", str(out / "anonymized.csv"), "--test",
                small_inputs["csv"], "--qi", "job,grade", "--sa", "salary-class",
                "--numeric-features", "hours", "--out", str(out / "evaluation.json")]
    script = (
        "import json, sys\n"
        "import clustem.cli\n"
        "def numpy_modules():\n"
        "    return {m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')}\n"
        "before = numpy_modules()\n"
        f"codes = [clustem.cli.main(argv) for argv in {[anonymize, evaluate]!r}]\n"
        "print(json.dumps({'codes': codes, 'added': sorted(numpy_modules() - before)}))\n"
    )
    src = str(Path(clustem.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0], "added": []}


def test_a_word_vector_build_imports_no_http_client(small_inputs):
    # Only the HTTP provider needs the stdlib's HTTP stack, and it is slow to import.
    out = small_inputs["dir"] / "out"
    build = command_args("vgh", small_inputs, out) + ["--vectors", small_inputs["vectors"]]
    script = (
        "import json, sys\n"
        "import clustem.cli\n"
        f"code = clustem.cli.main({build!r})\n"
        "http = ['ssl', 'http.client', 'urllib.request', 'email']\n"
        "print(json.dumps({'code': code, 'loaded': [m for m in http if m in sys.modules]}))\n"
    )
    src = str(Path(clustem.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}


@pytest.mark.parametrize(
    "command, flag, name",
    [("anonymize", "--input", "missing.csv"), ("vgh", "--out-dir", "taken")],
    ids=["missing-input", "out-dir-is-a-file"],
)
def test_os_error_exits_2_naming_the_path(small_inputs, capsys, command, flag, name):
    path = small_inputs["dir"] / name
    if name == "taken":
        path.write_text("", encoding="utf-8")
    args = command_args(command, small_inputs, small_inputs["dir"] / "out")
    args[args.index(flag) + 1] = str(path)
    assert main(args + ["--vectors", small_inputs["vectors"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err
    assert "Traceback" not in err


def _filled(argv, small_inputs):
    fields = {"csv": small_inputs["csv"], "vectors": small_inputs["vectors"],
              "dir": small_inputs["dir"]}
    return [arg.format(**fields) for arg in argv]


class TestCollectorPause:
    BUILD = ["vgh", "build", "--input", "{csv}", "--columns", "job",
             "--vectors", "{vectors}", "--out-dir", "{dir}/h"]

    def test_a_command_runs_with_the_collector_off(self, small_inputs, monkeypatch):
        seen = []

        def recording_load_csv(*args, **kwargs):
            seen.append(gc.isenabled())
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(clustem.cli, "load_csv", recording_load_csv)
        assert gc.isenabled()
        assert main(_filled(self.BUILD, small_inputs)) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_main_returns_with_no_collector_pass_due(self, small_inputs):
        # The young-generation pass that the pause deferred is made before
        # main returns, not on the caller's next allocation.
        argv = _filled(self.BUILD, small_inputs)
        gc.disable()
        live = [[] for _ in range(gc.get_threshold()[0])]  # so a pass is due at entry
        gc.enable()
        code = main(argv)
        young = gc.get_count()[0]
        del live
        assert code == 0
        assert young < gc.get_threshold()[0], young

    @pytest.mark.parametrize(
        "argv, code",
        [
            (BUILD, 0),
            (["anonymize", "--input", "{csv}", "--out", "{dir}/out", "--qi", "job,grade",
              "--sa", "salary-class", "--k", "99", "--sup-limit", "0", "--vectors", "{vectors}"],
             1),
            ([arg.replace("{csv}", "{dir}/missing.csv") for arg in BUILD], 2),
            ([arg.replace("{vectors}", "{dir}/bad.txt") for arg in BUILD], 3),
            (["vgh", "build", "--columns", "job"], 2),
            (["--help"], 0),
        ],
        ids=["exit-0", "unsatisfiable", "missing-input", "bad-vector-file", "usage-error", "help"],
    )
    def test_the_collector_is_on_again_after_each_exit(self, small_inputs, capsys, argv, code):
        (small_inputs["dir"] / "bad.txt").write_text("two words\n", encoding="utf-8")
        assert gc.isenabled()
        assert main(_filled(argv, small_inputs)) == code
        assert gc.isenabled()

    def test_a_caller_that_turned_the_collector_off_keeps_it_off(self, small_inputs):
        gc.disable()
        try:
            assert main(_filled(self.BUILD, small_inputs)) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_sweep_leaves_cyclic_garbage_that_does_not_grow_with_rows(
        self, adult_paths, tmp_path
    ):
        # Pausing the collector for a command holds its cyclic garbage until
        # the command ends, so that garbage must stay small at any table size.
        # Measured before the pause was added: 455 objects at 400 and at 5,000
        # rows alike (CPython 3.11, numpy 2.4); the margin allows for other
        # versions and for one-time garbage of a first run.
        small = tmp_path / "small.csv"
        datagen.write_csv(str(small), datagen.make_rows(400, seed=11))
        garbage = []
        for path in (str(small), adult_paths["train"]):
            argv = ["anonymize", "--input", path, "--out", str(tmp_path / f"out{len(garbage)}"),
                    "--qi", ",".join(datagen.QI), "--sa", datagen.SA, "--k", "2,10,30,200",
                    "--l", "2", "--sup-limit", "0.5", "--vectors", adult_paths["vectors"]]
            gc.collect()
            gc.disable()
            try:
                assert main(argv) == 0
                garbage.append(gc.collect())
            finally:
                gc.enable()
        assert max(garbage) < 1000
        assert abs(garbage[0] - garbage[1]) <= 50, garbage
