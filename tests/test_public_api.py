"""The package's exported names and the README's library example."""

from __future__ import annotations

import re
from pathlib import Path

import _datagen as datagen
import clustem

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in clustem.__all__ if not hasattr(clustem, name)]
    assert missing == []
    assert len(set(clustem.__all__)) == len(clustem.__all__)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    datagen.write_csv("adult.csv", datagen.make_rows(600, seed=3))
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)

    result, report = namespace["result"], namespace["report"]
    assert (tmp_path / "anonymized.csv").exists()
    assert result.satisfied
    assert report.achieved_k >= 5 and report.achieved_l >= 2
    # One generator for all values, so every value gets its own vector.
    embeddings = namespace["embeddings"]
    vectors = {tuple(v) for v in embeddings.values()}
    assert len(vectors) == len(embeddings) > 1
    assert str(result.node) in capsys.readouterr().out
