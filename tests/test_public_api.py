"""The package's exported names and the README's library example."""

from __future__ import annotations

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import _datagen as datagen
import clustem
from clustem import cli

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(clustem.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in clustem.__all__ if not hasattr(clustem, name)]
    assert missing == []
    assert len(set(clustem.__all__)) == len(clustem.__all__)


def test_exported_names_are_the_readme_library_surface():
    [section] = re.findall(r"\n## Library use\n(.*?)\n## ", README.read_text(encoding="utf-8"), re.S)
    [listed] = re.findall(r"`clustem\.__all__` exports \((.*?)\)", section, re.S)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(clustem.__all__)
    [block] = re.findall(r"```python\n(.*?)```", section, re.S)
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "clustem"
        for alias in node.names
    }
    assert imported and imported <= set(clustem.__all__)


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
    scores = namespace["scores"]
    assert 0.0 <= scores.f1 <= 1.0 and 0.5 <= scores.accuracy <= 1.0


def test_readme_commands_and_config_parse(tmp_path):
    text = README.read_text(encoding="utf-8")
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line) for line in lines.splitlines() if line.startswith("clustem ")]
    assert {argv[1] for argv in commands} == {"vgh", "anonymize", "evaluate"}
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])

    [config] = re.findall(r"### Run config file\n.*?```json\n(.*?)```", text, re.S)
    path = tmp_path / "run.json"
    path.write_text(config, encoding="utf-8")
    assert cli._load_config(str(path))["k"] == 5


def _top_level_modules_after(statement: str) -> set[str]:
    """The top-level modules loaded by a fresh interpreter that runs ``statement``."""
    src = str(Path(clustem.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return {name.partition(".")[0] for name in proc.stdout.split()}


def test_numpy_is_the_only_runtime_dependency():
    added = _top_level_modules_after("import clustem.cli") - _top_level_modules_after(
        "import numpy"
    )
    assert added - set(sys.stdlib_module_names) == {"clustem"}


def _leftovers(path: Path) -> list[str]:
    """The imports that a module never uses, and its module-level ``_`` names
    (functions, classes, constants) that it never reads. The package
    ``__init__`` uses what its ``__all__`` lists."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    if path.name == "__init__.py":
        read |= set(clustem.__all__)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    found.append(f"{path.name}:{node.lineno}: import {bound!r} is unused")
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__") and name not in read:
                found.append(f"{path.name}:{node.lineno}: {name!r} is never read")
    return found


def test_no_unused_import_or_private_name():
    found = [fault for path in sorted(SRC.glob("*.py")) for fault in _leftovers(path)]
    assert found == []
