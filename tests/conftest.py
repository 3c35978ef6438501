from __future__ import annotations

from collections import Counter

import pytest

import _datagen as datagen
from _loopback import EmbeddingsApi
from clustem import tabular
from clustem.tabular import Column, Table


@pytest.fixture(scope="session")
def adult_paths(tmp_path_factory):
    """Desk-scale Adult-schema fixture: 5000 training rows, 1500 test rows,
    and a word-vector file covering the QI vocabulary."""
    root = tmp_path_factory.mktemp("adult")
    train = root / "train.csv"
    test = root / "test.csv"
    vectors = root / "vectors.txt"
    datagen.write_csv(str(train), datagen.make_rows(5000, seed=11))
    datagen.write_csv(str(test), datagen.make_rows(1500, seed=12))
    datagen.write_word_vectors(str(vectors))
    return {"train": str(train), "test": str(test), "vectors": str(vectors)}


@pytest.fixture
def embeddings_api(monkeypatch):
    """A scripted embeddings API on 127.0.0.1 (see ``_loopback``)."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # keep an outer proxy off the loopback traffic
    with EmbeddingsApi() as api:
        yield api


def make_table(**columns: list[str]) -> Table:
    """Table from name=values keyword pairs, preserving order."""
    return Table([Column(name, list(values)) for name, values in columns.items()])


@pytest.fixture
def toy_table() -> Table:
    return make_table(
        q=["a", "a", "b", "b", "c"],
        s=["x", "y", "x", "y", "x"],
    )


@pytest.fixture
def paths_taken(monkeypatch):
    """Counts the files ``load_csv`` splits directly and those it hands to csv."""
    taken = Counter()
    split, read = tabular._split_plain, tabular._read_csv

    def spy_split(text):
        table = split(text)
        if table is not None:
            taken["split"] += 1
        return table

    def spy_read(path, stream):
        taken["csv"] += 1
        return read(path, stream)

    monkeypatch.setattr(tabular, "_split_plain", spy_split)
    monkeypatch.setattr(tabular, "_read_csv", spy_read)
    return taken
