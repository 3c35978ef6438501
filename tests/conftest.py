from __future__ import annotations

import faulthandler
import os
from collections import Counter
from pathlib import Path

import pytest

import _datagen as datagen
from _loopback import EmbeddingsApi
from clustem import tabular
from clustem.tabular import Column, Table


# The slowest test takes about 5 s; one that runs this long has hung.
HANG_SECONDS = 120
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy of the run's stderr: inside a test, output to file descriptor 2
    # is captured, and a dump written there is lost when the guard ends the run.
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    """End the run, printing every thread's stack to stderr, if a test runs
    past HANG_SECONDS, so that a hang fails instead of stalling the suite. The
    time includes the set-up of the module and session fixtures the test is
    the first to use, which an autouse fixture would not cover."""
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


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


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``, relative to it, with a file's bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


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
