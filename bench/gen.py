"""Generate one workload's inputs from a seed into a directory.

    python3 bench/gen.py <workload> <seed> <size> <out-dir>

Needs `src` and `tests` on PYTHONPATH. The Adult-schema rows and the word
vectors of sweep-5k and bulk-100k come from `tests/_datagen.py` (training rows
from the seed, test rows from seed + 1, so seed 11 reproduces the acceptance
fixture). The high-cardinality table and its word-vector file are generated
here. The directory is written under a temporary name and renamed when
complete, so a partial directory is never taken for a cached one.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import _datagen as datagen
from workloads import KMEANS_COLUMN, SIZES, WARD_COLUMN, input_files


def _distinct_values(rng: np.random.Generator, tokens: list[str], count: int,
                     taken: set[str]) -> list[str]:
    """``count`` new distinct values of 1-3 tokens joined by '-'."""
    values: list[str] = []
    while len(values) < count:
        width = int(rng.integers(1, 4))
        value = "-".join(tokens[int(i)] for i in rng.integers(len(tokens), size=width))
        if value not in taken:
            taken.add(value)
            values.append(value)
    return values


def _column(rng: np.random.Generator, values: list[str], rows: int) -> list[str]:
    """Every value at least once, the rest drawn at random, shuffled."""
    cells = values + [values[int(i)] for i in rng.integers(len(values), size=rows - len(values))]
    return [cells[int(i)] for i in rng.permutation(len(cells))]


def write_highcard(out: Path, seed: int, params: dict) -> None:
    rng = np.random.default_rng([seed, 0x76676862])
    n_tokens, dim = params["tokens"], params["dim"]
    tokens = [f"t{i:05d}" for i in range(n_tokens)]
    # Tokens share one of a few group directions plus noise, so clusters exist.
    bases = rng.normal(0.0, 1.0, (params["groups"], dim))
    vectors = bases[rng.integers(params["groups"], size=n_tokens)]
    vectors = vectors + 0.5 * rng.normal(0.0, 1.0, (n_tokens, dim))
    with open(out / "vectors.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{n_tokens} {dim}\n")
        for token, vec in zip(tokens, vectors.tolist()):
            fh.write(token + " " + " ".join(map(repr, vec)) + "\n")

    taken: set[str] = set()
    ward_values = _distinct_values(rng, tokens, params["ward_values"], taken)
    kmeans_values = _distinct_values(rng, tokens, params["kmeans_values"], taken)
    rows = max(params["rows"], len(ward_values), len(kmeans_values))
    columns = [_column(rng, ward_values, rows), _column(rng, kmeans_values, rows)]
    with open(out / "terms.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([WARD_COLUMN, KMEANS_COLUMN])
        writer.writerows(zip(*columns))


def generate(workload: str, seed: int, size: str, out: Path) -> None:
    params = SIZES[size][workload]
    if workload == "highcard-vgh":
        write_highcard(out, seed, params)
        return
    datagen.write_csv(str(out / "train.csv"), datagen.make_rows(params["train_rows"], seed))
    if "test_rows" in params:
        datagen.write_csv(str(out / "test.csv"), datagen.make_rows(params["test_rows"], seed + 1))
    datagen.write_word_vectors(str(out / "vectors.txt"))


def main(argv: list[str]) -> int:
    workload, seed, size, out = argv[0], int(argv[1]), argv[2], Path(argv[3])
    if all(p.exists() for p in input_files(workload, out).values()):
        return 0
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    generate(workload, seed, size, tmp)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
