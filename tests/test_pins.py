"""Pins of the pipeline's outputs on one fixed input.

Each method runs ``anonymize --k 2,10,30,200 --l 2 --sup-limit 0.5 --seed 42``
on ``_datagen.make_rows(2000, seed=11)`` with the ``_datagen`` word vectors,
and the Ward k=10 and k=200 tables are evaluated against 1000 test rows from
seed 12. PINS holds the SHA-256 of every hierarchy file and anonymized CSV,
per k the node, loss, ``satisfied`` and ``suppressed_count``, and each
evaluation's accuracy and F1 as exact floats. Whole reports are not
digested: they hold timestamps and the vector file's path.

A change that moves a pin updates PINS in the same commit and lists each
moved pin, with its reason, in CHANGES.md. ``PYTHONPATH=src python
tests/test_pins.py`` prints the observed values in PINS's layout.
"""

from __future__ import annotations

import hashlib
import json
import pprint
import tempfile
from pathlib import Path

import pytest

import _datagen as datagen
from clustem.cli import main
from clustem.vgh import METHODS

SWEEP = [2, 10, 30, 200]
EVALUATED = ("ward", [10, 200])

PINS = {
    "kmeans": {
        "hierarchies": {
            "workclass": "3ae6dc8772b73e1f009c3ab9717ac0d1bc97e8e2daee0100f0be9b44728e23c8",
            "education": "9e1a0d7078dd00aed9225a272854fa129e0045d0c020c8e5bdbb9aa39924eaee",
            "occupation": "2bcbdd348ecda70db5adf90adcac3ed43dd30279205e3bce24d56169ea0a0422",
            "native-country": "73ca68e3d65b35660b4ef91d7d1f3304c621ba11529a2061604c2c18e73f9b25",
        },
        "k2": {
            "csv": "71f592f540f093a3b3165239d99c1ee0b8ac4b694dc35f8772712ca917bb30aa",
            "node": [0, 0, 0, 0],
            "loss": 0.0,
            "satisfied": True,
            "suppressed_count": 743,
        },
        "k10": {
            "csv": "7aed6e70b545aee0873f2785f43d20a8b5e265dbf49e8b27560d924958908dff",
            "node": [1, 2, 0, 0],
            "loss": 0.059027777777777776,
            "satisfied": True,
            "suppressed_count": 997,
        },
        "k30": {
            "csv": "28a5ead1e6f12f73dfdcf6e42724d4011bcdb4bdf31ff1697d23098f04156352",
            "node": [0, 12, 0, 0],
            "loss": 0.1875,
            "satisfied": True,
            "suppressed_count": 987,
        },
        "k200": {
            "csv": "f204db2642c15782d2498854865aafab8b0c884775dd31f1ac00fd0e93fd6fe7",
            "node": [0, 11, 13, 0],
            "loss": 0.3885416666666667,
            "satisfied": True,
            "suppressed_count": 969,
        },
    },
    "ward": {
        "hierarchies": {
            "workclass": "95acacf5e6ddd6e543279c437a7703614509c52f8b6fb4f3ba1f3f41fc389433",
            "education": "c5f526d900155dd07d3b1682be3b5007d07bce3154187770a1597e3f6e95c3ef",
            "occupation": "849238aefba27cade8849becebce96dc6e7cfbc3525e4ba3f8449fdf35cc8c5e",
            "native-country": "7cafda68d698b452cc03e8a360d7572b0433f5dd04a3cf41293d1f29ccd64757",
        },
        "k2": {
            "csv": "71f592f540f093a3b3165239d99c1ee0b8ac4b694dc35f8772712ca917bb30aa",
            "node": [0, 0, 0, 0],
            "loss": 0.0,
            "satisfied": True,
            "suppressed_count": 743,
        },
        "k10": {
            "csv": "7aed6e70b545aee0873f2785f43d20a8b5e265dbf49e8b27560d924958908dff",
            "node": [1, 2, 0, 0],
            "loss": 0.059027777777777776,
            "satisfied": True,
            "suppressed_count": 997,
        },
        "k30": {
            "csv": "4cd45a51aad5300cd0339258ee234e6f3d403cda53a5f0c860d9df0b23f34df1",
            "node": [0, 1, 11, 0],
            "loss": 0.19895833333333332,
            "satisfied": True,
            "suppressed_count": 879,
        },
        "k200": {
            "csv": "8d633f85357f368cad401c5c82743fb7c58aa2e991e4437fd474769e45e3d1bb",
            "node": [0, 11, 14, 0],
            "loss": 0.40520833333333334,
            "satisfied": True,
            "suppressed_count": 992,
        },
    },
    "evaluate": {
        "k10": {"accuracy": 0.728, "f1": 0.41379310344827586},
        "k200": {"accuracy": 0.759, "f1": 0.20462046204620463},
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observe(root: Path) -> dict:
    """Run the pinned commands under ``root`` and collect the pinned values."""
    train, test, vectors = root / "train.csv", root / "test.csv", root / "vectors.txt"
    datagen.write_csv(str(train), datagen.make_rows(2000, seed=11))
    datagen.write_csv(str(test), datagen.make_rows(1000, seed=12))
    datagen.write_word_vectors(str(vectors))
    qi = ",".join(datagen.QI)

    observed = {}
    for method in METHODS:
        out = root / method
        code = main(
            ["anonymize", "--input", str(train), "--out", str(out), "--qi", qi]
            + ["--sa", datagen.SA, "--k", ",".join(map(str, SWEEP)), "--l", "2"]
            + ["--sup-limit", "0.5", "--method", method, "--seed", "42"]
            + ["--vectors", str(vectors)]
        )
        assert code == 0
        pins = {"hierarchies": {a: _sha256(out / "hierarchies" / f"{a}.csv") for a in datagen.QI}}
        for k in SWEEP:
            report = json.loads((out / f"k{k}" / "report.json").read_text())
            pins[f"k{k}"] = {
                "csv": _sha256(out / f"k{k}" / "anonymized.csv"),
                "node": report["node"],
                "loss": report["loss"],
                "satisfied": report["satisfied"],
                "suppressed_count": report["suppressed_count"],
            }
        observed[method] = pins

    method, ks = EVALUATED
    observed["evaluate"] = {}
    for k in ks:
        code = main(
            ["evaluate", "--train", str(root / method / f"k{k}" / "anonymized.csv")]
            + ["--test", str(test), "--qi", qi, "--sa", datagen.SA]
            + ["--out", str(root / "eval.json")]
            + ["--k", str(k), "--l", "2", "--sup-limit", "0.5", "--seed", "42"]
        )
        assert code == 0
        efficacy = json.loads((root / "eval.json").read_text())["efficacy"]
        observed["evaluate"][f"k{k}"] = {"accuracy": efficacy["accuracy"], "f1": efficacy["f1"]}
    return observed


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return observe(tmp_path_factory.mktemp("pins"))


@pytest.mark.parametrize("method", METHODS)
def test_hierarchy_files_are_pinned(observed, method):
    assert observed[method]["hierarchies"] == PINS[method]["hierarchies"]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", SWEEP)
def test_sweep_outputs_are_pinned(observed, method, k):
    assert observed[method][f"k{k}"] == PINS[method][f"k{k}"]


def test_evaluation_is_pinned(observed):
    assert observed["evaluate"] == PINS["evaluate"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(observe(Path(tmp)), width=100, sort_dicts=False)
