"""Downstream classification check on (generalized) tables.

Nominal QI cells are multi-hot encoded against the hierarchy leaves: a plain
leaf sets its own bit, a "{a,b}" set label sets every member's bit, and "*"
sets the whole attribute block. Numeric features are standardized with
training statistics only. Their cells must be finite numbers or the missing
marker "?"; any other cell (text, "nan", "inf", "1e999") is an input error
(exit 2). The classifier is a fixed logistic regression trained by seeded
mini-batch gradient descent, so results are deterministic and comparable
across runs.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .tabular import MISSING, SUPPRESSED, Table

logger = logging.getLogger(__name__)

LEARNING_RATE = 0.1
EPOCHS = 500
L2_STRENGTH = 1e-4
BATCH_SIZE = 64

DEFAULT_NUMERIC_FEATURES = ["capital-gain", "capital-loss", "hours-per-week"]


@dataclass
class FeatureMatrix:
    feature_names: list[str]
    data: np.ndarray
    labels: np.ndarray


@dataclass
class EfficacyReport:
    accuracy: float
    f1: float
    positive_class: str

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "f1": self.f1, "positive_class": self.positive_class}


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    constant_label: int | None = None

    def predict(self, data: np.ndarray) -> np.ndarray:
        if self.constant_label is not None:
            return np.full(data.shape[0], self.constant_label, dtype=int)
        return (data @ self.weights + self.bias >= 0.0).astype(int)


def infer_leaves(tables: Sequence[Table], qi: Sequence[str]) -> dict[str, list[str]]:
    """Recover per-attribute leaf vocabularies from raw and generalized cells:
    plain cells count as leaves, "{...}" labels contribute their members, "*"
    contributes nothing."""
    leaves: dict[str, set[str]] = {attr: set() for attr in qi}
    for table in tables:
        for attr in qi:
            for cell in table.column(attr).values:
                if cell == SUPPRESSED:
                    continue
                if cell.startswith("{") and cell.endswith("}"):
                    leaves[attr].update(m for m in cell[1:-1].split(",") if m)
                else:
                    leaves[attr].add(cell)
    return {attr: sorted(vals) for attr, vals in leaves.items()}


def _labels(table: Table, label_column: str, positive_class: str) -> np.ndarray:
    cells = table.column(label_column).values
    return np.array([1 if cell == positive_class else 0 for cell in cells], dtype=int)


def _multi_hot(
    table: Table, qi: Sequence[str], leaves: Mapping[str, Sequence[str]]
) -> np.ndarray:
    blocks = []
    unseen: set[tuple[str, str]] = set()
    for attr in qi:
        leaf_index = {leaf: i for i, leaf in enumerate(leaves[attr])}
        block = np.zeros((table.row_count, len(leaf_index)))
        for row, cell in enumerate(table.column(attr).values):
            if cell == SUPPRESSED:
                block[row, :] = 1.0
            elif cell in leaf_index:
                block[row, leaf_index[cell]] = 1.0
            elif cell.startswith("{") and cell.endswith("}"):
                for member in cell[1:-1].split(","):
                    if member in leaf_index:
                        block[row, leaf_index[member]] = 1.0
                    elif (attr, member) not in unseen:
                        unseen.add((attr, member))
                        logger.warning("unknown leaf %r inside %r for %r", member, cell, attr)
            elif (attr, cell) not in unseen:
                unseen.add((attr, cell))
                logger.warning("unseen value %r for %r encoded as all-zero", cell, attr)
        blocks.append(block)
    return np.hstack(blocks) if blocks else np.zeros((table.row_count, 0))


def _number(role: str, name: str, row: int, cell: str) -> float:
    """A numeric feature cell as a float, NaN for the missing marker."""
    if cell == MISSING:
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise InputError(
            f"{role} set, numeric feature {name!r}, data row {row}: {cell!r} is "
            f"neither a finite number nor the missing marker {MISSING!r}"
        )
    return value


def _numeric_matrix(table: Table, names: Sequence[str], role: str) -> np.ndarray:
    cols = []
    for name in names:
        cells = table.column(name).values
        cols.append(np.array([_number(role, name, i, c) for i, c in enumerate(cells, start=1)]))
    return np.stack(cols, axis=1) if names else np.zeros((table.row_count, 0))


def encode(
    train: Table,
    test: Table,
    qi: Sequence[str],
    numeric_features: Sequence[str],
    leaves: Mapping[str, Sequence[str]],
    label_column: str,
    positive_class: str,
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Encode train and test with one shared feature layout: multi-hot blocks
    in QI order (leaves lexicographic), then numerics standardized to the
    training mean and variance (missing numerics land on the mean)."""
    observed = set(train.column(label_column).values) | set(test.column(label_column).values)
    if len(observed) > 2:
        raise InputError(
            f"label column {label_column!r} must be binary, found {sorted(observed)[:4]}"
        )
    names = [f"{attr}={leaf}" for attr in qi for leaf in sorted(leaves[attr])] + list(
        numeric_features
    )

    sorted_leaves = {attr: sorted(leaves[attr]) for attr in qi}
    train_numeric = _numeric_matrix(train, numeric_features, "training")
    test_numeric = _numeric_matrix(test, numeric_features, "test")
    if train_numeric.shape[1]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-missing columns
            mean = np.nanmean(train_numeric, axis=0)
            std = np.nanstd(train_numeric, axis=0)
        mean = np.where(np.isnan(mean), 0.0, mean)
        std = np.where((std == 0.0) | np.isnan(std), 1.0, std)
        train_numeric = (np.where(np.isnan(train_numeric), mean, train_numeric) - mean) / std
        test_numeric = (np.where(np.isnan(test_numeric), mean, test_numeric) - mean) / std

    out = []
    for table, numeric in ((train, train_numeric), (test, test_numeric)):
        data = np.hstack([_multi_hot(table, qi, sorted_leaves), numeric])
        out.append(FeatureMatrix(names, data, _labels(table, label_column, positive_class)))
    return out[0], out[1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_classifier(train: FeatureMatrix, seed: int) -> LogisticModel:
    """Logistic regression by mini-batch gradient descent (fixed learning rate
    0.1, 500 epochs, L2 strength 1e-4, seeded shuffling). Single-class data
    yields a degenerate model that predicts the sole class; no rows at all is
    an input error."""
    if train.data.shape[0] == 0:
        raise InputError("training needs a non-empty training set")
    labels = train.labels
    classes = np.unique(labels)
    if classes.size == 1:
        warnings.warn("training data holds a single class; model predicts it everywhere")
        return LogisticModel(np.zeros(train.data.shape[1]), 0.0, int(classes[0]))
    rng = np.random.default_rng(seed)
    n, d = train.data.shape
    weights = np.zeros(d)
    bias = 0.0
    for _ in range(EPOCHS):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            x, y = train.data[idx], labels[idx]
            residual = _sigmoid(x @ weights + bias) - y
            weights -= LEARNING_RATE * (x.T @ residual / idx.size + L2_STRENGTH * weights)
            bias -= LEARNING_RATE * float(residual.mean())
    return LogisticModel(weights, bias)


def evaluate(model: LogisticModel, test: FeatureMatrix, positive_class: str) -> EfficacyReport:
    """Accuracy plus F1 for the positive class (0 when precision and recall
    are both unattainable)."""
    if test.data.shape[0] == 0:
        raise InputError("evaluation needs a non-empty test set")
    predictions = model.predict(test.data)
    accuracy = float((predictions == test.labels).mean())
    tp = int(((predictions == 1) & (test.labels == 1)).sum())
    fp = int(((predictions == 1) & (test.labels == 0)).sum())
    fn = int(((predictions == 0) & (test.labels == 1)).sum())
    denom = 2 * tp + fp + fn
    f1 = 2 * tp / denom if denom else 0.0
    return EfficacyReport(accuracy=accuracy, f1=float(f1), positive_class=positive_class)
