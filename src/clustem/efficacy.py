"""Downstream classification check on (generalized) tables.

Nominal QI cells are multi-hot encoded against the leaves that the cells of
either table name (``infer_leaves``): a plain leaf sets its own bit, a "{a,b}"
set label sets every member's bit, and "*" sets the whole attribute block;
``vgh.label_leaves`` reads which leaves a label names. Numeric features are
standardized with training statistics only. Their cells must be finite numbers
or the missing marker "?"; any other cell (text, "nan", "inf", "1e999") is an
input error (exit 2), and so is a feature whose training mean or standard
deviation overflows, a test cell that overflows when standardized, or the
label column as a feature. The positive class must be one of the labels.
A generalized table repeats its rows, so ``encode`` builds features for its
distinct rows only (distinct in their QI, numeric and label cells), and each
``FeatureMatrix`` row carries in ``counts`` how many table rows it stands
for. The classifier is an L2-penalised logistic regression fitted by
full-batch Newton steps to convergence, on the distinct (feature row, label)
pairs, each weighted by its count; the scores weight each test row by its
count too. It has no shuffling and no seed, so the same tables always give
the same model and the same scores.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .tabular import MISSING, SUPPRESSED, Table, code_column, distinct_rows, fold
from .vgh import label_leaves

L2_STRENGTH = 1e-4
# A Newton step is halved while it raises the objective, but not below a
# predicted gain (length times the decrement -grad·step) of TOLERANCE times the
# objective: the objective cannot resolve smaller gains. Once the decrement
# itself is that small, steps are taken in full, and the loop ends when
# rounding stops the decrement from falling, or after MAX_NEWTON_STEPS.
TOLERANCE = 1e-13
MAX_NEWTON_STEPS = 100
# Repeated columns at a large scale have a curvature that swamps L2_STRENGTH
# in float64, so the Hessian's diagonal is also lifted by this relative amount
# to keep the system regular. The fixed point, a zero gradient, is unchanged.
DIAGONAL_LIFT = 1e-10

DEFAULT_NUMERIC_FEATURES = ["capital-gain", "capital-loss", "hours-per-week"]


@dataclass
class FeatureMatrix:
    """One feature row and label per data row; ``counts[i]`` is how many table
    rows data row i stands for (one per row when omitted). The counts are not
    checked: ``encode`` builds them, one of at least 1 per data row."""

    feature_names: list[str]
    data: np.ndarray
    labels: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = np.ones(len(self.labels), dtype=np.int64)


@dataclass
class EfficacyReport:
    accuracy: float
    f1: float
    positive_class: str

    def to_dict(self) -> dict:
        return asdict(self)


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
    the leaves every cell's label names (``vgh.label_leaves``)."""
    leaves: dict[str, set[str]] = {attr: set() for attr in qi}
    for table in tables:
        for attr in qi:
            for cell in table.column(attr).coding[1]:
                leaves[attr].update(label_leaves(cell))
    return {attr: sorted(vals) for attr, vals in leaves.items()}


def _labels(table: Table, label_column: str, positive_class: str) -> np.ndarray:
    codes, distinct = table.column(label_column).coding
    return np.array([cell == positive_class for cell in distinct], dtype=int)[codes]


def _multi_hot(
    table: Table, qi: Sequence[str], leaves: Mapping[str, Sequence[str]], rows: np.ndarray
) -> np.ndarray:
    """The multi-hot blocks of the given rows."""
    blocks = []
    for attr in qi:
        leaf_index = {leaf: i for i, leaf in enumerate(leaves[attr])}
        codes, distinct = table.column(attr).coding
        encoded = np.zeros((len(distinct), len(leaf_index)))
        for i, cell in enumerate(distinct):
            if cell == SUPPRESSED:
                encoded[i] = 1.0
            else:
                encoded[i, [leaf_index[leaf] for leaf in label_leaves(cell)]] = 1.0
        blocks.append(encoded[codes[rows]])
    return np.hstack(blocks) if blocks else np.zeros((len(rows), 0))


def _number(cell: str) -> float | None:
    """A numeric feature cell as a float, NaN for the missing marker, None
    for any other cell that is not a finite number."""
    if cell == MISSING:
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _numeric_matrix(table: Table, names: Sequence[str], role: str) -> np.ndarray:
    """The numeric columns, each distinct cell parsed once; an unparsable cell
    is reported at the first data row that holds it."""
    cols = []
    for name in names:
        codes, distinct = table.column(name).coding
        values = [_number(cell) for cell in distinct]
        if None in values:
            bad = values.index(None)
            raise InputError(
                f"{role} set, numeric feature {name!r}, data row "
                f"{int(np.argmax(codes == bad)) + 1}: {distinct[bad]!r} is "
                f"neither a finite number nor the missing marker {MISSING!r}"
            )
        cols.append(np.array(values, dtype=float)[codes])
    return np.stack(cols, axis=1) if names else np.zeros((table.row_count, 0))


def encode(
    train: Table,
    test: Table,
    qi: Sequence[str],
    numeric_features: Sequence[str],
    label_column: str,
    positive_class: str,
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Encode train and test with one shared layout: multi-hot blocks in QI
    order over the sorted leaves that either table names, then numerics
    standardized to the training mean and variance (missing ones land on the
    mean). Each matrix holds one data row per distinct combination of QI,
    numeric and label cells, in order of first appearance, with ``counts`` the
    number of table rows it stands for. The statistics span every row."""
    for kind, features in (("QI", qi), ("numeric", numeric_features)):
        if label_column in features:
            raise InputError(f"label column {label_column!r} cannot also be a {kind} feature")
    for name in numeric_features:
        if name in qi:
            raise InputError(f"QI column {name!r} cannot also be a numeric feature")
    observed = set(train.column(label_column).coding[1] + test.column(label_column).coding[1])
    if len(observed) > 2:
        raise InputError(
            f"label column {label_column!r} must be binary, found {sorted(observed)[:4]}"
        )
    if positive_class not in observed:
        raise InputError(
            f"label column {label_column!r} holds no positive class {positive_class!r}, "
            f"found {sorted(observed)}"
        )
    leaves = infer_leaves([train, test], qi)
    names = [f"{attr}={leaf}" for attr in qi for leaf in leaves[attr]]
    names += numeric_features
    train_numeric = _numeric_matrix(train, numeric_features, "training")
    test_numeric = _numeric_matrix(test, numeric_features, "test")
    if train_numeric.shape[1]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-missing columns
            mean = np.nanmean(train_numeric, axis=0)
            std = np.nanstd(train_numeric, axis=0)
        mean = np.where(np.isnan(mean), 0.0, mean)
        std = np.where((std == 0.0) | np.isnan(std), 1.0, std)
        for name, centre, spread in zip(numeric_features, mean, std):
            if not math.isfinite(centre) or not math.isfinite(spread):
                raise InputError(
                    f"training set, numeric feature {name!r}: the "
                    f"{'mean' if not math.isfinite(centre) else 'standard deviation'} "
                    "of its values overflows a float"
                )
        train_numeric = (np.where(np.isnan(train_numeric), mean, train_numeric) - mean) / std
        with np.errstate(over="ignore", invalid="ignore"):
            test_numeric = (np.where(np.isnan(test_numeric), mean, test_numeric) - mean) / std
        if not np.isfinite(test_numeric).all():
            row, j = np.argwhere(~np.isfinite(test_numeric))[0]
            codes, distinct = test.column(numeric_features[j]).coding
            raise InputError(
                f"test set, numeric feature {numeric_features[j]!r}, data row {row + 1}: "
                f"{distinct[codes[row]]!r} overflows a float when standardized to the "
                "training mean and standard deviation"
            )

    out = []
    for table, numeric in ((train, train_numeric), (test, test_numeric)):
        _, rows, counts = distinct_rows(
            [table.column(name).coding for name in [*qi, *numeric_features, label_column]]
        )
        data = np.hstack([_multi_hot(table, qi, leaves, rows), numeric[rows]])
        labels = _labels(table, label_column, positive_class)[rows]
        out.append(FeatureMatrix(names, data, labels, counts))
    return out[0], out[1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def train_classifier(train: FeatureMatrix) -> LogisticModel:
    """Logistic regression: minimise mean(log(1+e^z) - y*z) + L2_STRENGTH/2*|w|^2
    over z = Xw + b (bias unpenalised) by full-batch Newton steps, each halved
    until the objective does not rise. The steps run on the distinct (row,
    label) pairs, each term weighted by the pair's count, which is the same
    objective. No shuffling, no seed: the same input gives the same model.
    Single-class data yields a degenerate model that predicts the sole class;
    no rows at all is an input error."""
    if train.data.shape[0] == 0:
        raise InputError("training needs a non-empty training set")
    labels = train.labels
    if labels.min() == labels.max():
        warnings.warn("training data holds a single class; model predicts it everywhere")
        return LogisticModel(np.zeros(train.data.shape[1]), 0.0, int(labels[0]))
    n = int(train.counts.sum())
    # Equal (row, label) pairs enter every term alike, so each distinct pair
    # is kept once, weighted by its count. Rows are equal when their bytes
    # are: distinct cells can encode alike ("1" and "1.0", or "*" and a set
    # label naming every leaf).
    codes, rows = code_column(list(map(bytes, train.data)))
    pairs, _ = fold([codes, labels], [len(rows), 2])
    _, first = np.unique(pairs, return_index=True)
    counts = np.bincount(pairs, weights=train.counts)
    x, labels = train.data[first], labels[first]
    d = x.shape[1]
    # Per pair, the margin u = (1 - 2y) z is exact in both the loss log(1+e^u)
    # and the residual p - y = (1 - 2y) sigmoid(u), with no cancellation.
    sign = 1.0 - 2.0 * labels
    centred = np.empty_like(x, dtype=float)  # refilled each step

    def objective(weights: np.ndarray, bias: float) -> float:
        u = sign * (x @ weights + bias)
        return float(counts @ np.logaddexp(0.0, u) / n + 0.5 * L2_STRENGTH * (weights @ weights))

    weights = np.zeros(d)
    bias = 0.0
    value = objective(weights, bias)
    previous = math.inf
    for _ in range(MAX_NEWTON_STEPS):
        z = x @ weights + bias
        residual = counts * sign * _sigmoid(sign * z)
        curvature = counts * _sigmoid(z) * _sigmoid(-z)
        grad_w = residual @ x / n + L2_STRENGTH * weights
        grad_b = float(residual.sum() / n)
        # The bias is eliminated from the Newton system. What is left for the
        # weights is X'SX/n + L2 with X centred on its curvature-weighted
        # mean, so a constant column (an all-"*" block), which is collinear
        # with the bias, cannot make the system singular.
        mean = curvature @ x / curvature.sum()
        np.subtract(x, mean, out=centred)
        np.multiply(centred, np.sqrt(curvature)[:, None], out=centred)
        hess = centred.T @ centred / n
        np.fill_diagonal(hess, hess.diagonal() * (1.0 + DIAGONAL_LIFT) + L2_STRENGTH)
        step_w = np.linalg.solve(hess, mean * grad_b - grad_w)
        step_b = float(-grad_b / (curvature.sum() / n) - mean @ step_w)
        decrement = -float(grad_w @ step_w + grad_b * step_b)
        resolution = TOLERANCE * value
        if decrement <= resolution and decrement >= previous:
            break
        length = 1.0
        while length * decrement > resolution and (
            objective(weights + length * step_w, bias + length * step_b) > value
        ):
            length /= 2.0
        weights = weights + length * step_w
        bias += length * step_b
        value = objective(weights, bias)
        previous = decrement
    return LogisticModel(weights, bias)


def evaluate(model: LogisticModel, test: FeatureMatrix, positive_class: str) -> EfficacyReport:
    """Accuracy plus F1 for the positive class (0 when precision and recall
    are both unattainable)."""
    if test.data.shape[0] == 0:
        raise InputError("evaluation needs a non-empty test set")
    predictions = model.predict(test.data)
    weights = test.counts
    accuracy = float(weights[predictions == test.labels].sum() / weights.sum())
    tp = int(weights[(predictions == 1) & (test.labels == 1)].sum())
    fp = int(weights[(predictions == 1) & (test.labels == 0)].sum())
    fn = int(weights[(predictions == 0) & (test.labels == 1)].sum())
    denom = 2 * tp + fp + fn
    f1 = 2 * tp / denom if denom else 0.0
    return EfficacyReport(accuracy=accuracy, f1=float(f1), positive_class=positive_class)
