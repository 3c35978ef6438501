from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _datagen as datagen
import _oracles as oracles
from clustem import efficacy
from clustem.anonymize import PrivacyParams, generate_vghs, search
from clustem.efficacy import (
    DEFAULT_NUMERIC_FEATURES,
    L2_STRENGTH,
    TOLERANCE,
    FeatureMatrix,
    LogisticModel,
    encode,
    evaluate,
    infer_leaves,
    train_classifier,
)
from clustem.embed import WordVectorProvider
from clustem.errors import InputError
from clustem.tabular import QiSpec, load_csv
from clustem.vgh import WARD
from conftest import make_table


def tiny(cells, labels):
    return make_table(w=cells, y=labels)


class TestEncode:
    def test_plain_leaf_sets_one_bit(self):
        train = tiny(["a"], ["pos"])
        fm, _ = encode(train, tiny(["{b,c}"], ["pos"]), ["w"], [], "y", "pos")
        assert fm.feature_names[:3] == ["w=a", "w=b", "w=c"]
        assert fm.data[0].tolist() == [1.0, 0.0, 0.0]
        assert fm.labels.tolist() == [1]

    def test_star_sets_every_bit_of_the_attribute(self):
        train = tiny(["*"], ["pos"])
        fm, _ = encode(train, tiny(["{a,b,c}"], ["pos"]), ["w"], [], "y", "pos")
        assert fm.data[0].tolist() == [1.0, 1.0, 1.0]

    def test_set_label_sets_member_bits(self):
        train = tiny(["{a,b}"], ["pos"])
        fm, _ = encode(train, tiny(["c"], ["pos"]), ["w"], [], "y", "pos")
        assert fm.data[0].tolist() == [1.0, 1.0, 0.0]

    def test_leaf_named_only_by_the_test_table_gets_its_own_column(self):
        train = tiny(["a", "{a,b}"], ["pos", "neg"])
        test = tiny(["mystery"], ["neg"])
        train_fm, test_fm = encode(train, test, ["w"], [], "y", "pos")
        assert train_fm.feature_names == ["w=a", "w=b", "w=mystery"]
        assert train_fm.data[:, 2].tolist() == [0.0, 0.0]
        assert test_fm.data[0].tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize(
        "qi, numeric, kind", [(["w", "y"], [], "QI"), (["w"], ["y"], "numeric")]
    )
    def test_label_column_cannot_be_a_feature(self, qi, numeric, kind):
        train = make_table(w=["a", "b"], y=["1", "0"])
        message = f"label column 'y' cannot also be a {kind} feature"
        with pytest.raises(InputError, match=message):
            encode(train, train, qi, numeric, "y", "1")

    def test_qi_column_cannot_be_a_numeric_feature(self):
        # Encoded twice, once as leaves and once as a number.
        train = make_table(w=["a", "b"], h=["38", "40"], y=["1", "0"])
        with pytest.raises(InputError, match="QI column 'h' cannot also be a numeric feature"):
            encode(train, train, ["w", "h"], ["h"], "y", "1")

    def test_width_identical_for_train_and_test(self):
        train = tiny(["a", "b"], ["pos", "neg"])
        test = tiny(["{a,c}"], ["pos"])
        train_fm, test_fm = encode(train, test, ["w"], [], "y", "pos")
        assert train_fm.data.shape[1] == test_fm.data.shape[1]
        assert train_fm.feature_names == test_fm.feature_names

    def test_numeric_standardization_uses_train_stats_only(self):
        train = make_table(w=["a", "a"], h=["0", "2"], y=["p", "n"])
        test = make_table(w=["a"], h=["1"], y=["p"])
        train_fm, test_fm = encode(train, test, ["w"], ["h"], "y", "p")
        assert train_fm.data[:, -1].tolist() == [-1.0, 1.0]
        # 1 is the train mean, so it must standardize to exactly 0.
        assert test_fm.data[0, -1] == 0.0

    def test_numeric_features_without_qi(self):
        train = make_table(h=["0", "2"], y=["p", "n"])
        fm, _ = encode(train, train, [], ["h"], "y", "p")
        assert fm.feature_names == ["h"]
        assert fm.data.tolist() == [[-1.0], [1.0]]

    def test_missing_numeric_lands_on_the_mean(self):
        train = make_table(w=["a", "a", "a"], h=["0", "2", "?"], y=["p", "n", "p"])
        fm, _ = encode(train, train, ["w"], ["h"], "y", "p")
        assert fm.data[2, -1] == 0.0

    @pytest.mark.parametrize("cells", [[], ["?", "?"]], ids=["no-rows", "all-missing"])
    def test_numeric_without_training_values_has_mean_0_and_spread_1(self, cells):
        train = make_table(w=["a"] * len(cells), h=cells, y=["p"] * len(cells))
        test = make_table(w=["a", "a"], h=["?", "2"], y=["p", "n"])
        _, test_fm = encode(train, test, ["w"], ["h"], "y", "p")
        assert test_fm.data[:, -1].tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("cell", ["foo", "nan", "inf", "1e999"])
    def test_numeric_cell_must_be_finite_or_missing(self, cell):
        train = make_table(w=["a", "a", "a"], h=["0", cell, "2"], y=["p", "n", "p"])
        good = make_table(w=["a"], h=["1"], y=["p"])
        with pytest.raises(InputError, match=f"training set, .*'h', data row 2: '{cell}'"):
            encode(train, good, ["w"], ["h"], "y", "p")
        with pytest.raises(InputError, match=f"test set, .*'h', data row 2: '{cell}'"):
            encode(good, train, ["w"], ["h"], "y", "p")

    def test_repeated_bad_cell_is_reported_at_its_first_row(self):
        # Each distinct cell is parsed once; the message still names the
        # first data row that holds the first bad cell.
        # Repeated good cells come first, so the bad cell's row differs from
        # its position among the distinct cells.
        train = make_table(
            w=["a"] * 6, h=["1", "1", "?", "x", "y", "x"], y=["p", "n", "p", "n", "p", "n"]
        )
        with pytest.raises(InputError, match="'h', data row 4: 'x'"):
            encode(train, train, ["w"], ["h"], "y", "p")

    def test_non_binary_label_rejected(self):
        # The message lists the first four labels in sorted order.
        train = tiny(["a", "b", "c", "a", "b"], ["p", "n", "maybe", "q", "r"])
        with pytest.raises(InputError, match=r"binary, found \['maybe', 'n', 'p', 'q'\]$"):
            encode(train, train, ["w"], [], "y", "p")

    def test_positive_class_no_label_holds_rejected(self):
        train = tiny(["a", "b"], ["p", "n"])
        test = tiny(["c"], ["n"])
        message = r"'y' holds no positive class 'P', found \['n', 'p'\]"
        with pytest.raises(InputError, match=message):
            encode(train, test, ["w"], [], "y", "P")

    @pytest.mark.parametrize(
        "cells, stat",
        [(["1.6e308", "1.7e308"], "mean"), (["2e154", "-2e154"], "standard deviation")],
        ids=["mean", "spread"],
    )
    def test_numeric_statistics_must_be_finite(self, cells, stat):
        train = make_table(w=["a"] * 20, h=cells * 10, y=["p", "n"] * 10)
        good = make_table(w=["a"], h=["1"], y=["p"])
        with pytest.raises(InputError, match=f"training set, .*'h': the {stat} "):
            encode(train, good, ["w"], ["h"], "y", "p")

    def test_test_cell_that_overflows_when_standardized_is_rejected(self):
        # h has training mean 0.5 and spread 0.5, so 1.7e308 standardizes past
        # the largest float; g is finite everywhere and is not named.
        train = make_table(w=["a"] * 4, g=["1", "2"] * 2, h=["0", "1"] * 2, y=["p", "n"] * 2)
        test = make_table(
            w=["a"] * 3, g=["9", "9", "9"], h=["0.5", "1.7e308", "-1.7e308"], y=["p", "n", "p"]
        )
        message = "test set, numeric feature 'h', data row 2: '1.7e308' overflows a float"
        with pytest.raises(InputError, match=message):
            encode(train, test, ["w"], ["g", "h"], "y", "p")


class TestInferLeaves:
    def test_members_recovered_from_set_labels(self):
        train = tiny(["{a,b}", "*"], ["p", "n"])
        test = tiny(["c", "a"], ["p", "n"])
        assert infer_leaves([train, test], ["w"]) == {"w": ["a", "b", "c"]}


def _sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -z))


def _max_abs_gradient(x, y, model):
    """Gradient of mean(log(1+e^z) - y*z) + L2_STRENGTH/2*|w|^2 at the model,
    with the residual p - y written so that it does not cancel."""
    z = x @ model.weights + model.bias
    residual = np.where(y == 1, -_sigmoid(-z), _sigmoid(z))
    grad_w = x.T @ residual / len(y) + L2_STRENGTH * model.weights
    return max(np.abs(grad_w).max(initial=0.0), abs(residual.mean()))


@st.composite
def _designs(draw):
    """Small designs with both labels present, cells on a half-unit grid,
    repeated columns and all-ones (all-"*") columns. Designs separable by the
    first column are also scaled by up to 1e6. Two rows and zero features are
    in range."""
    n = draw(st.integers(2, 10))
    width = draw(st.integers(0, 3))
    cell = st.integers(-6, 6).map(lambda v: v / 2)
    x = np.array(draw(st.lists(cell, min_size=n * width, max_size=n * width)), dtype=float)
    x = x.reshape(n, width)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[0], y[-1] = 0, 1
    scale = 1.0
    if width and draw(st.booleans()):
        x[:, 0] = np.where(y == 1, 1.0, -1.0) * (2.0 + np.abs(x[:, 0]))
        scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    repeats = draw(st.lists(st.integers(0, width - 1), max_size=3)) if width else []
    ones = np.ones((n, draw(st.integers(0, 2))))
    return np.hstack([x, x[:, repeats], ones]) * scale, y


@st.composite
def _repeated_designs(draw):
    """``_designs`` rows, each repeated 1 to 20 times. Unless the draw keeps
    every copy's label, copies after a row's first take either label, so a
    repeated row may hold both."""
    x, y = draw(_designs())
    repeats = draw(st.lists(st.integers(1, 20), min_size=len(y), max_size=len(y)))
    rows = np.repeat(np.arange(len(y)), repeats)
    labels = y[rows]
    if draw(st.booleans()):
        copies = np.flatnonzero(np.diff(rows, prepend=-1) == 0)
        drawn = st.lists(st.integers(0, 1), min_size=len(copies), max_size=len(copies))
        labels[copies] = draw(drawn)
    return x[rows], labels


@st.composite
def _alike_tables(draw):
    """A train and a test table drawn from a few distinct rows, so rows
    repeat, whose cells encode alike: "1", "1.0" and "01" in the numeric
    column h, and "*" and the set label "{a,b,c}" in the QI column w, which
    also holds the leaves "x" and "y" that no set label names. Either table
    alone may name a leaf. The training labels hold the positive class "p",
    and also "n" unless the draw says otherwise."""
    cells = st.tuples(
        st.sampled_from(["a", "b", "*", "{a,b,c}", "{a,b}", "x", "y"]),
        st.sampled_from(["1", "1.0", "01", "2", "?"]),
        st.sampled_from(["p", "n"]),
    )
    pool = draw(st.lists(cells, min_size=1, max_size=6))
    tables = []
    for size in (draw(st.integers(2, 30)), draw(st.integers(1, 30))):
        rows = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        tables.append([list(column) for column in zip(*rows)])
    tables[0][2][0] = "p"
    if draw(st.booleans()):
        tables[0][2][1] = "n"
    return tuple(make_table(w=w, h=h, y=y) for w, h, y in tables)


class TestTrainClassifier:
    def test_separable_data_reaches_training_accuracy_one(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 0.3, (40, 2)), rng.normal(2, 0.3, (40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        fm = FeatureMatrix(["f0", "f1"], x, y)
        model = train_classifier(fm)
        assert (model.predict(x) == y).mean() == 1.0

    def test_halved_steps_never_raise_the_objective(self, monkeypatch):
        # Separable, with features on a scale of 100: two of the Newton steps
        # would raise the objective taken whole, so they are halved.
        x = np.array(
            [[-9.784, 113.51], [63.934, 6.287], [-46.961, 93.016], [-22.073, 7.265],
             [-116.285, 33.18], [-58.698, 42.315], [33.84, 125.576], [98.13, -25.163],
             [-59.371, -84.943]]
        )
        y = np.array([0, 1, 0, 0, 0, 0, 1, 1, 0])
        fm = FeatureMatrix(["f0", "f1"], x, y)
        assert (train_classifier(fm).predict(x) == y).all()
        values = []
        for steps in range(30):  # the model after each Newton step
            monkeypatch.setattr(efficacy, "MAX_NEWTON_STEPS", steps)
            model = train_classifier(fm)
            u = (1 - 2 * y) * (x @ model.weights + model.bias)
            penalty = 0.5 * L2_STRENGTH * (model.weights @ model.weights)
            values.append(np.logaddexp(0.0, u).mean() + penalty)
        # A step whose decrement is within the stopping resolution is taken
        # unchecked, so the objective may rise by rounding there.
        rises = [later - value for value, later in zip(values, values[1:])]
        assert max(rises) <= TOLERANCE * values[-1]

    def test_fit_stops_once_the_decrement_stops_falling(self, monkeypatch):
        # One row per label and no features: the first step lands on bias 0,
        # where every later decrement is 0, so the next step ends the fit.
        calls = []
        sigmoid = efficacy._sigmoid
        monkeypatch.setattr(efficacy, "_sigmoid", lambda z: calls.append(z) or sigmoid(z))
        model = train_classifier(FeatureMatrix([], np.zeros((2, 0)), np.array([0, 1])))
        assert model.bias == 0.0
        assert len(calls) <= 3 * 3  # three calls per Newton step

    def test_constant_labels_warn_and_predict_the_constant(self):
        fm = FeatureMatrix(["f"], np.zeros((4, 1)), np.ones(4, dtype=int))
        with pytest.warns(UserWarning, match="single class"):
            model = train_classifier(fm)
        assert model.predict(np.zeros((2, 1))).tolist() == [1, 1]

    def test_same_input_gives_the_same_model(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 3))
        y = (x[:, 0] > 0).astype(int)
        fm = FeatureMatrix(["a", "b", "c"], x, y)
        m1 = train_classifier(fm)
        m2 = train_classifier(fm)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    @settings(max_examples=200, deadline=None)
    @given(design=_designs())
    # Three copies of one column on a scale of 1000: the Hessian's diagonal
    # must be raised, since lowering it by DIAGONAL_LIFT leaves a
    # negative eigenvalue and the steps diverge.
    @example(
        design=(
            np.array([[-1.5], [-3.0], [0.5], [2.5]]).repeat(3, 1) * 1e3,
            np.array([0, 1, 0, 1]),
        )
    )
    def test_converges_on_degenerate_designs(self, design):
        x, y = design
        fm = FeatureMatrix([f"f{i}" for i in range(x.shape[1])], x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_classifier(fm)
        assert np.isfinite(model.weights).all()
        assert np.isfinite(model.bias)
        assert _max_abs_gradient(x, y, model) <= 1e-8

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(design=_repeated_designs())
    def test_fit_on_distinct_pairs_matches_the_fit_on_every_row(self, design):
        x, y = design
        fm = FeatureMatrix([f"f{i}" for i in range(x.shape[1])], x, y)
        model = train_classifier(fm)
        assert _max_abs_gradient(x, y, model) <= 1e-8
        reference = oracles.reference_train_classifier(fm)
        margin = x @ reference.weights + reference.bias
        clear = np.abs(margin) > 1e-6
        assert (model.predict(x)[clear] == reference.predict(x)[clear]).all()

    @pytest.mark.parametrize("k", [10, 200])
    def test_fit_on_distinct_pairs_matches_on_the_adult_fixture(self, adult_encodings, k):
        (train_fm, _), (every_row, test) = adult_encodings[k]
        model = train_classifier(train_fm)
        reference = oracles.reference_train_classifier(every_row)
        assert np.abs(model.weights - reference.weights).max() <= 1e-10
        assert abs(model.bias - reference.bias) <= 1e-10
        assert (model.predict(test.data) == reference.predict(test.data)).all()


@pytest.fixture(scope="module")
def adult_encodings(adult_paths):
    """Per k in {10, 200}: the Adult fixture's anonymized training table and
    its test table, as (train, test) matrices from ``encode`` and from the
    every-row ``reference_encode``."""
    train = load_csv(adult_paths["train"])
    test = load_csv(adult_paths["test"])
    spec = QiSpec(list(datagen.QI), datagen.SA)
    vghs = generate_vghs(train, spec.qi, WordVectorProvider(adult_paths["vectors"]), WARD, seed=42)
    sweep = [PrivacyParams(k=k, l=2, sup_limit=0.5) for k in (10, 200)]
    encodings = {}
    for params, result in zip(sweep, search(train, spec, vghs, sweep)):
        leaves = infer_leaves([result.table, test], spec.qi)
        args = (result.table, test, spec.qi, DEFAULT_NUMERIC_FEATURES)
        label = (spec.sa, datagen.POSITIVE)
        encodings[params.k] = encode(*args, *label), oracles.reference_encode(*args, leaves, *label)
    return encodings


def _expanded(fm, model=None):
    """The matrix's (row bytes, label, prediction) triples, each counted as
    often as the table rows it stands for; prediction 0 without a model."""
    predictions = model.predict(fm.data) if model else np.zeros(len(fm.labels), dtype=int)
    triples = Counter()
    for row, label, prediction, count in zip(fm.data, fm.labels, predictions, fm.counts):
        triples[bytes(row), int(label), int(prediction)] += int(count)
    return triples


def _assert_same_fit(model, reference):
    assert model.weights.tobytes() == reference.weights.tobytes()
    assert np.float64(model.bias).tobytes() == np.float64(reference.bias).tobytes()
    assert model.constant_label == reference.constant_label


class TestDistinctRows:
    @pytest.mark.parametrize("k", [10, 200])
    def test_matches_the_every_row_encoding_on_the_adult_fixture(self, adult_encodings, k):
        (train_fm, test_fm), (every_train, every_test) = adult_encodings[k]
        assert len(train_fm.labels) < len(every_train.labels)
        model, reference = train_classifier(train_fm), train_classifier(every_train)
        _assert_same_fit(model, reference)
        assert _expanded(test_fm, model) == _expanded(every_test, reference)
        positive = datagen.POSITIVE
        assert evaluate(model, test_fm, positive) == evaluate(reference, every_test, positive)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tables=_alike_tables())
    def test_matches_the_every_row_encoding_on_cells_that_encode_alike(self, tables):
        train, test = tables
        leaves = infer_leaves(tables, ["w"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a training set of a single class
            encoded = encode(train, test, ["w"], ["h"], "y", "p")
            every_row = oracles.reference_encode(train, test, ["w"], ["h"], leaves, "y", "p")
            fits = [train_classifier(train_fm) for train_fm, _ in (encoded, every_row)]
        for fm, table, reference in zip(encoded, tables, every_row):
            assert int(fm.counts.sum()) == table.row_count
            assert _expanded(fm) == _expanded(reference)
        _assert_same_fit(*fits)

    @pytest.mark.parametrize(
        "counts", [[1], [1, 1, 1], [1, 0], [2, -1]], ids=["short", "long", "zero", "negative"]
    )
    def test_feature_matrix_refuses_bad_counts(self, counts):
        with pytest.raises(InputError, match="counts"):
            FeatureMatrix(["f"], np.zeros((2, 1)), np.array([0, 1]), np.array(counts))


class TestEvaluate:
    def test_zero_margin_predicts_the_positive_class(self):
        model = LogisticModel(np.array([1.0]), -1.0)
        assert model.predict(np.array([[1.0], [0.5], [2.0]])).tolist() == [1, 0, 1]

    def test_perfect_predictions(self):
        fm = FeatureMatrix(["f"], np.array([[-1.0], [1.0]]), np.array([0, 1]))
        model = LogisticModel(np.array([5.0]), 0.0)
        report = evaluate(model, fm, "pos")
        assert report.accuracy == 1.0
        assert report.f1 == 1.0
        assert report.positive_class == "pos"

    def test_all_negative_predictions_give_zero_f1(self):
        fm = FeatureMatrix(["f"], np.zeros((4, 1)), np.array([0, 1, 0, 1]))
        model = LogisticModel(np.zeros(1), -10.0)
        report = evaluate(model, fm, "pos")
        assert report.f1 == 0.0
        assert report.accuracy == 0.5

    def test_f1_from_confusion_counts(self):
        # 3 TP, 1 FP, 1 FN, 1 TN -> F1 = 2*3 / (2*3 + 1 + 1) = 0.75.
        labels = np.array([1, 1, 1, 0, 1, 0])
        preds = np.array([1, 1, 1, 1, 0, 0])
        model = LogisticModel(np.array([1.0]), 0.0)
        fm = FeatureMatrix(["f"], np.where(preds[:, None] == 1, 1.0, -1.0), labels)
        report = evaluate(model, fm, "pos")
        assert report.f1 == 0.75
        assert report.accuracy == pytest.approx(4 / 6)

    def test_empty_test_set_rejected(self):
        fm = FeatureMatrix(["f"], np.zeros((0, 1)), np.zeros(0, dtype=int))
        with pytest.raises(InputError):
            evaluate(LogisticModel(np.zeros(1), 0.0), fm, "pos")
