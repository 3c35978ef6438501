from __future__ import annotations

import numpy as np
import pytest

from clustem.efficacy import (
    FeatureMatrix,
    LogisticModel,
    encode,
    evaluate,
    infer_leaves,
    train_classifier,
)
from clustem.errors import InputError
from conftest import make_table

LEAVES = {"w": ["a", "b", "c"]}


def tiny(cells, labels):
    return make_table(w=cells, y=labels)


class TestEncode:
    def test_plain_leaf_sets_one_bit(self):
        train = tiny(["a"], ["pos"])
        fm, _ = encode(train, train, ["w"], [], LEAVES, "y", "pos")
        assert fm.feature_names[:3] == ["w=a", "w=b", "w=c"]
        assert fm.data[0].tolist() == [1.0, 0.0, 0.0]
        assert fm.labels.tolist() == [1]

    def test_star_sets_every_bit_of_the_attribute(self):
        train = tiny(["*"], ["pos"])
        fm, _ = encode(train, train, ["w"], [], LEAVES, "y", "pos")
        assert fm.data[0].tolist() == [1.0, 1.0, 1.0]

    def test_set_label_sets_member_bits(self):
        train = tiny(["{a,b}"], ["pos"])
        fm, _ = encode(train, train, ["w"], [], LEAVES, "y", "pos")
        assert fm.data[0].tolist() == [1.0, 1.0, 0.0]

    def test_unseen_leaf_encodes_to_zero_bits_and_logs(self, caplog):
        train = tiny(["a"], ["pos"])
        test = tiny(["mystery"], ["neg"])
        with caplog.at_level("WARNING"):
            _, test_fm = encode(train, test, ["w"], [], LEAVES, "y", "pos")
        assert test_fm.data[0].tolist() == [0.0, 0.0, 0.0]
        assert "mystery" in caplog.text

    def test_width_identical_for_train_and_test(self):
        train = tiny(["a", "b"], ["pos", "neg"])
        test = tiny(["{a,c}"], ["pos"])
        train_fm, test_fm = encode(train, test, ["w"], [], LEAVES, "y", "pos")
        assert train_fm.data.shape[1] == test_fm.data.shape[1]
        assert train_fm.feature_names == test_fm.feature_names

    def test_numeric_standardization_uses_train_stats_only(self):
        train = make_table(w=["a", "a"], h=["0", "2"], y=["p", "n"])
        test = make_table(w=["a"], h=["1"], y=["p"])
        train_fm, test_fm = encode(train, test, ["w"], ["h"], LEAVES, "y", "p")
        assert train_fm.data[:, -1].tolist() == [-1.0, 1.0]
        # 1 is the train mean, so it must standardize to exactly 0.
        assert test_fm.data[0, -1] == 0.0

    def test_missing_numeric_lands_on_the_mean(self):
        train = make_table(w=["a", "a", "a"], h=["0", "2", "?"], y=["p", "n", "p"])
        fm, _ = encode(train, train, ["w"], ["h"], LEAVES, "y", "p")
        assert fm.data[2, -1] == 0.0

    @pytest.mark.parametrize("cell", ["foo", "nan", "inf", "1e999"])
    def test_numeric_cell_must_be_finite_or_missing(self, cell):
        train = make_table(w=["a", "a", "a"], h=["0", cell, "2"], y=["p", "n", "p"])
        good = make_table(w=["a"], h=["1"], y=["p"])
        with pytest.raises(InputError, match=f"training set, .*'h', data row 2: '{cell}'"):
            encode(train, good, ["w"], ["h"], LEAVES, "y", "p")
        with pytest.raises(InputError, match=f"test set, .*'h', data row 2: '{cell}'"):
            encode(good, train, ["w"], ["h"], LEAVES, "y", "p")

    def test_non_binary_label_rejected(self):
        train = tiny(["a", "b", "c"], ["p", "n", "maybe"])
        with pytest.raises(InputError, match="binary"):
            encode(train, train, ["w"], [], LEAVES, "y", "p")


class TestInferLeaves:
    def test_members_recovered_from_set_labels(self):
        train = tiny(["{a,b}", "*"], ["p", "n"])
        test = tiny(["c", "a"], ["p", "n"])
        assert infer_leaves([train, test], ["w"]) == {"w": ["a", "b", "c"]}


class TestTrainClassifier:
    def test_separable_data_reaches_training_accuracy_one(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 0.3, (40, 2)), rng.normal(2, 0.3, (40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        fm = FeatureMatrix(["f0", "f1"], x, y)
        model = train_classifier(fm, seed=1)
        assert (model.predict(x) == y).mean() == 1.0

    def test_constant_labels_warn_and_predict_the_constant(self):
        fm = FeatureMatrix(["f"], np.zeros((4, 1)), np.ones(4, dtype=int))
        with pytest.warns(UserWarning, match="single class"):
            model = train_classifier(fm, seed=0)
        assert model.predict(np.zeros((2, 1))).tolist() == [1, 1]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 3))
        y = (x[:, 0] > 0).astype(int)
        fm = FeatureMatrix(["a", "b", "c"], x, y)
        m1 = train_classifier(fm, seed=9)
        m2 = train_classifier(fm, seed=9)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


class TestEvaluate:
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
