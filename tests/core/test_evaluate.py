"""Tests for trial execution (evaluate_config)."""

import numpy as np
import pytest

from repro.core.evaluate import TrialOutcome, evaluate_config
from repro.data import Dataset, make_classification, make_regression
from repro.learners import LGBMLikeClassifier, LGBMLikeRegressor
from repro.metrics import get_metric


@pytest.fixture(scope="module")
def clf_data():
    return make_classification(600, 5, class_sep=1.5, seed=0).shuffled(0)


@pytest.fixture(scope="module")
def reg_data():
    return make_regression(600, 5, seed=1).shuffled(0)


CFG = dict(tree_num=10, leaf_num=4)


class TestHoldout:
    def test_basic_outcome(self, clf_data):
        out = evaluate_config(
            clf_data, LGBMLikeClassifier, CFG, sample_size=400,
            resampling="holdout", metric=get_metric("roc_auc"),
        )
        assert isinstance(out, TrialOutcome)
        assert 0 <= out.error <= 1
        assert out.cost > 0
        assert out.model is not None

    def test_sample_size_respected(self, clf_data):
        """Cost grows with sample size (Observation 3)."""
        def cost(n):
            # best of three: one ~50 ms trial can absorb a CPU stall
            # longer than the ~20 ms the extra rows cost
            return min(evaluate_config(
                clf_data, LGBMLikeClassifier, dict(tree_num=60, leaf_num=16),
                sample_size=n, resampling="holdout",
                metric=get_metric("roc_auc"),
            ).cost for _ in range(3))

        assert cost(600) > cost(100)

    def test_label_metric(self, clf_data):
        out = evaluate_config(
            clf_data, LGBMLikeClassifier, CFG, sample_size=300,
            resampling="holdout", metric=get_metric("accuracy"),
        )
        assert 0 <= out.error <= 1


class TestCV:
    def test_cv_averages_folds(self, clf_data):
        out = evaluate_config(
            clf_data, LGBMLikeClassifier, CFG, sample_size=300,
            resampling="cv", metric=get_metric("roc_auc"), n_splits=5,
        )
        assert 0 <= out.error <= 1

    def test_cv_costs_more_than_holdout(self, clf_data):
        """Observation 3: k-fold CV ≈ (k-1)/(1-rho) x holdout cost."""
        cfg = dict(tree_num=40, leaf_num=16)
        kw = dict(sample_size=600, metric=get_metric("roc_auc"))
        hold = evaluate_config(clf_data, LGBMLikeClassifier, cfg,
                               resampling="holdout", **kw)
        cv = evaluate_config(clf_data, LGBMLikeClassifier, cfg,
                             resampling="cv", n_splits=5, **kw)
        assert cv.cost > 2 * hold.cost

    def test_regression_cv(self, reg_data):
        out = evaluate_config(
            reg_data, LGBMLikeRegressor, CFG, sample_size=300,
            resampling="cv", metric=get_metric("r2"),
        )
        assert np.isfinite(out.error)


class TestRobustness:
    def test_invalid_resampling(self, clf_data):
        with pytest.raises(ValueError):
            evaluate_config(
                clf_data, LGBMLikeClassifier, CFG, sample_size=100,
                resampling="bootstrap", metric=get_metric("roc_auc"),
            )

    def test_degenerate_sample_reports_inf(self):
        """A sample too small to contain both classes must fail the trial
        gracefully (error = inf), not crash the controller."""
        X = np.random.default_rng(0).standard_normal((100, 3))
        y = np.zeros(100, dtype=int)
        y[-1] = 1  # single positive, at the tail
        data = Dataset("deg", X, y, "binary")  # NOT shuffled: prefix is pure
        out = evaluate_config(
            data, LGBMLikeClassifier, CFG, sample_size=10,
            resampling="holdout", metric=get_metric("roc_auc"),
        )
        assert out.error == np.inf
        assert out.model is None

    def test_multiclass_missing_class_in_fold(self):
        """Probability columns realign when a training split lacks a class."""
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 3))
        y = np.array([0] * 28 + [1] * 28 + [2] * 4)
        data = Dataset("mc", X, y, "multiclass").shuffled(0)
        out = evaluate_config(
            data, LGBMLikeClassifier, CFG, sample_size=60,
            resampling="cv", metric=get_metric("log_loss"), n_splits=3,
            labels=np.unique(y),
        )
        assert np.isfinite(out.error)

    def test_time_limit_forwarded(self, clf_data):
        out = evaluate_config(
            clf_data, LGBMLikeClassifier,
            dict(tree_num=100_000, leaf_num=64), sample_size=600,
            resampling="holdout", metric=get_metric("roc_auc"),
            train_time_limit=0.3,
        )
        assert out.cost < 3.0  # the cap kept the trial bounded
