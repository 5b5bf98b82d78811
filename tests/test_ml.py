"""Tests for the from-scratch ML estimators."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.metrics import (
    mean_absolute_error,
    mean_relative_error,
    mean_squared_error,
    median_absolute_relative_error,
    r2_score,
)
from repro.ml.mlp import MLPRegressor
from repro.ml.persist import model_to_dict
from repro.ml.split import kfold_indices, train_test_split
from repro.ml.tree import DecisionTreeRegressor


def _linear_data(n=200, d=4, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = np.arange(1, d + 1, dtype=float)
    y = X @ w + 3.0 + noise * rng.normal(size=n)
    return X, y


def _stepwise_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 3))
    y = np.where(X[:, 0] > 0, 2.0, -1.0) + np.where(X[:, 1] > 0.5, 1.0, 0.0)
    return X, y


class TestMetrics:
    def test_mse_zero_on_exact(self):
        y = np.array([1.0, 2.0])
        assert mean_squared_error(y, y) == 0.0

    def test_mae(self):
        assert mean_absolute_error(np.array([1.0, 3.0]), np.array([2.0, 2.0])) == 1.0

    def test_relative(self):
        err = mean_relative_error(np.array([1.0, 2.0]), np.array([1.1, 1.8]))
        assert err == pytest.approx((0.1 + 0.1) / 2)

    def test_median_relative(self):
        y = np.array([1.0, 1.0, 1.0])
        p = np.array([1.0, 1.1, 2.0])
        assert median_absolute_relative_error(y, p) == pytest.approx(0.1)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            mean_relative_error(np.array([0.0]), np.array([1.0]))

    def test_r2_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_squared_error(np.zeros(3), np.zeros(4))


class TestSplit:
    def test_sizes(self):
        tr, te = train_test_split(100, 0.2, seed=0)
        assert len(tr) == 80 and len(te) == 20

    def test_disjoint_cover(self):
        tr, te = train_test_split(57, 0.25, seed=1)
        assert set(tr) | set(te) == set(range(57))
        assert not set(tr) & set(te)

    def test_deterministic(self):
        a = train_test_split(50, 0.2, seed=5)
        b = train_test_split(50, 0.2, seed=5)
        assert np.array_equal(a[0], b[0])

    def test_kfold_partition(self):
        folds = kfold_indices(30, k=5, seed=0)
        assert len(folds) == 5
        all_test = np.concatenate([te for _, te in folds])
        assert sorted(all_test) == list(range(30))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kfold_indices(5, k=10)


class TestLinearRegression:
    def test_recovers_plane(self):
        X, y = _linear_data(noise=0.0)
        model = LinearRegression().fit(X, y)
        pred = model.predict(X)
        assert mean_squared_error(y, pred) < 1e-12

    def test_intercept(self):
        X = np.zeros((10, 2))
        y = np.full(10, 7.0)
        model = LinearRegression().fit(X, y)
        assert model.predict(np.zeros((1, 2)))[0] == pytest.approx(7.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.zeros((1, 2)))

    def test_constant_feature_ok(self):
        X, y = _linear_data()
        X = np.hstack([X, np.ones((X.shape[0], 1))])
        pred = LinearRegression().fit(X, y).predict(X)
        assert np.all(np.isfinite(pred))


class TestDecisionTree:
    def test_fits_step_function(self):
        X, y = _stepwise_data()
        model = DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert mean_squared_error(y, model.predict(X)) < 1e-12

    def test_depth_limit(self):
        X, y = _stepwise_data()
        model = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert model.depth() <= 1
        assert len(np.unique(model.predict(X))) <= 2

    def test_min_samples_leaf(self):
        X, y = _stepwise_data(n=50)
        model = DecisionTreeRegressor(max_depth=20, min_samples_leaf=10).fit(X, y)
        # Each distinct prediction must be an average of >= 10 samples.
        preds = model.predict(X)
        for val in np.unique(preds):
            assert np.sum(preds == val) >= 10

    @pytest.mark.parametrize(
        "x", [(1 + 2**-52, 1 + 2**-51), (1e308, 1.7e308)], ids=["ulp", "huge"]
    )
    def test_threshold_between_adjacent_values(self, x):
        # The midpoint of two adjacent floats rounds onto the upper one,
        # and the midpoint of two huge floats overflows; either used to
        # send every sample left and grow an empty right chain.
        X = np.array(x).reshape(-1, 1)
        model = DecisionTreeRegressor().fit(X, [0.0, 1.0])
        nodes = model_to_dict(model)["payload"]["nodes"]
        assert len(nodes) == 3
        assert not any(np.isnan(node["value"]) for node in nodes)
        assert model.predict(X).tolist() == [0.0, 1.0]

    def test_importances_sum_to_one(self):
        X, y = _stepwise_data()
        model = DecisionTreeRegressor(max_depth=5).fit(X, y)
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_importances_identify_signal(self):
        X, y = _stepwise_data()
        model = DecisionTreeRegressor(max_depth=5).fit(X, y)
        imp = model.feature_importances_
        assert imp[0] > imp[2]  # x0 drives y; x2 is noise
        assert imp[1] > imp[2]

    def test_constant_target_is_leaf(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.full(20, 5.0)
        model = DecisionTreeRegressor().fit(X, y)
        assert model.depth() == 0
        assert np.all(model.predict(X) == 5.0)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)


class TestRandomForest:
    def test_better_than_single_tree_oob(self):
        X, y = _stepwise_data(n=300)
        rng = np.random.default_rng(1)
        y_noisy = y + 0.3 * rng.normal(size=y.size)
        X_test, y_test = _stepwise_data(n=200, seed=9)
        tree = DecisionTreeRegressor(max_depth=20).fit(X, y_noisy)
        forest = RandomForestRegressor(n_estimators=30, max_depth=20, seed=0).fit(
            X, y_noisy
        )
        assert mean_squared_error(y_test, forest.predict(X_test)) <= mean_squared_error(
            y_test, tree.predict(X_test)
        )

    def test_importances_normalized(self):
        X, y = _stepwise_data()
        forest = RandomForestRegressor(n_estimators=10, seed=0).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_deterministic(self):
        X, y = _stepwise_data(n=100)
        a = RandomForestRegressor(n_estimators=5, seed=4).fit(X, y).predict(X[:10])
        b = RandomForestRegressor(n_estimators=5, seed=4).fit(X, y).predict(X[:10])
        np.testing.assert_array_equal(a, b)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor(n_estimators=2).predict(np.zeros((1, 2)))


class TestMLP:
    def test_learns_linear_map(self):
        X, y = _linear_data(n=300, noise=0.0)
        model = MLPRegressor(hidden=16, epochs=200, seed=0).fit(X, y)
        pred = model.predict(X)
        assert r2_score(y, pred) > 0.98

    def test_learns_nonlinear_map(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(400, 2))
        y = np.abs(X[:, 0]) + X[:, 1] ** 2
        model = MLPRegressor(hidden=25, epochs=400, seed=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_loss_decreases(self):
        X, y = _linear_data(n=200)
        model = MLPRegressor(hidden=8, epochs=50, seed=0).fit(X, y)
        assert model.loss_history_[-1] < model.loss_history_[0]

    def test_deterministic(self):
        X, y = _linear_data(n=100)
        a = MLPRegressor(hidden=8, epochs=20, seed=2).fit(X, y).predict(X[:5])
        b = MLPRegressor(hidden=8, epochs=20, seed=2).fit(X, y).predict(X[:5])
        np.testing.assert_array_equal(a, b)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            MLPRegressor(hidden=0)
        with pytest.raises(ValueError):
            MLPRegressor(lr=0.0)
