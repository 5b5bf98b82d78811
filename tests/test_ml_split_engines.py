"""Parity of the library's tree grower with the per-tree oracle.

``tests/tree_reference.py`` keeps the recursive per-tree grower the
library used before it grew forests in lockstep.  The library's trees,
forests and boosters must match it bitwise — same node arrays, same
thresholds, same importances — on any input, including ties, constant
features, constant targets and duplicated bootstrap rows.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.ensemble import stack_trees
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.rng import derive_seed
from tests import tree_reference
from tests.tree_reference import reference_forest


def _fit_pair(X, y, **params):
    new = DecisionTreeRegressor(**params).fit(X, y)
    ref = tree_reference.DecisionTreeRegressor(engine="reference", **params)
    return new, ref.fit(X, y)


def _assert_identical_trees(new, ref):
    for a, b in zip(new._flat_arrays(), ref._flat_arrays(), strict=True):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        new.feature_importances_, ref.feature_importances_
    )
    assert new.depth() == ref.depth()


def _assert_identical_forests(forest, ref_trees, ref_importances):
    assert len(forest.trees_) == len(ref_trees)
    for new, ref in zip(forest.trees_, ref_trees):
        _assert_identical_trees(new, ref)
    np.testing.assert_array_equal(forest.feature_importances_, ref_importances)


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(5, 60),
        d=st.integers(1, 8),
        data_seed=st.integers(0, 2**31),
        depth=st.integers(1, 12),
        leaf=st.integers(1, 4),
    )
    def test_random_matrices(self, n, d, data_seed, depth, leaf):
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        new, ref = _fit_pair(X, y, max_depth=depth, min_samples_leaf=leaf)
        _assert_identical_trees(new, ref)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(5, 50),
        d=st.integers(2, 6),
        data_seed=st.integers(0, 2**31),
    )
    def test_tied_values(self, n, d, data_seed):
        # Quantized features + quantized targets: many equal x values
        # (threshold validity) and many equal gains (argmax tie-breaks).
        rng = np.random.default_rng(data_seed)
        X = np.round(rng.normal(size=(n, d)) * 2) / 2
        y = np.round(rng.normal(size=n) * 2) / 2
        new, ref = _fit_pair(X, y, max_depth=10)
        _assert_identical_trees(new, ref)

    def test_constant_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        X[:, 1] = 7.0  # unsplittable column
        y = rng.normal(size=30)
        new, ref = _fit_pair(X, y, max_depth=8)
        _assert_identical_trees(new, ref)

    def test_constant_target(self):
        X = np.random.default_rng(1).normal(size=(20, 2))
        new, ref = _fit_pair(X, np.ones(20), max_depth=5)
        _assert_identical_trees(new, ref)
        assert new.depth() == 0

    def test_feature_subsampling(self):
        # Same seed => same per-node feature draws in both growers.
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 9))
        y = X @ rng.normal(size=9)
        new, ref = _fit_pair(X, y, max_depth=10, max_features="third", seed=5)
        _assert_identical_trees(new, ref)


class TestForestParity:
    @settings(max_examples=60, deadline=None)
    @given(
        n_trees=st.integers(1, 12),
        n=st.integers(3, 150),
        d=st.integers(1, 10),
        data_seed=st.integers(0, 2**31),
        seed=st.integers(0, 2**16),
        max_features=st.one_of(
            st.sampled_from([None, "third", "sqrt"]), st.integers(1, 12)
        ),
        leaf=st.integers(1, 4),
        depth=st.integers(1, 20),
        quantize=st.booleans(),
        constant_column=st.booleans(),
        constant_target=st.booleans(),
    )
    def test_random_forests(
        self, n_trees, n, d, data_seed, seed, max_features, leaf, depth,
        quantize, constant_column, constant_target,
    ):
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(n, d))
        y = X @ rng.normal(size=d) + rng.normal(size=n)
        if quantize:  # ties in x and in the gains
            X = np.round(X * 2) / 2
            y = np.round(y * 2) / 2
        if constant_column:
            X[:, rng.integers(d)] = 3.0
        if constant_target:
            y[:] = 1.5
        params = dict(
            max_depth=depth, max_features=max_features, min_samples_leaf=leaf
        )
        forest = RandomForestRegressor(
            n_estimators=n_trees, seed=seed, **params
        ).fit(X, y)
        ref_trees, ref_importances = reference_forest(
            X, y, n_estimators=n_trees, seed=seed, **params
        )
        _assert_identical_forests(forest, ref_trees, ref_importances)

    def test_grown_in_groups(self, monkeypatch):
        # A forest whose order table would exceed the budget grows a
        # group of trees at a time; here groups of four.
        from repro.ml import tree

        rng = np.random.default_rng(8)
        X = rng.normal(size=(90, 5))
        y = X[:, 0] + rng.normal(size=90)
        monkeypatch.setattr(tree, "_TABLE_ELEMENTS", 6 * 90 * 4)
        forest = RandomForestRegressor(n_estimators=13, seed=2).fit(X, y)
        _assert_identical_forests(
            forest, *reference_forest(X, y, n_estimators=13, seed=2)
        )

    def test_duplicate_rows(self):
        # Bootstrap draws repeat rows, and the data itself repeats rows.
        rng = np.random.default_rng(9)
        X = np.repeat(rng.normal(size=(15, 4)), 4, axis=0)
        y = np.repeat(rng.normal(size=15), 4)
        forest = RandomForestRegressor(n_estimators=10, seed=3).fit(X, y)
        _assert_identical_forests(
            forest, *reference_forest(X, y, n_estimators=10, seed=3)
        )


class TestForest:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 6))
        return X, X @ rng.normal(size=6) + 0.1 * rng.normal(size=80)

    def test_engines_identical(self, data):
        X, y = data
        forest = RandomForestRegressor(n_estimators=8, seed=4).fit(X, y)
        ref_trees, ref_importances = reference_forest(
            X, y, n_estimators=8, seed=4, engine="reference"
        )
        _assert_identical_forests(forest, ref_trees, ref_importances)
        acc = np.zeros(X.shape[0])
        for tree in ref_trees:
            acc += tree.predict(X)
        np.testing.assert_array_equal(forest.predict(X), acc / len(ref_trees))

    def test_batched_predict_matches_tree_loop(self, data):
        X, y = data
        model = RandomForestRegressor(n_estimators=6, seed=4).fit(X, y)
        acc = np.zeros(X.shape[0])
        for tree in model.trees_:
            acc += tree.predict(X)
        np.testing.assert_array_equal(model.predict(X), acc / len(model.trees_))

    def test_stacked_arena_matches_trees(self, data):
        X, y = data
        model = RandomForestRegressor(n_estimators=4, seed=4).fit(X, y)
        stacked = stack_trees(model.trees_)
        rows = stacked.tree_values(X)
        assert rows.shape == (4, X.shape[0])
        for row, tree in zip(rows, model.trees_):
            np.testing.assert_array_equal(row, tree.predict(X))


class TestBoosting:
    def test_engines_identical(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = X @ rng.normal(size=4)
        model = GradientBoostingRegressor(n_estimators=15).fit(X, y)
        # The booster's stage loop, grown with the oracle's trees.
        pred = np.full(X.shape[0], float(y.mean()))
        for t, tree in enumerate(model.trees_):
            ref = tree_reference.DecisionTreeRegressor(
                max_depth=model.max_depth,
                min_samples_leaf=2,
                seed=derive_seed(model.seed, "gbrt-tree", t),
                engine="reference",
            ).fit(X, y - pred)
            _assert_identical_trees(tree, ref)
            pred += model.learning_rate * ref.predict(X)
        np.testing.assert_array_equal(model.predict(X), pred)

    def test_batched_predict_matches_stage_loop(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 3))
        y = X @ rng.normal(size=3)
        model = GradientBoostingRegressor(n_estimators=12).fit(X, y)
        out = np.full(X.shape[0], model.base_)
        for tree in model.trees_:
            out += model.learning_rate * tree.predict(X)
        np.testing.assert_array_equal(model.predict(X), out)


class TestDeepTrees:
    def test_depth_and_predict_survive_low_recursion_limit(self):
        # An exponential target makes every split peel off the largest
        # sample, growing a chain ~n deep — far beyond a lowered Python
        # recursion limit.  depth(), growth and predict() must all be
        # iterative.
        n = 400
        X = np.arange(n, dtype=np.float64).reshape(-1, 1)
        y = 2.0 ** np.arange(n)
        tree = DecisionTreeRegressor(max_depth=10_000).fit(X, y)
        assert tree.depth() > 150

        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(250)
            assert tree.depth() > 150
            pred = tree.predict(X)
        finally:
            sys.setrecursionlimit(limit)
        np.testing.assert_array_equal(pred, y)
