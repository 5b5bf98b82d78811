"""Gradient-boosted regression trees (an extension beyond the paper).

The paper evaluates linear regression, a DT, an RF and a shallow NN and
notes that "increasing the expressiveness of our estimator does not
always lead to better results".  Gradient boosting is the natural next
model family to test that observation against; the ablation benchmark
compares it with the paper's four.
"""

from __future__ import annotations

import numpy as np

from repro.ml.ensemble import StackedTrees, stack_trees
from repro.ml.tree import DecisionTreeRegressor, _check_xy
from repro.utils.rng import derive_seed

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Least-squares gradient boosting with shallow CART base learners.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Base-learner depth (shallow trees, unlike the RF's depth-20).
    subsample:
        Fraction of samples drawn (without replacement) per round;
        values < 1 give stochastic gradient boosting.
    seed:
        Subsampling seed.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.05,
        max_depth: int = 3,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0 < learning_rate <= 1:
            raise ValueError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0 < subsample <= 1:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.seed = seed
        self.base_: float = 0.0
        self.trees_: list[DecisionTreeRegressor] = []
        self.train_losses_: list[float] = []
        self._stacked: StackedTrees | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        """Fit by stage-wise residual regression."""
        X, y = _check_xy(X, y)
        n = X.shape[0]

        self.base_ = float(y.mean())
        pred = np.full(n, self.base_)
        self.trees_ = []
        self.train_losses_ = []
        self._stacked = None
        rng = np.random.default_rng(derive_seed(self.seed, "gbrt"))
        n_sub = max(1, int(round(n * self.subsample)))
        for t in range(self.n_estimators):
            residual = y - pred
            idx = (
                rng.choice(n, size=n_sub, replace=False)
                if n_sub < n
                else np.arange(n)
            )
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=2,
                seed=derive_seed(self.seed, "gbrt-tree", t),
            )
            tree.fit(X[idx], residual[idx])
            pred += self.learning_rate * tree.predict(X)
            self.trees_.append(tree)
            self.train_losses_.append(float(np.mean((y - pred) ** 2)))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Sum of the shrunken stage predictions (batched across stages)."""
        if not self.trees_:
            raise RuntimeError("predict() before fit()")
        X = np.asarray(X, dtype=np.float64)
        if self._stacked is None or self._stacked.n_trees != len(self.trees_):
            self._stacked = stack_trees(self.trees_)
        rows = self._stacked.tree_values(X)
        # Stage order, one shrunken add per stage: bitwise identical to
        # the historical per-tree loop.
        out = np.full(X.shape[0], self.base_)
        for row in rows:
            out += self.learning_rate * row
        return out

    @property
    def feature_importances_(self) -> np.ndarray | None:
        """Average impurity importances over the stages."""
        if not self.trees_:
            return None
        acc = np.zeros_like(self.trees_[0].feature_importances_)
        for tree in self.trees_:
            acc += tree.feature_importances_
        total = acc.sum()
        return acc / total if total > 0 else acc
