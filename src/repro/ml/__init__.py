"""From-scratch NumPy implementations of the paper's four estimators
(§VI-B): linear regression, a CART decision tree, a random forest, and a
one-hidden-layer MLP trained with ADAM — plus the metrics and splits the
evaluation uses (relative error, 80/20 split).

scikit-learn is deliberately not used: the models are small and fully
specified in the paper, and owning the implementation lets the tree/forest
expose the impurity-based feature importances Figs. 9/12 analyze.

One engine (:func:`repro.ml.tree.grow_trees`) grows every tree of a
forest together, straight into flat node arrays; single trees and the
booster's stages are forests of one.  Prediction batches across trees
(:mod:`repro.ml.ensemble`).
"""

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.ensemble import StackedTrees, stack_trees
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
from repro.ml.split import kfold_indices, train_test_split
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "LinearRegression",
    "MLPRegressor",
    "RandomForestRegressor",
    "StackedTrees",
    "stack_trees",
    "kfold_indices",
    "mean_absolute_error",
    "mean_relative_error",
    "mean_squared_error",
    "median_absolute_relative_error",
    "r2_score",
    "train_test_split",
]
