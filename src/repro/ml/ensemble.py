"""Batched prediction across an ensemble of CART trees.

The forest and the booster both spend their inference time walking many
trees one after another.  Stacking every tree's flattened node arrays
into one arena (child indices offset into the concatenation) lets a
single level-synchronous walk advance *all* (tree, sample) cursors at
once — one numpy pass per tree level instead of one Python-level loop
iteration per tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ml.tree import DecisionTreeRegressor

__all__ = ["StackedTrees", "stack_trees"]


@dataclass(frozen=True)
class StackedTrees:
    """All trees of an ensemble as one flat node arena.

    Attributes
    ----------
    feats, thrs, lefts, rights, values:
        Concatenated per-node arrays; ``lefts``/``rights`` are global
        indices into the arena (-1 at leaves).
    roots:
        Arena index of each tree's root, in ensemble order.
    """

    feats: np.ndarray
    thrs: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    values: np.ndarray
    roots: np.ndarray

    @property
    def n_trees(self) -> int:
        """Trees in the arena."""
        return len(self.roots)

    def tree_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values for every sample, shape ``(n_trees, n)``.

        Level-synchronous walk: every (tree, sample) cursor starts at its
        tree's root and descends one level per iteration until all rest
        at leaves.  Row ``t`` equals ``trees[t].predict(X)`` bitwise.
        """
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        idx = np.broadcast_to(self.roots[:, None], (self.n_trees, n)).copy()
        cols = np.broadcast_to(np.arange(n), (self.n_trees, n))
        active = self.lefts[idx] >= 0
        while active.any():
            cur = idx[active]
            go_left = X[cols[active], self.feats[cur]] <= self.thrs[cur]
            idx[active] = np.where(go_left, self.lefts[cur], self.rights[cur])
            active = self.lefts[idx] >= 0
        return self.values[idx]


def stack_trees(trees: Sequence[DecisionTreeRegressor]) -> StackedTrees:
    """Build the arena from fitted trees (ensemble order preserved)."""
    if not trees:
        raise ValueError("cannot stack an empty ensemble")
    columns = zip(*(tree._flat_arrays() for tree in trees))
    feats, thrs, lefts, rights, values = (np.concatenate(c) for c in columns)
    sizes = [len(tree._flat_arrays()[0]) for tree in trees]
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    # Leaves stay -1; internal children shift by their tree's offset.
    shift = np.repeat(roots, sizes)
    return StackedTrees(
        feats=feats,
        thrs=thrs,
        lefts=np.where(lefts >= 0, lefts + shift, -1),
        rights=np.where(rights >= 0, rights + shift, -1),
        values=values,
        roots=roots,
    )
