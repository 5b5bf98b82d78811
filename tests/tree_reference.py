"""The per-tree recursive CART grower, kept as a test oracle.

This is the regression tree the library grew before it grew whole
forests in lockstep into flat node arrays: a recursive ``_grow`` over
``_Node`` objects with two split-search engines, ``engine="fast"`` (one
2-D numpy pass over presorted columns) and ``engine="reference"`` (the
original per-feature loop), plus the forest's sequential per-tree loop
(:func:`reference_forest`).  The parity tests, the golden digests and
the forest-fit perf gate compare the library's trees to it node for
node.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import derive_seed, stream

__all__ = ["DecisionTreeRegressor", "SPLIT_ENGINES", "reference_forest"]

#: Split-search implementations; "fast" and "reference" grow identical trees.
SPLIT_ENGINES = ("fast", "reference")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self) -> None:
        self.feature = -1
        self.threshold = 0.0
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.value = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTreeRegressor:
    """Binary regression tree grown greedily on variance reduction.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (paper: 20).
    min_samples_leaf:
        Minimum samples per leaf.
    min_samples_split:
        Minimum samples for a node to be split.
    max_features:
        Features considered per split: ``None`` (all), an int, or
        ``"sqrt"`` / ``"third"`` — the forest uses subsampling for
        de-correlation.
    seed:
        Seed for feature subsampling.
    engine:
        Split-search implementation, ``"fast"`` (vectorized across
        features) or ``"reference"`` (per-feature loop).  Both grow
        bitwise identical trees; the knob only trades speed.
    """

    def __init__(
        self,
        max_depth: int = 20,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_features: int | str | None = None,
        seed: int = 0,
        engine: str = "fast",
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("min_samples_leaf >= 1 and min_samples_split >= 2")
        if engine not in SPLIT_ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; known: {SPLIT_ENGINES}"
            )
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.engine = engine
        self._root: _Node | None = None
        self._n_features = 0
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------ fit

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self._n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self._n_features)))
        if self.max_features == "third":
            return max(1, self._n_features // 3)
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, self._n_features)
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on ``(n_samples, n_features)`` data."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes: X{X.shape}, y{y.shape}")
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        self._n_features = X.shape[1]
        self._importance = np.zeros(self._n_features)
        self._rng = stream(self.seed, "dtree")
        self._flat = None  # invalidate the prediction cache
        if self.engine == "fast":
            # One stable sort at the root; nodes filter it down instead of
            # re-sorting.  Stable filtering of a stable order equals the
            # stable sort of the subset, so splits stay bitwise identical
            # to the reference engine.
            sort0 = np.argsort(X, axis=0, kind="stable").astype(np.int64)
        else:
            sort0 = None
        self._root = self._grow(X, y, np.arange(X.shape[0]), sort0, depth=0)
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance.copy()
        )
        return self

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        sort: np.ndarray | None,
        depth: int,
    ) -> _Node:
        node = _Node()
        node.value = float(y[idx].mean())
        n = idx.size
        if (
            depth >= self.max_depth
            or n < self.min_samples_split
            or np.ptp(y[idx]) == 0.0
        ):
            return node

        k = self._n_candidate_features()
        if k < self._n_features:
            features = self._rng.choice(self._n_features, size=k, replace=False)
        else:
            features = np.arange(self._n_features)

        if self.engine == "fast":
            best = self._best_split_fast(X, y, idx, sort, features)
        else:
            best = self._best_split_reference(X, y, idx, features)
        if best is None:
            return node
        feat, thr, gain, left_mask = best
        node.feature = int(feat)
        node.threshold = float(thr)
        self._importance[feat] += gain
        if sort is not None:
            in_left = np.zeros(X.shape[0], dtype=bool)
            in_left[idx[left_mask]] = True
            keep = in_left[sort]  # (n, F): same column-wise sample sets
            n_left = int(left_mask.sum())
            sort_left = sort.T[keep.T].reshape(self._n_features, n_left).T
            sort_right = sort.T[~keep.T].reshape(self._n_features, n - n_left).T
        else:
            sort_left = sort_right = None
        node.left = self._grow(X, y, idx[left_mask], sort_left, depth + 1)
        node.right = self._grow(X, y, idx[~left_mask], sort_right, depth + 1)
        return node

    def _best_split_reference(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        features: np.ndarray,
    ) -> tuple[int, float, float, np.ndarray] | None:
        """Per-feature loop, vectorized over thresholds (the oracle)."""
        yv = y[idx]
        n = idx.size
        sum_all = yv.sum()
        sq_all = float((yv**2).sum())
        node_sse = sq_all - sum_all**2 / n

        best_gain = 1e-12
        best: tuple[int, float, float, np.ndarray] | None = None
        m = self.min_samples_leaf
        for f in features:
            xv = X[idx, f]
            order = np.argsort(xv, kind="stable")
            xs = xv[order]
            ys = yv[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(ys**2)
            # Split after position i (1-based count of left samples).
            counts = np.arange(1, n)
            valid = (xs[:-1] < xs[1:]) & (counts >= m) & (n - counts >= m)
            if not valid.any():
                continue
            left_sse = csq[:-1] - csum[:-1] ** 2 / counts
            right_sum = sum_all - csum[:-1]
            right_sq = sq_all - csq[:-1]
            right_sse = right_sq - right_sum**2 / (n - counts)
            gain = node_sse - (left_sse + right_sse)
            gain[~valid] = -np.inf
            i = int(np.argmax(gain))
            if gain[i] > best_gain:
                thr = (xs[i] + xs[i + 1]) / 2.0
                if not xs[i] <= thr < xs[i + 1]:  # rounded up or overflowed
                    thr = xs[i]
                best_gain = float(gain[i])
                best = (int(f), thr, best_gain, X[idx, f] <= thr)
        return best

    def _best_split_fast(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        sort: np.ndarray,
        features: np.ndarray,
    ) -> tuple[int, float, float, np.ndarray] | None:
        """All candidate features in one 2-D pass over presorted columns.

        ``sort`` holds the node's samples per feature column in stable
        x-sorted order (filtered down from the root sort, which equals a
        stable sort of the subset).  Column ``j`` of every intermediate
        equals the reference engine's 1-D arrays for feature
        ``features[j]`` — same values, same operation order — and the
        final first-max argmaxes reproduce the reference's tie-breaking
        (earliest threshold within a feature, earliest feature across
        equal gains), so the chosen split is bitwise identical.
        """
        yv = y[idx]
        n = idx.size
        sum_all = yv.sum()
        sq_all = float((yv**2).sum())
        node_sse = sq_all - sum_all**2 / n
        m = self.min_samples_leaf

        cols = sort[:, features]  # (n, k) global sample ids, x-sorted
        xs = X[cols, features]
        ys = y[cols]
        csum = np.cumsum(ys, axis=0)[:-1]
        csq = np.cumsum(ys**2, axis=0)[:-1]
        counts = np.arange(1, n, dtype=np.float64)[:, None]
        valid = (xs[:-1] < xs[1:]) & (counts >= m) & (n - counts >= m)
        if not valid.any():
            return None
        left_sse = csq - csum**2 / counts
        right_sum = sum_all - csum
        right_sq = sq_all - csq
        right_sse = right_sq - right_sum**2 / (n - counts)
        gain = node_sse - (left_sse + right_sse)
        gain[~valid] = -np.inf

        pos = np.argmax(gain, axis=0)  # first max per column, as np.argmax
        per_feature = gain[pos, np.arange(len(features))]
        j = int(np.argmax(per_feature))  # first max across columns
        if not per_feature[j] > 1e-12:
            return None
        i = int(pos[j])
        f = int(features[j])
        thr = (xs[i, j] + xs[i + 1, j]) / 2.0
        if not xs[i, j] <= thr < xs[i + 1, j]:  # rounded up or overflowed
            thr = xs[i, j]
        return (f, thr, float(per_feature[j]), X[idx, f] <= thr)

    # ------------------------------------------------------------------ predict

    def _flat_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The tree as ``(feats, thrs, lefts, rights, values)`` arrays."""
        if self._root is None:
            raise RuntimeError("tree not fitted")
        if getattr(self, "_flat", None) is None:
            self._flatten()
        return self._flat

    def _flatten(self) -> None:
        """Cache the tree as arrays for vectorized prediction.

        Iterative preorder walk: degenerate trees can be deeper than the
        Python recursion limit.
        """
        feats: list[int] = []
        thrs: list[float] = []
        lefts: list[int] = []
        rights: list[int] = []
        values: list[float] = []

        # Stack of (node, parent_index, is_left_child); preorder so the
        # node indices match the old recursive layout.
        todo: list[tuple[_Node, int, bool]] = [(self._root, -1, False)]
        while todo:
            node, parent, is_left = todo.pop()
            idx = len(feats)
            feats.append(node.feature)
            thrs.append(node.threshold)
            lefts.append(-1)
            rights.append(-1)
            values.append(node.value)
            if parent >= 0:
                if is_left:
                    lefts[parent] = idx
                else:
                    rights[parent] = idx
            if not node.is_leaf:
                # Push right first so the left subtree is emitted first.
                todo.append((node.right, idx, False))
                todo.append((node.left, idx, True))
        self._flat = (
            np.asarray(feats, dtype=np.int32),
            np.asarray(thrs, dtype=np.float64),
            np.asarray(lefts, dtype=np.int32),
            np.asarray(rights, dtype=np.int32),
            np.asarray(values, dtype=np.float64),
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets; requires a prior :meth:`fit`.

        Prediction walks all rows level-by-level over the flattened node
        arrays, so it is vectorized across samples.
        """
        if self._root is None:
            raise RuntimeError("predict() before fit()")
        X = np.asarray(X, dtype=np.float64)
        feats, thrs, lefts, rights, values = self._flat_arrays()
        idx = np.zeros(X.shape[0], dtype=np.int32)
        active = lefts[idx] >= 0
        rows = np.arange(X.shape[0])
        while active.any():
            cur = idx[active]
            go_left = (
                X[rows[active], feats[cur]] <= thrs[cur]
            )
            idx[active] = np.where(go_left, lefts[cur], rights[cur])
            active = lefts[idx] >= 0
        return values[idx]

    def depth(self) -> int:
        """Actual depth of the grown tree.

        Iterative: a degenerate chain (one sample peeled per split) can
        exceed the Python recursion limit long before it exhausts memory.
        """
        if self._root is None:
            raise RuntimeError("depth() before fit()")
        best = 0
        todo: list[tuple[_Node, int]] = [(self._root, 0)]
        while todo:
            node, d = todo.pop()
            if node.is_leaf:
                best = max(best, d)
                continue
            todo.append((node.left, d + 1))
            todo.append((node.right, d + 1))
        return best


def reference_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_estimators: int,
    seed: int,
    max_depth: int = 20,
    max_features: int | str | None = "third",
    min_samples_leaf: int = 1,
    engine: str = "fast",
) -> tuple[list[DecisionTreeRegressor], np.ndarray]:
    """The random forest's sequential per-tree fit.

    Returns the fitted trees in forest order and the forest's normalized
    importances, exactly as ``RandomForestRegressor.fit`` computed them.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    boot_rng = stream(seed, "forest", "bootstrap")
    jobs = [
        (
            t,
            derive_seed(seed, "forest", "tree", t),
            boot_rng.integers(0, n, size=n),
        )
        for t in range(n_estimators)
    ]
    trees = []
    for _t, tree_seed, idx in jobs:
        tree = DecisionTreeRegressor(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            seed=tree_seed,
            engine=engine,
        )
        trees.append(tree.fit(X[idx], y[idx]))
    importances = np.zeros(X.shape[1])
    for tree in trees:
        importances += tree.feature_importances_
    total = importances.sum()
    return trees, (importances / total if total > 0 else importances)
