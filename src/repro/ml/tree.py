"""CART regression trees (MSE criterion) with impurity feature importances.

The paper's single-DT estimator uses depth 20 (§VI-B); Figs. 9/12 read the
impurity-based importances off this implementation.

One engine, :func:`grow_trees`, grows every tree of a forest together,
straight into flat ``(feature, threshold, left, right, value)`` node
arrays; a single tree is a forest of one.  Each tree owns a segment of
one ``(F+1, n)`` order table of sample ids: row ``f`` in stable x-order
of feature ``f``, row ``F`` in sample order.  A node is a sub-segment; a
split stable-partitions it in every row, so nothing is sorted twice, and
the split searches of many nodes run as one padded numpy batch.

Trees that subsample features draw each node's candidates from their own
stream in depth-first order, so they grow in lockstep: each step splits
the next pending node of every live tree.  Trees that see every feature
draw nothing and split all pending nodes per step.  Either way each tree
is bitwise identical to growing it recursively on its own; node sums even
follow ``ndarray.sum``'s pairwise order.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.utils.rng import stream

__all__ = ["DecisionTreeRegressor", "grow_trees"]

#: Elements per batched array; bounds the memory of one batch.
_BATCH_ELEMENTS = 1 << 14
#: Order-table entries of the trees grown together (64 MiB of int32).
_TABLE_ELEMENTS = 1 << 24
#: Node sizes at which batches are cut, so that small nodes are not padded
#: to the width of large ones, unless the whole batch is small anyway.
_SIZE_CUTS = (16, 64)
_SMALL_BATCH = 1 << 13
#: ``ndarray.sum`` adds blocks of up to 128 values with 8 accumulators.
_PAIRWISE_BLOCK = 128
#: Per-node columns of the growing trees: dtype and a new node's value.
_NODE_COLUMNS = {
    **dict.fromkeys(("tree", "start", "size", "depth"), (np.int32, 0)),
    **dict.fromkeys(("feature", "left", "right"), (np.int32, -1)),
    **dict.fromkeys(("sum", "sq", "threshold", "gain"), (np.float64, 0.0)),
}


def _n_candidate_features(max_features: int | str | None, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "third":
        return max(1, n_features // 3)
    if isinstance(max_features, int) and max_features >= 1:
        return min(max_features, n_features)
    raise ValueError(f"bad max_features: {max_features!r}")


def _pairwise_sums(Y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``Y[r, :n[r]].sum()`` per row, for rows of at most 128 values.

    numpy adds fewer than 8 values one by one onto 0.0; otherwise it keeps
    8 strided accumulators, combines them pairwise and adds the last
    ``n % 8`` values one by one.  ``Y`` is zero after each row's values;
    that can only flip the sign of a zero sum, which ``0.0 +`` settles.
    """
    c, w = Y.shape
    w8 = -(-w // 8) * 8
    padded = np.zeros((c, w8 + 8))
    padded[:, :w] = Y
    rows = np.arange(c)
    blocked = n - n % 8
    r = np.cumsum(padded[:, :w8].reshape(c, -1, 8), axis=1)
    r = r[rows, np.maximum(blocked // 8 - 1, 0)]
    r = r[:, ::2] + r[:, 1::2]
    r = r[:, ::2] + r[:, 1::2]
    head = np.where(n < 8, 0.0, r[:, 0] + r[:, 1])
    tail = padded[rows[:, None], blocked[:, None] + np.arange(8)]
    return np.cumsum(np.column_stack([head, tail]), axis=1)[:, -1] + 0.0


class _Grower:
    """Grows a batch of trees that share ``X``, ``y`` and parameters.

    Nodes live in the :data:`_NODE_COLUMNS` arrays in creation order;
    :meth:`arrays` renumbers each tree to preorder at the end.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        samples: Sequence[np.ndarray],
        params: DecisionTreeRegressor,
    ) -> None:
        n_features = X.shape[1]
        self.XT = np.ascontiguousarray(X.T)
        self.y = y
        self.params = params
        self.k = _n_candidate_features(params.max_features, n_features)
        sizes = np.array([len(rows) for rows in samples], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        # Padded by one segment so that padded windows stay in bounds.
        self.table = np.zeros((n_features + 1, offsets[-1] + sizes.max()), np.int32)
        for t, rows in enumerate(samples):
            seg = slice(offsets[t], offsets[t + 1])
            self.table[n_features, seg] = rows
            order = np.argsort(X[rows], axis=0, kind="stable")
            self.table[:n_features, seg] = rows[order].T
        self.n_nodes = self.capacity = 0
        self.roots, self.roots_open = self._add(
            np.arange(len(sizes)), offsets[:-1], sizes, np.zeros(len(sizes))
        )

    def _reserve(self, count: int) -> None:
        """Room for ``count`` nodes in every node column."""
        if count <= self.capacity:
            return
        self.capacity = count + count // 4
        for name, (dtype, fill) in _NODE_COLUMNS.items():
            column = np.full(self.capacity, fill, dtype=dtype)
            if self.n_nodes:
                column[: self.n_nodes] = getattr(self, name)[: self.n_nodes]
            setattr(self, name, column)

    def _chunks(self, size: np.ndarray, per_node: int) -> Iterator[np.ndarray]:
        """Indices into ``size``, grouped by size and within the budget."""
        if len(size) * per_node * int(size.max(initial=0)) <= _SMALL_BATCH:
            if len(size):
                yield np.arange(len(size))
            return
        bucket = np.searchsorted(_SIZE_CUTS, size)
        for b in range(len(_SIZE_CUTS) + 1):
            group = np.flatnonzero(bucket == b)
            if len(group):
                step = max(1, _BATCH_ELEMENTS // (per_node * int(size[group].max())))
                yield from (group[at : at + step] for at in range(0, len(group), step))

    def _add(
        self, tree: np.ndarray, start: np.ndarray, size: np.ndarray, depth: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Create nodes over table segments; returns ids and which may split.

        Target sums follow ``ndarray.sum`` over a node's targets in sample
        order, as a per-node grower would compute them.
        """
        self._reserve(self.n_nodes + len(start))
        ids = np.arange(self.n_nodes, self.n_nodes + len(start))
        self.n_nodes += len(ids)
        self.tree[ids], self.start[ids], self.size[ids] = tree, start, size
        self.depth[ids] = depth
        constant = np.zeros(len(ids), dtype=bool)
        small = np.flatnonzero(size <= _PAIRWISE_BLOCK)
        for sel in self._chunks(size[small], 2):
            sel = small[sel]
            n = size[sel]
            width = np.arange(n.max(initial=1))
            mask = width < n[:, None]
            ys = np.where(mask, self.y[self.table[-1, start[sel][:, None] + width]], 0.0)
            sums = _pairwise_sums(np.concatenate([ys, ys * ys]), np.tile(n, 2))
            self.sum[ids[sel]], self.sq[ids[sel]] = np.split(sums, 2)
            hi = np.where(mask, ys, -np.inf).max(axis=1)
            constant[sel] = hi - np.where(mask, ys, np.inf).min(axis=1) == 0.0
        for i in np.flatnonzero(size > _PAIRWISE_BLOCK):
            ys = self.y[self.table[-1, start[i] : start[i] + size[i]]]
            self.sum[ids[i]], self.sq[ids[i]] = ys.sum(), (ys**2).sum()
            constant[i] = np.ptp(ys) == 0.0
        p = self.params
        return ids, (depth < p.max_depth) & (size >= p.min_samples_split) & ~constant

    def _search(self, ids: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Find each node's best split; returns its left size, 0 for none.

        The split's feature, threshold and gain go to the node columns.
        ``features[i]`` lists node ``ids[i]``'s candidates in draw order;
        ties go to the earliest threshold, then the earliest candidate.
        """
        n_left = np.zeros(len(ids), dtype=np.int64)
        size = self.size[ids]
        m = self.params.min_samples_leaf
        for sel in self._chunks(size, features.shape[1]):
            node, feats, n = ids[sel], features[sel][:, :, None], size[sel][:, None, None]
            width = int(n.max())
            rows = self.table[feats, self.start[node][:, None, None] + np.arange(width)]
            xs, ys = self.XT[feats, rows], self.y[rows]
            csum = np.cumsum(ys, axis=2)[:, :, :-1]
            csq = np.cumsum(ys**2, axis=2)[:, :, :-1]
            counts = np.arange(1, width, dtype=np.float64)
            valid = xs[:, :, :-1] < xs[:, :, 1:]
            valid &= (counts >= m) & (n - counts >= m)
            sum_all = self.sum[node][:, None, None]
            sq_all = self.sq[node][:, None, None]
            # A per-node grower's node sum is a numpy scalar, whose ** calls
            # libm pow: float_power matches it bitwise where x * x may not.
            node_sse = sq_all - np.float_power(sum_all, 2.0) / n
            left_sse = csq - csum**2 / counts
            n_right = np.maximum(n - counts, 1.0)  # >= 1 where valid
            right_sse = (sq_all - csq) - (sum_all - csum) ** 2 / n_right
            gain = node_sse - (left_sse + right_sse)
            gain[~valid] = -np.inf

            per_feature = gain.max(axis=2)
            j = np.argmax(per_feature, axis=1)
            best = per_feature[np.arange(len(sel)), j]
            b = np.flatnonzero(best > 1e-12)
            j = j[b]
            i = np.argmax(gain[b, j], axis=1)
            lo, hi = xs[b, j, i], xs[b, j, i + 1]
            thr = (lo + hi) / 2.0
            inside = (lo <= thr) & (thr < hi)  # else rounded up or overflowed
            self.feature[node[b]] = feats[b, j, 0]
            self.threshold[node[b]] = np.where(inside, thr, lo)
            self.gain[node[b]] = best[b]
            n_left[sel[b]] = i + 1
        return n_left

    def _partition(self, ids: np.ndarray, n_left: np.ndarray) -> None:
        """Stable-partition each split node's segment in every table row."""
        n_rows = self.table.shape[0]
        size = self.size[ids]
        ends = np.cumsum(size)
        at = 0
        while at < len(ids):  # runs of nodes within the batch budget
            limit = (ends[at - 1] if at else 0) + _BATCH_ELEMENTS // n_rows
            sel = slice(at, max(at + 1, int(np.searchsorted(ends, limit, "right"))))
            at = sel.stop
            n, node = size[sel], ids[sel]
            seg = np.repeat(np.arange(len(n)), n)
            first = np.repeat(np.cumsum(n) - n, n)
            offset = np.arange(len(seg)) - first
            start = self.start[node][seg]
            rows = self.table[:, start + offset]
            go_left = self.XT[self.feature[node][seg], rows] <= self.threshold[node][seg]
            before = np.cumsum(go_left, axis=1) - go_left
            left_rank = before - before[:, first]
            dest = np.where(go_left, left_rank, n_left[sel][seg] + offset - left_rank)
            self.table[np.arange(n_rows)[:, None], start + dest] = rows

    def _split(self, ids: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, ...]:
        """Split the nodes where a split gains.

        Returns the left children, which of them may split in turn, and
        the same for the right children.
        """
        n_left = self._search(ids, features)
        ids, n_left = ids[n_left > 0], n_left[n_left > 0]
        self._partition(ids, n_left)
        start, size = self.start[ids], self.size[ids]
        children, open_ = self._add(
            np.tile(self.tree[ids], 2),
            np.concatenate([start, start + n_left]),
            np.concatenate([n_left, size - n_left]),
            np.tile(self.depth[ids] + 1, 2),
        )
        left, right = np.split(children, 2)
        self.left[ids], self.right[ids] = left, right
        return left, open_[: len(ids)], right, open_[len(ids) :]

    def grow(self, seeds: Sequence[int]) -> None:
        """Grow every tree; tree ``t`` draws candidates from ``seeds[t]``."""
        n_features = self.XT.shape[0]
        if self.k == n_features:  # nothing drawn: split every pending node
            pending = self.roots[self.roots_open]
            every = np.arange(n_features)
            while len(pending):
                features = np.broadcast_to(every, (len(pending), n_features))
                left, left_open, right, right_open = self._split(pending, features)
                pending = np.concatenate([left[left_open], right[right_open]])
            return

        # Depth-first per tree, one node per live tree per step, so every
        # tree draws its candidates in the order a recursive grower would.
        n_trees = len(self.roots)
        depth = min(self.params.max_depth, int(self.size[self.roots].max())) + 2
        stack = np.empty((n_trees, depth), dtype=np.int64)
        top = np.zeros(n_trees, dtype=np.int64)
        rngs = [stream(seed, "dtree") for seed in seeds]

        def push(ids: np.ndarray) -> None:
            t = self.tree[ids]
            stack[t, top[t]] = ids
            top[t] += 1

        push(self.roots[self.roots_open])
        while (live := np.flatnonzero(top)).size:
            top[live] -= 1
            ids = stack[live, top[live]]
            features = np.array(
                [rngs[t].choice(n_features, size=self.k, replace=False) for t in live]
            )
            left, left_open, right, right_open = self._split(ids, features)
            push(right[right_open])
            push(left[left_open])

    def arrays(self) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray]:
        """Each tree's preorder node arrays, and the raw importances.

        Importances are ``(n_trees, F)`` gain totals, added per tree in
        preorder as a recursive grower adds them.
        """
        count = self.n_nodes
        left, right, depth = self.left[:count], self.right[:count], self.depth[:count]
        internal = left >= 0
        by_depth = np.argsort(depth, kind="stable")
        edges = np.searchsorted(depth[by_depth], np.arange(depth.max() + 2))
        levels = [by_depth[a:b] for a, b in zip(edges[:-1], edges[1:])]
        levels = [level[internal[level]] for level in levels]
        # Subtree sizes bottom-up, then preorder positions top-down.
        subtree = np.ones(count, dtype=np.int64)
        for level in reversed(levels):
            subtree[level] += subtree[left[level]] + subtree[right[level]]
        pre = np.zeros(count, dtype=np.int64)
        for level in levels:
            pre[left[level]] = pre[level] + 1
            pre[right[level]] = pre[level] + 1 + subtree[left[level]]
        offsets = np.concatenate([[0], np.cumsum(subtree[self.roots])])
        by_slot = np.empty(count, dtype=np.int64)
        by_slot[offsets[self.tree[:count]] + pre] = np.arange(count)

        is_split = internal[by_slot]
        columns = (
            self.feature[by_slot],
            self.threshold[by_slot],
            np.where(is_split, pre[left[by_slot]], -1).astype(np.int32),
            np.where(is_split, pre[right[by_slot]], -1).astype(np.int32),
            self.sum[by_slot] / self.size[by_slot],
        )
        splits = by_slot[is_split]
        importances = np.zeros((len(self.roots), self.XT.shape[0]))
        np.add.at(
            importances, (self.tree[splits], self.feature[splits]), self.gain[splits]
        )
        per_tree = [
            tuple(c[lo:hi] for c in columns) for lo, hi in zip(offsets[:-1], offsets[1:])
        ]
        return per_tree, importances


def grow_trees(
    trees: Sequence[DecisionTreeRegressor],
    X: np.ndarray,
    y: np.ndarray,
    samples: Sequence[np.ndarray],
) -> None:
    """Fit ``trees[t]`` on rows ``samples[t]`` of ``(X, y)``, all together.

    Rows may repeat (bootstrap draws).  The trees must share their growth
    parameters; each keeps its own seed.  Every tree comes out exactly as
    if it had been fitted alone on ``(X[samples[t]], y[samples[t]])``.
    """
    # Trees grow independently, so large forests grow a group at a time.
    per_tree = (X.shape[1] + 1) * max(len(rows) for rows in samples)
    group = max(1, _TABLE_ELEMENTS // per_tree)
    for at in range(0, len(trees), group):
        grower = _Grower(X, y, samples[at : at + group], trees[0])
        grower.grow([tree.seed for tree in trees[at : at + group]])
        arrays, importances = grower.arrays()
        for tree, flat, importance in zip(trees[at:], arrays, importances):
            total = importance.sum()
            tree._flat, tree._n_features = flat, X.shape[1]
            tree.feature_importances_ = (
                importance / total if total > 0 else importance.copy()
            )


def _check_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Training data as float arrays; rejects bad shapes and empty sets."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"bad shapes: X{X.shape}, y{y.shape}")
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    return X, y


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
    """

    def __init__(
        self,
        max_depth: int = 20,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_features: int | str | None = None,
        seed: int = 0,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("min_samples_leaf >= 1 and min_samples_split >= 2")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self._flat: tuple[np.ndarray, ...] | None = None
        self._n_features = 0
        self.feature_importances_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree on ``(n_samples, n_features)`` data."""
        X, y = _check_xy(X, y)
        grow_trees([self], X, y, [np.arange(X.shape[0])])
        return self

    def _flat_arrays(self) -> tuple[np.ndarray, ...]:
        """The tree as preorder ``(feats, thrs, lefts, rights, values)``."""
        if self._flat is None:
            raise RuntimeError("tree not fitted")
        return self._flat

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets; requires a prior :meth:`fit`.

        Prediction walks all rows level-by-level over the node arrays,
        so it is vectorized across samples.
        """
        if self._flat is None:
            raise RuntimeError("predict() before fit()")
        X = np.asarray(X, dtype=np.float64)
        feats, thrs, lefts, rights, values = self._flat
        idx = np.zeros(X.shape[0], dtype=np.int32)
        active = lefts[idx] >= 0
        rows = np.arange(X.shape[0])
        while active.any():
            cur = idx[active]
            go_left = X[rows[active], feats[cur]] <= thrs[cur]
            idx[active] = np.where(go_left, lefts[cur], rights[cur])
            active = lefts[idx] >= 0
        return values[idx]

    def depth(self) -> int:
        """Actual depth of the grown tree (a level-by-level walk)."""
        if self._flat is None:
            raise RuntimeError("depth() before fit()")
        _, _, lefts, rights, _ = self._flat
        level, best = np.zeros(1, dtype=np.int64), -1
        while len(level):
            best += 1
            level = level[lefts[level] >= 0]
            level = np.concatenate([lefts[level], rights[level]])
        return best
