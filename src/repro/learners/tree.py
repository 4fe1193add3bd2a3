"""Histogram-based decision trees.

Two growers share the same array-backed :class:`Tree` structure:

* :class:`GradTreeGrower` — regression trees on (gradient, hessian) pairs
  with L1/L2-regularised leaf values and gain, exactly as in
  XGBoost/LightGBM.  Supports *leaf-wise* (best-first, LightGBM style) and
  *depth-wise* growth, per-tree/per-level column subsampling, and an
  *extra-random* mode (random thresholds, for extra-trees).
* :class:`ClassTreeGrower` — classification trees on class labels with
  gini/entropy impurity (for the random-forest / extra-trees learners whose
  ``split criterion`` is a searched hyperparameter in Table 5).

Split finding is vectorised: per (node, feature) histograms are built with
``np.bincount`` and all candidate thresholds are scored at once — or, when
the native kernels are enabled (:mod:`repro.native`), by the compiled
bitwise-identical equivalents.  A grower binds its kernels object once at
construction; per-node code never re-dispatches.  The extra-random mode
runs on the same kernels: one kernel call counts each feature's valid
thresholds, the grower draws every feature's pick with one
``rng.integers`` call, and a second call scores only the picks.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..native import active_kernels
from ..native.fallback import _EPS  # the kernels' gain tie-break epsilon
from ..native.fallback import impurity as _impurity
from ..native.fallback import soft_threshold as _soft_threshold

__all__ = ["Tree", "FlatEnsemble", "GradTreeGrower", "ClassTreeGrower"]

#: cap on histograms parked on pending tree nodes for the
#: sibling-subtraction trick; beyond it children rebuild from scratch
_HIST_CACHE_BYTES = 32 << 20


def _draw_picks(rng, counts: np.ndarray) -> np.ndarray | None:
    """Extra-random threshold picks: for each feature with ``counts[j]``
    valid thresholds, the rank of the one it competes with (``-1`` for
    features with none); None when no feature has any.

    One ``rng.integers(0, counts[counts > 0])`` call returns the same
    values and leaves the same generator state as a ``rng.choice`` per
    feature in feature order (``tests/learners/test_tree.py`` pins
    that), so trees match the per-feature draws bit for bit.
    """
    has = counts > 0
    if not has.any():
        return None
    picks = np.full(counts.size, -1, dtype=np.int64)
    picks[has] = rng.integers(0, counts[has])
    return picks


class Tree:
    """Array-backed binary tree over binned features.

    Navigation rule at an internal node: go left iff
    ``codes[:, feature] <= threshold``.  Leaf payloads are rows of
    ``value`` (scalar for boosting trees, class-probability vector for
    classification trees).
    """

    def __init__(self, n_values: int = 1) -> None:
        self.feature: list[int] = []
        self.threshold: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []
        self.n_values = n_values

    # -- construction ---------------------------------------------------
    def add_node(self, value: np.ndarray) -> int:
        """Append a leaf and return its node id."""
        nid = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(np.atleast_1d(np.asarray(value, dtype=np.float64)))
        return nid

    def set_split(self, nid: int, feature: int, threshold: int, left: int, right: int) -> None:
        """Turn leaf ``nid`` into an internal node."""
        self.feature[nid] = feature
        self.threshold[nid] = threshold
        self.left[nid] = left
        self.right[nid] = right

    def freeze(self) -> None:
        """Convert list storage to arrays for fast prediction."""
        self._feature = np.asarray(self.feature, dtype=np.int32)
        self._threshold = np.asarray(self.threshold, dtype=np.int64)
        self._left = np.asarray(self.left, dtype=np.int32)
        self._right = np.asarray(self.right, dtype=np.int32)
        self._value = np.stack(self.value).astype(np.float64)

    def _ensure_frozen(self) -> None:
        """Freeze on first prediction if the growers/loaders haven't.

        Hand-built trees (``add_node``/``set_split`` without ``freeze``)
        used to die with a bare ``AttributeError: '_feature'`` here; an
        empty tree has nothing to predict with, so that stays an error —
        but an actionable one.
        """
        if not hasattr(self, "_feature"):
            if not self.feature:
                raise RuntimeError(
                    "cannot predict with an empty Tree: add at least one "
                    "leaf (add_node) or grow the tree before predicting"
                )
            self.freeze()

    # -- inference ------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total node count (internal + leaves)."""
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        """Leaf count."""
        return int(sum(1 for f in self.feature if f < 0))

    def predict_leaf(self, codes: np.ndarray) -> np.ndarray:
        """Return the leaf node id reached by each row of ``codes``."""
        self._ensure_frozen()
        node = np.zeros(codes.shape[0], dtype=np.int32)
        while True:
            act = np.nonzero(self._feature[node] >= 0)[0]
            if act.size == 0:
                return node
            cur = node[act]
            goleft = codes[act, self._feature[cur]] <= self._threshold[cur]
            node[act] = np.where(goleft, self._left[cur], self._right[cur])

    def predict(self, codes: np.ndarray) -> np.ndarray:
        """Return leaf values, shape (n,) if scalar payload else (n, K)."""
        # freeze before the subscript: `self._value[...]` resolves the
        # attribute *before* predict_leaf gets a chance to freeze
        self._ensure_frozen()
        out = self._value[self.predict_leaf(codes)]
        return out[:, 0] if out.shape[1] == 1 else out

    def predict_at(self, leaves: np.ndarray) -> np.ndarray:
        """Leaf values for known leaf ids (``grow(out_leaf=...)``) —
        skips the tree walk of :meth:`predict`."""
        self._ensure_frozen()
        out = self._value[leaves]
        return out[:, 0] if out.shape[1] == 1 else out

    def split_feature_counts(self, n_features: int) -> np.ndarray:
        """How many internal nodes split on each feature (importance proxy)."""
        counts = np.zeros(n_features, dtype=np.float64)
        for f in self.feature:
            if f >= 0:
                counts[f] += 1
        return counts


# ----------------------------------------------------------------------
class FlatEnsemble:
    """Packed node arrays of many frozen trees, for batched traversal.

    All trees' ``feature``/``threshold``/``left``/``right``/``value``
    buffers are concatenated into one contiguous int64/float64 array
    each, with child ids rewritten to be **absolute** indices into the
    pack (leaves keep ``feature < 0``), so the traversal kernels
    (:mod:`repro.native` ``ensemble_predict``) descend every tree for
    every row without per-tree Python dispatch or re-basing.

    ``tree_class[t]`` routes tree ``t``'s leaf values: ``k >= 0`` adds
    ``value[leaf, 0]`` into output column ``k`` (boosting trees, one per
    loss score), ``-1`` adds the whole ``value[leaf]`` row (forest
    class-probability trees).  The accumulate itself — one ``lr *
    value`` product + one add per touched cell, trees in order — is
    bitwise identical to the historical per-tree
    ``out += lr * tree.predict(codes)`` loop.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value",
                 "tree_offset", "tree_class", "n_trees")

    def __init__(self, trees: list, tree_class=None) -> None:
        if not trees:
            raise ValueError("FlatEnsemble needs at least one tree")
        offs = np.zeros(len(trees) + 1, dtype=np.int64)
        for i, t in enumerate(trees):
            t._ensure_frozen()
            offs[i + 1] = offs[i] + t.n_nodes
        feature, threshold, left, right = [], [], [], []
        for off, t in zip(offs, trees):
            f = t._feature.astype(np.int64)
            lc = t._left.astype(np.int64)
            rc = t._right.astype(np.int64)
            internal = f >= 0
            lc[internal] += off
            rc[internal] += off
            feature.append(f)
            threshold.append(t._threshold)
            left.append(lc)
            right.append(rc)
        self.feature = np.concatenate(feature)
        self.threshold = np.ascontiguousarray(
            np.concatenate(threshold), dtype=np.int64
        )
        self.left = np.concatenate(left)
        self.right = np.concatenate(right)
        self.value = np.ascontiguousarray(
            np.concatenate([t._value for t in trees], axis=0)
        )
        self.tree_offset = offs
        self.tree_class = (
            np.zeros(len(trees), dtype=np.int64)
            if tree_class is None
            else np.ascontiguousarray(tree_class, dtype=np.int64)
        )
        self.n_trees = len(trees)

    def predict_into(self, codes: np.ndarray, lr: float, out: np.ndarray,
                     kernels=None) -> np.ndarray:
        """Accumulate ``lr *`` (every tree's prediction) into the
        C-contiguous float64 ``(n, K)`` matrix ``out``, in place."""
        if kernels is None:
            kernels = active_kernels()
        return kernels.ensemble_predict(
            codes, self.feature, self.threshold, self.left, self.right,
            self.value, self.tree_offset, self.tree_class, float(lr), out,
        )


# ----------------------------------------------------------------------
class GradTreeGrower:
    """Grow one regression tree from per-sample gradients/hessians.

    Parameters mirror the GBDT hyperparameters in the paper's Table 5.

    Parameters
    ----------
    max_leaves:
        Leaf budget (``leaf_num``).  Leaf-wise growth stops when reached.
    max_depth:
        Optional depth cap (used by depth-wise growth; None = unlimited).
    min_child_weight:
        Minimum hessian sum per child.
    reg_alpha, reg_lambda:
        L1 / L2 regularisation of leaf values.
    leaf_wise:
        True = best-first growth (LightGBM); False = level-order (XGBoost
        classic / forests).
    colsample_bytree, colsample_bylevel:
        Fractions of features considered per tree / per split.
    extra_random:
        If True, score a single random threshold per feature (extra-trees).
    min_samples_leaf:
        Minimum sample count per child (forests).
    hist_subtraction:
        Derive the larger child's histograms as parent − sibling instead
        of re-counting (LightGBM's trick; on by default).  Gains then
        differ from scratch builds at float-rounding level, which can
        flip the argmax between *exactly tied* candidate splits — set
        False to reproduce scratch-build trees bit-for-bit.
    kernels:
        Histogram/split kernels to use (the compiled-native or numpy
        module from :mod:`repro.native`); resolved once here via
        :func:`~repro.native.active_kernels` when not given, so the
        per-node hot path never re-dispatches.
    """

    def __init__(
        self,
        max_leaves: int = 31,
        max_depth: int | None = None,
        min_child_weight: float = 1e-3,
        reg_alpha: float = 0.0,
        reg_lambda: float = 1.0,
        min_gain: float = 0.0,
        leaf_wise: bool = True,
        colsample_bytree: float = 1.0,
        colsample_bylevel: float = 1.0,
        extra_random: bool = False,
        min_samples_leaf: int = 1,
        hist_subtraction: bool = True,
        rng: np.random.Generator | None = None,
        kernels=None,
    ) -> None:
        if max_leaves < 2:
            raise ValueError(f"max_leaves must be >= 2, got {max_leaves}")
        self.max_leaves = int(max_leaves)
        self.max_depth = max_depth
        self.min_child_weight = float(min_child_weight)
        self.reg_alpha = float(reg_alpha)
        self.reg_lambda = float(reg_lambda)
        self.min_gain = float(min_gain)
        self.leaf_wise = bool(leaf_wise)
        self.colsample_bytree = float(colsample_bytree)
        self.colsample_bylevel = float(colsample_bylevel)
        self.extra_random = bool(extra_random)
        self.min_samples_leaf = int(min_samples_leaf)
        self.hist_subtraction = bool(hist_subtraction)
        self.rng = rng or np.random.default_rng(0)
        self.kernels = kernels if kernels is not None else active_kernels()

    # ------------------------------------------------------------------
    def _leaf_value(self, G: float, H: float) -> float:
        # scalar soft-threshold in plain python: the ufunc chain of
        # _soft_threshold costs ~7 numpy dispatches per leaf, and leaves
        # are created once per node; plain float ops run the identical
        # IEEE arithmetic (sign/abs/subtract/divide), bit for bit
        a = abs(G) - self.reg_alpha
        if a != a:  # NaN gradients must poison the leaf, as the ufunc
            return -a / (H + self.reg_lambda)  # chain did (trial -> inf)
        if a < 0.0:
            a = 0.0
        num = a if G > 0.0 else (-a if G < 0.0 else 0.0)
        return -num / (H + self.reg_lambda)

    def _score(self, G, H):
        return _soft_threshold(G, self.reg_alpha) ** 2 / (H + self.reg_lambda)

    def _build_hists(
        self,
        codes: np.ndarray,
        g: np.ndarray,
        h: np.ndarray,
        idx: np.ndarray,
        features: np.ndarray,
        n_bins: np.ndarray,
        nbmax: int,
        need_cnt: bool,
        all_features: bool = False,
    ):
        """(grad, hess, count) per-(feature, bin) histograms of one node.

        ``g``/``h`` are already gathered to ``idx`` order; ``all_features``
        says ``features`` is every column in order (enables the plain-row
        gather).  The count histogram is only materialised when
        ``min_samples_leaf`` needs it (``need_cnt``).

        The result is **one** stacked array of shape ``(P, F, nbmax)``
        with ``P = 3 if need_cnt else 2`` (grad, hess[, count] parts) —
        every (part, feature, bin) bucket accumulates its rows in ``idx``
        order, whichever kernel implementation runs (the numpy reference
        in :mod:`repro.native.fallback` and the C extension are bitwise
        identical).  The stacking lets the scorer run *one* cumulative
        sum over every part and the sibling-subtraction trick derive a
        whole node in one subtraction.
        """
        return self.kernels.build_hists(
            codes, g, h, idx, features, n_bins, nbmax, need_cnt,
            all_features=all_features,
        )

    def _best_split(
        self,
        codes: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        idx: np.ndarray,
        features: np.ndarray,
        n_bins: np.ndarray,
        hists=None,
        all_features: bool = False,
        nbf: np.ndarray | None = None,
        t_valid: np.ndarray | None = None,
    ):
        """Return (gain, feature, threshold, hists) for the best split.

        Scores every (feature, threshold) pair; thresholds are bin codes,
        split sends ``code <= t`` left (missing bin 0 always goes left).
        ``hists`` lets :meth:`grow` hand in histograms it already holds
        (the sibling-subtraction trick); the histograms actually used are
        returned so the caller can derive the children's from them.
        ``all_features``/``nbf`` (= ``n_bins[features]``)/``t_valid`` are
        per-tree constants :meth:`grow` hoists out of this per-node call.

        The histogram build and the scan run on the grower's bound
        kernels (compiled or numpy — bitwise identical either way),
        the extra-random mode included: it counts each feature's valid
        thresholds, draws the picks here and scans only those.
        """
        g, h = grad[idx], hess[idx]
        G, H = float(g.sum()), float(h.sum())
        parent = self._score(G, H)
        if self.colsample_bylevel < 1.0:
            k = max(1, int(round(self.colsample_bylevel * features.size)))
            features = self.rng.choice(features, size=k, replace=False)
            all_features, nbf, t_valid = False, None, None
        if nbf is None:
            nbf = n_bins[features]
        nbmax = int(nbf.max())
        if nbmax < 2:
            return 0.0, -1, -1, None
        need_cnt = self.min_samples_leaf > 1
        if hists is None:
            hists = self._build_hists(
                codes, g, h, idx, features, n_bins, nbmax, need_cnt,
                all_features=all_features,
            )
        picks = None
        if self.extra_random:
            picks = _draw_picks(self.rng, self.kernels.best_split_counts(
                hists, nbf, idx.size, H, self.min_child_weight,
                self.min_samples_leaf, t_valid=t_valid,
            ))
            if picks is None:
                return 0.0, -1, -1, hists
        gain, j, t = self.kernels.best_split_scan(
            hists, nbf, idx.size, G, H, parent,
            self.min_child_weight, self.reg_alpha, self.reg_lambda,
            self.min_samples_leaf, picks=picks, t_valid=t_valid,
        )
        if j < 0 or gain <= _EPS:
            return 0.0, -1, -1, hists
        return gain, int(features[j]), int(t), hists

    # ------------------------------------------------------------------
    def grow(
        self,
        codes: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        n_bins: np.ndarray,
        sample_idx: np.ndarray | None = None,
        out_leaf: np.ndarray | None = None,
    ) -> Tree:
        """Grow and return a frozen :class:`Tree`.

        Uses the histogram **sibling-subtraction trick** where valid:
        after a node splits, only the smaller child's histograms are
        rebuilt with ``np.bincount``; the larger child's are derived as
        ``parent − sibling``, halving (or better) the bincount work per
        depth level.  Requires every node to score the same feature set,
        so per-level column sampling (``colsample_bylevel < 1``) and
        extra-random threshold draws fall back to scratch builds; the
        retained parent histograms are capped at
        :data:`_HIST_CACHE_BYTES` and degrade to scratch builds beyond
        it.

        ``out_leaf`` (int32, one entry per ``codes`` row) is filled with
        each grown row's leaf node id — callers that train on every row
        (boosting without subsampling) read predictions straight off it
        instead of re-walking the finished tree.
        """
        n, d = codes.shape
        idx0 = np.arange(n) if sample_idx is None else np.asarray(sample_idx)
        features = np.arange(d)
        if self.colsample_bytree < 1.0:
            k = max(1, int(round(self.colsample_bytree * d)))
            features = np.sort(self.rng.choice(d, size=k, replace=False))

        subtract = (
            self.hist_subtraction
            and self.colsample_bylevel >= 1.0
            and not self.extra_random
        )
        nbmax = int(n_bins[features].max()) if features.size else 0
        need_cnt = self.min_samples_leaf > 1
        hist_bytes = 0  # histograms currently parked on pending nodes
        # per-tree constants of the per-node split scoring
        all_features = features.size == d
        nbf = n_bins[features] if self.colsample_bylevel >= 1.0 else None
        t_valid = (
            np.arange(nbmax - 1) < (nbf - 1)[:, None]
            if nbf is not None and nbmax >= 2
            else None
        )

        tree = Tree()
        root_val = self._leaf_value(float(grad[idx0].sum()), float(hess[idx0].sum()))
        root = tree.add_node(root_val)
        if out_leaf is not None:
            out_leaf[idx0] = root
        n_leaves = 1
        counter = 0  # heap tie-breaker

        def splittable(idx: np.ndarray, depth: int) -> bool:
            if self.max_depth is not None and depth >= self.max_depth:
                return False
            return idx.size >= 2 * self.min_samples_leaf and idx.size >= 2

        def try_split(nid: int, idx: np.ndarray, depth: int, hists=None):
            nonlocal counter, hist_bytes
            if not splittable(idx, depth):
                return None
            gain, f, t, hists = self._best_split(
                codes, grad, hess, idx, features, n_bins, hists=hists,
                all_features=all_features, nbf=nbf, t_valid=t_valid,
            )
            if f < 0 or gain <= self.min_gain:
                return None
            keep = None
            if subtract and hists is not None:
                if hist_bytes + hists.nbytes <= _HIST_CACHE_BYTES:
                    keep, hist_bytes = hists, hist_bytes + hists.nbytes
            counter += 1
            return (-gain, counter, nid, idx, depth, f, t, keep)

        heap: list = []
        first = try_split(root, idx0, 0)
        if first is not None:
            heapq.heappush(heap, first)
        while heap and n_leaves < self.max_leaves:
            if self.leaf_wise:
                _, _, nid, idx, depth, f, t, phists = heapq.heappop(heap)
            else:
                _, _, nid, idx, depth, f, t, phists = heap.pop(0)  # FIFO
            if phists is not None:
                hist_bytes -= phists.nbytes
            goleft = codes[idx, f] <= t
            li, ri = idx[goleft], idx[~goleft]
            lval = self._leaf_value(float(grad[li].sum()), float(hess[li].sum()))
            rval = self._leaf_value(float(grad[ri].sum()), float(hess[ri].sum()))
            lid, rid = tree.add_node(lval), tree.add_node(rval)
            tree.set_split(nid, f, t, lid, rid)
            if out_leaf is not None:
                out_leaf[li] = lid
                out_leaf[ri] = rid
            n_leaves += 1
            lh = rh = None
            if phists is not None:
                # bincount the smaller child only; the larger child's
                # histograms are parent − sibling
                small_is_left = li.size <= ri.size
                small = li if small_is_left else ri
                small_ok = splittable(small, depth + 1)
                big_ok = splittable(ri if small_is_left else li, depth + 1)
                if small_ok or big_ok:
                    sh = self._build_hists(
                        codes, grad[small], hess[small], small, features,
                        n_bins, nbmax, need_cnt, all_features=all_features,
                    )
                    bh = phists - sh if big_ok else None
                    lh, rh = (sh, bh) if small_is_left else (bh, sh)
            for cid, cidx, chists in ((lid, li, lh), (rid, ri, rh)):
                if n_leaves >= self.max_leaves:
                    break
                item = try_split(cid, cidx, depth + 1, hists=chists)
                if item is not None:
                    if self.leaf_wise:
                        heapq.heappush(heap, item)
                    else:
                        heap.append(item)
        tree.freeze()
        return tree


# ----------------------------------------------------------------------
class ClassTreeGrower:
    """Grow one classification tree using gini/entropy impurity.

    Leaf payloads are class-probability vectors; used by the forest
    learners where ``split criterion`` ∈ {gini, entropy} is part of the
    searched space (Table 5).
    """

    def __init__(
        self,
        n_classes: int,
        criterion: str = "gini",
        max_leaves: int | None = None,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: float = 1.0,
        extra_random: bool = False,
        rng: np.random.Generator | None = None,
        kernels=None,
    ) -> None:
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"criterion must be gini|entropy, got {criterion!r}")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        self.n_classes = int(n_classes)
        self.criterion = criterion
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = float(max_features)
        self.extra_random = bool(extra_random)
        self.rng = rng or np.random.default_rng(0)
        self.kernels = kernels if kernels is not None else active_kernels()

    def _best_split(self, codes, y, idx, n_bins, w=None):
        """Return (gain, feature, threshold) of the node's best split.

        The joint histogram build and the split scan run on the
        grower's bound kernels; the extra-random mode counts valid
        thresholds, draws one per feature here and scans only those.
        """
        d = codes.shape[1]
        all_features = self.max_features >= 1.0
        features = np.arange(d)
        if not all_features:
            k = max(1, int(round(self.max_features * d)))
            features = self.rng.choice(d, size=k, replace=False)
        yk = y[idx].astype(np.int64)
        K = self.n_classes
        w_idx = None if w is None else w[idx]
        total = np.bincount(yk, weights=w_idx, minlength=K).astype(np.float64)
        parent = float(_impurity(total, self.criterion))
        nbf = n_bins[features]
        nbmax = int(nbf.max())
        if nbmax < 2:
            return 0.0, -1, -1
        joint = self.kernels.build_class_hists(
            codes, yk, idx, w_idx, features, K, nbmax,
            all_features=all_features,
        )
        picks = None
        if self.extra_random:
            picks = _draw_picks(self.rng, self.kernels.class_split_counts(
                joint, nbf, idx.size, self.min_samples_leaf,
            ))
            if picks is None:
                return 0.0, -1, -1
        gain, j, t = self.kernels.class_split_scan(
            joint, total, nbf, idx.size, parent, self.min_samples_leaf,
            self.criterion, picks=picks,
        )
        if j < 0 or gain <= _EPS:
            return 0.0, -1, -1
        return gain, int(features[j]), int(t)

    def _leaf_value(self, y, idx, w=None):
        counts = np.bincount(
            y[idx].astype(np.int64),
            weights=None if w is None else w[idx],
            minlength=self.n_classes,
        ).astype(np.float64)
        total = counts.sum()
        return counts / (total if total > 0 else 1.0)

    def grow(self, codes: np.ndarray, y: np.ndarray, n_bins: np.ndarray,
             sample_idx: np.ndarray | None = None,
             sample_weight: np.ndarray | None = None) -> Tree:
        """Grow and return a frozen Tree.  ``sample_weight`` (aligned with
        ``codes``) scales each row's contribution to impurities and leaf
        frequencies; the ``min_samples_leaf`` guard then applies to
        *weighted* counts."""
        n = codes.shape[0]
        idx0 = np.arange(n) if sample_idx is None else np.asarray(sample_idx)
        w = (
            None if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        tree = Tree(n_values=self.n_classes)
        root = tree.add_node(self._leaf_value(y, idx0, w))
        max_leaves = self.max_leaves or np.inf
        n_leaves = 1
        stack = [(root, idx0, 0)]
        while stack and n_leaves < max_leaves:
            nid, idx, depth = stack.pop(0)
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            if idx.size < 2 * self.min_samples_leaf:
                continue
            if np.all(y[idx] == y[idx[0]]):
                continue  # pure node
            gain, f, t = self._best_split(codes, y, idx, n_bins, w)
            if f < 0 or gain <= 0:
                continue
            goleft = codes[idx, f] <= t
            li, ri = idx[goleft], idx[~goleft]
            lid = tree.add_node(self._leaf_value(y, li, w))
            rid = tree.add_node(self._leaf_value(y, ri, w))
            tree.set_split(nid, f, t, lid, rid)
            n_leaves += 1
            stack.append((lid, li, depth + 1))
            stack.append((rid, ri, depth + 1))
        tree.freeze()
        return tree
