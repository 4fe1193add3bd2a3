"""Pure-numpy reference kernels for the tree-grower hot loops.

This module is the **semantic definition** of the native kernels: the C
extension in ``_kernels.c`` must reproduce every function here bit for
bit (``tests/native/test_kernel_parity.py`` fuzzes that contract), and
any box without a working C compiler runs on this module alone.  The
code is the grower hot-loop numpy moved verbatim out of
``learners/tree.py`` / ``learners/catboost_like.py`` — accumulation
orders, in-place gain assembly and argmax tie-breaking are all part of
the contract, so edit with care and re-run the parity fuzz + golden
suites after any change.

Shared conventions (both implementations):

* ``codes`` are C-contiguous uint8/uint16 bin codes, values strictly
  below the per-feature ``n_bins`` (the :class:`~repro.learners.
  histogram.Binner` invariant — the kernels trust it);
* index/feature arrays are int64, grad/hess are float64;
* histograms are float64 ``(P, F, nbmax)`` with parts (grad, hess
  [, count]).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ObliviousLevelScorer",
    "best_split_counts",
    "best_split_scan",
    "build_class_hists",
    "build_hists",
    "class_split_counts",
    "class_split_scan",
    "ensemble_predict",
    "impurity",
    "oblivious_predict",
    "soft_threshold",
]

_EPS = 1e-12

#: kernels modules advertise which implementation they are (logs/tests)
is_native = False


def soft_threshold(g, alpha: float):
    """L1 soft-thresholding, ufunc-chained exactly as the growers use it."""
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def _score(G, H, alpha: float, lam: float):
    return soft_threshold(G, alpha) ** 2 / (H + lam)


def build_hists(codes, g, h, idx, features, n_bins, nbmax, need_cnt,
                all_features=False):
    """(grad, hess[, count]) per-(feature, bin) histograms of one node.

    ``g``/``h`` are already gathered to ``idx`` order; ``all_features``
    says ``features`` is every column in order (enables the plain-row
    gather).  The count histogram is only materialised when
    ``min_samples_leaf`` needs it (``need_cnt``).

    The result is **one** stacked array of shape ``(P, F, nbmax)`` with
    ``P = 3 if need_cnt else 2`` (grad, hess[, count] parts).  Both
    branches below accumulate every (part, feature, bin) bucket in row
    (``idx``) order, so they are bitwise identical to each other and to
    the C kernel's plain row-major loop; what the flat single-bincount
    branch drops is per-call numpy dispatch, which dominates on the
    small nodes deep in a tree.
    """
    F = features.size
    W = F * nbmax
    P = 3 if need_cnt else 2
    if idx.size == 0:
        # growers never histogram empty nodes, but the kernel contract
        # is float64 zeros (np.bincount drops the weights dtype when
        # the input is empty and would return int64 here)
        return np.zeros((P, F, nbmax))
    if idx.size * F <= 200_000:
        # Small node: flat bincount over all candidate features at
        # once (block j of the histogram belongs to features[j]) —
        # per-feature Python loops are interpreter-overhead-bound here.
        sub = codes[idx] if all_features else codes[idx[:, None], features]
        flat = (sub + np.arange(F, dtype=np.int64) * nbmax).ravel()
        gw = np.repeat(g, F) if F > 1 else g
        hw = np.repeat(h, F) if F > 1 else h
        if need_cnt:
            keys = np.concatenate((flat, flat + W, flat + 2 * W))
            wts = np.concatenate((gw, hw, np.ones(flat.size)))
        else:
            keys = np.concatenate((flat, flat + W))
            wts = np.concatenate((gw, hw))
        return np.bincount(keys, weights=wts,
                           minlength=P * W).reshape(P, F, nbmax)
    # Large node: per-feature bincounts avoid materialising the
    # (rows x features) weight copies.
    hist = np.zeros((P, F, nbmax))
    for j, f in enumerate(features):
        c = codes[idx, f]
        hist[0, j, : n_bins[f]] = np.bincount(c, weights=g, minlength=n_bins[f])
        hist[1, j, : n_bins[f]] = np.bincount(c, weights=h, minlength=n_bins[f])
        if need_cnt:
            hist[2, j, : n_bins[f]] = np.bincount(c, minlength=n_bins[f])
    return hist


def build_class_hists(codes, yk, idx, w, features, n_classes, nbmax,
                      all_features=False):
    """Joint ``(class, feature, bin)`` count histograms of one node.

    The classification-tree analogue of :func:`build_hists`: ``yk`` is
    the node's class labels already gathered to ``idx`` order (int64,
    values in ``[0, n_classes)``), ``w`` is the matching per-row weight
    gather or ``None`` for unit weights.  Returns float64
    ``(n_classes, F, nbmax)``.

    This is the ``ClassTreeGrower._best_split`` joint-bincount moved
    verbatim: one flat bincount over ``class*(F*nbmax) + j*nbmax +
    code`` keys, so every bucket accumulates its rows in ``idx`` order
    — the same order the C kernel's plain row-major loop produces.
    """
    F = features.size
    if idx.size == 0:
        # same float64-zeros contract as build_hists on empty nodes
        return np.zeros((n_classes, F, nbmax))
    sub = codes[idx] if all_features else codes[idx[:, None], features]
    flat = (
        yk[:, None] * (F * nbmax)
        + sub
        + np.arange(F, dtype=np.int64) * nbmax
    ).ravel()
    flat_w = None if w is None else (np.repeat(w, F) if F > 1 else w)
    joint = np.bincount(
        flat, weights=flat_w, minlength=n_classes * F * nbmax
    ).astype(np.float64)
    return joint.reshape(n_classes, F, nbmax)


def ensemble_predict(codes, feature, threshold, left, right, value,
                     tree_offset, tree_class, lr, out):
    """Accumulate a packed ensemble's predictions into ``out`` in place.

    The node arrays are the concatenated per-tree buffers built by
    :class:`~repro.learners.tree.FlatEnsemble`: int64
    ``feature``/``threshold``/``left``/``right`` (child ids already
    absolute, leaves marked ``feature < 0``) and float64 ``value`` of
    shape ``(total_nodes, V)``.  ``tree_offset[t]`` is tree ``t``'s
    root node; ``tree_class[t] = k >= 0`` adds ``lr * value[leaf, 0]``
    into column ``k`` of the C-contiguous float64 ``out``; ``-1`` adds
    ``lr * value[leaf]`` across the whole row (forest-probability
    trees).

    Bitwise contract: per output cell, additions arrive in tree order
    and each is a single ``lr * leaf_value`` product followed by one
    add — exactly the ``scores += lr * tree.predict(codes)`` chain the
    engines used to run tree by tree.  Navigation is pure integer
    compare (``code <= threshold`` goes left), so leaf choice is exact.
    """
    n = codes.shape[0]
    for t in range(tree_offset.size - 1):
        node = np.full(n, tree_offset[t], dtype=np.int64)
        while True:
            act = np.nonzero(feature[node] >= 0)[0]
            if act.size == 0:
                break
            cur = node[act]
            goleft = codes[act, feature[cur]] <= threshold[cur]
            node[act] = np.where(goleft, left[cur], right[cur])
        vals = value[node]
        k = int(tree_class[t])
        if k < 0:
            out += lr * vals
        else:
            out[:, k] += lr * vals[:, 0]
    return out


def oblivious_predict(codes, features, thresholds, level_offset,
                      leaf_values, leaf_offset, tree_class, lr, out):
    """Accumulate a packed oblivious ensemble's predictions into ``out``.

    Per-tree layout (:class:`~repro.learners.catboost_like.
    FlatOblivious`): levels ``level_offset[t]:level_offset[t+1]`` of the
    int64 ``features``/``thresholds`` vectors are tree ``t``'s shared
    per-depth splits, and its ``2**depth`` leaf table starts at
    ``leaf_offset[t]`` in the flat float64 ``leaf_values``.  Leaf index
    is the usual bit pack — level ``lvl`` contributes ``(code >
    threshold) << lvl`` — then ``lr * leaf`` is added into column
    ``tree_class[t]`` of ``out``, one tree at a time (the engines'
    historical accumulation order).
    """
    for t in range(tree_class.size):
        lo, hi = int(level_offset[t]), int(level_offset[t + 1])
        idx = np.zeros(codes.shape[0], dtype=np.int64)
        for lvl in range(hi - lo):
            f = int(features[lo + lvl])
            thr = thresholds[lo + lvl]
            idx |= (codes[:, f] > thr).astype(np.int64) << lvl
        vals = leaf_values[int(leaf_offset[t]) + idx]
        out[:, int(tree_class[t])] += lr * vals
    return out


def _picked_cells(valid, picks):
    """``(jj, tt)`` of the picked thresholds: feature ``j`` keeps its
    ``picks[j]``-th valid threshold (0-based; none when ``picks[j] <
    0``).  Cells come out in row-major order, the order the flat argmax
    of the full ``(F, T)`` grid visits them."""
    rank = valid.cumsum(axis=1) - 1
    return np.nonzero(valid & (rank == picks[:, None]))


def _argmax_grid(gains, valid):
    """``(gain, j, t)`` of the flat argmax of the ``(F, T)`` ``gains``
    masked to ``valid`` (row-major scan, first NaN wins)."""
    gains = np.where(valid, gains, -np.inf)
    k = int(gains.argmax())
    j, t = divmod(k, gains.shape[1])
    return float(gains[j, t]), j, t


def _argmax_cells(gains, jj, tt):
    """``(gain, j, t)`` of the flat argmax over a ``(F, T)`` grid whose
    only finite cells are ``gains`` at ``(jj, tt)``, every other cell
    ``-inf`` — without building the grid.  An all ``-inf`` grid has its
    argmax at flat cell 0."""
    k = int(gains.argmax())
    if gains[k] == -np.inf:
        return float(gains[k]), 0, 0
    return float(gains[k]), int(jj[k]), int(tt[k])


def _split_cells(hists, nbf, n_idx, H, min_child_weight, min_samples_leaf,
                 t_valid):
    """Left cumulative sums and the ``(F, T)`` valid-threshold mask."""
    P, F, nbmax = hists.shape
    # one cumulative sum over every (part, feature) row at once
    cs = hists.reshape(P * F, nbmax).cumsum(axis=1).reshape(P, F, nbmax)
    HL = cs[1, :, :-1]
    HR = H - HL
    valid = (HL >= min_child_weight) & (HR >= min_child_weight)
    if t_valid is None:
        # thresholds past a feature's own bin count are no real splits
        t_valid = np.arange(nbmax - 1) < (nbf - 1)[:, None]
    valid &= t_valid
    if P == 3:
        CL = cs[2, :, :-1]
        valid &= (CL >= min_samples_leaf) & (
            n_idx - CL >= min_samples_leaf
        )
    return cs[0, :, :-1], HL, HR, valid


def best_split_counts(hists, nbf, n_idx, H, min_child_weight,
                      min_samples_leaf, t_valid=None):
    """Number of valid thresholds per feature (int64 ``(F,)``) under
    the validity rules of :func:`best_split_scan` — what an
    extra-random grower draws its per-feature picks from."""
    return _split_cells(hists, nbf, n_idx, H, min_child_weight,
                        min_samples_leaf, t_valid)[3].sum(axis=1)


def best_split_scan(hists, nbf, n_idx, G, H, parent, min_child_weight,
                    reg_alpha, reg_lambda, min_samples_leaf, picks=None,
                    t_valid=None):
    """Best ``(gain, j, t)`` over one node's stacked histograms.

    ``j`` indexes into the candidate-feature list the histograms were
    built over; ``(0.0, -1, -1)`` means no valid split.  Thresholds are
    bin codes; split sends ``code <= t`` left (missing bin 0 always
    goes left).  ``picks`` is the extra-trees mode: int64 ``(F,)``,
    feature ``j`` competes with only its ``picks[j]``-th valid
    threshold (``-1``: none), and gains are computed at those cells
    alone — bitwise the values and argmax of the full grid masked to
    them.  ``t_valid`` is the threshold-validity mask
    ``arange(nbmax-1) < (nbf-1)[:, None]`` — growers hoist it out of
    this per-node call (the C kernel derives it from ``nbf`` inline and
    ignores the arg).
    """
    GL, HL, HR, valid = _split_cells(hists, nbf, n_idx, H,
                                     min_child_weight, min_samples_leaf,
                                     t_valid)
    if picks is not None:
        # score the picked cells only: every op below is elementwise,
        # so their gains equal the full grid's bit for bit
        jj, tt = _picked_cells(valid, picks)
        if jj.size == 0:
            return 0.0, -1, -1
        GL, HL, HR = GL[jj, tt], HL[jj, tt], HR[jj, tt]
    elif not valid.any():
        return 0.0, -1, -1
    GR = G - GL
    # same association as 0.5*(score(L) + score(R) − parent), built
    # in place to avoid (F, T)-sized temporaries on every node
    gains = _score(GL, HL, reg_alpha, reg_lambda)
    gains += _score(GR, HR, reg_alpha, reg_lambda)
    gains -= parent
    gains *= 0.5
    if picks is None:
        return _argmax_grid(gains, valid)
    return _argmax_cells(gains, jj, tt)


def _class_sum(a, seq):
    """Sum over the class (last) axis.  ``seq`` forces a left-to-right
    sum; otherwise numpy's reduce picks the order from the layout
    (left-to-right when the class axis is an outer loop, pairwise when
    it is the only axis left)."""
    return a.cumsum(axis=-1)[..., -1] if seq else a.sum(axis=-1)


def impurity(counts, criterion, seq=False):
    """Impurity of count vectors along the last axis, times total count.

    Returning ``impurity * n`` (the "weighted" impurity) makes the gain
    computation a simple subtraction.  ``seq`` is :func:`_class_sum`'s.
    """
    tot = _class_sum(counts, seq)
    safe = np.maximum(tot, _EPS)
    p = counts / safe[..., None]
    if criterion == "gini":
        np.power(p, 2, out=p)  # in place: p is ours, and p**2 == p·p
        per = 1.0 - _class_sum(p, seq)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0, np.log2(np.maximum(p, _EPS)), 0.0)
        per = -_class_sum(p * logp, seq)
    per *= tot
    return per


def _class_cells(joint, nbf, n_idx, min_samples_leaf):
    """Left class counts ``(F, T, K)`` and the valid-threshold mask."""
    K, F, nbmax = joint.shape
    CL = joint.reshape(K * F, nbmax).cumsum(axis=1).reshape(K, F, nbmax)
    CL = np.moveaxis(CL[:, :, :-1], 0, -1)  # (F, T, K) view, K outermost
    nl = CL.sum(axis=2)
    nr = n_idx - nl
    valid = (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    valid &= np.arange(nbmax - 1) < (nbf - 1)[:, None]
    return CL, valid


def class_split_counts(joint, nbf, n_idx, min_samples_leaf):
    """Number of valid thresholds per feature (int64 ``(F,)``) under
    the validity rules of :func:`class_split_scan`."""
    return _class_cells(joint, nbf, n_idx, min_samples_leaf)[1].sum(axis=1)


def class_split_scan(joint, total, nbf, n_idx, parent, min_samples_leaf,
                     criterion="gini", picks=None):
    """Best ``(gain, j, t)`` of a classification node.

    ``joint`` is the node's ``(K, F, nbmax)`` :func:`build_class_hists`
    output, ``total`` its float64 ``(K,)`` class totals and ``parent``
    ``impurity(total)``; gains are ``parent − imp(left) − imp(right)``
    under gini or entropy, ``(0.0, -1, -1)`` means no valid split, and
    ``picks`` is the extra-trees mode of :func:`best_split_scan`.

    Class-axis sums follow numpy's own order on the ``(F, T, K)`` grid,
    whose class axis is outermost in memory: left to right, except
    pairwise when the grid is a single cell.  The picked ``(M, K)``
    cells have a layout of their own, so :func:`impurity` is told that
    order.
    """
    CL, valid = _class_cells(joint, nbf, n_idx, min_samples_leaf)
    seq = False
    if picks is not None:
        jj, tt = _picked_cells(valid, picks)
        if jj.size == 0:
            return 0.0, -1, -1
        CL, seq = CL[jj, tt], valid.size > 1
    elif not valid.any():
        return 0.0, -1, -1
    # same association as parent − imp(CL) − imp(CR), built in place
    gains = impurity(CL, criterion, seq)
    np.subtract(parent, gains, out=gains)
    gains -= impurity(total - CL, criterion, seq)
    if picks is None:
        return _argmax_grid(gains, valid)
    return _argmax_cells(gains, jj, tt)


class ObliviousLevelScorer:
    """Per-tree state for the oblivious whole-level scoring loop.

    Construction hoists everything that is constant across levels (the
    gathered candidate codes with per-feature offsets, the repeated
    grad/hess weight vector, the threshold-validity mask);
    :meth:`score_level` then scores one level from a single flat
    ``np.bincount`` over joint ``(node, feature, bin)`` keys.  The
    layout is bitwise-neutral: every bucket accumulates the same rows
    in the same order as per-feature loops would, and the cumulative
    sums are per-row independent.
    """

    def __init__(self, codes, cand_features, n_bins, grad, hess,
                 min_child_weight, reg_lambda):
        F = cand_features.size
        nbmax = int(n_bins[cand_features].max())
        self.F = F
        self.nbmax = nbmax
        self.min_child_weight = float(min_child_weight)
        self.reg_lambda = float(reg_lambda)
        # joint (feature, bin) codes of the candidate features,
        # gathered once
        fcodes = codes[:, cand_features].astype(np.int64)
        fcodes += np.arange(F, dtype=np.int64)[None, :] * nbmax
        self._fcodes = fcodes
        # grad/hess repeated per feature (and concatenated) once, so
        # each level's histograms come from a single flat bincount
        self._gh = np.concatenate((
            np.repeat(grad, F) if F > 1 else grad,
            np.repeat(hess, F) if F > 1 else hess,
        ))
        self._gh_node = np.concatenate((grad, hess))
        # thresholds past a feature's own bin count are not real splits
        self._t_valid = (
            np.arange(nbmax - 1)[None, :]
            < (n_bins[cand_features] - 1)[:, None]
        )

    def score_level(self, node, lvl):
        """Score level ``lvl`` (``m = 2**lvl`` current nodes); returns
        ``(gain, j, t)`` with ``j = -1`` when no split is accepted."""
        m = 1 << lvl
        F, nbmax = self.F, self.nbmax
        W = m * F * nbmax
        # Node totals (shared across features).
        nodes2 = np.concatenate((node, node + m))
        GnHn = np.bincount(nodes2, weights=self._gh_node, minlength=2 * m)
        Gn, Hn = GnHn[:m], GnHn[m:]
        parent = Gn**2 / (Hn + self.reg_lambda)
        flat = (node[:, None] * (F * nbmax) + self._fcodes).ravel()
        keys = np.concatenate((flat, flat + W))
        hist = np.bincount(keys, weights=self._gh, minlength=2 * W)
        cs = hist.reshape(2 * m * F, nbmax).cumsum(axis=1)
        cs = cs.reshape(2, m, F, nbmax)
        GL = cs[0, :, :, :-1]  # (m, F, T)
        HL = cs[1, :, :, :-1]
        GR = Gn[:, None, None] - GL
        HR = Hn[:, None, None] - HL
        valid = (HL >= self.min_child_weight) & (HR >= self.min_child_weight)
        # same association as 0.5*(GL²/(HL+λ) + GR²/(HR+λ) − parent),
        # assembled in place to avoid temporaries the size of (m, F, T)
        HL += self.reg_lambda
        HR += self.reg_lambda
        gains = GL**2
        gains /= HL
        tmp = GR**2
        tmp /= HR
        gains += tmp
        gains -= parent[:, None, None]
        gains *= 0.5
        total = np.where(valid, gains, 0.0).sum(axis=0)  # (F, T)
        total = np.where(self._t_valid, total, -np.inf)
        # replicate the sequential accept rule exactly: walk features in
        # candidate order, take this feature's best threshold iff it
        # beats the running best by more than _EPS
        best = (0.0, -1, -1)
        per_f_t = np.argmax(total, axis=1)
        per_f_gain = total[np.arange(F), per_f_t]
        for j in range(F):
            if per_f_gain[j] > best[0] + _EPS:
                best = (float(per_f_gain[j]), j, int(per_f_t[j]))
        return best
