"""Thin Python wrappers giving the C extension the fallback's API.

:class:`NativeKernels` exposes exactly the surface of
:mod:`repro.native.fallback` — ``build_hists``, ``build_class_hists``,
the split scans ``best_split_scan``/``class_split_scan`` with their
``*_counts`` twins, ``ObliviousLevelScorer`` and the traversal pair
``ensemble_predict``/``oblivious_predict`` — so growers and engines
hold one "kernels" object and never branch per node.  The wrappers
only normalise dtypes/contiguity (no-ops on the growers' own arrays)
and allocate outputs; all arithmetic lives in ``_kernels.c`` and is
bitwise-equal to the fallback.  Two inputs stay on the numpy reference:
codes wider than uint16 (:func:`_c_codes`) and the entropy criterion
(numpy's ``log2`` and libm's disagree in the last bit on some inputs).
"""

from __future__ import annotations

import numpy as np

from . import fallback
from .fallback import _EPS  # single source of the gain tie-break epsilon

__all__ = ["NativeKernels"]

#: stand in for the C scans' unused picks/counts/total buffers
_NO_I64 = np.zeros(0, dtype=np.int64)
_NO_F64 = np.zeros(0)


def _i64(arr: np.ndarray) -> np.ndarray:
    if arr.dtype == np.int64 and arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr, dtype=np.int64)


def _f64(arr: np.ndarray) -> np.ndarray:
    if arr.dtype == np.float64 and arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr, dtype=np.float64)


def _c_codes(codes: np.ndarray) -> bool:
    """Whether the C kernels can read this codes array directly.

    The C loops stride by itemsize and trust uint8/uint16 layouts — a
    wider integer dtype (legal on the public grower APIs, and handled
    fine by the numpy reference) would be silently misread, so those
    inputs route to the fallback instead.
    """
    return codes.dtype in (np.uint8, np.uint16)


class _ObliviousLevelScorer:
    """Native counterpart of ``fallback.ObliviousLevelScorer``."""

    def __init__(self, cmod, codes, cand_features, n_bins, grad, hess,
                 min_child_weight, reg_lambda):
        self._c = cmod
        # gather the candidate columns once per tree (a no-op view when
        # every feature is a candidate in order, the common case)
        if cand_features.size == codes.shape[1] and np.array_equal(
            cand_features, np.arange(codes.shape[1])
        ):
            self._codes_f = np.ascontiguousarray(codes)
        else:
            self._codes_f = np.ascontiguousarray(codes[:, cand_features])
        self._nbf = _i64(n_bins[cand_features])
        self._grad = _f64(grad)
        self._hess = _f64(hess)
        self.F = int(cand_features.size)
        self.nbmax = int(self._nbf.max())
        self.min_child_weight = float(min_child_weight)
        self.reg_lambda = float(reg_lambda)

    def score_level(self, node, lvl):
        return self._c.oblivious_level(
            self._codes_f, self._codes_f.dtype.itemsize, node,
            self._grad, self._hess, self._nbf, self.F, 1 << lvl,
            self.nbmax, self.min_child_weight, self.reg_lambda, _EPS,
        )


class NativeKernels:
    """Kernels object backed by the compiled ``_repro_native`` module."""

    is_native = True

    def __init__(self, cmod) -> None:
        self._c = cmod

    def build_hists(self, codes, g, h, idx, features, n_bins, nbmax,
                    need_cnt, all_features=False):
        if not _c_codes(codes):
            return fallback.build_hists(codes, g, h, idx, features,
                                        n_bins, nbmax, need_cnt,
                                        all_features=all_features)
        features = _i64(features)
        F = features.size
        out = np.zeros((3 if need_cnt else 2, F, nbmax))
        self._c.build_hists(
            codes, codes.dtype.itemsize, codes.shape[1], _i64(idx),
            _f64(g), _f64(h), features, nbmax, 1 if need_cnt else 0, out,
        )
        return out

    def best_split_scan(self, hists, nbf, n_idx, G, H, parent,
                        min_child_weight, reg_alpha, reg_lambda,
                        min_samples_leaf, picks=None, t_valid=None):
        # t_valid is the fallback's hoisted threshold mask; the C scan
        # derives the same predicate from nbf inline, so it is unused
        P, F, nbmax = hists.shape
        return self._c.best_split_scan(
            hists, P, F, nbmax, _i64(nbf), G, H, parent,
            min_child_weight, reg_alpha, reg_lambda,
            int(min_samples_leaf), int(n_idx),
            _NO_I64 if picks is None else _i64(picks),
            0 if picks is None else 1, _NO_I64, 0,
        )

    def best_split_counts(self, hists, nbf, n_idx, H, min_child_weight,
                          min_samples_leaf, t_valid=None):
        P, F, nbmax = hists.shape
        counts = np.zeros(F, dtype=np.int64)
        self._c.best_split_scan(
            hists, P, F, nbmax, _i64(nbf), 0.0, H, 0.0, min_child_weight,
            0.0, 0.0, int(min_samples_leaf), int(n_idx), _NO_I64, 0,
            counts, 1,
        )
        return counts

    def class_split_scan(self, joint, total, nbf, n_idx, parent,
                         min_samples_leaf, criterion="gini", picks=None):
        if criterion != "gini":
            return fallback.class_split_scan(
                joint, total, nbf, n_idx, parent, min_samples_leaf,
                criterion, picks=picks,
            )
        K, F, nbmax = joint.shape
        return self._c.class_split_scan(
            joint, K, F, nbmax, _i64(nbf), _f64(total), int(n_idx),
            parent, int(min_samples_leaf), _EPS,
            _NO_I64 if picks is None else _i64(picks),
            0 if picks is None else 1, _NO_I64, 0,
        )

    def class_split_counts(self, joint, nbf, n_idx, min_samples_leaf):
        K, F, nbmax = joint.shape
        counts = np.zeros(F, dtype=np.int64)
        self._c.class_split_scan(
            joint, K, F, nbmax, _i64(nbf), _NO_F64, int(n_idx), 0.0,
            int(min_samples_leaf), _EPS, _NO_I64, 0, counts, 1,
        )
        return counts

    def build_class_hists(self, codes, yk, idx, w, features, n_classes,
                          nbmax, all_features=False):
        if not (_c_codes(codes) and codes.flags.c_contiguous):
            return fallback.build_class_hists(
                codes, yk, idx, w, features, n_classes, nbmax,
                all_features=all_features,
            )
        features = _i64(features)
        out = np.zeros((n_classes, features.size, nbmax))
        self._c.build_class_hists(
            codes, codes.dtype.itemsize, codes.shape[1], _i64(idx),
            _i64(yk), b"" if w is None else _f64(w),
            0 if w is None else 1, features, nbmax, out,
        )
        return out

    def ensemble_predict(self, codes, feature, threshold, left, right,
                         value, tree_offset, tree_class, lr, out):
        if not (_c_codes(codes) and codes.flags.c_contiguous
                and out.flags.c_contiguous):
            return fallback.ensemble_predict(
                codes, feature, threshold, left, right, value,
                tree_offset, tree_class, lr, out,
            )
        self._c.ensemble_predict(
            codes, codes.dtype.itemsize, codes.shape[1], _i64(feature),
            _i64(threshold), _i64(left), _i64(right), _f64(value),
            value.shape[1], _i64(tree_offset), _i64(tree_class),
            float(lr), out, out.shape[1],
        )
        return out

    def oblivious_predict(self, codes, features, thresholds, level_offset,
                          leaf_values, leaf_offset, tree_class, lr, out):
        if not (_c_codes(codes) and codes.flags.c_contiguous
                and out.flags.c_contiguous):
            return fallback.oblivious_predict(
                codes, features, thresholds, level_offset, leaf_values,
                leaf_offset, tree_class, lr, out,
            )
        self._c.oblivious_predict(
            codes, codes.dtype.itemsize, codes.shape[1], _i64(features),
            _i64(thresholds), _i64(level_offset), _f64(leaf_values),
            _i64(leaf_offset), _i64(tree_class), float(lr), out,
            out.shape[1],
        )
        return out

    def ObliviousLevelScorer(self, codes, cand_features, n_bins, grad,
                             hess, min_child_weight, reg_lambda):
        if not _c_codes(codes):
            return fallback.ObliviousLevelScorer(
                codes, cand_features, n_bins, grad, hess,
                min_child_weight, reg_lambda,
            )
        return _ObliviousLevelScorer(
            self._c, codes, cand_features, n_bins, grad, hess,
            min_child_weight, reg_lambda,
        )
