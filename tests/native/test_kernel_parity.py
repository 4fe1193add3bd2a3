"""Differential fuzz: compiled kernels vs the numpy reference, bitwise.

Every exported kernel (``build_hists``, the split scans
``best_split_scan``/``class_split_scan`` with their picks and
``*_counts`` modes, the oblivious level scorer) must return
**bit-for-bit** the same floats as
:mod:`repro.native.fallback` — not ``allclose``, the identical IEEE
doubles — across hypothesis-generated workloads including empty nodes,
single-bin features, all-rows-one-leaf, and extreme float magnitudes
(overflow-to-inf sums included; comparisons go through the raw uint64
bit patterns, so even NaN-producing inf−inf cancellations must agree).

Whole-grower parity rides on top: a GradTree / ClassTree /
oblivious-tree grown with the native kernels equals the fallback-grown
tree node for node, and the forest learners fit with every fallback
split scan made to raise (no numpy fallback on the default path).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native_pkg
from repro.native import fallback, native_available, set_native_enabled
from repro.native.fallback import soft_threshold

pytestmark = [
    pytest.mark.skipif(
        not native_available(),
        reason="native kernels unavailable (no C compiler on this box)",
    ),
    # extreme-magnitude cases overflow/divide by design on the numpy
    # reference path; the point is that the C kernel matches bit for bit
    pytest.mark.filterwarnings("ignore::RuntimeWarning"),
]


def native():
    kernels = native_pkg._load_native()
    assert kernels is not None and kernels.is_native
    return kernels


def assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    """Bitwise array equality (NaN payloads included)."""
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_result_equal(ra, rb) -> None:
    """(gain, j, t) equality with the gain compared at bit level."""
    assert ra[1:] == rb[1:], (ra, rb)
    assert np.float64(ra[0]).tobytes() == np.float64(rb[0]).tobytes(), (ra, rb)


# ----------------------------------------------------------------------
@st.composite
def node_cases(draw):
    """One tree node: codes, per-feature bin counts, idx subset, grads."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e18, 1e300, 1e-300]))
    subset = draw(st.sampled_from(["empty", "all", "some"]))
    rng = np.random.default_rng(seed)
    # include single-bin features (n_bins == 1: only the missing bin)
    n_bins = rng.integers(1, 24, size=d)
    if draw(st.booleans()):
        n_bins[rng.integers(0, d)] = 1
    codes = np.empty((n, d), dtype=dtype)
    for j in range(d):
        codes[:, j] = rng.integers(0, n_bins[j], size=n)
    g = rng.standard_normal(n) * scale
    h = rng.standard_normal(n) * scale
    if draw(st.booleans()):
        h = np.abs(h) + 1e-3  # the realistic regime: positive hessians
    if subset == "empty":
        idx = np.empty(0, dtype=np.int64)
    elif subset == "all":
        idx = np.arange(n)  # all-rows-one-leaf
    else:
        idx = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
    if draw(st.booleans()) or d == 1:
        features = np.arange(d)
        all_features = True
    else:
        features = np.sort(
            rng.choice(d, rng.integers(1, d + 1), replace=False)
        )
        all_features = features.size == d
    return codes, n_bins.astype(np.int64), idx, g, h, features, all_features


SCAN_PARAMS = st.tuples(
    st.sampled_from([0.0, 1e-10, 0.1, 2.0]),      # reg_alpha
    st.sampled_from([0.0, 1.0, 3.0]),             # reg_lambda
    st.sampled_from([0.0, 1e-3, 2.0]),            # min_child_weight
    st.sampled_from([1, 2, 5]),                   # min_samples_leaf
)


class TestBuildHistsParity:
    @settings(max_examples=80, deadline=None)
    @given(case=node_cases(), need_cnt=st.booleans())
    def test_fuzz(self, case, need_cnt):
        codes, n_bins, idx, g, h, features, all_features = case
        nbmax = int(n_bins[features].max())
        a = fallback.build_hists(codes, g[idx], h[idx], idx, features,
                                 n_bins, nbmax, need_cnt,
                                 all_features=all_features)
        b = native().build_hists(codes, g[idx], h[idx], idx, features,
                                 n_bins, nbmax, need_cnt,
                                 all_features=all_features)
        assert_bits_equal(a, b)

    def test_large_node_branch(self):
        """Cross the fallback's 200k flat-bincount threshold: the numpy
        per-feature branch and the C loop must still agree bitwise."""
        rng = np.random.default_rng(0)
        n, d = 30_000, 7
        n_bins = np.full(d, 32, dtype=np.int64)
        codes = rng.integers(0, 32, (n, d)).astype(np.uint8)
        g = rng.standard_normal(n) * 1e6
        h = np.abs(rng.standard_normal(n))
        idx = np.arange(n)
        feats = np.arange(d)
        assert idx.size * d > 200_000
        a = fallback.build_hists(codes, g, h, idx, feats, n_bins, 32,
                                 True, all_features=True)
        b = native().build_hists(codes, g, h, idx, feats, n_bins, 32,
                                 True, all_features=True)
        assert_bits_equal(a, b)

    def test_overflowing_sums(self):
        """Sums that overflow to inf (and inf − inf = NaN downstream)
        must produce identical bit patterns."""
        n, d = 64, 2
        n_bins = np.array([3, 3], dtype=np.int64)
        codes = np.tile(np.array([[1, 2]], dtype=np.uint8), (n, 1))
        g = np.full(n, 1e308)
        g[::2] = -1e308
        h = np.full(n, 1e308)
        idx = np.arange(n)
        feats = np.arange(d)
        a = fallback.build_hists(codes, g, h, idx, feats, n_bins, 3,
                                 False, all_features=True)
        b = native().build_hists(codes, g, h, idx, feats, n_bins, 3,
                                 False, all_features=True)
        assert_bits_equal(a, b)


class TestBestSplitScanParity:
    @settings(max_examples=80, deadline=None)
    @given(case=node_cases(), params=SCAN_PARAMS)
    def test_fuzz(self, case, params):
        codes, n_bins, idx, g, h, features, all_features = case
        alpha, lam, mcw, msl = params
        nbf = n_bins[features]
        nbmax = int(nbf.max())
        if nbmax < 2:
            return  # growers never scan single-bin-only nodes
        gi, hi = g[idx], h[idx]
        G, H = float(gi.sum()), float(hi.sum())
        parent = soft_threshold(G, alpha) ** 2 / (H + lam)
        hists = fallback.build_hists(codes, gi, hi, idx, features, n_bins,
                                     nbmax, msl > 1,
                                     all_features=all_features)
        ra = fallback.best_split_scan(hists, nbf, idx.size, G, H, parent,
                                      mcw, alpha, lam, msl)
        rb = native().best_split_scan(hists, nbf, idx.size, G, H, parent,
                                      mcw, alpha, lam, msl)
        assert_result_equal(ra, rb)

    def test_nan_gain_cells_follow_numpy_argmax(self):
        """inf totals make inf − inf = NaN gains; numpy's argmax picks
        the FIRST NaN and the C scan must do the same."""
        n_bins = np.array([5, 5], dtype=np.int64)
        codes = np.repeat(
            np.array([[1, 1], [2, 2], [3, 3], [4, 4]], dtype=np.uint8),
            8, axis=0,
        )
        n = codes.shape[0]
        g = np.full(n, 1e308)
        h = np.full(n, 1.0)
        idx = np.arange(n)
        feats = np.arange(2)
        G, H = float(g.sum()), float(h.sum())
        parent = soft_threshold(G, 0.0) ** 2 / (H + 1.0)
        hists = fallback.build_hists(codes, g, h, idx, feats, n_bins, 5,
                                     False, all_features=True)
        ra = fallback.best_split_scan(hists, n_bins, n, G, H, parent,
                                      0.0, 0.0, 1.0, 1)
        rb = native().best_split_scan(hists, n_bins, n, G, H, parent,
                                      0.0, 0.0, 1.0, 1)
        assert_result_equal(ra, rb)

    def test_no_valid_split(self):
        """min_child_weight beyond every hessian sum: both sides must
        report 'no split'."""
        rng = np.random.default_rng(3)
        n_bins = np.array([8], dtype=np.int64)
        codes = rng.integers(0, 8, (40, 1)).astype(np.uint8)
        g = rng.standard_normal(40)
        h = np.full(40, 1e-6)
        idx = np.arange(40)
        feats = np.arange(1)
        G, H = float(g.sum()), float(h.sum())
        parent = soft_threshold(G, 0.0) ** 2 / (H + 1.0)
        hists = fallback.build_hists(codes, g, h, idx, feats, n_bins, 8,
                                     False, all_features=True)
        ra = fallback.best_split_scan(hists, n_bins, 40, G, H, parent,
                                      1e9, 0.0, 1.0, 1)
        rb = native().best_split_scan(hists, n_bins, 40, G, H, parent,
                                      1e9, 0.0, 1.0, 1)
        assert ra == rb == (0.0, -1, -1)


def random_picks(rng, counts):
    """A valid pick per feature with candidates, ``-1`` elsewhere."""
    picks = np.full(counts.size, -1, dtype=np.int64)
    has = counts > 0
    picks[has] = rng.integers(0, counts[has])
    return picks


class TestMaskedSplitScanParity:
    @settings(max_examples=80, deadline=None)
    @given(case=node_cases(), params=SCAN_PARAMS,
           pick_seed=st.integers(0, 2**32 - 1))
    def test_fuzz(self, case, params, pick_seed):
        codes, n_bins, idx, g, h, features, all_features = case
        alpha, lam, mcw, msl = params
        nbf = n_bins[features]
        nbmax = int(nbf.max())
        if nbmax < 2:
            return
        gi, hi = g[idx], h[idx]
        G, H = float(gi.sum()), float(hi.sum())
        parent = soft_threshold(G, alpha) ** 2 / (H + lam)
        hists = fallback.build_hists(codes, gi, hi, idx, features, n_bins,
                                     nbmax, msl > 1,
                                     all_features=all_features)
        ca = fallback.best_split_counts(hists, nbf, idx.size, H, mcw, msl)
        cb = native().best_split_counts(hists, nbf, idx.size, H, mcw, msl)
        assert ca.dtype == cb.dtype == np.int64
        assert np.array_equal(ca, cb)
        picks = random_picks(np.random.default_rng(pick_seed), ca)
        ra = fallback.best_split_scan(hists, nbf, idx.size, G, H, parent,
                                      mcw, alpha, lam, msl, picks=picks)
        rb = native().best_split_scan(hists, nbf, idx.size, G, H, parent,
                                      mcw, alpha, lam, msl, picks=picks)
        assert_result_equal(ra, rb)
        # the picked scan is the full scan masked to the picks
        if (picks >= 0).all() and (ca == 1).all():
            assert_result_equal(ra, fallback.best_split_scan(
                hists, nbf, idx.size, G, H, parent, mcw, alpha, lam, msl))


@st.composite
def class_node_cases(draw):
    """One classification node: joint histograms and class totals."""
    seed = draw(st.integers(0, 2**32 - 1))
    K = draw(st.sampled_from([2, 3, 8, 9, 12]))
    n = draw(st.integers(2, 150))
    F = draw(st.sampled_from([1, 1, 2, 4]))
    weighted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    n_bins = rng.integers(1, 20, size=F).astype(np.int64)
    if draw(st.booleans()):
        n_bins[rng.integers(0, F)] = 1  # a 1-bin feature
    n_bins[rng.integers(0, F)] = max(2, draw(st.sampled_from([2, 3, 19])))
    codes = np.stack(
        [rng.integers(0, b, size=n) for b in n_bins], axis=1
    ).astype(np.uint8)
    yk = rng.integers(0, K, size=n).astype(np.int64)
    w = rng.random(n) * 10.0 ** rng.integers(-3, 4) if weighted else None
    idx = np.arange(n)
    nbmax = int(n_bins.max())
    joint = fallback.build_class_hists(codes, yk, idx, w, np.arange(F), K,
                                       nbmax, all_features=True)
    total = np.bincount(yk, weights=w, minlength=K).astype(np.float64)
    return joint, total, n_bins, n, rng


class TestClassSplitScanParity:
    @settings(max_examples=150, deadline=None)
    @given(case=class_node_cases(), msl=st.sampled_from([1, 3]),
           with_picks=st.booleans())
    def test_fuzz_gini(self, case, msl, with_picks):
        joint, total, nbf, n, rng = case
        parent = float(fallback.impurity(total, "gini"))
        ca = fallback.class_split_counts(joint, nbf, n, msl)
        cb = native().class_split_counts(joint, nbf, n, msl)
        assert ca.dtype == cb.dtype == np.int64
        assert np.array_equal(ca, cb)
        picks = random_picks(rng, ca) if with_picks else None
        ra = fallback.class_split_scan(joint, total, nbf, n, parent, msl,
                                       "gini", picks=picks)
        rb = native().class_split_scan(joint, total, nbf, n, parent, msl,
                                       "gini", picks=picks)
        assert_result_equal(ra, rb)

    def test_single_cell_grid_sums_pairwise(self):
        """One feature with one threshold leaves the class axis as the
        only axis of numpy's reduce, which then sums pairwise — at
        K >= 8 that differs from the left-to-right sum of every other
        grid shape, and the C scan must follow."""
        nbf = np.array([2], dtype=np.int64)
        n = 10**9  # above every weighted count: the one cell is valid
        for seed in range(10):  # the two orders round apart on most
            rng = np.random.default_rng(seed)
            K = 12
            joint = rng.random((K, 1, 2)) * 10.0 ** rng.integers(
                -6, 6, (K, 1, 2))
            total = joint.sum(axis=(1, 2))
            parent = float(fallback.impurity(total, "gini"))
            for picks in (None, np.zeros(1, dtype=np.int64)):
                ra = fallback.class_split_scan(joint, total, nbf, n, parent,
                                               1, "gini", picks=picks)
                rb = native().class_split_scan(joint, total, nbf, n, parent,
                                               1, "gini", picks=picks)
                assert ra[1:] == (0, 0)
                assert_result_equal(ra, rb)

    def test_entropy_stays_on_the_reference(self, monkeypatch):
        joint = np.ones((3, 2, 4))
        total = joint.sum(axis=(1, 2))
        nbf = np.array([4, 4], dtype=np.int64)
        calls = []
        real = fallback.class_split_scan
        monkeypatch.setattr(fallback, "class_split_scan",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        parent = float(fallback.impurity(total, "entropy"))
        native().class_split_scan(joint, total, nbf, 8, parent, 1,
                                  "entropy")
        assert calls == [1]


class TestObliviousScorerParity:
    @settings(max_examples=50, deadline=None)
    @given(case=node_cases(), depth=st.integers(1, 4),
           lam=st.sampled_from([0.0, 1.0, 3.0]),
           mcw=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_level_by_level(self, case, depth, lam, mcw):
        codes, n_bins, _idx, g, h, features, _all = case
        cand = features
        if int(n_bins[cand].max()) < 2:
            return  # the grower returns a root-only tree before scoring
        sa = fallback.ObliviousLevelScorer(codes, cand, n_bins, g, h,
                                           mcw, lam)
        sb = native().ObliviousLevelScorer(codes, cand, n_bins, g, h,
                                           mcw, lam)
        node = np.zeros(codes.shape[0], dtype=np.int64)
        for lvl in range(depth):
            ra = sa.score_level(node, lvl)
            rb = sb.score_level(node, lvl)
            assert_result_equal(ra, rb)
            if ra[1] < 0:
                break
            f = int(cand[ra[1]])
            node |= (codes[:, f] > ra[2]).astype(np.int64) << lvl


class TestWholeGrowerParity:
    def _tree_arrays(self, tree):
        return (tree._feature, tree._threshold, tree._left, tree._right,
                tree._value)

    @pytest.mark.parametrize("kw", [
        {},
        {"leaf_wise": False, "max_depth": 4},
        {"min_samples_leaf": 4},
        {"colsample_bytree": 0.6},
        {"colsample_bylevel": 0.6},
        {"extra_random": True, "min_samples_leaf": 2},
        {"reg_alpha": 0.3, "reg_lambda": 0.0},
        {"hist_subtraction": False},
    ])
    def test_grad_tree_identical(self, kw):
        from repro.learners.tree import GradTreeGrower

        rng = np.random.default_rng(9)
        n, d = 400, 5
        X_bins = np.full(d, 17, dtype=np.int64)
        codes = rng.integers(0, 17, (n, d)).astype(np.uint8)
        g = rng.standard_normal(n)
        h = np.abs(rng.standard_normal(n)) + 0.1
        trees = {}
        for name, kernels in (("numpy", fallback), ("native", native())):
            grower = GradTreeGrower(
                max_leaves=16, rng=np.random.default_rng(0),
                kernels=kernels, **kw,
            )
            trees[name] = grower.grow(codes, g, h, X_bins)
        for a, b in zip(self._tree_arrays(trees["numpy"]),
                        self._tree_arrays(trees["native"])):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kw", [
        {},
        {"extra_random": True},
        {"extra_random": True, "min_samples_leaf": 3, "max_features": 0.6},
        {"criterion": "entropy", "extra_random": True},
    ])
    @pytest.mark.parametrize("n_classes", [2, 9])
    def test_class_tree_identical(self, kw, n_classes):
        from repro.learners.tree import ClassTreeGrower

        rng = np.random.default_rng(4)
        n, d = 400, 5
        n_bins = np.array([17, 2, 9, 1, 17], dtype=np.int64)
        codes = np.stack(
            [rng.integers(0, b, n) for b in n_bins], axis=1
        ).astype(np.uint8)
        y = rng.integers(0, n_classes, n)
        w = rng.random(n) + 0.5
        trees = {}
        for name, kernels in (("numpy", fallback), ("native", native())):
            grower = ClassTreeGrower(
                n_classes=n_classes, max_depth=8,
                rng=np.random.default_rng(0), kernels=kernels, **kw,
            )
            trees[name] = grower.grow(codes, y, n_bins, sample_weight=w)
        for a, b in zip(self._tree_arrays(trees["numpy"]),
                        self._tree_arrays(trees["native"])):
            np.testing.assert_array_equal(a, b)

    def test_forests_never_touch_the_fallback_scans(self, monkeypatch,
                                                    binary_split,
                                                    regression_split):
        """With native kernels on and uint8/uint16 codes, the default
        forest path (gini) runs no numpy split scan — extra-random mode
        included."""
        from repro.learners import (
            ExtraTreesClassifier,
            ExtraTreesRegressor,
            RandomForestClassifier,
            RandomForestRegressor,
        )

        def boom(*args, **kwargs):
            raise AssertionError("numpy fallback split scan on the "
                                 "native path")

        for name in ("best_split_scan", "best_split_counts",
                     "class_split_scan", "class_split_counts",
                     "build_hists", "build_class_hists"):
            monkeypatch.setattr(fallback, name, boom)
        prev = set_native_enabled(True)
        try:
            for max_bin in (64, 300):  # uint8 and uint16 codes
                Xtr, ytr, Xte, _ = binary_split
                for cls in (ExtraTreesClassifier, RandomForestClassifier):
                    m = cls(tree_num=3, max_bin=max_bin, seed=0).fit(Xtr, ytr)
                    assert m.predict(Xte).shape == (Xte.shape[0],)
                Xtr, ytr, Xte, _ = regression_split
                for cls in (ExtraTreesRegressor, RandomForestRegressor):
                    m = cls(tree_num=3, max_bin=max_bin, max_features=0.7,
                            min_samples_leaf=2, seed=0).fit(Xtr, ytr)
                    assert np.isfinite(m.predict(Xte)).all()
        finally:
            set_native_enabled(prev)

    def test_catboost_engine_identical(self, binary_split):
        from repro.learners import CatBoostLikeClassifier

        Xtr, ytr, Xte, _ = binary_split
        probas = {}
        for on in (False, True):
            prev = set_native_enabled(on)
            try:
                m = CatBoostLikeClassifier(
                    n_estimators=12, early_stop_rounds=12, seed=0
                ).fit(Xtr, ytr)
                probas[on] = m.predict_proba(Xte)
            finally:
                set_native_enabled(prev)
        assert np.array_equal(probas[False], probas[True])

    def test_wide_code_dtypes_route_to_fallback(self):
        """int32/int64 codes are legal on the public grower APIs; the C
        kernels cannot stride them, so the native wrappers must hand
        those inputs to the numpy reference instead of misreading the
        buffer (regression: silent wrong trees / OOB histogram writes)."""
        from repro.learners.tree import GradTreeGrower

        rng = np.random.default_rng(2)
        n, d = 200, 4
        n_bins = np.full(d, 11, dtype=np.int64)
        base = rng.integers(0, 11, (n, d))
        g = rng.standard_normal(n)
        h = np.abs(rng.standard_normal(n)) + 0.1
        ref = GradTreeGrower(max_leaves=8, kernels=fallback,
                             rng=np.random.default_rng(0)).grow(
            base.astype(np.uint8), g, h, n_bins)
        for dtype in (np.int32, np.int64, np.uint32):
            tree = GradTreeGrower(max_leaves=8, kernels=native(),
                                  rng=np.random.default_rng(0)).grow(
                base.astype(dtype), g, h, n_bins)
            np.testing.assert_array_equal(tree._value, ref._value)
            np.testing.assert_array_equal(tree._feature, ref._feature)
        # oblivious scorer factory: same routing
        scorer = native().ObliviousLevelScorer(
            base.astype(np.int64), np.arange(d), n_bins, g, h, 1e-3, 1.0)
        assert isinstance(scorer, fallback.ObliviousLevelScorer)

    def test_gbdt_engine_identical(self, regression_split):
        from repro.learners import LGBMLikeRegressor

        Xtr, ytr, Xte, _ = regression_split
        preds = {}
        for on in (False, True):
            prev = set_native_enabled(on)
            try:
                m = LGBMLikeRegressor(
                    tree_num=10, leaf_num=12, subsample=0.8, seed=0
                ).fit(Xtr, ytr)
                preds[on] = m.predict(Xte)
            finally:
                set_native_enabled(prev)
        assert np.array_equal(preds[False], preds[True])
