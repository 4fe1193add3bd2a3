"""Tests for the histogram tree growers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learners.histogram import Binner
from repro.learners.tree import ClassTreeGrower, GradTreeGrower, Tree


def _binned(X, max_bins=32):
    b = Binner(max_bins=max_bins)
    return b.fit_transform(X), b.n_bins_


class TestTreeStructure:
    def test_single_leaf_predicts_root_value(self):
        t = Tree()
        t.add_node(np.array([2.5]))
        t.freeze()
        codes = np.zeros((5, 2), dtype=np.uint8)
        assert np.allclose(t.predict(codes), 2.5)

    def test_manual_split_routing(self):
        t = Tree()
        root = t.add_node(0.0)
        left = t.add_node(-1.0)
        right = t.add_node(1.0)
        t.set_split(root, feature=0, threshold=3, left=left, right=right)
        t.freeze()
        codes = np.array([[1, 0], [3, 0], [4, 0], [9, 0]], dtype=np.uint8)
        assert np.allclose(t.predict(codes), [-1, -1, 1, 1])

    def test_n_leaves_counts(self):
        t = Tree()
        root = t.add_node(0.0)
        l, r = t.add_node(1.0), t.add_node(2.0)
        t.set_split(root, 0, 1, l, r)
        assert t.n_leaves == 2
        assert t.n_nodes == 3

    def test_unfrozen_tree_autofreezes_on_predict(self):
        # hand-built trees used to die with a bare AttributeError when
        # predict was called before freeze()
        t = Tree()
        root = t.add_node(0.0)
        l, r = t.add_node(-1.0), t.add_node(1.0)
        t.set_split(root, 0, 1, l, r)
        codes = np.array([[0, 0], [3, 0]], dtype=np.uint8)
        assert np.allclose(t.predict(codes), [-1.0, 1.0])
        assert hasattr(t, "_feature")  # frozen as a side effect

    def test_empty_tree_predict_is_actionable_error(self):
        t = Tree()
        with pytest.raises(RuntimeError, match="empty Tree"):
            t.predict(np.zeros((2, 1), dtype=np.uint8))
        with pytest.raises(RuntimeError, match="add_node"):
            t.predict_leaf(np.zeros((2, 1), dtype=np.uint8))


class TestGradTreeGrower:
    def test_perfect_split_on_step_function(self):
        X = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(np.float64)
        codes, n_bins = _binned(X)
        # squared loss at score 0: grad = -y, hess = 1
        tree = GradTreeGrower(max_leaves=2, reg_lambda=1e-9).grow(
            codes, -y, np.ones_like(y), n_bins
        )
        pred = tree.predict(codes)
        assert np.allclose(pred[X[:, 0] <= 0.5], 0.0, atol=1e-6)
        assert np.allclose(pred[X[:, 0] > 0.5], 1.0, atol=1e-6)

    def test_max_leaves_respected(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((300, 4))
        y = rng.standard_normal(300)
        codes, n_bins = _binned(X)
        for ml in (2, 5, 17):
            tree = GradTreeGrower(max_leaves=ml).grow(
                codes, y, np.ones_like(y), n_bins
            )
            assert tree.n_leaves <= ml

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((500, 3))
        y = rng.standard_normal(500)
        codes, n_bins = _binned(X)
        tree = GradTreeGrower(max_leaves=512, max_depth=2, leaf_wise=False).grow(
            codes, y, np.ones_like(y), n_bins
        )
        # depth-2 tree has at most 4 leaves
        assert tree.n_leaves <= 4

    def test_min_child_weight_blocks_splits(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.arange(10, dtype=float)
        codes, n_bins = _binned(X)
        tree = GradTreeGrower(max_leaves=32, min_child_weight=100.0).grow(
            codes, -y, np.ones_like(y), n_bins
        )
        assert tree.n_leaves == 1  # no split satisfies hessian constraint

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((100, 2))
        y = rng.standard_normal(100)
        codes, n_bins = _binned(X)
        tree = GradTreeGrower(max_leaves=64, min_samples_leaf=20).grow(
            codes, y, np.ones_like(y), n_bins
        )
        leaf_ids = tree.predict_leaf(codes)
        _, counts = np.unique(leaf_ids, return_counts=True)
        assert counts.min() >= 20

    def test_reg_lambda_shrinks_leaf_values(self):
        X = np.ones((50, 1))
        y = np.full(50, 4.0)
        codes, n_bins = _binned(X)
        small = GradTreeGrower(reg_lambda=1e-9).grow(codes, -y, np.ones_like(y), n_bins)
        big = GradTreeGrower(reg_lambda=1000.0).grow(codes, -y, np.ones_like(y), n_bins)
        assert abs(big.predict(codes)[0]) < abs(small.predict(codes)[0])

    def test_leafwise_prefers_high_gain_regions(self):
        """Leaf-wise growth with a tight budget should still cut the dominant
        structure (feature 0) rather than noise features."""
        rng = np.random.default_rng(3)
        X = rng.standard_normal((800, 5))
        y = 10.0 * (X[:, 0] > 0) + 0.01 * rng.standard_normal(800)
        codes, n_bins = _binned(X)
        tree = GradTreeGrower(max_leaves=2).grow(codes, -y, np.ones_like(y), n_bins)
        assert tree.feature[0] == 0

    def test_extra_random_still_reduces_error(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((400, 3))
        y = (X[:, 1] > 0).astype(np.float64) * 5
        codes, n_bins = _binned(X)
        tree = GradTreeGrower(max_leaves=16, extra_random=True, rng=rng).grow(
            codes, -y, np.ones_like(y), n_bins
        )
        mse = np.mean((tree.predict(codes) - y) ** 2)
        assert mse < np.var(y)

    def test_invalid_max_leaves(self):
        with pytest.raises(ValueError):
            GradTreeGrower(max_leaves=1)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_property_training_mse_no_worse_than_constant(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((120, 3))
        y = rng.standard_normal(120)
        codes, n_bins = _binned(X)
        tree = GradTreeGrower(max_leaves=8, reg_lambda=1e-9).grow(
            codes, -(y - y.mean()), np.ones_like(y), n_bins
        )
        pred = y.mean() + tree.predict(codes)
        assert np.mean((pred - y) ** 2) <= np.var(y) + 1e-9


class TestClassTreeGrower:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_pure_split(self, criterion):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.6).astype(np.int64)
        codes, n_bins = _binned(X, max_bins=255)  # one bin per unique value
        tree = ClassTreeGrower(n_classes=2, criterion=criterion).grow(codes, y, n_bins)
        proba = tree.predict(codes)
        assert ((proba.argmax(axis=1) == y)).all()

    def test_leaf_probabilities_valid(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 4))
        y = rng.integers(0, 3, 200)
        codes, n_bins = _binned(X)
        tree = ClassTreeGrower(n_classes=3, max_depth=4).grow(codes, y, n_bins)
        proba = tree.predict(codes)
        assert proba.shape == (200, 3)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_max_depth(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((300, 3))
        y = rng.integers(0, 2, 300)
        codes, n_bins = _binned(X)
        tree = ClassTreeGrower(n_classes=2, max_depth=1).grow(codes, y, n_bins)
        assert tree.n_leaves <= 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ClassTreeGrower(n_classes=2, criterion="mse")
        with pytest.raises(ValueError):
            ClassTreeGrower(n_classes=1)

    def test_pure_node_not_split(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.zeros(20, dtype=np.int64)
        y[:10] = 1
        codes, n_bins = _binned(X)
        tree = ClassTreeGrower(n_classes=2).grow(codes, y, n_bins)
        # After separating the two pure halves there is nothing left to split.
        assert tree.n_leaves == 2


class TestExtraRandomDraw:
    """The extra-random growers draw every feature's threshold pick with
    one ``rng.integers(0, counts[counts > 0])`` call.  Trees (and the
    golden trial errors) stay bit-identical to the historical
    ``rng.choice(candidates)`` per feature only while numpy keeps the
    two draws equal — pinned here, so a numpy that breaks it fails this
    test rather than the goldens."""

    @pytest.mark.parametrize("seed", range(6))
    def test_one_call_matches_per_feature_choice(self, seed):
        from repro.learners.tree import _draw_picks

        shape = np.random.default_rng(100 + seed)
        counts = shape.integers(0, 600, size=40)
        counts[::5] = 0      # features without candidates are skipped
        counts[1::7] = 1     # a single candidate draws nothing
        counts[2::9] = 256   # ranges past 255
        counts[3] = 70_000   # and past 65535
        per_feature = np.random.default_rng(seed)
        one_call = np.random.default_rng(seed)
        expected = [
            int(per_feature.choice(np.arange(c))) for c in counts if c > 0
        ]
        picks = _draw_picks(one_call, counts)
        assert picks[counts > 0].tolist() == expected
        assert (picks[counts == 0] == -1).all()
        assert one_call.bit_generator.state == per_feature.bit_generator.state

    def test_no_candidates_draws_nothing(self):
        from repro.learners.tree import _draw_picks

        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert _draw_picks(rng, np.zeros(5, dtype=np.int64)) is None
        assert rng.bit_generator.state == state
