import itertools
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from exact_bagged_nn import bagged_1nn_moments
from hypothesis import given, settings
from hypothesis import strategies as st

from genensemble import predictors
from genensemble.data import (FEATURE, NUMERIC, TARGET, Column, Dataset, FeatureMatrix, Schema,
                              encode)
from genensemble.metrics import (DUAL_LOG_PROB, MEAN, PROB_SUM_TOL,
                                 combine_predictions)
from genensemble.predictors import (_KINDS, _KNN_CELLS, KINDS, PredictorSpec, _candidates,
                                    _grow_tree, _tree_predict_rows, parse_predictor,
                                    predict_batch, train)
from genensemble.rng import child_rng


_BIG = np.finfo(np.float64).max
# targets at the float limit, beyond the squaring range, ordinary and subnormal
_EXTREME = [_BIG, -_BIG, _BIG / 3, -0.7 * _BIG, -3e307, 1e300, 1.0, 2.5, 0.0, 5e-324,
            -1e-320, -1e-300]


def reg_matrix(x, y):
    return FeatureMatrix(x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float),
                         task="regression")


def clf_matrix(x, y, n_classes=2):
    return FeatureMatrix(x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=int),
                         task="classification", n_classes=n_classes)


class TestCart:
    def test_interpolates_unique_rows(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert np.mean((predict_batch(model, x) - y) ** 2) == 0.0

    def test_interpolation_property_random(self):
        rng = np.random.default_rng(5)
        for trial in range(15):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=(n, int(rng.integers(1, 4))))
            y = rng.normal(size=n)
            model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
            assert np.allclose(predict_batch(model, x), y)

    def test_midpoint_threshold(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert model.state.feature[0] == 0
        assert model.state.threshold[0] == 1.5
        assert predict_batch(model, [[1.49]])[0] == 0.0
        assert predict_batch(model, [[1.51]])[0] == 1.0

    @pytest.mark.parametrize("below, above", [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
        (1e308, 1.5e308), (-1.5e308, -1e308)])
    def test_threshold_separates_values_whose_midpoint_rounds_away(self, below, above):
        x = np.array([[below], [above]])
        y = np.array([0.0, 1.0])
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert below <= model.state.threshold[0] < above
        assert list(predict_batch(model, x)) == [0.0, 1.0]

    def test_tie_breaks_to_lowest_feature(self):
        # second feature duplicates the first: both give identical splits
        base = np.array([0.0, 1.0, 2.0, 3.0])
        x = np.column_stack([base, base])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert model.state.feature[0] == 0

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_interpolates_at_any_target_scale_and_offset(self, data):
        # distinct values of the first feature leave every impure node a split
        # that strictly lowers the error (distinct rows alone do not: XOR)
        first = data.draw(st.lists(st.integers(-1000, 1000), min_size=2, max_size=25,
                                   unique=True))
        n, d = len(first), data.draw(st.integers(1, 3))
        rest = data.draw(st.lists(st.integers(-2, 2), min_size=n * (d - 1),
                                  max_size=n * (d - 1)))
        x = np.column_stack([first, np.reshape(rest, (n, d - 1))])
        # targets on a 1e-6 grid in [-1, 1], times a scale whose squares may
        # overflow or underflow
        base = np.asarray(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n,
                                             max_size=n))) * 1e-6
        a = data.draw(st.floats(1e-3, 1e3) |
                      st.sampled_from([1e-300, 1e-200, 1e160, 1e200, 1e300]))
        b = data.draw(st.floats(-1e8, 1e8))
        y = a * base + b
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert np.max(np.abs(predict_batch(model, x) - y)) <= 1e-9 * np.max(np.abs(y))

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300, 1e-200, 1e-300, 5e-324])
    def test_interpolates_huge_and_tiny_targets(self, scale):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = scale * np.array([0.0, 1.0, 2.0, 3.0])
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert list(predict_batch(model, x)) == list(y)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 1, 2, 0]])
    def test_interpolates_targets_at_the_float_limit(self, order):
        # y = [M, -M, M, -M]: centring M at a child mean of -M/3 overflowed,
        # and so did the prefix sum of a child [M, M]
        big = np.finfo(np.float64).max
        x = np.array(order, dtype=float)[:, None]
        y = np.array([big, -big, big, -big])
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert list(predict_batch(model, x)) == list(y)

    @pytest.mark.parametrize("x, y", [
        # the node [1, 5e-324, 5e-324] shares a band with the node holding M;
        # scaled by M's power of two its centred squares vanished
        ([2.0, 1.0, 0.0, 3.0, 4.0], [1.0, 5e-324, 5e-324, _BIG, -1e-320]),
        # [0, 5e-324] shares a band with ordinary targets, which kept it unscaled
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.5, 0.0, 5e-324]),
        # [-1e-300, 5e-324] shared a node with -1.26e308 and underflowed
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, -1e-300, 5e-324, -1.26e308, 2.5, -1e-300])],
        ids=["band", "ordinary", "underflow"])
    def test_interpolates_tiny_targets_beside_huge_ones(self, x, y):
        x, y = np.array(x)[:, None], np.array(y)
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert predict_batch(model, x).tobytes() == y.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_distinct_extreme_targets_interpolate_or_are_refused(self, data):
        y = np.array(data.draw(st.lists(st.sampled_from(_EXTREME), min_size=2,
                                        max_size=len(_EXTREME), unique=True)))
        x = np.array(data.draw(st.permutations(range(y.size))), dtype=float)[:, None]
        try:
            model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        except ValueError as exc:
            assert "mean of the regression targets overflows" in str(exc)
            return
        assert predict_batch(model, x).tobytes() == y.tobytes()

    def test_targets_whose_mean_overflows_rejected(self):
        big = np.finfo(np.float64).max
        with pytest.raises(ValueError, match="mean of the regression targets overflows"):
            train(PredictorSpec("cart", "regression"), reg_matrix([[0.0], [1.0]], [big, big]))

    def test_constant_features_give_leaf(self):
        x = np.ones((5, 2))
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert model.state.value == pytest.approx(3.0)

    def test_classification_gini_split_and_pure_leaves(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = train(PredictorSpec("cart", "classification"), clf_matrix(x, y))
        probs = predict_batch(model, x)
        np.testing.assert_array_equal(probs[:, 1], [0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)


def reference_tree(x, y, task, n_classes):
    """Recursive CART with the grower's arithmetic: a leaf value, or a tuple
    (feature, threshold, left subtree, right subtree)."""
    n = y.size
    if task == "regression":
        # the range rule: a node whose largest |target| lies outside
        # [2**-256, 2**256] splits on targets scaled into [0.5, 1)
        top = np.max(np.abs(y))
        shift = -np.frexp(top)[1] if top > 0 and not 2.0**-256 <= top <= 2.0**256 else 0
        scaled = np.ldexp(y, shift)
        value = np.cumsum(scaled)[-1] / n
        targets = scaled - value
        impurity = np.cumsum(targets * targets)[-1] / n
        value = np.ldexp(value, -shift)
    else:
        value = np.bincount(y, minlength=n_classes) / n
        impurity = 1.0 - np.sum(value ** 2)
        targets = y
    if np.all(y == y[0]):
        return value
    best, left_n = None, np.arange(1, n)
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs, ys = x[order, j], targets[order]
        if task == "regression":
            s1, s2 = np.cumsum(ys), np.cumsum(ys * ys)
            sse_left = s2[:-1] - s1[:-1] * s1[:-1] / left_n
            sse_right = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / (n - left_n)
            score = (sse_left + sse_right) / n
        else:
            counts = np.cumsum(np.eye(n_classes)[ys], axis=0)[:-1]
            right = counts[-1] + (ys[-1] == np.arange(n_classes)) - counts
            gini_left = 1.0 - np.sum((counts / left_n[:, None]) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right / (n - left_n)[:, None]) ** 2, axis=1)
            score = (left_n * gini_left + (n - left_n) * gini_right) / n
        score = np.where(xs[1:] > xs[:-1], score, np.inf)
        i = int(np.argmin(score))
        if np.isfinite(score[i]) and (best is None or score[i] < best[0]):
            midpoint = 0.5 * (xs[i] + xs[i + 1])
            best = (score[i], j, midpoint if xs[i] <= midpoint < xs[i + 1] else xs[i])
    if best is None or best[0] >= impurity:
        return value
    _, j, threshold = best
    mask = x[:, j] <= threshold
    return (j, threshold, reference_tree(x[mask], y[mask], task, n_classes),
            reference_tree(x[~mask], y[~mask], task, n_classes))


def reference_predict(reference, row):
    while isinstance(reference, tuple):
        feature, threshold, left, right = reference
        reference = left if row[feature] <= threshold else right
    return reference


def assert_same_tree(reference, tree, node=0):
    """Node by node in preorder, comparing thresholds and values bit for bit."""
    if not isinstance(reference, tuple):
        assert tree.feature[node] == -1
        assert np.asarray(reference).tobytes() == np.asarray(tree.value[node]).tobytes()
        return
    feature, threshold, left, right = reference
    assert tree.feature[node] == feature
    assert np.float64(threshold).tobytes() == tree.threshold[node].tobytes()
    assert_same_tree(left, tree, tree.left[node])
    assert_same_tree(right, tree, tree.right[node])


class TestCartReference:
    @pytest.mark.parametrize("block_cells", [4096, 0])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_matches_recursive_reference_bit_for_bit(self, task, block_cells,
                                                     monkeypatch):
        # block_cells 0 puts every level through the node-size bands
        monkeypatch.setattr(predictors, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(11)
        for trial in range(60):
            n, d = int(rng.integers(1, 70)), int(rng.integers(0, 5))
            x = rng.normal(size=(n, d))
            if trial % 3 == 1:            # integer features: many ties
                x = rng.integers(-3, 4, size=(n, d)).astype(float)
            if trial % 3 == 2:            # bootstrap duplicates
                x = x[rng.integers(0, n, size=n)]
            if task == "regression":
                y = np.round(rng.normal(size=n), trial % 4) * 10.0 ** rng.uniform(-3, 3)
                y = y + rng.choice([0.0, -1e3, 1e8])
                n_classes = 0
            else:
                n_classes = int(rng.integers(2, 10))
                y = rng.integers(0, n_classes, size=n)
            assert_same_tree(reference_tree(x, y, task, n_classes),
                             _grow_tree(x, y, task, n_classes))

    @pytest.mark.parametrize("block_cells", [4096, 0])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_extreme_features_match_reference_bit_for_bit(self, task, block_cells,
                                                          monkeypatch):
        # features drawn from chains of adjacent floats, whose midpoints can round
        # onto the upper value, and from near +-the largest float, whose midpoints
        # overflow; with few distinct values such splits recur below the root
        monkeypatch.setattr(predictors, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(12)
        big = np.finfo(float).max
        for _ in range(40):
            chains = []
            for start, toward in ((big, 0.0), (-big, 0.0), (1.0, 2.0), (0.0, 1.0),
                                  (-3.5, 0.0), (1e308, big)):
                chain = [start]
                for _ in range(int(rng.integers(2, 8))):
                    chain.append(np.nextafter(chain[-1], toward))
                chains.append(chain)
            values = np.concatenate(chains + [[1e308, -1e308]])
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 4))
            x = rng.choice(values, size=(n, d))
            if task == "regression":
                n_classes, y = 0, rng.normal(size=n)
            else:
                n_classes = int(rng.integers(2, 5))
                y = rng.integers(0, n_classes, size=n)
            with np.errstate(over="ignore"):      # the reference's own midpoints
                reference = reference_tree(x, y, task, n_classes)
            assert_same_tree(reference, _grow_tree(x, y, task, n_classes))


def _knn_reference(tx, ty, k, task, n_classes, x):
    """kNN one test row at a time: a stable argsort of the row's distances."""
    out = []
    for row in x:
        dist = ((tx - row) ** 2).sum(axis=1)
        nearest = np.argsort(dist, kind="stable")[:k]
        if task == "regression":
            out.append(ty[nearest].mean())
        else:
            out.append(np.bincount(ty[nearest], minlength=n_classes) / nearest.size)
    return np.asarray(out, dtype=np.float64).reshape(
        (len(x), n_classes) if task == "classification" else len(x))


def _assert_filter_sound(tx, k, query):
    """Every column within a row's k-th smallest per-row distance is a
    candidate, and each candidate's exact distance has the per-row bits."""
    dist = np.asarray([((tx - row) ** 2).sum(axis=1) for row in query]).reshape(len(query), len(tx))
    rows, cols, exact = _candidates(query, tx, min(k, tx.shape[0]))
    candidate = np.zeros(dist.shape, dtype=bool)
    candidate[rows, cols] = True
    kth = np.sort(dist, axis=1)[:, min(k, tx.shape[0]) - 1][:, None]
    assert candidate[dist <= kth].all()
    assert exact.tobytes() == dist[rows, cols].tobytes()
    return rows.size


def _knn_model(task, tx, ty, k, n_classes=0):
    fm = reg_matrix(tx, ty) if task == "regression" else clf_matrix(tx, ty, n_classes)
    return train(PredictorSpec("knn", task, k=k), fm)


class TestKnnReference:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), task=st.sampled_from(["regression", "classification"]))
    @pytest.mark.parametrize("wide", [False, True])
    def test_batched_matches_per_row_loop_bytes(self, data, task, wide):
        if wide:
            # d above numpy's 128-element pairwise block; n_train * d > _KNN_CELLS
            d = data.draw(st.integers(129, 200))
            n_train = _KNN_CELLS // d + data.draw(st.integers(1, 40))
        else:
            d = data.draw(st.integers(1, 40))
            n_train = data.draw(st.integers(1, 30))
        n = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, 40 if n_train <= 30 else 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # integer, rounded, thirds and standardised integer features, and
        # duplicated rows, make distance ties; thirds and standardised values
        # also make the sums round, so ties rest on the order of the additions
        style = data.draw(st.sampled_from(["integer", "rounded", "thirds", "standardised"]))
        if style == "rounded":
            x = np.round(rng.normal(size=(n_train + n, d)), data.draw(st.integers(0, 2)))
        else:
            x = rng.integers(-2, 3, size=(n_train + n, d)).astype(float)
        if style == "thirds":
            x = x / 3.0
        if style == "standardised":
            std = x.std(axis=0)
            x = np.where(std > 0, (x - x.mean(axis=0)) / np.where(std > 0, std, 1.0), 0.0)
        # an exact power-of-two scale: at 2**-520 the squares are subnormal,
        # at 2**500 the distances come within a few powers of two of overflow
        x = x * data.draw(st.sampled_from([1.0, 2.0 ** -520, 2.0 ** 500]))
        tx, query = x[:n_train], x[n_train:]
        if data.draw(st.booleans()):
            tx = tx[rng.integers(0, n_train, size=n_train)]
            query = np.vstack([query, tx[:3]])
        if task == "regression":
            n_classes, ty = 0, rng.normal(size=n_train)
        else:
            n_classes = data.draw(st.integers(2, 5))
            ty = rng.integers(0, n_classes, size=n_train)
        _assert_filter_sound(tx, k, query)
        got = predict_batch(_knn_model(task, tx, ty, k, n_classes), query)
        want = _knn_reference(tx, ty, k, task, n_classes, query)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), task=st.sampled_from(["regression", "classification"]),
           height=st.sampled_from(["empty", "one", "blocks"]))
    def test_row_blocks_match_per_row_loop_bytes(self, data, task, height):
        # 12 to 40 test rows per filter block; "blocks" spans 3 or 4 blocks,
        # the last one partial
        n_train = data.draw(st.integers(_KNN_CELLS // 40, _KNN_CELLS // 12))
        block = _KNN_CELLS // n_train
        n = {"empty": 0, "one": 1,
             "blocks": data.draw(st.integers(2, 3)) * block + data.draw(st.integers(1, block - 1))
             }[height]
        d = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # few distinct integer rows: many distance ties across the blocks
        x = rng.integers(-2, 3, size=(n_train + n, d)) / data.draw(st.sampled_from([1.0, 3.0]))
        tx, query = x[:n_train], x[n_train:]
        if task == "regression":
            n_classes, ty = 0, rng.normal(size=n_train)
        else:
            n_classes = data.draw(st.integers(2, 5))
            ty = rng.integers(0, n_classes, size=n_train)
        _assert_filter_sound(tx, k, query)
        got = predict_batch(_knn_model(task, tx, ty, k, n_classes), query)
        want = _knn_reference(tx, ty, k, task, n_classes, query)
        assert got.shape == want.shape and got.shape[0] == n
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_refine_in_several_chunks(self, task):
        # two distinct training rows: every row ties with half the others, so
        # each query has about 300 candidates of 150 features
        rng = np.random.default_rng(3)
        d, n_train, k = 150, 600, 5
        tx = rng.normal(size=(2, d))[rng.integers(0, 2, size=n_train)]
        query = rng.normal(size=(4, d))
        assert _assert_filter_sound(tx, k, query) * d > 2 * _KNN_CELLS
        ty = rng.normal(size=n_train) if task == "regression" else rng.integers(0, 3, n_train)
        got = predict_batch(_knn_model(task, tx, ty, k, 3), query)
        assert got.tobytes() == _knn_reference(tx, ty, k, task, 3, query).tobytes()

    def test_overflowing_candidate_distance_refused(self):
        # the nearest row is row 2; ranking the overflowed squares chose row 0
        model = _knn_model("regression", [[1e200], [-1e200], [3e200]], [1.0, 2.0, 3.0], 1)
        with pytest.raises(ValueError, match="squared distances between the features overflow"):
            predict_batch(model, [[2.9e200]])

    def test_overflow_outside_the_candidates_allowed(self):
        # (9e153 + 9e153) ** 2 overflows, but row 1 is no candidate
        model = _knn_model("regression", [[0.0], [-9e153]], [1.0, 2.0], 1)
        assert predict_batch(model, [[9e153]])[0] == 1.0

    @pytest.mark.parametrize("k, want", [(1, 1.0), (2, 1.5), (3, None)])
    def test_only_a_chosen_overflowing_distance_refused(self, k, want):
        # 1e155 ** 2 overflows, so every row is a candidate; only k = 3 chooses it
        model = _knn_model("regression", [[0.0], [1.0], [1e155]], [1.0, 2.0, 3.0], k)
        if want is None:
            with pytest.raises(ValueError, match="squared distances between the features"):
                predict_batch(model, [[0.0]])
        else:
            assert predict_batch(model, [[0.0]])[0] == want


def _knn_case(seed, n, n_train, d, k, task):
    """A kNN model on few distinct integer rows (many distance ties), its query
    rows and the per-row reference prediction."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(n_train + n, d)) / 3.0
    tx, query = x[:n_train], x[n_train:]
    n_classes = 0 if task == "regression" else 3
    ty = rng.normal(size=n_train) if task == "regression" else rng.integers(0, 3, n_train)
    return (_knn_model(task, tx, ty, k, n_classes), query,
            _knn_reference(tx, ty, k, task, n_classes, query))


def _assert_workspace_bounded():
    """The calling thread's kNN workspace, if it has one, is two buffers of
    at most _KNN_CELLS floats each."""
    buffers = getattr(predictors._KNN_WORKSPACE, "buffers", ())
    assert len(buffers) in (0, 2) and all(b.size <= _KNN_CELLS for b in buffers)
    return buffers


class TestKnnWorkspace:
    # (n, n_train, d, k, task): a call of several blocks, one of a single block,
    # one whose single block fills the budget, and one row wider than the budget
    SHAPES = [(300, 300, 8, 5, "regression"), (7, 1000, 3, 12, "classification"),
              (_KNN_CELLS // 256, 256, 2, 1, "regression"),
              (3, _KNN_CELLS + 3, 1, 4, "classification")]

    def test_threads_predict_at_once_with_their_own_buffers(self):
        cases = [_knn_case(seed, *shape) for seed, shape in enumerate(self.SHAPES)]
        start, results, buffers = threading.Barrier(len(cases)), {}, {}

        def work(i):
            model, query, _ = cases[i]
            start.wait()
            results[i] = [predict_batch(model, query) for _ in range(5)]
            buffers[i] = _assert_workspace_bounded()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)         # switch threads between numpy calls
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, (_, _, want) in enumerate(cases):
            assert all(got.tobytes() == want.tobytes() for got in results[i])
        # the wide row uses fresh arrays; each other thread allocated its own buffers
        assert buffers[3] == ()
        held = [id(b) for i in range(3) for b in buffers[i]]
        assert len(set(held)) == 6

    def test_reuse_after_a_change_of_shape_leaks_no_stale_values(self):
        model, query, want = _knn_case(0, *self.SHAPES[2])
        assert query.shape[0] * 256 == _KNN_CELLS
        assert predict_batch(model, query).tobytes() == want.tobytes()
        buffers = _assert_workspace_bounded()
        # a stale +inf filter value would drop a neighbour, a stale -inf bound all of them
        buffers[0].fill(np.inf)
        buffers[1].fill(-np.inf)
        model, query, want = _knn_case(1, 6, 40, 3, 4, "classification")
        assert predict_batch(model, query).tobytes() == want.tobytes()
        overflow = TestKnnReference()
        overflow.test_overflowing_candidate_distance_refused()
        overflow.test_overflow_outside_the_candidates_allowed()
        for k, want in [(1, 1.0), (2, 1.5), (3, None)]:
            overflow.test_only_a_chosen_overflowing_distance_refused(k, want)
        assert _assert_workspace_bounded() is buffers

    def test_row_wider_than_the_budget_uses_fresh_arrays(self):
        model, query, want = _knn_case(2, *self.SHAPES[3])
        _assert_workspace_bounded()
        assert predict_batch(model, query).tobytes() == want.tobytes()
        _assert_workspace_bounded()


class TestExactBaggedNearestNeighbour:
    @settings(max_examples=25, deadline=None)
    @given(xs=st.lists(st.integers(-8, 8), min_size=1, max_size=4, unique=True),
           ys=st.lists(st.floats(-100, 100), min_size=4, max_size=4),
           points=st.lists(st.integers(-10, 9), min_size=1, max_size=3))
    def test_every_bootstrap_tuple_matches_the_closed_form(self, xs, ys, points):
        # n distinct integer rows; a test point j + 1/4 is never equidistant
        # from two of them, nor on a CART midpoint
        n = len(xs)
        schema = Schema((Column("x", NUMERIC, FEATURE), Column("y", NUMERIC, TARGET)))
        real = np.column_stack([xs, ys[:n]]).astype(float)
        test = Dataset(schema, np.column_stack([np.add(points, 0.25), np.zeros(len(points))]))
        mu, v = bagged_1nn_moments(real[:, :1], real[:, 1], test.rows[:, :1], n)
        scale = 1.0 + np.abs(real[:, 1]).max()
        for spec in (PredictorSpec("knn", "regression", k=1), PredictorSpec("cart", "regression")):
            # every one of the n**n equally likely bootstrap index tuples, s = n
            preds = []
            for draw in itertools.product(range(n), repeat=n):
                ds = Dataset(schema, real[list(draw)])
                model = train(spec, encode(ds, ds, spec.wants_standardize))
                preds.append(predict_batch(model, encode(ds, test, spec.wants_standardize).x))
            preds = np.asarray(preds)
            np.testing.assert_allclose(preds.mean(axis=0), mu, rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(preds.var(axis=0), v, rtol=0, atol=1e-12 * scale ** 2)


class TestKnn:
    def test_one_nn_at_training_point(self):
        x = np.array([[0.0], [1.0], [5.0]])
        y = np.array([3.0, 7.0, 9.0])
        model = train(PredictorSpec("knn", "regression", k=1), reg_matrix(x, y))
        assert predict_batch(model, [[1.0]])[0] == 7.0

    def test_five_nn_class_frequencies(self):
        x = np.arange(5.0)[:, None]
        y = np.array([1, 1, 1, 0, 0])
        model = train(PredictorSpec("knn", "classification", k=5), clf_matrix(x, y))
        np.testing.assert_allclose(predict_batch(model, [[2.0]])[0], [0.4, 0.6])

    def test_tie_break_lowest_row_index(self):
        x = np.array([[1.0], [-1.0], [1.0]])      # rows 0 and 2 tie at any query
        y = np.array([10.0, 20.0, 30.0])
        model = train(PredictorSpec("knn", "regression", k=1), reg_matrix(x, y))
        assert predict_batch(model, [[0.0]])[0] == 10.0
        model2 = train(PredictorSpec("knn", "regression", k=2), reg_matrix(x, y))
        assert predict_batch(model2, [[1.0]])[0] == 20.0     # ties at distance 0: rows 0 then 2

    def test_k_above_n_averages_all_rows(self):
        x = np.array([[0.0], [1.0], [2.0]])
        model = train(PredictorSpec("knn", "classification", k=5),
                      clf_matrix(x, np.array([0, 1, 1])))
        np.testing.assert_allclose(predict_batch(model, [[0.5]])[0], [1 / 3, 2 / 3])

    def test_neighbour_mean_that_overflows_refused(self):
        # the targets' mean, 5.7e307, is finite; the two rows nearest 0.5 sum
        # past the float limit, and the mean came back inf
        fm = reg_matrix([[0.0], [5.0], [1.0]], [1.7e308, -1.7e308, 1.7e308])
        model = train(PredictorSpec("knn", "regression", k=2), fm)
        with pytest.raises(ValueError, match="mean of the neighbours' targets overflows"):
            predict_batch(model, [[0.5]])
        assert predict_batch(model, [[4.0]])[0] == 0.0

    def test_neighbour_sum_of_inf_and_minus_inf_refused_without_warning(self):
        # the targets' mean is 0; the 8 neighbours of 0 arrive as M, M, -M, -M, ...,
        # numpy's pairwise sum added inf to -inf, and a RuntimeWarning escaped
        big = 1.7e308
        fm = reg_matrix([[1.0], [3.0], [2.0], [4.0], [5.0], [7.0], [6.0], [8.0]], [big, -big] * 4)
        model = train(PredictorSpec("knn", "regression", k=8), fm)
        with pytest.raises(ValueError, match="mean of the neighbours' targets overflows"):
            predict_batch(model, [[0.0]])


class TestLinearModels:
    def test_ridge_zero_penalty_exact_line(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = train(PredictorSpec("ridge", "regression", lam=0.0), reg_matrix(x, y))
        coef, intercept = model.state
        assert abs(coef[0] - 2.0) < 1e-9
        assert abs(intercept) < 1e-9

    def test_linear_equals_ridge_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 2))
        y = x @ [1.0, -2.0] + 0.5 + rng.normal(scale=0.1, size=20)
        fm = reg_matrix(x, y)
        a = train(PredictorSpec("linear", "regression"), fm)
        b = train(PredictorSpec("ridge", "regression", lam=0.0), fm)
        np.testing.assert_allclose(a.state[0], b.state[0], atol=1e-8)

    def test_ridge_shrinks(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        big = train(PredictorSpec("ridge", "regression", lam=100.0), reg_matrix(x, y))
        assert abs(big.state[0][0]) < 2.0


class TestLogistic:
    def test_separable_data_full_accuracy_finite_coefficients(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = train(PredictorSpec("logistic", "classification", lam=1.0),
                      clf_matrix(x, y))
        probs = predict_batch(model, x)
        assert np.all(np.argmax(probs, axis=1) == y)
        assert np.all(np.isfinite(model.state[0]))

    def test_single_observed_class_is_degenerate_not_error(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([1, 1])
        model = train(PredictorSpec("logistic", "classification"), clf_matrix(x, y))
        probs = predict_batch(model, x)
        assert np.all(probs[:, 1] > 0.5)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        y = (x[:, 0] > 0).astype(int)
        model = train(PredictorSpec("logistic", "classification"), clf_matrix(x, y))
        probs = predict_batch(model, rng.normal(size=(10, 2)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=PROB_SUM_TOL)
        assert np.all(probs >= 0)


class TestBaggedTrees:
    def test_single_tree_matches_manual_bootstrap(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        fm = reg_matrix(x, y)
        seed = 77
        bag = train(PredictorSpec("bagged_trees", "regression", n_trees=1), fm, seed)
        idx = child_rng(seed, "tree", 0).integers(0, 25, size=25)
        manual = _grow_tree(x[idx], y[idx], "regression", 0)
        grid = rng.normal(size=(40, 2))
        manual_preds = list(_tree_predict_rows(manual, grid)[0])
        bag_preds = list(_tree_predict_rows(bag.state, grid)[0])
        assert manual_preds == bag_preds

    @pytest.mark.parametrize("block_cells", [4096, 0])
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_forest_is_the_trees_grown_on_their_draws(self, task, block_cells, data):
        # tree t is the reference CART on draw t's rows, and the forest predicts
        # the mean of its trees' predictions, or refuses a mean that overflows
        n, d = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
        n_trees, seed = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 2**32 - 1))
        x = np.reshape(data.draw(st.lists(st.integers(-2, 2), min_size=n * d,
                                          max_size=n * d)), (n, d)).astype(float)
        if task == "regression":
            y = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
            extreme = data.draw(st.lists(st.sampled_from(_EXTREME), max_size=n))
            y[:len(extreme)] = extreme
            fm, n_classes = reg_matrix(x, y), 0
        else:
            n_classes = data.draw(st.integers(2, 4))
            y = np.array(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                                            max_size=n)))
            fm = clf_matrix(x, y, n_classes)
        with mock.patch.object(predictors, "_BLOCK_CELLS", block_cells):
            try:
                model = train(PredictorSpec("bagged_trees", task, n_trees=n_trees), fm, seed)
            except ValueError as exc:
                assert "mean of the regression targets overflows" in str(exc)
                return
        grid = np.vstack([x, x + 0.5])
        refs = []
        for t in range(n_trees):
            idx = child_rng(seed, "tree", t).integers(0, n, size=n)
            refs.append(reference_tree(x[idx], y[idx], task, n_classes))
            assert_same_tree(refs[-1], model.state, node=t)
        with np.errstate(over="ignore"):
            expected = np.asarray([[reference_predict(ref, row) for row in grid]
                                   for ref in refs]).mean(axis=0)
        if np.isfinite(expected).all():
            assert predict_batch(model, grid).tobytes() == expected.tobytes()
        else:
            with pytest.raises(ValueError, match="mean of the trees' predictions overflows"):
                predict_batch(model, grid)

    def test_forest_mean_that_overflows_is_refused(self):
        big = np.finfo(np.float64).max
        fm = reg_matrix([[0.0], [1.0], [2.0]], [big, -big, 0.0])
        cart = train(PredictorSpec("cart", "regression"), fm)
        assert list(predict_batch(cart, fm.x)) == [big, -big, 0.0]
        for n_trees in (2, 10):
            bag = train(PredictorSpec("bagged_trees", "regression", n_trees=n_trees), fm, 0)
            with pytest.raises(ValueError, match="mean of the trees' predictions overflows"):
                predict_batch(bag, fm.x)

    def test_forest_sum_of_inf_and_minus_inf_refused_without_warning(self):
        # over one test row the trees' sum is pairwise: at seed 32 the 8 trees
        # predict M, M, -M, M, -M, -M, M, M, and a RuntimeWarning escaped
        big = 1.7e308
        fm = reg_matrix([[0.0], [2.0], [1.0], [3.0]], [big, -big, big, -big])
        bag = train(PredictorSpec("bagged_trees", "regression", n_trees=8), fm, 32)
        with pytest.raises(ValueError, match="mean of the trees' predictions overflows"):
            predict_batch(bag, [[0.4]])

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 1))
        y = rng.normal(size=20)
        fm = reg_matrix(x, y)
        a = train(PredictorSpec("bagged_trees", "regression", n_trees=5), fm, seed=9)
        b = train(PredictorSpec("bagged_trees", "regression", n_trees=5), fm, seed=9)
        grid = np.linspace(-2, 2, 30)[:, None]
        np.testing.assert_array_equal(predict_batch(a, grid), predict_batch(b, grid))


# every kind on each task it supports
SPECS = [PredictorSpec(kind, task, k=2, n_trees=2)
         for kind, (_, _, tasks) in _KINDS.items() for task in tasks]


class TestContracts:
    def test_fingerprint_mismatch_rejected(self):
        model = train(PredictorSpec("cart", "regression"),
                      reg_matrix([[1.0], [2.0]], [1.0, 2.0]))
        with pytest.raises(ValueError, match="fingerprint"):
            predict_batch(model, np.zeros((1, 3)))

    def test_task_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train(PredictorSpec("ridge", "regression"),
                  clf_matrix([[1.0]], [0]))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            train(PredictorSpec("cart", "regression"),
                  reg_matrix(np.zeros((0, 1)), np.zeros(0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x = np.array([[0.0], [1.0], [2.0]])
        x_bad = x.copy()
        x_bad[1, 0] = bad
        for spec in SPECS:
            matrix = reg_matrix if spec.task == "regression" else clf_matrix
            with pytest.raises(ValueError, match="finite"):
                train(spec, matrix(x_bad, [0, 1, 1]))
            model = train(spec, matrix(x, [0, 1, 1]))
            with pytest.raises(ValueError, match="finite"):
                predict_batch(model, x_bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_regression_targets_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            train(PredictorSpec("knn", "regression"),
                  reg_matrix([[0.0], [1.0]], [1.0, bad]))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.task}")
    def test_empty_block_shape(self, spec):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        if spec.task == "regression":
            model, shape = train(spec, reg_matrix(x, [0.5, 1.5, 2.5])), (0,)
        else:
            model, shape = train(spec, clf_matrix(x, [0, 2, 1], n_classes=3)), (0, 3)
        assert predict_batch(model, np.zeros((0, 2))).shape == shape

    def test_parse_predictor(self):
        spec = parse_predictor("knn:5", "classification")
        assert spec.kind == "knn" and spec.k == 5
        assert parse_predictor("ridge:0.5", "regression").lam == 0.5
        assert parse_predictor("cart", "regression").kind == "cart"
        with pytest.raises(ValueError):
            parse_predictor("mystery", "regression")

    @pytest.mark.parametrize("text, message", [
        ("knn:x", "knn:x: k must be an integer"),
        ("bagged_trees:2.5", "bagged_trees:2.5: n_trees must be an integer"),
        ("ridge:abc", "ridge:abc: lam must be a number"),
        ("cart:5", "cart:5: cart takes no argument"),
        ("mean:abc", "mean:abc: mean takes no argument"),
        ("knn:0", "knn:0: k must be >= 1"),
        ("bagged_trees:0", "bagged_trees:0: n_trees must be >= 1"),
        ("ridge:nan", "ridge:nan: lam must be finite and >= 0"),
        ("ridge:inf", "ridge:inf: lam must be finite and >= 0"),
        ("ridge:-1", "ridge:-1: lam must be finite and >= 0"),
        ("logistic", "logistic: logistic supports classification only"),
    ])
    def test_parse_predictor_names_spec_and_option(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_predictor(text, "regression")

    def test_task_the_kind_does_not_support_rejected(self):
        for text in ("ridge:1.0", "linear"):
            with pytest.raises(ValueError, match=f"^{text}: .* supports regression only$"):
                parse_predictor(text, "classification")

    @given(kind=st.sampled_from(KINDS), task=st.sampled_from(["regression", "classification"]),
           arg=st.one_of(st.integers(-2, 12).map(str), st.floats().map(repr),
                         st.text(max_size=4)))
    def test_parse_predictor_property(self, kind, task, arg):
        text = f"{kind}:{arg}"
        option, _, tasks = _KINDS[kind]
        try:
            spec = parse_predictor(text, task)
        except ValueError as exc:
            assert str(exc).startswith(text.strip() + ": ")
            return
        assert spec.kind == kind and spec.task == task and task in tasks
        if arg.strip():
            assert getattr(spec, option) == type(getattr(PredictorSpec, option))(arg)

    def test_labels(self):
        labels = [parse_predictor(text, "classification").label
                  for text in ("logistic", "logistic:0.01", "logistic:100", "knn:5",
                               "bagged_trees", "cart")]
        assert labels == ["logistic1", "logistic0.01", "logistic100", "knn5", "bagged10",
                          "cart"]
        assert PredictorSpec("bagged_trees", "regression").n_trees == 10

    def test_standardize_defaults(self):
        assert not PredictorSpec("cart", "regression").wants_standardize
        assert not PredictorSpec("bagged_trees", "regression").wants_standardize
        assert PredictorSpec("knn", "regression").wants_standardize
        assert PredictorSpec("ridge", "regression").wants_standardize


CLASSIFIERS = [PredictorSpec("knn", "classification", k=1),
               PredictorSpec("knn", "classification", k=4),
               PredictorSpec("cart", "classification"),
               PredictorSpec("logistic", "classification"),
               PredictorSpec("bagged_trees", "classification", n_trees=3),
               PredictorSpec("mean", "classification")]


@st.composite
def small_classification(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 2))
    n_classes = draw(st.integers(2, 3))
    # a coarse grid of feature values makes distance and split ties common
    x = draw(st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d))
    y = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    return clf_matrix(np.reshape(x, (n, d)), y, n_classes)


class TestProbabilityContract:
    @settings(max_examples=50, deadline=None)
    @given(data=small_classification(),
           spec=st.sampled_from(CLASSIFIERS),
           averaging=st.sampled_from([MEAN, DUAL_LOG_PROB]))
    def test_ensemble_rows_are_distributions(self, data, spec, averaging):
        reversed_data = clf_matrix(data.x[::-1], data.y[::-1], data.n_classes)
        query = np.vstack([data.x, np.full((1, data.d), 0.5)])
        members = np.asarray([predict_batch(train(spec, fm, seed), query)
                              for seed, fm in enumerate((data, reversed_data))])
        for probs in (*members, combine_predictions(members, averaging)):
            assert probs.shape == (query.shape[0], data.n_classes)
            assert np.all(probs >= 0)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=PROB_SUM_TOL)
