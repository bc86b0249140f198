import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genensemble.data import FeatureMatrix
from genensemble.metrics import DUAL_LOG_PROB, MEAN, MetricSpec, combine_predictions
from genensemble.predictors import (_KINDS, _KNN_CELLS, KINDS, PredictorSpec, _grow_tree,
                                    _sq_distances, _tree_predict_rows,
                                    parse_predictor, predict, predict_batch, train,
                                    train_forest_curve)
from genensemble.rng import child_rng


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
        assert predict(model, [1.49]) == 0.0
        assert predict(model, [1.51]) == 1.0

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
        # targets on a 1e-6 grid in [-1, 1], so squared spreads do not underflow
        base = np.asarray(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n,
                                             max_size=n))) * 1e-6
        a = data.draw(st.floats(1e-3, 1e3))
        b = data.draw(st.floats(-1e8, 1e8))
        y = a * base + b
        model = train(PredictorSpec("cart", "regression"), reg_matrix(x, y))
        assert np.max(np.abs(predict_batch(model, x) - y)) <= 1e-9 * np.max(np.abs(y))

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
        value = np.cumsum(y)[-1] / n
        targets = y - value
        impurity = np.cumsum(targets * targets)[-1] / n
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
        from genensemble import predictors
        monkeypatch.setattr(predictors, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(11)
        for trial in range(60):
            n, d = int(rng.integers(1, 70)), int(rng.integers(1, 5))
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
    return np.asarray(out)


class TestKnnReference:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), task=st.sampled_from(["regression", "classification"]))
    @pytest.mark.parametrize("one_row_blocks", [False, True])
    def test_batched_matches_per_row_loop_bytes(self, data, task, one_row_blocks):
        if one_row_blocks:
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
        tx, query = x[:n_train], x[n_train:]
        if data.draw(st.booleans()):
            tx = tx[rng.integers(0, n_train, size=n_train)]
            query = np.vstack([query, tx[:3]])
        if task == "regression":
            n_classes, ty = 0, rng.normal(size=n_train)
            fm = reg_matrix(tx, ty)
        else:
            n_classes = data.draw(st.integers(2, 5))
            ty = rng.integers(0, n_classes, size=n_train)
            fm = clf_matrix(tx, ty, n_classes)
        dist = np.asarray([((tx - row) ** 2).sum(axis=1) for row in query])
        assert _sq_distances(query, tx).tobytes() == dist.tobytes()
        got = predict_batch(train(PredictorSpec("knn", task, k=k), fm), query)
        want = _knn_reference(tx, ty, k, task, n_classes, query)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestKnn:
    def test_one_nn_at_training_point(self):
        x = np.array([[0.0], [1.0], [5.0]])
        y = np.array([3.0, 7.0, 9.0])
        model = train(PredictorSpec("knn", "regression", k=1), reg_matrix(x, y))
        assert predict(model, [1.0]) == 7.0

    def test_five_nn_class_frequencies(self):
        x = np.arange(5.0)[:, None]
        y = np.array([1, 1, 1, 0, 0])
        model = train(PredictorSpec("knn", "classification", k=5), clf_matrix(x, y))
        np.testing.assert_allclose(predict(model, [2.0]), [0.4, 0.6])

    def test_tie_break_lowest_row_index(self):
        x = np.array([[1.0], [-1.0], [1.0]])      # rows 0 and 2 tie at any query
        y = np.array([10.0, 20.0, 30.0])
        model = train(PredictorSpec("knn", "regression", k=1), reg_matrix(x, y))
        assert predict(model, [0.0]) == 10.0
        model2 = train(PredictorSpec("knn", "regression", k=2), reg_matrix(x, y))
        assert predict(model2, [1.0]) == 20.0     # ties at distance 0: rows 0 then 2

    def test_k_above_n_averages_all_rows(self):
        x = np.array([[0.0], [1.0], [2.0]])
        model = train(PredictorSpec("knn", "classification", k=5),
                      clf_matrix(x, np.array([0, 1, 1])))
        np.testing.assert_allclose(predict(model, [0.5]), [1 / 3, 2 / 3])


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
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
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
        bag_tree = bag.state[0]
        manual_preds = list(_tree_predict_rows(manual, grid))
        bag_preds = list(_tree_predict_rows(bag_tree, grid))
        assert manual_preds == bag_preds

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 1))
        y = rng.normal(size=20)
        fm = reg_matrix(x, y)
        a = train(PredictorSpec("bagged_trees", "regression", n_trees=5), fm, seed=9)
        b = train(PredictorSpec("bagged_trees", "regression", n_trees=5), fm, seed=9)
        grid = np.linspace(-2, 2, 30)[:, None]
        np.testing.assert_array_equal(predict_batch(a, grid), predict_batch(b, grid))


class TestForestCurve:
    def test_first_point_is_single_tree_score(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 1))
        y = np.sin(x[:, 0]) + rng.normal(scale=0.2, size=30)
        fm = reg_matrix(x, y)
        test = reg_matrix(rng.normal(size=(20, 1)), rng.normal(size=20))
        [curve] = train_forest_curve(fm, test, t_max=4, metrics=[MetricSpec("mse")], seed=5)
        model = train(PredictorSpec("bagged_trees", "regression", n_trees=1), fm, seed=5)
        single = np.mean((predict_batch(model, test.x) - test.y) ** 2)
        assert curve[1] == pytest.approx(single)

    @pytest.mark.parametrize("task, metric", [("regression", "mse"),
                                              ("classification", "brier_binary")])
    def test_matches_running_mean_of_per_row_tree_predictions(self, task, metric):
        from genensemble.metrics import score_predictions
        rng = np.random.default_rng(7)
        x, x_test = rng.normal(size=(25, 2)), rng.normal(size=(15, 2))
        if task == "regression":
            fm, test = reg_matrix(x, x[:, 0]), reg_matrix(x_test, x_test[:, 1])
        else:
            fm, test = clf_matrix(x, x[:, 0] > 0), clf_matrix(x_test, x_test[:, 1] > 0)
        t_max = 9
        [curve] = train_forest_curve(fm, test, t_max, [MetricSpec(metric)], seed=2)
        model = train(PredictorSpec("bagged_trees", task, n_trees=t_max), fm, seed=2)
        running = 0.0
        for t, tree in enumerate(model.state, start=1):
            running = running + _tree_predict_rows(tree, test.x)
            expected = score_predictions(running / t, test.y, MetricSpec(metric), task)
            assert curve[t] == expected.score

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_test_features_rejected(self, bad):
        fm = reg_matrix([[0.0], [1.0], [2.0], [3.0]], [0.0, 1.0, 2.0, 3.0])
        test = reg_matrix([[bad], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError, match="features must be finite"):
            train_forest_curve(fm, test, t_max=3, metrics=[MetricSpec("mse")], seed=0)

    def test_degenerate_bootstrap_flat_curve(self):
        fm = reg_matrix([[1.0]], [5.0])
        test = reg_matrix([[0.0], [2.0]], [5.0, 6.0])
        [curve] = train_forest_curve(fm, test, t_max=6, metrics=[MetricSpec("mse")], seed=0)
        assert len(set(curve.values())) == 1


# every kind on each task it supports
SPECS = [PredictorSpec(kind, task, k=2, n_trees=2, max_iter=20)
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
        assert PredictorSpec("cart", "regression", standardize=True).wants_standardize


CLASSIFIERS = [PredictorSpec("knn", "classification", k=1),
               PredictorSpec("knn", "classification", k=4),
               PredictorSpec("cart", "classification"),
               PredictorSpec("logistic", "classification", max_iter=50),
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
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
