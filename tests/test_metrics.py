import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from genensemble.bregman import DomainError
from genensemble.data import FeatureMatrix
from genensemble.metrics import (DUAL_LOG_PROB, EnsemblePredictor, MetricSpec, _auc,
                                 _midranks, clamp_probs, combine_predictions, ensemble_predict,
                                 evaluate, read_long_csv, score_predictions,
                                 write_long_csv)
from genensemble.predictors import PredictorSpec, train


def stack(*vectors):
    return np.asarray(vectors, dtype=float)[:, None, :]


class TestCombination:
    def test_mean_of_probability_vectors(self):
        out = combine_predictions(stack([0.8, 0.2], [0.6, 0.4]), "mean")
        np.testing.assert_allclose(out[0], [0.7, 0.3])

    def test_dual_log_prob_is_normalized_geometric_mean(self):
        out = combine_predictions(stack([0.9, 0.1], [0.5, 0.5]), "dual_log_prob")
        np.testing.assert_allclose(out[0], [0.75, 0.25], atol=1e-12)

    def test_single_member_identity(self):
        single = stack([0.3, 0.7])
        np.testing.assert_allclose(combine_predictions(single, "mean")[0], [0.3, 0.7])
        np.testing.assert_allclose(combine_predictions(single, "dual_log_prob")[0],
                                   [0.3, 0.7], atol=1e-12)

    def test_dual_log_prob_regression_rejected(self):
        fm = FeatureMatrix(x=np.array([[1.0], [2.0]]), y=np.array([1.0, 2.0]),
                           task="regression")
        model = train(PredictorSpec("mean", "regression"), fm)
        with pytest.raises(ValueError, match="classification"):
            EnsemblePredictor(members=(model,), averaging="dual_log_prob")

    def test_hard_zero_probabilities_are_clamped(self):
        out = combine_predictions(stack([1.0, 0.0], [0.0, 1.0]), "dual_log_prob")
        np.testing.assert_allclose(out[0], [0.5, 0.5])
        assert np.all(np.isfinite(out))


def _dual_log_prob_reference(member_preds):
    """Log-probability averaging as combine_predictions computed it inline
    before it called bregman.dual_average: floor at 1e-12, renormalize, mean
    of the logs, softmax."""
    p = np.clip(np.asarray(member_preds, dtype=np.float64), 1e-12, None)
    p = p / p.sum(axis=-1, keepdims=True)
    mean_log = np.log(p).mean(axis=0)
    e = np.exp(mean_log - mean_log.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _probability_rows(k):
    """Rows on the K-simplex: normalized weights, hard 0/1 rows and the
    neighbour-count fractions a kNN classifier emits."""
    weights = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(
        lambda w: sum(w) > 0).map(lambda w: np.asarray(w) / np.sum(w))
    hard = st.integers(0, k - 1).map(lambda c: np.eye(k)[c])
    counts = st.lists(st.integers(0, k - 1), min_size=1, max_size=10).map(
        lambda labels: np.bincount(labels, minlength=k) / len(labels))
    return st.one_of(weights, hard, counts)


@st.composite
def member_stacks(draw):
    """An (m, n, K) stack of member probability rows, K 2-6 and m 1-16."""
    k, m, n = draw(st.integers(2, 6)), draw(st.integers(1, 16)), draw(st.integers(1, 4))
    rows = draw(st.lists(_probability_rows(k), min_size=m * n, max_size=m * n))
    return np.reshape(rows, (m, n, k))


class TestDualLogProbProperty:
    @settings(max_examples=200, deadline=None)
    @given(member_stacks())
    def test_bytes_match_inline_reference(self, stack):
        out = combine_predictions(stack, DUAL_LOG_PROB)
        assert out.tobytes() == _dual_log_prob_reference(stack).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(member_stacks(), st.data())
    def test_off_simplex_member_rejected(self, stack, data):
        bad = stack.copy()
        i, j = (data.draw(st.integers(0, size - 1)) for size in stack.shape[:2])
        if data.draw(st.booleans()):
            bad[i, j] *= data.draw(st.floats(1.01, 3.0))
        else:
            bad[i, j, data.draw(st.integers(0, stack.shape[2] - 1))] = -0.1
        with pytest.raises(DomainError):
            combine_predictions(bad, DUAL_LOG_PROB)


class TestMetricValues:
    def test_mse(self):
        res = score_predictions(np.array([3.0, 1.0]), np.array([1.0, 1.0]),
                                MetricSpec("mse"), "regression")
        assert res.score == 2.0
        np.testing.assert_array_equal(res.per_point, [4.0, 0.0])

    def test_brier_binary_and_multiclass(self):
        preds = np.array([[0.25, 0.75]])
        y = np.array([1])
        binary = score_predictions(preds, y, MetricSpec("brier_binary"), "classification")
        multi = score_predictions(preds, y, MetricSpec("brier_multiclass"),
                                  "classification")
        assert binary.score == pytest.approx(0.0625)
        assert multi.score == pytest.approx(0.125)

    def test_brier_factor_two_elementwise(self):
        rng = np.random.default_rng(0)
        raw = rng.random((50, 2))
        preds = raw / raw.sum(axis=1, keepdims=True)
        y = rng.integers(0, 2, size=50)
        b = score_predictions(preds, y, MetricSpec("brier_binary"), "classification")
        m = score_predictions(preds, y, MetricSpec("brier_multiclass"), "classification")
        np.testing.assert_allclose(m.per_point, 2.0 * b.per_point, atol=1e-12)

    def test_cross_entropy(self):
        res = score_predictions(np.array([[0.5, 0.5]]), np.array([0]),
                                MetricSpec("cross_entropy"), "classification")
        assert res.score == pytest.approx(math.log(2.0), abs=1e-12)

    def test_cross_entropy_clamp_keeps_hard_zeros_finite(self):
        res = score_predictions(np.array([[1.0, 0.0]]), np.array([1]),
                                MetricSpec("cross_entropy"), "classification")
        assert np.isfinite(res.score)
        assert res.score == pytest.approx(-math.log(1e-12), rel=1e-6)

    def test_accuracy_tie_goes_to_lowest_class(self):
        res = score_predictions(np.array([[0.5, 0.5]]), np.array([0]),
                                MetricSpec("one_minus_accuracy"), "classification")
        assert res.score == 0.0

    def test_task_compatibility(self):
        with pytest.raises(ValueError, match="incompatible"):
            score_predictions(np.array([1.0]), np.array([1.0]),
                              MetricSpec("brier_binary"), "regression")

    @pytest.mark.parametrize("preds, task, kind", [
        (np.empty(0), "regression", "mse"),
        (np.empty((0, 2)), "classification", "cross_entropy"),
        (np.empty((0, 2)), "classification", "one_minus_auc"),
    ])
    def test_empty_targets_rejected(self, preds, task, kind):
        with pytest.raises(ValueError, match="empty"):
            score_predictions(preds, np.empty(0), MetricSpec(kind), task)

    def test_regression_column_predictions_rejected(self):
        # a (3, 1) column against (3,) targets would broadcast to (3, 3)
        with pytest.raises(ValueError, match="shape"):
            score_predictions(np.ones((3, 1)), np.zeros(3), MetricSpec("mse"), "regression")

    @pytest.mark.parametrize("kind", ["brier_multiclass", "cross_entropy",
                                      "one_minus_accuracy"])
    def test_classification_row_count_mismatch_rejected(self, kind):
        preds = np.full((4, 2), 0.5)
        with pytest.raises(ValueError, match="shape"):
            score_predictions(preds, np.array([0, 1, 0]), MetricSpec(kind), "classification")
        with pytest.raises(ValueError, match="shape"):
            score_predictions(np.full(3, 0.5), np.array([0, 1, 0]), MetricSpec(kind),
                              "classification")


class TestAuc:
    def test_perfect_and_reversed_ranking(self):
        y = np.array([0, 0, 1, 1])
        perfect = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        res = score_predictions(perfect, y, MetricSpec("one_minus_auc"), "classification")
        assert res.score == 0.0
        assert res.std_error is None and res.per_point.size == 0
        reversed_ = perfect[::-1]
        res = score_predictions(reversed_, y, MetricSpec("one_minus_auc"),
                                "classification")
        assert res.score == 1.0

    def test_all_ties_half_credit(self):
        y = np.array([0, 1, 0, 1])
        preds = np.full((4, 2), 0.5)
        res = score_predictions(preds, y, MetricSpec("one_minus_auc"), "classification")
        assert res.score == pytest.approx(0.5)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=2,
                    max_size=30).filter(lambda rows: len({label for _, label in rows}) == 2))
    def test_matches_pairwise_definition(self, rows):
        # P(score_pos > score_neg) + 1/2 P(tie) over all positive-negative pairs
        scores = np.array([s for s, _ in rows], dtype=float) / 4.0
        y = np.array([label for _, label in rows])
        pos, neg = scores[y == 1], scores[y == 0]
        pairwise = ((pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum()) \
            / (pos.size * neg.size)
        preds = np.column_stack([1.0 - scores, scores])
        res = score_predictions(preds, y, MetricSpec("one_minus_auc"), "classification")
        assert res.score == pytest.approx(1.0 - pairwise, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 3), min_size=1, max_size=40),          # few levels
        st.lists(st.floats(-2.0, 2.0).map(lambda v: round(v, 1)), min_size=1, max_size=40),
        st.builds(lambda v, n: [v] * n, st.floats(-1e3, 1e3), st.integers(1, 40)),
    ).map(np.asarray))
    @example(np.array([0.25]))
    @example(np.full(7, 0.5))
    @example(np.array([0.3, np.nan, 0.3]))
    def test_midranks_match_rankdata(self, a):
        assert _midranks(a).tobytes() == rankdata(a).tobytes()

    def test_auc_on_tied_scores_matches_rankdata_auc(self):
        scores = np.array([0.5, 0.2, 0.5, 0.9, 0.2, 0.5, 0.7, 0.2, 0.9, 0.5])
        labels = np.array([1, 0, 0, 1, 1, 0, 1, 0, 0, 1])
        pos, neg = scores[labels == 1], scores[labels != 1]
        ranks = rankdata(np.concatenate([pos, neg]))
        before = ((ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0)
                  / (pos.size * neg.size))
        assert _auc(scores, labels) == before == 0.62   # 15.5 of 25 pairs

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            score_predictions(np.array([[0.4, 0.6]]), np.array([1]),
                              MetricSpec("one_minus_auc"), "classification")


class TestEnsembleEvaluate:
    def _toy_ensemble(self, averaging="mean"):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(int)
        fm = FeatureMatrix(x=x, y=y, task="classification", n_classes=2)
        members = tuple(train(PredictorSpec("knn", "classification", k=k), fm)
                        for k in (1, 3, 5))
        return EnsemblePredictor(members=members, averaging=averaging), fm

    def test_jensen_bound_for_convex_losses(self):
        for averaging in ("mean", "dual_log_prob"):
            ens, fm = self._toy_ensemble(averaging)
            for kind in ("brier_binary", "brier_multiclass", "cross_entropy"):
                metric = MetricSpec(kind)
                whole = evaluate(ens, fm, metric).score
                members = [evaluate(EnsemblePredictor((m,), "mean"), fm, metric).score
                           for m in ens.members]
                assert whole <= np.mean(members) + 1e-12

    def test_per_point_loss_bounds(self):
        ens, fm = self._toy_ensemble()
        binary = evaluate(ens, fm, MetricSpec("brier_binary")).per_point
        multi = evaluate(ens, fm, MetricSpec("brier_multiclass")).per_point
        assert np.all((binary >= 0) & (binary <= 1))
        assert np.all((multi >= 0) & (multi <= 2))

    def test_ensemble_predict_single_row(self):
        ens, fm = self._toy_ensemble()
        out = ensemble_predict(ens, fm.x[0])
        assert out.shape == (2,)
        assert out.sum() == pytest.approx(1.0)

    def test_std_error_matches_definition(self):
        res = score_predictions(np.array([3.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]),
                                MetricSpec("mse"), "regression")
        per = np.array([4.0, 0.0, 1.0])
        assert res.std_error == pytest.approx(per.std(ddof=1) / math.sqrt(3))


class TestLongCsv:
    def test_round_trip(self, tmp_path):
        rows = [{"dataset": "toy", "generator": "bootstrap", "mode": "independent",
                 "predictor": "cart", "averaging": "mean", "metric": "mse",
                 "m": 2, "repeat": 0, "score": 1.25, "std_error": 0.125},
                {"dataset": "toy", "generator": "bootstrap", "mode": "independent",
                 "predictor": "cart", "averaging": "mean", "metric": "one_minus_auc",
                 "m": 2, "repeat": 0, "score": 0.5, "std_error": None}]
        path = tmp_path / "long.csv"
        write_long_csv(path, rows)
        back = read_long_csv(path)
        assert back[0]["score"] == 1.25 and back[0]["std_error"] == 0.125
        assert back[1]["std_error"] is None
        assert back[0]["m"] == 2


def test_clamp_probs_renormalizes():
    out = clamp_probs(np.array([1.0, 0.0]))
    assert out.sum() == pytest.approx(1.0)
    assert out[1] > 0
