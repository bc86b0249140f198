import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from genensemble.bregman import DomainError
from genensemble.data import FeatureMatrix
from genensemble.metrics import (DUAL_LOG_PROB, MEAN, METRIC_KINDS, PROB_SUM_TOL, MetricSpec,
                                 _auc, _midranks, check_averaging, clamp_probs,
                                 LABEL_COLUMNS, combine_predictions, finite_mean, group_scores,
                                 read_long_csv, score_predictions, score_prefixes,
                                 write_long_csv)
from genensemble.predictors import PredictorSpec, predict_batch, train


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
        with pytest.raises(ValueError, match="classification"):
            check_averaging("dual_log_prob", "regression")

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


@st.composite
def scoring_inputs(draw):
    """Arguments score_predictions accepts: finite regression values, or
    classification rows on the simplex with both classes 0 and 1 among the
    targets."""
    kind, n = draw(st.sampled_from(METRIC_KINDS)), draw(st.integers(2, 6))
    if kind == "mse":
        values = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n).map(np.asarray)
        return draw(values), draw(values), MetricSpec(kind), "regression"
    k = 2 if kind == "brier_binary" else draw(st.integers(2, 4))
    preds = np.asarray(draw(st.lists(_probability_rows(k), min_size=n, max_size=n)))
    y = np.asarray([0, 1] + draw(st.lists(st.integers(0, k - 1), min_size=n - 2,
                                          max_size=n - 2)))
    return preds, y, MetricSpec(kind), "classification"


class TestScoringBoundary:
    @pytest.mark.parametrize("preds, y, kind", [
        ([np.nan, 1.0], [1.0, 1.0], "mse"),
        ([[np.nan, 0.5], [0.5, 0.5]], [0, 1], "brier_binary"),
        ([[0.2, 0.7], [0.5, 0.5]], [0, 1], "cross_entropy"),
        ([[0.5, np.inf], [0.5, 0.5]], [0, 1], "one_minus_auc"),
    ])
    def test_invalid_predictions_rejected(self, preds, y, kind):
        metric = MetricSpec(kind)
        with pytest.raises(ValueError, match="finite|summing"):
            score_predictions(np.array(preds), np.array(y), metric, metric.task)

    def test_row_sum_within_tolerance_accepted(self):
        preds = np.array([[0.5, 0.5 + PROB_SUM_TOL / 2], [0.5, 0.5]])
        res = score_predictions(preds, np.array([0, 1]), MetricSpec("cross_entropy"),
                                "classification")
        assert np.isfinite(res.score)

    @settings(max_examples=100, deadline=None)
    @given(scoring_inputs())
    def test_valid_predictions_get_a_finite_score(self, inputs):
        assert np.isfinite(score_predictions(*inputs).score)

    @settings(max_examples=200, deadline=None)
    @given(scoring_inputs(), st.data())
    def test_any_invalid_entry_rejected(self, inputs, data):
        preds, y, metric, task = inputs
        faults = ("nan", "inf", "-inf") + (("negative", "off_sum") if preds.ndim == 2 else ())
        fault = data.draw(st.sampled_from(faults))
        bad = preds.copy()
        i = data.draw(st.integers(0, len(bad) - 1))
        at = (i,) if bad.ndim == 1 else (i, data.draw(st.integers(0, bad.shape[1] - 1)))
        if fault == "negative":
            bad[at] = -data.draw(st.floats(1e-12, 1.0))
        elif fault == "off_sum":
            bad[i] *= data.draw(st.floats(0.0, 1 - 10 * PROB_SUM_TOL) |
                                st.floats(1 + 10 * PROB_SUM_TOL, 3.0))
        else:
            bad[at] = float(fault)
        with pytest.raises(ValueError, match="finite|summing"):
            score_predictions(bad, y, metric, task)


_MAX = np.finfo(np.float64).max


class TestOverflowRefused:
    """Finite inputs whose member mean, squared error or standard error
    overflows are refused with ValueError; the suite's warnings-as-errors
    filter fails any RuntimeWarning that escapes."""

    def test_member_mean_overflow_refused(self):
        with pytest.raises(ValueError, match="mean of the member predictions"):
            combine_predictions([[_MAX, 0.0], [_MAX, 0.0]], MEAN)

    def test_squared_error_overflow_refused(self):
        with pytest.raises(ValueError, match="mse score or its standard error"):
            score_prefixes(np.array([[_MAX, 0.0], [_MAX, 0.0]]), np.zeros(2), [1], MEAN,
                           MetricSpec("mse"), "regression")

    def test_standard_error_overflow_refused(self):
        # the score 5e299 is finite, the spread of [1e300, 0] squared is not
        with pytest.raises(ValueError, match="mse score or its standard error"):
            score_predictions(np.array([1e150, 0.0]), np.zeros(2), MetricSpec("mse"),
                              "regression")

    def test_single_target_keeps_no_standard_error(self):
        res = score_predictions(np.array([2.0 ** 510]), np.zeros(1), MetricSpec("mse"),
                                "regression")
        assert res.score == 2.0 ** 1020 and res.std_error is None

    def test_largest_finite_members_still_combine(self):
        out = combine_predictions([[_MAX, -_MAX], [-_MAX / 2, 0.0]], MEAN)
        assert np.isfinite(out).all()

    def test_empty_member_stack_refused(self):
        # numpy warned "Mean of empty slice" and the mean came back NaN
        with pytest.raises(ValueError, match="there are no member predictions to average"):
            combine_predictions(np.empty((0, 3)), MEAN)
        with pytest.raises(ValueError, match="there are no member predictions to average"):
            score_prefixes(np.ones((2, 3)), np.zeros(3), [0], MEAN, MetricSpec("mse"),
                           "regression")

    @settings(max_examples=200, deadline=None)
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, min_side=0, max_side=12),
                             elements=st.one_of(st.sampled_from([_MAX, -_MAX, _MAX / 2]),
                                                st.floats(-_MAX, _MAX)),
                             fill=st.nothing()),
           axis=st.integers(0, 1))
    @example(values=np.array([_MAX, _MAX, -_MAX, -_MAX] * 2), axis=0)   # pairwise inf - inf
    def test_finite_mean_is_the_mean_or_refused(self, values, axis):
        # finite values up to the largest float: values.mean(axis) bit for bit,
        # or ValueError; the warnings-as-errors filter fails any warning
        axis = min(axis, values.ndim - 1)
        if values.shape[axis] == 0:
            with pytest.raises(ValueError, match="there are no values to average"):
                finite_mean(values, axis, "values")
            return
        with np.errstate(all="ignore"):
            expected = values.mean(axis=axis)
        if np.isfinite(expected).all():
            assert finite_mean(values, axis, "values").tobytes() == expected.tobytes()
        else:
            with pytest.raises(ValueError, match="the mean of the values overflows"):
                finite_mean(values, axis, "values")


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
    def _toy_members(self):
        """Predictions of three kNN members on their own training set, stacked
        along axis 0, and that set."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 2))
        y = (x[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(int)
        fm = FeatureMatrix(x=x, y=y, task="classification", n_classes=2)
        members = np.asarray([predict_batch(train(PredictorSpec("knn", "classification", k=k),
                                                  fm), fm.x)
                              for k in (1, 3, 5)])
        return members, fm

    def test_jensen_bound_for_convex_losses(self):
        member_preds, fm = self._toy_members()
        for averaging in ("mean", "dual_log_prob"):
            combined = combine_predictions(member_preds, averaging)
            for kind in ("brier_binary", "brier_multiclass", "cross_entropy"):
                metric = MetricSpec(kind)
                whole = score_predictions(combined, fm.y, metric, fm.task).score
                members = [score_predictions(p, fm.y, metric, fm.task).score
                           for p in member_preds]
                assert whole <= np.mean(members) + 1e-12

    def test_per_point_loss_bounds(self):
        member_preds, fm = self._toy_members()
        combined = combine_predictions(member_preds, "mean")
        binary = score_predictions(combined, fm.y, MetricSpec("brier_binary"), fm.task).per_point
        multi = score_predictions(combined, fm.y, MetricSpec("brier_multiclass"),
                                  fm.task).per_point
        assert np.all((binary >= 0) & (binary <= 1))
        assert np.all((multi >= 0) & (multi <= 2))

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


_finite = st.floats(allow_nan=False, allow_infinity=False)
# a few label tuples, so groups gather several rows; cells hold commas and quotes
_labels = st.lists(st.tuples(*[st.text(alphabet='ab ,"\'', max_size=4)] * len(LABEL_COLUMNS)),
                   min_size=1, max_size=3)


class TestGroupScores:
    """group_scores keys scores by LABEL_COLUMNS, then m, in row order, and
    reads the same groups back from a written curve file."""

    def test_groups_in_row_order(self):
        mse, auc = ("d", "g", "mo", "p", "av", "mse"), ("d", "g", "mo", "p", "av", "auc")
        rows = [{**dict(zip(LABEL_COLUMNS, key)), "m": m, "score": score}
                for key, m, score in [(mse, 2, 0.5), (auc, 1, 0.25), (mse, 1, 1.0),
                                      (mse, 2, 0.75)]]
        groups = group_scores(rows)
        assert groups == {mse: {2: [0.5, 0.75], 1: [1.0]}, auc: {1: [0.25]}}
        assert list(groups) == [mse, auc] and list(groups[mse]) == [2, 1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), labels=_labels)
    def test_survives_a_long_csv_round_trip(self, data, labels):
        rows = data.draw(st.lists(st.builds(
            lambda key, m, repeat, score, se: {**dict(zip(LABEL_COLUMNS, key)), "m": m,
                                               "repeat": repeat, "score": score,
                                               "std_error": se},
            st.sampled_from(labels), st.integers(1, 4), st.integers(0, 3), _finite,
            st.none() | _finite), max_size=12))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "curve.csv"
            write_long_csv(path, rows)
            back = group_scores(read_long_csv(path))
        expected = group_scores(rows)
        assert list(back) == list(expected)
        for key, by_m in expected.items():
            assert list(back[key]) == list(by_m)
            for m, scores in by_m.items():
                assert [s.hex() for s in back[key][m]] == [s.hex() for s in scores]


def test_clamp_probs_renormalizes():
    out = clamp_probs(np.array([1.0, 0.0]))
    assert out.sum() == pytest.approx(1.0)
    assert out[1] > 0
