import dataclasses
import functools
import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genensemble import bregman as brg
from genensemble import decomposition
from genensemble.data import (CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Dataset, Schema,
                              encode)
from genensemble.decomposition import (BOOTSTRAP_RESAMPLES, CORRELATED, IDENTITY_SE_MULTIPLE,
                                       SHARED_SUMMARY, TERM_SE_MULTIPLE, BregmanBoundReport,
                                       DecompositionReport, MonteCarloConfig, TermEstimate,
                                       achieved_benefit, bregman_oracle_decompose,
                                       check_oracle_request, curve_cells, curve_repeat,
                                       ensemble_members, estimate_mv_sdv_nested,
                                       fit_rule_regression, fit_rule_two_point, mse_curve,
                                       nested_estimates, oracle_decompose, predict_mse,
                                       run_cells)
from genensemble.generators import GeneratorSpec, fit, generate_ensemble, sample
from genensemble.metrics import MEAN, MetricSpec, score_predictions, score_prefixes
from genensemble.predictors import (_KNN_CELLS, PredictorSpec, _grow_tree, _tree_predict_rows,
                                    parse_predictor, predict_batch, train)
from genensemble.processes import get_process
from genensemble.rng import child_rng, child_seed, make_rng


class TestRuleOfThumb:
    def test_two_point_table_values(self):
        rule = fit_rule_two_point(9.37, 7.38)
        assert rule.mv_plus_sdv == pytest.approx(3.98, abs=1e-12)

    def test_two_point_edge_cases(self):
        assert fit_rule_two_point(5.0, 5.0).mv_plus_sdv == 0.0
        assert fit_rule_two_point(4.0, 5.0).mv_plus_sdv == pytest.approx(-2.0)

    def test_regression_recovers_exact_line(self):
        rule = fit_rule_regression({1: 10.0, 2: 8.0, 4: 7.0, 8: 6.5})
        assert rule.mv_plus_sdv == pytest.approx(4.0, abs=1e-9)
        assert rule.mse1 == pytest.approx(10.0, abs=1e-9)
        assert rule.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_two_points_match_two_point_estimator(self):
        reg = fit_rule_regression({1: 9.37, 2: 7.38})
        two = fit_rule_two_point(9.37, 7.38)
        assert reg.mse1 == pytest.approx(two.mse1, abs=1e-9)
        assert reg.mv_plus_sdv == pytest.approx(two.mv_plus_sdv, abs=1e-9)

    def test_regression_recovers_slope_under_noise(self):
        rng = make_rng(13)
        ms = [1, 2, 4, 8, 16, 32]
        x = np.array([1 - 1 / m for m in ms])
        sigma = 0.01
        noise = rng.normal(0.0, sigma, size=len(ms))
        points = {m: 10.0 - 4.0 * xi + e for m, xi, e in zip(ms, x, noise)}
        rule = fit_rule_regression(points)
        # standard OLS slope standard error
        sxx = np.sum((x - x.mean()) ** 2)
        slope_se = sigma / math.sqrt(sxx)
        assert abs(rule.mv_plus_sdv - 4.0) <= 3.0 * slope_se

    def test_regression_fits_a_curve_whose_squares_overflow(self):
        # the squared deviations pass the float limit; the same curve fits at 1e150
        huge = fit_rule_regression({1: 1e160, 2: 0.6e160, 4: 0.3e160})
        small = fit_rule_regression({1: 1e150, 2: 0.6e150, 4: 0.3e150})
        assert huge.r_squared == pytest.approx(small.r_squared, rel=1e-12)
        assert huge.mv_plus_sdv == pytest.approx(small.mv_plus_sdv * 1e10, rel=1e-12)
        assert huge.mse1 == pytest.approx(small.mse1 * 1e10, rel=1e-12)

    @pytest.mark.parametrize("points", [
        {1: 10.0, 2: 8.0, 4: 7.0, 8: 6.5}, {1: 9.37, 2: 7.38, 4: 6.6},
        {1: 0.31, 2: 0.27, 3: 0.262, 8: 0.249}, {1: 2e-3, 2: 1.2e-3, 16: 0.9e-3},
        {1: 130.0, 2: 71.5, 4: 40.25, 8: 27.0, 16: 19.75},
    ])
    def test_r_squared_keeps_the_bits_of_the_unscaled_formula(self, points):
        ms = sorted(points)
        x = np.array([1.0 - 1.0 / m for m in ms])
        y = np.array([points[m] for m in ms])
        slope, intercept = np.polyfit(x, y, 1)
        fitted = intercept + slope * x
        r2 = 1.0 - float(np.sum((y - fitted) ** 2)) / float(np.sum((y - y.mean()) ** 2))
        assert fit_rule_regression(points).r_squared == r2

    def test_single_m_rejected(self):
        with pytest.raises(ValueError):
            fit_rule_regression({4: 1.0})

    @pytest.mark.parametrize("points, message", [
        ({0: 1.0, 1: 2.0}, "m must be >= 1"),
        ({-1: 1.0, 1: 2.0}, "m must be >= 1"),
        ({True: 1.0, 2: 2.0}, "m must be an integer, got True"),
        ({1.5: 1.0, 2: 2.0}, "m must be an integer, got 1.5"),
    ])
    def test_regression_refuses_an_m_that_is_not_a_count(self, points, message):
        # m = 0 divided by zero, and the others fit a curve at no ensemble size
        with pytest.raises(ValueError, match=message):
            fit_rule_regression(points)

    def test_regression_takes_numpy_counts(self):
        points = {np.int64(1): 10.0, np.int64(2): 8.0, np.int64(4): 7.0}
        assert fit_rule_regression(points) == fit_rule_regression({1: 10.0, 2: 8.0, 4: 7.0})

    def test_predict_identity_at_one(self):
        rule = fit_rule_two_point(9.37, 7.38)
        assert predict_mse(rule, 1) == 9.37

    def test_predict_matches_hand_arithmetic(self):
        rule = fit_rule_two_point(9.37, 7.38)
        assert predict_mse(rule, 16) == pytest.approx(5.63875, abs=1e-12)

    def test_eq5_algebra_exact(self):
        rule = fit_rule_two_point(9.37, 7.38)
        for m in (1, 2, 3, 7, 50, 1000):
            delta = predict_mse(rule, m) - predict_mse(rule, 1)
            assert delta == pytest.approx(-(1 - 1 / m) * rule.mv_plus_sdv, abs=1e-12)

    def test_benefit_fractions(self):
        rule = fit_rule_two_point(6.0, 5.0)     # benefit 2.0
        benefit = rule.mv_plus_sdv
        for m, frac in ((2, 0.5), (10, 0.9), (100, 0.99)):
            assert achieved_benefit(rule, m) == frac * benefit
            via_predictions = predict_mse(rule, 1) - predict_mse(rule, m)
            assert via_predictions == pytest.approx(frac * benefit, abs=1e-12)

    @pytest.mark.parametrize("fit", [
        lambda: fit_rule_two_point(1e308, 1.0),
        lambda: fit_rule_two_point(np.float64(1e308), np.float64(-1e308)),
        lambda: fit_rule_two_point(math.nan, 1.0),
        lambda: fit_rule_regression({1: 1.7e308, 2: -1.7e308}),
        lambda: fit_rule_regression({1: 1.0, 2: math.inf, 4: 0.5}),
    ])
    def test_a_fit_that_is_not_finite_raises(self, fit):
        with pytest.raises(ValueError, match="rule-of-thumb fit is not finite"):
            fit()

    def test_a_prediction_that_is_not_finite_raises(self):
        rule = decomposition.RuleOfThumbFit(mse1=-1.7e308, mv_plus_sdv=1.7e308,
                                            method="two_point")
        assert predict_mse(rule, 1) == -1.7e308
        with pytest.raises(ValueError, match="predicted error at m = 4 is not finite"):
            predict_mse(rule, 4)

    def test_max_benefit_is_limit(self):
        rule = fit_rule_two_point(9.37, 7.38)
        assert rule.mse1 - rule.max_benefit == pytest.approx(predict_mse(rule, 10 ** 9),
                                                             abs=1e-6)


class TestNestedEstimator:
    def test_constant_target_gives_zero_variances(self):
        proc = get_process("gaussian_toy")
        rows = np.column_stack([np.linspace(-1, 1, 20), np.full(20, 3.0)])
        data = Dataset(proc.schema, rows)
        test = Dataset(proc.schema, rows[:5])
        est = estimate_mv_sdv_nested(GeneratorSpec("bootstrap"), data,
                                     PredictorSpec("cart", "regression"), test,
                                     r_theta=4, s_per_theta=3, seed=0)
        assert est.mv == 0.0 and est.sdv == 0.0

    def test_identity_generator_gives_zero_variances(self):
        proc = get_process("gaussian_toy")
        data = proc.sample_real_dataset(make_rng(0), 25)
        test = proc.sample_real_dataset(make_rng(1), 10)
        est = estimate_mv_sdv_nested(GeneratorSpec("bootstrap", identity=True), data,
                                     PredictorSpec("cart", "regression"), test,
                                     r_theta=4, s_per_theta=3, seed=0)
        assert est.mv == 0.0 and est.sdv == 0.0

    def test_gaussian_toy_analytic_values(self):
        # theta ~ N(mean(y), 0.2^2), synthetic = 100 draws of N(theta, 1),
        # mean predictor: MV = 1/100, SDV = 0.04 (within statistical error)
        proc = get_process("gaussian_toy")
        data = proc.sample_real_dataset(make_rng(21), 50)
        test = proc.sample_real_dataset(make_rng(22), 5)
        gen = GeneratorSpec("truth_process", process="gaussian_toy", n_synthetic=100)
        est = estimate_mv_sdv_nested(gen, data, "mean", test,
                                     r_theta=200, s_per_theta=5, seed=33)
        assert abs(est.mv - 0.01) <= 3.0 * est.mv_se
        assert abs(est.sdv - 0.04) <= 3.0 * est.sdv_se

    def test_spec_syntax_predictor(self):
        # a string predictor is read as the CLI reads [predictors] specs
        data = _nested_data(0)
        test = Dataset(data.schema, data.rows[:5])
        kwargs = dict(r_theta=3, s_per_theta=2, seed=4)
        text = estimate_mv_sdv_nested(GeneratorSpec("bootstrap"), data, "knn:3", test, **kwargs)
        spec = estimate_mv_sdv_nested(GeneratorSpec("bootstrap"), data,
                                      PredictorSpec("knn", "regression", k=3), test, **kwargs)
        assert text.mv_per_point.tobytes() == spec.mv_per_point.tobytes()
        assert text.sdv_per_point.tobytes() == spec.sdv_per_point.tobytes()

    def test_standard_error_halves_when_quadrupling_outer(self):
        proc = get_process("gaussian_toy")
        data = proc.sample_real_dataset(make_rng(5), 40)
        test = proc.sample_real_dataset(make_rng(6), 4)
        gen = GeneratorSpec("truth_process", process="gaussian_toy", n_synthetic=50)
        small_mv, small_sdv, large_mv, large_sdv = [], [], [], []
        for seed in range(5):   # mv_se is itself an estimate, so average the ratio
            small = estimate_mv_sdv_nested(gen, data, "mean", test, 32, 5, seed=seed)
            large = estimate_mv_sdv_nested(gen, data, "mean", test, 128, 5, seed=seed)
            small_mv.append(small.mv_se)
            large_mv.append(large.mv_se)
            small_sdv.append(small.sdv_se)
            large_sdv.append(large.sdv_se)
        assert 0.4 <= np.mean(large_sdv) / np.mean(small_sdv) <= 0.6
        assert 0.4 <= np.mean(large_mv) / np.mean(small_mv) <= 0.6

    def test_counts_validated(self):
        proc = get_process("gaussian_toy")
        data = proc.sample_real_dataset(make_rng(0), 10)
        with pytest.raises(ValueError):
            estimate_mv_sdv_nested(GeneratorSpec("bootstrap"), data, "mean", data,
                                   r_theta=1, s_per_theta=5)

    def test_empty_test_set_rejected(self):
        proc = get_process("gaussian_toy")
        data = proc.sample_real_dataset(make_rng(0), 10)
        empty = Dataset(data.schema, data.rows[:0])
        with pytest.raises(ValueError, match="empty"):
            estimate_mv_sdv_nested(GeneratorSpec("bootstrap"), data, "mean", empty,
                                   r_theta=2, s_per_theta=2)

    @staticmethod
    def _fit_calls(monkeypatch) -> list:
        """The arguments of each generator fit the estimator makes from now on."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)
        monkeypatch.setattr(decomposition, "fit", counting)
        return calls

    def test_foreign_test_set_refused_before_any_fit(self, monkeypatch):
        calls = self._fit_calls(monkeypatch)
        data = get_process("gaussian_toy").sample_real_dataset(make_rng(0), 20)
        test = _xy_dataset(np.zeros((5, 2)), np.zeros(5))     # x0, x1, y: not the data's x, y
        with pytest.raises(ValueError, match="the test set's columns are not the data's"):
            estimate_mv_sdv_nested(GeneratorSpec("gaussian_ppd"), data, "ridge:1", test, 32, 5)
        assert calls == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_predictor_for_another_task_refused_before_any_fit(self, monkeypatch, jobs):
        # made one fit, then failed inside train (in a worker at jobs 2) with
        # another message than the curve check's
        calls = self._fit_calls(monkeypatch)
        data = get_process("gaussian_toy").sample_real_dataset(make_rng(0), 20)
        with pytest.raises(ValueError, match="predictor 'knn1' is for classification, "
                                             "not the data's regression task"):
            estimate_mv_sdv_nested(GeneratorSpec("gaussian_ppd"), data,
                                   PredictorSpec("knn", "classification"), data, 32, 5,
                                   jobs=jobs)
        assert calls == []

    def test_spread_that_overflows_refused(self):
        # targets of +-1e200 square past the float limit: mv came back inf,
        # sdv and mv_se NaN and sdv_se inf, with RuntimeWarnings
        proc = get_process("gaussian_toy")
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.normal(size=50), rng.choice([-1e200, 1e200], size=50)])
        data, test = Dataset(proc.schema, rows[:40]), Dataset(proc.schema, rows[40:])
        with pytest.raises(ValueError, match="nested MV/SDV estimate .* not finite"):
            estimate_mv_sdv_nested(GeneratorSpec("bootstrap"), data, "cart", test,
                                   r_theta=4, s_per_theta=3, seed=1)

    def test_multiclass_sums_the_class_spreads(self):
        from genensemble.data import CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Schema
        schema = Schema((Column("x", NUMERIC, FEATURE),
                         Column("y", CATEGORICAL, TARGET, levels=("a", "b", "c"))))
        rng = make_rng(2)
        rows = np.column_stack([rng.normal(size=30),
                                rng.integers(0, 3, size=30).astype(float)])
        data = Dataset(schema, rows)
        est = estimate_mv_sdv_nested(GeneratorSpec("bootstrap"), data,
                                     PredictorSpec("knn", "classification", k=3),
                                     data, r_theta=3, s_per_theta=2, seed=1)
        # ddof=1 variance of two probability vectors, summed over classes, is at most 1
        assert np.all((est.mv_per_point >= 0.0) & (est.mv_per_point <= 1.0 + 1e-12))

    def test_binary_classification_uses_positive_class_probability(self):
        from genensemble.data import CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Schema
        schema = Schema((Column("x", NUMERIC, FEATURE),
                         Column("y", CATEGORICAL, TARGET, levels=("n", "p"))))
        rng = make_rng(3)
        rows = np.column_stack([rng.normal(size=30),
                                rng.integers(0, 2, size=30).astype(float)])
        data = Dataset(schema, rows)
        est = estimate_mv_sdv_nested(GeneratorSpec("bootstrap"), data,
                                     PredictorSpec("knn", "classification", k=3),
                                     data, r_theta=3, s_per_theta=2, seed=1)
        # ddof=1 variance of two values in [0,1] is at most 1/2
        assert np.all(est.mv_per_point <= 0.5 + 1e-12)

    def test_sdv_is_corrected_for_few_datasets_per_fit(self):
        # n_synthetic=2 makes MV = 1/2 large against SDV = 0.04: the raw
        # between-fit variance carries MV / s_per_theta = 0.1 on top of SDV
        proc = get_process("gaussian_toy")
        data = proc.sample_real_dataset(make_rng(61), 50)
        test = proc.sample_real_dataset(make_rng(62), 5)
        gen = GeneratorSpec("truth_process", process="gaussian_toy", n_synthetic=2)
        est = estimate_mv_sdv_nested(gen, data, "mean", test,
                                     r_theta=400, s_per_theta=5, seed=63)
        assert abs(est.mv - 0.5) <= 3.0 * est.mv_se
        assert abs(est.sdv - 0.04) <= 3.0 * est.sdv_se


def _nested_reference(generator, data, predictor, test, r_theta, s_per_theta, seed):
    """The nested estimator with its own loop: train and predict one synthetic
    dataset at a time, reduce each member's predictions to components, then
    split the spread. Returns every number of the estimate."""
    n_rows = generator.n_synthetic if generator.n_synthetic is not None else data.n
    preds = []
    for i in range(r_theta):
        params = fit(generator, data, child_seed(seed, "fit", i))
        for j in range(s_per_theta):
            ds = sample(params, n_rows, child_seed(child_seed(seed, "synth", i), "rep", j))
            fm_train = encode(ds, ds, predictor.wants_standardize)
            fm_test = encode(ds, test, predictor.wants_standardize)
            model = train(predictor, fm_train, child_seed(child_seed(seed, "train", i), "rep", j))
            member = predict_batch(model, fm_test.x)
            if member.ndim == 1:
                member = member[:, None]
            elif member.shape[1] == 2:
                member = member[:, 1:2]
            preds.append(member)
    preds = np.reshape(preds, (r_theta, s_per_theta) + preds[0].shape)
    within_var = preds.var(axis=1, ddof=1)
    mv_per_point = within_var.mean(axis=0).sum(axis=-1)     # the class sum follows the mean
    within_var = within_var.sum(axis=-1)
    between_var = preds.mean(axis=1).var(axis=0, ddof=1).sum(axis=-1)
    sdv_per_point = between_var - mv_per_point / s_per_theta
    return (mv_per_point, sdv_per_point, float(mv_per_point.mean()),
            float(sdv_per_point.mean()),
            float(within_var.mean(axis=1).std(ddof=1) / math.sqrt(r_theta)),
            float(between_var.mean()) * math.sqrt(2.0 / (r_theta - 1)))


def _nested_data(n_classes):
    """24 rows of one numeric and one three-level feature with a regression
    target (n_classes 0) or a categorical one."""
    rng = make_rng(40 + n_classes)
    if n_classes:
        target = Column("y", CATEGORICAL, TARGET, levels=tuple("abc"[:n_classes]))
        y = rng.integers(0, n_classes, size=24).astype(float)
    else:
        target = Column("y", NUMERIC, TARGET)
        y = rng.normal(size=24)
    schema = Schema((Column("x", NUMERIC, FEATURE),
                     Column("c", CATEGORICAL, FEATURE, levels=("l0", "l1", "l2")), target))
    return Dataset(schema, np.column_stack([rng.normal(size=24),
                                            rng.integers(0, 3, size=24), y]))


class TestNestedMatchesReference:
    @pytest.mark.parametrize("n_classes, kind", [
        (0, "cart"), (0, "knn"), (0, "ridge"), (0, "mean"),
        (2, "cart"), (2, "knn"), (2, "logistic"), (2, "mean"),
        (3, "cart"), (3, "knn"), (3, "logistic"), (3, "mean"),
    ])
    def test_estimate_bytes(self, n_classes, kind):
        data = _nested_data(n_classes)
        test = Dataset(data.schema, data.rows[:7])
        predictor = PredictorSpec(kind, data.schema.task)
        generator = GeneratorSpec("bootstrap", n_synthetic=15)
        est = estimate_mv_sdv_nested(generator, data, predictor, test, r_theta=3,
                                     s_per_theta=2, seed=9)
        ref = _nested_reference(generator, data, predictor, test, 3, 2, 9)
        assert est.mv_per_point.tobytes() == ref[0].tobytes()
        assert est.sdv_per_point.tobytes() == ref[1].tobytes()
        assert (est.mv, est.sdv, est.mv_se, est.sdv_se) == ref[2:]


_NESTED_FIELDS = ("mv_per_point", "sdv_per_point", "mv", "sdv", "mv_se", "sdv_se")


class TestNestedEstimatesShareDraws:
    @settings(max_examples=20, deadline=None)
    @given(n_classes=st.sampled_from([0, 2, 3]),
           kinds=st.lists(st.sampled_from(["cart", "knn", "mean", "linear"]), min_size=1,
                          max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @example(n_classes=3, kinds=["knn", "cart", "knn"], seed=0)      # a repeated spec
    def test_each_entry_is_a_lone_estimate(self, n_classes, kinds, seed):
        # "linear" stands for each task's linear model: ridge, or logistic
        data = _nested_data(n_classes)
        test = Dataset(data.schema, data.rows[:5])
        task = data.schema.task
        predictors = [PredictorSpec(("ridge" if n_classes == 0 else "logistic")
                                    if kind == "linear" else kind, task) for kind in kinds]
        generator = GeneratorSpec("bootstrap", n_synthetic=12)
        estimates = nested_estimates(generator, data, predictors, test, 3, 2, seed)
        assert len(estimates) == len(predictors)
        for predictor, est in zip(predictors, estimates):
            lone = estimate_mv_sdv_nested(generator, data, predictor, test, 3, 2, seed)
            for name in _NESTED_FIELDS:
                assert (np.asarray(getattr(est, name)).tobytes()
                        == np.asarray(getattr(lone, name)).tobytes()), name

    def test_an_empty_list_is_refused_before_a_draw(self):
        data = _nested_data(0)
        with pytest.raises(ValueError, match="there are no predictors"):
            nested_estimates(GeneratorSpec("bootstrap"), data, [], data, 3, 2)


class TestOracleDecompose:
    def test_fully_deterministic_process_gives_exact_identity(self):
        proc = get_process("gaussian_toy", mu0=2.0, noise_sd=0.0, tau=0.0,
                           n_real=5, n_synth=5)
        rep = oracle_decompose(proc, "iid", m=2,
                               mc=MonteCarloConfig(10, 4, 3, 10), seed=0)
        for name in ("mv", "sdv", "rdv", "sdb", "mb", "mse", "noise"):
            assert rep.terms[name].value == 0.0
        assert rep.identity_gap == 0.0
        assert rep.status == "ok"

    def test_gaussian_toy_identity_small_scale(self):
        proc = get_process("gaussian_toy")
        for m in (1, 2, 5):
            rep = oracle_decompose(proc, "iid", m=m,
                                   mc=MonteCarloConfig(80, 20, 10, 2000), seed=17)
            assert abs(rep.identity_gap) <= 4.0 * rep.identity_gap_se
            assert rep.status == "ok"
            assert rep.terms["noise"].value == 1.0

    def test_correlated_rho_one_duplicates_theta(self):
        proc = get_process("gaussian_toy")
        rep = oracle_decompose(proc, "correlated", m=2, rho=1.0,
                               mc=MonteCarloConfig(120, 30, 10, 2000), seed=29)
        cov, sdv = rep.terms["cov"], rep.terms["sdv"]
        se = math.hypot(cov.std_error, sdv.std_error)
        assert abs(cov.value - sdv.value) <= 3.0 * se
        assert rep.status == "ok"

    def test_shared_summary_adds_dpvar(self):
        proc = get_process("discrete_toy")
        rep = oracle_decompose(proc, "shared_summary", m=2,
                               mc=MonteCarloConfig(60, 15, 8, 1000, r_summary=12),
                               seed=31)
        assert "dpvar" in rep.terms
        assert rep.terms["dpvar"].value > 0
        assert rep.status == "ok"

    def test_cart_on_featureless_process(self):
        # discrete_toy has no feature column, so every CART is grown on zero
        # features: a root that holds both classes has no split to take
        rep = oracle_decompose("discrete_toy", "iid", "cart", m=2,
                               mc=MonteCarloConfig(4, 3, 2, 50), seed=3)
        assert rep.status == "ok"
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
            "92d01b40473da5c867def258a6cb7154bced1b90192156cacaced975269aea11")

    def test_shared_summary_requires_summary_sampler(self):
        with pytest.raises(ValueError, match="summary"):
            oracle_decompose("gaussian_toy", "shared_summary",
                             mc=MonteCarloConfig(4, 2, 2, 4))

    def test_correlated_requires_support(self):
        with pytest.raises(ValueError, match="correlated"):
            oracle_decompose("discrete_toy", "correlated",
                             mc=MonteCarloConfig(4, 2, 2, 4))

    def test_perfect_generator_scenario(self):
        # generator sampling the true distribution: only MV and noise remain
        proc = get_process("gaussian_toy", perfect=True)
        rep = oracle_decompose(proc, "iid", m=1,
                               mc=MonteCarloConfig(150, 30, 15, 2000), seed=23)
        for name in ("sdv", "rdv", "sdb"):
            t = rep.terms[name]
            assert abs(t.value) <= 3.0 * t.std_error
        assert rep.terms["mv"].within(0.01)
        assert rep.status == "ok"

    def test_generic_predictor_engine_matches_builtin(self):
        # the mean PredictorSpec reproduces the built-in scalar predictor, so
        # both engines must agree within Monte Carlo error
        proc = get_process("gaussian_toy")
        mc = MonteCarloConfig(40, 8, 4, 400)
        built = oracle_decompose(proc, "iid", m=1, mc=mc, seed=3)
        generic = oracle_decompose(proc, "iid", PredictorSpec("mean", "regression"),
                                   m=1, test_points=[[0.0]], mc=mc, seed=4)
        for name in ("mv", "sdv", "rdv"):
            b, g = built.terms[name], generic.terms[name]
            assert abs(b.value - g.value) <= 4.0 * math.hypot(b.std_error, g.std_error)
        assert generic.status == "ok"

    def test_spec_syntax_predictor(self):
        # the library reads spec syntax as the CLI's [decompose] predictor does
        kwargs = dict(generator_mode="iid", m=2, test_points=[[0.0], [1.0]],
                      mc=MonteCarloConfig(3, 3, 3, 20), seed=1)
        knn3 = PredictorSpec("knn", "regression", k=3)
        text = oracle_decompose("gaussian_toy", predictor="knn:3", **kwargs)
        spec = oracle_decompose("gaussian_toy", predictor=knn3, **kwargs)
        assert text.config["predictor"] == "knn3"
        assert text.to_json() == spec.to_json()
        with pytest.raises(ValueError, match="knn:x: k must be an integer"):
            oracle_decompose("gaussian_toy", predictor="knn:x", **kwargs)

    def test_check_oracle_request_resolves_predictor(self):
        proc = get_process("gaussian_toy")
        for builtin in ("builtin", proc.builtin_predictor):
            assert check_oracle_request(proc, "iid", builtin, 1) is None
        spec = PredictorSpec("cart", "regression")
        assert check_oracle_request(proc, "iid", spec, 1) is spec
        knn3 = PredictorSpec("knn", "regression", k=3)
        assert check_oracle_request(proc, "iid", "knn:3", 1) == knn3

    @pytest.mark.parametrize("process, mode", [("gaussian_toy", "iid"),
                                               ("discrete_toy", SHARED_SUMMARY),
                                               ("gaussian_toy", CORRELATED)])
    @pytest.mark.parametrize("rho", [7.5, -0.1, np.nan])
    def test_rho_outside_unit_interval_rejected_in_every_mode(self, process, mode, rho):
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\]"):
            oracle_decompose(process, mode, m=1, mc=MonteCarloConfig(3, 2, 2, 4), rho=rho)

    @pytest.mark.parametrize("process, mode", [("gaussian_toy", "iid"),
                                               ("discrete_toy", SHARED_SUMMARY)])
    def test_rho_refused_unless_the_mode_is_correlated(self, process, mode):
        # iid and shared_summary ignored rho and still recorded it in the report
        with pytest.raises(ValueError, match=f"rho applies to the correlated mode only, "
                                             f"not '{mode}'"):
            oracle_decompose(process, mode, m=1, mc=MonteCarloConfig(3, 2, 2, 4), rho=0.5)
        assert check_oracle_request(get_process(process), mode, "builtin", 1, 0.0) is None

    def test_negative_variance_term_is_reported(self):
        # an ordinary fluctuation at tiny Monte Carlo counts keeps its report
        rep = oracle_decompose("gaussian_toy", "iid", m=1,
                               mc=MonteCarloConfig(3, 4, 3, 20), seed=15)
        rdv = rep.terms["rdv"]
        assert rdv.value < -3.0 * rdv.std_error
        assert abs(rep.identity_gap) <= 4.0 * rep.identity_gap_se
        assert rep.status == "term_negative"

    @pytest.mark.parametrize("m", [2.5, 2.0, np.float64(3.0), "2", True, np.bool_(True)])
    def test_non_integer_m_rejected(self, m):
        mc = MonteCarloConfig(3, 2, 2, 4)
        with pytest.raises(ValueError, match="m must be an integer"):
            check_oracle_request(get_process("gaussian_toy"), "iid", "builtin", m)
        with pytest.raises(ValueError, match="m must be an integer"):
            oracle_decompose("gaussian_toy", "iid", m=m, mc=mc)

    def test_numpy_integer_m_accepted(self):
        mc = MonteCarloConfig(3, 2, 2, 4)
        for m in (np.int64(2), np.int32(2)):
            rep = oracle_decompose("gaussian_toy", "iid", m=m, mc=mc, seed=2)
            assert rep.to_json() == oracle_decompose("gaussian_toy", "iid", m=2, mc=mc,
                                                     seed=2).to_json()

    @pytest.mark.parametrize("predictor", ["builtin", "knn:1"])
    @pytest.mark.parametrize("points", [[], np.zeros((0, 1)), [[0.0, 1.0]], [0.0],
                                        [[0.0], [np.nan]], [[np.inf]], [[[0.0]]]])
    def test_malformed_test_points_rejected(self, predictor, points):
        with pytest.raises(ValueError, match=r"test_points must be a non-empty, finite \(n, 1\)"):
            oracle_decompose("gaussian_toy", "iid", predictor, test_points=points,
                             mc=MonteCarloConfig(3, 2, 2, 4))

    @pytest.mark.parametrize("process, width", [("gaussian_toy", 1), ("discrete_toy", 0)])
    @pytest.mark.parametrize("predictor", ["builtin", "knn:1"])
    def test_default_test_point_is_the_origin(self, process, width, predictor):
        kwargs = dict(generator_mode="iid", predictor=predictor,
                      mc=MonteCarloConfig(3, 2, 2, 4), seed=3)
        rep = oracle_decompose(process, **kwargs)
        assert rep.config["n_test_points"] == 1
        assert all(len(v) == 1 for v in rep.per_point.values())
        assert rep.to_json() == oracle_decompose(process, test_points=np.zeros((1, width)),
                                                 **kwargs).to_json()
        with pytest.raises(ValueError, match=rf"finite \(n, {width}\) block"):
            oracle_decompose(process, test_points=np.zeros((1, width + 1)), **kwargs)

    @pytest.mark.parametrize("mode, kwargs, recorded", [
        ("iid", {}, False), ("correlated", {"rho": 0.5}, False),
        ("shared_summary", {}, True)])
    @pytest.mark.parametrize("r_summary", [None, 3])
    def test_r_summary_is_recorded_only_where_used(self, mode, kwargs, recorded, r_summary):
        process = "discrete_toy" if mode == "shared_summary" else "gaussian_toy"
        mc = MonteCarloConfig(4, 3, 2, 5, r_summary=r_summary)
        config = oracle_decompose(process, mode, mc=mc, **kwargs).config["mc"]
        assert ("r_summary" in config) == recorded
        if recorded:
            assert config["r_summary"] == mc.summaries

    def test_report_serializes(self):
        rep = oracle_decompose("gaussian_toy", "iid", m=1,
                               mc=MonteCarloConfig(20, 5, 3, 100), seed=0)
        import json
        parsed = json.loads(rep.to_json())
        assert set(parsed["terms"]) >= {"mse", "mv", "sdv", "rdv", "noise"}
        assert parsed["coverage"]["identity_se_multiple"] == 4.0


def _sequential_sum(values):
    """The sum of values, added one at a time from the first."""
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


def _sequential_cov(x, y):
    """The ddof = 1 covariance of x and y, every sum taken one term at a time."""
    dx = x - _sequential_sum(x) / len(x)
    dy = y - _sequential_sum(y) / len(y)
    return _sequential_sum(dx * dy) / (len(x) - 1)


def _collect_reference(process, outputs, point_shape, mode, m, rho, mc, seed):
    """The collector with one set of reductions per summary: each summary's
    statistics are reduced on their own and then stacked."""
    names = ["mv", "sdv_raw", "b", "fbar", "mse"]
    if mode == SHARED_SUMMARY:
        names.append("dpv_raw")
    if mode == CORRELATED:
        names.append("cov_raw")
    records = {key: np.empty((mc.r_real,) + point_shape) for key in names}

    def spread(rng, thetas, r):
        preds = outputs(rng, np.repeat(thetas[:, None], mc.r_syn, axis=1), "grid", r)
        a = preds.mean(axis=1)
        fbar = np.broadcast_to(process.f_theta(thetas).mean(axis=0), point_shape)
        return preds.var(axis=1, ddof=1).mean(axis=0), a.var(axis=0, ddof=1), \
            a.mean(axis=0), fbar

    for r in range(mc.r_real):
        rng = child_rng(seed, "estimate", r)
        real = process.sample_real(rng)
        if mode == SHARED_SUMMARY:
            per_summary = []
            for _ in range(mc.summaries):
                summary = process.sample_summary(rng, real)
                thetas = process.sample_theta_from_summary(rng, summary, mc.r_theta)
                per_summary.append(spread(rng, thetas, r))
            mv, sdv_raw, c, fbar = (np.array(column) for column in zip(*per_summary))
            records["dpv_raw"][r] = c.var(axis=0, ddof=1)
            stats = (mv.mean(axis=0), sdv_raw.mean(axis=0), c.mean(axis=0),
                     fbar.mean(axis=0))
        else:
            stats = spread(rng, process.sample_theta(rng, real, mc.r_theta), r)
        for key, value in zip(("mv", "sdv_raw", "b", "fbar"), stats):
            records[key][r] = value
        if mode == CORRELATED:
            pairs = process.sample_theta_correlated(rng, real, mc.r_theta, 2, rho)
            g = outputs(rng, pairs, "covgrid", r).reshape(mc.r_theta, 2, -1)
            cov = [_sequential_cov(g[:, 0, k], g[:, 1, k]) for k in range(g.shape[2])]
            records["cov_raw"][r] = np.reshape(cov, point_shape)

        rng_d = child_rng(seed, "direct", r)
        real_d = process.sample_real(rng_d)
        if mode == SHARED_SUMMARY:
            summary_d = process.sample_summary(rng_d, real_d)
            thetas_d = process.sample_theta_from_summary(rng_d, summary_d, m)
        elif mode == CORRELATED:
            thetas_d = process.sample_theta_correlated(rng_d, real_d, 1, m, rho)[0]
        else:
            thetas_d = process.sample_theta(rng_d, real_d, m)
        g_hat = outputs(rng_d, thetas_d, "directgrid", r).mean(axis=0)
        y = process.sample_y(rng_d, (mc.r_y,) + point_shape)
        records["mse"][r] = ((y - g_hat) ** 2).mean(axis=0)
    return records


def _collect_bregman_reference(process, spec, y_weights, m, mc, seed):
    """The Bregman collector with one MV divergence call per parameter draw."""
    y0, y1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    mv_r = np.empty(mc.r_real)
    sdv_r = np.empty(mc.r_real)
    c_r_dual = np.empty((mc.r_real, 2))
    err_r = np.empty(mc.r_real)
    for r in range(mc.r_real):
        rng = child_rng(seed, "estimate", r)
        real = process.sample_real(rng)
        thetas = process.sample_theta(rng, real, mc.r_theta)
        probs = process.predictor_prob_outputs(
            rng, np.repeat(thetas[:, None], mc.r_syn, axis=1))
        duals = brg.dual(spec, probs)
        centers_t = brg.dual_inverse(spec, duals.mean(axis=1))
        mv_r[r] = np.mean([brg.divergence(spec, centers_t[t], probs[t]).mean()
                           for t in range(mc.r_theta)])
        center_r = brg.dual_inverse(spec, brg.dual(spec, centers_t).mean(axis=0))
        sdv_r[r] = float(np.mean(brg.divergence(spec, center_r, centers_t)))
        c_r_dual[r] = duals.reshape(-1, 2).mean(axis=0)

        rng_d = child_rng(seed, "direct", r)
        real_d = process.sample_real(rng_d)
        thetas_d = process.sample_theta(rng_d, real_d, m)
        member = process.predictor_prob_outputs(rng_d, thetas_d)
        g_hat = brg.dual_average(spec, member)
        err_r[r] = float(y_weights[0] * brg.divergence(spec, y0, g_hat)
                         + y_weights[1] * brg.divergence(spec, y1, g_hat))
    return mv_r, sdv_r, c_r_dual, err_r


# counts below numpy's 8-element unrolled sum, within its 128-element block,
# and past it (r_theta 130), so every summation path is compared; _PAIR_MC
# has the fewest summary blocks, so dpv_raw's ddof = 1 variance runs over two
_SMALL_MC = MonteCarloConfig(6, 4, 3, 20, r_summary=3)
_BLOCK_MC = MonteCarloConfig(12, 9, 10, 50, r_summary=11)
_WIDE_MC = MonteCarloConfig(10, 130, 9, 20, r_summary=9)
_PAIR_MC = MonteCarloConfig(5, 6, 2, 10, r_summary=2)


class TestOracleMatchesPerSummaryReduction:
    def _both(self, monkeypatch, **kwargs):
        new = oracle_decompose(**kwargs).to_json()
        process, seed = get_process(kwargs["process"]), kwargs["seed"]
        if "predictor" in kwargs:
            points = np.asarray(kwargs["test_points"], dtype=np.float64)
            outputs = functools.partial(decomposition._trained_outputs, process,
                                        kwargs["predictor"], points, seed)
            point_shape = (len(points),)
        else:
            def outputs(rng, thetas, tag, r):
                return process.predictor_outputs(rng, thetas)
            point_shape = ()

        def collect(chain, r_real, jobs=1):
            return _collect_reference(process, outputs, point_shape, kwargs["generator_mode"],
                                      kwargs["m"], kwargs["rho"], kwargs["mc"], seed)
        monkeypatch.setattr(decomposition, "_collect", collect)
        return new, oracle_decompose(**kwargs).to_json()

    @pytest.mark.parametrize("mc, seed", [(_SMALL_MC, 0), (_BLOCK_MC, 7), (_WIDE_MC, 123),
                                          (_PAIR_MC, 3)])
    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("process, mode, rho", [
        ("discrete_toy", "iid", 0.0),
        ("discrete_toy", "shared_summary", 0.0),
        ("gaussian_toy", "iid", 0.0),
        ("gaussian_toy", "correlated", 0.0),
        ("gaussian_toy", "correlated", 0.5),
        ("gaussian_toy", "correlated", 1.0),
    ])
    def test_builtin_report_bytes(self, monkeypatch, process, mode, rho, seed, m, mc):
        new, old = self._both(monkeypatch, process=process, generator_mode=mode, m=m,
                              mc=mc, seed=seed, rho=rho)
        assert new == old

    @pytest.mark.parametrize("points", [
        # three points: point_shape (3,) reduces along a non-trailing axis
        pytest.param([[-1.0], [0.0], [1.5]], id="three"),
        # ten points: the per-point mean takes numpy's pairwise sum
        pytest.param(np.linspace(-2.0, 2.0, 10)[:, None], id="ten"),
    ])
    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("mode, rho", [("iid", 0.0), ("correlated", 0.0),
                                           ("correlated", 0.5), ("correlated", 1.0)])
    def test_trained_predictor_report_bytes(self, monkeypatch, mode, rho, seed, m, points):
        new, old = self._both(monkeypatch, process="gaussian_toy", generator_mode=mode,
                              predictor=PredictorSpec("knn", "regression", k=3), m=m,
                              test_points=points,
                              mc=MonteCarloConfig(3, 3, 3, 20), seed=seed, rho=rho)
        assert new == old

    @pytest.mark.parametrize("mc, seed", [(_SMALL_MC, 0), (_BLOCK_MC, 7), (_WIDE_MC, 123)])
    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_bregman_report_bytes(self, monkeypatch, seed, m, mc):
        def report():
            rep = bregman_oracle_decompose("discrete_toy", m=m, mc=mc, seed=seed)
            return json.dumps(dataclasses.asdict(rep), sort_keys=True)

        new = report()
        process = get_process("discrete_toy")
        y_weights = np.array([1.0 - process.f(), process.f()])

        def collect(chain, r_real, jobs=1):
            return dict(zip(("mv", "sdv", "c_dual", "error"), _collect_bregman_reference(
                process, brg.BregmanSpec(brg.NEGENTROPY, 2), y_weights, m, mc, seed)))
        monkeypatch.setattr(decomposition, "_collect", collect)
        assert new == report()


def _assemble_per_resample(records, mode, mc, f_value, idx):
    """Term assembly for one replicate selection idx, a 1-D index array,
    reducing along axis 0."""
    def take(name):
        return records[name][idx]

    out = {}
    mv = take("mv").mean(axis=0)
    sdv_raw = take("sdv_raw").mean(axis=0)
    out["mv"] = mv
    out["sdv"] = sdv_raw - mv / mc.r_syn
    b = take("b")
    if mode == SHARED_SUMMARY:
        dpv_raw = take("dpv_raw").mean(axis=0)
        out["dpvar"] = dpv_raw - sdv_raw / mc.r_theta
        out["rdv"] = b.var(axis=0, ddof=1) - dpv_raw / mc.summaries
    else:
        out["rdv"] = b.var(axis=0, ddof=1) - sdv_raw / mc.r_theta
    if mode == CORRELATED:
        out["cov"] = take("cov_raw").mean(axis=0)
    fbar = take("fbar").mean(axis=0)
    out["sdb"] = f_value - fbar
    out["mb"] = fbar - b.mean(axis=0)
    bias = out["sdb"] + out["mb"]
    out["bias_sq"] = bias * bias
    out["mse"] = take("mse").mean(axis=0)
    return out


def _estimates_per_resample(seed, r_real, statistic):
    """Point estimates and bootstrap standard errors with one statistic call
    per resample."""
    rng = child_rng(seed, "bootstrap")
    draws = [statistic(rng.integers(0, r_real, size=r_real))
             for _ in range(BOOTSTRAP_RESAMPLES)]
    point = statistic(np.arange(r_real))
    return {name: TermEstimate(value=float(point[name]),
                               std_error=float(np.std([d[name] for d in draws], ddof=1)))
            for name in point}


def _oracle_reference(report, records, process, mode, m, mc, seed):
    """report.to_json() rebuilt from the oracle's records with the
    per-resample bootstrap."""
    noise, f_value = process.noise_var(), process.f()
    term_names = ("mse", "mv", "sdv", "rdv", "sdb", "mb") + decomposition._MODE_TERMS[mode]

    def statistic(idx):
        bs = _assemble_per_resample(records, mode, mc, f_value, idx)
        return {**{name: np.mean(bs[name]) for name in term_names},
                "gap": np.mean(decomposition._identity_gap(bs, m, noise, mode))}

    terms = _estimates_per_resample(seed, mc.r_real, statistic)
    gap = terms.pop("gap")
    terms["noise"] = TermEstimate(value=float(noise), std_error=0.0)
    if abs(gap.value) > IDENTITY_SE_MULTIPLE * gap.std_error:
        status = "identity_flagged"
    elif any(terms[name].value < -TERM_SE_MULTIPLE * terms[name].std_error
             for name in ("mv", "sdv", "rdv", "dpvar") if name in terms):
        status = "term_negative"
    else:
        status = "ok"
    stats = _assemble_per_resample(records, mode, mc, f_value, np.arange(mc.r_real))
    n_x = report.config["n_test_points"]
    per_point = {name: np.broadcast_to(stats[name], (n_x,)) for name in term_names}
    return DecompositionReport(terms=terms, identity_gap=gap.value,
                               identity_gap_se=gap.std_error, status=status,
                               config=report.config, coverage=report.coverage,
                               per_point=per_point).to_json()


def _bregman_json(report):
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


def _bregman_reference(report, records, process, mc, seed):
    """The Bregman report's JSON rebuilt from its records with the
    per-resample bootstrap."""
    spec = brg.BregmanSpec(brg.NEGENTROPY, 2)
    y_weights = np.array([1.0 - process.f(), process.f()])
    y_mean = brg.dual_inverse(spec, brg.dual(spec, y_weights))

    def statistic(idx):
        cd = records["c_dual"][idx]
        overall = brg.dual_inverse(spec, cd.mean(axis=0))
        out = {name: records[name][idx].mean() for name in ("error", "mv", "sdv")}
        out["rdv"] = float(np.mean(brg.divergence(spec, overall, brg.dual_inverse(spec, cd))))
        out["bias"] = float(brg.divergence(spec, y_mean, overall))
        out["slack"] = (out["mv"] + out["sdv"] + out["rdv"] + out["bias"] + report.noise
                        - out["error"])
        return out

    est = _estimates_per_resample(seed, mc.r_real, statistic)
    slack = est.pop("slack")
    return _bregman_json(BregmanBoundReport(**est, noise=report.noise,
                                            bound_slack=slack.value,
                                            bound_slack_se=slack.std_error,
                                            config=report.config))


def _with_records(monkeypatch, run):
    """run() and the records its oracle collected."""
    collected = []
    collect = decomposition._collect

    def capture(chain, r_real, jobs=1):
        collected.append(collect(chain, r_real, jobs))
        return collected[-1]
    monkeypatch.setattr(decomposition, "_collect", capture)
    return run(), collected[0]


# r_real 37 splits into uneven blocks of rows; "all" puts every resample in
# one block and 1 gives one resample per block
_CELL_BOUNDS = ["default", 1, "all"]


def _set_cells(monkeypatch, cells, r_real):
    if cells != "default":
        bound = BOOTSTRAP_RESAMPLES * r_real if cells == "all" else cells
        monkeypatch.setattr(decomposition, "_BOOTSTRAP_CELLS", bound)


class TestBootstrapMatchesPerResampleLoop:
    """The blocked bootstrap gives the bytes of one statistic call per
    resample, whatever the block size."""

    @pytest.mark.parametrize("cells", _CELL_BOUNDS)
    @pytest.mark.parametrize("mc, seed", [(_SMALL_MC, 0), (MonteCarloConfig(37, 5, 3, 30), 11),
                                          (MonteCarloConfig(200, 2, 2, 4, r_summary=2), 5)])
    @pytest.mark.parametrize("process, mode, rho", [
        ("discrete_toy", "iid", 0.0),
        ("discrete_toy", "shared_summary", 0.0),
        ("gaussian_toy", "iid", 0.0),
        ("gaussian_toy", "correlated", 0.5),
    ])
    def test_builtin_report_bytes(self, monkeypatch, process, mode, rho, mc, seed, cells):
        _set_cells(monkeypatch, cells, mc.r_real)
        process = get_process(process)
        report, records = _with_records(monkeypatch, lambda: oracle_decompose(
            process, mode, m=3, mc=mc, seed=seed, rho=rho))
        assert report.to_json() == _oracle_reference(report, records, process, mode, 3, mc,
                                                     seed)

    @pytest.mark.parametrize("cells", _CELL_BOUNDS)
    @pytest.mark.parametrize("mode, rho", [("iid", 0.0), ("correlated", 0.5)])
    def test_trained_predictor_report_bytes(self, monkeypatch, mode, rho, cells):
        # ten test points: the per-point mean takes numpy's pairwise sum
        mc = MonteCarloConfig(5, 3, 2, 20)
        _set_cells(monkeypatch, cells, mc.r_real)
        process = get_process("gaussian_toy")
        points = np.linspace(-2.0, 2.0, 10)[:, None]
        report, records = _with_records(monkeypatch, lambda: oracle_decompose(
            process, mode, "knn:1", m=2, test_points=points, mc=mc, seed=4, rho=rho))
        assert report.config["n_test_points"] == 10
        assert report.to_json() == _oracle_reference(report, records, process, mode, 2, mc, 4)

    @pytest.mark.parametrize("cells", _CELL_BOUNDS)
    @pytest.mark.parametrize("mc, seed", [(_SMALL_MC, 0), (MonteCarloConfig(37, 5, 3, 4), 11),
                                          (MonteCarloConfig(300, 3, 2, 2), 5)])
    @pytest.mark.parametrize("m", [1, 4])
    def test_bregman_report_bytes(self, monkeypatch, m, mc, seed, cells):
        _set_cells(monkeypatch, cells, mc.r_real)
        process = get_process("discrete_toy")
        report, records = _with_records(monkeypatch, lambda: bregman_oracle_decompose(
            process, m=m, mc=mc, seed=seed))
        assert _bregman_json(report) == _bregman_reference(report, records, process, mc, seed)


class TestBregmanOracleChecks:
    """The Bregman oracle checks each distinct array once and keeps its bytes."""

    @pytest.mark.parametrize("m, seed, digest", [
        (4, 1, "6b4c5116864c042b76957ef8e90a93d2c01dff928f187f13375c87a8ad2a13fa"),
        (2, 5, "802c44d46969d31cb5be55a54fc248a930b50f0bbd4c3b4541d65c1b2ff647b7"),
    ])
    def test_report_bytes_are_pinned(self, m, seed, digest):
        # the digests of the reports composed from the public maps, which checked
        # every array at each use
        report = bregman_oracle_decompose("discrete_toy", m=m, mc=MonteCarloConfig(40, 6, 4, 4),
                                          seed=seed)
        assert hashlib.sha256(_bregman_json(report).encode()).hexdigest() == digest

    def test_each_array_is_checked_once(self, monkeypatch):
        # per replicate: the probability grid, the member stack, the per-draw
        # centres, their central prediction and the ensemble's dual average; per
        # statistic call: the overall centre and the per-replicate centres; once:
        # the outcomes, the class weights and their centre (11 per replicate before)
        shapes = []
        check = brg._check_domain

        def counting(spec, v):
            shapes.append(np.shape(v))
            return check(spec, v)
        monkeypatch.setattr(brg, "_check_domain", counting)
        r_real = 40
        bregman_oracle_decompose("discrete_toy", m=4, mc=MonteCarloConfig(r_real, 6, 4, 4))
        rows = decomposition._BOOTSTRAP_CELLS // r_real
        statistic_calls = 1 + -(-BOOTSTRAP_RESAMPLES // rows)
        assert len(shapes) == 3 + 5 * r_real + 2 * statistic_calls
        assert shapes.count((6, 4, 2)) == shapes.count((4, 2)) == r_real


_RECORD_NAMES = ("mv", "sdv_raw", "b", "fbar", "mse", "dpv_raw", "cov_raw")


def _assert_rows_match_per_resample(records, mode, mc, f_value, idx):
    block = decomposition._assemble(records, mode, mc, f_value, idx)
    for row, selection in enumerate(idx):
        reference = _assemble_per_resample(records, mode, mc, f_value, selection)
        assert set(block) == set(reference)
        for name, value in reference.items():
            assert np.asarray(block[name][row]).tobytes() == np.asarray(value).tobytes(), name


class TestBootstrapBlocks:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), r_real=st.integers(2, 300),
           n_points=st.sampled_from([0, 1, 9]),
           mode=st.sampled_from(["iid", SHARED_SUMMARY, CORRELATED]))
    def test_assemble_rows_match_per_resample(self, seed, r_real, n_points, mode):
        # n_points 0 is the built-in predictor's scalar point shape
        rng = np.random.default_rng(seed)
        shape = (r_real,) if n_points == 0 else (r_real, n_points)
        records = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3)
                   for name in _RECORD_NAMES}
        idx = rng.integers(0, r_real, size=(int(rng.integers(1, 50)), r_real))
        _assert_rows_match_per_resample(records, mode, MonteCarloConfig(r_real, 3, 4, 5, 6),
                                        0.3, idx)

    @pytest.mark.parametrize("point_shape", [(), (1,)])
    def test_bias_square_bits(self, point_shape):
        # a bias whose square by pow() and by multiplication differ in the last
        # bit with glibc: both shapes are squared by multiplication
        records = {name: np.zeros((4,) + point_shape) for name in _RECORD_NAMES}
        records["b"][:] = 0.29899614535390384
        _assert_rows_match_per_resample(records, "iid", MonteCarloConfig(4, 3, 4, 5), 0.0,
                                        np.array([[0, 1, 2, 3], [3, 3, 3, 3]]))

    @pytest.mark.parametrize("point_shape", [(), (1,)])
    def test_bias_square_is_the_product(self, point_shape):
        # pow() gives 0.08939869493649279 for this bias
        records = {name: np.zeros((4,) + point_shape) for name in _RECORD_NAMES}
        records["b"][:] = 0.29899614535390384
        stats = decomposition._assemble(records, "iid", MonteCarloConfig(4, 3, 4, 5), 0.0,
                                        np.arange(4)[None])
        assert np.asarray(stats["bias_sq"]).ravel().tolist() == [0.0893986949364928]

    @pytest.mark.parametrize("r_real, width, calls", [
        (2, 1, 2), (37, 1, 3), (200, 1, 11), (300, 1, 16), (9000, 1, 401),
        (5, 10, 4), (100, 1000, 401)])
    def test_statistic_calls_per_block(self, r_real, width, calls):
        cells = decomposition._BOOTSTRAP_CELLS
        rows = max(1, cells // (r_real * width))
        assert calls == math.ceil(BOOTSTRAP_RESAMPLES / rows) + 1
        values = np.arange(r_real, dtype=np.float64)
        shapes = []

        def statistic(idx):
            shapes.append(idx.shape)
            return {"mean": values[idx].mean(axis=1)}
        decomposition._estimates(0, r_real, statistic, width)
        assert len(shapes) == calls
        assert shapes[0] == (1, r_real)
        assert sum(rows for rows, _ in shapes[1:]) == BOOTSTRAP_RESAMPLES
        assert all(rows * r * width <= max(cells, r * width) for rows, r in shapes)

    @pytest.mark.parametrize("run, calls", [
        (lambda: oracle_decompose("discrete_toy", "shared_summary", m=2,
                                  mc=MonteCarloConfig(200, 2, 2, 2, r_summary=2)), 11),
        (lambda: bregman_oracle_decompose("discrete_toy", m=2,
                                          mc=MonteCarloConfig(300, 2, 2, 2)), 16),
        # 10 test points gather 10 values per replicate index
        (lambda: oracle_decompose("gaussian_toy", "iid", "knn:1", test_points=np.zeros((10, 1)),
                                  mc=MonteCarloConfig(5, 2, 2, 2)), 4),
    ])
    def test_oracles_score_resamples_in_blocks(self, monkeypatch, run, calls):
        counted = []
        estimates = decomposition._estimates

        def counting(seed, r_real, statistic, *width):
            def wrapped(idx):
                counted.append(idx.shape[0])
                return statistic(idx)
            return estimates(seed, r_real, wrapped, *width)
        monkeypatch.setattr(decomposition, "_estimates", counting)
        run()
        assert len(counted) == calls
        assert sum(counted) == BOOTSTRAP_RESAMPLES + 1

    def test_oracle_assembles_once_per_statistic_call(self, monkeypatch):
        # the per-point terms are the statistic's arrays on all replicates, not a
        # second assembly after the bootstrap
        counted = []
        assemble = decomposition._assemble

        def counting(*args):
            counted.append(args[-1].shape[0])
            return assemble(*args)
        monkeypatch.setattr(decomposition, "_assemble", counting)
        oracle_decompose("discrete_toy", "shared_summary", m=2,
                         mc=MonteCarloConfig(200, 2, 2, 2, r_summary=2))
        assert len(counted) == 11
        assert sum(counted) == BOOTSTRAP_RESAMPLES + 1


class TestOracleArithmetic:
    """Each oracle statistic is built from products and in-order sums only,
    so no platform pow() or BLAS dot chooses its last bits."""

    @pytest.mark.parametrize("point_shape", [(), (40,)])
    def test_cov_raw_sums_products_in_order(self, point_shape):
        r_theta = 20
        rng = np.random.default_rng(0)
        pairs = rng.normal(size=(r_theta, 2) + point_shape)
        draws = decomposition._Draws(np.zeros((1, r_theta)),
                                     rng.normal(size=(1, r_theta, 2) + point_shape), pairs,
                                     rng.normal(size=(2,) + point_shape), rng)
        out = decomposition._squared_stats(get_process("gaussian_toy"), point_shape,
                                           CORRELATED, MonteCarloConfig(2, r_theta, 2, 2), draws)
        g = pairs.reshape(r_theta, 2, -1)
        expected = [_sequential_cov(g[:, 0, k], g[:, 1, k]) for k in range(g.shape[2])]
        by_np_cov = [np.cov(g[:, 0, k], g[:, 1, k], ddof=1)[0, 1] for k in range(g.shape[2])]
        assert np.shape(out["cov_raw"]) == point_shape
        assert np.ravel(out["cov_raw"]).tolist() == expected
        if point_shape:                     # np.cov's BLAS dot differs on some points
            assert by_np_cov != expected

    def test_outcome_divergence_adds_in_order(self):
        spec = brg.BregmanSpec(brg.NEGENTROPY, 2)
        rng = np.random.default_rng(1)
        by_dot = []
        for p, q in rng.uniform(size=(200, 2)):
            weights, g = np.array([1.0 - p, p]), np.array([1.0 - q, q])
            d0, d1 = (brg.divergence(spec, y, g) for y in np.eye(2))
            value = decomposition._outcome_divergence(
                spec, brg._check_domain(spec, np.eye(2)), weights, brg._check_domain(spec, g))
            assert value == float(weights[0] * d0 + weights[1] * d1)
            by_dot.append(value == float(weights @ np.array([d0, d1])))
        assert not all(by_dot)              # the BLAS dot differs on some pairs


def _spreads_reference(grid):
    """_spreads from np.mean and np.var(ddof=1) alone."""
    a = grid.mean(axis=2)
    per_block = {"mv": grid.var(axis=2, ddof=1).mean(axis=1),
                 "sdv_raw": a.var(axis=1, ddof=1), "b": a.mean(axis=1)}
    out = {name: stat.mean(axis=0) for name, stat in per_block.items()}
    if grid.shape[0] > 1:
        out["dpv_raw"] = per_block["b"].var(axis=0, ddof=1)
    return out, grid.var(axis=2, ddof=1)


# signed zeros and values whose squares (or squared deviations) overflow
_GRID_SPECIALS = [0.0, -0.0, 1e200, -1e200, 1.5e308, -1.5e308]


class TestSpreads:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), blocks=st.integers(1, 4), r_theta=st.integers(2, 6),
           r_syn=st.sampled_from([2, 3, 5, 7, 20]),
           point=st.sampled_from([(), (1,), (3,), (1, 1), (2, 1), (3, 2)]),
           strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_mean_and_var_bit_for_bit(self, data, blocks, r_theta, r_syn, point,
                                                    strided, seed):
        # a 2-D point shape is estimate_mv_sdv_nested's (n_test, c); strided takes the
        # grid as every other column, as its binary positive-class view does
        shape = (blocks, r_theta, r_syn) + point + ((2,) if strided else ())
        grid = np.random.default_rng(seed).normal(size=shape)
        flat = grid.reshape(-1)
        for at, value in data.draw(st.lists(st.tuples(st.integers(0, flat.size - 1),
                                                      st.sampled_from(_GRID_SPECIALS)))):
            flat[at] = value
        if strided:
            grid = grid[..., 1]
        with np.errstate(over="ignore", invalid="ignore"):
            (got, got_within), (want, want_within) = (decomposition._spreads(grid),
                                                      _spreads_reference(grid))
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes(), name
        assert got_within.shape == want_within.shape == (blocks, r_theta) + point
        assert got_within.tobytes() == want_within.tobytes()


class TestOracleWorkspace:
    """The estimate chain keeps its grid in the calling thread's oracle
    workspace, which later replicates reuse."""

    def _reducer_grids(self, monkeypatch, name):
        """Wrap reducer name so each call records whether its grid is a view of
        the calling thread's oracle buffer."""
        shared, reduce = [], getattr(decomposition, name)

        def recording(*args):
            buffers = getattr(decomposition._ORACLE_WORKSPACE, "buffers", ())
            shared.append(bool(buffers) and np.shares_memory(args[-1].grid, buffers[0]))
            assert all(b.size <= _KNN_CELLS for b in buffers)
            return reduce(*args)
        monkeypatch.setattr(decomposition, name, recording)
        return shared

    @pytest.mark.parametrize("process, mode, rho, predictor", [
        ("discrete_toy", "shared_summary", 0.0, "builtin"),
        ("gaussian_toy", "correlated", 0.5, "builtin"),
        ("gaussian_toy", "iid", 0.0, "knn:3"),
    ])
    def test_every_replicate_reads_the_thread_buffer(self, monkeypatch, process, mode, rho,
                                                     predictor):
        shared = self._reducer_grids(monkeypatch, "_squared_stats")
        points = [[-1.0], [0.5]] if predictor != "builtin" else None
        oracle_decompose(process, mode, predictor, m=2, test_points=points, mc=_BLOCK_MC,
                         seed=2, rho=rho)
        assert shared == [True] * _BLOCK_MC.r_real

    def test_bregman_replicates_read_the_thread_buffer(self, monkeypatch):
        shared = self._reducer_grids(monkeypatch, "_bregman_stats")
        bregman_oracle_decompose("discrete_toy", m=2, mc=_SMALL_MC, seed=2)
        assert shared == [True] * _SMALL_MC.r_real

    def test_grid_above_the_budget_gets_fresh_memory(self, monkeypatch):
        shared = self._reducer_grids(monkeypatch, "_squared_stats")
        mc = MonteCarloConfig(3, 200, 200, 5)
        assert mc.r_theta * mc.r_syn > _KNN_CELLS
        oracle_decompose("gaussian_toy", "iid", m=2, mc=mc, seed=1)
        assert shared == [False] * mc.r_real

    def test_threads_reproduce_their_serial_reports(self):
        seeds = [3, 11]
        serial = [oracle_decompose("discrete_toy", SHARED_SUMMARY, m=2, mc=_BLOCK_MC,
                                   seed=seed).to_json() for seed in seeds]
        start, reports, buffers = threading.Barrier(len(seeds)), {}, {}

        def work(i):
            start.wait()
            reports[i] = oracle_decompose("discrete_toy", SHARED_SUMMARY, m=2, mc=_BLOCK_MC,
                                          seed=seeds[i]).to_json()
            buffers[i] = decomposition._ORACLE_WORKSPACE.buffers

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seeds))]
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
        assert [reports[i] for i in range(len(seeds))] == serial
        assert len({id(b) for held in buffers.values() for b in held}) == 4


_PROPERTY_MC = MonteCarloConfig(40, 8, 5, 200, r_summary=6)


class TestIdentityGapProperty:
    """The identity gap is zero in expectation, so over random process
    parameters it stays within the flag multiple of its standard error."""

    @settings(max_examples=12, deadline=None)
    @given(p0=st.floats(0.05, 0.95), n_real=st.integers(10, 300),
           n_synth=st.integers(10, 300), epsilon=st.floats(0.2, 10.0),
           mode=st.sampled_from(["iid", "shared_summary"]), m=st.integers(1, 8),
           seed=st.integers(0, 2**31 - 1))
    def test_discrete_toy(self, p0, n_real, n_synth, epsilon, mode, m, seed):
        proc = get_process("discrete_toy", p0=p0, n_real=n_real, n_synth=n_synth,
                           epsilon=epsilon)
        rep = oracle_decompose(proc, mode, m=m, mc=_PROPERTY_MC, seed=seed)
        assert rep.status == "ok", (rep.identity_gap, rep.identity_gap_se)

    @settings(max_examples=12, deadline=None)
    @given(mu0=st.floats(-10.0, 10.0), noise_sd=st.floats(0.1, 5.0),
           tau=st.floats(0.0, 2.0), mode=st.sampled_from(["iid", "correlated"]),
           rho=st.floats(0.0, 1.0), m=st.integers(1, 8),
           seed=st.integers(0, 2**31 - 1))
    def test_gaussian_toy(self, mu0, noise_sd, tau, mode, rho, m, seed):
        proc = get_process("gaussian_toy", mu0=mu0, noise_sd=noise_sd, tau=tau)
        # rho is refused in any mode but correlated
        rep = oracle_decompose(proc, mode, m=m, mc=_PROPERTY_MC, seed=seed,
                               rho=rho if mode == "correlated" else 0.0)
        assert rep.status == "ok", (rep.identity_gap, rep.identity_gap_se)


class TestBregmanBound:
    def test_equality_at_single_member(self):
        rep = bregman_oracle_decompose("discrete_toy", m=1,
                                       mc=MonteCarloConfig(250, 25, 8, 10), seed=41)
        assert abs(rep.bound_slack) <= 4.0 * rep.bound_slack_se
        assert rep.holds()

    def test_strict_slack_with_ensemble(self):
        rep = bregman_oracle_decompose("discrete_toy", m=4,
                                       mc=MonteCarloConfig(250, 25, 8, 10), seed=43)
        assert rep.bound_slack > 0
        assert rep.holds()

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_rejected(self, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            bregman_oracle_decompose("discrete_toy", m=m, mc=MonteCarloConfig(4, 2, 2, 2))

    @pytest.mark.parametrize("m", [2.5, 2.0, True])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            bregman_oracle_decompose("discrete_toy", m=m, mc=MonteCarloConfig(4, 2, 2, 2))

    def test_numpy_integer_m_accepted(self):
        mc = MonteCarloConfig(4, 2, 2, 2)
        rep = bregman_oracle_decompose("discrete_toy", m=np.int64(3), mc=mc)
        assert rep == bregman_oracle_decompose("discrete_toy", m=3, mc=mc)
        assert type(rep.config["m"]) is int

    def test_process_without_probability_predictor_rejected(self):
        with pytest.raises(ValueError, match="gaussian_toy.*probability predictor"):
            bregman_oracle_decompose("gaussian_toy", mc=MonteCarloConfig(4, 2, 2, 2))


class TestMseCurve:
    def _toy(self, seed=0):
        proc = get_process("gaussian_toy")
        data = proc.sample_real_dataset(make_rng(seed), 40)
        test = proc.sample_real_dataset(make_rng(seed + 1), 30)
        return proc, data, test

    def test_identity_generator_flat_curve(self):
        _, data, test = self._toy()
        res = mse_curve(GeneratorSpec("bootstrap", identity=True), data, "cart", test,
                        [1, 2, 4], repeats=2, seed=5)
        means = res.means()
        assert means[1] == means[2] == means[4]

    def test_single_point_equals_direct_evaluation(self):
        from genensemble.data import encode
        from genensemble.metrics import score_predictions
        from genensemble.predictors import predict_batch, train

        _, data, test = self._toy(3)
        gen = GeneratorSpec("bootstrap")
        spec = PredictorSpec("cart", "regression")
        res = mse_curve(gen, data, spec, test, [1], repeats=1, seed=11)

        rep_seed = child_seed(11, "repeat", 0)
        datasets, _ = generate_ensemble(gen, data, 1, "independent", seed=rep_seed)
        ds = datasets[0]
        model = train(spec, encode(ds, ds, False), child_seed(rep_seed, "train", 0))
        preds = predict_batch(model, encode(ds, test, False).x)
        expected = score_predictions(preds, encode(ds, test, False).y,
                                     MetricSpec("mse"), "regression").score
        assert res.means()[1] == pytest.approx(expected, abs=1e-12)

    def test_spec_syntax_predictor(self):
        # a string predictor is read as the CLI reads [predictors] specs
        _, data, test = self._toy(9)
        text = mse_curve(GeneratorSpec("bootstrap"), data, "knn:3", test, [1, 2],
                         repeats=2, seed=6)
        spec = mse_curve(GeneratorSpec("bootstrap"), data,
                         PredictorSpec("knn", "regression", k=3), test, [1, 2],
                         repeats=2, seed=6)
        assert text.rows == spec.rows
        assert {row["predictor"] for row in text.rows} == {"knn3"}

    def test_rows_cover_all_cells(self):
        _, data, test = self._toy(7)
        res = mse_curve(GeneratorSpec("bootstrap"), data, "cart", test, [1, 2],
                        repeats=3, seed=2)
        assert len(res.rows) == 6
        assert {row["m"] for row in res.rows} == {1, 2}
        assert {row["repeat"] for row in res.rows} == {0, 1, 2}

    def test_forest_curve_follows_two_point_rule(self):
        # bagging is bootstrap synthetic data, so the scaling law predicts the
        # forest curve from its one- and two-tree scores
        proc = get_process("gaussian_toy")
        test_ds = proc.sample_real_dataset(make_rng(72), 200)
        curves = [_forest_curve(proc.sample_real_dataset(make_rng(1000 + rep), 50), test_ds,
                                t_max=8, seed=rep)
                  for rep in range(30)]
        for t in (4, 8):
            diffs = np.array([c[1] - 2.0 * (1 - 1 / t) * (c[1] - c[2]) - c[t]
                              for c in curves])
            se = diffs.std(ddof=1) / math.sqrt(len(diffs))
            assert abs(diffs.mean()) <= 3.0 * se

    def test_curve_follows_scaling_law_and_two_point_prediction(self):
        # bootstrap + interpolating tree: measured errors drop like 1 - 1/m
        proc = get_process("gaussian_toy")
        data = proc.sample_real_dataset(make_rng(101), 50)
        test = proc.sample_real_dataset(make_rng(102), 150)
        res = mse_curve(GeneratorSpec("bootstrap"), data, "cart", test,
                        [1, 2, 4, 8], repeats=40, seed=19)
        rule = fit_rule_regression(res.means())
        assert rule.r_squared >= 0.9
        two = fit_rule_two_point(res.means()[1], res.means()[2])
        s1, s2 = res.per_repeat[1], res.per_repeat[2]
        for m in (4, 8):
            pred_r = s1 - 2.0 * (1 - 1 / m) * (s1 - s2)
            diff = pred_r - res.per_repeat[m]
            se = diff.std(ddof=1) / math.sqrt(diff.size)
            assert abs(diff.mean()) <= 3.0 * se
            assert predict_mse(two, m) == pytest.approx(pred_r.mean(), abs=1e-12)


def _xy_dataset(x, y, n_classes=0):
    """Numeric features x with a regression target, or class indices y of
    n_classes levels."""
    x = np.asarray(x, dtype=float)
    target = (Column("y", CATEGORICAL, TARGET, levels=tuple("abc"[:n_classes])) if n_classes
              else Column("y", NUMERIC, TARGET))
    schema = Schema(tuple(Column(f"x{j}", NUMERIC, FEATURE) for j in range(x.shape[1]))
                    + (target,))
    return Dataset(schema, np.column_stack([x, np.asarray(y, dtype=float)]))


def _forest_curve(data, test, t_max, seed, metric="mse"):
    """{trees: score} of the bootstrap ensemble of t_max CARTs."""
    task = data.schema.task
    block, y = ensemble_members(GeneratorSpec("bootstrap"), data, PredictorSpec("cart", task),
                                test, t_max, seed)
    curve = score_prefixes(block, y, range(1, t_max + 1), MEAN, MetricSpec(metric), task)
    return {t: result.score for t, result in curve.items()}


class TestForestCurve:
    def test_first_point_is_single_tree_score(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 1))
        data = _xy_dataset(x, np.sin(x[:, 0]) + rng.normal(scale=0.2, size=30))
        test = _xy_dataset(rng.normal(size=(20, 1)), rng.normal(size=20))
        curve = _forest_curve(data, test, t_max=4, seed=5)
        [ds], _ = generate_ensemble(GeneratorSpec("bootstrap"), data, 1, "independent", seed=5)
        model = train(PredictorSpec("cart", "regression"), encode(ds, ds, False))
        single = np.mean((predict_batch(model, encode(ds, test, False).x)
                          - test.target_values()) ** 2)
        assert curve[1] == pytest.approx(single)

    @pytest.mark.parametrize("n_classes, metric", [(0, "mse"), (2, "brier_binary")])
    def test_matches_running_mean_of_per_row_tree_predictions(self, n_classes, metric):
        rng = np.random.default_rng(7)
        x, x_test = rng.normal(size=(25, 2)), rng.normal(size=(15, 2))
        if n_classes:
            data, test = _xy_dataset(x, x[:, 0] > 0, 2), _xy_dataset(x_test, x_test[:, 1] > 0, 2)
        else:
            data, test = _xy_dataset(x, x[:, 0]), _xy_dataset(x_test, x_test[:, 1])
        task, t_max = data.schema.task, 9
        curve = _forest_curve(data, test, t_max, seed=2, metric=metric)
        datasets, _ = generate_ensemble(GeneratorSpec("bootstrap"), data, t_max,
                                        "independent", seed=2)
        running = 0.0
        for t, ds in enumerate(datasets, start=1):
            fm, fm_test = encode(ds, ds, False), encode(ds, test, False)
            tree = _grow_tree(fm.x, fm.y, task, fm.n_classes)
            running = running + _tree_predict_rows(tree, fm_test.x)[0]
            expected = score_predictions(running / t, fm_test.y, MetricSpec(metric), task)
            assert curve[t] == expected.score

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_test_features_rejected(self, bad):
        data = _xy_dataset([[0.0], [1.0], [2.0], [3.0]], [0.0, 1.0, 2.0, 3.0])
        test = _xy_dataset([[bad], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError, match="features must be finite"):
            _forest_curve(data, test, t_max=3, seed=0)

    def test_degenerate_bootstrap_flat_curve(self):
        data = _xy_dataset([[1.0]], [5.0])
        test = _xy_dataset([[0.0], [2.0]], [5.0, 6.0])
        assert len(set(_forest_curve(data, test, t_max=6, seed=0).values())) == 1

    @settings(max_examples=40, deadline=None)
    @given(n_classes=st.sampled_from([0, 2, 3]), n=st.integers(1, 30), d=st.integers(1, 3),
           t_max=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_members_are_trees_grown_alone(self, n_classes, n, d, t_max, seed):
        # bagging is the bootstrap generator: member t is the tree grown alone
        # on the rows that member t's sample stream draws
        rng = np.random.default_rng(seed)
        x, x_test = np.round(rng.normal(size=(n, d)), 1), rng.normal(size=(5, d))
        y = rng.integers(0, n_classes, size=n) if n_classes else rng.normal(size=n)
        data, test = _xy_dataset(x, y, n_classes), _xy_dataset(x_test, np.zeros(5), n_classes)
        task = data.schema.task
        block, _ = ensemble_members(GeneratorSpec("bootstrap"), data,
                                    PredictorSpec("cart", task), test, t_max, seed)
        assert len(block) == t_max
        for t, member in enumerate(block):
            idx = make_rng(child_seed(child_seed(seed, "member", t), "sample")).integers(
                0, n, size=n)
            tree = _grow_tree(x[idx], y[idx], task, n_classes)
            assert member.tobytes() == (_tree_predict_rows(tree, x_test)[0] + 0.0).tobytes()


def _categorical_data(seed, n=30):
    """n rows of two categorical features and a binary target: data every
    generator and mode can serve."""
    rng = make_rng(seed)
    schema = Schema((Column("a", CATEGORICAL, FEATURE, levels=("l0", "l1", "l2")),
                     Column("b", CATEGORICAL, FEATURE, levels=("l0", "l1")),
                     Column("y", CATEGORICAL, TARGET, levels=("no", "yes"))))
    return Dataset(schema, np.column_stack([rng.integers(0, k, size=n) for k in (3, 2, 2)]))


def _fresh_members(generator, data, predictor, test, m, rep_seed, mode="independent"):
    """ensemble_members computed from a new generate_ensemble call."""
    datasets, _ = generate_ensemble(generator, data, m, mode, seed=rep_seed)
    [block], y = decomposition._members([predictor], test, (
        (ds, child_seed(rep_seed, "train", i)) for i, ds in enumerate(datasets)))
    return block, y


_DP = GeneratorSpec("noisy_marginal_dp", epsilon=1.0, delta=1e-6)
_KNN = PredictorSpec("knn", "classification", k=3)


@functools.cache
def _member_calls():
    """A sequence of ensemble_members calls whose keys repeat, some of them
    with another predictor, and the bytes of each call made in this order."""
    data, other, test = _categorical_data(1), _categorical_data(2), _categorical_data(3, n=10)
    cart = PredictorSpec("cart", "classification")
    a = (_DP, data, _KNN, test, 3, 5, "independent")
    b = (_DP, data, cart, test, 3, 5, "independent")          # a's ensemble, another predictor
    c = (_DP, other, _KNN, test, 3, 5, "independent")
    d = (_DP, data, _KNN, test, 2, 5, "split_budget")
    e = (GeneratorSpec("bootstrap"), data, cart, test, 3, 6, "independent")
    calls = (a, a, b, c, a, d, d, e, b, c)
    return calls, [tuple(x.tobytes() for x in ensemble_members(*call)) for call in calls]


class TestEnsembleMembersCache:
    """ensemble_members keeps its last ensemble; a call serves it only for the
    same generator, data object, m, mode and rep_seed."""

    def test_no_entry_is_served_across_a_key_change(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return generate_ensemble(*args, **kwargs)
        monkeypatch.setattr(decomposition, "generate_ensemble", counting)
        data, test = _categorical_data(1), _categorical_data(3, n=10)
        base = (_DP, data, 3, "independent", 5)
        changes = [
            (_DP, _categorical_data(2), 3, "independent", 5),     # same schema, other rows
            (_DP, Dataset(data.schema, data.rows), 3, "independent", 5),   # equal, not the same
            (GeneratorSpec("bootstrap"), data, 3, "independent", 5),
            (GeneratorSpec("noisy_marginal_dp", epsilon=2.0, delta=1e-6), data, 3,
             "independent", 5),
            (_DP, data, 2, "independent", 5),
            (_DP, data, 3, "shared_summary", 5),
            (_DP, data, 3, "split_budget", 5),
            (_DP, data, 3, "independent", 6),
        ]

        def generations(key):
            """generate_ensemble calls made by one ensemble_members call, whose
            bytes must be those of a fresh ensemble."""
            generator, ds, m, mode, rep_seed = key
            before = len(calls)
            block, y = ensemble_members(generator, ds, _KNN, test, m, rep_seed, mode)
            fresh_block, fresh_y = _fresh_members(generator, ds, _KNN, test, m, rep_seed, mode)
            assert block.tobytes() == fresh_block.tobytes() and y.tobytes() == fresh_y.tobytes()
            return len(calls) - before

        assert generations(base) == 1 and generations(base) == 0
        for change in changes:
            assert generations(change) == 1 and generations(base) == 1

    def test_a_hit_still_checks_m(self):
        data, test = _categorical_data(1), _categorical_data(3, n=10)
        ensemble_members(GeneratorSpec("bootstrap"), data, _KNN, test, 1, 0)
        with pytest.raises(ValueError, match="m must be an integer"):
            ensemble_members(GeneratorSpec("bootstrap"), data, _KNN, test, True, 0)

    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(range(10)))
    def test_call_order_never_changes_a_block(self, order):
        calls, expected = _member_calls()
        for i in order:
            assert tuple(x.tobytes() for x in ensemble_members(*calls[i])) == expected[i]


class TestRunCells:
    """run_cells gives the curve.csv rows of each curve_cells cell's curve_repeat
    scores, in row order."""

    @staticmethod
    def _cells():
        data, test = _categorical_data(1), _categorical_data(3, n=10)
        return curve_cells(_DP, data, [_KNN, PredictorSpec("cart", "classification")], test,
                           [1, 2], 2, [MEAN, "dual_log_prob"], [MetricSpec("cross_entropy")],
                           seed=4)

    def test_scores_are_each_cells_in_row_order(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return generate_ensemble(*args, **kwargs)
        monkeypatch.setattr(decomposition, "generate_ensemble", counting)
        cells = self._cells()
        rows = run_cells(cells)
        assert len(calls) == 2                  # one per repeat, where row order makes 8
        assert rows == [{**labels, "m": m, "repeat": j, "score": score, "std_error": se}
                        for labels, j, args in cells
                        for m, (score, se) in curve_repeat(*args).items()]

    @pytest.mark.parametrize("jobs, message", [(0, "jobs must be >= 1"),
                                               (2.0, "jobs must be an integer")])
    def test_jobs_is_a_count(self, jobs, message):
        with pytest.raises(ValueError, match=message):
            run_cells(self._cells(), jobs)


class TestRunUnits:
    """run_units maps a function over units in order, serially or in a pool,
    and the oracle's replicates and the nested fits give the serial bytes at
    any jobs."""

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_results_are_in_unit_order(self, jobs):
        assert decomposition.run_units(math.factorial, range(6), jobs) == [
            math.factorial(i) for i in range(6)]

    @pytest.mark.parametrize("jobs, message", [(0, "jobs must be >= 1"),
                                               (True, "jobs must be an integer")])
    def test_jobs_is_a_count(self, jobs, message):
        with pytest.raises(ValueError, match=message):
            decomposition.run_units(math.factorial, range(3), jobs)

    @pytest.mark.parametrize("process, mode, rho, predictor", [
        ("discrete_toy", "iid", 0.0, "builtin"),
        ("discrete_toy", "shared_summary", 0.0, "builtin"),
        ("gaussian_toy", "correlated", 0.5, "builtin"),
        ("gaussian_toy", "iid", 0.0, "knn:3"),
    ])
    def test_oracle_report_bytes_at_any_jobs(self, process, mode, rho, predictor):
        points = [[-1.0], [0.5]] if predictor != "builtin" else None
        reports = [oracle_decompose(process, mode, predictor, m=2, test_points=points,
                                    mc=_SMALL_MC, seed=9, rho=rho, jobs=jobs).to_json()
                   for jobs in (1, 2, 3)]
        assert reports[1:] == reports[:1] * 2

    @pytest.mark.parametrize("predictor", ["cart", "knn:3"])
    def test_nested_estimate_at_two_jobs(self, predictor):
        data, test = _categorical_data(1), _categorical_data(3, n=10)
        serial, pooled = (estimate_mv_sdv_nested(GeneratorSpec("bootstrap"), data, predictor,
                                                 test, r_theta=3, s_per_theta=2, seed=6,
                                                 jobs=jobs)
                          for jobs in (1, 2))
        for name in ("mv_per_point", "sdv_per_point"):
            assert getattr(serial, name).tobytes() == getattr(pooled, name).tobytes()
        assert (serial.mv, serial.sdv, serial.mv_se, serial.sdv_se) == (
            pooled.mv, pooled.sdv, pooled.mv_se, pooled.sdv_se)


class TestCurveRepeatValidation:
    @pytest.mark.parametrize("m_values", [[0, 2], [-1, 4]])
    def test_m_below_one_rejected(self, m_values):
        from genensemble.decomposition import curve_repeat
        proc = get_process("gaussian_toy")
        data = proc.sample_real_dataset(make_rng(0), 10)
        with pytest.raises(ValueError, match="m values"):
            curve_repeat(GeneratorSpec("bootstrap"), data,
                         PredictorSpec("mean", "regression"), data, m_values, "mean",
                         MetricSpec("mse"), rep_seed=0)


    @pytest.mark.parametrize("predictor, test_kind, averaging, metric, m_values, message", [
        ("cart", "toy", "mean", "brier_binary", range(1, 17), "incompatible with task"),
        ("cart", "toy", "mean", "one_minus_auc", range(1, 17), "incompatible with task"),
        ("cart", "empty", "mean", "mse", range(1, 17), "the test set is empty"),
        ("cart", "discrete", "mean", "mse", range(1, 17), "columns are not the data's"),
        ("cart", "toy", "dual_log_prob", "mse", range(1, 17), "requires a classification"),
        (PredictorSpec("knn", "classification", k=3), "toy", "mean", "mse", range(1, 17),
         "'knn3' is for classification"),
        ("cart", "toy", "mean", "mse", [], "there are no m values"),
        ("cart", "three_classes", "mean", "brier_binary", range(1, 17),
         "brier_binary needs a binary task"),
    ])
    def test_a_bad_curve_is_refused_before_any_draw(self, monkeypatch, predictor, test_kind,
                                                    averaging, metric, m_values, message):
        from genensemble.decomposition import curve_repeat
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return generate_ensemble(*args, **kwargs)
        monkeypatch.setattr(decomposition, "generate_ensemble", counting)
        toy = get_process("gaussian_toy")
        data = toy.sample_real_dataset(make_rng(0), 20)
        test = toy.sample_real_dataset(make_rng(1), 10)
        if test_kind == "empty":
            test = Dataset(data.schema, np.empty((0, 2)))
        elif test_kind == "discrete":
            test = get_process("discrete_toy").sample_real_dataset(make_rng(1), 10)
        elif test_kind == "three_classes":
            data = test = _xy_dataset(np.arange(6.0)[:, None], [0, 1, 2, 0, 1, 2], n_classes=3)
        if isinstance(predictor, str):
            predictor = PredictorSpec(predictor, data.schema.task)
        with pytest.raises(ValueError, match=message):
            mse_curve(GeneratorSpec("bootstrap"), data, predictor, test, m_values, 2,
                      averaging, MetricSpec(metric))
        with pytest.raises(ValueError, match=message):
            curve_repeat(GeneratorSpec("bootstrap"), data, predictor, test, m_values,
                         averaging, MetricSpec(metric), rep_seed=0)
        assert calls == []

    @pytest.mark.parametrize("predictors, averagings, metrics, message", [
        (["knn:3", "knn:3"], ["mean"], ["mse"], "predictor 'knn3' is listed twice"),
        (["ridge:0.1234567", "ridge:0.1234568"], ["mean"], ["mse"],
         "predictor 'ridge0.123457' is listed twice"),
        ([], ["mean"], ["mse"], "there are no predictors"),
        (["knn:3"], [], ["mse"], "there are no averagings"),
        (["knn:3"], ["mean"], [], "there are no metrics"),
    ], ids=["same-spec-twice", "shared-label", "no-predictors", "no-averagings", "no-metrics"])
    def test_a_grid_of_no_cells_or_a_shared_label_is_refused(self, predictors, averagings,
                                                             metrics, message):
        # either would return no rows, or put two predictors' rows in one label group
        toy = get_process("gaussian_toy")
        data = toy.sample_real_dataset(make_rng(0), 20)
        test = toy.sample_real_dataset(make_rng(1), 10)
        with pytest.raises(ValueError, match=message):
            curve_cells(GeneratorSpec("bootstrap"), data,
                        [parse_predictor(text, "regression") for text in predictors], test,
                        [1, 2], 2, averagings, [MetricSpec(kind) for kind in metrics])


class TestOptionRules:
    """Every process and oracle option is checked by type and range, and the
    error names it."""

    @pytest.mark.parametrize("process, options, message", [
        ("gaussian_toy", {"tau": math.nan}, r"tau must lie in \[0, inf\] and be finite, got nan"),
        ("gaussian_toy", {"tau": math.inf}, r"tau must lie in \[0, inf\] and be finite"),
        ("gaussian_toy", {"tau": -0.1}, r"tau must lie in \[0, inf\]"),
        ("gaussian_toy", {"noise_sd": math.nan}, r"noise_sd must lie in \[0, inf\]"),
        ("gaussian_toy", {"noise_sd": -1.0}, r"noise_sd must lie in \[0, inf\]"),
        ("gaussian_toy", {"mu0": math.inf}, r"mu0 must lie in \[-inf, inf\] and be finite"),
        ("gaussian_toy", {"mu0": np.float32("nan")}, "mu0 must lie in"),
        ("gaussian_toy", {"mu0": "1.0"}, "mu0 must be a real number, got '1.0'"),
        ("gaussian_toy", {"tau": True}, "tau must be a real number, got True"),
        ("gaussian_toy", {"perfect": "no"}, "perfect must be a bool, got 'no'"),
        ("gaussian_toy", {"perfect": 1}, "perfect must be a bool, got 1"),
        ("gaussian_toy", {"n_real": 0}, "n_real must be >= 1"),
        ("gaussian_toy", {"n_synth": 2.0}, "n_synth must be an integer, got 2.0"),
        ("discrete_toy", {"p0": 1.5}, r"p0 must lie in \[0, 1\] and be finite, got 1.5"),
        ("discrete_toy", {"p0": -0.1}, r"p0 must lie in \[0, 1\]"),
        ("discrete_toy", {"p0": math.nan}, r"p0 must lie in \[0, 1\]"),
        ("discrete_toy", {"n_real": 0}, "n_real must be >= 1"),
        ("discrete_toy", {"n_synth": True}, "n_synth must be an integer, got True"),
        # a bool budget ran at epsilon 1 and a str one raised TypeError; a huge
        # int raised OverflowError
        ("discrete_toy", {"epsilon": True}, "epsilon must be a real number, got True"),
        ("discrete_toy", {"epsilon": "2"}, "epsilon must be a real number, got '2'"),
        ("discrete_toy", {"delta": "1e-6"}, "delta must be a real number, got '1e-6'"),
        ("discrete_toy", {"epsilon": 10**400}, "epsilon must lie within the float range"),
        ("gaussian_toy", {"mu0": 10**400}, "mu0 must lie within the float range"),
        ("gaussian_toy", {"tau": -10**400}, "tau must lie within the float range"),
    ])
    def test_process_option_refused(self, process, options, message):
        with pytest.raises(ValueError, match=message):
            get_process(process, **options)

    def test_process_options_are_stored_as_python_numbers(self):
        proc = get_process("gaussian_toy", mu0=np.float32(0.5), noise_sd=np.float64(2.0),
                           tau=0, n_real=np.int64(7), perfect=np.True_)
        values = (proc.mu0, proc.noise_sd, proc.tau, proc.n_real, proc.perfect)
        assert values == (0.5, 2.0, 0.0, 7, True)
        assert [type(v) for v in values] == [float, float, float, int, bool]
        assert type(get_process("discrete_toy", p0=1).p0) is float

    def test_budget_keeps_the_zero_noise_surrogate_and_int_values(self):
        assert get_process("discrete_toy", epsilon=math.inf).dp_sigma == 0.0
        proc = get_process("discrete_toy", epsilon=2, delta=np.float64(1e-6))
        assert (proc.epsilon, proc.delta) == (2.0, 1e-6)
        assert proc.dp_sigma == get_process("discrete_toy", epsilon=2.0, delta=1e-6).dp_sigma

    @pytest.mark.parametrize("rho", [True, np.True_, "0.5", None])
    def test_oracle_refuses_a_rho_that_is_not_a_real_number(self, rho):
        with pytest.raises(ValueError, match="rho must be a real number"):
            oracle_decompose("gaussian_toy", "correlated", m=2, rho=rho,
                             mc=MonteCarloConfig(2, 2, 2, 2))

    def test_oracle_records_rho_as_a_float(self):
        report = oracle_decompose("gaussian_toy", "correlated", m=2, rho=1,
                                  mc=MonteCarloConfig(3, 2, 2, 2))
        assert json.loads(report.to_json())["config"]["rho"] == 1.0
        assert type(report.config["rho"]) is float
        assert report.to_json() == oracle_decompose(
            "gaussian_toy", "correlated", m=2, rho=1.0, mc=MonteCarloConfig(3, 2, 2, 2)).to_json()


class TestCountRule:
    """Every public count is a Python or numpy integer, stored as int."""

    def _toy(self):
        proc = get_process("gaussian_toy")
        return (proc.sample_real_dataset(make_rng(0), 20),
                proc.sample_real_dataset(make_rng(1), 10))

    @pytest.mark.parametrize("make, message", [
        (lambda: MonteCarloConfig(10.0, 5, 3, 10), "r_real must be an integer"),
        (lambda: MonteCarloConfig(10, 5, 3, 10, r_summary=True),
         "r_summary must be an integer"),
        (lambda: PredictorSpec("knn", "regression", k=2.5), "k must be an integer"),
        (lambda: PredictorSpec("bagged_trees", "regression", n_trees="3"),
         "n_trees must be an integer"),
        (lambda: GeneratorSpec("bootstrap", n_synthetic=30.0),
         "n_synthetic must be an integer"),
    ])
    def test_non_integer_count_rejected_by_spec(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_non_integer_count_rejected_by_library_call(self):
        data, test = self._toy()
        gen = GeneratorSpec("bootstrap")
        with pytest.raises(ValueError, match="m values must be an integer, got 1.5"):
            mse_curve(gen, data, "mean", test, [1.5, 2, 2.9], repeats=1)
        with pytest.raises(ValueError, match="repeats must be an integer"):
            mse_curve(gen, data, "mean", test, [1, 2], repeats=2.0)
        with pytest.raises(ValueError, match="r_theta must be an integer"):
            estimate_mv_sdv_nested(gen, data, "mean", test, r_theta=4.0, s_per_theta=2)
        with pytest.raises(ValueError, match="m must be an integer"):
            generate_ensemble(gen, data, 2.0, "independent")
        with pytest.raises(ValueError, match="n_rows must be an integer"):
            sample(fit(gen, data, 0), 3.0, 0)
        rule = fit_rule_two_point(2.0, 1.5)
        for rule_of_thumb in (predict_mse, achieved_benefit):
            with pytest.raises(ValueError, match="m must be an integer"):
                rule_of_thumb(rule, 2.5)

    def test_numpy_counts_make_json_outputs(self):
        data, test = self._toy()
        mc = MonteCarloConfig(np.int64(3), np.int64(2), np.int64(2), np.int64(4),
                              r_summary=np.int64(2))
        assert all(type(getattr(mc, f.name)) is int for f in dataclasses.fields(mc))
        report = oracle_decompose("gaussian_toy", "iid", m=np.int64(2), mc=mc)
        assert json.loads(report.to_json())["config"]["mc"]["r_real"] == 3
        bregman = bregman_oracle_decompose("discrete_toy", m=np.int64(2), mc=mc)
        assert json.loads(json.dumps(dataclasses.asdict(bregman)))["config"]["m"] == 2

        gen = GeneratorSpec("bootstrap", n_synthetic=np.int64(15))
        _, record = generate_ensemble(gen, data, np.int64(2), "independent")
        assert json.loads(json.dumps(record.to_json_dict()))["n_rows"] == 15

        spec = PredictorSpec("knn", "regression", k=np.int64(3))
        assert type(spec.k) is int and spec.label == "knn3"
        curve = mse_curve(gen, data, spec, test, np.array([1, 2]), repeats=np.int64(2))
        assert [row["m"] for row in json.loads(json.dumps(curve.rows))] == [1, 2, 1, 2]
        est = estimate_mv_sdv_nested(gen, data, spec, test, r_theta=np.int64(2),
                                     s_per_theta=np.int64(2))
        assert type(est.r_theta) is int and type(est.s_per_theta) is int
