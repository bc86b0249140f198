import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genensemble import bregman as brg
from genensemble import decomposition
from genensemble.data import (CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Dataset, Schema,
                              encode)
from genensemble.decomposition import (CORRELATED, SHARED_SUMMARY, MonteCarloConfig,
                                       achieved_benefit, bregman_oracle_decompose,
                                       estimate_mv_sdv_nested, fit_rule_regression,
                                       fit_rule_two_point, mse_curve, oracle_decompose,
                                       predict_mse)
from genensemble.generators import GeneratorSpec, fit, generate_ensemble, sample
from genensemble.metrics import MetricSpec
from genensemble.predictors import PredictorSpec, predict_batch, train
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

    def test_single_m_rejected(self):
        with pytest.raises(ValueError):
            fit_rule_regression({4: 1.0})

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

    def test_multiclass_summed_variant_is_flagged(self):
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
        assert est.multiclass_experimental
        assert est.mv >= 0.0

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
        assert not est.multiclass_experimental
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
    within_var = preds.var(axis=1, ddof=1).sum(axis=-1)
    mv_per_point = within_var.mean(axis=0)
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
        assert est.multiclass_experimental == (n_classes == 3)


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

    def test_negative_variance_term_is_reported(self):
        # an ordinary fluctuation at tiny Monte Carlo counts keeps its report
        rep = oracle_decompose("gaussian_toy", "iid", m=1,
                               mc=MonteCarloConfig(3, 4, 3, 20), seed=15)
        rdv = rep.terms["rdv"]
        assert rdv.value < -3.0 * rdv.std_error
        assert abs(rep.identity_gap) <= 4.0 * rep.identity_gap_se
        assert rep.status == "term_negative"

    def test_report_serializes(self):
        rep = oracle_decompose("gaussian_toy", "iid", m=1,
                               mc=MonteCarloConfig(20, 5, 3, 100), seed=0)
        import json
        parsed = json.loads(rep.to_json())
        assert set(parsed["terms"]) >= {"mse", "mv", "sdv", "rdv", "noise"}
        assert parsed["coverage"]["identity_se_multiple"] == 4.0


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
            cov = [np.cov(g[:, 0, k], g[:, 1, k], ddof=1)[0, 1] for k in range(g.shape[2])]
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
        err_r[r] = float(y_weights @ np.array([brg.divergence(spec, y0, g_hat),
                                               brg.divergence(spec, y1, g_hat)]))
    return mv_r, sdv_r, c_r_dual, err_r


# counts below numpy's 8-element unrolled sum, within its 128-element block,
# and past it (r_theta 130), so every summation path is compared
_SMALL_MC = MonteCarloConfig(6, 4, 3, 20, r_summary=3)
_BLOCK_MC = MonteCarloConfig(12, 9, 10, 50, r_summary=11)
_WIDE_MC = MonteCarloConfig(10, 130, 9, 20, r_summary=9)


class TestOracleMatchesPerSummaryReduction:
    def _both(self, monkeypatch, **kwargs):
        new = oracle_decompose(**kwargs).to_json()
        monkeypatch.setattr(decomposition, "_collect", _collect_reference)
        return new, oracle_decompose(**kwargs).to_json()

    @pytest.mark.parametrize("mc, seed", [(_SMALL_MC, 0), (_BLOCK_MC, 7), (_WIDE_MC, 123)])
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

    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("mode, rho", [("iid", 0.0), ("correlated", 0.0),
                                           ("correlated", 0.5), ("correlated", 1.0)])
    def test_trained_predictor_report_bytes(self, monkeypatch, mode, rho, seed, m):
        # three test points: point_shape (3,) reduces along a non-trailing axis
        new, old = self._both(monkeypatch, process="gaussian_toy", generator_mode=mode,
                              predictor=PredictorSpec("knn", "regression", k=3), m=m,
                              test_points=[[-1.0], [0.0], [1.5]],
                              mc=MonteCarloConfig(3, 3, 3, 20), seed=seed, rho=rho)
        assert new == old

    @pytest.mark.parametrize("mc, seed", [(_SMALL_MC, 0), (_BLOCK_MC, 7), (_WIDE_MC, 123)])
    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_bregman_report_bytes(self, monkeypatch, seed, m, mc):
        def report():
            rep = bregman_oracle_decompose("discrete_toy", m=m, mc=mc, seed=seed)
            return json.dumps(dataclasses.asdict(rep), sort_keys=True)

        new = report()
        monkeypatch.setattr(decomposition, "_collect_bregman", _collect_bregman_reference)
        assert new == report()


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
        rep = oracle_decompose(proc, mode, m=m, mc=_PROPERTY_MC, seed=seed, rho=rho)
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
        from genensemble.data import encode
        from genensemble.predictors import train_forest_curve

        proc = get_process("gaussian_toy")
        test_ds = proc.sample_real_dataset(make_rng(72), 200)
        curves = []
        for rep in range(30):
            data = proc.sample_real_dataset(make_rng(1000 + rep), 50)
            fm_train = encode(data, data, False)
            fm_test = encode(data, test_ds, False)
            curves += train_forest_curve(fm_train, fm_test, t_max=8,
                                         metrics=[MetricSpec("mse")], seed=rep)
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
