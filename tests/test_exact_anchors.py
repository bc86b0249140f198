"""The parametric generators against their exact values (exact_parametric.py):
the nested estimator and the measured curves lie within TERM_SE_MULTIPLE
standard errors of them."""
import math

import numpy as np
import pytest
from exact_parametric import (bootstrap_mean_mv, gaussian_ppd_expected_mse, gaussian_ppd_mv_sdv,
                              shared_summary_expected_brier)

from genensemble.data import CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Dataset, Schema
from genensemble.decomposition import TERM_SE_MULTIPLE, estimate_mv_sdv_nested, mse_curve
from genensemble.generators import GeneratorSpec, fit_dp_summary
from genensemble.metrics import MetricSpec
from genensemble.predictors import PredictorSpec
from genensemble.rng import child_seed, make_rng

M_VALUES = [1, 2, 4, 8]


def _numeric(n, seed):
    """n rows of three standard-normal features and a target that depends on them."""
    schema = Schema(tuple(Column(f"x{j}", NUMERIC, FEATURE) for j in range(3))
                    + (Column("y", NUMERIC, TARGET),))
    rng = make_rng(seed)
    x = rng.normal(size=(n, 3))
    y = x @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=n)
    return Dataset(schema, np.column_stack([x, y]))


def _categorical(n, seed):
    """n rows of one 3-level feature and a binary target that depends on it."""
    schema = Schema((Column("a", CATEGORICAL, FEATURE, levels=("l0", "l1", "l2")),
                     Column("y", CATEGORICAL, TARGET, levels=("no", "yes"))))
    rng = make_rng(seed)
    a = rng.integers(0, 3, size=n)
    y = rng.random(n) < np.array([0.2, 0.5, 0.7])[a]
    return Dataset(schema, np.column_stack([a, y]).astype(np.float64))


def _three_level(n, seed):
    """n rows of one 3-level feature and a 3-level target that depends on it."""
    levels = ("l0", "l1", "l2")
    schema = Schema((Column("a", CATEGORICAL, FEATURE, levels=levels),
                     Column("y", CATEGORICAL, TARGET, levels=levels)))
    rng = make_rng(seed)
    a = rng.integers(0, 3, size=n)
    y = (a + (rng.random(n) < 0.4)) % 3
    return Dataset(schema, np.column_stack([a, y]).astype(np.float64))


class TestGaussianPpdMean:
    data, test = _numeric(80, 1), _numeric(200, 2)

    def test_nested_estimate(self):
        est = estimate_mv_sdv_nested(GeneratorSpec("gaussian_ppd", n_synthetic=80), self.data,
                                     PredictorSpec("mean", "regression"), self.test,
                                     r_theta=64, s_per_theta=5, seed=3)
        mv, sdv = gaussian_ppd_mv_sdv(self.data.target_values(), 80)
        assert abs(est.mv - mv) <= TERM_SE_MULTIPLE * est.mv_se
        assert abs(est.sdv - sdv) <= TERM_SE_MULTIPLE * est.sdv_se

    @pytest.mark.parametrize("n_synthetic", [80, 20])
    def test_curve(self, n_synthetic):
        curve = mse_curve(GeneratorSpec("gaussian_ppd", n_synthetic=n_synthetic), self.data,
                          PredictorSpec("mean", "regression"), self.test, M_VALUES,
                          repeats=100, seed=5)
        for m, scores in curve.per_repeat.items():
            exact = gaussian_ppd_expected_mse(self.data.target_values(),
                                              self.test.target_values(), n_synthetic, m)
            se = scores.std(ddof=1) / math.sqrt(scores.size)
            assert abs(scores.mean() - exact) <= TERM_SE_MULTIPLE * se, m


class TestSharedSummaryMean:
    @pytest.mark.parametrize("metric, make, share", [
        ("brier_binary", _categorical, 0.5),     # brier_binary is half the two-class sum
        ("brier_multiclass", _three_level, 1.0),
    ], ids=["binary", "three_level"])
    @pytest.mark.parametrize("n_synthetic", [300, 30])
    def test_brier_curve_given_each_summary(self, n_synthetic, metric, make, share):
        data, test = make(300, 3), make(300, 4)
        spec = GeneratorSpec("noisy_marginal_dp", n_synthetic=n_synthetic, epsilon=1.0,
                             delta=1e-6)
        repeats, seed = 300, 9
        curve = mse_curve(spec, data, PredictorSpec("mean", "classification"), test,
                          M_VALUES, repeats, metric=MetricSpec(metric), seed=seed,
                          mode="shared_summary")
        # each repeat's ensemble draws from the summary its seed releases
        target = data.schema.target_index
        counts = [fit_dp_summary(data, 1.0, 1e-6,
                                 child_seed(child_seed(seed, "repeat", j), "summary")
                                 ).counts[target] for j in range(repeats)]
        for m, scores in curve.per_repeat.items():
            exact = [share * shared_summary_expected_brier(c, data.n, test.target_values(),
                                                           n_synthetic, m) for c in counts]
            diff = scores - np.array(exact)
            se = diff.std(ddof=1) / math.sqrt(repeats)
            assert abs(diff.mean()) <= TERM_SE_MULTIPLE * se, m


def test_bootstrap_nested_estimate_sums_the_classes():
    """On a 3-level target the nested estimator's per-class sum is the exact
    brier_multiclass MV, and SDV is 0."""
    data, test = _three_level(300, 3), _three_level(300, 4)
    est = estimate_mv_sdv_nested(GeneratorSpec("bootstrap", n_synthetic=300), data,
                                 PredictorSpec("mean", "classification"), test,
                                 r_theta=64, s_per_theta=5, seed=9)
    mv = bootstrap_mean_mv(data.target_values(), 3, 300)
    assert abs(est.mv - mv) <= TERM_SE_MULTIPLE * est.mv_se
    assert abs(est.sdv) <= TERM_SE_MULTIPLE * est.sdv_se
