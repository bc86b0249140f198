"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are fixed here, not tuned at runtime: exact-arithmetic
checks use 1e-9 or tighter, Monte Carlo checks use 3 standard errors for
individual terms and 4 for the decomposition identity gap.
"""
import math

import numpy as np
from exact_bagged_nn import expected_mse

import genensemble as ge
from genensemble.bregman import (NEGENTROPY, BregmanSpec, check_total_variance, dual,
                                 dual_average, dual_inverse)
from genensemble.decomposition import TERM_SE_MULTIPLE, achieved_benefit
from genensemble.metrics import MetricSpec, score_predictions
from genensemble.processes import get_process
from genensemble.rng import make_rng


def report(number: int, title: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {title}")
    return ok


def test_01_rule_of_thumb_reproduces_published_table():
    # measured errors for the interpolating tree at m = 1 and m = 2
    rule = ge.fit_rule_two_point(9.37, 7.38)
    checks = [abs(rule.mv_plus_sdv - 3.98) <= 1e-12]

    exact = {4: 6.385, 8: 5.8875, 16: 5.63875, 32: 5.514375}   # hand arithmetic
    displayed = {4: 6.385, 8: 5.888, 16: 5.639, 32: 5.514}     # 3-decimal rounding
    measured = {4: (6.05, 0.237), 8: (5.43, 0.165), 16: (5.07, 0.274),
                32: (4.95, 0.348)}
    for m in (4, 8, 16, 32):
        pred = ge.predict_mse(rule, m)
        checks.append(abs(pred - exact[m]) <= 1e-9)
        checks.append(abs(pred - displayed[m]) <= 5e-4 + 1e-12)
        mean, sd = measured[m]
        checks.append(abs(mean - pred) <= 2.0 * sd + 0.8)

    ok = all(checks)
    assert report(1, "two-point rule reproduces published table arithmetic", ok)


def test_02_squared_error_identity_on_gaussian_toy():
    process = get_process("gaussian_toy")
    targets = process.analytic_terms            # mv 0.01, sdv 0.04, rdv 0.02
    mc = ge.MonteCarloConfig(200, 50, 20, 10000)
    checks = []
    for m in (1, 2, 5):
        rep = ge.oracle_decompose(process, "iid", m=m, mc=mc, seed=7)
        for name in ("mv", "sdv", "rdv", "sdb", "mb"):
            checks.append(rep.terms[name].within(targets[name]))
        checks.append(rep.terms["noise"].value == targets["noise"])
        checks.append(abs(rep.identity_gap) <= 4.0 * rep.identity_gap_se)
        checks.append(rep.status == "ok")
    ok = all(checks)
    assert report(2, "six-term identity holds on the Gaussian toy (m=1,2,5)", ok)


def test_03_dp_summary_variance_is_m_independent():
    process = get_process("discrete_toy")
    mc = ge.MonteCarloConfig(200, 50, 20, 10000, r_summary=30)
    rep1 = ge.oracle_decompose(process, "shared_summary", m=1, mc=mc, seed=31)
    rep8 = ge.oracle_decompose(process, "shared_summary", m=8, mc=mc, seed=37)
    d1, d8 = rep1.terms["dpvar"], rep8.terms["dpvar"]
    se = math.hypot(d1.std_error, d8.std_error)
    checks = [
        abs(d1.value - d8.value) <= 3.0 * se,
        abs(rep1.identity_gap) <= 4.0 * rep1.identity_gap_se,
        abs(rep8.identity_gap) <= 4.0 * rep8.identity_gap_se,
        rep1.status == "ok" and rep8.status == "ok",
    ]
    ok = all(checks)
    assert report(3, "shared-summary DPVAR agrees at m=1 and m=8", ok)


def test_04_covariance_term_tracks_generator_correlation():
    process = get_process("gaussian_toy")
    mc = ge.MonteCarloConfig(200, 50, 20, 10000)
    checks = []
    for rho, seed in ((0.0, 3), (0.5, 5), (1.0, 13)):
        rep = ge.oracle_decompose(process, "correlated", m=2, rho=rho, mc=mc,
                                  seed=seed)
        cov, sdv = rep.terms["cov"], rep.terms["sdv"]
        se = math.hypot(cov.std_error, rho * sdv.std_error)
        checks.append(abs(cov.value - rho * sdv.value) <= 3.0 * se)
        checks.append(abs(rep.identity_gap) <= 4.0 * rep.identity_gap_se)
        checks.append(rep.status == "ok")
    ok = all(checks)
    assert report(4, "COV matches rho*SDV for rho in {0, 0.5, 1}", ok)


def test_05_error_curve_follows_one_minus_one_over_m():
    process = get_process("gaussian_toy")
    data = process.sample_real_dataset(make_rng(101), 60)
    test = process.sample_real_dataset(make_rng(102), 300)
    curve = ge.mse_curve(ge.GeneratorSpec("bootstrap", n_synthetic=60), data,
                         ge.PredictorSpec("cart", "regression"), test,
                         [1, 2, 4, 8, 16], repeats=100, seed=55)
    fit = ge.fit_rule_regression(curve.means())
    checks = [fit.r_squared >= 0.95, fit.mv_plus_sdv > 0]

    s1, s2 = curve.per_repeat[1], curve.per_repeat[2]
    for m in (4, 8, 16):
        per_repeat_pred = s1 - 2.0 * (1.0 - 1.0 / m) * (s1 - s2)
        diff = per_repeat_pred - curve.per_repeat[m]
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        checks.append(abs(diff.mean()) <= 3.0 * se)

    # a 1-D CART grown to pure leaves predicts the nearest training x, so each
    # m has an exact E[MSE(m) | data]: bagged 1-NN with s = 60 draws
    real, scored = ge.encode(data, data, False), ge.encode(data, test, False)
    for m, scores in curve.per_repeat.items():
        exact = expected_mse(real.x, real.y, scored.x, scored.y, 60, m)
        se = scores.std(ddof=1) / math.sqrt(scores.size)
        checks.append(abs(scores.mean() - exact) <= TERM_SE_MULTIPLE * se)
    ok = all(checks)
    assert report(5, "bootstrap+tree curve follows the 1-1/m law (R^2, "
                     "two-point prediction and exact bagged 1-NN values)", ok)


def test_06_variance_spectrum_ordering():
    process = get_process("gaussian_toy")
    data = process.sample_real_dataset(make_rng(42), 60)
    test = process.sample_real_dataset(make_rng(43), 40)
    generator = ge.GeneratorSpec("truth_process", process="gaussian_toy",
                                 n_synthetic=100)
    totals = {}
    for label, spec in [("knn1", ge.PredictorSpec("knn", "regression", k=1)),
                        ("knn5", ge.PredictorSpec("knn", "regression", k=5)),
                        ("cart", ge.PredictorSpec("cart", "regression")),
                        ("ridge", ge.PredictorSpec("ridge", "regression", lam=1.0))]:
        est = ge.estimate_mv_sdv_nested(generator, data, spec, test,
                                        r_theta=32, s_per_theta=5, seed=9)
        totals[label] = (est.mv + est.sdv, math.hypot(est.mv_se, est.sdv_se))

    def separated(high, low):
        gap = totals[high][0] - totals[low][0]
        return gap > 3.0 * math.hypot(totals[high][1], totals[low][1])

    ok = separated("knn1", "knn5") and separated("cart", "ridge")
    assert report(6, "nested MV+SDV orders 1-NN > 5-NN and tree > ridge", ok)


def test_07_bregman_suite():
    checks = []
    # dual round trip on 1000 random simplex points
    spec3 = BregmanSpec(NEGENTROPY, 3)
    rng = make_rng(77)
    raw = rng.gamma(1.0, size=(1000, 3))
    pts = raw / raw.sum(axis=1, keepdims=True)
    back = dual_inverse(spec3, dual(spec3, pts))
    checks.append(float(np.max(np.abs(back - pts))) <= 1e-10)

    # dual averaging of the worked example
    spec2 = BregmanSpec(NEGENTROPY, 2)
    avg = dual_average(spec2, [[0.9, 0.1], [0.5, 0.5]])
    checks.append(float(np.max(np.abs(avg - [0.75, 0.25]))) <= 1e-12)

    # generalized law of total variance on empirical measures
    worst = 0.0
    for trial in range(25):
        raw = rng.gamma(1.0, size=(12, 2))
        samples = raw / raw.sum(axis=1, keepdims=True)
        groups = [samples[:3], samples[3:7], samples[7:]]
        _, _, gap = check_total_variance(spec2, groups)
        worst = max(worst, abs(gap))
    checks.append(worst <= 1e-9)

    # dual-averaged ensemble error bound on the discrete toy
    bound = ge.bregman_oracle_decompose("discrete_toy", m=4,
                                        mc=ge.MonteCarloConfig(300, 30, 10, 10),
                                        seed=5)
    checks.append(bound.holds(3.0))
    ok = all(checks)
    assert report(7, "Bregman dual maps, total-variance law, and ensemble bound", ok)


def test_08_exact_small_identities():
    checks = []
    # multiclass Brier is exactly twice the binary Brier on two classes
    rng = make_rng(15)
    raw = rng.random((100, 2))
    preds = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, size=100)
    binary = score_predictions(preds, labels, MetricSpec("brier_binary"),
                               "classification").per_point
    multi = score_predictions(preds, labels, MetricSpec("brier_multiclass"),
                              "classification").per_point
    checks.append(float(np.max(np.abs(multi - 2.0 * binary))) <= 1e-12)

    # m = 1 returns the single-dataset error exactly
    rule = ge.fit_rule_two_point(9.37, 7.38)
    checks.append(ge.predict_mse(rule, 1) == 9.37)

    # identity generator: flat curve and zero variance components
    process = get_process("gaussian_toy")
    data = process.sample_real_dataset(make_rng(1), 30)
    test = process.sample_real_dataset(make_rng(2), 20)
    identity = ge.GeneratorSpec("bootstrap", identity=True)
    curve = ge.mse_curve(identity, data, "cart", test, [1, 2, 4], repeats=2, seed=3)
    means = list(curve.means().values())
    checks.append(all(v == means[0] for v in means))
    nested = ge.estimate_mv_sdv_nested(identity, data, "cart", test,
                                       r_theta=4, s_per_theta=3, seed=0)
    checks.append(nested.mv == 0.0 and nested.sdv == 0.0)

    # benefit fractions at m = 2, 10, 100
    benefit = rule.mv_plus_sdv
    for m, frac in ((2, 0.5), (10, 0.9), (100, 0.99)):
        checks.append(achieved_benefit(rule, m) == frac * benefit)

    ok = all(checks)
    assert report(8, "exact identities (Brier factor, m=1, identity generator, "
                     "benefit fractions)", ok)
