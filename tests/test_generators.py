import hashlib
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from genensemble.data import (CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Dataset,
                              Schema)
from genensemble.generators import (DIRICHLET_SMOOTHING, EnsembleProvenance, GeneratorParams,
                                    GeneratorSpec, PrivateSummary, _dp_summary_with_rho,
                                    check_ensemble_request, epsilon_from_rho, fit, fit_dp_summary,
                                    gaussian_noise_scale, generate_ensemble,
                                    project_to_simplex, rho_from_epsilon, sample,
                                    sample_params_from_summary)
from genensemble.processes import get_process
from genensemble.rng import child_seed, make_rng

NUM_SCHEMA = Schema((Column("x", NUMERIC, FEATURE), Column("y", NUMERIC, TARGET)))
CAT_SCHEMA = Schema((Column("a", CATEGORICAL, FEATURE, levels=("l0", "l1")),
                     Column("y", CATEGORICAL, TARGET, levels=("n", "p"))))


def cat_dataset(rows):
    return Dataset(CAT_SCHEMA, np.asarray(rows, dtype=float))


class TestFit:
    def test_bootstrap_params_reference_data_independent_of_seed(self):
        data = Dataset(NUM_SCHEMA, np.array([[1.0, 2.0], [3.0, 4.0]]))
        p1 = fit(GeneratorSpec("bootstrap"), data, seed=1)
        p2 = fit(GeneratorSpec("bootstrap"), data, seed=999)
        assert p1.data is data and p2.data is data

    def test_gaussian_ppd_posterior_mean_centering(self):
        # single column with values {0, 2}: posterior predictive mean centers on 1
        schema = Schema((Column("y", NUMERIC, TARGET),))
        data = Dataset(schema, np.array([[0.0], [2.0]]))
        spec = GeneratorSpec("gaussian_ppd")
        draws = np.array([fit(spec, data, seed=s).mean[0] for s in range(1000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 3.0 * se

    def test_gaussian_ppd_rejects_categorical(self):
        data = cat_dataset([[0, 1]])
        with pytest.raises(ValueError, match="categorical"):
            fit(GeneratorSpec("gaussian_ppd"), data, seed=0)

    def test_gaussian_ppd_handles_singular_data(self):
        # two identical rows: scatter matrix is singular, ridge keeps it PD
        data = Dataset(NUM_SCHEMA, np.array([[1.0, 2.0], [1.0, 2.0]]))
        params = fit(GeneratorSpec("gaussian_ppd"), data, seed=0)
        assert np.all(np.isfinite(params.cov))

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 6), data=st.data(), scale=st.floats(0.1, 10.0),
           seed=st.integers(0, 2**63 - 1))
    def test_gaussian_ppd_draw_matches_scipy_invwishart(self, d, data, scale, seed):
        # the covariance is Bartlett's decomposition on scipy's random stream, so the
        # mean that follows it draws the same numbers
        n = data.draw(st.integers(d + 1, 400))
        schema = Schema(tuple(Column(f"x{i}", NUMERIC, FEATURE) for i in range(d - 1))
                        + (Column("y", NUMERIC, TARGET),))
        rows = make_rng(seed).normal(size=(n, d)) * scale
        scatter = (rows - rows.mean(axis=0)).T @ (rows - rows.mean(axis=0))
        psi_n = scatter / n + 1e-6 * np.eye(d) + scatter
        made = []

        def recording_rng(s):
            made.append(make_rng(s))
            return made[-1]

        with mock.patch("genensemble.generators.make_rng", recording_rng):
            cov = fit(GeneratorSpec("gaussian_ppd"), Dataset(schema, rows), seed).cov
        ref_rng = make_rng(seed)
        ref = np.atleast_2d(stats.invwishart.rvs(df=d + 2.0 + n, scale=psi_n,
                                                 random_state=ref_rng))
        np.testing.assert_allclose(cov, ref, rtol=0, atol=1e-14 * np.abs(ref).max())
        ref_rng.multivariate_normal(np.zeros(d), np.eye(d), method="cholesky")
        assert made[0].bit_generator.state == ref_rng.bit_generator.state
        assert np.array_equal(cov, cov.T) and np.linalg.eigvalsh(cov).min() > 0

    def test_noisy_marginal_zero_noise_gives_exact_frequencies(self):
        data = cat_dataset([[0, 1], [0, 0], [1, 1], [0, 1]])
        spec = GeneratorSpec("noisy_marginal_dp", epsilon=math.inf, delta=1e-6)
        params = fit(spec, data, seed=5)
        np.testing.assert_allclose(params.probs[0], [0.75, 0.25], atol=1e-12)
        np.testing.assert_allclose(params.probs[1], [0.25, 0.75], atol=1e-12)

    def test_empty_data_rejected(self):
        data = Dataset(NUM_SCHEMA, np.zeros((0, 2)))
        with pytest.raises(ValueError):
            fit(GeneratorSpec("bootstrap"), data, seed=0)


class TestSample:
    def test_bootstrap_single_row_support(self):
        data = Dataset(NUM_SCHEMA, np.array([[7.0, 9.0]]))
        params = fit(GeneratorSpec("bootstrap"), data, seed=0)
        synth = sample(params, 20, seed=3)
        assert np.all(synth.rows == [7.0, 9.0])

    def test_degenerate_probability_vector(self):
        summary_free = fit(GeneratorSpec("noisy_marginal_dp", epsilon=math.inf,
                                         delta=1e-6),
                           cat_dataset([[0, 0], [0, 0]]), seed=0)
        synth = sample(summary_free, 50, seed=1)
        assert np.all(synth.rows == 0.0)

    def test_gaussian_sample_mean_clt_bound(self):
        schema = Schema((Column("y", NUMERIC, TARGET),))
        from genensemble.generators import GeneratorParams
        params = GeneratorParams(kind="gaussian_ppd", mean=np.zeros(1),
                                 cov=np.eye(1), schema=schema)
        synth = sample(params, 10000, seed=2)
        assert abs(synth.rows.mean()) <= 3.0 / math.sqrt(10000)

    def test_identity_option_returns_data_verbatim(self):
        data = Dataset(NUM_SCHEMA, np.array([[1.0, 2.0], [3.0, 4.0]]))
        params = fit(GeneratorSpec("bootstrap", identity=True), data, seed=0)
        synth = sample(params, 2, seed=9)
        assert np.array_equal(synth.rows, data.rows)


class TestPrivacyAccounting:
    def test_conversion_round_trip(self):
        for eps, delta in [(0.1, 1e-6), (1.5, 1e-9), (8.0, 1e-5)]:
            rho = rho_from_epsilon(eps, delta)
            assert abs(epsilon_from_rho(rho, delta) - eps) < 1e-9

    @pytest.mark.parametrize("eps", [1e4, 1e6, 1e8, 1e300])
    def test_large_epsilon_inverts_to_adjacent_floats(self, eps):
        # adjacent floats lie more than 1e-12 apart from rho = 2**13 on
        rho = rho_from_epsilon(eps, 1e-6)
        assert epsilon_from_rho(rho, 1e-6) == eps

    @pytest.mark.parametrize("eps, delta, bits", [
        (1.0, 1e-6, "0x1.1e35e5ab8a6b0p-6"),
        (8.0, 1e-5, "0x1.0c9430a94dc74p+0"),
        (3000.0, 1e-9, "0x1.3da197032c917p+11"),
        (0.001, 0.5, "0x1.82fdcc240c509p-22"),
    ])
    def test_moderate_epsilon_bits_pinned(self, eps, delta, bits):
        assert rho_from_epsilon(eps, delta).hex() == bits

    @settings(max_examples=150, deadline=None)
    @given(eps=st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
                         st.sampled_from([5e-324, 1e-170, 1e-6, sys.float_info.max])),
           delta=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           st.just(1e-310)))
    def test_rho_is_the_largest_float_within_budget(self, eps, delta):
        if epsilon_from_rho(5e-324, delta) > eps:
            with pytest.raises(ValueError, match="epsilon"):
                rho_from_epsilon(eps, delta)
            return
        rho = rho_from_epsilon(eps, delta)
        assert rho > 0
        assert (epsilon_from_rho(rho, delta) <= eps
                < epsilon_from_rho(math.nextafter(rho, math.inf), delta))

    def test_small_epsilon_does_not_overspend(self):
        # bisecting to 1e-12 absolute gave rho = 4.77e-13 here, a spend of 5.1e-6
        assert epsilon_from_rho(rho_from_epsilon(1e-6, 1e-6), 1e-6) <= 1e-6

    def test_epsilon_that_buys_no_rho_is_refused(self):
        # rho = 0 used to reach gaussian_noise_scale and divide by zero
        data = cat_dataset([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="epsilon"):
            fit_dp_summary(data, 5e-324, 1e-6, 0)
        with pytest.raises(ValueError, match="epsilon"):
            generate_ensemble(GeneratorSpec("noisy_marginal_dp", epsilon=5e-324, delta=1e-6),
                              data, 2, "shared_summary")
        with pytest.raises(ValueError, match="epsilon"):
            get_process("discrete_toy", epsilon=5e-324)

    def test_noise_scale_formula(self):
        rho = rho_from_epsilon(1.0, 1e-6)
        assert abs(gaussian_noise_scale(rho, 3) - math.sqrt(3 / (2 * rho))) < 1e-15

    def test_summary_sigma_matches_formula(self):
        data = cat_dataset([[0, 1], [1, 0], [0, 0]])
        summary = fit_dp_summary(data, epsilon=1.0, delta=1e-6, seed=0)
        rho = rho_from_epsilon(1.0, 1e-6)
        assert abs(summary.sigma - math.sqrt(2 / (2 * rho))) < 1e-12
        assert summary.rho == rho
        assert summary.n_public == 3

    def test_brute_force_privacy_loss_on_toy_database(self):
        # Two-row single-column database vs its add/remove neighbor: the count
        # vector moves by 1 in one cell (L2 sensitivity 1). Integrate the
        # privacy-loss distribution of the Gaussian mechanism numerically and
        # check delta(epsilon) stays within the target budget.
        eps_target, delta_target = 1.0, 1e-5
        rho = rho_from_epsilon(eps_target, delta_target)
        sigma = gaussian_noise_scale(rho, 1)
        x = np.linspace(-60 * sigma, 60 * sigma, 400001)
        p = stats.norm.pdf(x, loc=0.0, scale=sigma)     # output density under D
        q = stats.norm.pdf(x, loc=1.0, scale=sigma)     # output density under D'
        loss = stats.norm.logpdf(x, 0.0, sigma) - stats.norm.logpdf(x, 1.0, sigma)
        delta_numeric = np.trapezoid(np.where(loss > eps_target,
                                              p - math.exp(eps_target) * q, 0.0), x)
        assert delta_numeric <= delta_target + 1e-12
        # same check in the other direction (remove vs add)
        delta_rev = np.trapezoid(np.where(-loss > eps_target,
                                          q - math.exp(eps_target) * p, 0.0), x)
        assert delta_rev <= delta_target + 1e-12

    def test_paper_privacy_setting(self):
        # epsilon = 1.5, delta = n^-2 with n = 46043
        n = 46043
        delta = n ** -2
        data = cat_dataset([[0, 1], [1, 0]])
        summary = fit_dp_summary(data, epsilon=1.5, delta=delta, seed=1)
        assert abs(epsilon_from_rho(summary.rho, delta) - 1.5) < 1e-9
        assert summary.sigma > 0

    def test_summary_determinism(self):
        data = cat_dataset([[0, 1], [1, 0], [1, 1]])
        a = fit_dp_summary(data, 1.0, 1e-6, seed=42)
        b = fit_dp_summary(data, 1.0, 1e-6, seed=42)
        for ca, cb in zip(a.counts, b.counts):
            assert np.array_equal(ca, cb)
        assert a.summary_id == b.summary_id

    def test_non_categorical_column_rejected(self):
        data = Dataset(NUM_SCHEMA, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="categorical"):
            fit_dp_summary(data, 1.0, 1e-6, seed=0)


class TestSummaryPosterior:
    def test_projection_rules(self):
        np.testing.assert_array_equal(project_to_simplex(np.array([10.0, 0.0])), [1.0, 0.0])
        np.testing.assert_array_equal(project_to_simplex(np.array([-2.0, 6.0])), [0.0, 1.0])
        np.testing.assert_array_equal(project_to_simplex(np.array([-1.0, -2.0])), [0.5, 0.5])

    def test_draws_live_on_open_simplex(self):
        summary = PrivateSummary(counts=(np.array([10.0, 0.0]),), n_public=10,
                                 epsilon=1.0, delta=1e-6, rho=0.1, sigma=1.0,
                                 schema=CAT_SCHEMA, summary_id="t")
        for s in range(50):
            probs = sample_params_from_summary(summary, seed=s).probs[0]
            assert np.all(probs > 0) and np.all(probs < 1)

    def test_posterior_mean_matches_projected_frequencies(self):
        summary = PrivateSummary(counts=(np.array([50.0, 50.0]),), n_public=100,
                                 epsilon=1.0, delta=1e-6, rho=0.1, sigma=1.0,
                                 schema=CAT_SCHEMA, summary_id="t")
        draws = np.array([sample_params_from_summary(summary, seed=s).probs[0][0]
                          for s in range(1000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) <= 3.0 * se

    def test_zero_noise_limit_concentrates(self):
        # Dirichlet(n*p + 1) has mean within 1/(n+K) of p; empirical check too.
        n_public = 10 ** 8
        p_hat = np.array([0.75, 0.25])
        alpha = n_public * p_hat + 1.0
        exact_mean = alpha / alpha.sum()
        assert np.max(np.abs(exact_mean - p_hat)) <= 1e-6
        summary = PrivateSummary(counts=(n_public * p_hat,), n_public=n_public,
                                 epsilon=1.0, delta=1e-6, rho=0.1, sigma=0.0,
                                 schema=CAT_SCHEMA, summary_id="t")
        draws = np.array([sample_params_from_summary(summary, seed=s).probs[0][0]
                          for s in range(500)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.75) <= max(4.0 * se, 1e-6)


class TestGeneratorSpec:
    @pytest.mark.parametrize("kind, n_synthetic", [("bootstrap", 5), ("gaussian_ppd", None)])
    def test_identity_refused_where_it_would_be_ignored_or_misreported(self, kind,
                                                                       n_synthetic):
        # identity datasets hold every training row, whatever n_synthetic says,
        # and only the bootstrap generator reads the flag
        with pytest.raises(ValueError, match="identity needs the bootstrap generator"):
            GeneratorSpec(kind, identity=True, n_synthetic=n_synthetic)

    @pytest.mark.parametrize("identity", ["no", "true", 1, 0.0, None])
    def test_identity_must_be_a_bool(self, identity):
        # any truthy value turned identity on and returned the training data verbatim
        with pytest.raises(ValueError, match="identity must be a bool, got"):
            GeneratorSpec("bootstrap", identity=identity)

    @pytest.mark.parametrize("identity", [True, np.True_, False, np.False_])
    def test_identity_is_stored_as_a_python_bool(self, identity):
        spec = GeneratorSpec("bootstrap", identity=identity)
        assert spec.identity is bool(identity)
        assert spec == GeneratorSpec("bootstrap", identity=bool(identity))

    @pytest.mark.parametrize("kind, options", [
        ("bootstrap", {"epsilon": 1.0, "delta": 1e-6}),
        ("gaussian_ppd", {"delta": 1e-6}),
        ("truth_process", {"process": "gaussian_toy", "epsilon": 1.0}),
    ])
    def test_budget_refused_where_it_would_be_ignored(self, kind, options):
        # a bootstrap ensemble with a budget failed to write its provenance,
        # since only the DP generator spends one
        with pytest.raises(ValueError, match="epsilon and delta need kind=noisy_marginal_dp"):
            GeneratorSpec(kind, **options)

    @pytest.mark.parametrize("kind, options", [
        ("bootstrap", {}), ("noisy_marginal_dp", {"epsilon": 1.0, "delta": 1e-6})])
    def test_process_refused_where_it_would_be_ignored(self, kind, options):
        with pytest.raises(ValueError, match="process needs kind=truth_process"):
            GeneratorSpec(kind, process="gaussian_toy", **options)


class TestEnsembleRequest:
    @pytest.mark.parametrize("mode", ["independent", "shared_summary", "split_budget"])
    def test_empty_data_refused_in_every_mode(self, mode):
        # split_budget drew its datasets from the noise alone
        spec = GeneratorSpec("noisy_marginal_dp", n_synthetic=5, epsilon=1.0, delta=1e-6)
        empty = cat_dataset(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="empty dataset"):
            check_ensemble_request(spec, 2, mode, empty)
        with pytest.raises(ValueError, match="empty dataset"):
            generate_ensemble(spec, empty, 2, mode)

    @pytest.mark.parametrize("spec, data, message", [
        (GeneratorSpec("noisy_marginal_dp", epsilon=1.0, delta=1e-6),
         Dataset(NUM_SCHEMA, np.ones((3, 2))),
         "noisy_marginal_dp models categorical columns; 'x' is numeric"),
        (GeneratorSpec("gaussian_ppd"), cat_dataset([[0, 1]]),
         "gaussian_ppd models numeric columns; 'a' is categorical"),
        (GeneratorSpec("truth_process", process="gaussian_toy"),
         Dataset(Schema((Column("a", NUMERIC, FEATURE), Column("b", NUMERIC, TARGET))),
                 np.ones((3, 2))),
         "truth process 'gaussian_toy' does not model the data's columns ['a', 'b']"),
        (GeneratorSpec("truth_process", process="discrete_toy"),
         Dataset(NUM_SCHEMA, np.ones((3, 2))),
         "truth process 'discrete_toy' does not model the data's columns ['x', 'y']"),
        (GeneratorSpec("truth_process", process="bogus"), Dataset(NUM_SCHEMA, np.ones((3, 2))),
         "unknown truth process 'bogus'"),
        (GeneratorSpec("gaussian_ppd"), Dataset(NUM_SCHEMA, [[1e155, 0.0], [-1e155, 1.0]]),
         "gaussian_ppd: the data's mean or scatter matrix overflows"),
        (GeneratorSpec("gaussian_ppd"), Dataset(NUM_SCHEMA, [[1.5e308, 0.0], [1.5e308, 1.0]]),
         "gaussian_ppd: the data's mean or scatter matrix overflows"),
    ], ids=["dp-on-numeric", "ppd-on-categorical", "process-on-other-columns",
            "process-on-gaussian-columns", "unknown-process", "ppd-scatter-overflows",
            "ppd-mean-overflows"])
    def test_generator_that_cannot_serve_the_data_refused(self, spec, data, message):
        # each was found only by the first fit, or, for a truth process on
        # other columns, not at all; a gaussian_ppd scatter matrix that overflowed
        # warned, then failed inside scipy's covariance draw
        for request in (lambda: check_ensemble_request(spec, 2, "independent", data),
                        lambda: generate_ensemble(spec, data, 2, "independent"),
                        lambda: fit(spec, data, 0)):
            with pytest.raises(ValueError, match=re.escape(message)):
                request()

    @pytest.mark.parametrize("kind", ["bootstrap", "gaussian_ppd"])
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_refused(self, kind, cell):
        # bootstrap copied the cell into its datasets, and gaussian_ppd failed
        # inside its fit with numpy's "array must not contain infs or NaNs"
        data = Dataset(NUM_SCHEMA, [[0.0, 1.0], [cell, 2.0], [1.0, 3.0]])
        for request in (lambda: check_ensemble_request(GeneratorSpec(kind), 2, "independent",
                                                       data),
                        lambda: generate_ensemble(GeneratorSpec(kind), data, 2, "independent"),
                        lambda: fit(GeneratorSpec(kind), data, 0)):
            with pytest.raises(ValueError, match="column 'x' holds a NaN or inf"):
                request()

    def test_truth_process_on_its_own_columns_accepted(self):
        spec = GeneratorSpec("truth_process", process="gaussian_toy")
        data = Dataset(NUM_SCHEMA, np.arange(6.0).reshape(3, 2))
        assert check_ensemble_request(spec, 2, "independent", data) == 2
        datasets, _ = generate_ensemble(spec, data, 2, "independent", seed=3)
        assert [ds.schema for ds in datasets] == [data.schema] * 2


class TestGenerateEnsemble:
    def test_independent_bootstrap(self):
        data = Dataset(NUM_SCHEMA, np.arange(20.0).reshape(10, 2))
        datasets, record = generate_ensemble(GeneratorSpec("bootstrap"), data, 3,
                                             "independent", seed=1)
        assert len(datasets) == 3
        assert record.m == 3 and record.mode == "independent"
        for i, ds in enumerate(datasets):
            assert all(tuple(r) in set(map(tuple, data.rows)) for r in ds.rows)

    def test_shared_summary_references_one_summary(self):
        data = cat_dataset([[0, 1], [1, 0], [1, 1], [0, 0]])
        spec = GeneratorSpec("noisy_marginal_dp", epsilon=1.0, delta=1e-6)
        datasets, record = generate_ensemble(spec, data, 2, "shared_summary", seed=4)
        assert len(set(record.summary_ids)) == 1

    def test_split_budget_conservation(self):
        data = cat_dataset([[0, 1], [1, 0], [1, 1], [0, 0]])
        spec = GeneratorSpec("noisy_marginal_dp", epsilon=1.0, delta=1e-6)
        _, record = generate_ensemble(spec, data, 2, "split_budget", seed=4)
        assert all(abs(r - record.rho_total / 2) < 1e-15 for r in record.rho_per_member)
        assert abs(sum(record.rho_per_member) - record.rho_total) < 1e-12
        assert len(set(record.summary_ids)) == 2

    @pytest.mark.parametrize("mode, releases", [("independent", 8),
                                                ("shared_summary", 1),
                                                ("split_budget", 8)])
    def test_recorded_spend_composes_every_release(self, mode, releases):
        data = cat_dataset([[0, 1], [1, 0], [1, 1], [0, 0]])
        spec = GeneratorSpec("noisy_marginal_dp", epsilon=1.0, delta=1e-6)
        _, record = generate_ensemble(spec, data, 8, mode, seed=4)
        full = rho_from_epsilon(1.0, 1e-6)
        assert len(record.rho_per_member) == releases
        assert record.rho_total == sum(record.rho_per_member)
        per_release = full if mode != "split_budget" else full / 8
        assert all(r == per_release for r in record.rho_per_member)
        # only independent releases spend the full budget more than once
        expected = 8 * full if mode == "independent" else full
        assert record.rho_total == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mode", ["independent", "split_budget"])
    def test_json_reports_composed_epsilon(self, mode):
        data = cat_dataset([[0, 1], [1, 0], [1, 1], [0, 0]])
        spec = GeneratorSpec("noisy_marginal_dp", epsilon=1.0, delta=1e-6)
        _, record = generate_ensemble(spec, data, 8, mode, seed=4)
        out = record.to_json_dict()
        assert out["epsilon"] == 1.0
        if mode == "independent":
            expected = epsilon_from_rho(8 * rho_from_epsilon(1.0, 1e-6), 1e-6)
            assert out["epsilon_total"] == pytest.approx(expected, rel=1e-12)
            assert out["epsilon_total"] > 1.0
        else:
            assert out["epsilon_total"] == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 12),
           mode=st.sampled_from(["independent", "shared_summary", "split_budget"]),
           epsilon=st.floats(0.01, 50.0), delta=st.floats(1e-12, 0.1),
           seed=st.integers(0, 2**63 - 1))
    def test_recorded_spend_property(self, m, mode, epsilon, delta, seed):
        data = cat_dataset([[0, 1], [1, 0], [1, 1], [0, 0]])
        spec = GeneratorSpec("noisy_marginal_dp", epsilon=epsilon, delta=delta)
        _, record = generate_ensemble(spec, data, m, mode, seed=seed)
        assert len(record.rho_per_member) == (1 if mode == "shared_summary" else m)
        assert record.rho_total == sum(record.rho_per_member)
        out = record.to_json_dict()
        assert out["rho_total"] == record.rho_total
        assert out["epsilon_total"] == epsilon_from_rho(record.rho_total, delta)

    def test_non_dp_generator_records_no_spend(self):
        data = Dataset(NUM_SCHEMA, np.arange(20.0).reshape(10, 2))
        _, record = generate_ensemble(GeneratorSpec("bootstrap"), data, 3,
                                      "independent", seed=1)
        assert record.rho_total is None and record.rho_per_member == ()

    def test_mode_kind_mismatch(self):
        data = Dataset(NUM_SCHEMA, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="requires"):
            generate_ensemble(GeneratorSpec("bootstrap"), data, 2, "shared_summary",
                              seed=0)

    def test_exchangeability_across_positions(self):
        # i.i.d. members: the per-position distribution of column means matches
        data = Dataset(NUM_SCHEMA, np.random.default_rng(0).normal(size=(40, 2)))
        spec = GeneratorSpec("bootstrap")
        first, second = [], []
        for s in range(200):
            datasets, _ = generate_ensemble(spec, data, 2, "independent", seed=s)
            first.append(datasets[0].target_values().mean())
            second.append(datasets[1].target_values().mean())
        assert stats.ks_2samp(first, second).pvalue > 0.01

    def test_deterministic_given_seed(self):
        data = Dataset(NUM_SCHEMA, np.arange(20.0).reshape(10, 2))
        a, _ = generate_ensemble(GeneratorSpec("bootstrap"), data, 2, "independent",
                                 seed=8)
        b, _ = generate_ensemble(GeneratorSpec("bootstrap"), data, 2, "independent",
                                 seed=8)
        for da, db in zip(a, b):
            assert np.array_equal(da.rows, db.rows)


def _generate_ensemble_reference(spec, data, m, mode, seed=0):
    """generate_ensemble with one member loop per mode."""
    check_ensemble_request(spec, m, mode, data)
    n_rows = spec.n_synthetic if spec.n_synthetic is not None else data.n

    member_seeds = tuple(child_seed(seed, "member", i) for i in range(m))
    datasets = []
    summary_ids = []
    rho_members = []
    rho_full = (rho_from_epsilon(spec.epsilon, spec.delta)
                if spec.kind == "noisy_marginal_dp" else None)

    if mode == "independent":
        for ms in member_seeds:
            params = fit(spec, data, child_seed(ms, "fit"))
            datasets.append(sample(params, n_rows, child_seed(ms, "sample")))
            if params.summary_id:
                summary_ids.append(params.summary_id)
                rho_members.append(rho_full)
    elif mode == "shared_summary":
        summary = fit_dp_summary(data, spec.epsilon, spec.delta, child_seed(seed, "summary"))
        summary_ids = [summary.summary_id] * m
        rho_members = [summary.rho]
        for ms in member_seeds:
            params = sample_params_from_summary(summary, child_seed(ms, "theta"))
            datasets.append(sample(params, n_rows, child_seed(ms, "sample")))
    else:
        rho_i = rho_full / m
        eps_i = epsilon_from_rho(rho_i, spec.delta)
        for ms in member_seeds:
            summary = _dp_summary_with_rho(data, rho_i, eps_i, spec.delta,
                                           child_seed(ms, "summary"))
            summary_ids.append(summary.summary_id)
            rho_members.append(summary.rho)
            params = sample_params_from_summary(summary, child_seed(ms, "theta"))
            datasets.append(sample(params, n_rows, child_seed(ms, "sample")))

    rho_total = sum(rho_members) if rho_full is not None else None
    record = EnsembleProvenance(kind=spec.kind, mode=mode, m=m, n_rows=n_rows, seed=seed,
                                member_seeds=member_seeds, epsilon=spec.epsilon,
                                delta=spec.delta, rho_total=rho_total,
                                rho_per_member=tuple(rho_members),
                                summary_ids=tuple(summary_ids))
    return datasets, record


CAT3_SCHEMA = Schema((Column("a", CATEGORICAL, FEATURE, levels=("l0", "l1", "l2")),
                      Column("b", CATEGORICAL, FEATURE, levels=("l0", "l1")),
                      Column("y", CATEGORICAL, TARGET, levels=("n", "p"))))


class TestGenerateEnsembleMatchesReference:
    @pytest.mark.parametrize("kind, mode", [("noisy_marginal_dp", "independent"),
                                            ("noisy_marginal_dp", "shared_summary"),
                                            ("noisy_marginal_dp", "split_budget"),
                                            ("bootstrap", "independent"),
                                            ("gaussian_ppd", "independent")])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(m=st.integers(1, 8), n_synthetic=st.one_of(st.none(), st.integers(1, 12)),
           epsilon=st.one_of(st.floats(0.05, 20.0), st.just(math.inf)),
           data_seed=st.integers(0, 3), seed=st.integers(0, 2**63 - 1))
    def test_datasets_and_record(self, kind, mode, m, n_synthetic, epsilon, data_seed, seed):
        rng = np.random.default_rng(data_seed)
        if kind == "noisy_marginal_dp":
            spec = GeneratorSpec(kind, n_synthetic=n_synthetic, epsilon=epsilon, delta=1e-6)
            data = Dataset(CAT3_SCHEMA, np.column_stack([rng.integers(0, 3, 9),
                                                         rng.integers(0, 2, 9),
                                                         rng.integers(0, 2, 9)]))
        else:
            spec = GeneratorSpec(kind, n_synthetic=n_synthetic)
            data = Dataset(NUM_SCHEMA, rng.normal(size=(9, 2)))
        datasets, record = generate_ensemble(spec, data, m, mode, seed)
        ref_datasets, ref_record = _generate_ensemble_reference(spec, data, m, mode, seed)
        assert [ds.rows.tobytes() for ds in datasets] == \
            [ds.rows.tobytes() for ds in ref_datasets]
        assert record.to_json_dict() == ref_record.to_json_dict()
        assert record == ref_record


# The per-column DP chain that the one-draw-per-stream code replaced: one
# bincount and one normal draw per column in the release, one dirichlet per
# column in the posterior draw, one choice per column in the sample.

def _dp_summary_reference(data, rho, epsilon, delta, seed):
    exact = [np.bincount(data.rows[:, j].astype(int), minlength=len(col.levels)).astype(float)
             for j, col in enumerate(data.schema.columns)]
    sigma = 0.0 if math.isinf(rho) else math.sqrt(len(exact) / (2.0 * rho))
    rng = make_rng(seed)
    noisy = tuple(c + rng.normal(0.0, sigma, size=c.shape) if sigma > 0 else c.copy()
                  for c in exact)
    h = hashlib.blake2b(digest_size=8)
    h.update((seed % 2**64).to_bytes(8, "little"))
    for c in noisy:
        h.update(c.tobytes())
    return PrivateSummary(counts=noisy, n_public=data.n, epsilon=epsilon, delta=delta,
                          rho=rho, sigma=sigma, schema=data.schema, summary_id=h.hexdigest())


def _sample_params_reference(summary, seed):
    rng = make_rng(seed)
    return [rng.dirichlet(summary.n_public * project_to_simplex(c) + DIRICHLET_SMOOTHING)
            for c in summary.counts]


def _sample_reference(params, n_rows, seed):
    rng = make_rng(seed)
    return np.column_stack([rng.choice(len(p), size=n_rows, p=p).astype(np.float64)
                            for p in params.probs])


@st.composite
def categorical_datasets(draw):
    """1-8 categorical columns of 1-20 levels; the levels above a column's
    `used` count never occur, so counts and exact frequencies hold zeros."""
    levels = draw(st.lists(st.integers(1, 20), min_size=1, max_size=8))
    used = [draw(st.integers(1, k)) for k in levels]
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = tuple(Column(f"c{j}", CATEGORICAL, TARGET if j == 0 else FEATURE,
                           levels=tuple(f"l{v}" for v in range(k)))
                    for j, k in enumerate(levels))
    rows = np.column_stack([rng.integers(0, u, size=n) for u in used]).astype(float)
    return Dataset(Schema(columns), rows)


class TestDpDrawsMatchPerColumnReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=categorical_datasets(),
           epsilon=st.one_of(st.floats(1e-3, 50.0), st.just(math.inf)),
           n_rows=st.integers(1, 40), seed=st.integers(0, 2**64 - 1))
    def test_release_posterior_and_sample_bytes(self, data, epsilon, n_rows, seed):
        rho = rho_from_epsilon(epsilon, 1e-6)
        summary = _dp_summary_with_rho(data, rho, epsilon, 1e-6, seed)
        ref = _dp_summary_reference(data, rho, epsilon, 1e-6, seed)
        assert [c.tobytes() for c in summary.counts] == [c.tobytes() for c in ref.counts]
        assert (summary.sigma, summary.summary_id) == (ref.sigma, ref.summary_id)

        theta_seed, sample_seed = child_seed(seed, "theta"), child_seed(seed, "sample")
        params = sample_params_from_summary(summary, theta_seed)
        assert [p.tobytes() for p in params.probs] == \
            [p.tobytes() for p in _sample_params_reference(summary, theta_seed)]
        assert sample(params, n_rows, sample_seed).rows.tobytes() == \
            _sample_reference(params, n_rows, sample_seed).tobytes()

        # sigma = 0: the exact frequencies, zero for every level that never occurs
        exact = fit(GeneratorSpec("noisy_marginal_dp", epsilon=math.inf, delta=1e-6), data, seed)
        assert sample(exact, n_rows, sample_seed).rows.tobytes() == \
            _sample_reference(exact, n_rows, sample_seed).tobytes()


class TestGeneratorParamsCheck:
    @pytest.mark.parametrize("p", [[0.5, 0.6], [1.5, -0.5], [np.nan, 1.0], [0.5, np.inf]])
    def test_off_simplex_vector_refused(self, p):
        # choice used to refuse a NaN vector at sampling time; the one-draw
        # sample would turn it into levels, so the parameters refuse it
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            GeneratorParams(kind="noisy_marginal_dp", probs=(np.array([0.25, 0.75]), np.array(p)))

    def test_vectors_of_any_length_accepted(self):
        probs = tuple(np.full(k, 1.0 / k) for k in (1, 3, 8, 20))
        assert GeneratorParams(kind="noisy_marginal_dp", probs=probs).probs is probs


class TestNoiseScaleRange:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rho=st.floats(1e-300, 1e300), n_columns=st.integers(1, 10_000))
    def test_bits_of_the_old_formula_at_ordinary_rho(self, rho, n_columns):
        assert gaussian_noise_scale(rho, n_columns) == math.sqrt(n_columns / (2.0 * rho))

    def test_huge_rho_gives_a_positive_scale(self):
        # 2 * rho overflowed to inf and the scale came back 0
        sigma = gaussian_noise_scale(rho_from_epsilon(sys.float_info.max, 1e-6), 7)
        assert 0.0 < sigma < 1e-153

    def test_overflowing_scale_refused(self):
        rho = rho_from_epsilon(1e-155, 1e-6)
        assert 0.0 < rho < sys.float_info.min            # a positive subnormal
        with pytest.raises(ValueError, match="rho"):
            gaussian_noise_scale(rho, 1)
        with pytest.raises(ValueError, match="rho"):
            GeneratorSpec("noisy_marginal_dp", epsilon=1e-155, delta=1e-6)
        with pytest.raises(ValueError, match="rho"):
            fit_dp_summary(cat_dataset([[0, 1], [1, 0]]), 1e-155, 1e-6, 0)
        with pytest.raises(ValueError, match="rho"):
            get_process("discrete_toy", epsilon=1e-155)

    def test_ensemble_request_checks_each_release(self):
        # each split-budget release spends rho / m over every column; that
        # noise scale overflowed only when drawn, not in the request check
        spec = GeneratorSpec("noisy_marginal_dp", epsilon=1e-153, delta=1e-6)
        data = cat_dataset([[0, 1], [1, 0], [1, 1], [0, 0]])
        for mode in ("independent", "shared_summary"):
            assert check_ensemble_request(spec, 4, mode, data) == 4
            assert len(generate_ensemble(spec, data, 4, mode, seed=1)[0]) == 4
        with pytest.raises(ValueError, match="finite noise scale"):
            check_ensemble_request(spec, 4, "split_budget", data)
        with pytest.raises(ValueError, match="finite noise scale"):
            generate_ensemble(spec, data, 4, "split_budget", seed=1)
        # one release at the full rho, but over enough columns
        wide = Schema(tuple(Column(f"c{j}", CATEGORICAL, FEATURE if j else TARGET, levels=("0",))
                            for j in range(10)))
        with pytest.raises(ValueError, match="finite noise scale"):
            check_ensemble_request(spec, 1, "independent", Dataset(wide, np.zeros((1, 10))))
