import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from genensemble.data import (CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Dataset,
                              Schema)
from genensemble.generators import (GeneratorSpec, PrivateSummary, epsilon_from_rho,
                                    fit, fit_dp_summary, gaussian_noise_scale,
                                    generate_ensemble, project_to_simplex,
                                    rho_from_epsilon, sample,
                                    sample_params_from_summary)

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
        assert synth.provenance.source == "synthetic"
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


class TestGenerateEnsemble:
    def test_independent_bootstrap(self):
        data = Dataset(NUM_SCHEMA, np.arange(20.0).reshape(10, 2))
        datasets, record = generate_ensemble(GeneratorSpec("bootstrap"), data, 3,
                                             "independent", seed=1)
        assert len(datasets) == 3
        assert record.m == 3 and record.mode == "independent"
        for i, ds in enumerate(datasets):
            assert ds.provenance.replicate == i
            assert all(tuple(r) in set(map(tuple, data.rows)) for r in ds.rows)

    def test_shared_summary_references_one_summary(self):
        data = cat_dataset([[0, 1], [1, 0], [1, 1], [0, 0]])
        spec = GeneratorSpec("noisy_marginal_dp", epsilon=1.0, delta=1e-6)
        datasets, record = generate_ensemble(spec, data, 2, "shared_summary", seed=4)
        assert len(set(record.summary_ids)) == 1
        assert datasets[0].provenance.summary_id == datasets[1].provenance.summary_id

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
