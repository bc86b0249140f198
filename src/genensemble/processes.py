"""Fully specified ground-truth data processes used as verification oracles.

Each process fixes every distribution in the sampling chain
real data -> generator parameters -> synthetic data -> predictions, together
with the exact optimal predictors and noise level, so Monte Carlo estimates
of the error decomposition can be checked against closed-form values.

Both built-in processes predict a scalar that does not depend on the feature
value, which keeps their decomposition terms constant across test points and
makes the closed forms exact.
"""
from __future__ import annotations

import numpy as np

from .data import (CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Dataset, Schema, check_count,
                   check_flag, check_real)
from .generators import gaussian_noise_scale, project_to_simplex, rho_from_epsilon


class GaussianMeanProcess:
    """Gaussian location toy.

    Population: y ~ N(mu0, noise_sd^2), with a standard-normal nuisance
    feature x. Generator parameters theta | D_r ~ N(mean(y_r), tau^2); a
    synthetic dataset is n_synth draws of N(theta, noise_sd^2). The built-in
    predictor is the synthetic sample mean, so

        MV  = noise_sd^2 / n_synth      SDV = tau^2
        RDV = noise_sd^2 / n_real       SDB = MB = 0
        noise = noise_sd^2
    """

    id = "gaussian_toy"
    builtin_predictor = "mean"

    def __init__(self, mu0=0.0, noise_sd=1.0, tau=0.2, n_real=50, n_synth=100,
                 perfect=False):
        # perfect=True pins the generator parameters at the true mean, i.e.
        # synthetic data comes from the real data-generating distribution;
        # SDV, RDV and the synthetic-data bias then all vanish.
        self.mu0 = check_real(mu0, "mu0")
        # noise_sd = tau = 0 is the deterministic chain, whose every term is exactly 0
        self.noise_sd = check_real(noise_sd, "noise_sd", low=0.0)
        self.tau = check_real(tau, "tau", low=0.0)
        self.n_real = check_count(n_real, "n_real")
        self.n_synth = check_count(n_synth, "n_synth")
        self.perfect = check_flag(perfect, "perfect")
        self.schema = Schema((Column("x", NUMERIC, FEATURE),
                              Column("y", NUMERIC, TARGET)))

    # exact quantities -----------------------------------------------------
    def f(self) -> float:
        return self.mu0

    def f_theta(self, thetas):
        return np.asarray(thetas, dtype=np.float64)

    def noise_var(self) -> float:
        return self.noise_sd ** 2

    @property
    def analytic_terms(self) -> dict:
        sdv = 0.0 if self.perfect else self.tau ** 2
        rdv = 0.0 if self.perfect else self.noise_sd ** 2 / self.n_real
        return {"mv": self.noise_sd ** 2 / self.n_synth, "sdv": sdv,
                "rdv": rdv, "sdb": 0.0, "mb": 0.0,
                "noise": self.noise_sd ** 2}

    def sample_y(self, rng, size):
        return rng.normal(self.mu0, self.noise_sd, size=size)

    # sampling chain on sufficient statistics ------------------------------
    def sample_real(self, rng):
        return rng.normal(self.mu0, self.noise_sd, size=self.n_real).mean()

    def sample_theta(self, rng, real, size):
        if self.perfect:
            return np.full(size, self.mu0)
        return rng.normal(real, self.tau, size=size)

    def sample_theta_correlated(self, rng, real, n_blocks, m, rho):
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.perfect:
            return np.full((n_blocks, m), self.mu0)
        shared = rng.normal(0.0, 1.0, size=(n_blocks, 1))
        own = rng.normal(0.0, 1.0, size=(n_blocks, m))
        z = np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * own
        return real + self.tau * z

    def predictor_outputs(self, rng, thetas):
        # Sample mean of n_synth draws from N(theta, noise_sd^2).
        thetas = np.asarray(thetas, dtype=np.float64)
        return thetas + rng.normal(0.0, self.noise_sd / np.sqrt(self.n_synth),
                                   size=thetas.shape)

    # Dataset bridges -------------------------------------------------------
    def sample_real_dataset(self, rng, n=None) -> Dataset:
        n = self.n_real if n is None else int(n)
        x = rng.normal(0.0, 1.0, size=n)
        y = rng.normal(self.mu0, self.noise_sd, size=n)
        return Dataset(self.schema, np.column_stack([x, y]))

    def fit_theta(self, data: Dataset, rng):
        if self.perfect:
            return self.mu0
        return float(rng.normal(data.target_values().mean(), self.tau))

    def sample_synth_dataset(self, theta, n_rows, rng) -> Dataset:
        x = rng.normal(0.0, 1.0, size=n_rows)
        y = rng.normal(float(theta), self.noise_sd, size=n_rows)
        return Dataset(self.schema, np.column_stack([x, y]))


class DiscreteBernoulliProcess:
    """Two-level discrete toy with an optional noisy-count summary.

    Population: y ~ Bernoulli(p0), no features. The i.i.d. chain draws
    theta | D_r from the Beta posterior of the observed counts. The summary
    chain releases Gaussian-noised counts (scale from the zCDP budget for
    the configured epsilon/delta), projects them to the simplex, and draws
    theta from Beta(n*p1+1, n*p0+1). The built-in predictor is the smoothed
    positive-class frequency (c+1)/(n_synth+2) of a synthetic dataset.
    """

    id = "discrete_toy"
    builtin_predictor = "freq"

    def __init__(self, p0=0.3, n_real=100, n_synth=100, epsilon=1.0, delta=1e-6):
        self.p0 = check_real(p0, "p0", 0.0, 1.0)
        self.n_real = check_count(n_real, "n_real")
        self.n_synth = check_count(n_synth, "n_synth")
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.dp_sigma = gaussian_noise_scale(rho_from_epsilon(epsilon, delta), 1)
        self.schema = Schema((Column("y", CATEGORICAL, TARGET, levels=("0", "1")),))

    # exact quantities -----------------------------------------------------
    def f(self) -> float:
        return self.p0

    def f_theta(self, thetas):
        return np.asarray(thetas, dtype=np.float64)

    def noise_var(self) -> float:
        return self.p0 * (1.0 - self.p0)

    def sample_y(self, rng, size):
        return (rng.random(size) < self.p0).astype(np.float64)

    # sampling chain on sufficient statistics ------------------------------
    def sample_real(self, rng):
        return int(rng.binomial(self.n_real, self.p0))

    def sample_theta(self, rng, real, size):
        return rng.beta(real + 1.0, self.n_real - real + 1.0, size=size)

    def sample_summary(self, rng, real):
        counts = np.array([self.n_real - real, real], dtype=np.float64)
        return counts + rng.normal(0.0, self.dp_sigma, size=2)

    def sample_theta_from_summary(self, rng, summary, size):
        p0, p1 = project_to_simplex(summary).tolist()     # float products, numpy's bits
        return rng.beta(self.n_real * p1 + 1.0, self.n_real * p0 + 1.0, size=size)

    def predictor_outputs(self, rng, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        counts = rng.binomial(self.n_synth, thetas)
        return (counts + 1.0) / (self.n_synth + 2.0)

    def predictor_prob_outputs(self, rng, thetas):
        pos = self.predictor_outputs(rng, thetas)
        return np.stack([1.0 - pos, pos], axis=-1)

    # Dataset bridges -------------------------------------------------------
    def sample_real_dataset(self, rng, n=None) -> Dataset:
        n = self.n_real if n is None else int(n)
        y = (rng.random(n) < self.p0).astype(np.float64)
        return Dataset(self.schema, y[:, None])

    def fit_theta(self, data: Dataset, rng):
        ones = int(data.target_values().sum())
        return float(rng.beta(ones + 1.0, data.n - ones + 1.0))

    def sample_synth_dataset(self, theta, n_rows, rng) -> Dataset:
        y = (rng.random(n_rows) < float(theta)).astype(np.float64)
        return Dataset(self.schema, y[:, None])


_REGISTRY = {
    GaussianMeanProcess.id: GaussianMeanProcess,
    DiscreteBernoulliProcess.id: DiscreteBernoulliProcess,
}


def get_process(process_id: str, **options):
    try:
        cls = _REGISTRY[process_id]
    except KeyError:
        raise ValueError(f"unknown truth process {process_id!r}; "
                         f"available: {sorted(_REGISTRY)}") from None
    return cls(**options)
