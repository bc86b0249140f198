"""Exact moments of the `mean` predictor under the two generators that draw
parameters, so their MV, SDV and error curves have known values.

gaussian_ppd draws (mu, Sigma) from a Normal-Inverse-Wishart posterior over
all n rows and D columns, with nu = n + D + 2, kappa = n + 1 and
Psi = scatter (1 + 1/n) + 1e-6 I. A `mean` member predicts its synthetic
target mean, so given the data E[Sigma_yy] = Psi_yy / (nu - D - 1)
= Psi_yy / (n + 1), MV = E[Sigma_yy] / n_synthetic and SDV = E[Sigma_yy] /
kappa. Members are i.i.d. given the data, so
E[MSE(m) | data] = mean_x (ybar - y_x)^2 + (MV + SDV) / m.

noisy_marginal_dp in shared_summary mode draws the positive-class
probability theta ~ Beta(a, b) from one summary, with (b, a) = n_public
project_to_simplex(target counts) + 1. A `mean` member predicts the
frequency of c ~ Binomial(n_synthetic, theta). With T = a + b, the member
has mean a / T and variance V = ab / (T^2 (T + 1)) + ab / (T (T + 1)) /
n_synthetic, so E[Brier(m) | summary] = mean_x (a / T - y_x)^2 + V / m.
"""
import numpy as np

from genensemble.generators import DIRICHLET_SMOOTHING, project_to_simplex


def gaussian_ppd_mv_sdv(train_y, n_synthetic):
    """(MV, SDV) of a `mean` member on gaussian_ppd data fitted to targets train_y."""
    y = np.asarray(train_y, dtype=np.float64)
    n = y.size
    psi_yy = np.sum((y - y.mean()) ** 2) * (1.0 + 1.0 / n) + 1e-6
    sigma_yy = psi_yy / (n + 1)
    return sigma_yy / n_synthetic, sigma_yy / (n + 1)


def gaussian_ppd_expected_mse(train_y, test_y, n_synthetic, m):
    """E[MSE(m) | data] of the mean of m such members."""
    mv, sdv = gaussian_ppd_mv_sdv(train_y, n_synthetic)
    return float(np.mean((np.mean(train_y) - np.asarray(test_y)) ** 2) + (mv + sdv) / m)


def shared_summary_expected_brier(target_counts, n_public, test_y, n_synthetic, m):
    """E[Brier(m) | summary] of the mean of m `mean` members drawn from one
    summary whose noisy counts of the binary target are target_counts."""
    b, a = n_public * project_to_simplex(target_counts) + DIRICHLET_SMOOTHING
    t = a + b
    v = a * b / (t * t * (t + 1.0)) + a * b / (t * (t + 1.0)) / n_synthetic
    return float(np.mean((a / t - np.asarray(test_y)) ** 2) + v / m)
