"""Exact moments of the `mean` predictor under the two generators that draw
parameters, so their MV, SDV and error curves have known values.

gaussian_ppd draws (mu, Sigma) from a Normal-Inverse-Wishart posterior over
all n rows and D columns, with nu = n + D + 2, kappa = n + 1 and
Psi = scatter (1 + 1/n) + 1e-6 I. A `mean` member predicts its synthetic
target mean, so given the data E[Sigma_yy] = Psi_yy / (nu - D - 1)
= Psi_yy / (n + 1), MV = E[Sigma_yy] / n_synthetic and SDV = E[Sigma_yy] /
kappa. Members are i.i.d. given the data, so
E[MSE(m) | data] = mean_x (ybar - y_x)^2 + (MV + SDV) / m.

noisy_marginal_dp in shared_summary mode draws the target's class
probabilities theta ~ Dirichlet(alpha) from one summary, with alpha = n_public
project_to_simplex(target counts) + 1 and A = sum(alpha). A `mean` member
predicts the class frequencies of c ~ Multinomial(n_synthetic, theta), so
class k has mean alpha_k / A and variance alpha_k (A - alpha_k) /
(A^2 (A + 1)) + alpha_k (A - alpha_k) / (A (A + 1)) / n_synthetic. The
brier_multiclass error adds over the class coordinates, so with V the sum of
these variances E[Brier(m) | summary] = mean_x sum_k (alpha_k / A - y_xk)^2
+ V / m. With two levels both classes carry the same error, and brier_binary
is half of this sum.

bootstrap draws n_synthetic rows with replacement from one fixed dataset, so
its parameter draws are all equal and SDV = 0; the class-k frequency of a
synthetic dataset has variance p_k (1 - p_k) / n_synthetic, p the data's class
frequencies, and the per-class sum MV = (1 - sum p_k^2) / n_synthetic.
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
    """E[Brier(m) | summary], brier_multiclass, of the mean of m `mean` members
    drawn from one summary whose noisy counts of the target are target_counts."""
    alpha = n_public * project_to_simplex(target_counts) + DIRICHLET_SMOOTHING
    a = alpha.sum()
    spread = alpha * (a - alpha)
    v = np.sum(spread / (a * a * (a + 1.0)) + spread / (a * (a + 1.0)) / n_synthetic)
    onehot = np.eye(alpha.size)[np.asarray(test_y, dtype=np.intp)]
    return float(np.mean(np.sum((alpha / a - onehot) ** 2, axis=1)) + v / m)


def bootstrap_mean_mv(train_y, n_classes, n_synthetic):
    """MV, summed over the classes, of a `mean` member on bootstrap data drawn
    from targets train_y; its SDV is 0."""
    p = np.bincount(np.asarray(train_y, dtype=np.intp), minlength=n_classes) / len(train_y)
    return (1.0 - np.sum(p * p)) / n_synthetic
