"""Exact bagged 1-NN: a 1-NN predictor averaged over every bootstrap
resample, in closed form (Steele, Machine Learning 74:235-255, 2009; also
Biau, Cerou & Guyader, JMLR 11:687-712, 2010).

Order the n real rows by distance to a test point, nearest first. Real row i
(from 1) is the nearest neighbour of a bootstrap sample of s draws with
probability w_i = ((n - i + 1) / n)^s - ((n - i) / n)^s. So one member
predicts the mean mu = sum_i w_i y_(i), with variance v = sum_i w_i
(y_(i) - mu)^2 about it. Members are i.i.d. given the data, hence
E[MSE(m) | data] = mean_x (mu(x) - y)^2 + mean_x v(x) / m.

A 1-D CART grown until its leaves are pure, with midpoint thresholds,
predicts the nearest training x too, so the same moments hold for it.
"""
import numpy as np


def bagged_1nn_moments(train_x, train_y, test_x, s):
    """(mu, v) at each test row: the mean and variance of a 1-NN member
    trained on s bootstrap draws. Distances to each test row must be
    distinct."""
    train_x, test_x = np.atleast_2d(train_x), np.atleast_2d(test_x)
    n = train_x.shape[0]
    dist = ((test_x[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    y = np.asarray(train_y, dtype=np.float64)[np.argsort(dist, axis=1, kind="stable")]
    i = np.arange(1, n + 1)
    w = ((n - i + 1) / n) ** s - ((n - i) / n) ** s
    mu = y @ w
    return mu, ((y - mu[:, None]) ** 2) @ w


def expected_mse(train_x, train_y, test_x, test_y, s, m):
    """E[MSE(m) | data] of the mean of m bagged 1-NN members of s draws."""
    mu, v = bagged_1nn_moments(train_x, train_y, test_x, s)
    return float(np.mean((mu - test_y) ** 2) + np.mean(v) / m)
