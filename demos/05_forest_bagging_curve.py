"""Bagging is synthetic data generation in disguise.

A bootstrap replicate is a synthetic dataset whose generator parameters are
the training data itself, so the 1 - 1/m rule applies verbatim to bagged
ensembles: the number of trees plays the role of the number of synthetic
datasets. Measuring a random forest at 1 and 2 trees predicts its error at
any size.
"""
import numpy as np

import genensemble as ge
from genensemble.data import FeatureMatrix
from genensemble.metrics import MetricSpec
from genensemble.rng import make_rng

print(__doc__)

rng = make_rng(2)
n_train, n_test = 120, 400
x = rng.uniform(-3, 3, size=(n_train, 1))
y = np.sin(2 * x[:, 0]) + rng.normal(0, 0.4, size=n_train)
xt = rng.uniform(-3, 3, size=(n_test, 1))
yt = np.sin(2 * xt[:, 0]) + rng.normal(0, 0.4, size=n_test)
train = FeatureMatrix(x=x, y=y, task="regression")
test = FeatureMatrix(x=xt, y=yt, task="regression")

t_max = 64
[curve] = ge.train_forest_curve(train, test, t_max=t_max, metrics=[MetricSpec("mse")],
                                seed=17)

rule = ge.fit_rule_two_point(curve[1], curve[2])
print(f"single tree mse {curve[1]:.4f}, two trees {curve[2]:.4f} "
      f"-> maximal benefit {rule.mv_plus_sdv:.4f}")
print(f"{'trees':>6} {'measured':>10} {'predicted':>10}")
for t in (1, 2, 4, 8, 16, 32, 64):
    print(f"{t:>6} {curve[t]:>10.4f} {ge.predict_mse(rule, t):>10.4f}")

fit = ge.fit_rule_regression(curve)
print(f"\nfit of the whole curve against 1 - 1/T: R^2 = {fit.r_squared:.4f}")
print(f"predicted floor (T -> infinity): {fit.mse1 - fit.max_benefit:.4f}; "
      f"measured at T = {t_max}: {curve[t_max]:.4f}")
print("\nTwo trees already deliver half of everything a full forest will.")
