"""Bagging is synthetic data generation in disguise.

A bootstrap replicate is a synthetic dataset whose generator parameters are
the training data itself, so the 1 - 1/m rule applies verbatim to bagged
ensembles: the number of trees plays the role of the number of synthetic
datasets. Measuring a random forest at 1 and 2 trees predicts its error at
any size.
"""
import numpy as np

import genensemble as ge
from genensemble.data import FEATURE, NUMERIC, TARGET, Column, Dataset, Schema
from genensemble.rng import make_rng

print(__doc__)

rng = make_rng(2)
n_train, n_test = 120, 400
x = rng.uniform(-3, 3, size=n_train)
y = np.sin(2 * x) + rng.normal(0, 0.4, size=n_train)
xt = rng.uniform(-3, 3, size=n_test)
yt = np.sin(2 * xt) + rng.normal(0, 0.4, size=n_test)
schema = Schema((Column("x", NUMERIC, FEATURE), Column("y", NUMERIC, TARGET)))
train = Dataset(schema, np.column_stack([x, y]))
test = Dataset(schema, np.column_stack([xt, yt]))

# a forest of T trees is the bootstrap generator's ensemble of T CARTs; every
# repeat grows a fresh forest, so each number below carries a standard error
t_max, repeats = 64, 16
result = ge.mse_curve(ge.GeneratorSpec("bootstrap"), train, "cart", test,
                      range(1, t_max + 1), repeats=repeats, seed=17)
curve = result.means()


def two_point(t):
    """Mean and standard error over repeats of the prediction at t trees made
    from each repeat's own errors at 1 and 2 trees."""
    per_repeat = np.array([ge.predict_mse(ge.fit_rule_two_point(a, b), t)
                           for a, b in zip(result.per_repeat[1], result.per_repeat[2])])
    return per_repeat.mean(), per_repeat.std(ddof=1) / np.sqrt(repeats)


rule = ge.fit_rule_two_point(curve[1], curve[2])
print(f"{repeats} forests of up to {t_max} trees")
print(f"single tree mse {curve[1]:.4f}, two trees {curve[2]:.4f} "
      f"-> maximal benefit {rule.mv_plus_sdv:.4f}")
print(f"{'trees':>6} {'measured':>16} {'predicted':>16}")
for t in (1, 2, 4, 8, 16, 32, 64):
    measured, measured_se = result.aggregate[t]
    predicted, predicted_se = two_point(t)
    print(f"{t:>6} {measured:>8.4f} ± {measured_se:.4f} {predicted:>8.4f} ± {predicted_se:.4f}")

fit = ge.fit_rule_regression(curve)
print(f"\nfit of the whole curve against 1 - 1/T: R^2 = {fit.r_squared:.4f}")
print(f"predicted floor (T -> infinity): {fit.mse1 - fit.max_benefit:.4f}; "
      f"measured at T = {t_max}: {curve[t_max]:.4f}")

# the bagged_trees predictor is the same forest as one model: its trees grow
# together, each on its own bootstrap draw of the training rows
forest = ge.train(ge.PredictorSpec("bagged_trees", "regression", n_trees=t_max),
                  ge.encode(train, train, False), seed=17)
scored = ge.encode(train, test, False)
forest_mse = np.mean((ge.predict_batch(forest, scored.x) - scored.y) ** 2)
print(f"one bagged_trees:{t_max} model: test mse {forest_mse:.4f} "
      f"(the curve's T = {t_max}: {curve[t_max]:.4f})")
print("\nTwo trees already deliver half of everything a full forest will.")
