"""Estimators and Monte Carlo oracles for the error decompositions.

Three layers live here:

* The rule-of-thumb machinery: an ensemble over m synthetic datasets removes
  a (1 - 1/m) fraction of the maximal benefit MV + SDV, so the whole error
  curve is predictable from measurements at one and two datasets (or from a
  least-squares fit over several m).

* The nested MV/SDV estimator: draw generator parameters several times, draw
  several synthetic datasets per parameter draw, train the predictor on
  each, and read the two variance components off the within/between split of
  the prediction spread.

* Verification oracles on fully specified truth processes: every term of the
  squared-error decomposition (including the DP-summary and correlated
  variants) is estimated by nested Monte Carlo from its own definition,
  the total error is estimated independently from fresh draws, and the gap
  between the two must vanish within Monte Carlo error. Standard errors come
  from a nonparametric bootstrap over the outermost replication level.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bregman as brg
from .data import Dataset, encode
from .generators import GeneratorSpec, fit, generate_ensemble, sample
from .metrics import MEAN, MetricSpec, check_averaging, long_rows, score_prefixes
from .predictors import PredictorSpec, predict_batch, train
from .processes import get_process
from .rng import child_rng, child_seed

IID = "iid"
SHARED_SUMMARY = "shared_summary"
CORRELATED = "correlated"

BOOTSTRAP_RESAMPLES = 400
TERM_SE_MULTIPLE = 3.0
IDENTITY_SE_MULTIPLE = 4.0


# --------------------------------------------------------------------------
# Rule of thumb
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleOfThumbFit:
    mse1: float
    mv_plus_sdv: float
    method: str                                  # "two_point" | "regression"
    slope: float | None = None
    intercept: float | None = None
    r_squared: float | None = None
    points: dict[int, float] | None = None

    @property
    def max_benefit(self) -> float:
        """Limiting improvement as m grows without bound."""
        return self.mv_plus_sdv


def fit_rule_two_point(mse1: float, mse2: float) -> RuleOfThumbFit:
    """Estimate MV + SDV = 2 (MSE_1 - MSE_2) from errors at m = 1 and m = 2.

    A negative value diagnoses estimation noise (or a generator outside the
    i.i.d. setting) and is returned as-is.
    """
    return RuleOfThumbFit(mse1=float(mse1), mv_plus_sdv=float(2.0 * (mse1 - mse2)),
                          method="two_point")


def fit_rule_regression(points: dict[int, float]) -> RuleOfThumbFit:
    """Least-squares fit of measured errors against 1 - 1/m.

    The negated slope estimates MV + SDV and the intercept estimates the
    single-dataset error.
    """
    ms = sorted(points)
    if len(ms) < 2:
        raise ValueError("need at least 2 distinct m values")
    x = np.array([1.0 - 1.0 / m for m in ms])
    y = np.array([points[m] for m in ms])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = intercept + slope * x
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RuleOfThumbFit(mse1=float(intercept), mv_plus_sdv=float(-slope),
                          method="regression", slope=float(slope),
                          intercept=float(intercept), r_squared=r2,
                          points=dict(points))


def predict_mse(rule: RuleOfThumbFit, m: int) -> float:
    """Predicted error with an ensemble of m synthetic datasets."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return rule.mse1 - (1.0 - 1.0 / m) * rule.mv_plus_sdv


def achieved_benefit(rule: RuleOfThumbFit, m: int) -> float:
    """Error reduction at m datasets: a 1 - 1/m fraction of the maximal benefit."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (1.0 - 1.0 / m) * rule.mv_plus_sdv


# --------------------------------------------------------------------------
# Nested MV/SDV estimation from synthetic data alone
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NestedVarianceEstimate:
    mv_per_point: np.ndarray
    sdv_per_point: np.ndarray
    mv: float
    sdv: float
    mv_se: float
    sdv_se: float
    r_theta: int
    s_per_theta: int
    multiclass_experimental: bool = False


def _fit_predict(predictor: PredictorSpec, ds: Dataset, test: Dataset, seed: int):
    """Train the predictor on one synthetic dataset and predict the test rows.

    Both sides are encoded with the synthetic dataset's own scaler. Returns
    the predictions and the encoded test targets.
    """
    fm_train = encode(ds, ds, predictor.wants_standardize)
    fm_test = encode(ds, test, predictor.wants_standardize)
    return predict_batch(train(predictor, fm_train, seed), fm_test.x), fm_test.y


def _components(preds: np.ndarray) -> np.ndarray:
    """(n_test, c) prediction block: one column for regression or the binary
    positive-class probability, all class probabilities for multiclass."""
    if preds.ndim == 1:
        return preds[:, None]
    return preds[:, 1:2] if preds.shape[1] == 2 else preds


def estimate_mv_sdv_nested(generator: GeneratorSpec, data: Dataset,
                           predictor: PredictorSpec | str, test: Dataset,
                           r_theta: int = 32, s_per_theta: int = 5,
                           seed: int = 0) -> NestedVarianceEstimate:
    """Estimate model variance and synthetic-data variance per test point.

    Draws r_theta generator fits; for each fit draws s_per_theta synthetic
    datasets and trains the predictor on each. MV is the mean over fits of
    the within-fit prediction variance. SDV is the variance across fits of
    the within-fit mean prediction minus MV / s_per_theta, the part of that
    spread due to averaging only s_per_theta datasets, so it is unbiased.
    Classification predictors contribute their positive-class probability;
    with more than two classes the per-class variances are summed instead,
    which is exposed as an experimental variant (the scalar theory does not
    cover it directly).
    """
    if r_theta < 2 or s_per_theta < 2:
        raise ValueError("r_theta and s_per_theta must be >= 2")
    if isinstance(predictor, str):
        predictor = PredictorSpec(predictor, data.schema.task)
    n_rows = generator.n_synthetic if generator.n_synthetic is not None else data.n
    multiclass = predictor.task == "classification" and data.schema.n_classes > 2

    preds = []
    for i in range(r_theta):
        params = fit(generator, data, child_seed(seed, "fit", i))
        for j in range(s_per_theta):
            ds = sample(params, n_rows, child_seed(child_seed(seed, "synth", i), "rep", j))
            member, _ = _fit_predict(predictor, ds, test,
                                     child_seed(child_seed(seed, "train", i), "rep", j))
            preds.append(_components(member))
    preds = np.reshape(preds, (r_theta, s_per_theta) + preds[0].shape)

    within_var = preds.var(axis=1, ddof=1).sum(axis=-1)         # (r_theta, n_test)
    mv_per_point = within_var.mean(axis=0)
    between_var = preds.mean(axis=1).var(axis=0, ddof=1).sum(axis=-1)
    sdv_per_point = between_var - mv_per_point / s_per_theta
    mv = float(mv_per_point.mean())
    sdv = float(sdv_per_point.mean())
    mv_se = float(within_var.mean(axis=1).std(ddof=1) / math.sqrt(r_theta))
    sdv_se = float(between_var.mean()) * math.sqrt(2.0 / (r_theta - 1))
    return NestedVarianceEstimate(mv_per_point=mv_per_point, sdv_per_point=sdv_per_point,
                                  mv=mv, sdv=sdv, mv_se=mv_se, sdv_se=sdv_se,
                                  r_theta=r_theta, s_per_theta=s_per_theta,
                                  multiclass_experimental=multiclass)


# --------------------------------------------------------------------------
# Oracle decomposition on truth processes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloConfig:
    r_real: int = 100
    r_theta: int = 20
    r_syn: int = 10
    r_y: int = 1000
    r_summary: int | None = None     # defaults to r_theta in shared-summary mode

    def __post_init__(self):
        counts = [self.r_real, self.r_theta, self.r_syn, self.r_y]
        if self.r_summary is not None:
            counts.append(self.r_summary)
        if any(c < 2 for c in counts):
            raise ValueError("all Monte Carlo counts must be >= 2")

    @property
    def summaries(self) -> int:
        return self.r_summary if self.r_summary is not None else self.r_theta


@dataclass(frozen=True)
class TermEstimate:
    value: float
    std_error: float

    def within(self, target: float, multiple: float = TERM_SE_MULTIPLE) -> bool:
        return abs(self.value - target) <= multiple * self.std_error


@dataclass(frozen=True)
class DecompositionReport:
    terms: dict[str, TermEstimate]
    identity_gap: float
    identity_gap_se: float
    status: str
    config: dict
    coverage: dict
    per_point: dict[str, np.ndarray] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "terms": {k: {"value": v.value, "std_error": v.std_error}
                      for k, v in self.terms.items()},
            "identity_gap": self.identity_gap,
            "identity_gap_se": self.identity_gap_se,
            "status": self.status,
            "config": self.config,
            "coverage": self.coverage,
            "per_point": {k: list(map(float, v)) for k, v in self.per_point.items()},
        }

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def _gauss_coverage(k: float) -> float:
    return math.erf(k / math.sqrt(2.0))


def _identity_gap(stats: dict, m: int, noise: float, mode: str):
    """Gap between the direct error estimate and the sum of estimated terms."""
    mv, sdv = stats["mv"], stats["sdv"]
    total = mv / m + sdv / m + stats["rdv"] + stats["bias_sq"] + noise
    if mode == SHARED_SUMMARY:
        total = total + stats["dpvar"]
    if mode == CORRELATED:
        total = total + (1.0 - 1.0 / m) * stats["cov"]
    return stats["mse"] - total


def _assemble(records: dict, mode: str, mc: MonteCarloConfig, f_value, idx=None) -> dict:
    """Turn per-replicate records into (bias-corrected) term estimates.

    records holds arrays indexed by outer replicate along axis 0; idx selects
    a bootstrap resample when given. Sample variances across replicates are
    corrected for the within-replicate estimation noise so every estimator is
    unbiased for its term.
    """
    def take(name):
        arr = records[name]
        return arr if idx is None else arr[idx]

    out = {}
    mv = take("mv").mean(axis=0)
    sdv_raw = take("sdv_raw").mean(axis=0)
    out["mv"] = mv
    out["sdv"] = sdv_raw - mv / mc.r_syn
    b = take("b")
    if mode == SHARED_SUMMARY:
        dpv_raw = take("dpv_raw").mean(axis=0)
        out["dpvar"] = dpv_raw - sdv_raw / mc.r_theta
        out["rdv"] = b.var(axis=0, ddof=1) - dpv_raw / mc.summaries
    else:
        out["rdv"] = b.var(axis=0, ddof=1) - sdv_raw / mc.r_theta
    if mode == CORRELATED:
        out["cov"] = take("cov_raw").mean(axis=0)
    fbar = take("fbar").mean(axis=0)
    out["sdb"] = f_value - fbar
    out["mb"] = fbar - b.mean(axis=0)
    out["bias_sq"] = (out["sdb"] + out["mb"]) ** 2
    out["mse"] = take("mse").mean(axis=0)
    return out


class _Draws(NamedTuple):
    """The draws of one outer replicate of the chain."""
    thetas: np.ndarray       # (r_theta,), or (summaries, r_theta) in shared-summary mode
    grid: np.ndarray         # thetas.shape + (r_syn,) + point shape
    pair_preds: np.ndarray | None  # (r_theta, 2) + point shape, correlated mode only
    members: np.ndarray      # (m,) + point shape: the direct ensemble's members
    rng_direct: np.random.Generator   # the direct chain's generator, for its outcomes


def _chain(process, outputs, mode, m, rho, mc: MonteCarloConfig, seed: int):
    """Draws of the chain real data -> theta -> synthetic data -> prediction,
    one _Draws per outer replicate.

    outputs(rng, thetas, tag, r) returns one prediction per parameter draw in
    the array thetas, each made from its own synthetic dataset, with shape
    thetas.shape + point shape. The estimate chain predicts from r_syn
    synthetic datasets per parameter draw; the direct chain, from fresh draws
    of everything, predicts once for each of the m ensemble members.
    """
    def grid(rng, thetas, r):
        return outputs(rng, np.repeat(thetas[:, None], mc.r_syn, axis=1), "grid", r)

    for r in range(mc.r_real):
        rng = child_rng(seed, "estimate", r)
        real = process.sample_real(rng)
        if mode == SHARED_SUMMARY:
            thetas, preds = np.empty((mc.summaries, mc.r_theta)), []
            for s in range(mc.summaries):
                summary = process.sample_summary(rng, real)
                thetas[s] = process.sample_theta_from_summary(rng, summary, mc.r_theta)
                preds.append(grid(rng, thetas[s], r))
            preds = np.stack(preds)
        else:
            thetas = process.sample_theta(rng, real, mc.r_theta)
            preds = grid(rng, thetas, r)
        pair_preds = None
        if mode == CORRELATED:
            pairs = process.sample_theta_correlated(rng, real, mc.r_theta, 2, rho)
            pair_preds = outputs(rng, pairs, "covgrid", r)

        rng_d = child_rng(seed, "direct", r)
        real_d = process.sample_real(rng_d)
        if mode == SHARED_SUMMARY:
            summary_d = process.sample_summary(rng_d, real_d)
            thetas_d = process.sample_theta_from_summary(rng_d, summary_d, m)
        elif mode == CORRELATED:
            thetas_d = process.sample_theta_correlated(rng_d, real_d, 1, m, rho)[0]
        else:
            thetas_d = process.sample_theta(rng_d, real_d, m)
        yield _Draws(thetas, preds, pair_preds, outputs(rng_d, thetas_d, "directgrid", r),
                     rng_d)


def _bootstrap_se(seed: int, r_real: int, statistic) -> dict[str, float]:
    """Bootstrap standard error of each named scalar of statistic(idx), over
    BOOTSTRAP_RESAMPLES resamples idx of the r_real outer replicates."""
    rng = child_rng(seed, "bootstrap")
    draws = [statistic(rng.integers(0, r_real, size=r_real))
             for _ in range(BOOTSTRAP_RESAMPLES)]
    return {name: float(np.std([d[name] for d in draws], ddof=1)) for name in draws[0]}


def _collect(process, outputs, point_shape: tuple, mode, m, rho, mc: MonteCarloConfig,
             seed: int) -> dict:
    """Per-replicate statistics of the chain, indexed by outer replicate along
    axis 0; outputs is as for _chain, with point shape point_shape.

    Each outer replicate is reduced once, over its whole block of draws.
    """
    names = ["mv", "sdv_raw", "b", "fbar", "mse"]
    if mode == SHARED_SUMMARY:
        names.append("dpv_raw")
    if mode == CORRELATED:
        names.append("cov_raw")
    records = {key: np.empty((mc.r_real,) + point_shape) for key in names}

    def spread(thetas, preds):
        """Within-draw variance, between-draw variance and mean of the
        predictions over r_syn datasets per draw, and the mean f_theta.

        thetas has shape lead + (r_theta,) and preds lead + (r_theta, r_syn)
        + point_shape; each statistic has shape lead + point_shape.
        """
        axis = thetas.ndim - 1
        a = preds.mean(axis=axis + 1)
        fbar = process.f_theta(thetas).mean(axis=axis)
        fbar = np.broadcast_to(fbar.reshape(fbar.shape + (1,) * len(point_shape)),
                               thetas.shape[:axis] + point_shape)
        return preds.var(axis=axis + 1, ddof=1).mean(axis=axis), \
            a.var(axis=axis, ddof=1), a.mean(axis=axis), fbar

    for r, draws in enumerate(_chain(process, outputs, mode, m, rho, mc, seed)):
        if mode == SHARED_SUMMARY:
            mv, sdv_raw, c, fbar = spread(draws.thetas, draws.grid)
            records["dpv_raw"][r] = c.var(axis=0, ddof=1)
            stats = (mv.mean(axis=0), sdv_raw.mean(axis=0), c.mean(axis=0),
                     fbar.mean(axis=0))
        else:
            stats = spread(draws.thetas, draws.grid)
        for key, value in zip(("mv", "sdv_raw", "b", "fbar"), stats):
            records[key][r] = value
        if mode == CORRELATED:
            g = draws.pair_preds.reshape(mc.r_theta, 2, -1)
            cov = [np.cov(g[:, 0, k], g[:, 1, k], ddof=1)[0, 1] for k in range(g.shape[2])]
            records["cov_raw"][r] = np.reshape(cov, point_shape)
        g_hat = draws.members.mean(axis=0)
        y = process.sample_y(draws.rng_direct, (mc.r_y,) + point_shape)
        records["mse"][r] = ((y - g_hat) ** 2).mean(axis=0)
    return records


def _trained_outputs(process, predictor: PredictorSpec, test_points: np.ndarray,
                     seed: int):
    """Grid-prediction callable for _collect that trains the predictor on one
    synthetic dataset per parameter draw and predicts at the test points.

    Slower than the built-in predictor; intended for small Monte Carlo counts.
    """
    schema = process.schema
    test_rows = np.zeros((test_points.shape[0], len(schema.columns)))
    test_rows[:, schema.feature_indices] = test_points
    test_ds = Dataset(schema, test_rows)

    def outputs(rng, thetas, tag, r):
        base = child_seed(seed, tag, r)
        preds = []
        for k, theta in enumerate(thetas.flat):
            cell = child_seed(base, "cell", k)
            ds = process.sample_synth_dataset(theta, process.n_synth, child_rng(cell, "rows"))
            member, _ = _fit_predict(predictor, ds, test_ds, child_seed(cell, "train"))
            preds.append(_components(member)[:, 0])
        return np.reshape(preds, thetas.shape + (test_points.shape[0],))
    return outputs


def check_oracle_request(process, generator_mode: str, predictor: PredictorSpec | str,
                         m: int, rho: float = 0.0) -> bool:
    """Raise ValueError unless oracle_decompose can run this request.

    Returns whether the predictor is the process's built-in one.
    """
    if generator_mode not in (IID, SHARED_SUMMARY, CORRELATED):
        raise ValueError(f"unknown generator mode {generator_mode!r}")
    if generator_mode == SHARED_SUMMARY and not process.has_summary:
        raise ValueError(f"process {process.id!r} has no summary sampler")
    if generator_mode == CORRELATED and not process.supports_correlated:
        raise ValueError(f"process {process.id!r} has no correlated sampler")
    if generator_mode == CORRELATED and not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    builtin = isinstance(predictor, str) and predictor in ("builtin",
                                                           process.builtin_predictor)
    if not builtin:
        if generator_mode == SHARED_SUMMARY:
            raise ValueError("shared_summary oracle runs use the built-in predictor")
        if process.schema.n_classes > 2:
            raise ValueError("scalar decompositions need a binary classification task")
    return builtin


def oracle_decompose(process, generator_mode: str = IID,
                     predictor: PredictorSpec | str = "builtin", m: int = 1,
                     test_points=None, mc: MonteCarloConfig = MonteCarloConfig(),
                     seed: int = 0, rho: float = 0.0) -> DecompositionReport:
    """Estimate every decomposition term on a truth process and check the identity.

    generator_mode selects the sampling structure: "iid" (parameters i.i.d.
    given the real data), "shared_summary" (parameters i.i.d. given one noisy
    summary, adding the DPVAR term), or "correlated" (parameter draws with
    pairwise correlation rho, adding the COV term weighted by 1 - 1/m).

    The direct error estimate comes from fresh draws of the full chain, so
    identity_gap = mse - (mv/m + sdv/m + (1-1/m) cov + rdv + dpvar + bias^2
    + noise) is an unbiased zero whose size is judged against its bootstrap
    standard error. The report is kept either way: status is
    "identity_flagged" when the gap lies beyond IDENTITY_SE_MULTIPLE standard
    errors, else "term_negative" when a variance term lies more than
    TERM_SE_MULTIPLE standard errors below zero, else "ok".
    """
    if isinstance(process, str):
        process = get_process(process)
    builtin = check_oracle_request(process, generator_mode, predictor, m, rho)
    if builtin:
        def outputs(rng, thetas, tag, r):
            return process.predictor_outputs(rng, thetas)
        point_shape = ()
        n_x = 1 if test_points is None else len(test_points)
    else:
        if isinstance(predictor, str):
            predictor = PredictorSpec(predictor, process.schema.task)
        pts = np.atleast_2d(np.asarray(test_points if test_points is not None else [[0.0]],
                                       dtype=np.float64))
        outputs = _trained_outputs(process, predictor, pts, seed)
        n_x = pts.shape[0]
        point_shape = (n_x,)
    records = _collect(process, outputs, point_shape, generator_mode, m, rho, mc, seed)

    noise = process.noise_var()
    f_value = process.f()
    stats = _assemble(records, generator_mode, mc, f_value)
    gap = _identity_gap(stats, m, noise, generator_mode)

    def statistic(idx):
        bs = _assemble(records, generator_mode, mc, f_value, idx=idx)
        return {**{name: np.mean(bs[name]) for name in stats},
                "gap": np.mean(_identity_gap(bs, m, noise, generator_mode))}

    se = _bootstrap_se(seed, mc.r_real, statistic)

    def estimate(name, value):
        return TermEstimate(value=float(np.mean(value)), std_error=se[name])

    term_names = ["mse", "mv", "sdv", "rdv", "sdb", "mb"]
    if generator_mode == SHARED_SUMMARY:
        term_names.append("dpvar")
    if generator_mode == CORRELATED:
        term_names.append("cov")
    terms = {name: estimate(name, stats[name]) for name in term_names}
    terms["noise"] = TermEstimate(value=float(noise), std_error=0.0)

    gap_mean = float(np.mean(gap))
    gap_se = se["gap"]
    if abs(gap_mean) > IDENTITY_SE_MULTIPLE * gap_se:
        status = "identity_flagged"
    elif any(terms[name].value < -TERM_SE_MULTIPLE * terms[name].std_error
             for name in ("mv", "sdv", "rdv", "dpvar") if name in terms):
        status = "term_negative"
    else:
        status = "ok"

    per_point = {}
    for name in term_names:
        vals = np.asarray(stats[name], dtype=np.float64)
        per_point[name] = vals if point_shape else np.full(n_x, float(np.mean(vals)))

    config = {"process": process.id, "mode": generator_mode, "m": m, "rho": rho,
              "predictor": "builtin" if builtin else predictor.label,
              "mc": {"r_real": mc.r_real, "r_theta": mc.r_theta, "r_syn": mc.r_syn,
                     "r_y": mc.r_y, "r_summary": mc.summaries},
              "seed": seed, "n_test_points": n_x}
    coverage = {"term_se_multiple": TERM_SE_MULTIPLE,
                "term_coverage": _gauss_coverage(TERM_SE_MULTIPLE),
                "identity_se_multiple": IDENTITY_SE_MULTIPLE,
                "identity_coverage": _gauss_coverage(IDENTITY_SE_MULTIPLE),
                "bootstrap_resamples": BOOTSTRAP_RESAMPLES}
    return DecompositionReport(terms=terms, identity_gap=gap_mean, identity_gap_se=gap_se,
                               status=status, config=config, coverage=coverage,
                               per_point=per_point)


# --------------------------------------------------------------------------
# Bregman-divergence decomposition bound on a truth process
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BregmanBoundReport:
    error: TermEstimate
    mv: TermEstimate
    sdv: TermEstimate
    rdv: TermEstimate
    bias: TermEstimate
    noise: float
    bound_slack: float            # (mv + sdv + rdv + bias + noise) - error
    bound_slack_se: float
    config: dict

    @property
    def upper_bound(self) -> float:
        return self.mv.value + self.sdv.value + self.rdv.value + self.bias.value + self.noise

    def holds(self, multiple: float = TERM_SE_MULTIPLE) -> bool:
        return self.error.value <= self.upper_bound + multiple * self.bound_slack_se


def _outcome_divergence(spec: brg.BregmanSpec, y_weights: np.ndarray, g) -> float:
    """Expected divergence from the one-hot binary outcome, drawn with
    probabilities y_weights, to the prediction g."""
    return float(y_weights @ np.array([brg.divergence(spec, y, g) for y in np.eye(2)]))


def _collect_bregman(process, spec: brg.BregmanSpec, y_weights: np.ndarray, m: int,
                     mc: MonteCarloConfig, seed: int):
    """Per-replicate MV, SDV, mean dual prediction and ensemble error of the
    i.i.d. chain with probability-vector predictions, indexed by outer
    replicate along axis 0."""
    def outputs(rng, thetas, tag, r):
        return process.predictor_prob_outputs(rng, thetas)

    mv_r = np.empty(mc.r_real)
    sdv_r = np.empty(mc.r_real)
    c_r_dual = np.empty((mc.r_real, 2))
    err_r = np.empty(mc.r_real)
    for r, draws in enumerate(_chain(process, outputs, IID, m, 0.0, mc, seed)):
        probs = draws.grid                                       # (t, s, 2)
        duals = brg.dual(spec, probs)
        centers_t = brg.dual_inverse(spec, duals.mean(axis=1))   # E_{D_s|theta}[g]
        mv_r[r] = brg.divergence(spec, centers_t[:, None, :], probs).mean(axis=1).mean()
        center_r = brg.dual_inverse(spec, brg.dual(spec, centers_t).mean(axis=0))
        sdv_r[r] = float(np.mean(brg.divergence(spec, center_r, centers_t)))
        c_r_dual[r] = duals.reshape(-1, 2).mean(axis=0)
        err_r[r] = _outcome_divergence(spec, y_weights, brg.dual_average(spec, draws.members))
    return mv_r, sdv_r, c_r_dual, err_r


def bregman_oracle_decompose(process, m: int = 1,
                             mc: MonteCarloConfig = MonteCarloConfig(),
                             seed: int = 0) -> BregmanBoundReport:
    """Check the generalized-variance upper bound for dual-averaged ensembles.

    Runs the i.i.d. chain of a binary truth process with probability-vector
    predictions under the negative-entropy potential. The expected divergence
    of the dual-averaged ensemble must not exceed MV + SDV + RDV + Bias +
    Noise (with equality at m = 1).
    """
    if isinstance(process, str):
        process = get_process(process)
    if m < 1:
        raise ValueError("m must be >= 1")
    if not hasattr(process, "predictor_prob_outputs"):
        raise ValueError(f"process {process.id!r} has no binary probability predictor")
    spec = brg.BregmanSpec(brg.NEGENTROPY, 2)
    p0 = process.f()
    y_weights = np.array([1.0 - p0, p0])
    y_mean = brg.dual_inverse(spec, brg.dual(spec, y_weights))
    noise = _outcome_divergence(spec, y_weights, y_mean)
    mv_r, sdv_r, c_r_dual, err_r = _collect_bregman(process, spec, y_weights, m, mc, seed)

    def statistic(idx):
        cd = c_r_dual[idx]
        overall = brg.dual_inverse(spec, cd.mean(axis=0))
        out = {"error": err_r[idx].mean(), "mv": mv_r[idx].mean(), "sdv": sdv_r[idx].mean(),
               "rdv": float(np.mean(brg.divergence(spec, overall, brg.dual_inverse(spec, cd)))),
               "bias": float(brg.divergence(spec, y_mean, overall))}
        out["slack"] = out["mv"] + out["sdv"] + out["rdv"] + out["bias"] + noise - out["error"]
        return out

    point = statistic(np.arange(mc.r_real))
    se = _bootstrap_se(seed, mc.r_real, statistic)

    def est(name):
        return TermEstimate(value=float(point[name]), std_error=se[name])

    config = {"process": process.id, "m": m, "seed": seed,
              "mc": {"r_real": mc.r_real, "r_theta": mc.r_theta, "r_syn": mc.r_syn}}
    return BregmanBoundReport(error=est("error"), mv=est("mv"), sdv=est("sdv"),
                              rdv=est("rdv"), bias=est("bias"), noise=noise,
                              bound_slack=float(point["slack"]), bound_slack_se=se["slack"],
                              config=config)


# --------------------------------------------------------------------------
# Measured error curves over m
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveResult:
    rows: list[dict]
    per_repeat: dict[int, np.ndarray]
    aggregate: dict[int, tuple[float, float | None]]

    def means(self) -> dict[int, float]:
        return {m: mean for m, (mean, _) in self.aggregate.items()}


def curve_repeat(generator: GeneratorSpec, data: Dataset, predictor: PredictorSpec,
                 test: Dataset, m_values, averaging: str, metric: MetricSpec,
                 rep_seed: int, mode: str = "independent") -> dict[int, tuple]:
    """One experiment repeat: generate max(m) datasets, train one model per
    dataset, score the nested ensemble prefixes. Pure in rep_seed, so repeats
    may run in any order or in parallel."""
    check_averaging(averaging, predictor.task)
    if min(m_values) < 1:
        raise ValueError("m values must be >= 1")
    datasets, _ = generate_ensemble(generator, data, max(m_values), mode, seed=rep_seed)
    member_preds = []
    for i, ds in enumerate(datasets):
        preds, y_ref = _fit_predict(predictor, ds, test, child_seed(rep_seed, "train", i))
        member_preds.append(preds)
    results = score_prefixes(np.asarray(member_preds), y_ref, m_values, averaging, metric,
                             predictor.task)
    return {m: (result.score, result.std_error) for m, result in results.items()}


def mse_curve(generator: GeneratorSpec, data: Dataset,
              predictor: PredictorSpec | str, test: Dataset,
              m_values, repeats: int, averaging: str = MEAN,
              metric: MetricSpec = MetricSpec("mse"), seed: int = 0,
              mode: str = "independent", dataset_label: str = "data") -> CurveResult:
    """Measure the ensemble error for each m, reusing nested member prefixes.

    Each repeat generates max(m_values) synthetic datasets once and trains
    one model per dataset; the ensemble for a smaller m uses the first m
    members, so the curve within a repeat is driven by the same draws.
    """
    if isinstance(predictor, str):
        predictor = PredictorSpec(predictor, data.schema.task)
    m_values = sorted(set(int(m) for m in m_values))
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    labels = {"dataset": dataset_label, "generator": generator.kind, "mode": mode,
              "predictor": predictor.label, "averaging": averaging, "metric": metric.kind}
    per_repeat = {m: np.empty(repeats) for m in m_values}
    rows = []
    for j in range(repeats):
        scores = curve_repeat(generator, data, predictor, test, m_values, averaging,
                              metric, child_seed(seed, "repeat", j), mode)
        for m in m_values:
            per_repeat[m][j] = scores[m][0]
        rows.extend(long_rows(labels, j, scores))

    aggregate = {}
    for m in m_values:
        scores = per_repeat[m]
        se = float(scores.std(ddof=1) / math.sqrt(repeats)) if repeats > 1 else None
        aggregate[m] = (float(scores.mean()), se)
    return CurveResult(rows=rows, per_repeat=per_repeat, aggregate=aggregate)
