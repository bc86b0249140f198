"""Estimators and Monte Carlo oracles for the error decompositions.

Five sections live here:

* Rule of thumb: an ensemble over m synthetic datasets removes a (1 - 1/m)
  fraction of the maximal benefit MV + SDV, so the whole error curve is
  predictable from the errors at one and two datasets (or from a
  least-squares fit over several m).
* Nested MV/SDV estimation: draw generator parameters several times, several
  synthetic datasets per draw, train the predictor on each, and read the two
  variance components off the within/between split of the prediction spread.
* Oracle decomposition on truth processes: every term of the squared-error
  decomposition (including the DP-summary and correlated variants) is
  estimated by nested Monte Carlo from its own definition, the total error
  is estimated independently from fresh draws, and the gap between the two
  must vanish within Monte Carlo error. Standard errors come from a
  nonparametric bootstrap over the outermost replication level.
* Bregman bound on a truth process: the same chain with probability-vector
  predictions checks the bound for dual-averaged ensembles.
* Error curves over m: score the nested prefixes of one ensemble.
"""
from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import bregman as brg
from .data import Dataset, check_count, check_real, check_seed, encode
from .generators import GeneratorSpec, fit, generate_ensemble, sample
from .metrics import (MEAN, MetricSpec, check_averaging, finite_mean, group_scores,
                      score_prefixes)
from .predictors import PredictorSpec, _workspace, parse_predictor, predict_batch, train
from .processes import get_process
from .rng import child_rng, child_seed

IID = "iid"
SHARED_SUMMARY = "shared_summary"
CORRELATED = "correlated"
# generator mode -> the terms it adds to the squared-error decomposition
_MODE_TERMS = {IID: (), SHARED_SUMMARY: ("dpvar",), CORRELATED: ("cov",)}

# The estimate chain's grid and _spreads' squared deviations, in two buffers per thread that
# later replicates reuse: a fresh array above glibc's 128 KiB mmap threshold faults in its
# pages on every replicate. Its own owner, so a trained kNN predictor cannot overwrite them.
_ORACLE_WORKSPACE = threading.local()

BOOTSTRAP_RESAMPLES = 400
# A block of bootstrap resamples gathers at most this many record values, and
# always at least one resample.
_BOOTSTRAP_CELLS = 1 << 13
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
    r_squared: float | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mse1, self.mv_plus_sdv, self.r_squared or 0.0))):
            raise ValueError(f"the {self.method} rule-of-thumb fit is not finite")

    @property
    def max_benefit(self) -> float:
        """Limiting improvement as m grows without bound."""
        return self.mv_plus_sdv


def fit_rule_two_point(mse1: float, mse2: float) -> RuleOfThumbFit:
    """Estimate MV + SDV = 2 (MSE_1 - MSE_2) from errors at m = 1 and m = 2.

    A negative value diagnoses estimation noise (or a generator outside the
    i.i.d. setting) and is returned as-is; one that is not finite, as when the
    difference overflows, raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        benefit = 2.0 * (mse1 - mse2)
    return RuleOfThumbFit(mse1=float(mse1), mv_plus_sdv=float(benefit), method="two_point")


def fit_rule_regression(points: dict[int, float]) -> RuleOfThumbFit:
    """Least-squares fit of measured errors against 1 - 1/m.

    The negated slope estimates MV + SDV and the intercept estimates the
    single-dataset error. R^2 squares the residuals after one exact power-of-two
    scaling, so a huge curve fits too; a fit or R^2 that is not finite raises
    ValueError, as does a key that is not a count (data.check_count).
    """
    ms = sorted(check_count(m, "m") for m in points)
    if len(ms) < 2:
        raise ValueError("need at least 2 distinct m values")
    x = np.array([1.0 - 1.0 / m for m in ms])
    y = np.array([points[m] for m in ms])
    shift = -np.frexp(np.abs(y).max())[1]
    with np.errstate(over="ignore", invalid="ignore"):
        slope, intercept = np.polyfit(x, y, 1)
        ss_res = float(np.sum(np.ldexp(y - (intercept + slope * x), shift) ** 2))
        ss_tot = float(np.sum(np.ldexp(y - y.mean(), shift) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RuleOfThumbFit(mse1=float(intercept), mv_plus_sdv=float(-slope),
                          method="regression", r_squared=r2)


def predict_mse(rule: RuleOfThumbFit, m: int) -> float:
    """Predicted error with an ensemble of m synthetic datasets; one that is
    not finite, as when the benefit term overflows, raises ValueError."""
    m = check_count(m, "m")
    predicted = rule.mse1 - (1.0 - 1.0 / m) * rule.mv_plus_sdv
    if not math.isfinite(predicted):
        raise ValueError(f"the predicted error at m = {m} is not finite")
    return predicted


def achieved_benefit(rule: RuleOfThumbFit, m: int) -> float:
    """Error reduction at m datasets: a 1 - 1/m fraction of the maximal benefit."""
    m = check_count(m, "m")
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


def _check_fit_request(data: Dataset, predictors, test: Dataset) -> None:
    """Raise ValueError unless there is a predictor, each is for the data's task
    and test has the data's columns and at least one row."""
    if not predictors:
        raise ValueError("there are no predictors")
    for predictor in predictors:
        if predictor.task != data.schema.task:
            raise ValueError(f"predictor {predictor.label!r} is for {predictor.task}, "
                             f"not the data's {data.schema.task} task")
    if test.schema != data.schema:
        raise ValueError("the test set's columns are not the data's")
    if test.n == 0:
        raise ValueError("the test set is empty")


def _members(predictors, test: Dataset, draws) -> tuple[list[np.ndarray], np.ndarray]:
    """Train each predictor once per (synthetic dataset, training seed) pair of
    draws and predict the test rows with each model.

    Both sides are encoded with the dataset's own scaler, once per draw and
    wants_standardize value. Returns one (m, n_test, ...) member block per
    predictor and the encoded test targets.
    """
    preds = [[] for _ in predictors]
    flags = {predictor.wants_standardize for predictor in predictors}
    for ds, seed in draws:
        encoded = {flag: (encode(ds, ds, flag), encode(ds, test, flag)) for flag in flags}
        for predictor, out in zip(predictors, preds):
            fm_train, fm_test = encoded[predictor.wants_standardize]
            out.append(predict_batch(train(predictor, fm_train, seed), fm_test.x))
    return [np.asarray(p) for p in preds], fm_test.y


def _components(block: np.ndarray, task: str) -> np.ndarray:
    """(m, n_test, c) view of a member block: one column for regression or the
    binary positive-class probability, all class probabilities for multiclass."""
    if task == "regression":
        return block[..., None]
    return block[..., 1:2] if block.shape[-1] == 2 else block


def _spreads(grid: np.ndarray) -> tuple[dict, np.ndarray]:
    """Spreads of a (blocks, r_theta, r_syn) + point prediction grid, averaged
    over its parameter blocks: mv, the mean within-draw variance; sdv_raw, the
    variance of the draw means; b, their mean; and with more than one block
    dpv_raw, the variance of the block means. Also returns the within-draw
    variances themselves, of shape (blocks, r_theta) + point."""
    blocks, r_theta, r_syn = grid.shape[:3]
    # np.mean and np.var(ddof=1)'s own operations: a sum over the axis divided by
    # its length, and each variance centred at the mean already taken; the
    # grid's squared deviations go to a workspace buffer in place of temporaries
    a = np.add.reduce(grid, axis=2) / r_syn          # (blocks, r_theta) + point shape
    d = np.subtract(grid, a[:, :, None], out=_workspace(_ORACLE_WORKSPACE, 1, grid.shape))
    d *= d
    within = np.add.reduce(d, axis=2) / (r_syn - 1)
    b = np.add.reduce(a, axis=1) / r_theta
    e = a - b[:, None]
    e *= e
    per_block = {"mv": np.add.reduce(within, axis=1) / r_theta,
                 "sdv_raw": np.add.reduce(e, axis=1) / (r_theta - 1), "b": b}
    out = {name: np.add.reduce(stat, axis=0) / blocks for name, stat in per_block.items()}
    if blocks > 1:
        e = b - out["b"]
        e *= e
        out["dpv_raw"] = np.add.reduce(e, axis=0) / (blocks - 1)
    return out, within


def _nested_fit(generator, data, predictors, test, n_rows, s_per_theta, seed, i) -> list:
    """The (s_per_theta, n_test, ...) member block of nested fit i for each predictor."""
    params = fit(generator, data, child_seed(seed, "fit", i))
    return _members(predictors, test, (
        (sample(params, n_rows, child_seed(child_seed(seed, "synth", i), "rep", j)),
         child_seed(child_seed(seed, "train", i), "rep", j)) for j in range(s_per_theta)))[0]


def nested_estimates(generator: GeneratorSpec, data: Dataset, predictors, test: Dataset,
                     r_theta: int = 32, s_per_theta: int = 5, seed: int = 0,
                     jobs: int = 1) -> list[NestedVarianceEstimate]:
    """estimate_mv_sdv_nested of each PredictorSpec in the list predictors, in
    order. Each generator fit and synthetic dataset is drawn once and trains
    every predictor, so entry k has the bytes of a lone call on predictors[k]."""
    r_theta = check_count(r_theta, "r_theta", minimum=2)
    s_per_theta = check_count(s_per_theta, "s_per_theta", minimum=2)
    seed = check_seed(seed)
    _check_fit_request(data, predictors, test)
    n_rows = generator.n_synthetic if generator.n_synthetic is not None else data.n

    fits = run_units(partial(_nested_fit, generator, data, predictors, test, n_rows,
                             s_per_theta, seed), range(r_theta), jobs)
    estimates = []
    for predictor, blocks in zip(predictors, zip(*fits)):
        grid = _components(np.stack(blocks), predictor.task)[None]
        with np.errstate(over="ignore", invalid="ignore"):
            spreads, within = _spreads(grid)         # the oracle's, over one block of fits
            mv_per_point = spreads["mv"].sum(axis=-1)
            between_var = spreads["sdv_raw"].sum(axis=-1)
            sdv_per_point = between_var - mv_per_point / s_per_theta
            mv, sdv = float(mv_per_point.mean()), float(sdv_per_point.mean())
            within_var = within[0].sum(axis=-1)      # (r_theta, n_test), for the SE
            mv_se = float(within_var.mean(axis=1).std(ddof=1) / math.sqrt(r_theta))
            sdv_se = float(between_var.mean()) * math.sqrt(2.0 / (r_theta - 1))
        if not np.isfinite([mv, sdv, mv_se, sdv_se]).all():     # a per-point NaN or inf too
            raise ValueError("the nested MV/SDV estimate or its standard error is not finite")
        estimates.append(NestedVarianceEstimate(
            mv_per_point=mv_per_point, sdv_per_point=sdv_per_point, mv=mv, sdv=sdv,
            mv_se=mv_se, sdv_se=sdv_se, r_theta=r_theta, s_per_theta=s_per_theta))
    return estimates


def estimate_mv_sdv_nested(generator: GeneratorSpec, data: Dataset,
                           predictor: PredictorSpec | str, test: Dataset,
                           r_theta: int = 32, s_per_theta: int = 5,
                           seed: int = 0, jobs: int = 1) -> NestedVarianceEstimate:
    """Estimate model variance and synthetic-data variance per test point.

    Draws r_theta generator fits; for each fit draws s_per_theta synthetic
    datasets and trains the predictor on each. MV is the mean over fits of
    the within-fit prediction variance. SDV is the variance across fits of
    the within-fit mean prediction minus MV / s_per_theta, the part of that
    spread due to averaging only s_per_theta datasets, so it is unbiased.
    Binary predictors contribute their positive-class probability (the
    brier_binary terms); multiclass ones sum the per-class spreads (the
    brier_multiclass terms: squared error adds over class coordinates).
    A spread that overflows raises ValueError. Each fit draws from its own
    seeds, so jobs workers (run_units) give the serial bytes.
    """
    if isinstance(predictor, str):
        predictor = parse_predictor(predictor, data.schema.task)
    return nested_estimates(generator, data, [predictor], test, r_theta, s_per_theta,
                            seed, jobs)[0]


# --------------------------------------------------------------------------
# Oracle decomposition on truth processes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloConfig:
    r_real: int = 100
    r_theta: int = 20
    r_syn: int = 10
    r_y: int = 1000
    r_summary: int | None = None     # shared-summary mode only; defaults to r_theta

    def __post_init__(self):
        """Every count must be an integer >= 2; numpy integers are stored as int."""
        optional = ("r_summary",) if self.r_summary is not None else ()
        for name in ("r_real", "r_theta", "r_syn", "r_y") + optional:
            object.__setattr__(self, name, check_count(getattr(self, name), name, minimum=2))

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


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


def _assemble(records: dict, mode: str, mc: MonteCarloConfig, f_value, idx) -> dict:
    """Turn per-replicate records into (bias-corrected) term estimates.

    records holds arrays indexed by outer replicate along axis 0; each row of
    the (rows, r_real) index block idx selects the replicates, all or a
    bootstrap resample, for one row of every term. Variances across them are
    corrected for within-replicate noise so every estimator is unbiased.
    """
    def take(name):
        return records[name][idx]

    out = {}
    mv = take("mv").mean(axis=1)
    sdv_raw = take("sdv_raw").mean(axis=1)
    out["mv"] = mv
    out["sdv"] = sdv_raw - mv / mc.r_syn
    b = take("b")
    if mode == SHARED_SUMMARY:
        dpv_raw = take("dpv_raw").mean(axis=1)
        out["dpvar"] = dpv_raw - sdv_raw / mc.r_theta
        out["rdv"] = b.var(axis=1, ddof=1) - dpv_raw / mc.summaries
    else:
        out["rdv"] = b.var(axis=1, ddof=1) - sdv_raw / mc.r_theta
    if mode == CORRELATED:
        out["cov"] = take("cov_raw").mean(axis=1)
    fbar = take("fbar").mean(axis=1)
    out["sdb"] = f_value - fbar
    out["mb"] = fbar - b.mean(axis=1)
    bias = out["sdb"] + out["mb"]
    out["bias_sq"] = bias * bias
    out["mse"] = take("mse").mean(axis=1)
    return out


class _Draws(NamedTuple):
    """The draws of one outer replicate of the chain."""
    thetas: np.ndarray       # (blocks, r_theta): one block per summary release, else one
    # (blocks, r_theta, r_syn) + point shape: a view of the thread's oracle workspace,
    # valid only until the reducer returns
    grid: np.ndarray
    pair_preds: np.ndarray | None  # (r_theta, 2) + point shape, correlated mode only
    members: np.ndarray      # (m,) + point shape: the direct ensemble's members
    rng_direct: np.random.Generator   # the direct chain's generator, for its outcomes


def _chain(process, outputs, reduce, mode, m, rho, mc, seed, r) -> dict:
    """The named statistics of outer replicate r: reduce of its _Draws of the
    chain real data -> theta -> synthetic data -> prediction.

    outputs(rng, thetas, tag, r) returns one prediction per parameter draw in
    the array thetas, each made from its own synthetic dataset, with shape
    thetas.shape + point shape. The estimate chain draws its parameters in
    blocks of r_theta, one per summary release in shared-summary mode and one
    otherwise, and predicts from r_syn synthetic datasets per draw (shapes in
    _Draws); the direct chain, from fresh draws of everything, predicts once
    for each of the m ensemble members.
    """
    def thetas(rng, real, n, correlated=False):
        """One block of n parameter draws for the mode."""
        if mode == SHARED_SUMMARY:
            return process.sample_theta_from_summary(rng, process.sample_summary(rng, real), n)
        if correlated:
            return process.sample_theta_correlated(rng, real, 1, n, rho)[0]
        return process.sample_theta(rng, real, n)

    blocks = mc.summaries if mode == SHARED_SUMMARY else 1
    rng = child_rng(seed, "estimate", r)
    real = process.sample_real(rng)
    block_thetas = np.empty((blocks, mc.r_theta))
    for k in range(blocks):
        block_thetas[k] = thetas(rng, real, mc.r_theta)
        preds = outputs(rng, np.repeat(block_thetas[k][:, None], mc.r_syn, axis=1), "grid", r)
        if k == 0:
            grid = _workspace(_ORACLE_WORKSPACE, 0, (blocks,) + preds.shape)
        grid[k] = preds
    pair_preds = None
    if mode == CORRELATED:
        pairs = process.sample_theta_correlated(rng, real, mc.r_theta, 2, rho)
        pair_preds = outputs(rng, pairs, "covgrid", r)

    rng_d = child_rng(seed, "direct", r)
    thetas_d = thetas(rng_d, process.sample_real(rng_d), m, mode == CORRELATED)
    return reduce(_Draws(block_thetas, grid, pair_preds,
                         outputs(rng_d, thetas_d, "directgrid", r), rng_d))


def _estimates(seed: int, r_real: int, statistic,
               width: int = 1) -> tuple[dict[str, TermEstimate], dict]:
    """Each named statistic on all r_real outer replicates, with its bootstrap
    standard error over BOOTSTRAP_RESAMPLES resamples of them, and the
    statistic's arrays on all replicates. statistic maps a (rows, r_real)
    index block, one resample per row, to named arrays whose rows each reduce
    to their mean, gathering width values of a record per index; blocks of at
    most _BOOTSTRAP_CELLS gathered values draw the same resamples as one draw
    per row."""
    def means(arrays):
        return {name: a.reshape(len(a), -1).mean(axis=1) for name, a in arrays.items()}

    full = statistic(np.arange(r_real)[None])
    rng = child_rng(seed, "bootstrap")
    rows = max(1, _BOOTSTRAP_CELLS // (r_real * width))
    blocks = [means(statistic(rng.integers(0, r_real, size=(
                  min(rows, BOOTSTRAP_RESAMPLES - start), r_real))))
              for start in range(0, BOOTSTRAP_RESAMPLES, rows)]
    return {name: TermEstimate(value=float(value[0]), std_error=float(
                np.std(np.concatenate([b[name] for b in blocks]), ddof=1)))
            for name, value in means(full).items()}, full


def _collect(chain, r_real: int, jobs: int = 1) -> dict:
    """The statistics chain(r) of the r_real outer replicates, mapped by
    run_units, as arrays indexed by outer replicate along axis 0."""
    reps = run_units(chain, range(r_real), jobs)
    return {name: np.array([rep[name] for rep in reps], dtype=np.float64) for name in reps[0]}


def _squared_stats(process, point_shape: tuple, mode: str, mc, draws: _Draws) -> dict:
    """Reducer for _collect of the squared-error terms, with point shape
    point_shape: the estimate chain's _spreads, its mean f_theta, and the
    direct error; cov_raw sums in order."""
    out, _ = _spreads(draws.grid)
    out["fbar"] = np.broadcast_to(process.f_theta(draws.thetas).mean(axis=1).mean(axis=0),
                                  point_shape)
    if mode == CORRELATED:
        d = draws.pair_preds - np.add.accumulate(draws.pair_preds)[-1] / mc.r_theta
        out["cov_raw"] = np.add.accumulate(d[:, 0] * d[:, 1])[-1] / (mc.r_theta - 1)
    g_hat = draws.members.mean(axis=0)
    y = process.sample_y(draws.rng_direct, (mc.r_y,) + point_shape)
    out["mse"] = ((y - g_hat) ** 2).mean(axis=0)
    return out


def _builtin_outputs(predict, rng, thetas, tag, r) -> np.ndarray:
    """Grid predictions for _chain from a process's built-in predictor method."""
    return predict(rng, thetas)


def _trained_outputs(process, predictor, test_points, seed, rng, thetas, tag, r) -> np.ndarray:
    """Grid predictions for _chain that train the predictor on one synthetic
    dataset per parameter draw and predict at the test points; slower than
    the built-in predictor, so meant for small Monte Carlo counts."""
    test_rows = np.zeros((len(test_points), len(process.schema.columns)))
    test_rows[:, process.schema.feature_indices] = test_points
    base = child_seed(seed, tag, r)
    cells = [child_seed(base, "cell", k) for k in range(thetas.size)]
    [block], _ = _members([predictor], Dataset(process.schema, test_rows), (
        (process.sample_synth_dataset(theta, process.n_synth, child_rng(cell, "rows")),
         child_seed(cell, "train")) for theta, cell in zip(thetas.flat, cells)))
    return _components(block, predictor.task)[..., 0].reshape(thetas.shape + (-1,))


def _check_test_points(process, test_points) -> np.ndarray:
    """The test points as a non-empty, finite (n, d) block, d the process's
    feature count; one point at the origin if test_points is None."""
    d = len(process.schema.feature_indices)
    if test_points is None:
        return np.zeros((1, d))
    pts = np.asarray(test_points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != d or not np.all(np.isfinite(pts)):
        raise ValueError(f"test_points must be a non-empty, finite (n, {d}) block "
                         f"for process {process.id!r}")
    return pts


def check_oracle_request(process, generator_mode: str, predictor: PredictorSpec | str,
                         m: int, rho: float = 0.0) -> PredictorSpec | None:
    """Raise ValueError unless oracle_decompose can run this request.

    Returns the resolved predictor: None for the process's built-in one,
    otherwise the spec, parsed from spec syntax such as 'knn:3' if a string.
    """
    if generator_mode not in _MODE_TERMS:
        raise ValueError(f"unknown generator mode {generator_mode!r}")
    if generator_mode == SHARED_SUMMARY and not hasattr(process, "sample_summary"):
        raise ValueError(f"process {process.id!r} has no summary sampler")
    if generator_mode == CORRELATED and not hasattr(process, "sample_theta_correlated"):
        raise ValueError(f"process {process.id!r} has no correlated sampler")
    check_real(rho, "rho", 0.0, 1.0)
    if rho != 0.0 and generator_mode != CORRELATED:
        raise ValueError(f"rho applies to the correlated mode only, not {generator_mode!r}")
    check_count(m, "m")
    if isinstance(predictor, str):
        if predictor in ("builtin", process.builtin_predictor):
            return None
        predictor = parse_predictor(predictor, process.schema.task)
    if generator_mode == SHARED_SUMMARY:
        raise ValueError("shared_summary oracle runs use the built-in predictor")
    if process.schema.n_classes > 2:
        raise ValueError("scalar decompositions need a binary classification task")
    return predictor


def oracle_decompose(process, generator_mode: str = IID,
                     predictor: PredictorSpec | str = "builtin", m: int = 1,
                     test_points=None, mc: MonteCarloConfig = MonteCarloConfig(),
                     seed: int = 0, rho: float = 0.0, jobs: int = 1) -> DecompositionReport:
    """Estimate every decomposition term on a truth process and check the identity.

    generator_mode selects the sampling structure: "iid" (parameters i.i.d.
    given the real data), "shared_summary" (parameters i.i.d. given one noisy
    summary, adding the DPVAR term), or "correlated" (parameter draws with
    pairwise correlation rho, adding the COV term weighted by 1 - 1/m); the
    other modes take no rho, so a nonzero one raises ValueError.

    m is the ensemble size, a Python or numpy integer >= 1. test_points is a
    non-empty, finite (n, d) block of feature values, d the process's feature
    count (0 for discrete_toy), and defaults to one point at the origin; the
    built-in predictors do not depend on it, so their per-point terms repeat.

    The direct error estimate comes from fresh draws of the full chain, so
    identity_gap = mse - (mv/m + sdv/m + (1-1/m) cov + rdv + dpvar + bias^2
    + noise) is an unbiased zero whose size is judged against its bootstrap
    standard error. The report is kept either way: status is
    "identity_flagged" when the gap lies beyond IDENTITY_SE_MULTIPLE standard
    errors, else "term_negative" when a variance term lies more than
    TERM_SE_MULTIPLE standard errors below zero, else "ok". Each outer replicate
    draws from its own seeds, so jobs workers (run_units) give the serial bytes.
    """
    if isinstance(process, str):
        process = get_process(process)
    predictor = check_oracle_request(process, generator_mode, predictor, m, rho)
    seed, rho = check_seed(seed), float(rho)
    pts = _check_test_points(process, test_points)
    n_x = pts.shape[0]
    point_shape = () if predictor is None else (n_x,)
    outputs = (partial(_builtin_outputs, process.predictor_outputs) if predictor is None
               else partial(_trained_outputs, process, predictor, pts, seed))
    reduce = partial(_squared_stats, process, point_shape, generator_mode, mc)
    records = _collect(partial(_chain, process, outputs, reduce, generator_mode, m, rho, mc,
                               seed), mc.r_real, jobs)

    noise = process.noise_var()
    f_value = process.f()
    term_names = ("mse", "mv", "sdv", "rdv", "sdb", "mb") + _MODE_TERMS[generator_mode]

    def statistic(idx):
        bs = _assemble(records, generator_mode, mc, f_value, idx)
        bs["gap"] = _identity_gap(bs, m, noise, generator_mode)
        return {name: bs[name] for name in term_names + ("gap",)}

    terms, stats = _estimates(seed, mc.r_real, statistic, math.prod(point_shape))
    gap = terms.pop("gap")
    terms["noise"] = TermEstimate(value=float(noise), std_error=0.0)
    if abs(gap.value) > IDENTITY_SE_MULTIPLE * gap.std_error:
        status = "identity_flagged"
    elif any(terms[name].value < -TERM_SE_MULTIPLE * terms[name].std_error
             for name in ("mv", "sdv", "rdv", "dpvar") if name in terms):
        status = "term_negative"
    else:
        status = "ok"

    per_point = {name: np.broadcast_to(stats[name][0], (n_x,)) for name in term_names}

    config = {"process": process.id, "mode": generator_mode, "m": int(m), "rho": rho,
              "predictor": "builtin" if predictor is None else predictor.label,
              "mc": {"r_real": mc.r_real, "r_theta": mc.r_theta, "r_syn": mc.r_syn,
                     "r_y": mc.r_y},
              "seed": seed, "n_test_points": n_x}
    if generator_mode == SHARED_SUMMARY:       # the other modes draw no summary
        config["mc"]["r_summary"] = mc.summaries
    coverage = {"term_se_multiple": TERM_SE_MULTIPLE,
                "term_coverage": _gauss_coverage(TERM_SE_MULTIPLE),
                "identity_se_multiple": IDENTITY_SE_MULTIPLE,
                "identity_coverage": _gauss_coverage(IDENTITY_SE_MULTIPLE),
                "bootstrap_resamples": BOOTSTRAP_RESAMPLES}
    return DecompositionReport(terms=terms, identity_gap=gap.value,
                               identity_gap_se=gap.std_error, status=status, config=config,
                               coverage=coverage, per_point=per_point)


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


def _outcome_divergence(spec: brg.BregmanSpec, outcomes: np.ndarray, y_weights: np.ndarray,
                        g: np.ndarray) -> float:
    """Expected divergence from the one-hot binary outcome, drawn with
    probabilities y_weights, to the prediction g; outcomes (the one-hot rows)
    and g are checked points."""
    d0, d1 = brg._divergence(spec, outcomes, g)
    return float(y_weights[0] * d0 + y_weights[1] * d1)


def _bregman_stats(spec: brg.BregmanSpec, outcomes: np.ndarray, y_weights: np.ndarray,
                   draws: _Draws) -> dict:
    """Reducer for _collect of the i.i.d. chain with probability-vector
    predictions: MV, SDV, mean dual prediction and ensemble error. The
    probability grid, the member stack and each centre derived from them are
    checked once."""
    probs = brg._check_domain(spec, draws.grid[0])                  # (t, s, 2)
    duals = brg._dual(spec, probs)
    # E_{D_s|theta}[g] for each draw theta
    centers_t = brg._check_domain(spec, brg._mean_inverse(spec, duals.mean(axis=1)))
    g = brg._check_domain(spec, brg.dual_average(spec, draws.members))
    return {"mv": brg._divergence(spec, centers_t[:, None, :], probs).mean(axis=1).mean(),
            "sdv": brg._central(spec, centers_t).gvar,
            "c_dual": duals.reshape(-1, 2).mean(axis=0),
            "error": _outcome_divergence(spec, outcomes, y_weights, g)}


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
    m = check_count(m, "m")
    seed = check_seed(seed)
    if not hasattr(process, "predictor_prob_outputs"):
        raise ValueError(f"process {process.id!r} has no binary probability predictor")
    spec = brg.BregmanSpec(brg.NEGENTROPY, 2)
    p0 = process.f()
    y_weights = np.array([1.0 - p0, p0])
    outcomes = brg._check_domain(spec, np.eye(2))
    y_mean = brg._check_domain(spec, brg.dual_inverse(spec, brg.dual(spec, y_weights)))
    noise = _outcome_divergence(spec, outcomes, y_weights, y_mean)

    outputs = partial(_builtin_outputs, process.predictor_prob_outputs)
    reduce = partial(_bregman_stats, spec, outcomes, y_weights)
    records = _collect(partial(_chain, process, outputs, reduce, IID, m, 0.0, mc, seed),
                       mc.r_real)

    def statistic(idx):
        cd = records["c_dual"][idx]                              # (rows, r_real, 2)
        overall = brg._check_domain(spec, brg._mean_inverse(spec, cd.mean(axis=1)))
        out = {name: records[name][idx].mean(axis=1) for name in ("error", "mv", "sdv")}
        centers = brg._check_domain(spec, brg._mean_inverse(spec, cd))
        out["rdv"] = brg._divergence(spec, overall[:, None], centers).mean(axis=1)
        out["bias"] = brg._divergence(spec, y_mean, overall)
        out["slack"] = out["mv"] + out["sdv"] + out["rdv"] + out["bias"] + noise - out["error"]
        return out

    est, _ = _estimates(seed, mc.r_real, statistic)
    slack = est.pop("slack")
    config = {"process": process.id, "m": m, "seed": seed,
              "mc": {"r_real": mc.r_real, "r_theta": mc.r_theta, "r_syn": mc.r_syn}}
    return BregmanBoundReport(**est, noise=noise, bound_slack=slack.value,
                              bound_slack_se=slack.std_error, config=config)


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


_last_ensemble = (None, None, [])   # (key, data, datasets); data is held, so its id is not reused


def ensemble_members(generator: GeneratorSpec, data: Dataset, predictor: PredictorSpec,
                     test: Dataset, m: int, rep_seed: int,
                     mode: str = "independent") -> tuple[np.ndarray, np.ndarray]:
    """Generate m synthetic datasets, train one model per dataset and predict
    the test rows with each: the (m, n_test, ...) member block and the encoded
    test targets. Pure in rep_seed. The last ensemble and its kept encodings
    serve the next call again for the same generator, data object, m, mode
    and rep_seed, which run_cells' order puts one after another.

    A forest is the bootstrap generator with a CART predictor: member t is
    the tree grown on bootstrap replicate t."""
    global _last_ensemble
    rep_seed = check_seed(rep_seed, "rep_seed")
    key = (generator, check_count(m, "m"), mode, rep_seed)
    last = _last_ensemble           # read once and replaced whole: threads can only miss
    if last[0] != key or last[1] is not data:
        # rebinding last as well frees the old ensemble before a model is trained
        datasets, _ = generate_ensemble(generator, data, m, mode, seed=rep_seed)
        last = _last_ensemble = (key, data, datasets)
    [block], y = _members([predictor], test, ((ds, child_seed(rep_seed, "train", i))
                                              for i, ds in enumerate(last[2])))
    return block, y


def run_units(fn, units, jobs: int = 1) -> list:
    """[fn(unit) for unit in units]: serially, or by min(jobs, len(units))
    worker processes, one unit per task. fn (a module-level function or a
    partial of one) and the units must pickle, and fn be pure in its unit."""
    workers = min(check_count(jobs, "jobs"), len(units))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, units))
    return list(map(fn, units))


def _curve_unit(cells) -> list[tuple[int, dict]]:
    """(index, curve_repeat scores) of each (index, arguments) cell of a unit."""
    return [(i, curve_repeat(*args)) for i, args in cells]


def run_cells(cells, jobs: int = 1) -> list[dict]:
    """The curve.csv rows of curve_cells cells, in order: each cell's labels
    plus m, repeat, score and std_error for each m of its curve_repeat scores.
    run_units maps (predictor, repeat) units repeat by repeat, so a serial run
    generates each repeat's datasets once, and a worker once per unit."""
    by_repeat: dict[int, dict[str, list]] = {}
    for i, (labels, j, args) in enumerate(cells):
        by_repeat.setdefault(j, {}).setdefault(labels["predictor"], []).append((i, args))
    units = [unit for by_predictor in by_repeat.values() for unit in by_predictor.values()]
    scores = dict(cell for unit in run_units(_curve_unit, units, jobs) for cell in unit)
    return [{**labels, "m": m, "repeat": j, "score": score, "std_error": se}
            for i, (labels, j, _) in enumerate(cells) for m, (score, se) in scores[i].items()]


def check_curve_request(data: Dataset, predictors, test: Dataset, m_values, averagings,
                        metrics) -> list[int]:
    """The m values, sorted and unique; raises ValueError, before any draw, unless
    the grid scores each cell once: no list is empty or names an item twice (a
    predictor by its label), each metric, averaging and predictor suits the data's
    task (brier_binary a binary one) and the test set has its columns and a row."""
    task = data.schema.task
    for metric in metrics:
        metric.check_task(task)
        if metric.kind == "brier_binary" and data.schema.n_classes != 2:
            raise ValueError("brier_binary needs a binary task")
    for averaging in averagings:
        check_averaging(averaging, task)
    _check_fit_request(data, predictors, test)
    m_values = sorted(set(check_count(m, "m values") for m in m_values))
    for kind, names in (("predictor", [spec.label for spec in predictors]), ("m value", m_values),
                        ("metric", [spec.kind for spec in metrics]), ("averaging", averagings)):
        if not names:
            raise ValueError(f"there are no {kind}s")
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"{kind} {name!r} is listed twice")
    return m_values


def curve_repeat(generator: GeneratorSpec, data: Dataset, predictor: PredictorSpec,
                 test: Dataset, m_values, averaging: str, metric: MetricSpec,
                 rep_seed: int, mode: str = "independent") -> dict[int, tuple]:
    """One experiment repeat: generate max(m) datasets, train one model per
    dataset, score the nested ensemble prefixes. Pure in rep_seed, so repeats
    may run in any order or in parallel."""
    check_curve_request(data, [predictor], test, m_values, [averaging], [metric])
    block, y_ref = ensemble_members(generator, data, predictor, test, max(m_values),
                                    rep_seed, mode)
    results = score_prefixes(block, y_ref, m_values, averaging, metric, predictor.task)
    return {m: (result.score, result.std_error) for m, result in results.items()}


def curve_cells(generator: GeneratorSpec, data: Dataset, predictors, test: Dataset,
                m_values, repeats: int, averagings, metrics, seed: int = 0,
                mode: str = "independent", dataset_label: str = "data") -> list[tuple]:
    """The cells of a curve grid for run_cells, in curve.csv row order: one
    (labels, repeat, curve_repeat arguments) per predictor, metric, averaging
    and repeat. The seed depends on the repeat alone, so its cells share an ensemble."""
    repeats = check_count(repeats, "repeats")
    seed = check_seed(seed)
    m_values = check_curve_request(data, predictors, test, m_values, averagings, metrics)
    return [({"dataset": dataset_label, "generator": generator.kind, "mode": mode,
              "predictor": predictor.label, "averaging": averaging, "metric": metric.kind},
             j, (generator, data, predictor, test, m_values, averaging, metric,
                 child_seed(seed, "repeat", j), mode))
            for predictor in predictors for metric in metrics for averaging in averagings
            for j in range(repeats)]


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
        predictor = parse_predictor(predictor, data.schema.task)
    rows = run_cells(curve_cells(generator, data, [predictor], test, m_values, repeats,
                                 [averaging], [metric], seed, mode, dataset_label))
    [by_m] = group_scores(rows).values()
    per_repeat = {m: np.array(scores) for m, scores in by_m.items()}
    aggregate = {}
    for m, scores in per_repeat.items():
        mean = float(finite_mean(scores, 0, f"scores at m = {m}"))
        se = float(scores.std(ddof=1) / math.sqrt(repeats)) if repeats > 1 else None
        aggregate[m] = (mean, se)
    return CurveResult(rows=rows, per_repeat=per_repeat, aggregate=aggregate)
