"""Generative-ensemble prediction and the error metrics used to score it.

Predictions from the m ensemble members are combined either by plain
averaging or by averaging log-probabilities and mapping back through softmax,
which is bregman.dual_average under negentropy (the convex-dual combination
appropriate for cross entropy).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bregman import NEGENTROPY, BregmanSpec, clamp_probs, dual_average
from .data import FeatureMatrix
from .predictors import TrainedModel, predict_batch

MEAN = "mean"
DUAL_LOG_PROB = "dual_log_prob"

METRIC_KINDS = ("mse", "brier_binary", "brier_multiclass", "cross_entropy",
                "one_minus_accuracy", "one_minus_auc")

LONG_COLUMNS = ("dataset", "generator", "mode", "predictor", "averaging",
                "metric", "m", "repeat", "score", "std_error")


@dataclass(frozen=True)
class MetricSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric {self.kind!r}")

    @property
    def task(self) -> str:
        return "regression" if self.kind == "mse" else "classification"

    def check_task(self, task: str) -> None:
        """Raise ValueError unless the metric scores predictions of this task."""
        if self.task != task:
            raise ValueError(f"metric {self.kind!r} is incompatible with task {task!r}")


def check_averaging(averaging: str, task: str) -> None:
    """Raise ValueError unless averaging is known and suits the task."""
    if averaging not in (MEAN, DUAL_LOG_PROB):
        raise ValueError(f"unknown averaging {averaging!r}")
    if averaging == DUAL_LOG_PROB and task != "classification":
        raise ValueError("dual_log_prob averaging requires a classification task")


@dataclass(frozen=True)
class EnsemblePredictor:
    members: tuple[TrainedModel, ...]
    averaging: str = MEAN

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("ensemble needs at least one member")
        first = self.members[0]
        if any(m.task != first.task or m.fingerprint != first.fingerprint
               for m in self.members):
            raise ValueError("ensemble members must share task and schema fingerprint")
        check_averaging(self.averaging, first.task)

    @property
    def task(self) -> str:
        return self.members[0].task


def combine_predictions(member_preds: np.ndarray, averaging: str) -> np.ndarray:
    """Combine member predictions stacked along axis 0."""
    member_preds = np.asarray(member_preds, dtype=np.float64)
    if averaging == MEAN:
        return member_preds.mean(axis=0)
    if averaging == DUAL_LOG_PROB:
        return dual_average(BregmanSpec(NEGENTROPY, member_preds.shape[-1]), member_preds)
    raise ValueError(f"unknown averaging {averaging!r}")


def ensemble_predict_batch(ens: EnsemblePredictor, x: np.ndarray) -> np.ndarray:
    member = np.asarray([predict_batch(m, x) for m in ens.members])
    return combine_predictions(member, ens.averaging)


def ensemble_predict(ens: EnsemblePredictor, x_row) -> float | np.ndarray:
    out = ensemble_predict_batch(ens, np.asarray(x_row, dtype=np.float64)[None, :])
    return float(out[0]) if ens.task == "regression" else out[0]


@dataclass(frozen=True)
class EvalResult:
    score: float
    per_point: np.ndarray
    std_error: float | None


def _midranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a, each run of ties sharing the mean of its ranks, or all
    NaN if a holds a NaN: scipy.stats.rankdata's defaults, bit for bit."""
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    order = np.argsort(a)
    sorted_a = a[order]
    starts = np.flatnonzero(np.r_[True, sorted_a[1:] != sorted_a[:-1]])
    ends = np.r_[starts[1:], a.size]               # each run's last 1-based rank
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with half credit for ties; positive class is index 1."""
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("AUC needs both classes present in the test labels")
    ranks = _midranks(np.concatenate([pos, neg]))
    rank_sum_pos = ranks[:pos.size].sum()
    return (rank_sum_pos - pos.size * (pos.size + 1) / 2.0) / (pos.size * neg.size)


def score_predictions(preds: np.ndarray, y: np.ndarray, metric: MetricSpec,
                      task: str) -> EvalResult:
    """Score raw predictions: (n,) values for regression, (n, K) probabilities
    for classification, n the number of targets; other shapes raise ValueError."""
    preds = np.asarray(preds, dtype=np.float64)
    y = np.asarray(y)
    metric.check_task(task)
    ndim = 1 if task == "regression" else 2
    if y.ndim != 1 or preds.ndim != ndim or preds.shape[0] != y.size:
        raise ValueError(f"{task} predictions of shape {preds.shape} do not match "
                         f"targets of shape {y.shape}")
    if y.size == 0:
        raise ValueError("cannot score predictions on an empty set of targets")

    if metric.kind == "mse":
        per_point = (preds - y) ** 2
    elif metric.kind == "brier_binary":
        if preds.shape[1] != 2:
            raise ValueError("brier_binary needs a binary task")
        per_point = (preds[:, 1] - (y == 1)) ** 2
    elif metric.kind == "brier_multiclass":
        onehot = np.zeros_like(preds)
        onehot[np.arange(len(y)), y.astype(int)] = 1.0
        per_point = ((preds - onehot) ** 2).sum(axis=1)
    elif metric.kind == "cross_entropy":
        p = clamp_probs(preds)
        per_point = -np.log(p[np.arange(len(y)), y.astype(int)])
    elif metric.kind == "one_minus_accuracy":
        per_point = (np.argmax(preds, axis=1) != y).astype(np.float64)
    elif metric.kind == "one_minus_auc":
        score = 1.0 - _auc(preds[:, 1], np.asarray(y))
        return EvalResult(score=score, per_point=np.empty(0), std_error=None)
    else:
        raise ValueError(f"unknown metric {metric.kind!r}")

    n = per_point.size
    se = float(per_point.std(ddof=1) / np.sqrt(n)) if n > 1 else None
    return EvalResult(score=float(per_point.mean()), per_point=per_point, std_error=se)


def score_prefixes(member_preds: np.ndarray, y: np.ndarray, m_values, averaging: str,
                   metric: MetricSpec, task: str) -> dict[int, EvalResult]:
    """Score the nested ensembles made of the first m >= 1 members, for each m."""
    return {m: score_predictions(combine_predictions(member_preds[:m], averaging), y,
                                 metric, task=task)
            for m in m_values}


def evaluate(ens: EnsemblePredictor, test: FeatureMatrix, metric: MetricSpec) -> EvalResult:
    """Score the combined ensemble prediction on a test set."""
    preds = ensemble_predict_batch(ens, test.x)
    return score_predictions(preds, test.y, metric, task=ens.task)


def long_rows(labels: dict, repeat: int, scores: dict[int, tuple]) -> list[dict]:
    """Long-format rows of one repeat: the labels plus m, repeat, score and
    std_error for each entry {m: (score, std_error)} of scores."""
    return [{**labels, "m": m, "repeat": repeat, "score": score, "std_error": se}
            for m, (score, se) in scores.items()]


def write_long_csv(path, rows: list[dict]) -> None:
    """Write metric results in the fixed long format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=LONG_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            se = out.get("std_error")
            out["std_error"] = "" if se is None else repr(float(se))
            out["score"] = repr(float(out["score"]))
            writer.writerow(out)


def read_long_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = []
        for row in csv.DictReader(fh):
            row["m"] = int(row["m"])
            row["repeat"] = int(row["repeat"])
            row["score"] = float(row["score"])
            row["std_error"] = float(row["std_error"]) if row["std_error"] else None
            rows.append(row)
        return rows
