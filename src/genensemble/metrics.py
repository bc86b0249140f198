"""Combining ensemble member predictions and the error metrics that score them.

Predictions from the m ensemble members are combined either by plain
averaging or by averaging log-probabilities and mapping back through softmax,
which is bregman.dual_average under negentropy (the convex-dual combination
appropriate for cross entropy).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bregman import NEGENTROPY, BregmanSpec, clamp_probs, dual_average
from .data import write_csv

MEAN = "mean"
DUAL_LOG_PROB = "dual_log_prob"

METRIC_KINDS = ("mse", "brier_binary", "brier_multiclass", "cross_entropy",
                "one_minus_accuracy", "one_minus_auc")

PROB_SUM_TOL = 1e-9   # how far a classification row's sum may stray from 1

# the labels of a curve, which group its rows, and its long-format columns
LABEL_COLUMNS = ("dataset", "generator", "mode", "predictor", "averaging", "metric")
LONG_COLUMNS = LABEL_COLUMNS + ("m", "repeat", "score", "std_error")


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


def finite_mean(values: np.ndarray, axis: int, what: str) -> np.ndarray:
    """values.mean(axis); an empty axis, or a mean that is not finite as when a
    sum overflows, raises ValueError naming what, and no warning."""
    if values.shape[axis] == 0:
        raise ValueError(f"there are no {what} to average")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=axis)
    if not np.isfinite(mean).all():
        raise ValueError(f"the mean of the {what} overflows")
    return mean


def combine_predictions(member_preds: np.ndarray, averaging: str) -> np.ndarray:
    """Combine member predictions stacked along axis 0; no members, or a member
    mean that is not finite, raises ValueError."""
    member_preds = np.asarray(member_preds, dtype=np.float64)
    if averaging == MEAN:
        return finite_mean(member_preds, 0, "member predictions")
    if averaging == DUAL_LOG_PROB:
        return dual_average(BregmanSpec(NEGENTROPY, member_preds.shape[-1]), member_preds)
    raise ValueError(f"unknown averaging {averaging!r}")


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


@np.errstate(over="ignore", invalid="ignore")
def score_predictions(preds: np.ndarray, y: np.ndarray, metric: MetricSpec,
                      task: str) -> EvalResult:
    """Score raw predictions: (n,) values for regression, (n, K) probabilities
    for classification, n the number of targets. Other shapes, non-finite
    values or scores (an overflow is no warning) and classification rows off
    the probability simplex raise ValueError."""
    preds = np.asarray(preds, dtype=np.float64)
    y = np.asarray(y)
    metric.check_task(task)
    ndim = 1 if task == "regression" else 2
    if y.ndim != 1 or preds.ndim != ndim or preds.shape[0] != y.size:
        raise ValueError(f"{task} predictions of shape {preds.shape} do not match "
                         f"targets of shape {y.shape}")
    if y.size == 0:
        raise ValueError("cannot score predictions on an empty set of targets")
    if not np.isfinite(preds).all():
        raise ValueError("predictions must be finite")
    if task == "classification" and ((preds < 0).any() or
                                     (np.abs(preds.sum(axis=1) - 1.0) > PROB_SUM_TOL).any()):
        raise ValueError("classification predictions must be non-negative rows "
                         f"summing to 1 within {PROB_SUM_TOL}")

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
    score = float(per_point.mean())
    se = float(per_point.std(ddof=1) / np.sqrt(n)) if n > 1 else None
    if not math.isfinite(score) or not math.isfinite(0.0 if se is None else se):
        raise ValueError(f"the {metric.kind} score or its standard error is not finite")
    return EvalResult(score=score, per_point=per_point, std_error=se)


def score_prefixes(member_preds: np.ndarray, y: np.ndarray, m_values, averaging: str,
                   metric: MetricSpec, task: str) -> dict[int, EvalResult]:
    """Score the nested ensembles made of the first m >= 1 members, for each m."""
    return {m: score_predictions(combine_predictions(member_preds[:m], averaging), y,
                                 metric, task=task)
            for m in m_values}


def group_scores(rows) -> dict[tuple, dict[int, list[float]]]:
    """The scores of long-format rows by their LABEL_COLUMNS values, then by
    m: {labels: {m: [score, ...]}}, groups, m values and scores in row order."""
    groups: dict[tuple, dict[int, list[float]]] = {}
    for row in rows:
        key = tuple(row[c] for c in LABEL_COLUMNS)
        groups.setdefault(key, {}).setdefault(row["m"], []).append(row["score"])
    return groups


def write_long_csv(path, rows: list[dict]) -> None:
    """Write metric results in the fixed long format; a std_error of None
    is an empty cell."""
    def cells(row):
        se = row["std_error"]
        return [row[c] for c in LONG_COLUMNS[:-2]] + [repr(float(row["score"])),
                                                       "" if se is None else repr(float(se))]
    write_csv(path, LONG_COLUMNS, map(cells, rows))


def read_long_csv(path) -> list[dict]:
    """Rows of a long-format file, as write_long_csv writes them.

    Raises ValueError unless the header is LONG_COLUMNS and every row has
    its width, an integer m >= 1, an integer repeat, a finite score and a
    finite or empty std_error.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(LONG_COLUMNS):
            raise ValueError(f"{path}: the header must be {','.join(LONG_COLUMNS)}")
        rows = []
        for record in reader:
            where = f"{path}, line {reader.line_num}"
            if len(record) != len(LONG_COLUMNS):
                raise ValueError(f"{where}: {len(record)} cells, expected {len(LONG_COLUMNS)}")
            row = dict(zip(LONG_COLUMNS, record))
            try:
                row["m"], row["repeat"] = int(row["m"]), int(row["repeat"])
                row["score"] = float(row["score"])
                row["std_error"] = float(row["std_error"]) if row["std_error"] else None
            except ValueError:
                raise ValueError(f"{where}: m and repeat must be integers, score and "
                                 "std_error numbers") from None
            if row["m"] < 1:
                raise ValueError(f"{where}: m must be >= 1")
            if not math.isfinite(row["score"]) or not math.isfinite(row["std_error"] or 0.0):
                raise ValueError(f"{where}: score and std_error must be finite")
            rows.append(row)
        return rows
