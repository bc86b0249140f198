"""Downstream supervised learners spanning the high- to low-variance range.

All learners are implemented directly on numpy arrays so that tie-breaking
and randomness are fully pinned down: kNN resolves equal distances by lowest
training-row index, CART picks the lowest feature index and then the lowest
midpoint threshold among equally good splits, and every model is a pure
function of (spec, data, seed).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix
from .rng import child_rng

KINDS = ("knn", "cart", "ridge", "linear", "logistic", "bagged_trees", "mean")


@dataclass(frozen=True)
class PredictorSpec:
    kind: str
    task: str                      # "regression" | "classification"
    k: int = 1                     # knn
    lam: float = 1.0               # ridge / logistic penalty
    n_trees: int = 1               # bagged_trees
    max_iter: int = 1000           # logistic
    tol: float = 1e-6              # logistic
    standardize: bool | None = None  # None = kind default (trees: no, others: yes)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.k < 1 or self.n_trees < 1 or self.lam < 0:
            raise ValueError("invalid predictor options")

    @property
    def wants_standardize(self) -> bool:
        if self.standardize is not None:
            return self.standardize
        return self.kind not in ("cart", "bagged_trees", "mean")

    @property
    def label(self) -> str:
        if self.kind == "knn":
            return f"knn{self.k}"
        if self.kind == "ridge":
            return f"ridge{self.lam:g}"
        if self.kind == "bagged_trees":
            return f"bagged{self.n_trees}"
        return self.kind


def parse_predictor(text: str, task: str) -> PredictorSpec:
    """Parse compact CLI syntax such as 'knn:5', 'ridge:0.1', 'bagged_trees:25'."""
    name, _, arg = text.strip().partition(":")
    name = name.strip()
    if name == "knn":
        return PredictorSpec("knn", task, k=int(arg) if arg else 1)
    if name == "ridge":
        return PredictorSpec("ridge", task, lam=float(arg) if arg else 1.0)
    if name == "logistic":
        return PredictorSpec("logistic", task, lam=float(arg) if arg else 1.0)
    if name == "bagged_trees":
        return PredictorSpec("bagged_trees", task, n_trees=int(arg) if arg else 10)
    if name in ("cart", "linear", "mean"):
        return PredictorSpec(name, task)
    raise ValueError(f"cannot parse predictor {text!r}")


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    task: str
    fingerprint: tuple            # (d, task, n_classes) of the training matrix
    state: object

    @property
    def n_classes(self) -> int:
        return self.fingerprint[2]


# --- CART ------------------------------------------------------------------

class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


def _node_value(y, n_classes, task):
    if task == "regression":
        return float(y.mean())
    return np.bincount(y, minlength=n_classes) / y.size


def _best_split(x, y, task, n_classes):
    """Best (feature, midpoint threshold) minimizing child-weighted impurity.

    Returns (feature, threshold, weighted_impurity) or None when no candidate
    exists. Scanning features in ascending order and thresholds in ascending
    order with strict improvement implements the tie-break contract.
    """
    n = y.size
    best = None
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        valid = xs[1:] > xs[:-1]
        if not valid.any():
            continue
        ys = y[order]
        if task == "regression":
            s1 = np.cumsum(ys)[:-1]
            s2 = np.cumsum(ys * ys)[:-1]
            left_n = np.arange(1, n)
            right_n = n - left_n
            sse_left = s2 - s1 * s1 / left_n
            sse_right = (s2[-1] + ys[-1] ** 2 - s2) - (s1[-1] + ys[-1] - s1) ** 2 / right_n
            score = (sse_left + sse_right) / n
        else:
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), ys] = 1.0
            counts = np.cumsum(onehot, axis=0)[:-1]
            left_n = np.arange(1, n)[:, None]
            right_counts = counts[-1] + onehot[-1] - counts
            gini_left = 1.0 - np.sum((counts / left_n) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right_counts / (n - left_n)) ** 2, axis=1)
            score = (left_n[:, 0] * gini_left + (n - left_n[:, 0]) * gini_right) / n
        score = np.where(valid, score, np.inf)
        i = int(np.argmin(score))
        if not np.isfinite(score[i]):
            continue
        if best is None or score[i] < best[2]:
            best = (j, 0.5 * (xs[i] + xs[i + 1]), float(score[i]))
    return best


def _node_impurity(y, task, n_classes):
    if task == "regression":
        return float(np.mean((y - y.mean()) ** 2))
    freq = np.bincount(y, minlength=n_classes) / y.size
    return float(1.0 - np.sum(freq ** 2))


def _grow_tree(x, y, task, n_classes):
    node = _TreeNode()
    if np.all(y == y[0]):
        node.value = _node_value(y, n_classes, task)
        return node
    impurity = _node_impurity(y, task, n_classes)
    best = _best_split(x, y, task, n_classes)
    if best is None or best[2] >= impurity:
        node.value = _node_value(y, n_classes, task)
        return node
    node.feature, node.threshold = best[0], best[1]
    mask = x[:, node.feature] <= node.threshold
    node.left = _grow_tree(x[mask], y[mask], task, n_classes)
    node.right = _grow_tree(x[~mask], y[~mask], task, n_classes)
    return node


def _tree_predict(node, xq):
    while node.value is None:
        node = node.left if xq[node.feature] <= node.threshold else node.right
    return node.value


def _tree_predict_rows(tree, x):
    """Leaf value of each row of x: (n,) for regression, (n, K) probabilities."""
    return np.asarray([_tree_predict(tree, row) for row in x])


# --- ridge / linear ----------------------------------------------------------

def _fit_ridge(x, y, lam):
    n, d = x.shape
    if lam > 0:
        a = np.zeros((d + 1, d + 1))
        a[:d, :d] = x.T @ x + lam * np.eye(d)
        a[:d, d] = x.sum(axis=0)
        a[d, :d] = x.sum(axis=0)
        a[d, d] = n
        b = np.concatenate([x.T @ y, [y.sum()]])
        sol = np.linalg.solve(a, b)
    else:
        design = np.hstack([x, np.ones((n, 1))])
        sol = np.linalg.lstsq(design, y, rcond=None)[0]
    return sol[:d], float(sol[d])


# --- logistic -----------------------------------------------------------------

def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _fit_logistic(x, y, n_classes, lam, max_iter, tol):
    """Full-batch gradient descent with Armijo backtracking on the L2-penalized
    multinomial cross entropy (weights penalized, intercepts free)."""
    n, d = x.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)

    def loss(w, b):
        logits = x @ w + b
        z = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1)) + logits.max(axis=1)
        return float((lse - (logits * onehot).sum(axis=1)).sum() + 0.5 * lam * (w ** 2).sum())

    current = loss(w, b)
    for _ in range(max_iter):
        p = _softmax(x @ w + b)
        gw = x.T @ (p - onehot) + lam * w
        gb = (p - onehot).sum(axis=0)
        gnorm2 = (gw ** 2).sum() + (gb ** 2).sum()
        if np.sqrt(gnorm2) <= tol:
            break
        step = 1.0
        for _ in range(60):
            cand = loss(w - step * gw, b - step * gb)
            if cand <= current - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        w = w - step * gw
        b = b - step * gb
        current = loss(w, b)
    return w, b


# --- training / prediction ----------------------------------------------------

def train(spec: PredictorSpec, data: FeatureMatrix, seed: int = 0) -> TrainedModel:
    """Fit a model; deterministic given (spec, data, seed)."""
    if data.n < 1:
        raise ValueError("cannot train on empty data")
    if spec.task != data.task:
        raise ValueError(f"predictor task {spec.task!r} does not match data task {data.task!r}")
    fingerprint = (data.d, data.task, data.n_classes)
    x, y = data.x, data.y

    if spec.kind == "mean":
        state = _node_value(y, data.n_classes, data.task)
    elif spec.kind == "knn":
        state = (x.copy(), y.copy(), spec.k)
    elif spec.kind == "cart":
        state = _grow_tree(x, y, data.task, data.n_classes)
    elif spec.kind in ("ridge", "linear"):
        if data.task != "regression":
            raise ValueError(f"{spec.kind} supports regression only")
        lam = spec.lam if spec.kind == "ridge" else 0.0
        state = _fit_ridge(x, y, lam)
    elif spec.kind == "logistic":
        if data.task != "classification":
            raise ValueError("logistic supports classification only")
        state = _fit_logistic(x, y, data.n_classes, spec.lam, spec.max_iter, spec.tol)
    elif spec.kind == "bagged_trees":
        trees = []
        for t in range(spec.n_trees):
            rng = child_rng(seed, "tree", t)
            idx = rng.integers(0, data.n, size=data.n)
            trees.append(_grow_tree(x[idx], y[idx], data.task, data.n_classes))
        state = trees
    else:
        raise ValueError(f"unknown predictor kind {spec.kind!r}")
    return TrainedModel(kind=spec.kind, task=spec.task, fingerprint=fingerprint, state=state)


def predict_batch(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Predict for an (n, d) feature block.

    Regression returns shape (n,), classification an (n, n_classes) matrix of
    probabilities (rows sum to 1).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.fingerprint[0]:
        raise ValueError(f"feature block shape {x.shape} does not match training "
                         f"fingerprint {model.fingerprint}")
    n_classes = model.n_classes

    if model.kind == "mean":
        if model.task == "regression":
            return np.full(x.shape[0], model.state)
        return np.tile(model.state, (x.shape[0], 1))

    if model.kind == "knn":
        tx, ty, k = model.state
        out = []
        for row in x:
            dist = ((tx - row) ** 2).sum(axis=1)
            nearest = np.argsort(dist, kind="stable")[:k]
            if model.task == "regression":
                out.append(ty[nearest].mean())
            else:
                out.append(np.bincount(ty[nearest], minlength=n_classes) / nearest.size)
        return np.asarray(out)

    if model.kind == "cart":
        return _tree_predict_rows(model.state, x)

    if model.kind in ("ridge", "linear"):
        coef, intercept = model.state
        return x @ coef + intercept

    if model.kind == "logistic":
        w, b = model.state
        return _softmax(x @ w + b)

    if model.kind == "bagged_trees":
        return np.mean([_tree_predict_rows(t, x) for t in model.state], axis=0)

    raise ValueError(f"unknown predictor kind {model.kind!r}")


def predict(model: TrainedModel, x_row) -> float | np.ndarray:
    """Predict for a single feature row."""
    result = predict_batch(model, np.asarray(x_row, dtype=np.float64)[None, :])
    return float(result[0]) if model.task == "regression" else result[0]


def train_forest_curve(data: FeatureMatrix, test: FeatureMatrix, t_max: int,
                       metric, seed: int = 0) -> dict[int, float]:
    """Score a growing bagged-tree ensemble on a test set.

    Trains t_max bootstrap trees once; entry T of the result is the metric of
    the mean of the first T trees' predictions.
    """
    from .metrics import MEAN, score_prefixes

    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    model = train(PredictorSpec("bagged_trees", data.task, n_trees=t_max), data, seed)
    member = np.asarray([_tree_predict_rows(t, test.x) for t in model.state])
    results = score_prefixes(member, test.y, range(1, t_max + 1), MEAN, metric, data.task)
    return {t: result.score for t, result in results.items()}
