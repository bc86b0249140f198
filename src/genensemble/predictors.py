"""Downstream supervised learners spanning the high- to low-variance range.

All learners are implemented directly on numpy arrays so that tie-breaking
and randomness are fully pinned down: kNN resolves equal distances by lowest
training-row index, CART picks the lowest feature index and then the lowest
midpoint threshold among splits with equal computed scores, and every model
is a pure function of (spec, data, seed). Candidate splits that tie only in
exact arithmetic are ordered by the rounding of their sums: two features that
induce the same partition can score a few ulps apart.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import softmax
from .data import FeatureMatrix
from .rng import child_rng

_BOTH = ("regression", "classification")
# kind -> (option its 'kind:value' argument sets or None, label prefix, tasks)
_KINDS = {"knn": ("k", "knn", _BOTH), "cart": (None, "cart", _BOTH),
          "ridge": ("lam", "ridge", ("regression",)),
          "linear": (None, "linear", ("regression",)),
          "logistic": ("lam", "logistic", ("classification",)),
          "bagged_trees": ("n_trees", "bagged", _BOTH), "mean": (None, "mean", _BOTH)}
KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class PredictorSpec:
    kind: str
    task: str                      # "regression" | "classification"
    k: int = 1                     # knn
    lam: float = 1.0               # ridge / logistic penalty
    n_trees: int = 10              # bagged_trees
    max_iter: int = 1000           # logistic
    standardize: bool | None = None  # None = kind default (trees: no, others: yes)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        if self.task not in _KINDS[self.kind][2]:
            raise ValueError(f"{self.kind} supports {' and '.join(_KINDS[self.kind][2])} only")
        for option in ("k", "n_trees"):
            if getattr(self, option) < 1:
                raise ValueError(f"{option} must be >= 1")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and >= 0")

    @property
    def wants_standardize(self) -> bool:
        if self.standardize is not None:
            return self.standardize
        return self.kind not in ("cart", "bagged_trees", "mean")

    @property
    def label(self) -> str:
        option, prefix, _ = _KINDS[self.kind]
        value = "" if option is None else getattr(self, option)
        return f"{prefix}{value:g}" if isinstance(value, float) else f"{prefix}{value}"


def parse_predictor(text: str, task: str) -> PredictorSpec:
    """Parse compact CLI syntax such as 'knn:5', 'ridge:0.1', 'bagged_trees:25'.

    An omitted argument keeps the option's default. Errors start with the
    spec text, as in 'knn:0: k must be >= 1'."""
    text = text.strip()
    name, _, arg = text.partition(":")
    name, arg = name.strip(), arg.strip()
    if name not in _KINDS:
        raise ValueError(f"cannot parse predictor {text!r}")
    option, options = _KINDS[name][0], {}
    if arg:
        if option is None:
            raise ValueError(f"{text}: {name} takes no argument")
        convert = type(getattr(PredictorSpec, option))
        try:
            options[option] = convert(arg)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ValueError(f"{text}: {option} must be {kind}") from None
    try:
        return PredictorSpec(name, task, **options)
    except ValueError as exc:
        raise ValueError(f"{text}: {exc}") from None


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

@dataclass(frozen=True)
class _Tree:
    """A grown CART as flat node arrays, the root at node 0.

    At a leaf, feature, left and right are -1 and threshold is 0. value holds
    every node's mean target (regression) or class frequencies
    (classification, one row each).
    """
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _node_value(y, n_classes, task):
    if task == "regression":
        return float(y.mean())
    return np.bincount(y, minlength=n_classes) / y.size


# A level's padded (nodes x widest node) blocks may hold this many cells, or
# twice the level's rows if more; beyond that the nodes go in size bands.
_BLOCK_CELLS = 4096


def _block(values, cell, shape, pad):
    """values placed by their flat cell index in a (nodes x widest node) block."""
    block = np.full(shape[0] * shape[1], pad)
    block[cell] = values
    return block.reshape(shape)


def _prefix_sums(values, cell, shape):
    """Prefix sums of each node's values, as rows of a zero-padded block.

    Accumulating a row adds in the same order as the 1-D cumsum of that
    node's values, so the bits are the same.
    """
    return np.add.accumulate(_block(values, cell, shape, 0.0), axis=1)


def _band_splits(xo, yo, node, counts, task, n_classes):
    """Value of each node of a band and its best split, or feature -1.

    The rows of node i lie contiguously in xo, yo (node[p] == i), in their
    original order. Regression sums are sequential and the targets are
    centred at the node mean before they are squared, so a large target
    offset does not cancel. Features are scanned in ascending order with
    strict improvement, and argmin picks the lowest midpoint, which is the
    tie-break contract.
    """
    k, width = counts.size, int(counts.max())
    n_rows = counts[:, None]
    starts = counts.cumsum() - counts
    cell = node * width + (np.arange(node.size) - starts[node])
    if task == "regression":
        last = cell[starts + counts - 1]      # block cell of each node's last row
        mean = _prefix_sums(yo, cell, (k, width)).reshape(-1)[last] / counts
        targets = yo - mean[node]
        impurity = _prefix_sums(targets * targets, cell, (k, width))[:, -1] / counts
        value = mean
        impure = np.maximum.reduceat(yo, starts) != np.minimum.reduceat(yo, starts)
    else:
        class_counts = np.bincount(node * n_classes + yo,
                                   minlength=k * n_classes).reshape(k, n_classes)
        value = class_counts / n_rows
        impurity = 1.0 - np.sum(value ** 2, axis=1)
        impure = np.count_nonzero(class_counts, axis=1) > 1
        targets = yo

    if not np.count_nonzero(impure):
        return value, np.full(k, -1, dtype=np.intp), np.zeros(k)
    best, below, above = np.full(k, np.inf), np.zeros(k), np.zeros(k)
    feature = np.zeros(k, dtype=np.intp)
    score_row, x_row = np.arange(k) * width, np.arange(k) * (width + 1)
    # column i scores the split after row i of a node; the last column and
    # those past a node's end are masked below, right_n >= 1 keeps them finite
    left_n = np.arange(1, width + 1)
    right_n = np.maximum(n_rows - left_n, 1)
    x_cell = cell + node                     # one spare column per node
    for j in range(xo.shape[1]):
        order = np.lexsort((xo[:, j], node))
        # -inf padding fails every xs[i + 1] > xs[i] test past a node's last row
        xs = _block(xo[order, j], x_cell, (k, width + 1), -np.inf)
        ys = targets[order]
        if task == "regression":
            s1 = _prefix_sums(ys, cell, (k, width))
            s2 = _prefix_sums(ys * ys, cell, (k, width))
            t1, t2 = s1[:, -1:], s2[:, -1:]
            sse_left = s2 - s1 * s1 / left_n
            sse_right = (t2 - s2) - (t1 - s1) ** 2 / right_n
            score = (sse_left + sse_right) / n_rows
        else:
            onehot = np.zeros((k, width, n_classes))
            onehot.reshape(-1)[cell * n_classes + ys] = 1.0
            left_counts = np.add.accumulate(onehot, axis=1)
            right_counts = class_counts[:, None, :] - left_counts
            gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=2)
            gini_right = 1.0 - np.sum((right_counts / right_n[:, :, None]) ** 2, axis=2)
            score = (left_n * gini_left + right_n * gini_right) / n_rows
        score = np.where(xs[:, 1:] > xs[:, :-1], score, np.inf)
        i = score.argmin(axis=1)
        found = score.reshape(-1)[score_row + i]
        better = np.isfinite(found) & (found < best)
        np.copyto(best, found, where=better)
        np.copyto(feature, j, where=better)
        at = x_row + i
        np.copyto(below, xs.reshape(-1)[at], where=better)
        np.copyto(above, xs.reshape(-1)[at + 1], where=better)
    with np.errstate(over="ignore"):
        threshold = 0.5 * (below + above)
    # between adjacent floats the midpoint can round onto the upper value, and
    # near the float limit it overflows: the split is at the lower value then
    threshold = np.where((below <= threshold) & (threshold < above), threshold, below)
    split = impure & np.isfinite(best) & ~(best >= impurity)
    return value, np.where(split, feature, -1), np.where(split, threshold, 0.0)


def _level_splits(xo, yo, node, counts, task, n_classes):
    """_band_splits over one level, in power-of-two size bands if it is skewed."""
    if counts.size * int(counts.max()) <= max(2 * node.size, _BLOCK_CELLS):
        return _band_splits(xo, yo, node, counts, task, n_classes)
    band = np.ceil(np.log2(counts)).astype(np.intp)
    value = np.zeros((counts.size,) + (() if task == "regression" else (n_classes,)))
    feature = np.empty(counts.size, dtype=np.intp)
    threshold = np.empty(counts.size)
    for b in np.unique(band):
        members = band == b
        at = members[node]
        local = members.cumsum() - 1
        (value[members], feature[members],
         threshold[members]) = _band_splits(xo[at], yo[at], local[node[at]],
                                            counts[members], task, n_classes)
    return value, feature, threshold


def _grow_tree(x, y, task, n_classes):
    """Grow a CART one level at a time until every leaf is pure or unsplittable.

    The rows of each open node of a level lie contiguously in `rows`, in
    their original order; a split node's rows move on, left child first.
    Nodes are numbered level by level, so the r-th split node (from 0) has
    children 2r + 1 and 2r + 2.
    """
    levels = []                      # (feature, threshold, value) per level
    rows = np.arange(y.size)
    node = np.zeros(y.size, dtype=np.intp)
    counts = np.array([y.size])
    while rows.size:
        value, feature, threshold = _level_splits(x[rows], y[rows], node, counts,
                                                  task, n_classes)
        levels.append((feature, threshold, value))
        split = feature >= 0
        rank = split.cumsum() - 1    # index of a split node among the level's splits
        keep = split[node]
        rows, node = rows[keep], node[keep]
        side = ~(x[rows, feature[node]] <= threshold[node])
        child = 2 * rank[node] + side
        order = child.argsort(kind="stable")
        rows, node = rows[order], child[order]
        counts = np.bincount(node, minlength=2 * np.count_nonzero(split))
    feature, threshold, value = (np.concatenate(arrays) for arrays in zip(*levels))
    split = feature >= 0
    left = np.where(split, 2 * split.cumsum() - 1, -1)
    return _Tree(feature, threshold, left, np.where(split, left + 1, -1), value)


def _tree_predict_rows(tree, x):
    """Leaf value of each row of x: (n,) for regression, (n, K) probabilities.

    All rows descend together, one level per step; a row that has reached
    its leaf stays there.
    """
    leaf = tree.feature < 0
    here = np.arange(leaf.size)
    left, right = np.where(leaf, here, tree.left), np.where(leaf, here, tree.right)
    rows = np.arange(x.shape[0])
    node = np.zeros(x.shape[0], dtype=np.intp)
    feature = tree.feature[node]
    while np.count_nonzero(feature >= 0):
        go_left = x[rows, feature] <= tree.threshold[node]
        node = np.where(go_left, left[node], right[node])
        feature = tree.feature[node]
    return tree.value[node]


# --- kNN ---------------------------------------------------------------------

# A (test rows x train rows x features) block of squared differences holds at
# most this many cells, and always at least one test row.
_KNN_CELLS = 1 << 16


def _sq_distances(x, tx):
    """Squared Euclidean distance from each row of x to each row of tx.

    Each block is reduced along its contiguous feature axis, as
    ((tx - row) ** 2).sum(axis=1) reduces for a single row, so the bits are
    those of a per-row loop.
    """
    n_train, d = tx.shape
    step = max(1, _KNN_CELLS // max(1, n_train * d))
    dist = np.empty((x.shape[0], n_train))
    for start in range(0, x.shape[0], step):
        block = x[start:start + step, None, :]
        dist[start:start + step] = ((tx - block) ** 2).sum(axis=2)
    return dist


def _nearest(dist, k):
    """Column indices of each row's min(k, columns) smallest distances.

    Each row lists them in stable-argsort order: by distance, equal distances
    by lowest column. Only the candidates up to the row's k-th smallest value
    are sorted. A NaN distance would drop out of the candidates.
    """
    n, n_train = dist.shape
    k = min(k, n_train)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(dist <= kth)     # rows ascending, then columns
    # stable, so equal distances keep the column order; rows stay as they are
    cols = cols[np.lexsort((dist[rows, cols], rows))]
    counts = np.bincount(rows, minlength=n)
    rank = np.arange(rows.size) - (counts.cumsum() - counts)[rows]
    return cols[rank < k].reshape(n, k)


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

_LOGISTIC_TOL = 1e-6       # gradient norm at which gradient descent stops


def _fit_logistic(x, y, n_classes, lam, max_iter):
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
        p = softmax(x @ w + b)
        gw = x.T @ (p - onehot) + lam * w
        gb = (p - onehot).sum(axis=0)
        gnorm2 = (gw ** 2).sum() + (gb ** 2).sum()
        if np.sqrt(gnorm2) <= _LOGISTIC_TOL:
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
    if not np.isfinite(data.x).all():
        raise ValueError("training features must be finite")
    if data.task == "regression" and not np.isfinite(data.y).all():
        raise ValueError("regression targets must be finite")
    fingerprint = (data.d, data.task, data.n_classes)
    x, y = data.x, data.y

    if spec.kind == "mean":
        state = _node_value(y, data.n_classes, data.task)
    elif spec.kind == "knn":
        state = (x.copy(), y.copy(), spec.k)
    elif spec.kind == "cart":
        state = _grow_tree(x, y, data.task, data.n_classes)
    elif spec.kind in ("ridge", "linear"):
        lam = spec.lam if spec.kind == "ridge" else 0.0
        state = _fit_ridge(x, y, lam)
    elif spec.kind == "logistic":
        state = _fit_logistic(x, y, data.n_classes, spec.lam, spec.max_iter)
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


def _feature_block(model: TrainedModel, x) -> np.ndarray:
    """x as a float (n, d) block of finite features matching the model."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.fingerprint[0]:
        raise ValueError(f"feature block shape {x.shape} does not match training "
                         f"fingerprint {model.fingerprint}")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    return x


def _tree_members(trees, x) -> np.ndarray:
    """Each tree's predictions for the rows of x, stacked along axis 0."""
    return np.asarray([_tree_predict_rows(t, x) for t in trees])


def predict_batch(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Predict for an (n, d) feature block.

    Regression returns shape (n,), classification an (n, n_classes) matrix of
    probabilities (rows sum to 1).
    """
    x = _feature_block(model, x)
    n_classes = model.n_classes

    if model.kind == "mean":
        if model.task == "regression":
            return np.full(x.shape[0], model.state)
        return np.tile(model.state, (x.shape[0], 1))

    if model.kind == "knn":
        tx, ty, k = model.state
        nearest = _nearest(_sq_distances(x, tx), k)
        if model.task == "regression":
            return ty[nearest].mean(axis=1)
        n = x.shape[0]
        labels = np.arange(n)[:, None] * n_classes + ty[nearest]
        counts = np.bincount(labels.reshape(-1), minlength=n * n_classes)
        return counts.reshape(n, n_classes) / nearest.shape[1]

    if model.kind == "cart":
        return _tree_predict_rows(model.state, x)

    if model.kind in ("ridge", "linear"):
        coef, intercept = model.state
        return x @ coef + intercept

    if model.kind == "logistic":
        w, b = model.state
        return softmax(x @ w + b)

    if model.kind == "bagged_trees":
        return _tree_members(model.state, x).mean(axis=0)

    raise ValueError(f"unknown predictor kind {model.kind!r}")


def predict(model: TrainedModel, x_row) -> float | np.ndarray:
    """Predict for a single feature row."""
    result = predict_batch(model, np.asarray(x_row, dtype=np.float64)[None, :])
    return float(result[0]) if model.task == "regression" else result[0]


def train_forest_curve(data: FeatureMatrix, test: FeatureMatrix, t_max: int,
                       metrics, seed: int = 0) -> list[dict[int, float]]:
    """Score a growing bagged-tree ensemble on a test set under each metric.

    Trains t_max bootstrap trees once; entry T of the i-th result is metrics[i]
    of the mean of the first T trees' predictions.
    """
    from .metrics import MEAN, score_prefixes

    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    model = train(PredictorSpec("bagged_trees", data.task, n_trees=t_max), data, seed)
    member = _tree_members(model.state, _feature_block(model, test.x))
    curves = (score_prefixes(member, test.y, range(1, t_max + 1), MEAN, metric, data.task)
              for metric in metrics)
    return [{t: result.score for t, result in curve.items()} for curve in curves]
