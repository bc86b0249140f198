"""Downstream supervised learners spanning the high- to low-variance range.

All learners are implemented directly on numpy arrays so that tie-breaking
and randomness are fully pinned down: kNN resolves equal distances by lowest
training-row index, CART picks the lowest feature index and then the lowest
midpoint threshold among splits with equal computed scores, and every model
is a pure function of (spec, data, seed). Candidate splits that tie only in
exact arithmetic are ordered by the rounding of their sums: two features that
induce the same partition can score a few ulps apart.

kNN filters, then refines, a block of test rows at a time. A filter value from
a BLAS product (a squared distance less the row's constant ||x||^2) and the
exact per-row sum are both within 8 (d + 3) (u (||x||^2 + max ||t||^2) + the
smallest subnormal) of the true value (Higham's gamma_n bounds, any summation
order, with or without FMA), so every training row within twice that of the
k-th smallest filter value is a candidate, as are NaN and inf filter values,
and no neighbour is lost. Only the candidates' exact distances, reduced along
the contiguous feature axis as a per-row loop reduces them, decide the order,
so the output bits do not depend on BLAS, its threads or the blocks. A chosen
neighbour's distance, or a regression mean of their targets, that overflows is refused.

CART finds a split as the two sorted neighbours of a gap in one feature, and
rows route by the lower one; thresholds, their midpoints, are taken once per
tree. A bagged_trees forest is one CART grown from T roots, its bootstrap
draws; a forest whose mean prediction overflows is refused.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .bregman import softmax
from .data import FeatureMatrix, check_count, check_seed
from .metrics import finite_mean
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

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        if self.task not in _KINDS[self.kind][2]:
            raise ValueError(f"{self.kind} supports {' and '.join(_KINDS[self.kind][2])} only")
        for option in ("k", "n_trees"):
            object.__setattr__(self, option, check_count(getattr(self, option), option))
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and >= 0")

    @property
    def wants_standardize(self) -> bool:
        """Trees and the mean predictor take raw features; the others, standardized ones."""
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
    """Grown CARTs as flat node arrays, roots at nodes 0 to T - 1: one for a
    cart, one per bootstrap draw for a bagged_trees forest. At a leaf, feature,
    left and right are -1 and threshold is 0; a split's threshold is the midpoint
    of its two sorted neighbours, or the lower where the midpoint rounds onto the
    upper or overflows. value holds every node's mean target (regression) or
    class frequencies (classification, one row each). Predictions average the
    trees, so a cart leaf of -0.0 predicts +0.0."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _node_value(y, n_classes, task):
    if task == "regression":
        return float(y.mean())
    return np.bincount(y, minlength=n_classes) / y.size


# A regression node whose largest |target| is nonzero and outside
# [2**-_TARGET_EXP, 2**_TARGET_EXP] has its targets scaled by the power of two
# that brings that largest into [0.5, 1), and its value scaled back. Inside the
# range sums and sums of squared centred targets cannot overflow, and an impure
# node's largest centred square is a normal float.
_TARGET_EXP = 256


def _out_of_range(magnitude):
    return (magnitude > 0) & ((magnitude < 2.0 ** -_TARGET_EXP) | (magnitude > 2.0 ** _TARGET_EXP))


# A level's padded (nodes x widest node) blocks may hold this many cells, or
# twice the level's rows if more; beyond that the nodes go in size bands.
_BLOCK_CELLS = 4096


def _block(values, cell, shape, pad):
    """values placed by their flat cell index in a (nodes x widest node) block."""
    block = np.zeros(shape[0] * shape[1])   # np.full is a slower Python-level wrapper
    if pad:
        block.fill(pad)
    block[cell] = values
    return block.reshape(shape)


def _prefix_sums(values, cell, shape):
    """Prefix sums of each node's values, as rows of a zero-padded block.

    Accumulating a row adds in the same order as the 1-D cumsum of that
    node's values, so the bits are the same.
    """
    return np.add.accumulate(_block(values, cell, shape, 0.0), axis=1)


def _band_splits(xo, yo, node, counts, width, task, n_classes):
    """Value of each node of a band and its best split: the feature, or -1, and
    the split's two sorted neighbours in it, below and above.

    The rows of node i, at most width, lie contiguously in xo, yo (node[p] ==
    i), in their original order. Regression sums are sequential and the targets
    are centred at the node mean before they are squared, so a large target
    offset does not cancel. The first feature seeds the running best and a later
    one replaces it where it scores strictly lower (a score is finite or inf,
    never NaN), and argmin picks the lowest gap: the tie-break contract."""
    k = counts.size
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

    if not (xo.shape[1] and np.count_nonzero(impure)):
        return value, np.full(k, -1, dtype=np.intp), np.zeros(k), np.zeros(k)
    score_row, x_row = np.arange(0, k * width, width), np.arange(0, k * (width + 1), width + 1)
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
        at = x_row + i
        lower, upper = xs.reshape(-1)[at], xs.reshape(-1)[at + 1]
        if j:
            better = found < best
            best, feature = np.where(better, found, best), np.where(better, j, feature)
            below, above = np.where(better, lower, below), np.where(better, upper, above)
        else:
            best, feature, below, above = found, 0, lower, upper
    split = impure & ~(best >= impurity)
    return value, np.where(split, feature, -1), below, above


def _level_splits(xo, yo, node, counts, task, n_classes):
    """_band_splits over one level, in power-of-two size bands if it is skewed."""
    k, width = counts.size, int(counts.max())
    if k * width <= max(2 * node.size, _BLOCK_CELLS):
        return _band_splits(xo, yo, node, counts, width, task, n_classes)
    band = np.ceil(np.log2(counts)).astype(np.intp)
    value = np.zeros((k,) + (() if task == "regression" else (n_classes,)))
    feature, below, above = np.empty(k, dtype=np.intp), np.empty(k), np.empty(k)
    for b in np.unique(band):
        members = band == b
        at = members[node]
        local = members.cumsum() - 1
        (value[members], feature[members], below[members],
         above[members]) = _band_splits(xo[at], yo[at], local[node[at]], counts[members],
                                        int(counts[members].max()), task, n_classes)
    return value, feature, below, above


def _grow_tree(x, y, task, n_classes, roots=None):
    """Grow a CART from each root index array idx (by default one root of every
    row) until every leaf is pure or unsplittable; tree idx is the CART grown
    alone on x[idx], y[idx]. All trees grow a level at a time: the rows of each
    open node lie contiguously in `rows`, in their original order, and a split
    node's rows move on, left child first (x <= below, the lower neighbour); the
    thresholds are taken once, at the end. Roots are nodes 0 to T - 1; the r-th
    split node (from 0) has children T + 2r and T + 2r + 1."""
    roots = [np.arange(y.size)] if roots is None else roots
    scale = task == "regression" and _out_of_range(np.abs(y)).any()
    levels = []                      # (feature, below, above, value) per level
    rows = np.concatenate(roots)
    counts = np.array([root.size for root in roots])
    node = np.repeat(np.arange(counts.size), counts)
    while rows.size:
        yo = y[rows]                 # raw each level: a node scales on its own
        if scale:
            top = np.maximum.reduceat(np.abs(yo), counts.cumsum() - counts)
            shift = np.where(_out_of_range(top), -np.frexp(top)[1], 0)
            yo = np.ldexp(yo, shift[node])
        value, feature, below, above = _level_splits(x[rows], yo, node, counts, task, n_classes)
        levels.append((feature, below, above, np.ldexp(value, -shift) if scale else value))
        split = feature >= 0
        rank = split.cumsum() - 1    # index of a split node among the level's splits
        keep = split[node]
        rows, node = rows[keep], node[keep]
        side = x[rows, feature[node]] > below[node]
        child = 2 * rank[node] + side
        order = child.argsort(kind="stable")
        rows, node = rows[order], child[order]
        counts = np.bincount(node, minlength=2 * np.count_nonzero(split))
    feature, below, above, value = (np.concatenate(arrays) for arrays in zip(*levels))
    with np.errstate(over="ignore"):
        mid = 0.5 * (below + above)
    mid = np.where((below <= mid) & (mid < above), mid, below)     # see _Tree
    split = feature >= 0
    left = np.where(split, len(roots) - 2 + 2 * split.cumsum(), -1)
    return _Tree(feature, np.where(split, mid, 0.0), left, np.where(split, left + 1, -1), value)


def _tree_predict_rows(tree, x):
    """Leaf value of every (tree, row) pair, (T, n) for regression or (T, n, K)
    probabilities, T = nodes - 2 * splits. All pairs descend together, one
    level per step, through one flat (left, right) child table in which a leaf
    is its own child and reads feature 0, so a pair at its leaf stays there."""
    leaf = tree.feature < 0
    child = np.where(leaf, np.arange(leaf.size), np.stack((tree.left, tree.right))).T.reshape(-1)
    feature = np.maximum(tree.feature, 0)
    (n, d), n_roots = x.shape, 2 * np.count_nonzero(leaf) - leaf.size
    node, at = np.divmod(np.arange(n_roots * n), n)
    flat, at = x.reshape(-1), at * d
    while not leaf[node].all():
        node = child[2 * node + (flat[at + feature[node]] > tree.threshold[node])]
    return tree.value[node].reshape((n_roots, n) + tree.value.shape[1:])


# --- kNN ---------------------------------------------------------------------

# Cells per kNN filter block (test row x training row, at least one row) and refine gather
# (candidate x feature). A block goes in a per-thread workspace of two buffers of this many
# floats that later calls reuse, or in fresh arrays if one row is wider: memory is O(block).
_KNN_CELLS = 1 << 15
_KNN_WORKSPACE = threading.local()


def _workspace(owner, slot, shape):
    """An uninitialised float array of the shape: a view of buffer `slot` of the
    owner's (a threading.local's) two of _KNN_CELLS floats if it fits, else fresh."""
    size = math.prod(shape)
    if size > _KNN_CELLS:
        return np.empty(shape)
    if not hasattr(owner, "buffers"):
        owner.buffers = (np.empty(_KNN_CELLS), np.empty(_KNN_CELLS))
    return owner.buffers[slot][:size].reshape(shape)


def _candidates(x, tx, k):
    """Rows, columns and exact squared distances of the candidates for each
    row's k <= len(tx) nearest, rows ascending, then columns. The filter
    value ||t||^2 - 2 x.t omits the row's constant ||x||^2."""
    n_train, d = tx.shape
    keep = [np.empty(0, dtype=np.intp)]      # flat (row, column) indices
    with np.errstate(over="ignore", invalid="ignore"):
        tt = (tx * tx).sum(axis=1)
        # unit roundoff 2**-53; the smallest subnormal 2**-1074
        slack = 8.0 * (d + 3) * (2.0**-53 * ((x * x).sum(axis=1) + tt.max()) + 2.0**-1074)
        block = max(1, _KNN_CELLS // n_train)
        for first in range(0, x.shape[0], block):
            at = slice(first, first + block)
            xb = -2.0 * x[at]
            fast = np.matmul(xb, tx.T, out=_workspace(_KNN_WORKSPACE, 0, (xb.shape[0], n_train)))
            fast += tt
            kth = _workspace(_KNN_WORKSPACE, 1, fast.shape)
            np.copyto(kth, fast)
            kth.partition(k - 1, axis=1)
            bound = kth[:, k - 1:k] + 2.0 * slack[at, None]
            keep.append(np.flatnonzero(~(fast > bound)) + first * n_train)
        rows, cols = np.divmod(np.concatenate(keep), n_train)
        exact, step = np.empty(rows.size), max(1, _KNN_CELLS // max(1, d))
        for start in range(0, rows.size, step):
            at = slice(start, start + step)
            exact[at] = ((tx[cols[at]] - x[rows[at]]) ** 2).sum(axis=1)
    return rows, cols, exact


def _nearest(x, tx, k):
    """Column indices of each row's min(k, columns) nearest rows of tx, in
    stable-argsort order of the exact squared distances: equal distances by
    lowest column. A chosen distance that overflows is refused; one that only
    a farther candidate has is not."""
    k = min(k, tx.shape[0])
    rows, cols, exact = _candidates(x, tx, k)
    # stable, so equal distances keep the column order; rows stay as they are
    order = np.lexsort((exact, rows))
    counts = np.bincount(rows, minlength=x.shape[0])
    chosen = order[np.arange(rows.size) - (counts.cumsum() - counts)[rows] < k]
    if np.isinf(exact[chosen]).any():
        raise ValueError("squared distances between the features overflow; rescale them")
    return cols[chosen].reshape(x.shape[0], k)


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
_LOGISTIC_MAX_ITER = 1000  # gradient steps at most


def _fit_logistic(x, y, n_classes, lam):
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
    for _ in range(_LOGISTIC_MAX_ITER):
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
    seed = check_seed(seed)
    if data.n < 1:
        raise ValueError("cannot train on empty data")
    if spec.task != data.task:
        raise ValueError(f"predictor task {spec.task!r} does not match data task {data.task!r}")
    if not np.isfinite(data.x).all():
        raise ValueError("training features must be finite")
    if data.task == "regression":
        if not np.isfinite(data.y).all():
            raise ValueError("regression targets must be finite")
        finite_mean(data.y, 0, "regression targets")
    fingerprint = (data.d, data.task, data.n_classes)
    x, y = data.x, data.y

    if spec.kind == "mean":
        state = _node_value(y, data.n_classes, data.task)
    elif spec.kind == "knn":
        state = (x.copy(), y.copy(), spec.k)
    elif spec.kind in ("cart", "bagged_trees"):
        draws = [child_rng(seed, "tree", t).integers(0, data.n, size=data.n)
                 for t in range(spec.n_trees)] if spec.kind == "bagged_trees" else None
        state = _grow_tree(x, y, data.task, data.n_classes, draws)
    elif spec.kind in ("ridge", "linear"):
        lam = spec.lam if spec.kind == "ridge" else 0.0
        state = _fit_ridge(x, y, lam)
    elif spec.kind == "logistic":
        state = _fit_logistic(x, y, data.n_classes, spec.lam)
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
        nearest = _nearest(x, tx, k)
        if model.task == "regression":
            return finite_mean(ty[nearest], 1, "neighbours' targets")
        n = x.shape[0]
        labels = np.arange(n)[:, None] * n_classes + ty[nearest]
        counts = np.bincount(labels.reshape(-1), minlength=n * n_classes)
        return counts.reshape(n, n_classes) / nearest.shape[1]

    if model.kind in ("cart", "bagged_trees"):
        return finite_mean(_tree_predict_rows(model.state, x), 0, "trees' predictions")

    if model.kind in ("ridge", "linear"):
        coef, intercept = model.state
        return x @ coef + intercept

    if model.kind == "logistic":
        w, b = model.state
        return softmax(x @ w + b)

    raise ValueError(f"unknown predictor kind {model.kind!r}")

