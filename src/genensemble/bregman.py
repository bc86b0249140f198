"""Probabilities, Bregman divergences, dual averaging, central predictions,
generalized variance.

Two convex potentials are built in: the squared potential sum(t^2) on R^d,
whose divergence is the squared error, and the negative-entropy potential
sum(t ln t) on the probability simplex, whose divergence is the KL
divergence underlying cross entropy. The central prediction of a sample is
computed through the dual-mean identity (inverse dual of the mean of duals),
which is exact for both potentials; the argmin characterization is only used
as a cross-check in tests. Dual averaging under negentropy is the
log-probability averaging of classifier ensembles.

Interpolating trees emit hard 0/1 probabilities, so probabilities are floored
at PROB_FLOOR before any logarithm and renormalized.

Inputs are checked once, by the public function that receives them: its
dimension and finiteness, and under negentropy the simplex, before the floor.
The public functions then run private kernels that do the arithmetic alone.
A point derived inside a call, such as a central prediction, is checked and
floored once where a divergence reads it; a mean of duals is checked for
overflow only under the squared potential, since under negentropy it is a
mean of logs of floored probabilities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_count

PROB_FLOOR = 1e-12

SQUARED = "squared"
NEGENTROPY = "negentropy"


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class BregmanSpec:
    kind: str
    dimension: int

    def __post_init__(self):
        if self.kind not in (SQUARED, NEGENTROPY):
            raise ValueError(f"unknown Bregman kind {self.kind!r}")
        object.__setattr__(self, "dimension", check_count(self.dimension, "dimension"))


@dataclass(frozen=True)
class CentralStats:
    central: np.ndarray
    gvar: float


def clamp_probs(p: np.ndarray) -> np.ndarray:
    """Floor probabilities at PROB_FLOOR and renormalize along the last axis."""
    p = np.clip(np.asarray(p, dtype=np.float64), PROB_FLOOR, None)
    return p / p.sum(axis=-1, keepdims=True)


def softmax(u: np.ndarray) -> np.ndarray:
    """Normalized exponential along the last axis, shifted by the maximum."""
    e = np.exp(u - u.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _check_finite(spec: BregmanSpec, v) -> np.ndarray:
    """v as a float array of finite points of spec's dimension, else DomainError."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != (spec.dimension,):
        raise DomainError(f"expected dimension {spec.dimension}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DomainError("inputs must be finite")
    return v


def _check_domain(spec: BregmanSpec, v) -> np.ndarray:
    v = _check_finite(spec, v)
    if spec.kind == NEGENTROPY:
        if (v < -1e-12).any() or (np.abs(v.sum(axis=-1) - 1.0) > 1e-6).any():
            raise DomainError("negentropy inputs must lie on the probability simplex")
        v = clamp_probs(v)
    return v


# The kernels below do the arithmetic only, on points a public function has
# already checked: each input array is checked once, where it enters.

def _divergence(spec: BregmanSpec, y: np.ndarray, g: np.ndarray) -> float | np.ndarray:
    if spec.kind == SQUARED:
        return np.sum((y - g) ** 2, axis=-1)
    # On the simplex this reduces to KL(y || g).
    return np.sum(y * (np.log(y) - np.log(g)), axis=-1)


def _dual(spec: BregmanSpec, g: np.ndarray) -> np.ndarray:
    return 2.0 * g if spec.kind == SQUARED else np.log(g)


def _dual_inverse(spec: BregmanSpec, u: np.ndarray) -> np.ndarray:
    return u / 2.0 if spec.kind == SQUARED else softmax(u)


def _mean_inverse(spec: BregmanSpec, u: np.ndarray) -> np.ndarray:
    """Inverse dual of a mean u of the duals of checked points. Under negentropy
    those duals are logs of floored probabilities, so u is finite; the squared
    potential's mean of 2g can overflow, so it is checked."""
    if spec.kind == SQUARED:
        u = _check_finite(spec, u)
    return _dual_inverse(spec, u)


def _central(spec: BregmanSpec, samples: np.ndarray, weights=None) -> CentralStats:
    """central_prediction of checked samples; valid weights are normalized here."""
    duals = _dual(spec, samples)
    if weights is None:
        central = _mean_inverse(spec, duals.mean(axis=0))
        gvar = float(np.mean(_divergence(spec, _check_domain(spec, central), samples)))
    else:
        weights = weights / weights.sum()
        central = _mean_inverse(spec, np.tensordot(weights, duals, axes=1))
        gvar = float(weights @ _divergence(spec, _check_domain(spec, central), samples))
    return CentralStats(central=central, gvar=gvar)


def _check_stack(spec: BregmanSpec, predictions, noun: str) -> np.ndarray:
    """A non-empty stack of predictions along axis 0, checked by _check_domain."""
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.ndim < 2 or predictions.shape[0] < 1:
        raise ValueError(f"need a non-empty {noun} of predictions")
    return _check_domain(spec, predictions)


def divergence(spec: BregmanSpec, y, g) -> float | np.ndarray:
    """D(y, g) = F(y) - F(g) - <grad F(g), y - g>; >= 0 with equality iff y = g."""
    return _divergence(spec, _check_domain(spec, y), _check_domain(spec, g))


def dual(spec: BregmanSpec, g) -> np.ndarray:
    """Gradient map grad F; under negentropy log g, which is grad F = 1 + log g
    up to the simplex normal, a shift that dual_inverse cancels."""
    return _dual(spec, _check_domain(spec, g))


def dual_inverse(spec: BregmanSpec, u) -> np.ndarray:
    return _dual_inverse(spec, _check_finite(spec, u))


def dual_average(spec: BregmanSpec, predictions) -> np.ndarray:
    """Combine predictions through the dual map: inverse dual of the dual mean.

    Arithmetic mean for the squared potential; normalized geometric mean for
    negentropy.
    """
    predictions = _check_stack(spec, predictions, "stack")
    return _mean_inverse(spec, _dual(spec, predictions).mean(axis=0))


def central_prediction(spec: BregmanSpec, samples, weights=None) -> CentralStats:
    """Central prediction and generalized variance of a prediction sample."""
    samples = _check_stack(spec, samples, "sample")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            total = weights.sum()
        if (weights.shape != samples.shape[:1] or not np.isfinite(weights).all()
                or (weights < 0).any() or not 0.0 < total < np.inf):
            raise ValueError("weights must be one finite, non-negative weight per sample, "
                             "with a finite positive sum")
    return _central(spec, samples, weights)


def check_total_variance(spec: BregmanSpec, grouped_samples) -> tuple[float, float, float]:
    """Evaluate both sides of the generalized law of total variance.

    Groups are weighted by size. Returns (lhs, rhs, gap) where lhs is the
    pooled generalized variance, rhs the mean within-group variance plus the
    variance of the within-group centrals, and gap = lhs - rhs (zero up to
    float error for empirical measures with matched weights).
    """
    groups = [np.asarray(g, dtype=np.float64) for g in grouped_samples]
    if len(groups) < 2 or any(g.shape[0] < 1 for g in groups):
        raise ValueError("need at least two non-empty groups")
    counts = [g.shape[0] for g in groups]
    sizes = np.array(counts, dtype=np.float64)
    weights = sizes / sizes.sum()
    pooled = _check_stack(spec, np.concatenate(groups, axis=0), "sample")
    lhs = _central(spec, pooled).gvar
    # each group is its rows of the checked pool
    within = [_central(spec, g) for g in np.split(pooled, np.cumsum(counts)[:-1])]
    between = _central(spec, _check_domain(spec, np.asarray([w.central for w in within])),
                       weights)
    rhs = float(weights @ np.array([w.gvar for w in within])) + between.gvar
    return lhs, rhs, lhs - rhs
