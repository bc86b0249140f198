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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class CentralStats:
    central: np.ndarray
    gvar: float


def clamp_probs(p: np.ndarray, floor: float = PROB_FLOOR) -> np.ndarray:
    """Floor probabilities and renormalize along the last axis."""
    p = np.clip(np.asarray(p, dtype=np.float64), floor, None)
    return p / p.sum(axis=-1, keepdims=True)


def softmax(u: np.ndarray) -> np.ndarray:
    """Normalized exponential along the last axis, shifted by the maximum."""
    e = np.exp(u - u.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _check_domain(spec: BregmanSpec, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != spec.dimension:
        raise DomainError(f"expected dimension {spec.dimension}, got shape {v.shape}")
    if spec.kind == NEGENTROPY:
        if np.any(v < -1e-12) or np.any(np.abs(v.sum(axis=-1) - 1.0) > 1e-6):
            raise DomainError("negentropy inputs must lie on the probability simplex")
        v = clamp_probs(v, PROB_FLOOR)
    return v


def potential(spec: BregmanSpec, v) -> np.ndarray:
    v = _check_domain(spec, v)
    if spec.kind == SQUARED:
        return np.sum(v * v, axis=-1)
    return np.sum(v * np.log(v), axis=-1)


def divergence(spec: BregmanSpec, y, g) -> float | np.ndarray:
    """D(y, g) = F(y) - F(g) - <grad F(g), y - g>; >= 0 with equality iff y = g."""
    y = _check_domain(spec, y)
    g = _check_domain(spec, g)
    if spec.kind == SQUARED:
        return np.sum((y - g) ** 2, axis=-1)
    # On the simplex this reduces to KL(y || g).
    return np.sum(y * (np.log(y) - np.log(g)), axis=-1)


def dual(spec: BregmanSpec, g) -> np.ndarray:
    """Gradient map grad F; under negentropy log g, which is grad F = 1 + log g
    up to the simplex normal, a shift that dual_inverse cancels."""
    g = _check_domain(spec, g)
    if spec.kind == SQUARED:
        return 2.0 * g
    return np.log(g)


def dual_inverse(spec: BregmanSpec, u) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != spec.dimension:
        raise DomainError(f"expected dimension {spec.dimension}, got shape {u.shape}")
    if spec.kind == SQUARED:
        return u / 2.0
    return softmax(u)


def dual_average(spec: BregmanSpec, predictions) -> np.ndarray:
    """Combine predictions through the dual map: inverse dual of the dual mean.

    Arithmetic mean for the squared potential; normalized geometric mean for
    negentropy.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.ndim < 2 or predictions.shape[0] < 1:
        raise ValueError("need a non-empty stack of predictions")
    duals = dual(spec, predictions)
    return dual_inverse(spec, duals.mean(axis=0))


def central_prediction(spec: BregmanSpec, samples, weights=None) -> CentralStats:
    """Central prediction and generalized variance of a prediction sample."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim < 2 or samples.shape[0] < 1:
        raise ValueError("need a non-empty sample of predictions")
    duals = dual(spec, samples)
    if weights is None:
        central = dual_inverse(spec, duals.mean(axis=0))
        gvar = float(np.mean(divergence(spec, central, samples)))
    else:
        weights = np.asarray(weights, dtype=np.float64)
        weights = weights / weights.sum()
        central = dual_inverse(spec, np.tensordot(weights, duals, axes=1))
        gvar = float(weights @ divergence(spec, central, samples))
    return CentralStats(central=central, gvar=gvar)


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
    sizes = np.array([g.shape[0] for g in groups], dtype=np.float64)
    weights = sizes / sizes.sum()
    pooled = np.concatenate(groups, axis=0)
    lhs = central_prediction(spec, pooled).gvar
    within = [central_prediction(spec, g) for g in groups]
    between = central_prediction(spec, np.asarray([w.central for w in within]),
                                 weights=weights)
    rhs = float(weights @ np.array([w.gvar for w in within])) + between.gvar
    return lhs, rhs, lhs - rhs
