"""Synthetic-data generators and their privacy accounting.

All generators follow the same two-stage sampling structure: fit() draws
generator parameters from the training data, sample() draws a synthetic
dataset from those parameters. The DP generator additionally factors the
fit through a noisy marginal summary, which is what distinguishes the
shared-summary and split-budget ensemble modes from the independent one.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, NUMERIC, Dataset, Schema, check_count, check_flag, check_seed
from .rng import child_seed, make_rng

BOOTSTRAP = "bootstrap"
GAUSSIAN_PPD = "gaussian_ppd"
NOISY_MARGINAL_DP = "noisy_marginal_dp"
TRUTH_PROCESS = "truth_process"

INDEPENDENT = "independent"
SHARED_SUMMARY = "shared_summary"
SPLIT_BUDGET = "split_budget"

DIRICHLET_SMOOTHING = 1.0   # pseudo-count added to every cell of the summary posterior


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n_synthetic: int | None = None      # rows per synthetic dataset; default len(data)
    identity: bool = False              # bootstrap only: return the training data verbatim
    epsilon: float | None = None        # DP budget (math.inf = zero-noise surrogate)
    delta: float | None = None
    process: str | None = None          # truth-process id

    def __post_init__(self):
        if self.kind not in (BOOTSTRAP, GAUSSIAN_PPD, NOISY_MARGINAL_DP, TRUTH_PROCESS):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n_synthetic is not None:
            object.__setattr__(self, "n_synthetic", check_count(self.n_synthetic, "n_synthetic"))
        object.__setattr__(self, "identity", check_flag(self.identity, "identity"))
        if self.identity and (self.kind != BOOTSTRAP or self.n_synthetic is not None):
            raise ValueError("identity needs the bootstrap generator and no n_synthetic")
        if self.kind != NOISY_MARGINAL_DP and (self.epsilon, self.delta) != (None, None):
            raise ValueError(f"epsilon and delta need kind={NOISY_MARGINAL_DP}")
        if self.kind != TRUTH_PROCESS and self.process is not None:
            raise ValueError(f"process needs kind={TRUTH_PROCESS}")
        if self.kind == NOISY_MARGINAL_DP:
            if self.epsilon is None or self.delta is None:
                raise ValueError("noisy_marginal_dp needs epsilon and delta")
            gaussian_noise_scale(rho_from_epsilon(self.epsilon, self.delta), 1)
        if self.kind == TRUTH_PROCESS and not self.process:
            raise ValueError("truth_process generator needs a process id")


@dataclass(frozen=True)
class GeneratorParams:
    kind: str
    data: Dataset | None = None                 # bootstrap
    identity: bool = False
    mean: np.ndarray | None = None              # gaussian_ppd
    cov: np.ndarray | None = None
    probs: tuple[np.ndarray, ...] | None = None  # noisy_marginal_dp, per column
    schema: Schema | None = None
    process: str | None = None                  # truth_process
    theta: object = None
    summary_id: str = ""

    def __post_init__(self):
        if self.probs is not None:
            flat = np.concatenate(self.probs)
            sums = _prefix_sums(flat, list(map(len, self.probs)))[:, -1]
            if np.any(flat < 0) or not np.all(abs(sums - 1.0) <= 1e-12):   # NaN fails
                raise ValueError("probability vectors must be non-negative and sum to 1")


@dataclass(frozen=True)
class PrivateSummary:
    counts: tuple[np.ndarray, ...]     # noisy per-column marginal counts, may be negative
    n_public: int
    epsilon: float
    delta: float
    rho: float                         # zCDP budget actually spent
    sigma: float                       # per-count Gaussian noise stddev
    schema: Schema
    summary_id: str

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")


def epsilon_from_rho(rho: float, delta: float) -> float:
    """Standard zCDP-to-approximate-DP conversion (Bun & Steinke 2016, Prop. 1.3).

    rho-zCDP implies (rho + 2 sqrt(rho log(1/delta)), delta)-DP. The bound is
    not tight; Canonne, Kamath & Steinke (2020) give a sharper one. The square
    root is taken factor by factor, since rho * log(1/delta) can underflow.
    """
    return rho + 2.0 * math.sqrt(rho) * math.sqrt(-math.log(delta))


def rho_from_epsilon(epsilon: float, delta: float) -> float:
    """The largest float rho whose spend epsilon_from_rho(rho, delta) is at most epsilon.

    Raises ValueError when no positive rho fits, as for epsilon = 5e-324.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if math.isinf(epsilon):
        return math.inf
    # exact inverse, free of cancellation; then a few steps mend its rounding
    log_inv = -math.log(delta)
    root = epsilon / (math.sqrt(log_inv + epsilon) + math.sqrt(log_inv))
    rho = root * root
    while epsilon_from_rho(rho, delta) > epsilon:
        rho = math.nextafter(rho, 0.0)
    while epsilon_from_rho(math.nextafter(rho, math.inf), delta) <= epsilon:
        rho = math.nextafter(rho, math.inf)
    if rho == 0:
        raise ValueError(f"epsilon = {epsilon!r} buys no positive rho at delta = {delta!r}")
    return rho


def gaussian_noise_scale(rho: float, n_columns: int) -> float:
    """Per-count noise stddev when rho is split evenly over per-column histograms.

    Each column histogram has L2 sensitivity 1 under add/remove neighbors, so
    noise N(0, sigma^2) on its counts spends 1/(2 sigma^2) of zCDP budget.
    """
    if math.isinf(rho):
        return 0.0
    sigma = math.sqrt(0.5 * n_columns / rho)    # 2 * rho would overflow for huge rho
    if math.isinf(sigma):
        raise ValueError(f"rho = {rho!r} is too small for a finite noise scale")
    return sigma


def project_to_simplex(counts: np.ndarray) -> np.ndarray:
    """Clip negative counts at 0 and renormalize; all-zero becomes uniform."""
    clipped = np.maximum(np.asarray(counts, dtype=np.float64), 0.0)    # np.clip's ufunc
    total = clipped.sum()
    if total <= 0:
        return np.full(clipped.shape, 1.0 / clipped.size)
    return clipped / total


def _prefix_sums(flat: np.ndarray, sizes) -> np.ndarray:
    """Prefix sums of the runs of flat, sizes[j] long, as rows of a zero-padded
    block: the bits of each run's own cumsum, then its total repeated."""
    sizes = np.asarray(sizes)
    block = np.zeros((sizes.size, sizes.max()))
    block[np.arange(block.shape[1]) < sizes[:, None]] = flat
    return np.add.accumulate(block, axis=1)


def _marginal_counts(data: Dataset) -> tuple[list[int], np.ndarray]:
    """The number of levels of each column, and all level counts in column order."""
    sizes = [len(col.levels) for col in data.schema.columns]
    cells = data.rows.astype(np.intp) + (np.cumsum(sizes) - sizes)
    return sizes, np.bincount(cells.ravel(), minlength=sum(sizes)).astype(np.float64)


def _dp_summary_with_rho(data: Dataset, rho: float, epsilon: float, delta: float,
                         seed: int, marginals=None) -> PrivateSummary:
    """One release; marginals is _marginal_counts(data) when the caller has it.
    One normal draw over all cells is the stream of one draw per column."""
    sizes, exact = marginals or _marginal_counts(data)
    sigma = gaussian_noise_scale(rho, len(sizes))
    noisy = (exact + make_rng(seed).normal(0.0, sigma, size=exact.size) if sigma > 0
             else exact.copy())
    digest = hashlib.blake2b((seed % 2**64).to_bytes(8, "little") + noisy.tobytes(), digest_size=8)
    return PrivateSummary(counts=tuple(np.split(noisy, np.cumsum(sizes[:-1]))),
                          n_public=data.n, epsilon=epsilon, delta=delta, rho=rho, sigma=sigma,
                          schema=data.schema, summary_id=digest.hexdigest())


def fit_dp_summary(data: Dataset, epsilon: float, delta: float, seed: int) -> PrivateSummary:
    """Release noisy per-column marginal counts under (epsilon, delta)-DP."""
    seed = check_seed(seed)
    check_ensemble_request(GeneratorSpec(NOISY_MARGINAL_DP, epsilon=epsilon, delta=delta),
                           1, INDEPENDENT, data)
    return _dp_summary_with_rho(data, rho_from_epsilon(epsilon, delta), epsilon, delta, seed)


def sample_params_from_summary(summary: PrivateSummary, seed: int) -> GeneratorParams:
    """Draw generator parameters from the summary posterior.

    Noisy counts are projected to the simplex, then each column's probability
    vector is drawn from Dirichlet(n_public * projected + 1), so repeated
    calls are i.i.d. given the summary. One gamma draw, each column normalised
    by its sequential sum, is numpy's Generator.dirichlet bit for bit while
    max(alpha) >= 0.1, and here alpha >= 1.
    """
    rng = make_rng(check_seed(seed))
    sizes = [c.size for c in summary.counts]
    proj = np.concatenate([project_to_simplex(c) for c in summary.counts])
    gamma = rng.standard_gamma(summary.n_public * proj + DIRICHLET_SMOOTHING)
    probs = gamma * np.repeat(1.0 / _prefix_sums(gamma, sizes)[:, -1], sizes)
    return GeneratorParams(kind=NOISY_MARGINAL_DP,
                           probs=tuple(np.split(probs, np.cumsum(sizes[:-1]))),
                           schema=summary.schema, summary_id=summary.summary_id)


def _niw_posterior(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xbar, Psi_n) of the Normal-Inverse-Wishart posterior whose prior is centered on
    the rows x: kappa0=1, nu0=d+2, mu0=xbar, Psi0 = scatter/n + 1e-6 I. The ridge keeps
    Psi_n positive definite for degenerate data only near unit scale."""
    n, d = x.shape
    xbar = x.mean(axis=0)
    scatter = (x - xbar).T @ (x - xbar)
    return xbar, scatter / n + 1e-6 * np.eye(d) + scatter


def _fit_gaussian_ppd(data: Dataset, seed: int) -> GeneratorParams:
    n, d = data.rows.shape
    xbar, psi_n = _niw_posterior(data.rows)
    kappa_n, nu_n = 1.0 + n, d + 2.0 + n
    # Sigma ~ IW(nu_n, Psi_n) by Bartlett's decomposition, on scipy's invwishart stream:
    # A has N(0, 1) below its diagonal and chi(nu_n - d + 1 + i) on it, CA = chol(Psi_n) A^-1
    rng = make_rng(seed)
    a = np.zeros((d, d))
    a[np.tril_indices(d, -1)] = rng.normal(size=d * (d - 1) // 2)
    a[np.diag_indices(d)] = rng.chisquare(nu_n - d + 1 + np.arange(d)) ** 0.5
    ca = np.linalg.solve(a.T, np.linalg.cholesky(psi_n).T).T
    cov = ca @ ca.T
    mean = rng.multivariate_normal(xbar, cov / kappa_n, method="cholesky")
    return GeneratorParams(kind=GAUSSIAN_PPD, mean=mean, cov=cov, schema=data.schema)


def fit(spec: GeneratorSpec, data: Dataset, seed: int) -> GeneratorParams:
    """Draw one set of generator parameters given the training data."""
    seed = check_seed(seed)
    check_ensemble_request(spec, 1, INDEPENDENT, data)
    if spec.kind == BOOTSTRAP:
        return GeneratorParams(kind=BOOTSTRAP, data=data, identity=spec.identity,
                               schema=data.schema)
    if spec.kind == GAUSSIAN_PPD:
        return _fit_gaussian_ppd(data, seed)
    if spec.kind == NOISY_MARGINAL_DP:
        summary = fit_dp_summary(data, spec.epsilon, spec.delta, seed)
        probs = tuple(project_to_simplex(c) for c in summary.counts)
        return GeneratorParams(kind=NOISY_MARGINAL_DP, probs=probs, schema=data.schema,
                               summary_id=summary.summary_id)
    if spec.kind == TRUTH_PROCESS:
        from .processes import get_process
        process = get_process(spec.process)
        theta = process.fit_theta(data, make_rng(seed))
        return GeneratorParams(kind=TRUTH_PROCESS, process=spec.process, theta=theta,
                               schema=data.schema)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


def sample(params: GeneratorParams, n_rows: int, seed: int) -> Dataset:
    """Draw one synthetic dataset from fitted generator parameters."""
    n_rows = check_count(n_rows, "n_rows")
    rng = make_rng(check_seed(seed))
    if params.kind == BOOTSTRAP:
        if params.identity:
            return params.data
        idx = rng.integers(0, params.data.n, size=n_rows)
        return Dataset(params.schema, params.data.rows[idx])
    if params.kind == GAUSSIAN_PPD:
        rows = rng.multivariate_normal(params.mean, params.cov, size=n_rows,
                                       method="cholesky")
        return Dataset(params.schema, rows)
    if params.kind == NOISY_MARGINAL_DP:
        # Generator.choice bit for bit: cdf = cumsum / its last entry, and a level is
        # the count of cdf entries <= u < 1 (the last and the padded entries are 1.0)
        cdf = _prefix_sums(np.concatenate(params.probs), list(map(len, params.probs)))
        cdf /= cdf[:, -1:]
        levels = (cdf.T[:, :, None] <= rng.random((len(cdf), n_rows))).sum(axis=0, dtype=float)
        return Dataset(params.schema, np.ascontiguousarray(levels.T))
    if params.kind == TRUTH_PROCESS:
        from .processes import get_process
        process = get_process(params.process)
        return process.sample_synth_dataset(params.theta, n_rows, rng)
    raise ValueError(f"unknown generator kind {params.kind!r}")


@dataclass(frozen=True)
class EnsembleProvenance:
    kind: str
    mode: str
    m: int
    n_rows: int
    seed: int
    member_seeds: tuple[int, ...]
    epsilon: float | None = None
    delta: float | None = None
    rho_total: float | None = None
    rho_per_member: tuple[float, ...] = ()
    summary_ids: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out = {"generator": self.kind, "mode": self.mode, "m": self.m,
               "n_rows": self.n_rows, "seed": self.seed,
               "member_seeds": list(self.member_seeds)}
        if self.epsilon is not None:
            # epsilon is the configured budget; epsilon_total is the spend of
            # all releases composed, at the same delta
            out.update(epsilon=self.epsilon, delta=self.delta, rho_total=self.rho_total,
                       epsilon_total=epsilon_from_rho(self.rho_total, self.delta),
                       rho_per_member=list(self.rho_per_member),
                       summary_ids=list(self.summary_ids))
        return out


def check_ensemble_request(spec: GeneratorSpec, m: int, mode: str, data: Dataset) -> int:
    """m as an int; raises ValueError unless generate_ensemble can make m
    datasets in this mode from data; fit and fit_dp_summary check one dataset here."""
    m = check_count(m, "m")
    if mode not in (INDEPENDENT, SHARED_SUMMARY, SPLIT_BUDGET):
        raise ValueError(f"unknown ensemble mode {mode!r}")
    if mode in (SHARED_SUMMARY, SPLIT_BUDGET) and spec.kind != NOISY_MARGINAL_DP:
        raise ValueError(f"mode {mode!r} requires kind={NOISY_MARGINAL_DP}")
    if data.n < 1:
        raise ValueError("cannot fit a generator on an empty dataset")
    finite = np.isfinite(data.rows).all(axis=0)
    if not finite.all():
        raise ValueError(f"column {data.schema.columns[finite.argmin()].name!r} holds a NaN or inf")
    want = {NOISY_MARGINAL_DP: CATEGORICAL, GAUSSIAN_PPD: NUMERIC}.get(spec.kind)
    for col in data.schema.columns:
        if want not in (None, col.kind):
            raise ValueError(f"{spec.kind} models {want} columns; {col.name!r} is {col.kind}")
    if spec.kind == GAUSSIAN_PPD:
        with np.errstate(all="ignore"):     # refused here, so no overflow warning
            if not all(np.isfinite(part).all() for part in _niw_posterior(data.rows)):
                raise ValueError(f"{GAUSSIAN_PPD}: the data's mean or scatter matrix overflows")
    if spec.kind == TRUTH_PROCESS:
        from .processes import get_process
        if get_process(spec.process).schema != data.schema:
            raise ValueError(f"truth process {spec.process!r} does not model the data's "
                             f"columns {data.schema.names}")
    if spec.kind == NOISY_MARGINAL_DP:
        rho = rho_from_epsilon(spec.epsilon, spec.delta)
        gaussian_noise_scale(rho / m if mode == SPLIT_BUDGET else rho, len(data.schema.columns))
    return m


def generate_ensemble(spec: GeneratorSpec, data: Dataset, m: int, mode: str,
                      seed: int = 0) -> tuple[list[Dataset], EnsembleProvenance]:
    """Generate m synthetic datasets under one of the three ensemble modes.

    independent    -- m i.i.d. fit+sample chains given the real data; with
                      the DP generator, m releases at the full budget.
    shared_summary -- one DP summary release; m i.i.d. parameter draws from it.
    split_budget   -- m DP releases, each spending 1/m of the zCDP budget.

    For the DP generator the record holds one rho per release and their sum,
    the composed zCDP spend (zCDP composes additively).
    """
    m = check_ensemble_request(spec, m, mode, data)
    seed = check_seed(seed)
    n_rows = spec.n_synthetic if spec.n_synthetic is not None else data.n

    member_seeds = tuple(child_seed(seed, "member", i) for i in range(m))
    datasets: list[Dataset] = []
    summary_ids: list[str] = []
    rho_members: list[float] = []       # one entry per DP release
    rho_full = (rho_from_epsilon(spec.epsilon, spec.delta)
                if spec.kind == NOISY_MARGINAL_DP else None)
    if mode == INDEPENDENT and rho_full is not None:
        rho_members = [rho_full] * m    # each member's fit is a release at the full budget
    elif mode == SHARED_SUMMARY:
        summary = fit_dp_summary(data, spec.epsilon, spec.delta, child_seed(seed, "summary"))
        rho_members.append(summary.rho)
    elif mode == SPLIT_BUDGET:
        rho_i = rho_full / m
        eps_i = epsilon_from_rho(rho_i, spec.delta)
        marginals = _marginal_counts(data)

    for ms in member_seeds:
        # only the way params are drawn depends on the mode
        if mode == SPLIT_BUDGET:
            summary = _dp_summary_with_rho(data, rho_i, eps_i, spec.delta,
                                           child_seed(ms, "summary"), marginals)
            rho_members.append(summary.rho)
        if mode == INDEPENDENT:
            params = fit(spec, data, child_seed(ms, "fit"))
        else:
            params = sample_params_from_summary(summary, child_seed(ms, "theta"))
        if params.summary_id:
            summary_ids.append(params.summary_id)
        datasets.append(sample(params, n_rows, child_seed(ms, "sample")))

    rho_total = sum(rho_members) if rho_full is not None else None
    record = EnsembleProvenance(kind=spec.kind, mode=mode, m=m, n_rows=n_rows, seed=seed,
                                member_seeds=member_seeds, epsilon=spec.epsilon,
                                delta=spec.delta, rho_total=rho_total,
                                rho_per_member=tuple(rho_members),
                                summary_ids=tuple(summary_ids))
    return datasets, record
