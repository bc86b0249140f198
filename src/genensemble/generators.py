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

from .data import CATEGORICAL, NUMERIC, Dataset, Schema
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
        if self.n_synthetic is not None and self.n_synthetic < 1:
            raise ValueError("n_synthetic must be >= 1")
        if self.kind == NOISY_MARGINAL_DP:
            if self.epsilon is None or self.delta is None:
                raise ValueError("noisy_marginal_dp needs epsilon and delta")
            _check_privacy_params(self.epsilon, self.delta)
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
            for p in self.probs:
                if np.any(np.asarray(p) < 0) or abs(float(np.sum(p)) - 1.0) > 1e-12:
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


def _check_privacy_params(epsilon: float, delta: float) -> None:
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


def epsilon_from_rho(rho: float, delta: float) -> float:
    """Standard zCDP-to-approximate-DP conversion (Bun & Steinke 2016, Prop. 1.3).

    rho-zCDP implies (rho + 2 sqrt(rho log(1/delta)), delta)-DP. The bound is
    not tight; Canonne, Kamath & Steinke (2020) give a sharper one.
    """
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def rho_from_epsilon(epsilon: float, delta: float) -> float:
    """Invert the conversion by bisection to 1e-12 absolute precision."""
    _check_privacy_params(epsilon, delta)
    if math.isinf(epsilon):
        return math.inf
    lo, hi = 0.0, epsilon            # epsilon_from_rho(rho) >= rho, so rho <= epsilon
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if epsilon_from_rho(mid, delta) < epsilon:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gaussian_noise_scale(rho: float, n_columns: int) -> float:
    """Per-count noise stddev when rho is split evenly over per-column histograms.

    Each column histogram has L2 sensitivity 1 under add/remove neighbors, so
    noise N(0, sigma^2) on its counts spends 1/(2 sigma^2) of zCDP budget.
    """
    if math.isinf(rho):
        return 0.0
    return math.sqrt(n_columns / (2.0 * rho))


def project_to_simplex(counts: np.ndarray) -> np.ndarray:
    """Clip negative counts at 0 and renormalize; all-zero becomes uniform."""
    clipped = np.clip(np.asarray(counts, dtype=np.float64), 0.0, None)
    total = clipped.sum()
    if total <= 0:
        return np.full(clipped.shape, 1.0 / clipped.size)
    return clipped / total


def _marginal_counts(data: Dataset) -> list[np.ndarray]:
    out = []
    for j, col in enumerate(data.schema.columns):
        if col.kind != CATEGORICAL:
            raise ValueError(f"column {col.name!r} is not categorical; discretize upstream")
        out.append(np.bincount(data.rows[:, j].astype(int),
                               minlength=len(col.levels)).astype(np.float64))
    return out


def _summary_digest(counts, seed: int) -> str:
    h = hashlib.blake2b(digest_size=8)
    h.update(seed.to_bytes(8, "little", signed=False))
    for c in counts:
        h.update(np.asarray(c, dtype=np.float64).tobytes())
    return h.hexdigest()


def _dp_summary_with_rho(data: Dataset, rho: float, epsilon: float, delta: float,
                         seed: int) -> PrivateSummary:
    exact = _marginal_counts(data)
    sigma = gaussian_noise_scale(rho, len(exact))
    rng = make_rng(seed)
    noisy = tuple(c + rng.normal(0.0, sigma, size=c.shape) if sigma > 0 else c.copy()
                  for c in exact)
    return PrivateSummary(counts=noisy, n_public=data.n, epsilon=epsilon, delta=delta,
                          rho=rho, sigma=sigma, schema=data.schema,
                          summary_id=_summary_digest(noisy, seed))


def fit_dp_summary(data: Dataset, epsilon: float, delta: float, seed: int) -> PrivateSummary:
    """Release noisy per-column marginal counts under (epsilon, delta)-DP."""
    if data.n < 1:
        raise ValueError("cannot summarize an empty dataset")
    rho = rho_from_epsilon(epsilon, delta)
    return _dp_summary_with_rho(data, rho, epsilon, delta, seed)


def sample_params_from_summary(summary: PrivateSummary, seed: int) -> GeneratorParams:
    """Draw generator parameters from the summary posterior.

    Noisy counts are projected to the simplex, then each column's probability
    vector is drawn from Dirichlet(n_public * projected + 1), so repeated
    calls are i.i.d. given the summary.
    """
    rng = make_rng(seed)
    probs = []
    for c in summary.counts:
        proj = project_to_simplex(c)
        alpha = summary.n_public * proj + DIRICHLET_SMOOTHING
        probs.append(rng.dirichlet(alpha))
    return GeneratorParams(kind=NOISY_MARGINAL_DP, probs=tuple(probs),
                           schema=summary.schema, summary_id=summary.summary_id)


def _fit_gaussian_ppd(data: Dataset, seed: int) -> GeneratorParams:
    for col in data.schema.columns:
        if col.kind != NUMERIC:
            raise ValueError(f"gaussian_ppd cannot model categorical column {col.name!r}")
    x = data.rows
    n, d = x.shape
    xbar = x.mean(axis=0)
    scatter = (x - xbar).T @ (x - xbar)
    # Normal-Inverse-Wishart posterior with a weakly informative prior centered
    # on the sample: kappa0=1, nu0=d+2, mu0=xbar, Psi0 = scatter/n + 1e-6 I.
    # The 1e-6 ridge keeps the scale matrix positive definite for degenerate data.
    kappa0, nu0 = 1.0, d + 2.0
    psi0 = scatter / n + 1e-6 * np.eye(d)
    kappa_n, nu_n = kappa0 + n, nu0 + n
    psi_n = psi0 + scatter
    from scipy.stats import invwishart   # scipy.stats costs about 1 s to import
    rng = make_rng(seed)
    cov = invwishart.rvs(df=nu_n, scale=psi_n, random_state=rng)
    cov = np.atleast_2d(cov)
    mean = rng.multivariate_normal(xbar, cov / kappa_n, method="cholesky")
    return GeneratorParams(kind=GAUSSIAN_PPD, mean=mean, cov=cov, schema=data.schema)


def fit(spec: GeneratorSpec, data: Dataset, seed: int) -> GeneratorParams:
    """Draw one set of generator parameters given the training data."""
    if data.n < 1:
        raise ValueError("cannot fit a generator on an empty dataset")
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
    if n_rows < 1:
        raise ValueError("n_rows must be >= 1")
    rng = make_rng(seed)
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
        cols = [rng.choice(len(p), size=n_rows, p=p).astype(np.float64)
                for p in params.probs]
        return Dataset(params.schema, np.column_stack(cols))
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


def check_ensemble_request(spec: GeneratorSpec, m: int, mode: str) -> None:
    """Raise ValueError unless generate_ensemble can make m datasets in this mode."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if mode not in (INDEPENDENT, SHARED_SUMMARY, SPLIT_BUDGET):
        raise ValueError(f"unknown ensemble mode {mode!r}")
    if mode in (SHARED_SUMMARY, SPLIT_BUDGET) and spec.kind != NOISY_MARGINAL_DP:
        raise ValueError(f"mode {mode!r} requires kind={NOISY_MARGINAL_DP}")


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
    check_ensemble_request(spec, m, mode)
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

    for ms in member_seeds:
        # only the way params are drawn depends on the mode
        if mode == SPLIT_BUDGET:
            summary = _dp_summary_with_rho(data, rho_i, eps_i, spec.delta,
                                           child_seed(ms, "summary"))
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
