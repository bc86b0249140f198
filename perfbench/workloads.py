"""The three benchmark workloads: inputs built from the seed, the fixed job, checks.

A workload turns ``--seed`` into inputs with its own numpy generator, so the
library receives only generated inputs and a change to the library's seed
derivation cannot change them. Its fixed job is a list of ops. Each op returns
the bytes that go into ``output_sha256`` and a list of broken invariants; an op
that raises or breaks an invariant is a failed op.

Why these three:

* ``curve-cart`` is the predictor hot path (CART training and per-row
  prediction), at the size of acceptance test 05.
* ``oracle-mc`` runs the built-in-predictor oracles, which never call
  ``predictors``; it is the null workload for every predictor change.
* ``cli-dp-knn`` uses the same layers in another way: classification, the DP
  generator, one-hot encoding with a scaler, dual averaging, AUC, config
  parsing and CSV I/O, with kNN and no CART.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math

import numpy as np

import genensemble as ge
import genensemble.cli  # noqa: F401 - binds ge.cli for the CLI workload and the tracer


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit seed for one input stream, independent of the library's own rng."""
    h = hashlib.blake2b(f"{seed}:{label}".encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


class CurveCart:
    """Bootstrap generator + regression CART on the Gaussian toy, one curve repeat per op."""

    name = "curve-cart"
    N_TRAIN = 60
    N_TEST = 300
    M_VALUES = (1, 2, 4, 8, 16)
    REPEATS = 100

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(derive_seed(seed, "data"))
        schema = ge.Schema((ge.Column("x", "numeric", "feature"),
                            ge.Column("y", "numeric", "target")))

        # Same population as the gaussian_toy process: a standard-normal
        # nuisance feature and y ~ N(0, 1).
        def draw(n):
            return ge.Dataset(schema, np.column_stack([rng.normal(size=n),
                                                       rng.normal(size=n)]))

        self.data = draw(self.N_TRAIN)
        self.test = draw(self.N_TEST)
        self.generator = ge.GeneratorSpec("bootstrap", n_synthetic=self.N_TRAIN)
        self.predictor = ge.PredictorSpec("cart", "regression")
        self.metric = ge.MetricSpec("mse")
        self.rep_seeds = [derive_seed(seed, f"repeat{j}") for j in range(self.REPEATS)]
        self.processes = []

    def _repeat(self, rep_seed):
        scores = ge.decomposition.curve_repeat(
            self.generator, self.data, self.predictor, self.test, list(self.M_VALUES),
            "mean", self.metric, rep_seed)
        values = np.array([scores[m][0] for m in self.M_VALUES], dtype=np.float64)
        problems = []
        if not _finite(values):
            problems.append("non-finite score")
        elif np.any(values < 0):
            problems.append("negative score")
        return values.tobytes(), problems

    def ops(self):
        return [(f"repeat{j}", lambda s=s: self._repeat(s))
                for j, s in enumerate(self.rep_seeds)]

    def warm_up(self):
        self._repeat(derive_seed(0, "warm-up"))


class OracleMC:
    """The built-in-predictor Monte Carlo oracles at acceptance sizes, one call per op."""

    name = "oracle-mc"

    def __init__(self, seed: int, workdir):
        self.discrete = ge.get_process("discrete_toy")
        self.gaussian = ge.get_process("gaussian_toy")
        self.processes = [self.discrete, self.gaussian]
        self.seeds = [derive_seed(seed, f"oracle{i}") for i in range(4)]

    def _decompose(self, process, mode, m, mc, seed, rho=0.0):
        report = ge.decomposition.oracle_decompose(process, mode, m=m, mc=mc,
                                                   seed=seed, rho=rho)
        text = report.to_json()
        values = [t.value for t in report.terms.values()]
        values += [t.std_error for t in report.terms.values()]
        values += [report.identity_gap, report.identity_gap_se]
        problems = []
        if not _finite(values):
            problems.append("non-finite term")
        elif report.terms["mse"].value < 0:
            problems.append("negative mse")
        return text.encode("utf-8"), problems

    def _bregman(self, m, mc, seed):
        report = ge.decomposition.bregman_oracle_decompose(self.discrete, m=m, mc=mc,
                                                           seed=seed)
        text = json.dumps(dataclasses.asdict(report), sort_keys=True)
        terms = (report.error, report.mv, report.sdv, report.rdv, report.bias)
        values = [t.value for t in terms] + [t.std_error for t in terms]
        values += [report.noise, report.bound_slack, report.bound_slack_se]
        problems = []
        if not _finite(values):
            problems.append("non-finite term")
        elif report.error.value < 0:
            problems.append("negative error")
        return text.encode("utf-8"), problems

    def ops(self):
        mc_dp = ge.MonteCarloConfig(200, 50, 20, 10000, r_summary=30)
        mc_cov = ge.MonteCarloConfig(200, 50, 20, 10000)
        mc_brg = ge.MonteCarloConfig(300, 30, 10, 10)
        s = self.seeds
        return [
            ("shared_summary_m1",
             lambda: self._decompose(self.discrete, "shared_summary", 1, mc_dp, s[0])),
            ("shared_summary_m8",
             lambda: self._decompose(self.discrete, "shared_summary", 8, mc_dp, s[1])),
            ("correlated_m2",
             lambda: self._decompose(self.gaussian, "correlated", 2, mc_cov, s[2], rho=0.5)),
            ("bregman_m4", lambda: self._bregman(4, mc_brg, s[3])),
        ]

    def warm_up(self):
        tiny = ge.MonteCarloConfig(2, 2, 2, 2)
        seed = derive_seed(0, "warm-up")
        self._decompose(self.discrete, "shared_summary", 1, tiny, seed)
        self._decompose(self.gaussian, "correlated", 2, tiny, seed, rho=0.5)
        self._bregman(2, tiny, seed)


class CliDpKnn:
    """``genensemble curve`` on a generated categorical CSV, one CLI invocation per op."""

    name = "cli-dp-knn"
    N_ROWS = 400
    LEVELS = (3, 4, 5, 3, 4, 6)
    SIGNAL_FEATURES = 3
    REPEATS = 20
    M_VALUES = (1, 2, 4, 8)
    METRICS = ("cross_entropy", "one_minus_auc")
    AVERAGINGS = ("mean", "dual_log_prob")

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(derive_seed(seed, "data"))
        features = np.column_stack([rng.integers(0, k, size=self.N_ROWS)
                                    for k in self.LEVELS])
        # The target depends on the first three features through fixed
        # per-level effects spread over [-1, 1], which keeps the classes
        # balanced, so both appear in every test split and AUC is defined.
        logit = sum(np.linspace(-1.0, 1.0, self.LEVELS[j])[features[:, j]]
                    for j in range(self.SIGNAL_FEATURES))
        target = (rng.random(self.N_ROWS) < 1.0 / (1.0 + np.exp(-logit))).astype(int)

        self.workdir = workdir
        self.csv_path = workdir / "data.csv"
        with open(self.csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{j}" for j in range(len(self.LEVELS))] + ["y"])
            for row, y in zip(features, target):
                writer.writerow([f"l{v}" for v in row] + [("no", "yes")[y]])

        self.out_dir = workdir / "out"
        self.config_path = self._write_config("curve.ini", derive_seed(seed, "cli"),
                                              self.REPEATS, self.M_VALUES)
        self.warm_config_path = self._write_config("warm_up.ini", derive_seed(0, "warm-up"),
                                                   1, (1, 2))
        self.processes = []

    def _write_config(self, name, seed, repeats, m_values):
        schema = [f"f{j} = categorical({'|'.join(f'l{v}' for v in range(k))}) feature"
                  for j, k in enumerate(self.LEVELS)]
        text = "\n".join([
            "[experiment]", f"seed = {seed}",
            "[data]", "source = csv", f"path = {self.csv_path}", "test_fraction = 0.25",
            "[schema]", *schema, "y = categorical(no|yes) target",
            "[generator]", "kind = noisy_marginal_dp", "epsilon = 1", "delta = 1e-6",
            "mode = split_budget",
            "[predictors]", "specs = knn:5",
            "[curve]", f"metrics = {', '.join(self.METRICS)}",
            f"averaging = {', '.join(self.AVERAGINGS)}",
            f"m_values = {' '.join(map(str, m_values))}", f"repeats = {repeats}",
        ]) + "\n"
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    def run_curve(self, config_path, jobs=1):
        """Run the CLI once; returns (exit code, bytes of curve.csv or b"")."""
        code = ge.cli.main(["curve", "--config", str(config_path), "--jobs", str(jobs),
                            "--output", str(self.out_dir)])
        out = self.out_dir / "curve.csv"
        return code, out.read_bytes() if code == 0 and out.is_file() else b""

    def _invoke(self):
        code, raw = self.run_curve(self.config_path)
        if code != 0:
            return raw, [f"exit code {code}"]
        rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
        expected = (len(self.METRICS) * len(self.AVERAGINGS) * self.REPEATS
                    * len(self.M_VALUES))
        problems = []
        if len(rows) != expected:
            problems.append(f"curve.csv has {len(rows)} rows, expected {expected}")
        for row in rows:
            score = float(row["score"])
            if not math.isfinite(score) or score < 0:
                problems.append(f"bad score {row['score']}")
                break
            if row["metric"] == "one_minus_auc" and score > 1:
                problems.append(f"one_minus_auc {score} > 1")
                break
        return raw, problems

    def ops(self):
        return [("curve", self._invoke)]

    def warm_up(self):
        self.run_curve(self.warm_config_path)


WORKLOADS = {w.name: w for w in (CurveCart, OracleMC, CliDpKnn)}
