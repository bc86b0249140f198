import concurrent.futures
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from genensemble import cli, decomposition
from genensemble.data import (CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Schema, load_csv,
                              train_test_split)
from genensemble.decomposition import (ensemble_members, fit_rule_regression, mse_curve,
                                       predict_mse)
from genensemble.generators import GeneratorSpec
from genensemble.metrics import (LABEL_COLUMNS, LONG_COLUMNS, MEAN, MetricSpec, read_long_csv,
                                 score_prefixes, write_long_csv)
from genensemble.predictors import PredictorSpec, parse_predictor
from genensemble.rng import child_seed

PROCESS_CONFIG = """\
[experiment]
seed = 42

[data]
source = process
process = gaussian_toy
n = 40
n_test = 30

[generator]
kind = bootstrap
mode = independent
m = 3

[predictors]
specs = cart, ridge:1.0

[curve]
m_values = 1, 2, 4
repeats = 2
metrics = mse

[predict_curve]
curve_csv = {curve_csv}
m_values = 4, 8
method = two_point

[decompose]
process = gaussian_toy
mode = iid
m = 2
r_real = 30
r_theta = 8
r_syn = 4
r_y = 100

[nested_var]
r_theta = 4
s_per_theta = 3
"""


# three predictors, none of which calls LAPACK, on a small nested-var run
NESTED_PIN_CONFIG = """\
[experiment]
seed = 11

[data]
source = process
process = gaussian_toy
n = 40
n_test = 20

[generator]
kind = bootstrap

[predictors]
specs = cart, knn:3, mean

[nested_var]
r_theta = 6
s_per_theta = 3
"""


CLASSIFICATION_CONFIG = """\
[experiment]
seed = 5

[data]
source = csv
path = {data_path}
test_fraction = 0.3

[schema]
a = categorical(l0|l1|l2) feature
b = numeric feature
y = categorical(no|yes) target

[generator]
kind = bootstrap

[predictors]
specs = knn:3, cart

[curve]
m_values = 1, 2, 4
repeats = 2
metrics = cross_entropy, brier_binary
averaging = mean, dual_log_prob
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def process_config(tmp_path):
    return write_config(tmp_path, PROCESS_CONFIG.format(curve_csv=tmp_path / "out" /
                                                        "curve.csv"))


def classification_config(tmp_path):
    """A binary classification CSV of 40 rows and the config that reads it."""
    rng = np.random.default_rng(11)
    a = rng.integers(0, 3, size=40)
    b = rng.normal(size=40)
    y = (a + b + rng.normal(size=40) > 1.0).astype(int)
    lines = ["a,b,y"] + [f"l{u},{float(v)!r},{('no', 'yes')[t]}" for u, v, t in zip(a, b, y)]
    data_path = tmp_path / "clf.csv"
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return write_config(tmp_path, CLASSIFICATION_CONFIG.format(data_path=data_path),
                        name="clf.cfg")


def multiclass_config(tmp_path):
    """classification_config with a third target class, maybe, on every fourth
    row, scored by cross_entropy and brier_multiclass."""
    cfg = classification_config(tmp_path)
    data_path = tmp_path / "clf.csv"
    lines = data_path.read_text(encoding="utf-8").splitlines()
    lines[1::4] = [line.rsplit(",", 1)[0] + ",maybe" for line in lines[1::4]]
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = cfg.read_text(encoding="utf-8").replace("(no|yes) target", "(no|yes|maybe) target")
    cfg.write_text(text.replace("metrics = cross_entropy, brier_binary",
                                "metrics = cross_entropy, brier_multiclass"), encoding="utf-8")
    return cfg


@pytest.fixture
def config(tmp_path):
    return process_config(tmp_path), tmp_path / "out"


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in a serial pool for the process pool: a list of the worker
    count and the units of each pool started."""
    log = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units):
            log.append((self.max_workers, list(units)))
            return map(fn, log[-1][1])

    # run_units imports the pool from concurrent.futures only when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return log


def _outputs_at_jobs(cfg, tmp_path, subcommand, names, jobs=("1", "2", "3")):
    """The bytes of each named output of subcommand at each --jobs value."""
    outputs = []
    for j in jobs:
        out = tmp_path / f"{subcommand}_jobs{j}"
        assert cli.main([subcommand, "--config", str(cfg), "--output", str(out),
                         "--jobs", j]) == 0
        outputs.append([(out / name).read_bytes() for name in names])
    return outputs


class TestPipeline:
    def test_generate_emits_csvs_provenance_manifest(self, config):
        cfg, out = config
        assert cli.main(["generate", "--config", str(cfg), "--output", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "provenance.json", "synthetic_000.csv",
                         "synthetic_001.csv", "synthetic_002.csv"]
        prov = json.loads((out / "provenance.json").read_text())
        assert prov["generator"] == "bootstrap" and prov["m"] == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert "synthetic_000.csv" in manifest["outputs"]

    def test_curve_then_predict_curve(self, config):
        cfg, out = config
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 0
        rows = (out / "curve.csv").read_text().strip().splitlines()
        assert rows[0].startswith("dataset,generator,mode,predictor")
        # 2 predictors x 3 m values x 2 repeats
        assert len(rows) == 1 + 12
        assert cli.main(["predict-curve", "--config", str(cfg),
                         "--output", str(out)]) == 0
        pred_rows = (out / "predictions.csv").read_text().strip().splitlines()
        assert pred_rows[0].endswith("m,measured_mean,predicted")
        assert any(",8," in r for r in pred_rows[1:])

    def test_curve_rerun_byte_identical(self, config, tmp_path):
        cfg, _ = config
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(a)]) == 0
        assert cli.main(["curve", "--config", str(cfg), "--output", str(b)]) == 0
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    @pytest.mark.parametrize("make_config", [process_config, classification_config])
    def test_jobs_parallelism_reproduces_serial(self, make_config, tmp_path):
        cfg = make_config(tmp_path)
        a, b = tmp_path / "serial", tmp_path / "par"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(a)]) == 0
        assert cli.main(["curve", "--config", str(cfg), "--output", str(b),
                         "--jobs", "3"]) == 0
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()

    def test_jobs_capped_at_grid_cells(self, tmp_path, serial_pool):
        cfg = classification_config(tmp_path)
        # 2 predictors x 2 repeats = 4 units, each of 2 metrics x 2 averagings = 4 cells
        a, b = tmp_path / "serial", tmp_path / "capped"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(a)]) == 0
        assert cli.main(["curve", "--config", str(cfg), "--output", str(b),
                         "--jobs", "64"]) == 0
        [(workers, units)] = serial_pool
        assert workers == 4 and [len(unit) for unit in units] == [4, 4, 4, 4]
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()

    def test_decompose_jobs_capped_at_replicates(self, config, tmp_path, serial_pool):
        cfg, out = config
        assert cli.main(["decompose", "--config", str(cfg), "--output", str(out),
                         "--jobs", "64"]) == 0
        [(workers, units)] = serial_pool          # one unit per outer replicate
        assert workers == 30 and units == list(range(30))

    def test_nested_var_jobs_capped_at_fits(self, config, tmp_path, serial_pool):
        cfg, out = config
        assert cli.main(["nested-var", "--config", str(cfg), "--output", str(out),
                         "--jobs", "64"]) == 0
        # one pool for both predictors (cart, ridge), one unit per fit of r_theta = 4
        assert serial_pool == [(4, [0, 1, 2, 3])]

    @pytest.mark.parametrize("predictor", ["builtin", "cart"])
    def test_decompose_report_is_the_same_at_any_jobs(self, tmp_path, predictor):
        cfg = process_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(
            "r_real = 30\nr_theta = 8\nr_syn = 4\nr_y = 100",
            f"predictor = {predictor}\nr_real = 6\nr_theta = 3\nr_syn = 2\nr_y = 20"))
        first, *others = _outputs_at_jobs(cfg, tmp_path, "decompose", ["report.json"])
        assert others == [first, first]
        assert json.loads(first[0])["config"]["predictor"] == predictor

    def test_nested_var_outputs_are_the_same_at_any_jobs(self, config, tmp_path):
        cfg, _ = config
        first, *others = _outputs_at_jobs(cfg, tmp_path, "nested-var",
                                          ["nested_variance.csv", "nested_summary.json"])
        assert others == [first, first]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_nested_var_bytes_are_pinned(self, tmp_path, jobs):
        # cart, knn and mean need no LAPACK call, so these bytes hold on any BLAS build
        out = tmp_path / "out"
        assert cli.main(["nested-var", "--config", str(write_config(tmp_path, NESTED_PIN_CONFIG)),
                         "--output", str(out), "--jobs", jobs]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("nested_summary.json", "nested_variance.csv")} == {
            "nested_summary.json":
                "4be9abf1291d5a929aad9a05d88b2155a0708e408587fcf229fc4aa281007739",
            "nested_variance.csv":
                "287e4b5eb979701dc596b38cd474347d64785f3c295d3b3a056f5bb10b9e5cbe"}

    def test_nested_var_draws_each_fit_once_for_all_predictors(self, tmp_path, monkeypatch):
        # one generator fit and its samples serve all three predictors
        calls = dict.fromkeys(("fit", "sample", "encode", "train"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(decomposition, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(decomposition, name, counted)
        assert cli.main(["nested-var", "--config", str(write_config(tmp_path, NESTED_PIN_CONFIG)),
                         "--output", str(tmp_path / "out")]) == 0
        # 6 fits x 3 samples, each encoded (train and test rows) once for cart and
        # mean, once for knn's standardized features, and trained on by 3 predictors
        assert calls == {"fit": 6, "sample": 18, "encode": 72, "train": 54}

    @pytest.mark.parametrize("subcommand", ["generate", "predict-curve"])
    def test_jobs_is_a_usage_error_where_nothing_runs_in_parallel(self, config, subcommand,
                                                                   capsys):
        # both ran serially without a word
        cfg, out = config
        with pytest.raises(SystemExit) as exit_:
            cli.main([subcommand, "--config", str(cfg), "--output", str(out), "--jobs", "2"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs: only curve, decompose, nested-var take more than one" in err
        assert not out.exists()

    def test_jobs_is_refused_before_the_config_is_read(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["generate", "--config", str(tmp_path / "missing.cfg"), "--jobs", "2"])
        assert exit_.value.code == 2 and "argument --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3", "two", "1.5"])
    def test_jobs_below_one_or_not_an_integer_is_a_usage_error(self, jobs, tmp_path, monkeypatch, capsys):
        # --jobs 0 and --jobs -3 ran serially without a word
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["curve", "--config", str(process_config(tmp_path)), "--output", str(out),
                      "--jobs", jobs])
        err = capsys.readouterr().err
        assert exit_.value.code == 2
        assert f"argument --jobs: must be an integer >= 1, got {jobs!r}" in err
        assert not out.exists()

    def test_serial_curve_generates_once_per_repeat(self, tmp_path, monkeypatch):
        calls = []
        generate = decomposition.generate_ensemble

        def counting(*args, **kwargs):
            calls.append(args)
            return generate(*args, **kwargs)
        monkeypatch.setattr(decomposition, "generate_ensemble", counting)
        cfg = classification_config(tmp_path)   # 2 predictors x 2 metrics x 2 averagings
        cfg.write_text(cfg.read_text().replace("repeats = 2", "repeats = 3"))
        a, b = tmp_path / "serial", tmp_path / "par"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(a)]) == 0
        assert len(calls) == 3                  # one per repeat, not one per cell (24)
        assert cli.main(["curve", "--config", str(cfg), "--output", str(b),
                         "--jobs", "3"]) == 0
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()

    def test_workers_generate_once_per_unit(self, tmp_path, monkeypatch):
        log = tmp_path / "generations.log"
        generate = decomposition.generate_ensemble

        def logging_pid(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return generate(*args, **kwargs)
        # the pool forks its workers, so they inherit the wrapper
        monkeypatch.setattr(decomposition, "generate_ensemble", logging_pid)
        cfg = classification_config(tmp_path)   # 2 predictors x 2 metrics x 2 averagings
        cfg.write_text(cfg.read_text().replace("repeats = 2", "repeats = 3"))
        a, b = tmp_path / "serial", tmp_path / "par"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(b),
                         "--jobs", "3"]) == 0
        pids = log.read_text(encoding="utf-8").split()
        assert len(pids) == 6           # one per (predictor, repeat), not one per cell (24)
        assert str(os.getpid()) not in pids and len(set(pids)) <= 3
        assert cli.main(["curve", "--config", str(cfg), "--output", str(a)]) == 0
        assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()

    def test_decompose_report(self, config):
        cfg, out = config
        assert cli.main(["decompose", "--config", str(cfg), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "ok"
        assert set(report["terms"]) >= {"mse", "mv", "sdv", "rdv", "noise"}

    def test_nested_var(self, config):
        cfg, out = config
        assert cli.main(["nested-var", "--config", str(cfg), "--output", str(out)]) == 0
        summary = json.loads((out / "nested_summary.json").read_text())
        assert "cart" in summary and "mv" in summary["cart"]

    def test_every_csv_ends_its_lines_with_crlf(self, config):
        cfg, out = config
        for sub in ("generate", "curve", "predict-curve", "nested-var"):
            assert cli.main([sub, "--config", str(cfg), "--output", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["curve.csv", "nested_variance.csv", "predictions.csv",
                         "synthetic_000.csv", "synthetic_001.csv", "synthetic_002.csv"]
        for name in names:
            raw = (out / name).read_bytes()
            assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), name

    def test_seed_override_changes_outputs(self, config, tmp_path):
        cfg, _ = config
        a, b = tmp_path / "s1", tmp_path / "s2"
        cli.main(["curve", "--config", str(cfg), "--output", str(a)])
        cli.main(["curve", "--config", str(cfg), "--output", str(b), "--seed", "7"])
        assert (a / "curve.csv").read_bytes() != (b / "curve.csv").read_bytes()


class TestCsvSource:
    def test_curve_from_csv(self, tmp_path):
        schema = Schema((Column("x", NUMERIC, FEATURE), Column("y", NUMERIC, TARGET)))
        rng = np.random.default_rng(0)
        lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in rng.normal(size=(30, 2))]
        data_path = tmp_path / "toy.csv"
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, f"""\
[experiment]
seed = 1

[data]
source = csv
path = {data_path}
test_fraction = 0.25

[schema]
x = numeric feature
y = numeric target

[generator]
kind = bootstrap

[predictors]
specs = knn:3

[curve]
m_values = 1, 2
repeats = 2
""")
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 0
        assert (out / "curve.csv").exists()
        # schema keys keep their case
        loaded = load_csv(data_path, schema)
        assert loaded.n == 30


    def test_label_with_comma_keeps_row_width(self, tmp_path):
        rng = np.random.default_rng(4)
        lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in rng.normal(size=(24, 2))]
        data_path = tmp_path / "my,data.csv"
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"""\
[experiment]
seed = 3

[data]
source = csv
path = {data_path}

[schema]
x = numeric feature
y = numeric target

[generator]
kind = bootstrap

[predictors]
specs = knn:3

[curve]
m_values = 1, 2
repeats = 2

[predict_curve]
curve_csv = {out / "curve.csv"}
m_values = 4

[nested_var]
r_theta = 2
s_per_theta = 2
""")
        for sub in ("curve", "predict-curve", "nested-var"):
            assert cli.main([sub, "--config", str(cfg), "--output", str(out)]) == 0
        for name in ("curve.csv", "predictions.csv", "nested_variance.csv"):
            with open(out / name, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert rows and header[0] == "dataset"
            assert all(len(row) == len(header) and row[0] == "my,data" for row in rows), name


def dp_config(tmp_path, epsilon, delta="1e-6", mode="independent", m=2):
    """A generate config for the DP generator on a small categorical CSV."""
    rng = np.random.default_rng(3)
    lines = ["a,y"] + [f"l{a},{('no', 'yes')[t]}" for a, t in rng.integers(0, 2, size=(20, 2))]
    data_path = tmp_path / "cat.csv"
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, f"""\
[experiment]
seed = 2

[data]
source = csv
path = {data_path}
test_fraction = 0.25

[schema]
a = categorical(l0|l1) feature
y = categorical(no|yes) target

[generator]
kind = noisy_marginal_dp
epsilon = {epsilon}
delta = {delta}
mode = {mode}
m = {m}
""")
    return cfg


def test_generate_with_large_epsilon(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", str(dp_config(tmp_path, "1e6")),
                     "--output", str(out)]) == 0
    assert (out / "synthetic_001.csv").exists()


@pytest.mark.parametrize("epsilon", ["inf", "-inf", "nan"])
def test_generate_refuses_a_non_finite_epsilon(tmp_path, epsilon, capsys):
    # an infinite budget wrote Infinity, which is not JSON, into provenance.json
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", str(dp_config(tmp_path, epsilon)),
                     "--output", str(out)]) == 1
    assert "config error: [generator] epsilon must be finite" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_generate_refuses_an_epsilon_that_buys_no_rho(tmp_path, capsys):
    # rho came out 0 and the noise scale divided by it (exit 2)
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", str(dp_config(tmp_path, "5e-324")),
                     "--output", str(out)]) == 1
    assert ("config error: [generator]: epsilon = 5e-324 buys no positive rho"
            in capsys.readouterr().err)
    assert not any(out.iterdir())


def test_generate_refuses_an_epsilon_whose_noise_scale_overflows(tmp_path, capsys):
    # rho was a positive subnormal, sigma inf and the counts +-inf (exit 2,
    # "Probabilities contain NaN")
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", str(dp_config(tmp_path, "1e-155")),
                     "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: [generator]: rho = " in err and "finite noise scale" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("mode, status", [("independent", 0), ("split_budget", 1)])
def test_generate_checks_the_noise_scale_of_each_release(tmp_path, capsys, mode, status):
    # a split-budget release spends rho / 4 over both columns, and its noise
    # scale overflowed only when drawn (exit 2); at the full rho it is finite
    out = tmp_path / "out"
    cfg = dp_config(tmp_path, "1e-153", mode=mode, m=4)
    assert cli.main(["generate", "--config", str(cfg), "--output", str(out)]) == status
    if status:
        err = capsys.readouterr().err
        assert "config error: [generator]: rho = " in err and "finite noise scale" in err
        assert not any(out.iterdir())
    else:
        assert (out / "synthetic_003.csv").exists()


def test_generate_with_a_subnormal_delta(tmp_path):
    # log(1 / delta) overflowed to inf, which provenance.json could not hold (exit 2)
    out = tmp_path / "out"
    cfg = dp_config(tmp_path, "1", delta="1e-310", mode="split_budget")
    assert cli.main(["generate", "--config", str(cfg), "--output", str(out)]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert math.isfinite(prov["epsilon_total"]) and prov["epsilon_total"] <= 1.0


def test_nested_var_whose_spread_overflows_exits_2(tmp_path, capsys):
    # targets of +-1e200 square past the float limit: three RuntimeWarnings, then
    # an inf the JSON writer refused ("Out of range float values are not JSON compliant")
    rng = np.random.default_rng(0)
    lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in zip(rng.normal(size=50).tolist(),
                                                      rng.choice([-1e200, 1e200], 50).tolist())]
    (tmp_path / "huge.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, f"""\
[data]
source = csv
path = {tmp_path / "huge.csv"}
test_fraction = 0.2

[schema]
x = numeric feature
y = numeric target

[generator]
kind = bootstrap

[predictors]
specs = cart

[nested_var]
r_theta = 4
s_per_theta = 3
""")
    out = tmp_path / "out"
    assert cli.main(["nested-var", "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime failure: ValueError: the nested MV/SDV estimate" in err
    assert "JSON" not in err
    assert not any(out.iterdir())


def generator_config(tmp_path, generator, categorical=False):
    """A config for every subcommand that reads [generator], on an 8-row CSV
    of two columns a, b: both numeric, or both categorical."""
    if categorical:
        lines = ["a,b"] + [f"l{i % 2},l{i // 4}" for i in range(8)]
        schema = "a = categorical(l0|l1) feature\nb = categorical(l0|l1) target"
    else:
        lines = ["a,b"] + [f"{i},{i * i}" for i in range(8)]
        schema = "a = numeric feature\nb = numeric target"
    data_path = tmp_path / "ab.csv"
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return write_config(tmp_path, f"""\
[data]
source = csv
path = {data_path}

[schema]
{schema}

[generator]
{generator}

[predictors]
specs = mean

[curve]
m_values = 1 2
repeats = 1

[nested_var]
r_theta = 2
s_per_theta = 2
""")


class TestGeneratorRequest:
    @pytest.mark.parametrize("subcommand", ["generate", "curve", "nested-var"])
    @pytest.mark.parametrize("generator, categorical, message", [
        ("kind = noisy_marginal_dp\nepsilon = 1\ndelta = 1e-6", False,
         "noisy_marginal_dp models categorical columns; 'a' is numeric"),
        ("kind = gaussian_ppd", True, "gaussian_ppd models numeric columns; 'a' is categorical"),
        ("kind = truth_process\nprocess = gaussian_toy", False,
         "truth process 'gaussian_toy' does not model the data's columns ['a', 'b']"),
        ("kind = truth_process\nprocess = bogus", False, "unknown truth process 'bogus'"),
        ("kind = noisy_marginal_dp\nepsilon = 5e-154\ndelta = 1e-6", True, "finite noise scale"),
        ("kind = bootstrap\nmode = shared_summary", False,
         "mode 'shared_summary' requires kind=noisy_marginal_dp"),
        ("kind = bootstrap\nepsilon = 1\ndelta = 1e-6", False,
         "epsilon and delta need kind=noisy_marginal_dp"),
    ], ids=["dp-on-numeric", "ppd-on-categorical", "process-on-other-columns",
            "unknown-process", "noise-scale-over-two-columns", "shared-summary-without-dp",
            "budget-without-dp"])
    def test_generator_that_cannot_serve_the_data_is_a_config_error(
            self, tmp_path, generator, categorical, message, subcommand, capsys):
        # each surfaced at the first fit (exit 2), or not at all: nested-var
        # ignored the mode, generate wrote gaussian_toy's x, y columns for a
        # CSV of a, b, and curve dropped the budget of a bootstrap generator
        cfg = generator_config(tmp_path, generator, categorical)
        out = tmp_path / "out"
        assert cli.main([subcommand, "--config", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [generator]: ") and message in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("subcommand", ["generate", "curve", "nested-var"])
    def test_gaussian_ppd_whose_scatter_overflows_is_a_config_error(self, tmp_path, subcommand,
                                                                   capsys):
        # a column of up to 7e155 squares past the float limit: a RuntimeWarning,
        # then the covariance draw failed on infs at the first fit (exit 2)
        cfg = generator_config(tmp_path, "kind = gaussian_ppd")
        lines = ["a,b"] + [f"{i}e155,{i}" for i in range(8)]
        (tmp_path / "ab.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([subcommand, "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err == ("config error: [generator]: gaussian_ppd: the "
                                           "data's mean or scatter matrix overflows\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("mode", ["shared_summary", "split_budget"])
    def test_nested_var_refuses_a_mode_other_than_independent(self, tmp_path, mode, capsys):
        # nested-var draws independent fits, and ran them whatever the mode said
        cfg = generator_config(tmp_path, f"kind = noisy_marginal_dp\nepsilon = 1\n"
                                         f"delta = 1e-6\nmode = {mode}", categorical=True)
        out = tmp_path / "out"
        assert cli.main(["generate", "--config", str(cfg), "--output", str(out)]) == 0
        assert cli.main(["nested-var", "--config", str(cfg), "--output", str(tmp_path / "nv")]) == 1
        assert (f"config error: [generator] mode: nested-var draws independent fits, "
                f"not {mode!r}") in capsys.readouterr().err
        assert not any((tmp_path / "nv").iterdir())

    def test_truth_process_curve_on_its_own_data(self, tmp_path):
        # the discrete process's real and test sets, fitted and sampled by
        # the truth_process generator of the same process: the library curve
        cfg = write_config(tmp_path, """\
[experiment]
seed = 7

[data]
source = process
process = discrete_toy
n = 30
n_test = 20

[generator]
kind = truth_process
process = discrete_toy

[predictors]
specs = mean

[curve]
m_values = 1 2 4
repeats = 2
""")
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 0
        data, test, label = cli._load_data(cli._read_config(str(cfg))[0], 7)
        assert (data.n, test.n, label) == (30, 20, "discrete_toy")
        curve = mse_curve(GeneratorSpec("truth_process", process="discrete_toy"), data, "mean",
                          test, [1, 2, 4], 2, metric=MetricSpec("brier_binary"), seed=7,
                          dataset_label=label)
        write_long_csv(tmp_path / "library.csv", curve.rows)
        assert (out / "curve.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


class TestValidation:
    def test_missing_config_file(self, capsys):
        assert cli.main(["curve", "--config", "/nonexistent.cfg"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_bad_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[data]\nsource = nowhere\n")
        assert cli.main(["curve", "--config", str(cfg),
                         "--output", str(tmp_path / "o")]) == 1
        assert "source" in capsys.readouterr().err

    def test_missing_required_option(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[data]\nsource = process\n")
        assert cli.main(["curve", "--config", str(cfg),
                         "--output", str(tmp_path / "o")]) == 1
        assert "process" in capsys.readouterr().err

    def test_predict_curve_without_m2_rows(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text(
            "dataset,generator,mode,predictor,averaging,metric,m,repeat,score,std_error\n"
            "d,bootstrap,independent,cart,mean,mse,1,0,2.0,0.1\n", encoding="utf-8")
        cfg = write_config(tmp_path, f"""\
[predict_curve]
curve_csv = {curve}
m_values = 4
method = two_point
""")
        out = tmp_path / "o"
        assert cli.main(["predict-curve", "--config", str(cfg),
                         "--output", str(out)]) == 1
        assert "m=1 and m=2" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_predict_curve_regression_fits_the_group_means(self, tmp_path):
        curve = tmp_path / "curve.csv"
        rows = [("cart", 1, 0, 2.0), ("cart", 1, 1, 2.5), ("cart", 2, 0, 1.5),
                ("cart", 4, 0, 1.25), ("knn5", 1, 0, 3.0), ("knn5", 3, 0, 1.0)]
        write_long_csv(curve, [dict(zip(LONG_COLUMNS, ("d", "g", "i", label, "mean", "mse", m, j,
                                                       score, 0.1)))
                               for label, m, j, score in rows])
        cfg = write_config(tmp_path, f"""\
[predict_curve]
curve_csv = {curve}
m_values = 8
method = regression
""")
        out = tmp_path / "o"
        assert cli.main(["predict-curve", "--config", str(cfg), "--output", str(out)]) == 0
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            header, *predicted = csv.reader(fh)
        assert header == list(LABEL_COLUMNS) + ["method", "m", "measured_mean", "predicted"]
        for label, means in [("cart", {1: 2.25, 2: 1.5, 4: 1.25}), ("knn5", {1: 3.0, 3: 1.0})]:
            rule = fit_rule_regression(means)
            assert [row[6:] for row in predicted if row[3] == label] == [
                ["regression", str(m), repr(means[m]) if m in means else "",
                 repr(predict_mse(rule, m))] for m in sorted({8} | set(means))]

    def test_predict_curve_regression_needs_two_m_values_per_group(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        write_long_csv(curve, [dict(zip(LONG_COLUMNS, ("d", "g", "i", label, "mean", "mse", m, 0,
                                                       1.0, 0.1)))
                               for label, m in [("cart", 1), ("cart", 2), ("knn5", 2)]])
        cfg = write_config(tmp_path, f"[predict_curve]\ncurve_csv = {curve}\nm_values = 4\n"
                                     f"method = regression\n")
        out = tmp_path / "o"
        assert cli.main(["predict-curve", "--config", str(cfg), "--output", str(out)]) == 1
        assert ("config error: regression prediction needs at least two m values"
                in capsys.readouterr().err)
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("header, row, message", [
        (None, "d,b,i,cart,mean,mse,1,0,nan,0.1", "score and std_error must be finite"),
        (None, "d,b,i,cart,mean,mse,1,0,inf,0.1", "score and std_error must be finite"),
        (None, "d,b,i,cart,mean,mse,1,0,2.0,-inf", "score and std_error must be finite"),
        (None, "d,b,i,cart,mean,mse,1,0,2.0,nan", "score and std_error must be finite"),
        (None, "d,b,i,cart,mean,mse,x,0,2.0,0.1", "m and repeat must be integers"),
        (None, "d,b,i,cart,mean,mse,1.5,0,2.0,0.1", "m and repeat must be integers"),
        (None, "d,b,i,cart,mean,mse,0,0,2.0,0.1", "m must be >= 1"),
        (None, "d,b,i,cart,mean,mse,1,x,2.0,0.1", "m and repeat must be integers"),
        (None, "d,b,i,cart,mean,mse,1,0,2.0", "9 cells, expected 10"),
        ("dataset,generator,mode,predictor,averaging,metric,m,score,std_error",
         "d,b,i,cart,mean,mse,1,2.0,0.1", "the header must be dataset,"),
    ])
    def test_predict_curve_refuses_a_bad_curve_csv(self, tmp_path, header, row, message,
                                                   capsys):
        header = header or ",".join(LONG_COLUMNS)
        good = "d,b,i,cart,mean,mse,2,0,1.5,0.1"
        curve = tmp_path / "curve.csv"
        curve.write_text(f"{header}\n{good}\n{row}\n", encoding="utf-8")
        cfg = write_config(tmp_path, f"[predict_curve]\ncurve_csv = {curve}\nm_values = 4\n")
        out = tmp_path / "o"
        assert cli.main(["predict-curve", "--config", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: [predict_curve] curve_csv: " in err and message in err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("scores, method, message", [
        # the two m = 1 scores sum past the largest float
        ([(1, 1.7e308), (1, 1.7e308), (2, 1.0)], "two_point",
         "the mean of the scores at m = 1 overflows"),
        # 2 (mse1 - mse2) overflows
        ([(1, 1e308), (2, 1.0)], "two_point", "the two_point rule-of-thumb fit is not finite"),
        ([(1, 1.7e308), (2, -1.7e308)], "regression",
         "the regression rule-of-thumb fit is not finite"),
    ])
    def test_predict_curve_refuses_a_mean_or_fit_that_overflows(self, tmp_path, scores,
                                                                method, message, capsys):
        curve = tmp_path / "curve.csv"
        write_long_csv(curve, [dict(zip(LONG_COLUMNS, ("d", "b", "i", "cart", "mean", "mse", m,
                                                       j, score, None)))
                               for j, (m, score) in enumerate(scores)])
        cfg = write_config(tmp_path, f"[predict_curve]\ncurve_csv = {curve}\nm_values = 4\n"
                                     f"method = {method}\n")
        out = tmp_path / "o"
        assert cli.main(["predict-curve", "--config", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config error: [predict_curve] curve_csv: {message}" in err
        assert not (out / "predictions.csv").exists()

    def test_predict_curve_regression_fits_a_huge_curve(self, tmp_path):
        # R^2's squared deviations pass the float limit unless they are scaled first
        means = {1: 1e160, 2: 0.6e160, 4: 0.3e160}
        curve = tmp_path / "curve.csv"
        write_long_csv(curve, [dict(zip(LONG_COLUMNS, ("d", "b", "i", "cart", "mean", "mse", m,
                                                       0, score, None)))
                               for m, score in means.items()])
        cfg = write_config(tmp_path, f"[predict_curve]\ncurve_csv = {curve}\nm_values = 8\n"
                                     f"method = regression\n")
        out = tmp_path / "o"
        assert cli.main(["predict-curve", "--config", str(cfg), "--output", str(out)]) == 0
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            predicted = list(csv.reader(fh))[1:]
        rule = fit_rule_regression(means)
        assert [row[6:] for row in predicted] == [
            ["regression", str(m), repr(means[m]) if m in means else "",
             repr(predict_mse(rule, m))] for m in (1, 2, 4, 8)]

    def test_identity_flag_maps_to_exit_3(self, config, monkeypatch):
        cfg, out = config
        from genensemble.decomposition import oracle_decompose as real

        def flagged(*args, **kwargs):
            report = real(*args, **kwargs)
            object.__setattr__(report, "status", "identity_flagged")
            return report

        monkeypatch.setattr(cli, "oracle_decompose", flagged)
        assert cli.main(["decompose", "--config", str(cfg),
                         "--output", str(out)]) == 3
        assert (out / "report.json").exists()

    def test_nan_in_a_json_output_is_a_runtime_failure(self, config, monkeypatch, capsys):
        cfg, out = config
        from genensemble.generators import EnsembleProvenance
        monkeypatch.setattr(EnsembleProvenance, "to_json_dict",
                            lambda self: {"rho_total": float("nan")})
        assert cli.main(["generate", "--config", str(cfg), "--output", str(out)]) == 2
        assert "not JSON compliant" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_overflowing_score_fails_without_curve_csv(self, tmp_path, capsys):
        # targets 0 and 1e155: a test point predicted off by 1e155 has an
        # overflowing squared error
        rng = np.random.default_rng(0)
        lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in
                           zip(rng.normal(size=30), np.where(rng.random(30) < 0.5, 0.0, 1e155))]
        data_path = tmp_path / "big.csv"
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, f"""\
[data]
source = csv
path = {data_path}

[schema]
x = numeric feature
y = numeric target

[generator]
kind = bootstrap

[predictors]
specs = cart

[curve]
m_values = 1, 2
repeats = 1
""")
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_runtime_failure_cleans_partial_outputs(self, config, monkeypatch):
        cfg, out = config

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "generate_ensemble", boom)
        assert cli.main(["generate", "--config", str(cfg),
                         "--output", str(out)]) == 2
        assert not any(out.iterdir())


class TestCurveMValues:
    @pytest.mark.parametrize("m_values", ["0, 2", "-1, 4"])
    def test_m_below_one_fails_without_curve_csv(self, tmp_path, m_values, capsys):
        out = tmp_path / "out"
        text = PROCESS_CONFIG.format(curve_csv=out / "curve.csv").replace(
            "m_values = 1, 2, 4", f"m_values = {m_values}")
        cfg = write_config(tmp_path, text)
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) != 0
        assert "m values must be >= 1" in capsys.readouterr().err
        assert not (out / "curve.csv").exists()

    @pytest.mark.parametrize("option, value", [("m_values = 1, 2, 4", "m_values = 0"),
                                               ("repeats = 2", "repeats = 0")])
    def test_count_below_one_is_a_config_error(self, tmp_path, option, value, capsys):
        out = tmp_path / "out"
        text = PROCESS_CONFIG.format(curve_csv=out / "curve.csv").replace(option, value)
        cfg = write_config(tmp_path, text)
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 1
        assert "config error: [curve]" in capsys.readouterr().err
        assert not (out / "curve.csv").exists()

    def test_predict_curve_m_below_one_is_a_config_error(self, config, capsys):
        cfg, out = config
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 0
        text = cfg.read_text(encoding="utf-8").replace("m_values = 4, 8", "m_values = 0, 8")
        cfg.write_text(text, encoding="utf-8")
        assert cli.main(["predict-curve", "--config", str(cfg),
                         "--output", str(out / "pred")]) == 1
        assert "[predict_curve] m_values: m values must be >= 1" in capsys.readouterr().err


class TestLabels:
    def test_logistic_penalties_get_their_own_groups(self, tmp_path):
        cfg = classification_config(tmp_path)
        out = tmp_path / "out"
        text = cfg.read_text(encoding="utf-8")
        for old, new in [("specs = knn:3, cart", "specs = logistic:0.01, logistic:100"),
                         ("m_values = 1, 2, 4", "m_values = 1, 2"),
                         ("averaging = mean, dual_log_prob", "averaging = mean")]:
            text = text.replace(old, new)
        text += f"\n[predict_curve]\ncurve_csv = {out / 'curve.csv'}\nm_values = 4\n"
        cfg.write_text(text, encoding="utf-8")
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 0
        assert cli.main(["predict-curve", "--config", str(cfg), "--output", str(out)]) == 0
        rows = (out / "predictions.csv").read_text().strip().splitlines()[1:]
        groups = {tuple(row.split(",")[3:6]) for row in rows}
        assert groups == {(p, "mean", metric) for p in ("logistic0.01", "logistic100")
                          for metric in ("cross_entropy", "brier_binary")}


class TestDecomposeValidation:
    @pytest.mark.parametrize("old, new, message", [
        ("mode = iid\nm = 2", "mode = iid\nm = 0", "m must be >= 1"),
        ("mode = iid\nm = 2", "mode = iid\nm = -3", "m must be >= 1"),
        ("mode = iid", "mode = bogus", "unknown generator mode 'bogus'"),
        ("process = gaussian_toy\nmode = iid",
         "process = discrete_toy\nmode = shared_summary\npredictor = knn:3",
         "built-in predictor"),
        ("mode = iid", "mode = shared_summary", "no summary sampler"),
        ("process = gaussian_toy\nmode = iid", "process = discrete_toy\nmode = correlated",
         "no correlated sampler"),
        ("mode = iid", "mode = correlated\nrho = 1.5", "rho must lie in [0, 1]"),
        ("mode = iid", "mode = iid\nrho = 1.5", "rho must lie in [0, 1]"),
        ("mode = iid", "mode = iid\nrho = 0.5", "rho applies to the correlated mode only"),
        ("mode = iid", "mode = iid\npredictor = knn:x", "knn:x: k must be an integer"),
        ("mode = iid", "mode = iid\npredictor = cart:5", "cart:5: cart takes no argument"),
    ])
    def test_bad_request_is_a_config_error(self, tmp_path, old, new, message, capsys):
        out = tmp_path / "out"
        text = PROCESS_CONFIG.format(curve_csv=out / "curve.csv")
        assert old in text
        cfg = write_config(tmp_path, text.replace(old, new))
        assert cli.main(["decompose", "--config", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: [decompose]" in err
        assert message in err
        assert not (out / "report.json").exists()

    def test_negative_variance_term_maps_to_exit_3(self, tmp_path):
        # at these tiny counts seed 3 draws an rdv more than 3 SE below zero
        out = tmp_path / "out"
        text = PROCESS_CONFIG.format(curve_csv=out / "curve.csv").replace(
            "r_real = 30\nr_theta = 8\nr_syn = 4\nr_y = 100",
            "r_real = 3\nr_theta = 4\nr_syn = 3\nr_y = 20")
        cfg = write_config(tmp_path, text)
        assert cli.main(["decompose", "--config", str(cfg), "--output", str(out),
                         "--seed", "3"]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "term_negative"


class TestConfigKeys:
    """A section or key the CLI does not read is a config error, found before
    any data is read or any directory is made, whichever subcommand runs."""

    @pytest.mark.parametrize("subcommand, old, new, message", [
        ("generate", "seed = 42", "sed = 42", "unknown option [experiment] sed"),
        ("generate", "n_test = 30", "ntest = 30", "unknown option [data] ntest"),
        ("curve", "mode = independent", "modes = independent",
         "unknown option [generator] modes"),
        ("curve", "specs = cart, ridge:1.0", "specs = cart, ridge:1.0\nspec = knn:1",
         "unknown option [predictors] spec"),
        # typos for repeats and metrics: the run wrote 3 repeats of mse rows
        ("curve", "repeats = 2\nmetrics = mse", "repeat = 7\nmetric = brier_binary",
         "unknown option [curve] repeat; [curve] takes metrics, m_values, repeats, averaging"),
        ("predict-curve", "method = two_point", "methods = regression",
         "unknown option [predict_curve] methods"),
        ("decompose", "r_y = 100", "r_ys = 100", "unknown option [decompose] r_ys"),
        ("nested-var", "s_per_theta = 3", "s_per_thetas = 3",
         "unknown option [nested_var] s_per_thetas"),
        ("nested-var", "[nested_var]", "[nested-var]", "unknown section [nested-var]"),
        ("generate", "[experiment]", "[Experiment]", "unknown section [Experiment]"),
        ("generate", "seed = 42", "Seed = 42", "unknown option [experiment] Seed"),
        # configparser copies [DEFAULT]'s keys into every section, [schema] included
        ("generate", "[experiment]", "[DEFAULT]\nseed = 1\n[experiment]",
         "[DEFAULT] sets seed"),
    ])
    def test_unknown_name_is_a_config_error(self, tmp_path, subcommand, old, new, message,
                                            capsys):
        out = tmp_path / "out"
        text = PROCESS_CONFIG.format(curve_csv=tmp_path / "curve.csv")
        assert text.count(old) == 1
        cfg = write_config(tmp_path, text.replace(old, new))
        assert cli.main([subcommand, "--config", str(cfg), "--output", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_an_empty_default_section_is_harmless(self, tmp_path):
        text = PROCESS_CONFIG.format(curve_csv=tmp_path / "curve.csv")
        cfg = write_config(tmp_path, "[DEFAULT]\n" + text)
        assert cli.main(["generate", "--config", str(cfg), "--output", str(tmp_path / "a")]) == 0

    def test_every_key_read_is_in_the_table(self, config, monkeypatch):
        # the table holds the keys the subcommands read, so a config that
        # sets every one of them runs
        read, get = set(), cli._get

        def recording(cfg, section, key, *args, **kwargs):
            read.add((section, key))
            return get(cfg, section, key, *args, **kwargs)
        monkeypatch.setattr(cli, "_get", recording)
        cfg, out = config
        for subcommand in ("generate", "curve", "predict-curve", "decompose", "nested-var"):
            assert cli.main([subcommand, "--config", str(cfg), "--output", str(out)]) == 0
        assert {section for section, _ in read} <= set(cli._SECTION_KEYS) - {"schema"}
        assert all(key in cli._SECTION_KEYS[section] for section, key in read)


class TestCurveMetricsDefault:
    """With no [curve] metrics, a curve is scored by mse on a regression
    target, brier_binary on a binary one and brier_multiclass above two
    classes."""

    @pytest.mark.parametrize("make_config, line, default", [
        (process_config, "metrics = mse\n", "mse"),
        (classification_config, "metrics = cross_entropy, brier_binary\n", "brier_binary"),
        # exited 1: brier_binary needs a binary task
        (multiclass_config, "metrics = cross_entropy, brier_multiclass\n", "brier_multiclass"),
    ])
    def test_default_is_the_named_metric(self, tmp_path, make_config, line, default):
        cfg = make_config(tmp_path)
        text = cfg.read_text(encoding="utf-8")
        assert line in text
        named, unnamed = tmp_path / "named", tmp_path / "unnamed"
        cfg.write_text(text.replace(line, f"metrics = {default}\n"), encoding="utf-8")
        assert cli.main(["curve", "--config", str(cfg), "--output", str(named)]) == 0
        cfg.write_text(text.replace(line, ""), encoding="utf-8")
        assert cli.main(["curve", "--config", str(cfg), "--output", str(unnamed)]) == 0
        rows = read_long_csv(unnamed / "curve.csv")
        assert rows and {row["metric"] for row in rows} == {default}
        assert (named / "curve.csv").read_bytes() == (unnamed / "curve.csv").read_bytes()


class TestCurveValidation:
    @pytest.mark.parametrize("make_config, subcommand, old, new, message", [
        (classification_config, "curve", "averaging = mean, dual_log_prob",
         "averaging = mean, bogus", "[curve]: unknown averaging 'bogus'"),
        (classification_config, "curve", "metrics = cross_entropy, brier_binary",
         "metrics = cross_entropy, mse",
         "[curve]: metric 'mse' is incompatible with task 'classification'"),
        (process_config, "curve", "repeats = 2\nmetrics = mse",
         "repeats = 2\nmetrics = mse\naveraging = dual_log_prob",
         "[curve]: dual_log_prob averaging requires a classification task"),
        (process_config, "curve", "repeats = 2\nmetrics = mse",
         "repeats = 2\nmetrics = brier_binary",
         "[curve]: metric 'brier_binary' is incompatible with task 'regression'"),
        (multiclass_config, "curve", "metrics = cross_entropy, brier_multiclass",
         "metrics = cross_entropy, brier_binary", "[curve]: brier_binary needs a binary task"),
        (classification_config, "curve", "metrics = cross_entropy, brier_binary",
         "metrics = cross_entropy, cross_entropy",
         "[curve]: metric 'cross_entropy' is listed twice"),
        (classification_config, "curve", "averaging = mean, dual_log_prob",
         "averaging = mean, mean", "[curve]: averaging 'mean' is listed twice"),
        (classification_config, "curve", "specs = knn:3, cart", "specs = ridge:1.0",
         "[predictors] specs: ridge:1.0: ridge supports regression only"),
        (classification_config, "curve", "specs = knn:3, cart", "specs = knn:3, linear",
         "[predictors] specs: linear: linear supports regression only"),
        (process_config, "curve", "specs = cart, ridge:1.0", "specs = cart, logistic",
         "[predictors] specs: logistic: logistic supports classification only"),
        (process_config, "curve", "specs = cart, ridge:1.0", "specs = cart, ridge:nan",
         "[predictors] specs: ridge:nan: lam must be finite and >= 0"),
        (process_config, "curve", "specs = cart, ridge:1.0", "specs = cart, ridge:inf",
         "[predictors] specs: ridge:inf: lam must be finite and >= 0"),
        (process_config, "curve", "specs = cart, ridge:1.0", "specs = cart, ridge:-1",
         "[predictors] specs: ridge:-1: lam must be finite and >= 0"),
        (process_config, "curve", "specs = cart, ridge:1.0", "specs = cart, knn:0",
         "[predictors] specs: knn:0: k must be >= 1"),
        (process_config, "nested-var", "specs = cart, ridge:1.0",
         "specs = cart, bagged_trees:0",
         "[predictors] specs: bagged_trees:0: n_trees must be >= 1"),
        (process_config, "curve", "specs = cart, ridge:1.0",
         "specs = bagged_trees:2, bagged_trees:2",
         "[predictors] specs: two specs share the label 'bagged2'"),
        (process_config, "nested-var", "specs = cart, ridge:1.0",
         "specs = ridge:0.1234567, ridge:0.1234568",
         "[predictors] specs: two specs share the label 'ridge0.123457'"),
        (process_config, "nested-var", "r_theta = 4\ns_per_theta = 3",
         "r_theta = 1\ns_per_theta = 3", "[nested_var] r_theta must be >= 2"),
        (process_config, "generate", "mode = independent\nm = 3",
         "mode = independent\nm = 0", "[generator]: m must be >= 1"),
        (process_config, "generate", "mode = independent", "mode = bogus",
         "[generator]: unknown ensemble mode 'bogus'"),
        (process_config, "curve", "mode = independent", "mode = shared_summary",
         "[generator]: mode 'shared_summary' requires kind=noisy_marginal_dp"),
        (process_config, "generate", "mode = independent", "mode = split_budget",
         "[generator]: mode 'split_budget' requires kind=noisy_marginal_dp"),
        (classification_config, "curve", "test_fraction = 0.3", "test_fraction = 1.5",
         "[data]: test_fraction must lie in (0, 1), got 1.5"),
        (classification_config, "curve", "test_fraction = 0.3", "test_fraction = 0.01",
         "[data]: test_fraction 0.01 of 40 rows leaves the test set empty"),
        (process_config, "generate", "mode = independent", "mode = independent\nidentity = maybe",
         "[generator] identity = 'maybe' is not a valid boolean"),
        (process_config, "curve", "mode = independent",
         "mode = independent\nidentity = true\nn_synthetic = 5",
         "[generator]: identity needs the bootstrap generator and no n_synthetic"),
        (process_config, "decompose", "r_real = 30", "r_real = x",
         "[decompose] r_real = 'x' is not a valid int"),
        (process_config, "curve", "process = gaussian_toy\nn = 40", "process = nope\nn = 40",
         "[data] process: unknown truth process 'nope'"),
        (process_config, "curve", "n_test = 30", "n_test = 0", "[data] n_test must be >= 1"),
        (process_config, "nested-var", "n_test = 30", "n_test = 0",
         "[data] n_test must be >= 1"),
        (process_config, "nested-var", "n = 40", "n = 0", "[data] n must be >= 1"),
        (process_config, "curve", "specs = cart, ridge:1.0", "specs = ,",
         "[predictors] specs lists no item"),
    ], ids=["bogus-averaging", "mse-on-classification", "dual-on-regression",
            "brier-on-regression", "brier-binary-on-multiclass", "metric-listed-twice",
            "averaging-listed-twice", "ridge-on-classification",
            "linear-on-classification", "logistic-on-regression", "ridge-nan", "ridge-inf",
            "ridge-negative", "knn-zero", "bagged-zero", "duplicate-label",
            "labels-equal-under-g", "nested-r-theta-one",
            "generate-m-zero", "bogus-mode", "shared-summary-without-dp",
            "split-budget-without-dp", "test-fraction-above-one", "test-fraction-empty-test",
            "identity-not-boolean", "identity-with-n-synthetic", "r-real-not-int",
            "unknown-process", "curve-n-test-zero", "nested-n-test-zero", "nested-n-zero",
            "no-specs"])
    def test_bad_option_is_a_config_error(self, tmp_path, make_config, subcommand, old, new,
                                          message, capsys):
        cfg = make_config(tmp_path)
        text = cfg.read_text(encoding="utf-8")
        assert text.count(old) == 1
        cfg.write_text(text.replace(old, new), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([subcommand, "--config", str(cfg), "--output", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_empty_list_items_are_ignored(self, tmp_path):
        cfg = classification_config(tmp_path)
        text = cfg.read_text(encoding="utf-8").replace(
            "averaging = mean, dual_log_prob", "averaging = mean,")
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 0
        rows = read_long_csv(out / "curve.csv")
        assert {row["averaging"] for row in rows} == {"mean"}

    @pytest.mark.parametrize("line, new, message", [
        (0, "a,c,y", "does not match schema ['a', 'b', 'y']"),
        (2, "l0,nan,no", "row 2, column 'b': 'nan' is not finite"),
        (3, "l0,1.0", "row 3 has 2 cells, expected 3"),
        (1, "l9,1.0,no", "row 1, column 'a': unknown level 'l9'"),
    ], ids=["wrong-header", "nan-cell", "short-row", "unknown-level"])
    def test_bad_csv_content_is_a_config_error(self, tmp_path, line, new, message, capsys):
        cfg = classification_config(tmp_path)
        data_path = tmp_path / "clf.csv"
        lines = data_path.read_text(encoding="utf-8").splitlines()
        lines[line] = new
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [data] path: ")
        assert message in err
        assert not any(out.iterdir())


class TestCurveMatchesLibrary:
    def test_each_group_is_the_library_curve(self, tmp_path):
        cfg = classification_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 0

        schema = Schema((Column("a", CATEGORICAL, FEATURE, levels=("l0", "l1", "l2")),
                         Column("b", NUMERIC, FEATURE),
                         Column("y", CATEGORICAL, TARGET, levels=("no", "yes"))))
        full = load_csv(tmp_path / "clf.csv", schema)
        data, test = train_test_split(full, 0.3, child_seed(5, "split"))
        rows = []
        for spec in ("knn:3", "cart"):
            for metric in ("cross_entropy", "brier_binary"):
                for averaging in ("mean", "dual_log_prob"):
                    curve = mse_curve(GeneratorSpec("bootstrap"), data,
                                      parse_predictor(spec, "classification"), test,
                                      [1, 2, 4], 2, averaging, MetricSpec(metric), seed=5,
                                      dataset_label="clf")
                    rows.extend(curve.rows)
        write_long_csv(tmp_path / "library.csv", rows)
        assert (out / "curve.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()

    def test_measured_means_are_the_library_means(self, tmp_path):
        # nine repeats: numpy's mean of 8 or more scores is not their running sum / n
        out = tmp_path / "out"
        text = PROCESS_CONFIG.format(curve_csv=out / "curve.csv")
        for old, new in [("specs = cart, ridge:1.0", "specs = ridge:1.0"),
                         ("repeats = 2", "repeats = 9")]:
            assert text.count(old) == 1
            text = text.replace(old, new)
        cfg = write_config(tmp_path, text)
        for sub in ("curve", "predict-curve"):
            assert cli.main([sub, "--config", str(cfg), "--output", str(out)]) == 0

        data, test, label = cli._load_data(cli._read_config(str(cfg))[0], 42)
        curve = mse_curve(GeneratorSpec("bootstrap"), data, "ridge:1.0", test, [1, 2, 4], 9,
                          seed=42, dataset_label=label)
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            measured = {int(row["m"]): row["measured_mean"] for row in csv.DictReader(fh)
                        if row["measured_mean"]}
        assert measured == {m: repr(mean) for m, mean in curve.means().items()}
        running = {m: sum(map(float, scores)) / len(scores)
                   for m, scores in curve.per_repeat.items()}
        assert running != curve.means()

    def test_bagged_trees_curve_is_the_library_curve(self, tmp_path):
        text = PROCESS_CONFIG.format(curve_csv=tmp_path / "out" / "curve.csv")
        assert text.count("specs = cart, ridge:1.0") == 1
        cfg = write_config(tmp_path, text.replace("specs = cart, ridge:1.0",
                                                  "specs = bagged_trees:3"))
        out = tmp_path / "out"
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 0
        assert cli.main(["nested-var", "--config", str(cfg), "--output", str(out)]) == 0
        assert list(json.loads((out / "nested_summary.json").read_text())) == ["bagged3"]

        data, test, label = cli._load_data(cli._read_config(str(cfg))[0], 42)
        curve = mse_curve(GeneratorSpec("bootstrap"), data, "bagged_trees:3", test,
                          [1, 2, 4], 2, seed=42, dataset_label=label)
        write_long_csv(tmp_path / "library.csv", curve.rows)
        assert (out / "curve.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


class TestForestCurve:
    def test_bootstrap_cart_curve_feeds_predict_curve(self, tmp_path):
        # a forest curve is a curve run: bootstrap generator, cart, one repeat
        out = tmp_path / "out"
        text = PROCESS_CONFIG.format(curve_csv=out / "curve.csv")
        for old, new in [("specs = cart, ridge:1.0", "specs = cart"),
                         ("m_values = 1, 2, 4\nrepeats = 2", "m_values = 1 2 4\nrepeats = 1")]:
            assert text.count(old) == 1
            text = text.replace(old, new)
        cfg = write_config(tmp_path, text)
        assert cli.main(["curve", "--config", str(cfg), "--output", str(out)]) == 0
        # tree t of the forest grows on the repeat-0 bootstrap stream
        data, test, _ = cli._load_data(cli._read_config(str(cfg))[0], 42)
        block, y = ensemble_members(GeneratorSpec("bootstrap"), data,
                                    PredictorSpec("cart", "regression"), test, 4,
                                    child_seed(42, "repeat", 0))
        trees = score_prefixes(block, y, [1, 2, 4], MEAN, MetricSpec("mse"), "regression")
        rows = read_long_csv(out / "curve.csv")
        assert [(row["predictor"], row["m"], row["repeat"], row["score"]) for row in rows] == [
            ("cart", t, 0, result.score) for t, result in trees.items()]
        assert cli.main(["predict-curve", "--config", str(cfg), "--output", str(out)]) == 0
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            header, *predicted = csv.reader(fh)
        assert [row[header.index("m")] for row in predicted] == ["1", "2", "4", "8"]


def test_readme_config_runs_curve_and_predict_curve(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(\[experiment\].*?)```", readme, re.DOTALL).group(1)
    cfg = write_config(tmp_path, block)
    monkeypatch.chdir(tmp_path)              # the block reads out/curve.csv
    for sub in ("curve", "predict-curve"):
        assert cli.main([sub, "--config", str(cfg), "--output", "out"]) == 0
    assert (tmp_path / "out" / "predictions.csv").exists()


def _run_module(*args):
    """python args... with src/ on the path: the completed process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_leaves_scipy_stats_unloaded():
    # the library runs on numpy alone; scipy.stats alone takes about 0.4 s to import
    out = _run_module("-c", "import sys, genensemble, genensemble.cli; print(any("
                            "name == 'scipy' or name.startswith('scipy.') for name in sys.modules))")
    assert out.returncode == 0 and out.stdout.strip() == "False"


@pytest.mark.parametrize("subcommand", ["curve", "nested-var"])
def test_gaussian_ppd_runs_with_scipy_blocked(tmp_path, subcommand):
    # the covariance draw was scipy.stats.invwishart, the library's one use of scipy
    cfg = process_config(tmp_path)
    cfg.write_text(cfg.read_text(encoding="utf-8").replace("kind = bootstrap",
                                                           "kind = gaussian_ppd"),
                   encoding="utf-8")
    out = _run_module("-W", "error", "-c", "import sys; sys.modules['scipy'] = None; "
                      "from genensemble import cli; sys.exit(cli.main(sys.argv[1:]))",
                      subcommand, "--config", str(cfg), "--output", str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr


def test_import_leaves_multiprocessing_unloaded():
    # the process pool loads multiprocessing, about 1.6 MiB and 10 ms, which
    # only --jobs > 1 needs
    out = _run_module("-c", "import sys, genensemble, genensemble.cli; "
                            "print('multiprocessing' in sys.modules)")
    assert out.returncode == 0 and out.stdout.strip() == "False"


def test_entrypoint_exit_codes(tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text(",".join(LONG_COLUMNS) + "\n"
                     "d,b,i,cart,mean,mse,1,0,2.0,0.1\nd,b,i,cart,mean,mse,2,0,1.5,0.1\n",
                     encoding="utf-8")
    cfg = write_config(tmp_path, f"[predict_curve]\ncurve_csv = {curve}\nm_values = 4\n")

    def run(sub, config):
        return _run_module("-m", "genensemble.cli", sub, "--config", config,
                           "--output", str(tmp_path / "out"))

    assert run("predict-curve", str(cfg)).returncode == 0
    assert run("curve", str(tmp_path / "missing.cfg")).returncode == 1
    removed = run("forest-curve", str(cfg))
    assert removed.returncode == 2 and "invalid choice: 'forest-curve'" in removed.stderr
