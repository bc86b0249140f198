import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from genensemble import cli, predictors
from genensemble.data import (CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Schema, load_csv,
                              train_test_split)
from genensemble.decomposition import mse_curve
from genensemble.generators import GeneratorSpec
from genensemble.metrics import MetricSpec, read_long_csv, write_long_csv
from genensemble.predictors import parse_predictor
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

[forest]
t_max = 4
metrics = mse
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

[forest]
t_max = 3
metrics = brier_binary
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


@pytest.fixture
def config(tmp_path):
    return process_config(tmp_path), tmp_path / "out"


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

    def test_decompose_report(self, config):
        cfg, out = config
        assert cli.main(["decompose", "--config", str(cfg), "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "ok"
        assert set(report["terms"]) >= {"mse", "mv", "sdv", "rdv", "noise"}

    def test_nested_var_and_forest(self, config):
        cfg, out = config
        assert cli.main(["nested-var", "--config", str(cfg), "--output", str(out)]) == 0
        summary = json.loads((out / "nested_summary.json").read_text())
        assert "cart" in summary and "mv" in summary["cart"]
        assert cli.main(["forest-curve", "--config", str(cfg),
                         "--output", str(out)]) == 0
        lines = (out / "forest_curve.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4

    def test_forest_curve_writes_every_metric(self, tmp_path):
        cfg = classification_config(tmp_path)
        text = cfg.read_text(encoding="utf-8")

        def run(metrics):
            cfg.write_text(text.replace("t_max = 3\nmetrics = brier_binary",
                                        f"t_max = 3\nmetrics = {metrics}"), encoding="utf-8")
            out = tmp_path / metrics.replace(", ", "-")
            assert cli.main(["forest-curve", "--config", str(cfg), "--output", str(out)]) == 0
            return (out / "forest_curve.csv").read_text().splitlines()

        both = run("brier_binary, cross_entropy")
        assert [line.split(",")[1] for line in both[1:]] == (["brier_binary"] * 3 +
                                                              ["cross_entropy"] * 3)
        # each metric scores the trees its one-metric run scores
        assert both[:4] == run("brier_binary")
        assert both[4:] == run("cross_entropy")[1:]

    def test_forest_curve_trains_once_for_every_metric(self, tmp_path, monkeypatch):
        cfg = classification_config(tmp_path)
        cfg.write_text(cfg.read_text(encoding="utf-8").replace(
            "t_max = 3\nmetrics = brier_binary",
            "t_max = 3\nmetrics = brier_binary, cross_entropy"), encoding="utf-8")
        real_train, calls = predictors.train, []

        def counting_train(spec, *args, **kwargs):
            calls.append(spec)
            return real_train(spec, *args, **kwargs)

        monkeypatch.setattr(predictors, "train", counting_train)
        assert cli.main(["forest-curve", "--config", str(cfg),
                         "--output", str(tmp_path / "out")]) == 0
        assert len(calls) == 1 and calls[0].n_trees == 3

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


class TestCurveValidation:
    @pytest.mark.parametrize("make_config, subcommand, old, new, message", [
        (classification_config, "curve", "averaging = mean, dual_log_prob",
         "averaging = mean, bogus", "[curve] averaging: unknown averaging 'bogus'"),
        (classification_config, "curve", "metrics = cross_entropy, brier_binary",
         "metrics = cross_entropy, mse",
         "[curve] metrics: metric 'mse' is incompatible with task 'classification'"),
        (classification_config, "forest-curve", "metrics = brier_binary",
         "metrics = mse",
         "[forest] metrics: metric 'mse' is incompatible with task 'classification'"),
        (process_config, "curve", "repeats = 2\nmetrics = mse",
         "repeats = 2\nmetrics = mse\naveraging = dual_log_prob",
         "[curve] averaging: dual_log_prob averaging requires a classification task"),
        (process_config, "curve", "repeats = 2\nmetrics = mse",
         "repeats = 2\nmetrics = brier_binary",
         "[curve] metrics: metric 'brier_binary' is incompatible with task 'regression'"),
        (process_config, "forest-curve", "t_max = 4\nmetrics = mse",
         "t_max = 4\nmetrics = cross_entropy",
         "[forest] metrics: metric 'cross_entropy' is incompatible with task 'regression'"),
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
        (process_config, "forest-curve", "t_max = 4", "t_max = 1",
         "[forest] t_max must be >= 2"),
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
        (process_config, "decompose", "r_real = 30", "r_real = x",
         "[decompose] r_real = 'x' is not a valid int"),
        (process_config, "curve", "process = gaussian_toy\nn = 40", "process = nope\nn = 40",
         "[data] process: unknown truth process 'nope'"),
        (process_config, "curve", "n_test = 30", "n_test = 0", "[data] n_test must be >= 1"),
        (process_config, "nested-var", "n_test = 30", "n_test = 0",
         "[data] n_test must be >= 1"),
        (process_config, "forest-curve", "n_test = 30", "n_test = 0",
         "[data] n_test must be >= 1"),
        (process_config, "nested-var", "n = 40", "n = 0", "[data] n must be >= 1"),
        (process_config, "curve", "specs = cart, ridge:1.0", "specs = ,",
         "[predictors] specs lists no item"),
    ], ids=["bogus-averaging", "mse-on-classification", "forest-mse-on-classification",
            "dual-on-regression", "brier-on-regression", "forest-cross-entropy-on-regression",
            "ridge-on-classification", "linear-on-classification", "logistic-on-regression",
            "ridge-nan", "ridge-inf", "ridge-negative", "knn-zero", "bagged-zero",
            "duplicate-label", "labels-equal-under-g", "nested-r-theta-one", "forest-t-max-one",
            "generate-m-zero", "bogus-mode", "shared-summary-without-dp",
            "split-budget-without-dp", "test-fraction-above-one", "test-fraction-empty-test",
            "identity-not-boolean", "r-real-not-int", "unknown-process", "curve-n-test-zero",
            "nested-n-test-zero", "forest-n-test-zero", "nested-n-zero",
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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about 1 s to import, which every CLI run would pay;
    # only a Gaussian-PPD fit loads it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, genensemble, genensemble.cli; "
             "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
