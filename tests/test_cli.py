import hashlib
import json

import numpy as np
import pytest

from genensemble import cli
from genensemble.data import (FEATURE, NUMERIC, TARGET, Column, Schema, load_csv)

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
    ], ids=["bogus-averaging", "mse-on-classification", "forest-mse-on-classification",
            "dual-on-regression", "brier-on-regression", "forest-cross-entropy-on-regression"])
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
