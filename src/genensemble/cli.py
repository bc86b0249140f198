"""Batch experiment runner driven by declarative config files.

Configs are flat sectioned key=value text (INI syntax, parsed with
configparser). Every run writes its outputs plus a manifest recording the
config hash, the seed, and the library version; reruns into a clean
directory reproduce all outputs byte-identically.

Exit codes: 0 success, 1 config/validation error, 2 runtime failure,
3 decomposition check flagged (report status identity_flagged or
term_negative).
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .data import (CATEGORICAL, FEATURE, NUMERIC, TARGET, Column, Schema,
                   encode, load_csv, save_csv, train_test_split)
from .decomposition import (MonteCarloConfig, check_oracle_request, curve_cells,
                            curve_repeat, estimate_mv_sdv_nested, fit_rule_regression,
                            fit_rule_two_point, oracle_decompose, predict_mse)
from .generators import GeneratorSpec, check_ensemble_request, generate_ensemble
from .metrics import (MetricSpec, check_averaging, long_rows, read_long_csv,
                      write_long_csv)
from .predictors import PredictorSpec, parse_predictor, train_forest_curve
from .processes import get_process
from .rng import child_seed, make_rng

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_FLAGGED = 3


class ConfigError(Exception):
    pass


@contextmanager
def _config_errors(where: str):
    """Turns a ValueError raised inside into a ConfigError prefixed by where."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read_config(path: str) -> tuple[configparser.ConfigParser, bytes]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path!r} does not exist")
    raw = p.read_bytes()
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str          # keep column names case-sensitive
    try:
        parser.read_string(raw.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config {path!r}: {exc}") from None
    return parser, raw


def _get(cfg, section, key, default=None, required=False, convert=str):
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"missing required option [{section}] {key}")
        return default
    raw = cfg.get(section, key).strip()
    try:
        return cfg.getboolean(section, key) if convert is bool else convert(raw)
    except (TypeError, ValueError):
        name = "boolean" if convert is bool else convert.__name__
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {name}") from None


def _get_list(cfg, section, key, parse, default=None, required=False, sep=","):
    """[section] key split at sep, each non-empty item converted by parse;
    the list must not be empty."""
    raw = _get(cfg, section, key, default=default, required=required)
    with _config_errors(f"[{section}] {key}"):
        items = [parse(tok) for tok in map(str.strip, re.split(sep, raw)) if tok]
    if not items:
        raise ConfigError(f"[{section}] {key} lists no item")
    return items


def _get_count(cfg, section, key, default, minimum=1):
    """The integer [section] key, which must be at least minimum."""
    value = _get(cfg, section, key, default=default, convert=int)
    if value < minimum:
        raise ConfigError(f"[{section}] {key} must be >= {minimum}")
    return value


def _get_m_values(cfg, section):
    """The required [section] m_values, sorted and unique, each at least 1."""
    values = _get_list(cfg, section, "m_values", int, required=True, sep=r"[,\s]")
    if min(values) < 1:
        raise ConfigError(f"[{section}] m_values: m values must be >= 1")
    return sorted(set(values))


def _parse_schema(cfg) -> Schema:
    if not cfg.has_section("schema"):
        raise ConfigError("csv data sources need a [schema] section")
    columns = []
    for name, decl in cfg.items("schema"):
        parts = decl.strip().split()
        if len(parts) != 2:
            raise ConfigError(f"[schema] {name}: expected '<kind> <role>', got {decl!r}")
        kind_raw, role = parts
        if role not in (FEATURE, TARGET):
            raise ConfigError(f"[schema] {name}: role must be feature or target")
        if kind_raw == NUMERIC:
            columns.append(Column(name, NUMERIC, role))
        elif kind_raw.startswith("categorical(") and kind_raw.endswith(")"):
            levels = tuple(kind_raw[len("categorical("):-1].split("|"))
            columns.append(Column(name, CATEGORICAL, role, levels=levels))
        else:
            raise ConfigError(f"[schema] {name}: kind must be numeric or "
                              f"categorical(level|level|...)")
    with _config_errors("[schema]"):
        return Schema(tuple(columns))


def _load_data(cfg, seed: int) -> tuple[Dataset, Dataset | None, str]:
    """Returns (train, test-or-None, label). CSV sources are split by
    test_fraction; truth-process sources sample fresh train and test sets."""
    source = _get(cfg, "data", "source", required=True)
    fraction = _get(cfg, "data", "test_fraction", default=0.25, convert=float)
    if source == "csv":
        path = _get(cfg, "data", "path", required=True)
        if not Path(path).is_file():
            raise ConfigError(f"[data] path {path!r} does not exist")
        schema = _parse_schema(cfg)
        with _config_errors("[data] path"):
            full = load_csv(path, schema)
        with _config_errors("[data]"):
            train_ds, test_ds = train_test_split(full, fraction, child_seed(seed, "split"))
        return train_ds, test_ds, Path(path).stem
    if source == "process":
        pid = _get(cfg, "data", "process", required=True)
        with _config_errors("[data] process"):
            process = get_process(pid)
        n = _get_count(cfg, "data", "n", default=process.n_real)
        n_test = _get_count(cfg, "data", "n_test", default=process.n_real)
        train_ds = process.sample_real_dataset(make_rng(child_seed(seed, "real")), n)
        test_ds = process.sample_real_dataset(make_rng(child_seed(seed, "test")), n_test)
        return train_ds, test_ds, pid
    raise ConfigError(f"[data] source must be csv or process, got {source!r}")


def _generator_spec(cfg) -> GeneratorSpec:
    kind = _get(cfg, "generator", "kind", required=True)
    with _config_errors("[generator]"):
        return GeneratorSpec(
            kind=kind,
            n_synthetic=_get(cfg, "generator", "n_synthetic", convert=int),
            identity=_get(cfg, "generator", "identity", default=False, convert=bool),
            epsilon=_get(cfg, "generator", "epsilon", convert=float),
            delta=_get(cfg, "generator", "delta", convert=float),
            process=_get(cfg, "generator", "process"),
        )


def _ensemble_request(cfg, m: int) -> tuple[GeneratorSpec, str]:
    """The [generator] spec and mode, checked for an ensemble of m datasets."""
    spec = _generator_spec(cfg)
    mode = _get(cfg, "generator", "mode", default="independent")
    with _config_errors("[generator]"):
        check_ensemble_request(spec, m, mode)
    return spec, mode


def _predictor_specs(cfg, task: str) -> list[PredictorSpec]:
    """The [predictors] specs, which must have distinct labels."""
    specs = _get_list(cfg, "predictors", "specs", lambda tok: parse_predictor(tok, task),
                      required=True)
    labels = [spec.label for spec in specs]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"[predictors] specs: two specs share the label {label!r}")
    return specs


def _metric_specs(cfg, section: str, task: str) -> list[MetricSpec]:
    default = "mse" if task == "regression" else "brier_binary"
    specs = _get_list(cfg, section, "metrics", MetricSpec, default=default)
    with _config_errors(f"[{section}] metrics"):
        for spec in specs:
            spec.check_task(task)
    return specs


class _OutputTracker:
    """Records files written by a run so partial outputs vanish on failure."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.directory / name
        self.written.append(p)
        return p

    def cleanup(self):
        for p in self.written:
            p.unlink(missing_ok=True)

    def names(self) -> list[str]:
        return [p.name for p in self.written]


def _write_manifest(tracker: _OutputTracker, subcommand: str, seed: int,
                    config_raw: bytes) -> None:
    manifest = {
        "subcommand": subcommand,
        "seed": seed,
        "config_sha256": hashlib.sha256(config_raw).hexdigest(),
        "version": __version__,
        "outputs": tracker.names(),
    }
    path = tracker.path("manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# --- subcommands -------------------------------------------------------------

def _cmd_generate(cfg, seed, tracker):
    data, _, _ = _load_data(cfg, seed)
    m = _get(cfg, "generator", "m", default=1, convert=int)
    spec, mode = _ensemble_request(cfg, m)
    datasets, record = generate_ensemble(spec, data, m, mode,
                                         seed=child_seed(seed, "generate"))
    for i, ds in enumerate(datasets):
        save_csv(ds, tracker.path(f"synthetic_{i:03d}.csv"))
    tracker.path("provenance.json").write_text(
        json.dumps(record.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return EXIT_OK


def _cmd_curve(cfg, seed, tracker, jobs=1):
    data, test, label = _load_data(cfg, seed)
    task = data.schema.task
    predictors = _predictor_specs(cfg, task)
    metrics = _metric_specs(cfg, "curve", task)
    m_values = _get_m_values(cfg, "curve")
    spec, mode = _ensemble_request(cfg, max(m_values))
    repeats = _get_count(cfg, "curve", "repeats", default=3)
    averagings = _get_list(cfg, "curve", "averaging", str, default="mean")
    with _config_errors("[curve] averaging"):
        for averaging in averagings:
            check_averaging(averaging, task)

    cells = curve_cells(spec, data, predictors, test, m_values, repeats, averagings,
                        metrics, seed, mode, label)
    columns = zip(*(args for _, _, args in cells))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(curve_repeat, *columns))
    else:
        results = list(map(curve_repeat, *columns))

    rows = []
    for (labels, j, _), scores in zip(cells, results):
        rows.extend(long_rows(labels, j, scores))
    write_long_csv(tracker.path("curve.csv"), rows)
    return EXIT_OK


def _cmd_predict_curve(cfg, seed, tracker):
    curve_path = _get(cfg, "predict_curve", "curve_csv", required=True)
    if not Path(curve_path).is_file():
        raise ConfigError(f"[predict_curve] curve_csv {curve_path!r} does not exist")
    method = _get(cfg, "predict_curve", "method", default="two_point")
    if method not in ("two_point", "regression"):
        raise ConfigError("[predict_curve] method must be two_point or regression")
    targets = _get_m_values(cfg, "predict_curve")

    rows = read_long_csv(curve_path)
    groups: dict[tuple, dict[int, list[float]]] = {}
    for row in rows:
        key = tuple(row[c] for c in ("dataset", "generator", "mode", "predictor",
                                     "averaging", "metric"))
        groups.setdefault(key, {}).setdefault(row["m"], []).append(row["score"])

    out_lines = ["dataset,generator,mode,predictor,averaging,metric,method,"
                 "m,measured_mean,predicted"]
    for key in sorted(groups):
        means = {m: sum(v) / len(v) for m, v in groups[key].items()}
        if method == "two_point":
            if 1 not in means or 2 not in means:
                raise ConfigError("two_point prediction needs measurements at m=1 and m=2")
            rule = fit_rule_two_point(means[1], means[2])
        else:
            if len(means) < 2:
                raise ConfigError("regression prediction needs at least two m values")
            rule = fit_rule_regression(means)
        for m in sorted(set(targets) | set(means)):
            measured = repr(means[m]) if m in means else ""
            predicted = repr(predict_mse(rule, m))
            out_lines.append(",".join(str(v) for v in key) +
                             f",{method},{m},{measured},{predicted}")
    tracker.path("predictions.csv").write_text("\n".join(out_lines) + "\n",
                                               encoding="utf-8")
    return EXIT_OK


def _cmd_decompose(cfg, seed, tracker):
    pid = _get(cfg, "decompose", "process", required=True)
    mode = _get(cfg, "decompose", "mode", default="iid")
    m = _get(cfg, "decompose", "m", default=1, convert=int)
    rho = _get(cfg, "decompose", "rho", default=0.0, convert=float)
    predictor = _get(cfg, "decompose", "predictor", default="builtin")
    with _config_errors("[decompose]"):
        mc = MonteCarloConfig(
            r_real=_get(cfg, "decompose", "r_real", default=100, convert=int),
            r_theta=_get(cfg, "decompose", "r_theta", default=20, convert=int),
            r_syn=_get(cfg, "decompose", "r_syn", default=10, convert=int),
            r_y=_get(cfg, "decompose", "r_y", default=1000, convert=int),
            r_summary=_get(cfg, "decompose", "r_summary", convert=int),
        )
        process = get_process(pid)
        if predictor not in ("builtin", process.builtin_predictor):
            predictor = parse_predictor(predictor, process.schema.task)
        check_oracle_request(process, mode, predictor, m, rho)
    report = oracle_decompose(process, mode, predictor, m=m, mc=mc,
                              seed=child_seed(seed, "decompose"), rho=rho)
    tracker.path("report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return EXIT_OK if report.status == "ok" else EXIT_FLAGGED


def _cmd_nested_var(cfg, seed, tracker):
    data, test, label = _load_data(cfg, seed)
    spec = _generator_spec(cfg)
    predictors = _predictor_specs(cfg, data.schema.task)
    r_theta = _get_count(cfg, "nested_var", "r_theta", default=32, minimum=2)
    s_per = _get_count(cfg, "nested_var", "s_per_theta", default=5, minimum=2)

    lines = ["dataset,predictor,point,mv,sdv"]
    summary = {}
    for predictor in predictors:
        est = estimate_mv_sdv_nested(spec, data, predictor, test, r_theta, s_per,
                                     seed=child_seed(seed, "nested"))
        for i, (mv, sdv) in enumerate(zip(est.mv_per_point, est.sdv_per_point)):
            lines.append(f"{label},{predictor.label},{i},{float(mv)!r},{float(sdv)!r}")
        summary[predictor.label] = {"mv": est.mv, "sdv": est.sdv,
                                    "mv_se": est.mv_se, "sdv_se": est.sdv_se,
                                    "r_theta": r_theta, "s_per_theta": s_per}
    tracker.path("nested_variance.csv").write_text("\n".join(lines) + "\n",
                                                   encoding="utf-8")
    tracker.path("nested_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_forest_curve(cfg, seed, tracker):
    data, test, label = _load_data(cfg, seed)
    task = data.schema.task
    t_max = _get_count(cfg, "forest", "t_max", default=32, minimum=2)
    metrics = _metric_specs(cfg, "forest", task)
    fm_train = encode(data, data, False)
    fm_test = encode(data, test, False)
    lines = ["dataset,metric,trees,score"]
    curves = train_forest_curve(fm_train, fm_test, t_max, metrics,
                                seed=child_seed(seed, "forest"))
    for metric, curve in zip(metrics, curves):
        for t in sorted(curve):
            lines.append(f"{label},{metric.kind},{t},{float(curve[t])!r}")
    tracker.path("forest_curve.csv").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")
    return EXIT_OK


_SUBCOMMANDS = {
    "generate": _cmd_generate,
    "curve": _cmd_curve,
    "predict-curve": _cmd_predict_curve,
    "decompose": _cmd_decompose,
    "nested-var": _cmd_nested_var,
    "forest-curve": _cmd_forest_curve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="genensemble",
        description="Generative-ensemble experiment runner")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker bound for repeats")
    parser.add_argument("--output", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg, raw = _read_config(args.config)
        seed = args.seed if args.seed is not None else _get(
            cfg, "experiment", "seed", default=0, convert=int)
        out_dir = args.output or _get(cfg, "experiment", "output", default=".")
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    tracker = _OutputTracker(directory)
    try:
        if args.subcommand == "curve":
            status = _cmd_curve(cfg, seed, tracker, jobs=max(1, args.jobs))
        else:
            status = _SUBCOMMANDS[args.subcommand](cfg, seed, tracker)
        _write_manifest(tracker, args.subcommand, seed, raw)
        return status
    except ConfigError as exc:
        tracker.cleanup()
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:               # noqa: BLE001 - runtime failures exit 2
        tracker.cleanup()
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
