"""Tabular dataset model: schema, CSV ingestion, splitting, feature encoding.

A Dataset stores rows as a float64 matrix; categorical cells hold the index
of their level in the schema. Values survive a CSV round trip exactly
because serialization uses the shortest decimal form that parses back to
the same float.
"""
from __future__ import annotations

import csv
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
FEATURE = "feature"
TARGET = "target"


class SchemaError(ValueError):
    pass


class ParseError(ValueError):
    pass


def check_count(value, name: str, minimum: int = 1) -> int:
    """value as an int; ValueError unless it is an integer >= minimum.

    Python and numpy integers are counts; bool, float and str are not, even
    when they hold a whole number.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def check_seed(value, name: str = "seed") -> int:
    """value as an int; ValueError unless it is a Python or numpy integer.

    Any integer is a seed, taken modulo 2**64 by the rng module; bool, float
    and str are not, even when they hold a whole number.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    return value


def check_flag(value, name: str) -> bool:
    """value as a bool; ValueError unless it is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_number(value, name: str):
    """value unchanged; ValueError unless it is a Python or numpy real number
    that a float holds, ±inf included. bool and str are not, even when they
    hold one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:                     # such as an int beyond 2**1024
        raise ValueError(f"{name} must lie within the float range, "
                         f"±{sys.float_info.max:g}") from None
    return value


def check_real(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """value as a float; ValueError unless check_number takes it and it is
    finite and in [low, high]."""
    check_number(value, name)
    if not (math.isfinite(value) and low <= value <= high):
        raise ValueError(f"{name} must lie in [{low:g}, {high:g}] and be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    role: str
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown column kind {self.kind!r}")
        if self.role not in (FEATURE, TARGET):
            raise SchemaError(f"unknown column role {self.role!r}")
        if self.kind == CATEGORICAL:
            if not self.levels:
                raise SchemaError(f"categorical column {self.name!r} needs levels")
            if any(lv == "" for lv in self.levels):
                raise SchemaError(f"column {self.name!r} has an empty level name")
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError(f"column {self.name!r} has duplicate levels")
        elif self.levels:
            raise SchemaError(f"numeric column {self.name!r} cannot carry levels")


@dataclass(frozen=True)
class Schema:
    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")
        targets = [c for c in self.columns if c.role == TARGET]
        if len(targets) != 1:
            raise SchemaError(f"schema must have exactly one target column, got {len(targets)}")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def target_index(self) -> int:
        return next(i for i, c in enumerate(self.columns) if c.role == TARGET)

    @property
    def target(self) -> Column:
        return self.columns[self.target_index]

    @property
    def feature_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.role == FEATURE]

    @property
    def task(self) -> str:
        return "classification" if self.target.kind == CATEGORICAL else "regression"

    @property
    def n_classes(self) -> int:
        return len(self.target.levels) if self.target.kind == CATEGORICAL else 0

    @cached_property
    def _feature_layout(self):
        """encode's layout: numeric sources and their output columns, categorical
        sources and the first output column of their one-hot blocks, width."""
        src = np.array(self.feature_indices, dtype=np.intp)
        levels = np.array([len(self.columns[j].levels) for j in src], dtype=np.intp)
        widths, cat = np.maximum(levels, 1), levels > 0
        starts = np.cumsum(widths) - widths
        return src[~cat], starts[~cat], src[cat], starts[cat], int(widths.sum())


@dataclass(frozen=True)
class Dataset:
    schema: Schema
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(self.schema.columns):
            raise SchemaError(
                f"rows shape {rows.shape} does not match schema width {len(self.schema.columns)}"
            )
        cat = [j for j, c in enumerate(self.schema.columns) if c.kind == CATEGORICAL]
        if cat and rows.shape[0]:
            vals, levels = rows[:, cat], [len(self.schema.columns[j].levels) for j in cat]
            ok = ((vals == np.floor(vals)) & (vals >= 0) & (vals < levels)).all(axis=0)
            if not ok.all():
                bad = self.schema.columns[cat[ok.argmin()]]
                raise SchemaError(f"column {bad.name!r} holds an invalid level index")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def target_values(self) -> np.ndarray:
        return self.rows[:, self.schema.target_index]

    @cached_property
    def _features(self) -> np.ndarray:
        """encode's read-only expansion: numeric features, then one-hot blocks."""
        num_src, num_dst, cat_src, cat_dst, width = self.schema._feature_layout
        # C order, as hstack gave: the scaler then sums column means row by row
        x = np.zeros((self.n, width))
        x[:, num_dst] = self.rows[:, num_src]
        x[np.arange(self.n)[:, None], cat_dst + self.rows[:, cat_src].astype(np.intp)] = 1.0
        x.setflags(write=False)
        return x

    @cached_property
    def _scaler(self) -> tuple[np.ndarray, np.ndarray]:
        """encode's scaler: each feature column's mean and population stddev."""
        x = self._features
        return (x.mean(axis=0), x.std(axis=0)) if self.n else (np.zeros(x.shape[1]),) * 2


@dataclass(frozen=True)
class FeatureMatrix:
    x: np.ndarray                   # (n, d) encoded features
    y: np.ndarray                   # (n,) targets: floats or class indices
    task: str                       # "regression" | "classification"
    n_classes: int = 0

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _parse_cell(text: str, col: Column, row_num: int) -> float:
    if col.kind == NUMERIC:
        try:
            value = float(text)
        except ValueError:
            raise ParseError(
                f"row {row_num}, column {col.name!r}: {text!r} is not numeric"
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"row {row_num}, column {col.name!r}: {text!r} is not finite")
        return value
    try:
        return float(col.levels.index(text))
    except ValueError:
        raise ParseError(
            f"row {row_num}, column {col.name!r}: unknown level {text!r}"
        ) from None


def load_csv(path, schema: Schema) -> Dataset:
    """Read a comma-separated file whose header matches the schema in order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if header != schema.names:
            raise ParseError(f"{path}: header {header} does not match schema {schema.names}")
        rows = []
        for row_num, record in enumerate(reader, start=1):
            if len(record) != len(schema.columns):
                raise ParseError(f"{path}: row {row_num} has {len(record)} cells, expected "
                                 f"{len(schema.columns)}")
            rows.append([_parse_cell(cell, col, row_num)
                         for cell, col in zip(record, schema.columns)])
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(schema.columns))
    return Dataset(schema, data)


def format_cell(value: float, col: Column) -> str:
    if col.kind == CATEGORICAL:
        return col.levels[int(value)]
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """Write the header and rows in the csv module's default dialect, which
    every CSV file of the library uses: CRLF line ends, and a field holding a
    comma, such as a dataset label, is quoted so every row keeps the header's
    width."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset back out; numeric cells use shortest round-trip decimals."""
    columns = dataset.schema.columns
    write_csv(path, dataset.schema.names,
              ([format_cell(v, c) for v, c in zip(row, columns)] for row in dataset.rows))


def train_test_split(data: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded permutation split; |test| = round(test_fraction * n), half rounds up.
    Raises ValueError when either side would be empty."""
    if not 0.0 < check_number(test_fraction, "test_fraction") < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n_test = int(math.floor(test_fraction * data.n + 0.5))
    if not 0 < n_test < data.n:
        side = "test" if n_test == 0 else "train"
        raise ValueError(f"test_fraction {test_fraction} of {data.n} rows leaves the "
                         f"{side} set empty")
    from .rng import make_rng          # rng imports this module for check_seed
    perm = make_rng(check_seed(seed)).permutation(data.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return (Dataset(data.schema, data.rows[train_idx]),
            Dataset(data.schema, data.rows[test_idx]))


def encode(train: Dataset, apply_to: Dataset, standardize: bool) -> FeatureMatrix:
    """One-hot encode categorical features; optionally z-score with train statistics.

    The scaler (per-column mean and population stddev) is fit on the train
    rows only and applied to apply_to; constant columns map to 0. A dataset
    keeps its expansion (read-only: x when not standardized) and scaler. The
    target is never scaled; a categorical target becomes a class-index vector.
    """
    if train.schema != apply_to.schema:
        raise SchemaError("train and apply_to must share a schema")
    schema = train.schema
    x = apply_to._features
    if standardize:
        mean, std = train._scaler
        x = np.where(std > 0, (x - mean) / np.where(std > 0, std, 1.0), 0.0)
    y = apply_to.target_values()
    if schema.task == "classification":
        y = y.astype(int)
    return FeatureMatrix(x=x, y=y, task=schema.task, n_classes=schema.n_classes)
