"""Per-layer tracing from outside the library.

The tracer replaces each function in a fixed list with a wrapper in every
``genensemble`` module namespace that binds it, because ``decomposition`` and
``cli`` import names directly. Process methods are wrapped on the process
instances a workload passes in. A wrapper opens a span (name, start, end and
parent, kept on a stack); when the span ends its duration goes to its parent's
child time, and its self time is its duration minus that child time.

A name missing at some commit is counted in ``trace.missing`` and reported
with zero calls; it never crashes the run.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np


def _bound(sig, args, kwargs):
    try:
        return sig.bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def _rows(obj):
    return int(getattr(obj, "n", 0) or 0)


# Counters take (record, bound-argument getter, result) and add work counts.
def _count_train_rows(rec, arg, result):
    rec["rows"] += _rows(arg("data"))


def _count_result_rows(rec, arg, result):
    rec["rows"] += int(np.shape(result)[0]) if np.ndim(result) else 0


def _count_dataset_rows(rec, arg, result):
    rec["rows"] += _rows(result)


def _count_encode(rec, arg, result):
    out_rows = _rows(result)
    rec["rows"] += out_rows
    # With standardize the train set is expanded again to fit the scaler.
    rec["expanded"] += out_rows + (_rows(arg("train")) if arg("standardize") else 0)


def _count_curve_repeat(rec, arg, result):
    key = (repr(arg("predictor")), arg("rep_seed"))
    rec["keys"].add(key)


def _count_draws(rec, arg, result):
    rec["draws"] += int(np.size(result))


# (module, function) -> counter; the list is fixed so that every commit is
# traced the same way.
FUNCTIONS = {
    ("predictors", "train"): _count_train_rows,
    ("predictors", "predict_batch"): _count_result_rows,
    ("generators", "generate_ensemble"): None,
    ("generators", "fit"): None,
    ("generators", "sample"): _count_dataset_rows,
    ("generators", "sample_params_from_summary"): None,
    ("data", "encode"): _count_encode,
    ("data", "load_csv"): None,
    ("metrics", "combine_predictions"): None,
    ("metrics", "score_predictions"): None,
    ("metrics", "write_long_csv"): None,
    ("decomposition", "curve_repeat"): _count_curve_repeat,
    ("decomposition", "oracle_decompose"): None,
    ("decomposition", "bregman_oracle_decompose"): None,
    ("bregman", "divergence"): None,
    ("bregman", "dual"): None,
    ("bregman", "dual_inverse"): None,
    ("bregman", "dual_average"): None,
    ("rng", "child_seed"): None,
    ("cli", "main"): None,
}

PROCESS_METHODS = ("sample_real", "sample_theta", "sample_theta_from_summary",
                   "sample_theta_correlated", "sample_summary", "predictor_outputs",
                   "predictor_prob_outputs", "sample_y", "f_theta")


def _new_record():
    return {"calls": 0, "self_s": 0.0, "rows": 0, "expanded": 0, "draws": 0, "keys": set()}


class Tracer:
    """Wraps the listed functions while installed; ``clock`` times the spans."""

    def __init__(self, processes=(), clock=time.perf_counter):
        self.processes = list(processes)
        self.clock = clock
        self.records = {}
        self.missing = []
        self._stack = []
        self._patches = []          # (namespace, attribute, original)
        self._wrapped_methods = []  # (instance, method name)

    def reset(self):
        for rec in self.records.values():
            rec.update(_new_record())

    def _wrap(self, name, fn, counter):
        rec = self.records[name]
        stack = self._stack
        clock = self.clock
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                rec["calls"] += 1
                rec["self_s"] += duration - frame[0]
            if counter is not None:
                counter(rec, lambda key: _bound(sig, args, kwargs).get(key), result)
            return result
        return wrapper

    def install(self):
        """Wrap every listed function in each genensemble namespace that binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "genensemble" or key.startswith("genensemble."))]
        self.missing = []
        for (module_name, func_name), counter in FUNCTIONS.items():
            name = f"{module_name}.{func_name}"
            self.records.setdefault(name, _new_record())
            module = sys.modules.get(f"genensemble.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        for method in PROCESS_METHODS:
            name = f"processes.{method}"
            self.records.setdefault(name, _new_record())
            owners = [p for p in self.processes if callable(getattr(p, method, None))]
            if self.processes and not owners:
                self.missing.append(name)
            for proc in owners:
                setattr(proc, method, self._wrap(name, getattr(proc, method), _count_draws))
                self._wrapped_methods.append((proc, method))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        for proc, method in self._wrapped_methods:
            delattr(proc, method)
        self._patches = []
        self._wrapped_methods = []

    def metrics(self) -> dict:
        """Per-layer numbers of everything recorded since the last reset."""
        out = {}
        for name, rec in self.records.items():
            out[f"{name}.calls"] = rec["calls"]
            out[f"{name}.self_s"] = rec["self_s"]
        for name in ("predictors.train", "predictors.predict_batch", "generators.sample",
                     "data.encode"):
            out[f"{name}.rows"] = self.records[name]["rows"]
        encode = self.records["data.encode"]
        out["data.encode.useful_frac"] = (encode["rows"] / encode["expanded"]
                                          if encode["expanded"] else 0.0)
        curve = self.records["decomposition.curve_repeat"]
        out["decomposition.curve_repeat.unique_frac"] = (
            len(curve["keys"]) / curve["calls"] if curve["calls"] else 0.0)
        for method in PROCESS_METHODS:
            out[f"processes.{method}.draws"] = self.records[f"processes.{method}"]["draws"]
        out["trace.missing"] = len(self.missing)
        return out
