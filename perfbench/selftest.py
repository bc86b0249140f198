"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks, with short runs of ``run.py``:

* tracing is transparent: a traced and an untraced run of one seed give the
  same ``output_sha256``;
* the seed changes the inputs but not the work: a second seed changes
  ``output_sha256`` and leaves the op count and every ``*.calls`` count alone;
* the per-layer counts expected when the benchmark was defined, such as
  1600 CART fits per pass of ``curve-cart`` and no predictor call on
  ``oracle-mc``, and each workload's dominant layer;
* the reproducibility contract on the ``cli-dp-knn`` inputs: ``curve.csv`` from
  ``--jobs 2`` is byte-identical to ``--jobs 1``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench``, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
WORK_ROOT = ROOT / ".perfbench_work"
SEEDS = (101, 202)

# Per-pass counts and ratios expected when the benchmark was defined.
EXPECTED = {
    "curve-cart": {"predictors.train.calls": 1600, "predictors.predict_batch.calls": 1600,
                   "decomposition.curve_repeat.calls": 100,
                   "decomposition.curve_repeat.unique_frac": 1.0,
                   "data.encode.useful_frac": 1.0},
    "oracle-mc": {"predictors.train.calls": 0, "predictors.predict_batch.calls": 0,
                  "decomposition.oracle_decompose.calls": 3,
                  "decomposition.bregman_oracle_decompose.calls": 1},
    "cli-dp-knn": {"predictors.predict_batch.calls": 640, "cli.main.calls": 1,
                   "decomposition.curve_repeat.calls": 80,
                   "decomposition.curve_repeat.unique_frac": 0.25,
                   "data.encode.useful_frac": 0.4},
}
DOMINANT = {"curve-cart": "predictors.train", "oracle-mc": "processes.predictor_outputs",
            "cli-dp-knn": "predictors.predict_batch"}

failures = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One short run; returns (info line, result line)."""
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    info, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return info, result


def scratch_dir() -> tempfile.TemporaryDirectory:
    WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK_ROOT)


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_workload(workload: str) -> None:
    plain_info, plain = run(workload, SEEDS[0], 0)
    info, traced = run(workload, SEEDS[0], 1)
    other_info, other = run(workload, SEEDS[1], 1)
    for label, res in (("untraced", plain), ("traced", traced), ("second seed", other)):
        check(res["correct"] and res["failed"] == 0, f"{workload}: {label} run is correct")
    check(plain_info["output_sha256"] == info["output_sha256"],
          f"{workload}: traced and untraced runs give the same output_sha256")
    check(other_info["output_sha256"] != info["output_sha256"],
          f"{workload}: a second seed changes output_sha256")
    check(other_info["ops_per_pass"] == info["ops_per_pass"],
          f"{workload}: a second seed keeps the ops per pass")
    layers, other_layers = values(traced), values(other)
    calls = {n: v for n, v in layers.items() if n.endswith(".calls")}
    check(calls == {n: other_layers[n] for n in calls},
          f"{workload}: a second seed keeps every *.calls count")
    for name, expected in EXPECTED[workload].items():
        check(layers[name] == expected, f"{workload}: {name} = {layers[name]} "
                                        f"(expected {expected})")
    self_times = {n[:-len(".self_s")]: v for n, v in layers.items() if n.endswith(".self_s")}
    top = max(self_times, key=self_times.get)
    check(top == DOMINANT[workload], f"{workload}: dominant layer is {top} "
                                     f"(expected {DOMINANT[workload]})")
    check("trace.overhead_frac" in layers, f"{workload}: trace.overhead_frac is reported")


def check_jobs_reproducibility() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import CliDpKnn
    with scratch_dir() as tmp:
        workload = CliDpKnn(SEEDS[0], Path(tmp))
        code1, serial = workload.run_curve(workload.config_path, jobs=1)
        code2, parallel = workload.run_curve(workload.config_path, jobs=2)
    check(code1 == code2 == 0 and serial and serial == parallel,
          "cli-dp-knn: curve.csv from --jobs 2 is byte-identical to --jobs 1")


def check_bare_directory() -> None:
    with scratch_dir() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, str(Path(tmp) / BENCH_DIR.name / RUN.name),
                               "--workload", "curve-cart", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180, check=False)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "without the library sources the benchmark exits non-zero and prints no result")


def main() -> int:
    for workload in EXPECTED:
        check_workload(workload)
    check_jobs_reproducibility()
    check_bare_directory()
    try:
        WORK_ROOT.rmdir()
    except OSError:  # a benchmark run is using it
        pass
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
