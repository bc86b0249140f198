"""Benchmark runner for genensemble.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload curve-cart --seed 1 --seconds 30 --trace 0

One run sets the workload up in fresh child processes (median set-up time),
sets it up once more in this process, then repeats the workload's fixed job
("a pass") for about ``--seconds`` seconds in this single process, without
threads or pools. The last line of standard output is one JSON object:

* ``--trace 0``: ``setup_s``, ``wall_s`` and ``peak_rss_mb``. ``wall_s`` is the
  time of one pass, taken as the sum over ops of each op's median time across
  passes. Both times are in reference-speed seconds (see ``speed.py``).
* ``--trace 1``: per-layer numbers of one traced pass (median over traced
  passes), ``setup.import_s``, and ``trace.overhead_frac``, measured by
  alternating untraced and traced passes.

The line before it reports ``output_sha256``, a hash of the numeric outputs of
one pass, and the raw wall times. Every pass of a run must give the same hash
and break no invariant, otherwise the run is not ``correct``.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Single-threaded BLAS, set before numpy is first imported: each workload is
# driven by one process with no threads, so that later changes that call BLAS
# are measured on the same footing on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("curve-cart", "oracle-mc", "cli-dp-knn")


def setup_workload(name: str, seed: int, workdir: Path, speed=None):
    """Import the library, build the inputs and make one warm-up call.

    Returns the workload and the marks (time, sampler time spent) at the
    start, after the import and at the end; the import is timed because users
    pay it on every CLI run.
    """
    marks = []

    def mark():
        marks.append((time.perf_counter(), speed.spent if speed else 0.0))

    mark()
    import genensemble  # noqa: F401
    import genensemble.cli  # noqa: F401
    mark()
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed, workdir)
    workload.warm_up()
    mark()
    return workload, marks


def probe(name: str, seed: int) -> None:
    """Child-process entry: set up once in a fresh interpreter and report the times."""
    from speed import SpeedProbe
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        with SpeedProbe() as speed:
            _, marks = setup_workload(name, seed, Path(tmp), speed)

    def region(i, j):
        (start, spent0), (end, spent1) = marks[i], marks[j]
        net = end - start - (spent1 - spent0)
        return net, speed.reference_seconds(net, start, end)

    raw_setup_s, setup_s = region(0, 2)
    print(json.dumps({"import_s": region(0, 1)[1], "setup_s": setup_s,
                      "raw_setup_s": raw_setup_s}))


def run_probes(name: str, seed: int) -> dict:
    """Median set-up times over fresh interpreters, run one at a time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    runs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", name, "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


class Pass:
    """The result of running every op of the fixed job once.

    ``windows`` holds (start, end, seconds) per op, where seconds leaves out
    the time spent in the speed sampler.
    """

    def __init__(self, ops, speed):
        digest = hashlib.sha256()
        self.windows = []
        self.failed = 0
        self.problems = []
        for label, fn in ops:
            spent = speed.spent
            start = time.perf_counter()
            try:
                data, problems = fn()
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                data, problems = b"", [f"{type(exc).__name__}: {exc}"]
            end = time.perf_counter()
            self.windows.append((start, end, end - start - (speed.spent - spent)))
            digest.update(hashlib.sha256(data).digest())
            if problems:
                self.failed += 1
                self.problems.append(f"{label}: {problems[0]}")
        self.wall = sum(seconds for _, _, seconds in self.windows)
        self.sha256 = digest.hexdigest()


def measure(workload, seconds: float, speed, tracer=None):
    """Run passes until the next one would end after ``seconds``.

    Without a tracer every pass is untraced. With one, passes alternate
    untraced and traced, and the per-layer records are kept per traced pass.
    Returns (untraced passes, traced passes).
    """
    ops = workload.ops()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(Pass(ops, speed))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(Pass(ops, speed))
            finally:
                tracer.uninstall()
            traced[-1].layers = tracer.metrics()
        cycle = statistics.median(p.wall for p in plain)
        if traced:
            cycle += statistics.median(p.wall for p in traced)
        if time.perf_counter() - start + cycle > seconds:
            return plain, traced


def pass_seconds(passes, convert=lambda seconds, start, end: seconds) -> float:
    """Time of one pass: the sum over ops of each op's median time across passes."""
    per_op = zip(*([convert(seconds, start, end) for start, end, seconds in p.windows]
                   for p in passes))
    return sum(statistics.median(times) for times in per_op)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "genensemble" / "__init__.py").is_file():
        print(f"error: no genensemble sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    # The build: byte-compile once so that no timed import compiles sources.
    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(BENCH_DIR), quiet=2)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        setup = run_probes(args.workload, args.seed)
        workload, _ = setup_workload(args.workload, args.seed, workdir)
        from speed import SpeedProbe
        with SpeedProbe() as speed:
            tracer = None
            if args.trace:
                from tracer import Tracer
                tracer = Tracer(workload.processes, clock=speed.net_clock)
            plain, traced = measure(workload, args.seconds, speed, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    passes = plain + traced
    hashes = sorted({p.sha256 for p in passes})
    failed = sum(p.failed for p in passes)
    attempted = sum(len(p.windows) for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    if args.trace:
        names = traced[0].layers.keys()
        metrics = {name: statistics.median(p.layers[name] for p in traced) for name in names}
        metrics["setup.import_s"] = setup["import_s"]
        metrics["trace.wall_s"] = pass_seconds(traced, speed.reference_seconds)
        metrics["trace.overhead_frac"] = (
            metrics["trace.wall_s"] / pass_seconds(plain, speed.reference_seconds) - 1.0)
        units = {"calls": "count", "rows": "count", "draws": "count", "self_s": "s",
                 "import_s": "s", "wall_s": "s", "missing": "count"}
        metrics = {name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "ratio")}
                   for name, value in metrics.items()}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": {"value": setup["setup_s"], "unit": "s"},
                   "wall_s": {"value": pass_seconds(plain, speed.reference_seconds),
                              "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "output_sha256": hashes[0] if len(hashes) == 1 else hashes,
            "ops_per_pass": len(plain[0].windows),
            "raw_setup_s": setup["raw_setup_s"], "raw_wall_s": pass_seconds(plain),
            "problems": problems[:10]}
    if args.trace:
        info["trace_missing"] = tracer.missing
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0 and len(hashes) == 1,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
