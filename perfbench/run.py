"""dpsrgd benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/` next to this directory, never from an installed copy. Each
invocation runs the acceptance criteria 1-9 as a correctness gate, builds
the workload's inputs from the seed, and measures the workload for about
`--seconds` seconds with one BLAS thread. End-to-end times are scaled to
a reference speed (reference.py), because the speed a shared host gives a
process drifts by up to twice within minutes. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer split from a traced run
with --trace 1. The line before it carries the environment, the workload's
quality figures and the raw samples. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_REPEATS = 3
SETUP_BLOCK_S = 0.25
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2

UNITS = {"run_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_mem_mb": "MB",
         "quality_error": "1"}


def _pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package():
    """Import dpsrgd from this checkout's src/; None when it is absent."""
    if not (SRC / "dpsrgd" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import dpsrgd
    import dpsrgd.cli
    if Path(dpsrgd.__file__).resolve().parent != SRC / "dpsrgd":
        return None
    return dpsrgd


def _environment(dp) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "dpsrgd": dp.__version__}


def _verify_gate(dp) -> tuple[bool, float, str]:
    log = io.StringIO()
    start = time.perf_counter()
    results = dp.verify.run_all(range(1, 10), stream=log)
    elapsed = time.perf_counter() - start
    return all(r.passed is True for r in results), elapsed, log.getvalue()


class Setup:
    """Builds the workload's inputs. Each call is one block of set-ups,
    repeated until the block has taken SETUP_BLOCK_S, so that a set-up of
    microseconds is timed over many reference-loop samples; it appends the
    block's time per set-up, at the reference speed, to `times`."""

    def __init__(self, workload, dp, seed):
        self.workload, self.dp, self.seed = workload, dp, seed
        self.times: list[float] = []
        self.wall_times: list[float] = []

    def __call__(self):
        from reference import Timed
        count = 0
        start = time.perf_counter()
        with Timed() as timed:
            while count == 0 or time.perf_counter() - start < SETUP_BLOCK_S:
                inputs = None  # drop the last inputs before building the next
                inputs = self.workload.setup(self.dp, self.seed)
                count += 1
        self.times.append(timed.scaled / count)
        self.wall_times.append(timed.wall / count)
        return inputs


class Iterations:
    """Runs workload iterations, each in a fresh output dir, and checks
    their outputs outside the timed region."""

    def __init__(self, workload, dp, inputs, workdir):
        self.workload, self.dp, self.inputs = workload, dp, inputs
        self.workdir = workdir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.quality: dict = {}
        self.steps = 0
        self.wall_times: list[float] = []
        self._count = 0

    def run(self, measure_memory: bool = False, scaled: bool = False) -> tuple[float, int]:
        """One iteration; returns (seconds, tracemalloc peak bytes or 0 when
        not asked). The seconds are the wall time, or with `scaled` the
        time at the reference speed, whose wall time goes to `wall_times`.
        The check sees the strategies harness factorized during this
        iteration."""
        from reference import Timed
        from workloads import capture_factorize
        outdir = os.path.join(self.workdir, f"iter{self._count}")
        self._count += 1
        os.mkdir(outdir)
        gc.collect()
        peak, strategies = 0, []
        if measure_memory:
            tracemalloc.start()
        try:
            with capture_factorize(self.dp, strategies):
                if scaled:
                    with Timed() as timed:
                        result = self.workload.execute(self.dp, self.inputs, outdir)
                    elapsed = timed.scaled
                    self.wall_times.append(timed.wall)
                else:
                    start = time.perf_counter()
                    result = self.workload.execute(self.dp, self.inputs, outdir)
                    elapsed = time.perf_counter() - start
            if measure_memory:
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            if measure_memory:
                tracemalloc.stop()
        out = self.workload.check(self.dp, self.inputs, result, outdir, strategies)
        shutil.rmtree(outdir)
        self.attempted += out.runs
        self.failed += out.failed
        self.problems += out.problems
        self.steps = out.steps
        if not self.quality:
            self.quality = out.quality
        elif out.quality.get("quality_error") != self.quality.get("quality_error"):
            self.problems.append("quality differs between iterations of one seed")
        return elapsed, peak


def _measure(it: Iterations, seconds: float) -> list[float]:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        times.append(it.run(scaled=True)[0])
    return times


def _measure_traced(it: Iterations, dp, seconds: float):
    """Alternate untraced and traced iterations; per-layer metrics are the
    medians over the traced ones."""
    from spans import Instrumentation, Tracer, layer_metrics
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_ITERATIONS
           or time.perf_counter() - start < seconds):
        plain.append(it.run()[0])
        tracer = Tracer()
        with Instrumentation(tracer, dp):
            traced.append(it.run()[0])
        layers.append(layer_metrics(tracer))
    merged = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    merged["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return merged, plain, traced


def _parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description="dpsrgd benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    _pin_threads()
    dp = _import_package()
    if dp is None:
        print(f"error: no dpsrgd sources under {SRC}", file=sys.stderr)
        return 2
    args = _parse_args(argv)
    from spans import LAYER_TOTALS, layer_unit
    from workloads import GENERATOR, PREDICTIONS, WORKLOADS
    workload = WORKLOADS[args.workload]

    phases = {}
    clock = time.perf_counter()
    verified, verify_s, verify_log = _verify_gate(dp)
    if not verified:
        print(verify_log, file=sys.stderr, end="")
    phases["verify"], clock = _lap(clock)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup = Setup(workload, dp, args.seed)
        for _ in range(SETUP_REPEATS):
            inputs = None  # drop the last inputs before building the next
            inputs = setup()
        phases["setup"], clock = _lap(clock)
        it = Iterations(workload, dp, inputs, workdir)
        peak = it.run(measure_memory=not args.trace)[1]  # untimed warm-up
        phases["warmup"], clock = _lap(clock)
        details = {"workload": workload.name, "seed": args.seed,
                   "environment": _environment(dp), "generator": GENERATOR,
                   "verify_s": verify_s, "phases_s": phases}
        if args.trace:
            metrics, plain, traced = _measure_traced(it, dp, args.seconds)
            metrics["verify.s"] = verify_s
            for name in PREDICTIONS[workload.name]["zero"]:
                if metrics[name] != 0:
                    it.problems.append(f"predicted zero, got {name}={metrics[name]}")
            for name in PREDICTIONS[workload.name]["nonzero"]:
                if metrics[name] == 0:
                    it.problems.append(f"predicted nonzero, got {name}=0")
            details["largest_self_time"] = max(LAYER_TOTALS, key=metrics.get)
            details["run_s_untraced"] = plain
            details["run_s_traced"] = traced
            units = {}
        else:
            times = _measure(it, args.seconds)
            run_s = statistics.median(times)
            metrics = {"run_s": run_s, "steps_per_s": it.steps / run_s,
                       "setup_s": statistics.median(setup.times),
                       "peak_mem_mb": peak / 2**20,
                       "quality_error": it.quality.get("quality_error") or 0.0}
            details["run_s_samples"] = times
            details["run_wall_s_samples"] = it.wall_times
            details["setup_wall_s_median"] = statistics.median(setup.wall_times)
            units = UNITS
        phases["measure"], clock = _lap(clock)
        details.update(setup_blocks=len(setup.times), setup_min_s=min(setup.times),
                       setup_max_s=max(setup.times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details["quality"] = it.quality
    details["problems"] = it.problems
    for problem in it.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(details))
    result = {
        "correct": verified and not it.problems,
        "attempted": it.attempted,
        "failed": it.failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or layer_unit(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _lap(since: float) -> tuple[float, float]:
    now = time.perf_counter()
    return now - since, now


if __name__ == "__main__":
    sys.exit(main())
