"""The benchmark's three workloads: seeded inputs, one measured iteration,
and the checks on its outputs.

Each workload builds its inputs from the seed in `setup` and hands the
program only those built inputs; `execute` is the measured work; `check`
inspects the outputs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np


# Seeded MNIST-shaped data: `classes` prototypes over `pixels` pixels, a
# share `ink` of each prototype's pixels set to U(ink_lo, 1), every example
# its class prototype plus N(0, noise^2) per pixel, clipped to [0, 1], with a
# constant bias column appended; `n_eval` held-out rows. `noise` sets how
# hard the classes are to tell apart. Recorded in every result.
GENERATOR = {"classes": 10, "pixels": 784, "ink": 0.2, "ink_lo": 0.5, "noise": 0.8,
             "n_eval": 10000}


def mnist_shaped_task(dp, seed: int, n_train: int):
    """A LogisticTask of n_train training and GENERATOR["n_eval"] held-out
    generated examples."""
    g = GENERATOR
    rng = np.random.default_rng(seed)
    inked = rng.random((g["classes"], g["pixels"])) < g["ink"]
    protos = inked * rng.uniform(g["ink_lo"], 1.0, (g["classes"], g["pixels"]))

    def split(n: int):
        labels = rng.integers(0, g["classes"], n)
        feats = np.empty((n, g["pixels"] + 1))
        feats[:, -1] = 1.0
        for lo in range(0, n, 10000):  # chunks bound the temporary arrays
            hi = min(n, lo + 10000)
            block = rng.standard_normal((hi - lo, g["pixels"]), dtype=np.float32)
            block *= g["noise"]
            block += protos[labels[lo:hi]]
            np.clip(block, 0.0, 1.0, out=feats[lo:hi, :-1])
        return feats, labels

    train_x, train_y = split(n_train)
    eval_x, eval_y = split(g["n_eval"])
    return dp.objectives.LogisticTask(features=train_x, labels=train_y,
                                      num_classes=g["classes"],
                                      eval_features=eval_x, eval_labels=eval_y)


@dataclass
class Outcome:
    """What `check` found in one iteration's outputs."""

    steps: int = 0
    runs: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    def fail(self, runs: int, message: str):
        self.failed += runs
        self.problems.append(message)


def _check_records(out: Outcome, records, dp, ball=None):
    """Every run completed with a finite final iterate (inside `ball` when
    the method projects)."""
    for key, rec in records.items():
        out.runs += 1
        if not isinstance(rec, dp.optim.RunRecord):
            out.fail(1, f"run {key} aborted: {rec}")
            continue
        out.steps += rec.steps
        x = rec.final_x
        if not np.all(np.isfinite(x)):
            out.fail(1, f"run {key}: non-finite final iterate")
        elif ball is not None and not ball.contains(x):
            out.fail(1, f"run {key}: final iterate outside the ball")


@contextlib.contextmanager
def capture_factorize(dp, sink: list):
    """Collect every strategy `harness` obtains from counting.factorize."""
    original = dp.counting.factorize

    def capturing(*args, **kwargs):
        strategy = original(*args, **kwargs)
        sink.append(strategy)
        return strategy
    dp.counting.factorize = capturing
    try:
        yield sink
    finally:
        dp.counting.factorize = original


class MnistShapedSrgd:
    """accelerated_dp_srgd through harness.run_experiment on a generated
    60000x785, 10-class task: B=500, T=120 (one pass), eps=1, delta=1e-6.
    Quality: held-out cross-entropy of the final iterate."""

    name = "mnist_shaped_srgd"
    repeats = 1

    def setup(self, dp, seed: int):
        task = mnist_shaped_task(dp, seed, 60000)
        spec = dp.harness.ExperimentSpec(
            task="mnist", algorithm="accelerated_dp_srgd", epsilon=1.0,
            delta=1e-6, batch_size=500, steps=120, clip_grid=(1.0,),
            repeats=self.repeats, seed_base=seed)
        return task, spec.validate()

    def execute(self, dp, inputs, outdir: str):
        task, spec = inputs
        return dp.harness.run_experiment(spec, dataset=task)

    def check(self, dp, inputs, result, outdir: str, strategies) -> Outcome:
        task, spec = inputs
        table, records = result
        out = Outcome()
        _check_records(out, records, dp, dp.geometry.ConstraintBall(task.dim, spec.radius))
        row = table.rows[0]
        if row.excess_mean is None or not math.isfinite(row.excess_mean):
            out.fail(len(records), "no finite held-out loss")
        out.quality = {"quality_error": row.excess_mean, "heldout_loss": row.excess_mean,
                       "test_acc_pct": row.acc_mean}
        return out


class MemfTwoEpoch:
    """dp_srg_memf on the momentum_decay workload (momentum 0.9, decay
    e^-2.5) and dp_memf on the ones workload: 2 epochs x 40 batches of 500
    generated examples, eps=0.1, delta=1e-6, one lr, one run each.
    Quality: the momentum_decay strategy's error objective over the binary
    tree's on the same workload (mf_error_ratio)."""

    name = "memf_two_epoch"
    repeats = 1
    lr = 0.1
    clip = 0.3

    def setup(self, dp, seed: int):
        task = mnist_shaped_task(dp, seed, 40 * 500)
        common = dict(task="mnist", epsilon=0.1, delta=1e-6, epochs=2,
                      batch_size=500, momentum=0.9, lr_grid=(self.lr,),
                      clip_grid=(self.clip,), repeats=self.repeats, seed_base=seed)
        srg = dp.harness.ExperimentSpec(algorithm="dp_srg_memf", workload="momentum_decay",
                                        c_grid=(math.exp(-2.5),), **common)
        plain = dp.harness.ExperimentSpec(algorithm="dp_memf", workload="ones",
                                          c_grid=(0.0,), **common)
        return task, srg.validate(), plain.validate()

    def execute(self, dp, inputs, outdir: str):
        task, srg, plain = inputs
        return (dp.harness.run_experiment(srg, dataset=task),
                dp.harness.run_experiment(plain, dataset=task))

    def check(self, dp, inputs, result, outdir: str, strategies) -> Outcome:
        out = Outcome()
        (srg_table, srg_records), (plain_table, plain_records) = result
        _check_records(out, srg_records, dp)
        _check_records(out, plain_records, dp)
        ratios = {}
        for strategy in strategies:
            if strategy.sens > 1.0 + 1e-9:  # the runs using it break their budget
                out.fail(len(srg_records) if strategy.kind == "momentum_decay"
                         else len(plain_records),
                         f"{strategy.kind} strategy sensitivity {strategy.sens} > 1")
            base = dp.counting.tree_baseline_objective(strategy.workload, strategy.k,
                                                       strategy.b)
            ratios[strategy.kind] = strategy.objective / base
        if "momentum_decay" not in ratios:
            out.fail(len(srg_records), "no momentum_decay strategy was factorized")
        srg_row, plain_row = srg_table.rows[0], plain_table.rows[0]
        out.quality = {"quality_error": ratios.get("momentum_decay", 0.0),
                       "mf_error_ratio": ratios.get("momentum_decay"),
                       "mf_error_ratio_ones": ratios.get("ones"),
                       "heldout_loss": srg_row.excess_mean,
                       "test_acc_pct": srg_row.acc_mean,
                       "dp_memf_test_acc_pct": plain_row.acc_mean}
        return out


class SyntheticCliSweep:
    """`dpsrgd run <cfg>` in-process on the synthetic quadratic:
    accelerated_dp_srgd, eps=2, dim=20, steps=256, batch_size=256, two clip
    values x 16 repeats, writing the summary CSV and 32 trajectory CSVs.
    Set-up builds the config text and parses it; each iteration writes it
    to its output directory, because that write is a few system calls whose
    time swings several-fold with other load on the machine.
    Quality: the excess risk read back from the summary CSV, averaged
    over every run."""

    name = "synthetic_cli_sweep"
    clips = (0.5, 2.0)
    repeats = 16
    steps = 256

    def setup(self, dp, seed: int):
        text = "\n".join([
            "task=synthetic", "algorithm=accelerated_dp_srgd",
            "epsilon=2", "delta=1e-6", "dim=20", f"steps={self.steps}",
            "batch_size=256", "clip_grid=" + ",".join(map(str, self.clips)),
            f"repeats={self.repeats}", f"seed_base={seed}", ""])
        return text, dp.harness.ExperimentSpec.from_text(text).validate()

    def execute(self, dp, inputs, outdir: str):
        text, _ = inputs
        path = os.path.join(outdir, "sweep.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()):
            return dp.cli.main(["run", path, "--output", os.path.join(outdir, "summary.csv")])

    def check(self, dp, inputs, result, outdir: str, strategies) -> Outcome:
        _, spec = inputs
        expected = len(self.clips) * self.repeats
        out = Outcome(runs=expected)
        if result != 0:
            out.fail(expected, f"cli exit code {result}")
            return out
        table = dp.harness.parse_summary_csv(os.path.join(outdir, "summary.csv"))
        for key, want in (("epsilon", spec.epsilon), ("delta", spec.delta)):
            if float(table.header.get(key, "nan")) != want:
                out.fail(expected, f"summary header {key}={table.header.get(key)} != {want}")
                return out
        excess = [r.excess_mean for r in table.rows]
        if len(excess) != len(self.clips) or not all(
                e is not None and math.isfinite(e) for e in excess):
            out.fail(expected, f"summary rows malformed: {excess}")
            return out
        trajectories = sorted(f for f in os.listdir(outdir) if "_traj_" in f)
        if len(trajectories) != expected:
            out.fail(abs(expected - len(trajectories)),
                     f"{len(trajectories)} trajectory files, want {expected}")
        for name in trajectories:
            with open(os.path.join(outdir, name), encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh if line[0].isdigit()]
            cells = [float(r[1]) for r in rows] + [float(r[3]) for r in rows]
            if len(rows) != self.steps or not all(map(math.isfinite, cells)):
                out.fail(1, f"{name}: {len(rows)} finite rows, want {self.steps}")
            out.steps += len(rows)
        # Every row has the same number of runs, so this is the mean over runs.
        out.quality = {"quality_error": float(np.mean(excess)), "excess_risk": excess}
        return out


WORKLOADS = {w.name: w for w in (MnistShapedSrgd(), MemfTwoEpoch(), SyntheticCliSweep())}

# Structural predictions the traced run asserts: which call counters read
# zero and which do not on each workload.
PREDICTIONS = {
    "mnist_shaped_srgd": {
        "zero": ("counting.factorize.calls", "counting.mf_noise_stream.rows",
                 "optim.aborted"),
        "nonzero": ("counting.TreeState.calls", "counting.tree_ingest.calls",
                    "objectives.srg_mean.calls", "optim.run.calls"),
    },
    "memf_two_epoch": {
        "zero": ("counting.TreeState.calls", "counting.tree_ingest.calls",
                 "counting.tree_prefix.calls", "optim.aborted"),
        "nonzero": ("counting.factorize.calls", "counting.mf_noise_stream.rows",
                    "optim.run.calls"),
    },
    "synthetic_cli_sweep": {
        "zero": ("counting.factorize.calls", "counting.mf_noise_stream.rows",
                 "optim.aborted"),
        "nonzero": ("counting.TreeState.calls", "objectives.draw_batch.calls",
                    "harness.emit_csv.files", "optim.run.calls"),
    },
}
