"""Pinned outputs: what a small run matrix writes, and the details of
acceptance criteria 1-9, kept in `outputs.json` next to this script, so
that a change which moves one bit of any output shows.

    python tests/golden/regenerate.py          # rewrite outputs.json
    python tests/golden/regenerate.py --check  # exit 1, naming each changed entry

The matrix runs every algorithm at epsilon inf and 2 over the clip grid
{0.5, 2} (and the tree at an infinite clip, whose noise srgd_sigma sizes
and whose summary states its theory regime) on two tasks: the synthetic
quadratic at dim 20, batch 64, 64 steps and 2 repeats, and a generated csv
dataset with a test split, whose single-pass runs gather their batches and
whose multi-epoch runs read consecutive slices. The multi-epoch methods
make 2 epochs of 8 batches on both. Each run keeps every line of its
summary CSV, and each trajectory file its final row and its column sums
at %.17g. The values are those of the BLAS the tests run on; the test
suite pins them exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from dpsrgd import harness, verify  # noqa: E402

GOLDEN = HERE / "outputs.json"
SYNTHETIC = dict(task="synthetic", dim=20, batch_size=64, steps=64, train_size=512, repeats=2)


def _write_dataset(root: str) -> None:
    """A 3-class, 4-feature csv dataset: 64 train rows in dataset.csv and
    32 test rows in dataset.test.csv, each class a shifted Gaussian."""
    rng = np.random.default_rng(0)
    centers = 3.0 * rng.standard_normal((3, 4))
    for name, rows in (("dataset.csv", 64), ("dataset.test.csv", 32)):
        labels = rng.integers(0, 3, rows)
        features = centers[labels] + rng.standard_normal((rows, 4))
        np.savetxt(os.path.join(root, name), np.column_stack([labels, features]),
                   fmt=["%d"] + ["%.17g"] * 4, delimiter=",", comments="",
                   header="label," + ",".join(f"f{i}" for i in range(4)))


def _specs(data_path: str):
    """(entry name, spec) of every run of the matrix."""
    csv = dict(task="csv-dataset", data_path=data_path, batch_size=8, steps=8, repeats=2)
    for task, base in (("synthetic", SYNTHETIC), ("csv", csv)):
        for algorithm, algo in harness._ALGORITHMS.items():
            keys = dict(base, algorithm=algorithm, clip_grid=(0.5, 2.0))
            if algo.multi_epoch:
                del keys["steps"]
                keys["epochs"] = 2
            for eps in (math.inf, 2.0):
                yield f"{task}/{algorithm}/eps={eps:g}", harness.ExperimentSpec(
                    **keys, epsilon=eps)
    yield "synthetic/accelerated_dp_srgd/eps=2/clip=inf", harness.ExperimentSpec(
        **SYNTHETIC, algorithm="accelerated_dp_srgd", epsilon=2.0, clip_grid=(math.inf,))


def _run_entries(name: str, spec, out_dir: str) -> dict:
    """Every line of the summary CSV of one spec, and each trajectory's
    final row and column sums."""
    summary = os.path.join(out_dir, name.replace("/", "_") + ".csv")
    table, _ = harness.run_experiment(spec, on_run=partial(harness.write_trajectory, summary))
    harness.emit_csv(table, summary)
    entries = {f"{name}/summary": Path(summary).read_text(encoding="utf-8").splitlines()}
    stem = Path(summary).stem
    for traj in Path(out_dir).glob(f"{stem}_traj_*.csv"):
        index = traj.stem.rsplit("_", 1)[1]
        lines = traj.read_text(encoding="utf-8").splitlines()
        columns = zip(*(line.split(",") for line in lines[2:]))
        entries[f"{name}/traj_{index}"] = {
            "final": lines[-1],
            "sums": ["%.17g" % sum(map(float, col)) if col[0] else "" for col in columns]}
    return entries


def outputs() -> dict:
    """Every pinned entry, by name."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        _write_dataset(tmp)
        for name, spec in _specs(tmp):
            out.update(_run_entries(name, spec, tmp))
    for i in range(1, 10):
        result = getattr(verify, f"criterion_{i}")()
        detail = re.sub(r" \[over time budget: .*\]$", "", result.detail)
        out[f"criterion_{i}"] = f"{result.status} {detail}"
    return out


def changed(got: dict, want: dict) -> list[str]:
    """Names of the entries that differ, are new, or are gone."""
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with outputs.json instead of rewriting it")
    args = parser.parse_args(argv)
    got = outputs()
    if not args.check:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} entries to {GOLDEN}")
        return 0
    names = changed(got, json.loads(GOLDEN.read_text(encoding="utf-8")))
    for name in names:
        print(f"changed: {name}")
    print(f"{len(names)} of {len(got)} entries changed")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
