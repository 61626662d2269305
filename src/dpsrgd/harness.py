"""Experiment orchestration: datasets, config files, sweeps, CSV output.

The harness resolves the privacy budget before it touches any data, derives
per-grid-point RNG streams by keyed splitting on the grid-point values (so
adding a grid point never perturbs existing ones), runs seeded repeats,
evaluates each finished run once, aggregates accuracy/excess-risk with
normal-approximation confidence intervals, and writes CSVs. It hands
each runner its batches and its noise stream, of its mechanism, σ and seed.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import hashlib
import io
import math
import operator
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import accounting, counting, optim
from .geometry import ConstraintBall
from .objectives import LogisticTask, SyntheticQuadratic

__all__ = [
    "ExperimentSpec",
    "MetricRow",
    "MetricTable",
    "load_dataset",
    "run_experiment",
    "emit_csv",
    "write_trajectory",
    "parse_summary_csv",
    "data_dir",
]

_TASKS = ("synthetic", "mnist", "csv-dataset")


@dataclass(frozen=True)
class _Algorithm:
    """What the harness reads of an algorithm: its `noise` ("tree", the
    workload whose strategy it fixes, or None: the strategy of the spec's
    workload), whether it takes the `accelerated` y/z/x updates, which read
    no lr, or SGD steps, whether it makes `epochs` passes, and whether it
    steps on recursive-gradient increments, not fresh gradients."""

    noise: str | None
    accelerated: bool = False
    multi_epoch: bool = False
    recursive: bool = False

    def lipschitz_bound(self, clip: float) -> bool:
        """Whether srgd_sigma's (L, M) bound sizes the noise: only for the
        tree at an infinite clip, where no clip bounds the release."""
        return self.noise == "tree" and math.isinf(clip)


_ALGORITHMS = {
    "accelerated_dp_srgd": _Algorithm("tree", accelerated=True, recursive=True),
    "independent_variant": _Algorithm("identity", accelerated=True),
    "dp_sgd": _Algorithm("identity"),
    "dp_ftrl": _Algorithm(None),
    "dp_memf": _Algorithm(None, multi_epoch=True),
    "dp_srg_memf": _Algorithm(None, multi_epoch=True, recursive=True),
}


@functools.cache
def _unread_keys(algorithm: str, task: str, workload: str) -> tuple:
    """(key, default, who ignores it) of each spec key that no run of
    `algorithm` on `task` and `workload` reads, for `validate` to reject
    when set: a scalar off its default, a grid (default None) of 2 entries."""
    algo, on = _ALGORITHMS[algorithm], f"{algorithm} on the {workload} workload"
    dataset = task != "synthetic"
    rows = [("workload", algo.noise is not None, algorithm),
            ("honest_selection", not dataset, "the synthetic task has no held-out set and"),
            ("epochs", not algo.multi_epoch, f"{algorithm} makes one pass of `steps` and"),
            ("lr_grid", algo.accelerated, algorithm),
            # c is the momentum_decay strategy's decay, an SGD recursion's weight
            ("c_grid", workload != "momentum_decay"
             and (algo.accelerated or not algo.recursive), on),
            # momentum drives the multi-epoch steps and shapes the momentum strategies
            ("momentum", not (algo.multi_epoch or workload.startswith("momentum")), on),
            ("steps", algo.multi_epoch,
             f"{algorithm} runs epochs x (n // batch_size) steps and"),
            ("radius", algo.multi_epoch and dataset, f"{algorithm} on the {task} task"),
            # the synthetic quadratic's shape; a dataset task reads its own
            *((key, dataset, f"the {task} task")
              for key in ("dim", "train_size", "curvature", "noise_scale"))]
    return tuple((key, None if key.endswith("_grid") else getattr(ExperimentSpec, key), who)
                 for key, unread, who in rows if unread)


DATA_DIR_ENV = "DPSRGD_DATA_DIR"


def data_dir(spec_path: str = "") -> str:
    """Dataset directory: explicit spec path, else the environment
    variable, else the current directory."""
    return spec_path or os.environ.get(DATA_DIR_ENV, ".")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentSpec:
    """One experiment: a task, an algorithm, a privacy target, sweep grids,
    and replication settings. Serializes to a flat key=value text config
    ('#' starts a comment); to_text raises for a value that would not round-trip."""

    task: str = "synthetic"
    algorithm: str = "dp_memf"
    epsilon: float = math.inf
    delta: float = 1e-6
    rho: float | None = None
    workload: str = "ones"
    epochs: int = 1
    batch_size: int = 500
    momentum: float = 0.9
    lr_grid: tuple = (0.5,)
    clip_grid: tuple = (1.0,)
    c_grid: tuple = (0.0,)
    repeats: int = 1
    seed_base: int = 0
    output: str = "results.csv"
    data_path: str = ""
    honest_selection: bool = False
    workers: int = 1
    dim: int = 20
    steps: int = 64
    radius: float = 1.0
    curvature: float = 1.0
    noise_scale: float = 0.5
    train_size: int = 4096

    def validate(self):
        if self.task not in _TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        algo = _ALGORITHMS[self.algorithm]
        if self.workload not in counting.WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        for key in _INT_KEYS:
            try:  # a numpy integer passes; a float, even 12.0, does not
                operator.index(getattr(self, key))
            except TypeError:
                raise ValueError(f"{key} must be an integer, "
                                 f"got {getattr(self, key)!r}") from None
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for name in ("lr_grid", "clip_grid", "c_grid"):
            grid = getattr(self, name)
            if type(grid) is not tuple:
                raise ValueError(f"{name} must be a tuple, got {grid!r}")
            if len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            if len(set(grid)) != len(grid):
                raise ValueError(f"{name} repeats an entry: {grid} reruns its seeds")
        if not all(0 < lr < math.inf for lr in self.lr_grid):
            raise ValueError("lr_grid entries must be positive and finite, "
                             f"got {self.lr_grid}")
        if not all(clip >= 0 for clip in self.clip_grid):
            raise ValueError("clip_grid entries must be nonnegative (inf disables "
                             f"clipping), got {self.clip_grid}")
        if not all(0 <= c <= 1 for c in self.c_grid):
            raise ValueError(f"c_grid entries must lie in [0, 1], got {self.c_grid}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0,1)")
        if self.rho is not None and not self.rho > 0:
            raise ValueError("rho must be positive when given")
        if self.rho is not None and math.isfinite(self.epsilon):
            raise ValueError(f"the budget is given twice, as epsilon={self.epsilon} and "
                             f"rho={self.rho}: give one of them")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed_base < 0:
            raise ValueError(f"seed_base must be >= 0, got {self.seed_base}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if min(self.dim, self.steps, self.train_size) < 1:
            raise ValueError("dim, steps and train_size must be >= 1, got "
                             f"{self.dim}, {self.steps}, {self.train_size}")
        if self.task == "synthetic" and self.batch_size > self.train_size:
            raise ValueError(f"batch_size={self.batch_size} exceeds train_size="
                             f"{self.train_size}, the synthetic dataset's size")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not 0 < self.curvature < math.inf:
            raise ValueError(f"curvature must be positive and finite, got {self.curvature}")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError("noise_scale must be nonnegative and finite, "
                             f"got {self.noise_scale}")
        # only where the workload is read; the unread-key loop names it otherwise
        if self.workload == "momentum_decay" and 0.0 in self.c_grid and algo.noise is None:
            raise ValueError("the momentum_decay workload needs a decay in (0, 1], "
                             f"but c_grid holds 0: {self.c_grid}")
        if self.algorithm == "dp_ftrl" and self.workload == "identity":
            raise ValueError("dp_ftrl on the identity workload is DP-SGD: use "
                             "algorithm=dp_sgd, with no workload")
        budget = self.rho if self.rho is not None else self.epsilon
        for clip in self.clip_grid if math.isfinite(budget) else ():
            if not algo.lipschitz_bound(clip) and math.isinf(clip):
                raise ValueError(f"{self.algorithm} with a finite budget needs a "
                                 "finite clip: its noise scales with the clip")
            if algo.lipschitz_bound(clip) and (
                    math.isinf(self.epsilon) or self.steps < 2):
                raise ValueError(f"{self.algorithm} at clip {clip} sizes its noise by "
                                 "srgd_sigma, which needs epsilon, not rho alone, and "
                                 f"steps >= 2: got epsilon={self.epsilon}, steps={self.steps}")
            if (algo.lipschitz_bound(clip) and self.task == "synthetic"
                    and self.train_size < 4):
                raise ValueError(f"{self.algorithm} at clip {clip} states srgd_sigma's "
                                 "theory regime in its summary, which needs "
                                 f"train_size >= 4, got train_size={self.train_size}")
        for key, default, who in _unread_keys(self.algorithm, self.task, self.workload):
            value = getattr(self, key)
            if len(value) > 1 if default is None else value != default:
                raise ValueError(f"{who} reads no {key}, so {key}={value} would " + (
                    "not be run" if default is not None else
                    "rerun one configuration under different seeds"))
        return self

    def to_text(self) -> str:
        lines = ["# experiment configuration"]
        for f in dataclasses.fields(self):
            text = _format_value(value := getattr(self, f.name))
            if "#" in text or text != text.strip() or len(text.splitlines()) > 1 or (
                    isinstance(value, str) and text == "none") or (
                    f.type == "tuple" and type(value) is not tuple):
                raise ValueError(f"config key {f.name!r}: from_text would not read "
                                 f"{text!r} back as written")
            lines.append(f"{f.name}={text}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentSpec":
        values = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in values:
                raise ValueError(f"config key {key!r} is given more than once")
            values[key] = val
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(values) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for name, val in values.items():
            try:
                kwargs[name] = _parse_value(val, fields[name].type)
            except ValueError as err:
                raise ValueError(f"config key {name!r}: {err}") from None
        return cls(**kwargs)


_INT_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentSpec) if f.type == "int")


def _format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, tuple):
        return ",".join(f"{x:.17g}" for x in v)
    return str(v)


def _parse_value(text: str, type_name: str):
    if text == "none":
        if not type_name.endswith("| None"):
            raise ValueError(f"none is not a value of type {type_name}")
        return None
    if type_name == "tuple":
        return tuple(float(x) for x in text.split(","))
    if type_name == "bool":
        if text not in ("true", "false"):
            raise ValueError(f"expected true/false, got {text!r}")
        return text == "true"
    if type_name == "int":
        return int(text)
    if type_name.startswith("float"):
        return float(text)
    return text


# ---------------------------------------------------------------------------
# datasets

_IDX_TRAIN = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")
_IDX_TEST = ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _open_maybe_gz(path: str):
    if os.path.exists(path):
        return open(path, "rb")
    if os.path.exists(path + ".gz"):
        return gzip.open(path + ".gz", "rb")
    raise FileNotFoundError(path)


def _read_idx(path: str) -> np.ndarray:
    """Parse one big-endian idx file (uint8 payload, 1-d labels or 3-d
    image stacks)."""
    with _open_maybe_gz(path) as fh:
        data = fh.read()
    if len(data) < 4:
        raise ValueError(f"{path}: truncated idx header")
    zero, dtype, ndim = data[0] << 8 | data[1], data[2], data[3]
    if zero != 0 or dtype != 0x08 or ndim not in (1, 3):
        raise ValueError(f"{path}: bad idx magic {data[:4].hex()}")
    if len(data) < 4 + 4 * ndim:
        raise ValueError(f"{path}: truncated idx header, {ndim} dimensions need "
                         f"{4 + 4 * ndim} bytes, the file has {len(data)}")
    dims = struct.unpack_from(f">{ndim}i", data, 4)
    if dims[0] == 0:
        raise ValueError(f"{path}: holds no {'images' if ndim == 3 else 'labels'}")
    payload = np.frombuffer(data, dtype=np.uint8, offset=4 + 4 * ndim)
    expected = int(np.prod(dims))
    if payload.size != expected:
        raise ValueError(f"{path}: payload {payload.size} != shape {dims}")
    return payload.reshape(dims)


def _read_idx_pair(root: str, names: tuple[str, str],
                   classes: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """(images, labels) from the idx files `names` under root: a 3-d image
    stack and 1-d labels, equal in count, each label below classes."""
    paths = [os.path.join(root, name) for name in names]
    images, labels = map(_read_idx, paths)
    if images.ndim != 3:
        raise ValueError(f"{paths[0]}: an image file must be 3-d (count, rows, "
                         f"columns), got shape {images.shape}")
    if labels.ndim != 1:
        raise ValueError(f"{paths[1]}: a label file must be 1-d, got shape {labels.shape}")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(f"{paths[0]} holds {images.shape[0]} images but {paths[1]} "
                         f"holds {labels.shape[0]} labels")
    if labels.max() >= classes:
        i = int(np.argmax(labels >= classes))
        raise ValueError(f"{paths[1]}: label {labels[i]} at entry {i} is not a class "
                         f"of the train split, 0 .. {classes - 1}")
    return images, labels


def _features(raw: np.ndarray, lo, span) -> np.ndarray:
    """The (n, p+1) float64 features of n raw rows (an image stack is
    flattened): (raw - lo) / span per column, then a bias column of ones,
    written in place into the one C-ordered array kept, so no float64 copy
    of the rows is made on the way."""
    flat = raw.reshape(raw.shape[0], -1)
    out = np.empty((flat.shape[0], flat.shape[1] + 1))
    scaled = out[:, :-1]
    np.subtract(flat, lo, out=scaled)
    scaled /= span
    out[:, -1] = 1.0
    return out


def load_dataset(path: str, format: str) -> LogisticTask:
    """Build a multinomial-logistic task from files at `path`.

    format="idx": `path` is a directory holding the standard four
    image/label files (optionally gzipped); pixels are scaled to [0,1].
    format="csv": `path` is the train file (header row, then
    label,feature,... rows); a sibling `<stem>.test.csv` supplies the
    held-out split when present, else the train split is held out too.
    Features are min-max normalized per column on train statistics
    (a constant column maps to zero). Both formats append a constant bias
    column. A held-out label outside the train split's classes, or a
    negative csv label, is rejected naming its file.
    """
    if format == "idx":
        train_x, train_y = _read_idx_pair(path, _IDX_TRAIN)
        test_x, test_y = _read_idx_pair(path, _IDX_TEST, int(train_y.max()) + 1)
        lo, span = 0.0, 255.0
    elif format == "csv":
        train_x, train_y = _read_label_csv(path)
        stem, ext = os.path.splitext(path)
        test_path = stem + ".test" + ext
        if os.path.exists(test_path):
            test_x, test_y = _read_label_csv(test_path, int(train_y.max()) + 1)
            if test_x.shape[1] != train_x.shape[1]:
                raise ValueError(f"{test_path}: {test_x.shape[1]} feature columns, "
                                 f"{path} has {train_x.shape[1]}")
        else:
            test_x, test_y = train_x, train_y
        lo = train_x.min(axis=0)
        span = train_x.max(axis=0) - lo
        span[span == 0] = 1.0
    else:
        raise ValueError(f"unknown dataset format {format!r}")
    features = _features(train_x, lo, span)
    return LogisticTask(features=features, labels=train_y,
                        num_classes=int(train_y.max()) + 1,
                        eval_features=features if test_x is train_x
                        else _features(test_x, lo, span), eval_labels=test_y)


def _read_label_csv(path: str, classes: float = math.inf):
    """(features, labels) of a label,feature,... file, shapes (n, p) and
    (n,), parsed into float64 and int64 buffers sized by the file's line
    count. Blank lines hold no row. A file with no data rows, a row whose
    width is not the header's, a cell that is not a finite number (an
    integer in the label column) or a label outside 0 .. classes - 1 is
    rejected here, naming the file and the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
        fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "label":
            raise ValueError(f"{path}: first column must be 'label'")
        features = np.empty((lines - 1, len(header) - 1))
        labels = np.empty(lines - 1, dtype=np.int64)
        n = 0
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} fields, the header has {len(header)}")
            try:
                label, values = int(row[0]), [float(v) for v in row[1:]]
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{where}: a feature cell is not finite: {row[1:]}")
            if not 0 <= label < classes:
                raise ValueError(f"{where}: label {label} is " + (
                    "negative" if label < 0 else
                    f"not a class of the train split, 0 .. {classes - 1}"))
            features[n], labels[n] = values, label
            n += 1
    if not n:
        raise ValueError(f"{path}: no data rows")
    # a blank line or a quoted cell spanning lines leaves the buffers' tails unused
    return features[:n], labels[:n]


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class MetricRow:
    algorithm: str
    workload: str
    lr: float
    clip: float
    c: float
    acc_mean: float | None
    acc_ci95: float | None
    excess_mean: float | None
    n_runs: int = 0
    n_aborted: int = 0
    selection_metric: float = -math.inf


@dataclass
class MetricTable:
    rows: list = field(default_factory=list)
    best: MetricRow | None = None
    header: dict = field(default_factory=dict)


def _stable_key(*parts) -> tuple:
    """Four uint32 words derived from the grid-point values themselves, so
    RNG streams are keyed by what is being run, not by grid position."""
    canon = "|".join(f"{p:.17g}" if isinstance(p, float) else str(p)
                     for p in parts)
    digest = hashlib.sha256(canon.encode("utf-8")).digest()
    return struct.unpack("<4I", digest[:16])


def _run_seed(seed_base: int, key: tuple, repeat: int) -> int:
    ss = np.random.SeedSequence(seed_base, spawn_key=key + (repeat,))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def _data_rng(seed: int) -> np.random.Generator:
    """The examples' generator: a child of the seed, which shares no draws
    with the noise or the target direction, both `default_rng(seed)`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))


def _resolve_budget(spec: ExperimentSpec) -> dict:
    """Privacy accounting up front, before any data is touched."""
    out = {"epsilon": spec.epsilon, "delta": spec.delta,  # rho_for_dp(inf, .) = inf
           "rho": accounting.rho_for_dp(spec.epsilon, spec.delta)
           if spec.rho is None else spec.rho}
    if not math.isinf(spec.epsilon):
        out["mu"] = accounting.mu_for_dp(spec.epsilon, spec.delta)
    return out


def _build_problem(spec: ExperimentSpec, event_log, dataset):
    if dataset is not None:
        if event_log is not None:
            event_log.append(("data", "provided"))
        return dataset
    if spec.task == "synthetic":
        rng = np.random.default_rng(spec.seed_base)
        direction = rng.standard_normal(spec.dim)
        direction /= np.linalg.norm(direction)
        if event_log is not None:
            event_log.append(("data", "synthetic"))
        return SyntheticQuadratic(dim=spec.dim, target=direction * 0.9 * spec.radius,
                                  curvature=spec.curvature,
                                  noise_scale=spec.noise_scale, radius=spec.radius)
    fmt = "idx" if spec.task == "mnist" else "csv"
    root = data_dir(spec.data_path)
    path = root if spec.task == "mnist" else os.path.join(root, "dataset.csv")
    if event_log is not None:
        event_log.append(("data", path))
    return load_dataset(path, fmt)


def _index_dtype(n: int) -> np.dtype:
    """The narrowest unsigned integer dtype that holds every index of n
    examples (uint16 up to 65536 examples)."""
    return np.min_scalar_type(n - 1)


def _pass_stream(rng, n: int, B: int, T: int):
    """T index batches of size B, sampled without replacement within each
    pass: one permutation of the n examples per n // B steps, handed out in
    disjoint slices. The permutation is `rng.permutation(n)`'s, in the same
    order and leaving rng in the same state, held in `_index_dtype(n)`: an
    arange shuffled in place, as `permutation` builds its own int64 one."""
    per_pass = n // B
    for t in range(T):
        j = t % per_pass
        if j == 0:
            order = np.arange(n, dtype=_index_dtype(n))
            rng.shuffle(order)
        yield order[j * B:(j + 1) * B]


def _max_participation(spec: ExperimentSpec, n: int) -> int:
    """Most steps any one training example can appear in: `epochs` for the
    multi-epoch methods, 1 for synthetic single-pass runs (fresh examples
    every step), and the number of passes of the batch stream otherwise."""
    if _ALGORITHMS[spec.algorithm].multi_epoch:
        return spec.epochs
    if spec.task == "synthetic":
        return 1
    return -(-spec.steps // (n // spec.batch_size))


def _noise_sigma(rho: float, clip: float, B: int, sens: float) -> float:
    """Noise std of every clip-calibrated run at rho-zCDP, 0 at rho = inf:
    (clip / B) * sens / sqrt(2 rho). One example moves the released mean of
    clipped vectors by at most clip / B per step it is in; sens is the
    mechanism's: the strategy's (1 for the identity strategy's i.i.d. rows
    of dp_sgd and independent_variant), or `tree_sens(T)` for the tree."""
    if math.isinf(rho):
        return 0.0
    return clip / B * sens / math.sqrt(2.0 * rho)


def _single_run(spec, problem, n, rho, lr, clip, c, seed, strategy):
    algo = _ALGORITHMS[spec.algorithm]
    B = spec.batch_size
    T = spec.steps
    ball = ConstraintBall(problem.dim, spec.radius)
    beta = 2.0 * problem.smoothness * T
    if algo.lipschitz_bound(clip):  # tree rows add to raw increments, beta times its scale
        sigma = 0.0 if math.isinf(spec.epsilon) else beta * accounting.srgd_sigma(
            problem.lipschitz, problem.smoothness, ball.diameter, spec.epsilon,
            spec.delta, B, beta, T)
    else:
        sigma = _noise_sigma(rho, clip, B, counting.tree_sens(T) if strategy is None
                             else strategy.sens)

    if algo.multi_epoch:
        # b fixed batches, the same in the same order every epoch; on the
        # synthetic task one dataset per experiment (seeded by seed_base
        # alone), shared by every grid point and repeat
        b = strategy.b
        data = (problem.draw_batch(_data_rng(spec.seed_base), b * B)
                if spec.task == "synthetic" else np.arange(b * B, dtype=_index_dtype(n)))
        batches = [data[j * B:(j + 1) * B] for j in range(b)] * strategy.k
    elif spec.task == "synthetic":
        rng = _data_rng(seed)
        batches = (problem.draw_batch(rng, B) for _ in range(T))
    else:
        batches = _pass_stream(_data_rng(seed), n, B, T)

    noise = (counting.tree_rows(sigma, problem.dim, seed, T) if strategy is None
             else counting.mf_noise_stream(strategy, sigma, problem.dim, seed))
    if not algo.accelerated:
        # c may shape a non-recursive strategy, whose recursion is at decay
        # 0; the single-pass ones take projected steps, no momentum
        cfg = optim.MemfConfig(steps=strategy.steps, c_clip=clip, lr=lr,
                               decay=c if algo.recursive else 0.0,
                               momentum=spec.momentum if algo.multi_epoch else 0.0,
                               ball=None if algo.multi_epoch else ball)
        return optim.run_dp_srg_memf(problem, batches, noise, cfg)
    run = optim.run_accelerated_dp_srgd if algo.recursive else optim.run_independent_variant
    return run(problem, batches, noise, optim.SrgdConfig(T=T, beta=beta, ball=ball, clip=clip))


def _hit_percent(hits: np.ndarray) -> float:
    """Accuracy in percent of a hit mask: 100 * (hits / rows)."""
    return 100.0 * (np.count_nonzero(hits) / len(hits))


def _selection_metrics(spec, problem, x):
    """(selection metric, reported accuracy, excess) of a finished run's
    final iterate x, from its one `heldout_pass`. With honest selection,
    selection uses the even-index half of that pass's hit mask and the
    reported accuracy the odd half; otherwise both use the whole mask, or
    the negated excess and no accuracy for a task without one."""
    excess, hits = problem.heldout_pass(x)
    if hits is None:
        return -excess, None, excess
    select, report = (hits[0::2], hits[1::2]) if spec.honest_selection else (hits, hits)
    return _hit_percent(select), _hit_percent(report), excess


def run_experiment(spec: ExperimentSpec, dataset=None, event_log=None, on_run=None):
    """Execute the sweep: budget accounting first, then data, then one
    strategy per c for the algorithms that add a strategy's noise and the
    summary header, then `repeats` seeded runs per grid point. Returns
    (MetricTable, records) where records maps (lr, clip, c, repeat) ->
    RunRecord or RunAborted.

    Each finished run's final iterate is evaluated once, by the worker that
    ran it, after the runner has freed its noise state. With `on_run`,
    `on_run(index, key, outcome)` gets each run in job order in place of
    `records`, which then comes back empty, so the sweep holds one run's
    series plus three floats per finished run. `index` is the run's place
    among the sorted keys of every job, aborted ones included; with
    `functools.partial(write_trajectory, path)` it numbers the files.
    """
    spec.validate()
    algo = _ALGORITHMS[spec.algorithm]
    budget = _resolve_budget(spec)
    if event_log is not None:
        event_log.append(("budget", dict(budget)))
    problem = _build_problem(spec, event_log, dataset)
    if spec.honest_selection and not isinstance(problem, LogisticTask):
        raise ValueError(f"honest_selection splits a held-out set, and a "
                         f"{type(problem).__name__} has none")
    if spec.honest_selection and (rows := len(problem._heldout()[1])) < 2:
        raise ValueError("honest_selection splits the held-out set into two halves, "
                         f"which needs at least 2 rows, got {rows}")
    rho = budget["rho"]
    n = problem.n_train if spec.task != "synthetic" else spec.train_size
    if n < spec.batch_size:
        raise ValueError(f"batch_size={spec.batch_size} exceeds the {n} examples")
    participation = _max_participation(spec, n)
    if participation > 1 and math.isfinite(rho) and not algo.multi_epoch:
        raise ValueError(
            f"{spec.steps} steps of batch size {spec.batch_size} over {n} examples "
            f"use some examples in up to {participation} steps; the noise of "
            f"{spec.algorithm} is calibrated for at most one, so the reported "
            "budget would not hold (an infinite epsilon runs any number of passes)")

    # v + 0 is v, bit for bit, except -0.0 + 0, which is 0.0: a -0 entry is
    # the grid point 0, with its seeds, strategy and summary cells
    lrs, clips, cs = ([v + 0 for v in g] for g in (spec.lr_grid, spec.clip_grid, spec.c_grid))
    grid = [(lr, clip, c) for lr in lrs for clip in clips for c in cs]
    strategies = {}
    if algo.noise != "tree":
        k, b = (spec.epochs, n // spec.batch_size) if algo.multi_epoch else (1, spec.steps)
        strategies = {c: counting.build_strategy(algo.noise or spec.workload, k, b,
                                                 momentum=spec.momentum, decay=c)
                      for c in cs}
    table = MetricTable(header={**{k: _format_value(v) for k, v in budget.items()},
                                "task": spec.task, "algorithm": spec.algorithm,
                                "workload": spec.workload,
                                "max_participation": str(participation)})
    calibration = "none" if math.isinf(rho) else "+".join(sorted({
        "lipschitz_bound" if algo.lipschitz_bound(clip) else "clip" for clip in clips}))
    table.header["noise_calibration"] = calibration
    if not algo.accelerated:  # the matrix-factorization runs: the strategies they used
        table.header["strategy_sens"] = _format_value(
            max(s.sens for s in strategies.values()))
    if spec.task == "synthetic" and "lipschitz_bound" in calibration:
        # the theory regime of srgd_sigma, which sized some of the runs
        report, _, _ = accounting.build_regime_report(
            spec.train_size, problem.dim, problem.lipschitz, problem.smoothness,
            2.0 * spec.radius, spec.epsilon, spec.delta)
        table.header.update((f"regime_{k}", _format_value(v)) for k, v in report.items())

    jobs = []
    for lr, clip, c in grid:
        key = _stable_key(spec.algorithm, spec.workload, lr, clip, c)
        for rep in range(spec.repeats):
            jobs.append((lr, clip, c, rep, _run_seed(spec.seed_base, key, rep)))
    index = {key: i for i, key in enumerate(sorted({job[:4] for job in jobs}))}
    records = {}
    if on_run is None:
        on_run = lambda _i, key, outcome: records.__setitem__(key, outcome)

    def work(job):
        lr, clip, c, rep, seed = job
        try:
            record = _single_run(spec, problem, n, rho, lr, clip, c, seed, strategies.get(c))
        except optim.RunAborted as exc:
            return job, exc, None
        return job, record, _selection_metrics(spec, problem, record.final_x)

    # Results are taken in job order: with several workers a finished run
    # waits only for the jobs before it.
    pool = ThreadPoolExecutor(max_workers=spec.workers) if spec.workers > 1 else None
    # (selection metric, accuracy, excess) per finished run, None if aborted
    by_point: dict = {}
    try:
        for job, outcome, metrics in (pool.map if pool else map)(work, jobs):
            key = job[:4]
            by_point.setdefault(key[:3], []).append(metrics)
            on_run(index[key], key, outcome)
            outcome = None  # free this run's series before the next one runs
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    for (lr, clip, c) in grid:
        outcomes = by_point[(lr, clip, c)]
        triples = [t for t in outcomes if t is not None]
        row = MetricRow(algorithm=spec.algorithm, workload=spec.workload,
                        lr=lr, clip=clip, c=c, acc_mean=None, acc_ci95=None,
                        excess_mean=None, n_runs=len(triples),
                        n_aborted=len(outcomes) - len(triples))
        if triples:
            sel = np.array([t[0] for t in triples], dtype=np.float64)
            accs = [t[1] for t in triples]
            excs = [t[2] for t in triples]
            row.selection_metric = float(sel.mean())
            if accs[0] is not None:
                arr = np.array(accs, dtype=np.float64)
                row.acc_mean = float(arr.mean())
                row.acc_ci95 = _ci95(arr)
            if excs[0] is not None:
                row.excess_mean = float(np.mean(np.array(excs, dtype=np.float64)))
        table.rows.append(row)

    viable = [r for r in table.rows if r.n_runs > 0]
    if viable:
        table.best = max(viable, key=lambda r: r.selection_metric)
    return table, records


def _ci95(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / math.sqrt(values.size))


# ---------------------------------------------------------------------------
# CSV emission


_SUMMARY_COLUMNS = ("algorithm", "workload", "lr", "clip", "c",
                    "acc_mean", "acc_ci95", "excess_mean")


def _cell(v) -> str:
    if v is None:
        return ""
    return f"{v:.17g}"


def write_trajectory(summary_path: str, index: int, key, outcome) -> str | None:
    """Write the trajectory CSV of run `key` next to the summary CSV at
    `summary_path`, as `<stem>_traj_<index>.csv`; return its path, or None
    for an aborted run, which has no trajectory file."""
    if not isinstance(outcome, optim.RunRecord):
        return None
    stem, _ = os.path.splitext(summary_path)
    path = f"{stem}_traj_{index}.csv"
    # the rows csv.writer would write: numeric cells need no quoting, %.17g
    # of a float64 (a float) is _cell's text, and no potential leaves phi empty
    series = (outcome.train_loss, outcome.potential, outcome.noise_norm, outcome.grad_norm)
    phi = "%.17g" if outcome.potential is not None else ""
    row = f"%d,%.17g,{phi},%.17g,%.17g\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# run={key}\nstep,loss,phi,noise_norm,grad_norm\r\n")
        fh.writelines(row % cells for cells in zip(
            range(outcome.steps), *(s for s in series if s is not None)))
    return path


def emit_csv(table: MetricTable, path: str):
    """Write the summary CSV at `path` (header comments carry the budget
    and regime report); absent metrics are empty cells, never zeros.
    Returns the paths written, [path]. A run's trajectory file is written
    as it finishes, by run_experiment(spec, on_run=functools.partial(
    write_trajectory, path))."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, val in table.header.items():
            fh.write(f"# {key}={val}\n")
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_COLUMNS)
        for r in table.rows:
            writer.writerow([r.algorithm, r.workload, _cell(r.lr), _cell(r.clip),
                             _cell(r.c), _cell(r.acc_mean), _cell(r.acc_ci95),
                             _cell(r.excess_mean)])
    return [path]


def parse_summary_csv(path: str) -> MetricTable:
    """Inverse of emit_csv."""
    table = MetricTable()
    with open(path, newline="", encoding="utf-8") as fh:
        rows, line_nums = [], []
        for line_num, raw in enumerate(fh, 1):
            if raw.startswith("#"):
                body = raw[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    table.header[k] = v
                continue
            rows.append(raw)
            line_nums.append(line_num)
    reader = csv.reader(io.StringIO("".join(rows)))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: no table header row")
    if tuple(header) != _SUMMARY_COLUMNS:
        raise ValueError(f"{path}, line {line_nums[0]}: unexpected summary header "
                         f"{header}")
    opt = lambda s: None if s == "" else float(s)
    for row in reader:
        where = f"{path}, line {line_nums[reader.line_num - 1]}"
        if len(row) != len(header):
            raise ValueError(f"{where}: {len(row)} fields, the header has {len(header)}")
        try:
            table.rows.append(MetricRow(
                algorithm=row[0], workload=row[1], lr=float(row[2]),
                clip=float(row[3]), c=float(row[4]), acc_mean=opt(row[5]),
                acc_ci95=opt(row[6]), excess_mean=opt(row[7])))
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    return table
