"""Experiment harness: config round-trips, dataset IO, event ordering,
determinism, sweep isolation, and CSV emission."""

import gzip
import math
import os
import struct

import numpy as np
import pytest

from dpsrgd import counting, optim
from dpsrgd.counting import build_workload, factorize
from dpsrgd.harness import (
    ExperimentSpec,
    MetricRow,
    MetricTable,
    _ci95,
    data_dir,
    emit_csv,
    load_dataset,
    parse_summary_csv,
    run_experiment,
    save_csv,
)
from dpsrgd.objectives import LogisticTask, SyntheticQuadratic
from dpsrgd.optim import RunAborted, RunRecord

IDX_NAMES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


# ---------------------------------------------------------------------------
# experiment configuration round-trips


def test_spec_text_round_trip():
    spec = ExperimentSpec(task="synthetic", algorithm="dp_sgd",
                          epsilon=math.inf, delta=1e-7, rho=None,
                          workload="momentum", lr_grid=(0.1, 0.25),
                          clip_grid=(math.inf,), c_grid=(0.0, 0.5),
                          repeats=3, honest_selection=True, output="out.csv",
                          noise_scale=0.125)
    text = spec.to_text()
    assert ExperimentSpec.from_text(text) == spec


def test_spec_parses_comments_and_blank_lines():
    text = "\n# leading comment\nalgorithm=dp_ftrl  # trailing comment\n\n"
    spec = ExperimentSpec.from_text(text)
    assert spec.algorithm == "dp_ftrl"


def test_spec_rejects_unknown_keys_and_malformed_lines():
    with pytest.raises(ValueError):
        ExperimentSpec.from_text("no_such_field=1\n")
    with pytest.raises(ValueError):
        ExperimentSpec.from_text("just a bare line\n")


def test_spec_rejects_the_removed_double_noise_key():
    with pytest.raises(ValueError, match="unknown config keys: \\['double_noise'\\]"):
        ExperimentSpec.from_text("algorithm=dp_srg_memf\ndouble_noise=true\n")


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(algorithm="gradient_wizard").validate()
    with pytest.raises(ValueError):
        ExperimentSpec(task="audio").validate()
    with pytest.raises(ValueError):
        ExperimentSpec(lr_grid=()).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(epsilon=0.0).validate()
    with pytest.raises(ValueError):
        ExperimentSpec(delta=1.0).validate()


@pytest.mark.parametrize("clip_grid", [(-1.0,), (1.0, -0.5), (math.nan,), (-math.inf,)])
def test_spec_rejects_negative_or_nan_clip(clip_grid):
    # a negative clip flips every clipped gradient: the run ascends
    with pytest.raises(ValueError, match="clip_grid"):
        _tiny_spec(clip_grid=clip_grid).validate()
    with pytest.raises(ValueError, match="clip_grid"):
        _tiny_spec(algorithm="accelerated_dp_srgd", clip_grid=clip_grid).validate()


@pytest.mark.parametrize("lr_grid", [(0.0,), (0.1, -0.1), (math.nan,), (math.inf,)])
def test_spec_rejects_nonpositive_or_nan_lr(lr_grid):
    with pytest.raises(ValueError, match="lr_grid"):
        _tiny_spec(lr_grid=lr_grid).validate()


@pytest.mark.parametrize("field,bad", [
    ("curvature", 0.0), ("curvature", -1.0), ("curvature", math.nan),
    ("curvature", math.inf), ("noise_scale", -0.5), ("noise_scale", math.nan),
    ("noise_scale", math.inf),
    ("radius", 0.0), ("radius", -1.0), ("radius", math.inf), ("radius", math.nan),
    ("dim", 0), ("steps", 0), ("train_size", 0)])
def test_spec_rejects_a_bad_task_shape_before_the_budget(field, bad):
    # a negative noise_scale ran to completion with a sign-flipped clamp,
    # NaN or inf aborted every run, and the rest failed only mid-run
    spec = _tiny_spec(algorithm="accelerated_dp_srgd", **{field: bad})
    with pytest.raises(ValueError, match=field):
        spec.validate()
    log = []
    with pytest.raises(ValueError, match=field):
        run_experiment(spec, event_log=log)
    assert log == []


@pytest.mark.parametrize("algorithm", ["accelerated_dp_srgd", "independent_variant"])
def test_spec_rejects_an_lr_grid_where_lr_is_unused(algorithm):
    # the accelerated runners never read lr: each entry would rerun one
    # configuration under another seed and report it as another point
    with pytest.raises(ValueError, match="lr_grid"):
        _tiny_spec(algorithm=algorithm, lr_grid=(0.1, 0.2)).validate()
    _tiny_spec(algorithm=algorithm, lr_grid=(0.2,)).validate()
    _tiny_spec(algorithm="dp_sgd", lr_grid=(0.1, 0.2)).validate()


def test_spec_accepts_zero_clip():
    _tiny_spec(clip_grid=(0.0, 1.0)).validate()


@pytest.mark.parametrize("algorithm", ["dp_sgd", "dp_ftrl", "dp_memf", "dp_srg_memf"])
def test_spec_rejects_infinite_clip_with_finite_budget(algorithm):
    with pytest.raises(ValueError, match="finite clip"):
        _tiny_spec(algorithm=algorithm, clip_grid=(1.0, math.inf)).validate()
    with pytest.raises(ValueError, match="finite clip"):
        _tiny_spec(algorithm=algorithm, epsilon=math.inf, rho=0.5,
                   clip_grid=(math.inf,)).validate()
    _tiny_spec(algorithm=algorithm, epsilon=math.inf, clip_grid=(math.inf,)).validate()


@pytest.mark.parametrize("algorithm", ["accelerated_dp_srgd", "independent_variant"])
def test_infinite_clip_runs_where_noise_comes_from_lipschitz_bounds(algorithm):
    table, _ = run_experiment(_tiny_spec(algorithm=algorithm, clip_grid=(math.inf,),
                                         repeats=1))
    assert (table.rows[0].n_runs, table.rows[0].n_aborted) == (1, 0)


def test_data_dir_resolution(monkeypatch):
    monkeypatch.delenv("DPSRGD_DATA_DIR", raising=False)
    assert data_dir("/explicit") == "/explicit"
    assert data_dir() == "."
    monkeypatch.setenv("DPSRGD_DATA_DIR", "/from-env")
    assert data_dir() == "/from-env"
    assert data_dir("/explicit") == "/explicit"


# ---------------------------------------------------------------------------
# idx dataset files


def _write_idx_images(path, arr):
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, 0x08, 3]))
        fh.write(struct.pack(">3i", *arr.shape))
        fh.write(arr.astype(np.uint8).tobytes())


def _write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, 0x08, 1]))
        fh.write(struct.pack(">i", labels.shape[0]))
        fh.write(labels.astype(np.uint8).tobytes())


def _make_idx_dir(root, n_train=20, n_test=8, side=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    train_x = rng.integers(0, 256, size=(n_train, side, side))
    train_y = rng.integers(0, classes, size=n_train)
    test_x = rng.integers(0, 256, size=(n_test, side, side))
    test_y = rng.integers(0, classes, size=n_test)
    _write_idx_images(os.path.join(root, IDX_NAMES[0]), train_x)
    _write_idx_labels(os.path.join(root, IDX_NAMES[1]), train_y)
    _write_idx_images(os.path.join(root, IDX_NAMES[2]), test_x)
    _write_idx_labels(os.path.join(root, IDX_NAMES[3]), test_y)
    return train_x, train_y, test_x, test_y


def test_idx_round_trip(tmp_path):
    train_x, train_y, test_x, test_y = _make_idx_dir(str(tmp_path))
    task = load_dataset(str(tmp_path), "idx")
    assert task.n_train == 20
    assert task.num_classes == int(train_y.max()) + 1
    # pixels scaled to [0,1] plus a trailing bias column
    assert task.features.shape == (20, 17)
    np.testing.assert_allclose(task.features[:, :-1],
                               train_x.reshape(20, -1) / 255.0, rtol=0)
    np.testing.assert_array_equal(task.features[:, -1], np.ones(20))
    np.testing.assert_array_equal(task.labels, train_y)
    np.testing.assert_allclose(task.eval_features[:, :-1],
                               test_x.reshape(8, -1) / 255.0, rtol=0)
    np.testing.assert_array_equal(task.eval_labels, test_y)


def test_idx_gzip_files_are_accepted(tmp_path):
    train_x, train_y, _, _ = _make_idx_dir(str(tmp_path))
    for name in IDX_NAMES:
        plain = tmp_path / name
        with gzip.open(str(plain) + ".gz", "wb") as fh:
            fh.write(plain.read_bytes())
        plain.unlink()
    task = load_dataset(str(tmp_path), "idx")
    np.testing.assert_allclose(task.features[:, :-1],
                               train_x.reshape(20, -1) / 255.0, rtol=0)
    np.testing.assert_array_equal(task.labels, train_y)


def test_idx_corruption_errors(tmp_path):
    _make_idx_dir(str(tmp_path))
    images = tmp_path / IDX_NAMES[0]
    raw = bytearray(images.read_bytes())

    bad = bytearray(raw)
    bad[2] = 0x0D  # wrong element dtype
    images.write_bytes(bytes(bad))
    with pytest.raises(ValueError):
        load_dataset(str(tmp_path), "idx")

    bad = bytearray(raw)
    bad[0] = 1  # nonzero magic prefix
    images.write_bytes(bytes(bad))
    with pytest.raises(ValueError):
        load_dataset(str(tmp_path), "idx")

    images.write_bytes(bytes(raw[:-5]))  # truncated payload
    with pytest.raises(ValueError):
        load_dataset(str(tmp_path), "idx")

    images.write_bytes(b"\x00\x00")
    with pytest.raises(ValueError):
        load_dataset(str(tmp_path), "idx")

    images.unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(str(tmp_path), "idx")


# ---------------------------------------------------------------------------
# csv dataset files


def test_csv_round_trip_and_test_sibling(tmp_path):
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((12, 3))
    labels = rng.integers(0, 2, size=12)
    train = tmp_path / "data.csv"
    save_csv(labels, feats, str(train))

    task = load_dataset(str(train), "csv")
    # without a test sibling the split falls back to train
    np.testing.assert_array_equal(task.eval_labels, labels)
    assert task.features.shape == (12, 4)  # min-max + bias
    assert task.features[:, :-1].min() == 0.0
    assert task.features[:, :-1].max() == 1.0

    test_feats = rng.standard_normal((5, 3))
    test_labels = rng.integers(0, 2, size=5)
    save_csv(test_labels, test_feats, str(tmp_path / "data.test.csv"))
    task = load_dataset(str(train), "csv")
    np.testing.assert_array_equal(task.eval_labels, test_labels)
    # held-out features are scaled by train statistics
    lo, hi = feats.min(axis=0), feats.max(axis=0)
    np.testing.assert_allclose(task.eval_features[:, :-1],
                               (test_feats - lo) / (hi - lo), rtol=1e-12)


def test_csv_constant_column_is_not_divided_by_zero(tmp_path):
    feats = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    labels = np.array([0, 1, 0])
    path = tmp_path / "const.csv"
    save_csv(labels, feats, str(path))
    task = load_dataset(str(path), "csv")
    assert np.all(np.isfinite(task.features))
    np.testing.assert_array_equal(task.features[:, 1], np.zeros(3))


def test_csv_header_and_label_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        load_dataset(str(bad), "csv")

    train = tmp_path / "data.csv"
    save_csv(np.array([0, 1]), np.eye(2), str(train))
    save_csv(np.array([5]), np.ones((1, 2)), str(tmp_path / "data.test.csv"))
    with pytest.raises(ValueError):
        load_dataset(str(train), "csv")

    with pytest.raises(ValueError):
        load_dataset(str(train), "parquet")


# ---------------------------------------------------------------------------
# sweep execution


def _tiny_spec(**kw):
    base = dict(task="synthetic", algorithm="dp_sgd", epsilon=2.0,
                lr_grid=(0.1,), clip_grid=(1.0,), c_grid=(0.0,), repeats=2,
                steps=12, dim=5, train_size=256, batch_size=32,
                output="unused.csv")
    base.update(kw)
    return ExperimentSpec(**base)


def test_budget_resolved_before_data_loads():
    log = []
    run_experiment(_tiny_spec(), event_log=log)
    kinds = [entry[0] for entry in log]
    assert kinds.index("budget") < kinds.index("data")
    assert "rho" in log[kinds.index("budget")][1]


def test_run_experiment_is_deterministic():
    table1, recs1 = run_experiment(_tiny_spec())
    table2, recs2 = run_experiment(_tiny_spec())
    assert recs1.keys() == recs2.keys()
    for key in recs1:
        np.testing.assert_array_equal(recs1[key].final_x, recs2[key].final_x)
    assert table1.best.excess_mean == table2.best.excess_mean
    assert table1.best.selection_metric == table2.best.selection_metric


def test_adding_grid_points_leaves_existing_runs_untouched():
    _, narrow = run_experiment(_tiny_spec())
    _, wide = run_experiment(_tiny_spec(lr_grid=(0.1, 0.4)))
    for rep in range(2):
        a = narrow[(0.1, 1.0, 0.0, rep)]
        b = wide[(0.1, 1.0, 0.0, rep)]
        np.testing.assert_array_equal(a.final_x, b.final_x)


def test_parallel_workers_match_serial_results():
    _, serial = run_experiment(_tiny_spec(lr_grid=(0.05, 0.2)))
    _, parallel = run_experiment(_tiny_spec(lr_grid=(0.05, 0.2), workers=4))
    for key in serial:
        np.testing.assert_array_equal(serial[key].final_x,
                                      parallel[key].final_x)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_aborted_runs_are_recorded_not_raised():
    # a divergent learning rate overflows the unprojected momentum update
    table, recs = run_experiment(_tiny_spec(
        algorithm="dp_memf", lr_grid=(1e150,), clip_grid=(math.inf,),
        epsilon=math.inf, batch_size=64, repeats=1))
    row = table.rows[0]
    assert row.n_aborted == 1 and row.n_runs == 0
    assert table.best is None
    assert all(isinstance(r, RunAborted) for r in recs.values())


def test_finite_budget_synthetic_reports_regime():
    table, _ = run_experiment(_tiny_spec(algorithm="accelerated_dp_srgd",
                                         epsilon=1.0, repeats=1))
    assert any(key.startswith("regime_") for key in table.header)
    assert "regime_dp_valid" in table.header


def _toy_logistic_dataset(tmp_path, n=64, p=3, seed=2):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, p))
    labels = (feats[:, 0] > 0).astype(np.int64)
    train = tmp_path / "toy.csv"
    save_csv(labels, feats, str(train))
    return load_dataset(str(train), "csv")


def test_honest_selection_reports_held_out_half(tmp_path):
    dataset = _toy_logistic_dataset(tmp_path)
    spec = _tiny_spec(task="csv-dataset", algorithm="dp_sgd",
                      epsilon=math.inf, repeats=1, batch_size=16,
                      honest_selection=True)
    table, recs = run_experiment(spec, dataset=dataset)
    rec = next(iter(recs.values()))
    row = table.rows[0]
    assert row.acc_mean == pytest.approx(
        dataset.accuracy(rec.final_x, half="odd"))
    assert row.selection_metric == pytest.approx(
        dataset.accuracy(rec.final_x, half="even"))


def test_default_selection_uses_full_held_out_metric(tmp_path):
    dataset = _toy_logistic_dataset(tmp_path)
    spec = _tiny_spec(task="csv-dataset", algorithm="dp_sgd",
                      epsilon=math.inf, repeats=1, batch_size=16)
    table, recs = run_experiment(spec, dataset=dataset)
    rec = next(iter(recs.values()))
    assert table.rows[0].acc_mean == pytest.approx(dataset.accuracy(rec.final_x))


class _IndexSpy(LogisticTask):
    """Records every index batch the gradient hooks receive."""

    def __post_init__(self):
        super().__post_init__()
        self.delivered = []

    def clipped_mean_grad(self, x, batch, c_clip):
        self.delivered.append(np.array(batch))
        return super().clipped_mean_grad(x, batch, c_clip)

    def srg_mean(self, x_t, x_prev, w_t, w_prev, batch, c_clip=np.inf):
        self.delivered.append(np.array(batch))
        return super().srg_mean(x_t, x_prev, w_t, w_prev, batch, c_clip)


def _participation(tmp_path, **kw):
    """(max_participation from the summary CSV, most steps any one example
    was delivered in) for one csv-dataset run of 16-example batches."""
    base = _toy_logistic_dataset(tmp_path)
    spy = _IndexSpy(features=base.features, labels=base.labels,
                    num_classes=base.num_classes,
                    eval_features=base.eval_features,
                    eval_labels=base.eval_labels)
    spec = _tiny_spec(task="csv-dataset", repeats=1, batch_size=16, **kw)
    table, records = run_experiment(spec, dataset=spy)
    assert all(isinstance(r, RunRecord) for r in records.values())
    path = tmp_path / "summary.csv"
    emit_csv(table, records, str(path))
    header = parse_summary_csv(str(path)).header
    counts = np.bincount(np.concatenate(spy.delivered), minlength=spy.n_train)
    return int(header["max_participation"]), int(counts.max())


@pytest.mark.parametrize("algorithm, steps, epochs, expected", [
    ("accelerated_dp_srgd", 4, 1, 1),
    ("dp_sgd", 4, 1, 1),
    ("dp_memf", 4, 2, 2),
])
def test_header_max_participation_matches_delivered_indices(
        tmp_path, algorithm, steps, epochs, expected):
    # 64 rows in batches of 16: a single pass is T*B <= n
    assert _participation(tmp_path, algorithm=algorithm, steps=steps,
                          epochs=epochs) == (expected, expected)


def test_stream_longer_than_one_pass_is_flagged_not_rejected(tmp_path):
    # 12 steps of 16 over 64 rows: three passes, each a fresh permutation
    with pytest.warns(UserWarning, match="up to 3 steps"):
        assert _participation(tmp_path, algorithm="dp_sgd") == (3, 3)


def test_synthetic_max_participation():
    table, _ = run_experiment(_tiny_spec(repeats=1))
    assert table.header["max_participation"] == "1"
    table, _ = run_experiment(_tiny_spec(algorithm="dp_memf", epochs=3,
                                         batch_size=64, repeats=1))
    assert table.header["max_participation"] == "3"


def test_header_reports_strategy_convergence_and_sensitivity(tmp_path):
    spec = _tiny_spec(algorithm="dp_memf", epochs=2, batch_size=32, repeats=1)
    table, records = run_experiment(spec)
    path = tmp_path / "summary.csv"
    emit_csv(table, records, str(path))
    header = parse_summary_csv(str(path)).header
    k, b = 2, spec.train_size // spec.batch_size
    strat = factorize(build_workload("ones", k, b), k, b)
    assert float(header["strategy_sens"]) == strat.sens
    table, _ = run_experiment(_tiny_spec(algorithm="accelerated_dp_srgd", repeats=1))
    assert "strategy_sens" not in table.header


def test_memf_strategy_is_factorized_for_the_spec_momentum(monkeypatch):
    seen = []
    runner = optim.run_dp_srg_memf

    def spy(problem, batches, cfg):
        seen.append((cfg.momentum, cfg.strategy.momentum))
        return runner(problem, batches, cfg)

    monkeypatch.setattr(optim, "run_dp_srg_memf", spy)
    run_experiment(_tiny_spec(algorithm="dp_srg_memf", workload="momentum_decay",
                              momentum=0.5, c_grid=(0.5,), epochs=2,
                              batch_size=64, repeats=1))
    assert seen == [(0.5, 0.5)]


def test_identity_memf_strategy_is_sound_over_epochs(monkeypatch):
    seen = []
    runner = optim.run_dp_memf

    def spy(problem, batches, cfg):
        seen.append(cfg)
        return runner(problem, batches, cfg)

    monkeypatch.setattr(optim, "run_dp_memf", spy)
    spec = _tiny_spec(algorithm="dp_memf", workload="identity", epochs=2,
                      batch_size=32, repeats=1)
    table, records = run_experiment(spec)
    (cfg,) = seen
    b = spec.train_size // spec.batch_size
    assert math.isfinite(cfg.rho)
    assert (cfg.strategy.k, cfg.strategy.b) == (2, b)
    assert counting.column_group_sens(cfg.strategy.C, 2, b) <= 1.0 + 1e-9
    assert float(table.header["strategy_sens"]) <= 1.0 + 1e-9
    rows = lambda strategy: np.stack(list(counting.mf_noise_stream(
        strategy, cfg.rho, spec.dim, cfg.seed)))
    one_epoch = rows(counting.identity_strategy(1, 2 * b))
    np.testing.assert_allclose(rows(cfg.strategy), math.sqrt(2.0) * one_epoch,
                               rtol=1e-12)
    (rec,) = records.values()
    np.testing.assert_allclose(
        rec.noise_norm,
        math.sqrt(2.0) * np.linalg.norm(one_epoch, axis=1) * cfg.c_clip / spec.batch_size,
        rtol=1e-12)


# ---------------------------------------------------------------------------
# metric CSV emission


def test_emit_and_parse_summary_round_trip(tmp_path):
    spec = _tiny_spec(lr_grid=(0.1, 1.0 / 3.0))
    table, records = run_experiment(spec)
    path = tmp_path / "metrics.csv"
    written = emit_csv(table, records, str(path))
    assert str(path) in written
    # one trajectory file per completed run
    assert len(written) == 1 + len(records)

    parsed = parse_summary_csv(str(path))
    assert parsed.header["algorithm"] == table.header["algorithm"]
    assert len(parsed.rows) == len(table.rows)
    for got, want in zip(parsed.rows, table.rows):
        assert got.lr == want.lr  # 17-digit float round trip is exact
        assert got.clip == want.clip
        assert got.excess_mean == want.excess_mean
        # synthetic task has no accuracy: cells stay empty, parse to None
        assert got.acc_mean is None and got.acc_ci95 is None


def test_trajectory_files_have_expected_columns(tmp_path):
    spec = _tiny_spec(repeats=1)
    table, records = run_experiment(spec)
    path = tmp_path / "metrics.csv"
    written = emit_csv(table, records, str(path))
    traj = [p for p in written if "_traj_" in p]
    assert len(traj) == 1
    lines = open(traj[0]).read().splitlines()
    assert lines[0].startswith("# run=")
    assert lines[1] == "step,loss,phi,noise_norm,grad_norm"
    assert len(lines) == 2 + spec.steps
    # baseline runs track no potential: the phi cell is empty
    assert lines[2].split(",")[2] == ""


def test_parse_summary_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("algorithm,workload\nx,y\n")
    with pytest.raises(ValueError):
        parse_summary_csv(str(path))


def test_ci95_values():
    assert _ci95(np.array([3.0])) == 0.0
    vals = np.array([1.0, 2.0, 3.0])
    expected = 1.96 * vals.std(ddof=1) / math.sqrt(3)
    assert _ci95(vals) == pytest.approx(expected, rel=1e-12)


def test_metric_table_defaults():
    table = MetricTable()
    assert table.rows == [] and table.best is None
    row = MetricRow(algorithm="dp_sgd", workload="ones", lr=0.1, clip=1.0,
                    c=0.0, acc_mean=None, acc_ci95=None, excess_mean=None)
    assert row.n_runs == 0 and row.selection_metric == -math.inf


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_projected_step_is_counted_as_aborted():
    # finite gradients of 1e307 at lr 100 overflow the dp_sgd step before
    # its projection; the sweep records the run as aborted
    class HugeGradients(SyntheticQuadratic):
        def per_example_grads(self, x, batch):
            return np.full((len(batch), self.dim), 1e307)

    spec = _tiny_spec(lr_grid=(100.0,), clip_grid=(math.inf,), epsilon=math.inf,
                      batch_size=4, repeats=1)
    problem = HugeGradients(dim=spec.dim, target=np.zeros(spec.dim))
    table, recs = run_experiment(spec, dataset=problem)
    row = table.rows[0]
    assert row.n_aborted == 1 and row.n_runs == 0
    assert all(isinstance(r, RunAborted) for r in recs.values())


@pytest.mark.parametrize("c_grid", [(1.5,), (0.5, -0.1), (math.nan,), (math.inf,)])
def test_spec_rejects_c_outside_unit_interval(c_grid):
    # the decay must be a weight in [0, 1]; out of range it used to fail
    # in MemfConfig, after the budget was resolved and the data built
    for algorithm in ("dp_srg_memf", "dp_memf", "dp_sgd"):
        with pytest.raises(ValueError, match="c_grid"):
            _tiny_spec(algorithm=algorithm, c_grid=c_grid).validate()


def test_spec_accepts_c_at_the_unit_interval_ends():
    _tiny_spec(algorithm="dp_srg_memf", c_grid=(0.0, 1.0)).validate()
