"""Experiment harness: config round-trips, dataset IO, event ordering,
determinism, sweep isolation, and CSV emission."""

import csv
import dataclasses
import gzip
import io
import math
import os
import re
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dpsrgd import accounting, counting, optim
from dpsrgd.counting import factorize
from dpsrgd.harness import (
    ExperimentSpec,
    MetricRow,
    MetricTable,
    _ALGORITHMS,
    _build_problem,
    _ci95,
    _data_rng,
    _noise_sigma,
    _pass_stream,
    _read_label_csv,
    _run_seed,
    _stable_key,
    data_dir,
    emit_csv,
    load_dataset,
    parse_summary_csv,
    run_experiment,
    write_trajectory,
)
from dpsrgd.objectives import LogisticTask, LossProblem, SyntheticQuadratic
from dpsrgd.optim import RunAborted, RunRecord

from dataset_files import save_csv
from dense_reference import build_workload, column_group_sens, dense_c

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


@pytest.mark.parametrize("key, value", [
    ("output", "runs#1/out.csv"), ("data_path", "data\nmore"), ("data_path", "data\r"),
    ("data_path", " data"), ("output", "out.csv\t"), ("data_path", "a\x85b"),
    ("output", "none")])
def test_spec_to_text_refuses_a_value_that_would_not_read_back(key, value):
    # output="runs#1/out.csv" was written as is and read back as "runs", and
    # a line break in data_path made from_text raise "malformed config line"
    with pytest.raises(ValueError, match=f"config key '{key}': from_text would not read"):
        ExperimentSpec(**{key: value}).to_text()
    for kept in ("my data/dir", "a=b", ""):
        spec = ExperimentSpec(**{key: kept})
        assert getattr(ExperimentSpec.from_text(spec.to_text()), key) == kept


def test_spec_parses_comments_and_blank_lines():
    text = "\n# leading comment\nalgorithm=dp_ftrl  # trailing comment\n\n"
    spec = ExperimentSpec.from_text(text)
    assert spec.algorithm == "dp_ftrl"


def test_spec_rejects_unknown_keys_and_malformed_lines():
    with pytest.raises(ValueError):
        ExperimentSpec.from_text("no_such_field=1\n")
    with pytest.raises(ValueError):
        ExperimentSpec.from_text("just a bare line\n")


def test_spec_accepts_none_only_for_an_optional_field():
    # none used to parse to None for every key: dim=none failed later with
    # a TypeError, seed_base=none seeded from OS entropy, and
    # honest_selection=none passed
    for key in ("dim", "epsilon", "repeats", "workers", "steps", "lr_grid",
                "output", "seed_base", "honest_selection", "momentum", "data_path"):
        with pytest.raises(ValueError, match=f"config key '{key}': none is not"):
            ExperimentSpec.from_text(f"{key}=none\n")
    spec = ExperimentSpec(rho=None)
    assert "rho=none" in spec.to_text()
    assert ExperimentSpec.from_text(spec.to_text()) == spec


def test_spec_parse_errors_name_the_key():
    with pytest.raises(ValueError, match="config key 'epochs': invalid literal"):
        ExperimentSpec.from_text("epochs=2.0\n")
    with pytest.raises(ValueError, match="config key 'clip_grid': could not convert"):
        ExperimentSpec.from_text("clip_grid=1.0,big\n")
    with pytest.raises(ValueError, match="config key 'honest_selection': expected"):
        ExperimentSpec.from_text("honest_selection=yes\n")


def test_spec_rejects_a_repeated_key():
    # the last of the two used to win silently: this ran at epsilon = 50
    with pytest.raises(ValueError, match="'epsilon' is given more than once"):
        ExperimentSpec.from_text("epsilon=1\nalgorithm=dp_sgd\nepsilon=50\n")


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
    spec = _tiny_spec(algorithm=algorithm, clip_grid=(math.inf,), repeats=1)
    if algorithm == "independent_variant":
        # its rows are sized by the clip, as DP-SGD's are: with no clip a
        # finite budget is rejected, and only epsilon = inf runs
        with pytest.raises(ValueError, match="needs a finite clip: its noise scales"):
            spec.validate()
        spec = dataclasses.replace(spec, epsilon=math.inf)
    table, _ = run_experiment(spec)
    assert (table.rows[0].n_runs, table.rows[0].n_aborted) == (1, 0)


@pytest.mark.parametrize("grid", ["lr_grid", "clip_grid", "c_grid"])
def test_spec_rejects_a_repeated_grid_entry(grid):
    # a repeat reran its runs under the same seeds and reported a second
    # identical row with twice the runs (dp_srg_memf reads every grid)
    spec = _tiny_spec(algorithm="dp_srg_memf", **{grid: (0.5, 0.25, 0.5)})
    with pytest.raises(ValueError, match=f"{grid} repeats an entry"):
        spec.validate()
    log = []
    with pytest.raises(ValueError, match=grid):
        run_experiment(spec, event_log=log)
    assert log == []
    _tiny_spec(algorithm="dp_srg_memf", **{grid: (0.5, 0.25)}).validate()


@pytest.mark.parametrize("grid, value", [
    ("lr_grid", [0.1, 0.2]), ("clip_grid", 0.5), ("c_grid", np.array([0.0]))],
    ids=["list", "float", "array"])
def test_spec_rejects_a_grid_that_is_not_a_tuple(grid, value):
    # a list validated and ran, but to_text wrote "[0.1, 0.2]", which
    # from_text could not read back; a float raised a TypeError from len()
    spec = _tiny_spec(algorithm="dp_srg_memf", **{grid: value})
    with pytest.raises(ValueError, match=f"{grid} must be a tuple"):
        spec.validate()
    spec = dataclasses.replace(spec, **{grid: tuple(np.ravel(value).tolist())}).validate()
    assert ExperimentSpec.from_text(spec.to_text()) == spec


@pytest.mark.parametrize("grid, value", [
    ("lr_grid", [0.1, 0.2]), ("clip_grid", 0.5), ("c_grid", np.array([0.0]))],
    ids=["list", "float", "array"])
def test_spec_to_text_refuses_a_grid_that_is_not_a_tuple(grid, value):
    # to_text wrote lr_grid=[0.1, 0.2], which from_text could not read back
    with pytest.raises(ValueError, match=f"config key '{grid}': from_text would not read"):
        ExperimentSpec(**{grid: value}).to_text()


@pytest.mark.parametrize("algorithm, workload", [
    ("dp_sgd", "ones"), ("dp_memf", "momentum"), ("accelerated_dp_srgd", "ones"),
    ("independent_variant", "ones"), ("dp_ftrl", "ones"),
    ("dp_ftrl", "momentum"), ("dp_memf", "ones"), ("dp_memf", "identity")])
def test_spec_rejects_a_c_grid_where_c_is_unused(algorithm, workload):
    # c reaches no run here: each entry would rerun one configuration
    # under another seed and report it as another point
    spec = _tiny_spec(algorithm=algorithm, workload=workload, c_grid=(0.0, 0.5))
    log = []
    with pytest.raises(ValueError, match="c_grid"):
        run_experiment(spec, event_log=log)
    assert log == []
    _tiny_spec(algorithm=algorithm, workload=workload, c_grid=(0.5,)).validate()


@pytest.mark.parametrize("algorithm, workload", [
    ("dp_srg_memf", "ones"), ("dp_srg_memf", "momentum_decay"),
    ("dp_memf", "momentum_decay"), ("dp_ftrl", "momentum_decay")])
def test_spec_accepts_a_c_grid_where_c_is_read(algorithm, workload):
    _tiny_spec(algorithm=algorithm, workload=workload, c_grid=(0.25, 0.5)).validate()


@pytest.mark.parametrize("algorithm", ["dp_ftrl", "dp_memf", "dp_srg_memf"])
def test_spec_rejects_zero_decay_on_the_momentum_decay_workload(algorithm):
    # the strategy's workload needs a decay in (0, 1]; c = 0 used to fail
    # in build_workload, after the budget was resolved and the data built
    for c_grid in ((0.0,), (0.5, 0.0)):
        spec = _tiny_spec(algorithm=algorithm, workload="momentum_decay", c_grid=c_grid)
        log = []
        with pytest.raises(ValueError, match="momentum_decay"):
            run_experiment(spec, event_log=log)
        assert log == []
    _tiny_spec(algorithm="dp_sgd", c_grid=(0.0,)).validate()


@pytest.mark.parametrize("algorithm", ["dp_sgd", "accelerated_dp_srgd",
                                       "independent_variant"])
@pytest.mark.parametrize("workload", ["momentum", "momentum_decay", "identity"])
def test_spec_rejects_a_workload_the_algorithm_never_reads(algorithm, workload):
    # the summary header would state a workload that shaped no run's noise
    spec = _tiny_spec(algorithm=algorithm, workload=workload, c_grid=(0.5,))
    log = []
    with pytest.raises(ValueError, match=f"{algorithm} reads no workload"):
        run_experiment(spec, event_log=log)
    assert log == []
    dataclasses.replace(spec, workload="ones").validate()


@pytest.mark.parametrize("algorithm", ["dp_sgd", "accelerated_dp_srgd",
                                       "independent_variant"])
def test_spec_names_an_unread_workload_before_a_decay_it_would_need(algorithm):
    # the decay is the workload's: an algorithm that reads no workload is
    # told so, not asked for a decay that no run would read either
    spec = _tiny_spec(algorithm=algorithm, workload="momentum_decay", c_grid=(0.0,))
    with pytest.raises(ValueError, match=f"{algorithm} reads no workload"):
        spec.validate()


@pytest.mark.parametrize("algorithm", ["accelerated_dp_srgd", "independent_variant",
                                       "dp_sgd", "dp_ftrl"])
def test_spec_rejects_epochs_for_a_single_pass_algorithm(algorithm):
    # epochs=3 used to run one pass of `steps` under a header that said
    # nothing of it
    spec = _tiny_spec(algorithm=algorithm, epochs=3)
    log = []
    with pytest.raises(ValueError, match=f"{algorithm} makes one pass.*epochs=3"):
        run_experiment(spec, event_log=log)
    assert log == []
    dataclasses.replace(spec, epochs=1).validate()
    _tiny_spec(algorithm="dp_memf", epochs=3).validate()


def test_spec_rejects_a_negative_seed_base_before_any_work():
    # numpy refused it only after the budget event was logged
    log = []
    with pytest.raises(ValueError, match="seed_base must be >= 0, got -1"):
        run_experiment(_tiny_spec(seed_base=-1), event_log=log)
    assert log == []
    _tiny_spec(seed_base=0).validate()


@pytest.mark.parametrize("key", ["epochs", "batch_size", "repeats", "seed_base", "workers",
                                 "dim", "steps", "train_size"])
def test_spec_rejects_a_float_for_an_integer_key_before_any_work(key):
    # steps=12.5 validated, and the run failed with "'float' object has no
    # attribute 'bit_length'" after the budget and data events were logged
    spec = ExperimentSpec(algorithm="accelerated_dp_srgd", epsilon=2.0, steps=12, dim=5,
                          train_size=256, batch_size=32)
    for value in (getattr(spec, key) + 0.5, float(getattr(spec, key))):
        log = []
        with pytest.raises(ValueError, match=re.escape(
                f"{key} must be an integer, got {value!r}")):
            run_experiment(dataclasses.replace(spec, **{key: value}), event_log=log)
        assert log == []
    dataclasses.replace(spec, **{key: np.int64(getattr(spec, key))}).validate()


@pytest.mark.parametrize("algorithm, workload", [
    ("dp_memf", "ones"), ("dp_srg_memf", "ones"), ("dp_ftrl", "momentum")])
@pytest.mark.parametrize("momentum", [1.5, 1.0, -0.1, math.nan])
def test_spec_rejects_momentum_outside_the_unit_interval_before_any_work(
        algorithm, workload, momentum):
    # the optimizer or the momentum workload refused it only after the
    # budget and data events were logged
    spec = _tiny_spec(algorithm=algorithm, workload=workload, momentum=momentum)
    log = []
    with pytest.raises(ValueError, match=r"momentum must lie in \[0, 1\)"):
        run_experiment(spec, event_log=log)
    assert log == []
    dataclasses.replace(spec, momentum=0.0).validate()


@pytest.mark.parametrize("algorithm", [
    "accelerated_dp_srgd", "independent_variant", "dp_sgd", "dp_ftrl"])
@pytest.mark.parametrize("momentum", [0.0, 0.5])
def test_spec_rejects_momentum_an_algorithm_does_not_read_before_any_work(
        algorithm, momentum):
    # these runs ignored it: their summaries were the same at 0.9 and at 0
    spec = _tiny_spec(algorithm=algorithm, momentum=momentum)
    log = []
    with pytest.raises(ValueError, match=f"{algorithm} on the ones workload reads no "
                                         f"momentum, so momentum={momentum} would not"):
        run_experiment(spec, event_log=log)
    assert log == []
    dataclasses.replace(spec, momentum=0.9).validate()


@pytest.mark.parametrize("algorithm", ["dp_memf", "dp_srg_memf"])
@pytest.mark.parametrize("steps", [1, 12, 65])
def test_spec_rejects_steps_a_multi_epoch_algorithm_does_not_read_before_any_work(
        algorithm, steps):
    # their length is epochs x (n // B): these two-epoch runs took 16 steps
    # whatever steps said
    spec = _tiny_spec(algorithm=algorithm, epochs=2, steps=steps)
    log = []
    with pytest.raises(ValueError, match=rf"{algorithm} runs epochs x \(n // batch_size\) "
                                         f"steps and reads no steps, so steps={steps} "
                                         "would not be run"):
        run_experiment(spec, event_log=log)
    assert log == []
    # checked last: a spec that breaks another rule too gets that rule's message
    with pytest.raises(ValueError, match="batch_size=300 exceeds train_size=256"):
        dataclasses.replace(spec, batch_size=300).validate()
    _, records = run_experiment(dataclasses.replace(spec, steps=ExperimentSpec.steps))
    assert [rec.steps for rec in records.values()] == [2 * 256 // 32] * 2


@pytest.mark.parametrize("task", ["mnist", "csv-dataset"])
@pytest.mark.parametrize("field,value", [
    ("dim", 7), ("train_size", 100), ("curvature", 2.0), ("noise_scale", 0.0)])
def test_spec_rejects_a_synthetic_key_a_dataset_task_does_not_read_before_any_work(
        task, field, value):
    # a dataset task builds its problem from its files: a csv run wrote the
    # same summary rows whatever these keys said
    spec = _tiny_spec(task=task, **{field: value})
    log = []
    with pytest.raises(ValueError, match=f"the {task} task reads no {field}, so "
                                         f"{field}={value} would not be run"):
        run_experiment(spec, event_log=log)
    assert log == []
    dataclasses.replace(spec, **{field: getattr(ExperimentSpec, field)}).validate()
    dataclasses.replace(spec, task="synthetic").validate()


_MULTI_EPOCH = {"dp_memf", "dp_srg_memf"}
_STRATEGY = {"dp_sgd", "dp_ftrl"} | _MULTI_EPOCH
# key -> (a value off its default, or a second grid entry; whether a run of
# the algorithm on the task reads the key), on the default ones workload
_KEY_READ = {
    "workload": ("momentum", lambda algorithm, task: algorithm in _STRATEGY - {"dp_sgd"}),
    "honest_selection": (True, lambda algorithm, task: task != "synthetic"),
    "epochs": (2, lambda algorithm, task: algorithm in _MULTI_EPOCH),
    "lr_grid": ((0.1, 0.2), lambda algorithm, task: algorithm in _STRATEGY),
    "c_grid": ((0.25, 0.5), lambda algorithm, task: algorithm == "dp_srg_memf"),
    "momentum": (0.5, lambda algorithm, task: algorithm in _MULTI_EPOCH),
    "steps": (12, lambda algorithm, task: algorithm not in _MULTI_EPOCH),
    # the multi-epoch runs project no step on a dataset task
    "radius": (2.0, lambda algorithm, task: algorithm not in _MULTI_EPOCH
               or task == "synthetic"),
    "dim": (7, lambda algorithm, task: task == "synthetic"),
    "train_size": (1000, lambda algorithm, task: task == "synthetic"),
    "curvature": (2.0, lambda algorithm, task: task == "synthetic"),
    "noise_scale": (0.0, lambda algorithm, task: task == "synthetic"),
}


@pytest.mark.parametrize("key", list(_KEY_READ))
@pytest.mark.parametrize("task", ["synthetic", "mnist", "csv-dataset"])
@pytest.mark.parametrize("algorithm", list(_ALGORITHMS))
def test_spec_rejects_exactly_the_keys_no_run_reads_before_any_work(algorithm, task, key):
    # a csv-dataset dp_memf run wrote the same bytes, header included, at
    # radius 1 and 5
    spec = ExperimentSpec(task=task, algorithm=algorithm, epsilon=2.0).validate()
    value, read = _KEY_READ[key]
    spec = dataclasses.replace(spec, **{key: value})
    if read(algorithm, task):
        spec.validate()
        return
    log = []
    with pytest.raises(ValueError, match=key):
        run_experiment(spec, event_log=log)
    assert log == []


@pytest.mark.parametrize("algorithm", ["dp_memf", "dp_srg_memf"])
def test_spec_rejects_a_multi_epoch_batch_larger_than_the_synthetic_dataset(algorithm):
    # the synthetic task's n is train_size, so validate knows it; the run
    # refused it only after the budget and data events were logged
    spec = _tiny_spec(algorithm=algorithm, train_size=256, batch_size=300)
    log = []
    with pytest.raises(ValueError, match="batch_size=300 exceeds train_size=256"):
        run_experiment(spec, event_log=log)
    assert log == []
    dataclasses.replace(spec, batch_size=256).validate()


_SINGLE_PASS = [name for name, algo in _ALGORITHMS.items() if not algo.multi_epoch]


@pytest.mark.parametrize("algorithm", _SINGLE_PASS)
def test_spec_rejects_a_single_pass_batch_larger_than_the_synthetic_dataset(algorithm):
    # the run trained on train_size rows per step, fewer than batch_size
    spec = _tiny_spec(algorithm=algorithm, train_size=100, batch_size=300)
    log = []
    with pytest.raises(ValueError, match="batch_size=300 exceeds train_size=100"):
        run_experiment(spec, event_log=log)
    assert log == []
    dataclasses.replace(spec, batch_size=100).validate()


@pytest.mark.parametrize("algorithm", ["dp_memf", "dp_srg_memf"])
def test_a_multi_epoch_batch_larger_than_the_dataset_is_rejected_once_it_is_loaded(
        tmp_path, algorithm):
    dataset = _toy_logistic_dataset(tmp_path, n=64)
    spec = _tiny_spec(task="csv-dataset", algorithm=algorithm, batch_size=65)
    log = []
    with pytest.raises(ValueError, match="batch_size=65 exceeds the 64 examples"):
        run_experiment(spec, dataset=dataset, event_log=log)
    assert [event for event, _ in log] == ["budget", "data"]
    table, _ = run_experiment(dataclasses.replace(spec, batch_size=64), dataset=dataset)
    assert table.rows[0].n_runs == 2


@pytest.mark.parametrize("algorithm", _SINGLE_PASS)
def test_a_single_pass_batch_larger_than_the_dataset_is_rejected_once_it_is_loaded(
        tmp_path, algorithm):
    # the run took steps of all 64 rows, fewer than batch_size
    dataset = _toy_logistic_dataset(tmp_path, n=64)
    spec = _tiny_spec(task="csv-dataset", algorithm=algorithm, batch_size=65, steps=2)
    log = []
    with pytest.raises(ValueError, match="batch_size=65 exceeds the 64 examples"):
        run_experiment(spec, dataset=dataset, event_log=log)
    assert [event for event, _ in log] == ["budget", "data"]
    table, _ = run_experiment(dataclasses.replace(spec, batch_size=32), dataset=dataset)
    assert table.rows[0].n_runs == 2


# ---------------------------------------------------------------------------
# noise calibration


@pytest.mark.parametrize("algorithm", _ALGORITHMS)
def test_a_budget_given_as_rho_runs_with_the_noise_of_its_epsilon(algorithm):
    # a rho-only budget used to run accelerated_dp_srgd with no noise while
    # the header recorded rho
    spec = _tiny_spec(algorithm=algorithm, epsilon=2.0, repeats=1)
    twin = dataclasses.replace(spec, epsilon=math.inf,
                               rho=accounting.rho_for_dp(2.0, spec.delta))
    (rec,) = run_experiment(spec)[1].values()
    assert rec.noise_norm.min() > 0
    (twin_rec,) = run_experiment(twin)[1].values()
    np.testing.assert_array_equal(twin_rec.noise_norm, rec.noise_norm)
    np.testing.assert_array_equal(twin_rec.final_x, rec.final_x)


@pytest.mark.parametrize("rho", [0.5, math.inf])
def test_a_budget_given_as_both_epsilon_and_rho_is_rejected(rho):
    # the clip-calibrated runs used rho while the header stated epsilon and
    # its mu: at rho = inf, noiseless runs under an epsilon = 1 header
    spec = _tiny_spec(epsilon=1.0, rho=rho)
    log = []
    with pytest.raises(ValueError, match="epsilon=1.0 and rho="):
        run_experiment(spec, event_log=log)
    assert log == []  # before the budget is resolved or any data is built


@pytest.mark.parametrize("algorithm, clip_grid", [
    ("independent_variant", (1.0,)), ("accelerated_dp_srgd", (math.inf,)),
    ("accelerated_dp_srgd", (1.0, math.inf))])
def test_lipschitz_bound_runs_reject_a_budget_given_only_as_rho(algorithm, clip_grid):
    spec = _tiny_spec(algorithm=algorithm, epsilon=math.inf, rho=0.5,
                      clip_grid=clip_grid)
    if algorithm == "independent_variant":
        # clip-calibrated at a finite clip: rho sizes its rows, and no
        # srgd_sigma needs epsilon
        (rec,) = run_experiment(dataclasses.replace(spec, repeats=1))[1].values()
        assert rec.noise_norm.min() > 0
        return
    with pytest.raises(ValueError, match="needs epsilon"):
        spec.validate()
    log = []
    with pytest.raises(ValueError, match="needs epsilon"):
        run_experiment(spec, event_log=log)
    assert log == []  # before the budget is resolved or any data is built
    dataclasses.replace(spec, rho=math.inf).validate()  # no budget: no noise to size


@pytest.mark.parametrize("algorithm, clip_grid", [
    ("independent_variant", (1.0,)), ("accelerated_dp_srgd", (math.inf,)),
    ("accelerated_dp_srgd", (1.0, math.inf))])
def test_lipschitz_bound_runs_reject_a_single_step(algorithm, clip_grid):
    # srgd_sigma needs T >= 2: steps=1 used to pass validation and fail in
    # the first run, after the budget and data events, naming no config key
    spec = _tiny_spec(algorithm=algorithm, steps=1, clip_grid=clip_grid)
    if algorithm == "independent_variant":
        # clip-calibrated at a finite clip: no srgd_sigma needs T >= 2
        (rec,) = run_experiment(dataclasses.replace(spec, repeats=1))[1].values()
        assert rec.steps == 1 and rec.noise_norm.min() > 0
        return
    log = []
    with pytest.raises(ValueError, match="steps"):
        run_experiment(spec, event_log=log)
    assert log == []
    dataclasses.replace(spec, epsilon=math.inf).validate()  # no budget: no noise to size


def test_dp_ftrl_on_the_identity_workload_is_rejected():
    # its runs are DP-SGD and were recorded as dp_sgd under a dp_ftrl header
    spec = _tiny_spec(algorithm="dp_ftrl", workload="identity")
    log = []
    with pytest.raises(ValueError, match="algorithm=dp_sgd"):
        run_experiment(spec, event_log=log)
    assert log == []
    dataclasses.replace(spec, algorithm="dp_sgd", workload="ones").validate()


def _tree_sigmas(monkeypatch, spec) -> list:
    seen = []

    class Spy(counting.TreeState):
        def __post_init__(self):
            seen.append(self.sigma)
            super().__post_init__()

    monkeypatch.setattr(counting, "TreeState", Spy)
    run_experiment(spec)
    return seen


def test_accelerated_tree_is_calibrated_to_the_clipped_increment(monkeypatch):
    # one clipped increment per example, sensitivity clip / B, sitting in
    # 1 + ceil(log2 T) tree nodes
    spec = _tiny_spec(algorithm="accelerated_dp_srgd", epsilon=1.0, clip_grid=(0.5,),
                      repeats=1)
    mu = math.sqrt(2.0 * accounting.rho_for_dp(1.0, spec.delta))
    # c * sqrt(1 + ceil(log2 T)) / mu with c = clip / B, bit for bit
    want = 0.5 / spec.batch_size * math.sqrt(1 + math.ceil(math.log2(spec.steps))) / mu
    assert _tree_sigmas(monkeypatch, spec) == [want]
    # with no clip the worst-case (L, M) bound stays, beta times its scale
    spec = dataclasses.replace(spec, clip_grid=(math.inf,))
    problem = _build_problem(spec, None, None)
    beta = 2.0 * problem.smoothness * spec.steps
    want = accounting.srgd_sigma(problem.lipschitz, problem.smoothness, 2.0 * spec.radius,
                                 1.0, spec.delta, spec.batch_size, beta, spec.steps) * beta
    (got,) = _tree_sigmas(monkeypatch, spec)
    assert got == pytest.approx(want, rel=1e-12)


def _cli_shape(**kw):
    """The synthetic CLI sweep's shape: d = 20, T = B = 256, delta = 1e-6."""
    base = dict(task="synthetic", algorithm="accelerated_dp_srgd", epsilon=2.0, delta=1e-6,
                dim=20, steps=256, batch_size=256, clip_grid=(2.0,), repeats=1,
                output="unused.csv")
    return ExperimentSpec(**{**base, **kw})


def test_independent_variant_holds_its_budget_on_a_coupled_replay(monkeypatch):
    # Replays the harness's own run of the variant (its batches, its rows
    # and their sigma) on two batch streams that differ in one example of
    # the last step: one zeroes it out, d' = x_{T-1}, whose gradient there is
    # 0, as _noise_sigma's clip / B assumes. With the rows fixed, the
    # pre-projection z step is the last release: it may move by at most
    # sqrt(2 rho) times the std its row puts on it. The release is affine in
    # the row, so a run with the last row doubled reads that std. Earlier
    # versions added srgd_sigma rows to the iterates: about 1.56 against the
    # 0.368 of sqrt(2 rho) here.
    spec = _cli_shape(algorithm="independent_variant")
    real_rows, real_run, real_project = (counting.gaussian_rows,
                                         optim.run_independent_variant, optim._project)
    handed = {}

    def rows_spy(sigma, d, seed, n):
        handed.update(sigma=sigma, rows=list(real_rows(sigma, d, seed, n)))
        return iter(handed["rows"])

    def run_spy(problem, stream, noise, cfg):
        handed.update(problem=problem, batches=list(stream), cfg=cfg)
        return real_run(problem, iter(handed["batches"]), noise, cfg)

    monkeypatch.setattr(counting, "gaussian_rows", rows_spy)
    monkeypatch.setattr(optim, "run_independent_variant", run_spy)
    run_experiment(spec)
    problem, batches, rows, cfg = (handed[k] for k in ("problem", "batches", "rows", "cfg"))

    def replay(batches, rows):
        """(pre-projection z step, query point) of every step."""
        z_steps, points = [], []
        grad = problem.clipped_mean_grad
        with monkeypatch.context() as patch:
            patch.setattr(optim, "_project", lambda v, r: (
                z_steps.append(v.copy()), real_project(v, r))[1])
            patch.setattr(problem, "clipped_mean_grad", lambda x, batch, c: (
                points.append(x.copy()), grad(x, batch, c))[1])
            real_run(problem, iter(batches), iter(rows), cfg)
        return z_steps[0::2], points  # _project takes z's step, then y's

    z_steps, points = replay(batches, rows)
    doubled_steps, _ = replay(batches, rows[:-1] + [2.0 * rows[-1]])
    std = (np.linalg.norm(doubled_steps[-1] - z_steps[-1]) / np.linalg.norm(rows[-1])
           * handed["sigma"])
    # the last batch with its first example moved to where its gradient at
    # x_{T-1} is twice the clip, and with it zeroed out
    x, last = points[-1], batches[-1].copy()
    away = x - last[0]
    last[0] = x - 2.0 * cfg.clip * away / np.linalg.norm(away)
    far_steps, _ = replay(batches[:-1] + [last], rows)
    last[0] = x
    zero_steps, _ = replay(batches[:-1] + [last], rows)
    np.testing.assert_array_equal(far_steps[:-1], z_steps[:-1])
    np.testing.assert_array_equal(zero_steps[:-1], z_steps[:-1])
    mu = np.linalg.norm(far_steps[-1] - zero_steps[-1]) / std
    bound = math.sqrt(2.0 * accounting.rho_for_dp(spec.epsilon, spec.delta))
    # the clip binds, so the replay reaches the bound: sigma is not oversized
    assert bound * (1 - 1e-6) <= mu <= bound * (1 + 1e-9), (mu, bound)


@pytest.mark.parametrize("epsilon", [2.0, 0.2])
def test_recursive_increments_beat_fresh_gradients_at_equal_calibration(epsilon):
    # The paper's claim that only the gradient difference pays for privacy:
    # at one clip calibration, the recursive method's mean excess is at
    # least 5x below the fresh-gradient variant's at clip 2.
    excess = {}
    for algorithm in ("accelerated_dp_srgd", "independent_variant"):
        table, _ = run_experiment(_cli_shape(algorithm=algorithm, epsilon=epsilon,
                                             repeats=4, seed_base=0))
        assert table.header["noise_calibration"] == "clip"
        excess[algorithm] = table.rows[0].excess_mean
    assert excess["independent_variant"] >= 5.0 * excess["accelerated_dp_srgd"], excess


@pytest.mark.parametrize("algorithm, clip_grid, calibration", [
    ("accelerated_dp_srgd", (0.5,), "clip"),
    ("dp_sgd", (0.5,), "clip"),
    ("dp_memf", (0.5, 1.0), "clip"),
    ("independent_variant", (0.5,), "clip"),
    ("accelerated_dp_srgd", (math.inf,), "lipschitz_bound"),
    ("accelerated_dp_srgd", (0.5, math.inf), "clip+lipschitz_bound")])
def test_header_names_the_noise_calibration(tmp_path, algorithm, clip_grid, calibration):
    table, _ = run_experiment(_tiny_spec(algorithm=algorithm, clip_grid=clip_grid,
                                         repeats=1))
    assert table.header["noise_calibration"] == calibration
    path = str(tmp_path / "summary.csv")
    emit_csv(table, path)
    assert parse_summary_csv(path).header["noise_calibration"] == calibration


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


@pytest.mark.parametrize("labels", [IDX_NAMES[1], IDX_NAMES[3]])
def test_idx_label_file_one_entry_short_is_rejected(tmp_path, labels):
    # the error names both files of the pair and both counts
    _, train_y, _, test_y = _make_idx_dir(str(tmp_path))
    short = train_y if labels == IDX_NAMES[1] else test_y
    _write_idx_labels(str(tmp_path / labels), short[:-1])
    images = IDX_NAMES[0] if labels == IDX_NAMES[1] else IDX_NAMES[2]
    n = short.shape[0]
    with pytest.raises(ValueError, match=rf"{images} holds {n} images but "
                                         rf"\S*{labels} holds {n - 1} labels"):
        load_dataset(str(tmp_path), "idx")


def test_idx_file_of_the_wrong_rank_is_rejected_naming_it(tmp_path):
    # label files under the image names loaded as a one-pixel task, and an
    # image stack under a label name failed naming no file
    _make_idx_dir(str(tmp_path))
    original = {name: (tmp_path / name).read_bytes() for name in IDX_NAMES}
    write = lambda name, source: (tmp_path / name).write_bytes(original[source])
    for images, labels in ((0, 1), (2, 3)):
        write(IDX_NAMES[images], IDX_NAMES[labels])
    for images in (0, 2):  # the train pair is read first
        with pytest.raises(ValueError, match=rf"{IDX_NAMES[images]}: an image file must be "
                                             r"3-d \(count, rows, columns\), got shape \(\d+,\)"):
            load_dataset(str(tmp_path), "idx")
        write(IDX_NAMES[images], IDX_NAMES[images])
    for images, labels in ((0, 1), (2, 3)):
        write(IDX_NAMES[labels], IDX_NAMES[images])
        with pytest.raises(ValueError, match=rf"{IDX_NAMES[labels]}: a label file must be "
                                             r"1-d, got shape \(\d+, 4, 4\)"):
            load_dataset(str(tmp_path), "idx")
        write(IDX_NAMES[labels], IDX_NAMES[labels])
    assert load_dataset(str(tmp_path), "idx").features.shape == (20, 17)


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

    images.write_bytes(raw[:6])  # a 3-d magic, then 2 of its 12 dimension bytes
    with pytest.raises(ValueError, match=rf"{IDX_NAMES[0]}: truncated idx header"):
        load_dataset(str(tmp_path), "idx")

    images.unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(str(tmp_path), "idx")


@pytest.mark.parametrize("split", ["train", "test"])
def test_idx_split_with_no_entries_is_rejected_naming_it(tmp_path, split):
    # numpy failed first, "cannot reshape array of size 0 into shape
    # (0,newaxis)", naming no file; the image file is read first
    images, labels = IDX_NAMES[:2] if split == "train" else IDX_NAMES[2:]
    train_x, train_y, test_x, test_y = _make_idx_dir(str(tmp_path))
    x, y = (train_x, train_y) if split == "train" else (test_x, test_y)
    _write_idx_images(str(tmp_path / images), x[:0])
    _write_idx_labels(str(tmp_path / labels), y[:0])
    with pytest.raises(ValueError, match=rf"{images}: holds no images"):
        load_dataset(str(tmp_path), "idx")
    _write_idx_images(str(tmp_path / images), x)
    with pytest.raises(ValueError, match=rf"{labels}: holds no labels"):
        load_dataset(str(tmp_path), "idx")


def _kept_bytes(task):
    return sum(a.nbytes for a in (task.features, task.eval_features, task.labels,
                                  task.eval_labels, task.feature_norms))


def test_idx_features_are_the_scaled_pixels_and_bias_built_in_place(tmp_path):
    # bit for bit the pixels astype(float64) / 255 and a stacked bias
    # column, C-ordered; the load holds the kept arrays, the file bytes
    # and one 4096-row block of the row norms' squares, where the
    # astype, / 255 and hstack chain held about 2.2 times the kept arrays
    train_x, _, test_x, _ = _make_idx_dir(str(tmp_path), n_train=20000, n_test=5000,
                                          side=8, classes=10, seed=3)
    raw = sum(os.path.getsize(tmp_path / name) for name in IDX_NAMES)
    tracemalloc.start()
    try:
        task = load_dataset(str(tmp_path), "idx")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for got, x in ((task.features, train_x), (task.eval_features, test_x)):
        flat = x.astype(np.uint8).reshape(x.shape[0], -1).astype(np.float64) / 255.0
        np.testing.assert_array_equal(got, np.hstack([flat, np.ones((x.shape[0], 1))]),
                                      strict=True)
        assert got.flags.c_contiguous
    assert peak <= _kept_bytes(task) + raw + 4096 * task.n_features * 8 + 256 * 1024


def test_csv_features_are_min_max_scaled_and_bias_built_in_place(tmp_path):
    # bit for bit (x - lo) / span on train statistics and a stacked bias
    # column, a constant column at zero, C-ordered
    rng = np.random.default_rng(4)
    feats, test_feats = rng.standard_normal((30, 4)), rng.standard_normal((9, 4))
    feats[:, 2] = test_feats[:, 2] = 7.5
    save_csv(rng.integers(0, 3, size=30), feats, str(tmp_path / "data.csv"))
    save_csv(rng.integers(0, 3, size=9), test_feats, str(tmp_path / "data.test.csv"))
    task = load_dataset(str(tmp_path / "data.csv"), "csv")
    lo = feats.min(axis=0)
    span = feats.max(axis=0) - lo
    span[span == 0] = 1.0
    for got, x in ((task.features, feats), (task.eval_features, test_feats)):
        want = np.hstack([(x - lo) / span, np.ones((x.shape[0], 1))])
        np.testing.assert_array_equal(got, want, strict=True)
        np.testing.assert_array_equal(got[:, 2], np.zeros(x.shape[0]))
        assert got.flags.c_contiguous


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


def test_csv_train_file_without_rows_is_rejected_by_name(tmp_path):
    train = tmp_path / "data.csv"
    train.write_text("label,f0,f1\n")
    with pytest.raises(ValueError, match=r"data\.csv: no data rows"):
        load_dataset(str(train), "csv")


def test_csv_test_file_without_rows_is_rejected_by_name(tmp_path):
    train = tmp_path / "data.csv"
    save_csv(np.array([0, 1]), np.eye(2), str(train))
    (tmp_path / "data.test.csv").write_text("label,f0,f1\n")
    with pytest.raises(ValueError, match=r"data\.test\.csv: no data rows"):
        load_dataset(str(train), "csv")


def test_csv_ragged_row_is_rejected_with_its_line(tmp_path):
    train = tmp_path / "data.csv"
    train.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n0,4.0,5.0\n")
    with pytest.raises(ValueError, match=r"data\.csv, line 3: 2 fields, the header has 3"):
        load_dataset(str(train), "csv")


def test_csv_blank_lines_hold_no_row(tmp_path):
    # a trailing blank line failed the whole file with "0 fields, the
    # header has 3"
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n0,5.0,7.0\n")
    blank.write_text("label,f0,f1\n0,1.0,2.0\n\n1,3.0,4.0\n0,5.0,7.0\n\n")
    for want, got in zip(_read_label_csv(str(plain)), _read_label_csv(str(blank))):
        np.testing.assert_array_equal(got, want, strict=True)
    want, got = load_dataset(str(plain), "csv"), load_dataset(str(blank), "csv")
    np.testing.assert_array_equal(got.features, want.features, strict=True)
    np.testing.assert_array_equal(got.labels, want.labels, strict=True)
    blank.write_text("label,f0,f1\n0,1.0,2.0\n\n1,3.0\n")
    with pytest.raises(ValueError, match=r"blank\.csv, line 4: 2 fields, the header has 3"):
        load_dataset(str(blank), "csv")
    blank.write_text("label,f0,f1\n\n\n")
    with pytest.raises(ValueError, match=r"blank\.csv: no data rows"):
        load_dataset(str(blank), "csv")


@pytest.mark.parametrize("row, message", [
    ("1.0,2.0,3.0", "invalid literal for int"),
    ("1,2.0,abc", "could not convert string to float"),
], ids=["label", "feature"])
def test_csv_cell_that_is_not_a_number_is_rejected_with_its_line(tmp_path, row, message):
    train = tmp_path / "data.csv"
    train.write_text(f"label,f0,f1\n0,1.0,2.0\n{row}\n")
    with pytest.raises(ValueError, match=rf"data\.csv, line 3: {message}"):
        load_dataset(str(train), "csv")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_non_finite_feature_is_rejected_with_its_line(tmp_path, cell):
    # LogisticTask rejected nan with no file or line, and an inf cell made
    # the min-max normalization divide inf by inf
    train = tmp_path / "data.csv"
    train.write_text(f"label,f0,f1\n0,1.0,2.0\n1,{cell},3.0\n0,4.0,5.0\n")
    with pytest.raises(ValueError, match=r"data\.csv, line 3: a feature cell is not finite"):
        load_dataset(str(train), "csv")


def test_csv_test_file_of_another_width_is_rejected_by_name(tmp_path):
    train = tmp_path / "data.csv"
    save_csv(np.array([0, 1]), np.eye(2), str(train))
    save_csv(np.array([0]), np.ones((1, 3)), str(tmp_path / "data.test.csv"))
    with pytest.raises(ValueError, match=r"data\.test\.csv: 3 feature columns"):
        load_dataset(str(train), "csv")


def test_csv_test_label_outside_the_train_classes_is_rejected_with_its_file_and_line(tmp_path):
    # LogisticTask raised "eval labels out of range", naming neither file
    train = tmp_path / "data.csv"
    save_csv(np.array([0, 1, 0]), np.eye(3), str(train))
    (tmp_path / "data.test.csv").write_text("label,f0,f1,f2\n1,0,0,1\n2,1,0,0\n")
    with pytest.raises(ValueError, match=r"data\.test\.csv, line 3: label 2 is not a class "
                                         r"of the train split, 0 \.\. 1"):
        load_dataset(str(train), "csv")


@pytest.mark.parametrize("name", ["data.csv", "data.test.csv"])
def test_csv_negative_label_is_rejected_with_its_file_and_line(tmp_path, name):
    # LogisticTask raised "labels out of range", with no file and no line
    train = tmp_path / "data.csv"
    save_csv(np.array([0, 1]), np.eye(2), str(train))
    (tmp_path / name).write_text("label,f0,f1\n0,1.0,2.0\n-1,3.0,4.0\n")
    with pytest.raises(ValueError, match=rf"{re.escape(name)}, line 3: label -1 is negative"):
        load_dataset(str(train), "csv")


def test_idx_test_label_outside_the_train_classes_is_rejected_by_name(tmp_path):
    _, train_y, _, test_y = _make_idx_dir(str(tmp_path), classes=3, seed=5)
    assert train_y.max() == 2
    test_y[4] = 7
    _write_idx_labels(str(tmp_path / IDX_NAMES[3]), test_y)
    with pytest.raises(ValueError, match=rf"{IDX_NAMES[3]}: label 7 at entry 4 is not a "
                                         r"class of the train split, 0 \.\. 2"):
        load_dataset(str(tmp_path), "idx")


def test_csv_loader_parses_into_the_kept_buffers(tmp_path):
    # the rows went through a list of float lists and then np.array, which
    # peaked at about 5.2 times the arrays kept
    rng = np.random.default_rng(6)
    path = str(tmp_path / "data.csv")
    save_csv(rng.integers(0, 10, 2000), rng.standard_normal((2000, 50)), path)
    tracemalloc.start()
    try:
        features, labels = _read_label_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= features.nbytes + labels.nbytes + 128 * 1024
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    np.testing.assert_array_equal(features, np.array([[float(v) for v in r[1:]] for r in rows]),
                                  strict=True)
    np.testing.assert_array_equal(labels, np.array([int(r[0]) for r in rows]), strict=True)


# ---------------------------------------------------------------------------
# sweep execution


def _tiny_spec(**kw):
    """A small synthetic spec; `steps` is set only for the single-pass
    algorithms, since a multi-epoch run's length is epochs x (n // B), and
    `dim` and `train_size` only for the synthetic task, the one that reads
    them."""
    base = dict(task="synthetic", algorithm="dp_sgd", epsilon=2.0,
                lr_grid=(0.1,), clip_grid=(1.0,), c_grid=(0.0,), repeats=2,
                batch_size=32, output="unused.csv")
    base.update(kw)
    if base["task"] == "synthetic":
        base.setdefault("dim", 5)
        base.setdefault("train_size", 256)
    if not _ALGORITHMS[base["algorithm"]].multi_epoch:
        base.setdefault("steps", 12)
    return ExperimentSpec(**base)


def _emit_sweep(spec, path, **kw):
    """(table, paths) of `spec`'s sweep written as `dpsrgd run` writes it:
    each trajectory file as its run finishes, then the summary at `path`.
    The paths are the summary first, then the trajectory files in job
    order."""
    trajectories = []

    def on_run(index, key, outcome):
        trajectories.append(write_trajectory(path, index, key, outcome))
    table, _ = run_experiment(spec, on_run=on_run, **kw)
    return table, emit_csv(table, path) + [p for p in trajectories if p is not None]


@pytest.mark.parametrize("algorithm, runner", [
    ("independent_variant", "run_independent_variant"), ("dp_sgd", "run_dp_srg_memf")])
def test_the_identity_strategys_rows_reach_the_runner_unscaled(monkeypatch, algorithm,
                                                               runner):
    # both take DP-SGD's i.i.d. rows from the identity strategy's stream,
    # z / 1.0: gaussian_rows' bits at the clip-calibrated sigma of sens 1
    spec = _tiny_spec(algorithm=algorithm, repeats=1, clip_grid=(0.5,))
    real, handed = getattr(optim, runner), []

    def spy(problem, batches, noise, cfg):
        rows = list(noise)
        handed.append([row.copy() for row in rows])
        return real(problem, batches, iter(rows), cfg)

    monkeypatch.setattr(optim, runner, spy)
    run_experiment(spec)
    (lr,), (clip,), (c,) = spec.lr_grid, spec.clip_grid, spec.c_grid
    seed = _run_seed(spec.seed_base, _stable_key(algorithm, spec.workload, lr, clip, c), 0)
    sigma = _noise_sigma(accounting.rho_for_dp(spec.epsilon, spec.delta), clip,
                         spec.batch_size, 1)
    (rows,) = handed
    assert sigma > 0 and len(rows) == spec.steps
    assert np.array_equal(np.stack(rows), np.stack(list(
        counting.gaussian_rows(sigma, spec.dim, seed, spec.steps))))


def _max_abs_cosine(a, b) -> float:
    return float(np.max(np.abs(np.sum(a * b, axis=1))
                        / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))))


@pytest.mark.parametrize("algorithm", ["accelerated_dp_srgd", "independent_variant"])
def test_noise_rows_are_not_parallel_to_the_examples(monkeypatch, algorithm):
    # The noise of a run is drawn from default_rng(seed), its batches from a
    # child of the seed. When both came from default_rng(seed), noise row i
    # was raw Gaussian row i of the first batch: parallel to x_i - target.
    seen, seeds = [], []
    name = f"run_{algorithm}"
    runner = getattr(optim, name)
    # the harness seeds the run's noise stream: the tree's or the i.i.d. rows
    stream_name = "tree_rows" if algorithm == "accelerated_dp_srgd" else "gaussian_rows"
    rows = getattr(counting, stream_name)

    def rows_spy(sigma, d, seed, n):
        seeds.append(seed)
        return rows(sigma, d, seed, n)

    def spy(problem, stream, noise, cfg):
        batches = list(stream)
        seen.append((problem, batches[0]))
        return runner(problem, iter(batches), noise, cfg)

    monkeypatch.setattr(counting, stream_name, rows_spy)
    monkeypatch.setattr(optim, name, spy)
    spec = _tiny_spec(algorithm=algorithm, dim=20, batch_size=16, clip_grid=(0.5,))
    run_experiment(spec)
    assert len(seen) == len(seeds) == spec.repeats
    for (problem, first), seed in zip(seen, seeds):
        rng = np.random.default_rng(seed)
        noise = np.stack([rng.standard_normal(spec.dim) for _ in range(spec.steps)])
        assert _max_abs_cosine(noise, first[:spec.steps] - problem.target) < 0.9


def test_synthetic_memf_examples_are_not_parallel_to_the_target(monkeypatch):
    # the fixed multi-epoch dataset is drawn apart from the target's
    # direction, which default_rng(seed_base) draws first
    seen = []
    runner = optim.run_dp_srg_memf

    def spy(problem, batches, noise, cfg):
        seen.append((problem, batches[0]))
        return runner(problem, batches, noise, cfg)

    monkeypatch.setattr(optim, "run_dp_srg_memf", spy)
    run_experiment(_tiny_spec(algorithm="dp_memf", dim=20, repeats=1))
    ((problem, first),) = seen
    assert _max_abs_cosine(first - problem.target,
                           np.broadcast_to(problem.target, first.shape)) < 0.9


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


@pytest.mark.parametrize("grid", ["clip_grid", "c_grid"])
def test_a_negative_zero_grid_entry_runs_as_the_grid_point_zero(tmp_path, grid):
    # -0.0 == 0.0, but the seed key formatted it as -0: the entry ran under
    # other seeds than 0, and the summary wrote its cell as -0
    spec = _tiny_spec(algorithm="dp_srg_memf", epochs=2, train_size=128, batch_size=16)
    written = []
    for name, zero in (("plus", 0.0), ("minus", -0.0)):
        (tmp_path / name).mkdir()
        _, paths = _emit_sweep(dataclasses.replace(spec, **{grid: (zero,)}),
                               str(tmp_path / name / "summary.csv"))
        written.append([Path(path).read_bytes() for path in paths])
    assert len(written[0]) == 3
    assert written[0] == written[1]


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


def test_finite_budget_synthetic_reports_regime(tmp_path):
    spec = _tiny_spec(algorithm="accelerated_dp_srgd", clip_grid=(math.inf,),
                      epsilon=1.0, repeats=1)
    table, _ = run_experiment(spec)
    assert any(key.startswith("regime_") for key in table.header)
    assert "regime_dp_valid" in table.header
    # the summary's regime lines render build_regime_report's own values
    problem = _build_problem(spec, None, None)
    report, _, _ = accounting.build_regime_report(
        spec.train_size, spec.dim, problem.lipschitz, problem.smoothness,
        2.0 * spec.radius, spec.epsilon, spec.delta)
    path = tmp_path / "summary.csv"
    emit_csv(table, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert f"# regime_beta={report['beta']:.17g}" in lines
    assert f"# regime_dp_valid={str(report['dp_valid']).lower()}" in lines
    assert [line for line in lines if line.startswith("# regime_")] == [
        f"# regime_{k}={str(v).lower() if isinstance(v, bool) else format(v, '.17g')}"
        for k, v in report.items()]


@pytest.mark.parametrize("algorithm", ["accelerated_dp_srgd", "independent_variant"])
def test_regime_header_names_no_sigma_the_runs_did_not_use(algorithm):
    # regime_sigma was srgd_sigma at the theory regime's own B, T and beta
    # (0.0027 at the CLI spec, where the tree ran at 0.0159); the other
    # regime keys stay where srgd_sigma sized the runs, and the
    # clip-calibrated variant carries none
    if algorithm == "independent_variant":
        table, _ = run_experiment(_tiny_spec(algorithm=algorithm, epsilon=1.0, repeats=1))
        assert not [key for key in table.header if key.startswith("regime_")]
        return
    table, _ = run_experiment(_tiny_spec(algorithm=algorithm, clip_grid=(math.inf,),
                                         epsilon=1.0, repeats=1))
    assert "regime_sigma" not in table.header
    for key in ("beta", "clip_bound", "d_max", "b_max_batch", "dp_valid"):
        assert f"regime_{key}" in table.header, key


@pytest.mark.parametrize("clip_grid, regime", [((1.0,), None), ((1.0, math.inf), "false")])
def test_regime_keys_appear_only_where_srgd_sigma_sized_a_run(clip_grid, regime):
    # at clip 1 the runs are clip-calibrated and hold epsilon whatever the
    # theory regime says; the header wrote regime_dp_valid=false beside
    # noise_calibration=clip
    table, _ = run_experiment(_tiny_spec(
        algorithm="accelerated_dp_srgd", clip_grid=clip_grid, epsilon=0.01, dim=2000,
        train_size=4096, steps=4, batch_size=64, repeats=1))
    assert table.header["noise_calibration"] == (
        "clip" if regime is None else "clip+lipschitz_bound")
    assert table.header.get("regime_dp_valid") == regime
    assert bool(regime) == any(key.startswith("regime_") for key in table.header)


@pytest.mark.parametrize("algorithm, clip_grid", [
    ("dp_sgd", (0.5,)), ("independent_variant", (0.5,)),
    ("accelerated_dp_srgd", (math.inf,)), ("accelerated_dp_srgd", (0.5, math.inf))])
def test_an_infinite_budget_names_no_noise_calibration(tmp_path, algorithm, clip_grid):
    # no run adds noise at epsilon = inf; the header named clip or
    # lipschitz_bound there
    table, records = run_experiment(_tiny_spec(algorithm=algorithm, clip_grid=clip_grid,
                                               epsilon=math.inf, repeats=1))
    assert all(rec.noise_norm.max() == 0 for rec in records.values())
    assert table.header["noise_calibration"] == "none"
    assert not [key for key in table.header if key.startswith("regime_")]
    path = str(tmp_path / "summary.csv")
    emit_csv(table, path)
    assert parse_summary_csv(path).header["noise_calibration"] == "none"


def test_a_regime_too_small_for_its_header_is_refused_before_any_run():
    # the summary header, with srgd_sigma's theory regime (n >= 4), was
    # built after every run: both trajectory files were written, then the
    # sweep failed with "n must be >= 4, got 3" and wrote no summary
    spec = _tiny_spec(algorithm="accelerated_dp_srgd", clip_grid=(math.inf,),
                      train_size=3, batch_size=2, steps=4, repeats=2)
    runs = []
    with pytest.raises(ValueError, match="train_size >= 4, got train_size=3"):
        run_experiment(spec, on_run=lambda *run: runs.append(run))
    assert runs == []
    run_experiment(dataclasses.replace(spec, epsilon=math.inf),  # no regime stated
                   on_run=lambda *run: runs.append(run))
    assert len(runs) == 2


def _toy_logistic_dataset(tmp_path, n=64, p=3, seed=2):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, p))
    labels = (feats[:, 0] > 0).astype(np.int64)
    train = tmp_path / "toy.csv"
    save_csv(labels, feats, str(train))
    return load_dataset(str(train), "csv")


class _EvaluationSpy:
    """Task mixin: records every held-out evaluation as (method, the module
    that called it, the evaluated point's bytes)."""

    def __post_init__(self):
        super().__post_init__()
        self.evaluated = []

    def _record(self, method, x):
        caller = sys._getframe(2).f_globals["__name__"]
        self.evaluated.append((method, caller, x.tobytes()))

    def heldout_pass(self, x):
        self._record("heldout_pass", x)
        return super().heldout_pass(x)


class _QuadraticEvaluationSpy(_EvaluationSpy, SyntheticQuadratic):
    pass


class _LogisticEvaluationSpy(_EvaluationSpy, LogisticTask):
    pass


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_evaluates_each_finished_run_once_in_the_harness(workers):
    # the divergent dp_memf grid of the aborted-run tests: the unclipped
    # lr of 1e151 or 1e150 aborts, the clipped ones finish
    spec = _tiny_spec(algorithm="dp_memf", epsilon=math.inf, lr_grid=(1e151, 1e150),
                      clip_grid=(math.inf, 0.5), batch_size=64, workers=workers)
    plain = _build_problem(spec, None, None)
    spy = _QuadraticEvaluationSpy(dim=plain.dim, target=plain.target,
                                  curvature=plain.curvature,
                                  noise_scale=plain.noise_scale, radius=plain.radius)
    table, records = run_experiment(spec, dataset=spy)
    finished = [r for r in records.values() if isinstance(r, RunRecord)]
    assert len(finished) == 4 and len(records) == 8
    assert sorted(spy.evaluated) == sorted(
        ("heldout_pass", "dpsrgd.harness", r.final_x.tobytes())
        for r in finished)
    assert table == run_experiment(spec)[0]


def test_a_run_frees_its_noise_stream_before_its_evaluation(monkeypatch):
    # the stream's state (the tree's stack, an MF ring) is gone by the time
    # the held-out pass runs, though nothing closes the stream
    events = []
    tree_rows = counting.tree_rows

    def watched(*args):
        try:
            yield from tree_rows(*args)
        finally:
            events.append("freed")

    class Watch(SyntheticQuadratic):
        def heldout_pass(self, x):
            events.append("evaluated")
            return super().heldout_pass(x)

    spec = _tiny_spec(algorithm="accelerated_dp_srgd")
    plain = _build_problem(spec, None, None)
    monkeypatch.setattr(counting, "tree_rows", watched)
    run_experiment(spec, dataset=Watch(dim=plain.dim, target=plain.target))
    assert events == ["freed", "evaluated"] * spec.repeats


def _heldout_halves_reference(problem, x):
    """(Accuracy in percent on the even-index half of the held-out split,
    on the odd half), from one feats @ W.T over the whole split."""
    pred = (problem.eval_features @ problem._weights(x).T).argmax(axis=1)
    hits = pred == problem.eval_labels
    return tuple(100.0 * float(hits[rows].mean()) for rows in (slice(0, None, 2),
                                                                slice(1, None, 2)))


def _spied_logistic_run(tmp_path, honest_selection):
    """(The toy dataset, the sweep's one row, the run's final iterate, the
    evaluations a spy copy of the dataset saw) of a one-run dp_sgd sweep."""
    dataset = _toy_logistic_dataset(tmp_path)
    spy = _LogisticEvaluationSpy(features=dataset.features, labels=dataset.labels,
                                 num_classes=dataset.num_classes,
                                 eval_features=dataset.eval_features,
                                 eval_labels=dataset.eval_labels)
    spec = _tiny_spec(task="csv-dataset", algorithm="dp_sgd",
                      epsilon=math.inf, repeats=1, batch_size=16,
                      honest_selection=honest_selection)
    table, recs = run_experiment(spec, dataset=spy)
    return dataset, table.rows[0], next(iter(recs.values())).final_x, spy.evaluated


def test_honest_selection_reports_held_out_half(tmp_path):
    # the halves come from the hit mask of the run's one held-out pass,
    # where the harness made three passes: a full one, then one per half
    dataset, row, x, evaluated = _spied_logistic_run(tmp_path, honest_selection=True)
    even, odd = _heldout_halves_reference(dataset, x)
    assert (row.selection_metric, row.acc_mean) == (even, odd)
    assert evaluated == [("heldout_pass", "dpsrgd.harness", x.tobytes())]


def test_honest_selection_on_a_task_without_held_out_set_is_rejected():
    # the harness took the halves from a method only LogisticTask has;
    # a quadratic handed in as a dataset task ran one run, then failed
    spec = _tiny_spec(task="csv-dataset", honest_selection=True)
    quadratic = _build_problem(_tiny_spec(), None, None)
    with pytest.raises(ValueError, match="honest_selection splits a held-out set, "
                                         "and a SyntheticQuadratic has none"):
        run_experiment(spec, dataset=quadratic)


def test_honest_selection_on_the_synthetic_task_is_rejected_before_any_work():
    # the synthetic task has no held-out accuracy, so the setting used to
    # leave rows and header as they were without it
    log = []
    with pytest.raises(ValueError, match="synthetic task has no held-out set"):
        run_experiment(_tiny_spec(honest_selection=True), event_log=log)
    assert log == []


def test_honest_selection_on_a_one_row_held_out_split_is_rejected(tmp_path):
    # the odd half of one row is empty: its accuracy was 0 / 0, a nan
    # acc_mean after a RuntimeWarning, and exit code 0
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((41, 3))
    labels = (feats[:, 0] > 0).astype(np.int64)
    save_csv(labels[:40], feats[:40], str(tmp_path / "dataset.csv"))
    save_csv(labels[40:], feats[40:], str(tmp_path / "dataset.test.csv"))
    spec = _tiny_spec(task="csv-dataset", algorithm="dp_sgd", epsilon=math.inf,
                      batch_size=8, steps=4, honest_selection=True,
                      data_path=str(tmp_path))
    runs = []
    with pytest.raises(ValueError, match="needs at least 2 rows, got 1"):
        run_experiment(spec, on_run=lambda *run: runs.append(run))
    assert runs == []
    table, _ = run_experiment(dataclasses.replace(spec, honest_selection=False))
    assert table.rows[0].acc_mean in (0.0, 100.0)


def test_default_selection_uses_full_held_out_metric(tmp_path):
    dataset, row, x, evaluated = _spied_logistic_run(tmp_path, honest_selection=False)
    pred = (dataset.eval_features @ dataset._weights(x).T).argmax(axis=1)
    accuracy = 100.0 * float((pred == dataset.eval_labels).mean())
    assert row.acc_mean == pytest.approx(accuracy)
    assert row.selection_metric == row.acc_mean == accuracy
    # one held-out pass, made by the harness
    assert evaluated == [("heldout_pass", "dpsrgd.harness", x.tobytes())]


class _IndexSpy(LogisticTask):
    """Records every index batch the gradient hooks receive."""

    def __post_init__(self):
        super().__post_init__()
        self.delivered = []

    def clipped_mean_grad(self, x, batch, c_clip):
        self.delivered.append(np.array(batch))
        return super().clipped_mean_grad(x, batch, c_clip)

    def srg_mean(self, points, w_t, w_prev, batch, c_clip=np.inf):
        self.delivered.append(np.array(batch))
        return super().srg_mean(points, w_t, w_prev, batch, c_clip)


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
    emit_csv(table, str(path))
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
    # 64 rows in batches of 16: a single pass is T*B <= n. dp_memf reads
    # no steps: its 4 is the 64 // 16 steps of each of its epochs
    length = {} if _ALGORITHMS[algorithm].multi_epoch else {"steps": steps}
    assert _participation(tmp_path, algorithm=algorithm, epochs=epochs,
                          **length) == (expected, expected)


def test_stream_longer_than_one_pass_is_flagged_not_rejected(tmp_path):
    # 12 steps of 16 over 64 rows: three passes, each a fresh permutation;
    # at an infinite budget there is no noise calibration to void
    assert _participation(tmp_path, algorithm="dp_sgd", epsilon=math.inf) == (3, 3)


@pytest.mark.parametrize("algorithm", ["dp_sgd", "dp_ftrl", "accelerated_dp_srgd",
                                       "independent_variant"])
@pytest.mark.parametrize("budget", [dict(epsilon=2.0), dict(epsilon=math.inf, rho=0.5)])
def test_finite_budget_stream_longer_than_one_pass_is_rejected(tmp_path, algorithm,
                                                               budget):
    # its noise is calibrated for one participation, so its epsilon is void
    base = _toy_logistic_dataset(tmp_path)
    spy = _IndexSpy(features=base.features, labels=base.labels,
                    num_classes=base.num_classes)
    spec = _tiny_spec(task="csv-dataset", algorithm=algorithm, repeats=1,
                      batch_size=16, **budget)
    match = "12 steps of batch size 16 over 64 examples use some examples in up to 3 steps"
    with pytest.raises(ValueError, match=match):
        run_experiment(spec, dataset=spy)
    assert spy.delivered == []


@pytest.mark.parametrize("n, dtype", [(7, np.uint8), (64, np.uint8), (60000, np.uint16),
                                      (70000, np.uint32)])
def test_pass_stream_is_the_int64_permutation_in_the_narrowest_dtype(n, dtype):
    B = max(1, n // 3)
    per_pass = n // B
    T = 2 * per_pass + 1  # three passes, the last cut short
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    got = list(_pass_stream(rng, n, B, T))
    assert len(got) == T
    for t, batch in enumerate(got):
        j = t % per_pass
        if j == 0:
            order = ref.permutation(n)
        assert batch.dtype == dtype
        np.testing.assert_array_equal(batch, order[j * B:(j + 1) * B])
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("algorithm", ["dp_memf", "dp_srg_memf"])
def test_fixed_batches_are_narrowest_dtype_slices(tmp_path, algorithm):
    base = _toy_logistic_dataset(tmp_path)
    spy = _IndexSpy(features=base.features, labels=base.labels,
                    num_classes=base.num_classes)
    run_experiment(_tiny_spec(task="csv-dataset", algorithm=algorithm, epochs=2,
                              batch_size=16, repeats=1), dataset=spy)
    assert len(spy.delivered) == 8
    for t, batch in enumerate(spy.delivered):
        lo = 16 * (t % 4)
        assert batch.dtype == np.uint8
        np.testing.assert_array_equal(batch, np.arange(lo, lo + 16))
        assert spy._select(batch) == slice(lo, lo + 16)


class _BatchOrderSpy(SyntheticQuadratic):
    """Records the first entry of every batch the gradient hooks receive."""

    def __post_init__(self):
        super().__post_init__()
        self.seen = []

    def clipped_mean_grad(self, x, batch, c_clip):
        self.seen.append(float(batch[0, 0]))
        return super().clipped_mean_grad(x, batch, c_clip)


def test_memf_revisits_batches_in_fixed_order():
    # a dp_memf sweep hands the runner its b fixed batches once per epoch,
    # in the same order every epoch
    problem = _BatchOrderSpy(dim=5, target=np.zeros(5), curvature=1.0,
                             noise_scale=0.5, radius=1.0)
    spec = _tiny_spec(algorithm="dp_memf", epochs=3, batch_size=64, repeats=1)
    run_experiment(spec, dataset=problem)
    B, b = spec.batch_size, spec.train_size // spec.batch_size
    data = problem.draw_batch(_data_rng(spec.seed_base), b * B)
    markers = [float(data[j * B, 0]) for j in range(b)]
    assert len(set(markers)) == b
    assert problem.seen == markers * 3  # three epochs, same order


def test_synthetic_max_participation():
    table, _ = run_experiment(_tiny_spec(repeats=1))
    assert table.header["max_participation"] == "1"
    table, _ = run_experiment(_tiny_spec(algorithm="dp_memf", epochs=3,
                                         batch_size=64, repeats=1))
    assert table.header["max_participation"] == "3"


def test_header_reports_strategy_convergence_and_sensitivity(tmp_path):
    spec = _tiny_spec(algorithm="dp_memf", epochs=2, batch_size=32, repeats=1)
    table, _ = run_experiment(spec)
    path = tmp_path / "summary.csv"
    emit_csv(table, str(path))
    header = parse_summary_csv(str(path)).header
    k, b = 2, spec.train_size // spec.batch_size
    strat = factorize(build_workload("ones", k, b)[:, 0], k, b)
    assert float(header["strategy_sens"]) == strat.sens
    # independent_variant draws the identity strategy's rows, but its
    # accelerated runs state no strategy_sens, as the tree's do not
    for algorithm in ("accelerated_dp_srgd", "independent_variant"):
        table, _ = run_experiment(_tiny_spec(algorithm=algorithm, repeats=1))
        assert "strategy_sens" not in table.header


def test_dp_sgd_header_states_the_identity_strategys_sens(tmp_path):
    # dp_sgd adds the identity strategy's noise, whose sensitivity is 1
    table, records = run_experiment(_tiny_spec(repeats=1))
    path = tmp_path / "summary.csv"
    emit_csv(table, str(path))
    assert "# strategy_sens=1\n" in path.read_text()
    assert len(records) == 1 and table.header["algorithm"] == "dp_sgd"


def test_memf_strategy_is_factorized_for_the_spec_momentum(monkeypatch):
    # the strategy reaches the run through its noise stream, which the
    # harness builds before it calls the runner
    seen, matches = [], []
    runner, mf_noise_stream = optim.run_dp_srg_memf, counting.mf_noise_stream

    def stream_spy(s, sigma, d, seed):
        want = counting.build_strategy(s.kind, s.k, s.b, momentum=0.5, decay=0.5)
        matches.append(np.array_equal(s.w, want.w))
        return mf_noise_stream(s, sigma, d, seed)

    def spy(problem, batches, noise, cfg):
        seen.append((cfg.momentum, matches.pop()))
        return runner(problem, batches, noise, cfg)

    monkeypatch.setattr(counting, "mf_noise_stream", stream_spy)
    monkeypatch.setattr(optim, "run_dp_srg_memf", spy)
    run_experiment(_tiny_spec(algorithm="dp_srg_memf", workload="momentum_decay",
                              momentum=0.5, c_grid=(0.5,), epochs=2,
                              batch_size=64, repeats=1))
    assert seen == [(0.5, True)]


def test_a_sweep_builds_one_strategy_per_c_before_its_runs(monkeypatch):
    built, seen, decays = [], [], []
    build, runner = counting.build_strategy, optim.run_dp_srg_memf
    mf_noise_stream = counting.mf_noise_stream

    def build_spy(kind, k, b, **kw):
        built.append(kw["decay"])
        return build(kind, k, b, **kw)

    spec = _tiny_spec(algorithm="dp_srg_memf", workload="momentum_decay",
                      c_grid=(0.3, 0.6), epochs=2, batch_size=64, repeats=2)

    def stream_spy(s, sigma, d, seed):
        decays.append(next((c for c in spec.c_grid if np.array_equal(
            s.w, build(s.kind, s.k, s.b, momentum=spec.momentum, decay=c).w)), None))
        return mf_noise_stream(s, sigma, d, seed)

    def run_spy(problem, batches, noise, cfg):
        seen.append((cfg.decay, decays.pop()))
        return runner(problem, batches, noise, cfg)

    monkeypatch.setattr(counting, "build_strategy", build_spy)
    monkeypatch.setattr(counting, "mf_noise_stream", stream_spy)
    monkeypatch.setattr(optim, "run_dp_srg_memf", run_spy)
    run_experiment(spec)
    assert built == [0.3, 0.6]
    assert sorted(seen) == [(0.3, 0.3)] * 2 + [(0.6, 0.6)] * 2


def test_identity_memf_strategy_is_sound_over_epochs(monkeypatch):
    seen, streams = [], []
    runner, mf_noise_stream = optim.run_dp_srg_memf, counting.mf_noise_stream

    def spy(problem, batches, noise, cfg):
        seen.append(cfg)
        return runner(problem, batches, noise, cfg)

    def stream_spy(strategy, sigma, d, seed):
        streams.append((strategy, sigma, seed))
        return mf_noise_stream(strategy, sigma, d, seed)

    monkeypatch.setattr(optim, "run_dp_srg_memf", spy)
    monkeypatch.setattr(counting, "mf_noise_stream", stream_spy)
    spec = _tiny_spec(algorithm="dp_memf", workload="identity", epochs=2,
                      batch_size=32, repeats=1)
    table, records = run_experiment(spec)
    (cfg,), ((strategy, sigma, seed),) = seen, streams
    assert cfg.decay == 0.0  # dp_memf is the recursive runner at decay 0
    b = spec.train_size // spec.batch_size
    rho = accounting.rho_for_dp(spec.epsilon, spec.delta)
    assert sigma == (cfg.c_clip / spec.batch_size * strategy.sens
                     / math.sqrt(2.0 * rho)) > 0
    assert (strategy.k, strategy.b) == (2, b) and cfg.steps == 2 * b
    assert column_group_sens(dense_c(strategy), 2, b) <= 1.0 + 1e-9
    assert float(table.header["strategy_sens"]) <= 1.0 + 1e-9
    rows = lambda strategy: np.stack(list(mf_noise_stream(
        strategy, sigma, spec.dim, seed)))
    one_epoch = rows(counting.identity_strategy(1, 2 * b))
    np.testing.assert_allclose(rows(strategy), math.sqrt(2.0) * one_epoch,
                               rtol=1e-12)
    (rec,) = records.values()
    np.testing.assert_allclose(
        rec.noise_norm, math.sqrt(2.0) * np.linalg.norm(one_epoch, axis=1), rtol=1e-12)


# ---------------------------------------------------------------------------
# metric CSV emission


def test_emit_and_parse_summary_round_trip(tmp_path):
    spec = _tiny_spec(lr_grid=(0.1, 1.0 / 3.0))
    path = tmp_path / "metrics.csv"
    table, written = _emit_sweep(spec, str(path))
    assert written[0] == str(path)
    # one trajectory file per completed run
    assert len(written) == 1 + len(spec.lr_grid) * spec.repeats

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
    path = tmp_path / "metrics.csv"
    _, written = _emit_sweep(spec, str(path))
    traj = [p for p in written if "_traj_" in p]
    assert len(traj) == 1
    lines = Path(traj[0]).read_text().splitlines()
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


def _csv_writer_trajectory(key, rec) -> bytes:
    """A trajectory file as csv.writer writes it: the reference for the
    rows write_trajectory formats itself."""
    cell = lambda v: "" if v is None else f"{v:.17g}"
    buf = io.StringIO(newline="")
    buf.write(f"# run={key}\n")
    writer = csv.writer(buf)
    writer.writerow(["step", "loss", "phi", "noise_norm", "grad_norm"])
    for t in range(rec.steps):
        phi = rec.potential[t] if rec.potential is not None else None
        writer.writerow([t, cell(rec.train_loss[t]), cell(phi),
                         cell(rec.noise_norm[t]), cell(rec.grad_norm[t])])
    return buf.getvalue().encode("utf-8")


def test_trajectory_csvs_are_the_csv_writer_bytes(tmp_path):
    odd = np.array([0.1, -0.0, 1e-300, 5e-324, -2.5e17, 1.0 / 3.0, math.inf,
                    -math.inf, math.nan, 7.0])
    rng = np.random.default_rng(5)

    def record(potential):
        steps = odd.size
        return RunRecord(final_x=np.zeros(2), train_loss=odd,
                         noise_norm=rng.standard_normal(steps) ** 2,
                         grad_norm=odd[::-1].copy(), potential=potential)

    records = {("a", 0.5, 1): record(np.append(rng.standard_normal(odd.size), 2.0)),
               ("b", 0.5, 1): RunAborted(3, "non-finite iterate"),
               ("c", 2.0, 1): record(None)}
    paths = [write_trajectory(str(tmp_path / "summary.csv"), i, key, records[key])
             for i, key in enumerate(sorted(records))]
    assert paths[1] is None
    assert [os.path.basename(p) for p in paths[::2]] == ["summary_traj_0.csv",
                                                        "summary_traj_2.csv"]
    for path, key in zip(paths[::2], (("a", 0.5, 1), ("c", 2.0, 1))):
        with open(path, "rb") as fh:
            assert fh.read() == _csv_writer_trajectory(key, records[key])


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
        _grads_and_loss = LossProblem._grads_and_loss  # calls per_example_grads

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
