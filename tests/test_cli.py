"""Command-line interface: subcommand wiring, exit codes, and the run
verb's streamed output."""

import functools
import gc
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from dpsrgd import harness, optim
from dpsrgd.cli import main
from dpsrgd.counting import build_strategy
from dpsrgd.harness import (
    ExperimentSpec,
    emit_csv,
    parse_summary_csv,
    run_experiment,
    write_trajectory,
)

from dataset_files import save_csv


def test_no_arguments_is_invalid(capsys):
    assert main([]) == 2
    assert main(["not-a-verb"]) == 2


def _printed_strategy(text):
    """(objective, sens) from the factorize verb's printed line."""
    fields = dict(part.split("=") for part in text.split(": ")[1].split())
    return float(fields["objective"]), float(fields["sens"])


def test_factorize_writes_strategy(capsys):
    rc = main(["factorize", "--workload", "momentum", "--batches", "8",
               "--momentum", "0.5"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("momentum strategy for 1 x 8 steps: ")
    objective, sens = _printed_strategy(text)
    want = build_strategy("momentum", 1, 8, momentum=0.5)
    assert objective == pytest.approx(want.objective, abs=1e-6)
    assert sens == pytest.approx(want.sens, abs=1e-6)
    assert sens <= 1.0 + 1e-9


def test_factorize_benchmark_momentum_decay_strategy(capsys):
    assert main(["factorize", "--workload", "momentum_decay", "--epochs", "2",
                 "--batches", "40", "--momentum", "0.9", "--decay", "0.0821"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("momentum_decay strategy for 2 x 40 steps: ")
    objective, sens = _printed_strategy(text)
    want = build_strategy("momentum_decay", 2, 40, momentum=0.9, decay=0.0821)
    assert objective == pytest.approx(want.objective, abs=1e-6)
    assert sens <= 1.0 + 1e-9


def test_factorize_identity_workload(capsys):
    # C = I: the objective is ||A||_F = sqrt(4 * 5 / 2) and sens is 1
    assert main(["factorize", "--workload", "identity", "--batches", "4"]) == 0
    assert _printed_strategy(capsys.readouterr().out) == (
        pytest.approx(math.sqrt(10.0), abs=1e-6), 1.0)
    assert main(["factorize", "--workload", "identity", "--epochs", "2",
                 "--batches", "4"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("identity strategy for 2 x 4 steps: ")
    assert _printed_strategy(text)[1] <= 1.0 + 1e-9


def test_run_subcommand_produces_summary(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "task=synthetic\nalgorithm=dp_sgd\nepsilon=2.0\nsteps=10\n"
        "dim=4\ntrain_size=128\nbatch_size=16\nrepeats=1\n"
        "lr_grid=0.1,0.3\n")
    out = tmp_path / "res.csv"
    rc = main(["run", str(config), "--output", str(out)])
    assert rc == 0
    table = parse_summary_csv(str(out))
    assert len(table.rows) == 2
    assert "*" in capsys.readouterr().out  # best row marker


def test_run_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("algorithm=banana\n")
    assert main(["run", str(config)]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.cfg")]) == 2

    config.write_text("algorithm=dp_sgd\nepsilon=2.0\nclip_grid=inf\n")
    assert main(["run", str(config), "--output", str(tmp_path / "r.csv")]) == 2
    assert "finite clip" in capsys.readouterr().err

    # none for a key that holds no None used to end in a TypeError, exit 1
    config.write_text("algorithm=dp_sgd\nsteps=none\n")
    assert main(["run", str(config), "--output", str(tmp_path / "r.csv")]) == 2
    assert "config key 'steps': none is not" in capsys.readouterr().err


def test_run_rejects_a_finite_budget_run_over_more_than_one_pass(tmp_path, capsys):
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((64, 3))
    save_csv((feats[:, 0] > 0).astype(np.int64), feats, str(tmp_path / "dataset.csv"))
    config = tmp_path / "exp.cfg"
    config.write_text("task=csv-dataset\nalgorithm=dp_sgd\nsteps=12\n"
                      "batch_size=16\nlr_grid=0.1\nepsilon=2.0\n")
    argv = ["run", str(config), "--data-dir", str(tmp_path),
            "--output", str(tmp_path / "r.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "12 steps of batch size 16 over 64 examples" in err
    assert "up to 3 steps" in err
    assert not (tmp_path / "r.csv").exists()
    config.write_text(config.read_text().replace("epsilon=2.0", "epsilon=inf"))
    assert main(argv) == 0
    assert parse_summary_csv(str(tmp_path / "r.csv")).header["max_participation"] == "3"


def test_run_refuses_a_regime_too_small_for_its_header_before_any_file(tmp_path, capsys):
    # both trajectory files were written, then the summary header's theory
    # regime failed with "n must be >= 4, got 3" and no summary was written
    config = tmp_path / "exp.cfg"
    config.write_text("task=synthetic\nalgorithm=accelerated_dp_srgd\nepsilon=2\n"
                      "clip_grid=inf\ntrain_size=3\nbatch_size=2\nsteps=4\nrepeats=2\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(config), "--output", str(out / "s.csv")]) == 2
    assert "train_size" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_verify_subcommand_runs_selected_criteria(capsys):
    rc = main(["verify", "--criteria", "9"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "[ 9] PASS" in text
    assert "criteria: 1 passed, 0 failed, 0 skipped" in text


def test_verify_skips_criterion_10_naming_the_missing_idx_file(tmp_path, monkeypatch,
                                                                capsys):
    # the train pair alone: the skip names the first file the loader misses
    (tmp_path / "train-images-idx3-ubyte").write_bytes(
        bytes([0, 0, 8, 3]) + struct.pack(">3i", 2, 2, 2) + bytes(8))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(
        bytes([0, 0, 8, 1]) + struct.pack(">i", 2) + bytes(2))
    monkeypatch.setenv("DPSRGD_DATA_DIR", str(tmp_path))
    assert main(["verify", "--criteria", "10"]) == 0
    text = capsys.readouterr().out
    missing = repr(str(tmp_path / "t10k-images-idx3-ubyte"))
    assert "[10] SKIP" in text and f"MNIST idx file {missing} (or .gz) not found" in text
    assert "criteria: 0 passed, 0 failed, 1 skipped" in text


def test_verify_rejects_unknown_criterion(capsys):
    assert main(["verify", "--criteria", "11"]) == 2
    assert main(["verify", "--criteria", "zero"]) == 2


def test_report_summarizes_best_rows(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "task=synthetic\nalgorithm=dp_sgd\nepsilon=2.0\nsteps=10\n"
        "dim=4\ntrain_size=128\nbatch_size=16\nrepeats=1\n"
        "lr_grid=0.1,0.3\n")
    out = tmp_path / "res.csv"
    assert main(["run", str(config), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert "dp_sgd" in capsys.readouterr().out

    assert main(["report", str(tmp_path / "nothing.csv")]) == 2


@pytest.mark.parametrize("text, where", [
    ("# algorithm=dp_sgd\n# comments only\n", ": no table header row"),
    ("# rho=inf\nalgorithm,workload,lr,clip,c,acc_mean,acc_ci95,excess_mean\n"
     "dp_sgd,ones,0.1,1,0,,,0.5\ndp_sgd,ones,0.2\n", ", line 4: 3 fields"),
    ("# rho=inf\nalgorithm,workload\ndp_sgd,ones\n",
     ", line 2: unexpected summary header ['algorithm', 'workload']"),
    ("# rho=inf\nalgorithm,workload,lr,clip,c,acc_mean,acc_ci95,excess_mean\n"
     "dp_sgd,ones,0.1,1,0,,,0.5\ndp_sgd,ones,abc,1,0,,,0.5\n",
     ", line 4: could not convert string to float: 'abc'"),
    ("# rho=inf\nalgorithm,workload,lr,clip,c,acc_mean,acc_ci95,excess_mean\n"
     "dp_sgd,ones,0.1,1,0,,,0.5\ndp_sgd,ones,0.2,1,0,,,0.5,9\n",
     ", line 4: 9 fields, the header has 8")],
    ids=["no_table", "short_row", "wrong_header", "non_numeric", "long_row"])
def test_report_on_a_malformed_summary_exits_2(tmp_path, capsys, text, where):
    # these escaped parse_summary_csv as StopIteration and IndexError: exit 1
    # with a traceback; a long row's extra field was dropped: exit 0
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}{where}")


def test_run_on_an_idx_file_cut_inside_its_header_exits_2(tmp_path, capsys):
    # struct.error escaped _read_idx: exit 1 with a traceback
    images = tmp_path / "train-images-idx3-ubyte"
    images.write_bytes(b"\x00\x00\x08\x03\x00\x00")
    config = tmp_path / "exp.cfg"
    config.write_text(f"task=mnist\nalgorithm=dp_sgd\ndata_path={tmp_path}\n")
    assert main(["run", str(config), "--output", str(tmp_path / "res.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {images}: truncated idx header")


def test_run_on_idx_files_whose_counts_differ_exits_2_naming_both(tmp_path, capsys):
    # a 5-image train file beside a 4-label one used to end in LogisticTask's
    # bare "features/labels shape mismatch"
    images = tmp_path / "train-images-idx3-ubyte"
    labels = tmp_path / "train-labels-idx1-ubyte"
    images.write_bytes(bytes([0, 0, 8, 3]) + struct.pack(">3i", 5, 2, 2) + bytes(20))
    labels.write_bytes(bytes([0, 0, 8, 1]) + struct.pack(">i", 4) + bytes(4))
    config = tmp_path / "exp.cfg"
    config.write_text(f"task=mnist\nalgorithm=dp_sgd\ndata_path={tmp_path}\n")
    assert main(["run", str(config), "--output", str(tmp_path / "res.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {images} holds 5 images but {labels} holds 4 labels")


@pytest.mark.parametrize("output", ["no/such/dir/summary.csv", "a_directory"])
def test_run_rejects_an_unwritable_output_before_any_work(tmp_path, monkeypatch, capsys,
                                                          output):
    (tmp_path / "a_directory").mkdir()
    calls = []
    for name, fn in vars(optim).items():
        if name.startswith("run_") and callable(fn):
            monkeypatch.setattr(optim, name, lambda *a, _n=name, **k: calls.append(_n))
    monkeypatch.setattr(harness, "_resolve_budget",
                        lambda spec: calls.append("budget"))
    config = tmp_path / "exp.cfg"
    config.write_text("task=synthetic\nalgorithm=dp_sgd\nsteps=4\ndim=3\n")
    assert main(["run", str(config), "--output", str(tmp_path / output)]) == 2
    assert str(tmp_path / output) in capsys.readouterr().err
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["a_directory", "exp.cfg"]
    assert os.listdir(tmp_path / "a_directory") == []


@pytest.mark.parametrize("where", ["config", "flag"])
def test_run_rejects_an_empty_output_before_any_work(tmp_path, monkeypatch, capsys, where):
    # os.path.dirname("") is "", which the directory check read as "."
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "exp.cfg"
    config.write_text("task=synthetic\nalgorithm=dp_sgd\nsteps=4\ndim=3\nrepeats=2\n"
                      + ("output=\n" if where == "config" else ""))
    args = ["run", str(config)] + (["--output", ""] if where == "flag" else [])
    assert main(args) == 2
    assert "output is empty" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["exp.cfg"]


def _cli_and_library_outputs(tmp_path, spec) -> list[str]:
    """Run `spec` through `dpsrgd run` and through the library, whose
    `run_experiment` writes each trajectory file through `write_trajectory`
    and whose `emit_csv` then writes the summary, into two directories;
    assert that they hold the same files with the same bytes, and return
    the file names."""
    config = tmp_path / "exp.cfg"
    config.write_text(spec.to_text())
    cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
    cli_dir.mkdir()
    lib_dir.mkdir()
    main(["run", str(config), "--output", str(cli_dir / "summary.csv")])
    summary = str(lib_dir / "summary.csv")
    table, _ = run_experiment(spec, on_run=functools.partial(write_trajectory, summary))
    emit_csv(table, summary)
    names = sorted(os.listdir(lib_dir))
    assert sorted(os.listdir(cli_dir)) == names
    for name in names:
        assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes(), name
    return names


def _synthetic_spec(**kw) -> ExperimentSpec:
    # steps=12 only for the single-pass algorithms, which read it
    base = dict(task="synthetic", algorithm="dp_sgd", epsilon=2.0, dim=5,
                train_size=256, batch_size=32, seed_base=4)
    base.update(kw)
    if not harness._ALGORITHMS[base["algorithm"]].multi_epoch:
        base.setdefault("steps", 12)
    return ExperimentSpec(**base)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_output_is_the_library_output_for_an_unsorted_grid(tmp_path, workers):
    names = _cli_and_library_outputs(tmp_path, _synthetic_spec(
        clip_grid=(2.0, 0.5), repeats=3, workers=workers))
    assert names == ["summary.csv"] + [f"summary_traj_{i}.csv" for i in range(6)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_run_output_is_the_library_output_with_aborted_runs(tmp_path):
    # the divergent dp_memf runs of the harness's aborted-run test: an
    # unclipped lr of 1e150 or more overflows, a clipped one stays finite,
    # so the aborted runs leave gaps between the trajectory file indices
    names = _cli_and_library_outputs(tmp_path, _synthetic_spec(
        algorithm="dp_memf", epsilon=math.inf, lr_grid=(1e151, 1e150),
        clip_grid=(math.inf, 0.5), batch_size=64, repeats=2))
    assert names == ["summary.csv"] + [f"summary_traj_{i}.csv" for i in (0, 1, 4, 5)]


def test_run_output_is_the_library_output_with_a_potential_column(tmp_path):
    names = _cli_and_library_outputs(tmp_path, _synthetic_spec(
        algorithm="accelerated_dp_srgd", clip_grid=(0.5, 2.0), repeats=2))
    assert len(names) == 5
    rows = (tmp_path / "cli" / names[1]).read_text().splitlines()[2:]
    assert all(row.split(",")[2] != "" for row in rows)


def _streaming_config(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("task=synthetic\nalgorithm=accelerated_dp_srgd\nepsilon=2.0\n"
                      "steps=6\ndim=4\nbatch_size=8\nclip_grid=0.5,2.0\nrepeats=2\n")
    return ["run", str(config), "--output", str(tmp_path / "res.csv")]


def test_run_writes_each_trajectory_before_the_next_run_starts(tmp_path, monkeypatch):
    runner = optim.run_accelerated_dp_srgd
    started = []

    def spy(*args, **kwargs):
        # a sorted grid: job k is trajectory file k
        k = len(started)
        for i in range(k):
            lines = (tmp_path / f"res_traj_{i}.csv").read_text().splitlines()
            assert len(lines) == 2 + 6, i
        assert not (tmp_path / f"res_traj_{k}.csv").exists()
        assert not (tmp_path / "res.csv").exists()
        started.append(k)
        return runner(*args, **kwargs)

    monkeypatch.setattr(optim, "run_accelerated_dp_srgd", spy)
    assert main(_streaming_config(tmp_path)) == 0
    assert started == [0, 1, 2, 3]
    assert (tmp_path / "res.csv").exists()


def test_a_sweep_that_fails_partway_keeps_finished_trajectories(tmp_path, monkeypatch,
                                                                capsys):
    runner = optim.run_accelerated_dp_srgd
    started = []

    def failing_third_run(*args, **kwargs):
        started.append(len(started))
        if len(started) == 3:
            raise OSError("disk full")
        return runner(*args, **kwargs)

    monkeypatch.setattr(optim, "run_accelerated_dp_srgd", failing_third_run)
    assert main(_streaming_config(tmp_path)) == 2
    assert "disk full" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "res_traj_0.csv",
                                            "res_traj_1.csv"]


def _cli_sweep_peak(tmp_path, repeats: int) -> int:
    """tracemalloc peak of an in-process `dpsrgd run` at the benchmark's
    CLI-sweep shape: accelerated_dp_srgd on the synthetic quadratic, dim 20,
    256 steps of 256 examples, two clip values x `repeats`."""
    config = tmp_path / f"sweep{repeats}.cfg"
    config.write_text("task=synthetic\nalgorithm=accelerated_dp_srgd\nepsilon=2\n"
                      "delta=1e-6\ndim=20\nsteps=256\nbatch_size=256\n"
                      f"clip_grid=0.5,2.0\nrepeats={repeats}\nseed_base=0\n")
    out = tmp_path / f"out{repeats}"
    out.mkdir()
    gc.collect()
    tracemalloc.start()
    try:
        rc = main(["run", str(config), "--output", str(out / "summary.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


def test_run_memory_does_not_grow_with_the_number_of_runs(tmp_path, capsys):
    _cli_sweep_peak(tmp_path, 1)  # warm-up: first-call caches are not the sweep's
    few, many = _cli_sweep_peak(tmp_path, 4), _cli_sweep_peak(tmp_path, 32)
    # 56 more runs; each run's five series of 256 floats would be 10 KB
    assert many - few <= 48 * 1024, (few, many)
