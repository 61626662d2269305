"""Command-line interface: subcommand wiring and exit codes."""

import numpy as np
import pytest

from dpsrgd.cli import main
from dpsrgd.counting import load_strategy
from dpsrgd.harness import parse_summary_csv, save_csv


def test_no_arguments_is_invalid(capsys):
    assert main([]) == 2
    assert main(["not-a-verb"]) == 2


def test_factorize_writes_strategy(tmp_path, capsys):
    out = tmp_path / "strat.bin"
    rc = main(["factorize", "--workload", "momentum", "--batches", "8",
               "--momentum", "0.5", "--output", str(out)])
    assert rc == 0
    strat = load_strategy(str(out))
    assert strat.C.shape == (8, 8)
    assert strat.sens <= 1.0 + 1e-9
    text = capsys.readouterr().out
    assert "objective=" in text and "sens=" in text


def test_factorize_benchmark_momentum_decay_strategy(tmp_path):
    out = tmp_path / "md.bin"
    assert main(["factorize", "--workload", "momentum_decay", "--epochs", "2",
                 "--batches", "40", "--momentum", "0.9", "--decay", "0.0821",
                 "--output", str(out)]) == 0
    strat = load_strategy(str(out))
    assert (strat.kind, strat.k, strat.b) == ("momentum_decay", 2, 40)
    assert strat.sens <= 1.0 + 1e-9


def test_factorize_identity_workload(tmp_path):
    out = tmp_path / "ident.bin"
    assert main(["factorize", "--workload", "identity", "--batches", "4",
                 "--output", str(out)]) == 0
    strat = load_strategy(str(out))
    np.testing.assert_array_equal(strat.C, np.eye(4))
    assert main(["factorize", "--workload", "identity", "--epochs", "2",
                 "--batches", "4", "--output", str(out)]) == 0
    strat = load_strategy(str(out))
    assert (strat.k, strat.b) == (2, 4)
    assert strat.sens <= 1.0 + 1e-9


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


def test_verify_subcommand_runs_selected_criteria(capsys):
    rc = main(["verify", "--criteria", "9"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "[ 9] PASS" in text
    assert "criteria: 1 passed, 0 failed, 0 skipped" in text


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
