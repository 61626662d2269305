"""The README's library example and CLI examples run as written, and its
algorithm table and sample `verify` lines agree with the code."""

import ast
import dataclasses
import inspect
import math
import re
import shlex
from pathlib import Path

import pytest

from dpsrgd import counting, harness, optim, verify
from dpsrgd.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.S | re.M)


def _dpsrgd_commands(block: str) -> list[list[str]]:
    """The arguments of each `dpsrgd` command in a sh block, line
    continuations joined."""
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("dpsrgd ")]


def test_readme_library_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


def test_readme_run_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in _blocks("sh") if "cat > exp.cfg" in b]
    config = re.search(r"<<'EOF'\n(.*?)^EOF$", block, flags=re.S | re.M).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(config, encoding="utf-8")
    (args,) = _dpsrgd_commands(block)
    assert args[0] == "run"
    assert main(args) == 0
    assert "wrote results.csv" in capsys.readouterr().out


def test_readme_factorize_example_runs(capsys):
    (args,) = [args for b in _blocks("sh") for args in _dpsrgd_commands(b)
               if args[0] == "factorize"]
    assert main(args) == 0
    assert "sens=" in capsys.readouterr().out


def _criterion_names() -> dict[int, str]:
    """Each criterion's index -> the name `verify` prints for it, read from
    its `_run(index, name, body)` call without running it."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    return {node.args[0].value: node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_run"
            and all(isinstance(a, ast.Constant) for a in node.args[:2])}


def test_readme_sample_verify_lines_name_their_criteria():
    names = _criterion_names()
    assert sorted(names) == list(range(1, 11))
    sample = re.findall(r"^\[ ?(\d+)\] (?:PASS|FAIL|SKIP) (.*?)  ",
                        README.read_text(encoding="utf-8"), flags=re.M)
    assert sample
    assert [name for _, name in sample] == [names[int(i)] for i, _ in sample]


def _algorithm_table() -> dict[str, dict[str, str]]:
    """The README's algorithm table: algorithm name -> column -> cell."""
    text = README.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.startswith("| ")]
    start = next(i for i, line in enumerate(lines) if line.startswith("| Algorithm |"))
    cells = lambda line: [c.strip() for c in line.strip("|").split("|")]
    columns = cells(lines[start])
    rows = {}
    for line in lines[start + 2:]:
        row = dict(zip(columns, cells(line)))
        if not row["Algorithm"].startswith("`"):
            break
        rows[row["Algorithm"].strip("`")] = row
    return rows


def _accepts(spec) -> bool:
    try:
        spec.validate()
    except ValueError:
        return False
    return True


def _called(monkeypatch, spec) -> list[str]:
    """The runners and noise streams that the harness itself calls in a
    sweep of `spec`, by name (mf_noise_stream calls gaussian_rows too)."""
    calls = []

    def spy(fn, name):
        def call(*args, **kwargs):
            if inspect.currentframe().f_back.f_globals["__name__"] == harness.__name__:
                calls.append(name)
            return fn(*args, **kwargs)
        return call

    targets = [("optim", optim, n) for n in vars(optim) if n.startswith("run_")] + [
        ("counting", counting, n) for n in ("tree_rows", "gaussian_rows", "mf_noise_stream")]
    for prefix, module, name in targets:
        monkeypatch.setattr(module, name, spy(getattr(module, name), f"{prefix}.{name}"))
    harness.run_experiment(spec)
    return sorted(calls)


def test_readme_algorithm_table_lists_every_algorithm_in_order():
    assert list(_algorithm_table()) == list(harness._ALGORITHMS)


@pytest.mark.parametrize("algorithm", list(harness._ALGORITHMS))
def test_readme_algorithm_table_row_matches_the_harness(monkeypatch, algorithm):
    row = _algorithm_table()[algorithm]
    record = harness._ALGORITHMS[algorithm]
    mechanism, workload, stream = re.fullmatch(
        r"(\w+)(?:, `(\w+)`)? \(`([\w.]+)`\)", row["Mechanism (noise stream)"]).groups()
    assert {"tree": "tree", "strategy": workload}[mechanism] == record.noise
    length = {"epochs": 2} if record.multi_epoch else {"steps": 4}
    spec = harness.ExperimentSpec(
        task="synthetic", algorithm=algorithm, epsilon=2.0, dim=3, train_size=64,
        batch_size=8, output="unused.csv", **length)
    assert _called(monkeypatch, spec) == sorted([row["Runner"].strip("`"), stream])

    sigma = row["σ rule"]
    assert ("`srgd_sigma`" in sigma) == record.lipschitz_bound(math.inf)
    assert sigma.startswith("`srgd_sigma`") == record.lipschitz_bound(1.0)
    assert ("`tree_sens(T)`" in sigma) == (record.noise == "tree")

    with_ = lambda **kw: _accepts(dataclasses.replace(spec, **kw))
    yes_no = lambda accepted: "yes" if accepted else "no"
    assert row["lr"] == yes_no(with_(lr_grid=(0.5, 1.0)))
    assert row["workload"] == yes_no(with_(workload="momentum"))
    assert row["epochs"] == yes_no(with_(epochs=3))
    assert row["steps"] == yes_no(with_(steps=5))
    c_read = with_(c_grid=(0.0, 0.5))
    c_on_decay = with_(workload="momentum_decay", c_grid=(0.5, 1.0))
    assert row["c"] == ("yes" if c_read else "on `momentum_decay`" if c_on_decay
                        else "no")
    momentum_read = with_(momentum=0.5)
    momentum_on_workloads = (with_(workload="momentum", momentum=0.5) and with_(
        workload="momentum_decay", c_grid=(0.5,), momentum=0.5))
    assert row["momentum"] == ("yes" if momentum_read else "on `momentum`, `momentum_decay`"
                               if momentum_on_workloads else "no")
