"""The README's library example and CLI examples run as written."""

import math
import re
import shlex
from pathlib import Path

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
