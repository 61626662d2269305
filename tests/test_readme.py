"""The README's library example runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    (code,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                         flags=re.S | re.M)
    exec(compile(code, str(README), "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))
