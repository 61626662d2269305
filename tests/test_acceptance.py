"""Acceptance gate: one test per headline claim, each printed as a single
PASS/FAIL line with its measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
image-classification check is the only one permitted to skip, and only when
the dataset files are not installed.
"""

import pytest

from dpsrgd import verify

_RESULTS: dict[int, verify.CriterionResult] = {}


def _get(index: int) -> verify.CriterionResult:
    if index not in _RESULTS:
        _RESULTS[index] = getattr(verify, f"criterion_{index}")()
    return _RESULTS[index]


@pytest.mark.parametrize("index", range(1, 11))
def test_criterion(index):
    result = _get(index)
    line = (f"[{result.index:2d}] {result.status} {result.name}: "
            f"{result.detail} ({result.elapsed:.2f}s)")
    print(line)
    if result.passed is None:
        assert index == 10, "only the dataset-dependent criterion may skip"
        pytest.skip(result.detail)
    assert result.passed, line


# The details of the criteria that run `verify`'s private helpers, at the
# figures they printed when the helpers lived in `counting`, `objectives`
# and `optim`: a helper change that moves a figure fails here.
_PINNED_DETAILS = {
    4: "exceed fraction = 0.0000 (want <= 0.05); observed max = 19.73 vs bound 162.68",
    5: "max |mean| / (4 SE) = 0.477 over 16 prefixes (want <= 1)",
    6: ("Var(grad_t) fit over t = [12, 24, 36, 48]: slope = 0.778 (closed form 0.735), "
        "R^2 = 0.9968 (want >= 0.9)"),
}


@pytest.mark.parametrize("index", sorted(_PINNED_DETAILS))
def test_criterion_detail_is_pinned(index):
    assert _get(index).detail == _PINNED_DETAILS[index]
