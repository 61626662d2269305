"""Cases for the package's one bound check, `geometry.check_in`.

A site is (label, call, name, interval[, integer]): `call(value)` hands
value to the check of `name` against `interval`. Its cases are NaN, each
end of the interval, and one value just outside each finite end (one
integer below the lower end of an integer site); an end is accepted when
the interval closes it, every other case is rejected in the one form
"<name> must lie in <interval>, got <value!r>".
"""

import math

import pytest


def cases(interval: str, integer: bool = False) -> list:
    """(value, accepted) pairs of one site."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    if integer:
        low = int(low)
    out = [(math.nan, False), (low, interval[0] == "["),
           (low - 1 if integer else math.nextafter(low, -math.inf), False),
           (high, interval[-1] == "]")]
    if math.isfinite(high):
        out.append((math.nextafter(high, math.inf), False))
    return out


def params(sites) -> list:
    """One pytest param (call, name, interval, value, accepted) per case of
    each site."""
    return [pytest.param(call, name, interval, value, ok, id=f"{label}-{name}={value!r}")
            for label, call, name, interval, *integer in sites
            for value, ok in cases(interval, *integer)]


def check_case(call, name, interval, value, ok):
    """Assert that call(value) returns when ok, and otherwise raises the
    one message form."""
    if ok:
        call(value)
        return
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must lie in {interval}, got {value!r}"
