"""Cases for the package's one bound check, `geometry.check_in`.

A site is (label, call, name, interval): `call(value)` hands value to the
check of `name` against `interval`. Its cases are NaN, each end of the
interval, and one value just outside each finite end; an end is accepted
when the interval closes it. An integer set "{a, a+1, ...}" takes a and
numpy's int64(a), and rejects a - 1, inf, a + 0.5 and float(a). Every
other case is rejected in the one form "<name> must lie in <interval>, got
<value!r>".
"""

import math

import numpy as np
import pytest


def cases(interval: str) -> list:
    """(value, accepted) pairs of one site."""
    if interval[0] == "{":
        low = int(interval[1:interval.index(",")])
        return [(math.nan, False), (low, True), (np.int64(low), True), (low - 1, False),
                (math.inf, False), (low + 0.5, False), (float(low), False)]
    low, high = (float(end) for end in interval[1:-1].split(","))
    out = [(math.nan, False), (low, interval[0] == "["),
           (math.nextafter(low, -math.inf), False), (high, interval[-1] == "]")]
    if math.isfinite(high):
        out.append((math.nextafter(high, math.inf), False))
    return out


def params(sites) -> list:
    """One pytest param (call, name, interval, value, accepted) per case of
    each site."""
    return [pytest.param(call, name, interval, value, ok, id=f"{label}-{name}={value!r}")
            for label, call, name, interval in sites for value, ok in cases(interval)]


def check_case(call, name, interval, value, ok):
    """Assert that call(value) returns when ok, and otherwise raises the
    one message form."""
    if ok:
        call(value)
        return
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must lie in {interval}, got {value!r}"
