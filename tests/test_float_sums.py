"""Outputs must not depend on how the Python version's sum() adds floats.

From Python 3.12, sum() adds floats with Neumaier compensation; before,
it added them left to right. The kernels below add left to right
themselves, so patching sum() with a compensated one changes nothing.
"""

from __future__ import annotations

import builtins
import math
import struct
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoulderseason import projection, thermal, trends
from shoulderseason.ingest import DailySeries

# Left to right this adds to 1.0; with compensation to 2.0.
CANCELLING = [1e16, 1.0, -1e16, 1.0]


def neumaier_sum(values, start=0):
    """sum() as Python 3.12 adds floats."""
    total, compensation = start, 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation else total


def _ensemble_means() -> list[str]:
    days = (31, 28, 31, 30)
    temps = [v / n for v, n in zip(CANCELLING, days)] + [0.0] * 8
    records = [("m1", 2001, month, t) for month, t in enumerate(temps, start=1)]
    return [repr(s.ensemble_mean_c) for s in projection.ensemble_annual_stats(records)]


CASES = {
    "global_t0": lambda: repr(thermal.global_t0(CANCELLING)),
    "annual_means": lambda: repr(
        thermal.annual_means(
            DailySeries.from_mapping(
                {date(2020, 1, 1 + i): v for i, v in enumerate(CANCELLING)}
            )
        )
    ),
    "moving_average": lambda: repr(
        trends.moving_average(list(enumerate(CANCELLING, start=2000)))
    ),
    "ensemble_annual_stats": _ensemble_means,
}


def test_the_inputs_tell_the_two_sums_apart() -> None:
    assert trends.left_sum(CANCELLING) == 1.0
    assert neumaier_sum(CANCELLING) == 2.0


@pytest.mark.parametrize("name", list(CASES))
def test_compensated_sum_changes_no_output(name: str, monkeypatch) -> None:
    plain = CASES[name]()
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert CASES[name]() == plain


def _bits(x: float) -> bytes:
    # Which NaN an addition returns depends on the order the compiled code
    # puts its operands in, which differs even between two CPython paths:
    # all NaNs count as one.
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


@settings(max_examples=500, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, -1e16, 1.0, -1.0]),
            st.floats(),
        ),
        max_size=12,
    )
)
def test_left_sum_adds_as_a_loop_from_zero(values: list[float]) -> None:
    total = 0.0
    for x in values:
        total = total + x
    assert _bits(trends.left_sum(values)) == _bits(total)
    with np.errstate(invalid="ignore", over="ignore"):  # as Python adds: silently
        assert _bits(trends.left_sum(np.array(values, dtype=float))) == _bits(total)
