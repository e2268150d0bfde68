from __future__ import annotations

import random
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from shoulderseason.adequacy import (
    GenerationHistogram,
    average_outages,
    format_gw,
    generation_histogram,
    incremental_maintenance_delta,
    unmet_demand_fraction,
)
from shoulderseason.ingest import Outages


def _outages(rows: list[tuple[datetime, float, float | None]]) -> Outages:
    return Outages(
        np.array([ts for ts, _, _ in rows], dtype="datetime64[us]"),
        np.array([o for _, o, _ in rows], dtype=float),
        np.array([np.nan if t is None else t for _, _, t in rows], dtype=float),
    )


def _records(start: date, days: int, outage_mw, telem_mw=None) -> Outages:
    out = []
    for d in range(days):
        day = start + timedelta(days=d)
        for h in range(24):
            for q in (0, 15, 30, 45):
                ts = datetime(day.year, day.month, day.day, h, q)
                o = outage_mw(ts) if callable(outage_mw) else outage_mw
                t = telem_mw(ts) if callable(telem_mw) else telem_mw
                out.append((ts, o, t))
    return _outages(out)


class TestAverageOutages:
    def test_constant_outages(self) -> None:
        records = _records(date(2022, 3, 15), 5, 5000.0)
        stat = average_outages(records, [(date(2022, 3, 15), date(2022, 3, 19))], "test")
        assert stat.mean_outage_gw == pytest.approx(5.0)
        assert stat.n_records == 5 * 96

    def test_period_bounds_inclusive(self) -> None:
        records = _records(date(2022, 3, 1), 10, lambda ts: float(ts.day))
        stat = average_outages(records, [(date(2022, 3, 3), date(2022, 3, 5))], "test")
        assert stat.mean_outage_gw == pytest.approx(4.0 / 1000.0)
        assert stat.n_records == 3 * 96

    def test_empty_coverage_errors(self) -> None:
        records = _records(date(2022, 3, 1), 2, 5000.0)
        with pytest.raises(ValueError, match="no outage records"):
            average_outages(records, [(date(2023, 1, 1), date(2023, 1, 31))], "test")

    def test_reordering_invariance(self) -> None:
        rng = random.Random(3)
        records = _records(date(2022, 1, 1), 4, lambda ts: rng.uniform(0, 30000))
        base = average_outages(records, [(date(2022, 1, 1), date(2022, 1, 4))], "test")
        order = list(range(len(records)))
        rng.shuffle(order)
        again = average_outages(records[order], [(date(2022, 1, 1), date(2022, 1, 4))], "test")
        assert again.mean_outage_gw == pytest.approx(base.mean_outage_gw, abs=1e-12)

    def test_pooled_disjoint_ranges(self) -> None:
        records = _records(date(2022, 1, 1), 40, lambda ts: 1000.0 if ts.month == 1 else 3000.0)
        pooled = average_outages(
            records,
            [(date(2022, 1, 1), date(2022, 1, 31)), (date(2022, 2, 1), date(2022, 2, 9))],
            "test",
        )
        expected = (31 * 1000.0 + 9 * 3000.0) / 40 / 1000.0
        assert pooled.mean_outage_gw == pytest.approx(expected)
        assert pooled.start == date(2022, 1, 1)
        assert pooled.end == date(2022, 2, 9)


class TestIncrementalDelta:
    def test_headline_values(self) -> None:
        assert incremental_maintenance_delta(22.1, 16.6) == pytest.approx(5.5, abs=1e-9)

    def test_equal_inputs(self) -> None:
        assert incremental_maintenance_delta(7.0, 7.0) == 0.0

    def test_simple_difference(self) -> None:
        assert incremental_maintenance_delta(10.0, 4.0) == pytest.approx(6.0)

    def test_negative_inputs_rejected(self) -> None:
        with pytest.raises(ValueError):
            incremental_maintenance_delta(-1.0, 2.0)


class TestUnmetDemandFraction:
    def test_zero_when_supply_covers_everything(self) -> None:
        demand = [40000.0, 45000.0, 50000.0]
        assert unmet_demand_fraction(demand, 60000.0, 0.0) == 0.0

    def test_hand_counted_two_of_ten(self) -> None:
        demand = [10.0] * 8 + [95.0, 99.0]
        assert unmet_demand_fraction(demand, 100.0, 10.0) == 20.0

    def test_monotone_in_extra_outage(self) -> None:
        rng = np.random.default_rng(5)
        demand = list(rng.uniform(30000, 70000, size=200))
        fractions = [
            unmet_demand_fraction(demand, 72000.0, x) for x in (0.0, 2000.0, 5500.0, 9000.0)
        ]
        assert fractions == sorted(fractions)

    def test_monotone_in_max_output(self) -> None:
        rng = np.random.default_rng(7)
        demand = list(rng.uniform(30000, 70000, size=200))
        fractions = [
            unmet_demand_fraction(demand, m, 5500.0) for m in (80000.0, 70000.0, 60000.0)
        ]
        assert fractions == sorted(fractions)

    def test_empty_series_errors(self) -> None:
        with pytest.raises(ValueError, match="empty demand series"):
            unmet_demand_fraction([], 100.0, 0.0)

    def test_preconditions(self) -> None:
        with pytest.raises(ValueError):
            unmet_demand_fraction([1.0], 100.0, -5.0)
        with pytest.raises(ValueError):
            unmet_demand_fraction([1.0], 5.0, 10.0)


class TestGenerationHistogram:
    def test_constant_output_single_bin(self) -> None:
        records = _records(date(2022, 1, 1), 2, 1000.0, 50000.0)
        hist = generation_histogram(
            records, [(date(2022, 1, 1), date(2022, 1, 2))], 1000.0, peak_demand_mw=48000.0
        )
        assert sum(1 for c in hist.counts if c > 0) == 1
        assert sum(hist.counts) == len(records)

    def test_uniform_output_headroom(self) -> None:
        # Output spanning 40-60 GW with a 55 GW peak demand: 5 GW headroom.
        values = np.linspace(40000.0, 60000.0, 96)
        day = date(2022, 1, 1)
        records = _outages(
            [
                (datetime(2022, 1, 1, i // 4, (i % 4) * 15), 0.0, float(v))
                for i, v in enumerate(values)
            ]
        )
        hist = generation_histogram(records, [(day, day)], 1000.0, peak_demand_mw=55000.0)
        assert hist.max_output_mw == pytest.approx(60000.0)
        assert hist.headroom_mw == pytest.approx(5000.0)
        assert not hist.balanced

    def test_balanced_flag_at_zero_headroom(self) -> None:
        records = _records(date(2022, 1, 1), 1, 0.0, 50000.0)
        hist = generation_histogram(
            records, [(date(2022, 1, 1), date(2022, 1, 1))], 500.0, peak_demand_mw=50000.0
        )
        assert hist.headroom_mw == 0.0
        assert hist.balanced

    @pytest.mark.parametrize(
        "max_output_mw, peak_demand_mw, balanced",
        [(0.1 + 0.2, 0.3, True), (53800.0, 51500.0, False), (0.0, 0.0, True)],
    )
    def test_balanced_allows_rounding(
        self, max_output_mw: float, peak_demand_mw: float, balanced: bool
    ) -> None:
        hist = GenerationHistogram((0.0, 1.0), (1,), peak_demand_mw, max_output_mw)
        assert hist.balanced is balanced

    def test_counts_sum_to_period_records(self) -> None:
        rng = np.random.default_rng(11)
        records = _records(
            date(2022, 1, 1), 3, 0.0, lambda ts: float(rng.uniform(40000, 70000))
        )
        hist = generation_histogram(
            records, [(date(2022, 1, 2), date(2022, 1, 2))], 2000.0, peak_demand_mw=60000.0
        )
        assert sum(hist.counts) == 96

    def test_bin_edges_cover_extremes(self) -> None:
        records = _records(date(2022, 1, 1), 1, 0.0, 49999.0)
        hist = generation_histogram(
            records, [(date(2022, 1, 1), date(2022, 1, 1))], 1000.0, peak_demand_mw=1.0
        )
        assert hist.bin_edges[0] <= 49999.0 <= hist.bin_edges[-1]

    def test_empty_period_errors(self) -> None:
        records = _records(date(2022, 1, 1), 1, 0.0, None)
        with pytest.raises(ValueError, match="no telemetered output"):
            generation_histogram(
                records, [(date(2022, 1, 1), date(2022, 1, 1))], 1000.0, peak_demand_mw=1.0
            )


class TestFormatGw:
    def test_three_significant_digits(self) -> None:
        assert format_gw(24.0) == "24.0"
        assert format_gw(8.64) == "8.64"
        assert format_gw(10.3) == "10.3"
        assert format_gw(5.5) == "5.50"
        assert format_gw(0.5) == "0.500"
        assert format_gw(0.0) == "0.00"
        assert format_gw(23.0999) == "23.1"
