from __future__ import annotations

import io
import random
import re
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DailyLoadRecord
from shoulderseason.ingest import (
    DAILY_HEADER,
    DailyLoad,
    FuelMix,
    HourlyLoad,
    aggregate_daily,
    date_numbers,
    net_non_thermal,
    numbers_to_days,
    parse_fuel_mix,
    parse_hourly_load,
    parse_outages,
    read_daily_summaries,
)


def _load_csv(rows: list[str]) -> list[str]:
    return ["date,hour,load_mw"] + rows


def _hourly(rows: list[tuple[datetime, float]]) -> HourlyLoad:
    return HourlyLoad(
        np.array([t for t, _ in rows], dtype="datetime64[h]"),
        np.array([v for _, v in rows], dtype=float),
    )


def _mix(rows: list[tuple[datetime, float, float, float, float]]) -> FuelMix:
    """The hourly table the reader folds from these samples."""
    lines = (",".join([ts.isoformat(), *map(repr, mw)]) for ts, *mw in rows)
    return parse_fuel_mix(["timestamp,wind_mw,solar_mw,hydro_mw,other_mw", *lines])


def _summaries(daily: DailyLoad) -> list[DailyLoadRecord]:
    """The days with data, one record each."""
    p = daily.present
    columns = (c[p].tolist() for c in daily.columns)
    return [DailyLoadRecord(*row) for row in zip(daily.days[p].tolist(), *columns)]


_DATE_TEXTS = st.one_of(
    st.dates(date(1, 1, 1), date(9999, 12, 31)).map(date.isoformat),
    # Leap days, and Feb 29 of years that have none.
    st.integers(1, 9999).map(lambda year: f"{year:04d}-02-29"),
    # Near misses: year 0, month 00 or 13, day 00 or 29-32.
    st.just("0000-01-01"),
    st.builds(
        lambda year, month, day: f"{year:04d}-{month}-{day:02d}",
        st.integers(0, 9999),
        st.sampled_from(["00", "13"]),
        st.integers(1, 28),
    ),
    st.builds(
        lambda year, month, day: f"{year:04d}-{month:02d}-{day}",
        st.integers(1, 9999),
        st.integers(1, 12),
        st.sampled_from(["00", "29", "30", "31", "32"]),
    ),
    st.text("0123456789-/ ", min_size=10, max_size=10),
)


@settings(max_examples=1000, deadline=None)
@given(text=_DATE_TEXTS)
def test_date_decoder_matches_fromisoformat(text: str) -> None:
    # The bytes decoder of the load, daily and grid readers, one text at a time.
    try:
        got = numbers_to_days(date_numbers(np.array([text.encode()])))[0].item()
    except ValueError:
        got = None
    try:
        want = date.fromisoformat(text)
    except ValueError:
        want = None
    # A bare YYYY-MM-DD text reads as fromisoformat reads it; any other is refused.
    bare = re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text) is not None
    assert got == (want if bare else None)


class TestParseHourlyLoad:
    def test_three_rows_in_order(self) -> None:
        records = parse_hourly_load(
            _load_csv(["2020-01-01,0,100", "2020-01-01,1,110.5", "2020-01-01,2,95"])
        )
        assert records.load_mw.tolist() == [100.0, 110.5, 95.0]
        assert records.hours[0].item() == datetime(2020, 1, 1, 0)
        assert records.hours[2].item() == datetime(2020, 1, 1, 2)

    def test_negative_load_names_row(self) -> None:
        with pytest.raises(ValueError, match="line 3: negative load '-5'"):
            parse_hourly_load(_load_csv(["2020-01-01,0,100", "2020-01-01,1,-5"]))

    def test_duplicate_hour_rejected(self) -> None:
        with pytest.raises(ValueError, match="duplicate timestamp"):
            parse_hourly_load(_load_csv(["2020-01-01,5,100", "2020-01-01,5,101"]))

    def test_non_monotone_rejected(self) -> None:
        with pytest.raises(ValueError, match="not increasing"):
            parse_hourly_load(_load_csv(["2020-01-02,0,100", "2020-01-01,23,101"]))

    def test_malformed_row_reports_line(self) -> None:
        with pytest.raises(ValueError, match="line 2"):
            parse_hourly_load(_load_csv(["2020-01-01,0"]))
        with pytest.raises(ValueError, match="line 2: bad hour"):
            parse_hourly_load(_load_csv(["2020-01-01,noon,1"]))
        with pytest.raises(ValueError, match="hour 24 out of range"):
            parse_hourly_load(_load_csv(["2020-01-01,24,1"]))
        with pytest.raises(ValueError, match="bad date"):
            parse_hourly_load(_load_csv(["01/02/2020,0,1"]))
        with pytest.raises(ValueError, match="non-finite"):
            parse_hourly_load(_load_csv(["2020-01-01,0,nan"]))

    def test_bad_header(self) -> None:
        with pytest.raises(ValueError, match="expected header"):
            parse_hourly_load(["day,hour,mw", "2020-01-01,0,1"])

    def test_empty_file(self) -> None:
        with pytest.raises(ValueError, match="empty file"):
            parse_hourly_load([])


class TestAggregateDaily:
    def test_full_constant_day(self) -> None:
        hourly = _hourly([(datetime(2020, 3, 1, h), 1.0) for h in range(24)])
        (summary,) = _summaries(aggregate_daily(hourly))
        assert summary == DailyLoadRecord(date(2020, 3, 1), 24.0, 1.0, 24)

    def test_partial_day_hand_sum(self) -> None:
        hourly = _hourly(
            [
                (datetime(2020, 3, 1, 4), 2.0),
                (datetime(2020, 3, 1, 5), 5.0),
                (datetime(2020, 3, 1, 6), 3.0),
            ]
        )
        (summary,) = _summaries(aggregate_daily(hourly))
        assert summary.total_energy_mwh == 10.0
        assert summary.peak_demand_mw == 5.0
        assert summary.hours_present == 3

    def test_empty_input(self) -> None:
        assert _summaries(aggregate_daily(_hourly([]))) == []

    def test_multiple_days_split(self) -> None:
        hourly = _hourly([(datetime(2020, 3, 1, 23), 4.0), (datetime(2020, 3, 2, 0), 6.0)])
        days = _summaries(aggregate_daily(hourly))
        assert [s.day for s in days] == [date(2020, 3, 1), date(2020, 3, 2)]
        assert [s.peak_demand_mw for s in days] == [4.0, 6.0]

    def test_day_without_hours_is_missing(self) -> None:
        hourly = _hourly([(datetime(2020, 3, 1, 23), 4.0), (datetime(2020, 3, 3, 0), 6.0)])
        daily = aggregate_daily(hourly)
        assert daily.first == date(2020, 3, 1)
        assert daily.present.tolist() == [True, False, True]
        assert daily.hours_present.tolist() == [1, 0, 1]

    def test_sorting_shuffled_input_matches(self) -> None:
        rng = random.Random(7)
        for _ in range(20):
            rows = [
                (datetime(2021, 5, 1 + d, h), rng.uniform(0, 100))
                for d in range(3)
                for h in range(24)
            ]
            expected = _summaries(aggregate_daily(_hourly(rows)))
            shuffled = rows[:]
            rng.shuffle(shuffled)
            shuffled.sort(key=lambda r: r[0])
            assert _summaries(aggregate_daily(_hourly(shuffled))) == expected

    def test_mean_below_peak_property(self) -> None:
        rng = random.Random(11)
        hourly = _hourly([(datetime(2021, 5, 1, h), rng.uniform(0, 100)) for h in range(24)])
        (summary,) = _summaries(aggregate_daily(hourly))
        assert summary.total_energy_mwh / summary.hours_present <= summary.peak_demand_mw


class TestNetNonThermal:
    @staticmethod
    def _mix(samples: list[tuple[datetime, float]]) -> FuelMix:
        return _mix([(ts, total / 2, total / 4, total / 4, 40.0) for ts, total in samples])

    def test_simple_subtraction(self) -> None:
        load = _hourly([(datetime(2022, 6, 1, 0), 50_000.0)])
        mix = self._mix([(datetime(2022, 6, 1, 0), 20_000.0)])
        (out,) = net_non_thermal(load, mix).load_mw
        assert out == pytest.approx(30_000.0)

    def test_floored_at_zero(self) -> None:
        load = _hourly([(datetime(2022, 6, 1, 0), 10_000.0)])
        mix = self._mix([(datetime(2022, 6, 1, 0), 25_000.0)])
        (out,) = net_non_thermal(load, mix).load_mw
        assert out == 0.0

    def test_quarter_hours_averaged(self) -> None:
        load = _hourly([(datetime(2022, 6, 1, 0), 100.0)])
        mix = self._mix(
            [
                (datetime(2022, 6, 1, 0, q), total)
                for q, total in zip((0, 15, 30, 45), (10.0, 20.0, 30.0, 40.0))
            ]
        )
        (out,) = net_non_thermal(load, mix).load_mw
        assert out == pytest.approx(100.0 - 25.0)

    def test_missing_coverage(self) -> None:
        load = _hourly([(datetime(2022, 6, 1, 3), 100.0)])
        mix = self._mix([(datetime(2022, 6, 1, 0), 10.0)])
        with pytest.raises(ValueError, match="missing fuel-mix coverage"):
            net_non_thermal(load, mix)

    def test_never_exceeds_input_never_negative(self) -> None:
        rng = random.Random(3)
        load = _hourly([(datetime(2022, 6, 1, h), rng.uniform(0, 60_000)) for h in range(24)])
        mix = self._mix(
            [
                (datetime(2022, 6, 1, h, q), rng.uniform(0, 70_000))
                for h in range(24)
                for q in (0, 15, 30, 45)
            ]
        )
        netted = net_non_thermal(load, mix)
        assert ((0.0 <= netted.load_mw) & (netted.load_mw <= load.load_mw)).all()
        assert (netted.hours == load.hours).all()


class TestParseOutages:
    def test_four_quarter_hours(self) -> None:
        rows = ["timestamp,outage_mw,telemetered_output_mw"] + [
            f"2022-01-01T00:{q:02d},5000,60000" for q in (0, 15, 30, 45)
        ]
        records = parse_outages(rows)
        assert len(records) == 4
        assert records.timestamps[1].item() == datetime(2022, 1, 1, 0, 15)
        assert records.outage_mw[0] == 5000.0
        assert records.telemetered_output_mw[0] == 60000.0

    def test_misaligned_timestamp(self) -> None:
        rows = ["timestamp,outage_mw,telemetered_output_mw", "2022-01-01T00:07,5000,"]
        with pytest.raises(ValueError, match="15-minute boundary"):
            parse_outages(rows)

    def test_negative_outage(self) -> None:
        rows = ["timestamp,outage_mw,telemetered_output_mw", "2022-01-01T00:00,-1,"]
        with pytest.raises(ValueError, match="negative outage_mw"):
            parse_outages(rows)

    def test_optional_telemetered(self) -> None:
        rows = ["timestamp,outage_mw,telemetered_output_mw", "2022-01-01T00:00,5000,"]
        (telem,) = parse_outages(rows).telemetered_output_mw
        assert np.isnan(telem)


class TestParseFuelMix:
    def test_basic(self) -> None:
        rows = [
            "timestamp,wind_mw,solar_mw,hydro_mw,other_mw",
            "2022-01-01T00:00,9000,0,300,200",
            "2022-01-01T00:15,9100,0,300,200",
        ]
        mix = parse_fuel_mix(rows)
        assert len(mix) == 1
        assert mix.hours[0].item() == datetime(2022, 1, 1, 0)
        assert mix.non_thermal_mw[0] == pytest.approx(9350.0)

    def test_negative_entry(self) -> None:
        rows = ["timestamp,wind_mw,solar_mw,hydro_mw,other_mw", "2022-01-01T00:00,-1,0,0,0"]
        with pytest.raises(ValueError, match="negative wind_mw"):
            parse_fuel_mix(rows)

    def test_misaligned(self) -> None:
        rows = ["timestamp,wind_mw,solar_mw,hydro_mw,other_mw", "2022-01-01T00:05,1,0,0,0"]
        with pytest.raises(ValueError, match="15-minute boundary"):
            parse_fuel_mix(rows)


class TestRoundTrips:
    def test_daily_summary_round_trip(self) -> None:
        summaries = [
            DailyLoadRecord(date(2020, 1, 1), 912345.678, 51234.5, 24),
            DailyLoadRecord(date(2020, 1, 2), 887766.0, 49887.25, 23),
            DailyLoadRecord(date(2020, 1, 5), 1.0, 0.5, 0),
        ]
        days, *columns = map(np.array, zip(*summaries))
        buf = io.StringIO()
        buf.write(DailyLoad.from_days(days.astype("datetime64[D]"), *columns).format(DAILY_HEADER))
        assert buf.getvalue().splitlines()[-1] == "2020-01-05,1.0,0.5,0"
        buf.seek(0)
        assert _summaries(read_daily_summaries(buf)) == summaries

    def test_daily_summary_days_must_increase(self) -> None:
        rows = [DAILY_HEADER, "2020-01-02,1.0,1.0,24", "2020-01-01,1.0,1.0,24"]
        with pytest.raises(
            ValueError, match=r"^line 3: timestamps not increasing \(2020-01-01 after 2020-01-02\)$"
        ):
            read_daily_summaries(rows)
