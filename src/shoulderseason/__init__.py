"""Shoulder-season analytics for electric-grid load and temperature data.

Finds the lowest-demand 45-day windows of each half-year, tracks how
their onsets drift over time, projects them along corrected climate-
ensemble warming paths, and sizes the winter maintenance deficit.
"""

from .adequacy import (
    GenerationHistogram,
    PeriodOutageStat,
    average_outages,
    generation_histogram,
    incremental_maintenance_delta,
    unmet_demand_fraction,
)
from .ingest import (
    DailyLoad,
    DailySeries,
    FuelMix,
    HourlyLoad,
    Outages,
    aggregate_daily,
    net_non_thermal,
    parse_fuel_mix,
    parse_hourly_load,
    parse_outages,
)
from .projection import (
    BiasCorrection,
    EnsembleAnnualStats,
    OnsetProjection,
    ensemble_annual_stats,
    fit_bias_correction,
    merge_year,
    onset_vs_temperature,
    project_onsets,
)
from .thermal import (
    CubicDemandFit,
    PopulationGrid,
    RegionMask,
    TemperatureGrid,
    degree_day_series,
    degree_days,
    fit_demand_temperature_cubic,
    global_t0,
    population_weighted_daily_temp,
    reference_temperature,
    spatial_temp_stddev,
)
from .trends import (
    CorrelationResult,
    TrendResult,
    confidence_band,
    linear_trend,
    moving_average,
    pearson_with_cutoff,
    shift_probability,
)
from .windows import ShoulderWindow, min_window, shoulder_table

__version__ = "0.1.0"
