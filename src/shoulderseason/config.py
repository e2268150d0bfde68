"""Flat key = value run configuration.

Paths are resolved relative to the config file so a fixture directory is
relocatable. Unknown keys and missing files fail validation with the
offending key named.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .ingest import DEFAULT_MIN_HOURS, FUEL_MIX_HEADER, LOAD_HEADER, OUTAGE_HEADER
from .projection import DEFAULT_PERSISTENCE, ENSEMBLE_HEADER
from .thermal import GRID_HEADER, MASK_HEADER, POPULATION_HEADER
from .windows import DEFAULT_MAX_MISSING, DEFAULT_WINDOW_LEN

_OUTLIER_POLICIES = ("none", "auto")


def _key(default, help: str):
    """A config key: its default and its line in the `--help` key reference."""
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    region_label: str = _key("region", "label used in summaries")
    load_csv: Path | None = _key(None, f"hourly load: {LOAD_HEADER}")
    fuel_mix_csv: Path | None = _key(None, f"15-min mix: {FUEL_MIX_HEADER}")
    outage_csv: Path | None = _key(None, f"15-min outages: {OUTAGE_HEADER}")
    temperature_grid: Path | None = _key(
        None, f"{GRID_HEADER} long CSV or .npy raster + .json sidecar"
    )
    population_csv: Path | None = _key(
        None, f"{POPULATION_HEADER} (omit for unweighted temperatures)"
    )
    mask_csv: Path | None = _key(None, f"{MASK_HEADER} with 0/1 flags")
    ensemble_csv: Path | None = _key(None, f"{ENSEMBLE_HEADER} monthly ensemble means")
    window_len: int = _key(DEFAULT_WINDOW_LEN, "shoulder window length in days")
    min_hours: int = _key(
        DEFAULT_MIN_HOURS, "days with fewer hours are excluded from window search"
    )
    max_missing_days: int = _key(
        DEFAULT_MAX_MISSING, "absent days tolerated inside a candidate window"
    )
    allow_year_wrap: bool = _key(True, "let fall windows reach into the next January")
    outlier_policy: str = _key("none", "none | auto (trim fall degree-day outliers)")
    persistence: int = _key(DEFAULT_PERSISTENCE, "consecutive overlap years defining the merge")
    extra_outage_gw: float = _key(5.5, "planned-outage increment for the winter deficit table")
    adequacy_bin_gw: float = _key(1.0, "histogram bin width")
    adequacy_year: int | None = _key(
        None, "focus year for outage period averages (unset: the latest outage year)"
    )
    out_dir: Path = _key(Path("out"), "output directory")

    def validate(self) -> None:
        if self.window_len < 1:
            raise ValueError(f"config key window_len: must be >= 1, got {self.window_len}")
        if not 0 <= self.min_hours <= 24:
            raise ValueError(f"config key min_hours: must be in 0..24, got {self.min_hours}")
        if self.max_missing_days < 0:
            raise ValueError("config key max_missing_days: must be >= 0")
        if self.outlier_policy not in _OUTLIER_POLICIES:
            raise ValueError(
                f"config key outlier_policy: must be one of {_OUTLIER_POLICIES}, "
                f"got {self.outlier_policy!r}"
            )
        if self.persistence < 1:
            raise ValueError("config key persistence: must be >= 1")
        if self.extra_outage_gw < 0:
            raise ValueError("config key extra_outage_gw: must be >= 0")
        if self.adequacy_bin_gw <= 0:
            raise ValueError("config key adequacy_bin_gw: must be > 0")
        if self.out_dir is None:
            raise ValueError("config key out_dir: must not be empty")
        for f in fields(self):
            path = getattr(self, f.name)
            if f.type == "Path | None" and path is not None and not Path(path).is_file():
                raise ValueError(f"config key {f.name}: file not found: {path}")


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"config key {key}: expected a boolean, got {text!r}")


# Numeric field types, with the noun their parse error uses.
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}


def load_config(path: Path | str) -> RunConfig:
    """Read a config file, converting each value by the type of its RunConfig field."""
    path = Path(path)
    cfg = RunConfig()
    known = {f.name: f.type.removesuffix(" | None") for f in fields(RunConfig)}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path.name} line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ValueError(f"{path.name} line {lineno}: unknown config key {key!r}")
        kind = known[key]
        if kind == "Path":
            setattr(cfg, key, (path.parent / value).resolve() if value else None)
        elif kind in _NUMBERS:
            number, noun = _NUMBERS[kind]
            try:
                setattr(cfg, key, number(value))
            except ValueError:
                raise ValueError(f"config key {key}: expected {noun}, got {value!r}") from None
        elif kind == "bool":
            setattr(cfg, key, _parse_bool(value, key))
        else:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg
