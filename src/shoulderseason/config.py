"""Flat key = value run configuration.

Paths are resolved relative to the config file so a fixture directory is
relocatable. Unknown keys and missing files fail validation with the
offending key named.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

_OUTLIER_POLICIES = ("none", "auto")


@dataclass
class RunConfig:
    region_label: str = "region"
    load_csv: Path | None = None
    fuel_mix_csv: Path | None = None
    outage_csv: Path | None = None
    temperature_grid: Path | None = None
    population_csv: Path | None = None
    mask_csv: Path | None = None
    ensemble_csv: Path | None = None
    window_len: int = 45
    min_hours: int = 20
    max_missing_days: int = 3
    allow_year_wrap: bool = True
    outlier_policy: str = "none"
    persistence: int = 3
    extra_outage_gw: float = 5.5
    adequacy_bin_gw: float = 1.0
    adequacy_year: int | None = None
    out_dir: Path = Path("out")

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
