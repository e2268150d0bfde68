"""Writes a grid as a `.npy` raster and a JSON sidecar of its axes, the
way `perfbench/world.py` writes its worlds' grids."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from shoulderseason.thermal import TemperatureGrid


def write_raster(path: Path, grid: TemperatureGrid) -> Path:
    np.save(path, grid.values[:])
    sidecar = {
        "lats": grid.lats.tolist(),
        "lons": grid.lons.tolist(),
        "times": [t.isoformat() for t in grid.times.tolist()],
        "hourly": grid.is_hourly,
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar) + "\n", encoding="utf-8")
    return path
