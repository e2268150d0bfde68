"""No package module uses another package module's private (underscore) names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = "shoulderseason"
SOURCE = Path(__file__).resolve().parent.parent / "src" / PACKAGE
MODULES = sorted(p.stem for p in SOURCE.glob("*.py") if p.stem != "__init__")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """Each `module._name` the source takes from a package module."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> the package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE + ".") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix(PACKAGE + ".")
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                name = name.removeprefix(PACKAGE).removeprefix(".")
            for alias in node.names:
                if not name:  # from . import module [as alias]
                    modules[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    found.append(f"{name}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_private_names_from_other_modules(module: str) -> None:
    source = (SOURCE / f"{module}.py").read_text(encoding="utf-8")
    assert private_uses(source) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .ingest import _split_rows, parse_float", ["ingest._split_rows"]),
        ("def f():\n    from .ingest import (\n        _parse_float,\n    )", ["ingest._parse_float"]),
        ("from shoulderseason.trends import _compare_to_cutoff", ["trends._compare_to_cutoff"]),
        ("from shoulderseason import ingest as i\ni._lines(s)", ["ingest._lines"]),
        ("from . import adequacy as adq\nadq._span(p)", ["adequacy._span"]),
        ("from . import ingest\nx = ingest._Table", ["ingest._Table"]),
        ("import shoulderseason.trends as tr\ntr._as_day_value(1)", ["trends._as_day_value"]),
        ("from . import ingest\ningest.__name__, ingest.read_csv_chunks", []),
        ("import numpy as np\nnp._NoValue", []),
        ("from typing import _T", []),
        ("from shoulderseason_extra import _x", []),
    ],
)
def test_checker_finds_private_uses(source: str, found: list[str]) -> None:
    assert private_uses(source) == found
