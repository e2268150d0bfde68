"""The CSV format of every table the pipeline writes and reads back.

A table is one header line of comma-separated column names, then one
line per row, each ending in `\\n`. A cell is formatted by the type of its
value: a float with `repr` (so reading it back gives the same bits), an
int with `str`, a date in ISO format, a string as is, and None as an
empty field. There is no quoting: a string cell holds no comma or line
break, and the reader strips blanks around each field. Blank lines are
skipped but counted in the line numbers of error messages.
"""

from __future__ import annotations

import math
import numbers
import os
from datetime import date
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator

# A converter reads one field: converter(text, lineno, column name).
Converter = Callable[[str, int, str], Any]


def read_header(lines: Iterator[str], header: str) -> int:
    """Consume lines up to the first non-blank one, which must be `header`.

    Returns the header's line number.
    """
    for lineno, raw in enumerate(lines, start=1):
        if first := raw.rstrip("\r\n"):
            if first.strip() != header:
                raise ValueError(f"line {lineno}: expected header {header!r}, got {first!r}")
            return lineno
    raise ValueError(f"empty file: expected header {header!r}")


def split_rows(
    source: IO[str] | Iterable[str], header: str
) -> Iterator[tuple[int, list[str]]]:
    """Yield (lineno, fields) for data rows after validating the header."""
    n_fields = header.count(",") + 1
    lines = iter(source)
    header_lineno = read_header(lines, header)
    for lineno, raw in enumerate(lines, start=header_lineno + 1):
        if line := raw.rstrip("\r\n"):
            fields = line.split(",")
            if len(fields) != n_fields:
                raise ValueError(f"line {lineno}: expected {n_fields} fields, got {len(fields)}")
            yield lineno, [f.strip() for f in fields]


def parse_float(text: str, lineno: int, name: str) -> float:
    """A finite float in float()'s grammar."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {name} value {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {lineno}: non-finite {name} value {text!r}")
    return value


def parse_int(text: str, lineno: int, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {name} {text!r}") from None


def parse_date(text: str, lineno: int, name: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"line {lineno}: bad {name} {text!r}") from None


def parse_text(text: str, lineno: int, name: str) -> str:
    return text


def cell(value: object) -> str:
    """The text of one field."""
    # Concrete types first: a check against a numbers ABC is much slower.
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, date):
        return value.isoformat()
    if value is None:
        return ""
    if isinstance(value, (int, numbers.Integral)):
        return str(int(value))
    raise TypeError(f"no table format for {type(value).__name__} value {value!r}")


def format_table(header: str, rows: Iterable[Iterable[object]]) -> str:
    """The text of a table; `header` is every line before the rows."""
    return "\n".join([header, *(",".join(map(cell, row)) for row in rows)]) + "\n"


def format_columns(header: str, columns: Iterable[list[str]]) -> str:
    """The text of a table given the formatted cells of each column."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def write_atomic(path: Path, text: str) -> Path:
    """Replace path with text through a rename, so readers never see half a file."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


def read_rows(
    source: IO[str] | Iterable[str], header: str, *converters: Converter
) -> list[tuple]:
    """Typed rows of a table, one converter per column of `header`."""
    names = header.split(",")
    if len(converters) != len(names):
        raise TypeError(f"{len(converters)} converters for {len(names)} columns")
    return [
        tuple(convert(text, lineno, name) for convert, text, name in zip(converters, fields, names))
        for lineno, fields in split_rows(source, header)
    ]
