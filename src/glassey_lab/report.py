"""CSV and config emission with stable, reproducible formatting."""

from __future__ import annotations

import math
import os

from .errors import PreconditionViolation

CSV_MARKER = "# glassey-lab v1"


def fmt_value(x) -> str:
    """Shortest-round-trip text for one cell; empty for missing values."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return repr(float(x))
    if hasattr(x, "item"):  # numpy scalars
        return fmt_value(x.item())
    return str(x)


def _write_lines(path: str, lines) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_csv(path: str, subcommand: str, columns, rows) -> str:
    """Rows are dicts keyed by column name; missing keys emit empty cells."""
    lines = [f"{CSV_MARKER} {subcommand}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt_value(row.get(c)) for c in columns))
    return _write_lines(path, lines)


def write_series(path: str, label: str, pairs) -> str:
    """Two-column plain-text series for external plotting tools."""
    lines = [f"{CSV_MARKER} series {label}"]
    for x, y in pairs:
        lines.append(f"{fmt_value(x)} {fmt_value(y)}")
    return _write_lines(path, lines)


def write_config(path: str, values: dict) -> str:
    """Flat `key = value` lines, sorted, one per parameter."""
    lines = [f"{CSV_MARKER} config"]
    for key in sorted(values):
        lines.append(f"{key} = {fmt_value(values[key])}")
    return _write_lines(path, lines)


def read_config(path: str) -> dict:
    """Parse a flat key = value file back to strings."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PreconditionViolation(f"{path}: malformed config line {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
