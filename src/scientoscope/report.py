"""Render-ready tables and deterministic display formatting.

All numeric cells are kept at full precision inside :class:`ReportTable`;
rounding happens only at render time, half-up from the exact binary
value, in integers. The renderers read the run's
:class:`~scientoscope.config.AnalysisConfig` as it is: ``absent_marker``
prints an absent cell, and ``totals_source = rounded_cells`` adds the CSV
renderer's "(display)" columns (the table builders derive the footer
totals themselves). Rendering the same table twice with the same config
is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple

from .config import AnalysisConfig
from .model import Checked, Fieldwise

CellValue = int | float | str | None

#: Column kinds. ``count`` cells are integers; ``percent``/``ratio``/``log``
#: cells are reals rendered at the column's decimal count.
COLUMN_KINDS = ("year", "label", "count", "percent", "ratio", "log")


def _quantize(value: float, decimals: int) -> int:
    """The exact binary value of *value* in units of ``10**-decimals``,
    rounded half away from zero, in integers."""
    if not math.isfinite(value):
        raise ValueError(f"cannot round non-finite value {value!r}")
    if decimals < 0:
        raise ValueError("decimals must be >= 0")
    num, den = value.as_integer_ratio()
    units, rest = divmod(abs(num) * 10**decimals, den)
    units += 2 * rest >= den
    return -units if num < 0 else units


def round_half_up(value: float, decimals: int) -> float:
    """Round at *decimals* places, half away from zero, as a float.

    Rounds the exact binary value, so 0.005 -> 0.01 rather than the
    banker's 0.00; a result of zero keeps the sign of *value*.
    """
    return math.copysign(_quantize(value, decimals) / 10**decimals, value)


def round_display(value: float, decimals: int) -> str:
    """Half-up decimal rounding to a fixed-point display string.

    "-0.00" is normalized to "0.00"; non-finite input is an error.
    """
    units = _quantize(value, decimals)
    whole, fraction = divmod(abs(units), 10**decimals)
    sign = "-" if units < 0 else ""
    return f"{sign}{whole}.{fraction:0{decimals}d}" if decimals else f"{sign}{whole}"


class ColumnSpec(Checked, namedtuple("ColumnSpec", "header kind decimals", defaults=("count", 2))):
    __slots__ = ()

    def _check(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind: {self.kind!r}")


class ReportTable(Fieldwise):
    """Headers, rows, optional footer, and footnotes for one table."""

    def __init__(self, title: str, columns: list[ColumnSpec],
                 rows: list[list[CellValue]] | None = None,
                 footer: list[CellValue] | None = None, notes: list[str] | None = None):
        self.title = title
        self.columns = columns
        self.rows = [] if rows is None else rows
        self.footer = footer
        self.notes = [] if notes is None else notes
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")
        if self.footer is not None and len(self.footer) != width:
            raise ValueError(f"footer has {len(self.footer)} cells, expected {width}")

    def cell(self, row: str, header: str) -> CellValue:
        """The value in the row whose first cell prints as *row* and the
        column headed *header*.

        Body rows are searched first; when no body row prints as *row*,
        ``total`` and ``mean`` name the footer. Raises LookupError naming
        the missing column, or else the missing row.
        """
        headers = [c.header for c in self.columns]
        if header not in headers:
            raise LookupError(f"no column {header!r}")
        cells = next((r for r in self.rows if str(r[0]) == row), None)
        if cells is None and row in ("total", "mean"):
            cells = self.footer
        if cells is None:
            raise LookupError(f"no row {row!r}")
        return cells[headers.index(header)]


def _cell_display(value: CellValue, spec: ColumnSpec, config: AnalysisConfig) -> str:
    if value is None:
        return config.absent_marker
    if spec.kind in ("year", "label"):
        return str(value)
    if spec.kind == "count":
        return str(int(value))
    return round_display(float(value), spec.decimals)


def _display_grid(table: ReportTable, config: AnalysisConfig) -> tuple[list[str], list[list[str]]]:
    """Headers and all display rows (footer last if present)."""
    headers = [c.header for c in table.columns]
    grid = [[_cell_display(v, c, config) for v, c in zip(row, table.columns)] for row in table.rows]
    if table.footer is not None:
        grid.append([_cell_display(v, c, config) for v, c in zip(table.footer, table.columns)])
    return headers, grid


#: What ``render`` reads when given no config: "-" for an absent cell and
#: no "(display)" columns.
_PLAIN = AnalysisConfig(totals_source="full_precision")


def render(table: ReportTable, format: str = "text", config: AnalysisConfig | None = None) -> str:
    """Render *table* in one of :data:`FORMATS`, under *config*'s
    ``absent_marker`` and ``totals_source``."""
    if format not in FORMATS:
        raise ValueError(f"unknown output format: {format!r}")
    return _RENDERERS[format](table, config or _PLAIN)


def _render_text(table: ReportTable, config: AnalysisConfig) -> str:
    headers, grid = _display_grid(table, config)
    widths = [len(h) for h in headers]
    for row in grid:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: list[str]) -> str:
        parts = []
        for cell, width, spec in zip(cells, widths, table.columns):
            if spec.kind in ("label",):
                parts.append(cell.ljust(width))
            else:
                parts.append(cell.rjust(width))
        return "  ".join(parts).rstrip()

    lines = [table.title, "=" * len(table.title), fmt(headers), fmt(["-" * w for w in widths])]
    body = grid[:-1] if table.footer is not None else grid
    lines.extend(fmt(row) for row in body)
    if table.footer is not None:
        lines.append(fmt(["-" * w for w in widths]))
        lines.append(fmt(grid[-1]))
    for note in table.notes:
        lines.append(f"* {note}")
    return "\n".join(lines) + "\n"


def _render_csv(table: ReportTable, config: AnalysisConfig) -> str:
    """CSV with full-precision numerics.

    Under ``totals_source = rounded_cells`` every real-valued column gets
    a parallel "<header> (display)" column carrying the rounded strings.
    """
    dual = config.totals_source == "rounded_cells"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    header_row: list[str] = []
    for spec in table.columns:
        header_row.append(spec.header)
        if dual and spec.kind in ("percent", "ratio", "log"):
            header_row.append(f"{spec.header} (display)")
    writer.writerow(header_row)

    def raw(value: CellValue, spec: ColumnSpec) -> str:
        if value is None:
            return ""
        if spec.kind == "count":
            return str(int(value))
        if spec.kind in ("year", "label"):
            return str(value)
        return repr(float(value))

    all_rows = list(table.rows) + ([table.footer] if table.footer is not None else [])
    for row in all_rows:
        out: list[str] = []
        for value, spec in zip(row, table.columns):
            out.append(raw(value, spec))
            if dual and spec.kind in ("percent", "ratio", "log"):
                out.append(_cell_display(value, spec, config))
        writer.writerow(out)
    return buf.getvalue()


def _json_cell(value: CellValue, spec: ColumnSpec, config: AnalysisConfig) -> object:
    if spec.kind in ("year", "label"):
        return value
    return {"value": value, "display": _cell_display(value, spec, config)}


def _render_json(table: ReportTable, config: AnalysisConfig) -> str:
    return json.dumps(table_as_json_obj(table, config), indent=2) + "\n"


def table_as_json_obj(table: ReportTable, config: AnalysisConfig) -> dict:
    """JSON object form: numeric cells carry both full-precision value
    and display string; key order follows column declaration order."""
    obj: dict = {
        "title": table.title,
        "columns": [
            {"header": c.header, "kind": c.kind, "decimals": c.decimals} for c in table.columns
        ],
        "rows": [
            [_json_cell(v, c, config) for v, c in zip(row, table.columns)] for row in table.rows
        ],
    }
    if table.footer is not None:
        obj["footer"] = [_json_cell(v, c, config) for v, c in zip(table.footer, table.columns)]
    if table.notes:
        obj["notes"] = list(table.notes)
    return obj


def _markdown_row(cells: list[str]) -> str:
    # A "|" in a cell would end it early.
    return "| " + " | ".join(cell.replace("|", r"\|") for cell in cells) + " |"


def _render_markdown(table: ReportTable, config: AnalysisConfig) -> str:
    headers, grid = _display_grid(table, config)
    lines = [f"### {table.title}", "", _markdown_row(headers)]
    lines.append(_markdown_row(["---" if c.kind == "label" else "---:" for c in table.columns]))
    lines.extend(map(_markdown_row, grid))
    for note in table.notes:
        lines.append(f"*{note}*")
    return "\n".join(lines) + "\n"


_RENDERERS = {
    "text": _render_text,
    "csv": _render_csv,
    "json": _render_json,
    "markdown": _render_markdown,
}
#: The output formats, in the order the CLI lists them.
FORMATS = tuple(_RENDERERS)
