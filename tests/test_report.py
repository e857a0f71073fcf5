"""Display rounding and the four render formats."""

import csv
import io
import json
import math
import sys
from decimal import ROUND_HALF_UP, Context, Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scientoscope import (
    AnalysisConfig,
    ColumnSpec,
    ReportTable,
    aggregate_records,
    render,
    round_display,
    round_half_up,
)
from scientoscope.distributions import subject_table, year_distribution_table
from scientoscope.indicators import collaboration_table, egr_table


def test_round_display_half_up_cases():
    assert round_display(0.69162995, 2) == "0.69"
    assert round_display(1.41666, 2) == "1.42"
    assert round_display(0.005, 2) == "0.01"
    assert round_display(27.7533, 1) == "27.8"
    assert round_display(0.20067, 2) == "0.20"
    assert round_display(100.0, 2) == "100.00"
    # Exact in binary, so the half-up rule alone decides these.
    assert round_display(0.125, 2) == "0.13"
    assert round_display(-0.125, 2) == "-0.13"
    assert round_display(2.5, 0) == "3"


def test_round_display_normalizes_negative_zero():
    assert round_display(-0.001, 2) == "0.00"


def test_round_display_rejects_non_finite():
    with pytest.raises(ValueError):
        round_display(float("nan"), 2)
    with pytest.raises(ValueError):
        round_display(float("inf"), 2)


def test_round_half_up_numeric():
    assert round_half_up(0.515151, 2) == 0.52
    assert round_half_up(0.64663, 2) == 0.65
    assert round_half_up(1.94444, 2) == 1.94
    assert round_half_up(0.625, 2) == 0.63


def test_rounding_beyond_default_decimal_precision():
    # Values >= 1e28 have more integer digits than a 28-digit decimal context holds.
    assert round_display(1e28, 2) == "9999999999999999583119736832.00"
    assert round_display(1e27, 2) == "1000000000000000013287555072.00"
    assert round_half_up(1e28, 2) == 1e28
    assert round_display(9.9951, 2) == "10.00"


def _decimal_quantize(value: float, decimals: int) -> Decimal:
    """The reference: Decimal's half-up quantize of the exact value of
    *value*, under a precision that holds every digit of the result."""
    exact = Decimal(value)
    # Integer digits, the decimals, and one more for a carry (9.995 -> 10.00).
    context = Context(prec=max(exact.adjusted(), 0) + decimals + 2)
    return exact.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP, context=context)


def _binary_ties(decimals: int):
    """Floats exactly halfway between two multiples of 10**-decimals:
    odd multiples of 2**-(decimals + 1)."""
    odd = st.integers(-10**6, 10**6).map(lambda k: 2 * k + 1)
    return odd.map(lambda o: (o / 2 ** (decimals + 1), decimals))


_ROUNDING_CASES = (st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                             st.integers(0, 8))
                   | st.integers(0, 8).flatmap(_binary_ties))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_ROUNDING_CASES)
@example((0.125, 2))
@example((-0.375, 2))
@example((2.5, 0))
@example((-0.0, 2))
@example((5e-324, 8))
@example((-5e-324, 0))
@example((1e28, 6))
@example((sys.float_info.max, 8))
@example((-sys.float_info.max, 0))
def test_integer_rounding_matches_the_decimal_reference(case):
    value, decimals = case
    expected = _decimal_quantize(value, decimals)
    assert round_display(value, decimals) == f"{abs(expected) if expected == 0 else expected:f}"
    rounded = round_half_up(value, decimals)
    assert rounded == float(expected)
    assert math.copysign(1, rounded) == math.copysign(1, float(expected))


def _sample_table() -> ReportTable:
    return ReportTable(
        title="Sample",
        columns=[
            ColumnSpec("Year", "year"),
            ColumnSpec("Papers", "count"),
            ColumnSpec("DC", "ratio", 2),
        ],
        rows=[[2013, 33, 19 / 33], [2014, 63, 42 / 63]],
        footer=["Total", 96, 61 / 96],
        notes=["note line"],
    )


def test_cell_finds_a_row_by_its_first_cell():
    table = _sample_table()
    assert table.cell("2014", "Papers") == 63
    assert table.cell("2013", "DC") == 19 / 33
    assert table.cell("2013", "Year") == 2013


def test_cell_maps_total_and_mean_to_the_footer():
    table = _sample_table()
    assert table.cell("total", "Papers") == 96
    assert table.cell("mean", "DC") == 61 / 96
    # The footer's own first cell is not a row address.
    with pytest.raises(LookupError, match="no row 'Total'"):
        table.cell("Total", "Papers")


def test_cell_reads_a_body_row_named_total_before_the_footer(demo_records):
    config = AnalysisConfig(taxonomy=("total", "Others"))
    dataset, _ = aggregate_records(demo_records, config)
    table = subject_table(dataset, config.taxonomy)
    assert table.rows[0][0] == "total" and table.footer[-1] == 12
    assert table.cell("total", "Total") == 0


def test_cell_missing_row_or_column_raises_lookup_error():
    table = _sample_table()
    with pytest.raises(LookupError, match="no row '2015'"):
        table.cell("2015", "Papers")
    with pytest.raises(LookupError, match="no column 'CI'"):
        table.cell("2013", "CI")
    # The column is checked first.
    with pytest.raises(LookupError, match="no column 'CI'"):
        table.cell("2015", "CI")
    footless = ReportTable(title="No footer", columns=[ColumnSpec("N", "count")], rows=[[1]])
    with pytest.raises(LookupError, match="no row 'total'"):
        footless.cell("total", "N")


def test_row_width_is_enforced():
    with pytest.raises(ValueError, match="cells"):
        ReportTable(title="Bad", columns=[ColumnSpec("A", "count")], rows=[[1, 2]])


@pytest.mark.parametrize("call, message", [
    (lambda: round_display(1.0, -1), "decimals must be >= 0"),
    (lambda: round_half_up(1.0, -2), "decimals must be >= 0"),
    (lambda: ReportTable("Bad", [ColumnSpec("A"), ColumnSpec("B")], rows=[], footer=[1]),
     "footer has 1 cells, expected 2"),
], ids=["display-decimals", "half-up-decimals", "footer-width"])
def test_each_guard_raises_its_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_text_render_demo_dc_column(demo_dataset, paper_config):
    text = render(collaboration_table(demo_dataset, paper_config), "text")
    for value in ("0.58", "0.67", "0.75", "0.76", "0.69"):
        assert value in text


def test_markdown_render_first_cumulative_absent(demo_dataset):
    md = render(year_distribution_table(demo_dataset), "markdown")
    lines = md.splitlines()
    row_2013 = next(line for line in lines if "| 2013 |" in line)
    assert row_2013 == "| 2013 | 33 | 14.5 | - | - |"
    assert lines[3].startswith("| ---")  # alignment row present


def test_render_deterministic(demo_dataset, paper_config):
    table = collaboration_table(demo_dataset, paper_config)
    for fmt in ("text", "csv", "json", "markdown"):
        first = render(table, fmt)
        second = render(table, fmt)
        assert first == second
        assert first.encode("utf-8")  # encodes cleanly


def test_render_unknown_format():
    with pytest.raises(ValueError, match="unknown output format"):
        render(_sample_table(), "pdf")


def test_render_empty_rows_with_footer_only():
    table = ReportTable(title="Empty", columns=[ColumnSpec("N", "count")], rows=[], footer=[5])
    text = render(table, "text")
    assert "5" in text


def test_csv_full_precision_round_trip():
    table = _sample_table()
    out = render(table, "csv")
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0] == ["Year", "Papers", "DC"]
    assert float(parsed[1][2]) == 19 / 33  # exact through repr
    assert int(parsed[2][1]) == 63


def test_csv_dual_channel_under_rounded_cells():
    out = render(_sample_table(), "csv", AnalysisConfig(totals_source="rounded_cells"))
    parsed = list(csv.reader(io.StringIO(out)))
    assert parsed[0] == ["Year", "Papers", "DC", "DC (display)"]
    assert float(parsed[1][2]) == 19 / 33
    assert parsed[1][3] == "0.58"


@pytest.mark.parametrize("fmt", ["text", "csv", "json", "markdown"])
def test_render_reads_absent_marker_and_totals_source_off_the_config(fmt):
    table = ReportTable("T", [ColumnSpec("Year", "year"), ColumnSpec("DC", "ratio", 2)],
                        rows=[[2013, None], [2014, 0.5]])

    def out(**fields):
        return render(table, fmt, AnalysisConfig(**fields))

    # Without a config: "-" for an absent cell, and no "(display)" columns.
    assert render(table, fmt) == out(totals_source="full_precision")
    # A CSV prints the marker only in its "(display)" columns.
    assert "n/a" in out(absent_marker="n/a", totals_source="rounded_cells")
    assert ("n/a" in out(absent_marker="n/a", totals_source="full_precision")) == (fmt != "csv")
    # totals_source, set or resolved from the mode, adds those columns to CSV only.
    dual = [out(mode="paper"), out(mode="standard", totals_source="rounded_cells")]
    single = [out(mode="standard"), out(mode="paper", totals_source="full_precision")]
    assert all(("DC (display)" in o) == (fmt == "csv") for o in dual)
    assert not any("(display)" in o for o in single)
    assert (dual[0] == single[0]) == (fmt != "csv")


def test_markdown_escapes_a_pipe_in_a_header_or_cell(demo_records):
    table = ReportTable("T", [ColumnSpec("Sub|ject", "label"), ColumnSpec("N")], rows=[["A|B", 1]])
    assert render(table, "markdown").splitlines()[2:] == [
        r"| Sub\|ject | N |", "| --- | ---: |", r"| A\|B | 1 |"]
    # A taxonomy label with a "|" keeps every subject row as wide as its header.
    config = AnalysisConfig(taxonomy=("A|B", "Others"))
    dataset, _ = aggregate_records(demo_records, config)
    lines = render(subject_table(dataset, config.taxonomy), "markdown", config).splitlines()
    rows = [line.replace("\\|", "") for line in lines if line.startswith("|")]
    assert any("A\\|B" in line for line in lines)
    assert {row.count("|") for row in rows} == {rows[0].count("|")}


def test_json_carries_value_and_display(demo_dataset, paper_config):
    doc = json.loads(render(egr_table(demo_dataset, paper_config), "json"))
    assert doc["title"]
    headers = [c["header"] for c in doc["columns"]]
    assert headers == ["Year", "Papers", "EGR"]
    egr_2014 = doc["rows"][1][2]
    assert egr_2014["value"] == pytest.approx(63 / 33)
    assert egr_2014["display"] == "1.91"
    assert doc["footer"][2]["display"] == "4.85"


def test_no_scientific_notation_in_renders():
    table = ReportTable(
        title="Extremes",
        columns=[ColumnSpec("Big", "ratio", 2), ColumnSpec("Small", "ratio", 4)],
        rows=[[123456789.123, 0.0000123]],
    )
    for fmt in ("text", "markdown"):
        out = render(table, fmt)
        assert "e" not in out.replace("Extremes", "").replace("Big", "").replace("Small", "")
        assert "123456789.12" in out
        assert "0.0000" in out
