"""Indicator math: DC, CI, productivity, EGR, CAGR, RGR, doubling time."""

import math

import pytest

from scientoscope import (
    AnalysisConfig,
    author_productivity,
    cagr,
    collaboration_table,
    collaborative_index,
    degree_of_collaboration,
    egr_table,
    exponential_growth,
    productivity_table,
    relative_growth,
    rgr_table,
)
from scientoscope.model import Dataset, YearAggregate

PAPER_TOTALS = AnalysisConfig(totals_source="rounded_cells")
POOLED_TOTALS = AnalysisConfig(totals_source="full_precision")


def _keys(table, footer: bool = False) -> list[str]:
    """The row addresses of *table*: each body row's first cell, then the footer."""
    return [str(row[0]) for row in table.rows] + (["total"] if footer else [])


def test_degree_of_collaboration_values():
    assert degree_of_collaboration(14, 19) == pytest.approx(19 / 33)
    assert degree_of_collaboration(70, 157) == pytest.approx(157 / 227)
    assert degree_of_collaboration(5, 0) == 0.0
    assert degree_of_collaboration(0, 5) == 1.0


def test_degree_of_collaboration_empty_year():
    with pytest.raises(ValueError, match="undefined DC"):
        degree_of_collaboration(0, 0)


def test_collaborative_index_variants():
    # The printed column follows Nm/Ns; the stated definition is authors/papers.
    assert collaborative_index(14, 19, variant="printed") == pytest.approx(19 / 14)
    assert collaborative_index(70, 157, variant="printed") == pytest.approx(157 / 70)
    assert collaborative_index(14, 19, authors=57, variant="stated") == pytest.approx(57 / 33)


def test_collaborative_index_errors():
    with pytest.raises(ValueError, match="no single-authored"):
        collaborative_index(0, 5, variant="printed")
    with pytest.raises(ValueError, match="author count"):
        collaborative_index(1, 1, variant="stated")


def test_collaboration_rows_demo(demo_dataset, paper_config):
    table = collaboration_table(demo_dataset, paper_config)
    assert table.cell("2017", "Single") == 12 and table.cell("2017", "Multiple") == 38
    assert table.cell("2017", "Papers") == 50  # bin-derived, one short of the declared 51
    assert table.cell("2017", "DC") == pytest.approx(0.76)
    # Totals derive multiple as declared papers minus single.
    assert (table.cell("total", "Single") == 70 and table.cell("total", "Multiple") == 157
            and table.cell("total", "Papers") == 227)
    assert table.cell("total", "CI") == pytest.approx(157 / 70)
    assert table.cell("total", "DC") == pytest.approx(157 / 227)
    for year in _keys(table):
        assert table.cell(year, "Single") + table.cell(year, "Multiple") == table.cell(year, "Papers")


def test_author_productivity_values():
    aapp, ppa = author_productivity(44, 91)
    assert aapp == pytest.approx(91 / 44)
    assert ppa == pytest.approx(44 / 91)
    assert author_productivity(7, 7) == (1.0, 1.0)
    with pytest.raises(ValueError):
        author_productivity(0, 5)


def test_aapp_ppa_reciprocal(demo_dataset):
    table = productivity_table(demo_dataset)
    for year in _keys(table):
        assert table.cell(year, "AAPP") * table.cell(year, "PPA") == pytest.approx(1.0, abs=1e-9)


def test_productivity_totals_modes(demo_dataset):
    paper = productivity_table(demo_dataset, PAPER_TOTALS)
    assert paper.cell("total", "AAPP") == pytest.approx(9.65, abs=1e-9)
    # The displayed yearly PPA values are 0.58/0.51/0.48/0.51/0.52, so the
    # honest paper-style sum is 2.60 (the source table printed 2.59 by
    # truncating its last cell).
    assert paper.cell("total", "PPA") == pytest.approx(2.60, abs=1e-9)
    pooled = productivity_table(demo_dataset, POOLED_TOTALS)
    assert pooled.cell("total", "AAPP") == pytest.approx(441 / 227)
    assert pooled.cell("total", "PPA") == pytest.approx(227 / 441)


def test_productivity_totals_single_row_agreement():
    dataset = Dataset(
        aggregates=(YearAggregate(2013, 33, (14, 14, 5, 0, 0), (4, 26, 3),
                                  {"A": 33}, total_authors=57),),
    )
    paper = productivity_table(dataset, PAPER_TOTALS)
    pooled = productivity_table(dataset, POOLED_TOTALS)
    (year,) = _keys(paper)
    row = (paper.cell(year, "AAPP"), paper.cell(year, "PPA"))
    assert (pooled.cell("total", "AAPP"), pooled.cell("total", "PPA")) == pytest.approx(row)
    assert (paper.cell("total", "AAPP"), paper.cell("total", "PPA")) == pytest.approx(row, abs=0.005)


def test_productivity_requires_author_totals():
    ds = Dataset(
        aggregates=(YearAggregate(2013, 33, (14, 14, 5, 0, 0), (4, 26, 3), {"A": 33}),),
    )
    with pytest.raises(ValueError, match="author totals unavailable"):
        productivity_table(ds)


SERIES = [(2013, 33), (2014, 63), (2015, 44), (2016, 36), (2017, 51)]


def test_exponential_growth_paper_mode(demo_dataset):
    values = [egr for *_, egr in exponential_growth(SERIES, "paper")]
    assert values[0] == 0.0
    assert values[1] == pytest.approx(63 / 33)
    assert values[2] == pytest.approx(44 / 63)
    assert values[3] == pytest.approx(36 / 44)
    assert values[4] == pytest.approx(51 / 36)
    assert demo_dataset.papers_by_year == SERIES
    table = egr_table(demo_dataset, AnalysisConfig(egr_mode="paper", totals_source="full_precision"))
    assert table.cell("total", "EGR") == pytest.approx(sum(values))  # exactly the row sum


def test_exponential_growth_log_mode():
    values = [egr for *_, egr in exponential_growth(SERIES, "log")]
    assert values[0] is None
    assert values[1] == pytest.approx(math.log(63 / 33))


def test_exponential_growth_constant_series():
    paper = exponential_growth([(1, 7), (2, 7), (3, 7)], "paper")
    assert [egr for *_, egr in paper] == [0.0, 1.0, 1.0]
    log = [egr for *_, egr in exponential_growth([(1, 7), (2, 7), (3, 7)], "log")]
    assert log[0] is None
    assert log[1] == pytest.approx(0.0)
    assert log[2] == pytest.approx(0.0)


def test_exponential_growth_zero_denominator():
    with pytest.raises(ValueError, match="zero papers"):
        exponential_growth([(1, 0), (2, 5)], "paper")


def test_cagr_modes():
    assert cagr(33, 51, 5, "paper_years") == pytest.approx(
        ((51 / 33) ** (1 / 5) - 1) * 100)
    assert cagr(33, 51, 5, "paper_years") == pytest.approx(9.1, abs=0.05)
    assert cagr(33, 51, 5, "intervals") == pytest.approx(
        ((51 / 33) ** (1 / 4) - 1) * 100)
    assert cagr(33, 51, 5, "intervals") == pytest.approx(11.5, abs=0.05)
    assert cagr(9, 9, 3, "paper_years") == pytest.approx(0.0)
    assert cagr(9, 9, 3, "intervals") == pytest.approx(0.0)


@pytest.mark.parametrize("mode, periods", [("paper_years", 50), ("intervals", 49)])
def test_cagr_note_prints_a_tiny_decline_as_zero(mode, periods):
    papers = [1000] + [999] * 49  # -0.002% a year
    years = [YearAggregate(1970 + i, n, [n, 0, 0, 0, 0], [0, 0, 0]) for i, n in enumerate(papers)]
    table = egr_table(Dataset(years), AnalysisConfig(cagr_mode=mode))
    assert table.notes == [f"CAGR 1970-2019: 0.0% over {periods} periods."]


def test_cagr_zero_periods():
    with pytest.raises(ValueError, match="zero periods"):
        cagr(3, 5, 1, "intervals")


def test_relative_growth_standard_mode(demo_dataset):
    assert demo_dataset.papers_by_year == SERIES
    table = rgr_table(demo_dataset, AnalysisConfig(rgr_mode="standard"))
    assert (table.cell("2013", "R") is None and table.cell("2013", "Dt") is None
            and table.cell("2013", "Cum. papers") is None)
    # Oracle: direct logarithms of the cumulative series.
    assert table.cell("2014", "W1") == pytest.approx(math.log(33))
    assert table.cell("2014", "W2") == pytest.approx(math.log(96))
    r = table.cell("2014", "R")
    assert r == pytest.approx(math.log(96) - math.log(33))
    assert r == pytest.approx(1.0678, abs=1e-4)
    assert table.cell("2014", "Dt") == pytest.approx(math.log(2) / r)
    assert table.cell("2014", "Dt") == pytest.approx(0.649, abs=1e-3)
    for year in _keys(table)[1:]:
        assert table.cell(year, "R") >= 0.0


def test_relative_growth_standard_telescopes():
    total = sum(r for *_, r, _ in relative_growth(SERIES, "standard") if r is not None)
    assert total == pytest.approx(math.log(227 / 33), abs=1e-9)


def test_relative_growth_paper_mode(demo_dataset):
    assert demo_dataset.papers_by_year == SERIES
    table = rgr_table(demo_dataset, AnalysisConfig(rgr_mode="paper"))
    years = _keys(table)
    rs = [table.cell(year, "R") for year in years]
    assert rs == pytest.approx([0.65, 0.36, 0.20, 0.35, 1.49], abs=1e-12)
    dts = [table.cell(year, "Dt") for year in years]
    for got, want in zip(dts, (1.07, 1.93, 3.47, 1.98, 0.47)):
        assert got == pytest.approx(want, abs=0.01)
    assert table.cell("2017", "W2") == pytest.approx(math.log(227))  # wrap to the grand total
    assert table.cell("mean", "R") == pytest.approx(0.61, abs=1e-9)
    assert table.cell("mean", "Dt") == pytest.approx(1.78, abs=0.01)
    assert table.cell("2013", "Cum. papers") is None
    assert table.cell("2014", "Cum. papers") == 96


def test_relative_growth_doubling_identity():
    for mode in ("standard", "paper"):
        for *_, r, dt in relative_growth(SERIES, mode):
            if r is not None and dt is not None and r > 0:
                assert dt * r == pytest.approx(math.log(2), abs=1e-9)


def test_relative_growth_two_equal_years():
    (*_, first_r, first_dt), (*_, last_r, last_dt) = relative_growth([(1, 9), (2, 9)], "paper")
    assert first_r == 0.0 and first_dt is None  # flat year: Dt undefined
    assert last_r == pytest.approx(0.69)  # ln(18) - ln(9) = ln 2 at 2 decimals
    assert last_dt == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("call, message", [
    (lambda: collaborative_index(0, 0, authors=0, variant="stated"),
     "CI (stated) undefined: no papers"),
    (lambda: collaborative_index(1, 1, variant="mean"), "unknown CI variant: 'mean'"),
    (lambda: exponential_growth([(2013, 1), (2014, 2)], "linear"), "unknown EGR mode: 'linear'"),
    (lambda: exponential_growth([(2013, 1), (2014, 0)], "log"),
     "log EGR undefined: zero papers in year 2014"),
    (lambda: cagr(1, 2, 5, "months"), "unknown CAGR mode: 'months'"),
    (lambda: cagr(0, 2, 5), "CAGR requires positive first and last counts"),
    (lambda: cagr(1, -2, 5), "CAGR requires positive first and last counts"),
    (lambda: relative_growth([(2013, 1), (2014, 2)], "log"), "unknown RGR mode: 'log'"),
], ids=["ci-no-papers", "ci-variant", "egr-mode", "log-egr-zero", "cagr-mode",
        "cagr-zero-first", "cagr-negative-last", "rgr-mode"])
def test_each_guard_raises_its_message(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_relative_growth_preconditions():
    with pytest.raises(ValueError, match="at least two"):
        relative_growth([(2013, 5)], "paper")
    with pytest.raises(ValueError, match="positive counts"):
        relative_growth([(2013, 5), (2014, 0)], "standard")


def test_printed_ci_equals_dc_odds(demo_dataset, paper_config):
    table = collaboration_table(demo_dataset, paper_config)
    for row in _keys(table, footer=True):
        dc = table.cell(row, "DC")
        if dc < 1.0:
            assert table.cell(row, "CI") == pytest.approx(dc / (1.0 - dc), abs=1e-9)


def test_stated_ci_via_config(demo_dataset):
    config = AnalysisConfig(mode="paper", ci_variant="stated")
    assert collaboration_table(demo_dataset, config).cell("2013", "CI") == pytest.approx(57 / 33)
