"""Distribution tables: year, authorship, page-length, subject."""

import pytest

from scientoscope import (
    authorship_table,
    page_length_table,
    parse_aggregates,
    subject_table,
    year_distribution_table,
)
from scientoscope.distributions import PAGE_BIN_LABELS
from scientoscope.model import AUTHORSHIP_BIN_LABELS

AGG_HEADER = ("year,papers,a1,a2,a3,a4,a5plus,total_authors,p1to5,p6to10,pabove10,"
              "subj:A,subj:B")


def _tiny(rows: list[str]):
    return parse_aggregates(AGG_HEADER + "\n" + "\n".join(rows) + "\n")


def _column(table, header):
    """The *header* cell of every body row."""
    return [table.cell(str(row[0]), header) for row in table.rows]


def _cells(table, row, headers, suffix=""):
    """The cells of one row under each of *headers*, each with *suffix*."""
    return tuple(table.cell(row, f"{header}{suffix}") for header in headers)


def test_year_distribution_demo(demo_dataset):
    table = year_distribution_table(demo_dataset)
    assert table.cell("2014", "Papers") == 63
    assert table.cell("2014", "%") == pytest.approx(27.7, abs=0.1)
    assert table.cell("2014", "Cum. papers") == 96
    assert table.cell("2014", "Cum. %") == pytest.approx(42.29, abs=0.01)
    assert table.cell("2013", "Cum. papers") is None
    assert table.cell("2013", "Cum. %") is None
    assert table.cell("2017", "Cum. papers") == 227
    assert table.cell("2017", "Cum. %") == pytest.approx(100.0)


def test_year_distribution_single_year():
    table = year_distribution_table(_tiny(["2013,33,14,14,5,0,0,57,4,26,3,20,13"]))
    assert len(table.rows) == 1
    assert table.cell("2013", "%") == pytest.approx(100.0)
    assert table.cell("2013", "Cum. papers") is None


def test_year_distribution_cumulative_and_percent_invariants(demo_dataset):
    table = year_distribution_table(demo_dataset)
    papers = _column(table, "Papers")
    total = sum(papers)
    cums = [c for c in _column(table, "Cum. papers") if c is not None]
    assert cums == sorted(cums) and len(set(cums)) == len(cums)
    assert cums[-1] == total
    running = 0
    for count, cumulative in zip(papers, _column(table, "Cum. papers")):
        running += count
        if cumulative is not None:
            assert cumulative == running
    assert sum(_column(table, "%")) == pytest.approx(100.0, abs=0.2)


def test_year_distribution_additivity(demo_dataset):
    # Tabulating two disjoint-year halves yields the same per-year paper
    # counts as tabulating the merged dataset.
    aggs = demo_dataset.aggregates
    first = demo_dataset._replace(aggregates=aggs[:2])
    second = demo_dataset._replace(aggregates=aggs[2:])

    def counts(dataset):
        table = year_distribution_table(dataset)
        return list(zip(_column(table, "Year"), _column(table, "Papers")))

    assert counts(demo_dataset) == counts(first) + counts(second)


def test_authorship_pattern_demo(demo_dataset):
    table = authorship_table(demo_dataset)
    assert _cells(table, "2013", AUTHORSHIP_BIN_LABELS) == (14, 14, 5, 0, 0)
    for got, want in zip(_cells(table, "2013", AUTHORSHIP_BIN_LABELS, " %"),
                         (42.42, 42.42, 15.15, 0.0, 0.0)):
        assert got == pytest.approx(want, abs=0.01)
    # 2017 percentages divide by the declared 51 papers, not the bin sum of 50.
    assert table.cell("2017", "1 author %") == pytest.approx(23.53, abs=0.01)
    assert _cells(table, "total", AUTHORSHIP_BIN_LABELS) == (70, 111, 34, 8, 3)  # exact column sums
    assert table.cell("total", "Papers") == 227


def test_authorship_zero_papers_year_yields_zero_percents():
    table = authorship_table(_tiny(["2013,0,0,0,0,0,0,0,0,0,0,0,0"]))
    assert _cells(table, "2013", AUTHORSHIP_BIN_LABELS, " %") == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_footer_counts_equal_column_sums(demo_dataset):
    for table, labels in ((authorship_table(demo_dataset), AUTHORSHIP_BIN_LABELS),
                          (page_length_table(demo_dataset), PAGE_BIN_LABELS)):
        for label in labels:
            assert table.cell("total", label) == sum(_column(table, label))


def test_page_length_demo(demo_dataset):
    table = page_length_table(demo_dataset)
    assert _cells(table, "2014", PAGE_BIN_LABELS) == (13, 45, 5)
    for got, want in zip(_cells(table, "2014", PAGE_BIN_LABELS, " %"), (35.14, 25.71, 33.33)):
        assert got == pytest.approx(want, abs=0.01)
    assert table.cell("2013", "1-5 pages %") == pytest.approx(10.81, abs=0.01)  # 4/37
    totals = _cells(table, "total", PAGE_BIN_LABELS)
    assert totals == (37, 175, 15)
    assert sum(totals) == 227


def test_page_length_degenerate_single_bin():
    table = page_length_table(_tiny(["2013,2,2,0,0,0,0,2,0,2,0,1,1"]))
    assert _cells(table, "total", PAGE_BIN_LABELS) == (0, 2, 0)
    assert table.cell("2013", "1-5 pages %") == 0.0  # empty column: 0, not NaN


def test_subject_distribution_demo(demo_dataset):
    table = subject_table(demo_dataset)
    years = [str(a.year) for a in demo_dataset.aggregates]
    assert _cells(table, "Scientometrics, Bibliometrics", years) == (11, 18, 10, 1, 11)
    assert table.cell("Scientometrics, Bibliometrics", "Total") == 51
    assert table.cell("Search Engines", "Total") == 2
    assert _column(table, "Subject")[0] == "Scientometrics, Bibliometrics"
    assert _column(table, "Subject")[-1] == "Others"
    # Column sums equal the yearly paper counts.
    for year, agg in zip(years, demo_dataset.aggregates):
        assert sum(_column(table, year)) == agg.papers, year


def test_subject_distribution_rejects_unknown_label():
    ds = _tiny(["2013,1,1,0,0,0,0,1,1,0,0,1,0"])
    with pytest.raises(ValueError, match="unknown subject label"):
        subject_table(ds, taxonomy=("A",))  # data also carries B


def test_subject_table_footer(demo_dataset):
    table = subject_table(demo_dataset)
    assert table.footer == ["Total", 33, 63, 44, 36, 51, 227]
    zero_cells = [row for row in table.rows if 0 in row]
    assert zero_cells  # zero cells present as 0, not blank


def test_year_table_footer(demo_dataset):
    table = year_distribution_table(demo_dataset)
    assert table.footer[1] == 227
    assert table.footer[3] is None and table.footer[4] is None
