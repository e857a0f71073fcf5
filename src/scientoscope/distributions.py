"""Descriptive distribution tables over per-year aggregates.

Each ``*_table`` function builds its cells straight from the dataset's
aggregates: the year-wise article distribution, the authorship pattern,
the page-length distribution, and the subject-by-year matrix. Read a
value back with :meth:`~scientoscope.report.ReportTable.cell`. Counts
are tabulated at full precision; every footer count is the exact sum of
its column. Percent denominators differ by table on purpose: authorship
rows use the year's paper count, page-length cells use the column
total, year shares use the grand total.
"""

from __future__ import annotations

from .config import AnalysisConfig
from .model import AUTHORSHIP_BIN_LABELS, PAGE_BINS, Dataset
from .report import ColumnSpec, ReportTable

PAGE_BIN_LABELS = tuple(label for _, label, _, _ in PAGE_BINS)


def _pct(part: float, whole: float) -> float:
    """part/whole as a percentage; 0 when the denominator is 0."""
    return part / whole * 100.0 if whole else 0.0


def _column_sums(bins: list[tuple[int, ...]], width: int) -> tuple[int, ...]:
    return tuple(sum(counts[i] for counts in bins) for i in range(width))


def _bin_table(title: str, labels: tuple[str, ...], rows: list[tuple],
               footer: tuple) -> ReportTable:
    """Year, then a count and a % per bin, then Papers and Papers %, from
    rows and a footer of ``(first cell, counts, percents, papers)``.
    Papers % divides each row's papers by the footer's."""
    columns = [ColumnSpec("Year", "year")]
    for label in labels:
        columns.append(ColumnSpec(label, "count"))
        columns.append(ColumnSpec(f"{label} %", "percent", 2))
    columns.append(ColumnSpec("Papers", "count"))
    columns.append(ColumnSpec("Papers %", "percent", 1))
    total = footer[3]

    def cells(first, counts, percents, papers) -> list:
        out: list = [first]
        for count, percent in zip(counts, percents):
            out.extend([count, percent])
        out.extend([papers, _pct(papers, total)])
        return out

    return ReportTable(title=title, columns=columns,
                       rows=[cells(*row) for row in rows], footer=cells(*footer))


def year_distribution_table(dataset: Dataset) -> ReportTable:
    """Papers per year with running cumulative counts and shares.

    The first year's cumulative cells are absent; the cumulative series
    starts at the second year and ends at the grand total.
    """
    aggregates = dataset.aggregates
    total = sum(a.papers for a in aggregates)
    rows = []
    running = 0
    for i, agg in enumerate(aggregates):
        running += agg.papers
        rows.append([agg.year, agg.papers, _pct(agg.papers, total),
                     None if i == 0 else running, None if i == 0 else _pct(running, total)])
    return ReportTable(
        title="Articles published per year",
        columns=[
            ColumnSpec("Year", "year"),
            ColumnSpec("Papers", "count"),
            ColumnSpec("%", "percent", 1),
            ColumnSpec("Cum. papers", "count"),
            ColumnSpec("Cum. %", "percent", 2),
        ],
        rows=rows,
        footer=["Total", total, 100.0 if total else 0.0, None, None],
    )


def authorship_table(dataset: Dataset) -> ReportTable:
    """Per-year authorship bins with row percentages, plus a totals row.

    Row percentages divide by the year's paper count (not the bin sum),
    so they reflect the declared output even when the bins undercount.
    The totals row sums each bin column exactly.
    """
    aggregates = dataset.aggregates
    total = sum(a.papers for a in aggregates)
    totals = _column_sums([a.authorship_bins for a in aggregates], len(AUTHORSHIP_BIN_LABELS))
    return _bin_table(
        "Authorship pattern by year", AUTHORSHIP_BIN_LABELS,
        [(a.year, a.authorship_bins, [_pct(n, a.papers) for n in a.authorship_bins], a.papers)
         for a in aggregates],
        ("Total", totals, [_pct(n, total) for n in totals], total),
    )


def page_length_table(dataset: Dataset) -> ReportTable:
    """Per-year page bins with column percentages and the column totals."""
    aggregates = dataset.aggregates
    total = sum(a.papers for a in aggregates)
    totals = _column_sums([a.page_bins for a in aggregates], len(PAGE_BINS))
    return _bin_table(
        "Page-length distribution of articles", PAGE_BIN_LABELS,
        [(a.year, a.page_bins, [_pct(n, whole) for n, whole in zip(a.page_bins, totals)],
          a.papers) for a in aggregates],
        ("Total", totals, [None] * len(totals), total),
    )


def subject_table(dataset: Dataset, taxonomy: tuple[str, ...] | None = None) -> ReportTable:
    """Subject-by-year count matrix in taxonomy order, zero-filled.

    Labels the taxonomy does not list are counted under "Others", as the
    record bridge counts them and as :func:`~scientoscope.ingest.validate`
    reports them; without "Others" in the taxonomy such a label raises
    ``ValueError``.
    """
    aggregates = dataset.aggregates
    taxonomy = taxonomy or AnalysisConfig().taxonomy
    matrix = {label: [0] * len(aggregates) for label in taxonomy}
    for i, agg in enumerate(aggregates):
        for label, count in agg.subject_counts.items():
            if label not in matrix:
                if "Others" not in matrix:
                    raise ValueError(f"unknown subject label {label!r} in year {agg.year} "
                                     "and no 'Others' in the taxonomy")
                label = "Others"
            matrix[label][i] += count
    column_totals = _column_sums(list(matrix.values()), len(aggregates))
    columns = [ColumnSpec("Subject", "label")]
    columns.extend(ColumnSpec(str(agg.year), "count") for agg in aggregates)
    columns.append(ColumnSpec("Total", "count"))
    return ReportTable(
        title="Subject distribution of articles",
        columns=columns,
        rows=[[label, *counts, sum(counts)] for label, counts in matrix.items()],
        footer=["Total", *column_totals, sum(column_totals)],
    )
