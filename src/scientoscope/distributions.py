"""Descriptive distribution tables over per-year aggregates.

Covers the year-wise article distribution, the authorship pattern, the
page-length distribution, and the subject-by-year matrix. Counts are
tabulated at full precision; every footer count is the exact sum of its
column. Percent denominators differ by table on purpose: authorship
rows use the year's paper count, page-length cells use the column
total, year shares use the grand total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AnalysisConfig
from .model import AUTHORSHIP_BIN_LABELS, PAGE_BINS, Dataset, YearAggregate
from .report import ColumnSpec, ReportTable

PAGE_BIN_LABELS = tuple(label for _, label, _, _ in PAGE_BINS)


def _pct(part: float, whole: float) -> float:
    """part/whole as a percentage; 0 when the denominator is 0."""
    return part / whole * 100.0 if whole else 0.0


def _bin_table(title: str, labels: tuple[str, ...], rows: list[tuple],
               footer: tuple) -> ReportTable:
    """Year, then a count and a % per bin, then Papers and Papers %, from
    rows and a footer of ``(first cell, counts, percents, papers, papers %)``."""
    columns = [ColumnSpec("Year", "year")]
    for label in labels:
        columns.append(ColumnSpec(label, "count"))
        columns.append(ColumnSpec(f"{label} %", "percent", 2))
    columns.append(ColumnSpec("Papers", "count"))
    columns.append(ColumnSpec("Papers %", "percent", 1))

    def cells(first, counts, percents, papers, percent_of_total) -> list:
        out: list = [first]
        for count, percent in zip(counts, percents):
            out.extend([count, percent])
        out.extend([papers, percent_of_total])
        return out

    return ReportTable(title=title, columns=columns,
                       rows=[cells(*row) for row in rows], footer=cells(*footer))


def _require_aggregates(dataset: Dataset) -> tuple[YearAggregate, ...]:
    if dataset.granularity != "aggregates":
        raise ValueError("this table requires aggregate granularity "
                         "(run aggregate_records on record data first)")
    return dataset.aggregates


# ---------------------------------------------------------------------------
# Year-wise distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YearDistributionRow:
    year: int
    papers: int
    percent_of_total: float
    cumulative_papers: int | None  # absent for the first year
    cumulative_percent: float | None


def year_distribution(dataset: Dataset) -> list[YearDistributionRow]:
    """Papers per year with running cumulative counts and shares.

    The first year's cumulative cells are absent; the cumulative series
    starts at the second year and ends at the grand total.
    """
    aggregates = _require_aggregates(dataset)
    total = sum(a.papers for a in aggregates)
    rows = []
    running = 0
    for i, agg in enumerate(aggregates):
        running += agg.papers
        first = i == 0
        rows.append(YearDistributionRow(
            year=agg.year,
            papers=agg.papers,
            percent_of_total=_pct(agg.papers, total),
            cumulative_papers=None if first else running,
            cumulative_percent=None if first else _pct(running, total),
        ))
    return rows


def year_distribution_table(dataset: Dataset) -> ReportTable:
    rows = year_distribution(dataset)
    total = sum(r.papers for r in rows)
    return ReportTable(
        title="Articles published per year",
        columns=[
            ColumnSpec("Year", "year"),
            ColumnSpec("Papers", "count"),
            ColumnSpec("%", "percent", 1),
            ColumnSpec("Cum. papers", "count"),
            ColumnSpec("Cum. %", "percent", 2),
        ],
        rows=[[r.year, r.papers, r.percent_of_total,
               r.cumulative_papers, r.cumulative_percent] for r in rows],
        footer=["Total", total, 100.0 if total else 0.0, None, None],
    )


# ---------------------------------------------------------------------------
# Authorship pattern
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuthorshipRow:
    year: int
    bin_counts: tuple[int, ...]
    bin_row_percents: tuple[float, ...]  # each bin over the year's papers
    papers: int
    percent_of_total: float


def authorship_pattern(dataset: Dataset) -> tuple[list[AuthorshipRow], AuthorshipRow]:
    """Per-year authorship bins with row percentages, plus a totals row.

    Row percentages divide by the year's paper count (not the bin sum),
    so they reflect the declared output even when the bins undercount.
    The totals row sums each bin column exactly.
    """
    aggregates = _require_aggregates(dataset)
    total_papers = sum(a.papers for a in aggregates)
    rows = []
    for agg in aggregates:
        rows.append(AuthorshipRow(
            year=agg.year,
            bin_counts=agg.authorship_bins,
            bin_row_percents=tuple(_pct(n, agg.papers) for n in agg.authorship_bins),
            papers=agg.papers,
            percent_of_total=_pct(agg.papers, total_papers),
        ))
    bin_totals = tuple(sum(a.authorship_bins[i] for a in aggregates) for i in range(5))
    footer = AuthorshipRow(
        year=0,
        bin_counts=bin_totals,
        bin_row_percents=tuple(_pct(n, total_papers) for n in bin_totals),
        papers=total_papers,
        percent_of_total=100.0 if total_papers else 0.0,
    )
    return rows, footer


def authorship_table(dataset: Dataset) -> ReportTable:
    rows, footer = authorship_pattern(dataset)
    return _bin_table(
        "Authorship pattern by year", AUTHORSHIP_BIN_LABELS,
        [(r.year, r.bin_counts, r.bin_row_percents, r.papers, r.percent_of_total) for r in rows],
        ("Total", footer.bin_counts, footer.bin_row_percents, footer.papers,
         footer.percent_of_total),
    )


# ---------------------------------------------------------------------------
# Page-length distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PageLengthRow:
    year: int
    bin_counts: tuple[int, ...]
    bin_column_percents: tuple[float, ...]  # each cell over its column total
    papers: int
    percent_of_total: float


def page_length_distribution(dataset: Dataset) -> tuple[list[PageLengthRow], tuple[int, ...]]:
    """Per-year page bins with column percentages and the column totals."""
    aggregates = _require_aggregates(dataset)
    total_papers = sum(a.papers for a in aggregates)
    column_totals = tuple(sum(a.page_bins[i] for a in aggregates) for i in range(len(PAGE_BINS)))
    rows = []
    for agg in aggregates:
        rows.append(PageLengthRow(
            year=agg.year,
            bin_counts=agg.page_bins,
            bin_column_percents=tuple(
                _pct(n, column_totals[i]) for i, n in enumerate(agg.page_bins)
            ),
            papers=agg.papers,
            percent_of_total=_pct(agg.papers, total_papers),
        ))
    return rows, column_totals


def page_length_table(dataset: Dataset) -> ReportTable:
    rows, column_totals = page_length_distribution(dataset)
    total_papers = sum(r.papers for r in rows)
    return _bin_table(
        "Page-length distribution of articles", PAGE_BIN_LABELS,
        [(r.year, r.bin_counts, r.bin_column_percents, r.papers, r.percent_of_total)
         for r in rows],
        ("Total", column_totals, (None,) * len(column_totals), total_papers,
         100.0 if total_papers else 0.0),
    )


# ---------------------------------------------------------------------------
# Subject distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubjectRow:
    subject: str
    counts_by_year: tuple[int, ...]
    total: int


def subject_distribution(dataset: Dataset,
                         taxonomy: tuple[str, ...] | None = None) -> list[SubjectRow]:
    """Subject-by-year count matrix in taxonomy order, zero-filled.

    Labels present in the data but missing from the taxonomy are an
    internal error: ingest maps unknown labels to "Others" before data
    reaches this stage.
    """
    aggregates = _require_aggregates(dataset)
    taxonomy = taxonomy or AnalysisConfig().taxonomy
    known = set(taxonomy)
    for agg in aggregates:
        for label in agg.subject_counts:
            if label not in known:
                raise ValueError(f"unknown subject label {label!r} in year {agg.year}; "
                                 "ingest should have mapped it to 'Others'")
    rows = []
    for label in taxonomy:
        counts = tuple(agg.subject_counts.get(label, 0) for agg in aggregates)
        rows.append(SubjectRow(subject=label, counts_by_year=counts, total=sum(counts)))
    return rows


def subject_table(dataset: Dataset, taxonomy: tuple[str, ...] | None = None) -> ReportTable:
    rows = subject_distribution(dataset, taxonomy)
    years = [a.year for a in dataset.aggregates]
    columns = [ColumnSpec("Subject", "label")]
    columns.extend(ColumnSpec(str(year), "count") for year in years)
    columns.append(ColumnSpec("Total", "count"))
    column_totals = [sum(r.counts_by_year[i] for r in rows) for i in range(len(years))]
    return ReportTable(
        title="Subject distribution of articles",
        columns=columns,
        rows=[[r.subject, *r.counts_by_year, r.total] for r in rows],
        footer=["Total", *column_totals, sum(column_totals)],
    )
