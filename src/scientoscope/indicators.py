"""Derived scientometric indicators.

Degree of collaboration, collaborative index, author productivity,
exponential growth rate, compound annual growth rate, relative growth
rate, and doubling time. The scalar formulas are public functions; each
``*_table`` function builds its table's cells straight from the
dataset's aggregates, and :meth:`~scientoscope.report.ReportTable.cell`
reads a value back. Each indicator has a ``paper`` convention that
reproduces the bundled source study's published tables and a
``standard`` (textbook) convention; :class:`~scientoscope.config.AnalysisConfig`
selects between them.

Conventions worth calling out, because both are implemented:

* The source study's printed CI column equals the multi-to-single
  authored ratio Nm/Ns, while the conventional collaborative index is
  authors/papers. ``variant="printed"`` reproduces the column,
  ``variant="stated"`` computes the conventional value.
* The paper-convention growth rate R is carried at the displayed
  2-decimal precision before doubling times and means are derived from
  it, matching how the published table was computed by hand. The mean
  of R is the exact mean of those 2-decimal values, rounded once to a
  float, so a mean on a display tie (0.335) shows as by hand (0.34).
  The standard convention keeps full precision throughout. In both,
  every row satisfies dt * r = ln 2 exactly.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .config import AnalysisConfig
from .model import Dataset
from .report import CellValue, ColumnSpec, ReportTable, round_display, round_half_up

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Collaboration
# ---------------------------------------------------------------------------


def degree_of_collaboration(single: int, multiple: int) -> float:
    """Subramanyam's C = Nm / (Nm + Ns), at full precision."""
    papers = single + multiple
    if papers <= 0:
        raise ValueError("undefined DC for empty year")
    return multiple / papers


def collaborative_index(single: int, multiple: int, *, authors: int | None = None,
                        variant: str = "printed") -> float:
    """Collaborative index, in either of two variants.

    ``stated``  -- authors / papers (the conventional definition).
    ``printed`` -- multiple / single (Nm/Ns), the formula the bundled
    study's published column actually follows. The divergence between
    the two is a documented property of that table, not a defect here.
    """
    if variant == "stated":
        papers = single + multiple
        if authors is None:
            raise ValueError("CI (stated) requires the author count")
        if papers <= 0:
            raise ValueError("CI (stated) undefined: no papers")
        return authors / papers
    if variant == "printed":
        if single == 0:
            raise ValueError("CI (printed) undefined: no single-authored papers")
        return multiple / single
    raise ValueError(f"unknown CI variant: {variant!r}")


def collaboration_table(dataset: Dataset, config: AnalysisConfig | None = None) -> ReportTable:
    """Per-year collaboration rows plus a totals row.

    Row paper counts are Ns + Nm from the authorship bins. The totals
    row takes the dataset's declared paper total and derives the
    multi-authored total as papers - single, which is how the source
    study's totals row is constructed; on bin-consistent data this
    equals the column sum.
    """
    config = config or AnalysisConfig()
    variant = config.ci_variant
    aggregates = dataset.aggregates
    rows = [[a.year, a.single, a.multiple, a.single + a.multiple,
             collaborative_index(a.single, a.multiple, authors=a.total_authors, variant=variant),
             degree_of_collaboration(a.single, a.multiple)] for a in aggregates]
    total_single = sum(a.single for a in aggregates)
    total_papers = sum(a.papers for a in aggregates)
    total_multiple = total_papers - total_single
    total_authors = None
    if all(a.total_authors is not None for a in aggregates):
        total_authors = sum(a.total_authors for a in aggregates)
    if variant == "printed":
        ci_note = ("CI is the multi-to-single-authored ratio Nm/Ns, following the "
                   "reproduced study's printed column; the conventional definition "
                   "(authors/papers) is available as the 'stated' variant.")
    else:
        ci_note = "CI is authors/papers (conventional definition)."
    return ReportTable(
        title="Degree of collaboration by year",
        columns=[
            ColumnSpec("Year", "year"),
            ColumnSpec("Single", "count"),
            ColumnSpec("Multiple", "count"),
            ColumnSpec("Papers", "count"),
            ColumnSpec("CI", "ratio", 2),
            ColumnSpec("DC", "ratio", 2),
        ],
        rows=rows,
        footer=["Total", total_single, total_multiple, total_papers,
                collaborative_index(total_single, total_multiple,
                                    authors=total_authors, variant=variant),
                total_multiple / total_papers if total_papers else 0.0],
        notes=[ci_note, "DC = Nm / (Nm + Ns)."],
    )


# ---------------------------------------------------------------------------
# Author productivity
# ---------------------------------------------------------------------------


def author_productivity(papers: int, authors: int) -> tuple[float, float]:
    """(authors/papers, papers/authors); the two are exact reciprocals."""
    if papers <= 0 or authors <= 0:
        raise ValueError("author productivity requires positive papers and authors")
    return authors / papers, papers / authors


def productivity_table(dataset: Dataset, config: AnalysisConfig | None = None) -> ReportTable:
    """Papers, authors, AAPP and PPA per year, plus a totals row.

    Under ``totals_source = rounded_cells`` the AAPP and PPA totals sum
    the per-year values at their displayed 2-decimal rounding, which is
    how the source study's totals row adds up; otherwise they pool all
    years: total authors / total papers and its reciprocal.
    """
    config = config or AnalysisConfig()
    aggregates = dataset.aggregates
    if any(a.total_authors is None for a in aggregates):
        raise ValueError("author totals unavailable")
    ratios = [author_productivity(a.papers, a.total_authors) for a in aggregates]
    total_papers = sum(a.papers for a in aggregates)
    total_authors = sum(a.total_authors for a in aggregates)
    if config.totals_source == "rounded_cells":
        total_aapp = sum(round_half_up(aapp, 2) for aapp, _ in ratios)
        total_ppa = sum(round_half_up(ppa, 2) for _, ppa in ratios)
        note = "Totals row sums the displayed yearly values."
    else:
        total_aapp, total_ppa = author_productivity(total_papers, total_authors)
        note = "Totals row pools all years: total authors / total papers and its reciprocal."
    return ReportTable(
        title="Author productivity by year",
        columns=[
            ColumnSpec("Year", "year"),
            ColumnSpec("Papers", "count"),
            ColumnSpec("Papers %", "percent", 2),
            ColumnSpec("Authors", "count"),
            ColumnSpec("Authors %", "percent", 2),
            ColumnSpec("AAPP", "ratio", 2),
            ColumnSpec("PPA", "ratio", 2),
        ],
        rows=[[a.year, a.papers,
               a.papers / total_papers * 100.0 if total_papers else 0.0,
               a.total_authors,
               a.total_authors / total_authors * 100.0 if total_authors else 0.0,
               aapp, ppa] for a, (aapp, ppa) in zip(aggregates, ratios)],
        footer=["Total", total_papers, None, total_authors, None, total_aapp, total_ppa],
        notes=["AAPP = average authors per paper; PPA = papers per author.", note],
    )


# ---------------------------------------------------------------------------
# Exponential growth rate
# ---------------------------------------------------------------------------


def exponential_growth(series: list[tuple[int, int]],
                       mode: str = "paper") -> list[list[CellValue]]:
    """Year-over-year growth of a publication count series, as the rows
    ``[year, papers, egr]`` of the EGR table.

    ``paper`` pins the first year to 0 and reports the raw ratio
    papers(t)/papers(t-1) afterwards, which is the relation the source
    study's printed column follows; ``log`` reports ln of that ratio
    with the first year absent (``None``).
    """
    if mode not in ("paper", "log"):
        raise ValueError(f"unknown EGR mode: {mode!r}")
    if len(series) < 2:
        raise ValueError("EGR requires at least two years")
    rows: list[list[CellValue]] = []
    for i, (year, papers) in enumerate(series):
        if i == 0:
            rows.append([year, papers, 0.0 if mode == "paper" else None])
            continue
        prev = series[i - 1][1]
        if prev <= 0:
            raise ValueError(f"EGR undefined: zero papers in denominator year {series[i - 1][0]}")
        if mode == "log" and papers <= 0:
            raise ValueError(f"log EGR undefined: zero papers in year {year}")
        ratio = papers / prev
        rows.append([year, papers, ratio if mode == "paper" else math.log(ratio)])
    return rows


def _cagr_periods(years: int, mode: str) -> int:
    """Compounding periods n of a CAGR over ``years`` calendar years."""
    if mode == "paper_years":
        return years
    if mode == "intervals":
        return years - 1
    raise ValueError(f"unknown CAGR mode: {mode!r}")


def cagr(first: int, last: int, years: int, mode: str = "paper_years") -> float:
    """Compound annual growth rate over a window, in percent.

    ``paper_years`` uses n = the number of calendar years in the window
    (the source study's convention); ``intervals`` uses n = years - 1
    (the textbook convention).
    """
    if first <= 0 or last <= 0:
        raise ValueError("CAGR requires positive first and last counts")
    n = _cagr_periods(years, mode)
    if n <= 0:
        raise ValueError("CAGR undefined over zero periods")
    return ((last / first) ** (1.0 / n) - 1.0) * 100.0


def egr_table(dataset: Dataset, config: AnalysisConfig | None = None) -> ReportTable:
    config = config or AnalysisConfig()
    series = dataset.papers_by_year
    rows = exponential_growth(series, config.egr_mode)
    first_year, last_year = series[0][0], series[-1][0]
    growth_pct = cagr(series[0][1], series[-1][1], len(series), config.cagr_mode)

    rates = [egr for _, _, egr in rows if egr is not None]
    # The source study's totals row adds the rounded yearly values.
    if config.totals_source == "rounded_cells":
        rates = [round_half_up(egr, 2) for egr in rates]
    n_periods = _cagr_periods(len(series), config.cagr_mode)
    return ReportTable(
        title="Exponential growth rate of publications",
        columns=[
            ColumnSpec("Year", "year"),
            ColumnSpec("Papers", "count"),
            ColumnSpec("EGR", "ratio", 2),
        ],
        rows=rows,
        footer=["Total", sum(p for _, p in series), sum(rates)],
        notes=[f"CAGR {first_year}-{last_year}: "
               f"{round_display(growth_pct, 1)}% over {n_periods} periods."],
    )


# ---------------------------------------------------------------------------
# Relative growth rate and doubling time
# ---------------------------------------------------------------------------


def relative_growth(series: list[tuple[int, int]],
                    mode: str = "standard") -> list[list[CellValue]]:
    """Relative growth rate W2 - W1 and doubling time ln 2 / R, as the
    rows ``[year, papers, cumulative, w1, w2, r, dt]`` of the RGR table.

    ``standard`` takes W(t) = ln(cumulative papers through t), so R is
    the log-ratio of successive cumulative counts; the first row has no
    rate. ``paper`` reproduces the source table's construction: each
    row compares ln of successive yearly counts, the final row compares
    the last year against ln of the grand total, and R is |W2 - W1|
    carried at 2-decimal precision. The first row's cumulative count is
    absent, and a row with R = 0 has no doubling time; :func:`rgr_table`
    leaves absent values out of the means in its footer.
    """
    if mode not in ("standard", "paper"):
        raise ValueError(f"unknown RGR mode: {mode!r}")
    if len(series) < 2:
        raise ValueError("relative growth requires at least two years")
    if any(papers <= 0 for _, papers in series):
        raise ValueError("relative growth requires positive counts in every year")

    cumulative = list(accumulate(papers for _, papers in series))
    rows: list[list[CellValue]] = []
    for i, (year, papers) in enumerate(series):
        if mode == "standard":
            if i == 0:
                rows.append([year, papers, None, None, math.log(cumulative[0]), None, None])
                continue
            w1 = math.log(cumulative[i - 1])
            w2 = math.log(cumulative[i])
            r = w2 - w1
        else:
            w1 = math.log(papers)
            w2 = math.log(series[i + 1][1]) if i < len(series) - 1 else math.log(cumulative[-1])
            r = round_half_up(abs(w2 - w1), 2)
        rows.append([year, papers, None if i == 0 else cumulative[i], w1, w2, r,
                     LN2 / r if r > 0 else None])
    return rows


def rgr_table(dataset: Dataset, config: AnalysisConfig | None = None) -> ReportTable:
    config = config or AnalysisConfig()
    series = dataset.papers_by_year
    rows = relative_growth(series, config.rgr_mode)
    rates = [r for *_, r, _ in rows if r is not None]
    times = [dt for *_, dt in rows if dt is not None]
    notes = ["Dt = ln 2 / R; footer shows arithmetic means of R and Dt."]
    mean_r = sum(rates) / len(rates)
    if config.rgr_mode == "paper":  # whole hundredths: their exact mean, rounded once
        mean_r = sum(round(r * 100) for r in rates) / (100 * len(rates))
        notes.append("R compares successive yearly counts at 2-decimal precision; "
                     "the final row measures the last year against the cumulative total.")
    else:
        notes.append("R is the log-ratio of successive cumulative counts.")
    return ReportTable(
        title="Relative growth rate and doubling time",
        columns=[
            ColumnSpec("Year", "year"),
            ColumnSpec("Papers", "count"),
            ColumnSpec("Cum. papers", "count"),
            ColumnSpec("W1", "log", 2),
            ColumnSpec("W2", "log", 2),
            ColumnSpec("R", "log", 2),
            ColumnSpec("Dt", "ratio", 2),
        ],
        rows=rows,
        footer=["Total", sum(p for _, p in series), None, None, None,
                mean_r, sum(times) / len(times) if times else None],
        notes=notes,
    )
