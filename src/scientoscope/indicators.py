"""Derived scientometric indicators.

Degree of collaboration, collaborative index, author productivity,
exponential growth rate, compound annual growth rate, relative growth
rate, and doubling time. Each indicator has a ``paper`` convention that
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
  it, matching how the published table was computed by hand. The
  standard convention keeps full precision throughout. In both, every
  row satisfies dt * r = ln 2 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import AnalysisConfig
from .model import Dataset, Finding, YearAggregate
from .report import ColumnSpec, ReportTable, round_half_up

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Collaboration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollaborationRow:
    year: int
    single: int     # Ns
    multiple: int   # Nm
    papers: int     # Ns + Nm
    ci: float
    dc: float


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


def collaboration_rows(dataset: Dataset,
                       config: AnalysisConfig | None = None
                       ) -> tuple[list[CollaborationRow], CollaborationRow]:
    """Per-year collaboration rows plus a totals row.

    Row paper counts are Ns + Nm from the authorship bins. The totals
    row takes the dataset's declared paper total and derives the
    multi-authored total as papers - single, which is how the source
    study's totals row is constructed; on bin-consistent data this
    equals the column sum.
    """
    config = config or AnalysisConfig()
    variant = config.resolved("ci_variant")
    if dataset.granularity != "aggregates":
        raise ValueError("collaboration analysis requires aggregate granularity")

    def build(year: int, single: int, multiple: int, agg: YearAggregate | None,
              papers: int | None = None) -> CollaborationRow:
        row_papers = single + multiple if papers is None else papers
        authors = agg.total_authors if agg is not None else None
        return CollaborationRow(
            year=year,
            single=single,
            multiple=multiple,
            papers=row_papers,
            ci=collaborative_index(single, multiple, authors=authors, variant=variant),
            dc=degree_of_collaboration(single, multiple),
        )

    rows = [build(a.year, a.single, a.multiple, a) for a in dataset.aggregates]
    total_single = sum(a.single for a in dataset.aggregates)
    total_papers = sum(a.papers for a in dataset.aggregates)
    total_multiple = total_papers - total_single
    total_authors = None
    if all(a.total_authors is not None for a in dataset.aggregates):
        total_authors = sum(a.total_authors or 0 for a in dataset.aggregates)
    footer = CollaborationRow(
        year=0,
        single=total_single,
        multiple=total_multiple,
        papers=total_papers,
        ci=collaborative_index(total_single, total_multiple,
                               authors=total_authors, variant=variant),
        dc=total_multiple / total_papers if total_papers else 0.0,
    )
    return rows, footer


def collaboration_table(dataset: Dataset, config: AnalysisConfig | None = None) -> ReportTable:
    config = config or AnalysisConfig()
    rows, footer = collaboration_rows(dataset, config)
    variant = config.resolved("ci_variant")
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
        rows=[[r.year, r.single, r.multiple, r.papers, r.ci, r.dc] for r in rows],
        footer=["Total", footer.single, footer.multiple, footer.papers, footer.ci, footer.dc],
        notes=[ci_note, "DC = Nm / (Nm + Ns)."],
    )


# ---------------------------------------------------------------------------
# Author productivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductivityRow:
    year: int
    papers: int
    authors: int
    aapp: float  # authors per paper
    ppa: float   # papers per author


def author_productivity(papers: int, authors: int) -> tuple[float, float]:
    """(authors/papers, papers/authors); the two are exact reciprocals."""
    if papers <= 0 or authors <= 0:
        raise ValueError("author productivity requires positive papers and authors")
    return authors / papers, papers / authors


def productivity_rows(dataset: Dataset) -> list[ProductivityRow]:
    if dataset.granularity != "aggregates":
        raise ValueError("productivity analysis requires aggregate granularity")
    if any(a.total_authors is None for a in dataset.aggregates):
        raise ValueError("author totals unavailable")
    rows = []
    for agg in dataset.aggregates:
        aapp, ppa = author_productivity(agg.papers, agg.total_authors or 0)
        rows.append(ProductivityRow(agg.year, agg.papers, agg.total_authors or 0, aapp, ppa))
    return rows


def productivity_totals(rows: list[ProductivityRow], mode: str = "paper") -> tuple[float, float]:
    """Totals row for the productivity table.

    ``paper`` sums the per-year values at their displayed 2-decimal
    rounding, which is how the source study's totals row adds up;
    ``pooled`` computes total authors / total papers and its reciprocal.
    """
    if not rows:
        raise ValueError("productivity totals require at least one row")
    if mode == "paper":
        return (sum(round_half_up(r.aapp, 2) for r in rows),
                sum(round_half_up(r.ppa, 2) for r in rows))
    if mode == "pooled":
        papers = sum(r.papers for r in rows)
        authors = sum(r.authors for r in rows)
        return author_productivity(papers, authors)
    raise ValueError(f"unknown productivity totals mode: {mode!r}")


def productivity_table(dataset: Dataset, config: AnalysisConfig | None = None) -> ReportTable:
    config = config or AnalysisConfig()
    rows = productivity_rows(dataset)
    totals_mode = "paper" if config.resolved("totals_source") == "rounded_cells" else "pooled"
    total_aapp, total_ppa = productivity_totals(rows, totals_mode)
    total_papers = sum(r.papers for r in rows)
    total_authors = sum(r.authors for r in rows)
    note = ("Totals row sums the displayed yearly values."
            if totals_mode == "paper"
            else "Totals row pools all years: total authors / total papers and its reciprocal.")
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
        rows=[[r.year, r.papers,
               r.papers / total_papers * 100.0 if total_papers else 0.0,
               r.authors,
               r.authors / total_authors * 100.0 if total_authors else 0.0,
               r.aapp, r.ppa] for r in rows],
        footer=["Total", total_papers, None, total_authors, None, total_aapp, total_ppa],
        notes=["AAPP = average authors per paper; PPA = papers per author.", note],
    )


# ---------------------------------------------------------------------------
# Exponential growth rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EgrRow:
    year: int
    papers: int
    egr: float | None  # absent for the first year in log convention


@dataclass(frozen=True)
class EgrResult:
    rows: list[EgrRow]
    total: float  # full-precision sum of the present values


def exponential_growth(series: list[tuple[int, int]], mode: str = "paper") -> EgrResult:
    """Year-over-year growth of a publication count series.

    ``paper`` pins the first year to 0 and reports the raw ratio
    papers(t)/papers(t-1) afterwards, which is the relation the source
    study's printed column follows; ``log`` reports ln of that ratio
    with the first year absent.
    """
    if mode not in ("paper", "log"):
        raise ValueError(f"unknown EGR mode: {mode!r}")
    if len(series) < 2:
        raise ValueError("EGR requires at least two years")
    rows: list[EgrRow] = []
    for i, (year, papers) in enumerate(series):
        if i == 0:
            rows.append(EgrRow(year, papers, 0.0 if mode == "paper" else None))
            continue
        prev = series[i - 1][1]
        if prev <= 0:
            raise ValueError(f"EGR undefined: zero papers in denominator year {series[i - 1][0]}")
        if mode == "log" and papers <= 0:
            raise ValueError(f"log EGR undefined: zero papers in year {year}")
        ratio = papers / prev
        rows.append(EgrRow(year, papers, ratio if mode == "paper" else math.log(ratio)))
    total = sum(r.egr for r in rows if r.egr is not None)
    return EgrResult(rows=rows, total=total)


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
    result = exponential_growth(series, config.resolved("egr_mode"))
    first_year, last_year = series[0][0], series[-1][0]
    growth_pct = cagr(series[0][1], series[-1][1], len(series), config.resolved("cagr_mode"))

    # The source study's totals row adds the rounded yearly values.
    if config.resolved("totals_source") == "rounded_cells":
        total = sum(round_half_up(r.egr, 2) for r in result.rows if r.egr is not None)
    else:
        total = result.total
    n_periods = _cagr_periods(len(series), config.resolved("cagr_mode"))
    return ReportTable(
        title="Exponential growth rate of publications",
        columns=[
            ColumnSpec("Year", "year"),
            ColumnSpec("Papers", "count"),
            ColumnSpec("EGR", "ratio", 2),
        ],
        rows=[[r.year, r.papers, r.egr] for r in result.rows],
        footer=["Total", sum(p for _, p in series), total],
        notes=[f"CAGR {first_year}-{last_year}: "
               f"{round_half_up(growth_pct, 1):.1f}% over {n_periods} periods."],
    )


# ---------------------------------------------------------------------------
# Relative growth rate and doubling time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRow:
    year: int
    papers: int
    cumulative: int | None  # absent for the first year
    w1: float | None
    w2: float | None
    r: float | None
    dt: float | None


@dataclass(frozen=True)
class GrowthResult:
    rows: list[GrowthRow]
    mean_r: float
    mean_dt: float | None
    warnings: list[Finding]


def relative_growth(series: list[tuple[int, int]], mode: str = "standard") -> GrowthResult:
    """Relative growth rate W2 - W1 and doubling time ln 2 / R.

    ``standard`` takes W(t) = ln(cumulative papers through t), so R is
    the log-ratio of successive cumulative counts; the first row has no
    rate. ``paper`` reproduces the source table's construction: each
    row compares ln of successive yearly counts, the final row compares
    the last year against ln of the grand total, R is |W2 - W1| carried
    at 2-decimal precision, and the means are arithmetic means over the
    rows. Rows with R = 0 have no doubling time and are excluded from
    the Dt mean with a warning.
    """
    if mode not in ("standard", "paper"):
        raise ValueError(f"unknown RGR mode: {mode!r}")
    if len(series) < 2:
        raise ValueError("relative growth requires at least two years")
    if any(papers <= 0 for _, papers in series):
        raise ValueError("relative growth requires positive counts in every year")

    warnings: list[Finding] = []
    rows: list[GrowthRow] = []
    cumulative = []
    running = 0
    for _, papers in series:
        running += papers
        cumulative.append(running)

    if mode == "standard":
        for i, (year, papers) in enumerate(series):
            if i == 0:
                rows.append(GrowthRow(year, papers, None, None, math.log(cumulative[0]),
                                      None, None))
                continue
            w1 = math.log(cumulative[i - 1])
            w2 = math.log(cumulative[i])
            r = w2 - w1
            dt = LN2 / r if r > 0 else None
            if dt is None:
                warnings.append(Finding(str(year), "zero-growth",
                                        "R = 0: doubling time undefined, excluded from mean"))
            rows.append(GrowthRow(year, papers, cumulative[i], w1, w2, r, dt))
    else:
        grand_total = cumulative[-1]
        for i, (year, papers) in enumerate(series):
            w1 = math.log(papers)
            w2 = math.log(series[i + 1][1]) if i < len(series) - 1 else math.log(grand_total)
            r = round_half_up(abs(w2 - w1), 2)
            dt = LN2 / r if r > 0 else None
            if dt is None:
                warnings.append(Finding(str(year), "zero-growth",
                                        "R = 0: doubling time undefined, excluded from mean"))
            rows.append(GrowthRow(year, papers, None if i == 0 else cumulative[i], w1, w2, r, dt))

    r_values = [row.r for row in rows if row.r is not None]
    dt_values = [row.dt for row in rows if row.dt is not None]
    return GrowthResult(
        rows=rows,
        mean_r=sum(r_values) / len(r_values) if r_values else 0.0,
        mean_dt=sum(dt_values) / len(dt_values) if dt_values else None,
        warnings=warnings,
    )


def rgr_table(dataset: Dataset, config: AnalysisConfig | None = None) -> ReportTable:
    config = config or AnalysisConfig()
    series = dataset.papers_by_year
    result = relative_growth(series, config.resolved("rgr_mode"))
    notes = ["Dt = ln 2 / R; footer shows arithmetic means of R and Dt."]
    if config.resolved("rgr_mode") == "paper":
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
        rows=[[r.year, r.papers, r.cumulative, r.w1, r.w2, r.r, r.dt] for r in result.rows],
        footer=["Total", sum(p for _, p in series), None, None, None,
                result.mean_r, result.mean_dt],
        notes=notes,
    )
