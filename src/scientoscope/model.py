"""Canonical in-memory model for bibliographic datasets.

Input comes at two granularities:

* record granularity: one :class:`BibRecord` per published article, as
  parsed from a CSV/JSON export;
* aggregate granularity: one :class:`YearAggregate` per calendar year,
  carrying pre-tabulated counts (papers, authorship bins, page bins,
  subject counts).

A :class:`Dataset` is the per-year aggregates every table is built
from. Records become one via :func:`scientoscope.ingest.aggregate_records`;
the study window and the taxonomy belong to the analysis
(:class:`~scientoscope.config.AnalysisConfig`), not to the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field


AUTHORSHIP_BIN_LABELS = ("1 author", "2 authors", "3 authors", "4 authors", "5+ authors")

#: The study's three page-length classes, in column order: aggregate CSV
#: column, table label, and inclusive page range (``None`` marks the open
#: upper end).
PAGE_BINS: tuple[tuple[str, str, int, int | None], ...] = (
    ("p1to5", "1-5 pages", 1, 5),
    ("p6to10", "6-10 pages", 6, 10),
    ("pabove10", "Above 10 pages", 11, None),
)

#: Author count from which the record bridge pools articles into the open
#: 5+ authorship bin. Valued at this count, the bins of the bundled study
#: sum to its per-year author totals.
POOLED_BIN_AUTHOR_VALUE = 5


class ParseError(ValueError):
    """Raised when an input stream cannot be turned into a Dataset.

    Carries a human-readable location (1-based line or element index)
    so command-line users can find the offending row.
    """

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


@dataclass(frozen=True)
class BibRecord:
    """One published article.

    Exactly one of ``authors`` (ordered name list) or ``author_count``
    must be present; ``author_count`` is for sources that report only a
    count. ``page_count`` is derived from the span when both ends are
    known.
    """

    year: int
    title: str
    subject: str
    authors: tuple[str, ...] | None = None
    author_count: int | None = None
    volume: int | None = None
    issue: int | None = None
    start_page: int | None = None
    end_page: int | None = None
    page_count: int | None = None

    @property
    def n_authors(self) -> int:
        """Author count from the explicit field or the name list."""
        if self.author_count is not None:
            return self.author_count
        return len(self.authors or ())


@dataclass(frozen=True)
class YearAggregate:
    """Pre-tabulated per-year counts.

    ``authorship_bins`` always has five entries (1, 2, 3, 4, 5-and-above
    authors); ``page_bins`` has one entry per class of :data:`PAGE_BINS`
    (1-5, 6-10, above 10 pages). ``subject_counts`` maps taxonomy labels
    to counts and preserves taxonomy order.
    """

    year: int
    papers: int
    authorship_bins: tuple[int, ...]
    page_bins: tuple[int, ...]
    subject_counts: dict[str, int] = field(default_factory=dict)
    total_authors: int | None = None

    @property
    def single(self) -> int:
        """Single-authored papers (first authorship bin)."""
        return self.authorship_bins[0]

    @property
    def multiple(self) -> int:
        """Multi-authored papers (all bins past the first)."""
        return sum(self.authorship_bins[1:])


@dataclass(frozen=True)
class Finding:
    """One validation finding: where, which rule, and what happened."""

    location: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.location}: {self.message}"


@dataclass
class ValidationReport:
    """Outcome of validating a dataset. Empty ``errors`` means accepted."""

    errors: list[Finding] = field(default_factory=list)
    warnings: list[Finding] = field(default_factory=list)
    record_count: int = 0
    year_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, location: str, rule: str, message: str) -> None:
        self.errors.append(Finding(location, rule, message))

    def warn(self, location: str, rule: str, message: str) -> None:
        self.warnings.append(Finding(location, rule, message))


@dataclass(frozen=True)
class Dataset:
    """The per-year aggregates of one dataset, sorted ascending by year."""

    aggregates: tuple[YearAggregate, ...]

    @property
    def papers_by_year(self) -> list[tuple[int, int]]:
        """(year, paper count) pairs in ascending year order."""
        return [(a.year, a.papers) for a in self.aggregates]
