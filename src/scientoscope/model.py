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

from collections import namedtuple


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


class Checked:
    """Base of a named tuple whose constructor, ``_make`` and ``_replace`` all
    run ``_check``; in a plain named tuple the last two bypass ``__new__``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Fieldwise:
    """Field-wise equality and ``repr`` for the mutable value types, whose
    fields are the attributes ``__init__`` sets, in order. Unhashable."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class BibRecord(namedtuple("BibRecord", "year title subject authors author_count volume "
                           "issue start_page end_page page_count", defaults=(None,) * 7)):
    """One published article.

    Exactly one of ``authors`` (ordered name list) or ``author_count``
    must be present; ``author_count`` is for sources that report only a
    count. ``page_count`` is derived from the span when both ends are
    known and in order.
    """

    __slots__ = ()

    @property
    def n_authors(self) -> int:
        """Author count from the explicit field or the name list."""
        if self.author_count is not None:
            return self.author_count
        return len(self.authors or ())


class YearAggregate(namedtuple("YearAggregate", "year papers authorship_bins page_bins "
                               "subject_counts total_authors")):
    """Pre-tabulated per-year counts.

    ``authorship_bins`` always has five entries (1, 2, 3, 4, 5-and-above
    authors); ``page_bins`` has one entry per class of :data:`PAGE_BINS`
    (1-5, 6-10, above 10 pages). ``subject_counts`` maps taxonomy labels
    to counts and preserves taxonomy order; by default a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, year, papers, authorship_bins, page_bins, subject_counts=None,
                total_authors=None):
        return super().__new__(cls, year, papers, authorship_bins, page_bins,
                               {} if subject_counts is None else subject_counts, total_authors)

    @property
    def single(self) -> int:
        """Single-authored papers (first authorship bin)."""
        return self.authorship_bins[0]

    @property
    def multiple(self) -> int:
        """Multi-authored papers (all bins past the first)."""
        return sum(self.authorship_bins[1:])


class Finding(namedtuple("Finding", "location rule message")):
    """One validation finding: where, which rule, and what happened."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"[{self.rule}] {self.location}: {self.message}"


class ValidationReport(Fieldwise):
    """Outcome of validating a dataset. Empty ``errors`` means accepted."""

    def __init__(self, errors: list[Finding] | None = None, warnings: list[Finding] | None = None,
                 record_count: int = 0, year_count: int = 0):
        self.errors = [] if errors is None else errors
        self.warnings = [] if warnings is None else warnings
        self.record_count = record_count
        self.year_count = year_count

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, location: str, rule: str, message: str) -> None:
        self.errors.append(Finding(location, rule, message))

    def warn(self, location: str, rule: str, message: str) -> None:
        self.warnings.append(Finding(location, rule, message))


class Dataset(namedtuple("Dataset", "aggregates")):
    """The per-year aggregates of one dataset, sorted ascending by year."""

    __slots__ = ()

    @property
    def papers_by_year(self) -> list[tuple[int, int]]:
        """(year, paper count) pairs in ascending year order."""
        return [(a.year, a.papers) for a in self.aggregates]
