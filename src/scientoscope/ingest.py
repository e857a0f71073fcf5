"""Parsing, validation, and normalization of bibliographic input.

Input arrives either as record-level CSV/JSON (one article per row) or
as pre-tabulated per-year aggregates. Structural problems (bad CSV,
missing mandatory fields, non-numeric values) raise :class:`ParseError`;
semantic problems (bin sums, year gaps, window violations) are reported
by :func:`validate` without ever mutating or silently fixing the data.

Record input has two routes with one set of checks. The library route
builds every :class:`BibRecord` (:func:`parse_records`), then checks
them (:func:`validate`) and bridges them to per-year aggregates
(:func:`aggregate_records`). :func:`fold_records`, which the CLI uses,
does all three in one pass over an open file: each row is parsed,
checked by the same record rules and counted into the same per-year
accumulator, with no record kept. Record CSV is streamed, so its memory
is O(years + findings); JSON is decoded whole. Every step reads its
``strict``, ``study_window`` and ``taxonomy`` from one
:class:`~scientoscope.config.AnalysisConfig`.

Clean rows take a short path: the parse converts with bare ``int()``
and builds no location string, and the fold applies a guard that every
record rule passes instead of the rules themselves. The precise checks
are the fallback, and the only code that words a message: a row the
short parse cannot take goes to ``_record_fields``, and a row that
fails the guard goes to ``_validate_record``. So both paths give the
same fields, findings and errors.

CSV schemas
-----------
Columns are matched by header name, in any order. The columns shown
without brackets are required, and no name may appear twice.

records::

    year,volume,issue,title,authors,start_page,end_page,subject[,author_count][,page_count]

with authors ";"-separated; a non-empty ``author_count`` overrides the
name list (use it when names are unavailable). An optional
``page_count`` gives the page length when the span is unknown; when both
are given they must agree.

aggregates::

    year,papers,a1,a2,a3,a4,a5plus,total_authors,p1to5,p6to10,pabove10,subj:<label>,...

with one ``subj:<label>`` column per taxonomy entry. The page columns
are the study's fixed page-length classes (1-5, 6-10 and above 10
pages, :data:`~scientoscope.model.PAGE_BINS`), and the record bridge
bins page counts into the same classes. JSON mirrors the same field
names, one object per record/aggregate, in a top-level list.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from collections.abc import Container, Iterable, Iterator
from operator import itemgetter
from typing import BinaryIO, TextIO

from .config import AnalysisConfig
from .model import (
    PAGE_BINS,
    POOLED_BIN_AUTHOR_VALUE,
    BibRecord,
    Dataset,
    Finding,
    ParseError,
    ValidationReport,
    YearAggregate,
)

RECORD_FIELDS = ("year", "volume", "issue", "title", "authors", "start_page", "end_page", "subject")
_AUTHORSHIP_FIELDS = ("a1", "a2", "a3", "a4", "a5plus")
_PAGE_FIELDS = tuple(column for column, _, _, _ in PAGE_BINS)
AGGREGATE_FIELDS = ("year", "papers", *_AUTHORSHIP_FIELDS, "total_authors", *_PAGE_FIELDS)

_SUBJECT_PREFIX = "subj:"

#: Largest count validation accepts. Floats hold every count up to it
#: exactly, and the ratios and sums of such counts stay far inside the
#: float range, so no indicator overflows.
MAX_COUNT = 2**53


def _decode(source: bytes | str) -> str:
    if isinstance(source, str):
        return source
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc


def _opt_int(raw: str | None, what: str, location: str) -> int | None:
    if not raw or raw.isspace():
        return None
    try:
        return int(raw)  # int() ignores the surrounding whitespace strip() removes
    except ValueError:
        raise ParseError(f"non-numeric {what}: {raw.strip()!r}", location) from None


def _req_int(raw: str | None, what: str, location: str) -> int:
    value = _opt_int(raw, what, location)
    if value is None:
        raise ParseError(f"missing mandatory field {what!r}", location)
    return value


def split_authors(raw: str) -> tuple[str, ...]:
    """Split a ";"-separated author field, trimming whitespace.

    Commas stay inside names ("Kumar, A."), which is why ";" is the
    delimiter.
    """
    return tuple(filter(None, map(str.strip, raw.split(";"))))


# ---------------------------------------------------------------------------
# Parsing: one row source for CSV/JSON, one field builder per granularity
# ---------------------------------------------------------------------------


def _csv_records(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line, record)`` for each CSV record of ``lines``, ``line`` being the
    physical line the record ends on; a malformed one raises ParseError at its line."""
    reader = csv.reader(lines)
    try:
        for record in reader:
            yield reader.line_num, record
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", f"line {reader.line_num}") from None


def _csv_header(records: Iterator[tuple[int, list[str]]], kind: str,
                required: tuple[str, ...]) -> list[str]:
    try:
        header = [h.strip() for h in next(records)[1]]
    except StopIteration:
        raise ParseError("empty input") from None
    missing = [f for f in required if f not in header]
    if missing:
        raise ParseError(f"{kind} CSV header is missing columns: {', '.join(missing)}", "line 1")
    duplicates = sorted({h for h in header if header.count(h) > 1})
    if duplicates:
        raise ParseError(f"duplicate columns: {', '.join(duplicates)}", "line 1")
    return header


def _json_text(key: str, value: object) -> str | None:
    if value is None:
        return None
    if key == "authors" and isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value)


def _location(format: str, number: int) -> str:
    """The location a row error names: a CSV line or a JSON element."""
    return f"{'line' if format == 'csv' else 'element'} {number}"


def _rows(stream: TextIO, format: str, kind: str,
          required: tuple[str, ...] = ()) -> Iterator[tuple[int, dict[str, int], list]]:
    """Yield ``(number, columns, values)`` for each non-blank CSV row or JSON element.

    ``number`` is the line or element :func:`_location` names, and
    ``values[columns[name]]`` the field's string or ``None`` (a JSON
    ``authors`` list is joined by ";"). Every ``values`` ends in a ``None``
    pad, so ``values[columns.get(name, -1)]`` reads an absent field as
    ``None``. CSV rows share the header's ``columns``; JSON elements share
    one while their key order repeats. CSV is read from ``stream`` row by
    row; JSON is decoded whole. ``kind`` names the input in error messages.
    """
    if format == "csv":
        records = _csv_records(stream)
        header = _csv_header(records, kind, required)
        columns = {name: i for i, name in enumerate(header)}
        for line_no, row in records:
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", f"line {line_no}")
            row.append(None)
            yield line_no, columns, row
    elif format == "json":
        try:
            data = json.loads(stream.read())
        except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
            raise ParseError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None
        if not isinstance(data, list):
            raise ParseError(f"{kind} JSON must be a top-level list")
        keys: tuple | None = None
        for index, obj in enumerate(data, start=1):
            if not isinstance(obj, dict):
                raise ParseError(f"{kind} element must be an object", f"element {index}")
            if tuple(obj) != keys:
                keys = tuple(obj)
                columns = {key: i for i, key in enumerate(keys)}
            values = [_json_text(key, value) for key, value in obj.items()]
            values.append(None)
            yield index, columns, values
    else:
        raise ParseError(f"unknown input format: {format!r}")


#: Record columns in the order :func:`_record_fields` checks them.
_RECORD_COLUMNS = ("year", "title", "subject", "author_count", "authors",
                   "start_page", "end_page", "page_count", "volume", "issue")


def _record_fields(location: str, raw: tuple) -> tuple:
    """The precise parse: one record's fields in :class:`BibRecord` order,
    from its *raw* values in :data:`_RECORD_COLUMNS` order, or the
    ParseError of its first failing check."""
    (year, title, subject, author_count, authors,
     start_page, end_page, page_count, volume, issue) = raw
    year = _req_int(year, "year", location)
    title = (title or "").strip()
    if not title:
        raise ParseError("missing mandatory field 'title'", location)
    subject = (subject or "").strip()
    if not subject:
        raise ParseError("missing mandatory field 'subject'", location)

    author_count = _opt_int(author_count, "author_count", location)
    if author_count is not None:
        # Explicit count overrides the name list.
        names = None
    else:
        names = split_authors(authors or "")
        if not names:
            raise ParseError("missing mandatory field 'authors' (or 'author_count')", location)

    start_page = _opt_int(start_page, "start_page", location)
    end_page = _opt_int(end_page, "end_page", location)
    page_count = _opt_int(page_count, "page_count", location)
    if page_count is None and start_page is not None and end_page is not None:
        page_count = end_page - start_page + 1
    return (year, title, subject, names, author_count,
            _opt_int(volume, "volume", location), _opt_int(issue, "issue", location),
            start_page, end_page, page_count)


def _parsed_records(stream: TextIO, format: str) -> Iterator[tuple]:
    """Yield the fields of each record in :class:`BibRecord` order, for
    :func:`parse_records` and :func:`fold_records` alike: by the short
    path, or by :func:`_record_fields` for a row where that raises
    ValueError (a malformed or whitespace-only number) or finds a blank
    mandatory field or author list."""
    columns: dict[str, int] | None = None
    for number, row_columns, values in _rows(stream, format, "record", RECORD_FIELDS):
        if row_columns is not columns:  # once for CSV, once per JSON key order
            columns = row_columns
            pick = itemgetter(*(columns.get(name, -1) for name in _RECORD_COLUMNS))
        raw = pick(values)
        (year, title, subject, author_count, authors,
         start_page, end_page, page_count, volume, issue) = raw
        try:
            year = int(year) if year else None
            author_count = int(author_count) if author_count else None
            start_page = int(start_page) if start_page else None
            end_page = int(end_page) if end_page else None
            page_count = int(page_count) if page_count else None
            volume = int(volume) if volume else None
            issue = int(issue) if issue else None
        except ValueError:
            clean = False
        else:
            title = title.strip() if title else ""
            subject = subject.strip() if subject else ""
            names = split_authors(authors) if author_count is None and authors else None
            clean = year is not None and title and subject and (names or author_count is not None)
        if not clean:
            yield _record_fields(_location(format, number), raw)
            continue
        if page_count is None and start_page is not None and end_page is not None:
            page_count = end_page - start_page + 1
        yield (year, title, subject, names, author_count,
               volume, issue, start_page, end_page, page_count)


def parse_records(source: bytes | str, format: str = "csv") -> tuple[BibRecord, ...]:
    """Parse record-granularity input into its records, in input order.

    The CLI does not build records: :func:`fold_records` streams the same
    checks straight into per-year aggregates.
    """
    records = tuple(BibRecord(*fields)
                    for fields in _parsed_records(io.StringIO(_decode(source)), format))
    if not records:
        raise ParseError("empty dataset")
    return records


def _aggregate_from_fields(columns: dict[str, int], values: list,
                           location: str) -> YearAggregate:
    def field(name: str) -> str | None:
        return values[columns.get(name, -1)]

    year = _req_int(field("year"), "year", location)
    papers = _req_int(field("papers"), "papers", location)
    bins = tuple(_req_int(field(k), k, location) for k in _AUTHORSHIP_FIELDS)
    pages = tuple(_req_int(field(k), k, location) for k in _PAGE_FIELDS)
    subject_counts = {
        key[len(_SUBJECT_PREFIX):]: _req_int(values[i], key, location)
        for key, i in columns.items() if key.startswith(_SUBJECT_PREFIX)
    }
    return YearAggregate(
        year=year,
        papers=papers,
        authorship_bins=bins,
        page_bins=pages,
        subject_counts=subject_counts,
        total_authors=_opt_int(field("total_authors"), "total_authors", location),
    )


def parse_aggregates(source: bytes | str, format: str = "csv") -> Dataset:
    """Parse aggregate-granularity input, sorted ascending by year.

    Semantic consistency (duplicate years, gaps, bin sums) is checked by
    :func:`validate`, not here, so parse failures and validation
    findings stay distinguishable.
    """
    aggregates = [_aggregate_from_fields(columns, values, _location(format, number))
                  for number, columns, values in _rows(io.StringIO(_decode(source)), format,
                                                       "aggregate", AGGREGATE_FIELDS)]
    if not aggregates:
        raise ParseError("empty dataset")
    aggregates.sort(key=lambda a: a.year)
    return Dataset(tuple(aggregates))


_JSON_LIST_OPENING = re.compile(r"[ \t\n\r]*\[[ \t\n\r]*")


def _first_json_object(text: str) -> dict | None:
    """The first element of a JSON list, decoded on its own; ``None``
    unless the text opens a list whose first element is an object."""
    opening = _JSON_LIST_OPENING.match(text)
    if opening is None:
        return None
    try:
        first, _ = json.JSONDecoder().raw_decode(text, opening.end())
    except (ValueError, RecursionError):
        return None
    return first if isinstance(first, dict) else None


def _granularity_of(names: Container[str]) -> str | None:
    if "papers" in names:
        return "aggregates"
    if "title" in names or "authors" in names:
        return "records"
    return None


def sniff_granularity(source: bytes | str, format: str = "csv") -> str:
    """Guess records vs aggregates from the CSV header line or the first JSON object.

    For CSV only the header line is decoded; the parse reports bad bytes
    further on. For JSON the first element is decoded on its own; when
    that settles nothing, the whole document is, so that its first fault
    is the one reported.
    """
    if format == "csv":
        # Keep the newline, so a multi-byte sequence it cuts short fails
        # with the message decoding the whole input would give.
        end = source.find(b"\n" if isinstance(source, bytes) else "\n")
        head = _decode(source[:end + 1] if end >= 0 else source)
        granularity = _granularity_of(_csv_header(_csv_records(io.StringIO(head)), "input", ()))
    else:
        text = _decode(source)
        first = _first_json_object(text) if format == "json" else None
        granularity = _granularity_of(first) if first is not None else None
        if granularity is None:
            columns = next(_rows(io.StringIO(text), format, "input"), (0, {}, []))[1]
            granularity = _granularity_of(columns)
    if granularity is None:
        raise ParseError("cannot determine granularity from input header")
    return granularity


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _validate_record(location: str, year: int, n_authors: int, start_page: int | None,
                     end_page: int | None, page_count: int | None,
                     window: tuple[int, int] | None, report: ValidationReport,
                     both_author_sources: bool = False) -> None:
    """The record rules, on one record's values; ``window=None`` skips ``year-window``.

    :func:`_fold` calls this only for a row that fails its guard, so the
    guard must pass only values that every rule here accepts: a new or
    changed rule needs the guard changed with it, and a ``FLAWS`` entry in
    ``tests/test_differential.py`` that breaks it.
    """
    if both_author_sources:
        report.error(location, "author-source", "both author list and author_count present")
    if n_authors < 1:
        report.error(location, "author-count", "author count must be >= 1")
    elif n_authors > MAX_COUNT:
        report.error(location, "count-range", f"author count is above {MAX_COUNT}")
    if window is not None and not (window[0] <= year <= window[1]):
        report.error(location, "year-window",
                     f"year {year} outside study window {window[0]}-{window[1]}")
    if start_page is not None and end_page is not None:
        if end_page < start_page:
            report.error(location, "page-span", f"end_page {end_page} < start_page {start_page}")
        elif page_count is not None:
            span = end_page - start_page + 1
            if page_count != span:
                report.error(location, "page-count", f"page_count {page_count} != span {span}")
    for page, value in (("start_page", start_page), ("end_page", end_page),
                        ("page_count", page_count)):
        if value is not None and value < 1:
            report.error(location, "page-positive", f"{page} must be positive, got {value}")


def _validate_aggregate(agg: YearAggregate, config: AnalysisConfig,
                        report: ValidationReport) -> None:
    location = str(agg.year)
    window = config.study_window
    if window is not None and not (window[0] <= agg.year <= window[1]):
        report.error(location, "year-window",
                     f"year {agg.year} outside study window {window[0]}-{window[1]}")
    if len(agg.authorship_bins) != 5:
        report.error(location, "bin-shape",
                     f"expected 5 authorship bins, got {len(agg.authorship_bins)}")
    counts = [
        ("papers", agg.papers),
        *((f"authorship bin {i}", n) for i, n in enumerate(agg.authorship_bins, start=1)),
        *((f"page bin {i}", n) for i, n in enumerate(agg.page_bins, start=1)),
        *((f"subject {label!r}", n) for label, n in agg.subject_counts.items()),
        ("total_authors", agg.total_authors),
    ]
    for what, count in counts:
        if count is None:
            continue
        if count < 0:
            report.error(location, "negative-count", f"{what} is negative: {count}")
        elif count > MAX_COUNT:
            report.error(location, "count-range", f"{what} is above {MAX_COUNT}")

    finding = report.error if config.strict else report.warn
    checks = (
        ("authorship-bin-sum", sum(agg.authorship_bins), "authorship bins"),
        ("page-bin-sum", sum(agg.page_bins), "page bins"),
        ("subject-sum", sum(agg.subject_counts.values()), "subject counts"),
    )
    for rule, total, what in checks:
        if total != agg.papers:
            finding(location, rule, f"{what} sum {total} != papers {agg.papers}")
    for label, count in agg.subject_counts.items():
        if count and label not in config.taxonomy:
            report.warn(location, "unknown-subject",
                        f"subject {label!r} not in taxonomy; counted under 'Others'")


def _check_year_gaps(years: Iterable[int], report: ValidationReport) -> None:
    """Report each run of years missing from *years* as one ``year-gap`` error.

    A single missing year is located at that year (``2014``), a longer
    run at its first and last year (``2014-2016``).
    """
    unique_years = sorted(set(years))
    for prev, nxt in zip(unique_years, unique_years[1:]):
        if nxt - prev > 1:
            gap = str(prev + 1) if nxt - prev == 2 else f"{prev + 1}-{nxt - 1}"
            report.error(gap, "year-gap", f"gap at {gap}")


def validate(data: Dataset | tuple[BibRecord, ...],
             config: AnalysisConfig | None = None) -> ValidationReport:
    """Check every invariant of a dataset or of parsed records, reporting rather than fixing.

    The rules read the config: ``strict`` promotes bin-sum mismatches
    from warnings to errors; ``study_window``, when set, bounds every year
    (``year-window``); and an aggregate subject label with a non-zero
    count that ``taxonomy`` does not list is reported as
    ``unknown-subject``, counted under "Others" as the record bridge
    counts it. Both granularities get the year-gap rule, because the
    growth indicators assume an unbroken year sequence. The data is
    accepted iff the report has no errors; running twice yields
    identical reports.
    """
    config = config or AnalysisConfig()
    report = ValidationReport()
    if isinstance(data, Dataset):
        aggregates = data.aggregates
        years = [a.year for a in aggregates]
        for year, n in sorted(Counter(years).items()):
            if n > 1:
                report.error(str(year), "duplicate-year", f"year {year} appears {n} times")
    else:
        aggregates = ()
        years = {r.year for r in data}
        report.record_count = len(data)
        for i, record in enumerate(data, start=1):
            _validate_record(f"record {i}", record.year, record.n_authors, record.start_page,
                             record.end_page, record.page_count, config.study_window, report,
                             both_author_sources=record.author_count is not None
                             and bool(record.authors))
    report.year_count = len(years)
    _check_year_gaps(years, report)
    for agg in aggregates:
        _validate_aggregate(agg, config, report)
    return report


# ---------------------------------------------------------------------------
# Record -> aggregate bridge
# ---------------------------------------------------------------------------


#: Page count -> index of its :data:`PAGE_BINS` class (``None``: it fits none),
#: for counts 0 to ``_TOP_PAGES``; any larger count shares the last entry.
_TOP_PAGES = max(lo if hi is None else hi for _, _, lo, hi in PAGE_BINS) + 1
_PAGE_BIN_OF = tuple(next((i for i, (_, _, lo, hi) in enumerate(PAGE_BINS)
                           if lo <= n and (hi is None or n <= hi)), None)
                     for n in range(_TOP_PAGES + 1))


class _YearTally:
    """Per-year accumulator of the record bridge.

    Author counts of 5 or more pool into the open 5+ bin while the
    author total keeps the exact sum. Records without page information
    are excluded from the page bins only, with a warning; unknown subject
    labels map to "Others" with a warning.
    """

    def __init__(self, taxonomy: tuple[str, ...]):
        self._taxonomy = taxonomy
        #: year -> [papers, total authors, authorship bins, page bins, subject counts]
        self.counts: dict[int, list] = {}
        self.warnings: list[Finding] = []

    def year(self, year: int) -> list:
        """The counts of *year*, registering the year if it is new."""
        counts = self.counts.get(year)
        if counts is None:
            counts = self.counts[year] = [0, 0, [0] * 5, [0] * len(PAGE_BINS),
                                          dict.fromkeys(self._taxonomy, 0)]
        return counts

    def add_all(self, rows: Iterable[tuple[int, int, int | None, str, str]]) -> None:
        """Count each ``(year, n_authors, page_count, subject, title)`` row."""
        known = frozenset(self._taxonomy)
        get_counts, warn = self.counts.get, self.warnings.append
        pooled = POOLED_BIN_AUTHOR_VALUE - 1  # the open bin's index
        for year, n_authors, page_count, subject, title in rows:
            counts = get_counts(year) or self.year(year)
            counts[0] += 1
            counts[1] += n_authors
            counts[2][n_authors - 1 if n_authors <= pooled else pooled] += 1
            if page_count is None:
                warn(Finding(f"{year}: {title!r}", "missing-pages",
                             "no page information; excluded from page bins"))
            else:
                i = (_PAGE_BIN_OF[page_count if page_count < _TOP_PAGES else _TOP_PAGES]
                     if page_count >= 0 else None)
                if i is None:
                    warn(Finding(f"{year}: {title!r}", "page-bin-range",
                                 f"page count {page_count} fits no page bin"))
                else:
                    counts[3][i] += 1
            subjects = counts[4]
            if subject in known:
                subjects[subject] += 1
            else:
                warn(Finding(f"{year}: {title!r}", "unknown-subject",
                             f"subject {subject!r} not in taxonomy; counted under 'Others'"))
                subjects["Others"] = subjects.get("Others", 0) + 1

    def dataset(self) -> Dataset:
        return Dataset(tuple(
            YearAggregate(year=year, papers=papers, authorship_bins=tuple(bins),
                          page_bins=tuple(pages), subject_counts=subjects,
                          total_authors=total_authors)
            for year, (papers, total_authors, bins, pages, subjects)
            in sorted(self.counts.items())))

    def sorted_warnings(self) -> list[Finding]:
        """The warnings in a deterministic order, whatever the record order."""
        return sorted(self.warnings, key=lambda f: (f.location, f.rule, f.message))


def aggregate_records(records: tuple[BibRecord, ...],
                      config: AnalysisConfig | None = None) -> tuple[Dataset, ValidationReport]:
    """Tabulate records into per-year aggregates, as :class:`_YearTally` describes,
    with the config's taxonomy.

    The result is independent of record order.
    """
    tally = _YearTally((config or AnalysisConfig()).taxonomy)
    tally.add_all((r.year, r.n_authors, r.page_count, r.subject, r.title) for r in records)
    report = ValidationReport(warnings=tally.sorted_warnings(),
                              record_count=len(records), year_count=len(tally.counts))
    return tally.dataset(), report


def fold_records(source: BinaryIO, format: str = "csv",
                 config: AnalysisConfig | None = None) -> tuple[Dataset, ValidationReport]:
    """Parse, validate and bridge record input in one pass over an open binary file.

    The result equals :func:`parse_records`, then :func:`validate`, then,
    when the report has no errors, :func:`aggregate_records`, all three
    with the same config and the bridge's warnings appended to the
    report. No :class:`BibRecord` is built: CSV is read row by row, so
    memory is O(years + findings); JSON is decoded whole.

    A clean row takes the short path. A row whose short parse raises, or
    finds a blank mandatory field or author list, is parsed again by the
    precise parse; a row that fails a guard every record rule passes is
    checked by the record rules. Those precise checks word every error
    and finding, so the result is the same on either path.

    With errors, the report has no bridge warnings and the aggregates
    are incomplete. A bad UTF-8 byte anywhere in the input takes
    precedence over every other parse error, with the message that
    decoding the whole input gives.
    """
    config = config or AnalysisConfig()
    text = io.TextIOWrapper(source, encoding="utf-8", newline="\n")
    try:
        return _fold(text, format, config)
    except (ParseError, UnicodeDecodeError):
        # A decode error carries a position within the decoder's chunk,
        # and a row error may precede a bad byte: decode it all again.
        source.seek(0)
        _decode(source.read())
        raise
    finally:
        text.detach()  # the caller owns and closes source


def _fold(text: TextIO, format: str, config: AnalysisConfig) -> tuple[Dataset, ValidationReport]:
    report = ValidationReport()
    tally = _YearTally(config.taxonomy)
    window = config.study_window

    def checked() -> Iterator[tuple[int, int, int | None, str, str]]:
        """The rows to bridge: every row, until a record rule fails."""
        for (year, title, subject, authors, author_count, _, _,
             start, end, pages) in _parsed_records(text, format):
            report.record_count += 1
            n_authors = len(authors) if author_count is None else author_count
            # A guard that every rule of _validate_record passes; they run only when it fails.
            if not (0 < n_authors <= MAX_COUNT
                    and (window is None or window[0] <= year <= window[1])
                    and (0 < start <= end and pages == end - start + 1
                         if start is not None and end is not None
                         else all(v is None or v > 0 for v in (start, end, pages)))):
                _validate_record(f"record {report.record_count}", year, n_authors, start,
                                 end, pages, window, report)
            if report.errors:
                tally.year(year)  # no bridge will run; the year still counts for year-gap
            else:
                yield year, n_authors, pages, subject, title

    tally.add_all(checked())
    if not report.record_count:
        raise ParseError("empty dataset")
    report.year_count = len(tally.counts)
    _check_year_gaps(tally.counts, report)
    if report.ok:
        report.warnings = tally.sorted_warnings()
    return tally.dataset(), report


# ---------------------------------------------------------------------------
# Aggregate CSV writer (inverse of parse_aggregates)
# ---------------------------------------------------------------------------


def write_aggregates_csv(dataset: Dataset) -> str:
    """Serialize an aggregate dataset back to the aggregate CSV schema.

    Parsing the result reproduces the dataset exactly.
    """
    labels: list[str] = []
    for agg in dataset.aggregates:
        for label in agg.subject_counts:
            if label not in labels:
                labels.append(label)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(AGGREGATE_FIELDS) + [_SUBJECT_PREFIX + label for label in labels])
    for agg in dataset.aggregates:
        row = [
            agg.year, agg.papers, *agg.authorship_bins,
            "" if agg.total_authors is None else agg.total_authors,
            *agg.page_bins,
        ]
        row.extend(agg.subject_counts.get(label, 0) for label in labels)
        writer.writerow(row)
    return buf.getvalue()


def findings_as_text(report: ValidationReport) -> str:
    """Plain-text form of a validation report."""
    lines = [f"records: {report.record_count}  years: {report.year_count}",
             f"errors: {len(report.errors)}  warnings: {len(report.warnings)}"]
    for finding in report.errors:
        lines.append(f"ERROR   {finding}")
    for finding in report.warnings:
        lines.append(f"WARNING {finding}")
    return "\n".join(lines) + "\n"


def findings_as_json(report: ValidationReport) -> str:
    def encode(findings: list[Finding]) -> list[dict[str, str]]:
        return [{"location": f.location, "rule": f.rule, "message": f.message} for f in findings]

    return json.dumps({
        "record_count": report.record_count,
        "year_count": report.year_count,
        "errors": encode(report.errors),
        "warnings": encode(report.warnings),
        "accepted": report.ok,
    }, indent=2) + "\n"
