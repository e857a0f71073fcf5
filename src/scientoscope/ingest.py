"""Parsing, validation, and normalization of bibliographic input.

Input arrives either as record-level CSV/JSON (one article per row) or
as pre-tabulated per-year aggregates. Structural problems (bad CSV,
missing mandatory fields, non-numeric values) raise :class:`ParseError`;
semantic problems (bin sums, year gaps, window violations) are reported
by :func:`validate` without ever mutating or silently fixing the data.

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
from collections import Counter
from collections.abc import Iterator

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
    if raw is None:
        return None
    raw = raw.strip()
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {raw!r}", location) from None


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
    return tuple(name.strip() for name in raw.split(";") if name.strip())


# ---------------------------------------------------------------------------
# Parsing: one row source for CSV/JSON, one field builder per granularity
# ---------------------------------------------------------------------------


def _csv_records(text: str) -> Iterator[list[str]]:
    """CSV records of ``text``; a malformed one raises ParseError at its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", f"line {reader.line_num}") from None


def _csv_header(records: Iterator[list[str]], kind: str, required: tuple[str, ...]) -> list[str]:
    try:
        header = [h.strip() for h in next(records)]
    except StopIteration:
        raise ParseError("empty input") from None
    missing = [f for f in required if f not in header]
    if missing:
        raise ParseError(f"{kind} CSV header is missing columns: {', '.join(missing)}", "line 1")
    duplicates = sorted({h for h in header if header.count(h) > 1})
    if duplicates:
        raise ParseError(f"duplicate columns: {', '.join(duplicates)}", "line 1")
    return header


def _rows(text: str, format: str, kind: str,
          required: tuple[str, ...] = ()) -> Iterator[tuple[str, dict[str, str | None]]]:
    """Yield ``(location, fields)`` for each non-blank CSV row or JSON element.

    Values are strings or ``None`` (a JSON ``authors`` list is joined by
    ";"); ``kind`` names the input in error messages.
    """
    if format == "csv":
        records = _csv_records(text)
        header = _csv_header(records, kind, required)
        for line_no, row in enumerate(records, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            location = f"line {line_no}"
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", location)
            yield location, dict(zip(header, row))
    elif format == "json":
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
            raise ParseError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None
        if not isinstance(data, list):
            raise ParseError(f"{kind} JSON must be a top-level list")
        for index, obj in enumerate(data, start=1):
            location = f"element {index}"
            if not isinstance(obj, dict):
                raise ParseError(f"{kind} element must be an object", location)
            fields: dict[str, str | None] = {}
            for key, value in obj.items():
                if value is None:
                    fields[key] = None
                elif key == "authors" and isinstance(value, list):
                    fields[key] = ";".join(str(v) for v in value)
                else:
                    fields[key] = str(value)
            yield location, fields
    else:
        raise ParseError(f"unknown input format: {format!r}")


def _record_from_fields(fields: dict[str, str | None], location: str) -> BibRecord:
    year = _req_int(fields.get("year"), "year", location)
    title = (fields.get("title") or "").strip()
    if not title:
        raise ParseError("missing mandatory field 'title'", location)
    subject = (fields.get("subject") or "").strip()
    if not subject:
        raise ParseError("missing mandatory field 'subject'", location)

    author_count = _opt_int(fields.get("author_count"), "author_count", location)
    authors = split_authors(fields.get("authors") or "")
    if author_count is not None:
        # Explicit count overrides the name list.
        authors = ()
    elif not authors:
        raise ParseError("missing mandatory field 'authors' (or 'author_count')", location)

    start_page = _opt_int(fields.get("start_page"), "start_page", location)
    end_page = _opt_int(fields.get("end_page"), "end_page", location)
    page_count = _opt_int(fields.get("page_count"), "page_count", location)
    if page_count is None and start_page is not None and end_page is not None:
        page_count = end_page - start_page + 1

    return BibRecord(
        year=year,
        title=title,
        subject=subject,
        authors=authors or None,
        author_count=author_count,
        volume=_opt_int(fields.get("volume"), "volume", location),
        issue=_opt_int(fields.get("issue"), "issue", location),
        start_page=start_page,
        end_page=end_page,
        page_count=page_count,
    )


def parse_records(source: bytes | str, format: str = "csv") -> Dataset:
    """Parse record-granularity input into a Dataset.

    The study window defaults to the observed year span.
    """
    records = [_record_from_fields(fields, location)
               for location, fields in _rows(_decode(source), format, "record", RECORD_FIELDS)]
    if not records:
        raise ParseError("empty dataset")
    years = [r.year for r in records]
    return Dataset(
        granularity="records",
        study_window=(min(years), max(years)),
        records=tuple(records),
    )


def _aggregate_from_fields(fields: dict[str, str | None], location: str) -> YearAggregate:
    year = _req_int(fields.get("year"), "year", location)
    papers = _req_int(fields.get("papers"), "papers", location)
    bins = tuple(_req_int(fields.get(k), k, location) for k in _AUTHORSHIP_FIELDS)
    pages = tuple(_req_int(fields.get(k), k, location) for k in _PAGE_FIELDS)
    subject_counts = {
        key[len(_SUBJECT_PREFIX):]: _req_int(value, key, location)
        for key, value in fields.items() if key.startswith(_SUBJECT_PREFIX)
    }
    return YearAggregate(
        year=year,
        papers=papers,
        authorship_bins=bins,
        page_bins=pages,
        subject_counts=subject_counts,
        total_authors=_opt_int(fields.get("total_authors"), "total_authors", location),
    )


def parse_aggregates(source: bytes | str, format: str = "csv") -> Dataset:
    """Parse aggregate-granularity input, sorted ascending by year.

    Semantic consistency (duplicate years, gaps, bin sums) is checked by
    :func:`validate`, not here, so parse failures and validation
    findings stay distinguishable.
    """
    aggregates = [_aggregate_from_fields(fields, location)
                  for location, fields in _rows(_decode(source), format, "aggregate",
                                                AGGREGATE_FIELDS)]
    if not aggregates:
        raise ParseError("empty dataset")
    aggregates.sort(key=lambda a: a.year)
    return Dataset(
        granularity="aggregates",
        study_window=(aggregates[0].year, aggregates[-1].year),
        aggregates=tuple(aggregates),
    )


def sniff_granularity(source: bytes | str, format: str = "csv") -> str:
    """Guess records vs aggregates from the CSV header line or the first JSON object.

    For CSV only the header line is decoded; the parse reports bad bytes
    further on.
    """
    if format == "csv":
        # Keep the newline, so a multi-byte sequence it cuts short fails
        # with the message decoding the whole input would give.
        end = source.find(b"\n" if isinstance(source, bytes) else "\n")
        head = _decode(source[:end + 1] if end >= 0 else source)
        names = _csv_header(_csv_records(head), "input", ())
    else:
        names = next(_rows(_decode(source), format, "input"), ("", {}))[1]
    if "papers" in names:
        return "aggregates"
    if "title" in names or "authors" in names:
        return "records"
    raise ParseError("cannot determine granularity from input header")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _validate_record(record: BibRecord, location: str, window: tuple[int, int],
                     report: ValidationReport) -> None:
    if record.author_count is not None and record.authors:
        report.error(location, "author-source", "both author list and author_count present")
    n_authors = record.n_authors
    if n_authors < 1:
        report.error(location, "author-count", "author count must be >= 1")
    elif n_authors > MAX_COUNT:
        report.error(location, "count-range", f"author count is above {MAX_COUNT}")
    if not (window[0] <= record.year <= window[1]):
        report.error(location, "year-window",
                     f"year {record.year} outside study window {window[0]}-{window[1]}")
    if record.start_page is not None and record.end_page is not None:
        if record.end_page < record.start_page:
            report.error(location, "page-span",
                         f"end_page {record.end_page} < start_page {record.start_page}")
        elif record.page_count is not None:
            span = record.end_page - record.start_page + 1
            if record.page_count != span:
                report.error(location, "page-count",
                             f"page_count {record.page_count} != span {span}")
    for page in ("start_page", "end_page", "page_count"):
        value = getattr(record, page)
        if value is not None and value < 1:
            report.error(location, "page-positive", f"{page} must be positive, got {value}")


def _validate_aggregate(agg: YearAggregate, window: tuple[int, int], strict: bool,
                        report: ValidationReport) -> None:
    location = str(agg.year)
    if not (window[0] <= agg.year <= window[1]):
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

    finding = report.error if strict else report.warn
    checks = (
        ("authorship-bin-sum", sum(agg.authorship_bins), "authorship bins"),
        ("page-bin-sum", sum(agg.page_bins), "page bins"),
        ("subject-sum", sum(agg.subject_counts.values()), "subject counts"),
    )
    for rule, total, what in checks:
        if total != agg.papers:
            finding(location, rule, f"{what} sum {total} != papers {agg.papers}")


def _check_year_gaps(years: list[int], report: ValidationReport) -> None:
    """Report each run of years missing from *years* as one ``year-gap`` error.

    A single missing year is located at that year (``2014``), a longer
    run at its first and last year (``2014-2016``).
    """
    unique_years = sorted(set(years))
    for prev, nxt in zip(unique_years, unique_years[1:]):
        if nxt - prev > 1:
            gap = str(prev + 1) if nxt - prev == 2 else f"{prev + 1}-{nxt - 1}"
            report.error(gap, "year-gap", f"gap at {gap}")


def validate(dataset: Dataset, *, strict: bool = False,
             window: tuple[int, int] | None = None) -> ValidationReport:
    """Check every dataset invariant, reporting rather than fixing.

    Both granularities get the year-gap rule, because the growth
    indicators assume an unbroken year sequence. ``strict`` promotes
    bin-sum mismatches from warnings to errors. The dataset is accepted
    iff the report has no errors; running twice yields identical reports.
    """
    report = ValidationReport()
    window = window or dataset.study_window

    if dataset.granularity == "records":
        years = dataset.years
        report.record_count = len(dataset.records)
        for i, record in enumerate(dataset.records, start=1):
            _validate_record(record, f"record {i}", window, report)
    else:
        years = [a.year for a in dataset.aggregates]
        for year, n in sorted(Counter(years).items()):
            if n > 1:
                report.error(str(year), "duplicate-year", f"year {year} appears {n} times")
    report.year_count = len(years)
    _check_year_gaps(years, report)
    for agg in dataset.aggregates:
        _validate_aggregate(agg, window, strict, report)
    return report


# ---------------------------------------------------------------------------
# Record -> aggregate bridge
# ---------------------------------------------------------------------------


def aggregate_records(dataset: Dataset,
                      config: AnalysisConfig | None = None) -> tuple[Dataset, ValidationReport]:
    """Tabulate records into per-year aggregates.

    Author counts of 5 or more pool into the open 5+ bin while
    ``total_authors`` keeps the exact sum. Records without page
    information are excluded from the page bins only, with a warning;
    unknown subject labels map to "Others" with a warning. The result
    is independent of record order.
    """
    if dataset.granularity != "records":
        raise ValueError("aggregate_records requires record granularity")
    config = config or AnalysisConfig()
    report = ValidationReport(record_count=len(dataset.records))
    known_subjects = set(config.taxonomy)

    by_year: dict[int, list[BibRecord]] = {}
    for record in dataset.records:
        by_year.setdefault(record.year, []).append(record)

    aggregates = []
    for year in sorted(by_year):
        records = by_year[year]
        bins = [0, 0, 0, 0, 0]
        total_authors = 0
        pages = [0] * len(PAGE_BINS)
        subjects: dict[str, int] = {label: 0 for label in config.taxonomy}
        for record in records:
            n = record.n_authors
            bins[min(n, POOLED_BIN_AUTHOR_VALUE) - 1] += 1
            total_authors += n
            if record.page_count is None:
                report.warn(f"{year}: {record.title!r}", "missing-pages",
                            "no page information; excluded from page bins")
            else:
                for i, (_, _, lo, hi) in enumerate(PAGE_BINS):
                    if lo <= record.page_count and (hi is None or record.page_count <= hi):
                        pages[i] += 1
                        break
                else:
                    report.warn(f"{year}: {record.title!r}", "page-bin-range",
                                f"page count {record.page_count} fits no page bin")
            label = record.subject
            if label not in known_subjects:
                report.warn(f"{year}: {record.title!r}", "unknown-subject",
                            f"subject {label!r} not in taxonomy; counted under 'Others'")
                label = "Others"
            subjects[label] = subjects.get(label, 0) + 1
        aggregates.append(YearAggregate(
            year=year,
            papers=len(records),
            authorship_bins=tuple(bins),
            page_bins=tuple(pages),
            subject_counts=subjects,
            total_authors=total_authors,
        ))

    result = Dataset(
        granularity="aggregates",
        study_window=dataset.study_window,
        aggregates=tuple(aggregates),
    )
    report.year_count = len(aggregates)
    # Deterministic warning order regardless of input record order.
    report.warnings.sort(key=lambda f: (f.location, f.rule, f.message))
    return result, report


def expand_author_counts(aggregate: YearAggregate) -> list[int]:
    """Rebuild synthetic per-article author counts from authorship bins.

    The open 5+ bin is valued at exactly 5 authors per article, which is
    the convention under which the bundled study's per-year author
    totals equal the bin-weighted sums.
    """
    counts: list[int] = []
    for i, n in enumerate(aggregate.authorship_bins):
        counts.extend([i + 1] * n)
    return counts


# ---------------------------------------------------------------------------
# Aggregate CSV writer (inverse of parse_aggregates)
# ---------------------------------------------------------------------------


def write_aggregates_csv(dataset: Dataset) -> str:
    """Serialize an aggregate dataset back to the aggregate CSV schema.

    Parsing the result reproduces the dataset exactly.
    """
    if dataset.granularity != "aggregates":
        raise ValueError("write_aggregates_csv requires aggregate granularity")
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
