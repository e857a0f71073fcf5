"""Parsing, validation, and normalization of bibliographic input.

Input arrives either as record-level CSV/JSON (one article per row) or
as pre-tabulated per-year aggregates. Structural problems (bad CSV,
missing mandatory fields, non-numeric values) raise :class:`ParseError`;
semantic problems (bin sums, year gaps, window violations) are reported
by :func:`validate` without ever mutating or silently fixing the data.
Every step reads its ``strict``, ``study_window`` and ``taxonomy`` from
one :class:`~scientoscope.config.AnalysisConfig`.

Every input, of the library and of the CLI, is read by one reader,
:func:`_read`, as a stream of text. The row source, :func:`_rows`, reads
the granularity off the CSV header or first JSON element that every
parse reads anyway, then gives the rows as ``(columns, values)`` pairs:
a CSV row straight off the csv reader, zipped with its header's column
map, and a JSON element as the list of its values. The blank-row skip,
the field-count check and a row's location (``line N`` or ``element N``)
are stated once, in the row source's ``locate``, which runs only for a
row that fails.

Records have one set of checks and one count. :func:`load`, the CLI's
route, folds them in one loop, :func:`_fold`: each row is parsed,
checked by the record rules (``_validate_record``) and counted into its
year (``_YearTally.add``), with no record kept, so record CSV loads in
O(years + findings) memory. A report with errors comes with no dataset,
so once a rule fails, each record after it registers its year alone,
which the year-gap rule reads; with no error, the fold is a sum over the
records, whatever their order.
The fold takes a row by a short parse that counts a ``;``-separated
author list by its pieces and looks each numeral up in one table of
``int()`` results, ``_INTS``, built at import and never written after,
so every load and every child of a split load shares its 0.3 MB. It
holds the decimals 0 to 4095: every year, volume and issue, and most
page numbers. A lookup it holds costs about a quarter of ``int()``; one
it lacks goes on to ``int()`` and costs about a quarter more, so input
whose numerals are mostly past the table, or not written as plain
decimals, parses a little slower. A row the short parse cannot take goes
to the precise parse, ``_record_fields``, the only code that words a
parse message, so both parses give the same fields and errors. The
library's record route, :func:`parse_records` (the precise parse of
every row), :func:`validate` and :func:`aggregate_records`, is the
reference the fold is tested against.

Record CSV on every CPU
-----------------------
A record CSV file, or the temporary file that :func:`_read` reads a pipe
into, is split when it holds at least ``_SPLIT_BYTES`` (1 MiB) per part,
one part per usable CPU (``os.sched_getaffinity``), at least two, and
the process can fork (POSIX), runs one thread and leaves SIGCHLD at its
default: an ignored SIGCHLD, which a process inherits from its parent,
or a handler could reap the children first. Only an input that large is
checked for these. :func:`_cuts` cuts it at the first ``\\n`` from each
k/N of its size, and a repeated cut makes no part. After :func:`load`
reads the header, :func:`_fold_parts` reads it once more, by the first
part's reader, then forks a child for each later part and folds the
first in this process, each part read by ``os.pread``. A quoted field
may hold a ``\\n``, so each part but the last is read by a strict
``csv.reader``, which raises at end of data inside a quoted field: a
part that ends without error ends between rows. A child sends its whole
fold as one tuple (record count, year rows, bridge warnings, rule
errors) through a pipe (``marshal``), or nothing, and this process adds
each fold to its own, row to row, as it reads the pipes. A part is
folded when its whole fold arrives, whatever its child's exit status.
The counts matter only when no part holds an error, and then the fold
is a sum over the records, so only a ``record N`` needs the part order:
it is renumbered by the records of the parts before it.
:func:`_folded` then runs the year-gap rule and sorts the warnings, so
the result is the serial fold's. When a part does not complete (a parse
or decode error, a cut inside a quoted field, text after a closing
quote, which only a strict reader refuses, a child that fails or is
killed before its whole fold is sent), the fold goes on with the reader
that read the header, so the whole file is read again on one CPU and
every message and location is the serial route's. However the split
ends, even by an interrupt, every child is then killed and reaped: one
that has sent its fold is a zombie until reaped, so the kill reaches no
other process. While the split runs, a SIGTERM at its default
disposition is an interrupt, as SIGINT is, so it too ends in that kill,
and both signals wait while the children are forked and while they are
killed and reaped, so no interrupt leaves a child unlisted or unreaped;
a SIGTERM that waited for the reaping then ends this process as its
default does. A child keeps both blocked: this process kills it. Memory
is O(parts * (years + findings)).
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import marshal
import operator
import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import repeat
from typing import BinaryIO, TextIO, TypeVar

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


#: Bytes :func:`_check_utf8` reads at a time, and characters the sniff reads.
_UTF8_BLOCK = 1 << 16


def _check_utf8(source: BinaryIO) -> None:
    """Raise the ParseError of the first bad UTF-8 byte in the rest of
    *source*, with the position that ``bytes.decode`` of the rest gives,
    if it holds one. It reads a block at a time, so it holds one block,
    not the whole input. This is the one place that words the message."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    done = 0  # bytes read before the block
    while True:
        block = source.read(_UTF8_BLOCK)
        try:
            decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:
            # exc counts from the bytes the decoder held back, which end the last block.
            at = done - len(decoder.getstate()[0])
            start, end = exc.start + at, exc.end + at
            where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}"
                     if end == start + 1 else f"bytes in position {start}-{end - 1}")
            raise ParseError(f"input is not valid UTF-8: 'utf-8' codec can't decode "
                             f"{where}: {exc.reason}") from None
        if not block:
            return
        done += len(block)


_T = TypeVar("_T")


def _read(source: BinaryIO | bytes | str, read: Callable[[TextIO], _T]) -> _T:
    """``read(text)``, *text* being *source* as a stream of text without
    its leading byte-order mark: the one reader of every input.

    *source* is an open binary file, read from its position, ``bytes``
    or ``str``. Binary input is decoded as it is read, so a row-by-row
    *read* holds no decoded copy of the whole input. A bad UTF-8 byte
    anywhere takes precedence over every parse error, with the message of
    a decode of the whole input: after a ParseError or a decode error
    (whose position is within the decoder's chunk, and which a row error
    may precede), :func:`_check_utf8` reads the input again from where it
    starts. So a late bad byte is found once the rows before it are read.
    A file that cannot seek, such as a pipe, is therefore read once into
    a temporary file first, and *text* reads that file."""
    if isinstance(source, str):
        return read(io.StringIO(source.removeprefix("\ufeff")))
    source = io.BytesIO(source) if isinstance(source, bytes) else source
    if not source.seekable():
        import shutil
        import tempfile  # only unseekable input loads these
        with tempfile.TemporaryFile() as spool:
            shutil.copyfileobj(source, spool)
            spool.seek(0)
            return _read(spool, read)
    start = source.tell()
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="\n")
    try:
        return read(text)
    except (ParseError, UnicodeDecodeError):
        source.seek(start)
        _check_utf8(source)
        raise
    finally:
        text.detach()  # the caller owns and closes source


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


#: Record fields whose JSON value stands for text.
_JSON_TEXT = frozenset(("title", "subject", "authors"))


def _text(value: object, what: str, expected: str = "text") -> str:
    """A JSON number as text: it reads as its digits. An array, object or
    boolean is a ValueError that names *what* it was given as."""
    if isinstance(value, (list, dict, bool)):
        try:
            shown = json.dumps(value, ensure_ascii=False)
        except RecursionError:  # nested about as deeply as the decoder allows
            shown = "[...]" if isinstance(value, list) else "{...}"
        raise ValueError(f"invalid {what}: {shown} (expected {expected})")
    return str(value)


def _json_text(key: str, value: object, record: bool) -> str | None:
    """The CSV cell a JSON value stands for. In a *record*, an ``authors``
    list is joined by ";", so a ";" inside an entry still splits it, and an
    array, object or boolean as title, subject or author is a ValueError."""
    if value is None or isinstance(value, str):
        return value
    if record and key in _JSON_TEXT:
        if key != "authors":
            return _text(value, key)
        if not isinstance(value, list):
            return _text(value, key, "text or a list of text")
        try:
            return ";".join(value)
        except TypeError:  # an entry that is not a string
            return ";".join(_text(v, "author") for v in value if v is not None)  # null: no author
    return str(value)


#: Granularity -> the name its messages give the input, and its required fields.
_KIND = {"records": "record", "aggregates": "aggregate"}
GRANULARITIES = tuple(_KIND)
_REQUIRED = {"records": RECORD_FIELDS, "aggregates": AGGREGATE_FIELDS}
_Rows = Iterator[tuple[dict[str, int], list]]
_Locate = Callable[..., str | None]


def _rows(stream: TextIO, format: str,
          granularity: str | None = None) -> tuple[str, _Rows, _Locate]:
    """The granularity, given or read off the CSV header or first JSON
    element, the rows read on from there as ``(columns, values)`` pairs,
    and their ``locate``.

    ``values[columns[name]]`` is the field's string or ``None``, as
    :func:`_json_text` gives it for JSON. A CSV row is the csv reader's
    list, zipped with the header's ``columns``, so no Python code runs
    between the reader and the consumer; JSON elements share one
    ``columns`` while their key order repeats. The consumer appends a
    ``None`` pad, which ``values[columns.get(name, -1)]`` reads for an
    absent field; a padded row is ``len(columns) + 1`` long unless it is
    a CSV row of another width.

    ``locate(values)``, needed only for a row of another width or one a
    parse cannot take, holds the row checks: ``None`` for a CSV row blank
    in every cell, which is skipped; a ParseError for a CSV row of another
    width; else the location of the row read last, ``line N`` (the csv
    reader's ``line_num``, the physical line the row ends on) or
    ``element N``. A JSON element is never skipped. ``locate()`` gives the
    location alone. CSV is read from ``stream`` row by row; JSON is
    decoded whole.
    """
    if format == "csv":
        reader = csv.reader(stream)
        header = _csv_header(reader)
        granularity = granularity or _granularity(header)
        return granularity, *_csv_rows(reader, header, granularity)
    if format != "json":
        raise ParseError(f"unknown input format: {format!r}")
    try:
        data = json.loads(stream.read(), parse_float=str)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    kind = _KIND.get(granularity, "input")
    if not isinstance(data, list):
        raise ParseError(f"{kind} JSON must be a top-level list")
    if granularity is None:
        first = next(_json_rows(data, kind)[0], None)  # element 1, checked
        granularity = _granularity(first[0] if first else ())
    return granularity, *_json_rows(data, _KIND[granularity])


def _csv_header(reader) -> list[str]:
    """The header row *reader* reads first: its names, stripped and distinct."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty input") from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", f"line {reader.line_num}") from None
    duplicates = sorted({h for h in header if header.count(h) > 1})
    if duplicates:
        raise ParseError(f"duplicate columns: {', '.join(duplicates)}", "line 1")
    return header


def _granularity(names: Iterable[str]) -> str:
    """The granularity the names of a CSV header or first JSON element show."""
    if "papers" in names:
        return "aggregates"
    if "title" in names or "authors" in names:
        return "records"
    raise ParseError("cannot determine granularity from input header")


def _csv_rows(reader, header: list[str], granularity: str) -> tuple[_Rows, _Locate]:
    """The rows after *header* and their ``locate``, once *header* holds
    the granularity's required columns: the one statement of the blank-row
    skip and the field-count check."""
    missing = [f for f in _REQUIRED[granularity] if f not in header]
    if missing:
        raise ParseError(f"{_KIND[granularity]} CSV header is missing columns: "
                         f"{', '.join(missing)}", "line 1")
    columns = {name: i for i, name in enumerate(header)}

    def locate(values: list | None = None) -> str | None:
        if values is not None:
            cells = values[:-1]  # without the pad
            if not "".join(cells).strip():
                return None
            if len(cells) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(cells)}",
                                 f"line {reader.line_num}")
        return f"line {reader.line_num}"

    return zip(repeat(columns), reader), locate


def _json_rows(data: list, kind: str) -> tuple[_Rows, _Locate]:
    """The elements of *data* as rows, and their ``locate``."""
    index = 0

    def rows() -> _Rows:
        nonlocal index
        keys: tuple | None = None
        record = kind == "record"
        for index, obj in enumerate(data, start=1):
            if not isinstance(obj, dict):
                raise ParseError(f"{kind} element must be an object", f"element {index}")
            if tuple(obj) != keys:
                keys = tuple(obj)
                columns = {key: i for i, key in enumerate(keys)}
            try:
                values = [_json_text(key, value, record) for key, value in obj.items()]
            except ValueError as exc:
                raise ParseError(str(exc), f"element {index}") from None
            yield columns, values

    return rows(), lambda values=None: f"element {index}"


def _checked(rows: _Rows, locate: _Locate) -> Iterator[tuple[str, dict[str, int], list]]:
    """The location, ``columns`` and padded ``values`` of each row of
    *rows* that is not skipped, each row taking the checks of ``locate``:
    the reference parses' route, where the fold checks only a row that it
    cannot take."""
    try:
        for columns, values in rows:
            values.append(None)
            location = locate(values)
            if location is not None:
                yield location, columns, values
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", locate()) from None


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
        # None for a reversed span, which the page-span finding alone reports.
        page_count = end_page - start_page + 1 if end_page >= start_page else None
    return (year, title, subject, names, author_count,
            _opt_int(volume, "volume", location), _opt_int(issue, "issue", location),
            start_page, end_page, page_count)


class _Ints(dict):
    """Numeral -> ``int(numeral)``: a numeral it does not hold is converted
    by ``int()``, which raises its ValueError, and is not stored."""

    __missing__ = int


#: The short parse's numerals, never written after this: the canonical
#: decimals of every year, volume and issue, and of most page numbers.
_INTS = _Ints((str(n), n) for n in range(4096))


def parse_records(source: BinaryIO | bytes | str, format: str = "csv") -> tuple[BibRecord, ...]:
    """Parse record-granularity input into its records, in input order.

    Every record takes the precise parse: this is the reference that
    :func:`load`, the CLI's route, which builds no records, is tested
    against. *source* is read through :func:`_read`.
    """
    records = _read(source, lambda text: tuple(
        BibRecord(*_record_fields(location, tuple(values[columns.get(name, -1)]
                                                  for name in _RECORD_COLUMNS)))
        for location, columns, values in _checked(*_rows(text, format, "records")[1:])))
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


def _aggregate_dataset(rows: _Rows, locate: _Locate) -> Dataset:
    aggregates = [_aggregate_from_fields(columns, values, location)
                  for location, columns, values in _checked(rows, locate)]
    if not aggregates:
        raise ParseError("empty dataset")
    aggregates.sort(key=lambda a: a.year)
    return Dataset(tuple(aggregates))


def parse_aggregates(source: BinaryIO | bytes | str, format: str = "csv") -> Dataset:
    """Parse aggregate-granularity input, sorted ascending by year.

    Semantic consistency (duplicate years, gaps, bin sums) is checked by
    :func:`validate`, not here, so parse failures and validation
    findings stay distinguishable. *source* is read through :func:`_read`.
    """
    return _read(source, lambda text: _aggregate_dataset(*_rows(text, format, "aggregates")[1:]))


def sniff_granularity(source: BinaryIO | bytes | str, format: str = "csv") -> str:
    """Records vs aggregates, from the CSV header or the first JSON
    element of *source*, read through :func:`_read`. It reads its whole
    input, so a bad UTF-8 byte anywhere raises as it does in every parse."""
    def sniff(text: TextIO) -> str:
        if format == "csv":  # the header decides: its required columns are the parse's check
            granularity = _granularity(_csv_header(csv.reader(text)))
            while text.read(_UTF8_BLOCK):  # the rest, for its UTF-8 alone
                pass
            return granularity
        return _rows(text, format)[0]

    return _read(source, sniff)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _validate_record(number: int, year: int, n_authors: int, start_page: int | None,
                     end_page: int | None, page_count: int | None,
                     window: tuple[int, int] | None, report: ValidationReport,
                     both_author_sources: bool = False) -> None:
    """The record rules, on the values of record *number*; ``window=None`` skips ``year-window``.

    The one statement of the rules: :func:`load` and :func:`validate`
    call it for every record. ``record N`` is formatted only for a rule that
    fails, so a record that passes them all costs no string formatting.
    """
    if both_author_sources:
        report.error(f"record {number}", "author-source",
                     "both author list and author_count present")
    if n_authors < 1:
        report.error(f"record {number}", "author-count", "author count must be >= 1")
    elif n_authors > MAX_COUNT:
        report.error(f"record {number}", "count-range", f"author count is above {MAX_COUNT}")
    if window is not None and not (window[0] <= year <= window[1]):
        report.error(f"record {number}", "year-window",
                     f"year {year} outside study window {window[0]}-{window[1]}")
    if start_page is not None and end_page is not None:
        if end_page < start_page:
            report.error(f"record {number}", "page-span",
                         f"end_page {end_page} < start_page {start_page}")
        elif page_count is not None and page_count != (span := end_page - start_page + 1):
            report.error(f"record {number}", "page-count",
                         f"page_count {page_count} != span {span}")
    if start_page is not None and start_page < 1:
        report.error(f"record {number}", "page-positive",
                     f"start_page must be positive, got {start_page}")
    if end_page is not None and end_page < 1:
        report.error(f"record {number}", "page-positive",
                     f"end_page must be positive, got {end_page}")
    if page_count is not None and page_count < 1:
        report.error(f"record {number}", "page-positive",
                     f"page_count must be positive, got {page_count}")


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
            _validate_record(i, record.year, record.n_authors, record.start_page,
                             record.end_page, record.page_count, config.study_window, report,
                             both_author_sources=record.author_count is not None
                             and bool(record.authors))
    report.year_count = len(set(years))
    _check_year_gaps(years, report)
    for agg in aggregates:
        _validate_aggregate(agg, config, report)
    return report


# ---------------------------------------------------------------------------
# Record -> aggregate bridge
# ---------------------------------------------------------------------------


#: Slots of a year's row in :class:`_YearTally`: papers, total authors,
#: the authorship bins, the page bins, then the subjects.
_AUTHORSHIP = slice(2, 2 + POOLED_BIN_AUTHOR_VALUE)
_PAGES = slice(_AUTHORSHIP.stop, _AUTHORSHIP.stop + len(PAGE_BINS))
_POOLED = _AUTHORSHIP.stop - 1  # the open 5+ bin's slot

#: Page count -> the slot of its :data:`PAGE_BINS` class (``None``: it fits
#: none), for counts 0 to ``_TOP_PAGES``; any larger count shares the last entry.
_TOP_PAGES = max(lo if hi is None else hi for _, _, lo, hi in PAGE_BINS) + 1
_PAGE_SLOT_OF = tuple(next((_PAGES.start + i for i, (_, _, lo, hi) in enumerate(PAGE_BINS)
                            if lo <= n and (hi is None or n <= hi)), None)
                      for n in range(_TOP_PAGES + 1))


class _YearTally:
    """Per-year accumulator of the record bridge, which :meth:`add` states.

    Each year is one flat row of counts, its last slots one per taxonomy
    label, so two tallies of one taxonomy merge by adding rows. Author
    counts of 5 or more pool into the open 5+ bin while the author total
    keeps the exact sum. Records without page information are excluded
    from the page bins only, with a warning; an unknown subject label is
    counted in the slot of "Others", which every taxonomy holds, with a
    warning. Warnings stay plain tuples until sorted.
    """

    def __init__(self, taxonomy: tuple[str, ...]):
        self._taxonomy = taxonomy
        self._slots = {label: _PAGES.stop + i for i, label in enumerate(taxonomy)}
        self._others = self._slots["Others"]
        #: year -> its row of counts
        self.counts: dict[int, list[int]] = {}
        self.warnings: list[tuple[str, str, str]] = []

    def year(self, year: int) -> list[int]:
        """The row of *year*, registering the year if it is new."""
        return self.counts.get(year) or self.counts.setdefault(
            year, [0] * (_PAGES.stop + len(self._taxonomy)))

    def add(self, year: int, n_authors: int, page_count: int | None, subject: str,
            title: str) -> None:
        """Count one record, of at least one author: the one statement of the bridge."""
        row = self.counts.get(year) or self.year(year)
        row[0] += 1
        row[1] += n_authors
        row[n_authors + 1 if n_authors < POOLED_BIN_AUTHOR_VALUE else _POOLED] += 1
        if page_count is None:
            self.warnings.append((f"{year}: {title!r}", "missing-pages",
                                  "no page information; excluded from page bins"))
        else:
            slot = (_PAGE_SLOT_OF[page_count if page_count < _TOP_PAGES else _TOP_PAGES]
                    if page_count >= 0 else None)
            if slot is None:
                self.warnings.append((f"{year}: {title!r}", "page-bin-range",
                                      f"page count {page_count} fits no page bin"))
            else:
                row[slot] += 1
        if subject not in self._slots:
            self.warnings.append((f"{year}: {title!r}", "unknown-subject",
                                  f"subject {subject!r} not in taxonomy; counted under 'Others'"))
        row[self._slots.get(subject, self._others)] += 1

    def merge(self, counts: dict[int, list[int]], warnings: list[tuple[str, str, str]]) -> None:
        """Add the ``counts`` and ``warnings`` of another tally of the same taxonomy."""
        for year, row in counts.items():
            self.counts[year] = list(map(operator.add, self.year(year), row))
        self.warnings += warnings

    def dataset(self) -> Dataset:
        return Dataset(tuple(
            YearAggregate(year=year, papers=row[0], authorship_bins=tuple(row[_AUTHORSHIP]),
                          page_bins=tuple(row[_PAGES]), total_authors=row[1],
                          subject_counts=dict(zip(self._taxonomy, row[_PAGES.stop:])))
            for year, row in sorted(self.counts.items())))

    def sorted_warnings(self) -> list[Finding]:
        """The warnings in a deterministic order, whatever the record order."""
        return sorted(map(Finding._make, self.warnings))  # by (location, rule, message)


def aggregate_records(records: tuple[BibRecord, ...],
                      config: AnalysisConfig | None = None) -> tuple[Dataset, ValidationReport]:
    """Tabulate records into per-year aggregates, as :class:`_YearTally` describes,
    with the config's taxonomy.

    The result is independent of record order. A record of fewer than one
    author, which :func:`validate` reports as an error, raises ValueError.
    """
    tally = _YearTally((config or AnalysisConfig()).taxonomy)
    for number, r in enumerate(records, start=1):
        if r.n_authors < 1:
            raise ValueError(f"record {number}: author count must be >= 1")
        tally.add(r.year, r.n_authors, r.page_count, r.subject, r.title)
    report = ValidationReport(warnings=tally.sorted_warnings(),
                              record_count=len(records), year_count=len(tally.counts))
    return tally.dataset(), report


def load(source: BinaryIO | bytes | str, format: str = "csv", config: AnalysisConfig | None = None,
         granularity: str | None = None) -> tuple[Dataset | None, ValidationReport]:
    """Parse and validate input of either granularity in one pass.

    *granularity* is ``"records"``, ``"aggregates"`` or ``None``: read it
    off the CSV header or the first JSON element. A report with errors
    comes with no dataset: ``(None, report)``. Aggregates give what
    :func:`parse_aggregates`, then :func:`validate` give. Records give what
    :func:`parse_records`, then :func:`validate`, then, when the report
    has no errors, :func:`aggregate_records` give, all three with the same
    config and the bridge's warnings appended to the report. No
    :class:`BibRecord` is built: :func:`_fold` folds the records.

    *source* is read through :func:`_read`. A large record CSV file is
    folded in parts, as the module docstring says.
    """
    config = config or AnalysisConfig()

    def read(text: TextIO) -> tuple[Dataset, ValidationReport]:
        # Cut before the header is read, while the file is still at its start.
        cuts = format == "csv" and _cuts(getattr(text, "buffer", text))  # str has no buffer
        kind, rows, locate = _rows(text, format, granularity)
        if kind == "records":
            return _folded(*(cuts and _fold_parts(text.buffer, cuts, config)
                             or _fold(rows, locate, config)))
        dataset = _aggregate_dataset(rows, locate)
        return dataset, validate(dataset, config)

    dataset, report = _read(source, read)
    return dataset if report.ok else None, report


def _fold(rows: _Rows, locate: _Locate,
          config: AnalysisConfig) -> tuple[ValidationReport, _YearTally]:
    """Parse, check and count each record *rows* holds, in one loop.

    A row of its ``columns``' width takes the short parse, which reads its
    numerals off ``_INTS``, as the module docstring describes, and counts
    the authors of a ``;``-separated list as its pieces,
    ``len(authors.split(";"))``, when no piece is empty or whitespace-only,
    and else as ``len(split_authors(authors))``. Only a row of another
    width, or one where the short parse raises ValueError (a malformed or
    whitespace-only number) or finds a blank mandatory field or author
    list, reaches ``locate``, which skips it or gives its location, and
    then the precise parse, :func:`_record_fields`. :func:`_folded`
    finishes what this returns."""
    report = ValidationReport()
    tally = _YearTally(config.taxonomy)
    window = config.study_window
    errors, add, add_year = report.errors, tally.add, tally.year
    count = 0
    convert = _INTS.__getitem__
    columns: dict[str, int] | None = None
    try:
        for row_columns, values in rows:
            values.append(None)  # the pad that an absent column's -1 reads
            if row_columns is not columns:  # once for CSV, once per JSON key order
                columns = row_columns
                width = len(columns) + 1
                pick = operator.itemgetter(*(columns.get(name, -1) for name in _RECORD_COLUMNS))
            clean = len(values) == width
            if clean:
                (year, title, subject, author_count, authors,
                 start_page, end_page, page_count, volume, issue) = pick(values)
                try:
                    year = convert(year) if year else None
                    author_count = convert(author_count) if author_count else None
                    start_page = convert(start_page) if start_page else None
                    end_page = convert(end_page) if end_page else None
                    page_count = convert(page_count) if page_count else None
                    volume = convert(volume) if volume else None
                    issue = convert(issue) if issue else None
                except ValueError:
                    clean = False
                else:
                    title = title.strip() if title else ""
                    subject = subject.strip() if subject else ""
                    n_authors = author_count
                    if author_count is None:
                        names = authors.split(";") if authors else ()
                        n_authors = (len(names) if "" not in names
                                     and not any(map(str.isspace, names))
                                     else len(split_authors(authors)))
                    clean = (year is not None and title and subject
                             and (n_authors or author_count is not None))
            if not clean:
                location = locate(values)
                if location is None:
                    continue
                (year, title, subject, names, author_count, _, _,
                 start_page, end_page, page_count) = _record_fields(location, pick(values))
                n_authors = len(names) if author_count is None else author_count
            elif page_count is None and start_page is not None and end_page is not None:
                page_count = end_page - start_page + 1 if end_page >= start_page else None
            count += 1
            _validate_record(count, year, n_authors, start_page, end_page, page_count,
                             window, report)
            if errors:  # the load gives no dataset: only the year counts, for year-gap
                add_year(year)
            else:
                add(year, n_authors, page_count, subject, title)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", locate()) from None
    report.record_count = count
    return report, tally


def _folded(report: ValidationReport, tally: _YearTally) -> tuple[Dataset, ValidationReport]:
    """The dataset and report of a fold of the whole input, once the
    year-gap rule has run and, when no rule failed, with the bridge's
    warnings sorted."""
    if not report.record_count:
        raise ParseError("empty dataset")
    report.year_count = len(tally.counts)
    _check_year_gaps(tally.counts, report)
    if report.ok:
        report.warnings = tally.sorted_warnings()
    return tally.dataset(), report


#: Fewest bytes each part of a split record CSV holds, so a file under
#: twice this is folded whole: a fork and a merge would cost more than
#: they save.
_SPLIT_BYTES = 1 << 20


def _cuts(source: BinaryIO) -> list[int] | None:
    """Offsets that cut *source*, from its position to its end, into the
    parts of a split, as the module docstring says; ``None`` when the file
    is not split."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    try:
        fd = source.fileno()
        start, size = source.tell(), os.fstat(fd).st_size
        parts = min(len(os.sched_getaffinity(0)), (size - start) // _SPLIT_BYTES)
        if parts < 2 or len(os.listdir("/proc/self/task")) != 1:
            return None
    except OSError:  # no file descriptor (io.BytesIO, io.StringIO), or no /proc
        return None
    import signal  # only an input large enough to split loads it
    if signal.getsignal(signal.SIGCHLD) != signal.SIG_DFL:
        return None
    cuts = [start]
    for k in range(1, parts):
        at = start + (size - start) * k // parts
        while (block := os.pread(fd, 1 << 16, at)) and b"\n" not in block:
            at += len(block)
        cuts.append(at + block.index(b"\n") + 1 if block else size)
    cuts = sorted({*cuts, size})  # a row longer than a part repeats a cut
    return cuts if len(cuts) > 2 else None


class _Part(io.RawIOBase):
    """Bytes *start* to *end* of the file *fd*, read by ``os.pread`` so that
    no two parts share a file offset."""

    def __init__(self, fd: int, start: int, end: int):
        super().__init__()
        self._fd, self._at, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._end - self._at), self._at)
        self._at += len(data)
        buffer[:len(data)] = data
        return len(data)


def _fold_parts(source: BinaryIO, cuts: list[int],
                config: AnalysisConfig) -> tuple[ValidationReport, _YearTally] | None:
    """Fold the parts *cuts* gives of record CSV *source*, as the module
    docstring describes; ``None`` when this process's part raises or a
    child's whole fold does not arrive."""
    fd, last = source.fileno(), len(cuts) - 2

    def part(k: int):
        """A csv reader of part *k*, strict unless it is the last, so that a
        part cut inside a quoted field raises at its end."""
        text = io.TextIOWrapper(_Part(fd, cuts[k], cuts[k + 1]),
                                encoding="utf-8" if k else "utf-8-sig", newline="\n")
        return csv.reader(text, strict=k < last)

    import signal  # loaded by _cuts
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    stops, term = {signal.SIGINT, signal.SIGTERM}, signal.getsignal(signal.SIGTERM)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, stops)  # no interrupt before a child is listed
    if term == signal.SIG_DFL:  # it would end this process before the finally below
        signal.signal(signal.SIGTERM, signal.default_int_handler)  # an interrupt, as SIGINT is
    try:
        reader = part(0)
        header = _csv_header(reader)
        for k in range(1, last + 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: send part k's fold as plain values, or nothing; never print
                try:
                    os.close(read)
                    report, tally = _fold(*_csv_rows(part(k), header, "records"), config)
                    with open(write, "wb") as pipe:
                        pipe.write(marshal.dumps((report.record_count, tally.counts,
                                                  tally.warnings, list(map(tuple, report.errors)))))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        report, tally = _fold(*_csv_rows(reader, header, "records"), config)
        for _, read in children:  # an empty or short message raises EOFError or ValueError
            count, counts, warnings, errors = marshal.loads(
                open(read, "rb", buffering=0, closefd=False).readall())
            tally.merge(counts, warnings)
            for location, rule, text in errors:  # "record N", N counted within its part
                number = int(location.removeprefix("record ")) + report.record_count
                report.error(f"record {number}", rule, text)
            report.record_count += count
    except (ValueError, EOFError, OSError):  # ParseError and UnicodeDecodeError are ValueErrors
        return None
    finally:  # a child that has sent its fold is a zombie until reaped: the kill cannot harm it
        signal.pthread_sigmask(signal.SIG_BLOCK, stops)  # a second interrupt waits for the reaping
        for pid, read in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        if term == signal.SIG_DFL:
            signal.signal(signal.SIGTERM, term)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a signal that waited acts here
    return report, tally


# ---------------------------------------------------------------------------
# Aggregate CSV writer (inverse of parse_aggregates)
# ---------------------------------------------------------------------------


def write_aggregates_csv(dataset: Dataset) -> str:
    """Serialize an aggregate dataset back to the aggregate CSV schema.

    Parsing the result reproduces the dataset exactly.
    """
    labels = list(dict.fromkeys(label for agg in dataset.aggregates
                                for label in agg.subject_counts))  # in order of first use

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


def finding_lines(report: ValidationReport) -> list[str]:
    """One line per finding, errors first: ``ERROR   <finding>`` or ``WARNING <finding>``."""
    return [*(f"ERROR   {f}" for f in report.errors), *(f"WARNING {f}" for f in report.warnings)]


def findings_as_text(report: ValidationReport) -> str:
    """Plain-text form of a validation report."""
    lines = [f"records: {report.record_count}  years: {report.year_count}",
             f"errors: {len(report.errors)}  warnings: {len(report.warnings)}",
             *finding_lines(report)]
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
