"""The record fold: record input parsed, checked and counted in one pass.

Records have one set of checks and one count. :func:`~.ingest.load`, the
CLI's route, folds them in one loop, :func:`_fold`: each row is parsed,
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
library's record route, :func:`~.ingest.parse_records` (the precise
parse of every row), :func:`~.ingest.validate` and
:func:`~.ingest.aggregate_records`, is the reference the fold is tested
against.

Record CSV on every CPU
-----------------------
A record CSV file, or the temporary file that :func:`~.ingest._read`
reads a pipe into, is split when it holds at least
``ingest._SPLIT_BYTES`` (1 MiB) per part, one part per usable CPU
(``os.sched_getaffinity``), at least two, and the process can fork
(POSIX), runs one thread and leaves SIGCHLD at its default: an ignored
SIGCHLD, which a process inherits from its parent, or a handler could
reap the children first. Only an input that large is checked for these.
:func:`~.ingest._cuts` cuts it at the first ``\\n`` from each k/N of its
size, and a repeated cut makes no part. After :func:`~.ingest.load`
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

import csv
import io
import marshal
import operator
import os

from .config import AnalysisConfig
from .ingest import (
    MAX_COUNT,
    _check_year_gaps,
    _csv_header,
    _csv_rows,
    _Locate,
    _opt_int,
    _req_int,
    _Rows,
    split_authors,
)
from .model import (
    PAGE_BINS,
    POOLED_BIN_AUTHOR_VALUE,
    Dataset,
    Finding,
    ParseError,
    ValidationReport,
    YearAggregate,
)


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



def _validate_record(number: int, year: int, n_authors: int, start_page: int | None,
                     end_page: int | None, page_count: int | None,
                     window: tuple[int, int] | None, report: ValidationReport,
                     both_author_sources: bool = False) -> None:
    """The record rules, on the values of record *number*; ``window=None`` skips ``year-window``.

    The one statement of the rules: :func:`~.ingest.load` and
    :func:`~.ingest.validate` call it for every record. ``record N`` is
    formatted only for a rule that fails, so a record that passes them all
    costs no string formatting.
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
