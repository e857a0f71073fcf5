"""Differential test: the streaming record fold against the precise route.

The CLI loads record input with :func:`load`, one loop that parses,
validates and bridges each row. It sends a row to the precise parse only
when the short parse cannot take it, and runs every row through the
record rules and, until a rule fails, the bridge count. The reference
route is the library's: :func:`parse_records`, which runs every row
through the precise parse (``ingest._record_fields``), then
:func:`validate` and :func:`aggregate_records`. For small generated
record sets, and for every edge input and flaw below with and without a
study window, both routes must give equal aggregates, equal findings and
equal parse errors, and with rule errors no aggregates at all. One flaw,
an author count of -99, would index past its year's row if the fold
counted a record after a rule error, so that guard shows as a crash.
One case leaves the short parse for a valid row between clean ones, so
the fold switches parses and back. The short parse looks numerals up
in a table of ``int()`` results that holds the decimals 0 to 4095 and
converts any other numeral with ``int()``, so the drawn sets and
the edges and flaws run with the shipped table and with an empty one,
which sends every numeral to ``int()``; one set repeats odd numerals, and
one puts numerals at and past the table's edge in every numeric field.
The CSV and JSON forms of a set must print the
same tables, and so must the aggregate CSV of an accepted set. One set
also loads under a taxonomy with "Others" first and the other labels
reversed. The settings are deterministic, like ``tests/test_fuzz.py``.

:func:`load` of a large record CSV file folds it in parts
(``ingest._fold_parts``): this process reads the header once, by the
first part's reader, before it forks a child for each later part, folds
the first part and merges each child's fold into its own. Every CSV
above is also loaded from a file split into 2 and into 3 parts, by a
``_SPLIT_BYTES`` small enough for it, and must give the same, as
:func:`load` of the same bytes in memory, which is never split, does.
Dedicated cases
put a quoted line break, blank lines or CRLF line ends at a cut, a row
only a strict reader refuses in the header, the first or the last part,
a row longer than a part, a fault in the first or the last part, a rule
error in any part, a fault in a part's child, a child killed after it
sent its whole fold, a fork that fails, the input after the start of its
file or in a pipe, or SIGCHLD ignored or handled, or no ``os.fork`` or
``os.sched_getaffinity``, which keeps the file whole, and check that no
child outlives the load. A CLI in a session of its own is sent SIGTERM,
or its process group SIGINT, while its split folds, and must exit 130
with ``error: interrupted`` and leave no process in that session.
"""

import csv
import errno
import gc
import importlib.util
import io
import json
import marshal
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scientoscope import (
    DEFAULT_TAXONOMY,
    AnalysisConfig,
    ParseError,
    aggregate_records,
    parse_records,
    validate,
    write_aggregates_csv,
)
from scientoscope import ingest
from scientoscope.cli import demo_aggregates_path, entry, main
from scientoscope.ingest import MAX_COUNT, RECORD_FIELDS, load

_GEN_SPEC = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
gen = sys.modules["bench_gen"] = importlib.util.module_from_spec(_GEN_SPEC)  # for dataclass
_GEN_SPEC.loader.exec_module(gen)

DIFFERENTIAL = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture,
                                               HealthCheck.too_slow])

COLUMNS = (*RECORD_FIELDS, "author_count", "page_count")


@st.composite
def clean_record(draw):
    """A record that parses and validates: authors as names or as a count
    only, pages as a span, a span and its count, a count only, or absent
    (a missing-pages warning), and a subject that may be unknown; half of
    them also take one of the ``EDGES``."""
    rec = {"year": draw(st.integers(2011, 2016)),
           "volume": draw(st.none() | st.integers(1, 9)),
           "issue": draw(st.none() | st.integers(1, 9)),
           "title": draw(st.sampled_from(["T", "A, study", 'The "quoted" title', " padded "])),
           "authors": draw(st.lists(st.sampled_from(["A", "B. Kumar", "Singh, C.", " D "]),
                                    min_size=1, max_size=6)),
           "subject": draw(st.sampled_from(["ICT", "Open Access", "Others", "Zoology"]))}
    if draw(st.booleans()):
        rec["author_count"] = draw(st.integers(1, 7))
        rec["authors"] = draw(st.sampled_from([[], rec["authors"]]))
    start, length = draw(st.integers(1, 400)), draw(st.integers(1, 30))
    pages = draw(st.sampled_from(["span", "span and count", "count", "none"]))
    if "span" in pages:
        rec["start_page"], rec["end_page"] = start, start + length - 1
    if "count" in pages:
        rec["page_count"] = length
    rec.update(draw(st.sampled_from(({},) * len(EDGES) + EDGES)))
    return rec


# Values that parse and validate, many of them off the short path: numbers
# int() reads past their digits, a blank number (absent), author lists
# with blank names, with and without an author count, Unicode-padded
# text, and JSON numbers as title and subject.
EDGES = (
    {"volume": " 12 "}, {"issue": "+5"}, {"volume": "1_0"}, {"issue": "٣"},
    {"volume": " "}, {"issue": " "}, {"page_count": " "}, {"author_count": " "},
    {"year": " 2013 "}, {"year": "+2014"}, {"year": "2_015"},
    {"start_page": " 12 ", "end_page": "+14", "page_count": "٣"},
    {"authors": ";A"}, {"authors": "A;;B"}, {"authors": "A;   ;B"},
    {"authors": ";A", "author_count": 2}, {"authors": "A;;B", "author_count": 1},
    {"authors": "A;   ;B", "author_count": 3}, {"authors": " ", "author_count": 2},
    {"title": "\u00a0Padded\u2003"}, {"subject": "\u3000ICT\u2029"},
    {"title": 7}, {"subject": 3}, {"start_page": 3, "end_page": None, "page_count": None},
)


# An array, object or boolean where JSON text belongs. CSV has no such
# value: its form of the record holds the value's Python text, which parses.
JSON_FLAWS = (
    {"title": [1, 2]}, {"subject": {"a": 1}}, {"authors": [["A", "B"]]},
    {"authors": [{"n": 1}]}, {"authors": {"n": 1}, "author_count": 2},
    {"title": True}, {"subject": False}, {"authors": ["A", True]},
    {"authors": False, "author_count": 2},
)


# Flaws injected into a clean record: validation errors, then parse errors.
FLAWS = (
    {"start_page": 9, "end_page": 4},  # reversed span
    {"start_page": 1, "end_page": 5, "page_count": 7},  # count disagrees with the span
    {"start_page": 0, "end_page": 3},  # page not positive
    {"page_count": -2},
    {"author_count": 0},
    {"author_count": -9},  # would index past the authorship bins, into a subject slot
    {"author_count": -99},  # would index past the whole row of its year
    {"year": 2030},  # outside any window, and a long gap
    {"year": "MMXIII"},
    {"start_page": "x", "end_page": 3},
    {"volume": "v2"},
    {"title": ""},
    {"subject": " "},
    {"authors": [], "author_count": None},
    {"author_count": MAX_COUNT + 1},  # count-range
    {"start_page": None, "end_page": None, "page_count": 0},
    {"start_page": None, "end_page": -4, "page_count": None},
    {"year": "x"}, {"issue": "9" * 5000}, {"author_count": "x"}, {"page_count": "x"},
    {"authors": " ", "author_count": None}, {"authors": ";", "author_count": None},
    {"title": "\u2003 \t"}, {"subject": "\u00a0"}, {"title": None}, {"subject": None},
    *JSON_FLAWS,
)


@st.composite
def record_sets(draw, flaws=FLAWS):
    """Clean records with up to two of the *flaws*, and for each record the
    blank row that comes before it in the CSV form, or ``None``."""
    records = draw(st.lists(clean_record(), min_size=1, max_size=10))
    for index, flaw in draw(st.lists(st.tuples(st.integers(0, len(records) - 1),
                                               st.sampled_from(flaws)), max_size=2)):
        records[index].update(flaw)
    blanks = draw(st.lists(st.sampled_from([None, None, [], [""] * len(COLUMNS), [" ", "  "]]),
                           min_size=len(records), max_size=len(records)))
    return records, blanks


def _authors_text(rec):
    authors = rec["authors"]
    return "; ".join(map(str, authors)) if isinstance(authors, (list, dict)) else str(authors)


def _csv_bytes(records, blanks):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for rec, blank in zip(records, blanks):
        if blank is not None:
            writer.writerow(blank)
        row = [rec.get(key) for key in COLUMNS]
        row[COLUMNS.index("authors")] = _authors_text(rec)
        writer.writerow(["" if value is None else value for value in row])
    return buf.getvalue().encode()


def _json_bytes(records, authors_as_text):
    objs = [dict(rec, authors=_authors_text(rec) if authors_as_text else rec["authors"])
            for rec in records]
    return json.dumps(objs).encode()


def _precise_route(raw, format, config):
    """parse_records -> validate -> aggregate_records, as the CLI once ran
    them: with rule errors, no dataset."""
    records = parse_records(raw, format)
    report = validate(records, config)
    if not report.ok:
        return None, report
    dataset, bridged = aggregate_records(records, config)
    report.warnings.extend(bridged.warnings)
    return dataset, report


def _outcome(route):
    try:
        return route()
    except ParseError as exc:
        return str(exc)


def _load_split(raw, parts, config, tmp_path, granularity="records"):
    """:func:`load` of *raw* from a file in *tmp_path*, split into *parts*
    parts: one usable CPU per part, and a ``_SPLIT_BYTES`` they all reach."""
    path = tmp_path / "split.csv"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch, path.open("rb") as source:
        patch.setattr(ingest, "_SPLIT_BYTES", max(1, len(raw) // parts))
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
        return _outcome(lambda: load(source, "csv", config, granularity))


def _assert_routes_agree(records, blanks, window, tmp_path):
    config = AnalysisConfig(study_window=window)
    for format, raw in (("csv", _csv_bytes(records, blanks)),
                        ("json", _json_bytes(records, authors_as_text=False))):
        expected = _outcome(lambda: _precise_route(raw, format, config))
        assert _outcome(lambda: load(io.BytesIO(raw), format, config, "records")) == expected
        if format == "csv":
            for parts in (2, 3):
                assert _load_split(raw, parts, config, tmp_path) == expected


# The short parse's numeral table: as shipped, so numerals hit and miss
# it, and empty, so every numeral is converted by plain int().
TABLES = (ingest._INTS, ingest._Ints())


@DIFFERENTIAL
@given(record_sets(), st.none() | st.just((2012, 2015)))
def test_fold_equals_parse_validate_and_bridge(monkeypatch, tmp_path, drawn, window):
    for table in TABLES:
        monkeypatch.setattr(ingest, "_INTS", table)
        _assert_routes_agree(*drawn, window, tmp_path)


# Four clean records over 2012-2015, the second one overridden, with a
# row of empty fields and an empty line before the third.
_BASE = tuple({"year": year, "volume": 1, "issue": 2, "title": "T", "authors": ["A", "B"],
               "subject": "ICT", "start_page": 1, "end_page": 6} for year in range(2012, 2016))
_BLANKS = [None, None, [""] * len(COLUMNS), []]
# A valid row with " " in each of its empty optional cells: the fold
# takes the precise parse for it, between rows on the short parse.
SPACED = {"author_count": " ", "page_count": " "}


@pytest.mark.parametrize("window", [None, (2012, 2015), (2013, 2014)])
@pytest.mark.parametrize("override", EDGES + FLAWS + (SPACED,))
def test_every_edge_and_flaw_agrees_on_both_routes(monkeypatch, tmp_path, override, window):
    records = [dict(rec) for rec in _BASE]
    records[1].update(override)
    for table in TABLES:
        monkeypatch.setattr(ingest, "_INTS", table)
        _assert_routes_agree(records, _BLANKS, window, tmp_path)


@pytest.mark.parametrize("window", [None, (2012, 2015)])
def test_odd_numerals_that_repeat_agree_on_both_routes(tmp_path, window):
    # Each odd numeral recurs in several records and fields, and the table
    # holds none of them, so int() converts each one on the short parse, as
    # the precise parse does, and the two are compared.
    odd = (" 12 ", "12", "+5", "1_0", "\u0663")
    records = [dict(_BASE[i % 4], volume=odd[i % 5], issue=odd[(i + 1) % 5],
                    author_count=odd[(i + 2) % 5], start_page=odd[2 + i % 3],
                    end_page=odd[i % 2]) for i in range(15)]
    _assert_routes_agree(records, [None] * len(records), window, tmp_path)


def test_the_numeral_table_holds_each_decimal_to_4095_as_its_int():
    assert sorted(ingest._INTS.values()) == list(range(4096))
    assert all(type(value) is int and value == int(key) and key == str(value)
               for key, value in ingest._INTS.items())


@pytest.mark.parametrize("numeral", ["4095", "4096", "007", "+5", " 12 ", "1_0", "\u0663", "-3"])
def test_numerals_at_and_past_the_table_agree_on_both_routes(tmp_path, numeral):
    # The numeral in each numeric field but the year, one field a record,
    # with a span of one page, so a valid numeral leaves the set accepted;
    # then as the year of one record.
    overrides = ({"volume": numeral}, {"issue": numeral}, {"author_count": numeral},
                 {"start_page": numeral, "end_page": numeral},
                 {"start_page": None, "end_page": None, "page_count": numeral})
    records = [dict(_BASE[i % 4], **override) for i, override in enumerate(overrides)]
    _assert_routes_agree(records, [None] * len(records), None, tmp_path)
    records = [dict(record) for record in _BASE]
    records[1]["year"] = numeral
    _assert_routes_agree(records, [None] * len(records), None, tmp_path)


@DIFFERENTIAL
@given(drawn=record_sets([f for f in FLAWS if f not in JSON_FLAWS]))
def test_csv_json_and_aggregate_forms_print_the_same_tables(drawn, tmp_path, capsys):
    records, blanks = drawn
    inputs = {"records.csv": _csv_bytes(records, blanks),
              "lists.json": _json_bytes(records, authors_as_text=False),
              "text.json": _json_bytes(records, authors_as_text=True)}
    results = set()
    for name, raw in inputs.items():
        path = tmp_path / name
        path.write_bytes(raw)
        rc = main(["analyze", "--input", str(path)])
        results.add((rc, capsys.readouterr().out))
    assert len(results) == 1
    ((rc, out),) = results
    if rc == 0:
        aggregated, _ = load(io.BytesIO(inputs["records.csv"]), "csv", AnalysisConfig(),
                             "records")
        path = tmp_path / "aggregates.csv"
        path.write_text(write_aggregates_csv(aggregated), encoding="utf-8")
        assert main(["analyze", "--input", str(path)]) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("knobs", [
    {},
    {"missing_pages": 0.2, "unknown_subjects": 0.1, "count_only": 0.1},  # records_json_dirty's
], ids=["default", "dirty"])
def test_the_benchmark_inputs_load_as_the_precise_route_reads_them(tmp_path, knobs, format):
    # The benchmark's generator, at a small size: the input family the
    # short parse and its numeral table are timed on.
    drawn = gen.generate(gen.Knobs(records=500, **knobs), seed=1)
    path = tmp_path / f"records.{format}"
    (gen.write_records_json if format == "json" else gen.write_records_csv)(drawn, str(path))
    raw = path.read_bytes()
    config = AnalysisConfig()
    expected = _precise_route(raw, format, config)
    assert expected[1].ok and expected[1].record_count == 500
    assert load(io.BytesIO(raw), format, config) == expected


# ---------------------------------------------------------------------------
# The split route: dedicated cases
# ---------------------------------------------------------------------------

HEADER = ",".join(RECORD_FIELDS) + "\n"
_ROWS = "".join(f"{2012 + i % 4},{i % 9 + 1},{i % 4 + 1},Title {i},A; B,{i + 1},{i + 6},"
                f"{('ICT', 'Zoology')[i % 2]}\n" for i in range(8))


@pytest.fixture
def route(monkeypatch):
    """The forks and the folds that loads make in this process: a split
    reads the header once, forks a child per part but the first, which
    this process folds, and merges each child's fold into its own as it
    reads it. A part has failed when its whole fold does not arrive (a
    parse error, a cut inside a quoted field, a child that fails before it
    has sent it), and the whole file, from the row after its header, then
    goes to the serial fold, a second fold. A rule error does not: it
    merges like the counts."""
    counts = Counter()
    fork, fold = os.fork, ingest._fold

    def counted_fork():
        counts["forks"] += 1
        return fork()

    def counted_fold(*args):
        counts["folds"] += 1
        return fold(*args)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(ingest, "_fold", counted_fold)
    return counts


def _cut_after(prefix, suffix, tmp_path):
    """*prefix*, *suffix* and a padded last row, sized so that a split into
    two parts cuts right after *prefix*, which ends with a line break."""
    size = 2 * len(prefix.encode()) - 2  # the cut is then sought from prefix's last byte
    pad = size - len((prefix + suffix + "2015,,,,A,1,2,ICT\n").encode())
    assert prefix.endswith("\n") and pad > 0
    raw = (prefix + suffix + f"2015,,,{'T' * pad},A,1,2,ICT\n").encode()
    path = tmp_path / "cut.csv"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch, path.open("rb") as source:
        patch.setattr(ingest, "_SPLIT_BYTES", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert ingest._cuts(source) == [0, len(prefix.encode()), size]
    return raw


def _serial(raw, config=AnalysisConfig()):
    return _outcome(lambda: load(io.BytesIO(raw), "csv", config, "records"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("parts", [2, 3])
def test_a_clean_split_folds_each_part_once_and_gives_the_serial_result(tmp_path, route, parts):
    raw = (HEADER + _ROWS * 6).encode()
    folded = _load_split(raw, parts, AnalysisConfig(), tmp_path)
    assert route == {"forks": parts - 1, "folds": 1}
    assert folded == _serial(raw)
    assert folded[1].ok and folded[1].warnings  # unknown subjects: the merge keeps warnings
    _assert_no_child_left()


@pytest.mark.parametrize("column", ["title", "subject"])
def test_a_quoted_line_break_at_the_cut_falls_back_to_the_serial_load(tmp_path, route, column):
    # The cut falls inside a quoted field, so the strict reader of the
    # part before it reaches its end inside that field and raises. A
    # subject is the last cell, so the row it ends still has every field,
    # and the rest of this one reads as a row of its own after the cut.
    left, right = ('2013,,,"Two\n', 'lines",A,1,5,ICT\n') if column == "title" else \
        ('2013,,,T,A,1,5,"Open\n', '2014,,,T,A,1,5,ICT"\n')
    raw = _cut_after(HEADER + _ROWS * 2 + left, right + _ROWS, tmp_path)
    folded = _load_split(raw, 2, AnalysisConfig(), tmp_path)
    assert route == {"forks": 1, "folds": 2}
    assert folded == _serial(raw)


@pytest.mark.parametrize("at_cut", [
    ("\n", ""), ("", "\n"), ("  \n", "\t\n"), (",,,,,,,\n", " , ,,\u3000,,,,\n"), ("\n\n", "\n\n"),
], ids=["blank-before", "blank-after", "whitespace", "separators", "several"])
def test_blank_lines_at_the_cut_are_skipped_as_the_serial_load_skips_them(tmp_path, route,
                                                                             at_cut):
    before, after = at_cut
    raw = _cut_after(HEADER + _ROWS * 2 + before, after + _ROWS, tmp_path)
    folded = _load_split(raw, 2, AnalysisConfig(), tmp_path)
    assert route == {"forks": 1, "folds": 1}
    assert folded == _serial(raw)


@pytest.mark.parametrize("where, forks, folds", [("first", 1, 2), ("last", 1, 1), ("header", 0, 1)],
                         ids=["first", "last", "header"])
def test_a_row_only_a_strict_reader_refuses_gives_the_serial_outcome(tmp_path, route, where,
                                                                     forks, folds):
    # Text after a closing quote is kept by the serial reader. The strict
    # reader of a part but the last refuses it, so that part falls back to
    # the serial load; the last part is read as the serial load reads it.
    # The header is read by the first part's reader before any fork, so a
    # header it refuses falls back before a child is forked.
    row = '2013,,,"T"x,A,1,5,ICT\n'
    if where == "header":
        raw = (HEADER.replace("\n", ',"note"x\n') + _ROWS.replace("\n", ",\n") * 6).encode()
    else:
        before, after = (_ROWS + row, "") if where == "first" else ("", row)
        raw = _cut_after(HEADER + _ROWS + before, after + _ROWS, tmp_path)
    folded = _load_split(raw, 2, AnalysisConfig(), tmp_path)
    assert (route["forks"], route["folds"]) == (forks, folds)
    assert folded == _serial(raw)
    assert folded[1].ok and folded[1].record_count == raw.count(b"\n") - 1  # "Tx" kept


@pytest.mark.parametrize("where", ["middle", "end"])
def test_a_row_longer_than_a_part_makes_no_empty_part(tmp_path, route, where):
    # Four CPUs, and every cut but the last is sought inside the long row,
    # so they all fall after it: one cut then, or none when it ends the file.
    long_row = f"2013,,,{'T' * 3000},A,1,5,ICT\n"
    raw = (HEADER + _ROWS + long_row + (_ROWS if where == "middle" else "")).encode()
    path = tmp_path / "long.csv"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as patch, path.open("rb") as source:
        patch.setattr(ingest, "_SPLIT_BYTES", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        cuts = ingest._cuts(source)
    end = len((HEADER + _ROWS + long_row).encode())
    assert cuts == ([0, end, len(raw)] if where == "middle" else None)
    folded = _load_split(raw, 4, AnalysisConfig(), tmp_path)
    assert (route["forks"], route["folds"]) == (len(cuts) - 2 if cuts else 0, 1)
    assert folded == _serial(raw)
    assert folded[1].ok
    _assert_no_child_left()


def test_crlf_line_ends_split_as_they_load_whole(tmp_path, route):
    raw = (HEADER + _ROWS * 6).replace("\n", "\r\n").encode()
    folded = _load_split(raw, 3, AnalysisConfig(), tmp_path)
    assert route == {"forks": 2, "folds": 1}
    assert folded == _serial(raw)
    assert folded[1].record_count == 48


@pytest.mark.parametrize("last", [
    b"2015,,,T\xff,A,1,2,ICT\n",  # a bad byte: the whole input's message
    b"2015,,,T,A,q,2,ICT\n",  # the line of a parse error
    b"2015,,,T,A,1,2\n",  # a ragged row
    b"2015,,,T,A,9,4,ICT\n",  # a rule error, with its record number
    b"\x1escientoscope-split\x1e\n",  # a one-cell row, as a ragged row is
], ids=["bad-byte", "parse", "ragged", "rule", "split-row"])
@pytest.mark.parametrize("parts", [2, 3])
def test_a_fault_in_the_last_part_gives_the_serial_outcome(tmp_path, route, last, parts):
    raw = (HEADER + _ROWS * 6).encode() + last
    folded = _load_split(raw, parts, AnalysisConfig(), tmp_path)
    # load decodes the first 8 KiB, all of this file, as it reads the
    # header, so a bad byte raises before any fork, with the same message.
    assert route["forks"] == (0 if b"\xff" in last else parts - 1)
    assert folded == _serial(raw)
    assert isinstance(folded, str) or not folded[1].ok
    _assert_no_child_left()


@pytest.mark.parametrize("before, after", [
    (_ROWS + "\x1escientoscope-split\x1e\n", _ROWS),  # just before the cut
    (_ROWS + "\x1escientoscope-split\x1e\n" + _ROWS, ""),  # inside the first part
], ids=["before-the-cut", "inside-a-part"])
def test_the_split_row_in_the_input_is_the_serial_parse_error(tmp_path, route, before, after):
    # A one-cell row: no value ends a part early, so both routes reject it alike.
    raw = _cut_after(HEADER + _ROWS + before, after, tmp_path)
    folded = _load_split(raw, 2, AnalysisConfig(), tmp_path)
    assert route["forks"] == 1
    assert folded == _serial(raw) == "line 18: expected 8 fields, got 1"


_REVERSED = "2013,,,T,A,9,4,ICT\n"  # a page-span error


@pytest.mark.parametrize("where", ["first", "last", "every"])
@pytest.mark.parametrize("parts", [2, 3])
def test_a_rule_error_in_any_part_folds_the_file_once(tmp_path, route, parts, where):
    # A part's rule errors merge like its counts, each record number
    # shifted by the records of the parts before it. "every" has a
    # reversed span every 9 rows, and each part holds more than 9 rows.
    rows = {"first": _REVERSED + _ROWS * 6, "last": _ROWS * 6 + _REVERSED,
            "every": (_ROWS + _REVERSED) * 6}[where]
    raw = (HEADER + rows).encode()
    folded = _load_split(raw, parts, AnalysisConfig(), tmp_path)
    assert route == {"forks": parts - 1, "folds": 1}
    assert folded == _serial(raw)
    assert folded[0] is None  # a report with errors comes with no dataset
    assert [f.rule for f in folded[1].errors] == ["page-span"] * rows.count(_REVERSED)
    _assert_no_child_left()


def test_a_fault_in_the_first_part_stops_the_children(monkeypatch, tmp_path, route):
    # This process folds the first part. Each child would fold for 20 s:
    # only a kill when this part raises lets the load end sooner.
    raw = (HEADER + "2013,,,T,A,q,2,ICT\n" + _ROWS * 6).encode()
    parent, fold = os.getpid(), ingest._fold

    def slow_in_a_child(*args):
        if os.getpid() != parent:
            time.sleep(20)
        return fold(*args)

    monkeypatch.setattr(ingest, "_fold", slow_in_a_child)
    start = time.monotonic()
    folded = _load_split(raw, 3, AnalysisConfig(), tmp_path)
    assert time.monotonic() - start < 10
    assert route == {"forks": 2, "folds": 2}
    assert folded == _serial(raw) == "line 2: non-numeric start_page: 'q'"
    _assert_no_child_left()


@pytest.mark.parametrize("header, message", [
    (HEADER.replace("volume", "title"), "line 1: duplicate columns: title"),
    (HEADER.replace(",volume", ""), "line 1: record CSV header is missing columns: volume"),
], ids=["duplicate-column", "missing-column"])
@pytest.mark.parametrize("parts", [2, 3])
def test_a_bad_header_gives_the_serial_message_before_any_fork(tmp_path, route, parts, header,
                                                              message):
    raw = (header + _ROWS * 6).encode()
    assert _load_split(raw, parts, AnalysisConfig(), tmp_path) == _serial(raw) == message
    assert not route  # no fork and no fold
    _assert_no_child_left()


_BAD_ROW = "2015,,,T,A,q,2,ICT\n"  # a parse error


@pytest.mark.parametrize("body", [
    (HEADER + _ROWS * 6).encode(),
    (HEADER + _ROWS * 6 + _BAD_ROW).encode(),
    (HEADER + _BAD_ROW + _ROWS * 40).encode() + b"2015,,,T\xff,A,1,2,ICT\n",  # past 8 KiB
    HEADER.replace("title", "ti\xfftle").encode("latin-1") + (_ROWS * 6).encode(),
], ids=["valid", "row-error", "row-error-then-bad-byte", "bad-byte-in-header"])
def test_an_input_after_the_start_of_its_file_loads_as_it_loads_alone(tmp_path, body):
    # The input starts after a line that is not valid UTF-8, which the
    # whole-input decode of an error must not read again.
    junk = b"\xff\xfe junk\n"
    expected = _serial(body)
    positioned = io.BytesIO(junk + body)
    positioned.readline()
    assert _outcome(lambda: load(positioned, "csv", AnalysisConfig(), "records")) == expected
    path = tmp_path / "positioned.csv"
    path.write_bytes(junk + body)
    with pytest.MonkeyPatch.context() as patch, path.open("rb") as source:
        source.readline()
        patch.setattr(ingest, "_SPLIT_BYTES", len(body) // 2)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cuts = ingest._cuts(source)
        assert len(cuts) == 3 and cuts[0] == len(junk)  # two parts, from the input's start
        assert _outcome(lambda: load(source, "csv", AnalysisConfig(), "records")) == expected
    _assert_no_child_left()


def test_aggregate_csv_is_never_split(tmp_path, route):
    raw = demo_aggregates_path().read_bytes()
    folded = _load_split(raw, 2, AnalysisConfig(), tmp_path, granularity=None)
    assert not route  # no fork, and the aggregate parse folds no record
    assert folded == load(io.BytesIO(raw))


@pytest.mark.parametrize("failure", ["child-killed", "fold-not-sent", "short-message"])
def test_a_failed_child_falls_back_to_the_serial_load_and_is_reaped(monkeypatch, tmp_path, route,
                                                                    failure):
    raw = (HEADER + _ROWS * 6).encode()
    parent, fold = os.getpid(), ingest._fold

    def killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fold(*args)

    def refused(obj):
        raise RuntimeError("not sent")

    name, value = {
        "child-killed": ("_fold", killed),
        "fold-not-sent": ("marshal", SimpleNamespace(dumps=refused, loads=marshal.loads)),
        "short-message": ("marshal", SimpleNamespace(dumps=lambda obj: marshal.dumps(obj)[:-1],
                                                     loads=marshal.loads)),
    }[failure]
    monkeypatch.setattr(ingest, name, value)
    assert _load_split(raw, 3, AnalysisConfig(), tmp_path) == _serial(raw)
    assert route["forks"] == 2
    _assert_no_child_left()


def test_a_whole_fold_counts_whatever_the_childs_exit_status(monkeypatch, tmp_path, route):
    # A child that is killed after it has sent its fold still folded its
    # part: the message is the only news of a part that this process reads.
    raw = (HEADER + _ROWS * 6 + _REVERSED).encode()
    parent = os.getpid()

    def killed_on_exit(code):
        assert os.getpid() != parent
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(os, "_exit", killed_on_exit)
    folded = _load_split(raw, 3, AnalysisConfig(), tmp_path)
    assert route == {"forks": 2, "folds": 1}
    assert folded == _serial(raw)
    assert [f.rule for f in folded[1].errors] == ["page-span"]
    _assert_no_child_left()


def test_a_failed_child_stops_the_later_children(monkeypatch, tmp_path, route):
    # The first child's fold raises; the second would fold for 20 s. Its
    # pipe is never read: the first empty one ends the split at once.
    raw = (HEADER + _ROWS * 6).encode()
    parent, fold = os.getpid(), ingest._fold

    def failed_or_slow(*args):
        if os.getpid() != parent:  # the child of fork k sees k forks
            if route["forks"] == 1:
                raise ParseError("this part failed")
            time.sleep(20)
        return fold(*args)

    monkeypatch.setattr(ingest, "_fold", failed_or_slow)
    start = time.monotonic()
    folded = _load_split(raw, 3, AnalysisConfig(), tmp_path)
    assert time.monotonic() - start < 10
    assert route == {"forks": 2, "folds": 2}
    assert folded == _serial(raw)
    _assert_no_child_left()


def test_a_parent_part_that_raises_kills_and_reaps_every_child(monkeypatch, tmp_path):
    # Each child would fold for 20 s: only a kill lets the load end sooner.
    raw = (HEADER + _ROWS * 6).encode()
    parent, fold = os.getpid(), ingest._fold

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(20)
        return fold(*args)

    monkeypatch.setattr(ingest, "_fold", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _load_split(raw, 3, AnalysisConfig(), tmp_path)
    assert time.monotonic() - start < 10
    _assert_no_child_left()


def test_a_fork_that_fails_closes_its_pipe_and_loads_the_file_serially(monkeypatch, tmp_path,
                                                                         route):
    # The second of three parts cannot fork: its pipe is closed, the first
    # child is killed and reaped, and the file goes to the serial fold.
    raw = (HEADER + _ROWS * 6).encode()
    fork, attempts = os.fork, []

    def fails_second():
        attempts.append(route["forks"])
        if len(attempts) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", fails_second)
    folded = _load_split(raw, 3, AnalysisConfig(), tmp_path)
    assert set(os.listdir("/proc/self/fd")) == fds
    assert (attempts, route) == ([0, 1], {"forks": 1, "folds": 1})
    assert folded == _serial(raw)
    _assert_no_child_left()


def test_a_piped_record_csv_splits_from_its_temporary_file(monkeypatch, route):
    # Written whole before the load, so no writer thread runs while the
    # load counts this process's threads.
    raw = (HEADER + _ROWS * 6).encode()
    assert len(raw) < 1 << 16  # a pipe's buffer holds it
    read, write = os.pipe()
    with open(write, "wb") as pipe:
        pipe.write(raw)
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", len(raw) // 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    with open(read, "rb") as pipe:
        folded = _outcome(lambda: load(pipe, "csv", AnalysisConfig(), "records"))
    assert route == {"forks": 2, "folds": 1}
    assert folded == _serial(raw)
    _assert_no_child_left()


def test_an_interrupted_cli_exits_130_with_a_message_and_no_child_left(
        monkeypatch, tmp_path, capsys, route):
    # As a SIGINT while a 3-part split folds: the parent's part raises, and
    # each child would fold for 20 s, so only a kill lets the run end sooner.
    raw = (HEADER + _ROWS * 6).encode()
    path = tmp_path / "split.csv"
    path.write_bytes(raw)
    parent, fold = os.getpid(), ingest._fold

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(20)
        return fold(*args)

    monkeypatch.setattr(ingest, "_fold", interrupted)
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", len(raw) // 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    monkeypatch.setattr(gc, "freeze", lambda: None)  # entry's last step, for an exiting process
    monkeypatch.setattr(sys, "argv", ["scientoscope", "analyze", "--input", str(path)])
    start = time.monotonic()
    with pytest.raises(SystemExit) as exited:
        try:
            entry()
        except KeyboardInterrupt:  # left to pytest, it would end the whole run
            pytest.fail("the interrupt escaped entry()")
    assert time.monotonic() - start < 10
    assert route == {"forks": 2}
    assert exited.value.code == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    _assert_no_child_left()


# A CLI whose record CSV splits into 3 parts, each child's fold marked on
# stdout and then 20 s long, with SIGINT and SIGTERM at the dispositions
# a shell gives its foreground job.
_SLOW_SPLIT_CLI = """
import os, signal, time
from scientoscope import ingest
from scientoscope.cli import entry
signal.signal(signal.SIGINT, signal.default_int_handler)
signal.signal(signal.SIGTERM, signal.SIG_DFL)
ingest._SPLIT_BYTES = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
parent, fold = os.getpid(), ingest._fold

def slow_in_a_child(*args):
    if os.getpid() != parent:
        os.write(1, b"folding\\n")
        time.sleep(20)
    return fold(*args)

ingest._fold = slow_in_a_child
entry()
"""


def _session(sid):
    """The pids of the processes in session *sid*."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # gone since the listing
            continue
        if int(stat.rpartition(")")[2].split()[3]) == sid:  # after state, ppid and pgrp
            pids.append(int(entry))
    return pids


@pytest.mark.parametrize("signalled", ["sigterm", "sigint-to-the-group"])
def test_a_signal_during_a_split_cli_load_exits_130_and_leaves_no_process(tmp_path, signalled):
    # The CLI runs in a session of its own, whose id is its pid, and is
    # signalled once both children fold. A child that outlived it would
    # still be in that session.
    path = tmp_path / "split.csv"
    path.write_bytes((HEADER + _ROWS * 6).encode())
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cli = subprocess.Popen([sys.executable, "-c", _SLOW_SPLIT_CLI, "analyze", "--input", str(path)],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                           start_new_session=True)
    try:
        assert [cli.stdout.readline() for _ in range(2)] == [b"folding\n"] * 2
        if signalled == "sigterm":
            cli.send_signal(signal.SIGTERM)
        else:
            os.killpg(cli.pid, signal.SIGINT)
        code = cli.wait(timeout=10)
        left = _session(cli.pid)
    finally:
        try:
            os.killpg(cli.pid, signal.SIGKILL)
        except ProcessLookupError:  # no process is left in its group
            pass
        out, err = cli.communicate(timeout=10)
    assert (code, out, err) == (130, b"", b"error: interrupted\n")
    assert left == []


def test_merged_subject_counts_keep_the_taxonomy_order():
    # "Others" between two labels: an unknown subject is counted in its
    # slot, and a merge adds each year's rows slot by slot.
    taxonomy = ("ICT", "Others", "Webometrics")
    first = [(2013, "ICT"), (2014, "Zoology"), (2014, "ICT")]
    second = [(2013, "Botany"), (2013, "Webometrics"), (2015, "ICT"), (2015, "Others")]
    whole, merged, other = (ingest._YearTally(taxonomy) for _ in range(3))
    for tally, records in ((whole, first + second), (merged, first), (other, second)):
        for year, subject in records:
            tally.add(year, 2, 5, subject, "T")
    merged.merge(marshal.loads(marshal.dumps(other.counts)),
                 marshal.loads(marshal.dumps(other.warnings)))
    assert merged.dataset() == whole.dataset()
    assert merged.sorted_warnings() == whole.sorted_warnings()
    subjects = [agg.subject_counts for agg in merged.dataset().aggregates]
    assert [list(counts) for counts in subjects] == [list(taxonomy)] * 3
    assert subjects == [{"ICT": 1, "Others": 1, "Webometrics": 1},
                        {"ICT": 1, "Others": 1, "Webometrics": 0},
                        {"ICT": 1, "Others": 1, "Webometrics": 0}]


def test_a_taxonomy_with_others_first_loads_as_the_precise_route_reads_it(tmp_path):
    # The labels in reverse and "Others" first: each subject's slot, and
    # the one an unknown subject takes, come from the config's taxonomy.
    labels = [label for label in DEFAULT_TAXONOMY if label != "Others"]
    config = AnalysisConfig(taxonomy=("Others", *reversed(labels)))
    path = tmp_path / "records.csv"
    gen.write_records_csv(gen.generate(gen.Knobs(records=500, unknown_subjects=0.1), seed=1),
                          str(path))
    raw = path.read_bytes()
    expected = _precise_route(raw, "csv", config)
    assert expected[1].ok and any(f.rule == "unknown-subject" for f in expected[1].warnings)
    assert [list(agg.subject_counts) for agg in expected[0].aggregates] == [
        list(config.taxonomy)] * len(expected[0].aggregates)
    assert _serial(raw, config) == expected
    for parts in (2, 3):
        assert _load_split(raw, parts, config, tmp_path) == expected


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("disposition", [signal.SIG_IGN, lambda signum, frame: None],
                         ids=["ignored", "handled"])
def test_a_sigchld_that_is_not_default_loads_the_file_whole(tmp_path, route, parts, disposition):
    # An ignored SIGCHLD, which a process inherits from its parent, has the
    # kernel reap each child itself, so waitpid would fail and a kill could
    # reach a reused pid; a handler may reap them too. So the load does not
    # split.
    raw = (HEADER + _ROWS * 6).encode()
    previous = signal.signal(signal.SIGCHLD, disposition)
    try:
        folded = _load_split(raw, parts, AnalysisConfig(), tmp_path)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert (route["forks"], route["folds"]) == (0, 1)
    assert folded == _serial(raw)
    _assert_no_child_left()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_a_platform_without_fork_or_cpu_affinity_loads_the_file_whole(monkeypatch, tmp_path,
                                                                      route, missing):
    # As on Windows, which has no fork, or macOS, which has no
    # sched_getaffinity: the file is not cut, and one fold reads it.
    raw = (HEADER + _ROWS * 6).encode()
    path = tmp_path / "whole.csv"
    path.write_bytes(raw)
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.delattr(os, missing)
    with path.open("rb") as source:
        assert ingest._cuts(source) is None
        folded = _outcome(lambda: load(source, "csv", AnalysisConfig(), "records"))
    assert (route["forks"], route["folds"]) == (0, 1)
    assert folded == _serial(raw)
    _assert_no_child_left()


@pytest.mark.parametrize("command", [["validate"], ["analyze", "--table", "all"],
                                     ["analyze", "--table", "all", "--show-config"]])
def test_the_cli_prints_the_same_for_a_split_and_a_serial_load(tmp_path, command):
    # Above two real _SPLIT_BYTES, so the file splits on two usable CPUs;
    # pinned to one CPU it loads whole. communicate() returns only once no
    # process holds the pipes, so no child of the CLI outlives it.
    path = tmp_path / "records.csv"
    drawn = gen.generate(gen.Knobs(records=20_000, missing_pages=0.2, unknown_subjects=0.1,
                                   count_only=0.1), seed=1)
    gen.write_records_csv(drawn, str(path))
    assert path.stat().st_size >= 2 * ingest._SPLIT_BYTES
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(cpus):
        child = subprocess.Popen(
            [sys.executable, "-c", "from scientoscope.cli import entry; entry()", *command,
             "--input", str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        out, err = child.communicate(timeout=120)
        return child.returncode, out, err

    cpus = os.sched_getaffinity(0)
    code, out, err = run(cpus)
    assert (code, out, err) == run({min(cpus)})
    assert code == 0 and (out + err).count(b"WARNING [") == 6018
    # --show-config prints before the load forks: no child prints it again.
    assert out.count(b'"config_hash"') == ("--show-config" in command)
