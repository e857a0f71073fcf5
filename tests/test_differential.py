"""Differential test: the streaming record fold against the precise route.

The CLI loads record input with :func:`load`, one loop that parses,
validates and bridges each row. It sends a row to the precise parse only
when the short parse cannot take it, and runs every row through the
record rules and the bridge count. The reference route is the library's:
:func:`parse_records`, which runs every row through the precise parse
(``ingest._record_fields``), then :func:`validate` and
:func:`aggregate_records`. For small generated record sets, and for
every edge input and flaw below with and without a study window, both
routes must give equal aggregates, equal findings and equal parse
errors; one case leaves the short parse for a valid row between clean
ones, so the fold switches parses and back. The short parse looks
numerals up in a memo until it has missed a bounded number of times,
then converts them with plain ``int()``, so the drawn sets and the edges
and flaws run under the shipped bound, a bound a parse reaches after its
first rows, and a bound of nothing; one set repeats odd numerals so that
the memo answers them. The CSV and JSON forms of a set must print the
same tables, and so must the aggregate CSV of an accepted set. The
settings are deterministic, like ``tests/test_fuzz.py``.
"""

import csv
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scientoscope import (
    AnalysisConfig,
    ParseError,
    aggregate_records,
    parse_records,
    validate,
    write_aggregates_csv,
)
from scientoscope import ingest
from scientoscope.cli import main
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
    {"author_count": -9},  # would index past the authorship bins
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
    """parse_records -> validate -> aggregate_records, as the CLI once ran them."""
    records = parse_records(raw, format)
    report = validate(records, config)
    if not report.ok:
        return None, report
    aggregated, bridged = aggregate_records(records, config)
    report.warnings.extend(bridged.warnings)
    return aggregated, report


def _outcome(route):
    try:
        return route()
    except ParseError as exc:
        return str(exc)


def _assert_routes_agree(records, blanks, window):
    config = AnalysisConfig(study_window=window)
    for format, raw in (("csv", _csv_bytes(records, blanks)),
                        ("json", _json_bytes(records, authors_as_text=False))):
        expected = _outcome(lambda: _precise_route(raw, format, config))
        folded = _outcome(lambda: load(io.BytesIO(raw), format, config, "records"))
        if isinstance(expected, str) or not expected[1].ok:
            folded = folded if isinstance(folded, str) else (None, folded[1])
        assert folded == expected


# The short parse's memo bounds: as shipped, so numerals hit and miss it;
# a few misses, so a parse turns to plain int() after its first rows; and
# none, so every numeral is converted by plain int().
MEMO_SIZES = (ingest._MEMO_SIZE, 5, 0)


@DIFFERENTIAL
@given(record_sets(), st.none() | st.just((2012, 2015)))
def test_fold_equals_parse_validate_and_bridge(monkeypatch, drawn, window):
    for size in MEMO_SIZES:
        monkeypatch.setattr(ingest, "_MEMO_SIZE", size)
        _assert_routes_agree(*drawn, window)


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
def test_every_edge_and_flaw_agrees_on_both_routes(monkeypatch, override, window):
    records = [dict(rec) for rec in _BASE]
    records[1].update(override)
    for size in MEMO_SIZES:
        monkeypatch.setattr(ingest, "_MEMO_SIZE", size)
        _assert_routes_agree(records, _BLANKS, window)


@pytest.mark.parametrize("window", [None, (2012, 2015)])
def test_odd_numerals_that_repeat_agree_on_both_routes(window):
    # Each odd numeral recurs in several records and fields, so the memo
    # answers most of its lookups, and the precise parse is compared with them.
    odd = (" 12 ", "12", "+5", "1_0", "\u0663")
    records = [dict(_BASE[i % 4], volume=odd[i % 5], issue=odd[(i + 1) % 5],
                    author_count=odd[(i + 2) % 5], start_page=odd[2 + i % 3],
                    end_page=odd[i % 2]) for i in range(15)]
    _assert_routes_agree(records, [None] * len(records), window)


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
    # short parse and its memo are timed on.
    drawn = gen.generate(gen.Knobs(records=500, **knobs), seed=1)
    path = tmp_path / f"records.{format}"
    (gen.write_records_json if format == "json" else gen.write_records_csv)(drawn, str(path))
    raw = path.read_bytes()
    config = AnalysisConfig()
    expected = _precise_route(raw, format, config)
    assert expected[1].ok and expected[1].record_count == 500
    assert load(io.BytesIO(raw), format, config) == expected
