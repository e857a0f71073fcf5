"""Parsing, validation, and the record-to-aggregate bridge."""

import csv
import io
import json
import os
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scientoscope import (
    AnalysisConfig,
    BibRecord,
    Dataset,
    Finding,
    ParseError,
    YearAggregate,
    aggregate_records,
    parse_aggregates,
    parse_records,
    sniff_granularity,
    validate,
    write_aggregates_csv,
)
from scientoscope import ingest
from scientoscope.cli import demo_aggregates_path, demo_records_path, main
from scientoscope.ingest import MAX_COUNT, load

RECORD_HEADER = "year,volume,issue,title,authors,start_page,end_page,subject"
AGG_HEADER = ("year,papers,a1,a2,a3,a4,a5plus,total_authors,p1to5,p6to10,pabove10,"
              "subj:A,subj:B")


def test_parse_record_row_maps_fields():
    csv_text = (RECORD_HEADER + "\n"
                '2013,33,5,Some Title,A. Kumar; B. Singh,412,417,"Scientometrics, Bibliometrics"\n')
    (rec,) = parse_records(csv_text)
    assert rec.year == 2013
    assert rec.volume == 33 and rec.issue == 5
    assert rec.authors == ("A. Kumar", "B. Singh")
    assert rec.n_authors == 2
    assert rec.start_page == 412 and rec.end_page == 417
    assert rec.page_count == 6
    assert rec.subject == "Scientometrics, Bibliometrics"


def test_parse_record_single_author():
    (rec,) = parse_records(RECORD_HEADER + "\n2013,,,T,A. Kumar,,,Subj\n")
    assert rec.n_authors == 1
    assert rec.start_page is None  # empty optionals are absent, not zero


def test_parse_record_author_count_overrides():
    header = RECORD_HEADER + ",author_count"
    (rec,) = parse_records(header + "\n2013,,,T,,,,Subj,4\n")
    assert rec.n_authors == 4
    assert rec.authors is None


def test_parse_record_missing_mandatory_fields():
    with pytest.raises(ParseError, match="line 2.*authors"):
        parse_records(RECORD_HEADER + "\n2013,,,T,,,,Subj\n")
    with pytest.raises(ParseError, match="title"):
        parse_records(RECORD_HEADER + "\n2013,,,,A,,,Subj\n")
    with pytest.raises(ParseError, match="subject"):
        parse_records(RECORD_HEADER + "\n2013,,,T,A,,,\n")


def test_parse_record_non_numeric_year_is_parse_error():
    with pytest.raises(ParseError, match="line 2.*non-numeric year"):
        parse_records(RECORD_HEADER + "\nMMXIII,,,T,A,,,Subj\n")


def test_parse_record_reports_1_based_line():
    bad = RECORD_HEADER + "\n2013,,,T,A,,,Subj\n2014,,,T,A,1,x,Subj\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_records(bad)


def test_parse_records_json_with_author_list():
    data = [{"year": 2013, "title": "T", "subject": "S",
             "authors": ["Kumar, A.", "Singh, B."], "start_page": 1, "end_page": 5}]
    (rec,) = parse_records(json.dumps(data), format="json")
    assert rec.authors == ("Kumar, A.", "Singh, B.")
    assert rec.page_count == 5


def test_records_csv_and_json_parse_alike(demo_records):
    objs = []
    for row in csv.DictReader(io.StringIO(demo_records_path().read_text(encoding="utf-8"))):
        obj = {key: int(value) if value.isdigit() else value or None for key, value in row.items()}
        obj["authors"] = [name.strip() for name in row["authors"].split(";") if row["authors"]]
        objs.append(obj)
    assert parse_records(json.dumps(objs), format="json") == demo_records


def test_duplicate_csv_columns_are_rejected():
    with pytest.raises(ParseError, match="^line 1: duplicate columns: subject$"):
        parse_records(RECORD_HEADER + ",subject\n2013,,,T,A,1,2,ICT,Open Access\n")
    with pytest.raises(ParseError, match="^line 1: duplicate columns: a1$"):
        parse_aggregates(AGG_HEADER + ",a1\n2013,1,1,0,0,0,0,1,1,0,0,1,0,0\n")


def test_reversed_page_span_is_flagged_by_validate():
    ds = parse_records(RECORD_HEADER + "\n2013,,,T,A,412,411,Subj\n")
    report = validate(ds)
    assert any(f.rule == "page-span" for f in report.errors)


def test_validate_year_out_of_window():
    ds = parse_records(RECORD_HEADER + "\n2019,,,T,A,,,Subj\n")
    report = validate(ds, AnalysisConfig(study_window=(2013, 2017)))
    assert any(f.rule == "year-window" for f in report.errors)
    # An aggregate year: the window's first and last years are inside it.
    rows = "".join(f"{year},1,1,0,0,0,0,1,1,0,0,1,0\n" for year in (2013, 2014, 2015))
    report = validate(parse_aggregates(AGG_HEADER + "\n" + rows),
                      AnalysisConfig(study_window=(2013, 2014)))
    assert [(f.location, f.rule) for f in report.errors] == [("2015", "year-window")]


def test_validate_page_count_span_mismatch():
    data = json.dumps([{"year": 2013, "title": "T", "subject": "S",
                        "authors": "A", "start_page": 1, "end_page": 5,
                        "page_count": 99}])
    report = validate(parse_records(data, format="json"))
    assert any(f.rule == "page-count" for f in report.errors)


@pytest.mark.parametrize("fields, rule, message", [
    ("2013,,,T,A,9,4,ICT,,3", "page-span", "end_page 4 < start_page 9"),
    ("2013,,,T,A,9,4,ICT,,", "page-span", "end_page 4 < start_page 9"),
    ("2013,,,T,A,1,5,ICT,,7", "page-count", "page_count 7 != span 5"),
    ("2013,,,T,A,0,3,ICT,,", "page-positive", "start_page must be positive, got 0"),
    ("2013,,,T,A,,-4,ICT,,", "page-positive", "end_page must be positive, got -4"),
    ("2013,,,T,A,,0,ICT,,", "page-positive", "end_page must be positive, got 0"),
    ("2013,,,T,A,,,ICT,,0", "page-positive", "page_count must be positive, got 0"),
    ("2013,,,T,,,,ICT,0,", "author-count", "author count must be >= 1"),
    ("2013,,,T,,,,ICT,-9,", "author-count", "author count must be >= 1"),
    (f"2013,,,T,,,,ICT,{MAX_COUNT + 1},", "count-range", f"author count is above {MAX_COUNT}"),
    ("2016,,,T,A,1,2,ICT,,", "year-window", "year 2016 outside study window 2012-2015"),
])
def test_each_record_rule_words_its_one_finding(fields, rule, message):
    # Both routes share the record rules, so the differential test cannot pin them.
    raw = (RECORD_HEADER + ",author_count,page_count\n2012,,,T,A,1,2,ICT,,\n"
           + fields + "".join(f"\n{year},,,T,A,1,2,ICT,," for year in (2013, 2014, 2015))).encode()
    config = AnalysisConfig(study_window=(2012, 2015))
    expected = [Finding("record 2", rule, message)]
    assert load(io.BytesIO(raw), "csv", config, "records")[1].errors == expected
    assert validate(parse_records(raw), config).errors == expected


def test_both_author_sources_on_a_built_record_is_an_error():
    record = BibRecord(2013, "T", "ICT", authors=("A",), author_count=1)
    assert validate((record,)).errors == [
        Finding("record 1", "author-source", "both author list and author_count present")]


def test_parse_records_json_string_authors():
    data = json.dumps([{"year": 2013, "title": "T", "subject": "S",
                        "authors": "Kumar, A.; Singh, B."}])
    (rec,) = parse_records(data, format="json")
    assert rec.authors == ("Kumar, A.", "Singh, B.")


@pytest.mark.parametrize("authors, names", [(["A", None], ("A",)),
                                            ([None, "B", None], ("B",)),
                                            ([None], None)])
def test_a_null_in_a_json_author_list_is_no_author(authors, names):
    # As a blank name in a CSV list ("A;") is none.
    data = json.dumps([{"year": 2013, "title": "T", "subject": "S", "authors": authors}]).encode()
    if names is None:
        message = "element 1: missing mandatory field 'authors' (or 'author_count')"
        for parse in (lambda: parse_records(data, "json"), lambda: load(io.BytesIO(data), "json")):
            with pytest.raises(ParseError) as caught:
                parse()
            assert str(caught.value) == message
        return
    (rec,) = parse_records(data, "json")
    assert rec.authors == names
    dataset, report = load(io.BytesIO(data), "json")
    assert report.ok and dataset.aggregates[0].total_authors == 1


def _parse_error_on_both_routes(data: bytes, format: str) -> str:
    """The ParseError message :func:`parse_records` and :func:`load` both give for *data*."""
    messages = set()
    for parse in (lambda: parse_records(data, format), lambda: load(io.BytesIO(data), format)):
        with pytest.raises(ParseError) as caught:
            parse()
        messages.add(str(caught.value))
    (message,) = messages
    return message


@pytest.mark.parametrize("fields, message", [
    ({"authors": [["A", "B"]]}, 'invalid author: ["A", "B"] (expected text)'),
    ({"authors": ["A", {"n": 1}]}, 'invalid author: {"n": 1} (expected text)'),
    ({"authors": {"n": 1}, "author_count": 1},
     'invalid authors: {"n": 1} (expected text or a list of text)'),
    ({"title": [1, 2]}, "invalid title: [1, 2] (expected text)"),
    ({"subject": {"a": 1}}, 'invalid subject: {"a": 1} (expected text)'),
    ({"title": ["Ω"]}, 'invalid title: ["Ω"] (expected text)'),
    ({"title": True}, "invalid title: true (expected text)"),
    ({"subject": False}, "invalid subject: false (expected text)"),
    ({"authors": ["A", True]}, "invalid author: true (expected text)"),
    ({"authors": False, "author_count": 1},
     "invalid authors: false (expected text or a list of text)"),
])
def test_a_json_array_or_object_as_record_text_is_a_parse_error(fields, message):
    # It used to become its Python text: a title '[1, 2]', an author "['A', 'B']",
    # a title 'True'.
    records = [{"year": 2013, "title": "T", "subject": "ICT", "authors": ["A"]} for _ in range(2)]
    records[1].update(fields)
    data = json.dumps(records).encode()
    assert _parse_error_on_both_routes(data, "json") == f"element 2: {message}"


def test_json_text_that_is_not_an_array_or_object_reads_as_before():
    # Numbers read as their digits, and a ";" inside an author entry still splits it.
    data = json.dumps([{"year": 2013, "title": 7, "subject": "ICT", "authors": ["Kumar; A.", 3],
                        "keywords": [["x"]], "volume": 2}]).encode()
    (rec,) = parse_records(data, "json")
    assert (rec.title, rec.authors, rec.volume) == ("7", ("Kumar", "A.", "3"), 2)
    assert load(io.BytesIO(data), "json")[1].ok
    numeric = data.replace(b'"volume": 2', b'"volume": [2]')
    assert _parse_error_on_both_routes(numeric, "json") == "element 1: non-numeric volume: '[2]'"
    boolean = data.replace(b'"year": 2013', b'"year": true')  # a number, not text
    assert _parse_error_on_both_routes(boolean, "json") == "element 1: non-numeric year: 'True'"
    # A float reads as written, not as the float it decodes to.
    floats = data.replace(b'"title": 7', b'"title": 1e2').replace(b'3]', b'3.50]')
    (rec,) = parse_records(floats, "json")
    assert (rec.title, rec.authors) == ("1e2", ("Kumar", "A.", "3.50"))
    dataset, report = load(io.BytesIO(floats), "json")
    assert report.ok and dataset.aggregates[0].total_authors == 3
    exponent = data.replace(b'"year": 2013', b'"year": 1e3')
    assert _parse_error_on_both_routes(exponent, "json") == "element 1: non-numeric year: '1e3'"


def test_a_json_title_nested_as_deeply_as_the_decoder_allows_is_a_parse_error():
    # Printing the value in the message nests one level deeper than decoding it.
    for depth in range(1000, 0, -1):
        data = ('[{"year": 2013, "subject": "ICT", "authors": "A", "title": '
                + "[" * depth + "]" * depth + "}]").encode()
        for parse in (lambda: parse_records(data, "json"), lambda: load(io.BytesIO(data), "json")):
            with pytest.raises(ParseError) as caught:
                parse()
            if "nested too deeply" not in str(caught.value):
                assert str(caught.value).startswith("element 1: invalid title: [")
                return
    raise AssertionError("no depth decoded")


def test_parse_aggregates_sorted_and_consistent():
    text = (AGG_HEADER + "\n"
            "2014,2,1,1,0,0,0,3,1,1,0,1,1\n"
            "2013,1,1,0,0,0,0,1,1,0,0,1,0\n")
    ds = parse_aggregates(text)
    assert [a.year for a in ds.aggregates] == [2013, 2014]
    report = validate(ds)
    assert report.ok
    # A label outside the taxonomy is reported where it counts a paper: not B in 2013.
    assert [(f.location, f.rule, f.message[:11]) for f in report.warnings] == [
        ("2013", "unknown-subject", "subject 'A'"), ("2014", "unknown-subject", "subject 'A'"),
        ("2014", "unknown-subject", "subject 'B'")]


def test_parse_aggregates_empty_is_parse_error():
    with pytest.raises(ParseError, match="empty dataset"):
        parse_aggregates(AGG_HEADER + "\n")


def test_validate_duplicate_year():
    text = (AGG_HEADER + "\n"
            "2013,1,1,0,0,0,0,1,1,0,0,1,0\n"
            "2013,1,1,0,0,0,0,1,1,0,0,1,0\n")
    report = validate(parse_aggregates(text))
    assert any(f.rule == "duplicate-year" for f in report.errors)


def test_validate_counts_a_duplicated_aggregate_year_once(tmp_path, capsys):
    # As the record route counts distinct years.
    path = tmp_path / "agg.csv"
    path.write_text(AGG_HEADER + "\n"
                    "2013,1,1,0,0,0,0,1,1,0,0,1,0\n"
                    "2013,1,1,0,0,0,0,1,1,0,0,1,0\n"
                    "2014,1,1,0,0,0,0,1,1,0,0,1,0\n")
    assert validate(parse_aggregates(path.read_text())).year_count == 2
    assert main(["validate", "--input", str(path)]) == 1
    assert capsys.readouterr().out.startswith("records: 0  years: 2\n")


def test_validate_year_gap():
    text = (AGG_HEADER + "\n"
            "2013,1,1,0,0,0,0,1,1,0,0,1,0\n"
            "2015,1,1,0,0,0,0,1,1,0,0,1,0\n")
    report = validate(parse_aggregates(text))
    assert any(f.rule == "year-gap" and f.location == "2014" for f in report.errors)
    raw = RECORD_HEADER + "\n2013,,,T1,A,1,2,ICT\n2015,,,T2,A,1,2,ICT\n"
    report = validate(parse_records(raw))
    assert [(f.location, f.rule) for f in report.errors] == [("2014", "year-gap")]
    assert (report.record_count, report.year_count) == (2, 2)
    # A report with errors comes with no dataset from load; the parse still gives one.
    assert load(raw) == (None, report)
    names = AGG_HEADER.split(",")
    as_json = json.dumps([dict(zip(names, map(int, row.split(","))))
                          for row in text.splitlines()[1:]])
    for raw, format in ((text, "csv"), (as_json, "json")):
        dataset = parse_aggregates(raw, format)
        assert [a.year for a in dataset.aggregates] == [2013, 2015]
        assert load(raw, format) == (None, validate(dataset))


def test_validate_long_year_gap_is_one_finding():
    text = (AGG_HEADER + "\n"
            "1,1,1,0,0,0,0,1,1,0,0,1,0\n"
            "2000000,1,1,0,0,0,0,1,1,0,0,1,0\n")
    report = validate(parse_aggregates(text))
    gaps = [f for f in report.errors if f.rule == "year-gap"]
    assert [(f.location, f.message) for f in gaps] == [("2-1999999", "gap at 2-1999999")]


def test_validate_counts_above_the_limit():
    big = MAX_COUNT + 1
    report = validate(parse_aggregates(AGG_HEADER + f"\n2013,1,1,0,0,0,0,{big},1,0,0,1,0\n"))
    assert [(f.rule, f.message) for f in report.errors] == [
        ("count-range", f"total_authors is above {MAX_COUNT}")]
    assert validate(parse_aggregates(AGG_HEADER + f"\n2013,1,1,0,0,0,0,{MAX_COUNT},1,0,0,1,0\n")).ok
    records = parse_records("year,title,authors,subject,volume,issue,start_page,end_page,"
                            f"author_count\n2013,T,,ICT,,,,,{big}\n")
    assert [f.rule for f in validate(records).errors] == ["count-range"]


def test_bin_sum_mismatch_lenient_vs_strict():
    text = AGG_HEADER + "\n2013,2,1,0,0,0,0,1,2,0,0,2,0\n"  # authorship bins sum 1 != 2
    ds = parse_aggregates(text)
    lenient = validate(ds)
    assert lenient.ok
    assert any(f.rule == "authorship-bin-sum" for f in lenient.warnings)
    strict = validate(ds, AnalysisConfig(strict=True))
    assert any(f.rule == "authorship-bin-sum" for f in strict.errors)


def test_demo_dataset_validates_with_single_warning(demo_dataset):
    report = validate(demo_dataset)
    assert report.ok
    assert len(report.warnings) == 1
    (finding,) = report.warnings
    assert finding.rule == "authorship-bin-sum"
    assert finding.location == "2017"
    assert "50" in finding.message and "51" in finding.message


def test_validate_is_idempotent(demo_dataset):
    first = validate(demo_dataset)
    second = validate(demo_dataset)
    assert first.errors == second.errors
    assert first.warnings == second.warnings


def test_aggregate_records_demo_set(demo_records):
    aggregated, report = aggregate_records(demo_records)
    by_year = {a.year: a for a in aggregated.aggregates}

    assert by_year[2013].papers == 3
    assert by_year[2013].authorship_bins == (1, 1, 1, 0, 0)
    assert by_year[2013].total_authors == 6
    assert by_year[2013].page_bins == (1, 1, 1)
    assert by_year[2013].subject_counts["Scientometrics, Bibliometrics"] == 1
    assert by_year[2013].subject_counts["Open Access"] == 1
    assert by_year[2013].subject_counts["Digital Libraries"] == 1

    assert by_year[2014].authorship_bins == (1, 1, 0, 0, 1)  # 5-author article pools into 5+
    assert by_year[2014].total_authors == 8
    assert by_year[2014].page_bins == (0, 3, 0)

    assert by_year[2015].authorship_bins == (1, 1, 0, 0, 1)  # 7-author article pools into 5+
    assert by_year[2015].total_authors == 10  # exact sum, not the pooled value

    # Record without pages: counted in papers, excluded from page bins.
    assert by_year[2016].papers == 2
    assert by_year[2016].page_bins == (0, 1, 0)
    assert any(f.rule == "missing-pages" for f in report.warnings)

    # Unknown subject maps to Others with a warning.
    assert by_year[2017].subject_counts["Others"] == 1
    assert any(f.rule == "unknown-subject" for f in report.warnings)


def test_aggregate_records_conservation():
    rows = ["2013,,,T{},{},1,{},Subj".format(i, "; ".join(["A"] * (i % 4 + 1)), 1 + i % 12)
            for i in range(24)]
    ds = parse_records(RECORD_HEADER + "\n" + "\n".join(rows) + "\n")
    aggregated, _ = aggregate_records(ds)
    (agg,) = aggregated.aggregates
    assert sum(agg.authorship_bins) == agg.papers
    assert sum(agg.page_bins) == agg.papers
    assert sum(agg.subject_counts.values()) == agg.papers


def test_bridge_puts_each_count_in_its_class_at_the_edges():
    records = tuple(BibRecord(2013, f"T{n}", "ICT", author_count=n, page_count=pages)
                    for n, pages in zip(range(1, 7), (1, 5, 6, 10, 11, 400)))
    records += (BibRecord(2013, "Z", "ICT", author_count=1, page_count=0),
                BibRecord(2013, "N", "ICT", author_count=1, page_count=-2))
    aggregated, report = aggregate_records(records)
    (agg,) = aggregated.aggregates
    assert agg.authorship_bins == (3, 1, 1, 1, 2)
    assert agg.page_bins == (2, 2, 2)
    assert [f.message for f in report.warnings] == ["page count -2 fits no page bin",
                                                    "page count 0 fits no page bin"]


@pytest.mark.parametrize("record", [
    BibRecord(2013, "T", "ICT", author_count=0, page_count=3),
    BibRecord(2013, "T", "ICT", author_count=-9, page_count=3),
    BibRecord(2013, "T", "ICT", authors=(), page_count=3),
], ids=["zero", "negative", "no-names"])
def test_aggregate_records_rejects_a_record_of_no_author(record):
    # validate reports such a record as an author-count error; the bridge
    # alone must not count it in any bin.
    records = (BibRecord(2013, "T", "ICT", author_count=2, page_count=3), record)
    with pytest.raises(ValueError, match=r"^record 2: author count must be >= 1$"):
        aggregate_records(records)


def test_expand_author_counts_reproduces_author_totals(demo_dataset):
    # The bin-weighted sum, with the 5+ bin valued at 5, matches the
    # dataset's recorded author totals for every year.
    for agg in demo_dataset.aggregates:
        assert sum(n * k for k, n in enumerate(agg.authorship_bins, start=1)) == agg.total_authors


def test_aggregates_csv_round_trip(demo_dataset):
    assert parse_aggregates(write_aggregates_csv(demo_dataset)) == demo_dataset


def test_sniff_granularity():
    assert sniff_granularity(AGG_HEADER + "\n") == "aggregates"
    assert sniff_granularity(RECORD_HEADER + "\n") == "records"
    # The sniff reads as every parse reads: a bad byte after the header is
    # the fault, with the message of a decode of the whole input.
    raw = (RECORD_HEADER + "\n2013,,,T,A,1,2,ICT\n").encode() + b"2014,,,\xff,A,1,2,ICT\n"
    for read in (sniff_granularity, parse_records):
        with pytest.raises(ParseError) as raised:
            read(raw)
        assert str(raised.value) == ("input is not valid UTF-8: 'utf-8' codec can't decode "
                                     "byte 0xff in position 86: invalid start byte")
    with pytest.raises(ParseError) as raised:
        sniff_granularity(b'year,ti"tle,authors\n\xff\n')
    assert str(raised.value) == ("input is not valid UTF-8: 'utf-8' codec can't decode "
                                 "byte 0xff in position 20: invalid start byte")
    # A '"' inside an unquoted header cell is literal, so the header ends at its newline.
    assert sniff_granularity('year,ti"tle,authors\n"\n') == "records"


@pytest.mark.parametrize("parse", [
    parse_records, parse_aggregates, sniff_granularity,
    lambda raw, format: load(io.BytesIO(raw), format),
], ids=["parse_records", "parse_aggregates", "sniff_granularity", "load"])
def test_an_unknown_input_format_is_a_parse_error(parse):
    with pytest.raises(ParseError) as raised:
        parse((RECORD_HEADER + "\n2013,,,T,A,1,2,ICT\n").encode(), "xml")
    assert str(raised.value) == "unknown input format: 'xml'"


def test_a_built_aggregate_without_five_authorship_bins_fails_bin_shape():
    # The parse always gives five bins; a hand-built aggregate may not.
    aggregate = YearAggregate(2013, 1, (1, 0, 0, 0), (1, 0, 0), {"Others": 1}, 1)
    assert [f for f in validate(Dataset((aggregate,))).errors if f.rule == "bin-shape"] == [
        Finding("2013", "bin-shape", "expected 5 authorship bins, got 4")]


def test_sniff_granularity_reads_a_header_with_a_quoted_newline():
    raw = 'year,"ti\ntle",authors\n2013,T,A\n'
    assert sniff_granularity(raw) == sniff_granularity(raw.encode()) == "records"
    with pytest.raises(ParseError, match="^line 1: record CSV header is missing columns"):
        load(io.BytesIO(raw.encode()))  # which load reads as records too


@pytest.mark.parametrize("rows", [401, 501, 1001], ids=["byte-7679", "byte-9579", "byte-19079"])
def test_sniff_granularity_raises_a_bad_byte_anywhere_as_the_parse_does(rows):
    # The bad byte falls inside, just past and far past the text reader's
    # first 8 KiB chunk; the sniff reads to the end whatever the header says.
    raw = (RECORD_HEADER + "\n" + "2013,,,T,A,1,2,ICT\n" * rows).encode() + b"\xff,,,T,A,1,2,ICT\n"
    assert raw.index(b"\xff") == 60 + 19 * rows
    with pytest.raises(ParseError) as parsed:
        parse_records(raw)
    with pytest.raises(ParseError) as sniffed:
        sniff_granularity(raw)
    assert str(sniffed.value) == str(parsed.value)
    assert str(parsed.value).startswith("input is not valid UTF-8: 'utf-8' codec can't decode")


def test_parse_aggregates_json_round_trip(demo_dataset):
    objs = []
    for agg in demo_dataset.aggregates:
        obj = {"year": agg.year, "papers": agg.papers,
               "a1": agg.authorship_bins[0], "a2": agg.authorship_bins[1],
               "a3": agg.authorship_bins[2], "a4": agg.authorship_bins[3],
               "a5plus": agg.authorship_bins[4],
               "total_authors": agg.total_authors,
               "p1to5": agg.page_bins[0], "p6to10": agg.page_bins[1],
               "pabove10": agg.page_bins[2]}
        obj.update({f"subj:{k}": v for k, v in agg.subject_counts.items()})
        objs.append(obj)
    assert parse_aggregates(json.dumps(objs), format="json") == demo_dataset


def _record_rows(n, years=10):
    """*n* clean record rows over *years* years: no finding at all."""
    subjects = ("ICT", "Open Access", "Webometrics")
    return "".join(f"{2000 + i % years},{i % 9 + 1},{i % 4 + 1},Title {i},"
                   f"{'; '.join(f'Author {j}' for j in range(i % 6 + 1))},"
                   f"{i % 200 + 1},{i % 200 + 1 + i % 30},{subjects[i % 3]}\n"
                   for i in range(n))


def _fold_bytes(raw):
    return load(io.BytesIO(raw), "csv", AnalysisConfig(), "records")


@pytest.mark.parametrize("flawed, precise, ok, authors", [
    ("", 0, True, 0),
    ("2005,,,T,;A;;B;,1,2,ICT\n", 0, True, 2),  # blank author names stay on the short path
    ("2005, ,,T,A,1,2,ICT\n", 1, True, 1),  # a whitespace-only volume: the precise parse
    ("2005,,,T,A,9,4,ICT\n", 0, False, 1),  # a reversed span: the short parse, then an error
    ("2005, ,,T,A,9,4,ICT\n", 1, False, 1),
    ("2005,,,T,A;\u00a0;B,1,2,ICT\n", 0, True, 2),  # a no-break space is a blank name too
], ids=["clean", "blank-names", "parse", "rules", "both", "nbsp-name"])
def test_only_a_row_the_short_path_cannot_take_leaves_it(monkeypatch, flawed, precise, ok,
                                                         authors):
    # Only such a row reaches the precise parse, while the record rules run on every row.
    counts = Counter()
    for name in ("_record_fields", "_validate_record"):
        def counted(*args, real=getattr(ingest, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(ingest, name, counted)
    rows = _record_rows(2000).splitlines(keepends=True)
    raw = (RECORD_HEADER + "\n" + "".join(rows[:1000]) + flawed + "".join(rows[1000:])).encode()
    dataset, report = _fold_bytes(raw)
    assert report.record_count == 2000 + bool(flawed)
    assert report.ok == ok
    assert (counts["_record_fields"], counts["_validate_record"]) == (precise, report.record_count)
    if ok:  # each clean row i has i % 6 + 1 authors
        assert (sum(a.total_authors for a in dataset.aggregates)
                == sum(i % 6 + 1 for i in range(2000)) + authors)


#: Pieces of an author cell: a letter, the separator, characters that
#: ``str.strip`` removes, and "\ufeff", which it keeps.
_AUTHOR_PIECES = ("a", "Z", ";", " ", "\t", "\u00a0", "\u3000", "\x1c", "\u0085", "\ufeff")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=_AUTHOR_PIECES, max_size=12))
def test_load_counts_the_authors_split_authors_finds(cell):
    # The short parse counts the pieces of a list when none is blank; the
    # count must be split_authors' whichever way it is reached.
    expected = len(ingest.split_authors(cell))
    row = {"year": "2013", "volume": "", "issue": "", "title": "T", "authors": cell,
           "start_page": "1", "end_page": "2", "subject": "ICT"}
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([RECORD_HEADER.split(","), row.values()])
    for format, raw in (("csv", text.getvalue()), ("json", json.dumps([row]))):
        try:
            dataset, _ = load(io.BytesIO(raw.encode()), format)
        except ParseError as exc:
            assert expected == 0
            assert "missing mandatory field 'authors'" in str(exc)
        else:
            assert dataset.aggregates[0].total_authors == expected


@pytest.mark.parametrize("offset", [100, 70_000])
def test_bad_utf8_reports_the_position_decoding_the_whole_input_gives(offset):
    head = (RECORD_HEADER + "\n" + _record_rows(2000)).encode()
    assert len(head) > 70_000
    raw = head[:offset] + b"\xff" + head[offset:]
    with pytest.raises(UnicodeDecodeError) as decoded:
        raw.decode("utf-8")
    message = f"input is not valid UTF-8: {decoded.value}"
    assert f"in position {offset}:" in message
    with pytest.raises(ParseError) as folded:
        _fold_bytes(raw)
    assert str(folded.value) == message
    with pytest.raises(ParseError) as parsed:
        parse_records(raw)
    assert str(parsed.value) == message


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("fault", [b"", b"\xff", b"\xe2\x28", b"\xf0\x9f\x98\n", b"\xe2\x82"],
                         ids=["none", "start-byte", "continuation", "cut-short", "at-the-end"])
def test_the_error_path_checks_utf8_a_block_at_a_time(monkeypatch, block, fault):
    # A row error comes first, so the load checks the whole input after it.
    # The rows after it hold characters of 2, 3 and 4 bytes, so every block
    # size splits one across two blocks, and the fault is past the first
    # block. The input starts after 6 bytes of its file.
    raw = (RECORD_HEADER + "\n2013,,,T,A,q,2,ICT\n"
           + "2013,,,Bibliométrie € \U0001f4da,A,1,2,ICT\n" * 40).encode() + fault
    expected = "line 2: non-numeric start_page: 'q'"
    if fault:
        with pytest.raises(UnicodeDecodeError) as decoded:
            raw.decode("utf-8")
        expected = f"input is not valid UTF-8: {decoded.value}"
        assert len(raw) - len(fault) > block and "position" in expected
    monkeypatch.setattr(ingest, "_UTF8_BLOCK", block)
    source = io.BytesIO(b"\xff\xfe\n\n\n\n" + raw)
    source.seek(6)
    with pytest.raises(ParseError) as folded:
        load(source, "csv", AnalysisConfig(), "records")
    assert str(folded.value) == expected


@pytest.mark.parametrize("parse", [_fold_bytes, parse_records, parse_aggregates],
                         ids=["load", "parse_records", "parse_aggregates"])
@pytest.mark.parametrize("bad", [
    "year,title,authors,subject\n",  # header missing columns
    RECORD_HEADER + "\n2013,,,T,A,1,2\n",  # ragged row
    RECORD_HEADER + "\nMMXIII,,,T,A,1,2,ICT\n",  # non-numeric year
    RECORD_HEADER + "\n2013,,,T,A,1,2,\n",  # missing subject
])
def test_bad_utf8_takes_precedence_over_an_earlier_parse_error(bad, parse):
    # parse_aggregates finds record columns where it wants aggregate ones.
    raw = (bad + _record_rows(3000)).encode() + b"2013,,,\xfe,A,1,2,ICT\n"
    with pytest.raises(ParseError, match="^input is not valid UTF-8: 'utf-8' codec can't decode "
                                         "byte 0xfe in position"):
        parse(raw)


#: Faults injected into valid UTF-8 text, and whether each may stand only at its end.
_UTF8_FAULTS = {
    "stray-continuation": (b"\x80", False),
    "invalid-start": (b"\xff", False),
    "cut-at-the-end": (b"\xf0\x9f\x93", True),
    "encoded-surrogate": (b"\xed\xa0\x80", False),
    "overlong": (b"\xc0\xaf", False),
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=st.text(st.sampled_from("a\n,\u00e9\u20ac\U0001f4da") | st.characters(codec="utf-8"),
                    max_size=40),
       fault=st.sampled_from([None, *_UTF8_FAULTS]), where=st.floats(0, 1),
       block=st.integers(1, 64), offset=st.integers(1, 8))
def test_check_utf8_raises_exactly_when_decoding_does(text, fault, where, block, offset):
    # Characters of 1 to 4 bytes, at most one fault, any block size, and an
    # input that starts after bad bytes of its file: the check reads from
    # the position it is given, and counts positions from there.
    cut = round(where * len(text))
    head, tail = text[:cut].encode(), text[cut:].encode()
    if fault is not None:
        bad, at_the_end = _UTF8_FAULTS[fault]
        head, tail = (head + tail + bad, b"") if at_the_end else (head + bad, tail)
    raw = head + tail
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        expected = f"input is not valid UTF-8: {exc}"
    else:
        expected = None
    assert (expected is None) == (fault is None)
    source = io.BytesIO(b"\xff" * offset + raw)
    source.seek(offset)
    with mock.patch.object(ingest, "_UTF8_BLOCK", block):
        if expected is None:
            ingest._check_utf8(source)
        else:
            with pytest.raises(ParseError) as checked:
                ingest._check_utf8(source)
            assert str(checked.value) == expected


@pytest.mark.parametrize("parse, path", [
    (parse_records, demo_records_path), (parse_aggregates, demo_aggregates_path),
    (sniff_granularity, demo_records_path), (sniff_granularity, demo_aggregates_path),
], ids=["parse_records", "parse_aggregates", "sniff-records", "sniff-aggregates"])
def test_one_leading_byte_order_mark_is_dropped_from_bytes_and_from_text(parse, path):
    def outcome(source):
        try:
            return parse(source)
        except ParseError as exc:
            return f"ParseError: {exc}"

    raw = path().read_bytes()
    (none, one, two) = [[outcome("\ufeff" * marks + raw.decode()),
                         outcome(b"\xef\xbb\xbf" * marks + raw)] for marks in range(3)]
    assert not isinstance(none[0], str) or none[0] in ingest.GRANULARITIES
    assert none == one == [none[0]] * 2
    # A second mark is part of the first column's name, "year", which the sniff does not read.
    assert two[0] == two[1]
    assert (two[0] == none[0]) == (parse is sniff_granularity)


@pytest.mark.parametrize("last_row, message", [
    ("2015,,,T,A,q,9,ICT\n", "line 6: non-numeric start_page: 'q'"),
    ("2015,,,T,A,1,9\n", "line 6: expected 8 fields, got 7"),
], ids=["non-numeric", "ragged"])
def test_csv_error_names_the_physical_line_after_quoted_newlines(last_row, message):
    # Rows 1 and 2 each hold one quoted newline, so the third row is on line 6.
    raw = (RECORD_HEADER + '\n2013,,,"Two\nlines",A,1,5,ICT\n'
           '2014,,,"Also\ntwo",A,1,5,ICT\n' + last_row).encode()
    with pytest.raises(ParseError) as folded:
        _fold_bytes(raw)
    assert str(folded.value) == message
    with pytest.raises(ParseError) as parsed:
        parse_records(raw)
    assert str(parsed.value) == message


@pytest.mark.parametrize("row, message", [
    (",,,,,,,", None),  # separators only
    (" ,\t, ,\u3000,  , , ,\u00a0", None),  # whitespace only, full width
    ("   ", None),  # whitespace only, one field
    (",,", None),  # short and blank
    (",1,2,T,A,1,2,ICT", "line 3: missing mandatory field 'year'"),
    (" ,1,2,T,A,1,2,ICT", "line 3: missing mandatory field 'year'"),
    (",,,T,A", "line 3: expected 8 fields, got 5"),
], ids=["separators", "whitespace", "whitespace-short", "short", "full-width-values",
        "full-width-values-space", "short-values"])
def test_a_blank_row_is_skipped_and_a_row_with_values_is_parsed(row, message):
    rows = ["2013,1,2,T,A,1,2,ICT\n", row + "\n", "2014,1,2,T,B,3,9,ICT\n"]
    raw = (RECORD_HEADER + "\n" + "".join(rows)).encode()
    if message is None:
        without = (RECORD_HEADER + "\n" + rows[0] + rows[2]).encode()
        assert parse_records(raw) == parse_records(without)
        assert _fold_bytes(raw) == _fold_bytes(without)
        return
    for parse in (_fold_bytes, parse_records):
        with pytest.raises(ParseError) as raised:
            parse(raw)
        assert str(raised.value) == message


#: Clean aggregate rows under AGG_HEADER, one per year from 2000.
_AGG_ROWS = "".join(f"{2000 + i},2,1,1,0,0,0,3,1,1,0,1,1\n" for i in range(40))


def _each_route(raw, format, granularity, tmp_path):
    """What each route that reads *raw* gives: its dataset, or its parse
    message. Record CSV is also loaded split in two parts, which must fork."""
    def outcome(route):
        try:
            return route()
        except ParseError as exc:
            return str(exc)

    parse = parse_records if granularity == "records" else parse_aggregates
    routes = {
        "load": lambda: load(io.BytesIO(raw), format, AnalysisConfig(), granularity)[0],
        "parse": lambda: (aggregate_records(parse(raw, format))[0]
                          if granularity == "records" else parse(raw, format)),
    }
    outcomes = {name: outcome(route) for name, route in routes.items()}
    if format == "csv" and granularity == "records":
        path = tmp_path / "split.csv"
        path.write_bytes(raw)
        forks = Counter()
        fork = os.fork
        with pytest.MonkeyPatch.context() as patch, path.open("rb") as source:
            patch.setattr(ingest, "_SPLIT_BYTES", len(raw) // 2)
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            patch.setattr(os, "fork", lambda: forks.update(["fork"]) or fork())
            outcomes["split"] = outcome(lambda: load(source, "csv", AnalysisConfig(),
                                                     "records")[0])
        assert forks["fork"] == 1
    return outcomes


def _with_row(header, rows, row, at=30):
    """CSV bytes of *header* and *rows* with *row* put before row *at*: on
    line ``at + 2``, in the second half, so in the second part of a split."""
    lines = rows.splitlines(keepends=True)
    return (header + "\n" + "".join(lines[:at]) + row + "".join(lines[at:])).encode()


@pytest.mark.parametrize("granularity, header, rows", [
    ("records", RECORD_HEADER, _record_rows(40)),
    ("aggregates", AGG_HEADER, _AGG_ROWS),
], ids=["records", "aggregates"])
def test_every_route_checks_the_shape_of_a_row_alike(tmp_path, granularity, header, rows):
    width = header.count(",") + 1

    def expect(raw, outcome):
        outcomes = _each_route(raw, "csv", granularity, tmp_path)
        assert outcomes == dict.fromkeys(outcomes, outcome)

    expect(_with_row(header, rows, "2013" + "," * width + "\n"),
           f"line 32: expected {width} fields, got {width + 1}")
    # An extra column: a row blank in every other column is not blank.
    extended = "".join(line + ",\n" for line in rows.splitlines())
    expect(_with_row(header + ",note", extended, "," * width + "x\n"),
           "line 32: missing mandatory field 'year'")
    # Blank and whitespace-only rows, of any width, are skipped.
    clean = _each_route((header + "\n" + rows).encode(), "csv", granularity, tmp_path)["load"]
    blanks = "\n" + " \t\n" + "," * (width - 1) + "\n" + " ," * (width - 1) + "\u3000\n" + ",,\n"
    expect(_with_row(header, rows, blanks), clean)


@pytest.mark.parametrize("granularity, fields", [
    ("records", RECORD_HEADER.split(",")),
    ("aggregates", AGG_HEADER.split(",")),
], ids=["records", "aggregates"])
def test_a_json_element_of_blank_values_is_an_error_not_skipped(tmp_path, granularity, fields):
    element = {name: None if i % 2 else "" for i, name in enumerate(fields)}
    raw = json.dumps([dict.fromkeys(fields, "1") | {"year": 2013}, element]).encode()
    outcomes = _each_route(raw, "json", granularity, tmp_path)
    assert outcomes == dict.fromkeys(outcomes, "element 2: missing mandatory field 'year'")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=";  \t\u3000ab", max_size=12))
def test_split_authors_drops_blank_names_after_trimming(raw):
    assert ingest.split_authors(raw) == tuple(filter(None, map(str.strip, raw.split(";"))))


def test_csv_error_in_the_header_names_its_physical_line():
    # The header's quoted newline puts its stray carriage return on line 2.
    raw = (b'year,"vol\nume",issue,title,authors,start_page,end_page,sub\rject\n'
           b"2013,,,T,A,1,2,ICT\n")
    message = ("line 2: malformed CSV: new-line character seen in unquoted field - "
               "do you need to open the file in universal-newline mode?")
    for parse in (_fold_bytes, parse_records):
        with pytest.raises(ParseError) as raised:
            parse(raw)
        assert str(raised.value) == message


def test_lone_carriage_return_in_an_unquoted_field_exits_2(tmp_path, capsys):
    path = tmp_path / "lone_cr.csv"
    path.write_bytes((RECORD_HEADER + "\n" + _record_rows(3) + "2013,,,T\rX,A,1,2,ICT\n").encode())
    assert main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 5: malformed CSV: new-line character seen in unquoted field - "
        "do you need to open the file in universal-newline mode?\n")


def test_a_row_over_the_field_limit_is_located_on_the_checked_routes(tmp_path, capsys):
    # Aggregate input, on every route, and parse_records read each row
    # through the row checks, not through the fold.
    big = "x" * (csv.field_size_limit() + 1)
    aggregates = (AGG_HEADER + "\n2013,1,1,0,0,0,0,1,1,0,0,1,0\n"
                  f"2014,{big},1,0,0,0,0,1,1,0,0,1,0\n")
    records = RECORD_HEADER + "\n2013,,,T,A,1,2,ICT\n" + f"2014,,,{big},A,1,2,ICT\n"
    message = "line 3: malformed CSV: field larger than field limit (131072)"
    path = tmp_path / "aggregates.csv"
    path.write_text(aggregates)
    assert main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    for parse, text in ((parse_aggregates, aggregates), (parse_records, records)):
        for source in (text, text.encode()):
            with pytest.raises(ParseError) as raised:
                parse(source)
            assert str(raised.value) == message


def test_record_input_loads_in_memory_that_does_not_grow_with_the_records(tmp_path, capsys):
    paths = {}
    for n in (2_000, 20_000):
        paths[n] = tmp_path / f"records_{n}.csv"
        paths[n].write_text(RECORD_HEADER + "\n" + _record_rows(n), encoding="utf-8")
    # An untraced load first fills the interpreter's tuple free lists
    # (bounded, up to 2000 tuples per size), which tracemalloc would
    # otherwise count as growth between the two traced loads.
    assert main(["validate", "--input", str(paths[20_000])]) == 0
    peaks = []
    for n, path in paths.items():
        tracemalloc.start()
        try:
            assert main(["validate", "--input", str(path)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    out = capsys.readouterr().out
    assert out.count("records: 20000  years: 10\nerrors: 0  warnings: 0\n") == 2
    assert "records: 2000  years: 10\nerrors: 0  warnings: 0\n" in out
    assert peaks[1] < 1.5 * peaks[0], peaks


def _load_piped(raw: bytes, read=load):
    """:func:`load`, or *read*, of *raw* read from a pipe, which a thread
    fills so no size blocks it."""
    read_fd, write_fd = os.pipe()

    def write() -> None:
        with open(write_fd, "wb") as pipe:
            pipe.write(raw)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        with open(read_fd, "rb") as pipe:
            return read(pipe)
    finally:
        writer.join()


def _outcome(load_bytes, raw: bytes):
    try:
        return load_bytes(raw)
    except ParseError as exc:
        return f"ParseError: {exc}"


_AGGREGATES = demo_aggregates_path().read_bytes()
_ROW_ERROR = _AGGREGATES.replace(b"\n2013,", b"\n2013,x", 1)


@pytest.mark.parametrize("raw, message", [
    (_AGGREGATES, None),
    (demo_records_path().read_bytes(), None),
    (_ROW_ERROR, "ParseError: line 2: non-numeric papers: 'x"),
    (_ROW_ERROR + b"2018,\xff\n", "ParseError: input is not valid UTF-8: 'utf-8' codec can't"),
], ids=["valid", "valid-records", "row-error", "row-error-then-bad-byte"])
def test_piped_input_loads_as_the_same_bytes_in_memory(raw, message):
    expected = _outcome(lambda r: load(io.BytesIO(r)), raw)
    assert _outcome(_load_piped, raw) == expected
    if message:
        assert expected.startswith(message)
    else:
        assert expected[1].ok
    # Every entry point takes bytes, str, a seekable file and a pipe alike.
    for read in (load, parse_records, parse_aggregates, sniff_granularity):
        outcomes = [_outcome(read, raw), _outcome(lambda r: read(io.BytesIO(r)), raw),
                    _outcome(lambda r: _load_piped(r, read), raw)]
        if b"\xff" not in raw:
            outcomes.append(_outcome(read, raw.decode("utf-8")))
        assert outcomes == [outcomes[0]] * len(outcomes), read.__name__


def test_piped_record_input_loads_in_memory_that_does_not_grow_with_the_records():
    raws = {n: (RECORD_HEADER + "\n" + _record_rows(n)).encode() for n in (2_000, 20_000)}
    _load_piped(raws[20_000])  # fills the free lists first, as in the test above
    peaks = []
    for n, raw in raws.items():
        tracemalloc.start()
        try:
            _, report = _load_piped(raw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (report.record_count, report.ok) == (n, True)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_numerals_that_never_repeat_load_in_memory_that_does_not_grow():
    # The short parse's numeral table is never written: a numeral it lacks
    # is converted and not kept. At both sizes most rows bring two numerals
    # past the table (their pages), and every row two 300-digit ones.
    def raw(n):
        long = "1" + "0" * 290
        rows = "".join(f"{2000 + i % 10},{long}{i:09d},{long}{i + n:09d},T,A,"
                       f"{5 * i + 1},{5 * i + 3},ICT\n" for i in range(n))
        return (RECORD_HEADER + "\n" + rows).encode()

    small, large = 4_500, 20_000
    assert sum(str(5 * i + 1) not in ingest._INTS for i in range(small)) > small / 2
    raws = {n: raw(n) for n in (small, large)}
    _fold_bytes(raws[large])  # fills the free lists first, as in the tests above
    peaks = []
    for n, data in raws.items():
        tracemalloc.start()
        try:
            _, report = _fold_bytes(data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (report.record_count, report.ok) == (n, True)
    assert peaks[1] < 1.5 * peaks[0], peaks
    assert max(peaks) < 2_000_000, peaks
