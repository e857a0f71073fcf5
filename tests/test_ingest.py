"""Parsing, validation, and the record-to-aggregate bridge."""

import csv
import io
import json

import pytest

from scientoscope import (
    AnalysisConfig,
    ParseError,
    aggregate_records,
    expand_author_counts,
    parse_aggregates,
    parse_records,
    sniff_granularity,
    validate,
    write_aggregates_csv,
)
from scientoscope.cli import demo_records_path
from scientoscope.ingest import MAX_COUNT

RECORD_HEADER = "year,volume,issue,title,authors,start_page,end_page,subject"
AGG_HEADER = ("year,papers,a1,a2,a3,a4,a5plus,total_authors,p1to5,p6to10,pabove10,"
              "subj:A,subj:B")


def test_parse_record_row_maps_fields():
    csv_text = (RECORD_HEADER + "\n"
                '2013,33,5,Some Title,A. Kumar; B. Singh,412,417,"Scientometrics, Bibliometrics"\n')
    ds = parse_records(csv_text)
    (rec,) = ds.records
    assert rec.year == 2013
    assert rec.volume == 33 and rec.issue == 5
    assert rec.authors == ("A. Kumar", "B. Singh")
    assert rec.n_authors == 2
    assert rec.start_page == 412 and rec.end_page == 417
    assert rec.page_count == 6
    assert rec.subject == "Scientometrics, Bibliometrics"


def test_parse_record_single_author():
    ds = parse_records(RECORD_HEADER + "\n2013,,,T,A. Kumar,,,Subj\n")
    assert ds.records[0].n_authors == 1
    assert ds.records[0].start_page is None  # empty optionals are absent, not zero


def test_parse_record_author_count_overrides():
    header = RECORD_HEADER + ",author_count"
    ds = parse_records(header + "\n2013,,,T,,,,Subj,4\n")
    assert ds.records[0].n_authors == 4
    assert ds.records[0].authors is None


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
    ds = parse_records(json.dumps(data), format="json")
    assert ds.records[0].authors == ("Kumar, A.", "Singh, B.")
    assert ds.records[0].page_count == 5


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
    report = validate(ds, window=(2013, 2017))
    assert any(f.rule == "year-window" for f in report.errors)


def test_validate_page_count_span_mismatch():
    data = json.dumps([{"year": 2013, "title": "T", "subject": "S",
                        "authors": "A", "start_page": 1, "end_page": 5,
                        "page_count": 99}])
    report = validate(parse_records(data, format="json"))
    assert any(f.rule == "page-count" for f in report.errors)


def test_parse_records_json_string_authors():
    data = json.dumps([{"year": 2013, "title": "T", "subject": "S",
                        "authors": "Kumar, A.; Singh, B."}])
    ds = parse_records(data, format="json")
    assert ds.records[0].authors == ("Kumar, A.", "Singh, B.")


def test_parse_aggregates_sorted_and_consistent():
    text = (AGG_HEADER + "\n"
            "2014,2,1,1,0,0,0,3,1,1,0,1,1\n"
            "2013,1,1,0,0,0,0,1,1,0,0,1,0\n")
    ds = parse_aggregates(text)
    assert [a.year for a in ds.aggregates] == [2013, 2014]
    assert ds.study_window == (2013, 2014)
    assert validate(ds).ok


def test_parse_aggregates_empty_is_parse_error():
    with pytest.raises(ParseError, match="empty dataset"):
        parse_aggregates(AGG_HEADER + "\n")


def test_validate_duplicate_year():
    text = (AGG_HEADER + "\n"
            "2013,1,1,0,0,0,0,1,1,0,0,1,0\n"
            "2013,1,1,0,0,0,0,1,1,0,0,1,0\n")
    report = validate(parse_aggregates(text))
    assert any(f.rule == "duplicate-year" for f in report.errors)


def test_validate_year_gap():
    text = (AGG_HEADER + "\n"
            "2013,1,1,0,0,0,0,1,1,0,0,1,0\n"
            "2015,1,1,0,0,0,0,1,1,0,0,1,0\n")
    report = validate(parse_aggregates(text))
    assert any(f.rule == "year-gap" and f.location == "2014" for f in report.errors)
    records = parse_records(RECORD_HEADER + "\n2013,,,T1,A,1,2,ICT\n2015,,,T2,A,1,2,ICT\n")
    report = validate(records)
    assert [(f.location, f.rule) for f in report.errors] == [("2014", "year-gap")]
    assert (report.record_count, report.year_count) == (2, 2)


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
    records = parse_records("year,title,authors,subject,volume,issue,start_page,end_page,"
                            f"author_count\n2013,T,,ICT,,,,,{big}\n")
    assert [f.rule for f in validate(records).errors] == ["count-range"]


def test_bin_sum_mismatch_lenient_vs_strict():
    text = AGG_HEADER + "\n2013,2,1,0,0,0,0,1,2,0,0,2,0\n"  # authorship bins sum 1 != 2
    ds = parse_aggregates(text)
    lenient = validate(ds)
    assert lenient.ok
    assert any(f.rule == "authorship-bin-sum" for f in lenient.warnings)
    strict = validate(ds, strict=True)
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


def test_expand_author_counts_reproduces_author_totals(demo_dataset):
    # Bin-weighted expansion with the 5+ bin valued at 5 matches the
    # dataset's recorded author totals for every year.
    for agg in demo_dataset.aggregates:
        assert sum(expand_author_counts(agg)) == agg.total_authors


def test_aggregates_csv_round_trip(demo_dataset):
    assert parse_aggregates(write_aggregates_csv(demo_dataset)) == demo_dataset


def test_sniff_granularity():
    assert sniff_granularity(AGG_HEADER + "\n") == "aggregates"
    assert sniff_granularity(RECORD_HEADER + "\n") == "records"
    # Only the CSV header is decoded; the parse reports the bad byte.
    raw = (RECORD_HEADER + "\n2013,,,T,A,1,2,ICT\n").encode() + b"2014,,,\xff,A,1,2,ICT\n"
    assert sniff_granularity(raw) == "records"
    with pytest.raises(ParseError, match="input is not valid UTF-8"):
        parse_records(raw)


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


def test_aggregate_requires_records():
    config = AnalysisConfig()
    with pytest.raises(ValueError):
        aggregate_records(
            parse_aggregates(AGG_HEADER + "\n2013,1,1,0,0,0,0,1,1,0,0,1,0\n"), config
        )
