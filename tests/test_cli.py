"""Command-line behavior: commands, exit codes, determinism, config."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scientoscope import (
    AnalysisConfig,
    ColumnSpec,
    ReportTable,
    cli,
    parse_aggregates,
    year_distribution_table,
)
from scientoscope.cli import demo_aggregates_path, demo_records_path, main
from scientoscope.config import config_from_dict
from scientoscope.golden import GoldenCheck, check_outcome, conformance_lines, run_conformance
from scientoscope.ingest import RECORD_FIELDS

AGG_PATH = str(demo_aggregates_path())
REC_PATH = str(demo_records_path())


def _without_2015(source, tmp_path):
    """Copy of a bundled demo file without its 2015 rows."""
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / f"no_2015_{source.name}"
    path.write_text("".join(line for line in lines if not line.startswith("2015,")))
    return str(path)


def test_validate_demo_lenient(capsys):
    rc = main(["validate", "--input", AGG_PATH])
    out = capsys.readouterr().out
    assert rc == 0
    assert "warnings: 1" in out
    assert "authorship-bin-sum" in out and "2017" in out


def test_validate_strict_promotes_warning():
    assert main(["validate", "--strict", "--input", AGG_PATH]) == 1


def test_validate_garbage_exits_2(tmp_path, capsys):
    bad = tmp_path / "garbage.csv"
    bad.write_text("not,a,real\nheader,at,all\n")
    assert main(["validate", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_missing_file_exits_2():
    assert main(["validate", "--input", "/nonexistent/file.csv"]) == 2


def test_validate_json_format(capsys):
    rc = main(["validate", "--input", AGG_PATH, "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accepted"] is True
    assert doc["warnings"][0]["rule"] == "authorship-bin-sum"


def test_analyze_table_6_paper_mode(capsys):
    rc = main(["analyze", "--input", AGG_PATH, "--mode", "paper",
               "--table", "6", "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("# scientoscope")
    assert "mode=paper" in out and "config=" in out
    assert "0.61" in out and "1.78" in out


def test_analyze_all_tables_json(capsys):
    rc = main(["analyze", "--input", AGG_PATH, "--table", "all", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["tables"]) == 8
    assert doc["meta"]["mode"] == "paper"
    assert "timestamp" not in doc["meta"]


def test_analyze_records_input_aggregates_implicitly(capsys):
    rc = main(["analyze", "--input", REC_PATH, "--table", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Authorship pattern" in captured.out
    assert "unknown-subject" in captured.err  # warnings go to stderr


def test_analyze_records_all_tables(capsys):
    rc = main(["analyze", "--input", REC_PATH, "--table", "all"])
    captured = capsys.readouterr()
    assert rc == 0
    title_rules = [line for line in captured.out.splitlines() if line and set(line) == {"="}]
    assert len(title_rules) == 8  # every table rendered


def test_printed_ci_errors_on_year_without_single_author(tmp_path, capsys):
    header = "year,papers,a1,a2,a3,a4,a5plus,total_authors,p1to5,p6to10,pabove10,subj:A\n"
    path = tmp_path / "no_single.csv"
    path.write_text(header + "2013,1,0,1,0,0,0,2,1,0,0,1\n")
    rc = main(["analyze", "--input", str(path), "--table", "4"])
    assert rc == 1
    assert "no single-authored papers" in capsys.readouterr().err


def test_analyze_table3_without_author_totals(tmp_path, capsys):
    header = ("year,papers,a1,a2,a3,a4,a5plus,total_authors,p1to5,p6to10,pabove10,subj:A\n")
    path = tmp_path / "no_authors.csv"
    path.write_text(header + "2013,1,1,0,0,0,0,,1,0,0,1\n")
    rc = main(["analyze", "--input", str(path), "--table", "3"])
    assert rc == 1
    assert "author totals unavailable" in capsys.readouterr().err


def test_analyze_bad_table_number():
    assert main(["analyze", "--input", AGG_PATH, "--table", "9"]) == 2


def test_analyze_byte_identical_runs(capsys):
    main(["analyze", "--input", AGG_PATH, "--table", "all", "--format", "text"])
    first = capsys.readouterr().out
    main(["analyze", "--input", AGG_PATH, "--table", "all", "--format", "text"])
    second = capsys.readouterr().out
    assert first == second


def test_timestamp_is_opt_in(tmp_path, capsys):
    stamp = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00"
    main(["analyze", "--input", AGG_PATH, "--table", "1"])
    line = capsys.readouterr().out.splitlines()[0]
    assert line.count("|") == 2  # version, mode, config hash only
    main(["analyze", "--input", AGG_PATH, "--table", "1", "--timestamp"])
    stamped = capsys.readouterr().out.splitlines()[0]
    assert stamped.count("|") == 3
    assert re.fullmatch(stamp, stamped.rsplit(" | ", 1)[1])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ci_variant": "stated"}))
    main(["analyze", "--input", AGG_PATH, "--table", "1", "--timestamp", "--format", "json",
          "--config", str(cfg)])
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert list(meta) == ["toolkit", "mode", "config_hash", "overrides", "timestamp"]
    assert re.fullmatch(stamp, meta["timestamp"])


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "standard", "table": "6"}))
    rc = main(["analyze", "--input", AGG_PATH, "--config", str(cfg), "--table", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mode=standard" in out          # file beats default
    assert "Exponential growth" in out     # flag (table 5) beats file (table 6)
    assert "Relative growth" not in out


def test_a_config_file_turns_on_strict_and_timestamp_without_the_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strict": True, "timestamp": True}))
    assert main(["validate", "--input", AGG_PATH]) == 0  # a bin-sum warning
    assert main(["validate", "--input", AGG_PATH, "--config", str(cfg)]) == 1
    capsys.readouterr()
    assert main(["schema", "--show-config", "--config", str(cfg)]) == 0
    shown, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert shown["run"]["timestamp"] is True


def test_indicator_override_echoed_in_metadata(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "paper", "ci_variant": "stated"}))
    rc = main(["analyze", "--input", AGG_PATH, "--config", str(cfg), "--table", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overrides: ci_variant=stated" in out.splitlines()[0]
    assert "1.73" in out  # stated CI for the first year


def test_totals_source_override_applies_to_table3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"totals_source": "full_precision"}))
    rc = main(["analyze", "--input", AGG_PATH, "--config", str(cfg), "--mode", "paper",
               "--table", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overrides: totals_source=full_precision" in out.splitlines()[0]
    total = next(line for line in out.splitlines() if line.startswith("Total"))
    assert total.split()[-2:] == ["1.94", "0.51"]  # pooled, not the summed 9.65 / 2.60
    assert "Totals row pools all years" in out


def test_records_with_missing_year_fail_the_gap_rule(tmp_path, capsys):
    # Without its 2015 rows the demo would print EGR and CAGR over a bridged 2014 -> 2016.
    rc = main(["analyze", "--input", _without_2015(demo_records_path(), tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    # No page-bin-sum warning, and no bridge warnings after the error.
    assert captured.err == "ERROR   [year-gap] 2015: gap at 2015\n"
    assert captured.out == ""


def test_validate_records_with_missing_year_fails(tmp_path, capsys):
    rc = main(["validate", "--input", _without_2015(demo_records_path(), tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "ERROR   [year-gap] 2015: gap at 2015" in out


def test_reproduce_paper_rejects_aggregates_with_missing_year(tmp_path, capsys):
    path = _without_2015(demo_aggregates_path(), tmp_path)
    rc = main(["reproduce-paper", "--mode", "standard", "--input", path])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "ERROR   [year-gap] 2015: gap at 2015" in captured.err


def test_reproduce_paper_bridges_record_input(capsys):
    rc = main(["reproduce-paper", "--mode", "standard", "--input", REC_PATH])
    captured = capsys.readouterr()
    assert rc == 0
    title_rules = [line for line in captured.out.splitlines() if line and set(line) == {"="}]
    assert len(title_rules) == 8
    assert "unknown-subject" in captured.err


def _finding_lines(text):
    return [line for line in text.splitlines() if line.startswith(("ERROR ", "WARNING "))]


@pytest.mark.parametrize("granularity", ["aggregates", "records"])
@pytest.mark.parametrize("flags", [[], ["--strict"]])
def test_every_command_reports_the_same_findings(granularity, flags, capsys):
    path = AGG_PATH if granularity == "aggregates" else REC_PATH
    validate_rc = main(["validate", "--input", path, *flags])
    findings = _finding_lines(capsys.readouterr().out)
    assert findings
    for command in (["analyze"], ["reproduce-paper", "--mode", "standard"]):
        rc = main([*command, "--input", path, *flags])
        assert capsys.readouterr().err.splitlines() == findings
        assert rc == validate_rc


def test_counts_beyond_decimal_precision_do_not_crash(tmp_path, capsys):
    header = "year,papers,a1,a2,a3,a4,a5plus,total_authors,p1to5,p6to10,pabove10,subj:A\n"
    path = tmp_path / "huge.csv"
    path.write_text(header + f"2013,1,1,0,0,0,0,{10**27},1,0,0,1\n"
                    + f"2014,{10**27},{10**27},0,0,0,0,{10**27},{10**27},0,0,{10**27}\n")
    rc = main(["analyze", "--input", str(path), "--table", "all"])
    assert rc in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[" * 200_000, "invalid JSON: nested too deeply"),
    ('[{"year": ' + "9" * 5000 + "}]", "invalid JSON: Exceeds the limit (4300 digits)"),
])
def test_json_the_decoder_cannot_hold_exits_2(text, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_bad_utf8_after_the_csv_header_exits_2(tmp_path, capsys):
    path = tmp_path / "bad_bytes.csv"
    path.write_bytes(demo_records_path().read_bytes() + b"2017,,,\xff,A,1,2,ICT\n")
    assert main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: input is not valid UTF-8: ")


def _demo_json(path):
    """A bundled demo CSV file as a JSON list of objects, every value a string."""
    rows = csv.DictReader(io.StringIO(path.read_text(encoding="utf-8")))
    return json.dumps(list(rows)).encode()


def _demo_records_json():
    return _demo_json(demo_records_path())


@pytest.mark.parametrize("name, raw", [
    ("records.csv", lambda: demo_records_path().read_bytes()),
    ("aggregates.csv", lambda: demo_aggregates_path().read_bytes()),
    ("records.json", _demo_records_json),
], ids=["records-csv", "aggregates-csv", "records-json"])
def test_a_leading_byte_order_mark_is_not_part_of_the_input(name, raw, tmp_path, capsys):
    # Excel's "CSV UTF-8" export starts the file with one.
    path = tmp_path / name
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + raw())
        results.append((main(["analyze", "--input", str(path)]), capsys.readouterr()))
    assert results[0][0] == 0
    assert results[1] == results[0]


def test_counts_beyond_the_float_range_exit_1(tmp_path, capsys):
    header = "year,papers,a1,a2,a3,a4,a5plus,total_authors,p1to5,p6to10,pabove10,subj:A\n"
    path = tmp_path / "overflow.csv"
    path.write_text(header + f"2013,{10**400},1,0,0,0,0,1,1,0,0,1\n")
    assert main(["analyze", "--input", str(path)]) == 1
    assert "ERROR   [count-range] 2013: papers is above 9007199254740992" in capsys.readouterr().err


def test_json_element_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "numbers.json"
    path.write_text("[1, 2]")
    assert main(["analyze", "--input", str(path)]) == 2
    assert "error: element 1: input element must be an object" in capsys.readouterr().err


def test_csv_field_over_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "long_title.csv"
    path.write_text("year,volume,issue,title,authors,start_page,end_page,subject\n"
                    f"2013,,,{'T' * 200_000},A,1,2,ICT\n")
    assert main(["analyze", "--input", str(path)]) == 2
    assert ("error: line 2: malformed CSV: field larger than field limit"
            in capsys.readouterr().err)


def test_granularity_flag_overrides_sniffing(capsys):
    rc = main(["analyze", "--input", AGG_PATH, "--table", "1",
               "--granularity", "aggregates"])
    assert rc == 0
    assert "Articles published per year" in capsys.readouterr().out


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # Windows editors save UTF-8 with one.
    cfg = tmp_path / "cfg.json"
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        cfg.write_bytes(bom + json.dumps({"mode": "standard"}).encode())
        results.append((main(["analyze", "--input", AGG_PATH, "--config", str(cfg)]),
                        capsys.readouterr()))
    assert results[0][0] == 0
    assert "mode=standard" in results[0][1].out
    assert results[1] == results[0]


@pytest.mark.parametrize("raw, message", [
    (b"[" * 100_000, "nested too deeply"),
    (b'{"mode": ' + b"9" * 5000 + b"}", "Exceeds the limit (4300 digits) for integer string"),
    (b'{"mode": "pa\xffper"}', "'utf-8' codec can't decode byte 0xff in position 12"),
], ids=["nested", "digits", "bad-byte"])
def test_a_config_file_the_decoder_cannot_read_exits_2(raw, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    assert main(["analyze", "--input", AGG_PATH, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: cannot read config file {cfg}: {message}")


def test_config_env_var_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env_cfg.json"
    cfg.write_text(json.dumps({"mode": "standard"}))
    monkeypatch.setenv("SCIENTOSCOPE_CONFIG", str(cfg))
    main(["analyze", "--input", AGG_PATH, "--table", "1"])
    assert "mode=standard" in capsys.readouterr().out


@pytest.mark.parametrize("key, value, shape", [
    ("study_window", 5, "[first, last]"),
    ("study_window", [True, 2017], "[first, last]"),
    ("study_window", [2013.9, 2017], "[first, last]"),
    ("study_window", [2017, 2013], "[first, last]"),
    ("study_window", ["2013", "2017"], "[first, last]"),
    ("taxonomy", 5, "distinct one-line labels that include 'Others'"),
    ("absent_marker", 5, "a string without line breaks"),
    ("absent_marker", "n/\na", "a string without line breaks"),
    ("absent_marker", "n/a\u2028", "a string without line breaks"),
])
def test_config_value_of_wrong_shape_exits_1(key, value, shape, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["analyze", "--input", AGG_PATH, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: invalid {key}: {value!r} (expected {shape})\n"


@pytest.mark.parametrize("data, key", [
    ({"totals_sorce": "full_precision"}, "totals_sorce"),
    ({"page_bins": [[1, 2], [3, None]], "mode": "paper"}, "page_bins"),
    ({"zeta": 1, "alpha": 2, "input": REC_PATH}, "alpha"),
])
def test_config_unknown_key_exits_1(data, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["analyze", "--input", REC_PATH, "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: unknown config key: {key!r}\n")


@pytest.mark.parametrize("key, value, valid", [
    ("granularity", "recs", "('records', 'aggregates')"),
    ("format", "xml", "('text', 'csv', 'json', 'markdown')"),
])
def test_config_run_value_checked_before_input_is_read(key, value, valid, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["analyze", "--input", REC_PATH, "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: invalid {key}: {value!r} (expected one of {valid})\n")


@pytest.mark.parametrize("flags, data, code, message", [
    (["--table", ""], {}, 2, "invalid table selection: '' (expected 1-8 or 'all')"),
    ([], {"table": 0}, 2, "table number out of range: 0 (expected 1-8)"),
    ([], {"table": ""}, 2, "invalid table selection: '' (expected 1-8 or 'all')"),
    ([], {"format": ""}, 1,
     "invalid format: '' (expected one of ('text', 'csv', 'json', 'markdown'))"),
    ([], {"input": 0}, 1, "invalid input: 0 (expected a path)"),
    ([], {"input": None}, 2, "no input file given (use --input)"),  # null is unset
])
def test_a_falsy_run_value_is_a_value_not_unset(flags, data, code, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": AGG_PATH, **data}))
    assert main(["analyze", *flags, "--config", str(cfg)]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("taxonomy", [["A", "A", "Others"], ["A", "B"], ["Others", 1],
                                      ["A\nB", "Others"], ["A\n", "Others"], ["", "Others"]])
def test_config_taxonomy_needs_distinct_labels_and_others(taxonomy, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"taxonomy": taxonomy}))
    assert main(["analyze", "--input", REC_PATH, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid taxonomy: {taxonomy!r} "
        "(expected distinct one-line labels that include 'Others')\n")


def test_config_input_that_is_not_a_path_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": 5}))
    assert main(["analyze", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: invalid input: 5 (expected a path)\n"


@pytest.mark.parametrize("key", ["strict", "timestamp"])
@pytest.mark.parametrize("value", ["no", "false", 1, 0, [], {}])
def test_config_switch_that_is_not_a_boolean_exits_1(key, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main(["analyze", "--input", AGG_PATH, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid {key}: {value!r} (expected true or false)\n"


@pytest.mark.parametrize("value", ["no", "false", 1, 0, [], {}])
def test_config_from_dict_takes_only_a_boolean_strict(value):
    with pytest.raises(ValueError) as excinfo:
        config_from_dict({"strict": value})
    assert str(excinfo.value) == f"invalid strict: {value!r} (expected true or false)"
    assert config_from_dict({"strict": True}).strict is True
    assert config_from_dict({"strict": None}) == config_from_dict({}) == config_from_dict(
        {"strict": False})


def test_config_switches_set_to_false_change_nothing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strict": False, "timestamp": False}))
    assert main(["analyze", "--input", AGG_PATH, "--config", str(cfg)]) == 0
    with_file = capsys.readouterr()
    assert main(["analyze", "--input", AGG_PATH]) == 0
    assert capsys.readouterr() == with_file


def test_config_study_window_enforced(tmp_path, capsys):
    cfg = tmp_path / "window.json"
    cfg.write_text(json.dumps({"study_window": [2014, 2017]}))
    rc = main(["validate", "--input", AGG_PATH, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "year-window" in out and "2013" in out


def test_aggregate_labels_outside_the_taxonomy_count_under_others(tmp_path, capsys):
    cfg = tmp_path / "taxonomy.json"
    cfg.write_text(json.dumps({"taxonomy": ["Webometrics", "Others"]}))
    assert main(["validate", "--input", AGG_PATH, "--config", str(cfg)]) == 0
    findings = _finding_lines(capsys.readouterr().out)
    assert ("WARNING [unknown-subject] 2013: subject 'Scientometrics, Bibliometrics' "
            "not in taxonomy; counted under 'Others'") in findings
    assert sum("[unknown-subject]" in line for line in findings) == 53
    rc = main(["analyze", "--table", "8", "--format", "csv", "--input", AGG_PATH,
               "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err.splitlines() == findings
    assert captured.out.splitlines()[2:] == [
        "Subject,2013,2014,2015,2016,2017,Total",
        "Webometrics,1,0,2,0,2,5",
        "Others,32,63,42,36,49,222",
        "Total,33,63,44,36,51,227",
    ]


def test_show_config_prints_effective_settings(capsys):
    rc = main(["analyze", "--input", AGG_PATH, "--table", "1", "--show-config",
               "--mode", "standard"])
    out = capsys.readouterr().out
    assert rc == 0
    start = out.index("{")
    doc = json.loads(out[start:out.index("\n# ")])
    assert doc["analysis"]["mode"] == "standard"
    assert doc["analysis"]["rgr_mode"] == "standard"
    assert doc["run"]["table"] == "1"
    assert doc["config_hash"]


def test_reproduce_paper_passes(capsys):
    rc = main(["reproduce-paper"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "golden checks:" in out
    assert ", 0 failed," in out
    assert "[FAIL]" not in out
    assert out.count("[EXEMPT]") == 6


def test_verbose_conformance_adds_one_pass_line_per_passed_check(demo_dataset, paper_config):
    tables = [build(demo_dataset, paper_config) for build in cli._TABLE_BUILDERS.values()]
    result = run_conformance(tables, paper_config)
    quiet, verbose = conformance_lines(result), conformance_lines(result, verbose=True)
    passes = [line for line in verbose if line.startswith("[PASS]")]
    assert len(verbose) - len(quiet) == len(passes) == result.n_passed == 297
    assert [line for line in verbose if not line.startswith("[PASS]")] == quiet
    assert passes[0] == "[PASS]   table 1 / 2013 / papers: 33"


def test_reproduce_paper_standard_mode_skips_goldens(capsys):
    rc = main(["reproduce-paper", "--mode", "standard"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "standard mode: golden comparison skipped" in out
    assert "golden checks:" not in out


def test_reproduce_paper_negative_control(tmp_path, capsys):
    # One perturbed cell: the 2015 author total 91 -> 92.
    corrupted = demo_aggregates_path().read_text(encoding="utf-8").replace(",91,", ",92,")
    path = tmp_path / "corrupted.csv"
    path.write_text(corrupted, encoding="utf-8")
    rc = main(["reproduce-paper", "--input", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]   table 3 / 2015 / authors: expected 91, got 92" in out


def test_reproduce_paper_checks_the_printed_tables(tmp_path, capsys):
    # An override that departs from the paper conventions changes the printed CI.
    cfg = tmp_path / "stated.json"
    cfg.write_text(json.dumps({"ci_variant": "stated"}))
    rc = main(["reproduce-paper", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]   table 4 / 2013 / CI: expected 1.3600, got 1.7273" in out


def test_golden_check_on_a_missing_column_fails():
    config = AnalysisConfig()
    table = year_distribution_table(parse_aggregates(demo_aggregates_path().read_bytes()))
    check = GoldenCheck(1, "2013 / cum. papers", None, tol=0)  # expects the absent cell
    assert check_outcome(check, [table], config).status == "pass"
    renamed = [ColumnSpec("Cumulative", c.kind) if c.header == "Cum. papers" else c
               for c in table.columns]
    renamed_table = ReportTable(table.title, renamed, table.rows, table.footer, table.notes)
    outcome = check_outcome(check, [renamed_table], config)
    assert outcome.status == "fail"
    assert outcome.problem == "table 1 has no column 'Cum. papers'"


def test_reproduce_paper_json(capsys):
    rc = main(["reproduce-paper", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["tables"]) == 8
    assert doc["conformance"]["failed"] == 0
    assert doc["conformance"]["exempted"] == 6
    assert not any("problem" in check for check in doc["conformance"]["checks"])


def test_reproduce_paper_json_keeps_the_reason_a_check_failed(monkeypatch, capsys):
    def renamed_table_1(dataset, config):
        table = year_distribution_table(dataset)
        columns = [ColumnSpec("Cumulative", c.kind) if c.header == "Cum. papers" else c
                   for c in table.columns]
        return ReportTable(table.title, columns, table.rows, table.footer, table.notes)

    monkeypatch.setitem(cli._TABLE_BUILDERS, 1, renamed_table_1)
    rc = main(["reproduce-paper", "--format", "json"])
    assert rc == 1
    checks = json.loads(capsys.readouterr().out)["conformance"]["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert [c["name"] for c in failed] == [f"table 1 / {y} / cum. papers"
                                           for y in range(2013, 2018)]
    assert all(c["actual"] is None and c["problem"] == "table 1 has no column 'Cum. papers'"
               for c in failed)
    assert not any("problem" in c for c in checks if c["status"] != "fail")


def test_indicators_command(capsys):
    rc = main(["indicators", "--input", AGG_PATH])
    out = capsys.readouterr().out
    assert rc == 0
    for title in ("Author productivity", "Degree of collaboration",
                  "Exponential growth", "Relative growth"):
        assert title in out
    assert "Articles published per year" not in out


def test_schema_command(capsys):
    rc = main(["schema"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "year,volume,issue,title,authors,start_page,end_page,subject" in out
    assert "year,papers,a1,a2,a3,a4,a5plus" in out
    assert "subj:Scientometrics, Bibliometrics" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_schema_headers_read_back_as_csv(fmt, capsys):
    assert main(["schema", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        doc = json.loads(out)
        record_header, aggregate_header = doc["records_csv"], doc["aggregates_csv"]
    else:
        lines = out.splitlines()
        record_header, aggregate_header = lines[1].strip(), lines[3].strip()
    assert record_header.endswith("[,author_count][,page_count]")
    assert next(csv.reader([record_header.partition("[")[0]])) == list(RECORD_FIELDS)
    # The header and one row of zeros parse back with every taxonomy label.
    width = len(next(csv.reader([aggregate_header])))
    dataset = parse_aggregates(aggregate_header + "\n2013" + ",0" * (width - 1) + "\n")
    assert list(dataset.aggregates[0].subject_counts) == list(AnalysisConfig().taxonomy)


# Every option unset: a config file may then set each one, `strict` and
# `timestamp` to true included.
_UNSET = {"input": None, "format": None, "mode": None, "table": None, "strict": None,
          "config": None, "show_config": False, "granularity": None, "timestamp": None}


@pytest.mark.parametrize("argv, parsed", [
    # The README's usage lines.
    ("validate --input data.csv --strict --format json",
     {"command": "validate", "input": Path("data.csv"), "strict": True, "format": "json"}),
    ("analyze --input data.csv --table 3 --mode standard --format markdown",
     {"command": "analyze", "input": Path("data.csv"), "table": "3", "mode": "standard",
      "format": "markdown"}),
    ("indicators --input data.csv", {"command": "indicators", "input": Path("data.csv")}),
    ("reproduce-paper", {"command": "reproduce-paper"}),
    ("reproduce-paper --input data.csv",
     {"command": "reproduce-paper", "input": Path("data.csv")}),
    ("schema", {"command": "schema"}),
    # The benchmark's.
    ("analyze --table all --input F", {"command": "analyze", "table": "all", "input": Path("F")}),
    ("analyze --table all --input F --format json",
     {"command": "analyze", "table": "all", "input": Path("F"), "format": "json"}),
    ("reproduce-paper --format json", {"command": "reproduce-paper", "format": "json"}),
    # Every option.
    ("validate --input F --format csv --mode paper --table all --strict --config c.json "
     "--show-config --granularity records --timestamp",
     {"command": "validate", "input": Path("F"), "format": "csv", "mode": "paper",
      "table": "all", "strict": True, "config": Path("c.json"), "show_config": True,
      "granularity": "records", "timestamp": True}),
])
def test_the_cli_parses_each_documented_argv(argv, parsed):
    words = argv.split()
    assert vars(cli._build_parser().parse_args(words)) == {**_UNSET, **parsed}
    # An option may come before the command word as well as after it.
    moved = [*words[1:], words[0]]
    assert vars(cli._build_parser().parse_args(moved)) == {**_UNSET, **parsed}


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--input", AGG_PATH], "the following arguments are required: command"),
    (["analyse", "--input", AGG_PATH],
     "argument command: invalid choice: 'analyse' (choose from 'validate', 'analyze', "
     "'indicators', 'reproduce-paper', 'schema')"),
])
def test_no_command_or_an_unknown_one_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()[-1]) == ("", f"scientoscope: error: {message}")


def test_help_lists_every_command_and_version_prints_the_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["-h"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name, (_, help_line) in cli._COMMANDS.items():
        assert f"  {name} " in out and help_line in out
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == f"scientoscope {cli.__version__}\n"


@pytest.mark.parametrize("command", ["analyze", "indicators", "reproduce-paper", "validate",
                                     "schema"])
@pytest.mark.parametrize("mode", ["paper", "standard"])
@pytest.mark.parametrize("path", [AGG_PATH, REC_PATH], ids=["aggregates", "records"])
def test_json_output_is_one_document(command, mode, path, capsys):
    main([command, "--format", "json", "--mode", mode, "--input", path])
    doc = json.loads(capsys.readouterr().out)  # raises on anything after the document
    if command == "reproduce-paper":
        assert (doc["conformance"] is None) == (mode == "standard")


@pytest.mark.parametrize("path", [demo_records_path(), demo_aggregates_path()],
                         ids=["records", "aggregates"])
def test_a_json_input_is_decoded_once(path, tmp_path, capsys, monkeypatch):
    # json.loads makes one raw_decode call per document it decodes.
    json_path = tmp_path / f"{path.stem}.json"
    json_path.write_bytes(_demo_json(path))
    calls = []

    def counted(self, *args, real=json.JSONDecoder.raw_decode, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
    assert main(["analyze", "--input", str(json_path)]) == 0
    assert capsys.readouterr().out
    assert len(calls) == 1


def test_a_closed_stdout_pipe_exits_1_without_a_traceback():
    # As in `scientoscope analyze ... | head -1`, when head exits first:
    # here the reader is gone before the first write.
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.Popen(
        [sys.executable, "-c", "from scientoscope.cli import entry; entry()",
         "analyze", "--input", AGG_PATH, "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)))
    child.stdout.close()
    stderr = child.stderr.read().decode()
    assert child.wait(timeout=60) == 1
    assert "Traceback" not in stderr
    assert "Error" not in stderr


@pytest.mark.parametrize("pages, code", [(None, 0), (("15", "14"), 1), (("q", "24"), 2)],
                         ids=["reproduce-paper", "rule-error", "page-q"])
def test_entry_exits_through_atexit_handlers_with_main_s_output(pages, code, tmp_path, capsys):
    # sys.exit runs atexit handlers and flushes both streams; os._exit would do neither.
    argv = ["reproduce-paper"]
    if pages:  # the bundled records with new start and end pages in the last row
        rows = list(csv.reader(io.StringIO(Path(REC_PATH).read_text(encoding="utf-8"))))
        rows[-1][rows[0].index("start_page")], rows[-1][rows[0].index("end_page")] = pages
        path = tmp_path / "records.csv"
        with path.open("w", encoding="utf-8", newline="") as out:
            csv.writer(out).writerows(rows)
        argv = ["analyze", "--table", "all", "--input", str(path)]
    assert main(argv) == code
    expected = capsys.readouterr()
    marker = "atexit handler ran\n"
    script = ("import atexit, sys\n"
              f"atexit.register(lambda: sys.stderr.write({marker!r}))\n"
              "from scientoscope.cli import entry; entry()")
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                           timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (child.returncode, child.stdout, child.stderr) == (
        code, expected.out, expected.err + marker)


def test_an_input_too_large_for_the_memory_left_exits_2_without_a_traceback(tmp_path):
    # On 64-bit Linux with Python 3.11 the CLI starts in about 30 MB of
    # address space, and decoding this 22 MB of JSON takes about 450 MB.
    # The limit is set in the child only.
    resource = pytest.importorskip("resource")
    limit = 128 << 20
    path = tmp_path / "large.json"
    path.write_bytes(b"[" + b'{"year":1},' * 1_999_999 + b'{"year":1}]')
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", "from scientoscope.cli import entry; entry()",
         "validate", "--input", str(path)], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (child.returncode, child.stdout, child.stderr) == (
        2, "", f"error: out of memory loading {path}\n")


def test_importing_the_cli_loads_no_process_or_thread_machinery():
    # The split load in ingest forks with os and sends with marshal, which
    # need none of these. Run without site, which may load threading itself.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import scientoscope.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures', 'pickle', 'threading'}\n"
            "             & (set(sys.modules) - before)),\n"
            "      'threading' in before)")
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert child.stdout == "[] False\n"


def test_only_record_input_imports_the_record_fold():
    # reproduce-paper and every aggregate load run without compiling
    # scientoscope.fold; the first record load imports it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import contextlib, csv, io, json, sys\n"
            "from scientoscope.cli import demo_aggregates_path, demo_records_path, main\n"
            "from scientoscope.ingest import load\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['reproduce-paper']) == 0\n"
            "raw = demo_aggregates_path().read_text()\n"
            "as_json = json.dumps(list(csv.DictReader(io.StringIO(raw))))\n"
            "loaded = [load(raw), load(as_json, 'json')]\n"
            "print([len(dataset.aggregates) for dataset, _ in loaded],\n"
            "      'scientoscope.fold' in sys.modules)\n"
            "load(demo_records_path().read_bytes())\n"
            "print('scientoscope.fold' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert child.stdout == "[5, 5] False\nTrue\n"


def test_cli_binds_every_name_the_trace_harness_wraps():
    # bench/trace_child.py stops every traced run when one of these names
    # is gone from cli; it is compiled from source here, so nothing is written.
    path = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"
    namespace = {"__name__": "trace_child"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    assert namespace["LAYER_OF"]
    assert [name for name in namespace["LAYER_OF"] if not callable(getattr(cli, name, None))] == []
