"""Command-line behavior: commands, exit codes, determinism, config."""

import json
from dataclasses import replace

import pytest

from scientoscope import (
    AnalysisConfig,
    ColumnSpec,
    cli,
    parse_aggregates,
    year_distribution_table,
)
from scientoscope.cli import demo_aggregates_path, demo_records_path, main
from scientoscope.golden import GoldenCheck, check_outcome

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


def test_timestamp_is_opt_in(capsys):
    main(["analyze", "--input", AGG_PATH, "--table", "1"])
    line = capsys.readouterr().out.splitlines()[0]
    assert line.count("|") == 2  # version, mode, config hash only
    main(["analyze", "--input", AGG_PATH, "--table", "1", "--timestamp"])
    stamped = capsys.readouterr().out.splitlines()[0]
    assert stamped.count("|") == 3


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "standard", "table": "6"}))
    rc = main(["analyze", "--input", AGG_PATH, "--config", str(cfg), "--table", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mode=standard" in out          # file beats default
    assert "Exponential growth" in out     # flag (table 5) beats file (table 6)
    assert "Relative growth" not in out


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


def test_config_env_var_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env_cfg.json"
    cfg.write_text(json.dumps({"mode": "standard"}))
    monkeypatch.setenv("SCIENTOSCOPE_CONFIG", str(cfg))
    main(["analyze", "--input", AGG_PATH, "--table", "1"])
    assert "mode=standard" in capsys.readouterr().out


@pytest.mark.parametrize("key, value, shape", [
    ("study_window", 5, "[first, last]"),
    ("taxonomy", 5, "distinct labels that include 'Others'"),
    ("absent_marker", 5, "a string"),
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


@pytest.mark.parametrize("taxonomy", [["A", "A", "Others"], ["A", "B"]])
def test_config_taxonomy_needs_distinct_labels_and_others(taxonomy, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"taxonomy": taxonomy}))
    assert main(["analyze", "--input", REC_PATH, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (f"error: invalid taxonomy: {taxonomy!r} "
                                       "(expected distinct labels that include 'Others')\n")


def test_config_input_that_is_not_a_path_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": 5}))
    assert main(["analyze", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: invalid input: 5 (expected a path)\n"


def test_config_study_window_enforced(tmp_path, capsys):
    cfg = tmp_path / "window.json"
    cfg.write_text(json.dumps({"study_window": [2014, 2017]}))
    rc = main(["validate", "--input", AGG_PATH, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "year-window" in out and "2013" in out


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
    outcome = check_outcome(check, [replace(table, columns=renamed)], config)
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
        return replace(table, columns=columns)

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
