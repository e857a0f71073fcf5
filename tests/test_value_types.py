"""The value types: named tuples that check every construction path,
mutable types with field-wise equality and repr, and a CLI import that
loads neither ``dataclasses`` nor ``inspect``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from scientoscope import (
    AnalysisConfig,
    ColumnSpec,
    Finding,
    ReportTable,
    ValidationReport,
    YearAggregate,
)
from scientoscope.config import config_from_dict
from scientoscope.golden import CheckOutcome, ConformanceResult, GoldenCheck

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_datetime():
    # Measured against the child's own modules, so whatever site loads does not count.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import scientoscope.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'datetime', 'decimal'}\n"
            "             & (set(sys.modules) - before)))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert child.stdout == "[]\n"


@pytest.mark.parametrize("value, field, bad, message", [
    (AnalysisConfig(), "mode", "bogus",
     "invalid mode: 'bogus' (expected one of ('paper', 'standard'))"),
    (AnalysisConfig(), "rgr_mode", "log",
     "invalid rgr_mode: 'log' (expected one of ('paper', 'standard'))"),
    (ColumnSpec("N"), "kind", "pie", "unknown column kind: 'pie'"),
    (AnalysisConfig(), "totals_source", "rounded",
     "invalid totals_source: 'rounded' (expected one of ('rounded_cells', 'full_precision'))"),
    (AnalysisConfig(), "strict", "no", "invalid strict: 'no' (expected true or false)"),
    (AnalysisConfig(), "study_window", (2017, 2013),
     "invalid study_window: (2017, 2013) (expected [first, last])"),
    (AnalysisConfig(), "taxonomy", ("A",),
     "invalid taxonomy: ('A',) (expected distinct one-line labels that include 'Others')"),
    (AnalysisConfig(), "absent_marker", None,
     "invalid absent_marker: None (expected a string without line breaks)"),
    (AnalysisConfig(), "mode", None,
     "invalid mode: None (expected one of ('paper', 'standard'))"),
])
def test_a_bad_value_raises_on_every_construction_path(value, field, bad, message):
    cls = type(value)
    changed = [bad if name == field else v for name, v in zip(cls._fields, value)]
    for build in (lambda: cls(**{**value._asdict(), field: bad}),
                  lambda: cls(*changed),
                  lambda: cls._make(changed),
                  lambda: value._replace(**{field: bad}),
                  # A config file's null means unset, so only a non-null value reaches the check.
                  *([lambda: config_from_dict({**value._asdict(), field: bad})]
                    if cls is AnalysisConfig and bad is not None else [])):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message
    assert type(value._replace()) is cls and value._replace() == value


def test_a_config_stores_a_list_as_a_tuple_on_every_construction_path():
    expected = AnalysisConfig(study_window=(2013, 2017), taxonomy=("ICT", "Others"))
    lists = {"study_window": [2013, 2017], "taxonomy": ["ICT", "Others"]}
    for config in (AnalysisConfig(**lists), config_from_dict(lists),
                   AnalysisConfig._make(dict(AnalysisConfig()._asdict(), **lists).values()),
                   AnalysisConfig()._replace(**lists)):
        assert config == expected and type(config.study_window) is type(config.taxonomy) is tuple
        assert config.config_hash() == expected.config_hash()


PAPER = {"ci_variant": "printed", "egr_mode": "paper", "cagr_mode": "paper_years",
         "rgr_mode": "paper", "totals_source": "rounded_cells"}
STANDARD = {"ci_variant": "stated", "egr_mode": "log", "cagr_mode": "intervals",
            "rgr_mode": "standard", "totals_source": "full_precision"}


@pytest.mark.parametrize("fields, switches", [
    ({}, PAPER),
    ({"mode": "standard"}, STANDARD),
    ({"ci_variant": "stated", "totals_source": "full_precision"},
     {**PAPER, "ci_variant": "stated", "totals_source": "full_precision"}),
    ({"mode": "standard", "rgr_mode": "paper"}, {**STANDARD, "rgr_mode": "paper"}),
])
def test_every_switch_holds_its_effective_value_on_every_construction_path(fields, switches):
    given = {**AnalysisConfig._field_defaults, **fields}
    for config in (AnalysisConfig(**fields), AnalysisConfig(*given.values()),
                   AnalysisConfig._make(given.values()), config_from_dict(fields),
                   AnalysisConfig(mode=given["mode"])._replace(**fields)):
        assert {name: getattr(config, name) for name in switches} == switches


@pytest.mark.parametrize("implicit, explicit", [
    (AnalysisConfig(), AnalysisConfig(ci_variant="printed")),
    (AnalysisConfig(), AnalysisConfig(**PAPER)),
    (AnalysisConfig(mode="standard"), AnalysisConfig(mode="standard", **STANDARD)),
    (AnalysisConfig(mode="standard", rgr_mode="paper"),
     config_from_dict({"mode": "standard", "rgr_mode": "paper",
                       "totals_source": "full_precision"})),
])
def test_configs_that_run_the_same_way_are_equal(implicit, explicit):
    assert implicit == explicit and hash(implicit) == hash(explicit)
    assert implicit.config_hash() == explicit.config_hash()
    assert implicit.to_dict() == explicit.to_dict()


def test_overrides_list_the_switches_that_depart_from_the_mode():
    assert AnalysisConfig(mode="standard", ci_variant="printed").overrides() == {
        "ci_variant": "printed"}
    assert AnalysisConfig(mode="standard", ci_variant="stated").overrides() == {}
    assert AnalysisConfig(**PAPER).overrides() == {}
    # A switch is fixed when the config is built: a new mode keeps the old switches.
    moved = AnalysisConfig()._replace(mode="standard")
    assert moved.overrides() == PAPER and moved != AnalysisConfig(mode="standard")


def test_year_aggregates_built_with_the_default_do_not_share_subject_counts():
    first = YearAggregate(2013, 1, (1, 0, 0, 0, 0), (1, 0, 0))
    second = YearAggregate(2014, 1, (1, 0, 0, 0, 0), (1, 0, 0))
    first.subject_counts["ICT"] = 1
    assert second.subject_counts == {}


def test_immutable_value_types_are_named_tuples():
    finding = Finding("record 1", "page-span", "end_page 4 < start_page 9")
    # Sorting findings orders them by location, then rule, then message.
    assert Finding._fields == ("location", "rule", "message")
    assert finding == ("record 1", "page-span", "end_page 4 < start_page 9")
    location, rule, _ = finding
    assert (location, rule) == ("record 1", "page-span")
    with pytest.raises(AttributeError):
        finding.rule = "page-count"


def test_mutable_value_types_keep_their_equality_and_repr():
    report = ValidationReport(errors=[Finding("record 1", "r", "m")], record_count=2, year_count=1)
    table = ReportTable("T", [ColumnSpec("N")], rows=[[1]], notes=["n"])
    result = ConformanceResult([CheckOutcome(GoldenCheck(1, "2013 / papers", 33, tol=0),
                                             33, "pass")])
    # The reprs their dataclass forms printed.
    assert repr(report) == ("ValidationReport(errors=[Finding(location='record 1', rule='r', "
                            "message='m')], warnings=[], record_count=2, year_count=1)")
    assert repr(table) == ("ReportTable(title='T', columns=[ColumnSpec(header='N', kind='count', "
                           "decimals=2)], rows=[[1]], footer=None, notes=['n'])")
    assert repr(result) == (
        "ConformanceResult(outcomes=[CheckOutcome(check=GoldenCheck(table=1, cell='2013 / papers', "
        "expected=33, tol=0, display_decimals=None), actual=33, status='pass', problem=None)])")
    for value in (report, table, result):
        same = eval(repr(value))
        assert same == value and not same != value
        assert value != tuple(vars(value).values())
        with pytest.raises(TypeError):
            hash(value)
    assert report != ValidationReport(errors=list(report.errors), record_count=2)
    assert table != ReportTable("T", [ColumnSpec("N")], rows=[[2]], notes=["n"])
    assert result != ConformanceResult([])


def test_config_hashes_are_unchanged():
    assert AnalysisConfig().config_hash() == "377878804db0"
    assert AnalysisConfig(mode="standard").config_hash() == "be920ab39b26"
