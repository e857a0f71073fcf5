"""Fuzzing the shared input pipeline: every input ends in exit 0, 1 or 2.

Each example goes through ``validate``, ``analyze`` and
``reproduce-paper --mode standard``; an exception escaping ``main``
fails the test. Besides arbitrary bytes and JSON, the strategies build
inputs in the record and aggregate schemas. Half of those draw their
counts from the range validation accepts (zero, one year, the limit
itself), so that many examples get past validation into the bridge and
the tables. Each CSV input also runs split: a file read with a
``_SPLIT_BYTES`` of 1 on three usable CPUs is folded in parts, and must
give the exit code, stdout and stderr it gives on one CPU, where it is
read whole, whatever bytes fall at a cut. Arbitrary CSV bytes run once
more after a record header, as few of them make a header the split
accepts. A last test feeds arbitrary JSON as the ``--config`` file.
"""

import csv
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scientoscope import cli, config, ingest
from scientoscope.cli import demo_aggregates_path, demo_records_path, main
from scientoscope.ingest import AGGREGATE_FIELDS, MAX_COUNT, RECORD_FIELDS

COMMANDS = (["validate"], ["analyze"], ["reproduce-paper", "--mode", "standard"])

FUZZ = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

scalars = (st.none() | st.booleans() | st.integers(-3, 2020) | st.integers()
           | st.floats() | st.text(max_size=8))
json_values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=6), inner, max_size=4),
                           max_leaves=12)

valid_counts = st.integers(0, 6) | st.integers(0, MAX_COUNT)
any_counts = valid_counts | st.integers(-2, -1) | st.integers(MAX_COUNT, 10**400)
any_optional = any_counts | st.none() | st.text(max_size=3)


def _records(counts, optional, text):
    return st.fixed_dictionaries(
        {"year": st.integers(2013, 2015),
         "volume": optional, "issue": optional,
         "title": st.sampled_from(["T", "U", "V"]) | text,
         "authors": st.sampled_from(["A", "A; B", "A; B; C; D; E; F"]) | st.lists(text),
         "subject": st.sampled_from(["ICT", "Others", "Uncatalogued"]) | text,
         "start_page": optional, "end_page": optional},
        optional={"author_count": counts, "page_count": optional})


def _aggregates(counts, optional):
    return st.fixed_dictionaries(
        {"year": st.just(2013), **{f: counts for f in AGGREGATE_FIELDS[1:]},
         "total_authors": optional, "subj:ICT": counts, "subj:Others": counts})


def _consecutive(objects, first_year):
    return [dict(obj, year=first_year + i) for i, obj in enumerate(objects)]


clean_records = _records(valid_counts, valid_counts.map(lambda n: n + 1) | st.none(),
                         st.text(st.characters(categories=["L"]), min_size=1, max_size=4))
any_records = _records(any_counts, any_optional, st.text(max_size=4))
# Lists of objects in one schema; aggregate years run on from a drawn
# first year, unless one is drawn for every object.
datasets = (st.lists(clean_records, min_size=1, max_size=10)
            | st.lists(any_records, min_size=1, max_size=10)
            | st.builds(_consecutive, st.lists(_aggregates(valid_counts, valid_counts | st.none()),
                                                min_size=1, max_size=6),
                        st.integers(-2, 3000))
            | st.lists(_aggregates(any_counts, any_optional).map(
                lambda obj: dict(obj, year=obj["papers"] % 4 + 2013)), min_size=1, max_size=6))


def _csv(objects):
    header = sorted({key for obj in objects for key in obj})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for obj in objects:
        writer.writerow(["" if obj.get(k) is None else obj[k] for k in header])
    return buf.getvalue()


def _run_all(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    for command in COMMANDS:
        assert main([*command, "--input", str(path)]) in (0, 1, 2)


def _outputs(capsys, command, path, cpus):
    """Exit code, stdout and stderr of *command* on *path* with *cpus*
    usable CPUs and a ``_SPLIT_BYTES`` of 1, so that a record CSV file is
    folded in up to *cpus* parts, cut at its line breaks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_SPLIT_BYTES", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        code = main([*command, "--input", str(path)])
    return (code, *capsys.readouterr())


def _run_serial_and_split(tmp_path, capsys, data):
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    capsys.readouterr()  # what runs of other examples printed
    for command in COMMANDS:
        serial = _outputs(capsys, command, path, 1)
        assert serial[0] in (0, 1, 2)
        assert _outputs(capsys, command, path, 3) == serial


@FUZZ
@given(data=st.binary(max_size=200), suffix=st.sampled_from([".csv", ".json"]))
def test_arbitrary_bytes(tmp_path, capsys, data, suffix):
    if suffix == ".csv":  # after a record header too, so that the bytes reach the parts
        for raw in (data, ",".join(RECORD_FIELDS).encode() + b"\n" + data):
            _run_serial_and_split(tmp_path, capsys, raw)
    else:
        _run_all(tmp_path, "input" + suffix, data)


@FUZZ
@given(value=json_values)
def test_arbitrary_json(tmp_path, value):
    _run_all(tmp_path, "input.json", json.dumps(value).encode())


@FUZZ
@given(objects=datasets)
def test_schema_shaped_json(tmp_path, objects):
    _run_all(tmp_path, "input.json", json.dumps(objects).encode())


@FUZZ
@given(objects=datasets)
def test_schema_shaped_csv(tmp_path, capsys, objects):
    _run_serial_and_split(tmp_path, capsys, _csv(objects).encode("utf-8", "surrogatepass"))


# A valid config-file value for each key a config file may set.
_VALID_CONFIG = {
    **config._VALID,
    "strict": (True, False),
    "study_window": ([2013, 2017], [2014, 2016], [2000, 2030]),
    "taxonomy": (["ICT", "Others"], list(config.DEFAULT_TAXONOMY)),
    "absent_marker": ("-", "", "n/a"),
    "input": (str(demo_records_path()), str(demo_aggregates_path())),
    "format": cli.FORMATS,
    "table": ("all", "3", 8),
    "granularity": cli.GRANULARITIES,
    "timestamp": (True, False),
}
valid_configs = st.fixed_dictionaries({}, optional={
    key: st.sampled_from(values) for key, values in _VALID_CONFIG.items()})


@FUZZ
@given(value=json_values, valid=valid_configs, key=st.sampled_from(sorted(_VALID_CONFIG)))
def test_arbitrary_config(tmp_path, value, valid, key):
    # Any JSON value as the whole file; a valid config, which can still fail
    # on the input; and that config with one key set to the value.
    assert set(_VALID_CONFIG) == {*config.AnalysisConfig._fields, *cli._RUN_KEYS}
    path = tmp_path / "config.json"
    for data in (value, valid, {**valid, key: value}):
        path.write_text(json.dumps(data), encoding="utf-8")
        for command in (["validate", "--input", str(demo_records_path())],
                        ["analyze", "--show-config", "--input", str(demo_aggregates_path())],
                        ["reproduce-paper"]):
            assert main([*command, "--config", str(path)]) in (0, 1, 2)
