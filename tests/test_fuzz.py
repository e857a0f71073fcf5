"""Fuzzing the shared input pipeline: every input ends in exit 0, 1 or 2.

Each example goes through ``validate``, ``analyze`` and
``reproduce-paper --mode standard``; an exception escaping ``main``
fails the test. Besides arbitrary bytes and JSON, the strategies build
inputs in the record and aggregate schemas. Half of those draw their
counts from the range validation accepts (zero, one year, the limit
itself), so that many examples get past validation into the bridge and
the tables.
"""

import csv
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scientoscope.cli import main
from scientoscope.ingest import AGGREGATE_FIELDS, MAX_COUNT

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


@FUZZ
@given(data=st.binary(max_size=200), suffix=st.sampled_from([".csv", ".json"]))
def test_arbitrary_bytes(tmp_path, data, suffix):
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
def test_schema_shaped_csv(tmp_path, objects):
    _run_all(tmp_path, "input.csv", _csv(objects).encode("utf-8", "surrogatepass"))
