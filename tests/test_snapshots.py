"""Byte-identity of CLI output against committed snapshots.

Each run's stdout, stderr and exit code must equal the files under
``tests/snapshots/`` exactly. The runs read the two demo files, and the
demo records written as a JSON list of objects (:data:`RECORDS_JSON`),
and one config file that overrides ``ci_variant`` (:data:`OVERRIDE_CONFIG`);
both are written to a temporary working directory. After an intended output
change, rerun this module as a script to regenerate them::

    PYTHONPATH=src python tests/test_snapshots.py
"""

import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from scientoscope.cli import demo_aggregates_path, demo_records_path, main

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"
EXIT_CODES = SNAPSHOT_DIR / "exit_codes.json"

INPUTS = {"aggregates": demo_aggregates_path(), "records": demo_records_path()}
#: The demo records as JSON, relative to the working directory of a run.
RECORDS_JSON = "demo_small_records.json"
#: A config file with one indicator override, relative to the working directory of a run.
OVERRIDE_CONFIG = "ci_stated.json"

RUNS = {
    f"analyze_{granularity}_{fmt}_{mode}": ["analyze", "--table", "all", "--input", str(path),
                                           "--format", fmt, "--mode", mode]
    for granularity, path in INPUTS.items()
    for fmt in ("text", "csv")
    for mode in ("paper", "standard")
}
RUNS.update({
    f"analyze_records_json_text_{mode}": ["analyze", "--table", "all", "--input", RECORDS_JSON,
                                          "--mode", mode]
    for mode in ("paper", "standard")
})
RUNS.update({
    f"analyze_aggregates_{fmt}_paper": ["analyze", "--input", str(INPUTS["aggregates"]),
                                        "--format", fmt]
    for fmt in ("json", "markdown")
})
RUNS["indicators_aggregates_text_paper"] = ["indicators", "--input", str(INPUTS["aggregates"])]
RUNS["analyze_aggregates_text_overrides"] = ["analyze", "--input", str(INPUTS["aggregates"]),
                                             "--table", "4", "--config", OVERRIDE_CONFIG]
RUNS["reproduce_paper_text"] = ["reproduce-paper"]
RUNS["reproduce_paper_json"] = ["reproduce-paper", "--format", "json"]
RUNS["reproduce_paper_text_standard"] = ["reproduce-paper", "--mode", "standard"]


def write_inputs(directory: Path) -> None:
    """Write to *directory* the demo records as a JSON list of objects, every
    value a string, and the override config."""
    rows = csv.DictReader(io.StringIO(demo_records_path().read_text(encoding="utf-8")))
    (directory / RECORDS_JSON).write_bytes(json.dumps(list(rows)).encode())
    (directory / OVERRIDE_CONFIG).write_text(json.dumps({"ci_variant": "stated"}),
                                             encoding="utf-8")


def run_cli(argv: list[str]) -> tuple[str, str, int]:
    """Stdout, stderr and exit code of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_matches_snapshot(name, inputs):
    out, err, code = run_cli(RUNS[name])
    assert out == _read(SNAPSHOT_DIR / f"{name}.out")
    assert err == _read(SNAPSHOT_DIR / f"{name}.err")
    assert code == json.loads(_read(EXIT_CODES))[name]


def regenerate() -> None:
    SNAPSHOT_DIR.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            runs = {name: run_cli(argv) for name, argv in sorted(RUNS.items())}
        finally:
            os.chdir(cwd)
    for name, (out, err, codes[name]) in runs.items():
        (SNAPSHOT_DIR / f"{name}.out").write_text(out, encoding="utf-8", newline="")
        (SNAPSHOT_DIR / f"{name}.err").write_text(err, encoding="utf-8", newline="")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
