"""Byte-identity of CLI output against committed snapshots.

Each run's stdout, stderr and exit code must equal the files under
``tests/snapshots/`` exactly. After an intended output change, rerun
this module as a script to regenerate them::

    PYTHONPATH=src python tests/test_snapshots.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from scientoscope.cli import demo_aggregates_path, demo_records_path, main

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"
EXIT_CODES = SNAPSHOT_DIR / "exit_codes.json"

INPUTS = {"aggregates": demo_aggregates_path(), "records": demo_records_path()}

RUNS = {
    f"analyze_{granularity}_{fmt}_{mode}": ["analyze", "--table", "all", "--input", str(path),
                                           "--format", fmt, "--mode", mode]
    for granularity, path in INPUTS.items()
    for fmt in ("text", "csv")
    for mode in ("paper", "standard")
}
RUNS["reproduce_paper_text"] = ["reproduce-paper"]


def run_cli(argv: list[str]) -> tuple[str, str, int]:
    """Stdout, stderr and exit code of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_matches_snapshot(name):
    out, err, code = run_cli(RUNS[name])
    assert out == _read(SNAPSHOT_DIR / f"{name}.out")
    assert err == _read(SNAPSHOT_DIR / f"{name}.err")
    assert code == json.loads(_read(EXIT_CODES))[name]


def regenerate() -> None:
    SNAPSHOT_DIR.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(RUNS.items()):
        out, err, codes[name] = run_cli(argv)
        (SNAPSHOT_DIR / f"{name}.out").write_text(out, encoding="utf-8", newline="")
        (SNAPSHOT_DIR / f"{name}.err").write_text(err, encoding="utf-8", newline="")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
