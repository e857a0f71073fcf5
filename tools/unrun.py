"""List the statements of the package that the test suite never runs.

Runs the test suite in this process, as ``pytest`` with
``pyproject.toml``'s settings, under ``sys.settrace``, and prints each
line of ``src/scientoscope`` that holds a statement and never ran, as
``file:line: code``. A statement's lines are those its compiled code
starts an instruction on. Only this process is traced: a forked child
(a later part of a split load) and a CLI run as a subprocess run
untraced, so a line that only they run is listed too.

Run it from the root of a source checkout, with pytest and hypothesis
installed:

    python3 tools/unrun.py                        # the whole suite
    python3 tools/unrun.py tests/test_ingest.py   # these tests, or any pytest arguments

It exits with pytest's status. Tracing makes the suite several times
slower, so it is not part of the suite. Besides pytest, which it runs,
stdlib only.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scientoscope"


def _statement_lines(path: Path) -> set[int]:
    """The lines of *path* that some instruction of its compiled code
    starts on; line 0 is the module's start, which no statement holds."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def main(argv: list[str] | None = None) -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):  # a frame of another file runs untraced
        return trace_lines if frame.f_code.co_filename in ran else None

    src = str(ROOT / "src")  # imported from here, whatever is installed
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(_statement_lines(path) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
