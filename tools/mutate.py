"""Mutation check of the record fold's tests.

Copies the source tree (``src``, ``tests``, ``bench`` and
``pyproject.toml``) to a temporary directory and applies each mutant of a
fixed, named list there in turn. Each mutant replaces one exact piece of
code, which must occur once. For each mutant the tests it targets run
(``pytest -x``); a mutant is killed when a test fails and survives when
they all pass. The unmutated copy runs the same tests first, and must
pass.

Run it from the root of a source checkout, with pytest and hypothesis
installed:

    python3 tools/mutate.py             # every mutant
    python3 tools/mutate.py NAME ...    # the named mutants
    python3 tools/mutate.py --list      # the names

It exits 0 when every mutant was killed, 1 when one survived, and 2 when
a mutant no longer matches the code or the unmutated tests fail. It runs
for minutes, so it is not part of the test suite. Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
INGEST = "src/scientoscope/ingest.py"
FOLD_TESTS = ("tests/test_ingest.py", "tests/test_differential.py")


class Mutant(NamedTuple):
    name: str
    what: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...] = FOLD_TESTS


MUTANTS = (
    Mutant("authors-blank-pieces-counted",
           "the short parse counts every piece of an author list, blank ones too",
           INGEST,
           'n_authors = (len(names) if "" not in names',
           'n_authors = (len(names) if True'),
    Mutant("authors-nbsp-piece-a-name",
           "a piece of only no-break spaces counts as a name (strip(\" \"))",
           INGEST,
           'and not any(map(str.isspace, names))',
           'and all(name.strip(" ") for name in names)'),
    Mutant("field-count-check-dropped",
           "a CSV row of another width than its header is parsed",
           INGEST,
           "if len(cells) != len(header):",
           "if False:"),
    Mutant("blank-csv-row-kept",
           "a CSV row blank in every cell is not skipped",
           INGEST,
           'if not "".join(cells).strip():',
           "if False:"),
    Mutant("blank-json-element-skipped",
           "a JSON element whose values are all blank or null is skipped",
           INGEST,
           'return rows(), lambda values=None: f"element {index}"',
           'return rows(), lambda values=None: (None if values and not any(values[:-1])\n'
           '                                    else f"element {index}")'),
    Mutant("location-of-the-previous-row",
           "a failing CSV row is located at the line before the one it ends on",
           INGEST,
           '        return f"line {reader.line_num}"',
           '        return f"line {reader.line_num - 1}"'),
    Mutant("clean-row-registers-its-year-only",
           "a clean row only registers its year, in place of the bridge count",
           INGEST,
           "add(year, n_authors, page_count, subject, title)\n    except csv.Error",
           "add_year(year)\n    except csv.Error"),
    Mutant("split-renumbering-dropped",
           "a child's record N is not renumbered by the records before its part",
           INGEST,
           'number = int(location.removeprefix("record ")) + report.record_count',
           'number = int(location.removeprefix("record "))'),
    Mutant("split-years-only-merge-dropped",
           "after an error, a child's counts and warnings merge, not its years alone",
           INGEST,
           "if report.errors:  # the serial fold registers only the years after an error",
           "if False:"),
    Mutant("split-parts-not-strict",
           "every part of a split is read by a lenient csv reader",
           INGEST,
           "strict=cuts[k + 1] < cuts[-1]",
           "strict=False"),
    Mutant("split-part-reads-past-its-end",
           "a part reads on past the cut that ends it",
           INGEST,
           "min(len(buffer), self._end - self._at)",
           "len(buffer)"),
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True)


def _summary(run: subprocess.CompletedProcess) -> str:
    """pytest's last line, and the test that failed first."""
    lines = run.stdout.strip().splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return (lines[-1] if lines else f"exit {run.returncode}") + (f"; {failed[0]}" if failed else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name:<36} {m.what}")
        return 0
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    mutants = [known[name] for name in args.names] or list(MUTANTS)

    with tempfile.TemporaryDirectory(prefix="mutate-") as work:
        tree = Path(work)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        for m in mutants:
            if (count := (tree / m.path).read_text().count(m.old)) != 1:
                print(f"stale    {m.name}: its code occurs {count} times in {m.path}")
                return 2
        baseline = _pytest(tree, tuple(sorted({t for m in mutants for t in m.tests})))
        if baseline.returncode:
            print(f"the unmutated tests fail: {_summary(baseline)}")
            return 2
        survivors = []
        for m in mutants:
            path = tree / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.monotonic()
            try:
                run = _pytest(tree, m.tests)
            finally:
                path.write_text(original)
            outcome = "killed  " if run.returncode else "SURVIVED"
            if not run.returncode:
                survivors.append(m.name)
            print(f"{outcome} {m.name:<36} {_summary(run)} ({time.monotonic() - start:.0f} s)",
                  flush=True)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} killed"
          + (f"; survived: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
