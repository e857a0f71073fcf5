"""Mutation check of the tests of the record fold, the CLI and the formulas.

Copies the source tree (``src``, ``tests``, ``bench`` and
``pyproject.toml``) to a temporary directory and applies each mutant of a
fixed, named list there in turn. Each mutant replaces one exact piece of
code, which must occur once. For each mutant the tests it targets run
(``pytest -x``); a mutant is killed when a test fails, survives when
they all pass, and is broken when pytest exits otherwise, as it does
when the mutated code cannot be imported. The unmutated copy runs the
same tests first, and must pass.

Run it from the root of a source checkout, with pytest and hypothesis
installed:

    python3 tools/mutate.py             # every mutant
    python3 tools/mutate.py NAME ...    # the named mutants
    python3 tools/mutate.py --list      # the names

It exits 0 when every mutant was killed, 1 when one survived, and 2 when
a mutant no longer matches the code or is broken, or the unmutated tests
fail. It runs for minutes, so it is not part of the test suite. Stdlib
only.
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
CLI = "src/scientoscope/cli.py"
INDICATORS = "src/scientoscope/indicators.py"
REPORT = "src/scientoscope/report.py"
FOLD_TESTS = ("tests/test_ingest.py", "tests/test_differential.py")
CLI_TESTS = ("tests/test_cli.py",)
FORMULA_TESTS = ("tests/test_indicators.py", "tests/test_report.py")


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
    Mutant("numeral-table-off-by-one",
           "the numeral table maps its last decimal, 4095, to 4096",
           INGEST,
           "_INTS = _Ints((str(n), n) for n in range(4096))",
           "_INTS = _Ints((str(n), n + (n == 4095)) for n in range(4096))"),
    Mutant("numeral-table-misses-are-0",
           "a numeral the table lacks reads as 0, not as its int()",
           INGEST,
           "    __missing__ = int\n",
           "    def __missing__(self, raw):\n"
           "        return 0\n"),
    Mutant("utf8-check-position-unshifted",
           "the block-by-block UTF-8 check reports a position within its block",
           INGEST,
           "start, end = exc.start + at, exc.end + at",
           "start, end = exc.start, exc.end"),
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
           "strict=k < last",
           "strict=False"),
    Mutant("split-own-part-merged-last",
           "the part this process folds, the first, is merged after the children's",
           INGEST,
           '        report, tally = _fold(*_csv_rows(reader, header, "records"), config)\n'
           "        for _, read in children:  # an empty or short message raises EOFError or ValueError\n"
           "            count, counts, warnings, errors = marshal.loads(\n"
           '                open(read, "rb", buffering=0, closefd=False).readall())\n',
           '        own_report, own = _fold(*_csv_rows(reader, header, "records"), config)\n'
           "        report, tally = ValidationReport(), _YearTally(config.taxonomy)\n"
           '        messages = [marshal.loads(open(read, "rb", buffering=0, closefd=False).readall())\n'
           "                    for _, read in children]\n"
           "        messages.append((own_report.record_count, own.counts, own.warnings,\n"
           "                         list(map(tuple, own_report.errors))))\n"
           "        for count, counts, warnings, errors in messages:\n"),
    Mutant("split-children-merged-in-reverse",
           "the children's folds are merged in reverse part order",
           INGEST,
           "for _, read in children:  # an empty or short message",
           "for _, read in children[::-1]:  # an empty or short message"),
    Mutant("split-failed-part-sends-empty-fold",
           "a child whose part raises sends the fold of no record, which counts as folded",
           INGEST,
           "                finally:\n"
           "                    os._exit(0)",
           "                except Exception:  # the fold of no record\n"
           "                    with open(write, \"wb\") as pipe:\n"
           "                        pipe.write(marshal.dumps((0, {}, [], [])))\n"
           "                finally:\n"
           "                    os._exit(0)"),
    Mutant("split-empty-message-not-a-failure",
           "an empty message from a child raises out of the load, not back to the serial fold",
           INGEST,
           "except (ValueError, EOFError, OSError):",
           "except (ValueError, OSError):"),
    Mutant("split-pipes-read-before-any-load",
           "every child's pipe is read to its end before any fold is loaded from it",
           INGEST,
           "        for _, read in children:  # an empty or short message raises EOFError or ValueError\n"
           "            count, counts, warnings, errors = marshal.loads(\n"
           '                open(read, "rb", buffering=0, closefd=False).readall())\n',
           '        messages = [open(read, "rb", buffering=0, closefd=False).readall()\n'
           "                    for _, read in children]\n"
           "        for message in messages:  # an empty or short message raises EOFError or ValueError\n"
           "            count, counts, warnings, errors = marshal.loads(message)\n"),
    Mutant("split-part-header-from-its-own-first-row",
           "each child's part takes its columns from its own first row, not the file's header",
           INGEST,
           '_fold(*_csv_rows(part(k), header, "records"), config)',
           '_fold(*_csv_rows(reader := part(k), _csv_header(reader), "records"), config)'),
    Mutant("split-children-not-killed",
           "the children are only reaped, not killed, when this process's part raises",
           INGEST,
           "os.kill(pid, 9)  # SIGKILL",
           "pass  # SIGKILL"),
    Mutant("split-sigchld-not-checked",
           "a load splits with SIGCHLD ignored, so the kernel reaps the children itself",
           INGEST,
           "if signal.getsignal(signal.SIGCHLD) != signal.SIG_DFL:",
           "if False:"),
    Mutant("read-check-from-zero",
           "the reader checks the UTF-8 of a failed input from byte 0, not from where it starts",
           INGEST,
           "source.seek(start)",
           "source.seek(0)"),
    Mutant("read-bytes-skip-utf8-check",
           "the reader re-raises a failed binary input's error without checking its UTF-8",
           INGEST,
           "        source.seek(start)\n"
           "        _check_utf8(source)\n"
           "        raise\n",
           "        raise\n"),
    Mutant("read-text-keeps-bom",
           "the reader keeps the leading byte-order mark of a str input",
           INGEST,
           'return read(io.StringIO(source.removeprefix("\\ufeff")))',
           "return read(io.StringIO(source))"),
    Mutant("checked-csv-error-unlocated",
           "a csv error in a row the row checks read is raised without its line",
           INGEST,
           "                yield location, columns, values\n"
           "    except csv.Error as exc:\n"
           '        raise ParseError(f"malformed CSV: {exc}", locate()) from None\n',
           "                yield location, columns, values\n"
           "    except csv.Error as exc:\n"
           '        raise ParseError(f"malformed CSV: {exc}") from None\n'),
    Mutant("record-zero-authors-accepted",
           "the record rules accept an author count of 0",
           INGEST,
           "if n_authors < 1:",
           "if n_authors < 0:"),
    Mutant("tally-four-authors-pooled",
           "the bridge counts a four-author record in the open 5+ bin",
           INGEST,
           "n_authors + 1 if n_authors < POOLED_BIN_AUTHOR_VALUE else _POOLED",
           "n_authors + 1 if n_authors < POOLED_BIN_AUTHOR_VALUE - 1 else _POOLED"),
    Mutant("tally-unknown-subject-slot",
           "the bridge counts an unknown subject in the first label's slot, not in Others'",
           INGEST,
           "row[self._slots.get(subject, self._others)] += 1",
           "row[self._slots.get(subject, _PAGES.stop)] += 1"),
    Mutant("aggregate-zero-authors-bridged",
           "aggregate_records counts a record of 0 authors, which lands in another slot",
           INGEST,
           "if r.n_authors < 1:",
           "if r.n_authors < 0:"),
    Mutant("merge-subject-count-replaced",
           "a merge replaces a year's subject count by the other tally's",
           INGEST,
           "self.counts[year] = list(map(operator.add, self.year(year), row))",
           "self.counts[year] = [*map(operator.add, self.year(year)[:_PAGES.stop], row),\n"
           "                                  *row[_PAGES.stop:]]"),
    Mutant("merge-replaces-counts",
           "a merge keeps the other tally's row of a year in place of the sum",
           INGEST,
           "self.counts[year] = list(map(operator.add, self.year(year), row))",
           "self.counts[year] = list(row)"),
    Mutant("cut-before-its-line-end",
           "a cut falls on the \\n that ends a part's last row, not after it",
           INGEST,
           'cuts.append(at + block.index(b"\\n") + 1 if block else size)',
           'cuts.append(at + block.index(b"\\n") if block else size)'),
    Mutant("cuts-of-one-part",
           "a file that makes one part is still cut",
           INGEST,
           "return cuts if len(cuts) > 2 else None",
           "return cuts if len(cuts) > 1 else None"),
    Mutant("split-part-reads-past-its-end",
           "a part reads on past the cut that ends it",
           INGEST,
           "min(len(buffer), self._end - self._at)",
           "len(buffer)"),
    Mutant("command-routed-to-another-handler",
           "reproduce-paper runs analyze's handler",
           CLI,
           '"reproduce-paper": (cmd_reproduce_paper,',
           '"reproduce-paper": (cmd_analyze,',
           CLI_TESTS),
    Mutant("entry-interrupt-uncaught",
           "an interrupt leaves the CLI as a KeyboardInterrupt traceback",
           CLI,
           '        print("error: interrupted", file=sys.stderr)\n'
           "        code = EXIT_INTERRUPTED\n",
           "        raise\n",
           ("tests/test_differential.py",)),
    Mutant("strict-flag-defaults-false",
           "an absent --strict reads False, so a config file's true loses",
           CLI,
           '"--strict", action="store_true", default=None',
           '"--strict", action="store_true", default=False',
           CLI_TESTS),
    Mutant("timestamp-flag-defaults-false",
           "an absent --timestamp reads False, so a config file's true loses",
           CLI,
           '"--timestamp", action="store_true", default=None',
           '"--timestamp", action="store_true", default=False',
           CLI_TESTS),
    Mutant("ci-variants-swapped",
           "the CI column computes stated for printed and printed for stated",
           INDICATORS,
           "variant = config.ci_variant",
           'variant = {"printed": "stated", "stated": "printed"}[config.ci_variant]',
           FORMULA_TESTS),
    Mutant("dc-over-single",
           "DC divides by the single-authored papers, not by all papers",
           INDICATORS,
           "return multiple / papers",
           "return multiple / single",
           FORMULA_TESTS),
    Mutant("egr-paper-first-year-one",
           "the paper EGR's first year is 1, not 0",
           INDICATORS,
           'rows.append([year, papers, 0.0 if mode == "paper" else None])',
           'rows.append([year, papers, 1.0 if mode == "paper" else None])',
           FORMULA_TESTS),
    Mutant("rgr-paper-unrounded",
           "paper-mode R is carried at full precision",
           INDICATORS,
           "r = round_half_up(abs(w2 - w1), 2)",
           "r = abs(w2 - w1)",
           FORMULA_TESTS),
    Mutant("rgr-paper-mean-of-floats",
           "the paper-mode mean of R divides the float sum of the rounded R's",
           INDICATORS,
           "mean_r = sum(round(r * 100) for r in rates) / (100 * len(rates))",
           "mean_r = sum(rates) / len(rates)",
           ("tests/test_table_oracle.py",)),
    Mutant("cagr-intervals-periods",
           "CAGR over intervals compounds once per calendar year",
           INDICATORS,
           "return years - 1",
           "return years",
           FORMULA_TESTS),
    Mutant("quantize-half-even",
           "report._quantize rounds half to even",
           REPORT,
           "units += 2 * rest >= den",
           "units += 2 * rest + (units % 2) > den",
           FORMULA_TESTS),
    Mutant("quantize-sign-lost",
           "report._quantize returns the units of a negative value unsigned",
           REPORT,
           "return -units if num < 0 else units",
           "return units",
           FORMULA_TESTS),
    Mutant("half-up-unsigned-zero",
           "round_half_up returns +0.0 for a negative value that rounds to zero",
           REPORT,
           "return math.copysign(_quantize(value, decimals) / 10**decimals, value)",
           "return _quantize(value, decimals) / 10**decimals",
           FORMULA_TESTS),
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
        survivors, broken = [], []
        for m in mutants:
            path = tree / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.monotonic()
            try:
                run = _pytest(tree, m.tests)
            finally:
                path.write_text(original)
            outcome = {0: "SURVIVED", 1: "killed  "}.get(run.returncode, "BROKEN  ")
            if run.returncode == 0:
                survivors.append(m.name)
            elif run.returncode != 1:  # no test ran to an outcome
                broken.append(m.name)
            print(f"{outcome} {m.name:<36} {_summary(run)} ({time.monotonic() - start:.0f} s)",
                  flush=True)
    print(f"{len(mutants) - len(survivors) - len(broken)} of {len(mutants)} killed"
          + (f"; survived: {', '.join(survivors)}" if survivors else "")
          + (f"; broken: {', '.join(broken)}" if broken else ""))
    return 2 if broken else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
