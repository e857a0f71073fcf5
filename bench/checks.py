"""Output checks: the CLI's tables against independently kept tallies.

Every check returns a list of problems; an empty list means the output
is correct.  Tallies come from :mod:`gen` for synthetic inputs and from
:func:`read_aggregates_csv` for the bundled study.
"""

from __future__ import annotations

import csv
import json
import re

from gen import TAXONOMY, YearTally

# Tables a full ``analyze`` prints, in order; a text run must show them all.
TABLE_TITLES = (
    "Articles published per year",
    "Authorship pattern by year",
    "Author productivity by year",
    "Degree of collaboration by year",
    "Exponential growth rate of publications",
    "Relative growth rate and doubling time",
    "Page-length distribution of articles",
    "Subject distribution of articles",
)
# (table title, column headers, tally field) for the per-year count columns.
_YEAR_COLUMNS = (
    (TABLE_TITLES[0], ("Papers",), "papers"),
    (TABLE_TITLES[1], ("1 author", "2 authors", "3 authors", "4 authors", "5+ authors"), "authors"),
    (TABLE_TITLES[2], ("Authors",), "total_authors"),
    (TABLE_TITLES[6], ("1-5 pages", "6-10 pages", "Above 10 pages"), "pages"),
)
_GOLDEN_SUMMARY = re.compile(r"^golden checks: (\d+) passed, (\d+) failed", re.MULTILINE)


def read_aggregates_csv(path: str) -> dict[int, YearTally]:
    """Tallies of an aggregate CSV, read with the csv module alone."""
    tallies = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            tallies[int(row["year"])] = YearTally(
                papers=int(row["papers"]),
                authors=[int(row[k]) for k in ("a1", "a2", "a3", "a4", "a5plus")],
                total_authors=int(row["total_authors"]),
                pages=[int(row[k]) for k in ("p1to5", "p6to10", "pabove10")],
                subjects={label: int(row[f"subj:{label}"]) for label in TAXONOMY},
            )
    return tallies


def _value(cell: object) -> object:
    return cell["value"] if isinstance(cell, dict) else cell


def table_problems(doc: dict, tallies: dict[int, YearTally]) -> list[str]:
    """Compare the count tables of a ``--format json`` document with *tallies*."""
    tables = {t["title"]: t for t in doc.get("tables", [])}
    problems = [f"missing table {title!r}" for title in TABLE_TITLES if title not in tables]
    if problems:
        return problems
    for title, headers, attr in _YEAR_COLUMNS:
        table = tables[title]
        names = [c["header"] for c in table["columns"]]
        rows = {row[0]: row for row in table["rows"]}
        if sorted(rows) != sorted(tallies):
            problems.append(f"{title}: years {sorted(rows)} != {sorted(tallies)}")
            continue
        for year, tally in tallies.items():
            expected = getattr(tally, attr)
            expected = expected if isinstance(expected, list) else [expected]
            got = [_value(rows[year][names.index(h)]) for h in headers]
            if got != expected:
                problems.append(f"{title} {year}: {got} != {expected}")
    subjects = tables[TABLE_TITLES[7]]
    names = [c["header"] for c in subjects["columns"]]
    rows = {row[0]: row for row in subjects["rows"]}
    for label in TAXONOMY:
        if label not in rows:
            problems.append(f"subject table lacks {label!r}")
            continue
        got = [_value(rows[label][names.index(str(year))]) for year in sorted(tallies)]
        expected = [tallies[year].subjects[label] for year in sorted(tallies)]
        if got != expected:
            problems.append(f"subjects {label!r}: {got} != {expected}")
    return problems


def json_problems(stdout: bytes, tallies: dict[int, YearTally], golden: bool) -> list[str]:
    """Problems of a ``--format json`` run; *golden* also requires a
    conformance section with no failed check."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = table_problems(doc, tallies)
    if golden:
        conformance = doc.get("conformance", {})
        if conformance.get("failed") != 0 or not conformance.get("passed"):
            problems.append(f"golden conformance: {conformance.get('passed')} passed, "
                            f"{conformance.get('failed')} failed")
    return problems


def text_problems(stdout: bytes, golden: bool) -> list[str]:
    """Problems of a text run: every table shown and, with *golden*, a
    conformance summary with no failed check."""
    text = stdout.decode("utf-8", "replace")
    problems = [f"missing table {title!r}" for title in TABLE_TITLES if title not in text]
    if not text.startswith("# scientoscope "):
        problems.append("missing metadata line")
    if golden:
        match = _GOLDEN_SUMMARY.search(text)
        if match is None or match.group(2) != "0" or match.group(1) == "0":
            problems.append("golden conformance summary missing or failed")
    return problems
