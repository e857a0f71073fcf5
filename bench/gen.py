"""Seeded synthetic inputs for the scientoscope benchmark.

:func:`generate` draws a record set from a seed and returns it with its
own per-year tallies (papers, authorship bins, page bins, exact author
totals and subject counts with unknown labels mapped to ``Others``).
The tallies are computed here, independently of scientoscope, and are
what the benchmark checks the CLI's tables against.

The writers turn the same draw into the three input formats the CLI
reads: record CSV, record JSON and aggregate CSV.  The same seed and
knobs give byte-identical files.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field

#: The CLI's default subject taxonomy, in display order.  Kept as a copy
#: so the check does not trust the program it checks.
TAXONOMY = (
    "Scientometrics, Bibliometrics",
    "Webometrics",
    "User survey",
    "E-Resources",
    "Information Seeking Behaviour",
    "Knowledge Management",
    "Library Services",
    "ICT",
    "Digital Libraries",
    "Open Access",
    "Library Automation",
    "Search Engines",
    "Social Networks",
    "Others",
)
#: First year of every generated span.
FIRST_YEAR = 1970
RECORD_HEADER = ("year", "volume", "issue", "title", "authors",
                 "start_page", "end_page", "subject")
AGGREGATE_HEADER = ("year", "papers", "a1", "a2", "a3", "a4", "a5plus",
                    "total_authors", "p1to5", "p6to10", "pabove10")

# Author counts below 5 and page lengths; fixed so that only the
# documented knobs change the shape of a set.
_SMALL_AUTHOR_COUNTS = (1, 2, 3, 4)
_SMALL_AUTHOR_WEIGHTS = (30, 35, 22, 13)
_PAGE_LENGTHS = tuple(range(1, 31))
_PAGE_WEIGHTS = tuple(8 if n <= 5 else 10 if n <= 10 else 3 for n in _PAGE_LENGTHS)
_UNKNOWN_SUBJECTS = tuple(f"Uncatalogued topic {i}" for i in range(40))
_AUTHOR_NAMES = tuple(f"{chr(65 + i % 26)}. Author{i * 7919 % 100000:05d}" for i in range(20000))


@dataclass(frozen=True)
class Knobs:
    """The shape of one synthetic record set.

    ``records`` runs from 1e4 to 1e6 in ad-hoc use; shares are per
    record and drawn independently.
    """

    records: int
    years: int = 50
    missing_pages: float = 0.01
    unknown_subjects: float = 0.01
    five_plus_authors: float = 0.05
    count_only: float = 0.0

    def __post_init__(self) -> None:
        if self.years < 1 or self.records < self.years:
            raise ValueError("need at least one record per year")
        for name in ("missing_pages", "unknown_subjects", "five_plus_authors", "count_only"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a share in [0, 1]")


@dataclass
class YearTally:
    papers: int = 0
    authors: list[int] = field(default_factory=lambda: [0] * 5)
    total_authors: int = 0
    pages: list[int] = field(default_factory=lambda: [0] * 3)
    subjects: dict[str, int] = field(default_factory=lambda: dict.fromkeys(TAXONOMY, 0))


@dataclass
class RecordSet:
    """Generated records (field dicts) and their tallies by year."""

    knobs: Knobs
    records: list[dict]
    tallies: dict[int, YearTally]
    missing_pages: int = 0

    @property
    def papers(self) -> int:
        return len(self.records)


def _page_bin(length: int) -> int:
    return 0 if length <= 5 else 1 if length <= 10 else 2


def generate(knobs: Knobs, seed: int) -> RecordSet:
    """Draw ``knobs.records`` records from *seed*.

    The first ``knobs.years`` records cover one year each, so every year
    of the span has at least one paper and EGR/RGR stay defined; the
    rest are spread with a linearly growing weight per year.  The first
    paper of each year is single-authored: the paper-mode collaborative
    index (multi- over single-authored papers) is undefined for a year
    without one, and the CLI rightly refuses such a year.
    """
    rng = random.Random(seed)
    span = range(FIRST_YEAR, FIRST_YEAR + knobs.years)
    years = list(span) + rng.choices(list(span), weights=[i + 1 for i in range(knobs.years)],
                                     k=knobs.records - knobs.years)
    years.sort()
    tallies = {year: YearTally() for year in span}
    out = RecordSet(knobs=knobs, records=[], tallies=tallies)
    small_counts = rng.choices(_SMALL_AUTHOR_COUNTS, _SMALL_AUTHOR_WEIGHTS, k=knobs.records)
    lengths = rng.choices(_PAGE_LENGTHS, _PAGE_WEIGHTS, k=knobs.records)
    r = rng.random  # int(r() * n) in place of randrange: same role, far cheaper
    names, n_names = _AUTHOR_NAMES, len(_AUTHOR_NAMES)
    for i, year in enumerate(years):
        if i == 0 or years[i - 1] != year:
            n_authors = 1
        elif r() < knobs.five_plus_authors:
            n_authors = 5 + int(r() * 8)
        else:
            n_authors = small_counts[i]
        record = {
            "year": year,
            "volume": year - FIRST_YEAR + 1,
            "issue": 1 + int(r() * 12),
            "title": f"Synthetic study {i:07d} of citation patterns",
        }
        if r() < knobs.count_only:
            record["author_count"] = n_authors
        else:
            record["authors"] = [names[int(r() * n_names)] for _ in range(n_authors)]
        tally = tallies[year]
        if r() < knobs.missing_pages:
            record["start_page"] = record["end_page"] = None
            out.missing_pages += 1
        else:
            start = 1 + int(r() * 900)
            record["start_page"] = start
            record["end_page"] = start + lengths[i] - 1
            tally.pages[_page_bin(lengths[i])] += 1
        if r() < knobs.unknown_subjects:
            record["subject"] = _UNKNOWN_SUBJECTS[int(r() * len(_UNKNOWN_SUBJECTS))]
            tally.subjects["Others"] += 1
        else:
            record["subject"] = TAXONOMY[int(r() * len(TAXONOMY))]
            tally.subjects[record["subject"]] += 1
        tally.papers += 1
        tally.authors[min(n_authors, 5) - 1] += 1
        tally.total_authors += n_authors
        out.records.append(record)
    return out


def _cell(value: object) -> object:
    return "" if value is None else value


def write_records_csv(records: RecordSet, path: str) -> None:
    """Record CSV; the ``author_count`` column appears only when used."""
    with_count = records.knobs.count_only > 0
    header = RECORD_HEADER + (("author_count",) if with_count else ())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for rec in records.records:
            row = [rec["year"], rec["volume"], rec["issue"], rec["title"],
                   "; ".join(rec.get("authors", ())), _cell(rec["start_page"]),
                   _cell(rec["end_page"]), rec["subject"]]
            if with_count:
                row.append(_cell(rec.get("author_count")))
            writer.writerow(row)


def write_records_json(records: RecordSet, path: str) -> None:
    """Record JSON: a top-level list, authors as JSON lists, absent pages
    as nulls and count-only records without an ``authors`` key."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(records.records, separators=(",", ":")))


def write_aggregates_csv(records: RecordSet, path: str) -> None:
    """Aggregate CSV of the tallies, subject columns in taxonomy order."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(AGGREGATE_HEADER + tuple(f"subj:{label}" for label in TAXONOMY))
        for year in sorted(records.tallies):
            t = records.tallies[year]
            writer.writerow([year, t.papers, *t.authors, t.total_authors, *t.pages,
                             *(t.subjects[label] for label in TAXONOMY)])
