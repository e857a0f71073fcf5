"""Golden values and conformance checking for the bundled study.

The toolkit ships the published tables of a five-year journal
publication study (2013-2017, 227 articles) as golden data. The
``reproduce-paper`` command builds the eight tables it prints and
compares each printed value at a stated tolerance against the cell of
those tables at the same address: table, row (its first cell, or the
footer for ``total`` and ``mean``) and column header. Conformance thus
checks exactly what is printed, so a per-indicator override that
departs from the paper conventions fails the cells it changes.

A handful of printed cells contradict the source tables' own arithmetic
(for example a bin-total row that does not equal its column sums).
Those cells are carried as *exemptions*: they are still compared and
reported with both the printed and the computed value, but they do not
count as failures, since no computation from the printed inputs can
reproduce them. Every exemption is listed in the conformance output.
"""

from __future__ import annotations

from collections import namedtuple

from .config import AnalysisConfig
from .indicators import cagr
from .model import AUTHORSHIP_BIN_LABELS, Fieldwise
from .report import CellValue, ReportTable, round_display

YEARS = (2013, 2014, 2015, 2016, 2017)

T1 = {
    "papers": (33, 63, 44, 36, 51),
    "pct": (14.5, 27.7, 19.4, 15.9, 22.5),
    "cum": (None, 96, 140, 176, 227),
    "cum_pct": (None, 42.29, 61.67, 77.53, 100.0),
}

T2_BINS = (
    (14, 14, 5, 0, 0),
    (21, 28, 9, 5, 0),
    (11, 22, 9, 1, 1),
    (12, 17, 5, 1, 1),
    (12, 30, 6, 1, 1),
)
T2_ROW_PCT = (
    (42.42, 42.42, 15.15, 0.0, 0.0),
    (33.33, 44.44, 14.29, 7.94, 0.0),
    (25.0, 50.0, 20.45, 2.27, 2.27),
    (33.33, 47.22, 13.89, 2.78, 2.78),
    (23.53, 58.82, 11.76, 1.96, 1.96),
)
T2_YEAR_PCT = (14.5, 27.8, 19.4, 15.9, 22.5)
T2_FOOTER = (70, 111, 34, 9, 3)          # the 4-author cell is exempt, see below
T2_FOOTER_PCT = (30.84, 48.90, 14.98, 3.96, 1.32)

T3 = {
    "authors": (57, 124, 91, 70, 99),
    "papers_pct": (14.54, 27.75, 19.38, 15.86, 22.47),
    "authors_pct": (12.93, 28.12, 20.63, 15.87, 22.45),
    "aapp": (1.73, 1.97, 2.07, 1.94, 1.94),
    "ppa": (0.58, 0.51, 0.48, 0.51, 0.51),
}

T4 = {
    "single": (14, 21, 11, 12, 12),
    "multiple": (19, 42, 33, 24, 38),
    "papers": (33, 63, 44, 36, 50),   # single + multiple per year, as printed
    "ci": (1.36, 2.00, 3.00, 2.00, 3.17),
    "dc": (0.58, 0.67, 0.75, 0.67, 0.76),
}

T5_EGR = (0.00, 1.91, 0.70, 0.82, 1.42)

T6 = {
    "w1": (3.49, 4.14, 3.78, 3.58, 3.93),  # first cell exempt, see below
    "w2": (4.14, 3.78, 3.58, 3.93, 5.42),
    "r": (0.65, 0.36, 0.20, 0.35, 1.49),
    "dt": (1.07, 1.93, 3.47, 1.98, 0.47),
    "cum": (None, 96, 140, 176, 227),
}

T7_BINS = ((4, 26, 3), (13, 45, 5), (6, 34, 4), (7, 27, 2), (7, 43, 1))
T7_PCT = (
    (10.81, 14.86, 20.00),
    (35.14, 25.71, 33.33),
    (16.22, 19.43, 26.67),
    (18.92, 15.43, 13.33),
    (18.92, 24.57, 6.67),
)
T7_TOTALS = (37, 175, 15)
_PAGE_LABELS = ("1-5", "6-10", "above 10")

T8_CELLS = {
    "Scientometrics, Bibliometrics": (11, 18, 10, 1, 11),
    "Webometrics": (1, 0, 2, 0, 2),
    "User survey": (3, 6, 4, 9, 9),
    "E-Resources": (3, 9, 2, 5, 8),
    "Information Seeking Behaviour": (2, 2, 1, 1, 0),
    "Knowledge Management": (2, 2, 3, 3, 1),
    "Library Services": (2, 3, 2, 2, 3),
    "ICT": (1, 5, 1, 1, 1),
    "Digital Libraries": (1, 1, 1, 2, 1),
    "Open Access": (2, 1, 2, 1, 3),
    "Library Automation": (1, 2, 1, 2, 2),
    "Search Engines": (0, 0, 2, 0, 1),    # 2017 cell exempt, see below
    "Social Networks": (0, 0, 1, 2, 1),
    "Others": (4, 14, 12, 7, 9),
}
T8_ROW_TOTALS = {
    "Scientometrics, Bibliometrics": 51,
    "Webometrics": 5,
    "User survey": 31,
    "E-Resources": 27,
    "Information Seeking Behaviour": 6,
    "Knowledge Management": 11,
    "Library Services": 12,
    "ICT": 9,
    "Digital Libraries": 6,
    "Open Access": 9,
    "Library Automation": 8,
    "Search Engines": 2,
    "Social Networks": 3,                 # exempt, see below
    "Others": 46,
}

# Printed cells that contradict the source tables' own arithmetic.
# Key: (table number, cell path). Value: why no computation can match.
EXEMPTIONS: dict[tuple[int, str], str] = {
    (2, "total / 4 authors"):
        "the printed total row says 9 but the 4-author column sums to 8",
    (2, "total / 4 authors %"):
        "follows the printed 9 (9/227 = 3.96) where the column sum gives 8/227 = 3.52",
    (3, "total / PPA"):
        "the printed total 2.59 sums a truncated cell (0.51 for the last year, "
        "where 51/99 = 0.5152 rounds to 0.52)",
    (6, "2013 / W1"):
        "printed 3.49 where ln 33 = 3.4965 rounds to 3.50",
    (8, "Search Engines / 2017"):
        "the printed 2017 column sums to 52 against its printed total 51; the "
        "bundled data carries 0 here, which also matches the printed row total of 2",
    (8, "Social Networks / total"):
        "the printed row total says 3 but the printed cells sum to 4",
}


class GoldenCheck(namedtuple("GoldenCheck", "table cell expected tol display_decimals",
                             defaults=(None, None))):
    """One printed value with its comparison rule.

    ``tol`` compares numerically; ``display_decimals`` compares the
    half-up display string at that many decimals; expected ``None``
    requires the printed cell to be absent.
    """

    __slots__ = ()

    @property
    def exempt(self) -> bool:
        return (self.table, self.cell) in EXEMPTIONS

    @property
    def name(self) -> str:
        return f"table {self.table} / {self.cell}"


class CheckOutcome(namedtuple("CheckOutcome", "check actual matched problem", defaults=(None,))):
    """A check's result; ``problem`` says why its address resolved to no cell."""

    __slots__ = ()

    @property
    def status(self) -> str:
        if self.problem is not None:
            return "fail"
        if self.check.exempt:
            return "exempt"
        return "pass" if self.matched else "fail"


class ConformanceResult(Fieldwise):
    def __init__(self, outcomes: list[CheckOutcome]):
        self.outcomes = outcomes

    @property
    def n_passed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "pass")

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "fail")

    @property
    def n_exempt(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "exempt")

    @property
    def ok(self) -> bool:
        return self.n_failed == 0


def demo_golden_checks() -> list[GoldenCheck]:
    """Every printed value of the bundled study's eight tables."""
    checks: list[GoldenCheck] = []

    def per_year(table: int, label: str, values, tol: float | None) -> None:
        for year, expected in zip(YEARS, values):
            checks.append(GoldenCheck(table, f"{year} / {label}", expected, tol=tol))

    # Table 1
    per_year(1, "papers", T1["papers"], 0)
    per_year(1, "%", T1["pct"], 0.1)
    per_year(1, "cum. papers", T1["cum"], 0)
    per_year(1, "cum. %", T1["cum_pct"], 0.01)
    checks.append(GoldenCheck(1, "total / papers", 227, tol=0))

    # Table 2
    bin_labels = AUTHORSHIP_BIN_LABELS
    for year, counts, percents in zip(YEARS, T2_BINS, T2_ROW_PCT):
        for label, count, pct in zip(bin_labels, counts, percents):
            checks.append(GoldenCheck(2, f"{year} / {label}", count, tol=0))
            checks.append(GoldenCheck(2, f"{year} / {label} %", pct, tol=0.01))
    per_year(2, "papers %", T2_YEAR_PCT, 0.1)
    for label, count, pct in zip(bin_labels, T2_FOOTER, T2_FOOTER_PCT):
        checks.append(GoldenCheck(2, f"total / {label}", count, tol=0))
        checks.append(GoldenCheck(2, f"total / {label} %", pct, tol=0.01))

    # Table 3
    per_year(3, "authors", T3["authors"], 0)
    per_year(3, "papers %", T3["papers_pct"], 0.01)
    per_year(3, "authors %", T3["authors_pct"], 0.01)
    per_year(3, "AAPP", T3["aapp"], 0.01)
    per_year(3, "PPA", T3["ppa"], 0.01)
    checks.append(GoldenCheck(3, "total / papers", 227, tol=0))
    checks.append(GoldenCheck(3, "total / authors", 441, tol=0))
    checks.append(GoldenCheck(3, "total / AAPP", "9.65", display_decimals=2))
    checks.append(GoldenCheck(3, "total / PPA", "2.59", display_decimals=2))

    # Table 4
    per_year(4, "single", T4["single"], 0)
    per_year(4, "multiple", T4["multiple"], 0)
    per_year(4, "papers", T4["papers"], 0)
    per_year(4, "CI", T4["ci"], 0.01)
    per_year(4, "DC", T4["dc"], 0.01)
    checks.append(GoldenCheck(4, "total / single", 70, tol=0))
    checks.append(GoldenCheck(4, "total / multiple", 157, tol=0))
    checks.append(GoldenCheck(4, "total / papers", 227, tol=0))
    checks.append(GoldenCheck(4, "total / CI", 2.24, tol=0.01))
    checks.append(GoldenCheck(4, "total / DC", 0.69, tol=0.01))

    # Table 5
    per_year(5, "EGR", T5_EGR, 0.01)
    checks.append(GoldenCheck(5, "total / EGR", 4.85, tol=0.01))
    checks.append(GoldenCheck(5, "CAGR %", 9.1, tol=0.05))

    # Table 6
    per_year(6, "W1", T6["w1"], 0.01)
    per_year(6, "W2", T6["w2"], 0.01)
    per_year(6, "R", T6["r"], 0.01)
    per_year(6, "Dt", T6["dt"], 0.01)
    per_year(6, "cum. papers", T6["cum"], 0)
    checks.append(GoldenCheck(6, "mean / R", 0.61, tol=0.01))
    checks.append(GoldenCheck(6, "mean / Dt", 1.78, tol=0.01))

    # Table 7
    for year, counts, percents in zip(YEARS, T7_BINS, T7_PCT):
        for label, count, pct in zip(_PAGE_LABELS, counts, percents):
            checks.append(GoldenCheck(7, f"{year} / {label}", count, tol=0))
            checks.append(GoldenCheck(7, f"{year} / {label} %", pct, tol=0.01))
    for label, count in zip(_PAGE_LABELS, T7_TOTALS):
        checks.append(GoldenCheck(7, f"total / {label}", count, tol=0))
    checks.append(GoldenCheck(7, "total / papers", 227, tol=0))

    # Table 8
    for subject, counts in T8_CELLS.items():
        for year, count in zip(YEARS, counts):
            checks.append(GoldenCheck(8, f"{subject} / {year}", count, tol=0))
        checks.append(GoldenCheck(8, f"{subject} / total", T8_ROW_TOTALS[subject], tol=0))
    for year, total in zip(YEARS, T1["papers"]):
        checks.append(GoldenCheck(8, f"total / {year}", total, tol=0))
    checks.append(GoldenCheck(8, "total / total", 227, tol=0))

    return checks


# Check-name columns that differ from the printed column headers, per
# table. A column name not listed here is its own header.
_HEADERS: dict[int, dict[str, str]] = {
    1: {"papers": "Papers", "cum. papers": "Cum. papers", "cum. %": "Cum. %"},
    2: {"papers %": "Papers %"},
    3: {"papers": "Papers", "papers %": "Papers %", "authors": "Authors",
        "authors %": "Authors %"},
    4: {"single": "Single", "multiple": "Multiple", "papers": "Papers"},
    5: {},
    6: {"cum. papers": "Cum. papers"},
    7: {"1-5": "1-5 pages", "1-5 %": "1-5 pages %", "6-10": "6-10 pages",
        "6-10 %": "6-10 pages %", "above 10": "Above 10 pages",
        "above 10 %": "Above 10 pages %", "papers": "Papers"},
    8: {"total": "Total"},
}


def _printed_cell(check: GoldenCheck, tables: list[ReportTable],
                  config: AnalysisConfig) -> CellValue:
    """The value *tables* print at the check's address.

    Raises LookupError when the address names no row or no column.
    """
    table = tables[check.table - 1]
    if (check.table, check.cell) == (5, "CAGR %"):
        # The one golden value printed in a note rather than a cell.
        papers = [table.cell(str(row[0]), "Papers") for row in table.rows]
        return cagr(papers[0], papers[-1], len(papers), config.cagr_mode)
    row, _, column = check.cell.partition(" / ")
    return table.cell(row, _HEADERS[check.table].get(column, column))


def _matches(check: GoldenCheck, actual: object) -> bool:
    if check.expected is None:
        return actual is None
    if actual is None:
        return False
    if check.display_decimals is not None:
        return round_display(float(actual), check.display_decimals) == check.expected
    if check.tol == 0:
        return int(actual) == int(check.expected)
    return abs(float(actual) - float(check.expected)) <= (check.tol or 0.0)


def check_outcome(check: GoldenCheck, tables: list[ReportTable],
                  config: AnalysisConfig) -> CheckOutcome:
    """Compare *check* against the cell it addresses in *tables* (tables 1-8 in
    order, built under *config*); an address with no cell fails with its own message."""
    try:
        actual = _printed_cell(check, tables, config)
    except LookupError as exc:
        return CheckOutcome(check=check, actual=None, matched=False,
                            problem=f"table {check.table} has {exc}")
    return CheckOutcome(check=check, actual=actual, matched=_matches(check, actual))


def run_conformance(tables: list[ReportTable], config: AnalysisConfig) -> ConformanceResult:
    """Compare every printed golden value against the printed *tables* 1-8."""
    return ConformanceResult([check_outcome(check, tables, config)
                              for check in demo_golden_checks()])


def _show(value: object) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return round_display(value, 4)
    return str(value)


def conformance_lines(result: ConformanceResult, verbose: bool = False) -> list[str]:
    """Human-readable conformance report; failures and exemptions always
    shown, passes only when *verbose*."""
    lines = []
    for outcome in result.outcomes:
        check = outcome.check
        if outcome.status == "pass":
            if verbose:
                lines.append(f"[PASS]   {check.name}: {_show(outcome.actual)}")
        elif outcome.status == "fail":
            got = outcome.problem or f"got {_show(outcome.actual)}"
            lines.append(f"[FAIL]   {check.name}: expected {_show(check.expected)}, {got}")
        else:
            reason = EXEMPTIONS[(check.table, check.cell)]
            lines.append(f"[EXEMPT] {check.name}: printed {_show(check.expected)}, "
                         f"computed {_show(outcome.actual)} ({reason})")
    lines.append(f"golden checks: {result.n_passed} passed, {result.n_failed} failed, "
                 f"{result.n_exempt} exempted (source-table arithmetic)")
    return lines
