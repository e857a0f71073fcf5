"""Tables 3-6 against values computed here, with no code of the toolkit.

Each case draws consistent per-year aggregate rows from a seeded
``random.Random``, writes them as an aggregate CSV and runs ``analyze
--table N --format json`` for N = 3 to 6, in ``--mode paper`` and in
``--mode standard``. Every cell's ``display`` string, and the EGR
table's CAGR note, must equal the value computed here from the textbook
definitions, without ``scientoscope.indicators``:

* AAPP = authors/papers, PPA = papers/authors, and each year's share of
  the papers and of the authors;
* DC = Nm/(Nm + Ns) (Subramanyam, 1983);
* CI = authors/papers (Lawani, 1980), and in paper mode Nm/Ns, the
  ratio the study's printed column follows;
* EGR, papers(t)/papers(t-1) in paper mode and its logarithm in
  standard mode, and CAGR = ((last/first)^(1/n) - 1) * 100% over n
  periods: the years of the window in paper mode, the years between its
  ends in standard mode;
* cumulative papers, W1, W2, R = W2 - W1 and Dt = ln 2 / R
  (Mahapatra, 1985).

Paper mode's departures follow the docstrings of
``scientoscope.indicators``. Its module docstring carries R at the
displayed 2-decimal precision before Dt and the means are derived from
it. ``relative_growth``'s has each paper-mode row compare ln of
successive yearly counts, the last row the last year against ln of the
grand total, with R = |W2 - W1|. ``productivity_table``'s and
``egr_table``'s have the paper-mode totals rows add the displayed yearly
values. Which cells a table leaves absent follows the same docstrings.

A ratio is computed exactly (``Fraction``) and a logarithm, exponential
or quotient of logarithms to 40 digits (``decimal``). A cell holds the
float nearest such a value, and ``report.round_display`` rounds that
float's exact binary value half up, so this rounds the float nearest
each value half up at its column's precision with ``decimal``; a zero
shows no sign, as ``round_display`` says.
"""

import csv
import json
import random
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

import pytest

from scientoscope.cli import main

_CTX = Context(prec=40)
_LN2 = Decimal(2).ln(_CTX)

#: The subject labels the drawn rows use, all in the default taxonomy.
_SUBJECTS = ("Webometrics", "ICT", "Others")


def _draw(rng: random.Random) -> list[dict]:
    """Consistent rows of 2 to 60 consecutive years: each year has at
    least one single- and one multi-authored paper, its page and subject
    counts add up to its papers, and its author total counts 5 to 12
    authors for each paper of the 5+ class."""
    scale = rng.choice((1, 3, 30, 300))  # small counts repeat a year's papers
    first = rng.randint(1950, 2020)
    rows = []
    for year in range(first, first + rng.randint(2, 60)):
        bins = [rng.randint(1, scale), *(rng.randint(0, scale) for _ in range(4))]
        if not any(bins[1:]):
            bins[rng.randint(1, 4)] = 1
        papers = sum(bins)
        authors = (sum(k * n for k, n in enumerate(bins[:4], start=1))
                   + sum(rng.randint(5, 12) for _ in range(bins[4])))
        cuts = sorted(rng.randint(0, papers) for _ in range(2))
        pages = [cuts[0], cuts[1] - cuts[0], papers - cuts[1]]
        cuts = sorted(rng.randint(0, papers) for _ in range(len(_SUBJECTS) - 1))
        subjects = [b - a for a, b in zip([0, *cuts], [*cuts, papers])]
        rows.append({"year": year, "papers": papers, "bins": bins, "authors": authors,
                     "pages": pages, "subjects": subjects})
    return rows


def _write(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["year", "papers", "a1", "a2", "a3", "a4", "a5plus", "total_authors",
                         "p1to5", "p6to10", "pabove10", *(f"subj:{s}" for s in _SUBJECTS)])
        for r in rows:
            writer.writerow([r["year"], r["papers"], *r["bins"], r["authors"],
                             *r["pages"], *r["subjects"]])


def _decimal(value: Fraction | Decimal) -> Decimal:
    if isinstance(value, Fraction):
        return _CTX.divide(Decimal(value.numerator), Decimal(value.denominator))
    return value


def _ln(value: Fraction) -> Decimal:
    return _decimal(value).ln(_CTX)


def _rounded(value: Fraction | Decimal, decimals: int = 2) -> Decimal:
    """The float nearest *value*, which a cell holds, rounded half up at
    *decimals* places."""
    return Decimal(float(value)).quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP)


def _shown(value: Fraction | Decimal | None, decimals: int = 2) -> str:
    """The display string of *value*: rounded half up, with no sign on zero,
    or the absent marker."""
    if value is None:
        return "-"
    shown = _rounded(value, decimals)
    return f"{abs(shown) if shown == 0 else shown:f}"


def _productivity(rows: list[dict], paper: bool) -> list[list[str]]:
    papers = sum(r["papers"] for r in rows)
    authors = sum(r["authors"] for r in rows)
    aapp = [Fraction(r["authors"], r["papers"]) for r in rows]
    grid = [[str(r["year"]), str(r["papers"]), _shown(Fraction(100 * r["papers"], papers)),
             str(r["authors"]), _shown(Fraction(100 * r["authors"], authors)),
             _shown(a), _shown(1 / a)] for r, a in zip(rows, aapp)]
    if paper:  # the totals row adds the displayed yearly values
        totals = sum(map(_rounded, aapp)), sum(_rounded(1 / a) for a in aapp)
    else:
        totals = Fraction(authors, papers), Fraction(papers, authors)
    return grid + [["Total", str(papers), "-", str(authors), "-", *map(_shown, totals)]]


def _collaboration(rows: list[dict], paper: bool) -> list[list[str]]:
    def cells(single: int, multiple: int, authors: int) -> list[str]:
        papers = single + multiple
        ci = Fraction(multiple, single) if paper else Fraction(authors, papers)
        return [str(single), str(multiple), str(papers), _shown(ci),
                _shown(Fraction(multiple, papers))]

    grid = [[str(r["year"]), *cells(r["bins"][0], sum(r["bins"][1:]), r["authors"])]
            for r in rows]
    totals = cells(sum(r["bins"][0] for r in rows), sum(sum(r["bins"][1:]) for r in rows),
                   sum(r["authors"] for r in rows))
    return grid + [["Total", *totals]]


def _egr(rows: list[dict], paper: bool) -> tuple[list[list[str]], str]:
    papers = [r["papers"] for r in rows]
    ratios = [Fraction(b, a) for a, b in zip(papers, papers[1:])]
    if paper:
        rates = [Fraction(0), *ratios]
        total = sum(map(_rounded, rates))  # the totals row adds the displayed yearly values
    else:
        rates = [None, *map(_ln, ratios)]
        total = sum(rates[1:])
    grid = [[str(r["year"]), str(p), _shown(rate)] for r, p, rate in zip(rows, papers, rates)]
    periods = len(rows) if paper else len(rows) - 1
    growth = ((_ln(Fraction(papers[-1], papers[0])) / periods).exp(_CTX) - 1) * 100
    note = (f"CAGR {rows[0]['year']}-{rows[-1]['year']}: {_shown(growth, 1)}% "
            f"over {periods} periods.")
    return grid + [["Total", str(sum(papers)), _shown(total)]], note


def _rgr(rows: list[dict], paper: bool) -> list[list[str]]:
    papers = [r["papers"] for r in rows]
    cumulative = [sum(papers[:i + 1]) for i in range(len(papers))]
    grid, rates, times = [], [], []
    for i, (r, p) in enumerate(zip(rows, papers)):
        if paper:
            w1 = _ln(Fraction(p))
            w2 = _ln(Fraction(papers[i + 1] if i + 1 < len(papers) else cumulative[-1]))
            rate = _rounded(abs(w2 - w1))  # carried at the displayed precision
        elif i:
            w1, w2 = _ln(Fraction(cumulative[i - 1])), _ln(Fraction(cumulative[i]))
            rate = w2 - w1
        else:  # the first year has no earlier total to grow from
            w1, w2, rate = None, _ln(Fraction(cumulative[0])), None
        time = _CTX.divide(_LN2, rate) if rate else None
        rates += [rate] if rate is not None else []
        times += [time] if time is not None else []
        grid.append([str(r["year"]), str(p), str(cumulative[i]) if i else "-",
                     _shown(w1), _shown(w2), _shown(rate), _shown(time)])
    mean_time = sum(times) / len(times) if times else None
    return grid + [["Total", str(sum(papers)), "-", "-", "-",
                    _shown(sum(rates) / len(rates)), _shown(mean_time)]]


def _analyzed(path, table: int, mode: str, capsys) -> dict:
    assert main(["analyze", "--input", str(path), "--table", str(table),
                 "--format", "json", "--mode", mode]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""  # consistent rows: no finding
    (obj,) = json.loads(captured.out)["tables"]
    return obj


def _displays(obj: dict) -> list[list[str]]:
    return [[cell["display"] if isinstance(cell, dict) else str(cell) for cell in row]
            for row in [*obj["rows"], obj["footer"]]]


@pytest.mark.parametrize("mode", ["paper", "standard"])
#: Seed 72 draws 24 years whose paper-mode R's have the mean 0.335, a tie
#: that their float sum over 24 (0.33499999999999996) rounds down.
@pytest.mark.parametrize("seed", [*range(16), 72])
def test_tables_3_to_6_show_the_textbook_values(seed, mode, tmp_path, capsys):
    rows = _draw(random.Random(seed))
    path = tmp_path / "aggregates.csv"
    _write(rows, path)
    paper = mode == "paper"
    egr, note = _egr(rows, paper)
    expected = {3: _productivity(rows, paper), 4: _collaboration(rows, paper),
                5: egr, 6: _rgr(rows, paper)}
    for table, grid in expected.items():
        obj = _analyzed(path, table, mode, capsys)
        assert _displays(obj) == grid, table
        if table == 5:
            assert obj["notes"] == [note]
