"""Acceptance suite: golden reproduction of the bundled study's tables.

Each criterion runs at its stated tolerance and prints one pass/fail
line (visible under ``pytest -s``). Counts compare exactly, percentages
and ratios at the stated absolute tolerance.

A few printed cells of the source tables contradict the tables' own
arithmetic and are unreachable by any computation from the printed
inputs (for example a totals row that does not equal its column sums).
The main tests assert the arithmetically consistent computed values;
the literal printed values are tracked as strict-xfail companions at
the bottom of this module, and the ``reproduce-paper`` conformance run
reports the same cells as logged exemptions.
"""

import math
import random

import pytest

from scientoscope import (
    AnalysisConfig,
    Dataset,
    YearAggregate,
    aggregate_records,
    authorship_table,
    cagr,
    collaboration_table,
    collaborative_index,
    degree_of_collaboration,
    egr_table,
    page_length_table,
    parse_aggregates,
    productivity_table,
    relative_growth,
    rgr_table,
    round_display,
    subject_table,
    validate,
    write_aggregates_csv,
    year_distribution_table,
)
from scientoscope.cli import demo_aggregates_path, main
from scientoscope.distributions import PAGE_BIN_LABELS
from scientoscope.golden import (
    T1,
    T2_BINS,
    T2_ROW_PCT,
    T3,
    T4,
    T5_EGR,
    T6,
    T7_BINS,
    T7_PCT,
    T7_TOTALS,
    T8_CELLS,
    T8_ROW_TOTALS,
    YEARS,
)
from scientoscope.model import AUTHORSHIP_BIN_LABELS

POOLED = AnalysisConfig(mode="paper", totals_source="full_precision")


def _passed(number: object, label: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {label}")


def _column(table, header):
    """The printed *header* cell of every body row."""
    return [table.cell(str(row[0]), header) for row in table.rows]


def _cells(table, row, headers, suffix=""):
    """The printed cells of one row under each of *headers*, each with *suffix*."""
    return tuple(table.cell(str(row), f"{header}{suffix}") for header in headers)


# --- 1 -------------------------------------------------------------------


def test_criterion_01_year_distribution(demo_dataset):
    table = year_distribution_table(demo_dataset)
    assert _column(table, "Papers") == list(T1["papers"])
    assert _column(table, "Cum. papers") == list(T1["cum"])
    for got, want in zip(_column(table, "Cum. %"), T1["cum_pct"]):
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=0.01)
    for got, want in zip(_column(table, "%"), T1["pct"]):
        assert got == pytest.approx(want, abs=0.1)
    _passed(1, "year-wise distribution (papers, cumulative, percents)")


# --- 2 -------------------------------------------------------------------


def test_criterion_02_authorship_pattern(demo_dataset):
    table = authorship_table(demo_dataset)
    assert tuple(_column(table, "Year")) == YEARS
    for year, bins, percents in zip(YEARS, T2_BINS, T2_ROW_PCT):
        assert _cells(table, year, AUTHORSHIP_BIN_LABELS) == bins
        for got, want in zip(_cells(table, year, AUTHORSHIP_BIN_LABELS, " %"), percents):
            assert got == pytest.approx(want, abs=0.01)
    # The printed totals row reads [70, 111, 34, 9, 3], but the printed
    # 4-author column sums to 8; the computed footer is the column sum.
    assert _cells(table, "total", AUTHORSHIP_BIN_LABELS) == (70, 111, 34, 8, 3)
    report = validate(demo_dataset)
    assert any(f.rule == "authorship-bin-sum" and f.location == "2017"
               for f in report.warnings), "2017 row-sum warning must be emitted"
    _passed(2, "authorship pattern (bins, row percents, 2017 warning; "
               "4-author total exempted, see xfail companion)")


# --- 3 -------------------------------------------------------------------


def test_criterion_03_author_productivity(demo_dataset, paper_config):
    table = productivity_table(demo_dataset, paper_config)
    for got, want in zip(_column(table, "AAPP"), T3["aapp"]):
        assert got == pytest.approx(want, abs=0.01)
    for got, want in zip(_column(table, "PPA"), T3["ppa"]):
        assert got == pytest.approx(want, abs=0.01)
    assert round_display(table.cell("total", "AAPP"), 2) == "9.65"
    # The printed PPA total 2.59 sums a truncated cell (51/99 = 0.5152
    # displays as 0.52); the consistent sum of displayed values is 2.60.
    assert round_display(table.cell("total", "PPA"), 2) == "2.60"
    pooled = productivity_table(demo_dataset, POOLED)
    pooled_aapp, pooled_ppa = pooled.cell("total", "AAPP"), pooled.cell("total", "PPA")
    assert pooled_aapp == pytest.approx(441 / 227, abs=1e-12)  # oracle: pooled division
    assert pooled_aapp == pytest.approx(1.94, abs=0.01)
    assert pooled_ppa == pytest.approx(227 / 441, abs=1e-12)
    assert pooled_ppa == pytest.approx(0.51, abs=0.01)
    _passed(3, "author productivity (AAPP, PPA, totals; printed PPA total "
               "exempted, see xfail companion)")


# --- 4 -------------------------------------------------------------------


def test_criterion_04_collaboration(demo_dataset, paper_config):
    table = collaboration_table(demo_dataset, paper_config)
    for got, want in zip(_column(table, "DC"), T4["dc"]):
        assert got == pytest.approx(want, abs=0.01)
    assert table.cell("total", "DC") == pytest.approx(0.69, abs=0.01)
    for got, want in zip(_column(table, "CI"), T4["ci"]):
        assert got == pytest.approx(want, abs=0.01)
    assert table.cell("total", "CI") == pytest.approx(2.24, abs=0.01)
    stated_2013 = collaborative_index(14, 19, authors=57, variant="stated")
    assert stated_2013 == pytest.approx(1.73, abs=0.01)
    _passed(4, "degree of collaboration and both CI variants")


# --- 5 -------------------------------------------------------------------


def test_criterion_05_growth_rates(demo_dataset, paper_config):
    table = egr_table(demo_dataset, paper_config)
    for got, want in zip(_column(table, "EGR"), T5_EGR):
        assert got == pytest.approx(want, abs=0.01)
    # Paper mode's totals row adds the yearly values at their 2-decimal rounding.
    assert table.cell("total", "EGR") == pytest.approx(4.85, abs=1e-9)
    assert egr_table(demo_dataset, POOLED).cell("total", "EGR") == pytest.approx(4.85, abs=0.01)
    assert cagr(33, 51, 5, "paper_years") == pytest.approx(9.1, abs=0.05)
    # Oracle: direct exponentiation over 4 intervals.
    assert cagr(33, 51, 5, "intervals") == pytest.approx(((51 / 33) ** 0.25 - 1) * 100,
                                                         abs=1e-12)
    assert cagr(33, 51, 5, "intervals") == pytest.approx(11.5, abs=0.05)
    _passed(5, "exponential growth rate and CAGR (both period conventions)")


# --- 6 -------------------------------------------------------------------


def test_criterion_06_relative_growth(demo_dataset, paper_config):
    table = rgr_table(demo_dataset, paper_config)
    for got, want in zip(_column(table, "R"), T6["r"]):
        assert got == pytest.approx(want, abs=0.01)
    for got, want in zip(_column(table, "Dt"), T6["dt"]):
        assert got == pytest.approx(want, abs=0.01)
    # W columns at +/-0.01, except the first W1 cell: the source prints
    # 3.49 where ln 33 = 3.4965 rounds to 3.50. Logged and compared
    # against the computed 3.50 instead.
    print("ACCEPTANCE 6: note - first-year W1 prints 3.49 in the source; "
          "ln 33 = 3.4965 rounds to 3.50 (cell exempted)")
    for got, want in zip(_column(table, "W1"), (3.50, 4.14, 3.78, 3.58, 3.93)):
        assert got == pytest.approx(want, abs=0.01)
    for got, want in zip(_column(table, "W2"), T6["w2"]):
        assert got == pytest.approx(want, abs=0.01)
    assert table.cell("mean", "R") == pytest.approx(0.61, abs=0.01)
    assert table.cell("mean", "Dt") == pytest.approx(1.78, abs=0.01)
    _passed(6, "relative growth rate and doubling time (W1 2013 exempted and logged)")


# --- 7 -------------------------------------------------------------------


def test_criterion_07_page_lengths(demo_dataset):
    table = page_length_table(demo_dataset)
    assert tuple(_column(table, "Year")) == YEARS
    for year, bins, percents in zip(YEARS, T7_BINS, T7_PCT):
        assert _cells(table, year, PAGE_BIN_LABELS) == bins
        for got, want in zip(_cells(table, year, PAGE_BIN_LABELS, " %"), percents):
            assert got == pytest.approx(want, abs=0.01)
    assert _cells(table, "total", PAGE_BIN_LABELS) == T7_TOTALS
    _passed(7, "page-length distribution (counts, column totals, percents)")


# --- 8 -------------------------------------------------------------------

# As printed, except Search Engines 2017: the printed 2017 column sums
# to 52 against its own total of 51, and the bundled data resolves the
# overshoot by dropping that cell to 0 (which also matches the printed
# Search Engines row total of 2). The printed cell is tracked in the
# xfail companion below.
GOLDEN_T8_CELLS = {**T8_CELLS, "Search Engines": (0, 0, 2, 0, 0)}
# Printed row totals; Social Networks prints 3 where its cells sum to 4
# (xfail companion below), so the computed 4 is asserted here.
GOLDEN_T8_ROW_TOTALS = tuple({**T8_ROW_TOTALS, "Social Networks": 4}.values())


def test_criterion_08_subject_distribution(demo_dataset):
    table = subject_table(demo_dataset)
    assert len(table.rows) == 14
    for subject in _column(table, "Subject"):
        assert _cells(table, subject, YEARS) == GOLDEN_T8_CELLS[subject], subject
    assert tuple(_column(table, "Total")) == GOLDEN_T8_ROW_TOTALS
    for year, want in zip(YEARS, T1["papers"]):
        assert sum(_column(table, str(year))) == want  # columns match table 1
    _passed(8, "subject distribution (cells, row totals, column sums; two printed "
               "totals exempted, see xfail companions)")


# --- 9: property suite ----------------------------------------------------


def _random_series(rng: random.Random) -> list[tuple[int, int]]:
    n = rng.randint(2, 8)
    return [(2000 + i, rng.randint(1, 500)) for i in range(n)]


def test_criterion_09_property_suite(demo_records):
    # (a) dt * r = ln 2 for 200 randomized positive series, both modes.
    rng = random.Random(20130101)
    for _ in range(200):
        series = _random_series(rng)
        for mode in ("standard", "paper"):
            for *_, r, dt in relative_growth(series, mode):
                if r is not None and dt is not None:
                    assert abs(dt * r - math.log(2)) <= 1e-9, (mode, series)

    # (b) DC bounds and exact invariance under integer scaling, 200 pairs.
    rng = random.Random(20140202)
    for _ in range(200):
        single = rng.randint(0, 10000)
        multiple = rng.randint(0, 10000)
        if single + multiple == 0:
            single = 1
        dc = degree_of_collaboration(single, multiple)
        assert 0.0 <= dc <= 1.0
        k = rng.randint(1, 7)
        assert degree_of_collaboration(k * single, k * multiple) == dc

    # (c) aggregate_records is permutation invariant, 50 shuffles.
    rng = random.Random(20150303)
    baseline, _ = aggregate_records(demo_records)
    records = list(demo_records)
    for _ in range(50):
        rng.shuffle(records)
        permuted, _ = aggregate_records(tuple(records))
        assert permuted == baseline

    # (d) printed CI equals the DC odds dc/(1-dc) wherever dc < 1.
    rng = random.Random(20160404)
    for _ in range(200):
        single = rng.randint(1, 500)
        multiple = rng.randint(0, 2000)
        dc = degree_of_collaboration(single, multiple)
        ci = collaborative_index(single, multiple, variant="printed")
        assert abs(ci - dc / (1.0 - dc)) <= 1e-9

    # (e) standard-mode R telescopes to ln(total / first-year papers).
    rng = random.Random(20170505)
    for _ in range(200):
        series = _random_series(rng)
        total_r = sum(r for *_, r, _ in relative_growth(series, "standard") if r is not None)
        expected = math.log(sum(p for _, p in series) / series[0][1])
        assert abs(total_r - expected) <= 1e-9

    # (f) aggregate CSV write -> parse round-trip identity, 50 datasets.
    rng = random.Random(20180606)
    taxonomy = ("Scientometrics, Bibliometrics", "Webometrics", "Others")
    for _ in range(50):
        first_year = rng.randint(1990, 2020)
        aggregates = []
        for offset in range(rng.randint(1, 6)):
            bins = tuple(rng.randint(0, 30) for _ in range(5))
            pages = tuple(rng.randint(0, 30) for _ in range(3))
            aggregates.append(YearAggregate(
                year=first_year + offset,
                papers=rng.randint(0, 150),
                authorship_bins=bins,
                page_bins=pages,
                subject_counts={label: rng.randint(0, 40) for label in taxonomy},
                total_authors=rng.choice([None, rng.randint(0, 400)]),
            ))
        dataset = Dataset(tuple(aggregates))
        assert parse_aggregates(write_aggregates_csv(dataset)) == dataset

    _passed(9, "property suite (doubling identity, DC bounds/scaling, permutation "
               "invariance, CI odds identity, telescoping, CSV round-trip)")


# --- 10 -------------------------------------------------------------------


def test_criterion_10_reproduce_paper(capsys, tmp_path):
    rc = main(["reproduce-paper"])
    out = capsys.readouterr().out
    assert rc == 0
    assert ", 0 failed," in out.splitlines()[-1]
    assert "[FAIL]" not in out

    # Negative control: one perturbed cell must fail by name.
    corrupted = demo_aggregates_path().read_text(encoding="utf-8").replace(",91,", ",92,")
    path = tmp_path / "corrupted.csv"
    path.write_text(corrupted, encoding="utf-8")
    rc = main(["reproduce-paper", "--input", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]   table 3 / 2015 / authors: expected 91, got 92" in out
    _passed(10, "reproduce-paper conformance and negative control")


# --- xfail companions: printed values the source tables themselves break ---


@pytest.mark.xfail(strict=True, reason="printed 4-author total is 9 but the printed "
                                       "column cells sum to 8")
def test_printed_four_author_total_as_literal(demo_dataset):
    table = authorship_table(demo_dataset)
    assert _cells(table, "total", AUTHORSHIP_BIN_LABELS) == (70, 111, 34, 9, 3)


@pytest.mark.xfail(strict=True, reason="printed PPA total 2.59 sums a truncated cell; "
                                       "half-up display of 51/99 is 0.52, giving 2.60")
def test_printed_ppa_total_as_literal(demo_dataset, paper_config):
    table = productivity_table(demo_dataset, paper_config)
    assert round_display(table.cell("total", "PPA"), 2) == "2.59"


@pytest.mark.xfail(strict=True, reason="printed Search Engines 2017 cell is 1, but the "
                                       "printed 2017 column then sums to 52 against its "
                                       "total of 51; bundled data carries 0")
def test_printed_search_engines_2017_as_literal(demo_dataset):
    assert subject_table(demo_dataset).cell("Search Engines", "2017") == 1


@pytest.mark.xfail(strict=True, reason="printed Social Networks row total is 3 but the "
                                       "printed cells sum to 4")
def test_printed_social_networks_total_as_literal(demo_dataset):
    assert subject_table(demo_dataset).cell("Social Networks", "Total") == 3
