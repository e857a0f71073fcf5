"""Each fault in a header or a first JSON element keeps its message.

Every case runs ``validate`` through :func:`cli.main` three ways: with
the granularity sniffed, with ``--granularity records`` and with
``--granularity aggregates``. Each must exit 2 with nothing on stdout
and the one ``error:`` line given here on stderr. The library routes,
:func:`parse_records` and :func:`parse_aggregates`, raise the message
the CLI gives under ``--granularity records`` and ``aggregates``.
"""

import pytest

from scientoscope import parse_aggregates, parse_records, sniff_granularity
from scientoscope.cli import main
from scientoscope.model import ParseError

RECORD_HEADER = "year,volume,issue,title,authors,start_page,end_page,subject"
AGG_HEADER = "year,papers,a1,a2,a3,a4,a5plus,total_authors,p1to5,p6to10,pabove10,subj:ICT"

UNKNOWN = "cannot determine granularity from input header"
NO_RECORD_COLUMNS = ("line 1: record CSV header is missing columns: "
                     "volume, issue, title, authors, start_page, end_page, subject")
NO_AGGREGATE_COLUMNS = ("line 1: aggregate CSV header is missing columns: "
                        "papers, a1, a2, a3, a4, a5plus, total_authors, p1to5, p6to10, pabove10")
LONE_CR = ("line 1: malformed CSV: new-line character seen in unquoted field - "
           "do you need to open the file in universal-newline mode?")
NO_YEAR = "element 1: missing mandatory field 'year'"
BAD_BYTE = ("input is not valid UTF-8: 'utf-8' codec can't decode byte 0xfe in position 107: "
            "invalid start byte")
BAD_HEADER_BYTE = ("input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 7: "
                   "invalid start byte")


def _same(message):
    return (message, message, message)


# name, input, then the message sniffed, under records and under aggregates.
CASES = [
    ("empty.csv", b"", *_same("empty input")),
    ("blank-lines.csv", b"\n  \n\n", UNKNOWN,
     "line 1: record CSV header is missing columns: " + ", ".join(RECORD_HEADER.split(",")),
     "line 1: aggregate CSV header is missing columns: year, papers, a1, a2, a3, a4, a5plus, "
     "total_authors, p1to5, p6to10, pabove10"),
    ("header-csv-error.csv", b"year,ti\rtle,authors\n2013,T,A\n", *_same(LONE_CR)),
    # Duplicate columns are reported before missing ones, whichever way
    # the granularity was found.
    ("duplicate.csv", (RECORD_HEADER + ",title\n2013,,,T,A,1,2,ICT,T\n").encode(),
     *_same("line 1: duplicate columns: title")),
    ("duplicate-aggregate.csv", (AGG_HEADER + ",papers\n").encode(),
     *_same("line 1: duplicate columns: papers")),
    ("duplicate-and-missing.csv", b"year,year,title\n2013,2013,T\n",
     *_same("line 1: duplicate columns: year")),
    ("neither.csv", b"year,volume\n2013,1\n", UNKNOWN,
     "line 1: record CSV header is missing columns: "
     "issue, title, authors, start_page, end_page, subject", NO_AGGREGATE_COLUMNS),
    # The granularity is read off the whole logical header, as the parse reads it.
    ("quoted-newline.csv", b'year,"ti\ntle",authors\n2013,T,A\n',
     *(["line 1: record CSV header is missing columns: "
        "volume, issue, title, start_page, end_page, subject"] * 2), NO_AGGREGATE_COLUMNS),
    ("header-only.csv", (RECORD_HEADER + "\n").encode(),
     "empty dataset", "empty dataset", NO_AGGREGATE_COLUMNS),
    ("header-only-aggregate.csv", (AGG_HEADER + "\n").encode(),
     "empty dataset", NO_RECORD_COLUMNS, "empty dataset"),
    ("empty-list.json", b"[]", UNKNOWN, "empty dataset", "empty dataset"),
    ("object.json", b"{}", "input JSON must be a top-level list",
     "record JSON must be a top-level list", "aggregate JSON must be a top-level list"),
    ("numbers.json", b"[1, 2]", "element 1: input element must be an object",
     "element 1: record element must be an object",
     "element 1: aggregate element must be an object"),
    ("unknown-keys.json", b'[{"x": 1}]', UNKNOWN, NO_YEAR, NO_YEAR),
    ("aggregate-then-number.json", b'[{"papers": 1}, 5]', *_same(NO_YEAR)),
    ("truncated.json", b'[{"year": 2013, "title": "T"',
     *_same("invalid JSON: Expecting ',' delimiter: line 1 column 29 (char 28)")),
    ("bad-byte-after-row-error.csv",
     (AGG_HEADER + "\n2013,x,0,0,0,0,0,,0,0,0,0\n").encode() + b"2014,\xfe\n", *_same(BAD_BYTE)),
    ("bad-byte-in-header.csv", b"year,ti\xfftle,authors\n2013,T,A\n", *_same(BAD_HEADER_BYTE)),
]


@pytest.mark.parametrize("name, raw, messages", [(name, raw, messages)
                                                  for name, raw, *messages in CASES],
                         ids=[case[0] for case in CASES])
def test_each_header_and_first_element_fault_keeps_its_message(name, raw, messages,
                                                                tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(raw)
    for flags, message in zip(([], ["--granularity", "records"],
                               ["--granularity", "aggregates"]), messages):
        assert main(["validate", "--input", str(path), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    format = "json" if name.endswith(".json") else "csv"
    for parse, message in zip((parse_records, parse_aggregates), messages[1:]):
        with pytest.raises(ParseError) as raised:
            parse(raw, format)
        assert str(raised.value) == message


def test_a_bad_byte_in_the_csv_header_gets_the_whole_input_message():
    # The sniff words the fault as a decode of the whole input does.
    with pytest.raises(ParseError) as raised:
        sniff_granularity(b"year,ti\xfftle,authors\n2013,T,A\n")
    assert str(raised.value) == BAD_HEADER_BYTE
