"""Fixed reference task: the yardstick for this machine's current speed.

The benchmark runs this script as a child process right before and
after every timed CLI invocation, and divides the invocation's time by
the mean of the two.  The machine's speed drifts by tens of percent over
seconds to minutes when other tenants share it; a task of the same kind
of work, timed next to the invocation, slows down with it, so the ratio
stays put.  The task resembles ingest: CSV rows are turned into tuples,
round-tripped through JSON and grouped by year.  Interpreted code, the
C parsers and object allocation all take a share, as in the CLI.  It
never imports scientoscope, so no change to the program moves it.  It
must never change: every normalised number in the benchmark's history
is measured against it.
"""

import csv
import io
import json

ROWS = 40_000


def main() -> int:
    text = "\n".join(
        f"{1970 + i % 50},1,2,Title {i},A. B{i % 977}; C. D{i % 101},{i % 900 + 1},{i % 900 + 9},ICT"
        for i in range(ROWS))
    records = []
    for row in csv.reader(io.StringIO(text)):
        fields = dict(zip(("year", "volume", "issue", "title", "authors", "start", "end",
                           "subject"), row))
        records.append((int(fields["year"]), fields["title"].strip(),
                        tuple(name.strip() for name in fields["authors"].split(";")),
                        int(fields["start"]), int(fields["end"])))
    doc = json.dumps([{"year": r[0], "title": r[1], "authors": list(r[2]),
                       "start_page": r[3], "end_page": r[4]} for r in records])
    by_year: dict[int, list] = {}
    for record in json.loads(doc):
        by_year.setdefault(record["year"], []).append(record)
    return 0 if sum(len(v) for v in by_year.values()) == ROWS else 1


if __name__ == "__main__":
    raise SystemExit(main())
