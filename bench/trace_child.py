"""Run the scientoscope CLI in-process with a span around each layer call.

Usage::

    python trace_child.py SPANS_OUT RUN_ID CLI_ARG...

The public functions that ``scientoscope.cli`` imports are replaced, in
the ``cli`` module only, by wrappers that record a span (id, parent,
name, metric, run id, start, end) and the counts the result carries.
The CLI itself is untouched: calls inside the package are not traced,
so spans nest one level under the root ``main`` span.  Spans stay in
memory and are written to SPANS_OUT as JSON when ``main`` returns.
The exit code is the CLI's, and non-zero as well when a traced name is
gone from ``cli`` or a count cannot be read off a layer's result.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

# cli-imported function -> the per-layer metric its self time adds to.
# A name the CLI no longer imports stops the run: its metric would read
# 0 and its time would move into cli.self_s unnoticed.
LAYER_OF = {
    "sniff_granularity": "ingest.sniff_s",
    "parse_records": "ingest.parse_s",
    "parse_aggregates": "ingest.parse_s",
    "validate": "ingest.validate_s",
    "aggregate_records": "ingest.bridge_s",
    "year_distribution_table": "distributions.build_s",
    "authorship_table": "distributions.build_s",
    "page_length_table": "distributions.build_s",
    "subject_table": "distributions.build_s",
    "productivity_table": "indicators.build_s",
    "collaboration_table": "indicators.build_s",
    "egr_table": "indicators.build_s",
    "rgr_table": "indicators.build_s",
    "render": "report.render_s",
    "table_as_json_obj": "report.render_s",
    "run_conformance": "golden.conformance_s",
    "conformance_lines": "golden.conformance_s",
}

# Counts read off a layer's result at the boundary.  A reader that no
# longer fits the result raises, and the invocation fails.
COUNTS_OF = {
    "parse_records": lambda ds: {"ingest.records": len(ds.records)},
    "parse_aggregates": lambda ds: {"ingest.records": len(ds.aggregates)},
    "validate": lambda report: {"ingest.validate_findings":
                                len(report.errors) + len(report.warnings)},
    "aggregate_records": lambda result: {"ingest.bridge_warnings": len(result[1].warnings)},
    "run_conformance": lambda result: {"golden.checks": len(result.outcomes),
                                       "golden.failed": result.n_failed},
}


class Tracer:
    """In-memory span recorder for one traced invocation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, metric: str, fn, *args, **kwargs):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "metric": metric, "run": self.run_id, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        count = COUNTS_OF.get(name)
        if count is not None:
            span["counts"] = count(result)
        return result

    def wrap(self, name: str, metric: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, metric, fn, *args, **kwargs)
        return traced


def main(argv: list[str]) -> int:
    spans_out, run_id, *cli_args = argv
    import scientoscope.cli as cli

    missing = [name for name in LAYER_OF if not callable(getattr(cli, name, None))]
    if missing:
        sys.exit(f"trace: scientoscope.cli no longer imports {', '.join(missing)}; "
                 f"update LAYER_OF")
    tracer = Tracer(run_id)
    for name, metric in LAYER_OF.items():
        setattr(cli, name, tracer.wrap(name, metric, getattr(cli, name)))
    try:
        code = tracer.call("main", "cli.self_s", cli.main, cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
