"""Command-line driver.

Usage: ``scientoscope COMMAND [OPTIONS]``. ``_COMMANDS`` names each
command with its handler and the one-line help that ``-h`` lists. One
parser reads the command word and the options, which every command
shares and which may come before or after it.

The four input commands load through one pipeline: read, validate, and,
for accepted record input, bridge to per-year aggregates, folding the
bridge's warnings into the validation report, in one pass that opens
and decodes the input once (:func:`~scientoscope.ingest.load`). Unless
``--granularity`` is given, the granularity is read off the CSV header
or the first JSON element. ``validate`` prints that report. The other
three share one load-and-build (``_tables``): it writes the findings to
stderr, stops on any error, and builds the tables. ``reproduce-paper``
adds the conformance check. One dict (``_meta``) states each run, as
the JSON ``meta`` object and as the text metadata line.

Exit codes: 0 success, 1 validation/analysis/golden failure, 2 input or
parse failure, or out of memory, 130 interrupted. Output is
byte-identical for identical input and configuration; timestamps appear
only under ``--timestamp``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import __version__
from .config import MODES, AnalysisConfig, config_from_dict
from .distributions import (
    authorship_table,
    page_length_table,
    subject_table,
    year_distribution_table,
)
from .golden import conformance_json, conformance_lines, run_conformance
from .indicators import collaboration_table, egr_table, productivity_table, rgr_table
from .ingest import (
    AGGREGATE_FIELDS,
    GRANULARITIES,
    RECORD_FIELDS,
    finding_lines,
    findings_as_json,
    findings_as_text,
    load,
)
# Unused here, but the benchmark's trace harness wraps them by these names.
from .ingest import aggregate_records, parse_aggregates, parse_records  # noqa: F401
from .ingest import sniff_granularity, validate  # noqa: F401
from .model import Dataset, ParseError, ValidationReport
from .report import FORMATS, ReportTable, render, table_as_json_obj

CONFIG_ENV_VAR = "SCIENTOSCOPE_CONFIG"
#: Config-file keys that set up the run rather than the analysis.
_RUN_KEYS = ("input", "format", "table", "granularity", "timestamp")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_INTERRUPTED = 130  # the shell's code for SIGINT


def demo_aggregates_path() -> Path:
    """Path of the bundled aggregate dataset."""
    return Path(__file__).parent / "data" / "demo_aggregates.csv"


def demo_records_path() -> Path:
    """Path of the bundled 12-record synthetic dataset."""
    return Path(__file__).parent / "data" / "demo_small_records.csv"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scientoscope",
        description="Scientometric indicators over bibliographic record sets.",
        epilog="commands:\n" + "".join(f"  {name:<17}{help}\n"
                                        for name, (_, help) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"scientoscope {__version__}")
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="the command to run (listed below)")
    parser.add_argument("--input", type=Path, help="input CSV or JSON file")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default: text)")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="formula/display conventions (default: paper)")
    parser.add_argument("--table", default=None,
                        help="table number 1-8 or 'all' (default: all)")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="treat bin-sum mismatches as errors")
    parser.add_argument("--config", type=Path, default=None,
                        help=f"JSON config file (or ${CONFIG_ENV_VAR})")
    parser.add_argument("--show-config", action="store_true",
                        help="print the effective configuration before output")
    parser.add_argument("--granularity", choices=GRANULARITIES, default=None,
                        help="input granularity (default: sniffed from header)")
    parser.add_argument("--timestamp", action="store_true", default=None,
                        help="include a timestamp in the metadata line")
    return parser


def _load_file_config(args: argparse.Namespace) -> dict:
    path = args.config or (Path(os.environ[CONFIG_ENV_VAR])
                           if os.environ.get(CONFIG_ENV_VAR) else None)
    if path is None:
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bytes or integer digits
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"cannot read config file {path}: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError(f"config file {path} must contain a JSON object")
    return data


def _effective_options(args: argparse.Namespace) -> tuple[AnalysisConfig, dict]:
    """Merge defaults, config file, and flags (flag beats file beats default)."""
    file_cfg = _load_file_config(args)
    unknown = sorted(set(file_cfg) - set(AnalysisConfig._fields) - set(_RUN_KEYS))
    if unknown:
        raise ValueError(f"unknown config key: {unknown[0]!r}")
    # A null is unset, and only a null: "" and 0 are values, checked as such.
    merged = {"format": "text", "table": "all", "timestamp": False,
              **{key: value for key, value in file_cfg.items() if value is not None}}
    for key in ("mode", "strict", *_RUN_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = str(value) if key == "input" else value
    if not isinstance(merged.get("input", ""), str):
        raise ValueError(f"invalid input: {merged['input']!r} (expected a path)")
    if not isinstance(merged["timestamp"], bool):
        raise ValueError(f"invalid timestamp: {merged['timestamp']!r} (expected true or false)")
    config = config_from_dict(merged)
    run = {
        "input": merged.get("input"),
        "format": merged["format"],
        "table": str(merged["table"]),
        "granularity": merged.get("granularity"),
        "timestamp": merged["timestamp"],
    }
    for key, valid in (("format", FORMATS), ("granularity", GRANULARITIES)):
        if run[key] is not None and run[key] not in valid:
            raise ValueError(f"invalid {key}: {run[key]!r} (expected one of {valid})")
    return config, run


def _meta(config: AnalysisConfig, run: dict) -> dict:
    """The run's metadata: toolkit, mode, config hash, then the overrides
    and the UTC time to the second, each only when there is one."""
    meta = {
        "toolkit": f"scientoscope {__version__}",
        "mode": config.mode,
        "config_hash": config.config_hash(),
    }
    overrides = config.overrides()
    if overrides:
        meta["overrides"] = overrides
    if run["timestamp"]:
        from datetime import datetime, timezone  # only runs that print one import it
        meta["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return meta


def _load(config: AnalysisConfig, run: dict) -> tuple[Dataset | None, ValidationReport]:
    """Read and validate the input. Record input is folded to per-year
    aggregates in the same pass, with the bridge's warnings in the report."""
    if not run["input"]:
        raise ParseError("no input file given (use --input)")
    path = Path(run["input"])
    input_format = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        with path.open("rb") as stream:
            return load(stream, input_format, config, run["granularity"])
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


_TABLE_BUILDERS = {
    1: lambda ds, cfg: year_distribution_table(ds),
    2: lambda ds, cfg: authorship_table(ds),
    3: lambda ds, cfg: productivity_table(ds, cfg),
    4: lambda ds, cfg: collaboration_table(ds, cfg),
    5: lambda ds, cfg: egr_table(ds, cfg),
    6: lambda ds, cfg: rgr_table(ds, cfg),
    7: lambda ds, cfg: page_length_table(ds),
    8: lambda ds, cfg: subject_table(ds, cfg.taxonomy),
}


def _table_numbers(spec: str) -> list[int]:
    try:
        number = int(spec)
    except ValueError:
        raise ParseError(f"invalid table selection: {spec!r} (expected 1-8 or 'all')") from None
    if not 1 <= number <= 8:
        raise ParseError(f"table number out of range: {number} (expected 1-8)")
    return [number]


def _emit_tables(tables: list[ReportTable], config: AnalysisConfig, run: dict,
                 extra_json: dict | None = None) -> None:
    """Print the run's metadata and *tables* in the run's format; under
    JSON, *extra_json* adds keys after ``tables``."""
    meta = _meta(config, run)
    if run["format"] == "json":
        tables_json = [table_as_json_obj(t, config) for t in tables]
        print(json.dumps({"meta": meta, "tables": tables_json, **(extra_json or {})}, indent=2))
        return
    line = f"# {meta['toolkit']} | mode={meta['mode']} | config={meta['config_hash']}"
    if "overrides" in meta:
        pairs = sorted(meta["overrides"].items())
        line += " | overrides: " + ",".join(f"{k}={v}" for k, v in pairs)
    if "timestamp" in meta:
        line += f" | {meta['timestamp']}"
    print(line)
    for table in tables:
        print()
        sys.stdout.write(render(table, run["format"], config))


def _tables(numbers: Iterable[int], config: AnalysisConfig, run: dict) -> list[ReportTable] | None:
    """Load the input, write its findings to stderr, and build tables
    *numbers*; ``None`` when the input has errors."""
    dataset, report = _load(config, run)
    sys.stderr.write("".join(f"{line}\n" for line in finding_lines(report)))
    if not report.ok:
        return None
    return [_TABLE_BUILDERS[n](dataset, config) for n in numbers]


def cmd_validate(config: AnalysisConfig, run: dict) -> int:
    _, report = _load(config, run)
    if run["format"] == "json":
        sys.stdout.write(findings_as_json(report))
    else:
        sys.stdout.write(findings_as_text(report))
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_analyze(config: AnalysisConfig, run: dict, default: Iterable[int] = range(1, 9)) -> int:
    numbers = default if run["table"] == "all" else _table_numbers(run["table"])
    tables = _tables(numbers, config, run)
    if tables is None:
        return EXIT_FAILURE
    _emit_tables(tables, config, run)
    return EXIT_OK


def cmd_reproduce_paper(config: AnalysisConfig, run: dict) -> int:
    if not run["input"]:
        run = dict(run, input=str(demo_aggregates_path()))
    tables = _tables(range(1, 9), config, run)
    if tables is None:
        return EXIT_FAILURE
    result = run_conformance(tables, config) if config.mode == "paper" else None
    if run["format"] == "json":
        _emit_tables(tables, config, run, {"conformance": conformance_json(result)})
    else:
        _emit_tables(tables, config, run)
        print("\n" + "\n".join(conformance_lines(result)))
    return EXIT_OK if result is None or result.ok else EXIT_FAILURE


def _csv_line(names: Iterable[str]) -> str:
    """*names* as one CSV row, quoted as the parse reads them back."""
    line = io.StringIO()
    csv.writer(line, lineterminator="").writerow(names)
    return line.getvalue()


def cmd_schema(config: AnalysisConfig, run: dict) -> int:
    record_header = _csv_line(RECORD_FIELDS) + "[,author_count][,page_count]"
    aggregate_header = _csv_line([*AGGREGATE_FIELDS,
                                  *(f"subj:{label}" for label in config.taxonomy)])
    if run["format"] == "json":
        print(json.dumps({
            "records_csv": record_header,
            "aggregates_csv": aggregate_header,
            "json": "same field names, one object per record/aggregate, top-level list; "
                    "record 'authors' may be a list or a ';'-separated string",
            "notes": [
                "authors are ';'-separated; a non-empty author_count overrides the list",
                "empty optional fields mean absent, not zero",
            ],
        }, indent=2))
        return EXIT_OK
    print("record CSV header (any column order; author_count, page_count optional):")
    print(f"  {record_header}")
    print("aggregate CSV header (one subj:<label> column per taxonomy entry):")
    print(f"  {aggregate_header}")
    print("JSON: same field names, one object per record/aggregate, in a top-level list;")
    print("      record 'authors' may be a list or a ';'-separated string.")
    return EXIT_OK


_COMMANDS = {
    "validate": (cmd_validate, "check an input file and print its findings"),
    "analyze": (cmd_analyze, "compute and render tables 1-8"),
    "indicators": (lambda config, run: cmd_analyze(config, run, default=(3, 4, 5, 6)),
                   "compute and render tables 3-6 by default"),
    "reproduce-paper": (cmd_reproduce_paper,
                        "rebuild the bundled study and check it against its printed tables"),
    "schema": (cmd_schema, "print the CSV and JSON input schemas"),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    run = {"input": args.input}
    try:
        config, run = _effective_options(args)
        if args.show_config:
            print(json.dumps({"analysis": config.to_dict(), "run": run,
                              "config_hash": config.config_hash()}, indent=2, sort_keys=True))
        return _COMMANDS[args.command][0](config, run)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError:  # what the load held is freed by the time it gets here
        print(f"error: out of memory loading {run['input']}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # here, so that a closed pipe raises inside the try
    except BrokenPipeError:  # the reader of stdout is gone
        # Keep the interpreter's final flush of stdout from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FAILURE
    except KeyboardInterrupt:  # a split load's children are killed and reaped on the way out
        print("error: interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    gc.freeze()  # the OS frees the heap at exit, so the exit's collections need not sweep it
    sys.exit(code)


if __name__ == "__main__":
    entry()
