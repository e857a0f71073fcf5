"""Command-line driver.

Commands::

    scientoscope validate        check an input file, print the findings
    scientoscope analyze         compute and render tables 1-8
    scientoscope indicators      compute and render the indicator tables (3-6)
    scientoscope reproduce-paper rebuild the bundled study and check every
                                 value against the printed tables
    scientoscope schema          print the CSV/JSON input schemas

The four input commands load through one pipeline: read, validate, and,
for accepted record input, bridge to per-year aggregates, folding the
bridge's warnings into the validation report. Record input takes all
three steps in one streaming pass (:func:`~scientoscope.ingest.fold_records`),
after the granularity is sniffed from the CSV header line or the first
JSON element. ``validate`` prints that report; the others write its
findings to stderr and stop on any error.

Exit codes: 0 success, 1 validation/analysis/golden failure, 2 input or
parse failure. Output is byte-identical for identical input and
configuration; timestamps appear only under ``--timestamp``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path
from typing import BinaryIO

from . import __version__
from .config import CONFIG_KEYS, AnalysisConfig, config_from_dict
from .distributions import (
    authorship_table,
    page_length_table,
    subject_table,
    year_distribution_table,
)
from .golden import conformance_lines, run_conformance
from .indicators import collaboration_table, egr_table, productivity_table, rgr_table
from .ingest import (
    AGGREGATE_FIELDS,
    RECORD_FIELDS,
    findings_as_json,
    findings_as_text,
    fold_records,
    parse_aggregates,
    sniff_granularity,
    validate,
)
# Unused here, but the benchmark's trace harness wraps them by these names.
from .ingest import aggregate_records, parse_records  # noqa: F401
from .model import Dataset, ParseError, ValidationReport
from .report import DisplayPolicy, ReportTable, render, table_as_json_obj

CONFIG_ENV_VAR = "SCIENTOSCOPE_CONFIG"
FORMATS = ("text", "csv", "json", "markdown")
GRANULARITIES = ("records", "aggregates")
#: Config-file keys that set up the run rather than the analysis.
_RUN_KEYS = ("input", "format", "table", "granularity", "timestamp")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2


def demo_aggregates_path() -> Path:
    """Path of the bundled aggregate dataset."""
    return Path(str(resources.files("scientoscope.data").joinpath("demo_aggregates.csv")))


def demo_records_path() -> Path:
    """Path of the bundled 12-record synthetic dataset."""
    return Path(str(resources.files("scientoscope.data").joinpath("demo_small_records.csv")))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", type=Path, help="input CSV or JSON file")
    common.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default: text)")
    common.add_argument("--mode", choices=("paper", "standard"), default=None,
                        help="formula/display conventions (default: paper)")
    common.add_argument("--table", default=None,
                        help="table number 1-8 or 'all' (default: all)")
    common.add_argument("--strict", action="store_true", default=None,
                        help="treat bin-sum mismatches as errors")
    common.add_argument("--config", type=Path, default=None,
                        help=f"JSON config file (or ${CONFIG_ENV_VAR})")
    common.add_argument("--show-config", action="store_true",
                        help="print the effective configuration before output")
    common.add_argument("--granularity", choices=GRANULARITIES, default=None,
                        help="input granularity (default: sniffed from header)")
    common.add_argument("--timestamp", action="store_true", default=None,
                        help="include a timestamp in the metadata line")

    parser = argparse.ArgumentParser(
        prog="scientoscope",
        description="Scientometric indicators over bibliographic record sets.",
    )
    parser.add_argument("--version", action="version", version=f"scientoscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="validate an input file")
    sub.add_parser("analyze", parents=[common], help="compute and render tables")
    sub.add_parser("indicators", parents=[common], help="render the indicator tables (3-6)")
    sub.add_parser("reproduce-paper", parents=[common],
                   help="rebuild the bundled study and verify against its printed tables")
    sub.add_parser("schema", parents=[common], help="print the input schemas")
    return parser


def _load_file_config(args: argparse.Namespace) -> dict:
    path = args.config or (Path(os.environ[CONFIG_ENV_VAR])
                           if os.environ.get(CONFIG_ENV_VAR) else None)
    if path is None:
        return {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"config file {path} must contain a JSON object")
    return data


def _effective_options(args: argparse.Namespace) -> tuple[AnalysisConfig, dict]:
    """Merge defaults, config file, and flags (flag beats file beats default)."""
    file_cfg = _load_file_config(args)
    unknown = sorted(set(file_cfg) - set(CONFIG_KEYS) - set(_RUN_KEYS))
    if unknown:
        raise ValueError(f"unknown config key: {unknown[0]!r}")
    merged = dict(file_cfg)
    for key in ("mode", "strict", *_RUN_KEYS):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = str(value) if key == "input" else value
    if not isinstance(merged.get("input") or "", str):
        raise ValueError(f"invalid input: {merged['input']!r} (expected a path)")
    if merged.get("timestamp") is not None and not isinstance(merged["timestamp"], bool):
        raise ValueError(f"invalid timestamp: {merged['timestamp']!r} (expected true or false)")
    config = config_from_dict(merged)
    run = {
        "input": merged.get("input"),
        "format": merged.get("format") or "text",
        "table": str(merged.get("table") or "all"),
        "granularity": merged.get("granularity"),
        "timestamp": bool(merged.get("timestamp")),
    }
    for key, valid in (("format", FORMATS), ("granularity", GRANULARITIES)):
        if run[key] is not None and run[key] not in valid:
            raise ValueError(f"invalid {key}: {run[key]!r} (expected one of {valid})")
    return config, run


def _policy(config: AnalysisConfig) -> DisplayPolicy:
    return DisplayPolicy(absent_marker=config.absent_marker,
                         totals_source=config.resolved("totals_source"))


def _metadata_line(config: AnalysisConfig, run: dict) -> str:
    line = f"# scientoscope {__version__} | mode={config.mode} | config={config.config_hash()}"
    overrides = config.overrides()
    if overrides:
        line += " | overrides: " + ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
    if run["timestamp"]:
        line += f" | {datetime.now(timezone.utc).isoformat(timespec='seconds')}"
    return line


def _print_effective_config(config: AnalysisConfig, run: dict) -> None:
    print(json.dumps({
        "analysis": config.to_dict(),
        "run": run,
        "config_hash": config.config_hash(),
    }, indent=2, sort_keys=True))


def _sniff(stream: BinaryIO, input_format: str) -> str:
    head = stream.readline() if input_format == "csv" else stream.read()
    stream.seek(0)
    return sniff_granularity(head, input_format)


def _load(config: AnalysisConfig, run: dict) -> tuple[Dataset, ValidationReport]:
    """Read and validate the input. Record input is folded to per-year
    aggregates in the same pass, with the bridge's warnings in the report."""
    if not run["input"]:
        raise ParseError("no input file given (use --input)")
    path = Path(run["input"])
    input_format = "json" if path.suffix.lower() == ".json" else "csv"
    try:
        with path.open("rb") as stream:
            granularity = run["granularity"] or _sniff(stream, input_format)
            if granularity == "records":
                return fold_records(stream, input_format, config)
            dataset = parse_aggregates(stream.read(), input_format)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return dataset, validate(dataset, config)


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
    if spec == "all":
        return list(range(1, 9))
    try:
        number = int(spec)
    except ValueError:
        raise ParseError(f"invalid table selection: {spec!r} (expected 1-8 or 'all')") from None
    if not 1 <= number <= 8:
        raise ParseError(f"table number out of range: {number} (expected 1-8)")
    return [number]


def _emit_tables(tables: list[ReportTable], fmt: str, config: AnalysisConfig,
                 run: dict, extra_json: dict | None = None) -> None:
    policy = _policy(config)
    if fmt == "json":
        meta: dict = {
            "toolkit": f"scientoscope {__version__}",
            "mode": config.mode,
            "config_hash": config.config_hash(),
        }
        if config.overrides():
            meta["overrides"] = config.overrides()
        doc = {
            "meta": meta,
            "tables": [table_as_json_obj(t, policy) for t in tables],
        }
        if run["timestamp"]:
            doc["meta"]["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        if extra_json:
            doc.update(extra_json)
        print(json.dumps(doc, indent=2))
        return
    print(_metadata_line(config, run))
    for table in tables:
        print()
        sys.stdout.write(render(table, fmt, policy))


def _report_findings(report: ValidationReport) -> None:
    lines = [*(f"ERROR   {f}\n" for f in report.errors),
             *(f"WARNING {f}\n" for f in report.warnings)]
    sys.stderr.write("".join(lines))


def cmd_validate(config: AnalysisConfig, run: dict) -> int:
    _, report = _load(config, run)
    if run["format"] == "json":
        sys.stdout.write(findings_as_json(report))
    else:
        sys.stdout.write(findings_as_text(report))
    return EXIT_OK if report.ok else EXIT_FAILURE


def _analyze_tables(numbers: list[int], config: AnalysisConfig, run: dict) -> int:
    dataset, report = _load(config, run)
    _report_findings(report)
    if not report.ok:
        return EXIT_FAILURE
    tables = [_TABLE_BUILDERS[n](dataset, config) for n in numbers]
    _emit_tables(tables, run["format"], config, run)
    return EXIT_OK


def cmd_analyze(config: AnalysisConfig, run: dict) -> int:
    return _analyze_tables(_table_numbers(run["table"]), config, run)


def cmd_indicators(config: AnalysisConfig, run: dict) -> int:
    numbers = _table_numbers(run["table"]) if run["table"] != "all" else [3, 4, 5, 6]
    return _analyze_tables(numbers, config, run)


def cmd_reproduce_paper(config: AnalysisConfig, run: dict) -> int:
    if not run["input"]:
        run = dict(run, input=str(demo_aggregates_path()))
    dataset, report = _load(config, run)
    _report_findings(report)
    if not report.ok:
        return EXIT_FAILURE
    tables = [_TABLE_BUILDERS[n](dataset, config) for n in range(1, 9)]

    if config.mode != "paper":
        _emit_tables(tables, run["format"], config, run)
        print()
        print("standard mode: golden comparison skipped")
        return EXIT_OK

    result = run_conformance(tables, config)
    lines = conformance_lines(result)
    if run["format"] == "json":
        extra = {
            "conformance": {
                "passed": result.n_passed,
                "failed": result.n_failed,
                "exempted": result.n_exempt,
                "checks": [
                    {
                        "name": o.check.name,
                        "status": o.status,
                        "expected": o.check.expected,
                        "actual": o.actual,
                        **({"problem": o.problem} if o.problem is not None else {}),
                    }
                    for o in result.outcomes
                ],
            }
        }
        _emit_tables(tables, "json", config, run, extra_json=extra)
    else:
        _emit_tables(tables, run["format"], config, run)
        print()
        print("== golden conformance ==")
        for line in lines:
            print(line)
    return EXIT_OK if result.ok else EXIT_FAILURE


def cmd_schema(config: AnalysisConfig, run: dict) -> int:
    record_header = ",".join(RECORD_FIELDS) + "[,author_count][,page_count]"
    aggregate_header = ",".join([*AGGREGATE_FIELDS,
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
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "indicators": cmd_indicators,
    "reproduce-paper": cmd_reproduce_paper,
    "schema": cmd_schema,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, run = _effective_options(args)
        if args.show_config:
            _print_effective_config(config, run)
        return _COMMANDS[args.command](config, run)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
