#!/usr/bin/env python3
"""The scientoscope benchmark.

Run from the root of a source checkout::

    python3 bench/run.py --workload records_csv --seed 1 --seconds 30 --trace 0

It drives the CLI built from ``./src`` as a closed loop: one client, one
child process at a time, each spawned the way the installed
``scientoscope`` console script runs (``from scientoscope.cli import
entry; entry()``).  The program receives only the input files generated
from ``--seed``.  Each child's stdout and stderr are drained; wall time
runs from spawn to exit, CPU time and peak RSS come from ``os.wait4``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a separate traced run (see ``trace_child.py``).
The human-readable report and a JSON run record (environment, input and
stdout sha256, sample counts) come first; the last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every number is warm-cache: the inputs were just written
and the page cache cannot be dropped from here.  See README.md for why
each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
import gen

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
CLI = "from scientoscope.cli import entry; entry()"
STARTUP_SAMPLES = 7
# Imports timed per round, next to the CLI invocation and between the
# same two reference runs.  One takes about 0.14 s against 3.5 s for a
# records_csv invocation, so a few more samples per round cost little.
SETUP_PER_ROUND = 3
# Normalised times are given in seconds at the speed where the reference
# task takes this long (it took 0.48-0.69 s on a shared 2-vCPU Intel
# Xeon VM, depending on what the other tenants were doing).
REF_NOMINAL_S = 0.5
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
WARM_CACHE_NOTE = ("warm cache: inputs are read from the page cache, which this "
                   "benchmark cannot drop")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "papers_per_s": "1/s",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "startup.interpreter_s": "s",
    "startup.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.stderr_lines": "count",
    "cli.stdout_bytes": "bytes",
    "ingest.sniff_s": "s",
    "ingest.parse_s": "s",
    "ingest.records": "count",
    "ingest.parse_records_per_s": "1/s",
    "ingest.validate_s": "s",
    "ingest.validate_findings": "count",
    "ingest.bridge_s": "s",
    "ingest.bridge_warnings": "count",
    "distributions.build_s": "s",
    "indicators.build_s": "s",
    "report.render_s": "s",
    "golden.conformance_s": "s",
    "golden.checks": "count",
    "golden.failed": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
SELF_TIME_METRICS = ("cli.self_s", "ingest.sniff_s", "ingest.parse_s", "ingest.validate_s",
                     "ingest.bridge_s", "distributions.build_s", "indicators.build_s",
                     "report.render_s", "golden.conformance_s")


@dataclass(frozen=True)
class Workload:
    """CLI arguments of the timed runs, of the untimed ``--format json``
    run checked against the tallies, and the input to generate (``None``:
    the bundled study, which ``reproduce-paper`` reads by itself)."""

    argv: tuple[str, ...]
    check_argv: tuple[str, ...]
    knobs: gen.Knobs | None
    input_format: str = "csv"


_ANALYZE = ("analyze", "--table", "all")
WORKLOADS = {
    # The baseline input: ingest parsing dominates and findings are few.
    "records_csv": Workload(_ANALYZE, _ANALYZE + ("--format", "json"),
                            gen.Knobs(records=200_000)),
    # Same ingest layer, other format: JSON decoded twice, ~30k warnings.
    # For ad-hoc runs only: on a shared VM its normalised medians spread
    # by about 10% from run to run, too much for a gate.
    "records_json_dirty": Workload(_ANALYZE + ("--format", "json"),
                                   _ANALYZE + ("--format", "json"),
                                   gen.Knobs(records=100_000, missing_pages=0.2,
                                             unknown_subjects=0.1, count_only=0.1),
                                   input_format="json"),
    # Start-up and imports dominate; ingest is near zero.
    "paper_conformance": Workload(("reproduce-paper",), ("reproduce-paper", "--format", "json"),
                                  None),
}


@dataclass
class Inputs:
    cli_tail: list[str]
    tallies: dict[int, gen.YearTally]
    papers: int
    files: dict[str, dict]
    aggregates_path: str | None = None


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


class LayoutError(Exception):
    """The directory is not a scientoscope source checkout."""


def _file_record(path: Path) -> dict:
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def prepare_inputs(workload: Workload, seed: int, records: int | None,
                   root: Path, work: Path) -> Inputs:
    """Write the workload's input files and return them with their tallies."""
    if workload.knobs is None:
        bundled = root / "src" / "scientoscope" / "data" / "demo_aggregates.csv"
        tallies = checks.read_aggregates_csv(str(bundled))
        return Inputs(cli_tail=[], tallies=tallies,
                      papers=sum(t.papers for t in tallies.values()),
                      files={"bundled demo_aggregates.csv": _file_record(bundled)})
    knobs = replace(workload.knobs, records=records) if records else workload.knobs
    drawn = gen.generate(knobs, seed)
    path = work / f"records.{workload.input_format}"
    writer = gen.write_records_json if workload.input_format == "json" else gen.write_records_csv
    writer(drawn, str(path))
    aggregates = work / "aggregates.csv"
    gen.write_aggregates_csv(drawn, str(aggregates))
    return Inputs(cli_tail=["--input", str(path)], tallies=drawn.tallies, papers=drawn.papers,
                  files={path.name: _file_record(path), aggregates.name: _file_record(aggregates)},
                  aggregates_path=str(aggregates))


def spawn(cmd: list[str], env: dict) -> Invocation:
    """Run *cmd* to completion, draining both pipes; killed after
    CHILD_TIMEOUT_S.  The child is reaped only after the kill timer can
    no longer fire, so the timer never signals a recycled pid."""
    lock = threading.Lock()
    exited = False
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)

    def kill_if_running() -> None:
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(CHILD_TIMEOUT_S, kill_if_running)
    timer.start()
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    reaped = False
    try:
        out = proc.stdout.read()
        drain.join()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            exited = True
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        with lock:
            exited = True
        if not reaped:  # interrupted: stop the child and wait for its end
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(code=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      maxrss_kb=usage.ru_maxrss, stdout=out, stderr=err[0] if err else b"")


class Runner:
    """One benchmark run: the environment, inputs and failure accounting."""

    def __init__(self, name: str, seed: int, records: int | None, root: Path, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.py = sys.executable
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected_stdout: bytes | None = None
        self._probe(root)
        self.inputs = prepare_inputs(self.workload, seed, records, root, work)
        self.cli = [self.py, "-c", CLI, *self.workload.argv, *self.inputs.cli_tail]
        self.reference_task = [self.py, str(BENCH_DIR / "reference_task.py")]
        self.import_cli = [self.py, "-c", "import scientoscope.cli"]

    def _probe(self, root: Path) -> None:
        """Fail unless ./src/scientoscope is what children import; the
        import also fills the bytecode cache before anything is timed."""
        if not (root / "src" / "scientoscope" / "cli.py").is_file():
            raise LayoutError(f"{root} has no src/scientoscope/cli.py")
        probe = spawn([self.py, "-c", "import scientoscope.cli as c; print(c.__file__)"],
                      self.env)
        where = Path(probe.stdout.decode().strip() or ".").resolve()
        if probe.code != 0 or (root / "src") not in where.parents:
            raise LayoutError(f"scientoscope.cli does not import from {root / 'src'}: "
                              f"{probe.stderr.decode(errors='replace')[-500:]}")

    def helper(self, cmd: list[str]) -> Invocation:
        """An uncounted process that must succeed: the reference task or
        a bare interpreter start-up or import."""
        inv = spawn(cmd, self.env)
        if inv.code != 0:
            raise LayoutError(f"{cmd[1:]} failed: {inv.stderr.decode(errors='replace')[-500:]}")
        return inv

    def import_walls(self, code: str) -> list[float]:
        """Wall times of STARTUP_SAMPLES fresh interpreters running *code*."""
        return [self.helper([self.py, "-c", code]).wall_s for _ in range(STARTUP_SAMPLES)]

    def paired(self, measure, more) -> tuple[list[tuple], list[Invocation]]:
        """Call *measure* while ``more(calls_done)`` holds, with the
        reference task before the first call and after every call.
        Returns each call's result with the reference runs right before
        and after it, and all the reference runs."""
        references = [self.helper(self.reference_task)]
        calls = []
        while more(len(calls)):
            result = measure()
            references.append(self.helper(self.reference_task))
            calls.append((result, references[-2], references[-1]))
        return calls, references

    def _account(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    def check_run(self) -> None:
        """Untimed ``--format json`` run(s) checked against the tallies.

        For generated inputs the same tables must also come out of the
        aggregate CSV of the tallies, which covers every table."""
        cmd = [self.py, "-c", CLI, *self.workload.check_argv, *self.inputs.cli_tail]
        inv = spawn(cmd, self.env)
        golden = self.workload.knobs is None
        problems = [f"check run exit code {inv.code}"] if inv.code else []
        problems += checks.json_problems(inv.stdout, self.inputs.tallies, golden)
        self._account(problems)
        if self.inputs.aggregates_path:
            agg = spawn([self.py, "-c", CLI, *self.workload.check_argv,
                         "--input", self.inputs.aggregates_path], self.env)
            self._account([] if agg.code == 0 and agg.stdout == inv.stdout else
                          [f"tables from records differ from tables of their tallies "
                           f"(exit code {agg.code})"])
        if self.workload.check_argv == self.workload.argv:
            self.expected_stdout = inv.stdout

    def invoke(self, cmd: list[str]) -> Invocation:
        """One counted CLI invocation: fails on a non-zero exit, on stdout
        that differs from the run's first, or on a first stdout that
        fails its content check."""
        inv = spawn(cmd, self.env)
        problems = [f"exit code {inv.code}: {inv.stderr.decode(errors='replace')[-300:]}"
                    ] if inv.code else []
        if self.expected_stdout is None:
            self.expected_stdout = inv.stdout
            if "--format" not in self.workload.argv:
                problems += checks.text_problems(inv.stdout, golden=self.workload.knobs is None)
        elif inv.stdout != self.expected_stdout:
            problems.append("stdout differs from the first invocation of the run")
        self._account(problems)
        return inv

    def record(self, samples: int, extra: dict) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "argv": [*self.workload.argv, *self.inputs.cli_tail],
            "inputs": self.inputs.files,
            "papers": self.inputs.papers,
            "stdout_sha256": hashlib.sha256(self.expected_stdout or b"").hexdigest(),
            "samples": samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed / max(self.attempted, 1),
            "problems": self.problems[:20],
            "environment": environment(),
            **extra,
        }


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": model,
        "platform": platform.platform(),
        "note": WARM_CACHE_NOTE,
    }


def high_percentile(samples: list[float]) -> dict | None:
    """The highest of a few standard percentiles that has at least ten
    samples beyond it (nearest rank), or None when there is none."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1]}
    return None


def normalised(runs: list[tuple[Invocation, Invocation, Invocation]], attr: str) -> list[float]:
    """Each invocation's *attr* over the mean *attr* of the reference
    runs on either side of it, in seconds at REF_NOMINAL_S speed."""
    return [REF_NOMINAL_S * getattr(inv, attr) / ((getattr(a, attr) + getattr(b, attr)) / 2)
            for inv, a, b in runs]


def measure_end_to_end(run: Runner, seconds: float) -> tuple[dict, dict]:
    """Rounds of one CLI invocation and SETUP_PER_ROUND fresh ``import
    scientoscope.cli`` (the set-up), with the reference task between
    rounds, until *seconds* are up."""
    run.check_run()
    deadline = time.perf_counter() + seconds
    rounds, references = run.paired(
        lambda: (run.invoke(run.cli),
                 [run.helper(run.import_cli) for _ in range(SETUP_PER_ROUND)]),
        lambda n: n < MIN_SAMPLES or time.perf_counter() < deadline)
    cli_runs = [(inv, a, b) for (inv, _), a, b in rounds]
    setup_runs = [(imp, a, b) for (_, imports), a, b in rounds for imp in imports]
    invocations = [inv for inv, _, _ in cli_runs]
    walls = normalised(cli_runs, "wall_s")
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(normalised(cli_runs, "cpu_s")),
        "peak_rss_mb": max(inv.maxrss_kb for inv in invocations) / 1024,
        "papers_per_s": run.inputs.papers / wall,
        "setup_s": statistics.median(normalised(setup_runs, "wall_s")),
    }
    raw_wall = statistics.median(inv.wall_s for inv in invocations)
    extra = {
        "wall_high_percentile": high_percentile(walls),
        "raw": {
            "wall_s": raw_wall,
            "cpu_s": statistics.median(inv.cpu_s for inv in invocations),
            "papers_per_s": run.inputs.papers / raw_wall,
            "setup_s": statistics.median(inv.wall_s for inv, _, _ in setup_runs),
            "reference_task_s": statistics.median(ref.wall_s for ref in references),
            "wall_s_samples": [inv.wall_s for inv in invocations],
            "reference_task_s_samples": [ref.wall_s for ref in references],
        },
        "wall_s_samples": walls,
        "setup_samples": len(setup_runs),
    }
    return metrics, run.record(len(invocations), extra)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts of one traced invocation."""
    metrics = dict.fromkeys(SELF_TIME_METRICS + ("cli.main_s",), 0.0)
    metrics.update({name: 0 for name, unit in PER_LAYER_UNITS.items() if unit == "count"})
    selfs = self_times(spans)
    for span in spans:
        metrics[span["metric"]] += selfs[span["id"]]
        for name, count in span["counts"].items():
            metrics[name] += count
        if span["parent"] is None:
            metrics["cli.main_s"] = span["end"] - span["start"]
    metrics["trace.spans"] = len(spans)
    return metrics


def measure_per_layer(run: Runner, seconds: float, root: Path, work: Path) -> tuple[dict, dict]:
    interpreter = statistics.median(run.import_walls("pass"))
    imported = statistics.median(run.import_walls("import scientoscope.cli"))
    run.check_run()
    spans_path = work / "spans.json"
    plain, traced, all_spans = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run.invoke(run.cli))
        run_id = f"{run.name}-{run.seed}-{len(traced)}"
        spans_path.unlink(missing_ok=True)
        inv = run.invoke([run.py, str(BENCH_DIR / "trace_child.py"), str(spans_path), run_id,
                          *run.workload.argv, *run.inputs.cli_tail])
        try:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            spans = []  # the failed invocation is already counted
        all_spans.extend(spans)
        traced.append((layer_metrics(spans), inv))
    # Report one whole invocation, the median by cli.main_s, so that its
    # self times add up to its cli.main_s.
    layers, inv = sorted(traced, key=lambda t: t[0]["cli.main_s"])[(len(traced) - 1) // 2]
    metrics = {
        "startup.interpreter_s": interpreter,
        "startup.import_s": imported - interpreter,
        **layers,
        "cli.stderr_lines": inv.stderr.count(b"\n"),
        "cli.stdout_bytes": len(inv.stdout),
        "ingest.parse_records_per_s": (layers["ingest.records"] / layers["ingest.parse_s"]
                                       if layers["ingest.parse_s"] else 0.0),
        "trace.overhead_s": (statistics.median(i.wall_s for _, i in traced)
                             - statistics.median(i.wall_s for i in plain)),
    }
    dump = root / WORK_DIR / f"trace-{run.name}-seed{run.seed}.json"
    dump.write_text(json.dumps(all_spans), encoding="utf-8")
    extra = {
        "spans_file": str(dump.relative_to(root)),
        "self_time_sum_s": sum(layers[name] for name in SELF_TIME_METRICS),
        "traced_invocations": len(traced),
        "untraced_wall_s_median": statistics.median(i.wall_s for i in plain),
    }
    return metrics, run.record(len(traced), extra)


def print_report(name: str, seed: int, trace: int, metrics: dict, units: dict,
                 record: dict) -> None:
    print(f"scientoscope benchmark: workload={name} seed={seed} trace={trace}")
    for key, unit in units.items():
        value = metrics[key]
        shown = f"{value:>16.6f}" if isinstance(value, float) else f"{value:>16d}"
        print(f"  {key:<28} {shown} {unit}")
    print(f"  {'failed_share':<28} {record['failed_share']:>16.6f} share "
          f"({record['failed']} of {record['attempted']} invocations)")
    if trace:
        print(f"  layer self times + cli.self_s = {record['self_time_sum_s']:.6f} s; "
              f"cli.main_s = {metrics['cli.main_s']:.6f} s")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    print("run record: " + json.dumps(record, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int, default=None,
                        help="override the workload's record count (ad-hoc runs only)")
    args = parser.parse_args(argv)
    # Turn a polite kill into an exception, so that every child is killed
    # and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd().resolve()
    work = root / WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Runner(args.workload, args.seed, args.records, root, work)
        if args.trace:
            metrics, record = measure_per_layer(run, args.seconds, root, work)
            units = PER_LAYER_UNITS
        else:
            metrics, record = measure_end_to_end(run, args.seconds)
            units = END_TO_END_UNITS
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(args.workload, args.seed, args.trace, metrics, units, record)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
