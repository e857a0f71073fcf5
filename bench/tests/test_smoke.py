"""Tiny-N smoke test of the benchmark harness; runs in about 15 seconds.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--records", "500"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_generator_is_seeded_and_covers_every_year(tmp_path):
    knobs = gen.Knobs(records=300, years=20, missing_pages=0.2, unknown_subjects=0.1,
                      count_only=0.1)
    paths = []
    for i in range(2):
        drawn = gen.generate(knobs, seed=5)
        paths.append(tmp_path / f"r{i}.json")
        gen.write_records_json(drawn, str(paths[-1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert sorted(drawn.tallies) == list(range(1970, 1990))
    assert all(t.papers >= 1 and t.authors[0] >= 1 for t in drawn.tallies.values())
    assert sum(t.papers for t in drawn.tallies.values()) == 300
    assert sum(sum(t.subjects.values()) for t in drawn.tallies.values()) == 300
    assert sum(sum(t.pages) for t in drawn.tallies.values()) == 300 - drawn.missing_pages


@pytest.mark.parametrize("workload, trace", [("records_csv", 1), ("records_json_dirty", 0)])
def test_harness_reports_every_metric_with_correct_outputs(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self_times = sum(metrics[name] for name in run.SELF_TIME_METRICS)
        assert self_times == pytest.approx(metrics["cli.main_s"])


def test_checks_pass_the_bundled_study_and_catch_a_wrong_count():
    def cli(*args: str) -> bytes:
        return subprocess.run([sys.executable, "-c", run.CLI, "reproduce-paper", *args],
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              capture_output=True, check=True, timeout=60).stdout

    tallies = checks.read_aggregates_csv(
        str(ROOT / "src" / "scientoscope" / "data" / "demo_aggregates.csv"))
    doc = cli("--format", "json")
    assert checks.json_problems(doc, tallies, golden=True) == []
    assert checks.text_problems(cli(), golden=True) == []
    tallies[2015].subjects["ICT"] += 1
    problems = checks.json_problems(doc, tallies, golden=True)
    assert len(problems) == 1 and problems[0].startswith("subjects 'ICT'")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "paper_conformance", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_traced_run_fails_when_a_layer_goes_missing_or_changes_shape(tmp_path):
    def trace(*patch: str) -> subprocess.CompletedProcess:
        code = ("import sys, scientoscope.cli as cli, trace_child\n" + "\n".join(patch)
                + f"\nsys.exit(trace_child.main([{str(tmp_path / 'spans.json')!r}, 'x', "
                  "'reproduce-paper']))")
        path = f"{ROOT / 'src'}{os.pathsep}{BENCH}"
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60)

    assert trace().returncode == 0
    gone = trace("del cli.run_conformance")
    assert gone.returncode != 0 and "run_conformance" in gone.stderr
    reshaped = trace("trace_child.COUNTS_OF['run_conformance'] = lambda result: result.gone")
    assert reshaped.returncode != 0
