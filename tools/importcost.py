"""Start-up cost of importing the package: what compiling its source adds.

Runs ``python3 -X importtime -c "import MODULE, ..."`` RUNS times each
way, in fresh interpreters and alternating between the two ways:

- *uncached*: with ``PYTHONDONTWRITEBYTECODE=1`` and no bytecode of the
  package, so every package module it imports is compiled from source;
- *cached*: from a bytecode cache that one run writes first into a
  temporary ``PYTHONPYCACHEPREFIX``, for the package and every other
  module the import loads.

Both ways import a copy of ``src/scientoscope`` made without its
``__pycache__``, and read the other modules from a cache, so they differ
by the package's compile alone. It prints each ``scientoscope`` module's
median self time, in ms, both ways and their difference, which is the
module's compile time, then the same for the package's total.

Run it from the root of a source checkout:

    python3 tools/importcost.py                          # import scientoscope.cli, 20 runs a way
    python3 tools/importcost.py -n 40 scientoscope.fold  # another import, 40 runs a way

It is not part of the test suite. Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "scientoscope"
TOTAL = "total"


def _self_times(stderr: str) -> dict[str, int]:
    """The self time, in us, of each package module in ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        own, _, name = line.removeprefix("import time:").split("|")
        name = name.strip()
        if own.strip().isdigit() and (name == PACKAGE or name.startswith(PACKAGE + ".")):
            times[name] = int(own)
    times[TOTAL] = sum(times.values())
    return times


def _import(statement: str, env: dict[str, str]) -> dict[str, int]:
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", statement], env=env,
                         capture_output=True, text=True, check=True)
    return _self_times(run.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", default=[f"{PACKAGE}.cli"],
                        help=f"modules to import (default: {PACKAGE}.cli)")
    parser.add_argument("-n", "--runs", type=int, default=20, help="runs a way (default: 20)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    statement = "import " + ", ".join(args.modules)

    with tempfile.TemporaryDirectory(prefix="importcost-") as work:
        src, cache = Path(work) / "src", Path(work) / "cache"
        shutil.copytree(ROOT / "src" / PACKAGE, src / PACKAGE,
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {key: value for key, value in os.environ.items()
                if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = str(src)
        uncached = {**base, "PYTHONDONTWRITEBYTECODE": "1"}
        cached = {**uncached, "PYTHONPYCACHEPREFIX": str(cache)}
        _import(statement, {**base, "PYTHONPYCACHEPREFIX": str(cache)})  # writes the cache
        runs: dict[str, list[dict[str, int]]] = {"uncached": [], "cached": []}
        for i in range(args.runs):
            for way in (("uncached", "cached") if i % 2 else ("cached", "uncached")):
                runs[way].append(_import(statement, uncached if way == "uncached" else cached))

    names = sorted({name for way in runs.values() for times in way for name in times},
                   key=lambda name: (name == TOTAL, name))

    def median_ms(way: str, name: str) -> float:
        return statistics.median(times.get(name, 0) for times in runs[way]) / 1000

    print(f"{statement}: median self time of {args.runs} runs a way, ms")
    print(f"{'module':<28} {'uncached':>9} {'cached':>9} {'compile':>9}")
    for name in names:
        off, on = median_ms("uncached", name), median_ms("cached", name)
        print(f"{name:<28} {off:>9.2f} {on:>9.2f} {off - on:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
