"""The README's Python examples run as written against the package in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_python_block_of_the_readme_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        child = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert child.returncode == 0, child.stderr
