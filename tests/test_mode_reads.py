"""No module of the package but the config and the CLI reads ``.mode``.

A table builder or renderer chooses each convention by its own switch
(``ci_variant``, ``egr_mode``, ``cagr_mode``, ``rgr_mode``,
``totals_source``), which the config fills from its mode when it is
built. Reading the mode instead ignores an explicit switch: a
``productivity_table`` that picked its totals by ``config.mode`` once
did exactly that.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scientoscope"
#: The config fills the switches from the mode; the CLI echoes it and runs
#: the golden checks only in paper mode.
MODE_READERS = {"config.py", "cli.py"}


def mode_reads(source: str) -> list[int]:
    """The lines on which *source* reads an attribute named ``mode``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "mode")


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.rglob("*.py"))
                                  if p.name not in MODE_READERS], ids=lambda p: p.name)
def test_module_chooses_no_convention_by_the_mode(path):
    assert mode_reads(path.read_text(encoding="utf-8")) == []


def test_the_guard_catches_a_mode_read():
    source = ("def totals(config, mode='paper'):\n"
              "    if config.mode == mode:\n"
              "        return relative_growth([], mode=config.rgr_mode)\n")
    assert mode_reads(source) == [2]
