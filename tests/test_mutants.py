"""Every mutant of ``tools/mutate.py`` still matches the code it mutates.

The tool checks that each mutant's code occurs once only at the start of
a run that takes minutes, so a change to that code would go unseen until
the next run. This loads the tool by path, as ``tests/test_differential.py``
loads ``bench/gen.py``, and runs none of its tests.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutate_tool", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_replaces_code_that_occurs_once_and_names_tests_that_exist(mutant):
    source = (ROOT / mutant.path).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.old != mutant.new
    compile(source.replace(mutant.old, mutant.new), mutant.path, "exec")  # still Python
    assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests)

