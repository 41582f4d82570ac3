"""Smoke tests: every shipped example runs to completion.

Executed as subprocesses so they exercise the real public entry points
(imports, `__main__` blocks) exactly as a user would.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(example):
    completed = subprocess.run(
        [sys.executable, str(example)], capture_output=True, text=True,
        timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must narrate their output"


def test_examples_inventory():
    """The shipped examples are exactly the rows of README.md's table."""
    readme = (ROOT / "README.md").read_text()
    documented = set(re.findall(r"^\| \[`examples/(\w+)\.py`\]", readme,
                                flags=re.MULTILINE))
    assert {path.stem for path in EXAMPLES} == documented
