"""Every demo script runs to completion and writes nothing to stderr.

Each demo runs in a temporary directory, since some write their diagrams
to the working directory.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from regen_goldens import cli_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=cli_env(), cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
