"""Regenerate the committed golden files for the command-line tests.

Run from the repository root:

    python3 tests/regen_goldens.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent
SRC = HERE.resolve().parent / "src"
DATA = HERE / "data"
GOLDENS = HERE / "goldens"

CASES = [
    ("s1_worked_pair", ["limit"], "limit.json"),
    ("s1_worked_pair", ["stability"], "stability.json"),
    ("s1_worked_pair", ["render", "svg"], "render.svg"),
    ("s2_corner_point", ["limit"], "limit.json"),
    ("s2_corner_point", ["stability"], "stability.json"),
    ("s2_corner_point", ["render", "svg"], "render.svg"),
    ("s3_mixed_point", ["limit"], "limit.json"),
    ("s3_mixed_point", ["stability"], "stability.json"),
    ("s3_mixed_point", ["render", "svg"], "render.svg"),
    ("s4_unstable_corner", ["stability"], "stability.json"),
    ("s4_unstable_corner", ["render", "svg"], "render.svg"),
    ("s5_quadric_config", ["limit"], "limit.json"),
    ("s5_quadric_config", ["stability"], "stability.json"),
    ("s5_quadric_config", ["render", "svg"], "render.svg"),
    ("s1_worked_pair", ["render", "dot"], "render.dot"),
    ("s1_worked_pair", ["render", "tikz"], "render.tikz"),
    ("s5_quadric_config", ["render", "dot"], "render.dot"),
    ("s5_quadric_config", ["render", "tikz"], "render.tikz"),
]


def cli_env() -> dict[str, str]:
    """The environment under which a subprocess imports degenlab from this
    checkout, installed or not."""
    pythonpath = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


def main() -> int:
    GOLDENS.mkdir(exist_ok=True)
    for scenario, command, suffix in CASES:
        result = subprocess.run(
            [sys.executable, "-m", "degenlab.cli", *command,
             str(DATA / f"{scenario}.json")],
            capture_output=True, env=cli_env(),
        )
        # exit 1 is a negative verdict, printed on stdout; a failure to run
        # (also exit 1 for an import error) writes to stderr
        if result.returncode not in (0, 1) or result.stderr:
            raise SystemExit(
                f"{scenario} {command}: exit {result.returncode}: "
                f"{result.stderr.decode()}"
            )
        out = GOLDENS / f"{scenario}.{suffix}"
        out.write_bytes(result.stdout)
        print(f"wrote {out} ({len(result.stdout)} bytes, exit {result.returncode})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
