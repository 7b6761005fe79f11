"""Scaling curves of the limit oracle and of the constructive lift's
re-check, the time of each ``verify`` suite at its acceptance size, and
the start-up cost of the command line, for one or more source trees side
by side.

Stdlib only.  Each tree is a directory, or a git revision that is archived
into a temporary directory; it is measured in a fresh interpreter whose
``sys.path`` starts with the tree's ``src``.  From the repository root,

    PYTHONDONTWRITEBYTECODE=1 python tools/scaling.py \\
        parent=bb6871c change=. --out BENCH_34.json

regenerates ``BENCH_34.json``: ``bb6871c`` against the working tree.

Inputs are drawn from ``random.Random(SEED)``.  A point of a series over a
growing size is seconds per call: ``timeit.Timer.autorange`` sizes a loop
of calls to take at least 0.2 s, and the figure is the best of ``REPEAT``
such loops over their count.  A series stops after a size slower than
``BUDGET_S`` per call, which is timed once: the sizes past it, and a size
whose call raises (a refused height), are written as null, with the reason
under ``skipped``.  Every other figure is the best of ``REPEAT`` calls, in
seconds; a call slower than ``BUDGET_S`` is not repeated.  The measuring
interpreter caps its own address space at ``MAX_MEMORY_BYTES``, so a size
that would need more raises ``MemoryError`` and is written as null too.

- ``unique_stable_subdivision_oracle`` at heights ``ORACLE_HEIGHTS``, on
  five points of multiplicity 1-3 anywhere in the triangle;
- ``exists_stabilizing_linearization`` at ``LIFT_LEVELS`` torus levels, on
  a zero-free presentation (every sign vector admissible) with vanishing
  orders 1-3 and one point of multiplicity 1-3 on each level, so every
  level is occupied and the lift is built and re-checked;
- each ``verify`` suite at the size of its acceptance criterion, with its
  detail string, which must be the same on every tree;
- the wall time of a fresh interpreter running each ``STARTUP`` program,
  ``python -c pass`` and ``python -c "import degenlab.cli"``, best of
  ``REPEAT`` runs taken in turn: the command line's time before it reads
  its arguments, interpreter start-up included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from math import inf
from pathlib import Path
from time import perf_counter
from timeit import Timer

ORACLE_HEIGHTS = (6, 12, 30, 100)
LIFT_LEVELS = (3, 6, 12, 30)
SUITES = (  # (suite, its arguments in the acceptance criteria)
    ("counts", {"max_n": 8}),
    ("tau_fixpoints", {"max_size": 6}),
    ("limit_oracle", {"max_k": 6, "max_m": 3}),
    ("stability_equivalence", {"max_k": 5, "max_m": 3}),
    ("positivity", {"max_k": 5, "max_m": 3}),
    ("bijection", {"max_k": 5, "max_m": 3}),
)
STARTUP = (("interpreter", "pass"), ("import_cli", "import degenlab.cli"))
BUDGET_S = 0.25
REPEAT = 5
SEED = 31
MAX_MEMORY_BYTES = 1 << 30


def best_of(call) -> float:
    best = inf
    for _ in range(REPEAT):
        start = perf_counter()
        call()
        elapsed = perf_counter() - start
        best = min(best, elapsed)
        if elapsed > BUDGET_S:
            break
    return best


def per_call(call) -> float:
    """Seconds per call: the best of ``REPEAT`` loops of the count of calls
    that ``Timer.autorange`` finds, or the one call when it is slower than
    ``BUDGET_S``."""
    timer = Timer(call)
    number, elapsed = timer.autorange()
    if elapsed > BUDGET_S and number == 1:
        return elapsed
    return min(timer.repeat(REPEAT, number)) / number


def oracle_input(rng: random.Random, k: int):
    points = []
    for _ in range(5):
        a = rng.randint(0, k)
        b = rng.randint(0, k - a)
        points.append(((a, b, k - a - b), rng.randint(1, 3)))
    return points, k


def lift_input(rng: random.Random, n: int, degenlab):
    exponents = [rng.randint(1, 3) for _ in range(n + 1)]
    k = sum(exponents)
    points, v = [], 0
    for g in exponents[:-1]:
        v += g
        if rng.random() < 0.5:
            b = rng.randint(0, k - v)
            val = (v, b, k - v - b)
        else:
            a = rng.randint(0, v)
            val = (a, k - v, v - a)
        points.append((val, rng.randint(1, 3)))
    return (degenlab.place(degenlab.BaseTuple(tuple(exponents)), points),)


def series(fn, sizes, make_input, skipped: dict, name: str) -> dict:
    """Seconds per call at each size; null past the first size over
    ``BUDGET_S`` and where the call raises."""
    out, stop = {}, None
    for size in sizes:
        if stop is not None:
            out[str(size)] = None
            skipped[f"{name} {size}"] = stop
            continue
        args = make_input(size)
        try:
            out[str(size)] = per_call(lambda: fn(*args))
        except Exception as exc:  # a refusal ends the series at this size only
            out[str(size)] = None
            skipped[f"{name} {size}"] = f"{type(exc).__name__}: {exc}"
            continue
        if out[str(size)] > BUDGET_S:
            stop = f"not run: size {size} took over {BUDGET_S} s"
    return out


def measure() -> dict:
    """The figures of the ``degenlab`` under the working directory."""
    import degenlab
    from degenlab import verify

    if not Path(degenlab.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        raise SystemExit(f"degenlab was imported from outside the tree: {degenlab.__file__}")

    skipped: dict[str, str] = {}
    rng = random.Random(SEED)
    oracle = series(
        degenlab.unique_stable_subdivision_oracle, ORACLE_HEIGHTS,
        lambda k: oracle_input(rng, k), skipped, "unique_stable_subdivision_oracle",
    )
    rng = random.Random(SEED)
    lift = series(
        degenlab.exists_stabilizing_linearization, LIFT_LEVELS,
        lambda n: lift_input(rng, n, degenlab), skipped,
        "exists_stabilizing_linearization",
    )
    suites = {}
    for name, kwargs in SUITES:
        check = getattr(verify, f"check_{name}")
        details = set()
        seconds = best_of(lambda: details.add(check(**kwargs).detail))
        suites[name] = {"args": kwargs, "seconds": seconds, "detail": details.pop()}
    return {
        "unique_stable_subdivision_oracle_s": oracle,
        "exists_stabilizing_linearization_s": lift,
        "verify_suite_s": suites,
        "skipped": skipped,
    }


def startup(env: dict, cwd: Path) -> dict:
    """Best wall time of ``REPEAT`` fresh interpreters per ``STARTUP``
    program, in seconds, the programs alternating."""
    best = dict.fromkeys([name for name, _ in STARTUP], inf)
    for _ in range(REPEAT):
        for name, program in STARTUP:
            start = perf_counter()
            subprocess.run([sys.executable, "-c", program], check=True, env=env, cwd=cwd)
            best[name] = min(best[name], perf_counter() - start)
    return best


def checkout(spec: str, scratch: Path) -> tuple[Path, str]:
    """The tree named by ``spec``: a directory, or a git revision archived
    under ``scratch``; with what was measured."""
    if Path(spec).is_dir():
        return Path(spec).resolve(), f"directory {spec}"
    rev = subprocess.run(["git", "rev-parse", "--verify", spec], check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    root = scratch / rev
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(root, filter="data")
    return root, f"git {rev}"


def host() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": nproc,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="LABEL=TREE",
                        help="a directory or a git revision, under a label")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (MAX_MEMORY_BYTES, MAX_MEMORY_BYTES))
        json.dump(measure(), sys.stdout)
        return 0
    report = {
        "command": "python tools/scaling.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "host": host(),
        "repeat": REPEAT,
        "seed": SEED,
        "budget_s": BUDGET_S,
        "max_memory_bytes": MAX_MEMORY_BYTES,
        "trees": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        for spec in args.trees:
            label, _, where = spec.partition("=")
            root, source = checkout(where, Path(scratch))
            path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
            run = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--measure"],
                check=True, capture_output=True, text=True, env=env, cwd=root,
            )
            report["trees"][label] = {
                "source": source, **json.loads(run.stdout), "startup_s": startup(env, root),
            }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
