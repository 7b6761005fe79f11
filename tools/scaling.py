"""Scaling curves of the limit oracle and of the existence test of a
stabilizing lift, the time of each ``verify`` suite at its acceptance
size, and the start-up cost of the command line, for one or more source
trees side by side.

Stdlib only.  Each tree is a directory, or a git revision that is archived
into a temporary directory; it is measured in a fresh interpreter whose
``sys.path`` starts with the tree's ``src``.  From the repository root,

    PYTHONDONTWRITEBYTECODE=1 python tools/scaling.py \\
        parent=c99db08 change=. --out BENCH_37.json

regenerates ``BENCH_37.json``: ``c99db08`` beside the working tree.

Every figure is taken by one rule.  Each tree has its own measuring
interpreter, and a sample is seconds per call of a loop of calls, with
garbage collection on, whose count ``timeit.Timer.autorange`` sizes once
to take at least 0.2 s.  A figure is the best of ``REPEAT`` samples per
tree, taken in alternation: in each round every tree gives one sample,
in turn, the order reversed from one round to the next, so a drift of the
host's speed moves every tree's figure alike, not one tree's column.  Only
an error ends a figure early: it is the tree's answer.  Beside each best,
the tree's ``second_s`` holds the figure's second-best sample, so that a
reader can tell the noise of a figure from a change.

Inputs are drawn from ``random.Random(SEED)``.  A series over a growing
size stops after the first size that is slower than ``BUDGET_S`` per call:
the sizes past it, and a size whose call raises (a refused height), are
written as null, with the reason under ``skipped``.  The measuring
interpreter caps its own address space at ``MAX_MEMORY_BYTES``, so a size
that would need more raises ``MemoryError`` and is written as null too.

- ``unique_stable_subdivision_oracle`` at heights ``ORACLE_HEIGHTS``, on
  five points of multiplicity 1-3 anywhere in the triangle;
- ``exists_stabilizing_linearization`` at ``LIFT_LEVELS`` torus levels, on
  a zero-free presentation (every sign vector admissible) with vanishing
  orders 1-3 and one point of multiplicity 1-3 on each level, so every
  level is occupied and the lift is built and its schemes validated;
- each ``verify`` suite at the size of its acceptance criterion, with the
  detail string of one untimed run, which must be the same on every tree;
  the timed calls follow that run, so they read whatever it left for the
  process to keep (since ``BENCH_37.json``, the table of presentations);
- the wall time of a fresh interpreter running each ``STARTUP`` command,
  a loop of runs like any other figure (``BENCH_35.json`` and earlier
  kept the best single run, so compare these within one file):
  ``python -c pass``, ``python -c "import degenlab.cli"``, the command
  line's time before it reads its arguments, and five whole commands,
  interpreter start-up included: ``normalize`` and ``stability`` on
  scenarios of a three-level presentation (``normalize``'s with a unit
  slot), ``limit`` on five points at height 6, ``verify --max-k 1
  --max-m 1``, and ``verify`` at its defaults, ``--max-k 4 --max-m 2``,
  whose suites run once each in a fresh process.  The scenarios are written
  once and read by every tree.
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
from contextlib import ExitStack
from io import BytesIO
from pathlib import Path
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
STARTUP = (  # (name, the interpreter's arguments); {} is the scenario directory
    ("interpreter", ["-c", "pass"]),
    ("import_cli", ["-c", "import degenlab.cli"]),
    ("normalize", ["-m", "degenlab.cli", "normalize", "{}/normalize.json"]),
    ("stability", ["-m", "degenlab.cli", "stability", "{}/stability.json"]),
    ("limit", ["-m", "degenlab.cli", "limit", "{}/limit.json"]),
    ("verify", ["-m", "degenlab.cli", "verify", "--max-k", "1", "--max-m", "1"]),
    ("verify_defaults", ["-m", "degenlab.cli", "verify", "--max-k", "4", "--max-m", "2"]),
)
BUDGET_S = 0.25
REPEAT = 5
SEED = 31
MAX_MEMORY_BYTES = 1 << 30


def sampler(call):
    """One sample per call of the result: seconds per call of a loop of
    ``call``, with garbage collection on, whose count ``Timer.autorange``
    sizes on the first call."""
    timer = Timer(call, "gc.enable()")
    number = None

    def sample() -> float:
        nonlocal number
        if number is None:
            number, _ = timer.autorange()
        return timer.timeit(number) / number

    return sample


def oracle_input(rng: random.Random, k: int):
    points = []
    for _ in range(5):
        a = rng.randint(0, k)
        b = rng.randint(0, k - a)
        points.append(((a, b, k - a - b), rng.randint(1, 3)))
    return points, k


def level_points(rng: random.Random, n: int):
    """A zero-free presentation of n torus levels, vanishing orders 1-3, and
    one point of multiplicity 1-3 on each level."""
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
    return exponents, points


def lift_input(rng: random.Random, n: int, degenlab):
    exponents, points = level_points(rng, n)
    return (degenlab.place(degenlab.BaseTuple(tuple(exponents)), points),)


def launch(name: str, argv: list[str]) -> None:
    """One run of a fresh interpreter on ``argv``, which must exit 0 or 1."""
    done = subprocess.run([sys.executable, *argv], stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{name} exited {done.returncode}: {done.stderr}")


def serve() -> None:
    """The measuring interpreter of the ``degenlab`` under the working
    directory: one sample per request, a JSON line on stdin, answered by a
    JSON line on stdout.  A request is ``["series", function, size]``,
    ``["suite", name, arguments]`` or ``["startup", name, argv]``; a call
    that raises answers ``{"error": ...}``.  Each series draws its inputs,
    size by size, from its own ``random.Random(SEED)``."""
    import degenlab
    from degenlab import verify

    if not Path(degenlab.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        raise SystemExit(f"degenlab was imported from outside the tree: {degenlab.__file__}")
    inputs = {
        "unique_stable_subdivision_oracle": oracle_input,
        "exists_stabilizing_linearization": lambda rng, n: lift_input(rng, n, degenlab),
    }
    rngs: dict[str, random.Random] = {}

    def figure(kind: str, name: str, arg) -> tuple:
        """The call that a request times, and what each reply to it carries:
        a suite's detail, from one untimed run."""
        if kind == "series":
            args = inputs[name](rngs.setdefault(name, random.Random(SEED)), arg)
            fn = getattr(degenlab, name)
            return lambda: fn(*args), {}
        if kind == "suite":
            check = getattr(verify, f"check_{name}")
            return lambda: check(**arg), {"detail": check(**arg).detail}
        return lambda: launch(name, arg), {}

    samplers = {}
    for line in sys.stdin:
        try:
            if line not in samplers:
                call, carried = figure(*json.loads(line))
                samplers[line] = sampler(call), carried
            sample, carried = samplers[line]
            reply = {"seconds": sample(), **carried}
        except Exception as exc:  # a refusal or MemoryError ends this figure only
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Tree:
    """One tree under a label, with its measuring interpreter (``serve``),
    which runs under the tree's root with the tree's ``src`` first on its
    path; a context manager that ends the interpreter."""

    def __init__(self, label: str, root: Path, source: str) -> None:
        self.label, self.source = label, source
        path = [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        self.server = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )

    def __enter__(self) -> Tree:
        return self

    def __exit__(self, *exc) -> None:
        self.server.stdin.close()
        self.server.wait(timeout=60)

    def sample(self, request: list) -> dict:
        self.server.stdin.write(json.dumps(request) + "\n")
        self.server.stdin.flush()
        line = self.server.stdout.readline()
        if not line:
            raise SystemExit(f"{self.label}: the measuring interpreter exited")
        return json.loads(line)


def best(trees: list[Tree], request: list) -> dict[str, dict]:
    """Each tree's best of ``REPEAT`` samples of one figure, with its
    second-best sample under ``second``, the trees in turn, the order
    reversed each round; an error ends the tree's figure and is its
    answer."""
    taken: dict[str, list[dict]] = {tree.label: [] for tree in trees}
    for r in range(REPEAT):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            replies = taken[tree.label]
            if not (replies and "error" in replies[-1]):
                replies.append(tree.sample(request))
    found: dict[str, dict] = {}
    for label, replies in taken.items():
        if "error" in replies[-1]:
            found[label] = replies[-1]
        else:
            first, second, *_ = sorted(replies, key=lambda reply: reply["seconds"])
            found[label] = {**first, "second": second["seconds"]}
    return found


def series(trees: list[Tree], name: str, sizes, figures: dict) -> None:
    """Seconds per call of ``name`` at each size, in each tree's
    ``{name}_s``; null past the first size over ``BUDGET_S`` and where the
    call raises, with the reason under ``skipped``."""
    stop: dict[str, str] = {}
    for size in sizes:
        for tree in trees:
            if tree.label in stop:
                figures[tree.label][f"{name}_s"][str(size)] = None
                figures[tree.label]["second_s"][f"{name} {size}"] = None
                figures[tree.label]["skipped"][f"{name} {size}"] = stop[tree.label]
        live = [tree for tree in trees if tree.label not in stop]
        for label, reply in best(live, ["series", name, size]).items():
            seconds = reply.get("seconds")
            figures[label][f"{name}_s"][str(size)] = seconds
            figures[label]["second_s"][f"{name} {size}"] = reply.get("second")
            if seconds is None:
                figures[label]["skipped"][f"{name} {size}"] = reply["error"]
            elif seconds > BUDGET_S:
                stop[label] = f"not run: size {size} took over {BUDGET_S} s"


def suites(trees: list[Tree], figures: dict) -> None:
    """Each suite's time at its acceptance size, with its detail."""
    for name, kwargs in SUITES:
        for label, reply in best(trees, ["suite", name, kwargs]).items():
            if "error" in reply:
                raise SystemExit(f"{label}: suite {name}: {reply['error']}")
            figures[label]["verify_suite_s"][name] = {
                "args": kwargs, "seconds": reply["seconds"], "detail": reply["detail"],
            }
            figures[label]["second_s"][f"suite {name}"] = reply["second"]


def write_scenarios(where: Path) -> None:
    """The scenario files of the ``STARTUP`` commands, drawn from
    ``random.Random(SEED)``."""
    rng = random.Random(SEED)
    points, k = oracle_input(rng, 6)
    exponents, on_levels = level_points(rng, 3)

    def listed(pairs):
        return [{"val": list(val), "mult": mult} for val, mult in pairs]

    scenarios = {
        "limit": {"height": k, "points": listed(points)},
        "stability": {"tuple": exponents, "points": listed(on_levels)},
        "normalize": {"tuple": [exponents[0], 0, *exponents[1:]], "points": listed(on_levels)},
    }
    for name, scenario in scenarios.items():
        (where / f"{name}.json").write_text(json.dumps(scenario), encoding="utf-8")


def startup(trees: list[Tree], scenarios: Path, figures: dict) -> None:
    """Seconds per run of a fresh interpreter for each ``STARTUP`` command,
    in each tree's ``startup_s``."""
    for name, arguments in STARTUP:
        request = ["startup", name, [a.format(scenarios) for a in arguments]]
        for label, reply in best(trees, request).items():
            if "error" in reply:
                raise SystemExit(f"{label}: {reply['error']}")
            figures[label]["startup_s"][name] = reply["seconds"]
            figures[label]["second_s"][f"startup {name}"] = reply["second"]


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
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (MAX_MEMORY_BYTES, MAX_MEMORY_BYTES))
        serve()
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
    with tempfile.TemporaryDirectory() as scratch, ExitStack() as stack:
        trees = []
        for spec in args.trees:
            label, _, where = spec.partition("=")
            root, source = checkout(where, Path(scratch))
            trees.append(stack.enter_context(Tree(label, root, source)))
        figures = report["trees"]
        for tree in trees:
            figures[tree.label] = {
                "source": tree.source,
                "unique_stable_subdivision_oracle_s": {},
                "exists_stabilizing_linearization_s": {},
                "verify_suite_s": {},
                "skipped": {},
                "startup_s": {},
                "second_s": {},
            }
        series(trees, "unique_stable_subdivision_oracle", ORACLE_HEIGHTS, figures)
        series(trees, "exists_stabilizing_linearization", LIFT_LEVELS, figures)
        suites(trees, figures)
        write_scenarios(Path(scratch))
        startup(trees, Path(scratch), figures)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
