"""The four closed-loop workloads: inputs, operations and output checks.

Each workload is driven by one caller in one process: an operation starts
only after the previous one has finished and been checked.  A run is made of
whole passes over a workload's inputs; ``pass_ops(i)`` gives pass i.  Only
``run`` is timed.  ``check`` compares the output with :mod:`checks`, which
does not use the program, and returns False only for the one operation
kept as a known failure.

``degenlab`` must already be importable (``run.py`` puts the checkout's
``src`` first on ``sys.path``).  Workloads call the library through module
attributes, so the tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

from degenlab import (
    base, cli, configurations, dual_complex, limits, render, scenario, verify, weights,
)

import checks
from checks import require

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def clear_program_caches() -> None:
    dual_complex.cached_fibre.cache_clear()
    dual_complex.location_table.cache_clear()


def random_point(rng: random.Random, k: int) -> tuple[int, int, int]:
    a = rng.randint(0, k)
    b = rng.randint(0, k - a)
    return a, b, k - a - b


def occupying_vertices(rng: random.Random, k: int, cuts, levels, count: int) -> list:
    """``count`` vertices of the fibre with these cuts, occupying every level."""
    vertices = checks.vertex_positions(k, cuts)
    chosen = []
    for v in rng.sample(sorted(set(levels)), len(set(levels))):
        if not checks.occupied(v, chosen, k):
            chosen.append(rng.choice(
                [p for p in vertices if checks.occupied(v, [p], k) and p not in chosen]))
    spare = [p for p in vertices if p not in chosen]
    return sorted(chosen + rng.sample(spare, min(len(spare), max(count - len(chosen), 0))))


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def prepare(self) -> None:
        """Set-up before the first timed operation: inputs and warm-up."""
        clear_program_caches()
        self._passes = {0: self.make_pass(0)}
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def pass_ops(self, i: int) -> list:
        if i not in self._passes:
            self._passes = {i: self.make_pass(i)}
        return self._passes[i]

    def make_pass(self, i: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> bool:
        raise NotImplementedError

    def trace_extra(self, op) -> None:
        """Untimed work done after each operation in a traced run only."""

    def close(self) -> None:
        """Release what ``prepare`` made."""


# --- limit_pipeline -------------------------------------------------------------

@dataclass(frozen=True)
class LimitOp:
    k: int
    points: tuple  # ((a, b, c), multiplicity) pairs at distinct positions
    declared: object  # NormalForm of the declared generic fibre


class LimitPipeline(Workload):
    """Flat limit, lift, placement on a coarser fibre, SVG and JSON.

    Fresh points every pass (pass i draws from seed + i): heights 60-240,
    8-20 points of multiplicity 1-3; the declared fibre keeps a third to a
    half of the limit's cuts, so most points fall off its vertices.
    """

    name = "limit_pipeline"

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.pass_size = 4 if tiny else 50

    def make_pass(self, i):
        rng = random.Random(f"{self.name}/{self.seed + i}")
        return [self._make_op(rng) for _ in range(self.pass_size)]

    def _make_op(self, rng):
        k = rng.randint(6, 12) if self.tiny else rng.randint(60, 240)
        count = rng.randint(2, 4) if self.tiny else rng.randint(8, 20)
        positions = sorted({random_point(rng, k) for _ in range(count)})
        points = tuple((pos, rng.randint(1, 3)) for pos in positions)
        cuts = checks.limit_cuts(positions, k)
        keep = rng.randint(len(cuts) // 3, max(len(cuts) // 2, len(cuts) // 3))
        declared = tuple(sorted(rng.sample(cuts, keep)))
        return LimitOp(k, points, base.NormalForm(k, declared))

    def warm_up(self):
        # the same input for every seed, so set-up time does not vary with it
        op = self._make_op(random.Random(f"{self.name}/warm-up"))
        self.check(op, self.run(op))

    def run(self, op):
        report = limits.associated_pair(op.points, op.k, op.declared)
        lin = weights.constructive_linearization(report.configuration)
        coarse = configurations.place(op.declared, op.points)
        coarse_report = configurations.stability_report(coarse)
        svg = render.render_fibre(report.fibre, report.configuration, "svg")
        limit_json = scenario.dumps(scenario.limit_report_to_json(report))
        coarse_json = scenario.dumps({
            "configuration": scenario.configuration_to_json(coarse),
            "stability": scenario.stability_report_to_json(coarse_report),
        })
        return report, lin, coarse, coarse_report, svg, limit_json, coarse_json

    def check(self, op, out):
        report, lin, coarse, coarse_report, svg, limit_json, coarse_json = out
        k = op.k
        positions = [pos for pos, _ in op.points]
        cuts = checks.limit_cuts(positions, k)
        fibre = report.fibre
        dc = fibre.dual_complex
        require(tuple(fibre.cuts) == cuts, f"limit cuts {fibre.cuts}, expected {cuts}")
        for s in fibre.cuts:
            require(checks.occupied(s, positions, k), f"limit cut {s} is unoccupied")
        require(set(op.declared.cuts) <= set(fibre.cuts), "declared cuts not in the limit")
        checks.check_complex(dc, len(cuts))
        for pos, loc in zip(positions, report.configuration.placements):
            require(loc.is_vertex, f"point {pos} is off the limit's vertices")
            checks.check_placement(loc, pos, k, cuts, dc.vertices, dc.edges)
        st = report.stability
        require(
            st.admissible and st.lw_stable and st.ws_stable and st.sws_stable
            and st.stabilizer_rank == 0,
            f"limit verdicts {st}",
        )
        self._check_lift(lin, op.points, k)
        coarse_dc = coarse.fibre.dual_complex
        for pos, loc in zip(positions, coarse.placements):
            checks.check_placement(
                loc, pos, k, op.declared.cuts, coarse_dc.vertices, coarse_dc.edges)
        admissible = all(
            checks.lines_through(pos, k, op.declared.cuts) >= 2 for pos in positions)
        unoccupied = tuple(
            s for s in op.declared.cuts if not checks.occupied(s, positions, k))
        require(coarse_report.admissible == admissible, "coarse admissibility")
        require(
            tuple(coarse_report.unoccupied_levels) == unoccupied,
            f"coarse unoccupied levels {coarse_report.unoccupied_levels}, "
            f"expected {unoccupied}",
        )
        circles, lines = checks.count_svg(svg)
        require(
            (circles, lines) == (len(dc.vertices) + len(positions), len(dc.edges)),
            f"SVG has {circles} circles and {lines} lines",
        )
        limit_doc = checks.check_json(limit_json)
        require(limit_doc["normal_form"]["cuts"] == list(cuts), "limit JSON cuts")
        coarse_doc = checks.check_json(coarse_json)
        require(
            [p["val"] for p in coarse_doc["configuration"]["points"]]
            == [list(pos) for pos in positions],
            "coarse JSON points",
        )
        return True

    @staticmethod
    def _check_lift(lin, points, k):
        """Each level's lift follows the construction from the docstring."""
        levels = checks.limit_levels([pos for pos, _ in points], k)
        require(len(lin.levels) == len(levels), "one lift per level")
        m = sum(mult for _, mult in points)
        for v, lift in zip(levels, lin.levels):
            if any(a == v for (a, _, _), _ in points):
                m1 = sum(mult for (a, _, _), mult in points if a < v)
                expected = (m * (m - m1), m * (m1 + 1), 0, 1)
            else:
                m2 = sum(mult for (_, b, _), mult in points if b < k - v)
                expected = (0, 1, m * (m - m2), m * (m2 + 1))
            require(tuple(lift) == expected, f"lift {tuple(lift)} at level {v}")


# --- git_stability --------------------------------------------------------------

@dataclass(frozen=True)
class GitOp:
    kind: str  # "full", "units" or "unoccupied"
    presentation: object  # BaseTuple
    points: tuple  # SupportPoints
    lin: object  # Linearization, or None for the constructive lift
    scale: int  # 0 with the constructive lift: 2 m^2 + 1 is used


class GitStability(Workload):
    """One exact stability decision per operation, at n = 4-6 levels.

    A pass holds thirteen configurations on fresh presentations: three
    zero-free ones leaving one level empty (n = 4, 5, 6), tested under a
    seeded lift; four with one unit slot inserted (a standard embedding,
    n = 5, 6) and six zero-free ones (n = 5, 6), all occupying every level
    and tested under the constructive lift.  Occupied configurations have n
    points at vertices, two of them of multiplicity 2 carrying a curvilinear
    local scheme when a chart passes through them.  The mix puts the median
    inside the n = 5 full sweeps and the 90th percentile inside the n = 6
    ones, whose cost varies little, so both repeat from seed to seed.
    """

    name = "git_stability"
    MIX = (
        ("unoccupied", 4), ("unoccupied", 5), ("unoccupied", 6),
        ("units", 5), ("units", 5), ("units", 6), ("units", 6),
        ("full", 5), ("full", 5), ("full", 5),
        ("full", 6), ("full", 6), ("full", 6),
    )
    TINY_MIX = (("unoccupied", 2), ("units", 3), ("full", 3))

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.mix = self.TINY_MIX if tiny else self.MIX

    def make_pass(self, i):
        rng = random.Random(f"{self.name}/{self.seed + i}")
        ops = [self._make_op(rng, kind, n) for kind, n in self.mix]
        rng.shuffle(ops)
        return ops

    def warm_up(self):
        op = self._make_op(random.Random(f"{self.name}/warm-up"), "full", 2)
        self.check(op, self.run(op))

    def _make_op(self, rng, kind, n):
        units = 1 if kind == "units" else 0
        exps = [rng.randint(1, 3) for _ in range(n - units + 1)]
        k = sum(exps)
        cuts = checks.partial_sums(exps)
        for _ in range(units):
            exps.insert(rng.randint(0, len(exps)), 0)
        levels = checks.partial_sums(exps)
        if kind == "unoccupied":
            empty = rng.choice(levels)
            pool = [p for p in checks.vertex_positions(k, cuts)
                    if not checks.occupied(empty, [p], k)]
            chosen = sorted(rng.sample(pool, min(len(pool), n)))
        else:
            chosen = occupying_vertices(rng, k, cuts, levels, n)
        mults = [2, 2] + [1] * (len(chosen) - 2)
        rng.shuffle(mults)
        points = tuple(
            self._point(pos, mult, levels, k) for pos, mult in zip(chosen, mults))
        lin, scale = None, 0
        if kind == "unoccupied":
            m = sum(p.multiplicity for p in points)
            lin = weights.Linearization(tuple(self._lift(rng) for _ in levels))
            scale = rng.randint(1, 2 * m * m + 1)
        return GitOp(kind, base.BaseTuple(tuple(exps)), points, lin, scale)

    @staticmethod
    def _point(pos, mult, levels, k):
        """A support point; a fat one carries 1, z, ..., z^(mult-1) in the
        coordinate of the first chart through it, if there is one."""
        a, b, _ = pos
        charts = [(j, "delta1") for j, v in enumerate(levels, 1) if v == a]
        charts += [(j, "delta2") for j, v in enumerate(levels, 1) if k - v == b]
        scheme = None
        if mult > 1 and charts:
            scheme = weights.LocalMonomialScheme.of(
                [{}] + [{charts[0]: e} for e in range(1, mult)])
        return configurations.SupportPoint(pos, mult, scheme)

    @staticmethod
    def _lift(rng):
        while True:
            a, b, c, d = (rng.randint(0, 3) for _ in range(4))
            if a + b >= 1 and c + d >= 1:
                return weights.LevelLift(a, b, c, d)

    def run(self, op):
        cfg = configurations.place(op.presentation, op.points)
        if op.lin is None:
            lin = weights.constructive_linearization(cfg)
            scale = weights.default_scale(cfg.m)
        else:
            lin, scale = op.lin, op.scale
        return weights.is_git_stable(cfg, lin, scale)

    def check(self, op, out):
        exps = op.presentation.exponents
        k = sum(exps)
        valuations = [p.valuations for p in op.points]
        occupied = all(checks.occupied(v, valuations, k) for v in checks.partial_sums(exps))
        if occupied:
            require(op.lin is None, "occupied configurations use the constructive lift")
            expected = True
        else:
            require(all(g > 0 for g in exps), "unoccupied configurations are zero-free")
            expected = False
        require(out is expected, f"{op.kind} {exps} {valuations}: verdict {out}, "
                                 f"occupancy predicts {expected}")
        return True


# --- verify_sweep ---------------------------------------------------------------

@dataclass(frozen=True)
class SuiteOp:
    suite: str
    caps: tuple  # sorted (name, value) pairs


def suite_caps(suite: str, max_k: int, max_m: int) -> dict:
    """The caps ``run_all`` gives each suite, with ``counts`` growing in k."""
    if suite == "counts":
        return {"max_n": 2 * max_k}
    if suite == "tau_fixpoints":
        return {"max_size": min(max_k + 1, 6)}
    if suite == "limit_oracle":
        return {"max_k": min(max_k + 1, 6), "max_m": max_m}
    return {"max_k": max_k, "max_m": max_m}


class VerifySweep(Workload):
    """Every suite of ``degenlab.verify`` on a ladder of caps.

    The ladder climbs to the ``degenlab verify`` defaults (k <= 4, m <= 2).
    A pass runs each suite at each cap, then some operations again: the two
    heaviest suites at the defaults (stability-equivalence once, positivity
    three times), so that the top tenth of a pass is made of the same
    operations in every run and the 90th percentile falls among them; and
    positivity at (3, 1), the operation in the middle of a pass, eight
    times, so that the median falls inside a block of one operation and not
    on the boundary between suites of different cost.  The inputs are the
    caps, so they do not depend on the seed; the program's fibre and
    location caches warm up during the first pass of a run.  Each pass runs
    in a seeded order, so that the copies of one operation are spread over
    the run and meet the machine in all the states it passes through.
    """

    name = "verify_sweep"
    LADDER = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))
    REPEATS = (
        ("stability_equivalence", 4, 2), *(("positivity", 4, 2),) * 3,
        *(("positivity", 3, 1),) * 8,
    )

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.ladder = self.LADDER[:1] if tiny else self.LADDER
        self.repeats = () if tiny else self.REPEATS

    def make_pass(self, i):
        if i < 0:  # warm-up: the smallest caps
            return [self._op(suite, 1, 1) for suite in checks.SUITES]
        ops = [
            *(self._op(suite, k, m) for k, m in self.ladder for suite in checks.SUITES),
            *(self._op(suite, k, m) for suite, k, m in self.repeats),
        ]
        random.Random(f"{self.name}/{self.seed + i}").shuffle(ops)
        return ops

    @staticmethod
    def _op(suite, k, m):
        return SuiteOp(suite, tuple(sorted(suite_caps(suite, k, m).items())))

    def warm_up(self):
        for op in self.make_pass(-1):
            self.check(op, self.run(op))

    def run(self, op):
        return getattr(verify, f"check_{op.suite}")(**dict(op.caps))

    def check(self, op, out):
        checks.check_suite(out, op.suite, dict(op.caps))
        return True


# --- cli ------------------------------------------------------------------------

KNOWN_FAULT = '{"entries":[{"unit":"1/0"},{"unit":"2"}]}'


@dataclass(frozen=True)
class CliOp:
    argv: tuple
    expect: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


class Cli(Workload):
    """One ``python -m degenlab.cli`` subprocess per operation.

    Scenario files are written from the seed during set-up into a scratch
    directory of the checkout: a flat limit small enough for the oracle,
    a fibre, a stable and an unstable configuration, two weight tables at
    n = 5, a tuple and a closed point to normalize.  Every pass runs the
    same thirteen commands, one of which is the known fault, in a seeded
    order (pass i from seed + i).
    """

    name = "cli"

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.workdir = None
        self.sub_ms: dict[str, list[float]] = {}  # subprocess times by subcommand
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def prepare(self):
        rng = random.Random(f"{self.name}/{self.seed}")
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        if self.workdir is None:
            self.workdir = out_dir / f"cli-{self.seed}-{os.getpid()}"
            self.workdir.mkdir(exist_ok=True)
        self._ops = self._write_scenarios(rng)
        self.warm_up()
        self.sub_ms = {}  # per-subcommand times of the measured passes only

    def warm_up(self):
        op = self._ops[1]  # fiber: imports the whole package
        self.check(op, self.run(op))

    def close(self):
        if self.workdir is not None:
            for path in self.workdir.iterdir():
                path.unlink()
            self.workdir.rmdir()
            self.workdir = None

    def pass_ops(self, i):
        ops = list(self._ops)
        random.Random(f"{self.name}/{self.seed + i}").shuffle(ops)
        return ops

    def _file(self, name: str, payload) -> str:
        path = self.workdir / name
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _write_scenarios(self, rng):
        ops = []
        # limit: height <= 6 and m <= 3, so the subdivision oracle runs.
        k = rng.randint(4, 6)
        pts = sorted({random_point(rng, k) for _ in range(rng.randint(2, 3))})
        f = self._file("limit.json", {"height": k, "points": [{"val": list(p)} for p in pts]})
        ops.append(CliOp(("limit", f), {"k": k, "points": pts}))
        # fiber
        k = rng.randint(20, 40)
        cuts = sorted(rng.sample(range(1, k), rng.randint(5, 12)))
        f = self._file("fiber.json", {"height": k, "cuts": cuts})
        ops.append(CliOp(("fiber", f), {"n": len(cuts)}))
        # stable and unstable configurations on the limit fibre of the points
        while True:
            k = rng.randint(12, 24)
            pts = sorted({random_point(rng, k) for _ in range(rng.randint(3, 5))})
            cuts = list(checks.limit_cuts(pts, k))
            free = [s for s in range(1, k) if s not in cuts]
            if free:
                break
        extra = rng.choice(free)
        points = [{"val": list(p), "mult": rng.randint(1, 2)} for p in pts]
        stable = self._file("stable.json", {"height": k, "cuts": cuts, "points": points})
        unstable = self._file(
            "unstable.json", {"height": k, "cuts": sorted(cuts + [extra]), "points": points})
        ops.append(CliOp(("stability", stable), {"stable": True}))
        ops.append(CliOp(("stability", unstable), {"stable": False, "empty": extra}))
        # weights, twice: zero-free, n = 5, five points occupying every level;
        # the slowest commands, so the 90th percentile falls between them
        for name in ("weights_a.json", "weights_b.json"):
            exps = [rng.randint(1, 3) for _ in range(6)]
            k = sum(exps)
            levels = checks.partial_sums(exps)
            chosen = occupying_vertices(rng, k, levels, levels, len(levels))
            f = self._file(name, {"tuple": exps, "points": [{"val": list(p)} for p in chosen]})
            ops.append(CliOp(("weights", f), {"n": len(levels)}))
        # normalize: a tuple with unit slots, and a closed point with zeros
        exps = [rng.randint(0, 3) for _ in range(rng.randint(4, 8))]
        exps[rng.randrange(len(exps))] += 1
        f = self._file("tuple.json", {"tuple": exps})
        ops.append(CliOp(("normalize", f), {"tuple": exps}))
        entries = [
            {"zero": True} if rng.random() < 0.4 else {"unit": rng.choice(["2", "a", "3/4", "b"])}
            for _ in range(rng.randint(3, 6))
        ]
        entries[rng.randrange(len(entries))] = {"zero": True}
        f = self._file("closed.json", {"entries": entries})
        ops.append(CliOp(("normalize", f), {"zeros": sum("zero" in e for e in entries)}))
        # render the stable configuration in every format
        render_expect = {"n": len(cuts), "points": len(pts)}
        for fmt in ("svg", "dot", "tikz"):
            ops.append(CliOp(("render", fmt, stable), render_expect))
        ops.append(CliOp(("verify", "--max-k", "1", "--max-m", "1")))
        f = self._file("known_fault.json", KNOWN_FAULT)
        ops.append(CliOp(("normalize", f), {"known_fault": True}))
        return ops

    def run(self, op):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "degenlab.cli", *op.argv],
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=120,
        )
        if not op.expect.get("known_fault"):  # keep the fault out of cli.normalize.ms
            self.sub_ms.setdefault(op.subcommand, []).append((perf_counter() - start) * 1e3)
        return proc

    def trace_extra(self, op):
        """Run the same command in-process, so its layers are traced."""
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            try:
                cli.main(list(op.argv))
            except ZeroDivisionError:
                pass  # the known fault; the subprocess run counted it

    def startup_ms(self, repeats: int = 5) -> dict:
        """Median bare interpreter start, and the extra for ``import degenlab.cli``."""
        def median_ms(argv):
            times = []
            for _ in range(repeats):
                start = perf_counter()
                subprocess.run(argv, env=self.env, cwd=ROOT, check=True, timeout=60)
                times.append((perf_counter() - start) * 1e3)
            return statistics.median(times)

        bare = median_ms([sys.executable, "-c", "pass"])
        imported = median_ms([sys.executable, "-c", "import degenlab.cli"])
        return {"interpreter_ms": bare, "import_ms": imported - bare}

    def check(self, op, out):
        e = op.expect
        if e.get("known_fault"):
            lines = out.stderr.strip().splitlines()
            return out.returncode == 2 and len(lines) == 1 and lines[0].startswith("error:")
        require("Traceback" not in out.stderr, f"{op.argv}: traceback\n{out.stderr}")
        sub = op.subcommand
        if sub == "render":
            return self._check_render(op.argv[1], out, e)
        if sub == "verify":
            return self._check_verify(out)
        expected_code = 1 if sub == "stability" and not e["stable"] else 0
        require(out.returncode == expected_code,
                f"{op.argv}: exit {out.returncode}, expected {expected_code}")
        doc = checks.check_json(out.stdout)
        if sub == "limit":
            cuts = list(checks.limit_cuts(e["points"], e["k"]))
            require(doc["normal_form"]["cuts"] == cuts, f"limit cuts {doc['normal_form']}")
            require(all(checks.occupied(s, e["points"], e["k"]) for s in cuts), "occupancy")
            require(all(p["placement"]["stratum"] == "vertex"
                        for p in doc["configuration"]["points"]), "limit placement")
            require(doc["oracle"] == {"cut_sets": [cuts], "agrees": True},
                    f"oracle {doc['oracle']}")
        elif sub == "fiber":
            counts = tuple(len(doc[key]) for key in ("vertices", "edges", "cells"))
            require(counts == checks.expected_counts(e["n"]), f"fiber counts {counts}")
        elif sub == "stability":
            st = doc["stability"]
            if e["stable"]:
                require(st["lw_stable"] and st["stabilizer_rank"] == 0
                        and st["unoccupied_levels"] == [], f"stable verdict {st}")
            else:
                require(not st["lw_stable"] and st["stabilizer_rank"] == 1
                        and st["unoccupied_levels"] == [e["empty"]], f"unstable verdict {st}")
        elif sub == "weights":
            rows = doc["rows"]
            require(doc["git_stable"] is True, "weights verdict")
            require(len(rows) == 3 ** e["n"] - 1, f"{len(rows)} weight rows for n = {e['n']}")
            require(all(r["total"] == r["bounded"] + doc["l"] * r["combinatorial"] > 0
                        for r in rows), "weight rows")
        elif "tuple" in e:
            exps = e["tuple"]
            nf = doc["normal_form"]
            require(nf == {"height": sum(exps), "cuts": list(checks.interior_cuts(exps))},
                    f"normal form {nf}")
            levels = (0, *nf["cuts"], nf["height"])
            require(doc["canonical_tuple"] == [b - a for a, b in zip(levels, levels[1:])],
                    "canonical tuple")
        else:
            require(doc == {"kind": "closed", "zero_count": e["zeros"]}, f"closed point {doc}")
        return True

    @staticmethod
    def _check_render(fmt, out, e):
        require(out.returncode == 0, f"render {fmt}: exit {out.returncode}")
        v, edges, _ = checks.expected_counts(e["n"])
        text, p = out.stdout, e["points"]
        if fmt == "svg":
            got = checks.count_svg(text)
            want = (v + p, edges)
        elif fmt == "dot":
            lines = text.splitlines()
            got = (sum(" -- " in x for x in lines),
                   sum(x.startswith("  v") and "[label=" in x for x in lines),
                   sum(x.startswith("  p") and "[label=" in x for x in lines))
            want = (edges, v, p)
        else:
            got = (text.count("\\draw[gray]"), text.count("\\filldraw"),
                   text.count("circle (4pt)"))
            want = (edges, v, p)
        require(got == want, f"render {fmt}: {got}, expected {want}")
        return True

    @staticmethod
    def _check_verify(out):
        require(out.returncode == 0, f"verify: exit {out.returncode}")
        lines = out.stdout.strip().splitlines()
        require(len(lines) == len(checks.SUITES), f"verify printed {len(lines)} lines")
        for line in lines:
            status, rest = line.split(" ", 1)
            name, detail = rest.split(": ", 1)
            suite = name.replace("-", "_")
            require(status == "[PASS]", line)
            caps = suite_caps(suite, 1, 1)
            if suite == "counts":
                caps = {"max_n": 8}
            expected = checks.suite_cases(suite, caps)
            require(checks.detail_numbers(detail) == expected, f"{line}: expected {expected}")
        return True


WORKLOADS = {w.name: w for w in (LimitPipeline, GitStability, VerifySweep, Cli)}
