"""Benchmark for degenlab: one closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
A run sets up seven times (a fresh import of the library, seeded inputs,
warm-up) and reports the median as ``setup_s``, then runs whole passes of
operations until ``--seconds`` have passed and at least 100 operations have
run.  Every output is checked outside the timed span.

On shared hardware the speed of the machine drifts (a shared 2-core host
ran a fixed loop at speeds a factor of two apart within one minute, and
by a third from one second to the next), so every time is reported at a
reference speed: between operations the run times a fixed computation
that does not use the program (``reference``), and each operation's time
is multiplied by ``REFERENCE_MS`` over the median of the samples taken
within ``NEAR_S`` of it; ``setup_s`` uses in the same way the samples
taken before each import and each set-up, and the per-layer times the
median of all samples of the run.  The raw times and the run's factor are
printed too.

With ``--trace 0`` it reports the end-to-end metrics, measured with no
wrappers installed; with ``--trace 1`` it installs the span wrappers of
``tracing.py`` and reports the per-layer metrics, writing the kept spans
under ``bench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from checks import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIN_OPS = 100
SETUP_REPEATS = 7
REFERENCE_MS = 2.0  # fixed: the scale of every reported time
SAMPLE_EVERY_MS = 25.0
NEAR_S = 0.5
WORKLOAD_NAMES = ("limit_pipeline", "git_stability", "verify_sweep", "cli")

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_ms_median", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program(probe) -> tuple:
    """Import the checkout's ``src``, fresh each time; refuse to run without it.

    Returns the workloads module and the time of each import.  ``probe``
    samples the machine's speed before each import.
    """
    src = ROOT / "src"
    if not (src / "degenlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no degenlab sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        for name in [m for m in sys.modules if m == "degenlab" or m.startswith("degenlab.")]:
            del sys.modules[name]
        t0 = perf_counter()
        importlib.import_module("degenlab.cli")  # imports every layer
        times.append(perf_counter() - t0)
    import workloads
    return workloads, times


def reference() -> int:
    """A fixed interpreter-bound computation that does not use the program."""
    table = {}
    total = 0
    for i in range(1000):
        key = (i % 37, (i * 7) % 11, i % 5)
        table[key] = table.get(key, 0) + 1
        total += sum(key) + len(str(i))
    rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return total + len(rows) + sum(v for _, v in rows)


class SpeedProbe:
    """Machine speed, sampled with ``reference`` about every 25 ms of work."""

    def __init__(self):
        self.times_ns: list[int] = []  # when each sample started
        self.samples: list[float] = []  # how long it took, in ms
        self._pending_ms = 0.0

    def sample(self) -> None:
        self._pending_ms = 0.0
        t0 = perf_counter_ns()
        reference()
        self.times_ns.append(t0)
        self.samples.append((perf_counter_ns() - t0) / 1e6)

    def after(self, work_ms: float) -> None:
        self._pending_ms += work_ms
        if self._pending_ms >= SAMPLE_EVERY_MS:
            self.sample()

    @property
    def factor(self) -> float:
        """Multiply a time measured in this run by this to report it."""
        return REFERENCE_MS / statistics.median(self.samples)

    def factor_near(self, start_ns: int, end_ns: int) -> float:
        """The factor for work done from ``start_ns`` to ``end_ns``, from the
        samples taken within ``NEAR_S`` of it (the run's factor if none)."""
        near = int(NEAR_S * 1e9)
        lo = bisect.bisect_left(self.times_ns, start_ns - near)
        hi = bisect.bisect_right(self.times_ns, end_ns + near)
        window = self.samples[lo:hi]
        return REFERENCE_MS / statistics.median(window) if window else self.factor


def measure(wl, seconds: float, min_ops: int, tracer=None, probe=None) -> dict:
    """Run whole passes until both the time and the operation floor are met."""
    probe = probe or SpeedProbe()
    spans, attempted, failed, errors = [], 0, 0, []  # spans: (start, end) in ns
    start = perf_counter()
    i = 0
    while attempted < min_ops or perf_counter() - start < seconds:
        for op in wl.pass_ops(i):
            attempted += 1
            if tracer is not None:
                tracer.op_id = attempted
            t0 = perf_counter_ns()
            try:
                out = wl.run(op)
            except Exception as exc:  # an operation the program could not finish
                out = exc
            t1 = perf_counter_ns()
            probe.after((t1 - t0) / 1e6)
            if isinstance(out, Exception):
                failed += 1
                errors.append(f"{op}: {type(out).__name__}: {out}")
                continue
            if tracer is not None:
                wl.trace_extra(op)
            try:
                done = wl.check(op, out)
            except CheckFailed as exc:
                errors.append(str(exc))
                done = True
            if done:
                spans.append((t0, t1))
            else:
                failed += 1
        i += 1
    return {"spans": spans, "attempted": attempted, "failed": failed,
            "errors": errors, "passes": i}


def end_to_end(result: dict, setup: tuple, workload: str, probe=None) -> dict:
    """The end-to-end metrics, at the reference speed of ``probe`` (raw if None).

    ``setup`` is the set-up time in seconds and the span of the set-ups in ns.
    """
    ms = [(end - start) / 1e6 for start, end in result["spans"]]
    setup_s = setup[0]
    if probe is not None:
        ms = [d * probe.factor_near(*span) for d, span in zip(ms, result["spans"])]
        setup_s *= probe.factor_near(*setup[1:])
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    values = {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_ms_median": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def cache_stats(before, after) -> dict:
    hits = sum(a.hits - b.hits for a, b in zip(after, before))
    lookups = hits + sum(a.misses - b.misses for a, b in zip(after, before))
    return {"hit_ratio": hits / lookups if lookups else 0.0,
            "entries": sum(a.currsize for a in after)}


def main(argv=None) -> int:
    args = parse_args(argv)
    probe = SpeedProbe()
    setup_start = perf_counter_ns()
    workloads, reps = import_program(probe)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    for i in range(SETUP_REPEATS):
        probe.sample()
        t0 = perf_counter()
        wl.prepare()
        reps[i] += perf_counter() - t0
    setup = (statistics.median(reps), setup_start, perf_counter_ns())

    tracer = None
    if args.trace:
        from tracing import Tracer
        cli_startup = wl.startup_ms() if args.workload == "cli" else {}
        cache_fns = [workloads.dual_complex.cached_fibre, workloads.dual_complex.location_table]
        before = [fn.cache_info() for fn in cache_fns]
        tracer = Tracer()
        tracer.install()
    try:
        result = measure(wl, args.seconds, MIN_OPS, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    correct = not result["errors"]
    for line in result["errors"][:5]:
        sys.stderr.write(f"check failed: {line}\n")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    timed = end_to_end(result, setup, args.workload, probe)
    raw_timed = end_to_end(result, setup, args.workload)
    if tracer is None:
        metrics, raw = timed, raw_timed
    else:
        from tracing import layer_metrics
        cache = cache_stats(before, [fn.cache_info() for fn in cache_fns])
        cli = dict(cli_startup)
        for sub, times in getattr(wl, "sub_ms", {}).items():
            cli[f"{sub}_ms"] = statistics.median(times)
        metrics = layer_metrics(tracer, result["attempted"], cache, cli, probe.factor)
        raw = layer_metrics(tracer, result["attempted"], cache, cli, 1.0)
        tracer.write(OUT / f"trace-{stem}.jsonl", {
            "workload": args.workload, "seed": args.seed, "operations": result["attempted"],
            "speed_factor": probe.factor,
        })

    completed = result["attempted"] - result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  completed {completed}")
    print(f"  speed factor {probe.factor:.4f} from {len(probe.samples)} reference samples; "
          f"ops_per_s {timed['ops_per_s']['value']:.6g} "
          f"(raw {raw_timed['ops_per_s']['value']:.6g})")
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']:<12} raw {raw[name]['value']:.6g}")
    line = json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })
    (OUT / f"result-{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
