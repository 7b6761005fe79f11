"""Steadiness check: two sets of untraced runs of the same code.

    python3 bench/steady.py

Run from the root of a checkout.  Set 1 runs every workload of
``BENCHMARK.json`` once for each seed 1..10, set 2 for each seed 11..20,
taking the seeds in the outer loop so that drift in the machine's speed
falls on every workload alike.  For each end-to-end metric on each workload
it prints each set's median and quartiles, the spread (quartile distance
over median), and whether

* every spread is within the metric's bound,
* set 2's median differs from set 1's, in either direction, by at most the
  bound, as a share of set 1's,
* the share of failed operations is the same in every run.

Bounds and run length (``run_seconds``) come from ``BENCHMARK.json``.  The
raw results are written to ``bench/out/steady-<time>.json``.  Exits 1 if
any check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(command, workload: str, seed: int, seconds) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for j in range(SETS):
        for i in range(RUNS):
            seed = RUNS * j + i + 1
            for w in workloads:
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                results[w][j].append({"seed": seed, **res})
                print(f"set {j + 1} seed {seed:>3} {w:<15} correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    ok = True
    print(f"\n{'workload':<15} {'metric':<13} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        runs = [r for s in results[w] for r in s]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            ok = False
            print(f"{w:<15} failed shares {sorted(map(str, shares))}, "
                  f"all correct: {all(r['correct'] for r in runs)}  FAIL")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [summarize([r["metrics"][name]["value"] for r in s]) for s in results[w]]
            for j, s in enumerate(sets):
                verdict = []
                if s["spread"] > bound:
                    verdict.append("spread over bound")
                if j and abs(s["median"] - sets[0]["median"]) / sets[0]["median"] > bound:
                    verdict.append("median differs from set 1's by more than the bound")
                ok = ok and not verdict
                print(f"{w:<15} {name:<13} {j + 1:>3} {s['median']:>12.6g} {s['q1']:>12.6g} "
                      f"{s['q3']:>12.6g} {s['spread']:>8.4f} {bound:>6}  "
                      f"{'; '.join(verdict) or 'ok'}")
    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"\n{'all checks pass' if ok else 'SOME CHECKS FAIL'}; raw results in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
