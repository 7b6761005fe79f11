"""Tests of the benchmark itself.

One tiny pass of every workload must run clean, and every checker must
reject a corrupted output.  Run from the root of the repository:

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from degenlab import base, dual_complex, limits  # noqa: E402


def first_op(name: str):
    wl = workloads.WORKLOADS[name](seed=3, tiny=True)
    wl.prepare()
    return wl, wl.pass_ops(0)[0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_tiny_pass_runs_clean(name):
    wl = workloads.WORKLOADS[name](seed=3, tiny=True)
    wl.prepare()
    try:
        result = run.measure(wl, seconds=0, min_ops=1)
    finally:
        wl.close()
    assert result["passes"] == 1
    assert result["attempted"] == len(wl.pass_ops(0))
    assert result["errors"] == []
    assert result["failed"] == (1 if name == "cli" else 0)  # the known fault


def test_traced_pass_reports_every_layer_metric_and_uninstalls():
    original = limits.associated_pair
    wl, _ = first_op("limit_pipeline")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert limits.associated_pair is not original
        result = run.measure(wl, seconds=0, min_ops=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert limits.associated_pair is original
    metrics = tracing.layer_metrics(
        tracer, result["attempted"], {"hit_ratio": 0.0, "entries": 0}, {})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in spec] == list(metrics)
    assert spec == tracing.metric_specs()
    assert metrics["render.calls"]["value"] == 1
    assert metrics["configurations.place.calls"]["value"] == 2
    assert tracer.spans and all(end >= start for *_, start, end in tracer.spans)


def test_speed_factor_comes_from_the_samples_near_an_operation():
    probe = run.SpeedProbe()
    probe.times_ns = [0, 10**9, 2 * 10**9, 3 * 10**9]
    probe.samples = [1.0, 1.0, 4.0, 4.0]
    assert probe.factor_near(0, 10**8) == run.REFERENCE_MS / 1.0
    assert probe.factor_near(29 * 10**8, 3 * 10**9) == run.REFERENCE_MS / 4.0
    assert probe.factor_near(10**10, 10**10) == probe.factor == run.REFERENCE_MS / 2.5


def test_limit_check_rejects_a_dropped_cut():
    wl, op = first_op("limit_pipeline")
    report, *rest = wl.run(op)
    wl.check(op, (report, *rest))
    fewer = base.NormalForm(op.k, report.fibre.cuts[1:])
    corrupted = dataclasses.replace(report, fibre=dual_complex.build_fibre(fewer))
    with pytest.raises(CheckFailed):
        wl.check(op, (corrupted, *rest))


def test_git_check_rejects_a_flipped_verdict():
    wl = workloads.GitStability(seed=3, tiny=True)
    wl.prepare()
    for op in wl.pass_ops(0):
        verdict = wl.run(op)
        assert wl.check(op, verdict)
        with pytest.raises(CheckFailed):
            wl.check(op, not verdict)


def test_verify_check_rejects_a_wrong_case_count():
    wl, op = first_op("verify_sweep")
    result = wl.run(op)
    assert wl.check(op, result)
    count = checks.detail_numbers(result.detail)[0]
    wrong = dataclasses.replace(result, detail=result.detail.replace(str(count), str(count + 1), 1))
    with pytest.raises(CheckFailed):
        wl.check(op, wrong)


def test_cli_check_rejects_a_traceback():
    wl = workloads.Cli(seed=3)
    wl.prepare()
    try:
        ops = wl.pass_ops(0)
        fiber = next(op for op in ops if op.subcommand == "fiber")
        out = wl.run(fiber)
        assert wl.check(fiber, out)
        broken = subprocess.CompletedProcess(
            out.args, 1, "", "Traceback (most recent call last):\n  ...\nKeyError: 'x'\n")
        with pytest.raises(CheckFailed):
            wl.check(fiber, broken)
        fault = next(op for op in ops if op.expect.get("known_fault"))
        assert not wl.check(fault, broken)
        fixed = subprocess.CompletedProcess(out.args, 2, "", "error: division by zero\n")
        assert wl.check(fault, fixed)
    finally:
        wl.close()


def test_benchmark_json_names_what_run_py_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)


def test_suite_counts_match_known_totals():
    assert checks.suite_cases("stability_equivalence", {"max_k": 4, "max_m": 2}) == (10586,)
    assert checks.suite_cases("bijection", {"max_k": 4, "max_m": 2}) == (10586, 15)
    assert checks.suite_cases("positivity", {"max_k": 4, "max_m": 2}) == (21774,)
    assert checks.suite_cases("limit_oracle", {"max_k": 5, "max_m": 2}) == (488,)
    assert checks.suite_cases("tau_fixpoints", {"max_size": 5}) == (288,)
    assert checks.suite_cases("counts", {"max_n": 8}) == (25,)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
