"""Acceptance criteria, one test per criterion, run at the stated sizes.

Each test prints a single pass line with its measured runtime; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  All comparisons are
exact integer equalities.
"""

import random
import subprocess
import sys
import time
from collections import Counter

from degenlab import (
    NormalForm,
    VertexKind,
    bounded_weight,
    build_fibre,
    complex_counts,
)
from degenlab.verify import (
    check_bijection,
    check_counts,
    check_limit_oracle,
    check_positivity,
    check_stability_equivalence,
    check_tau_fixpoints,
    expected_counts,
)

from oracles import arrangement_counts
from regen_goldens import CASES, DATA, GOLDENS, cli_env
from strategies import random_bound_case


def report(number: int, name: str, detail: str, elapsed: float) -> None:
    print(f"PASS criterion {number} ({name}): {detail} [{elapsed:.2f}s]")


def test_criterion_1_figure_reproduction():
    build_fibre(NormalForm(2, (1,)))  # warm caches before timing

    start = time.perf_counter()
    two = build_fibre(NormalForm(2, (1,)))
    elapsed_two = time.perf_counter() - start
    assert Counter(v.kind for v in two.dual_complex.vertices) == {
        VertexKind.CORNER_Y1: 1,
        VertexKind.CORNER_Y2: 1,
        VertexKind.CORNER_Y3: 1,
        VertexKind.PURE_DELTA1: 1,
        VertexKind.PURE_DELTA2: 1,
        VertexKind.MIXED: 1,
    }

    start = time.perf_counter()
    three = build_fibre(NormalForm(3, (1, 2)))
    elapsed_three = time.perf_counter() - start
    counts = Counter(v.kind for v in three.dual_complex.vertices)
    assert counts == {
        VertexKind.CORNER_Y1: 1,
        VertexKind.CORNER_Y2: 1,
        VertexKind.CORNER_Y3: 1,
        VertexKind.PURE_DELTA1: 2,
        VertexKind.PURE_DELTA2: 2,
        VertexKind.MIXED: 2,
        VertexKind.INTERIOR: 1,
    }
    interiors = [
        v for v in three.dual_complex.vertices if v.kind is VertexKind.INTERIOR
    ]
    assert len(interiors) == 1 and interiors[0].surface_kind == "quadric"

    assert elapsed_two < 0.001 and elapsed_three < 0.001
    report(
        1,
        "figure reproduction",
        "two- and three-vanishing inventories exact",
        elapsed_two + elapsed_three,
    )


def test_criterion_2_euler_count_suite():
    start = time.perf_counter()
    result = check_counts(max_n=8)
    assert result.ok, result.detail
    # independent planar-arrangement enumeration for every n
    for n in range(9):
        cuts = tuple(range(1, n + 1))
        k = n + 1
        fibre = build_fibre(NormalForm(k, cuts))
        assert complex_counts(fibre) == arrangement_counts(k, cuts) == expected_counts(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "Euler/count suite", "formulas match arrangement oracle, n <= 8", elapsed)


def test_criterion_3_flat_limit_oracle():
    start = time.perf_counter()
    result = check_limit_oracle(max_k=6, max_m=3)
    elapsed = time.perf_counter() - start
    assert result.ok, result.detail
    assert elapsed < 60.0
    report(3, "flat-limit oracle", result.detail, elapsed)


def test_criterion_4_stability_criterion_equivalence():
    start = time.perf_counter()
    result = check_stability_equivalence(max_k=5, max_m=3)
    elapsed = time.perf_counter() - start
    assert result.ok, result.detail
    assert result.detail == "227602 configurations, k <= 5, m <= 3"
    assert elapsed < 120.0
    report(4, "stability criterion equivalence", result.detail, elapsed)


def test_criterion_5_positivity():
    start = time.perf_counter()
    result = check_positivity(max_k=5, max_m=3)
    elapsed = time.perf_counter() - start
    assert result.ok, result.detail
    assert result.detail == "720300 (configuration, s) pairs"
    report(5, "positivity", result.detail, elapsed)


def test_criterion_6_bounded_weight_bound():
    rng = random.Random(20260809)
    start = time.perf_counter()
    for _ in range(10_000):
        cfg, s = random_bound_case(rng, max_m=4)
        assert all(abs(b) <= 2 * cfg.m * cfg.m for b in bounded_weight(cfg, s)[1])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, "bounded-weight bound", "10000 randomized local schemes", elapsed)


def test_criterion_7_lw_sws_bijection():
    start = time.perf_counter()
    result = check_bijection(max_k=5, max_m=3)
    elapsed = time.perf_counter() - start
    assert result.ok, result.detail
    assert result.detail == "227602 configurations over 30 classes"
    report(7, "LW/SWS bijection", result.detail, elapsed)


def test_criterion_8_tau_fixpoint_freeness():
    start = time.perf_counter()
    result = check_tau_fixpoints(max_size=6)
    elapsed = time.perf_counter() - start
    assert result.ok, result.detail
    report(8, "tau fixpoint freeness", result.detail, elapsed)


def test_criterion_9_cli_golden_files():
    start = time.perf_counter()
    for scenario, command, suffix in CASES:
        result = subprocess.run(
            [sys.executable, "-m", "degenlab.cli", *command,
             str(DATA / f"{scenario}.json")],
            capture_output=True, env=cli_env(),
        )
        assert result.returncode in (0, 1), (scenario, command, result.stderr)
        golden = (GOLDENS / f"{scenario}.{suffix}").read_bytes()
        assert result.stdout == golden, f"{scenario} {command} drifted from golden"
    elapsed = time.perf_counter() - start
    report(
        9,
        "CLI golden files",
        f"{len(CASES)} outputs byte-identical over 5 scenarios",
        elapsed,
    )
