"""Source mutants that the checks must kill: mutation analysis of the suites.

Each row of ``MUTANTS`` is one edit of a file under ``src/degenlab``: an
exact old text, which occurs there once, its new text, the check that must
kill the edited program, and a status.  A check is one or more of

* ``"verify"``: ``degenlab verify --max-k 4 --max-m 2`` exits 1;
* ``"verify <suite>"``: it exits 1 and that suite's line reads ``[FAIL]``;
* ``"<test module>::<test>"``, or ``"<test module>::<class>::<test>"``
  for a method of a test class: the test raises.  Its arguments are
  ``monkeypatch``, given a fresh ``pytest.MonkeyPatch`` on each call, a
  generator fixture of its own module that takes no arguments, run to its
  ``yield`` and resumed after the call, and those of one
  ``pytest.mark.parametrize`` of argument tuples; it kills if it raises on
  any of them.  A Hypothesis test kills only if it raises on
  each of the three ``SEEDS``, with the example database and shrinking off.

and it kills the mutant when any of them does.  The status is ``"killed"``,
or ``"survives until item N"``, the ROADMAP item that is to give the
suites a check that kills it: that item adds the check to the row and
flips the status.  ``run`` copies ``src`` to a temporary directory, applies
the row there and runs its check in a fresh interpreter that imports the
copy.  ``tests/test_mutants.py`` holds each row's old text to occurring
once and runs every ``killed`` row.  Run from the repository root:

    python tests/mutants.py

to run every row and print its outcome; it exits 1 when a row's outcome
is not its status.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
SEEDS = (0, 1, 2)
WORKERS = 2  # interpreters at once; the Tier-1 budget holds on a two-core host
VERIFY = ["verify", "--max-k", "4", "--max-m", "2"]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/degenlab
    old: str
    new: str
    check: tuple[str, ...]
    status: str


_OCCUPIED = ("configurations.py", "bits |= 1 << loc.x | 1 << loc.y", "bits |= 1 << loc.x")
_LIFT = "lifts.append(new(LevelLift, (m * (m - lt), m * (lt + 1), 0, 1)))"
_BOUNDED = ("weights.py", "(b_neg + l * c_neg, b_pos + l * c_pos)", "(l * c_neg, l * c_pos)")
_SIGN = ("weights.py", "return [(-d, d) for d in degrees]")
_C_SIDE = ("dual_complex.py", "if x % 2 and y % 2 and c:", "if x % 2 and y % 2:")
_IMPORTS = ("test_exports::test_each_import_loads_only_the_layers_it_runs",)
_TABLE = ("test_verify::test_the_table_of_presentations_holds_the_heights_of_the_largest_cap",)
_GROUPED = ("test_verify::test_a_grouped_suite_fails_where_the_ungrouped_loop_does",)
_LIFT_CHECK = "if neg >= 0 or pos <= 0:"
_DIGITS = ("test_base::test_unit_labels_are_refused_past_the_digit_limit_with_one_line",)
_MULTISET = (
    "multisets.append(tuple([shared[i][combo.count(i) - 1] for i in dict.fromkeys(combo)]))"
)

MUTANTS = [
    # the chain rule of admissible subgroups
    Mutant("chain-rule-strict", "weights.py", "chain[i - 1] >= chain[i]", "chain[i - 1] > chain[i]",
           ("test_weights::test_sign_vectors_are_the_chain_rule_in_product_order",), "killed"),
    # the side counts that the lift and its table read
    Mutant("count-sides-x-le", "weights.py", "if x < c:", "if x <= c:", ("verify",), "killed"),
    Mutant("count-sides-y-ge", "weights.py", "if y > c:", "if y >= c:", ("verify",), "killed"),
    # occupancy: the one OR over the placements, read by all three
    # configuration suites; only the limit oracle's own line rules and
    # criterion 7's second reading see the second family dropped
    Mutant("occupancy-x-only", *_OCCUPIED, ("verify limit-oracle",), "killed"),
    Mutant("occupancy-x-only-bijection", *_OCCUPIED, ("verify bijection",), "killed"),
    Mutant("occupancy-x-only-stability-equivalence", *_OCCUPIED,
           ("verify stability-equivalence",), "survives until item 5"),
    # the limit oracle's line rule
    Mutant("line-rule-one-line", "limits.py", "(k - b in levels) < 2:", "(k - b in levels) < 1:",
           ("verify limit-oracle",), "killed"),
    # the constructive lift, and the signs of its table that stability-equivalence checks
    Mutant("lift-first-branch-swapped", "weights.py", _LIFT,
           _LIFT.replace("(m * (m - lt), m * (lt + 1),", "(m * (lt + 1), m * (m - lt),"),
           ("verify stability-equivalence",), "killed"),
    Mutant("existence-never-lifts", "weights.py",
           "    if not is_ws_stable(cfg):\n        return None\n", "    return None\n",
           ("verify stability-equivalence",), "killed"),
    Mutant("existence-skips-occupancy", "weights.py",
           "    if not is_ws_stable(cfg):\n        return None\n", "",
           ("verify stability-equivalence",), "killed"),
    Mutant("lift-check-zero-pos", "verify.py", _LIFT_CHECK, "if neg >= 0 or pos < 0:",
           _GROUPED, "killed"),
    Mutant("lift-check-zero-neg", "verify.py", _LIFT_CHECK, "if neg > 0 or pos <= 0:",
           _GROUPED, "killed"),
    Mutant("lift-table-negated", "weights.py", "        return table\n",
           "        return [(-neg, -pos) for neg, pos in table]\n",
           ("verify positivity",), "killed"),
    Mutant("lw-never-stable", "configurations.py",
           "return is_admissible(cfg) and stabilizer_rank(cfg) == 0", "return False",
           ("verify bijection",), "killed"),
    # the local-scheme term: its sign, set at one site, is seen by the
    # definition's property test; only a pinned case sees it dropped from
    # the stability tests, and nothing sees the dominating scale but the
    # tests that pin its value
    Mutant("bounded-sign-flipped", *_SIGN, "return [(d, -d) for d in degrees]",
           ("test_weights::test_weight_functions_match_the_definition",), "killed"),
    Mutant("bounded-zeroed", *_SIGN, "return [(0, 0) for d in degrees]",
           ("test_weights::test_weight_functions_match_the_definition",), "killed"),
    Mutant("bounded-part-dropped-pinned", *_BOUNDED,
           ("test_weights::test_a_local_scheme_decides_stability_in_item_three_s_shrunk_case",),
           "killed"),
    Mutant("bounded-part-dropped", *_BOUNDED,
           ("test_weights::test_weight_functions_match_the_definition",
            "test_weights::test_sign_vector_test_is_exact_on_the_integer_box"),
           "survives until item 3"),
    Mutant("default-scale-one", "weights.py", "return 2 * m * m + 1", "return 1",
           ("verify",), "survives until item 3"),
    # placement and the sweep's inputs
    Mutant("locate-c-side", *_C_SIDE,
           ("test_dual_complex::test_locate_agrees_with_the_geometry_of_the_complex",), "killed"),
    Mutant("locate-c-side-verify", *_C_SIDE, ("verify bijection",), "killed"),
    Mutant("place-builds-complex", "configurations.py",
           "    points = _as_points(raw_points)\n",
           "    fibre.dual_complex\n    points = _as_points(raw_points)\n",
           ("test_configurations::test_placement_and_verdicts_leave_the_complex_unbuilt",),
           "killed"),
    Mutant("cuts-include-zero", "base.py", "if 0 < v < k}", "if 0 <= v < k}",
           ("test_base::test_level_facts_are_their_definitions",), "killed"),
    Mutant("level-bits-shifted", "base.py", "bits |= 1 << c", "bits |= 2 << c",
           ("test_base::test_level_facts_are_their_definitions",), "killed"),
    Mutant("compositions-reversed", "verify.py",
           "for bars in combinations(range(slots), length - 1):",
           "for bars in reversed(list(combinations(range(slots), length - 1))):",
           ("test_verify::test_presentations_are_the_compositions_in_lexicographic_order",),
           "killed"),
    Mutant("one-level-itemgetter", "verify.py",
           "itemgetter(slice(at[0], at[0] + 1) if at else slice(0))",
           "itemgetter(at[0] if at else slice(0))",
           ("test_verify::test_the_selected_key_is_the_profile_at_every_level_count",), "killed"),
    Mutant("multiset-positions-reversed", "verify.py", _MULTISET,
           _MULTISET.replace("in dict.fromkeys(combo)", "in reversed(dict.fromkeys(combo))"),
           ("test_verify::test_weighted_configurations_are_the_sorted_multisets_with_counts",),
           "killed"),
    Mutant("points-unshared", "verify.py", _MULTISET,
           _MULTISET.replace("shared[i][combo.count(i) - 1]",
                             "SupportPoint(positions[i], combo.count(i))"),
           ("test_verify::test_each_position_and_multiplicity_is_one_shared_point",), "killed"),
    Mutant("cached-property-import", "base.py", "from math import lcm\n",
           "from math import lcm\nfrom functools import cached_property\n",
           ("test_exports::test_no_layer_caches_through_functools_cached_property",), "killed"),
    # imports: the package and the command line load a layer only when it runs
    Mutant("cli-imports-verify", "cli.py", "from .render import FORMATS, render_fibre\n",
           "from .render import FORMATS, render_fibre\nfrom .verify import run_all\n",
           _IMPORTS, "killed"),
    Mutant("package-imports-a-layer", "__init__.py", "from importlib import import_module\n",
           "from importlib import import_module\n\nfrom . import base\n", _IMPORTS, "killed"),
    # the command line's bounds: a scenario's cuts, closed points with one
    # vanishing entry, and verify at its largest caps
    Mutant("scenario-cut-at-height", "scenario.py", "any(s >= height for s in cuts)",
           "any(s > height for s in cuts)",
           ("test_cli::TestExitCodes::test_cuts_outside_the_height_are_refused_with_one_line",),
           "killed"),
    Mutant("normalize-one-zero-as-units", "cli.py", "if point.zero_count >= 1:",
           "if point.zero_count > 1:", ("test_cli::TestCommands::test_normalize_closed_point",),
           "killed"),
    Mutant("equivalent-one-zero-as-units", "base.py", "if zp >= 1 or zq >= 1:",
           "if zp > 1 or zq > 1:",
           ("test_base::TestEquivalence::test_closed_zero_count_is_the_invariant",), "killed"),
    Mutant("verify-refuses-its-largest-caps", "cli.py", "if cap > largest:", "if cap >= largest:",
           ("test_cli::TestExitCodes::test_verify_runs_at_its_largest_caps",), "killed"),
    # positivity: a zero term fails as a negative one does
    Mutant("positivity-zero-term", "verify.py", "if term <= 0:", "if term < 0:",
           _GROUPED, "killed"),
    # the table of presentations: every cap is served its own heights, all of them
    Mutant("table-stops-a-height-short", "verify.py",
           "for k in range(len(_PRESENTED) + 1, max_k + 1):",
           "for k in range(len(_PRESENTED) + 1, max_k):", _TABLE, "killed"),
    Mutant("table-serves-every-height", "verify.py", "return _PRESENTED[:max_k]",
           "return _PRESENTED", _TABLE, "killed"),
    # the digit limits of a unit label and of a unit product, at each boundary
    Mutant("unit-product-limit-exclusive", "base.py", "numeric.denominator) >= 10**limit:",
           "numeric.denominator) > 10**limit:", _DIGITS, "killed"),
    Mutant("label-exponent-length-inclusive", "base.py", "len(exponent) > len(str(limit))",
           "len(exponent) >= len(str(limit))", _DIGITS, "killed"),
    Mutant("label-digits-inclusive", "base.py", "digits + int(exponent or 0) > limit",
           "digits + int(exponent or 0) >= limit", _DIGITS, "killed"),
    Mutant("shown-label-cut-at-19", "base.py", "len(label) <= 20", "len(label) < 20", _DIGITS,
           "killed"),
    # a closed point's units as the scenario writer writes them
    Mutant("scenario-unit-unwritten", "scenario.py", '{"unit": e}', '{"unit": str(e)}',
           ("test_cli::TestRoundTrips::test_closed_point_through_the_scenario_writer",), "killed"),
    # a boolean entry of a closed point, which equals 1 or 0
    Mutant("closed-point-takes-booleans", "base.py",
           "        if isinstance(e, bool):  # an int to Python, but neither a zero marker nor a label\n"
           "            raise InvalidInput(f\"entry {e!r} is neither zero nor a unit label\")\n", "",
           ("test_base::test_a_boolean_entry_is_neither_a_unit_nor_a_zero",), "killed"),
    # a checked value type: ``_replace`` and ``_make`` build through its checks
    Mutant("replace-skips-validation", "base.py",
           "def _make(cls, fields) -> NormalForm:  # checked, and so is ``_replace``\n"
           "        return cls(*fields)\n",
           "def _make(cls, fields) -> NormalForm:  # checked, and so is ``_replace``\n"
           "        return tuple.__new__(cls, fields)\n",
           ("test_base::test_a_checked_value_type_checks_every_way_it_is_built",), "killed"),
]


class Outcome(NamedTuple):
    killed: bool
    report: str  # the child's line per check entry


def run(mutant: Mutant) -> Outcome:
    """Apply the row to a copy of ``src`` and run its check on the copy."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "degenlab" / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-B", "-c", _CHILD, str(src), str(TESTS), *mutant.check],
            capture_output=True, text=True, cwd=tmp, timeout=600,
        )
    *lines, verdict = done.stdout.splitlines() or [""]
    if done.returncode != 0 or verdict not in ("killed", "survived"):
        raise RuntimeError(f"{mutant.name}: the check did not run:\n{done.stdout}{done.stderr}")
    return Outcome(verdict == "killed", "; ".join(lines))


_CHILD = "import sys; sys.path[:0] = sys.argv[1:3]; import mutants; mutants.check(sys.argv[1:])"


def outcomes(mutants: list[Mutant]) -> list[Outcome]:
    """``run`` of each row, ``WORKERS`` at a time."""
    with ThreadPoolExecutor(WORKERS) as pool:
        return list(pool.map(run, mutants))


def check(argv: list[str]) -> None:
    """In the fresh interpreter: argv is the copied ``src``, the tests
    directory and the check's entries.  Prints one line per entry, then
    ``killed`` or ``survived``."""
    src, _, *entries = argv
    import degenlab

    if not Path(degenlab.__file__).is_relative_to(src):
        raise SystemExit(f"degenlab imported from {degenlab.__file__}, not from {src}")
    if any("::" in entry for entry in entries):
        from hypothesis import Phase, settings

        settings.register_profile(
            "mutants", database=None, deadline=None, phases=[Phase.explicit, Phase.generate]
        )
        settings.load_profile("mutants")  # before the test modules take it as their default
    killed = False
    for entry in entries:
        why = _verify(entry) if entry.split()[0] == "verify" else _test(entry)
        print(f"{entry}: {why or 'survived'}")
        killed = killed or why is not None
    print("killed" if killed else "survived")


def _verify(entry: str) -> str | None:
    """Why ``verify`` kills the mutant, or None.  An exception that escapes
    it is not caught: the row does not test what it names."""
    from degenlab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(VERIFY)
    failed = [line.split(":")[0].removeprefix("[FAIL] ")
              for line in out.getvalue().splitlines() if line.startswith("[FAIL] ")]
    if code == 1 and set(entry.split()[1:]) <= set(failed):
        return f"exit 1, FAIL {', '.join(failed)}"
    return None


def _test(entry: str) -> str | None:
    """Why the named test kills the mutant, or None."""
    import pytest

    failed = (Exception, pytest.fail.Exception)  # ``pytest.raises`` fails by a BaseException
    path, *classes, name = entry.split("::")
    scope = module = importlib.import_module(path)
    for cls in classes:  # a test class, instantiated as pytest does
        scope = getattr(scope, cls)()
    test = getattr(scope, name)
    cases = _cases(test)
    fixtures = set(inspect.signature(test).parameters) - set(cases[0])
    if not all(f == "monkeypatch" or hasattr(module, f) for f in fixtures):  # it would raise
        raise SystemExit(f"{entry} takes arguments that no parametrize mark or fixture gives")
    seeds = SEEDS if getattr(test, "is_hypothesis_test", False) else (None,)
    raised = []
    for value in seeds:
        if value is not None:
            from hypothesis import seed

            seed(value)(test)
        for case in cases:
            try:
                with contextlib.ExitStack() as stack:
                    given = {f: stack.enter_context(_fixture(module, f)) for f in fixtures}
                    test(**case, **given)
            except failed as exc:
                raised.append(type(exc).__name__)
                break
        else:
            return None
    return f"raised {', '.join(raised)}" + (f" on seeds {SEEDS}" if value is not None else "")


def _fixture(module, name: str):
    """The named fixture as a context manager: a fresh ``pytest.MonkeyPatch``,
    or the module's generator fixture of that name, run as pytest runs it."""
    import pytest

    if name == "monkeypatch":
        return pytest.MonkeyPatch.context()
    return contextlib.contextmanager(getattr(module, name).__wrapped__)()


def _cases(test) -> list[dict]:
    """The keyword arguments of each call: one empty set, or one set per
    argument tuple of the test's one ``pytest.mark.parametrize``."""
    marks = [mark for mark in getattr(test, "pytestmark", ()) if mark.name == "parametrize"]
    if not marks:
        return [{}]
    [mark] = marks
    names, rows = mark.args
    names = [name.strip() for name in names.split(",")]
    return [dict(zip(names, row if len(names) > 1 else (row,))) for row in rows]


def main() -> int:
    wrong = 0
    for mutant, outcome in zip(MUTANTS, outcomes(MUTANTS)):
        expected = mutant.status == "killed"
        wrong += outcome.killed != expected
        flag = "" if outcome.killed == expected else "  <- not its status"
        print(f"{mutant.name} [{mutant.status}]: {outcome.report}{flag}")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
