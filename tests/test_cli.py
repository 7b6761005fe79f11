"""Command-line behaviour: exit codes, golden outputs, round trips."""

import io
import json
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from degenlab import (
    ParseError,
    TropicalIncompatibility,
    ValidationError,
    associated_pair,
    configurations,
    equivalent,
    parse_scenario,
    place,
)
from degenlab.cli import _ARGUMENTS, build_parser, main
from degenlab.render import FORMATS, render_fibre
from degenlab.scenario import (
    dumps,
    parse_scenario as parse,
    scenario_to_json,
    stability_report_to_json,
)

from guards import calls_by_name
from regen_goldens import CASES, DATA, GOLDENS, cli_env

README = Path(__file__).resolve().parent.parent / "README.md"
_UNSTABILIZABLE_JSON = (
    '{\n  "stabilizable": false,\n'
    '  "reason": "no point of the support occupies the level at cut value 1"\n}\n'
)


def _readme_option_table() -> dict[str, set[str]]:
    """The README's command/options table, as command name to option set."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command | options |") + 2  # past the header rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, options = line.strip("|").split("|")
        table[command.strip(" `").split()[0]] = set(re.findall(r"`(--[\w-]+)`", options))
    return table


def _readme_commands() -> list[list[str]]:
    """The arguments of every ``degenlab`` command in the README's bash blocks."""
    commands, in_bash = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_bash = line == "```bash"
        elif in_bash and (found := re.search(r"(?:^|\|)\s*degenlab\s+(.*)", line)):
            commands.append(shlex.split(found.group(1), comments=True))
    return commands


def run_cli(*args, stdin: str | None = None):
    """The command in a subprocess that imports degenlab from this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "degenlab.cli", *args],
        capture_output=True,
        input=stdin.encode() if stdin else None,
        env=cli_env(),
    )


def main_on_stdin(monkeypatch, args: list[str], stdin: str) -> tuple[int, str, str]:
    """``main(args)`` in process with ``stdin`` as standard input: its exit
    code, stdout and stderr.  It reads no ``capsys``, so that a row of
    ``tests/mutants.py`` can run the test that calls it."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestParseScenario:
    def test_worked_example(self):
        sc = parse_scenario(
            '{"height":3,"points":[{"val":[1,2,0],"mult":1},{"val":[2,0,1],"mult":1}]}'
        )
        assert sc.height == 3 and len(sc.points) == 2

    def test_height_mismatch(self):
        with pytest.raises(ValidationError):
            parse_scenario('{"height":3,"points":[{"val":[1,1,0],"mult":1}]}')

    def test_tuple_presentation(self):
        sc = parse_scenario('{"tuple":[1,1,1,0]}')
        assert sc.height == 3
        assert sc.presentation().exponents == (1, 1, 1, 0)

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[" * 100000 + "]" * 100000, '{"a":' * 3000 + "1" + "}" * 3000],
        ids=["unclosed", "deep-array", "deep-object"],
    )
    def test_malformed_json(self, text):
        with pytest.raises(ParseError):
            parse_scenario(text)

    def test_tuple_cut_consistency(self):
        with pytest.raises(ValidationError):
            parse_scenario('{"tuple":[1,1],"cuts":[2],"height":2}')

    def test_scenario_round_trip(self):
        text = (DATA / "s5_quadric_config.json").read_text()
        sc = parse(text)
        again = parse(dumps(scenario_to_json(sc)))
        assert sc == again


class TestExitCodes:
    def test_limit_success(self):
        result = run_cli("limit", str(DATA / "s1_worked_pair.json"))
        assert result.returncode == 0

    def test_stability_unstable_is_one(self):
        result = run_cli("stability", str(DATA / "s4_unstable_corner.json"))
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["stability"]["lw_stable"] is False

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli("limit", str(bad)).returncode == 2

    def test_validation_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"height":3,"points":[{"val":[1,1,0],"mult":1}]}')
        assert run_cli("limit", str(bad)).returncode == 2

    def test_missing_file_is_two(self):
        assert run_cli("limit", "/nonexistent.json").returncode == 2

    def test_incompatible_declared_fibre_is_two(self):
        result = run_cli("limit", str(DATA / "s4_unstable_corner.json"))
        assert result.returncode == 2
        assert b"refine" in result.stderr

    def test_unknown_render_format_is_two(self):
        result = run_cli("render", "png", str(DATA / "s1_worked_pair.json"))
        assert result.returncode == 2

    @pytest.mark.parametrize("unit", ['"1/0"', '"0"', "null", "true", "0"])
    def test_closed_point_without_a_unit_is_two(self, tmp_path, unit):
        scenario = tmp_path / "n.json"
        scenario.write_text(f'{{"entries":[{{"unit":{unit}}},{{"unit":"2"}}]}}')
        result = run_cli("normalize", str(scenario))
        assert result.returncode == 2
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "entries",
        [
            '{"unit":"1e5000"},{"unit":"2"}',
            '{"zero":true},{"unit":"1e2000000"}',
            '{"unit":"1e-5000"}',
            '{"unit":"1e%s"}' % ("9" * 5000),
            '{"unit":"1e4000"},{"unit":"1e4000"}',
        ],
    )
    def test_numeric_label_beyond_the_digit_limit_is_two(self, monkeypatch, capsys, entries):
        monkeypatch.setattr("sys.stdin", io.StringIO(f'{{"entries":[{entries}]}}'))
        start = time.perf_counter()
        code = main(["normalize", "-"])
        elapsed = time.perf_counter() - start
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "scenario,message",
        [
            # no torus level: the scheme is still checked (no constant
            # monomial, wrong size, level 1 of 0)
            ('{"tuple":[2],"points":[{"val":[1,1,0],"mult":2,'
             '"scheme":[[[1,"delta1",1]]]}]}',
             "scheme has 1 monomials but the point has multiplicity 2"),
            ('{"height":2,"cuts":[1],"points":[{"val":[1,0,1],"mult":1}],"l":0}',
             "l must be >= 1, got 0"),
            ('{"height":2,"cuts":[1],"points":[{"val":[1,0,1],"mult":1}],"l":-3}',
             "l must be >= 1, got -3"),
            # the monomial as the scenario writes it
            ('{"height":2,"cuts":[1],"points":[{"val":[1,0,1],"mult":2,'
             '"scheme":[[],[[1,"delta1",3]]]}]}',
             'monomial degree exceeds the multiplicity: [[1, "delta1", 3]]'),
        ],
        ids=["scheme-without-torus", "l-zero", "l-negative", "over-degree"],
    )
    def test_weights_refuses_invalid_input_with_one_line(
        self, monkeypatch, capsys, scenario, message
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
        assert main(["weights", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_verify_runs_at_its_largest_caps(self, monkeypatch):
        monkeypatch.setattr("degenlab.verify.run_all", lambda max_k, max_m: [])
        assert main(["verify", "--max-k", "5", "--max-m", "3"]) == 0

    @pytest.mark.parametrize("cuts", [[4], [3, 1]], ids=["at-the-height", "decreasing"])
    def test_cuts_outside_the_height_are_refused_with_one_line(self, monkeypatch, cuts):
        scenario = json.dumps({"height": 4, "cuts": cuts})
        assert main_on_stdin(monkeypatch, ["fiber", "-"], scenario) == (
            2, "", f"error: cuts {cuts} must increase strictly inside (0, 4)\n"
        )

    @pytest.mark.parametrize(
        "caps,message",
        [
            (["--max-k", "0"], "error: max-k must be >= 1, got 0"),
            (["--max-m", "0"], "error: max-m must be >= 1, got 0"),
            (["--max-k", "6"], "error: max-k must be <= 5, got 6"),
            (["--max-m", "4"], "error: max-m must be <= 3, got 4"),
        ],
        ids=["k0", "m0", "k6", "m4"],
    )
    def test_verify_refuses_caps_out_of_range_with_one_line(self, capsys, caps, message):
        assert main(["verify", *caps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    @pytest.mark.parametrize(
        "height,mult,cuts",
        [(12, 5, [1, 11]), (13, 1, [1, 12]), (400, 2, [1, 399])],
        ids=["12", "13", "400"],
    )
    def test_limit_runs_the_oracle_at_every_height(self, monkeypatch, capsys, height, mult, cuts):
        """Any multiplicity and any height is checked; the oracle's object
        is printed, with exit 1 when it disagrees with the limit."""
        scenario = json.dumps({"height": height, "points": [
            {"val": [1, 0, height - 1], "mult": mult}, {"val": [0, 1, height - 1]}]})
        oracle = {"cut_sets": [cuts], "agrees": True}
        for fmt in ("json", "text"):
            monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
            assert main(["limit", "-", "--format", fmt]) == 0
            out = capsys.readouterr().out
            if fmt == "json":
                assert json.loads(out)["oracle"] == oracle
            else:
                assert out.splitlines()[-1] == f"oracle: {oracle}"
        monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
        monkeypatch.setattr("degenlab.limits.unique_stable_subdivision_oracle", lambda points, k: [])
        assert main(["limit", "-"]) == 1
        assert json.loads(capsys.readouterr().out)["oracle"] == {"cut_sets": [], "agrees": False}

    @pytest.mark.parametrize(
        "command,scenario",
        [
            (["fiber"], {"height": 202, "cuts": list(range(1, 102))}),
            (["render", "svg"], {"height": 202, "cuts": list(range(1, 102))}),
        ],
        ids=["fiber", "render"],
    )
    def test_dual_complex_above_the_cut_bound_is_refused(
        self, monkeypatch, capsys, command, scenario
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(scenario)))
        assert main([*command, "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a dual complex of 101 cuts is too large (at most 100)\n"

    def test_dual_complex_at_the_cut_bound_is_built(self, monkeypatch, capsys):
        scenario = {"height": 202, "cuts": list(range(1, 101))}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(scenario)))
        assert main(["fiber", "-", "--format", "text"]) == 0
        assert "V=5253 E=10403 F=5151" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [["limit"], ["fiber"], ["render", "svg"], ["stability"], ["weights"], ["normalize"]],
        ids=lambda command: command[0],
    )
    def test_every_command_refuses_height_zero_with_one_line(self, monkeypatch, capsys, command):
        for scenario in ('{"height":0}', '{"tuple":[0]}', '{"tuple":[0,0],"cuts":[]}'):
            monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
            assert main([*command, "-"]) == 2, scenario
            captured = capsys.readouterr()
            assert captured.out == "", scenario
            assert captured.err == "error: height 0 means no degeneration\n", scenario

    def test_each_command_takes_only_the_options_it_reads(self):
        """Each command registers only the options its handler reads, as the
        README's table says, and every example in the README parses."""
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        options = {
            name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert options == {
            "limit": {"--format", "--out"},
            "fiber": {"--format", "--out"},
            "stability": {"--format", "--out"},
            "weights": {"--format", "--out"},
            "normalize": {"--out"},
            "render": {"--out"},
            "verify": {"--max-k", "--max-m"},
        }
        assert _readme_option_table() == options
        examples = _readme_commands()
        assert len(examples) == 9
        for argv in examples:
            parser.parse_args(argv)  # an unknown option exits 2
        assert run_cli("normalize", "-", "--format", "text", stdin="{}").returncode == 2

    def test_every_entry_of_the_option_table_is_registered(self):
        """An argument that no command registers has no place in ``_ARGUMENTS``."""
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        registered = {
            name
            for p in sub.choices.values()
            for a in p._actions
            for name in a.option_strings or [a.dest]
        }
        assert set(_ARGUMENTS) <= registered

    @pytest.mark.parametrize("command", ["limit", "fiber", "stability"])
    def test_only_render_draws(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            main([command, str(DATA / "s1_worked_pair.json"), "--render", "svg"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --render svg" in captured.err

    @pytest.mark.parametrize(
        "command,scenario,json_out",
        [
            (["limit"], DATA / "s1_worked_pair.json", GOLDENS / "s1_worked_pair.limit.json"),
            (["fiber"], DATA / "s3_mixed_point.json", None),
            (["stability"], DATA / "s4_unstable_corner.json",
             GOLDENS / "s4_unstable_corner.stability.json"),
            (["weights"], DATA / "s1_worked_pair.json", None),
            (["weights"], '{"height":2,"cuts":[1],"points":[{"val":[0,0,2]}]}',
             _UNSTABILIZABLE_JSON),
        ],
        ids=["limit", "fiber", "stability", "weights", "weights-unstabilizable"],
    )
    def test_text_format_prints_no_json(self, monkeypatch, capsys, command, scenario, json_out):
        """Every report honours ``--format``: text mode never prints JSON, and
        JSON mode prints the golden file, or the fixed text of the
        unstabilizable report, where one is given."""
        outputs = {}
        for fmt in ("json", "text"):
            if isinstance(scenario, str):
                monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
            source = "-" if isinstance(scenario, str) else str(scenario)
            outputs[fmt] = (main([*command, source, "--format", fmt]), capsys.readouterr())
        (json_code, json_io), (text_code, text_io) = outputs["json"], outputs["text"]
        assert json_code == text_code and json_code in (0, 1)
        assert json_io.err == text_io.err == ""
        json.loads(json_io.out)
        if isinstance(json_out, Path):
            assert json_io.out == json_out.read_text()
        elif json_out is not None:
            assert json_io.out == json_out
        assert text_io.out.strip()
        with pytest.raises(ValueError):
            json.loads(text_io.out)


# A JSON integer past the interpreter's int-str digit limit; json.dumps cannot
# write one, so it stands in as this string and is unquoted after dumping.
_HUGE_INTEGER = "1" * 5000
_REPLACEMENTS = [None, True, -1, 0, 2, "1e5000", [], {}, _HUGE_INTEGER]
_EXTRA_KEYS = {
    "entries": [{"unit": "2"}, {"unit": "c"}],
    "tuple": [1, 1],
    "lin": [[1, 1, 0, 1]],
    "s": [1],
    "l": 2,
}


def _mutations(node):
    """Copies of a JSON value with one key or element dropped, or one value
    replaced by another type or a small integer."""
    if isinstance(node, dict):
        for key in node:
            yield {k: v for k, v in node.items() if k != key}
            for child in _mutations(node[key]):
                yield {**node, key: child}
    elif isinstance(node, list):
        for i in range(len(node)):
            yield node[:i] + node[i + 1:]
            for child in _mutations(node[i]):
                yield [*node[:i], child, *node[i + 1:]]
    for value in _REPLACEMENTS:
        if type(value) is not type(node) or value != node:
            yield value


def _mutated_scenarios(path):
    """Mutations of a scenario, and of it with each optional key added."""
    def dump(doc):
        return json.dumps(doc).replace(f'"{_HUGE_INTEGER}"', _HUGE_INTEGER)

    base = json.loads(path.read_text())
    texts = {dump(doc) for doc in _mutations(base)}
    for key, value in _EXTRA_KEYS.items():
        texts.update(dump({**base, key: v}) for v in [value, *_mutations(value)])
    return sorted(texts)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
def test_every_command_is_total_on_mutated_scenarios(path, monkeypatch, capsys):
    """Exit 0, 1 or 2, one error line on exit 2, and no escaping exception."""
    for text in _mutated_scenarios(path):
        for command in (["limit"], ["fiber"], ["stability"], ["weights"],
                        ["normalize"], ["render", "svg"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            try:
                code = main([*command, "-"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (command, text)
            if code == 2:
                assert len(err.splitlines()) == 1, (command, text, err)


class TestGoldens:
    @pytest.mark.parametrize("scenario,command,suffix", CASES)
    def test_byte_identical(self, capsys, scenario, command, suffix):
        """Each golden on its own, in process; criterion 9 runs the same
        commands in subprocesses."""
        assert main([*command, str(DATA / f"{scenario}.json")]) in (0, 1)
        assert capsys.readouterr().out.encode() == (GOLDENS / f"{scenario}.{suffix}").read_bytes()

    def test_render_deterministic(self):
        first = run_cli("render", "svg", str(DATA / "s5_quadric_config.json"))
        second = run_cli("render", "svg", str(DATA / "s5_quadric_config.json"))
        assert first.stdout == second.stdout


class TestCommands:
    def test_fiber_json(self):
        result = run_cli("fiber", str(DATA / "s3_mixed_point.json"))
        payload = json.loads(result.stdout)
        assert len(payload["vertices"]) == 6
        assert len(payload["edges"]) == 8
        assert len(payload["cells"]) == 3

    def test_fiber_text(self):
        result = run_cli("fiber", str(DATA / "s3_mixed_point.json"), "--format", "text")
        assert b"V=6 E=8 F=3" in result.stdout

    @pytest.mark.parametrize("fmt,built", [("text", 0), ("json", 1)])
    def test_fiber_builds_its_json_only_to_print_it(self, capsys, fmt, built):
        with calls_by_name("complex_to_json") as counts:
            assert main(["fiber", str(DATA / "s3_mixed_point.json"), "--format", fmt]) == 0
        assert counts["complex_to_json"] == built
        assert capsys.readouterr().out

    def test_limit_builds_each_point_once(self, monkeypatch, capsys):
        """At height 12 with all 91 positions, ``limit`` builds 91 points in
        parsing and 91 scheme-free ones that the limit and the oracle share:
        182 calls of the checking ``SupportPoint.__new__``, 273 when the
        limit and the oracle each built their own."""
        k = 12
        points = [{"val": [a, b, k - a - b]} for a in range(k + 1) for b in range(k + 1 - a)]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"height": k, "points": points})))
        with calls_by_name("__new__", module=configurations) as counts:
            assert main(["limit", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"]["agrees"] and len(report["configuration"]["points"]) == 91
        assert counts["__new__"] <= 182

    def test_weights_table(self):
        result = run_cli("weights", str(DATA / "s1_worked_pair.json"))
        payload = json.loads(result.stdout)
        assert payload["git_stable"] is True
        assert payload["l"] == 9
        assert len(payload["rows"]) > 0
        for row in payload["rows"]:
            assert row["total"] == row["bounded"] + payload["l"] * row["combinatorial"]
        assert result.returncode == 0

    def test_weights_reads_its_rows_from_one_table(self, monkeypatch, capsys):
        """242 admissible sign vectors on five zero-free levels: one lift table
        for the rows and one for the verdict, each from the one profile that
        its public function builds, beside the lift's own."""
        points = ",".join(f'{{"val":[{v},0,{6 - v}]}}' for v in range(1, 6))
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f'{{"tuple":[1,1,1,1,1,1],"points":[{points}]}}')
        )
        with calls_by_name("profile", "lift_table") as counts:
            assert main(["weights", "-"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 242
        assert counts["lift_table"] <= 2
        assert counts["profile"] <= 3

    def test_weights_explicit_subgroup(self, tmp_path):
        scenario = tmp_path / "w.json"
        scenario.write_text(
            '{"height":2,"cuts":[1],"points":[{"val":[1,0,1],"mult":1}],'
            '"lin":[[1,1,0,1]],"s":[1],"l":3}'
        )
        result = run_cli("weights", str(scenario))
        payload = json.loads(result.stdout)
        assert payload["rows"] == [
            {"s": [1], "bounded": 0, "combinatorial": 1, "total": 3}
        ]

    def test_weights_unstabilizable(self, tmp_path):
        scenario = tmp_path / "w.json"
        scenario.write_text(
            '{"height":2,"cuts":[1],"points":[{"val":[0,0,2],"mult":1}]}'
        )
        result = run_cli("weights", str(scenario))
        assert result.returncode == 1
        assert json.loads(result.stdout)["stabilizable"] is False

    def test_normalize_tuple(self, tmp_path):
        scenario = tmp_path / "n.json"
        scenario.write_text('{"tuple":[1,0,1,0]}')
        result = run_cli("normalize", str(scenario))
        payload = json.loads(result.stdout)
        assert payload["normal_form"] == {"height": 2, "cuts": [1]}
        assert payload["canonical_tuple"] == [1, 1]

    @pytest.mark.parametrize("entries,zero_count", [
        ('[{"zero":true},{"unit":"c1"},{"zero":true}]', 2),
        ('[{"zero":true},{"unit":"2"},{"unit":"a"}]', 1),
    ], ids=["two-zeros", "one-zero"])
    def test_normalize_closed_point(self, monkeypatch, entries, zero_count):
        code, out, _ = main_on_stdin(monkeypatch, ["normalize", "-"], f'{{"entries":{entries}}}')
        assert (code, json.loads(out)) == (0, {"kind": "closed", "zero_count": zero_count})

    def test_normalize_closed_units_product(self, tmp_path):
        scenario = tmp_path / "n.json"
        scenario.write_text('{"entries":[{"unit":"2"},{"unit":"3"}]}')
        result = run_cli("normalize", str(scenario))
        assert json.loads(result.stdout)["product"]["numeric"] == "6"

    def test_stdin_scenario(self):
        result = run_cli("limit", "-", stdin='{"height":1,"points":[{"val":[0,0,1],"mult":1}]}')
        assert result.returncode == 0

    def test_out_flag(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli("stability", str(DATA / "s1_worked_pair.json"), "--out", str(out))
        assert json.loads(out.read_text())["stability"]["sws_stable"] is True

    def test_verify_smoke(self):
        result = run_cli("verify", "--max-k", "2", "--max-m", "1")
        assert result.returncode == 0
        assert result.stdout.count(b"[PASS]") == 6


class TestRoundTrips:
    def test_stability_report(self):
        from degenlab import NormalForm, place, stability_report

        cfg = place(NormalForm(3, (1, 2)), [((1, 2, 0), 1), ((2, 0, 1), 1)])
        payload = stability_report_to_json(stability_report(cfg))
        assert json.loads(dumps(payload)) == payload

    def test_limit_report_through_json(self):
        from degenlab import flat_limit, make_base_tuple, place
        from degenlab.scenario import limit_report_to_json

        report = flat_limit([((1, 2, 0), 1), ((2, 0, 1), 1)], 3)
        payload = json.loads(dumps(limit_report_to_json(report)))
        rebuilt_cfg = place(
            make_base_tuple(payload["configuration"]["tuple"]),
            [(tuple(p["val"]), p["mult"]) for p in payload["configuration"]["points"]],
        )
        assert rebuilt_cfg == report.configuration
        assert payload["stability"] == stability_report_to_json(report.stability)

    @pytest.mark.parametrize(
        "entries,written",
        [
            ('{"zero":true},{"zero":true}', [{"zero": True}, {"zero": True}]),
            ('{"zero":true},{"unit":2},{"unit":"3/4"},{"unit":"a"}',
             [{"zero": True}, {"unit": "2"}, {"unit": "3/4"}, {"unit": "a"}]),
            ('{"unit":-2},{"unit":"3/4"},{"unit":"a"},{"unit":"1"}',
             [{"unit": "-2"}, {"unit": "3/4"}, {"unit": "a"}, {"unit": "1"}]),
        ],
        ids=["zeros", "mixed", "units"],
    )
    def test_closed_point_through_the_scenario_writer(self, entries, written):
        """Parse, ``scenario_to_json`` and parse again keep a closed point's
        zeros where they are and each unit's value: an integer unit is
        written as its string, which parses to the same number."""
        sc = parse(f'{{"entries":[{entries}]}}')
        payload = scenario_to_json(sc)
        assert payload == {"entries": written}
        again = parse(dumps(payload))
        assert scenario_to_json(again) == payload
        assert [e is None for e in again.entries.entries] == [e is None for e in sc.entries.entries]
        assert again.entries.unit_product() == sc.entries.unit_product()
        assert equivalent(again.entries, sc.entries)

    def test_in_process_main_matches_subprocess(self, capsys):
        code = main(["stability", str(DATA / "s1_worked_pair.json")])
        captured = capsys.readouterr()
        sub = run_cli("stability", str(DATA / "s1_worked_pair.json"))
        assert code == sub.returncode == 0
        assert captured.out.encode() == sub.stdout


def _scenarios_with_a_limit() -> list[Path]:
    """The data scenarios whose limit refines their declared fibre."""
    found = []
    for path in sorted(DATA.glob("*.json")):
        sc = parse(path.read_text(encoding="utf-8"))
        try:
            associated_pair(sc.points, sc.height, sc.normal_form())
        except TropicalIncompatibility:
            continue
        found.append(path)
    return found


def test_four_data_scenarios_have_a_limit():
    assert [p.stem for p in _scenarios_with_a_limit()] == [
        "s1_worked_pair", "s2_corner_point", "s3_mixed_point", "s5_quadric_config"]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("path", _scenarios_with_a_limit(), ids=lambda path: path.stem)
def test_report_configuration_replays_through_render(monkeypatch, capsys, path, fmt):
    """The ``configuration`` of a ``limit`` or ``stability`` report is a
    scenario, and ``render`` draws it as the library draws the report's own
    configuration, byte for byte."""
    sc = parse(path.read_text(encoding="utf-8"))
    report = associated_pair(sc.points, sc.height, sc.normal_form())
    presentation = sc.presentation()
    cfg = place(presentation if presentation is not None else sc.normal_form(), sc.points)
    for command, want in (
        ("limit", render_fibre(report.fibre, report.configuration, fmt)),
        ("stability", render_fibre(cfg.fibre, cfg, fmt)),
    ):
        assert main([command, str(path)]) in (0, 1)
        configuration = json.loads(capsys.readouterr().out)["configuration"]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(configuration)))
        assert main(["render", fmt, "-"]) == 0
        assert capsys.readouterr().out == want, command
