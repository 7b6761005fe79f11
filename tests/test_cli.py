"""Command-line behaviour: exit codes, golden outputs, round trips."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from degenlab import parse_scenario, ParseError, ValidationError
from degenlab.cli import build_parser, main
from degenlab.scenario import (
    dumps,
    parse_scenario as parse,
    scenario_to_json,
    stability_report_from_json,
    stability_report_to_json,
)

from regen_goldens import CASES

DATA = Path(__file__).parent / "data"
GOLDENS = Path(__file__).parent / "goldens"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, stdin: str | None = None):
    """The command in a subprocess that imports degenlab from this checkout."""
    pythonpath = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "degenlab.cli", *args],
        capture_output=True,
        input=stdin.encode() if stdin else None,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
    )


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
        "scenario,options",
        [
            # no torus level: the scheme is still checked (no constant
            # monomial, wrong size, level 1 of 0)
            ('{"tuple":[2],"points":[{"val":[1,1,0],"mult":2,'
             '"scheme":[[[1,"delta1",1]]]}]}', []),
            ('{"height":2,"cuts":[1],"points":[{"val":[1,0,1],"mult":1}]}', ["--l", "0"]),
            ('{"height":2,"cuts":[1],"points":[{"val":[1,0,1],"mult":1}]}', ["--l", "-3"]),
        ],
        ids=["scheme-without-torus", "l-zero", "l-negative"],
    )
    def test_weights_refuses_invalid_input_with_one_line(
        self, monkeypatch, capsys, scenario, options
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
        assert main(["weights", "-", *options]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")

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

    def test_limit_refuses_an_oracle_cap_above_the_ceiling(self, monkeypatch, capsys):
        scenario = '{"height":13,"points":[{"val":[1,0,12],"mult":1}]}'
        monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
        assert main(["limit", "-", "--max-k", "13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max-k must be <= 12, got 13\n"
        # at the ceiling, a height above the cap still skips the oracle
        monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
        assert main(["limit", "-", "--max-k", "12"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"] == "skipped"

    def test_limit_skips_the_oracle_above_the_multiplicity_cap(self, capsys):
        scenario = str(DATA / "s1_worked_pair.json")  # two points of multiplicity 1
        assert main(["limit", scenario, "--max-m", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"] == "skipped"
        assert main(["limit", scenario, "--max-m", "1", "--format", "text"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "oracle: skipped"

    @pytest.mark.parametrize(
        "command,scenario",
        [
            (["fiber"], {"height": 202, "cuts": list(range(1, 102))}),
            (["render", "svg"], {"height": 202, "cuts": list(range(1, 102))}),
            (["fiber", "--render", "dot"], {"height": 202, "cuts": list(range(1, 102))}),
            (["stability", "--render", "svg"], {
                "height": 202, "cuts": list(range(1, 102)),
                "points": [{"val": [1, 0, 201], "mult": 1}]}),
            (["limit", "--render", "tikz"], {
                "height": 202,
                "points": [{"val": [a, 202 - a, 0], "mult": 1} for a in range(1, 102)]}),
        ],
        ids=["fiber", "render", "fiber-render", "stability-render", "limit-render"],
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
        "command,hint",
        [(["limit"], True), (["fiber"], True), (["render", "svg"], False),
         (["stability"], False), (["weights"], False), (["normalize"], False)],
    )
    def test_height_zero_names_the_flag_only_where_it_exists(
        self, monkeypatch, capsys, command, hint
    ):
        message = "error: height 0 means no degeneration"
        if hint:
            message += " (use --allow-smooth)"
        for scenario in ('{"height":0}', '{"tuple":[0]}', '{"tuple":[0,0],"cuts":[]}'):
            monkeypatch.setattr("sys.stdin", io.StringIO(scenario))
            assert main([*command, "-"]) == 2, scenario
            assert capsys.readouterr().err == message + "\n", scenario

    def test_each_command_takes_only_the_options_it_reads(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        options = {
            name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert options == {
            "limit": {"--format", "--render", "--out", "--allow-smooth", "--max-k", "--max-m"},
            "fiber": {"--format", "--render", "--out", "--allow-smooth"},
            "stability": {"--format", "--render", "--out"},
            "weights": {"--format", "--out", "--l"},
            "normalize": {"--out"},
            "render": {"--out"},
            "verify": {"--max-k", "--max-m"},
        }
        assert run_cli("normalize", "-", "--format", "text", stdin="{}").returncode == 2


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
    def test_byte_identical(self, scenario, command, suffix):
        result = run_cli(*command, str(DATA / f"{scenario}.json"))
        assert result.returncode in (0, 1)
        golden = (GOLDENS / f"{scenario}.{suffix}").read_bytes()
        assert result.stdout == golden

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
        for the rows and one for the verdict."""
        from degenlab import weights

        built = []
        lift_table = weights._lift_table
        monkeypatch.setattr(
            weights, "_lift_table", lambda *args: built.append(args) or lift_table(*args)
        )
        points = ",".join(f'{{"val":[{v},0,{6 - v}]}}' for v in range(1, 6))
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f'{{"tuple":[1,1,1,1,1,1],"points":[{points}]}}')
        )
        assert main(["weights", "-"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 242
        assert len(built) <= 2

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

    def test_normalize_closed_point(self, tmp_path):
        scenario = tmp_path / "n.json"
        scenario.write_text(
            '{"entries":[{"zero":true},{"unit":"c1"},{"zero":true}]}'
        )
        result = run_cli("normalize", str(scenario))
        assert json.loads(result.stdout)["zero_count"] == 2

    def test_normalize_closed_units_product(self, tmp_path):
        scenario = tmp_path / "n.json"
        scenario.write_text('{"entries":[{"unit":"2"},{"unit":"3"}]}')
        result = run_cli("normalize", str(scenario))
        assert json.loads(result.stdout)["product"]["numeric"] == "6"

    def test_stdin_scenario(self):
        result = run_cli("limit", "-", stdin='{"height":1,"points":[{"val":[0,0,1],"mult":1}]}')
        assert result.returncode == 0

    def test_smooth_rejected_then_allowed(self, tmp_path):
        scenario = tmp_path / "smooth.json"
        scenario.write_text('{"height":0,"points":[]}')
        assert run_cli("limit", str(scenario)).returncode == 2
        result = run_cli("limit", str(scenario), "--allow-smooth")
        assert result.returncode == 0
        assert json.loads(result.stdout)["smooth"] is True

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
        report = stability_report(cfg)
        assert stability_report_from_json(stability_report_to_json(report)) == report

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
        assert stability_report_from_json(payload["stability"]) == report.stability

    def test_in_process_main_matches_subprocess(self, capsys):
        code = main(["stability", str(DATA / "s1_worked_pair.json")])
        captured = capsys.readouterr()
        sub = run_cli("stability", str(DATA / "s1_worked_pair.json"))
        assert code == sub.returncode == 0
        assert captured.out.encode() == sub.stdout
