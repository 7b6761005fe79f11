"""Command-line surface.

Every subcommand but ``verify`` takes a scenario file (or ``-`` for stdin),
and each registers only the options its handler reads.  Every report but
the diagram of ``render`` and the suite lines of ``verify`` leaves through
``_report``: JSON, or text under ``--format``.  ``render`` is the one command
that draws; the ``configuration`` object of a ``limit`` or ``stability``
report is itself a scenario that ``render`` reads.
``limit`` and ``verify`` import their layers when they run, so the other
commands start without ``limits``, ``verify`` and the ``dataclasses`` they
import.
Exit codes: 0 for success, 1 when a stability verdict is negative or an
oracle disagrees (the verdict is still printed), 2 for input errors and
unwritable reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .base import canonical_tuple, normal_form
from .configurations import SupportPoint, normalize_pair, place, stability_report
from .dual_complex import build_fibre, complex_counts
from .errors import CriterionViolated, DegenLabError, ParseError, ValidationError
from .render import FORMATS, render_fibre
from .scenario import (
    Scenario,
    complex_to_json,
    configuration_to_json,
    dumps,
    limit_report_to_json,
    normal_form_to_json,
    parse_scenario,
    stability_report_to_json,
)
from .weights import constructive_linearization, default_scale, is_git_stable, weight_rows

__all__ = ["main"]

# The dual complex has about n^2 / 2 crossings for n cuts, and memory grows
# as n^2: `fiber` at 100 cuts takes 0.2-0.3 s and 30 MB, interpreter start
# included, and writes 1.7 MB of JSON.
MAX_COMPLEX_CUTS = 100


def _read_scenario(args) -> Scenario:
    if args.scenario == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.scenario)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario(text)


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report(args, payload, lines=None) -> None:
    """Write a command's report; every command but ``render`` and ``verify``
    writes through here.

    ``payload`` and ``lines`` are zero-argument functions, and only the one
    that the format needs is called.  The report is ``dumps(payload())``, or
    under ``--format text`` the lines that ``lines()`` returns (one
    ``key: value`` line per field of ``payload()`` when ``lines`` is None),
    to stdout or ``--out``.
    """
    if getattr(args, "format", "json") == "text":
        text = lines() if lines else [f"{key}: {value}" for key, value in payload().items()]
        _emit(args, "\n".join(text) + "\n")
    else:
        _emit(args, dumps(payload()))


def _cmd_limit(args) -> int:
    from .limits import associated_pair, unique_stable_subdivision_oracle

    sc = _read_scenario(args)
    if sc.height is None:
        raise ValidationError("limit needs a height")
    # built once for the limit and the oracle; the limit configuration carries no schemes
    points = tuple(SupportPoint(p.valuations, p.multiplicity) for p in sc.points)
    # without cuts or a tuple the declared fibre is undivided, which every limit refines
    report = associated_pair(points, sc.height, sc.normal_form())
    winners = unique_stable_subdivision_oracle(points, sc.height)
    agreement = winners == [report.fibre.nf]
    oracle = {"cut_sets": [list(nf.cuts) for nf in winners], "agrees": agreement}
    cfg = report.configuration
    _report(args, lambda: {**limit_report_to_json(report), "oracle": oracle}, lambda: [
        f"height {sc.height}, cuts {list(report.fibre.nf.cuts)}",
        f"base tuple {list(report.base_tuple.exponents)}",
        f"points placed at {[loc.stratum + ':' + str(loc.index) for loc in cfg.placements]}",
        f"stable: lw={report.stability.lw_stable} sws={report.stability.sws_stable}",
        f"oracle: {oracle}",
    ])
    return 0 if agreement else 1


def _scenario_fibre(sc: Scenario):
    """The dual complex of the scenario's fibre, refused above ``MAX_COMPLEX_CUTS``."""
    nf = sc.normal_form()
    if len(nf.cuts) > MAX_COMPLEX_CUTS:
        raise ValidationError(
            f"a dual complex of {len(nf.cuts)} cuts is too large (at most {MAX_COMPLEX_CUTS})"
        )
    return build_fibre(nf)


def _scenario_configuration(sc: Scenario):
    """The scenario's points placed on its presentation, or on its normal form."""
    presentation = sc.presentation()
    return place(presentation if presentation is not None else sc.normal_form(), sc.points)


def _cmd_fiber(args) -> int:
    fibre = _scenario_fibre(_read_scenario(args))

    def lines():
        v, e, f = complex_counts(fibre)
        kinds = {}
        for vx in fibre.dual_complex.vertices:
            kinds[vx.kind.value] = kinds.get(vx.kind.value, 0) + 1
        return [
            f"height {fibre.height}, cuts {list(fibre.cuts)}",
            f"V={v} E={e} F={f} (V-E+F={v - e + f})",
            "vertices: " + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())),
        ]

    _report(args, lambda: complex_to_json(fibre), lines)
    return 0


def _cmd_stability(args) -> int:
    cfg = _scenario_configuration(_read_scenario(args))
    report = stability_report(cfg)
    _report(args, lambda: {
        "configuration": configuration_to_json(cfg),
        "stability": stability_report_to_json(report),
    }, lambda: [
        f"admissible: {report.admissible}",
        f"stabilizer rank: {report.stabilizer_rank}",
        f"lw_stable: {report.lw_stable}",
        f"ws_stable: {report.ws_stable}",
        f"sws_stable: {report.sws_stable}",
        f"unoccupied levels: {list(report.unoccupied_levels)}",
    ])
    return 0 if report.lw_stable else 1


def _cmd_weights(args) -> int:
    sc = _read_scenario(args)
    cfg = _scenario_configuration(sc)
    scale = sc.l or default_scale(cfg.m)
    if sc.lin is not None:
        lin, lin_source = sc.lin, "scenario"
    else:
        try:
            lin, lin_source = constructive_linearization(cfg), "constructive"
        except CriterionViolated as exc:
            _report(args, lambda: {"stabilizable": False, "reason": str(exc)})
            return 1
    rows = [
        {"s": list(s), "bounded": b, "combinatorial": c, "total": b + scale * c}
        for s, b, c in weight_rows(cfg, lin, None if sc.s is None else [sc.s])
    ]
    stable = is_git_stable(cfg, lin, scale)
    _report(args, lambda: {
        "lin": [list(lift) for lift in lin.levels],
        "lin_source": lin_source,
        "l": scale,
        "rows": rows,
        "git_stable": stable,
    }, lambda: [
        f"lin ({lin_source}): {[tuple(x) for x in lin.levels]}  l={scale}",
        f"{'s':<16} {'bounded':>8} {'combinatorial':>14} {'total':>8}",
        *(f"{str(row['s']):<16} {row['bounded']:>8} "
          f"{row['combinatorial']:>14} {row['total']:>8}" for row in rows),
        f"git_stable: {stable}",
    ])
    return 0 if stable else 1


def _cmd_normalize(args) -> int:
    sc = _read_scenario(args)
    if sc.entries is not None:
        point = sc.entries
        if point.zero_count >= 1:
            payload = {"kind": "closed", "zero_count": point.zero_count}
        else:
            numeric, symbols = point.unit_product()
            payload = {
                "kind": "closed",
                "product": {"numeric": str(numeric), "symbols": list(symbols)},
            }
        _report(args, lambda: payload)
        return 0
    presentation = sc.presentation()
    if presentation is None:
        raise ValidationError("normalize needs a tuple or closed-point entries")
    nf = normal_form(presentation)
    payload = {
        "tuple": list(presentation.exponents),
        "normal_form": normal_form_to_json(nf),
        "canonical_tuple": list(canonical_tuple(nf).exponents),
    }
    if sc.points:
        cfg = place(presentation, sc.points)
        payload["configuration"] = configuration_to_json(normalize_pair(cfg))
    _report(args, lambda: payload)
    return 0


def _cmd_render(args) -> int:
    sc = _read_scenario(args)
    fibre = _scenario_fibre(sc)
    cfg = place(fibre, sc.points) if sc.points else None
    _emit(args, render_fibre(fibre, cfg, args.render_format))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    for option, cap, largest in (("max-k", args.max_k, 5), ("max-m", args.max_m, 3)):
        if cap < 1:
            raise ValidationError(f"{option} must be >= 1, got {cap}")
        if cap > largest:  # the acceptance sizes; one step up is millions of cases
            raise ValidationError(f"{option} must be <= {largest}, got {cap}")
    results = run_all(max_k=args.max_k, max_m=args.max_m)
    for r in results:
        sys.stdout.write(f"[{'PASS' if r.ok else 'FAIL'}] {r.name}: {r.detail}\n")
    return 0 if all(r.ok for r in results) else 1


_ARGUMENTS = {
    "scenario": dict(help="scenario JSON file, or - for stdin"),
    "render_format": dict(choices=FORMATS),
    "--format": dict(choices=("json", "text"), default="json"),
    "--out": dict(default=None, help="write the report here"),
    "--max-k": dict(type=int, default=4, help="height cap of the suites"),
    "--max-m": dict(type=int, default=2, help="multiplicity cap of the suites"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, carrying only the arguments its handler reads."""
    parser = argparse.ArgumentParser(
        prog="degenlab",
        description="Combinatorics of expanded degenerations of xyz = t",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, handler, *arguments):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for argument in arguments:
            p.add_argument(argument, **_ARGUMENTS[argument])
        return p

    command("limit", "flat limit of valued points", _cmd_limit, "scenario",
            "--format", "--out")
    command("fiber", "dual complex of a fibre", _cmd_fiber, "scenario",
            "--format", "--out")
    command("stability", "stability verdicts", _cmd_stability, "scenario",
            "--format", "--out")
    command("weights", "weight table for subgroups", _cmd_weights, "scenario",
            "--format", "--out")
    command("normalize", "normal form of a presentation", _cmd_normalize, "scenario",
            "--out")
    command("render", "diagram of a fibre", _cmd_render, "render_format", "scenario",
            "--out")
    command("verify", "run the invariant suites", _cmd_verify, "--max-k", "--max-m")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (DegenLabError, OSError) as exc:  # OSError: writing --out
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
