"""Command-line surface.

Every subcommand but ``verify`` takes a scenario file (or ``-`` for stdin),
and each registers only the options its handler reads.  Exit codes: 0 for
success, 1 when a stability verdict is negative or an oracle disagrees (the
verdict is still printed), 2 for input errors and unwritable reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .base import canonical_tuple, normal_form
from .configurations import normalize_pair, place, stability_report
from .dual_complex import build_fibre, complex_counts
from .errors import (
    CriterionViolated,
    DegenLabError,
    ParseError,
    RefuseBruteForce,
    ValidationError,
)
from .limits import associated_pair, flat_limit, unique_stable_subdivision_oracle
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
from .verify import run_all
from .weights import constructive_linearization, default_scale, is_git_stable, weight_rows

__all__ = ["main"]

# The oracle of `limit` walks 2^(k-1) cut sets, so its time doubles with each
# unit of height; its memory does not grow.  With three points on a 2-core
# host it took 0.02 s at height 12, 0.08 s at 14 and 0.35 s at 16, at 16 MB
# RSS; `limit` at height 12 takes 0.11 s in-process, imports included.
LIMIT_MAX_K = 12
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


def _check_complex_size(fibre_or_nf) -> None:
    """Refuse a dual complex with more cuts than ``MAX_COMPLEX_CUTS``."""
    n = len(fibre_or_nf.cuts)
    if n > MAX_COMPLEX_CUTS:
        raise ValidationError(
            f"a dual complex of {n} cuts is too large (at most {MAX_COMPLEX_CUTS})"
        )


def _smooth_report(args) -> int:
    """The report for a height-0 scenario, for the commands taking --allow-smooth."""
    if not args.allow_smooth:
        raise ValidationError("height 0 means no degeneration (use --allow-smooth)")
    _emit(args, dumps({"height": 0, "smooth": True, "note": "no degeneration"}))
    return 0


def _cmd_limit(args) -> int:
    if args.max_k > LIMIT_MAX_K:
        raise ValidationError(f"max-k must be <= {LIMIT_MAX_K}, got {args.max_k}")
    sc = _read_scenario(args)
    if sc.height == 0:
        return _smooth_report(args)
    if sc.height is None:
        raise ValidationError("limit needs a height")
    points = [(p.valuations, p.multiplicity) for p in sc.points]
    if sc.cuts is not None or sc.tuple_ is not None:
        report = associated_pair(points, sc.height, sc.normal_form())
    else:
        report = flat_limit(points, sc.height)
    if args.render:
        _check_complex_size(report.fibre)
    payload = limit_report_to_json(report)
    exit_code = 0
    try:
        winners = unique_stable_subdivision_oracle(
            points, sc.height, max_height=args.max_k, max_multiplicity=args.max_m
        )
    except RefuseBruteForce:
        payload["oracle"] = "skipped"
    else:
        agreement = winners == [report.fibre.nf]
        payload["oracle"] = {
            "cut_sets": [list(nf.cuts) for nf in winners],
            "agrees": agreement,
        }
        if not agreement:
            exit_code = 1
    if args.format == "text":
        lines = [
            f"height {sc.height}, cuts {list(report.fibre.nf.cuts)}",
            f"base tuple {list(report.base_tuple.exponents)}",
            f"points placed at "
            f"{[loc.stratum + ':' + str(loc.index) for loc in report.configuration.placements]}",
            f"stable: lw={report.stability.lw_stable} sws={report.stability.sws_stable}",
            f"oracle: {payload['oracle']}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, dumps(payload))
    if args.render:
        sys.stdout.write(
            render_fibre(report.fibre, report.configuration, args.render)
        )
    return exit_code


def _scenario_fibre(sc: Scenario):
    nf = sc.normal_form()
    _check_complex_size(nf)
    return build_fibre(nf)


def _cmd_fiber(args) -> int:
    sc = _read_scenario(args)
    if sc.height == 0:
        return _smooth_report(args)
    fibre = _scenario_fibre(sc)
    if args.format == "text":
        v, e, f = complex_counts(fibre)
        kinds = {}
        for vx in fibre.dual_complex.vertices:
            kinds[vx.kind.value] = kinds.get(vx.kind.value, 0) + 1
        lines = [
            f"height {fibre.height}, cuts {list(fibre.cuts)}",
            f"V={v} E={e} F={f} (V-E+F={v - e + f})",
            "vertices: " + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())),
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, dumps(complex_to_json(fibre)))
    if args.render:
        sys.stdout.write(render_fibre(fibre, None, args.render))
    return 0


def _cmd_stability(args) -> int:
    sc = _read_scenario(args)
    presentation = sc.presentation()
    base = presentation if presentation is not None else sc.normal_form()
    cfg = place(base, sc.points)
    if args.render:
        _check_complex_size(cfg.fibre)
    report = stability_report(cfg)
    payload = {
        "configuration": configuration_to_json(cfg),
        "stability": stability_report_to_json(report),
    }
    if args.format == "text":
        lines = [
            f"admissible: {report.admissible}",
            f"stabilizer rank: {report.stabilizer_rank}",
            f"lw_stable: {report.lw_stable}",
            f"ws_stable: {report.ws_stable}",
            f"sws_stable: {report.sws_stable}",
            f"unoccupied levels: {list(report.unoccupied_levels)}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, dumps(payload))
    if args.render:
        sys.stdout.write(render_fibre(cfg.fibre, cfg, args.render))
    return 0 if report.lw_stable else 1


def _cmd_weights(args) -> int:
    if args.l is not None and args.l < 1:
        raise ValidationError(f"l must be >= 1, got {args.l}")
    sc = _read_scenario(args)
    presentation = sc.presentation()
    base = presentation if presentation is not None else sc.normal_form()
    cfg = place(base, sc.points)
    scale = args.l or sc.l or default_scale(cfg.m)
    if sc.lin is not None:
        lin = sc.lin
        lin_source = "scenario"
    else:
        try:
            lin = constructive_linearization(cfg)
            lin_source = "constructive"
        except CriterionViolated as exc:
            payload = {
                "stabilizable": False,
                "reason": str(exc),
            }
            _emit(args, dumps(payload))
            return 1
    rows = [
        {"s": list(s), "bounded": b, "combinatorial": c, "total": b + scale * c}
        for s, b, c in weight_rows(cfg, lin, None if sc.s is None else [sc.s])
    ]
    stable = is_git_stable(cfg, lin, scale)
    payload = {
        "lin": [list(lift) for lift in lin.levels],
        "lin_source": lin_source,
        "l": scale,
        "rows": rows,
        "git_stable": stable,
    }
    if args.format == "text":
        lines = [
            f"lin ({lin_source}): {[tuple(x) for x in lin.levels]}  l={scale}",
            f"{'s':<16} {'bounded':>8} {'combinatorial':>14} {'total':>8}",
        ]
        for row in rows:
            lines.append(
                f"{str(row['s']):<16} {row['bounded']:>8} "
                f"{row['combinatorial']:>14} {row['total']:>8}"
            )
        lines.append(f"git_stable: {stable}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, dumps(payload))
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
        _emit(args, dumps(payload))
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
    _emit(args, dumps(payload))
    return 0


def _cmd_render(args) -> int:
    sc = _read_scenario(args)
    fibre = _scenario_fibre(sc)
    cfg = place(fibre, sc.points) if sc.points else None
    _emit(args, render_fibre(fibre, cfg, args.render_format))
    return 0


def _cmd_verify(args) -> int:
    for option, cap, largest in (("max-k", args.max_k, 5), ("max-m", args.max_m, 3)):
        if cap < 1:
            raise ValidationError(f"{option} must be >= 1, got {cap}")
        if cap > largest:  # the acceptance sizes; one step up is millions of cases
            raise ValidationError(f"{option} must be <= {largest}, got {cap}")
    results = run_all(max_k=args.max_k, max_m=args.max_m)
    ok = True
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        sys.stdout.write(f"[{status}] {r.name}: {r.detail}\n")
        ok = ok and r.ok
    return 0 if ok else 1


_ARGUMENTS = {
    "scenario": dict(help="scenario JSON file, or - for stdin"),
    "render_format": dict(choices=FORMATS),
    "--format": dict(choices=("json", "text"), default="json"),
    "--render": dict(choices=FORMATS, default=None,
                     help="also print a diagram in this format"),
    "--out": dict(default=None, help="write the report here"),
    "--allow-smooth": dict(action="store_true", help="accept height-0 scenarios"),
    "--max-k": dict(type=int, default=8, help="height cap for brute-force checks"),
    "--max-m": dict(type=int, default=4, help="multiplicity cap for brute-force checks"),
    "--l": dict(type=int, default=None, help="scale factor for the stability test"),
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
            "--format", "--render", "--out", "--allow-smooth", "--max-k", "--max-m")
    command("fiber", "dual complex of a fibre", _cmd_fiber, "scenario",
            "--format", "--render", "--out", "--allow-smooth")
    command("stability", "stability verdicts", _cmd_stability, "scenario",
            "--format", "--render", "--out")
    command("weights", "weight table for subgroups", _cmd_weights, "scenario",
            "--format", "--out", "--l")
    command("normalize", "normal form of a presentation", _cmd_normalize, "scenario",
            "--out")
    command("render", "diagram of a fibre", _cmd_render, "render_format", "scenario",
            "--out")
    command("verify", "run the invariant suites", _cmd_verify,
            "--max-k", "--max-m").set_defaults(max_k=4, max_m=2)
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
