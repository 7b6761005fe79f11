"""Scenario files: the JSON surface shared by the command line and tests.

A scenario describes a fibre (by cut set or base tuple), optional support
points, and optional weight-calculus inputs.  Heights are cross-checked
everywhere: every point triple must sum to the height and a tuple must be
consistent with an explicit height.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, NamedTuple

from .base import (
    BaseTuple,
    ClosedPoint,
    NormalForm,
    make_base_tuple,
    make_closed_point,
    normal_form,
)
from .configurations import PointConfiguration, StabilityReport, SupportPoint
from .dual_complex import ExpandedFibre, Location
from .errors import InvalidInput, ParseError, ValidationError
from .weights import Chart, LevelLift, Linearization, LocalMonomialScheme

if TYPE_CHECKING:  # only an annotation reads it; a command that runs no limit skips ``limits``
    from .limits import LimitReport

__all__ = [
    "Scenario",
    "parse_scenario",
    "scenario_to_json",
    "normal_form_to_json",
    "complex_to_json",
    "configuration_to_json",
    "stability_report_to_json",
    "limit_report_to_json",
    "dumps",
]


class Scenario(NamedTuple):
    height: int | None = None
    cuts: tuple[int, ...] | None = None
    tuple_: tuple[int, ...] | None = None
    points: tuple[SupportPoint, ...] = ()
    lin: Linearization | None = None
    s: tuple[int, ...] | None = None
    l: int | None = None
    entries: ClosedPoint | None = None

    def normal_form(self) -> NormalForm:
        """The fibre this scenario describes; requires cuts or a tuple."""
        presentation = self.presentation()
        if presentation is not None:
            return normal_form(presentation)
        if self.height is None:
            raise ValidationError("scenario has no height and no tuple")
        return NormalForm(self.height, self.cuts or ())

    def presentation(self) -> BaseTuple | None:
        """The tuple this scenario gives, if any; refuses height 0."""
        if self.height == 0:
            raise ValidationError("height 0 means no degeneration")
        return None if self.tuple_ is None else make_base_tuple(self.tuple_)


def _require_int(value, name: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def _parse_scheme(raw, context: str) -> LocalMonomialScheme:
    if not isinstance(raw, list):
        raise ValidationError(f"{context}: scheme must be a list of monomials")
    monomials = []
    for mono in raw:
        if not isinstance(mono, list):
            raise ValidationError(f"{context}: each monomial must be a list")
        pairs = []
        for entry in mono:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ValidationError(
                    f"{context}: monomial entries are [level, chart, exponent]"
                )
            level, chart, exp = entry
            _require_int(level, f"{context}: level", 1)
            _require_int(exp, f"{context}: exponent", 0)
            if chart not in ("delta1", "delta2"):
                raise ValidationError(f"{context}: chart must be delta1 or delta2")
            pairs.append(((level, Chart(chart)), exp))
        monomials.append(tuple(pairs))
    return LocalMonomialScheme.of(monomials)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario from JSON text."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("scenario must be a JSON object")

    height = None
    if "height" in raw:
        height = _require_int(raw["height"], "height", 0)

    tuple_ = None
    if "tuple" in raw:
        if not isinstance(raw["tuple"], list) or not raw["tuple"]:
            raise ValidationError("tuple must be a non-empty list")
        tuple_ = tuple(_require_int(g, "tuple entry", 0) for g in raw["tuple"])
        if height is not None and sum(tuple_) != height:
            raise ValidationError(
                f"tuple {list(tuple_)} sums to {sum(tuple_)}, height says {height}"
            )
        height = sum(tuple_)

    cuts = None
    if "cuts" in raw:
        if not isinstance(raw["cuts"], list):
            raise ValidationError("cuts must be a list")
        cuts = tuple(_require_int(s, "cut", 1) for s in raw["cuts"])
        if height is None:
            raise ValidationError("cuts given without a height")
        if list(cuts) != sorted(set(cuts)) or any(s >= height for s in cuts):
            raise ValidationError(
                f"cuts {list(cuts)} must increase strictly inside (0, {height})"
            )
        if tuple_ is not None and height:  # at height 0 both have no cuts
            derived = normal_form(make_base_tuple(tuple_))
            if derived.cuts != cuts:
                raise ValidationError(
                    f"tuple {list(tuple_)} induces cuts {list(derived.cuts)}, "
                    f"scenario says {list(cuts)}"
                )

    raw_points = raw.get("points", [])
    if not isinstance(raw_points, list):
        raise ValidationError("points must be a list")
    points = []
    for i, praw in enumerate(raw_points):
        if not isinstance(praw, dict) or "val" not in praw:
            raise ValidationError(f"point {i} must be an object with a val field")
        val = praw["val"]
        if not (isinstance(val, list) and len(val) == 3):
            raise ValidationError(f"point {i}: val must be a triple")
        triple = tuple(_require_int(e, f"point {i} valuation", 0) for e in val)
        mult = _require_int(praw.get("mult", 1), f"point {i} mult", 1)
        if height is None:
            raise ValidationError("points given without a height or tuple")
        if sum(triple) != height:
            raise ValidationError(
                f"point {i} valuations {list(triple)} sum to {sum(triple)}, "
                f"expected the height {height}"
            )
        scheme = None
        if "scheme" in praw:
            scheme = _parse_scheme(praw["scheme"], f"point {i}")
        points.append(SupportPoint(triple, mult, scheme))

    lin = None
    if "lin" in raw:
        if not isinstance(raw["lin"], list):
            raise ValidationError("lin must be a list of [a, b, c, d] rows")
        lifts = []
        for row in raw["lin"]:
            if not (isinstance(row, list) and len(row) == 4):
                raise ValidationError("each lin row is [a, b, c, d]")
            lifts.append(LevelLift(*(_require_int(x, "lift exponent", 0) for x in row)))
        try:
            lin = Linearization(tuple(lifts))
        except InvalidInput as exc:
            raise ValidationError(str(exc)) from exc

    s = None
    if "s" in raw:
        if not isinstance(raw["s"], list):
            raise ValidationError("s must be a list of integers")
        s = tuple(_require_int(x, "s entry") for x in raw["s"])

    l = None
    if "l" in raw:
        l = _require_int(raw["l"], "l", 1)

    entries = None
    if "entries" in raw:
        if not isinstance(raw["entries"], list):
            raise ValidationError("entries must be a list")
        parsed = []
        for e in raw["entries"]:
            if not isinstance(e, dict):
                raise ValidationError("each entry is an object")
            if e.get("zero"):
                parsed.append(None)
            elif "unit" in e:
                unit = e["unit"]
                if unit is None or isinstance(unit, bool) or unit == 0:
                    raise ValidationError(
                        f"entry unit {json.dumps(unit)} is not a unit label"
                    )
                parsed.append(unit)
            else:
                raise ValidationError(f"entry {e} is neither zero nor a unit")
        entries = make_closed_point(parsed)

    return Scenario(
        height=height,
        cuts=cuts,
        tuple_=tuple_,
        points=tuple(points),
        lin=lin,
        s=s,
        l=l,
        entries=entries,
    )


_encode_str = json.encoder.encode_basestring  # C: strings as ensure_ascii=False writes them


def dumps(payload) -> str:
    """Canonical JSON text: two-space indent, stable key order, newline.

    The text is exactly ``json.dumps(payload, indent=2, ensure_ascii=False)``
    and a newline.  ``json`` writes indented text in Python, one piece per
    token; here each container is joined at its indentation and each leaf is
    encoded in C.
    """
    return _indented(payload, "\n") + "\n"


def _indented(obj, newline: str) -> str:
    """``obj`` as ``dumps`` writes it, on a line that ``newline`` starts."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if set(map(type, obj)) == {int}:  # no bools, no int subclasses
            items = map(int.__repr__, obj)
        else:
            items = [_indented(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        try:
            items = [_encode_str(key) + ": " + _indented(value, inner)
                     for key, value in obj.items()]
        except TypeError:  # a key that is not a string, which json converts
            return json.dumps(obj, indent=2, ensure_ascii=False).replace("\n", newline)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) is int:
        return int.__repr__(obj)
    return json.dumps(obj)


def normal_form_to_json(nf: NormalForm) -> dict:
    return {"height": nf.height, "cuts": list(nf.cuts)}


def location_to_json(loc: Location) -> dict:
    return {"stratum": loc.stratum, "index": loc.index}


def complex_to_json(fibre: ExpandedFibre) -> dict:
    dc = fibre.dual_complex
    return {
        "height": fibre.height,
        "cuts": list(fibre.cuts),
        "vertices": [
            {
                "id": i,
                "kind": v.kind.value,
                "position": list(v.position),
                "levels": list(v.levels),
                "surface": v.surface_kind,
            }
            for i, v in enumerate(dc.vertices)
        ],
        "edges": [list(e) for e in dc.edges],
        "cells": [list(c) for c in dc.cells],
    }


def _scheme_to_json(scheme: LocalMonomialScheme) -> list:
    return [
        [[level, chart.value, exp] for (level, chart), exp in mono]
        for mono in scheme.monomials
    ]


def _point_to_json(p: SupportPoint) -> dict:
    out = {"val": list(p.valuations), "mult": p.multiplicity}
    if isinstance(p.scheme, LocalMonomialScheme):
        out["scheme"] = _scheme_to_json(p.scheme)
    return out


def configuration_to_json(cfg: PointConfiguration) -> dict:
    return {
        "height": cfg.height,
        "tuple": list(cfg.presentation.exponents),
        "cuts": list(cfg.fibre.cuts),
        "points": [
            {**_point_to_json(p), "placement": location_to_json(loc)}
            for p, loc in zip(cfg.points, cfg.placements)
        ],
    }


def stability_report_to_json(report: StabilityReport) -> dict:
    return {
        "admissible": report.admissible,
        "stabilizer_rank": report.stabilizer_rank,
        "lw_stable": report.lw_stable,
        "ws_stable": report.ws_stable,
        "sws_stable": report.sws_stable,
        "unoccupied_levels": list(report.unoccupied_levels),
    }


def limit_report_to_json(report: LimitReport) -> dict:
    return {
        "base_tuple": list(report.base_tuple.exponents),
        "normal_form": normal_form_to_json(report.fibre.nf),
        "configuration": configuration_to_json(report.configuration),
        "stability": stability_report_to_json(report.stability),
    }


def scenario_to_json(sc: Scenario) -> dict:
    out: dict = {}
    if sc.height is not None:
        out["height"] = sc.height
    if sc.tuple_ is not None:
        out["tuple"] = list(sc.tuple_)
    if sc.cuts is not None:
        out["cuts"] = list(sc.cuts)
    if sc.points:
        out["points"] = [_point_to_json(p) for p in sc.points]
    if sc.lin is not None:
        out["lin"] = [list(lift) for lift in sc.lin.levels]
    if sc.s is not None:
        out["s"] = list(sc.s)
    if sc.l is not None:
        out["l"] = sc.l
    if sc.entries is not None:  # a unit as its string: it parses to a label of the same value
        out["entries"] = [
            {"zero": True} if e is None else {"unit": str(e)} for e in sc.entries.entries
        ]
    return out
