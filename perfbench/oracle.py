"""Checks of each item's outcome against its oracle.

``check`` returns None when the outcome is right, else a one-line reason.

* ``reference``: the stored structured output of the same scenario.  An
  exact-backend report must equal it byte for byte; an approx one must
  pass, with every side within the report's own stated tolerance plus
  its certified tails of the stored value.
* ``approx-reference``: an approx-backend discrete report must pass, with
  every side within its stated tolerance of the stored exact-backend
  trace of the same scenario.
* ``multiplicity``: the multiplicity table and series length equal the
  construction's, and every Jordan-Hoelder check agreed.
* ``size-limit``: ``SizeLimit`` raised, from parsing or from the run.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_TOLERANCE = re.compile(r"<=\s*([0-9.eE+-]+)")


def _describe(outcome):
    if "emitted" in outcome:
        return "a report"
    return f"{outcome['error']} in {outcome['stage']}: {outcome['message']}"


def parse_exact(text: str) -> complex:
    """Value of a rendered Gaussian rational ("3/2-1/4i"), as a complex."""
    re_part, im_part = Fraction(0), Fraction(0)
    for sign, magnitude, imaginary in re.findall(r"([+-]?)(\d+(?:/\d+)?)?(i)?", text.replace(" ", "")):
        if not magnitude and not imaginary:
            continue
        value = Fraction(magnitude) if magnitude else Fraction(1)
        value = -value if sign == "-" else value
        if imaginary:
            im_part += value
        else:
            re_part += value
    return complex(float(re_part), float(im_part))


def _stated_tolerance(note: str) -> float:
    match = _TOLERANCE.search(note)
    if match is None:
        raise ValueError(f"no tolerance in {note!r}")
    return float(match.group(1))


def _check_torus(report, reference):
    """Sides and the bump anchor within tolerance + tails of the reference."""
    tol = _stated_tolerance(report["tolerances"]["residual"])
    slack = tol + sum(float(cell["value"]) for cell in report["tail_bounds"].values())
    for name, cell in reference["sides"].items():
        got = complex(report["sides"][name]["value"])
        if abs(got - complex(cell["value"])) > slack:
            return f"{name} {got} is more than {slack:.3e} from {cell['value']}"
    anchor, ref_anchor = report["extra"].get("bump_anchor"), reference["extra"].get("bump_anchor")
    if ref_anchor is not None:
        if anchor is None or not anchor["passed"]:
            return "bump anchor missing or failed"
        anchor_slack = tol + float(anchor["tail_spectral"]) + float(anchor["tail_geometric"])
        for key in ("spectral", "geometric"):
            if abs(complex(anchor[key]) - complex(ref_anchor[key])) > anchor_slack:
                return f"bump anchor {key} is more than {anchor_slack:.3e} from {ref_anchor[key]}"
    return None


def _check_discrete_approx(report, exact_trace: str):
    tol = _stated_tolerance(report["tolerances"]["sides"])
    expected = parse_exact(exact_trace)
    slack = tol * max(1.0, abs(expected))
    for name, cell in report["sides"].items():
        got = complex(cell["value"])
        if abs(got - expected) > slack:
            return f"{name} {got} is more than {slack:.3e} from the exact trace {exact_trace}"
    return None


def _check_multiplicity(report, oracle):
    rows = sorted([row["dim"], row["count"]] for row in report["multiplicities"])
    if rows != oracle["multiplicities"]:
        return f"multiplicities {rows} != construction {oracle['multiplicities']}"
    if len(report["extra"]["factor_dims"]) != oracle["length"]:
        return f"series length {len(report['extra']['factor_dims'])} != {oracle['length']}"
    checks = report["extra"]["jordan_hoelder_checks"]
    if len(checks) != len(rows) or not all(c["agreed"] for c in checks):
        return "a Jordan-Hoelder check did not agree"
    return None


def check(item, outcome, references):
    oracle = item["oracle"]
    kind = oracle["kind"]
    if kind == "size-limit":
        if outcome.get("error") == "SizeLimit":
            return None
        return f"expected SizeLimit, got {_describe(outcome)}"
    if "emitted" not in outcome:
        return f"raised {_describe(outcome)}"
    text = outcome["emitted"]
    report = json.loads(text)
    if kind == "reference":
        stored = references.get(item["id"])
        if stored is None:
            return "no stored reference"
        if json.loads(stored)["backend"] == "exact":
            return None if text == stored else "structured output differs from the stored reference"
        if not report["passed"]:
            return "report did not pass"
        return _check_torus(report, json.loads(stored))
    if not report["passed"]:
        return f"report did not pass: {report['failures'][:2]}"
    if kind == "approx-reference":
        stored = references.get(item["id"])
        if stored is None:
            return "no stored reference"
        return _check_discrete_approx(report, stored)
    if kind == "multiplicity":
        return _check_multiplicity(report, oracle)
    return f"unknown oracle {kind!r}"
