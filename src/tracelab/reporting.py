"""Scenario files, verification runs, and bit-stable reports.

Scenario files are JSON with exact scalars written as rational strings
("1/2-3/4i"), so exact-backend data never passes through binary floats.
A report renders every number together with the tolerance or tail bound
it is conditional on; the structured emission is canonical (sorted keys,
fixed separators) and deterministic for a fixed (scenario, seed), which
is why wall-clock timings appear only in the human-readable table.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, field

from .discrete import (
    DEFAULT_SIDE_TOLERANCE,
    DiscreteTestFunction,
    Twist,
    verify_discrete,
)
from .errors import ParseError, SchemaError, TraceLabError
from .groups import (
    FiniteGroup,
    FiniteIndexSubgroup,
    FreeAbelianGroup,
    FreeGroup,
    KernelSubgroup,
    finite_subgroup,
    lattice_subgroup,
)
from .linalg import Matrix
from .scalars import (
    APPROX,
    DEFAULT_CONTEXT,
    EXACT,
    ToleranceContext,
    coerce,
    format_complex,
    parse_gaussian_rational,
)
from .spectral import (
    composition_series_data,
    model as make_model,
    multiplicity_table,
    random_pi_filtration_length,
    spectrum,
)

DISCRETE_NORMALIZATION = {
    "measure": "counting measure on the group, the subgroup, and all quotients",
    "volume": "vol of a centralizer quotient = coset count",
    "orbital": "orbital integral = sum of f over the ambient conjugacy class",
}

TORUS_NORMALIZATION = {
    "measure": "Lebesgue on the line; lattice covolume 1",
    "transform": "F(xi) = integral f(x) exp(+2 pi i xi x) dx",
    "branch": "Re(theta) normalized into [0, 1); Im(theta) /= 0 is the non-unitary regime",
    "orbital": "point evaluation f(n); centralizers are everything (abelian)",
}


@dataclass(frozen=True)
class Scenario:
    id: str
    case: str
    backend: str
    payload: dict
    tolerance: float | None = None
    seed: int = 0
    path: str | None = None


@dataclass
class TraceReport:
    scenario_id: str
    case: str
    backend: str
    passed: bool
    sides: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    tail_bounds: dict = field(default_factory=dict)
    multiplicities: list = field(default_factory=list)
    normalization: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    seed: int = 0
    timings: dict = field(default_factory=dict)


# -- scenario loading ----------------------------------------------------------


def load_scenario(path) -> Scenario:
    """Parse and validate one scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror or exc}") from exc
    return parse_scenario(raw, path=str(path))


def parse_scenario(text: str, path: str | None = None) -> Scenario:
    # messages carry the location inside the text; callers name the file
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # integer digit limit, deep nesting
        raise ParseError(str(exc)) from exc
    if not isinstance(data, dict):
        raise SchemaError("scenario must be a JSON object")
    for key in ("id", "case"):
        if key not in data:
            raise SchemaError(f"missing required field {key!r}")
    case = data["case"]
    if case not in ("discrete", "torus", "spectral-model"):
        raise SchemaError(f"case: unknown case {case!r}")
    backend = data.get("backend", "approx" if case == "torus" else "exact")
    if backend not in (EXACT, APPROX):
        raise SchemaError(f"backend: must be 'exact' or 'approx', got {backend!r}")
    if case == "torus" and backend == EXACT:
        raise SchemaError("backend: the torus case is numeric; use 'approx'")
    tolerance = data.get("tolerance")
    if tolerance is not None:
        tolerance = _number(data, "tolerance", None, minimum=0)
    seed = _number(data, "seed", 0, integer=True)
    payload = {
        k: v
        for k, v in data.items()
        if k not in ("id", "case", "backend", "tolerance", "seed")
    }
    scenario = Scenario(
        str(data["id"]), case, backend, payload, tolerance, seed, path
    )
    # validate eagerly so schema errors surface before any computation
    _build_payload(scenario)
    return scenario


def _number(spec, key, default, where="", integer=False, minimum=None):
    """``spec[key]`` (``default`` when absent): a finite JSON number, an
    integer when ``integer``, at least ``minimum``.  Anything else is a
    schema error naming the field."""
    value = spec.get(key, default)
    if integer:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        try:
            ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
    if ok and minimum is not None:
        ok = value >= minimum
    if not ok:
        kind = "integer" if integer else "finite number"
        bound = "" if minimum is None else f" >= {minimum}"
        name = f"{where}.{key}" if where else key
        raise SchemaError(f"{name}: {kind}{bound} required, got {value!r}")
    return value if integer else float(value)


def _parse_scalar(value, backend: str, where: str):
    try:
        scalar = _scalar(value, backend, where)
        if backend == EXACT or cmath.isfinite(scalar):
            return scalar
    except OverflowError:  # an integer or rational beyond the float range
        pass
    raise SchemaError(f"{where}: approx scalar outside the float range")


def _scalar(value, backend: str, where: str):
    if isinstance(value, str):
        try:
            return coerce(parse_gaussian_rational(value), backend)
        except ParseError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    if isinstance(value, int):
        return coerce(value, backend)
    if backend == EXACT:
        raise SchemaError(
            f"{where}: exact scalars must be rational strings or integers, "
            f"got {value!r} (floats would launder precision)"
        )
    if isinstance(value, float):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        return complex(float(value[0]), float(value[1]))
    raise SchemaError(f"{where}: cannot parse approx scalar {value!r}")


def _parse_matrix(rows, backend: str, where: str) -> Matrix:
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{where}: matrix must be a nonempty list of rows")
    grid = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError(f"{where}[{i}]: matrix row must be a list")
        grid.append([_parse_scalar(x, backend, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    try:
        return Matrix(grid, backend)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _build_group(spec, where="group"):
    if not isinstance(spec, dict) or "family" not in spec:
        raise SchemaError(f"{where}: needs a 'family' field")
    family = spec["family"]
    if family == "finite":
        gens = spec.get("generators")
        if not isinstance(gens, list) or not gens:
            raise SchemaError(f"{where}.generators: required for finite groups")
        try:
            return FiniteGroup(gens, name=spec.get("name", "G"))
        except ValueError as exc:
            raise SchemaError(f"{where}.generators: {exc}") from exc
    if family == "free_abelian":
        rank = spec.get("rank")
        if not isinstance(rank, int) or rank < 1:
            raise SchemaError(f"{where}.rank: positive integer required")
        return FreeAbelianGroup(rank)
    if family == "free":
        rank = spec.get("rank")
        if not isinstance(rank, int) or rank < 1:
            raise SchemaError(f"{where}.rank: positive integer required")
        return FreeGroup(rank)
    raise SchemaError(f"{where}.family: unknown family {family!r}")


def _element(group, value, where):
    """A group element from the scenario, validated by its family."""
    try:
        return group.element(value)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _elements(group, values, where) -> list:
    if not isinstance(values, list) or not values:
        raise SchemaError(f"{where}: required, a nonempty list")
    return [_element(group, v, f"{where}[{i}]") for i, v in enumerate(values)]


def _build_subgroup(group, spec, where="subgroup") -> FiniteIndexSubgroup:
    if not isinstance(spec, dict):
        raise SchemaError(f"{where}: must be an object")
    name = spec.get("name", "Gamma")
    if group.kind == "finite":
        gens = _elements(group, spec.get("generators"), f"{where}.generators")
        return finite_subgroup(group, gens, name=name)
    if group.kind == "free_abelian":
        basis = _elements(group, spec.get("lattice_basis"), f"{where}.lattice_basis")
        try:
            return lattice_subgroup(group, basis, name=name)
        except ValueError as exc:
            raise SchemaError(f"{where}.lattice_basis: {exc}") from exc
    quotient_spec = spec.get("quotient")
    if not quotient_spec or "images" not in spec:
        raise SchemaError(f"{where}: free subgroups need 'quotient' and 'images'")
    quotient = _build_group(quotient_spec, where=f"{where}.quotient")
    if quotient.kind != "finite":
        raise SchemaError(f"{where}.quotient: must be a finite group")
    images = _elements(quotient, spec["images"], f"{where}.images")
    try:
        return KernelSubgroup(group, quotient, images, name=name)
    except (ValueError, TraceLabError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _build_twist(subgroup, spec, backend, where="twist") -> Twist:
    if not isinstance(spec, dict) or not isinstance(spec.get("images"), list):
        raise SchemaError(f"{where}.images: required, a list")
    images = [
        _parse_matrix(rows, backend, f"{where}.images[{i}]")
        for i, rows in enumerate(spec["images"])
    ]
    for i, im in enumerate(images):
        if im.rows != im.cols:
            raise SchemaError(f"{where}.images[{i}]: must be square")
    try:
        return Twist(subgroup, images, label=spec.get("label", "omega"))
    except (ValueError, TraceLabError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _build_test_function(spec, group, backend, where="test_function") -> DiscreteTestFunction:
    if not isinstance(spec, dict) or not isinstance(spec.get("support"), list):
        raise SchemaError(f"{where}.support: required, a list")
    pairs = []
    for i, item in enumerate(spec["support"]):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"{where}.support[{i}]: expected [element, coefficient]")
        element, coeff = item
        pairs.append((
            _element(group, element, f"{where}.support[{i}][0]"),
            _parse_scalar(coeff, backend, f"{where}.support[{i}][1]"),
        ))
    return DiscreteTestFunction(pairs, backend)


def _build_torus_twist(torus, spec, where="twist"):
    if not isinstance(spec, dict) or "blocks" not in spec:
        raise SchemaError(f"{where}.blocks: required")
    if not isinstance(spec["blocks"], list) or not spec["blocks"]:
        raise SchemaError(f"{where}.blocks: nonempty list required")
    blocks = []
    for i, block in enumerate(spec["blocks"]):
        if not isinstance(block, dict):
            raise SchemaError(f"{where}.blocks[{i}]: must be an object")
        eigen = _parse_scalar(block.get("eigenvalue"), APPROX, f"{where}.blocks[{i}].eigenvalue")
        size = block.get("size", 1)
        if not isinstance(size, int) or size < 1:
            raise SchemaError(f"{where}.blocks[{i}].size: positive integer required")
        if eigen == 0:
            raise SchemaError(f"{where}.blocks[{i}].eigenvalue: monodromy singular")
        blocks.append((eigen, size))
    return torus.TorusTwist(tuple(blocks))


def _build_torus_function(torus, spec, where="test_function"):
    if not isinstance(spec, dict):
        raise SchemaError(f"{where}: must be an object")
    kind = spec.get("kind", "gaussian")
    try:
        if kind == "gaussian":
            return torus.GaussianTestFunction(
                width=_number(spec, "width", 1.0, where),
                center=_number(spec, "center", 0.0, where),
            )
        if kind == "bump":
            return torus.BumpTestFunction(radius=_number(spec, "radius", 1.0, where))
    except ValueError as exc:  # a nonpositive width or radius
        raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}.kind: unknown kind {kind!r}")


def _build_anchor(torus, spec, where="bump_anchor"):
    """(bump test function, K) of the anchor run; None when switched off."""
    if not spec:
        return None
    if not isinstance(spec, dict):
        raise SchemaError(f"{where}: must be an object")
    f = _build_torus_function(
        torus, {"kind": "bump", "radius": spec.get("radius", 1.75)}, where
    )
    return f, _number(spec, "K", 32, where, integer=True, minimum=0)


def _build_payload(scenario: Scenario, backend_override: str | None = None):
    backend = backend_override or scenario.backend
    payload = scenario.payload
    if scenario.case == "discrete":
        group = _build_group(payload.get("group"), "group")
        subgroup = _build_subgroup(group, payload.get("subgroup"), "subgroup")
        twist = _build_twist(subgroup, payload.get("twist"), backend, "twist")
        f = _build_test_function(payload.get("test_function"), group, backend, "test_function")
        return {"subgroup": subgroup, "twist": twist, "f": f, "backend": backend}
    if scenario.case == "torus":
        # the circle case loads here, when a torus scenario is parsed; the
        # torus builders take the module from this branch
        from . import torus

        twist = _build_torus_twist(torus, payload.get("twist"), "twist")
        f = _build_torus_function(torus, payload.get("test_function"), "test_function")
        trunc = payload.get("truncation", {})
        if not isinstance(trunc, dict):
            raise SchemaError("truncation: must be an object")
        params = torus.TruncationParams(
            K=_number(trunc, "K", 8, "truncation", integer=True, minimum=0),
            N=_number(trunc, "N", 8, "truncation", integer=True, minimum=0),
        )
        return {
            "twist": twist,
            "f": f,
            "params": params,
            "anchor": _build_anchor(
                torus, payload.get("bump_anchor", {"radius": 1.75, "K": 32})
            ),
            "backend": APPROX,
        }
    # spectral-model
    if "generators" not in payload or "delta" not in payload:
        raise SchemaError("spectral-model scenarios need 'generators' and 'delta'")
    if not isinstance(payload["generators"], list) or not payload["generators"]:
        raise SchemaError("generators: nonempty list of matrices required")
    gens = [
        _parse_matrix(rows, backend, f"generators[{i}]")
        for i, rows in enumerate(payload["generators"])
    ]
    delta_spec = payload["delta"]
    if isinstance(delta_spec, dict) and "scalar" in delta_spec:
        value = _parse_scalar(delta_spec["scalar"], backend, "delta.scalar")
        delta = Matrix.identity(gens[0].rows, backend).scale(value)
    else:
        delta = _parse_matrix(delta_spec, backend, "delta")
    for i, g in enumerate(gens):
        if g.shape != delta.shape:
            raise SchemaError(f"generators[{i}]: shape differs from delta")
        if not g.is_invertible():
            raise SchemaError(f"generators[{i}]: singular generator image")
    return {"generators": gens, "delta": delta, "backend": backend}


# -- rendering helpers ----------------------------------------------------------


def render_scalar(value, backend: str) -> str:
    if value is None:
        return "n/a"
    if backend == EXACT:
        return str(value)
    return format_complex(complex(value))


def _valued(value: str, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


# -- runners ---------------------------------------------------------------------


def run(
    scenario: Scenario,
    backend_override: str | None = None,
    tolerance_override: float | None = None,
    seed_override: int | None = None,
) -> TraceReport:
    """Run one scenario and collect a report (deterministic given seed)."""
    seed = scenario.seed if seed_override is None else seed_override
    tolerance = (
        scenario.tolerance if tolerance_override is None else tolerance_override
    )
    started = time.perf_counter()
    if scenario.case == "discrete":
        report = _run_discrete(scenario, backend_override, tolerance, seed)
    elif scenario.case == "torus":
        if backend_override == EXACT:
            raise SchemaError("backend: the torus case is numeric; use 'approx'")
        report = _run_torus(scenario, tolerance, seed)
    else:
        report = _run_spectral_model(scenario, backend_override, tolerance, seed)
    report.timings["total_seconds"] = time.perf_counter() - started
    report.seed = seed
    return report


def _run_discrete(scenario, backend_override, tolerance, seed) -> TraceReport:
    built = _build_payload(scenario, backend_override)
    backend = built["backend"]
    context = ToleranceContext()
    verification = verify_discrete(
        built["subgroup"], built["twist"], built["f"], context, tolerance
    )
    tol_note = (
        "exact equality required"
        if backend == EXACT
        else f"|difference| <= {tolerance if tolerance is not None else DEFAULT_SIDE_TOLERANCE:g} * max(1, scale)"
    )
    report = TraceReport(
        scenario_id=scenario.id,
        case="discrete",
        backend=backend,
        passed=verification.passed,
        normalization=dict(DISCRETE_NORMALIZATION),
        tolerances={"sides": tol_note, "ambient_eps": f"{context.eps:g}"},
        failures=list(verification.failures),
    )
    for name, value in (
        ("direct_trace", verification.direct_trace),
        ("spectral_side", verification.spectral_side),
        ("geometric_side", verification.geometric_side),
    ):
        report.sides[name] = _valued(render_scalar(value, backend), tol_note)
    if verification.spectral_side is not None:
        if backend == EXACT:
            res_sp = render_scalar(
                verification.spectral_side - verification.direct_trace, backend
            )
        else:
            res_sp = repr(abs(verification.spectral_side - verification.direct_trace))
        report.residuals["direct_vs_spectral"] = _valued(res_sp, tol_note)
    if backend == EXACT:
        res_geo = render_scalar(
            verification.geometric_side - verification.direct_trace, backend
        )
    else:
        res_geo = repr(abs(verification.geometric_side - verification.direct_trace))
    report.residuals["direct_vs_geometric"] = _valued(res_geo, tol_note)
    for cls, count in verification.table.entries:
        report.multiplicities.append(
            {"pi": cls.key_string(), "dim": cls.dim, "count": count}
        )
    report.extra["geometric_terms"] = [
        {
            "representative": list(term.representative),
            "volume": term.volume,
            "orbital": render_scalar(term.orbital, backend),
            "twist_trace": render_scalar(term.twist_trace, backend),
            "value": render_scalar(term.value, backend),
        }
        for term in verification.geometric_terms
    ]
    return report


def _fail_if_vacuous(report, verification, what: str):
    """Fail a torus report whose tails are too large, against both sides,
    for its PASS to mean anything."""
    tails = verification.tail_spectral + verification.tail_geometric
    scale = max(abs(verification.spectral_value), abs(verification.geometric_value))
    if DEFAULT_CONTEXT.is_vacuous(tails, scale):
        report.passed = False
        report.failures.append(
            f"vacuous: {what} {tails!r} exceed {DEFAULT_CONTEXT.VACUITY_RATIO:g} of "
            f"max(|spectral|, |geometric|, 1), where max(|spectral|, |geometric|) = {scale!r}"
        )


def _run_torus(scenario, tolerance, seed) -> TraceReport:
    from . import torus

    built = _build_payload(scenario)
    tol_value = 1e-10 if tolerance is None else tolerance
    verification = torus.verify_torus(
        built["twist"], built["f"], built["params"], tol_value
    )
    tol_note = f"residual <= {tol_value:g} + tail_spectral + tail_geometric"
    report = TraceReport(
        scenario_id=scenario.id,
        case="torus",
        backend=APPROX,
        passed=verification.passed,
        normalization=dict(TORUS_NORMALIZATION),
        tolerances={"residual": tol_note},
    )
    report.sides["spectral_side"] = _valued(
        format_complex(verification.spectral_value), tol_note
    )
    report.sides["geometric_side"] = _valued(
        format_complex(verification.geometric_value), tol_note
    )
    report.residuals["spectral_vs_geometric"] = _valued(
        repr(verification.residual), tol_note
    )
    report.tail_bounds["spectral"] = _valued(
        repr(verification.tail_spectral),
        f"certified truncation at K={verification.params.K}",
    )
    report.tail_bounds["geometric"] = _valued(
        repr(verification.tail_geometric),
        f"certified truncation at N={verification.params.N}",
    )
    for theta, m in built["twist"].theta_data():
        report.multiplicities.append(
            {
                "pi": f"characters exp(2 pi i (theta + k) x), theta={format_complex(theta)}",
                "dim": 1,
                "count": m,
            }
        )
    if not verification.passed:
        report.failures.append(
            f"residual {verification.residual!r} exceeds tolerance+tails"
        )
    _fail_if_vacuous(report, verification, "tails")
    # compactly supported anchor run for the same twist
    if built["anchor"]:
        anchor_f, anchor_k = built["anchor"]
        anchor_params = torus.TruncationParams(K=anchor_k, N=built["params"].N)
        try:
            anchor = torus.verify_torus(built["twist"], anchor_f, anchor_params, tol_value)
        except TraceLabError as exc:
            raise type(exc)(f"bump anchor: {exc}") from exc
        report.extra["bump_anchor"] = {
            "spectral": format_complex(anchor.spectral_value),
            "geometric": format_complex(anchor.geometric_value),
            "residual": repr(anchor.residual),
            "tail_spectral": repr(anchor.tail_spectral),
            "tail_geometric": repr(anchor.tail_geometric),
            "passed": anchor.passed,
            "provenance": "compact-support anchor (trapezoid transform, certified aliasing)",
        }
        if not anchor.passed:
            report.passed = False
            report.failures.append("bump anchor run failed")
        _fail_if_vacuous(report, anchor, "bump anchor tails")
    return report


def _run_spectral_model(scenario, backend_override, tolerance, seed) -> TraceReport:
    built = _build_payload(scenario, backend_override)
    backend = built["backend"]
    m = make_model(built["generators"], built["delta"], label=scenario.id)
    report = TraceReport(
        scenario_id=scenario.id,
        case="spectral-model",
        backend=backend,
        passed=True,
        normalization={"note": "model-level property run"},
        tolerances={"ambient_eps": f"{m.context.eps:g}"},
    )
    spec_rows = []
    for lam, data in spectrum(m):
        spec_rows.append(
            {
                "eigenvalue": render_scalar(lam, backend),
                "dim": data.dim,
                "blocks": list(data.block_sizes),
                "index": data.index,
            }
        )
    report.extra["delta_spectrum"] = spec_rows
    series = composition_series_data(m)
    table = multiplicity_table(m, series)
    for cls, count in table.entries:
        report.multiplicities.append(
            {"pi": cls.key_string(), "dim": cls.dim, "count": count}
        )
    checks = []
    for cls, count in table.entries:
        search = random_pi_filtration_length(m, cls, trials=3, seed=seed)
        agreed = search.certified and search.length == count
        checks.append(
            {
                "pi": cls.key_string(),
                "series_count": count,
                "random_filtration_length": search.length,
                "certified": search.certified,
                "agreed": agreed,
            }
        )
        if not agreed:
            report.passed = False
            report.failures.append(
                f"filtration length {search.length} (certified={search.certified}) "
                f"!= multiplicity {count} for {cls.key_string()}"
            )
    report.extra["jordan_hoelder_checks"] = checks
    report.extra["factor_dims"] = [f.dim for f in series.factors]
    return report


# -- emission --------------------------------------------------------------------


def structured_payload(report: TraceReport) -> dict:
    """Canonical dict for machine emission (timings excluded: volatile)."""
    return {
        "scenario_id": report.scenario_id,
        "case": report.case,
        "backend": report.backend,
        "passed": report.passed,
        "sides": report.sides,
        "residuals": report.residuals,
        "tail_bounds": report.tail_bounds,
        "multiplicities": report.multiplicities,
        "normalization": report.normalization,
        "tolerances": report.tolerances,
        "failures": report.failures,
        "extra": report.extra,
        "seed": report.seed,
    }


def emit(report: TraceReport, fmt: str = "table") -> str:
    """Render a report: 'structured' (canonical JSON) or 'table' (fixed width)."""
    if fmt == "structured":
        return json.dumps(
            structured_payload(report),
            sort_keys=True,
            indent=2,
            separators=(",", ": "),
        ) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    width = 78
    lines = []
    status = "PASS" if report.passed else "FAIL"
    lines.append("=" * width)
    lines.append(f"{report.scenario_id}  [{report.case}/{report.backend}]  {status}")
    lines.append("-" * width)
    for name, cell in report.sides.items():
        lines.append(f"  {name:<22} {cell['value']}")
    for name, cell in report.residuals.items():
        lines.append(f"  residual {name:<13} {cell['value']}")
    for name, cell in report.tail_bounds.items():
        lines.append(f"  tail {name:<17} {cell['value']}  ({cell['provenance']})")
    if report.multiplicities:
        lines.append("  multiplicities:")
        for row in report.multiplicities:
            lines.append(
                f"    N={row['count']:<3} dim={row['dim']:<3} {row['pi'][:54]}"
            )
    for key, note in report.tolerances.items():
        lines.append(f"  tolerance[{key}]: {note}")
    for key, note in report.normalization.items():
        lines.append(f"  normalization[{key}]: {note}")
    if report.failures:
        lines.append("  failures:")
        for failure in report.failures:
            lines.append(f"    ! {failure}")
    if "bump_anchor" in report.extra:
        anchor = report.extra["bump_anchor"]
        lines.append(
            f"  bump anchor: residual {anchor['residual']} "
            f"(tails {anchor['tail_spectral']}/{anchor['tail_geometric']}) "
            f"{'PASS' if anchor['passed'] else 'FAIL'}"
        )
    if report.timings:
        for key, value in report.timings.items():
            lines.append(f"  timing[{key}]: {value:.3f}s")
    lines.append("=" * width)
    return "\n".join(lines) + "\n"
