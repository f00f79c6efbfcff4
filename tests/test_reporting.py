import copy
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracelab.cli import bundled_scenario_paths, main
from tracelab.errors import FloatRangeExceeded, ParseError, SchemaError, TraceLabError
from tracelab.reporting import emit, load_scenario, parse_scenario, run, structured_payload


def minimal_torus_scenario(**overrides):
    base = {
        "id": "tiny-torus",
        "case": "torus",
        "backend": "approx",
        "twist": {"blocks": [{"eigenvalue": [1.0, 0.0], "size": 1}]},
        "test_function": {"kind": "gaussian"},
        "truncation": {"K": 4, "N": 4},
    }
    base.update(overrides)
    return json.dumps(base)


def jordan_scenario_text():
    return json.dumps(
        {
            "id": "jordan",
            "case": "discrete",
            "backend": "exact",
            "group": {"family": "free_abelian", "rank": 1},
            "subgroup": {"lattice_basis": [[2]]},
            "twist": {"images": [[["1", "1"], ["0", "1"]]]},
            "test_function": {"support": [[[2], "1"]]},
        }
    )


def bundled_scenario(name):
    path = next(p for p in bundled_scenario_paths() if p.name == f"{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def with_fields(data, fields):
    """A deep copy of a scenario with each (key path -> value) replaced."""
    data = copy.deepcopy(data)
    for keys, value in fields.items():
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return data


SUPPORT_ELEMENT = ("test_function", "support", 0, 0)
IDENTITY_2 = [["1", "0"], ["0", "1"]]

# malformed discrete inputs: (bundled scenario, replaced fields); each must
# be an input error, never a PASS, a math failure or a traceback
MALFORMED_DISCRETE = {
    "rank1-support-too-long": ("disc-z-mod-2z-jordan", {SUPPORT_ELEMENT: [1, 2]}),
    "rank1-basis-row-too-long": (
        "disc-z-mod-2z-jordan", {("subgroup", "lattice_basis"): [[2, 1]]}
    ),
    "support-float": ("disc-z-mod-2z-jordan", {SUPPORT_ELEMENT: [1.5]}),
    "group-generators-not-list": ("disc-s3-a3-plane", {("group", "generators"): 5}),
    "s3-support-short": ("disc-s3-a3-plane", {SUPPORT_ELEMENT: [0, 1]}),
    "s3-subgroup-generator-short": (
        "disc-s3-a3-plane", {("subgroup", "generators", 0): [0, 1]}
    ),
    "f2-letter-zero": ("disc-f2-mod2-kernel", {SUPPORT_ELEMENT: [0]}),
    "f2-letter-out-of-range": ("disc-f2-mod2-kernel", {SUPPORT_ELEMENT: [3]}),
    "twist-unequal-sizes": (
        "disc-z2-mod-2z2", {("twist", "images"): [[["1"]], IDENTITY_2]}
    ),
    "twist-wrong-count": (
        "disc-z-mod-2z-jordan", {("twist", "images"): [IDENTITY_2, IDENTITY_2]}
    ),
    "twist-zero-denominator": (
        "disc-z-mod-2z-jordan", {("twist", "images", 0, 0, 0): "1/0"}
    ),
    "approx-pair-not-numbers": (
        "disc-z-mod-2z-jordan",
        {("backend",): "approx", ("twist", "images", 0, 0, 0): ["a", 1]},
    ),
    "twist-ragged": ("disc-z-mod-2z-jordan", {("twist", "images", 0, 1): ["1"]}),
    "approx-twist-ragged": (
        "disc-z-mod-2z-jordan",
        {("backend",): "approx", ("twist", "images", 0, 1): ["1"]},
    ),
}

# the structured text the benchmark stores for every bundled scenario
SUITE_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "suite.json"
# and for every variant of its exact ladder
LADDER_REFERENCE = SUITE_REFERENCE.with_name("ladder-exact.json")
# sha256 of the structured reports of the 13 non-torus bundled scenarios,
# concatenated in bundle order; they use integer arithmetic only, so the
# digest holds on any machine.  A change that means to alter these reports
# updates it and says so.
EXACT_SUITE_SHA256 = "5d55bf56e5e30e3723388d633d29e92dd2a119d623e54a915a75efc346544cd5"


def benchmark_workloads():
    """The benchmark's scenario generators, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", SUITE_REFERENCE.parents[1] / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLoading:
    def test_minimal_torus_defaults(self):
        scenario = parse_scenario(minimal_torus_scenario())
        assert scenario.case == "torus"
        assert scenario.backend == "approx"

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError) as info:
            parse_scenario("{ not json")
        assert ":" in str(info.value)

    def test_singular_monodromy_schema_error(self):
        text = minimal_torus_scenario(
            twist={"blocks": [{"eigenvalue": [0.0, 0.0], "size": 1}]}
        )
        with pytest.raises(SchemaError) as info:
            parse_scenario(text)
        assert "monodromy singular" in str(info.value)

    def test_schema_error_names_field(self):
        bad = json.loads(jordan_scenario_text())
        bad["twist"]["images"][0][0][0] = "not-a-scalar"
        with pytest.raises(SchemaError) as info:
            parse_scenario(json.dumps(bad))
        assert "twist.images[0]" in str(info.value)

    def test_float_in_exact_scenario_rejected(self):
        bad = json.loads(jordan_scenario_text())
        bad["test_function"]["support"][0][1] = 0.5
        with pytest.raises(SchemaError) as info:
            parse_scenario(json.dumps(bad))
        assert "launder" in str(info.value)

    def test_unknown_case_rejected(self):
        with pytest.raises(SchemaError):
            parse_scenario(json.dumps({"id": "x", "case": "mystery"}))

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(jordan_scenario_text(), encoding="utf-8")
        scenario = load_scenario(path)
        assert scenario.id == "jordan"
        report = run(scenario)
        assert report.passed


class TestRun:
    def test_bundled_jordan_matches_contract(self):
        scenario = parse_scenario(jordan_scenario_text())
        report = run(scenario)
        assert report.passed
        assert report.sides["direct_trace"]["value"] == "4"
        assert report.sides["spectral_side"]["value"] == "4"
        assert report.sides["geometric_side"]["value"] == "4"
        rows = {(r["dim"], r["count"]) for r in report.multiplicities}
        assert rows == {(1, 2)}

    def test_zero_tolerance_on_approx_forces_failure(self):
        scenario = parse_scenario(jordan_scenario_text())
        report = run(scenario, backend_override="approx", tolerance_override=0.0)
        # the residual is tiny but the tolerance semantics demand > 0 slack
        assert not report.passed
        assert any("TraceMismatch" in f and "tolerance" in f for f in report.failures)

    def test_determinism_byte_identical(self):
        scenario = parse_scenario(minimal_torus_scenario())
        first = emit(run(scenario, seed_override=3), "structured")
        second = emit(run(scenario, seed_override=3), "structured")
        assert first == second

    def test_structured_emit_parse_emit_identity(self):
        scenario = parse_scenario(minimal_torus_scenario())
        text = emit(run(scenario), "structured")
        rehydrated = json.dumps(
            json.loads(text), sort_keys=True, indent=2, separators=(",", ": ")
        ) + "\n"
        assert rehydrated == text

    def test_table_contains_pass_and_values(self):
        scenario = parse_scenario(minimal_torus_scenario())
        table = emit(run(scenario), "table")
        assert "PASS" in table
        assert "spectral_side" in table and "geometric_side" in table
        assert "residual" in table

    def test_every_numeric_has_provenance(self):
        scenario = parse_scenario(jordan_scenario_text())
        payload = structured_payload(run(scenario))
        for section in ("sides", "residuals", "tail_bounds"):
            for cell in payload[section].values():
                assert set(cell) == {"value", "provenance"}
                assert cell["provenance"]

    def test_spectral_model_run(self):
        scenario = parse_scenario(
            json.dumps(
                {
                    "id": "model",
                    "case": "spectral-model",
                    "backend": "exact",
                    "generators": [[["1", "1"], ["0", "1"]]],
                    "delta": {"scalar": "2"},
                }
            )
        )
        report = run(scenario)
        assert report.passed
        assert report.extra["factor_dims"] == [1, 1]
        checks = report.extra["jordan_hoelder_checks"]
        assert all(c["agreed"] for c in checks)


class TestCli:
    def test_bundle_is_at_least_the_contracted_size(self):
        paths = bundled_scenario_paths()
        discrete = [p for p in paths if p.name.startswith("disc-")]
        torus = [p for p in paths if p.name.startswith("torus-")]
        assert len(discrete) >= 8
        assert len(torus) >= 3

    def test_verify_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(jordan_scenario_text(), encoding="utf-8")
        assert main(["verify", str(good)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["verify", str(bad)]) == 2

    def test_input_error_names_the_file_once(self, tmp_path, capsys):
        truncated = tmp_path / "trunc.json"
        truncated.write_text('{"id": 1,', encoding="utf-8")
        missing = tmp_path / "missing.json"
        for path, detail in ((truncated, "line 1: "), (missing, "cannot read: ")):
            assert main(["verify", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {path}: {detail}")
            assert err.count(path.name) == 1

    def test_verify_math_failure_exit_one(self, tmp_path):
        path = tmp_path / "forced.json"
        path.write_text(jordan_scenario_text(), encoding="utf-8")
        assert main(["verify", str(path), "--backend", "approx", "--tolerance", "0"]) == 1

    def test_jobs_preserve_input_order(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        first.write_text(jordan_scenario_text().replace("jordan", "alpha"), encoding="utf-8")
        second.write_text(jordan_scenario_text().replace("jordan", "beta"), encoding="utf-8")
        assert main(["verify", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert out.index("alpha") < out.index("beta")

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    def test_singular_generator_is_input_error(self, tmp_path, capsys, backend):
        path = tmp_path / "singular.json"
        path.write_text(
            json.dumps(
                {
                    "id": "singular",
                    "case": "spectral-model",
                    "backend": backend,
                    "generators": [[["1", "0"], ["0", "0"]]],
                    "delta": {"scalar": "2"},
                }
            ),
            encoding="utf-8",
        )
        assert main(["verify", str(path)]) == 2
        assert "generators[0]: singular generator image" in capsys.readouterr().err

    def test_unsigned_second_term_is_input_error(self, tmp_path, capsys):
        # a typo in an entry is an input error, not some other model
        path = tmp_path / "typo.json"
        path.write_text(
            json.dumps(
                {
                    "id": "typo",
                    "case": "spectral-model",
                    "backend": "exact",
                    "generators": [[["1 2", "0"], ["0", "1"]]],
                    "delta": {"scalar": "2"},
                }
            ),
            encoding="utf-8",
        )
        assert main(["verify", str(path)]) == 2
        assert "'1 2'" in capsys.readouterr().err

    def test_filtration_requires_model_case(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(minimal_torus_scenario(), encoding="utf-8")
        assert main(["filtration", str(path)]) == 2

    def test_filtration_runs_bundled_model(self, capsys):
        path = next(
            p for p in bundled_scenario_paths() if p.name.startswith("model-")
        )
        assert main(["filtration", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_torus_cannot_be_promoted_to_exact(self):
        scenario = parse_scenario(minimal_torus_scenario())
        with pytest.raises(SchemaError):
            run(scenario, backend_override="exact")

    def test_suite_command(self, capsys):
        # smoke: the bundled suite passes end to end through the CLI
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 15

    def test_module_entry_point_runs_the_suite(self):
        # ``python -m tracelab`` works from a source checkout, where the
        # ``tracelab`` script may not be installed
        import tracelab

        env = dict(os.environ, PYTHONPATH=str(Path(tracelab.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "tracelab", "suite", "--emit", "structured"],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
        # the reports are pretty-printed JSON documents, one after another
        text, reports = done.stdout, []
        pos = len(text) - len(text.lstrip())
        while pos < len(text):
            report, end = json.JSONDecoder().raw_decode(text, pos)
            reports.append(report)
            pos = len(text) - len(text[end:].lstrip())
        assert len(reports) == len(bundled_scenario_paths()) == 17
        assert all(report["passed"] for report in reports)

    def test_suite_exact_output_is_the_stored_reference(self):
        # exact output is byte-identical across changes that do not mean to
        # alter it; the torus scenarios are approx and checked elsewhere
        stored = json.loads(SUITE_REFERENCE.read_text(encoding="utf-8"))
        exact = {name: text for name, text in stored.items() if json.loads(text)["backend"] == "exact"}
        assert len(exact) == 13
        paths = {path.stem: path for path in bundled_scenario_paths()}
        for name, text in exact.items():
            assert emit(run(load_scenario(paths[name])), "structured") == text, name

    def test_exact_suite_output_has_the_pinned_digest(self):
        paths = [p for p in bundled_scenario_paths() if not p.name.startswith("torus-")]
        assert len(paths) == 13
        text = "".join(emit(run(load_scenario(p)), "structured") for p in paths)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EXACT_SUITE_SHA256

    def test_exact_ladder_output_is_the_stored_reference(self):
        # the Z/nZ Jordan items call the radical/commutant backstop 11 times
        # a variant, 3 of them returning a submodule; the bundled suite, 7
        stored = json.loads(LADDER_REFERENCE.read_text(encoding="utf-8"))
        workloads = benchmark_workloads()
        scenarios = [
            s for v in range(workloads.LADDER_VARIANTS) for s in workloads.ladder_scenarios("exact", v)
        ]
        assert sorted(s["id"] for s in scenarios) == sorted(stored)
        for s in scenarios:
            report = run(parse_scenario(json.dumps(s, sort_keys=True)))
            assert emit(report, "structured") == stored[s["id"]], s["id"]

    def test_approx_suite_emits_no_numpy_scalars(self, capsys):
        # every scalar an approx matrix hands back is a Python complex, so
        # no numpy repr such as np.float64(...) reaches a report
        assert main(["suite", "--backend", "approx", "--emit", "structured"]) in (0, 1)
        out = capsys.readouterr().out
        assert out.startswith("{") and "np." not in out


class TestMalformedDiscrete:
    @pytest.mark.parametrize("case", sorted(MALFORMED_DISCRETE))
    def test_input_error_exit_two(self, tmp_path, capsys, case):
        name, fields = MALFORMED_DISCRETE[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(with_fields(bundled_scenario(name), fields)), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: {path}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["twist-ragged", "approx-twist-ragged"])
    def test_ragged_twist_image_is_named(self, tmp_path, capsys, case):
        name, fields = MALFORMED_DISCRETE[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(with_fields(bundled_scenario(name), fields)), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "ragged matrix" in capsys.readouterr().err

    FUZZ_TARGETS = [
        ("disc-s3-a3-plane", ("group", "generators")),
        ("disc-s3-a3-plane", ("subgroup", "generators")),
        ("disc-s3-a3-plane", ("twist", "images")),
        ("disc-s3-a3-plane", SUPPORT_ELEMENT),
        ("disc-z-mod-2z-jordan", ("subgroup", "lattice_basis")),
        ("disc-z2-mod-2z2", ("subgroup", "lattice_basis")),
        ("disc-z2-mod-2z2", ("twist", "images")),
        ("disc-z2-mod-2z2", SUPPORT_ELEMENT),
        ("disc-f2-mod2-kernel", ("subgroup", "images")),
        ("disc-f2-mod2-kernel", ("twist", "images")),
        ("disc-f2-mod2-kernel", SUPPORT_ELEMENT),
    ]

    # Integers stay small: a lattice basis of huge determinant is valid
    # input whose whole transversal is built at parse time.
    JSON_VALUES = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-16, 16)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=12,
    )

    # values shaped like elements, element lists and matrix lists, so that
    # some of them get past the first checks
    VECTORS = st.lists(st.integers(-3, 3), max_size=4) | st.integers(0, 4).flatmap(
        lambda n: st.permutations(range(n))
    ).map(list)
    ENTRIES = st.integers(-2, 2) | st.sampled_from(["1", "-1", "1/2", "i", "1/0"])
    SHAPED = (
        VECTORS
        | st.lists(VECTORS, max_size=3)
        | st.lists(
            st.lists(st.lists(ENTRIES, min_size=1, max_size=2), max_size=2), max_size=3
        )
    )

    @settings(max_examples=200, deadline=None)
    @given(target=st.sampled_from(FUZZ_TARGETS), value=JSON_VALUES | SHAPED)
    def test_only_input_errors_escape_parse(self, target, value):
        name, keys = target
        text = json.dumps(with_fields(bundled_scenario(name), {keys: value}))
        try:
            parse_scenario(text)
        except (ParseError, SchemaError):
            pass


    def test_huge_json_integer_is_input_error(self, tmp_path, capsys):
        # json.loads refuses integer literals past Python's digit limit
        text = json.dumps(bundled_scenario("disc-z-mod-2z-jordan"))
        text = text.replace('"support": [[[', '"support": [[[' + "9" * 5000 + "], [", 1)
        path = tmp_path / "huge.json"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: {path}: ")
        assert "digits" in captured.err


# malformed torus inputs: (top-level overrides of the minimal torus
# scenario, the JSON path the error must name)
MALFORMED_TORUS = {
    "width-string": (
        {"test_function": {"kind": "gaussian", "width": "abc"}}, "test_function.width"
    ),
    "width-zero": ({"test_function": {"kind": "gaussian", "width": 0}}, "test_function"),
    "center-list": ({"test_function": {"kind": "gaussian", "center": [1]}}, "test_function.center"),
    "center-bool": (
        {"test_function": {"kind": "gaussian", "center": True}}, "test_function.center"
    ),
    "radius-string": ({"test_function": {"kind": "bump", "radius": "x"}}, "test_function.radius"),
    "radius-negative": ({"test_function": {"kind": "bump", "radius": -1}}, "test_function"),
    "K-string": ({"truncation": {"K": "x", "N": 4}}, "truncation.K"),
    "N-fraction": ({"truncation": {"K": 4, "N": 2.5}}, "truncation.N"),
    "N-negative": ({"truncation": {"K": 4, "N": -1}}, "truncation.N"),
    "truncation-list": ({"truncation": [4, 4]}, "truncation"),
    "anchor-list": ({"bump_anchor": [1]}, "bump_anchor"),
    "anchor-K-string": ({"bump_anchor": {"radius": 1.75, "K": "big"}}, "bump_anchor.K"),
    "tolerance-string": ({"tolerance": "abc"}, "tolerance"),
    "seed-string": ({"seed": "x"}, "seed"),
    "blocks-number": ({"twist": {"blocks": 5}}, "twist.blocks"),
    "blocks-empty": ({"twist": {"blocks": []}}, "twist.blocks"),
    "eigenvalue-infinite": (
        {"twist": {"blocks": [{"eigenvalue": [float("inf"), 0.0]}]}},
        "twist.blocks[0].eigenvalue",
    ),
    "eigenvalue-nan": (
        {"twist": {"blocks": [{"eigenvalue": float("nan")}]}}, "twist.blocks[0].eigenvalue"
    ),
    "eigenvalue-int-beyond-float": (
        {"twist": {"blocks": [{"eigenvalue": [10**400, 0]}]}}, "twist.blocks[0].eigenvalue"
    ),
    "eigenvalue-string-beyond-float": (
        {"twist": {"blocks": [{"eigenvalue": "1" + "0" * 400}]}}, "twist.blocks[0].eigenvalue"
    ),
}


class TestMalformedTorus:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TORUS))
    def test_input_error_names_field(self, tmp_path, capsys, case):
        overrides, field_path = MALFORMED_TORUS[case]
        path = tmp_path / f"{case}.json"
        path.write_text(minimal_torus_scenario(**overrides), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: {path}: {field_path}: ")
        assert captured.out == ""

    FUZZ_FIELDS = [
        ("twist", "blocks"),
        ("test_function",),
        ("test_function", "width"),
        ("test_function", "center"),
        ("truncation", "K"),
        ("truncation", "N"),
        ("truncation",),
        ("bump_anchor",),
        ("tolerance",),
        ("seed",),
    ]

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.sampled_from(FUZZ_FIELDS),
        value=TestMalformedDiscrete.JSON_VALUES | st.integers() | st.floats(),
    )
    def test_only_input_errors_escape_parse(self, keys, value):
        data = json.loads(minimal_torus_scenario(bump_anchor={"radius": 1.75, "K": 32}))
        try:
            parse_scenario(json.dumps(with_fields(data, {keys: value})))
        except (ParseError, SchemaError):
            pass


class TestMalformedModel:
    @pytest.mark.parametrize(
        "fields",
        [
            {("generators",): 5},
            {("generators",): []},
            {("generators",): [], ("delta",): {"scalar": "2"}},
        ],
    )
    def test_generators_must_be_a_nonempty_list(self, tmp_path, capsys, fields):
        data = {"id": "m", "case": "spectral-model", "generators": [[["1"]]], "delta": [["2"]]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(with_fields(data, fields)), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {path}: generators: ")


class TestBatchIsolation:
    def good_and(self, tmp_path, first_text):
        first = tmp_path / "first.json"
        first.write_text(first_text, encoding="utf-8")
        good = tmp_path / "good.json"
        good.write_text(jordan_scenario_text(), encoding="utf-8")
        return [str(first), str(good)]

    def test_verification_error_does_not_hide_later_reports(self, tmp_path, capsys):
        oversize = json.loads(jordan_scenario_text())
        oversize["id"] = "oversize"
        oversize["subgroup"]["lattice_basis"] = [[1200]]
        paths = self.good_and(tmp_path, json.dumps(oversize))
        assert main(["verify", *paths]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"verification error: {paths[0]}: ")
        assert "exceeds" in captured.err
        assert "jordan" in captured.out and "PASS" in captured.out

    def test_input_error_does_not_hide_later_reports(self, tmp_path, capsys):
        paths = self.good_and(tmp_path, "{")
        assert main(["verify", *paths]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: {paths[0]}: ")
        assert "jordan" in captured.out and "PASS" in captured.out


def torus_scalar_2(fields):
    """The bundled torus-scalar-2 with each (key path -> value) replaced."""
    return json.dumps(with_fields(bundled_scenario("torus-scalar-2"), fields))


EIGENVALUE = ("twist", "blocks", 0, "eigenvalue")

# variants of torus-scalar-2 whose evaluation leaves double precision:
# (replaced fields, the side the error names)
FLOAT_RANGE = {
    "N-huge": ({("truncation", "N"): 10**7}, "geometric side"),
    "width-tiny": ({("test_function", "width"): 1e-300}, "geometric side"),
    "eigenvalue-tiny": ({EIGENVALUE: [1e-300, 0.0]}, "spectral side"),
    "eigenvalue-huge": ({EIGENVALUE: [1e308, 1e308]}, "spectral side"),
}


class TestFloatRange:
    @pytest.mark.parametrize("case", sorted(FLOAT_RANGE))
    def test_one_line_verification_error_and_the_batch_goes_on(self, tmp_path, capsys, case):
        fields, side = FLOAT_RANGE[case]
        bad = tmp_path / f"{case}.json"
        bad.write_text(torus_scalar_2(fields), encoding="utf-8")
        good = tmp_path / "good.json"
        good.write_text(jordan_scenario_text(), encoding="utf-8")
        assert main(["verify", str(bad), str(good)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"verification error: {bad}: {side}: outside double precision ("
        )
        assert captured.err.count("\n") == 1
        assert "jordan" in captured.out and "PASS" in captured.out

    def test_a_huge_spectral_truncation_is_refused_at_once(self, tmp_path, capsys):
        # K = 10**7 would sum 2 * 10**7 + 1 transforms; the size limit
        # refuses it before the first
        bad = tmp_path / "k-huge.json"
        bad.write_text(torus_scalar_2({("truncation", "K"): 10**7}), encoding="utf-8")
        started = time.process_time()
        assert main(["verify", str(bad)]) == 1
        assert time.process_time() - started < 1.0
        assert capsys.readouterr().err.startswith(
            f"verification error: {bad}: spectral side at K = 10000000: 20000001 terms exceed "
        )

    def test_library_error_names_the_side(self):
        # the overflow is found before the 2 * 10**7 + 1 terms are summed
        fields, side = FLOAT_RANGE["N-huge"]
        with pytest.raises(FloatRangeExceeded, match=f"^{side}: .* before [|]n[|] = N = 10000000"):
            run(parse_scenario(torus_scalar_2(fields)))

    @settings(max_examples=60, deadline=None)
    @given(
        eigenvalue=st.tuples(
            st.floats(min_value=-1e308, max_value=1e308),
            st.floats(min_value=-1e308, max_value=1e308),
        ),
        width=st.floats(min_value=1e-320, max_value=1e308),
        center=st.floats(min_value=-1e308, max_value=1e308),
        big_n=st.integers(min_value=0, max_value=12),
    )
    # width^2 underflows to 0 and log(2 * growth) overflows: 0 * inf is a nan
    # that the geometric tail rounds to an int
    @example(eigenvalue=(0.0, 8.98846567431158e307), width=1e-320, center=0.0, big_n=0)
    def test_runs_raise_only_library_errors(self, eigenvalue, width, center, big_n):
        text = minimal_torus_scenario(
            twist={"blocks": [{"eigenvalue": list(eigenvalue)}]},
            test_function={"kind": "gaussian", "width": width, "center": center},
            truncation={"K": 4, "N": big_n},
            bump_anchor={},
        )
        try:
            scenario = parse_scenario(text)
        except SchemaError:  # a zero eigenvalue
            return
        try:
            emit(run(scenario), "table")
        except TraceLabError:
            pass


# torus-scalar-2 with eigenvalue 1000, K = N = 2 and a Gaussian of width 5:
# the geometric tail (1.7e42) is twice the spectral side, so the residual
# (8.4e41) is within tails that bound nothing
VACUOUS = {
    EIGENVALUE: [1000.0, 0.0],
    ("truncation",): {"K": 2, "N": 2},
    ("test_function", "width"): 5.0,
}


class TestVacuity:
    def test_tails_above_the_values_fail(self, tmp_path, capsys):
        report = run(parse_scenario(torus_scalar_2(VACUOUS)))
        assert not report.passed
        assert len(report.failures) == 1
        assert report.failures[0].startswith("vacuous: tails ")
        assert report.extra["bump_anchor"]["passed"]
        path = tmp_path / "vacuous.json"
        path.write_text(torus_scalar_2(VACUOUS), encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        assert "! vacuous: tails " in capsys.readouterr().out

    def test_the_same_twist_with_a_narrow_gaussian_passes(self):
        fields = dict(VACUOUS)
        fields[("test_function", "width")] = 1.0
        report = run(parse_scenario(torus_scalar_2(fields)))
        assert report.passed and report.failures == []

    def test_vacuous_bump_anchor_fails(self):
        # the main run is sound; the anchor's spectral tail is 0.4 of its value
        fields = {EIGENVALUE: [1e6, 0.0], ("tolerance",): 1e-6}
        report = run(parse_scenario(torus_scalar_2(fields)))
        assert not report.passed
        assert report.extra["bump_anchor"]["passed"]
        assert len(report.failures) == 1
        assert report.failures[0].startswith("vacuous: bump anchor tails ")

    def test_bundled_torus_verdicts_are_not_vacuous(self):
        for path in bundled_scenario_paths():
            if path.name.startswith("torus-"):
                report = run(load_scenario(path))
                assert report.passed and report.failures == [], path.name
