import json

import pytest

from tracelab.cli import bundled_scenario_paths, main
from tracelab.errors import ParseError, SchemaError
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
