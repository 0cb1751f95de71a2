import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bemt_oracle import default_test_propeller, write_spec_dir
from conftest import CONFIG_DIR
from hapalloc.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from hapalloc.config import isa_properties, load_platform_config, rf_budget
from hapalloc.propulsion import propulsion_power, reference_coeffs

PLATFORM_CONFIG = CONFIG_DIR / "platform.json"


def run_cli(*argv):
    return main([str(a) for a in argv])


def one_line_config_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def shipped(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text())


class TestPropulsionVerb:
    def test_prints_labeled_csv(self, tmp_path, capsys):
        assert run_cli("propulsion", "--config", PLATFORM_CONFIG, "--v0", "10") == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "v0_mps,t_n,cdv,re,eta_hat,p_prop_w,p_prop_legacy_w"
        row = out[1].split(",")
        geom, _, alt = load_platform_config(PLATFORM_CONFIG)
        want = propulsion_power(isa_properties(alt), geom, 10.0, reference_coeffs())
        assert float(row[5]) == pytest.approx(want, rel=1e-12)

    def test_out_file(self, tmp_path):
        out = tmp_path / "prop.csv"
        assert run_cli("propulsion", "--config", PLATFORM_CONFIG, "--v0", "5", "--out", out) == EXIT_OK
        assert out.read_text().startswith("v0_mps,")

    def test_missing_airspeed_is_config_error(self, capsys):
        assert run_cli("propulsion", "--config", PLATFORM_CONFIG) == EXIT_CONFIG

    def test_unreadable_config(self, tmp_path):
        assert run_cli("propulsion", "--config", tmp_path / "nope.json", "--v0", "10") == EXIT_CONFIG

    def test_airspeed_below_surrogate_range_is_config_error(self, capsys):
        assert run_cli("propulsion", "--config", PLATFORM_CONFIG, "--v0", "0.5") == EXIT_CONFIG
        assert "below surrogate fit floor" in one_line_config_error(capsys)

    @pytest.mark.parametrize("v0", ["nan", "inf", "0", "-3"])
    def test_non_finite_or_non_positive_airspeed_is_config_error(self, v0, capsys):
        assert run_cli("propulsion", "--config", PLATFORM_CONFIG, "--v0", v0) == EXIT_CONFIG
        one_line_config_error(capsys)


class TestBemtVerb:
    def test_runs_on_spec_dir(self, tmp_path, capsys):
        spec_dir = tmp_path / "prop"
        write_spec_dir(spec_dir, default_test_propeller())
        code = run_cli("bemt", "--spec", spec_dir, "--v0", "10", "--ns", "12")
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t_p_n,p_p_w,eta_p"
        t, p, eta = (float(x) for x in out[1].split(","))
        assert eta == pytest.approx(t * 10.0 / p, rel=1e-12)

    def test_missing_inputs(self, capsys):
        assert run_cli("bemt", "--v0", "10") == EXIT_CONFIG

    def test_point_without_propulsive_solution_is_config_error(self, capsys):
        code = run_cli("bemt", "--spec", CONFIG_DIR / "propeller", "--v0", "40", "--ns", "1")
        assert code == EXIT_CONFIG
        err = one_line_config_error(capsys)
        assert "non-propulsive section at zero induction (r = 2.9997 m)" in err

    @pytest.mark.parametrize("flag, value", [("--v0", "nan"), ("--v0", "-inf"), ("--v0", "0"),
                                             ("--ns", "inf"), ("--ns", "-2"), ("--ns", "nan")])
    def test_non_finite_or_non_positive_speed_is_config_error(self, flag, value, capsys):
        speeds = {"--v0": "10", "--ns": "12", flag: value}
        code = run_cli("bemt", "--spec", CONFIG_DIR / "propeller", *(f"{k}={v}" for k, v in speeds.items()))
        assert code == EXIT_CONFIG
        assert flag in one_line_config_error(capsys)

    def test_altitude_outside_the_standard_atmosphere_is_config_error(self, capsys):
        code = run_cli("bemt", "--spec", CONFIG_DIR / "propeller", "--v0", "10", "--ns", "12", "--altitude", "40000")
        assert code == EXIT_CONFIG
        assert "altitude" in one_line_config_error(capsys)

    @pytest.mark.parametrize("v0, n_s", [("1e308", "10"), ("10", "1e308"), ("10", "1e-300")])
    def test_inflow_angle_at_zero_or_right_angle_is_config_error(self, v0, n_s, capsys):
        # v0 / (2 pi n_s r) over- or underflows, so the zero-induction angle rounds to pi/2 or 0
        code = run_cli("bemt", "--spec", CONFIG_DIR / "propeller", "--v0", v0, "--ns", n_s)
        assert code == EXIT_CONFIG
        assert "zero-induction inflow angle at 0 or pi/2" in one_line_config_error(capsys)

    def test_spec_dir_not_a_path_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "b.json", {"spec_dir": 5, "v0_mps": 10, "ns_rps": 12})
        assert run_cli("bemt", "--config", cfg) == EXIT_CONFIG
        assert "cannot load propeller spec 5" in one_line_config_error(capsys)

    def test_non_numeric_speed_in_config_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "b.json", {"spec_dir": str(CONFIG_DIR / "propeller"),
                                               "v0_mps": "fast", "ns_rps": 12})
        assert run_cli("bemt", "--config", cfg) == EXIT_CONFIG
        one_line_config_error(capsys)


class TestSurrogateFitVerb:
    def test_default_reference_samples(self, capsys):
        assert run_cli("surrogate-fit") == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "c,alpha,beta,rmse,n_samples"
        c, alpha, beta, rmse, n = out[1].split(",")
        assert float(beta) == pytest.approx(0.45, abs=0.1)
        assert int(n) == 25

    def test_custom_samples(self, tmp_path, capsys):
        from hapalloc.propulsion import reference_samples

        csv_path = tmp_path / "s.csv"
        csv_path.write_text("v0_mps,eta_p\n" + "".join(f"{s.v0!r},{s.eta_p!r}\n" for s in reference_samples(seed=3)))
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"samples_csv": str(csv_path)}))
        assert run_cli("surrogate-fit", "--config", cfg) == EXIT_OK


class TestSolveVerb:
    def test_explicit_budget(self, tmp_path, capsys):
        scenario = json.loads((CONFIG_DIR / "scenario_sweep.json").read_text())
        ledger = json.loads(PLATFORM_CONFIG.read_text())["ledger"]
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({"scenario": scenario, "ledger": ledger, "p_tot_w": 150.0}))
        out = tmp_path / "sol.json"
        assert run_cli("solve", "--config", cfg, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["solver_tag"] == "numeric"
        assert doc["rf_spent_w"] <= 150.0 + 1e-9
        assert len(doc["p"]) == 9

    def test_budget_from_propulsion_chain(self, tmp_path):
        cfg = tmp_path / "solve.json"
        platform_doc = json.loads(PLATFORM_CONFIG.read_text())
        scenario = json.loads((CONFIG_DIR / "scenario_sweep.json").read_text())
        cfg.write_text(
            json.dumps(
                {
                    "scenario": scenario,
                    "platform": platform_doc["platform"],
                    "ledger": platform_doc["ledger"],
                    "altitude_m": 20000.0,
                    "v0_mps": 10.0,
                }
            )
        )
        out = tmp_path / "sol.json"
        assert run_cli("solve", "--config", cfg, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        geom, ledger, alt = load_platform_config(PLATFORM_CONFIG)
        p_prop = propulsion_power(isa_properties(alt), geom, 10.0, reference_coeffs())
        assert doc["p_tot_w"] == pytest.approx(rf_budget(ledger, p_prop), rel=1e-12)

    def test_infeasible_budget_exit_code(self, tmp_path):
        platform_doc = json.loads(PLATFORM_CONFIG.read_text())
        platform_doc["ledger"]["p_hap"] = 10.0  # nowhere near the propulsion draw
        scenario = json.loads((CONFIG_DIR / "scenario_sweep.json").read_text())
        cfg = tmp_path / "solve.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": scenario,
                    "platform": platform_doc["platform"],
                    "ledger": platform_doc["ledger"],
                    "v0_mps": 10.0,
                }
            )
        )
        assert run_cli("solve", "--config", cfg) == EXIT_INFEASIBLE


class TestSweepVerb:
    def test_airspeed_sweep_with_svg(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        platform_doc = json.loads(PLATFORM_CONFIG.read_text())
        cfg.write_text(
            json.dumps(
                {
                    "kind": "airspeed",
                    "grid": [2, 6, 10, 14],
                    "platform": platform_doc["platform"],
                    "altitude_m": 20000.0,
                }
            )
        )
        out_csv = tmp_path / "sweep.csv"
        out_svg = tmp_path / "sweep.svg"
        assert run_cli("sweep", "--config", cfg, "--out", out_csv, "--svg", out_svg) == EXIT_OK
        assert out_csv.read_text().startswith("v0_mps,")
        assert out_svg.read_text().startswith("<svg")

    def test_budget_sweep(self, tmp_path):
        platform_doc = json.loads(PLATFORM_CONFIG.read_text())
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "rf_budget",
                    "grid": [100, 250],
                    "scenario_path": str(CONFIG_DIR / "scenario_sweep.json"),
                    "ledger": platform_doc["ledger"],
                    "backends": ["q3e-numeric", "qos-only"],
                }
            )
        )
        out = tmp_path / "b.csv"
        assert run_cli("sweep", "--config", cfg, "--out", out) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "p_tot_w,backend,satisfaction,ee_bps_per_w,rf_spent_w"
        assert len(lines) == 5

    def test_bad_kind(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"kind": "altitude", "grid": [1, 2]}))
        assert run_cli("sweep", "--config", cfg) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text("{not json")
        assert run_cli("sweep", "--config", cfg) == EXIT_CONFIG


class TestOutputPath:
    @pytest.mark.parametrize("verb, argv", [
        ("propulsion", ["--config", PLATFORM_CONFIG, "--v0", "10"]),
        ("bemt", ["--spec", CONFIG_DIR / "propeller", "--v0", "10", "--ns", "12"]),
        ("surrogate-fit", []),
        ("solve", ["--config", CONFIG_DIR / "solve.json"]),
        ("sweep", ["--config", CONFIG_DIR / "sweep_airspeed.json"]),
        ("ablation", None),
    ])
    def test_missing_output_directory_is_config_error(self, verb, argv, tmp_path, capsys):
        if argv is None:  # the shipped ablation, cut to a few epochs per training
            argv = ["--config", write_json(tmp_path / "a.json", {**shipped("ablation.json"), "max_epochs": 51})]
        assert run_cli(verb, *argv, "--out", tmp_path / "missing" / "out.txt") == EXIT_CONFIG
        assert "cannot write output" in one_line_config_error(capsys)

    def test_missing_svg_directory_is_config_error(self, tmp_path, capsys):
        svg = tmp_path / "missing" / "a.svg"
        code = run_cli("sweep", "--config", CONFIG_DIR / "sweep_airspeed.json",
                       "--out", tmp_path / "a.csv", "--svg", svg)
        assert code == EXIT_CONFIG
        assert "cannot write report" in one_line_config_error(capsys)


class TestConfigKeys:
    """Verb configs accept their documented top-level keys and nothing else."""

    @pytest.mark.parametrize("verb, name", [
        ("propulsion", "platform.json"),
        ("bemt", None),
        ("surrogate-fit", None),
        ("solve", "solve.json"),
        ("sweep", "sweep_airspeed.json"),
        ("sweep", "sweep_budget.json"),
        ("ablation", "ablation.json"),
    ])
    def test_unknown_top_level_key_is_named(self, verb, name, tmp_path, capsys):
        doc = shipped(name) if name else {}
        cfg = write_json(tmp_path / "c.json", {**doc, "workers": 4})
        flags = {"propulsion": ["--v0", "10"], "bemt": ["--v0", "10", "--ns", "12"]}.get(verb, [])
        assert run_cli(verb, "--config", cfg, *flags) == EXIT_CONFIG
        assert "unknown key(s) 'workers'" in one_line_config_error(capsys)

    def test_shipped_configs_load(self, tmp_path):
        # each config's own key set, with work-sizing values cut down where a full run is slow
        budget = {**shipped("sweep_budget.json"), "grid": [150], "backends": ["qos-only"], "seeds": [3],
                  "scenario_path": str(CONFIG_DIR / "scenario_sweep.json")}
        runs = [
            ("propulsion", PLATFORM_CONFIG, "--v0", "10"),
            ("solve", CONFIG_DIR / "solve.json"),
            ("sweep", CONFIG_DIR / "sweep_airspeed.json"),
            ("sweep", write_json(tmp_path / "b.json", budget)),
            ("ablation", write_json(tmp_path / "a.json", {**shipped("ablation.json"), "max_epochs": 51})),
        ]
        for i, (verb, cfg, *rest) in enumerate(runs):
            assert run_cli(verb, "--config", cfg, *rest, "--out", tmp_path / f"{i}.out") == EXIT_OK, verb


def co_located(scenario: dict) -> dict:
    """The scenario with its second user moved onto the first one's direction."""
    users = [dict(u) for u in scenario["users"]]
    users[1].update(theta_x_deg=users[0]["theta_x_deg"], theta_y_deg=users[0]["theta_y_deg"])
    return {**scenario, "users": users}


def without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def budget_sweep_config() -> dict:
    """The shipped budget sweep, cut to one cheap grid point and backend."""
    return {**shipped("sweep_budget.json"), "grid": [150], "backends": ["qos-only"],
            "scenario_path": str(CONFIG_DIR / "scenario_sweep.json")}


def explicit_budget_solve_config(**overrides) -> dict:
    doc = {"scenario_path": str(CONFIG_DIR / "scenario_sweep.json"),
           "ledger": shipped("platform.json")["ledger"], "p_tot_w": 150.0}
    return {**doc, **overrides}


class TestStudyConfigErrors:
    """Bad study configs exit 2 with one line naming the problem, never a traceback."""

    def test_ablation_with_too_few_seeds(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {**shipped("ablation.json"), "seeds": [0, 1, 2]})
        assert run_cli("ablation", "--config", cfg) == EXIT_CONFIG
        assert "at least 10 seeds, got 3" in one_line_config_error(capsys)

    def test_ablation_epochs_within_the_patience(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {**shipped("ablation.json"), "max_epochs": 2})
        assert run_cli("ablation", "--config", cfg) == EXIT_CONFIG
        assert "max_epochs (2) must exceed the early-stopping patience (50)" in one_line_config_error(capsys)

    @pytest.mark.parametrize("verb, doc, key", [
        ("sweep", without(budget_sweep_config(), "ledger"), "ledger"),
        ("ablation", without(shipped("ablation.json"), "ledger"), "ledger"),
        ("ablation", without(shipped("ablation.json"), "p_tot_w"), "p_tot_w"),
        ("solve", without(shipped("solve.json"), "ledger"), "ledger"),
    ])
    def test_missing_key_is_named(self, verb, doc, key, tmp_path, capsys):
        if "scenario_path" in doc:
            doc["scenario_path"] = str(CONFIG_DIR / doc["scenario_path"])
        assert run_cli(verb, "--config", write_json(tmp_path / "c.json", doc)) == EXIT_CONFIG
        assert f"needs '{key}'" in one_line_config_error(capsys)

    @pytest.mark.parametrize("doc, name", [
        ({**shipped("solve.json"), "v0_mps": float("nan")}, "v0_mps"),
        ({**shipped("solve.json"), "v0_mps": 0.5}, "below surrogate fit floor"),
        (explicit_budget_solve_config(p_tot_w=-5), "p_tot_w"),
        (explicit_budget_solve_config(p_tot_w=float("nan")), "p_tot_w"),
    ])
    def test_solve_rejects_a_bad_airspeed_or_budget(self, doc, name, tmp_path, capsys):
        doc["scenario_path"] = str(CONFIG_DIR / "scenario_sweep.json")
        assert run_cli("solve", "--config", write_json(tmp_path / "s.json", doc)) == EXIT_CONFIG
        assert name in one_line_config_error(capsys)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["p_hap", "p_payload", "p_standby", "p_rfc", "p_lo", "p_bb", "xi", "n_t"])
    @pytest.mark.parametrize("verb", ["solve", "propulsion"])
    def test_non_finite_ledger_value(self, verb, field, value, tmp_path, capsys):
        if verb == "solve":
            doc, extra = {**shipped("solve.json"), "scenario_path": str(CONFIG_DIR / "scenario_sweep.json")}, []
        else:
            doc, extra = shipped("platform.json"), ["--v0", "10"]
        doc["ledger"][field] = value
        assert run_cli(verb, "--config", write_json(tmp_path / "c.json", doc), *extra) == EXIT_CONFIG
        assert "invalid ledger config" in one_line_config_error(capsys)

    def test_budget_sweep_rejects_a_negative_budget(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "b.json", {**budget_sweep_config(), "grid": [100, -5]})
        assert run_cli("sweep", "--config", cfg) == EXIT_CONFIG
        assert "grid must be a finite non-negative number, got -5" in one_line_config_error(capsys)

    def test_airspeed_sweep_below_the_surrogate_range(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {**shipped("sweep_airspeed.json"), "grid": [0.5, 5]})
        assert run_cli("sweep", "--config", cfg) == EXIT_CONFIG
        assert "below surrogate fit floor" in one_line_config_error(capsys)

    @pytest.mark.parametrize("verb", ["solve", "sweep", "ablation"])
    def test_co_located_users(self, verb, tmp_path, capsys):
        scenario = json.loads((CONFIG_DIR / "scenario_sweep.json").read_text())
        doc = {
            "solve": explicit_budget_solve_config(),
            "sweep": budget_sweep_config(),
            "ablation": shipped("ablation.json"),
        }[verb]
        doc = {**without(doc, "scenario_path"), "scenario": co_located(doc.get("scenario", scenario))}
        assert run_cli(verb, "--config", write_json(tmp_path / "c.json", doc)) == EXIT_CONFIG
        assert "user directions are (nearly) collinear" in one_line_config_error(capsys)

    def test_unknown_backend_is_named(self, tmp_path, capsys):
        solve = write_json(tmp_path / "s.json", explicit_budget_solve_config(backend="annealing"))
        assert run_cli("solve", "--config", solve) == EXIT_CONFIG
        assert "'annealing'" in one_line_config_error(capsys)
        sweep = write_json(tmp_path / "b.json", {**budget_sweep_config(), "backends": ["qos-only", "greedy"]})
        assert run_cli("sweep", "--config", sweep) == EXIT_CONFIG
        assert "unknown backend(s) 'greedy'" in one_line_config_error(capsys)

    @pytest.mark.parametrize("seeds", [["x"], [float("inf")]])
    def test_non_integer_seed(self, seeds, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {**shipped("ablation.json"), "seeds": seeds * 10})
        assert run_cli("ablation", "--config", cfg) == EXIT_CONFIG
        assert "seeds must be an integer" in one_line_config_error(capsys)


class TestValueConfigErrors:
    """Values of the right key but the wrong kind exit 2 with one line, never a traceback."""

    @pytest.mark.parametrize("grid", [[10, 5], [5, 5], [1e200, 1e201]])
    def test_airspeed_sweep_grid(self, grid, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {**shipped("sweep_airspeed.json"), "grid": grid})
        assert run_cli("sweep", "--config", cfg) == EXIT_CONFIG
        one_line_config_error(capsys)

    def test_budget_sweep_grid_not_increasing(self, tmp_path, capsys):
        doc = {**budget_sweep_config(), "grid": [400, 70], "backends": ["q3e-numeric", "qos-only"]}
        assert run_cli("sweep", "--config", write_json(tmp_path / "b.json", doc)) == EXIT_CONFIG
        assert "strictly increasing, got 70.0 after 400.0" in one_line_config_error(capsys)

    def test_propulsion_power_overflow(self, capsys):
        assert run_cli("propulsion", "--config", PLATFORM_CONFIG, "--v0", "1e200") == EXIT_CONFIG
        assert "not finite" in one_line_config_error(capsys)

    @pytest.mark.parametrize("eta", ["x", 0, -1, 1.5, None])
    def test_legacy_efficiency_outside_the_unit_interval(self, eta, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {**shipped("sweep_airspeed.json"), "legacy_eta_p": eta})
        assert run_cli("sweep", "--config", cfg) == EXIT_CONFIG
        assert "legacy_eta_p" in one_line_config_error(capsys)

    @pytest.mark.parametrize("altitude", ["abc", None])
    def test_platform_altitude_not_a_number(self, altitude, tmp_path, capsys):
        cfg = write_json(tmp_path / "p.json", {**shipped("platform.json"), "altitude_m": altitude})
        assert run_cli("propulsion", "--config", cfg, "--v0", "10") == EXIT_CONFIG
        assert "altitude_m" in one_line_config_error(capsys)

    @pytest.mark.parametrize("text", [None, "speed,eff\n1.0,0.5\n", "v0_mps,eta_p\n1.0,1.2\n",
                                      "v0_mps,eta_p\n1.0,0.5,3\n", "v0_mps,eta_p\nnan,0.5\n"])
    def test_surrogate_fit_samples(self, text, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        if text is not None:
            csv_path.write_text(text)
        cfg = write_json(tmp_path / "fit.json", {"samples_csv": str(csv_path)})
        assert run_cli("surrogate-fit", "--config", cfg) == EXIT_CONFIG
        assert "cannot read samples" in one_line_config_error(capsys)

    def test_surrogate_fit_sample_airspeed_too_small_to_fit(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("v0_mps,eta_p\n1e-300,0.5\n2,0.6\n3,0.6\n4,0.7\n")
        cfg = write_json(tmp_path / "fit.json", {"samples_csv": str(csv_path)})
        assert run_cli("surrogate-fit", "--config", cfg) == EXIT_CONFIG
        assert "too small to fit" in one_line_config_error(capsys)

    def test_surrogate_fit_samples_path_not_a_string(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "fit.json", {"samples_csv": ["s.csv"]})
        assert run_cli("surrogate-fit", "--config", cfg) == EXIT_CONFIG
        assert "samples_csv" in one_line_config_error(capsys)

    def test_empty_seed_list(self, tmp_path, capsys):
        sweep = write_json(tmp_path / "b.json", {**budget_sweep_config(), "backends": ["q3e-mlp"], "seeds": []})
        assert run_cli("sweep", "--config", sweep) == EXIT_CONFIG
        assert "at least one seed" in one_line_config_error(capsys)
        solve = write_json(tmp_path / "s.json", explicit_budget_solve_config(backend="mlp", seed=[]))
        assert run_cli("solve", "--config", solve) == EXIT_CONFIG
        assert "at least one seed" in one_line_config_error(capsys)

    @pytest.mark.parametrize("backends", ["qos-only", [], {"qos-only": 1}])
    def test_backends_not_a_list_of_names(self, backends, tmp_path, capsys):
        doc = {**budget_sweep_config(), "backends": backends}
        code = run_cli("sweep", "--config", write_json(tmp_path / "b.json", doc), "--svg", tmp_path / "b.svg")
        assert code == EXIT_CONFIG
        assert "'backends' must be a non-empty list" in one_line_config_error(capsys)

    def test_backend_name_not_a_string(self, tmp_path, capsys):
        doc = {**budget_sweep_config(), "backends": [["qos-only"], 3]}
        assert run_cli("sweep", "--config", write_json(tmp_path / "b.json", doc)) == EXIT_CONFIG
        assert "unknown backend(s) ['qos-only'], 3" in one_line_config_error(capsys)

    @pytest.mark.parametrize("seeds", [5, "0123456789"])
    def test_ablation_seeds_not_a_list(self, seeds, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {**shipped("ablation.json"), "seeds": seeds, "max_epochs": 51})
        assert run_cli("ablation", "--config", cfg) == EXIT_CONFIG
        assert "'seeds' must be a list" in one_line_config_error(capsys)

    @pytest.mark.parametrize("path", [None, 3])
    @pytest.mark.parametrize("verb", ["solve", "sweep", "ablation"])
    def test_scenario_path_not_a_string(self, verb, path, tmp_path, capsys):
        doc = {
            "solve": explicit_budget_solve_config(),
            "sweep": budget_sweep_config(),
            "ablation": without(shipped("ablation.json"), "scenario"),
        }[verb]
        cfg = write_json(tmp_path / "c.json", {**doc, "scenario_path": path})
        assert run_cli(verb, "--config", cfg) == EXIT_CONFIG
        assert f"scenario_path must be a path, got {path!r}" in one_line_config_error(capsys)

    @pytest.mark.parametrize("array, message", [
        ({"fc_hz": 0}, "carrier frequency must be positive, got 0.0"),
        ({"fc_hz": 1e308}, "steering phase 2 pi f_c spacing is not finite"),
        ({"nx": 1e308}, "int too large to convert to float"),
    ])
    def test_scenario_array_out_of_range(self, array, message, tmp_path, capsys):
        doc = {**shipped("ablation.json"), "max_epochs": 51}
        doc["scenario"]["array"].update(array)
        assert run_cli("ablation", "--config", write_json(tmp_path / "a.json", doc)) == EXIT_CONFIG
        assert f"invalid scenario config: {message}" in one_line_config_error(capsys)

    @pytest.mark.parametrize("nx, ny, message", [
        (1e308, 1, "exceeds 4096"),
        (65, 64, "array of 65 x 64 elements exceeds 4096"),
        (12.7, 12, "nx must be an integer, got 12.7"),
    ])
    def test_array_element_counts(self, nx, ny, message, tmp_path, capsys):
        doc = {**shipped("ablation.json"), "max_epochs": 51}
        doc["scenario"]["array"].update(nx=nx, ny=ny)
        assert run_cli("ablation", "--config", write_json(tmp_path / "a.json", doc)) == EXIT_CONFIG
        assert message in one_line_config_error(capsys)

    def test_fractional_counts_are_not_truncated(self, tmp_path, capsys):
        doc = shipped("platform.json")
        doc["ledger"]["n_t"] = 144.5
        assert run_cli("propulsion", "--config", write_json(tmp_path / "p.json", doc), "--v0", "10") == EXIT_CONFIG
        assert "n_t must be an integer, got 144.5" in one_line_config_error(capsys)
        spec = tmp_path / "prop"
        write_spec_dir(spec, default_test_propeller())
        write_json(spec / "propeller.json", {"n_blades": 2.5})
        assert run_cli("bemt", "--spec", spec, "--v0", "10", "--ns", "12") == EXIT_CONFIG
        assert "n_blades must be an integer, got 2.5" in one_line_config_error(capsys)

    @pytest.mark.parametrize("key", ["p_tot_w", "bw_hz"])
    def test_ablation_value_that_overflows_the_rates_or_power(self, key, tmp_path, capsys):
        doc = {**shipped("ablation.json"), "max_epochs": 51}
        (doc if key == "p_tot_w" else doc["scenario"])[key] = 1e308
        assert run_cli("ablation", "--config", write_json(tmp_path / "a.json", doc)) == EXIT_CONFIG
        assert "is out of range" in one_line_config_error(capsys)

    def test_budget_sweep_budget_that_overflows_the_rates(self, tmp_path, capsys):
        # the rates overflow and the EE of the qos-only baseline was written as nan
        doc = {**without(budget_sweep_config(), "scenario_path"), "scenario": shipped("ablation.json")["scenario"],
               "grid": [1e308]}
        assert run_cli("sweep", "--config", write_json(tmp_path / "b.json", doc)) == EXIT_CONFIG
        assert "RF budget 1e+308 W is out of range" in one_line_config_error(capsys)

    def test_airspeed_sweep_hull_too_long_for_a_finite_reynolds_number(self, tmp_path, capsys):
        doc = shipped("sweep_airspeed.json")
        doc["platform"]["l"] = 1e308
        assert run_cli("sweep", "--config", write_json(tmp_path / "a.json", doc)) == EXIT_CONFIG
        assert "propulsion power is not finite and positive" in one_line_config_error(capsys)


GRID_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -0.0, -5, 1, 25, 150, float("nan"), float("inf"), float("-inf")]),
    st.integers(-1000, 1000),
)
GRIDS = st.one_of(st.lists(GRID_VALUES, max_size=5), st.lists(GRID_VALUES, max_size=5).map(sorted))


def run_in_process(doc: dict) -> tuple[int, str]:
    """(exit code, stderr) of ``hapalloc sweep`` on ``doc``, with stdout discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "sweep.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", str(cfg)])
    return code, err.getvalue()


class TestSweepGridProperty:
    """Any grid list gives exit 0, or exit 2 with one line; never a traceback."""

    def check(self, doc):
        code, err = run_in_process(doc)
        assert code in (EXIT_OK, EXIT_CONFIG), (code, err)
        if code == EXIT_CONFIG:
            assert err.startswith("config error: ") and err.count("\n") == 1, err

    @given(grid=GRIDS)
    @settings(max_examples=80, deadline=None)
    def test_airspeed_sweep(self, grid):
        self.check({**shipped("sweep_airspeed.json"), "grid": grid})

    @given(grid=GRIDS)
    @settings(max_examples=60, deadline=None)
    def test_budget_sweep(self, grid):
        self.check({**budget_sweep_config(), "grid": grid})


REMOVE = "<removed>"  # fuzz value: delete the key instead of setting it
FUZZ_VALUES = (None, "x", -1, 0, 1e308, float("nan"), float("inf"), [], {}, REMOVE)


def key_paths(doc, prefix=()):
    """The path of every key of a JSON document, keys of objects inside lists included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        path = (*prefix, key)
        if isinstance(doc, dict):
            yield path
        if isinstance(value, (dict, list)):
            yield from key_paths(value, path)


def mutated(doc, path, value):
    """A deep copy of ``doc`` with the key at ``path`` set to ``value``, or removed for REMOVE."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    owner = doc
    for part in parents:
        owner = owner[part]
    if value == REMOVE:
        del owner[key]
    else:
        owner[key] = value
    return doc


def samples_config(tmp: Path) -> dict:
    from hapalloc.propulsion import reference_samples

    csv_path = tmp / "samples.csv"
    csv_path.write_text("v0_mps,eta_p\n" + "".join(f"{s.v0!r},{s.eta_p!r}\n" for s in reference_samples()))
    return {"samples_csv": str(csv_path)}


def scenario_config(tmp: Path, scenario: dict) -> dict:
    """The shipped budget sweep on ``scenario``, cut to two grid points."""
    path = write_json(tmp / "scenario.json", scenario)
    return {**shipped("sweep_budget.json"), "grid": [150, 300], "scenario_path": str(path)}


# (verb, shipped document, argv from a config path and the scratch directory, base document from it)
FUZZ_TARGETS = {
    "propulsion": ("platform.json", lambda cfg, tmp: ["propulsion", "--config", cfg, "--v0", "10"], None),
    "bemt-spec": (
        "propeller/propeller.json",
        lambda cfg, tmp: ["bemt", "--spec", cfg.parent, "--v0", "10", "--ns", "12"],
        None,
    ),
    "bemt": (
        {"spec_dir": str(CONFIG_DIR / "propeller"), "v0_mps": 10.0, "ns_rps": 12.0, "altitude_m": 20000.0},
        lambda cfg, tmp: ["bemt", "--config", cfg],
        None,
    ),
    "surrogate-fit": (None, lambda cfg, tmp: ["surrogate-fit", "--config", cfg], samples_config),
    "solve": (
        {**shipped("solve.json"), "scenario_path": str(CONFIG_DIR / "scenario_sweep.json")},
        lambda cfg, tmp: ["solve", "--config", cfg],
        None,
    ),
    "sweep-airspeed": ("sweep_airspeed.json", lambda cfg, tmp: ["sweep", "--config", cfg], None),
    "sweep-budget": (
        {**shipped("sweep_budget.json"), "grid": [150, 300],
         "scenario_path": str(CONFIG_DIR / "scenario_sweep.json")},
        lambda cfg, tmp: ["sweep", "--config", cfg],
        None,
    ),
    "scenario": ("scenario_sweep.json", lambda cfg, tmp: ["sweep", "--config", cfg], None),
    "ablation": (
        {**shipped("ablation.json"), "max_epochs": 51},
        lambda cfg, tmp: ["ablation", "--config", cfg],
        None,
    ),
}


def fuzz_base(target: str, tmp: Path) -> dict:
    doc, _, build = FUZZ_TARGETS[target]
    if build is not None:
        return build(tmp)
    return shipped(doc) if isinstance(doc, str) else doc


def run_fuzz_case(target: str, path, value) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the verb of ``target`` with one key of its config fuzzed."""
    doc, argv, _ = FUZZ_TARGETS[target]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg_doc = mutated(fuzz_base(target, tmp), path, value)
        if target == "bemt-spec":
            spec = tmp / "propeller"
            spec.mkdir()
            for f in ("geometry.csv", "polar.csv"):
                (spec / f).write_text((CONFIG_DIR / "propeller" / f).read_text())
            cfg = write_json(spec / "propeller.json", cfg_doc)
        elif target == "scenario":
            cfg = write_json(tmp / "sweep.json", scenario_config(tmp, cfg_doc))
        else:
            cfg = write_json(tmp / "config.json", cfg_doc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv(cfg, tmp)])
    return code, out.getvalue(), err.getvalue()


def numbers_in(text: str) -> list[float]:
    """Every number in a verb's output: a JSON document's numbers, or the CSV cells that parse as floats.

    The one cell left out is an ablation variant's mean EE when none of its
    runs is feasible: the mean of no runs, written as nan.
    """
    if text.startswith("{"):
        def walk(x):
            if isinstance(x, dict):
                return [n for v in x.values() for n in walk(v)]
            if isinstance(x, list):
                return [n for v in x for n in walk(v)]
            return [float(x)] if isinstance(x, (int, float)) and not isinstance(x, bool) else []

        return walk(json.loads(text))
    header, *rows = [line.split(",") for line in text.splitlines()]
    numbers = []
    for row in rows:
        cells = dict(zip(header, row))
        if cells.get("feasibility_pct") == "0.0":
            assert cells.pop("mean_ee_bps_per_w") == "nan", row
        for cell in cells.values():
            try:
                numbers.append(float(cell))
            except ValueError:
                pass
    return numbers


def check_fuzz_case(target: str, path, value) -> None:
    code, out, err = run_fuzz_case(target, path, value)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE), (code, err)
    if code == EXIT_OK:
        assert out and all(math.isfinite(x) for x in numbers_in(out)), out
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err, err


def fuzz_cases(target: str):
    with tempfile.TemporaryDirectory() as tmp:
        paths = list(key_paths(fuzz_base(target, Path(tmp))))
    return st.tuples(st.sampled_from(paths), st.sampled_from(FUZZ_VALUES))


class TestConfigFuzzProperty:
    """One key of a shipped config set to a bad value, or removed: exit 0 with finite
    numbers, or exit 2 or 3 with one stderr line; never a traceback."""

    @pytest.mark.parametrize("target, examples", [
        ("propulsion", 200), ("bemt-spec", 10), ("bemt", 40), ("surrogate-fit", 10), ("solve", 200),
        ("sweep-airspeed", 100), ("sweep-budget", 150), ("scenario", 200), ("ablation", 60),
    ])
    def test_verb(self, target, examples):
        @given(case=fuzz_cases(target))
        @settings(max_examples=examples, deadline=None, derandomize=True)
        def check(case):
            check_fuzz_case(target, *case)

        check()
