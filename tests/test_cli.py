import contextlib
import csv
import io
import json
import math
import shlex
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bemt_oracle import default_test_propeller, write_spec_dir
from conftest import CONFIG_DIR, NEAR_DEGENERATE_SAMPLES
from hapalloc import bemt, propulsion
from hapalloc.channel import scenario_from_dict
from hapalloc.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, build_parser, main
from hapalloc.config import isa_properties, ledger_from_dict, platform_from_dict, rf_budget
from hapalloc.propulsion import propulsion_power, reference_coeffs
from hapalloc.q3e import scenario_beamformer, stage2_problem

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


def test_readme_examples_parse():
    # CI runs only some of these lines, so a stale flag in the others would go unnoticed
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    lines = [shlex.split(line, comments=True) for block in readme.split("```sh\n")[1:]
             for line in block.split("```")[0].splitlines()]
    examples = [words[1:] for words in lines if words[:1] == ["hapalloc"]]
    assert {argv[0] for argv in examples} == {"propulsion", "bemt", "surrogate-fit", "solve", "sweep", "ablation"}
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: hapalloc {shlex.join(argv)}")


class TestPropulsionVerb:
    def test_prints_labeled_csv(self, tmp_path, capsys):
        assert run_cli("propulsion", "--config", PLATFORM_CONFIG, "--v0", "10") == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "v0_mps,t_n,cdv,re,eta_hat,p_prop_w,p_prop_legacy_w"
        row = out[1].split(",")
        doc = shipped("platform.json")
        geom = platform_from_dict(doc["platform"])
        want = propulsion_power(isa_properties(doc["altitude_m"]), geom, 10.0, reference_coeffs())
        assert float(row[5]) == pytest.approx(want, rel=1e-12)

    def test_round_trip(self, tmp_path, capsys):
        doc = {
            "platform": {"l": 140, "d": 34, "omega": 85000, "kf": 1.12, "eta_m": 0.85},
            "altitude_m": 20000,
        }
        assert run_cli("propulsion", "--config", write_json(tmp_path / "p.json", doc), "--v0", "10") == EXIT_OK
        assert run_cli("propulsion", "--config", PLATFORM_CONFIG, "--v0", "10") == EXIT_OK
        row, shipped_row = capsys.readouterr().out.splitlines()[1::2]
        assert row == shipped_row

    def test_missing_keys(self, tmp_path, capsys):
        doc = without(shipped("platform.json"), "platform")
        assert run_cli("propulsion", "--config", write_json(tmp_path / "p.json", doc), "--v0", "10") == EXIT_CONFIG
        assert "propulsion config needs 'platform'" in one_line_config_error(capsys)
        doc = {"platform": {"l": 1}}
        assert run_cli("propulsion", "--config", write_json(tmp_path / "p.json", doc), "--v0", "10") == EXIT_CONFIG
        assert "platform config missing key" in one_line_config_error(capsys)

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

    def test_ledger_is_not_an_input(self, tmp_path, capsys):
        # no column of the propulsion CSV depends on the power ledger
        doc = {**shipped("platform.json"), "ledger": shipped("solve.json")["ledger"]}
        assert run_cli("propulsion", "--config", write_json(tmp_path / "p.json", doc), "--v0", "10") == EXIT_CONFIG
        assert "unknown key(s) 'ledger'" in one_line_config_error(capsys)


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

    def test_output_is_the_repr_of_the_operating_point(self, capsys):
        assert run_cli("bemt", "--spec", CONFIG_DIR / "propeller", "--v0", "10", "--ns", "12") == EXIT_OK
        spec = bemt.load_spec_dir(CONFIG_DIR / "propeller")
        op = bemt.propeller_performance(spec, 10.0, 12.0, isa_properties(20000.0))
        assert capsys.readouterr().out == f"t_p_n,p_p_w,eta_p\n{op.thrust!r},{op.shaft_power!r},{op.eta_p!r}\n"

    def test_missing_inputs(self, capsys):
        assert run_cli("bemt", "--v0", "10") == EXIT_CONFIG
        assert "bemt needs --spec <dir>, --v0 (m/s) and --ns (rev/s)" in one_line_config_error(capsys)

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

    def test_spec_dir_not_a_path_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("bemt", "--spec", "5", "--v0", "10", "--ns", "12") == EXIT_CONFIG
        assert "cannot load propeller spec 5" in one_line_config_error(capsys)
        # a spec directory whose radii do not increase cannot be loaded either
        spec_dir = tmp_path / "prop"
        shutil.copytree(CONFIG_DIR / "propeller", spec_dir)
        rows = (spec_dir / "geometry.csv").read_text().splitlines()
        rows[3], rows[4] = rows[4], rows[3]
        (spec_dir / "geometry.csv").write_text("\n".join(rows) + "\n")
        assert run_cli("bemt", "--spec", spec_dir, "--v0", "10", "--ns", "12") == EXIT_CONFIG
        assert "strictly increase" in one_line_config_error(capsys)

    @pytest.mark.parametrize("flag", ["--v0", "--ns", "--altitude"])
    def test_non_numeric_flag_is_config_error(self, flag, capsys):
        flags = {"--v0": "10", "--ns": "12", "--altitude": "20000", flag: "fast"}
        code = run_cli("bemt", "--spec", CONFIG_DIR / "propeller", *(f"{k}={v}" for k, v in flags.items()))
        assert code == EXIT_CONFIG
        assert flag in one_line_config_error(capsys)

    @pytest.mark.parametrize("verb", ["bemt", "surrogate-fit"])
    def test_flag_only_verbs_take_no_config(self, verb, tmp_path, capsys):
        # bemt and surrogate-fit read flags only, so a config could only repeat or contradict one
        with pytest.raises(SystemExit) as exc:
            run_cli(verb, "--config", write_json(tmp_path / "c.json", {}))
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --config" in capsys.readouterr().err


class TestSurrogateFitVerb:
    def test_default_reference_samples(self, capsys):
        assert run_cli("surrogate-fit") == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "c,alpha,beta,rmse,n_samples"
        c, alpha, beta, rmse, n = out[1].split(",")
        assert float(beta) == pytest.approx(0.45, abs=0.1)
        assert int(n) == 25

    def test_output_is_the_repr_of_the_fit(self, capsys):
        assert run_cli("surrogate-fit") == EXIT_OK
        fit = propulsion.fit_inverse_power_surrogate(propulsion.reference_samples())
        want = f"{fit.c!r},{fit.alpha!r},{fit.beta!r},{fit.rmse!r},{fit.n_samples}"
        assert capsys.readouterr().out == f"c,alpha,beta,rmse,n_samples\n{want}\n"

    def test_custom_samples(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(propulsion, "REFERENCE_SAMPLES_SEED", 3)
        csv_path = tmp_path / "s.csv"
        rows = "".join(f"{s.v0!r},{s.eta_p!r}\n" for s in propulsion.reference_samples())
        csv_path.write_text("v0_mps,eta_p\n" + rows)
        assert run_cli("surrogate-fit", "--samples", csv_path) == EXIT_OK
        fit = propulsion.fit_inverse_power_surrogate(propulsion.reference_samples())
        want = f"{fit.c!r},{fit.alpha!r},{fit.beta!r},{fit.rmse!r},{fit.n_samples}"
        assert capsys.readouterr().out == f"c,alpha,beta,rmse,n_samples\n{want}\n"


class TestSolveVerb:
    def test_explicit_budget(self, tmp_path, capsys):
        scenario = json.loads((CONFIG_DIR / "scenario_sweep.json").read_text())
        ledger = shipped("solve.json")["ledger"]
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
        platform_doc = shipped("solve.json")
        scenario = json.loads((CONFIG_DIR / "scenario_sweep.json").read_text())
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
        out = tmp_path / "sol.json"
        assert run_cli("solve", "--config", cfg, "--out", out) == EXIT_OK
        doc = json.loads(out.read_text())
        geom, ledger = platform_from_dict(platform_doc["platform"]), ledger_from_dict(platform_doc["ledger"])
        p_prop = propulsion_power(isa_properties(20000.0), geom, 10.0, reference_coeffs())
        assert doc["p_tot_w"] == pytest.approx(rf_budget(ledger, p_prop), rel=1e-12)

    def test_infeasible_budget_exit_code(self, tmp_path):
        platform_doc = shipped("solve.json")
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
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "rf_budget",
                    "grid": [100, 250],
                    "scenario_path": str(CONFIG_DIR / "scenario_sweep.json"),
                    "ledger": shipped("sweep_budget.json")["ledger"],
                    "backends": ["q3e-numeric", "qos-only"],
                }
            )
        )
        out = tmp_path / "b.csv"
        assert run_cli("sweep", "--config", cfg, "--out", out) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "p_tot_w,backend,satisfaction,ee_bps_per_w,rf_spent_w"
        assert len(lines) == 5

    def test_baselines_spend_a_large_budget_from_below(self, tmp_path):
        # the sum-rate water level was capped at its bisection bracket (1.2984e31 W spent of
        # either budget), and qos-only spent 1.0000000000000002e+100 of 1e100 W
        doc = {**budget_sweep_config(), "grid": [1e40, 1e100], "backends": ["max-sum-rate", "qos-only"]}
        out = tmp_path / "b.csv"
        assert run_cli("sweep", "--config", write_json(tmp_path / "b.json", doc), "--out", out) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 4
        for r in rows:
            p_tot, spent = float(r["p_tot_w"]), float(r["rf_spent_w"])
            assert p_tot * (1.0 - 1e-12) <= spent <= p_tot, r

    def run_sweep(self, doc, tmp_path, capsys) -> list[dict]:
        """The rows ``hapalloc sweep`` writes for ``doc``, which must exit 0 with nothing on stderr."""
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--config", write_json(tmp_path / "s.json", doc), "--out", out) == EXIT_OK
        assert capsys.readouterr().err == ""
        return list(csv.DictReader(out.read_text().splitlines()))

    def test_budget_just_below_one_users_cost(self, tmp_path, capsys):
        # 1e-13 below the user's cost neither backend lifts the user to its minimum coefficient, so
        # both count it unsatisfied by the one rule, p_k >= p_min,k
        scenario = shipped("scenario_sweep.json")
        scenario["users"] = scenario["users"][:1]
        ledger = shipped("sweep_budget.json")["ledger"]
        sc = scenario_from_dict(scenario)
        problem = stage2_problem(sc, scenario_beamformer(sc), 0.0, ledger_from_dict(ledger))
        cost = float(problem.w_norms_sq[0] * problem.p_min[0] ** 2)
        assert cost == pytest.approx(60.6955551816912, rel=1e-12)
        backends = ["q3e-numeric", "max-sum-rate"]
        doc = {"kind": "rf_budget", "grid": [cost * (1.0 - 1e-13)], "scenario": scenario, "ledger": ledger,
               "backends": backends}
        rows = self.run_sweep(doc, tmp_path, capsys)
        assert [r["backend"] for r in rows] == backends
        assert [float(r["satisfaction"]) for r in rows] == [0.0, 0.0]

    def test_airspeeds_one_ulp_apart(self, tmp_path, capsys):
        # the propulsion power rounds equal at 4.6 m/s and one ulp above: the sweep writes both rows
        grid = [4.6, math.nextafter(4.6, math.inf)]
        rows = self.run_sweep({**shipped("sweep_airspeed.json"), "grid": grid}, tmp_path, capsys)
        assert [float(r["v0_mps"]) for r in rows] == grid

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
        assert "cannot write output" in one_line_config_error(capsys)


class TestConfigKeys:
    """Verb configs accept their documented top-level keys and nothing else."""

    @pytest.mark.parametrize("verb, name", [
        ("propulsion", "platform.json"),
        ("solve", "solve.json"),
        ("sweep", "sweep_airspeed.json"),
        ("sweep", "sweep_budget.json"),
        ("ablation", "ablation.json"),
    ])
    def test_unknown_top_level_key_is_named(self, verb, name, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {**shipped(name), "workers": 4})
        flags = ["--v0", "10"] if verb == "propulsion" else []
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


def small_array_scenario(nx: int, ny: int) -> dict:
    """The shipped ablation scenario's nine users on an ``nx`` x ``ny`` array."""
    scenario = shipped("ablation.json")["scenario"]
    return {**scenario, "array": {**scenario["array"], "nx": nx, "ny": ny}}


def on_array(doc: dict, nx: int, ny: int, n_t=None) -> dict:
    """``doc`` with the small-array scenario inline and ``n_t`` RF chains (default ``nx`` x ``ny``) in its ledger."""
    ledger = {**doc["ledger"], "n_t": nx * ny if n_t is None else n_t}
    return {**without(doc, "scenario_path"), "scenario": small_array_scenario(nx, ny), "ledger": ledger}


def without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def budget_sweep_config() -> dict:
    """The shipped budget sweep, cut to one cheap grid point and backend."""
    return {**shipped("sweep_budget.json"), "grid": [150], "backends": ["qos-only"],
            "scenario_path": str(CONFIG_DIR / "scenario_sweep.json")}


def explicit_budget_solve_config(**overrides) -> dict:
    doc = {"scenario_path": str(CONFIG_DIR / "scenario_sweep.json"),
           "ledger": shipped("solve.json")["ledger"], "p_tot_w": 150.0}
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
    @pytest.mark.parametrize("budget", ["solve", "propulsion"])
    def test_non_finite_ledger_value(self, budget, field, value, tmp_path, capsys):
        # the ledger of a solve whose budget is explicit ("solve") or comes from the propulsion chain
        # ("propulsion"); the propulsion verb itself reads no ledger
        doc = explicit_budget_solve_config() if budget == "solve" else chain_solve_config()
        doc["ledger"] = {**doc["ledger"], field: value}
        assert run_cli("solve", "--config", write_json(tmp_path / "c.json", doc)) == EXIT_CONFIG
        assert "invalid ledger config" in one_line_config_error(capsys)

    def test_budget_sweep_rejects_a_negative_budget(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "b.json", {**budget_sweep_config(), "grid": [100, -5]})
        assert run_cli("sweep", "--config", cfg) == EXIT_CONFIG
        assert "grid must be a finite non-negative number, got -5" in one_line_config_error(capsys)

    def test_airspeed_sweep_below_the_surrogate_range(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {**shipped("sweep_airspeed.json"), "grid": [0.5, 5]})
        assert run_cli("sweep", "--config", cfg) == EXIT_CONFIG
        assert "below surrogate fit floor" in one_line_config_error(capsys)

    @given(nx=st.integers(1, 12), ny=st.integers(1, 12), n_t=st.one_of(st.none(), st.integers(0, 200)))
    @settings(max_examples=40, deadline=None)
    def test_rf_chain_count_is_the_array_size(self, nx, ny, n_t):
        # the static power charges n_t RF chains and zero forcing uses nx x ny of them; 144 chains
        # on a 6 x 6 array used to solve and report EE 154,785 bps/W (n_t None: the matching count)
        doc = on_array(explicit_budget_solve_config(), nx, ny, n_t)
        n_t = doc["ledger"]["n_t"]
        code, err = run_in_process(doc, "solve")
        mismatch = f"ledger n_t is {n_t} RF chains, but the array has {nx} x {ny} = {nx * ny} elements"
        if n_t != nx * ny:
            assert code == EXIT_CONFIG and err == f"config error: {mismatch}\n", (code, err)
        else:
            assert code in (EXIT_OK, EXIT_CONFIG) and "RF chains" not in err, (code, err)

    @pytest.mark.parametrize("verb", ["sweep", "ablation"])
    def test_rf_chain_count_is_checked_in_every_study(self, verb, tmp_path, capsys):
        doc = {"sweep": budget_sweep_config(), "ablation": shipped("ablation.json")}[verb]
        doc = {**doc, "ledger": {**doc["ledger"], "n_t": 36}}
        assert run_cli(verb, "--config", write_json(tmp_path / "c.json", doc)) == EXIT_CONFIG
        assert "ledger n_t is 36 RF chains, but the array has 12 x 12 = 144 elements" in one_line_config_error(capsys)

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

    @pytest.mark.parametrize("verb", ["solve", "sweep", "ablation"])
    def test_more_users_than_array_elements(self, verb, tmp_path, capsys):
        # nine users on a 2 x 2 array: the Gram matrix is rank-deficient, condition number about 1.9e17
        doc = {
            "solve": explicit_budget_solve_config(),
            "sweep": budget_sweep_config(),
            "ablation": shipped("ablation.json"),
        }[verb]
        assert run_cli(verb, "--config", write_json(tmp_path / "c.json", on_array(doc, 2, 2))) == EXIT_CONFIG
        assert "or users outnumber array elements" in one_line_config_error(capsys)

    @given(nx=st.integers(1, 4), ny=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_shipped_users_on_any_small_array(self, nx, ny):
        # up to 16 elements for the nine users: zero forcing either separates them or exits 2
        code, err = run_in_process(on_array(explicit_budget_solve_config(), nx, ny), "solve")
        assert code in (EXIT_OK, EXIT_CONFIG), (code, err)
        if code == EXIT_CONFIG:
            assert err.startswith("config error: ") and err.count("\n") == 1, err
        else:
            assert err == ""

    def test_unknown_backend_is_named(self, tmp_path, capsys):
        solve = write_json(tmp_path / "s.json", explicit_budget_solve_config(backend="annealing"))
        assert run_cli("solve", "--config", solve) == EXIT_CONFIG
        assert "'annealing'" in one_line_config_error(capsys)
        sweep = write_json(tmp_path / "b.json", {**budget_sweep_config(), "backends": ["qos-only", "greedy"]})
        assert run_cli("sweep", "--config", sweep) == EXIT_CONFIG
        assert "unknown backend(s) 'greedy'" in one_line_config_error(capsys)

    @pytest.mark.parametrize("verb, doc, message", [
        ("ablation", {**shipped("ablation.json"), "seeds": [0] * 10, "max_epochs": 60},
         "ablation seeds must not repeat, but 0"),
        ("ablation", {**shipped("ablation.json"), "seeds": [*range(10), 3], "max_epochs": 60},
         "ablation seeds must not repeat, but 3"),
        ("sweep", {**budget_sweep_config(), "backends": ["qos-only", "qos-only"]},
         "sweep backends must not repeat, but 'qos-only'"),
        ("sweep", {**budget_sweep_config(), "backends": ["q3e-mlp"], "seeds": [1, 0, 1]},
         "sweep seeds must not repeat, but 1"),
    ])
    def test_repeated_seed_or_backend_is_named(self, verb, doc, message, tmp_path, capsys):
        # a repeat would count one seed twice in a mean, or write a backend's rows twice
        assert run_cli(verb, "--config", write_json(tmp_path / "c.json", doc)) == EXIT_CONFIG
        assert f"{message} appears more than once" in one_line_config_error(capsys)

    @pytest.mark.parametrize("seeds", [["x"], [float("inf")], [True], ["3"]])
    def test_non_integer_seed(self, seeds, tmp_path, capsys):
        cfg = write_json(tmp_path / "a.json", {**shipped("ablation.json"), "seeds": seeds * 10})
        assert run_cli("ablation", "--config", cfg) == EXIT_CONFIG
        assert "seeds must be an integer" in one_line_config_error(capsys)


def chain_solve_config(**overrides) -> dict:
    return {**shipped("solve.json"), "scenario_path": str(CONFIG_DIR / "scenario_sweep.json"), **overrides}


class TestSolveReadsOnlyItsInputs:
    """A solve key that its budget source or backend would ignore exits 2 with one line naming it."""

    @pytest.mark.parametrize("doc, message", [
        (chain_solve_config(p_tot_w=1.0), "(budget from 'platform', numeric backend): unknown key(s) 'p_tot_w'"),
        (explicit_budget_solve_config(p_tot_w=100, altitude_m=99999, v0_mps=99),
         "(budget from 'p_tot_w', numeric backend): unknown key(s) 'altitude_m', 'v0_mps'"),
        (explicit_budget_solve_config(v0_mps=99), "unknown key(s) 'v0_mps'"),
        (explicit_budget_solve_config(backend="numeric", seed=5),
         "(budget from 'p_tot_w', numeric backend): unknown key(s) 'seed'"),
        (chain_solve_config(seed=0), "unknown key(s) 'seed'"),
    ])
    def test_unread_key_is_named(self, doc, message, tmp_path, capsys):
        assert run_cli("solve", "--config", write_json(tmp_path / "s.json", doc)) == EXIT_CONFIG
        assert message in one_line_config_error(capsys)

    @pytest.mark.parametrize("config_alt, scenario_alt", [(15000, None), (None, 15000), (20000.5, 20000),
                                                          (15000, 15000.0), (None, None)])
    def test_propulsion_and_link_share_one_altitude(self, config_alt, scenario_alt, tmp_path, capsys):
        # the propulsion chain is priced at the scenario's altitude_m (None leaves the key out: 20000),
        # so a top-level altitude_m, which could disagree with it, is an unknown key
        scenario = without(shipped("scenario_sweep.json"), "altitude_m")
        if scenario_alt is not None:
            scenario["altitude_m"] = scenario_alt
        doc = {**without(chain_solve_config(), "scenario_path"), "scenario": scenario}
        if config_alt is not None:
            doc["altitude_m"] = config_alt
        code = run_cli("solve", "--config", write_json(tmp_path / "s.json", doc))
        if config_alt is not None:
            assert code == EXIT_CONFIG
            assert ("(budget from 'platform', numeric backend): unknown key(s) 'altitude_m'"
                    in one_line_config_error(capsys))
        else:
            assert code == EXIT_OK
            want = rf_budget(ledger_from_dict(doc["ledger"]), propulsion_power(
                isa_properties(scenario_alt or 20000), platform_from_dict(doc["platform"]), 10.0, reference_coeffs()))
            assert json.loads(capsys.readouterr().out)["p_tot_w"] == want

    @pytest.mark.parametrize("seed", [[3, 4], 2.5, True, "3"])
    def test_seed_is_one_integer(self, seed, tmp_path, capsys):
        # a list trained its first seed, and true trained seed 1
        doc = explicit_budget_solve_config(backend="mlp", seed=seed)
        assert run_cli("solve", "--config", write_json(tmp_path / "s.json", doc)) == EXIT_CONFIG
        assert f"seed must be an integer, got {seed!r}" in one_line_config_error(capsys)

    @pytest.mark.parametrize("verb", ["solve", "sweep", "ablation"])
    def test_scenario_and_scenario_path_together(self, verb, tmp_path, capsys):
        doc = {
            "solve": explicit_budget_solve_config(),
            "sweep": budget_sweep_config(),
            "ablation": shipped("ablation.json"),
        }[verb]
        doc = {**doc, "scenario": shipped("scenario_sweep.json"),
               "scenario_path": str(CONFIG_DIR / "scenario_sweep.json")}
        assert run_cli(verb, "--config", write_json(tmp_path / "c.json", doc)) == EXIT_CONFIG
        assert "both 'scenario' and 'scenario_path'" in one_line_config_error(capsys)


class TestConfigRelativePaths:
    """A relative ``scenario_path`` names a file beside the config, whatever the working directory; a
    relative ``--samples`` CSV or ``--spec`` directory (the flags that replaced the ``samples_csv`` and
    ``spec_dir`` config keys) is relative to the working directory.  The output equals that of the same
    run with the absolute path."""

    @staticmethod
    def beside(key: str, config_dir: Path, tmp_path: Path) -> tuple[list, list]:
        """The verb's arguments with ``key`` naming a copy in ``config_dir`` by a relative and by an absolute path."""
        if key == "spec_dir":
            shutil.copytree(CONFIG_DIR / "propeller", config_dir / "prop")
            flags = ["bemt", "--v0", "10", "--ns", "12", "--spec"]
            return [*flags, "prop"], [*flags, config_dir / "prop"]
        if key == "samples_csv":
            write_reference_samples(config_dir / "samples.csv")
            flags = ["surrogate-fit", "--samples"]
            return [*flags, "samples.csv"], [*flags, config_dir / "samples.csv"]
        shutil.copy(CONFIG_DIR / "scenario_sweep.json", config_dir / "users.json")
        doc = explicit_budget_solve_config(scenario_path="users.json")
        relative = write_json(config_dir / "relative.json", doc)
        absolute = write_json(tmp_path / "absolute.json", {**doc, key: str(config_dir / doc[key])})
        return ["solve", "--config", relative], ["solve", "--config", absolute]

    @pytest.mark.parametrize("key", ["scenario_path", "samples_csv", "spec_dir"])
    def test_resolves_against_the_config_directory(self, key, tmp_path, monkeypatch):
        config_dir, elsewhere = tmp_path / "configs", tmp_path / "work"
        config_dir.mkdir()
        elsewhere.mkdir()
        relative, absolute = self.beside(key, config_dir, tmp_path)
        # a config path resolves against the config's directory, a flag's against the working one
        monkeypatch.chdir(elsewhere if key == "scenario_path" else config_dir)
        assert run_cli(*relative, "--out", tmp_path / "relative.out") == EXIT_OK
        assert run_cli(*absolute, "--out", tmp_path / "absolute.out") == EXIT_OK
        assert (tmp_path / "relative.out").read_bytes() == (tmp_path / "absolute.out").read_bytes()


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
        # the legacy efficiency is the constant harness.LEGACY_ETA_P, so any value is an unknown key
        cfg = write_json(tmp_path / "a.json", {**shipped("sweep_airspeed.json"), "legacy_eta_p": eta})
        assert run_cli("sweep", "--config", cfg) == EXIT_CONFIG
        assert "unknown key(s) 'legacy_eta_p'" in one_line_config_error(capsys)

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
        assert run_cli("surrogate-fit", "--samples", csv_path) == EXIT_CONFIG
        assert "cannot read samples" in one_line_config_error(capsys)

    def test_surrogate_fit_sample_airspeed_too_small_to_fit(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("v0_mps,eta_p\n1e-300,0.5\n2,0.6\n3,0.6\n4,0.7\n")
        assert run_cli("surrogate-fit", "--samples", csv_path) == EXIT_CONFIG
        assert "too small to fit" in one_line_config_error(capsys)

    @pytest.mark.parametrize("pairs", NEAR_DEGENERATE_SAMPLES)
    def test_surrogate_fit_near_degenerate_samples(self, pairs, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("v0_mps,eta_p\n" + "".join(f"{v!r},{e!r}\n" for v, e in pairs))
        assert run_cli("surrogate-fit", "--samples", csv_path) == EXIT_CONFIG
        assert "fit left the physical region" in one_line_config_error(capsys)

    def test_empty_seed_list(self, tmp_path, capsys):
        sweep = write_json(tmp_path / "b.json", {**budget_sweep_config(), "backends": ["q3e-mlp"], "seeds": []})
        assert run_cli("sweep", "--config", sweep) == EXIT_CONFIG
        assert "at least one seed" in one_line_config_error(capsys)
        solve = write_json(tmp_path / "s.json", explicit_budget_solve_config(backend="mlp", seed=[]))
        assert run_cli("solve", "--config", solve) == EXIT_CONFIG
        assert "seed must be an integer, got []" in one_line_config_error(capsys)

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

    @pytest.mark.parametrize("seeds", [0, "0"])
    def test_sweep_seeds_not_a_list(self, seeds, tmp_path, capsys):
        # a bare integer used to be taken as a one-seed list
        doc = {**budget_sweep_config(), "backends": ["q3e-mlp"], "seeds": seeds}
        assert run_cli("sweep", "--config", write_json(tmp_path / "b.json", doc)) == EXIT_CONFIG
        assert f"'seeds' must be a list of at least one seed, got {seeds!r}" in one_line_config_error(capsys)

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
        (True, 12, "nx must be an integer, got True"),
    ])
    def test_array_element_counts(self, nx, ny, message, tmp_path, capsys):
        doc = {**shipped("ablation.json"), "max_epochs": 51}
        doc["scenario"]["array"].update(nx=nx, ny=ny)
        assert run_cli("ablation", "--config", write_json(tmp_path / "a.json", doc)) == EXIT_CONFIG
        assert message in one_line_config_error(capsys)

    def test_fractional_counts_are_not_truncated(self, tmp_path, capsys):
        doc = explicit_budget_solve_config()
        for n_t in (144.5, True):  # true counted 1 antenna
            doc["ledger"]["n_t"] = n_t
            assert run_cli("solve", "--config", write_json(tmp_path / "s.json", doc)) == EXIT_CONFIG
            assert f"n_t must be an integer, got {n_t!r}" in one_line_config_error(capsys)
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

    @pytest.mark.parametrize("p_tot_w", [1e14, 1e17, 1e20])
    def test_mlp_solve_far_above_the_shipped_budget(self, p_tot_w, tmp_path, capsys):
        # the network's start bias log(expm1(y)) overflowed and printed a RuntimeWarning
        doc = explicit_budget_solve_config(backend="mlp", p_tot_w=p_tot_w)
        code = run_cli("solve", "--config", write_json(tmp_path / "s.json", doc))
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == ""
        else:
            assert code in (EXIT_CONFIG, EXIT_INFEASIBLE) and err.count("\n") == 1, err

    def test_budget_sweep_budget_that_overflows_the_rates(self, tmp_path, capsys):
        # the rates overflow and the EE of the qos-only baseline was written as nan
        doc = {**without(budget_sweep_config(), "scenario_path"), "scenario": shipped("ablation.json")["scenario"],
               "grid": [1e308]}
        assert run_cli("sweep", "--config", write_json(tmp_path / "b.json", doc)) == EXIT_CONFIG
        assert "RF budget 1e+308 W is out of range" in one_line_config_error(capsys)

    def test_budget_sweep_water_floors_that_overflow(self, tmp_path, capsys):
        # N_0 / gamma overflows while the minimum coefficients (tiny QoS) and the rates stay
        # finite; the sum-rate water level printed a RuntimeWarning and wrote an RF spend of nan
        scenario = shipped("scenario_sweep.json")
        scenario["n0_w"] = 1e10
        scenario["users"] = [{**u, "gamma": 1e-300, "qos_mbps": 1e-6} for u in scenario["users"]]
        doc = {**without(budget_sweep_config(), "scenario_path"), "scenario": scenario,
               "backends": ["max-sum-rate"]}
        assert run_cli("sweep", "--config", write_json(tmp_path / "b.json", doc)) == EXIT_CONFIG
        assert "RF budget 150.0 W is out of range" in one_line_config_error(capsys)

    def test_bemt_airspeed_too_small_for_a_finite_loading(self, tmp_path, capsys):
        # the axial induction at 1e-300 m/s overflows the sectional loading's square
        assert run_cli("bemt", "--spec", CONFIG_DIR / "propeller", "--v0", "1e-300", "--ns", "12") == EXIT_CONFIG
        assert "sectional loading overflows" in one_line_config_error(capsys)

    def test_airspeed_sweep_hull_too_long_for_a_finite_reynolds_number(self, tmp_path, capsys):
        doc = shipped("sweep_airspeed.json")
        doc["platform"]["l"] = 1e308
        assert run_cli("sweep", "--config", write_json(tmp_path / "a.json", doc)) == EXIT_CONFIG
        assert "propulsion power is not finite and positive" in one_line_config_error(capsys)


class TestZeroCommunicationPower:
    """With no static power a zero RF budget has EE 0, in every verb and backend; the mlp
    backend divided its EE gradient by the zero power and diverged at epoch 2."""

    def doc(self, **overrides) -> dict:
        doc = {**without(shipped("ablation.json"), "seeds"), **overrides}
        doc["ledger"] = {**doc["ledger"], "p_rfc": 0, "p_lo": 0, "p_bb": 0}
        return doc

    def run(self, verb, doc, tmp_path, capsys) -> str:
        assert run_cli(verb, "--config", write_json(tmp_path / "c.json", doc)) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        return out

    def test_mlp_solve(self, tmp_path, capsys):
        doc = without(self.doc(backend="mlp", p_tot_w=0), "max_epochs")
        sol = json.loads(self.run("solve", doc, tmp_path, capsys))
        assert sol["ee_bps_per_w"] == 0.0 and sol["p"] == [0.0] * 9

    def test_mlp_solve_at_a_tiny_budget(self, tmp_path, capsys):
        # at 1e-300 W a projector's backward once overflowed here, and the training diverged at epoch 35
        doc = without(self.doc(backend="mlp", p_tot_w=1e-300), "max_epochs")
        sol = json.loads(self.run("solve", doc, tmp_path, capsys))
        assert math.isfinite(sol["ee_bps_per_w"]) and 0.0 < sol["rf_spent_w"] <= 1e-300

    def test_budget_sweep(self, tmp_path, capsys):
        doc = {"kind": "rf_budget", "grid": [0, 5], **self.doc()}
        del doc["p_tot_w"], doc["max_epochs"]
        rows = list(csv.DictReader(io.StringIO(self.run("sweep", doc, tmp_path, capsys))))
        assert {row["ee_bps_per_w"] for row in rows if row["p_tot_w"] == "0.0"} == {"0.0"}

    def test_ablation(self, tmp_path, capsys):
        self.run("ablation", self.doc(p_tot_w=0, max_epochs=51), tmp_path, capsys)


GRID_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -0.0, -5, 1, 25, 150, float("nan"), float("inf"), float("-inf")]),
    st.integers(-1000, 1000),
)
GRIDS = st.one_of(st.lists(GRID_VALUES, max_size=5), st.lists(GRID_VALUES, max_size=5).map(sorted))


def run_in_process(doc: dict, verb: str = "sweep") -> tuple[int, str]:
    """(exit code, stderr) of ``hapalloc <verb>`` on ``doc``, with stdout discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / f"{verb}.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([verb, "--config", str(cfg)])
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
FUZZ_VALUES = (None, "x", -1, 0, 1e308, float("nan"), float("inf"), [], {}, REMOVE, 1e-300, 1e30, -1e30)


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


def write_reference_samples(csv_path: Path) -> Path:
    csv_path.write_text("v0_mps,eta_p\n" + "".join(f"{s.v0!r},{s.eta_p!r}\n" for s in propulsion.reference_samples()))
    return csv_path


def flags(cfg: Path) -> list[str]:
    """The document at ``cfg`` as ``--flag=value`` arguments, one per key; a removed key gives no flag."""
    return [f"{flag}={value}" for flag, value in json.loads(cfg.read_text()).items()]


def scenario_config(tmp: Path, scenario: dict) -> dict:
    """The shipped budget sweep on ``scenario``, cut to two grid points."""
    path = write_json(tmp / "scenario.json", scenario)
    return {**shipped("sweep_budget.json"), "grid": [150, 300], "scenario_path": str(path)}


# (verb, shipped document, argv from a config path and the scratch directory, base document from it);
# a flag-only verb's document maps its flags to values
FUZZ_TARGETS = {
    "propulsion": ("platform.json", lambda cfg, tmp: ["propulsion", "--config", cfg, "--v0", "10"], None),
    "bemt-spec": (
        "propeller/propeller.json",
        lambda cfg, tmp: ["bemt", "--spec", cfg.parent, "--v0", "10", "--ns", "12"],
        None,
    ),
    "bemt": (
        {"--spec": str(CONFIG_DIR / "propeller"), "--v0": 10.0, "--ns": 12.0, "--altitude": 20000.0},
        lambda cfg, tmp: ["bemt", *flags(cfg)],
        None,
    ),
    "surrogate-fit": (
        None,
        lambda cfg, tmp: ["surrogate-fit", *flags(cfg)],
        lambda tmp: {"--samples": str(write_reference_samples(tmp / "samples.csv"))},
    ),
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
