import csv
import itertools
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import ablation_config, reference_ledger, sweep_scenario
from hapalloc.channel import scenario_from_dict
from hapalloc import neuro
from hapalloc.config import ConfigError, PlatformGeometry, isa_properties, ledger_from_dict
from hapalloc.harness import (
    AIRSPEED_HEADERS,
    BUDGET_HEADERS,
    ReportTable,
    emit_report,
    run_ablation,
    run_airspeed_sweep,
    run_budget_sweep,
    table_to_csv,
    table_to_svg,
)
from hapalloc.neuro import TrainConfig
from hapalloc.q3e import q3e, scenario_beamformer, stage2_problem

GEOM = PlatformGeometry(140.0, 34.0, 85000.0, 1.12, 0.85)
ATM = isa_properties(20000.0)
LEDGER = reference_ledger()


def budget_sweep_rows(table: ReportTable) -> dict[float, dict[str, dict[str, float]]]:
    """A budget-sweep table as {budget: {backend: metrics}}, in grid order."""
    by_x: dict[float, dict] = {}
    for p_tot, backend, sat, ee, rf in table.rows:
        by_x.setdefault(p_tot, {})[backend] = {
            "satisfaction_ratio": sat,
            "ee_bps_per_w": ee,
            "rf_spent_w": rf,
        }
    return by_x


class TestAirspeedSweep:
    def test_full_grid_shape_and_monotonicity(self):
        table = run_airspeed_sweep(GEOM, ATM, list(range(1, 26)))
        assert list(table.headers) == AIRSPEED_HEADERS
        assert len(table.rows) == 25
        powers = [r[5] for r in table.rows]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_single_point_grid(self):
        table = run_airspeed_sweep(GEOM, ATM, [10.0])
        assert len(table.rows) == 1
        assert table.rows[0][0] == 10.0

    def test_legacy_gap_grows_with_airspeed(self):
        table = run_airspeed_sweep(GEOM, ATM, list(range(1, 26)))
        first_gap = table.rows[0][5] - table.rows[0][6]
        last_gap = table.rows[-1][5] - table.rows[-1][6]
        assert last_gap > first_gap > 0.0


class TestBudgetSweep:
    BACKENDS = ("q3e-numeric", "max-sum-rate", "qos-only")

    def test_small_sweep_structure(self):
        sc = sweep_scenario()
        table = run_budget_sweep(sc, LEDGER, [80.0, 150.0, 300.0], backends=self.BACKENDS)
        assert list(table.headers) == BUDGET_HEADERS
        assert len(table.rows) == 9  # 3 grid points x 3 backends
        rows = budget_sweep_rows(table)
        assert list(rows) == [80.0, 150.0, 300.0]
        for metrics in rows.values():
            for b in self.BACKENDS:
                assert 0.0 <= metrics[b]["satisfaction_ratio"] <= 1.0

    def test_csv_is_byte_deterministic(self):
        sc = sweep_scenario()
        t1 = run_budget_sweep(sc, LEDGER, [100.0, 200.0], backends=self.BACKENDS)
        t2 = run_budget_sweep(sc, LEDGER, [100.0, 200.0], backends=self.BACKENDS)
        assert table_to_csv(t1) == table_to_csv(t2)

    def test_unknown_backend_is_named_before_any_training(self, monkeypatch):
        # the unknown backend used to raise ValueError only after all 34 networks had trained
        yields = []

        def counted(jobs):
            for item in train_many(jobs):
                yields.append(item)
                yield item

        train_many = neuro.train_many
        monkeypatch.setattr(neuro, "train_many", counted)
        with pytest.raises(ConfigError, match="unknown backend\\(s\\) 'bogus'"):
            run_budget_sweep(sweep_scenario(), LEDGER, [70.0, 80.0], backends=("q3e-mlp", "bogus"))
        assert yields == []

    def test_mlp_backend_runs(self):
        sc = sweep_scenario()
        table = run_budget_sweep(sc, LEDGER, [150.0], backends=("q3e-numeric", "q3e-mlp"), seeds=(0,))
        metrics = budget_sweep_rows(table)[150.0]
        assert metrics["q3e-mlp"]["satisfaction_ratio"] == metrics["q3e-numeric"]["satisfaction_ratio"]


def lone_mlp_solve(sc, bf, p_tot: float, seed: int):
    return q3e(sc, bf, p_tot, LEDGER, cfg=TrainConfig(seed=seed), backend="mlp")


class TestPooledBudgetSweep:
    """The q3e-mlp column trains the budgets of one face in one pool; its rows must equal lone re-solves."""

    def test_rows_equal_per_budget_mlp_resolves(self):
        # three faces (6, 7 and all 9 users satisfied): pools of 4, 2 and 4 trainings
        sc = sweep_scenario()
        bf = scenario_beamformer(sc)
        grid, seeds = [80.0, 90.0, 100.0, 250.0, 300.0], [1, 0]
        problems = [stage2_problem(sc, bf, p_tot, LEDGER) for p_tot in grid]
        assert [a.shares_face(b) for a, b in zip(problems, problems[1:])] == [True, False, False, True]
        table = run_budget_sweep(sc, LEDGER, grid, backends=("q3e-numeric", "q3e-mlp"), seeds=seeds)
        want = []
        for p_tot in grid:
            numeric = q3e(sc, bf, p_tot, LEDGER, backend="numeric")
            want.append([p_tot, "q3e-numeric", len(numeric.q_set) / sc.n_users, numeric.ee, numeric.rf_spent])
            sols = [lone_mlp_solve(sc, bf, p_tot, seed) for seed in seeds]
            want.append([p_tot, "q3e-mlp", float(np.mean([len(s.q_set) / sc.n_users for s in sols])),
                         float(np.mean([s.ee for s in sols])), float(np.mean([s.rf_spent for s in sols]))])
        assert table.rows == want

    def test_raises_the_error_of_the_first_diverging_budget(self, monkeypatch):
        # at 1e153 the 90 W trainings stop on their patience, and at 200 W and 210 W, one face, the first
        # update's parameters overflow a later forward pass: seed 1 at 200 W first, at epoch 15, seed 0 at epoch 9
        monkeypatch.setattr(neuro, "STEP_SIZE", 1e153)
        sc = sweep_scenario()
        bf = scenario_beamformer(sc)
        grid, seeds = [90.0, 200.0, 210.0], [1, 0]
        lone = {}
        for key in itertools.product(grid, seeds):
            try:
                lone_mlp_solve(sc, bf, *key)
            except neuro.TrainingError as exc:
                lone[key] = exc
        first = lone[next(key for key in itertools.product(grid, seeds) if key in lone)]
        # 200 W and 210 W share a pool, where a later training diverges at an earlier epoch
        assert min(exc.epoch for exc in lone.values()) < first.epoch
        with pytest.raises(neuro.TrainingError) as err:
            run_budget_sweep(sc, LEDGER, grid, backends=("q3e-mlp",), seeds=seeds)
        assert (err.value.epoch, err.value.seed, str(err.value)) == (first.epoch, first.seed, str(first))


class TestEmitReport:
    def _table(self):
        return ReportTable(
            headers=("x", "series"),
            rows=[[1.0, "a,b"], [2.0, "plain"]],
            series=(("x", [1.0, 2.0], [1.0, 2.0]),),
            x_label="x (unit)",
            y_label="y (unit)",
        )

    def test_csv_round_trip(self, tmp_path):
        table = self._table()
        path = emit_report(table, "csv", tmp_path / "t.csv")
        header, *rows = csv.reader(path.read_text().splitlines())
        assert tuple(header) == table.headers
        assert [[float(x), series] for x, series in rows] == table.rows

    def test_csv_quotes_embedded_commas(self, tmp_path):
        path = emit_report(self._table(), "csv", tmp_path / "t.csv")
        assert '"a,b"' in path.read_text()

    def test_svg_is_well_formed_with_one_polyline_per_series(self, tmp_path):
        sc = sweep_scenario()
        table = run_budget_sweep(
            sc, LEDGER, [100.0, 200.0], backends=("q3e-numeric", "qos-only")
        )
        path = emit_report(table, "svg", tmp_path / "t.svg")
        root = ET.fromstring(path.read_text())
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2
        assert root.get("viewBox") == "0 0 960 540"

    def test_airspeed_svg_has_two_series(self, tmp_path):
        table = run_airspeed_sweep(GEOM, ATM, [5.0, 10.0, 15.0])
        path = emit_report(table, "svg", tmp_path / "a.svg")
        root = ET.fromstring(path.read_text())
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_empty_table_rejected(self, tmp_path):
        empty = ReportTable(headers=("a",), rows=[])
        with pytest.raises(ValueError):
            emit_report(empty, "csv", tmp_path / "e.csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._table(), "pdf", tmp_path / "t.pdf")

    def test_svg_without_plot_hints_rejected(self):
        with pytest.raises(ValueError, match="no series"):
            table_to_svg(ReportTable(headers=("a",), rows=[[1.0]], series=()))


class TestAblationStructure:
    def test_requires_enough_seeds(self):
        sc = sweep_scenario()
        with pytest.raises(ValueError):
            run_ablation(sc, LEDGER, 100.0, seeds=range(3))

    def test_full_row_equals_mlp_resolves(self):
        # the full variant trains exactly what q3e(backend="mlp") trains, so
        # its row must equal one computed from q3e's own solutions
        doc = ablation_config()
        sc = scenario_from_dict(doc["scenario"])
        ledger = ledger_from_dict(doc["ledger"])
        p_tot = float(doc["p_tot_w"])
        seeds = range(10)
        table = run_ablation(sc, ledger, p_tot, seeds=seeds, max_epochs=60)
        bf = scenario_beamformer(sc)
        problem = stage2_problem(sc, bf, p_tot, ledger)
        feasible, overshoot, ees = [], [], []
        for seed in seeds:
            cfg = TrainConfig(seed=seed, max_epochs=60)
            sol = q3e(sc, bf, p_tot, ledger, cfg=cfg, backend="mlp")
            ok = sol.rf_spent <= p_tot * (1.0 + 1e-9) + 1e-12
            feasible.append(ok)
            excess = max(0.0, sol.rf_spent - p_tot)
            overshoot.append(0.0 if excess <= p_tot * 1e-12 else excess)
            if ok:
                ees.append(problem.objective(sol.p))
        want = ["full", 100.0 * float(np.mean(feasible)), float(np.mean(overshoot)), float(np.mean(ees))]
        assert table.rows[0] == want
        assert want[1] == 100.0
