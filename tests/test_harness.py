import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import ablation_config, reference_ledger, sweep_scenario
from hapalloc.channel import scenario_from_dict
from hapalloc.config import PlatformGeometry, isa_properties, ledger_from_dict
from hapalloc.harness import (
    ABLATION_ANNEAL_EVERY,
    AIRSPEED_HEADERS,
    BUDGET_HEADERS,
    ReportTable,
    emit_report,
    parse_csv,
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
        table = run_airspeed_sweep(GEOM, ATM, list(range(1, 26)), legacy_eta_p=0.73)
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

    def test_mlp_backend_runs(self):
        sc = sweep_scenario()
        table = run_budget_sweep(sc, LEDGER, [150.0], backends=("q3e-numeric", "q3e-mlp"), seeds=(0,))
        metrics = budget_sweep_rows(table)[150.0]
        assert metrics["q3e-mlp"]["satisfaction_ratio"] == metrics["q3e-numeric"]["satisfaction_ratio"]


class TestEmitReport:
    def _table(self):
        return ReportTable(
            headers=("x", "series"),
            rows=[[1.0, "a,b"], [2.0, "plain"]],
            x_column="x",
            y_columns=("x",),
            x_label="x (unit)",
            y_label="y (unit)",
        )

    def test_csv_round_trip(self, tmp_path):
        table = self._table()
        path = emit_report(table, "csv", tmp_path / "t.csv")
        back = parse_csv(path.read_text())
        assert back.headers == table.headers
        assert back.rows == table.rows

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
        with pytest.raises(ValueError):
            table_to_svg(ReportTable(headers=("a",), rows=[[1.0]]))


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
            cfg = TrainConfig(seed=seed, max_epochs=60, anneal_every=ABLATION_ANNEAL_EVERY)
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
