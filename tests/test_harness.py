import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import reference_ledger, sweep_scenario
from hapalloc.config import PlatformGeometry, isa_properties
from hapalloc.harness import (
    AIRSPEED_HEADERS,
    BUDGET_HEADERS,
    ReportTable,
    SweepSpec,
    budget_sweep_rows,
    emit_report,
    parse_csv,
    run_airspeed_sweep,
    run_budget_sweep,
    table_to_csv,
    table_to_svg,
)

GEOM = PlatformGeometry(140.0, 34.0, 85000.0, 1.12, 0.85)
ATM = isa_properties(20000.0)
LEDGER = reference_ledger()


class TestSweepSpec:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepSpec(kind="airspeed", grid=(3.0, 2.0))
        with pytest.raises(ValueError):
            SweepSpec(kind="orbit", grid=(1.0,))
        with pytest.raises(ValueError):
            SweepSpec(kind="rf_budget", grid=(1.0, 2.0), backends=())


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
        assert [r.x for r in rows] == [80.0, 150.0, 300.0]
        for r in rows:
            for b in self.BACKENDS:
                assert 0.0 <= r.metrics[b]["satisfaction_ratio"] <= 1.0

    def test_csv_is_byte_deterministic(self):
        sc = sweep_scenario()
        t1 = run_budget_sweep(sc, LEDGER, [100.0, 200.0], backends=self.BACKENDS)
        t2 = run_budget_sweep(sc, LEDGER, [100.0, 200.0], backends=self.BACKENDS)
        assert table_to_csv(t1) == table_to_csv(t2)

    def test_mlp_backend_runs(self):
        sc = sweep_scenario()
        table = run_budget_sweep(sc, LEDGER, [150.0], backends=("q3e-numeric", "q3e-mlp"), seeds=(0,))
        rows = budget_sweep_rows(table)
        assert rows[0].metrics["q3e-mlp"]["satisfaction_ratio"] == rows[0].metrics[
            "q3e-numeric"
        ]["satisfaction_ratio"]


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
        from hapalloc.harness import run_ablation

        sc = sweep_scenario()
        with pytest.raises(ValueError):
            run_ablation(sc, LEDGER, 100.0, seeds=range(3))
