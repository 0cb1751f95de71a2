"""The benchmark workloads: inputs from a seed, one timed pass, and checks.

Each workload is a closed loop with one caller in one process.  Its
constructor is the set-up (config/scenario/spec loading and input
generation); ``run_pass`` is one timed pass; ``verify`` runs outside the
timed region, re-solves through public calls and checks the first pass's
outputs.  Calls into the package go through module attributes so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import clock
from hapalloc import bemt, channel, cli, config, neuro, propulsion
from reference import relative_gap, stage2_objective, stage2_optimum
from scenarios import random_scenario, reference_ledger

q3e_mod = importlib.import_module("hapalloc.q3e")  # the package re-exports q3e() under this name

REL_TOL = 1e-9


@dataclass
class PassResult:
    digest: str  # sha256 of everything the pass produced
    op_ms: list[float]  # latency samples, in a fixed op order
    ops: int  # operations attempted
    failed: int  # operations that raised or returned an error code
    outputs: object = None
    latency_ops: int | None = None  # the first this many ops are latency samples; None: all


@dataclass
class Verification:
    failed_ops: set = field(default_factory=set)  # op indices of the first pass
    notes: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def fail(self, op: int, note: str) -> None:
        self.failed_ops.add(op)
        self.notes.append(note)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, float]:
    """(exit code, latency in ms) of one in-process CLI call; an exception is exit code 1."""
    t0 = clock()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a benchmark error
        code = 1
    return code, 1e3 * (clock() - t0)


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def independent_costs(scenario) -> np.ndarray:
    """Per-user minimum RF cost c_k p_min,k^2, computed without the package's solvers.

    Steering vectors are rebuilt from the users' spatial angles, the ZF beam
    norms are the diagonal of the inverse Gram matrix (W^H W = G^-1), and
    p_min,k^2 inverts the surrogate rate at the QoS target.
    """
    arr = scenario.array
    cols = []
    for u in scenario.users:
        ax = np.exp(-2j * np.pi * arr.spacing_x * u.u_x * np.arange(arr.n_x) / arr.wavelength)
        ay = np.exp(-2j * np.pi * arr.spacing_y * u.u_y * np.arange(arr.n_y) / arr.wavelength)
        cols.append(np.kron(ax, ay) / np.sqrt(arr.n_t))
    v = np.column_stack(cols)
    c = np.real(np.diag(np.linalg.inv(v.conj().T @ v)))
    gammas = np.array([u.gamma for u in scenario.users])
    qos = np.array([u.qos_rate for u in scenario.users])
    return c * scenario.n0_w * (2.0 ** (qos / scenario.bw_hz) - 1.0) / gammas


def greedy_prefix_range(costs: np.ndarray, p_tot: float) -> tuple[int, int]:
    """Length of the cheapest-first prefix that fits the budget, as (lo, hi).

    The two differ only when a prefix cost lies within the relative
    tolerance of the budget, where rounding may decide either way.
    """
    cum = np.cumsum(np.sort(costs))
    return (int(np.sum(cum <= p_tot * (1.0 - REL_TOL))), int(np.sum(cum <= p_tot * (1.0 + REL_TOL))))


def check_solution(v: Verification, op: int, where: str, sol, p_tot: float, qos, prefix=None, exact=True):
    """Budget, QoS and satisfied-set-size checks on one solution."""
    if not sol.rf_spent <= p_tot * (1.0 + REL_TOL) + 1e-12:
        v.fail(op, f"{where}: RF spend {sol.rf_spent!r} W exceeds budget {p_tot!r} W")
    q = list(sol.q_set)
    if q and np.any(sol.rates[q] < qos[q] * (1.0 - REL_TOL)):
        v.fail(op, f"{where}: a satisfied user misses its QoS rate")
    if prefix is not None:
        lo, hi = prefix
        n = len(q)
        if (exact and not lo <= n <= hi) or (not exact and n > hi):
            v.fail(op, f"{where}: |q_set| = {n}, greedy prefix length in [{lo}, {hi}]")


def _csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


class BudgetSweep:
    """``hapalloc sweep`` on configs/sweep_budget.json with the mlp seed list [seed]."""

    def __init__(self, root: Path, seed: int, out: Path):
        cfg = json.loads((root / "configs" / "sweep_budget.json").read_text())
        cfg["seeds"] = [seed]
        cfg["scenario_path"] = str((root / "configs" / cfg["scenario_path"]).resolve())
        self.cfg = cfg
        self.config_path = out / "sweep_budget.json"
        self.config_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.csv_path = out / "budget.csv"
        self.svg_path = out / "budget.svg"

    def run_pass(self, mark) -> PassResult:
        mark(0)
        argv = ["sweep", "--config", str(self.config_path), "--out", str(self.csv_path), "--svg", str(self.svg_path)]
        self.csv_path.unlink(missing_ok=True)
        code, ms = _cli(argv)
        text = _read(self.csv_path)
        return PassResult(_sha(text, _read(self.svg_path)), [ms], 1, int(code != 0), text.decode())

    def verify(self, first: PassResult) -> Verification:
        v = Verification()
        cfg = self.cfg
        scenario = channel.load_scenario(cfg["scenario_path"])
        ledger = config.ledger_from_dict(cfg["ledger"])
        bf = q3e_mod.scenario_beamformer(scenario)
        k = scenario.n_users
        qos = scenario.qos_rates()
        costs = independent_costs(scenario)
        expected, gaps_numeric, gaps_mlp = [], [], []
        prev_sat: dict[str, float] = {}
        for p_tot in (float(x) for x in cfg["grid"]):
            opt = stage2_optimum(scenario, bf, p_tot, ledger).objective
            prefix = greedy_prefix_range(costs, p_tot)
            for backend in cfg["backends"]:
                if backend == "q3e-numeric":
                    sols = [q3e_mod.q3e(scenario, bf, p_tot, ledger, backend="numeric")]
                    gaps_numeric.append(relative_gap(stage2_objective(sols[0]), opt))
                elif backend == "q3e-mlp":
                    sols = [
                        q3e_mod.q3e(scenario, bf, p_tot, ledger, cfg=neuro.TrainConfig(seed=s), backend="mlp")
                        for s in cfg["seeds"]
                    ]
                    gaps_mlp.extend(relative_gap(stage2_objective(s), opt) for s in sols)
                elif backend == "max-sum-rate":
                    sols = [q3e_mod.baseline_max_sum_rate(scenario, bf, p_tot, ledger)]
                else:
                    sols = [q3e_mod.baseline_qos_only(scenario, bf, p_tot, ledger)]
                for s in sols:
                    check_solution(v, 0, f"{backend} at {p_tot} W", s, p_tot, qos, prefix,
                                   exact=backend != "max-sum-rate")
                sat = float(np.mean([len(s.q_set) / k for s in sols]))
                ee = float(np.mean([s.ee for s in sols]))
                rf = float(np.mean([s.rf_spent for s in sols]))
                if backend != "max-sum-rate":
                    if sat < prev_sat.get(backend, 0.0):
                        v.fail(0, f"{backend}: satisfaction fell at {p_tot} W")
                    prev_sat[backend] = sat
                expected.append([repr(p_tot), backend, repr(sat), repr(ee), repr(rf)])
        got = _csv_rows(first.outputs)[1:]
        if got != expected:
            bad = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
            v.fail(0, f"sweep CSV: {bad} of {len(expected)} rows differ from the public-call re-solve")
        v.quality = {
            "q3e.gap_numeric.mean": float(np.mean(gaps_numeric)),
            "q3e.gap_numeric.max": float(np.max(gaps_numeric)),
            "neuro.gap_mlp.mean": float(np.mean(gaps_mlp)),
        }
        return v


class Ablation:
    """``hapalloc ablation`` on configs/ablation.json with the seed list [seed, seed + 12)."""

    ANNEAL_EVERY = 30  # run_ablation's schedule, which the CLI does not override

    def __init__(self, root: Path, seed: int, out: Path):
        cfg = json.loads((root / "configs" / "ablation.json").read_text())
        cfg["seeds"] = list(range(seed, seed + 12))
        self.cfg = cfg
        self.config_path = out / "ablation.json"
        self.config_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.csv_path = out / "ablation.csv"

    def run_pass(self, mark) -> PassResult:
        mark(0)
        self.csv_path.unlink(missing_ok=True)
        code, ms = _cli(["ablation", "--config", str(self.config_path), "--out", str(self.csv_path)])
        text = _read(self.csv_path)
        return PassResult(_sha(text), [ms], 1, int(code != 0), text.decode())

    def verify(self, first: PassResult) -> Verification:
        """Re-solve the ``full`` variant through ``q3e(backend="mlp")`` and compare its row."""
        v = Verification()
        cfg = self.cfg
        scenario = channel.scenario_from_dict(cfg["scenario"])
        ledger = config.ledger_from_dict(cfg["ledger"])
        p_tot = float(cfg["p_tot_w"])
        bf = q3e_mod.scenario_beamformer(scenario)
        qos = scenario.qos_rates()
        prefix = greedy_prefix_range(independent_costs(scenario), p_tot)
        opt = stage2_optimum(scenario, bf, p_tot, ledger).objective
        feasible, overshoot, ees, gaps = [], [], [], []
        for seed in cfg["seeds"]:
            tcfg = neuro.TrainConfig(seed=seed, max_epochs=int(cfg["max_epochs"]), anneal_every=self.ANNEAL_EVERY)
            sol = q3e_mod.q3e(scenario, bf, p_tot, ledger, cfg=tcfg, backend="mlp")
            check_solution(v, 0, f"full variant, seed {seed}", sol, p_tot, qos, prefix)
            ok = sol.rf_spent <= p_tot * (1.0 + 1e-9) + 1e-12
            feasible.append(ok)
            excess = max(0.0, sol.rf_spent - p_tot)
            overshoot.append(0.0 if excess <= p_tot * 1e-12 else excess)
            if ok:
                ees.append(stage2_objective(sol))
            gaps.append(relative_gap(stage2_objective(sol), opt))
        expected = ["full", repr(100.0 * float(np.mean(feasible))), repr(float(np.mean(overshoot))),
                    repr(float(np.mean(ees)) if ees else float("nan"))]
        rows = {r[0]: r for r in _csv_rows(first.outputs)[1:]}
        if rows.get("full") != expected:
            v.fail(0, f"ablation CSV: full row {rows.get('full')} differs from the re-solve {expected}")
        if rows.get("full", [None, None])[1] != "100.0":
            v.fail(0, "ablation: the full variant is not 100% feasible")
        v.quality = {"neuro.gap_ablation.mean": float(np.mean(gaps))}
        return v


class Studies:
    """The two CLI studies, one after the other: the budget sweep, then the ablation.

    They are one workload so that each run is long enough to be steady: the
    benchmark makes 4 + 22 runs per workload within a fixed time.  The
    per-layer metrics cli.sweep_ms and cli.ablation_ms keep them apart.
    """

    name = "studies"

    def __init__(self, root: Path, seed: int, out: Path):
        self.parts = (BudgetSweep(root, seed, out), Ablation(root, seed, out))

    def run_pass(self, mark) -> PassResult:
        results = [part.run_pass(lambda _, op=op: mark(op)) for op, part in enumerate(self.parts)]
        return PassResult(
            _sha(*(r.digest.encode() for r in results)),
            [ms for r in results for ms in r.op_ms],
            sum(r.ops for r in results),
            sum(r.failed for r in results),
            [r.outputs for r in results],
        )

    def verify(self, first: PassResult) -> Verification:
        v = Verification()
        for op, (part, outputs) in enumerate(zip(self.parts, first.outputs)):
            got = part.verify(PassResult(first.digest, [], 1, 0, outputs))
            if got.failed_ops:
                v.failed_ops.add(op)
            v.notes += got.notes
            v.quality.update(got.quality)
        return v


class DenseAlloc:
    """Numeric stage 2 and both baselines on generated K = 16, 24, 32 instances.

    The instance pool is fixed: scenario seeds 0-9 for each K, each with
    budgets that satisfy 1/4, 1/2 and 3/4 of the cheapest-first prefix (half
    way to the next user's cost) and 1.5x the full-QoS cost.  The numeric
    solver's cost per instance is heavy-tailed (a few instances run to the
    ascent's iteration cap), so a seed-dependent pool would move pass_s by
    about 30% from seed to seed; the workload seed sets the solve order.
    """

    name = "dense-alloc"
    KS = (16, 24, 32)
    SCENARIOS_PER_K = 10
    FRACTIONS = (0.25, 0.5, 0.75)

    def __init__(self, root: Path, seed: int, out: Path):
        self.ledger = reference_ledger()
        self.scenarios = []
        self.instances = []  # (scenario index, budget, prefix range), budgets ascending per scenario
        groups = []
        for k in self.KS:
            for s in range(self.SCENARIOS_PER_K):
                sc = random_scenario(k, s)
                costs = independent_costs(sc)
                cum = np.cumsum(np.sort(costs))
                budgets = [float(0.5 * (cum[int(f * k) - 1] + cum[int(f * k)])) for f in self.FRACTIONS]
                budgets.append(1.5 * float(cum[-1]))
                groups.append(range(len(self.instances), len(self.instances) + len(budgets)))
                self.instances += [(len(self.scenarios), b, greedy_prefix_range(costs, b)) for b in budgets]
                self.scenarios.append(sc)
        rng = np.random.default_rng(seed)
        self.order = [(int(j), [int(i) for i in rng.permutation(groups[j])]) for j in rng.permutation(len(groups))]

    def run_pass(self, mark) -> PassResult:
        n = len(self.instances)
        op_ms = [0.0] * n
        sols: list = [None] * n
        failed = 0
        for j, ops in self.order:
            sc = self.scenarios[j]
            bf = q3e_mod.scenario_beamformer(sc)
            for i in ops:
                mark(i)
                p_tot = self.instances[i][1]
                t0 = clock()
                try:
                    sols[i] = (
                        q3e_mod.q3e(sc, bf, p_tot, self.ledger, backend="numeric"),
                        q3e_mod.baseline_max_sum_rate(sc, bf, p_tot, self.ledger),
                        q3e_mod.baseline_qos_only(sc, bf, p_tot, self.ledger),
                    )
                except Exception:  # counted as a failed operation
                    failed += 1
                op_ms[i] = 1e3 * (clock() - t0)
        chunks = [s.p.tobytes() + repr(s.q_set).encode() for trio in sols if trio for s in trio]
        return PassResult(_sha(*chunks), op_ms, n, failed, sols)

    def verify(self, first: PassResult) -> Verification:
        v = Verification()
        gaps = []
        last_sat: dict[tuple[int, str], int] = {}
        beamformers = {}
        for i, (j, p_tot, prefix) in enumerate(self.instances):
            trio = first.outputs[i]
            if trio is None:
                continue  # already counted as failed
            sc = self.scenarios[j]
            if j not in beamformers:
                beamformers[j] = q3e_mod.scenario_beamformer(sc)
            qos = sc.qos_rates()
            where = f"K={sc.n_users} scenario {j % self.SCENARIOS_PER_K}, {p_tot:.6g} W"
            numeric, msr, qos_only = trio
            check_solution(v, i, f"{where}, numeric", numeric, p_tot, qos, prefix)
            check_solution(v, i, f"{where}, max-sum-rate", msr, p_tot, qos, prefix, exact=False)
            check_solution(v, i, f"{where}, qos-only", qos_only, p_tot, qos, prefix)
            for tag, sol in (("numeric", numeric), ("qos-only", qos_only)):
                n_sat = len(sol.q_set)
                if n_sat < last_sat.get((j, tag), 0):
                    v.fail(i, f"{where}, {tag}: satisfied users fell as the budget rose")
                last_sat[(j, tag)] = n_sat
            opt = stage2_optimum(sc, beamformers[j], p_tot, self.ledger).objective
            gap = relative_gap(stage2_objective(numeric), opt)
            if gap < -REL_TOL:
                v.fail(i, f"{where}: numeric beats the reference optimum by {-gap:.3g}")
            gaps.append(gap)
        v.quality = {
            "q3e.gap_numeric.mean": float(np.mean(gaps)) if gaps else 0.0,
            "q3e.gap_numeric.max": float(np.max(gaps)) if gaps else 0.0,
        }
        return v


class PropellerGrid:
    """BEMT over a jittered (v0, n_s) grid, the shipped airspeed sweep, and the surrogate fit.

    Grid points keep the advance ratio J = v0 / (n_s D) at or below 0.185;
    this propeller has no propulsive solution from about J = 0.2 up.
    """

    name = "propeller-grid"
    V0_MPS = tuple(2.0 + 2.0 * i for i in range(8))
    ADVANCE = tuple(0.04 + 0.028 * j for j in range(6))

    def __init__(self, root: Path, seed: int, out: Path):
        self.spec = bemt.load_spec_dir(root / "configs" / "propeller")
        self.atm = config.isa_properties(20000.0)
        self.samples = propulsion.reference_samples()
        self.airspeed_config = root / "configs" / "sweep_airspeed.json"
        self.csv_path = out / "airspeed.csv"
        diameter = 2.0 * self.spec.r_tip
        rng = np.random.default_rng(seed)
        self.points = []
        for v0 in self.V0_MPS:
            for j in self.ADVANCE:
                v = v0 + rng.uniform(-0.5, 0.5)
                self.points.append((v, v / ((j + rng.uniform(-0.004, 0.004)) * diameter)))

    def run_pass(self, mark) -> PassResult:
        n = len(self.points)
        op_ms, results, failed = [], [], 0
        for i, (v0, n_s) in enumerate(self.points):
            mark(i)
            t0 = clock()
            try:
                results.append(bemt.propeller_performance(self.spec, v0, n_s, self.atm))
            except Exception:  # counted as a failed operation
                results.append(None)
                failed += 1
            op_ms.append(1e3 * (clock() - t0))
        mark(n)
        self.csv_path.unlink(missing_ok=True)
        code, ms = _cli(["sweep", "--config", str(self.airspeed_config), "--out", str(self.csv_path)])
        op_ms.append(ms)
        failed += int(code != 0)
        mark(n + 1)
        t0 = clock()
        fit = propulsion.fit_inverse_power_surrogate(self.samples)
        op_ms.append(1e3 * (clock() - t0))
        text = _read(self.csv_path)
        points = repr([(r.thrust, r.shaft_power, r.eta_p) if r else None for r in results]).encode()
        digest = _sha(points, text, repr(fit).encode())
        return PassResult(digest, op_ms, n + 2, failed, (results, text.decode(), fit), latency_ops=n)

    def verify(self, first: PassResult) -> Verification:
        v = Verification()
        results, text, fit = first.outputs
        for i, (r, (v0, n_s)) in enumerate(zip(results, self.points)):
            if r is None:
                continue  # already counted as failed
            where = f"BEMT at v0={v0:.4g} m/s, n_s={n_s:.4g} rev/s"
            if not (r.thrust > 0.0 and r.shaft_power > 0.0):
                v.fail(i, f"{where}: T = {r.thrust!r} N, P = {r.shaft_power!r} W")
            elif not (0.0 < r.eta_p < 1.0 and abs(r.eta_p - r.thrust * v0 / r.shaft_power) <= REL_TOL * r.eta_p):
                v.fail(i, f"{where}: eta = {r.eta_p!r} is not T v0 / P in (0, 1)")
        n = len(self.points)
        cfg = json.loads(self.airspeed_config.read_text())
        geom = config.platform_from_dict(cfg["platform"])
        atm = config.isa_properties(float(cfg["altitude_m"]))
        rows = _csv_rows(text)[1:]
        coeffs = propulsion.reference_coeffs()
        if len(rows) != len(cfg["grid"]):
            v.fail(n, f"airspeed sweep: {len(rows)} rows for {len(cfg['grid'])} airspeeds")
        for row, v0 in zip(rows, cfg["grid"]):
            want = propulsion.propulsion_power(atm, geom, float(v0), coeffs)
            if abs(float(row[5]) - want) > REL_TOL * want:
                v.fail(n, f"airspeed sweep at {v0} m/s: p_prop_w {row[5]} != {want!r}")
        v0s = np.array([s.v0 for s in self.samples])
        etas = np.array([s.eta_p for s in self.samples])

        def sse(c):
            return float(np.sum((etas - (c.c - c.alpha * v0s ** -c.beta)) ** 2))

        if not sse(fit) <= sse(coeffs) * (1.0 + REL_TOL):
            v.fail(n + 1, "surrogate fit: residual exceeds that of the generating coefficients")
        return v


WORKLOADS = {w.name: w for w in (Studies, DenseAlloc, PropellerGrid)}
