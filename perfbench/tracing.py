"""Span tracing from outside the package, and the per-layer metrics it yields.

Public functions are wrapped where they are looked up, not where they are
defined: ``harness`` binds ``q3e``, ``scenario_beamformer`` and the baselines
at import time, ``q3e`` calls ``solve_full_qos``, ``solve_partial_qos``,
``feasibility_partition`` and ``zf_beamformer`` through its module globals,
and ``neuro.train`` and ``bemt.solve_section`` are read as module
attributes.  Each binding gets its own wrapper around the original function,
so a call is recorded exactly once whichever path reaches it.

Spans are kept in memory as (name, start, end, parent, op, info) and written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children; the benchmark's own code is the root span
of each pass, so the self times of all spans add up to the pass time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from dataclasses import dataclass, field

from calibration import clock

LAYERS = ("config", "propulsion", "bemt", "channel", "beamforming", "q3e", "neuro", "harness", "cli")


# Annotators turn a call's arguments and result into the span's info.
def _zf_info(args, bf):
    return {"k": int(bf.n_users), "cond": float(bf.gram_condition)}


def _stage2_info(args, sol):
    return {"iters": int(sol.diagnostics.get("iterations", 0))}


def _solve_info(args, sol):
    return {"partial": len(sol.q_set) < len(sol.rates)}


def _verb_info(args, code):
    return {"verb": args[0][0] if args and args[0] else "", "code": code}


def _train_info(args, net):
    log = net.log
    return {"epochs": int(log.stopped_epoch), "best": int(log.best_epoch)}


# (module, attribute path, span name, result annotator).  The attribute path
# names the binding that callers actually look up; only bindings that some
# workload reaches are listed.
TARGETS = (
    ("hapalloc.cli", "main", "cli.main", _verb_info),
    ("hapalloc.cli", "load_scenario", "channel.load_scenario", None),
    ("hapalloc.cli", "scenario_from_dict", "channel.scenario_from_dict", None),
    ("hapalloc.cli", "ledger_from_dict", "config.ledger_from_dict", None),
    ("hapalloc.cli", "platform_from_dict", "config.platform_from_dict", None),
    ("hapalloc.cli", "isa_properties", "config.isa_properties", None),
    ("hapalloc.config", "isa_properties", "config.isa_properties", None),
    ("hapalloc.harness", "run_budget_sweep", "harness.run_budget_sweep", None),
    ("hapalloc.harness", "run_ablation", "harness.run_ablation", None),
    ("hapalloc.harness", "run_airspeed_sweep", "harness.run_airspeed_sweep", None),
    ("hapalloc.harness", "table_to_csv", "harness.table_to_csv", None),
    ("hapalloc.harness", "emit_report", "harness.emit_report", None),
    ("hapalloc.harness", "q3e", "q3e.q3e", _solve_info),
    ("hapalloc.harness", "scenario_beamformer", "q3e.scenario_beamformer", None),
    ("hapalloc.harness", "baseline_max_sum_rate", "q3e.baseline_max_sum_rate", None),
    ("hapalloc.harness", "baseline_qos_only", "q3e.baseline_qos_only", None),
    ("hapalloc.q3e", "q3e", "q3e.q3e", _solve_info),
    ("hapalloc.q3e", "scenario_beamformer", "q3e.scenario_beamformer", None),
    ("hapalloc.q3e", "baseline_max_sum_rate", "q3e.baseline_max_sum_rate", None),
    ("hapalloc.q3e", "baseline_qos_only", "q3e.baseline_qos_only", None),
    ("hapalloc.q3e", "solve_full_qos", "q3e.solve_full_qos", _stage2_info),
    ("hapalloc.q3e", "solve_partial_qos", "q3e.solve_partial_qos", _stage2_info),
    ("hapalloc.q3e", "feasibility_partition", "q3e.feasibility_partition", None),
    ("hapalloc.q3e", "zf_beamformer", "beamforming.zf_beamformer", _zf_info),
    ("hapalloc.q3e", "min_power_coefficients", "beamforming.min_power_coefficients", None),
    ("hapalloc.beamforming", "min_power_coefficients", "beamforming.min_power_coefficients", None),
    ("hapalloc.channel", "Scenario.steering_vectors", "channel.steering_vectors", None),
    ("hapalloc.channel", "scenario_from_dict", "channel.scenario_from_dict", None),
    ("hapalloc.neuro", "train", "neuro.train", _train_info),
    ("hapalloc.neuro", "trained_coefficients", "neuro.trained_coefficients", None),
    ("hapalloc.neuro", "mlp_forward", "neuro.mlp_forward", None),
    ("hapalloc.neuro", "problem_features", "neuro.problem_features", None),
    ("hapalloc.bemt", "propeller_performance", "bemt.propeller_performance", None),
    ("hapalloc.bemt", "solve_section", "bemt.solve_section", None),
    ("hapalloc.bemt", "load_spec_dir", "bemt.load_spec_dir", None),
    ("hapalloc.propulsion", "fit_inverse_power_surrogate", "propulsion.fit_inverse_power_surrogate", None),
    ("hapalloc.propulsion", "reference_samples", "propulsion.reference_samples", None),
    ("hapalloc.propulsion", "reference_coeffs", "propulsion.reference_coeffs", None),
    ("hapalloc.propulsion", "propulsion_power", "propulsion.propulsion_power", None),
    ("hapalloc.propulsion", "reynolds", "propulsion.reynolds", None),
    ("hapalloc.propulsion", "hull_drag_coefficient", "propulsion.hull_drag_coefficient", None),
    ("hapalloc.propulsion", "aerodynamic_drag", "propulsion.aerodynamic_drag", None),
    ("hapalloc.propulsion", "surrogate_efficiency", "propulsion.surrogate_efficiency", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    error: bool = False
    info: dict = field(default_factory=dict)
    child_s: float = 0.0  # summed durations of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records nested spans; ``install`` patches the targets, ``remove`` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, clock(), parent=parent, op=self.op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: bool = False, info: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = clock()
        span.error = error
        if info:
            span.info = info
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def _wrap(self, fn, name, annotate):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, error=True)
                raise
            self.close(idx, info=annotate(args, result) if annotate else None)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, path, name, annotate in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, annotate))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
                if s.error:
                    row["error"] = True
                if s.info:
                    row["info"] = s.info
                fh.write(json.dumps(row) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def pass_metrics(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of the spans ``tracer.spans[first:last]``.

    The range holds one root span (a pass or the set-up) and its descendants.
    """
    spans = tracer.spans[first:last]
    by_name: dict[str, list[Span]] = {}
    self_ms = {layer: 0.0 for layer in (*LAYERS, "bench")}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        self_ms[_layer(s.name)] += 1e3 * s.self_time

    def total_ms(*names):
        return 1e3 * sum(s.duration for n in names for s in by_name.get(n, ()))

    def outer_ms(names):
        """Time in the named spans, not counting those nested in one another."""
        return 1e3 * sum(
            s.duration for n in names for s in by_name.get(n, ())
            if s.parent < 0 or tracer.spans[s.parent].name not in names
        )

    def errors(name):
        return sum(1 for s in by_name.get(name, ()) if s.error)

    trains = by_name.get("neuro.train", [])
    epochs = sum(s.info.get("epochs", 0) for s in trains)
    best = sum(s.info.get("best", 0) for s in trains)
    train_ms = total_ms("neuro.train")
    solves = by_name.get("q3e.q3e", [])
    stage2 = by_name.get("q3e.solve_full_qos", []) + by_name.get("q3e.solve_partial_qos", [])
    iters = [s.info.get("iters", 0) for s in stage2]
    zf = by_name.get("beamforming.zf_beamformer", [])
    zf32 = [1e3 * s.duration for s in zf if s.info.get("k") == 32]
    points = by_name.get("bemt.propeller_performance", [])
    sections = by_name.get("bemt.solve_section", [])
    pass_ms = 1e3 * sum(s.duration for s in spans if s.parent < 0)

    m = {
        "neuro.trainings": len(trains),
        "neuro.epochs": epochs,
        "neuro.train_ms": train_ms,
        "neuro.ms_per_epoch": train_ms / epochs if epochs else 0.0,
        "neuro.useful_epoch_frac": best / epochs if epochs else 0.0,
        "neuro.failed": errors("neuro.train"),
        "q3e.solves": len(solves),
        "q3e.partial_frac": (sum(1 for s in solves if s.info.get("partial")) / len(solves)) if solves else 0.0,
        "q3e.partition_ms": total_ms("q3e.feasibility_partition"),
        "q3e.stage2_ms": total_ms("q3e.solve_full_qos", "q3e.solve_partial_qos"),
        "q3e.stage2_iters": sum(iters),
        "q3e.stage2_iters.max": max(iters, default=0),
        "q3e.baseline_ms": total_ms("q3e.baseline_max_sum_rate", "q3e.baseline_qos_only"),
        "beamforming.zf_calls": len(zf),
        "beamforming.zf_ms": total_ms("beamforming.zf_beamformer"),
        "beamforming.zf_ms.k32": statistics.median(zf32) if zf32 else 0.0,
        "beamforming.gram_cond.max": max((s.info.get("cond", 0.0) for s in zf), default=0.0),
        "bemt.points": len(points),
        "bemt.point_ms": total_ms("bemt.propeller_performance") / len(points) if points else 0.0,
        "bemt.sections": len(sections),
        "bemt.section_us": 1e6 * sum(s.duration for s in sections) / len(sections) if sections else 0.0,
        "bemt.failed": errors("bemt.propeller_performance"),
        "propulsion.fit_ms": total_ms("propulsion.fit_inverse_power_surrogate"),
        "propulsion.calls": sum(len(ss) for n, ss in by_name.items() if _layer(n) == "propulsion"),
        "harness.csv_ms": total_ms("harness.table_to_csv"),
        "cli.verb_ms": total_ms("cli.main"),
        "cli.sweep_ms": 1e3 * sum(s.duration for s in by_name.get("cli.main", ()) if s.info.get("verb") == "sweep"),
        "cli.ablation_ms": 1e3 * sum(s.duration for s in by_name.get("cli.main", ()) if s.info.get("verb") == "ablation"),
        "channel.steering_ms": total_ms("channel.steering_vectors"),
        "channel.scenario_ms": outer_ms({"channel.load_scenario", "channel.scenario_from_dict"}),
        "config.load_ms": outer_ms({n for n in by_name if _layer(n) == "config"}),
        "trace.spans": len(spans),
        "trace.layer_self_frac": sum(v for k, v in self_ms.items() if k != "bench") / pass_ms if pass_ms else 0.0,
    }
    for layer, v in self_ms.items():
        m[f"{layer}.self_ms"] = v
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
