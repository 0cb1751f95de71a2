"""Benchmark runner for hapalloc.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads: studies, dense-alloc and
propeller-grid (see perfbench/README.md).  The run repeats passes of the
workload for about ``--seconds`` seconds (at least two), checks the outputs
outside the timed region, and prints every metric with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer
ones, from a run that makes untraced passes for half the time and traced
passes for the other half.  ``--workload all`` runs each workload in its own
process and prints a table.  BLAS is pinned to one thread before numpy is
imported.

Times are CPU times scaled to a fixed machine speed (calibration.py).  The
workloads are single-threaded, so on an idle machine CPU time equals
wall-clock time; on a shared virtual machine it leaves out the time the
host hands the vCPU to someone else (steal time).  A kernel timed from a
profiling-timer signal during the passes, and right after each set-up,
corrects for the machine's changing speed.  Wall-clock and unscaled CPU
pass times are printed as ``info.wall_clock_s.median_pass`` and
``info.cpu_s.median_pass``.
"""

import os
import sys
import time

T_START = time.process_time()  # set-up time counts from here, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HPP_SEED", None)  # the CLI lets this override configured seeds

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("studies", "dense-alloc", "propeller-grid")
SETUP_PROBES = 6  # extra fresh-process set-ups; set-up time is the median with the run's own
SETUP_SAMPLES = 10  # kernel runs that calibrate one set-up
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help="time one set-up, print it, exit")
    return p.parse_args(argv)


def check_tree() -> None:
    """Refuse to run outside a full checkout, so a stray copy cannot report numbers."""
    needed = [ROOT / "src" / "hapalloc" / "__init__.py", ROOT / "configs" / "sweep_budget.json",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a hapalloc checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import numpy as np

    import hapalloc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "hapalloc": str(Path(hapalloc.__file__).parent),
    }


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git (absent in an exported tree)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next((l.split()[0] for l in packed if l.endswith(" " + ref[5:])), "unknown")
        return ref
    except OSError:
        return "unknown"


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def make_workload(name: str, seed: int):
    import workloads

    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](ROOT, seed, out)


def setup_time() -> float:
    """Set-up CPU time so far, scaled by kernel runs made right after it."""
    import calibration

    cpu_s = time.process_time() - T_START
    return cpu_s * calibration.scale(calibration.block(SETUP_SAMPLES))


def setup_probes(args) -> list[float]:
    """Set-up time of fresh processes, each timed from its own start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


@dataclass
class Passes:
    results: list  # PassResult of each pass
    cpu_s: list[float]  # CPU time of each pass
    wall_s: list[float]  # wall-clock time of each pass
    scales: list[float]  # calibration factor of each pass (calibration.scale)
    spans: list[tuple[int, int]]  # tracer span range of each pass


def run_passes(workload, seconds: float, tracer=None, min_passes: int = 2) -> Passes:
    """Repeat passes until the next one would end past ``seconds``; at least ``min_passes``.

    The calibration sampler runs during the passes, and each pass is scaled
    by the kernel samples taken during it.
    """
    import calibration

    sampler = calibration.SAMPLER
    run = Passes([], [], [], [], [])
    mark = (lambda op: setattr(tracer, "op", op)) if tracer else (lambda op: None)
    t_begin = time.perf_counter()
    sampler.start()
    try:
        while True:
            first_span = len(tracer.spans) if tracer else 0
            first_sample = len(sampler.samples)
            root = tracer.open("bench.pass") if tracer else None
            w0, t0 = time.perf_counter(), calibration.clock()
            run.results.append(workload.run_pass(mark))
            run.cpu_s.append(calibration.clock() - t0)
            run.wall_s.append(time.perf_counter() - w0)
            if tracer:
                tracer.close(root)
                run.spans.append((first_span, len(tracer.spans)))
            if len(sampler.samples) == first_sample:  # a pass shorter than the sampling period
                sampler.take()
            run.scales.append(calibration.scale(sampler.samples[first_sample:]))
            elapsed = time.perf_counter() - t_begin
            if len(run.results) >= min_passes and elapsed + statistics.median(run.wall_s) > seconds:
                return run
    finally:
        sampler.stop()


def timings(run: Passes) -> dict:
    """Pass time and op latency in scaled CPU time, each timed part at its median over the passes.

    Each pass's CPU times are multiplied by its calibration factor, so that
    they read as on the reference machine.  An op's latency is its median
    over the passes; the pass time adds up the ops' latencies and the median
    remainder of a pass (its work outside the timed ops).  op_ms.p50 is the
    median over the latency ops of one pass, and the tail the highest
    percentile of TAIL_LADDER with at least ten ops beyond it, or their
    maximum when there are fewer than twenty.
    """
    import numpy as np

    scaled = [[ms * k for ms in r.op_ms] for r, k in zip(run.results, run.scales)]
    op_ms = [statistics.median(col) for col in zip(*scaled)]
    rest_ms = statistics.median(1e3 * t * k - sum(ops) for t, k, ops in zip(run.cpu_s, run.scales, scaled))
    samples = op_ms[: run.results[0].latency_ops or len(op_ms)]
    n = len(samples)
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), None)
    return {
        "pass_s": 1e-3 * (sum(op_ms) + rest_ms),
        "p50": statistics.median(samples),
        "tail": float(np.percentile(samples, pct)) if pct else max(samples),
        "tail_label": f"p{pct:g}" if pct else "max",
        "n": n,
    }


def check_runs(results, verification):
    """(attempted, failed, notes): failed ops of every pass, plus passes whose outputs differ from the first."""
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results) + len(verification.failed_ops)
    notes = list(verification.notes)
    for i, r in enumerate(results):
        if r.digest != results[0].digest:
            failed += r.ops
            notes.append(f"pass {i + 1}: outputs differ from the first execution with this seed")
    return attempted, min(failed, attempted), notes


def emit(args, env, metrics, units, extra, attempted, failed, notes) -> None:
    correct = failed == 0 and not notes
    for line in notes[:20]:
        print(f"check failed: {line}")
    for key, value in env.items():
        print(f"env.{key} = {value}")
    for key, value in extra.items():
        print(f"info.{key} = {value}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env, "info": extra,
              "notes": notes, **doc}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(doc))


def benchmark_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_untraced(args) -> int:
    workload = make_workload(args.workload, args.seed)
    setup_times = [setup_time()]
    env = environment()
    setup_times += setup_probes(args)
    run = run_passes(workload, args.seconds)
    verification = workload.verify(run.results[0])
    attempted, failed, notes = check_runs(run.results, verification)
    lat = timings(run)
    metrics = {
        "pass_s": lat["pass_s"],
        "setup_s": statistics.median(setup_times),
        "op_ms.p50": lat["p50"],
        "op_ms.tail": lat["tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = benchmark_spec()["end_to_end"]
    extra = {
        "passes": len(run.results),
        "cpu_s.median_pass": statistics.median(run.cpu_s),
        "wall_clock_s.median_pass": statistics.median(run.wall_s),
        "calibration.scale.median_pass": statistics.median(run.scales),
        "op_ms.tail_percentile": lat["tail_label"],
        "op_ms.samples": lat["n"],
        "setup_s.samples": len(setup_times),
        **{f"quality.{k}": f"{v:.6g} ratio" for k, v in verification.quality.items()},
    }
    emit(args, env, {k: metrics[k] for k in units}, units, extra, attempted, failed, notes)
    return 0


def run_traced(args) -> int:
    import tracing
    import workloads  # noqa: F401  (bind its imports before the tracer patches anything)

    tracer = tracing.Tracer()
    tracer.install()
    tracer.open("bench.setup")
    workload = make_workload(args.workload, args.seed)
    tracer.close(0)
    setup = tracing.pass_metrics(tracer, 0, len(tracer.spans))
    tracer.remove()
    env = environment()
    plain = run_passes(workload, args.seconds / 2, min_passes=1)
    tracer.install()
    traced = run_passes(workload, args.seconds / 2, tracer=tracer, min_passes=1)
    tracer.remove()
    verification = workload.verify(plain.results[0])
    attempted, failed, notes = check_runs(plain.results + traced.results, verification)
    if tracer.missing:
        notes.append(f"trace targets not found: {', '.join(tracer.missing)}")
    per_pass = [tracing.pass_metrics(tracer, a, b) for a, b in traced.spans]
    metrics = tracing.median_metrics(per_pass)
    for key in ("channel.scenario_ms", "config.load_ms"):
        metrics[key] += setup[key]
    metrics["bench.setup_ms"] = 1e3 * tracer.spans[0].duration
    pass_plain, pass_traced = timings(plain)["pass_s"], timings(traced)["pass_s"]
    metrics["trace.overhead_frac"] = pass_traced / pass_plain - 1.0
    for key in ("q3e.gap_numeric.mean", "q3e.gap_numeric.max", "neuro.gap_mlp.mean", "neuro.gap_ablation.mean"):
        metrics[key] = verification.quality.get(key, 0.0)
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    units = benchmark_spec()["per_layer"]
    extra = {"passes.untraced": len(plain.results), "passes.traced": len(traced.results),
             "pass_s.untraced": pass_plain, "pass_s.traced": pass_traced}
    emit(args, env, {k: metrics[k] for k in units}, units, extra, attempted, failed, notes)
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints a table of the JSON results."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}")
            ok = False
            continue
        doc = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= doc["correct"]
        print(f"== {name}: correct={doc['correct']} attempted={doc['attempted']} failed={doc['failed']}")
        for line in done.stdout.splitlines():
            if line.startswith(("info.", "check failed", "failed_frac")):
                print(f"   {line}")
        for metric, m in doc["metrics"].items():
            print(f"   {metric:28s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    check_tree()
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        make_workload(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_time()}))
        return 0
    return run_traced(args) if args.trace else run_untraced(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
