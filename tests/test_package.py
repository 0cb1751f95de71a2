"""The public surface of ``hapalloc`` and the boundary of ``src/``."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import hapalloc
from hapalloc import bemt, channel, harness, neuro, propulsion
from hapalloc.q3e import FeasibilityPartition, PowerProblem

PACKAGE_DIR = Path(hapalloc.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
FORBIDDEN_IMPORTS = {"tests", "perfbench", "hypothesis", "scipy", "mpmath"}

# public names that tests alone called, now deleted or moved to tests/
REMOVED = {
    "neuro": ["save_checkpoint", "load_checkpoint", "CHECKPOINT_FORMAT", "DEFAULT_HIDDEN",
              "_evaluate", "_project_with_grad", "_ee_scale", "BARRIER_WEIGHT", "BARRIER_EPS",
              "_above_floors", "_ee_at_level"],
    "harness": ["parse_csv", "_svg_series"],
    "propulsion": ["write_samples_csv", "parse_samples_csv"],
    "beamforming": ["surrogate_rate", "min_power_coefficient", "energy_efficiency"],
    "channel": ["sample_rician", "ChannelDraw", "channel_draw", "instantaneous_sinr", "ergodic_rate_mc"],
    "bemt": ["axial_induction", "write_spec_dir", "tip_loss"],
    "config": ["total_comm_power", "load_platform_config"],
    "q3e": ["project_capped", "_scale_to_budget", "_OVERSPEND", "_water_fill", "_fill_height"],
}

# dataclass fields that nothing read, or that are derived from the other fields
REMOVED_FIELDS = [
    (FeasibilityPartition, {"min_cost_per_user", "order_g", "p_min", "p_tot"}),
    (PowerProblem, {"free", "lower_bound", "pinned_p"}),
    (harness.ReportTable, {"x_column", "y_column", "group_column", "y_columns"}),
    (neuro.TrainingLog, {"max_budget_overshoot"}),
]

# parameters that only tests set to another value, now module constants
REMOVED_PARAMETERS = [
    (bemt.propeller_performance, {"n_nodes"}),
    (harness.run_airspeed_sweep, {"coeffs", "legacy_eta_p"}),
    (channel.thermal_noise_floor, {"noise_figure_db", "temp_k"}),
    (propulsion.reference_samples, {"noise_sigma", "seed"}),
    (neuro._step, {"eps"}),
]


def imported_modules(path: Path):
    """Every module name an ``import`` or ``from ... import`` in the file names."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def _is_type_checking_block(node) -> bool:
    """Whether ``node`` is ``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    test = node.test if isinstance(node, ast.If) else None
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def run_time_imports(path: Path):
    """Every ``import`` node of the file outside ``if TYPE_CHECKING:`` blocks."""
    pending = [ast.parse(path.read_text(), filename=str(path))]
    while pending:
        node = pending.pop()
        if _is_type_checking_block(node):
            pending.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        pending.extend(ast.iter_child_nodes(node))


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports at run time, by relative or absolute name."""
    found = set()
    for node in run_time_imports(PACKAGE_DIR / f"{module}.py"):
        if isinstance(node, ast.ImportFrom) and node.level:  # from . import x, from .x import y
            names = [node.module] if node.module else [alias.name for alias in node.names]
        else:  # import hapalloc.x, from hapalloc import x, from hapalloc.x import y
            parent = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            names = [parent + alias.name for alias in node.names]
            names = [n.removeprefix("hapalloc.") for n in names if n.startswith("hapalloc.")]
        found.update(n.split(".")[0] for n in names)
    return found & set(MODULES)


def test_run_time_import_graph_is_acyclic():
    # stage 2 runs one way: q3e and harness import neuro, and neuro reads q3e in annotations only
    graph = {module: package_imports(module) for module in MODULES}
    assert "neuro" in graph["q3e"] and "q3e" not in graph["neuro"]
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, " -> ".join([*path, module])
        if module not in done:
            for target in sorted(graph[module]):
                visit(target, [*path, module])
            done.add(module)

    for module in MODULES:
        visit(module, [])


@pytest.mark.parametrize("module", MODULES)
def test_no_function_body_imports(module):
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [n.lineno for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not inner, (module, fn.name, inner)


def test_every_exported_name_resolves():
    for name in hapalloc.__all__:
        assert getattr(hapalloc, name, None) is not None, name


@pytest.mark.parametrize("module", MODULES)
def test_src_imports_no_test_benchmark_or_oracle_code(module):
    for name in imported_modules(PACKAGE_DIR / f"{module}.py"):
        parts = [p for p in name.split(".") if p]
        assert not FORBIDDEN_IMPORTS.intersection(parts[:1]), (module, name)
        assert not any(p.endswith("_oracle") for p in parts), (module, name)


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(f"hapalloc.{module}")
    for name in REMOVED[module]:
        assert not hasattr(mod, name), name
        assert not hasattr(hapalloc, name), name


def test_removed_fields_are_gone():
    for cls, removed in REMOVED_FIELDS:
        assert not removed & {f.name for f in dataclasses.fields(cls)}, cls.__qualname__


def test_adam_settings_are_constants_not_train_config_fields():
    fields = {f.name for f in dataclasses.fields(neuro.TrainConfig)}
    assert fields == {"seed", "max_epochs", "anneal_every", "project_scaling"}
    assert (neuro.ADAM_BETA1, neuro.ADAM_BETA2, neuro.ADAM_EPS) == (0.9, 0.999, 1e-8)
    assert (neuro.HIDDEN, neuro.PATIENCE, neuro.MIN_GAIN, neuro.STEP_SIZE) == ((64, 64, 32, 32), 50, 1e-10, 1e-3)
    assert bemt.N_NODES == 101
    assert (channel.NOISE_FIGURE_DB, channel.NOISE_TEMP_K) == (7.0, 290.0)
    assert (propulsion.REFERENCE_NOISE_SIGMA, propulsion.REFERENCE_SAMPLES_SEED) == (2e-3, 7)
    assert harness.LEGACY_ETA_P == 0.73
    for fn, removed in REMOVED_PARAMETERS:
        assert not removed & set(inspect.signature(fn).parameters), fn.__qualname__
    atm = inspect.signature(bemt.propeller_performance).parameters["atm"]
    assert atm.default is inspect.Parameter.empty


def test_no_package_data():
    assert not (PACKAGE_DIR / "data").exists()
