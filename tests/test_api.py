"""The public surface, pinned: changing it means editing this file and
recording the change in CHANGES.md."""

import ast
import dataclasses
import inspect
from pathlib import Path

import cavityqsl
import cavityqsl.errors

PUBLIC = [
    "AnalyticCoeffs", "Trajectory", "analytic_coeffs", "analytic_trajectory",
    "evolve_master", "initial_state", "liouvillian_superoperator",
    "ode_oracle_coeffs",
    "CutoffNotConverged", "NotPure", "NoConvergence", "NumericalError",
    "PositivityViolated", "ValidationError",
    "dagger", "norms_of_hermitian_stack", "partial_trace_cavity_stack",
    "DerivedParams", "ModelOperators", "SystemParams",
    "bosonic_quadratic_spectrum", "build_operators", "default_cutoff",
    "derive", "squeeze_params",
    "QslResult", "lambda_averages", "qsl_time",
    "CSV_HEADER", "SweepRow", "SweepSpec", "grid_values", "run_sweep",
    "write_sweep_csv", "write_trajectory_csv",
    "__version__",
]

# The Trajectory constructor's fields, in order.
TRAJECTORY_FIELDS = ["times", "reduced", "fock_cutoff", "traces", "conv_dist", "coords", "block"]

# ValidationError rows and exit code 1; NumericalError rows and exit code 2.
ERRORS = {
    "ValidationError": ValueError,
    "NumericalError": RuntimeError,
    "NoConvergence": cavityqsl.errors.NumericalError,
    "CutoffNotConverged": cavityqsl.errors.NumericalError,
    "PositivityViolated": cavityqsl.errors.NumericalError,
    "NotPure": cavityqsl.errors.NumericalError,
}


def test_all_is_pinned_and_resolves():
    assert cavityqsl.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(cavityqsl, name), name


def test_trajectory_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(cavityqsl.Trajectory)] == TRAJECTORY_FIELDS


def test_errors_are_the_two_families_and_four_flags():
    defined = {name: cls for name, cls in vars(cavityqsl.errors).items()
               if inspect.isclass(cls) and cls.__module__ == cavityqsl.errors.__name__}
    assert set(defined) == set(ERRORS)
    for name, base in ERRORS.items():
        assert defined[name].__bases__ == (base,), name


# Imported only so that the benchmark tracer can wrap the name where the
# module looks it up; ROADMAP items 5 (benchmark-only PR) and 7 (deletion
# pass) drop them with the tracer's entries.
TRACER_ONLY = {("dynamics", "build_operators"), ("sweep", "default_cutoff")}


def test_no_module_imports_a_name_it_never_uses():
    # __init__ re-exports every name it imports, so it is left out
    unused = set()
    for path in Path(cavityqsl.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused |= {(path.stem, name) for name in bound if name not in used}
    assert unused == TRACER_ONLY


def test_every_tracer_only_import_is_still_a_tracer_boundary():
    # read, not imported: once a boundary goes, its import can go too
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    boundaries = next(ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
                      if isinstance(node, ast.Assign)
                      and [target.id for target in node.targets] == ["BOUNDARIES"])
    wrapped = {(module, attr) for module, attr, _ in boundaries}
    assert {(f"cavityqsl.{module}", name) for module, name in TRACER_ONLY} <= wrapped


def test_cli_imports_only_public_names_of_the_package():
    # the command line runs on the public library, with no private helper
    path = Path(cavityqsl.__file__).parent / "cli.py"
    private = [(node.module, alias.name) for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "cavityqsl")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
