"""The public surface, pinned: changing it means editing this file and
recording the change in CHANGES.md."""

import inspect

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
    "QslResult", "bures_angle", "lambda_averages", "qsl_time",
    "CSV_HEADER", "SweepRow", "SweepSpec", "grid_values", "run_sweep",
    "write_sweep_csv", "write_trajectory_csv",
    "__version__",
]

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


def test_errors_are_the_two_families_and_four_flags():
    defined = {name: cls for name, cls in vars(cavityqsl.errors).items()
               if inspect.isclass(cls) and cls.__module__ == cavityqsl.errors.__name__}
    assert set(defined) == set(ERRORS)
    for name, base in ERRORS.items():
        assert defined[name].__bases__ == (base,), name
