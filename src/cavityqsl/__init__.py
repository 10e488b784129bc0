"""Quantum speed limit of a lossy atom-cavity model with squeezed drive.

The package builds the effective two-level-plus-mode model, evolves the
single-excitation amplitudes in closed form and the full density matrix
under a Lindblad generator, and reduces trajectories to Bures-angle based
speed-limit times. Sweeps over drive and detuning parameters reproduce
the standard single-variable curves and two-variable heatmaps.
"""

from .dynamics import (AnalyticCoeffs, Trajectory, analytic_coeffs,
                       analytic_trajectory, evolve_master, initial_state,
                       liouvillian_superoperator, ode_oracle_coeffs)
from .errors import (CutoffNotConverged, NotPure, NoConvergence,
                     NumericalError, PositivityViolated, ValidationError)
from .linalg import dagger, norms_of_hermitian_stack, partial_trace_cavity_stack
from .model import (DerivedParams, ModelOperators, SystemParams,
                    bosonic_quadratic_spectrum, build_operators, default_cutoff,
                    derive, squeeze_params)
from .qsl import QslResult, bures_angle, lambda_averages, qsl_time
from .sweep import (CSV_HEADER, SweepRow, SweepSpec, grid_values, run_sweep,
                    write_sweep_csv, write_trajectory_csv)

__version__ = "0.1.0"

__all__ = [
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
