"""Speed-limit evaluation from a trajectory.

The bound compares the Bures angle Theta between the initial and final
reduced states against the time-averaged speed of the reduced state,
measured in the operator, trace, and Hilbert-Schmidt norms. sin^2(Theta) is
1 - F, which each engine's rule gives directly (Trajectory.infidelity); the
candidate time for each norm is (1 - F) / average rate; the reported limit is
their maximum, and the operator-norm candidate is always the sharpest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import NumericalError
from .linalg import norms_of_hermitian_stack

FIDELITY_OVERSHOOT = 1e-9

# Average rates at or below this are round-off from a state that never
# moved; the ratio sin^2/rate is then 0/0 and the limit is zero by
# convention. Real dynamics in these units sits many orders above. A state
# whose fidelity with its start rounds to 1 counts as frozen at any rate.
FROZEN_RATE = 1e-15


@dataclass(frozen=True)
class QslResult:
    bures: float
    lambda_op: float
    lambda_tr: float
    lambda_hs: float
    t_op: float
    t_tr: float
    t_hs: float
    t_qsl: float
    frozen: bool = False


def lambda_averages(traj: Trajectory) -> tuple[float, float, float]:
    """Trapezoidal time averages of the three norms of the state derivative;
    the time steps are taken once for all three."""
    op, tr, hs = norms_of_hermitian_stack(traj.rho_atom_dot)
    steps = np.diff(traj.times)
    span = float(traj.times[-1] - traj.times[0])
    return tuple(float(np.trapezoid(series, dx=steps) / span) for series in (op, tr, hs))


def qsl_time(traj: Trajectory) -> QslResult:
    """Speed-limit candidates and the unified bound for one trajectory.

    1 - F a hair outside [0, 1] is clamped; beyond FIDELITY_OVERSHOOT (or
    NaN) the trajectory is broken and NumericalError is raised. Frozen
    dynamics (a fidelity that rounds to 1, or all average rates at
    round-off level) reports zero times with the frozen flag set rather
    than dividing 0 by a round-off rate or by 0.
    """
    moved = traj.infidelity
    if not -FIDELITY_OVERSHOOT <= moved <= 1.0 + FIDELITY_OVERSHOOT:
        raise NumericalError(f"fidelity {1.0 - moved} outside [0, 1] beyond tolerance")
    moved = min(max(moved, 0.0), 1.0)
    rates = lambda_averages(traj)
    frozen = 1.0 - moved == 1.0 or rates[1] <= FROZEN_RATE
    times = [0.0 if frozen else moved / rate for rate in rates]
    angle = float(np.arctan2(np.sqrt(moved), np.sqrt(1.0 - moved)))
    return QslResult(angle, *rates, *times, t_qsl=max(times), frozen=frozen)
