"""Speed-limit evaluation from a trajectory.

The bound compares the Bures angle between the initial and final reduced
states against the time-averaged speed of the reduced state, measured in
the operator, trace, and Hilbert-Schmidt norms. The candidate time for
each norm is sin^2(angle) / average rate; the reported limit is their
maximum, and the operator-norm candidate is always the sharpest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import NotPure, NumericalError
from .linalg import norms_of_hermitian_stack

PURITY_TOL = 1e-9
FIDELITY_OVERSHOOT = 1e-9

# Average rates at or below this are round-off from a state that never
# moved; the ratio sin^2/rate is then 0/0 and the limit is zero by
# convention. Real dynamics in these units sits many orders above. A state
# that ends at a Bures angle of exactly 0 counts as frozen at any rate.
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


def bures_angle(rho0_pure: np.ndarray, rho_t: np.ndarray) -> float:
    """arccos of the root fidelity between a pure start and a later state.

    For rank-1 rho0 the fidelity collapses to the overlap trace(rho0 rho_t).
    Rounding may push the overlap a hair outside [0, 1]; that is clamped,
    but a violation beyond 1e-9 means the trajectory itself is broken and
    raises instead. Both gates are written so that NaN fails them.
    """
    rho0_pure = np.asarray(rho0_pure, dtype=complex)
    rho_t = np.asarray(rho_t, dtype=complex)
    purity = float(np.trace(rho0_pure @ rho0_pure).real)
    if not purity >= 1.0 - PURITY_TOL:
        raise NotPure(f"reference state purity {purity} below 1 - {PURITY_TOL:.1e}")
    fidelity = float(np.trace(rho0_pure @ rho_t).real)
    if not -FIDELITY_OVERSHOOT <= fidelity <= 1.0 + FIDELITY_OVERSHOOT:
        raise NumericalError(f"fidelity {fidelity} outside [0, 1] beyond tolerance")
    fidelity = min(max(fidelity, 0.0), 1.0)
    return float(np.arccos(np.sqrt(fidelity)))


def lambda_averages(traj: Trajectory) -> tuple[float, float, float]:
    """Trapezoidal time averages of the three norms of the state derivative;
    the time steps are taken once for all three."""
    op, tr, hs = norms_of_hermitian_stack(traj.rho_atom_dot)
    steps = np.diff(traj.times)
    span = float(traj.times[-1] - traj.times[0])
    return tuple(float(np.trapezoid(series, dx=steps) / span) for series in (op, tr, hs))


def qsl_time(traj: Trajectory) -> QslResult:
    """Speed-limit candidates and the unified bound for one trajectory.

    Frozen dynamics (a Bures angle of exactly 0, or all average rates at
    round-off level) reports zero times with the frozen flag set rather than
    dividing 0 by a round-off rate or by 0.
    """
    angle = bures_angle(traj.rho_atom[0], traj.rho_atom[-1])
    rates = lambda_averages(traj)
    frozen = angle == 0.0 or rates[1] <= FROZEN_RATE
    moved = float(np.sin(angle) ** 2)
    times = [0.0 if frozen else moved / rate for rate in rates]
    return QslResult(angle, *rates, *times, t_qsl=max(times), frozen=frozen)
