"""Trajectory engines.

Two independent routes to the same physics:

* the closed-form single-excitation amplitudes of the effective
  non-Hermitian evolution (analytic path, excited start only), and
* fixed-step RK4 integration of the squeezed-picture Lindblad master
  equation on a truncated Fock space (master path, any initial angle).

A small brute-force RK4 oracle for the two-amplitude linear ODE system
validates the closed form independently of either engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CutoffNotConverged, DimensionMismatch, EmptyTrajectory,
                     PositivityViolated, StepTooLarge, ValidationError,
                     WrongInitialState)
from .linalg import eigvalsh, partial_trace_cavity_stack
from .model import (DerivedParams, ModelOperators, SystemParams, build_operators,
                    default_cutoff, derive)

# Below this magnitude the square-root splitting is numerically degenerate
# and the closed form switches to its series limit.
DEGENERATE_SPLITTING = 1e-8

DEFAULT_STEPS = 2000
MIN_STEPS = 100

# Quality gates on master-equation trajectories.
POSITIVITY_FLOOR = -1e-6
CONVERGENCE_DISTANCE = 1e-8


@dataclass(frozen=True)
class AnalyticCoeffs:
    """Closed-form amplitudes at one instant, plus the rate combinations.

    excited_amp multiplies |e,0> and photon_amp multiplies |g,1>; the |g,0>
    amplitude is identically zero on this path (the master equation carries
    the honest ground-state refill). decay_diff and decay_sum are
    (gamma - kappa) + 2i(delta_a - delta_s) and (gamma + kappa) +
    2i(delta_a + delta_s); splitting_root is sqrt(decay_diff^2 - 16 g_s^2).
    """

    excited_amp: complex
    photon_amp: complex
    decay_diff: complex
    decay_sum: complex
    splitting_root: complex


@dataclass
class Trajectory:
    """Time grid with states and reduced-state derivatives.

    rho_full is None on the analytic path (the closed form never builds the
    joint density matrix). traces and min_eigs are per-step diagnostics;
    herm_err and conv_dist summarize the whole run.
    """

    times: np.ndarray
    rho_full: np.ndarray | None
    rho_atom: np.ndarray
    rho_atom_dot: np.ndarray
    fock_cutoff: int
    traces: np.ndarray
    min_eigs: np.ndarray
    herm_err: float
    conv_dist: float

    @property
    def trace_err(self) -> float:
        return float(np.abs(self.traces - 1.0).max())

    def __post_init__(self) -> None:
        if len(self.times) < 2:
            raise EmptyTrajectory(f"need >= 2 grid points, got {len(self.times)}")


def _rate_combinations(d: DerivedParams, params: SystemParams) -> tuple[complex, complex, complex]:
    decay_diff = params.gamma - params.kappa + 2j * (params.delta_a - d.delta_s)
    decay_sum = params.gamma + params.kappa + 2j * (params.delta_a + d.delta_s)
    splitting_root = cmath.sqrt(decay_diff * decay_diff - 16.0 * d.g_s * d.g_s)
    return decay_diff, decay_sum, splitting_root


def _amplitudes(params: SystemParams, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex, complex, complex]:
    """Vectorized closed-form amplitudes over a time array."""
    d = derive(params)
    diff, total, root = _rate_combinations(d, params)
    t = np.asarray(times, dtype=float)
    envelope = np.exp(-0.25 * total * t)
    if abs(root) < DEGENERATE_SPLITTING:
        # series limit: cosh -> 1, sinh(root*t/4)/root -> t/4
        excited = envelope * (1.0 - 0.25 * diff * t)
        photon = -1j * d.g_s * t * envelope
    else:
        arg = 0.25 * root * t
        excited = envelope * (np.cosh(arg) - (diff / root) * np.sinh(arg))
        photon = (4.0 * d.g_s / (1j * root)) * envelope * np.sinh(arg)
    return excited, photon, diff, total, root


def _require_excited_start(params: SystemParams) -> None:
    if params.alpha != 0.0:
        raise WrongInitialState(
            f"closed form requires alpha = 0 (excited start), got alpha = {params.alpha}")


def analytic_coeffs(params: SystemParams, t: float) -> AnalyticCoeffs:
    """Closed-form amplitudes at time t for the excited start.

    The excited amplitude is exp(-decay_sum*t/4) * [cosh(root*t/4) -
    (decay_diff/root)*sinh(root*t/4)] and the photon amplitude is
    (4 g_s / (i root)) * exp(-decay_sum*t/4) * sinh(root*t/4); both are
    even in root, so either square-root branch gives the same values.
    """
    _require_excited_start(params)
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    excited, photon, diff, total, root = _amplitudes(params, np.array([t]))
    return AnalyticCoeffs(complex(excited[0]), complex(photon[0]), diff, total, root)


def _oracle_step_limit(params: SystemParams) -> float:
    d = derive(params)
    _, _, root = _rate_combinations(d, params)
    scale = abs(root)
    if scale > 0.0:
        return 1e-3 * min(1.0, 1.0 / scale)
    return 1e-3


def _oracle_trajectory(params: SystemParams, t: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 on the two-amplitude linear system; returns (times, amps[n+1, 2])."""
    _require_excited_start(params)
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if step <= 0:
        raise ValidationError(f"step must be > 0, got {step}")
    limit = _oracle_step_limit(params)
    if step > limit:
        raise StepTooLarge(f"step {step} exceeds accuracy bound {limit:.3e}")
    d = derive(params)
    coupling = -1j * np.array(
        [[params.delta_a - 0.5j * params.gamma, d.g_s],
         [d.g_s, d.delta_s - 0.5j * params.kappa]], dtype=complex)
    n = max(1, math.ceil(t / step)) if t > 0 else 0
    h = t / n if n else 0.0
    amps = np.empty((n + 1, 2), dtype=complex)
    y = np.array([1.0 + 0j, 0.0 + 0j])
    amps[0] = y
    for i in range(1, n + 1):
        k1 = coupling @ y
        k2 = coupling @ (y + 0.5 * h * k1)
        k3 = coupling @ (y + 0.5 * h * k2)
        k4 = coupling @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        amps[i] = y
    return np.linspace(0.0, t, n + 1), amps


def ode_oracle_coeffs(params: SystemParams, t: float,
                      step: float | None = None) -> AnalyticCoeffs:
    """Brute-force RK4 integration of the amplitude ODEs from (1, 0).

    Independent of the closed form; used to validate it. The step must stay
    below 1e-3 * min(1, 1/|splitting_root|) so the truncation error is
    negligible against the 1e-8 comparison tolerance; by default half that
    bound is used.
    """
    if step is None:
        step = 0.5 * _oracle_step_limit(params)
    _, amps = _oracle_trajectory(params, t, step)
    d = derive(params)
    diff, total, root = _rate_combinations(d, params)
    return AnalyticCoeffs(complex(amps[-1, 0]), complex(amps[-1, 1]), diff, total, root)


def analytic_atom_state(params: SystemParams, t: float) -> np.ndarray:
    """Reduced atom matrix on the analytic path: diag(|excited|^2, |photon|^2).

    The ground amplitude is identically zero here, so the off-diagonal terms
    vanish and the trace falls short of one by exactly the population the
    jumps would move to |g,0>; the matrix is used as-is, deficit included.
    """
    c = analytic_coeffs(params, t)
    return np.diag([abs(c.excited_amp) ** 2, abs(c.photon_amp) ** 2]).astype(complex)


def analytic_trajectory(params: SystemParams, steps: int = DEFAULT_STEPS) -> Trajectory:
    """Closed-form trajectory on a uniform grid over [0, tau].

    The reduced-state derivative is exact: d|A|^2/dt = 2 Re(A* dA/dt) with
    the amplitude derivatives taken from the ODE right-hand side, which the
    closed form satisfies identically.
    """
    _require_excited_start(params)
    if steps < MIN_STEPS:
        raise ValidationError(f"steps must be >= {MIN_STEPS}, got {steps}")
    d = derive(params)
    times = np.linspace(0.0, params.tau, steps + 1)
    excited, photon, _, _, _ = _amplitudes(params, times)
    excited_dot = -1j * ((params.delta_a - 0.5j * params.gamma) * excited + d.g_s * photon)
    photon_dot = -1j * ((d.delta_s - 0.5j * params.kappa) * photon + d.g_s * excited)
    pop_e = np.abs(excited) ** 2
    pop_p = np.abs(photon) ** 2
    rate_e = 2.0 * np.real(np.conj(excited) * excited_dot)
    rate_p = 2.0 * np.real(np.conj(photon) * photon_dot)
    n = steps + 1
    rho_atom = np.zeros((n, 2, 2), dtype=complex)
    rho_atom[:, 0, 0] = pop_e
    rho_atom[:, 1, 1] = pop_p
    rho_dot = np.zeros((n, 2, 2), dtype=complex)
    rho_dot[:, 0, 0] = rate_e
    rho_dot[:, 1, 1] = rate_p
    return Trajectory(
        times=times,
        rho_full=None,
        rho_atom=rho_atom,
        rho_atom_dot=rho_dot,
        fock_cutoff=1,
        traces=pop_e + pop_p,
        min_eigs=np.minimum(pop_e, pop_p),
        herm_err=0.0,
        conv_dist=0.0,
    )


def liouvillian(ops: ModelOperators, derived: DerivedParams, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the squeezed-picture master equation.

    rho_dot = i[rho, H] - (1/2){ D(L_atom) + (n_s+1) D(L_cav) + n_s D(L_cav†)
    - m_s Dp(L_cav†) - m_s* Dp(L_cav) } rho, with D(o)r = o†or - 2oro† + ro†o
    and Dp(o)r = oor - 2oro + roo. With n_s = m_s = 0 only the two plain
    dissipators survive. Output is Hermitian with zero trace.
    """
    rho = np.asarray(rho, dtype=complex)
    h = ops.hamiltonian
    if rho.shape != h.shape:
        raise DimensionMismatch(f"rho shape {rho.shape} does not match operators {h.shape}")

    def plain(o: np.ndarray) -> np.ndarray:
        od = o.conj().T
        odo = od @ o
        return odo @ rho - 2.0 * (o @ rho @ od) + rho @ odo

    def twophoton(o: np.ndarray) -> np.ndarray:
        oo = o @ o
        return oo @ rho - 2.0 * (o @ rho @ o) + rho @ oo

    cav = ops.lindblad_cavity
    cav_dag = cav.conj().T
    out = 1j * (rho @ h - h @ rho)
    out -= 0.5 * (plain(ops.lindblad_atom)
                  + (derived.n_s + 1.0) * plain(cav)
                  + derived.n_s * plain(cav_dag)
                  - derived.m_s * twophoton(cav_dag)
                  - np.conj(derived.m_s) * twophoton(cav))
    return out


def liouvillian_superoperator(ops: ModelOperators, derived: DerivedParams) -> np.ndarray:
    """Matrix acting on row-major vectorized states: vec(rho_dot) = L vec(rho).

    Same map as liouvillian(); built once per trajectory so that time
    stepping reduces to matrix-vector products. For row-major vec,
    vec(A X B) = (A kron B^T) vec(X).
    """
    h = ops.hamiltonian
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)

    def left(x: np.ndarray) -> np.ndarray:
        return np.kron(x, eye)

    def right(x: np.ndarray) -> np.ndarray:
        return np.kron(eye, x.T)

    def sandwich(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.kron(x, y.T)

    def plain(o: np.ndarray) -> np.ndarray:
        od = o.conj().T
        odo = od @ o
        return left(odo) - 2.0 * sandwich(o, od) + right(odo)

    def twophoton(o: np.ndarray) -> np.ndarray:
        oo = o @ o
        return left(oo) - 2.0 * sandwich(o, o) + right(oo)

    cav = ops.lindblad_cavity
    cav_dag = cav.conj().T
    super_op = 1j * (right(h) - left(h))
    super_op -= 0.5 * (plain(ops.lindblad_atom)
                       + (derived.n_s + 1.0) * plain(cav)
                       + derived.n_s * plain(cav_dag)
                       - derived.m_s * twophoton(cav_dag)
                       - np.conj(derived.m_s) * twophoton(cav))
    return super_op


def initial_state(params: SystemParams, fock_dim: int) -> np.ndarray:
    """Pure product start: (cos(alpha)|e> + sin(alpha)|g>) (x) vacuum."""
    psi = np.zeros(2 * fock_dim, dtype=complex)
    psi[0] = math.cos(params.alpha)
    psi[fock_dim] = math.sin(params.alpha)
    return np.outer(psi, psi.conj())


def _rk4_step_matrix(super_op: np.ndarray, h: float) -> np.ndarray:
    """One-step map of classical RK4 for the linear autonomous system.

    For vec_dot = L vec the four-stage update collapses exactly to the
    degree-4 Taylor polynomial I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24,
    so precomputing it reproduces RK4 arithmetic at matrix-vector cost.
    """
    hl = h * super_op
    step = np.eye(super_op.shape[0], dtype=complex) + hl
    term = hl
    for order in (2, 3, 4):
        term = (hl @ term) / order
        step += term
    return step


def _integrate_states(params: SystemParams, cutoff: int, steps: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the grid and return (states[n+1, d*d] row-vectorized, L, fock_dim)."""
    ops = build_operators(params, cutoff)
    d = derive(params)
    super_op = liouvillian_superoperator(ops, d)
    fock_dim = cutoff + 1
    h = params.tau / steps
    step_matrix = _rk4_step_matrix(super_op, h)
    vec = initial_state(params, fock_dim).reshape(-1)
    states = np.empty((steps + 1, vec.size), dtype=complex)
    states[0] = vec
    for i in range(1, steps + 1):
        vec = step_matrix @ vec
        states[i] = vec
    return states, super_op, fock_dim


def _final_atom_state(params: SystemParams, cutoff: int, steps: int) -> np.ndarray:
    """Endpoint reduced state only (used by the cutoff-convergence check)."""
    states, _, fock_dim = _integrate_states(params, cutoff, steps)
    dim = 2 * fock_dim
    return partial_trace_cavity_stack(states[-1:].reshape(1, dim, dim), 2, fock_dim)[0]


def _trace_distance_2x2(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    w = eigvalsh(0.5 * (diff + diff.conj().T))
    return float(0.5 * np.abs(w).sum())


def evolve_master(params: SystemParams, cutoff: int | None = None,
                  steps: int = DEFAULT_STEPS) -> Trajectory:
    """Fixed-step RK4 integration of the master equation over [0, tau].

    Records the full state, the reduced atom state, and the reduced-state
    derivative at every grid point. Validates physicality (positivity floor
    -1e-6) and reruns the endpoint at cutoff+2 to confirm the truncation
    converged (trace distance <= 1e-8).
    """
    if steps < MIN_STEPS:
        raise ValidationError(f"steps must be >= {MIN_STEPS}, got {steps}")
    if cutoff is None:
        cutoff = default_cutoff(derive(params))
    if cutoff < 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")

    states, super_op, fock_dim = _integrate_states(params, cutoff, steps)
    n = steps + 1
    dim = 2 * fock_dim
    rho_full = states.reshape(n, dim, dim)
    # one matmul for every grid point's derivative
    rho_dot_full = (states @ super_op.T).reshape(n, dim, dim)
    rho_atom = partial_trace_cavity_stack(rho_full, 2, fock_dim)
    rho_atom_dot = partial_trace_cavity_stack(rho_dot_full, 2, fock_dim)

    traces = np.einsum("tii->t", rho_full).real
    herm_err = float(np.abs(rho_full - rho_full.conj().transpose(0, 2, 1)).max())
    sym = 0.5 * (rho_full + rho_full.conj().transpose(0, 2, 1))
    min_eigs = eigvalsh(sym)[:, 0]
    worst = float(min_eigs.min())
    if not worst >= POSITIVITY_FLOOR:
        raise PositivityViolated(
            f"min eigenvalue {worst:.3e} below {POSITIVITY_FLOOR:.1e}; reduce the step")

    refined = _final_atom_state(params, cutoff + 2, steps)
    conv_dist = _trace_distance_2x2(rho_atom[-1], refined)
    if not conv_dist <= CONVERGENCE_DISTANCE:
        raise CutoffNotConverged(
            f"cutoff {cutoff} vs {cutoff + 2}: endpoint trace distance "
            f"{conv_dist:.3e} exceeds {CONVERGENCE_DISTANCE:.1e}")

    return Trajectory(
        times=np.linspace(0.0, params.tau, n),
        rho_full=rho_full,
        rho_atom=rho_atom,
        rho_atom_dot=rho_atom_dot,
        fock_cutoff=cutoff,
        traces=traces,
        min_eigs=min_eigs,
        herm_err=herm_err,
        conv_dist=conv_dist,
    )
