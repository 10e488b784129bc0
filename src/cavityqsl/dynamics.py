"""Trajectory engines.

Two independent routes to the same physics:

* the closed-form single-excitation amplitudes of the effective
  non-Hermitian evolution (analytic path, excited start only), and
* fixed-step RK4 integration of the squeezed-picture Lindblad master
  equation on a truncated Fock space (master path, any initial angle),
  restricted to the entries of vec(rho) that the initial state reaches.
  The Liouvillian is real-linear in eight rates, so its entries are one
  table per Fock cutoff times those rates (liouvillian_superoperator).
  The reachable support is closed under transposition and ordered as its
  diagonal entries, its upper entries (i < j) and the matching (j, i)
  entries, so a Hermitian rho on it has exactly as many real coordinates
  as entries: the diagonal, then the real and imaginary parts of the upper
  entries. The Lindblad flow keeps rho Hermitian, so the master path works
  in those real coordinates from the Liouvillian entries to the reduced
  states (dgemm instead of zgemm): a real generator, the RK4 polynomial
  (all rows by doubling), and a real partial-trace map, the
  partial_trace_cavity_stack of the unit coordinates. Positivity is
  certified from a bound on the RK4 error, or, where that fails, checked
  by a gate that forms the complex states (complex_form) a chunk of rows
  at a time. The truncation is certified from the cutoff run by a Duhamel
  bound, or, where that fails, checked by a cutoff+2 rerun of the endpoint
  alone (squarings and matrix-vector products). The rate tables and the
  index structure of the rest depend only on the cutoff and on patterns,
  so linalg.cached_plan builds them once and a point computes only the
  values.

A small brute-force RK4 oracle for the two-amplitude linear ODE system
validates the closed form independently of either engine.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (CutoffNotConverged, NoConvergence, NumericalError,
                     PositivityViolated, ValidationError)
from .linalg import (cached_plan, eigvalsh, gate_min_eig, norms_of_hermitian_stack,
                     partial_trace_cavity_stack)
from .model import (DerivedParams, SystemParams, _basis, allocate, check_count, check_cutoff,
                    default_cutoff, derive)
from .model import build_operators  # unused: the benchmark tracer wraps this name

# Below this magnitude the square-root splitting is numerically degenerate
# and the closed form switches to its series limit.
DEGENERATE_SPLITTING = 1e-8

DEFAULT_STEPS = 2000
MIN_STEPS = 100


def check_steps(steps: int) -> None:
    """The one rule on a step count: an integer of at least MIN_STEPS."""
    check_count("steps", steps, MIN_STEPS)


# Quality gates on master-equation trajectories.
POSITIVITY_FLOOR = -1e-6
CONVERGENCE_DISTANCE = 1e-8
# A cutoff run whose truncation certificate (_certificates) is at most
# this needs no cutoff+2 rerun. The certificate bounds the exact flows, and
# the RK4 endpoints of a noisy point differ from them by about 2e-13, so it
# sits 10x below CONVERGENCE_DISTANCE; the benchmark's noisy points read at
# most 4e-10.
CERTIFIED_DISTANCE = 1e-9
# ... and whose step h times the largest column sum of |L| at cutoff+2 is at
# most this: RK4 is stable on the left half-disk of radius 2.6, which then
# holds the spectrum of h L. Noisy points read about 0.02; a rerun that RK4
# cannot keep stable reads above 5.
STABLE_STEP_NORM = 1.0
# A run whose RK4 error bound (_certificates) is at most this needs no
# positivity gate: each state is then within this, in trace norm, of the
# exact flow's, so no least eigenvalue lies below minus this. It sits 10x
# inside POSITIVITY_FLOOR for the round-off of the computed rows, which the
# bound does not cover (up to 7e-14 below it on whole-domain draws). The
# benchmark's noisy points read 1e-8 to 7e-8, its quiet ones below 1e-9.
CERTIFIED_POSITIVITY = 1e-7
# Truncation keeps trace and positivity: a cutoff+2 endpoint off a state
# by more than this (trace, or least eigenvalue below 0) is a step failure.
UNSTABLE_ENDPOINT = 1e-6
# Group blocks, for the positivity gate and min_eigs alike, come in equal
# runs of rows, as few as keep the largest block within this many bytes:
# one run for a quiet point, two for a superposition start (3 x 3), fifteen
# for a noisy point (11 x 11). A whole 3 x 3 block with its Cholesky factor
# would lift a superposition start's heap peak from 0.6 to 1.0 MiB; the
# noisy gate takes as long at 256 as at 512 KiB.
GATE_CHUNK_BYTES = 1 << 18
# The cutoff+2 endpoint S^steps v squares S only while the exponent left,
# in units of the current power, is at least this; below it the power is
# applied by matrix-vector products. A squaring costs 36-52 of them at
# 242-676 coordinates, so a noisy rerun of 2000 steps stops at S^32 after
# 5 squarings. Blocks smaller than this (every quiet point and
# superposition start) keep pure binary powering.
SQUARING_CROSSOVER = 32

# The layout of a reachable block and of its defect, from patterns alone
# (_block_plan), built once per pattern by cached_plan; trace_map is the
# partial trace of the block's unit coordinates (_trace_map).
BlockPlan = namedtuple("BlockPlan", "idx diagonal kept keys factor trace_map tables defect")


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
    """Time grid with the reduced states and their derivatives.

    reduced is the one real (n, 16) array of the reduced atom state at every
    grid point: columns 0-7 hold the real and imaginary parts of the
    row-major (rho_ee, rho_eg, rho_ge, rho_gg), in the row order of the
    master path's partial-trace map (block.trace_map, from _trace_map),
    and columns 8-15 the same for the derivative. rho_atom and rho_atom_dot
    are read-only complex (n, 2, 2) views of those columns (_atom_form).

    On the master path coords holds, at every grid point, the real
    coordinates (d, x, y) of vec(rho)[block.idx]: the entries of the
    row-major vectorized joint density matrix that the initial state
    reaches, all others being exactly zero. block is the read-only
    BlockPlan of _reachable_block, shared by the points of one pattern:
    block.idx is not sorted, it lists the block.diagonal diagonal entries,
    the upper entries (i < j) and then the matching (j, i) entries, each
    ascending; d holds the diagonal entries, x + iy the upper ones and
    x - iy the lower ones, so the state is exactly Hermitian. coords and
    block are None on the analytic path (the closed form never builds the
    joint density matrix). traces (float64, one per grid point) and
    min_eigs are per-step diagnostics and conv_dist summarizes the whole
    run: on the master path it is the measured cutoff vs cutoff+2 endpoint
    trace distance on a row that ran the rerun, and the truncation
    certificate, a bound on that distance, on a certified row (see
    evolve_master). min_eigs is computed on first
    read and cached, since the positivity gate of the master path does not
    need it.
    """

    times: np.ndarray
    reduced: np.ndarray
    fock_cutoff: int
    traces: np.ndarray
    conv_dist: float
    coords: np.ndarray | None = None
    block: BlockPlan | None = None

    @property
    def rho_atom(self) -> np.ndarray:
        return _atom_form(self.reduced[:, :8])

    @property
    def rho_atom_dot(self) -> np.ndarray:
        return _atom_form(self.reduced[:, 8:])

    @property
    def trace_err(self) -> float:
        return float(np.abs(self.traces - 1.0).max())

    @cached_property
    def min_eigs(self) -> np.ndarray:
        """Least eigenvalue of the state at each grid point: of the joint
        state on the master path, by eigvalsh on each of its _group_blocks;
        of the reduced state on the analytic path, which is diagonal, so the
        smaller population (columns 0 and 6)."""
        if self.coords is None:
            return np.minimum(self.reduced[:, 0], self.reduced[:, 6])
        # a state in no group has a zero row and column, so an eigenvalue 0
        grouped = sum(group.size for group, _ in self.block.tables)
        ungrouped = grouped < 2 * (self.fock_cutoff + 1)
        min_eigs = np.full(len(self.times), 0.0 if ungrouped else np.inf)
        for rows, _, stack in _group_blocks(self.coords, self.block):
            min_eigs[rows] = np.minimum(min_eigs[rows], eigvalsh(stack)[:, 0])
        return min_eigs

    def __post_init__(self) -> None:
        if len(self.times) < 2:
            raise ValidationError(f"need >= 2 grid points, got {len(self.times)}")
        shape = (len(self.times), 16)
        if not (isinstance(self.reduced, np.ndarray) and self.reduced.dtype == np.float64
                and self.reduced.shape == shape and self.reduced.strides[1] == 8):
            raise ValidationError(f"reduced must be a real float64 array of shape {shape} "
                                  f"with contiguous rows")
        if not (isinstance(self.traces, np.ndarray) and self.traces.dtype == np.float64
                and self.traces.shape == shape[:1]):
            raise ValidationError(f"traces must be a float64 array of shape {shape[:1]}")


def _rate_combinations(d: DerivedParams, params: SystemParams) -> tuple[complex, complex, complex]:
    decay_diff = params.gamma - params.kappa + 2j * (params.delta_a - d.delta_s)
    decay_sum = params.gamma + params.kappa + 2j * (params.delta_a + d.delta_s)
    splitting_root = cmath.sqrt(decay_diff * decay_diff - 16.0 * d.g_s * d.g_s)
    return decay_diff, decay_sum, splitting_root


def _cosh_sinh(scale: complex, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cosh and sinh of scale * t, with x + iy = scale * t, from one real pass:
    cosh = cosh x cos y + i sinh x sin y and sinh = sinh x cos y + i cosh x sin y.
    numpy's complex cosh and sinh are scalar libm calls; the four real
    functions run vectorized, and cos y and sin y serve both results."""
    x = scale.real * t
    y = scale.imag * t
    cosh_x = np.cosh(x)
    sinh_x = np.sinh(x, out=x)
    cos_y = np.cos(y)
    sin_y = np.sin(y, out=y)
    cosh = np.empty(t.shape, dtype=complex)
    sinh = np.empty(t.shape, dtype=complex)
    np.multiply(cosh_x, cos_y, out=cosh.real)
    np.multiply(sinh_x, sin_y, out=cosh.imag)
    np.multiply(sinh_x, cos_y, out=sinh.real)
    np.multiply(cosh_x, sin_y, out=sinh.imag)
    return cosh, sinh


def _amplitudes(params: SystemParams, times: np.ndarray) -> tuple[np.ndarray, np.ndarray, complex, complex, complex]:
    """Vectorized closed-form amplitudes over a time array, with the rate
    combinations (see analytic_coeffs for the formulas).

    cosh and sinh of root*t/4 come from _cosh_sinh, sinh once for both
    amplitudes, and the products are formed in place. Near the degenerate
    splitting the series limit is used instead. The two-exponential form
    e^{(+-root - decay_sum) t/4} is not: its difference loses about
    eps |decay_diff/root| there. Amplitudes that leave the float range raise
    NoConvergence.
    """
    d = derive(params)
    diff, total, root = _rate_combinations(d, params)
    t = np.asarray(times, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(-0.25 * total * t)
        if abs(root) < DEGENERATE_SPLITTING:
            # series limit: cosh -> 1, sinh(root*t/4)/root -> t/4
            excited = envelope * (1.0 - 0.25 * diff * t)
            photon = -1j * d.g_s * t * envelope
        else:
            excited, photon = _cosh_sinh(0.25 * root, t)
            excited -= (diff / root) * photon
            excited *= envelope
            envelope *= 4.0 * d.g_s / (1j * root)
            photon *= envelope
    if not (np.isfinite(excited).all() and np.isfinite(photon).all()):
        raise NoConvergence("closed-form propagation did not converge: non-finite amplitudes")
    return excited, photon, diff, total, root


def _require_excited_start(params: SystemParams) -> None:
    if params.alpha != 0.0:
        raise ValidationError(
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
    """RK4 on the two-amplitude linear system; returns (times, amps[n+1, 2]).

    The 2x2 RK4 step matrix is propagated the same way as the master path's.
    """
    _require_excited_start(params)
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if step <= 0:
        raise ValidationError(f"step must be > 0, got {step}")
    limit = _oracle_step_limit(params)
    if step > limit:
        raise ValidationError(f"step {step} exceeds accuracy bound {limit:.3e}")
    d = derive(params)
    coupling = -1j * np.array(
        [[params.delta_a - 0.5j * params.gamma, d.g_s],
         [d.g_s, d.delta_s - 0.5j * params.kappa]], dtype=complex)
    n = max(1, math.ceil(t / step)) if t > 0 else 0
    h = t / n if n else 0.0
    amps = _propagate(_rk4_step_matrix(h * coupling), np.array([1.0 + 0j, 0.0 + 0j]), n)
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


def analytic_trajectory(params: SystemParams, steps: int = DEFAULT_STEPS) -> Trajectory:
    """Closed-form trajectory on a uniform grid over [0, tau].

    The reduced-state derivative is exact: d|A|^2/dt = 2 Re(A* dA/dt) with
    the amplitude derivatives taken from the ODE right-hand side, which the
    closed form satisfies identically. The detuning terms of that right-hand
    side are imaginary and drop out of the real part analytically, leaving
    d|A_e|^2/dt = -gamma |A_e|^2 + 2 g_s Im(A_e* A_p) and
    d|A_p|^2/dt = -kappa |A_p|^2 - 2 g_s Im(A_e* A_p); taking them
    numerically would leave delta * eps noise at large detuning. Amplitudes
    or populations that leave the float range raise NoConvergence. The
    amplitudes are dropped before the populations and rates fill columns 0,
    6, 8 and 14 of the zeroed (n, 16) reduced array, which keeps the heap
    peak of a row low.
    """
    _require_excited_start(params)
    check_steps(steps)
    d = derive(params)
    times = allocate(np.linspace, 0.0, params.tau, steps + 1)
    excited, photon, _, _, _ = _amplitudes(params, times)
    with np.errstate(over="ignore", invalid="ignore"):
        pop_e = np.abs(excited) ** 2
        pop_p = np.abs(photon) ** 2
        exchange = 2.0 * d.g_s * np.imag(np.conj(excited) * photon)
        rate_e = -params.gamma * pop_e + exchange
        rate_p = -params.kappa * pop_p - exchange
    del excited, photon, exchange
    # a non-finite population leaves a non-finite rate
    if not (np.isfinite(rate_e).all() and np.isfinite(rate_p).all()):
        raise NoConvergence("closed-form propagation did not converge: non-finite amplitudes")
    reduced = np.zeros((steps + 1, 16))
    reduced[:, 0] = pop_e
    reduced[:, 6] = pop_p
    reduced[:, 8] = rate_e
    reduced[:, 14] = rate_p
    return Trajectory(
        times=times,
        reduced=reduced,
        fock_cutoff=1,
        traces=pop_e + pop_p,
        conv_dist=0.0,
    )


def liouvillian_superoperator(params: SystemParams, derived: DerivedParams,
                              cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries (rows, cols, values) of the matrix L acting on
    row-major vectorized states of the atom and cutoff + 1 Fock levels:
    vec(rho_dot) = L vec(rho).

    The squeezed-picture master equation is
    rho_dot = i[rho, H] - (1/2){ D(L_atom) + (n_s+1) D(L_cav) + n_s D(L_cav†)
    - m_s Dp(L_cav†) - m_s* Dp(L_cav) } rho, with D(o)r = o†or - 2oro† + ro†o
    and Dp(o)r = oor - 2oro + roo, H as in build_operators, L_atom =
    sqrt(gamma) lower (x) I and L_cav = sqrt(kappa) I (x) a; derived is
    derive(params). L is real-linear in eight rates: gamma, kappa (n_s+1),
    kappa n_s and Re(kappa m_s) give real generators, delta_a, delta_s, g_s
    and Im(kappa m_s) imaginary ones. So the real and the imaginary part of
    each entry is the product of a row of the _rate_table, kept by
    cached_plan per Fock dimension, with four rates: a dot product of up to
    four rounded terms, within 2 eps of the exact sum in units of the sum
    of their moduli. Positions whose value is exactly zero (rates that
    vanish, as n_s and m_s on a matched reservoir, or terms that cancel)
    are dropped, so the entries are the exact nonzero pattern of these
    values in row-major order (strictly increasing rows * D + cols for L of
    shape (D, D)); where none is dropped, rows and cols are the table's own
    read-only arrays. Built once per trajectory so that time stepping
    reduces to matrix products.
    """
    check_count("cutoff", cutoff, 1)
    rows, cols, table = cached_plan(_rate_table, cutoff + 1)
    kappa_m = params.kappa * derived.m_s
    rates = np.zeros((8, 2))
    rates[:4, 0] = (params.gamma, params.kappa * (derived.n_s + 1.0),
                    params.kappa * derived.n_s, kappa_m.real)
    rates[4:, 1] = params.delta_a, derived.delta_s, derived.g_s, kappa_m.imag
    values = (table @ rates).view(complex).ravel()
    nonzero = np.flatnonzero(values)
    if nonzero.size == values.size:
        return rows, cols, values
    return rows[nonzero], cols[nonzero], values[nonzero]


def _rate_table(fock_dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, table): the positions of L (liouvillian_superoperator)
    that any rate reaches, in row-major order, and the real (nnz, 8) table
    of its eight unit-rate generators there: the real parts of L at unit
    gamma, kappa (n_s+1), kappa n_s and Re(kappa m_s), then the imaginary
    parts of L at unit delta_a, delta_s, g_s and Im(kappa m_s); every other
    part of each is zero. Each generator is a list of terms (c, A, B), each
    adding c A rho B to rho_dot and so c kron(A, B^T) to L, from the real
    factors of model._basis: a Hamiltonian term x gives -i(x rho - rho x),
    listed as its imaginary part, a jump o gives o rho o^T - (o^T o rho +
    rho o^T o)/2, and unit Re and Im of kappa m_s give -(D2(a†) + D2(a))
    and i times -(D2(a†) - D2(a)), with D2(o) = o rho o - (o o rho +
    rho o o)/2. Only the products of nonzero factor
    entries are formed, and those of one position summed from zero in list
    order, as the dense kron sum would; positions where all eight sums are
    exactly zero are dropped."""
    excited, number, raise_a, lower_a_dag, lower, a = (f.real for f in _basis(fock_dim))
    eye = np.eye(2 * fock_dim)

    def hamiltonian(x):
        return [(-1.0, x, eye), (1.0, eye, x)]

    def jump(o):
        decay = o.T @ o
        return [(1.0, o, o.T), (-0.5, decay, eye), (-0.5, eye, decay)]

    def two_photon(o, c):
        pair = o @ o
        return [(c, o, o), (-0.5 * c, pair, eye), (-0.5 * c, eye, pair)]

    generators = (jump(lower), jump(a), jump(a.T), two_photon(a.T, -1.0) + two_photon(a, -1.0),
                  hamiltonian(excited), hamiltonian(number), hamiltonian(raise_a + lower_a_dag),
                  two_photon(a.T, -1.0) + two_photon(a, 1.0))
    dim = 2 * fock_dim
    keys, products, columns = [], [], []
    for column, terms in enumerate(generators):
        for c, x, y in terms:
            (xi, xk), (yj, yl) = np.nonzero(x), np.nonzero(y.T)
            keys.append(np.add.outer(xi * dim ** 3 + xk * dim, yj * dim ** 2 + yl).ravel())
            products.append(c * np.multiply.outer(x[xi, xk], y.T[yj, yl]).ravel())
            columns.append(np.full(keys[-1].size, column))
    unique, segment = np.unique(np.concatenate(keys), return_inverse=True)
    table = np.zeros((unique.size, 8))
    np.add.at(table, (segment, np.concatenate(columns)), np.concatenate(products))
    reached = table.any(axis=1)
    return (*np.divmod(unique[reached], dim * dim), table[reached])


def initial_state(params: SystemParams, fock_dim: int) -> np.ndarray:
    """Pure product start: (cos(alpha)|e> + sin(alpha)|g>) (x) vacuum."""
    psi = np.zeros(2 * fock_dim, dtype=complex)
    psi[0] = math.cos(params.alpha)
    psi[fock_dim] = math.sin(params.alpha)
    return np.outer(psi, psi.conj())


def _rk4_step_matrix(hl: np.ndarray) -> np.ndarray:
    """One-step map of classical RK4 for the linear autonomous system.

    For vec_dot = L vec the four-stage update collapses exactly to the
    degree-4 Taylor polynomial I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24,
    so precomputing it reproduces RK4 arithmetic at matrix-vector cost.
    Takes hl = h L, real or complex, and builds S in three arrays: S and
    two term buffers, reused. The sums are those of I + hl plus each term
    bit for bit, signed zeros included.
    """
    step = hl + 0.0
    step.flat[::hl.shape[0] + 1] += 1.0
    term = hl @ hl
    term /= 2
    step += term
    spare = hl @ term
    spare /= 3
    step += spare
    np.matmul(hl, spare, out=term)
    term /= 4
    step += term
    return step


def _propagate(step_matrix: np.ndarray, vec: np.ndarray, steps: int) -> np.ndarray:
    """Rows vec, S vec, ..., S^steps vec for the step matrix S, shape (steps+1, d).

    Doubling: with rows 0..m-1 known and P = S^m, rows m..2m-1 are one
    matrix product away, then P <- P P. About log2(steps) products of
    growing height replace a Python loop of steps matrix-vector products.
    The rows are real or complex, as S and vec are.
    """
    states = allocate(np.empty, (steps + 1, vec.size), dtype=np.result_type(step_matrix, vec))
    states[0] = vec
    power = step_matrix
    done = 1
    while done <= steps:
        m = min(done, steps + 1 - done)
        np.matmul(states[:m], power.T, out=states[done:done + m])
        done += m
        if done <= steps:
            power = power @ power
    return states


def _propagate_endpoint(step_matrix: np.ndarray, vec: np.ndarray, steps: int) -> np.ndarray:
    """S^steps vec with no stored rows, by binary powering while a squaring
    pays: once the exponent left falls below SQUARING_CROSSOVER, and the
    block has at least that many coordinates, the current power is applied
    by matrix-vector products instead."""
    power = step_matrix
    while True:
        if steps & 1:
            vec = power @ vec
        steps >>= 1
        if not steps:
            return vec
        if steps < SQUARING_CROSSOVER <= vec.size:
            for _ in range(2 * steps):
                vec = power @ vec
            return vec
        power = power @ power


def _reachable(rows: np.ndarray, cols: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Sorted indices reachable from the True entries of the mask start,
    where j reaches i when some listed entry has rows == i and cols == j."""
    inside = start.copy()
    frontier = start
    while frontier.any():
        hit = np.zeros_like(inside)
        hit[rows[frontier[cols]]] = True
        frontier = hit & ~inside
        inside |= frontier
    return np.flatnonzero(inside)


def _reachable_block(params: SystemParams, cutoff: int, entries: tuple,
                     refined: tuple | None) -> tuple[np.ndarray, np.ndarray, BlockPlan]:
    """(G, r_0, block): the real generator and the real start on the entries
    idx = block.idx of vec(rho) that rho_0 reaches, block.diagonal of them
    on the diagonal; block is the _block_plan of the patterns. entries are
    the liouvillian_superoperator of params at cutoff, refined those at
    cutoff + 2 for block.defect, or None (the rerun's own block).

    idx is the support of vec(rho_0) closed under the exact nonzero pattern
    of the Liouvillian L, taken from the entries of liouvillian_superoperator
    by index gathers, so L[outside, idx] is exactly zero, entries outside idx
    stay exactly zero, and L[idx, idx] propagates the same linear map as L.
    idx lists the diagonal entries, then the upper entries (i < j), then the
    matching (j, i) entries, each ascending. A Hermitian rho on idx is
    r = (d, x, y): the diagonal entries d, the upper entries x + iy and the
    lower ones x - iy. Then vec_dot = L[idx, idx] vec becomes r_dot = G r,
    with the columns of L acting on d, on x (L[:, u] + L[:, l]) and on y
    (i (L[:, u] - L[:, l])), and G keeping the real parts of the rows of d
    and u and the imaginary parts of the rows of u. G is summed from the
    entries of L by np.bincount, from zero in list order; no entry of G
    gets more than two nonzero terms (the others are zeros of either sign),
    so each takes one rounding and G equals the real form of the complex
    block L[idx, idx], which is never formed, up to the sign of a zero. A
    Lindblad L and a Hermitian rho_0 always give a support closed under
    transposition; any other support raises. Everything but the values comes
    from cached_plan, keyed on the patterns of L, vec(rho_0) and L'.
    """
    rows, cols, values = entries
    vec = initial_state(params, cutoff + 1).reshape(-1)
    refined_pattern = (None, None) if refined is None else refined[:2]
    block = cached_plan(_block_plan, 2 * (cutoff + 1), rows, cols, vec != 0, *refined_pattern)
    values = values[block.kept]
    weights = np.concatenate((values.real, values.imag, values.imag, values.real)) * block.factor
    size = block.idx.size
    generator = np.bincount(block.keys, weights, minlength=size * size).reshape(size, size)
    start = vec[block.idx[:(size + block.diagonal) // 2]]
    return generator, np.concatenate((start.real, start[block.diagonal:].imag)), block


def _block_plan(dim: int, rows: np.ndarray, cols: np.ndarray, start: np.ndarray,
                refined_rows: np.ndarray | None, refined_cols: np.ndarray | None) -> BlockPlan:
    """The BlockPlan of the patterns alone: idx, diagonal, the entries of L
    kept, the bincount keys and the factors (0 or +-1) of their parts in G,
    the _trace_map, the _group_tables and the _defect_plan (None without L')."""
    reached = _reachable(rows, cols, start)
    state_rows, state_cols = np.divmod(reached, dim)
    transposed = state_cols * dim + state_rows
    if not np.array_equal(np.sort(transposed), reached):
        raise NumericalError("reachable block is not closed under transposition")
    on_diagonal = state_rows == state_cols
    upper = state_rows < state_cols
    idx = np.concatenate((reached[on_diagonal], reached[upper], transposed[upper]))
    size = idx.size
    diagonal = int(np.count_nonzero(on_diagonal))
    end = (size + diagonal) // 2
    pairs = end - diagonal
    position = np.full(start.size, size)
    position[idx] = np.arange(size)
    i, j = position[rows], position[cols]
    # the rows of lower entries are the conjugated rows of upper ones
    kept = np.flatnonzero((i < end) & (j < size))
    i, j = i[kept], j[kept]
    lower = j >= end
    j -= pairs * lower
    # each entry also adds to the y row of an upper row and to the y column
    # of an upper or lower column, with factor 0 where there is none
    y_row, y_col = i >= diagonal, j >= diagonal
    sign = 1.0 - 2.0 * lower
    key = i * size + j
    keys = np.concatenate((key, key + pairs * size, key + pairs, key + pairs * (size + 1)))
    factor = np.concatenate((np.ones(kept.size), y_row, -sign * y_col, sign * (y_row & y_col)))
    defect = (None if refined_rows is None else
              _defect_plan(position, rows, cols, refined_rows, refined_cols, idx, diagonal))
    return BlockPlan(idx, diagonal, kept, keys, factor, _trace_map(idx, diagonal, dim // 2),
                     _group_tables(idx, dim, position), defect)


def _trace_map(idx: np.ndarray, diagonal: int, fock_dim: int) -> np.ndarray:
    """(8, len(idx)) matrix taking the real coordinates (d, x, y) of
    vec(rho)[idx] to the real and imaginary parts of the row-major reduced
    state (rho_ee, rho_eg, rho_ge, rho_gg), the order of the columns 0-7 of
    Trajectory.reduced that coords @ M.T fills. Column c is the partial
    trace of the joint matrix of the c-th unit coordinate, its complex_form
    scattered to idx. The entries are 0 and +-1, with no negative zero (the
    trace's sums start from +0.0), in a C-contiguous float64 array."""
    units = np.zeros((idx.size, 4 * fock_dim * fock_dim), dtype=complex)
    units[:, idx] = complex_form(np.eye(idx.size), diagonal)
    atom = partial_trace_cavity_stack(units.reshape(-1, 2 * fock_dim, 2 * fock_dim), 2, fock_dim)
    return np.ascontiguousarray(atom.reshape(-1, 4).view(float).T)


def _atom_form(columns: np.ndarray) -> np.ndarray:
    """The complex (..., 2, 2) reduced states of real (..., 8) columns of
    their real and imaginary parts in _trace_map's row order, contiguous
    along the last axis; a view, the one place that forms it."""
    return columns.view(complex).reshape(*columns.shape[:-1], 2, 2)


def complex_form(real: np.ndarray, diagonal: int, out: np.ndarray | None = None) -> np.ndarray:
    """vec(rho)[idx] from real coordinates (..., |idx|) in _reachable_block
    order, written into out (a new array by default): d and x fill the real
    parts, y the imaginary parts of the upper entries, and the lower entries
    are their exact conjugates."""
    end = (real.shape[-1] + diagonal) // 2
    if out is None:
        out = np.empty(real.shape, dtype=complex)
    out[..., :end] = real[..., :end]
    out.imag[..., diagonal:end] = real[..., end:]
    np.conjugate(out[..., diagonal:end], out=out[..., end:])
    return out


def _group_blocks(coords: np.ndarray,
                  plan: BlockPlan) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(rows, group, block) for each group of basis states over which the
    (n, 2F, 2F) stack (F Fock levels) of matrices whose vec entries plan.idx
    hold the complex_form of the real coordinates coords, all others zero, is
    block diagonal; block is the zero-filled (rows, k, k) diagonal block on
    the k states of group, rows a slice of the stack. The rows run in equal
    chunks, as few as keep the largest block within GATE_CHUNK_BYTES, and
    every group's block of a chunk is yielded before the next chunk.

    Each chunk is the complex_form of its rows plus one zero column, and a
    block is that chunk gathered through its group's table in plan.tables,
    so it equals the block cut from the complex states bit for bit. A state
    with no link belongs to no group: its row and column are zero. No block
    is kept here, so each is freed once the caller drops it.
    """
    size = plan.idx.size
    for rows in _row_chunks(coords.shape[0], plan):
        chunk = np.empty((rows.stop - rows.start, size + 1), dtype=complex)
        complex_form(coords[rows], plan.diagonal, chunk[:, :size])
        chunk[:, size] = 0.0
        for group, table in plan.tables:
            yield rows, group, chunk[:, table]


def _row_chunks(n: int, plan: BlockPlan) -> Iterator[slice]:
    """The one chunk rule: n rows in equal runs, as few as keep the largest
    complex group block of plan within GATE_CHUNK_BYTES."""
    widest = max(group.size for group, _ in plan.tables)
    chunks = -(-n * 16 * widest ** 2 // GATE_CHUNK_BYTES)
    step = -(-n // chunks)
    for first in range(0, n, step):
        yield slice(first, min(first + step, n))


def _group_tables(idx: np.ndarray, dim: int, position: np.ndarray) -> tuple:
    """(group, table) per group of _group_blocks. idx is closed under
    transposition (see _reachable_block), so states i and j are linked when
    entry (i, j) is in idx; each group is the sorted set of states
    _reachable along links from its lowest state not yet grouped. table
    holds, for each entry of the group's (k, k) block, its position in idx,
    or |idx| (the zero column) for an entry outside idx, as in position."""
    rows, cols = np.divmod(idx, dim)
    left = np.zeros(dim, dtype=bool)
    left[rows] = True
    tables = []
    while left.any():
        group = _reachable(rows, cols, np.arange(dim) == np.argmax(left))
        left[group] = False
        tables.append((group, position[group[:, None] * dim + group]))
    return tuple(tables)


def _defect_plan(position: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 refined_rows: np.ndarray, refined_cols: np.ndarray, idx: np.ndarray,
                 diagonal: int) -> tuple:
    """(kept, refined_kept, segment, refined_segment, column): the index
    structure of the defect D = L' P - P L on the columns idx, with the
    entries (rows, cols) of L at the cutoff (D x D states) and of L' at
    cutoff + 2, position the block's table of each entry's place in idx
    (|idx| outside it), and P the embedding of the cutoff space, which keeps
    the atom index and the Fock level of each state. kept and refined_kept
    list the entries of L and L' in those columns, segment and
    refined_segment their places among the positions of D, and column the
    real coordinate of each position's column: its own for a diagonal or
    upper entry, its upper partner's for a lower one, since the certificates
    read the modulus of both as |x| + |y|."""
    dim = math.isqrt(position.size)
    lift = np.arange(dim) + 2 * (np.arange(dim) >= dim // 2)

    def embedded(entries: np.ndarray) -> np.ndarray:
        state_rows, state_cols = np.divmod(entries, dim)
        return lift[state_rows] * (dim + 4) + lift[state_cols]

    size = idx.size
    refined_position = np.full((dim + 4) ** 2, size)
    refined_position[embedded(idx)] = np.arange(size)
    kept = np.flatnonzero(position[cols] < size)
    refined_kept = np.flatnonzero(refined_position[refined_cols] < size)
    defect_keys = np.concatenate((
        embedded(rows[kept]) * size + position[cols[kept]],
        refined_rows[refined_kept] * size + refined_position[refined_cols[refined_kept]]))
    unique, segment = np.unique(defect_keys, return_inverse=True)
    end = (size + diagonal) // 2
    column = unique % size
    column -= (end - diagonal) * (column >= end)
    return kept, refined_kept, segment[:kept.size], segment[kept.size:], column


def _defect_weights(entries: tuple, refined: tuple, block: BlockPlan) -> np.ndarray:
    """The weight in the defect D = L' P - P L of each real coordinate (d, x,
    y) of block, with entries and refined the liouvillian_superoperator of L
    at the cutoff and L' at cutoff + 2: w_j = sum_i |D_ij| on a diagonal d_j,
    and w of an upper column plus w of its lower partner on both the x and
    the y of the pair. A point whose block never reaches the top two Fock
    levels (a quiet reservoir) has L' P = P L on it, so all are exactly 0."""
    kept, refined_kept, segment, refined_segment, column = block.defect
    defect = np.zeros(column.size, dtype=complex)
    defect[refined_segment] = refined[2][refined_kept]
    defect[segment] -= entries[2][kept]
    weights = np.bincount(column, np.abs(defect), minlength=(block.idx.size + block.diagonal) // 2)
    return np.concatenate((weights, weights[block.diagonal:]))


def _rk4_remainder(x: float) -> float:
    """x^5 e^x / 120, at least the tail sum_{k >= 5} x^k / k! of e^x that the
    RK4 polynomial drops; only ever taken for x <= STABLE_STEP_NORM."""
    return x ** 5 * math.exp(x) / 120.0


def _certificates(coords: np.ndarray, block: BlockPlan, weights: np.ndarray,
                  remainder: float, h: float) -> tuple[float, float]:
    """(truncation, positivity): two bounds read from the rows of coords (the
    cutoff run of step h) by one product per row chunk of the gate
    (_row_chunks), |chunk| times the coordinate weights and the l1 scale.

    Both rest on one fact: the exact flow exp(L t) of a Lindblad generator
    contracts the trace norm, being trace preserving and completely positive
    (Lindblad, Commun. Math. Phys. 48, 119 (1976)), and the trace norm is at
    most the entrywise l1 norm, sum_j |rho_j|, with |rho_j| being |d| on the
    diagonal and hypot(x, y) on an upper entry and its lower partner. Both
    read |rho_j| as |x| + |y| there, at least hypot(x, y) and at most
    sqrt(2) times it.

    truncation bounds 1/2 ||rho'(tau) - P rho(tau)||_1, with rho' the exact
    flow of L' at cutoff + 2 from the same start. By Duhamel's formula
    rho'(t) - P rho(t) is the integral over s of exp(L' (t - s)) D rho(s), so
    the bound is 1/2 int_0^tau sum_j w_j |coords_j(s)| ds with the
    _defect_weights w_j, by the trapezoid rule over the rows; weights all
    zero give an exact 0.0. The partial trace contracts the trace norm too,
    so the bound also holds for the reduced endpoints that a rerun compares
    (conv_dist).

    positivity bounds the trace distance of every row rho_k to the exact
    flow rho(t_k) at the cutoff. With S the RK4 step matrix,
    rho_k - rho(t_k) = sum_{j<k} exp((k-1-j) h L) (S - exp(h L)) rho_j, and
    S - exp(h L) is the Taylor tail of exp(h L), whose l1 operator norm is
    at most remainder = _rk4_remainder(h c), c the largest column sum of |L|
    on the block (math.inf where h c exceeds STABLE_STEP_NORM). So the bound
    is remainder sum_{j<steps} ||rho_j||_1, with ||rho_j||_1 read as
    sum |d| + 2 sum (|x| + |y|). rho(t_k) is a state, so by Weyl's
    inequality no group block of rho_k has an eigenvalue below minus it.
    """
    n = coords.shape[0]
    scale = np.full(block.idx.size, 2.0)
    scale[:block.diagonal] = 1.0
    read = np.stack((weights, scale), axis=1)
    reads = np.empty((n, 2))
    for rows in _row_chunks(n, block):
        reads[rows] = np.abs(coords[rows]) @ read
    truncation = float(0.5 * np.trapezoid(reads[:, 0], dx=h)) if weights.any() else 0.0
    return truncation, remainder * float(reads[:-1, 1].sum())


def _reduced_endpoint(params: SystemParams, cutoff: int, entries: tuple, h: float,
                      steps: int) -> np.ndarray:
    """The 2x2 reduced state after steps RK4 steps of size h under the
    entries of L at cutoff, by _propagate_endpoint; every matrix of the run
    is freed on return."""
    generator, start, block = _reachable_block(params, cutoff, entries, None)
    generator *= h
    end = _propagate_endpoint(_rk4_step_matrix(generator), start, steps)
    return _atom_form(block.trace_map @ end)


def evolve_master(params: SystemParams, cutoff: int | None = None,
                  steps: int = DEFAULT_STEPS) -> Trajectory:
    """Fixed-step RK4 integration of the master equation over [0, tau].

    Records the real coordinates of the reachable entries of the joint
    state, the reduced atom state, and the reduced-state derivative at every
    grid point, and the trace as the sum of the reachable diagonal entries.
    A propagation that leaves the float range raises NoConvergence.

    Validates physicality (positivity floor -1e-6) before the reduced
    states are formed, by certificate or by gate. It certifies the run when
    h times the largest column sum of |L| on the block is at most
    STABLE_STEP_NORM and the RK4 error bound of _certificates is at most
    CERTIFIED_POSITIVITY: no eigenvalue can then lie below the floor.
    Otherwise it gates the row chunks of the _group_blocks, each by
    gate_min_eig: a batched Cholesky factorisation, with eigvalsh only
    where it fails, so the one possible flip against an exact spectrum is a
    pass whose least eigenvalue lies within round-off below the floor.

    Then it confirms that the truncation converged (trace distance to the
    cutoff+2 endpoint <= 1e-8), by certificate or by rerun. Before the
    propagation it builds the Liouvillian L' at cutoff+2, once, for the
    weights of the defect (_defect_weights), for its step norm and for a
    rerun; it holds L' and drops L. It certifies the run when h times the
    largest column sum of |L'| is at most STABLE_STEP_NORM (so RK4 at
    cutoff+2 would be stable) and the Duhamel bound of _certificates, which
    reads the modulus of each off-diagonal entry as |x| + |y|, is at most
    CERTIFIED_DISTANCE; conv_dist is then that bound. Otherwise it
    reruns at cutoff+2 from L' after positivity, computing only the endpoint
    (_reduced_endpoint), and conv_dist is the measured distance; a rerun
    endpoint that is no state (trace or least eigenvalue off by more than
    1e-6) or not finite raises NoConvergence, since truncation keeps both:
    the step is unstable. The exact min_eigs are computed only when read.
    """
    check_steps(steps)
    check_cutoff(cutoff)
    derived = derive(params)
    if cutoff is None:
        cutoff = default_cutoff(derived)

    h = params.tau / steps
    with np.errstate(over="ignore", invalid="ignore"):
        refined = liouvillian_superoperator(params, derived, cutoff + 2)
        entries = liouvillian_superoperator(params, derived, cutoff)
        generator, start, block = _reachable_block(params, cutoff, entries, refined)
        weights = _defect_weights(entries, refined, block)
        stable = h * np.bincount(refined[1], np.abs(refined[2])).max() <= STABLE_STEP_NORM
        dim = 2 * (cutoff + 1)
        step_norm = float(h * np.bincount(entries[1], np.abs(entries[2]),
                                          minlength=dim * dim)[block.idx].max())
        del entries
        rate_map = block.trace_map @ generator
        generator *= h
        step_matrix = _rk4_step_matrix(generator)
        del generator
        coords = _propagate(step_matrix, start, steps)
        del step_matrix
    # a non-finite generator leaves a non-finite step matrix, and so coordinates
    if not np.isfinite(coords).all():
        raise NoConvergence(f"master propagation did not converge: non-finite states "
                            f"at cutoff {cutoff}")
    # summed in the order of a sum over the padded diagonal
    traces = np.add.reduce(np.ascontiguousarray(coords[:, :block.diagonal].T), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        truncation, positivity = _certificates(
            coords, block, weights,
            _rk4_remainder(step_norm) if step_norm <= STABLE_STEP_NORM else math.inf, h)
    conv_dist = truncation if stable else math.inf
    if not positivity <= CERTIFIED_POSITIVITY:
        worst = min(gate_min_eig(stack, POSITIVITY_FLOOR)
                    for _, _, stack in _group_blocks(coords, block))
        if not worst >= POSITIVITY_FLOOR:
            raise PositivityViolated(
                f"min eigenvalue {worst:.3e} below {POSITIVITY_FLOOR:.1e}; reduce the step")
    # one product for the reduced states (columns 0-7) and their derivatives
    reduced = coords @ np.concatenate((block.trace_map, rate_map)).T

    with np.errstate(over="ignore", invalid="ignore"):
        rerun = (None if conv_dist <= CERTIFIED_DISTANCE
                 else _reduced_endpoint(params, cutoff + 2, refined, h, steps))
    if rerun is not None:
        low, high = map(float, eigvalsh(rerun)) if np.isfinite(rerun).all() else (np.nan,) * 2
        if not (low >= -UNSTABLE_ENDPOINT and abs(low + high - 1.0) <= UNSTABLE_ENDPOINT):
            raise NoConvergence(
                f"master propagation at cutoff {cutoff + 2} is unstable: endpoint eigenvalues "
                f"{low:.3e}, {high:.3e} are off a state by more than {UNSTABLE_ENDPOINT:.0e}; "
                f"reduce the step")
        _, trace_norm, _ = norms_of_hermitian_stack((_atom_form(reduced[-1, :8]) - rerun)[None])
        conv_dist = float(0.5 * trace_norm[0])
    if not conv_dist <= CONVERGENCE_DISTANCE:
        raise CutoffNotConverged(
            f"cutoff {cutoff} vs {cutoff + 2}: endpoint trace distance "
            f"{conv_dist:.3e} exceeds {CONVERGENCE_DISTANCE:.1e}")

    return Trajectory(
        times=np.linspace(0.0, params.tau, steps + 1),
        reduced=reduced,
        fock_cutoff=cutoff,
        traces=traces,
        conv_dist=conv_dist,
        coords=coords,
        block=block,
    )

