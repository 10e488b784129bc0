"""Trajectory engines.

Two independent routes to the same physics:

* the closed-form single-excitation amplitudes of the effective
  non-Hermitian evolution (analytic path, excited start only), and
* fixed-step RK4 integration of the squeezed-picture Lindblad master
  equation on a truncated Fock space (master path, any initial angle),
  restricted to the entries of vec(rho) that the initial state reaches.
  That support is closed under transposition and ordered as its diagonal
  entries, its upper entries (i < j) and the matching (j, i) entries, so a
  Hermitian rho on it has exactly as many real coordinates as entries:
  the diagonal, then the real and imaginary parts of the upper entries.
  The Lindblad flow keeps rho Hermitian, so both master propagations run
  in those real coordinates (dgemm instead of zgemm) with the same RK4
  polynomial and doubling, and the complex entries are rebuilt by slices.

A small brute-force RK4 oracle for the two-amplitude linear ODE system
validates the closed form independently of either engine.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (CutoffNotConverged, NumericalError, PositivityViolated,
                     ValidationError)
from .linalg import eigvalsh, gate_min_eig, norms_of_hermitian_stack
from .linalg import partial_trace_cavity_stack  # unused: the benchmark tracer wraps this name
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

    On the master path states holds vec(rho)[support] at every grid point:
    the entries of the row-major vectorized joint density matrix that the
    initial state reaches, all others being exactly zero. support is not
    sorted: it lists the diagonal entries, the upper entries (i < j) and
    then the matching (j, i) entries, each ascending, and the last group
    holds the exact conjugates of the second. states and support are None
    on the analytic path (the closed form never builds the joint density
    matrix). traces and min_eigs are per-step diagnostics and conv_dist
    summarizes the whole run. The master states are rebuilt from real
    coordinates, so they are exactly Hermitian and no hermiticity error is
    kept. min_eigs is computed on first read and cached, since the
    positivity gate of the master path does not need it.
    """

    times: np.ndarray
    rho_atom: np.ndarray
    rho_atom_dot: np.ndarray
    fock_cutoff: int
    traces: np.ndarray
    conv_dist: float
    states: np.ndarray | None = None
    support: np.ndarray | None = None

    @property
    def trace_err(self) -> float:
        return float(np.abs(self.traces - 1.0).max())

    @cached_property
    def min_eigs(self) -> np.ndarray:
        """Least eigenvalue of the state at each grid point: of the joint
        state on the master path, by eigvalsh on each of its _group_blocks;
        of the reduced state on the analytic path, whose rho_atom is
        diagonal, so the smaller population."""
        if self.states is None:
            return np.minimum(self.rho_atom[:, 0, 0].real, self.rho_atom[:, 1, 1].real)
        dim = 2 * (self.fock_cutoff + 1)
        blocks = _group_blocks(self.states, self.support, dim,
                               lambda block: eigvalsh(block)[:, 0])
        # a state in no group has a zero row and column, so an eigenvalue 0
        grouped = sum(group.size for group, _ in blocks)
        min_eigs = np.zeros(len(self.times)) if grouped < dim else np.full(len(self.times), np.inf)
        for _, least in blocks:
            min_eigs = np.minimum(min_eigs, least)
        return min_eigs

    def __post_init__(self) -> None:
        if len(self.times) < 2:
            raise ValidationError(f"need >= 2 grid points, got {len(self.times)}")


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
    amps = _propagate(_rk4_step_matrix(coupling, h), np.array([1.0 + 0j, 0.0 + 0j]), n)
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
    numerically would leave delta * eps noise at large detuning.
    """
    _require_excited_start(params)
    if steps < MIN_STEPS:
        raise ValidationError(f"steps must be >= {MIN_STEPS}, got {steps}")
    d = derive(params)
    times = np.linspace(0.0, params.tau, steps + 1)
    excited, photon, _, _, _ = _amplitudes(params, times)
    pop_e = np.abs(excited) ** 2
    pop_p = np.abs(photon) ** 2
    exchange = 2.0 * d.g_s * np.imag(np.conj(excited) * photon)
    rate_e = -params.gamma * pop_e + exchange
    rate_p = -params.kappa * pop_p - exchange
    n = steps + 1
    rho_atom = np.zeros((n, 2, 2), dtype=complex)
    rho_atom[:, 0, 0] = pop_e
    rho_atom[:, 1, 1] = pop_p
    rho_dot = np.zeros((n, 2, 2), dtype=complex)
    rho_dot[:, 0, 0] = rate_e
    rho_dot[:, 1, 1] = rate_p
    return Trajectory(
        times=times,
        rho_atom=rho_atom,
        rho_atom_dot=rho_dot,
        fock_cutoff=1,
        traces=pop_e + pop_p,
        conv_dist=0.0,
    )


def liouvillian_superoperator(ops: ModelOperators,
                              derived: DerivedParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries (rows, cols, values) of the matrix L acting on
    row-major vectorized states: vec(rho_dot) = L vec(rho).

    The squeezed-picture master equation is
    rho_dot = i[rho, H] - (1/2){ D(L_atom) + (n_s+1) D(L_cav) + n_s D(L_cav†)
    - m_s Dp(L_cav†) - m_s* Dp(L_cav) } rho, with D(o)r = o†or - 2oro† + ro†o
    and Dp(o)r = oor - 2oro + roo; with n_s = m_s = 0 only the two plain
    dissipators survive. In jump terms c_k A_k rho B_k, with (A, B) = (o, o†)
    for a plain dissipator and (o, o) for a two-photon one, this is
    rho_dot = -i H_eff rho + i rho H_eff† + sum_k c_k A_k rho B_k with the
    effective Hamiltonian H_eff = H - (i/2) sum_k c_k B_k A_k. One list holds
    the jump terms with c_k != 0 (the others add only zeros) and, in front,
    the H_eff terms (1, -i H_eff, I) and (1, I, i H_eff†). For row-major vec,
    vec(A X B) = (A kron B^T) vec(X), so L is one kron per listed term. No
    kron and no dense L is formed: _kron_entries lists the products of
    nonzero factor entries of each kron and _coalesce sums them per position
    in list order, from zero, as the dense sum would, so the values are that
    sum bit for bit. Positions whose sum is exactly zero are dropped, so the
    entries are the exact nonzero pattern of L in row-major order (strictly
    increasing rows * D + cols for L of shape (D, D)). Built once per
    trajectory so that time stepping reduces to matrix products.
    """
    dim = ops.hamiltonian.shape[0]
    size = dim * dim
    atom = ops.lindblad_atom
    cav = ops.lindblad_cavity
    cav_dag = cav.conj().T
    jumps = [(c, a, b) for c, a, b in ((1.0, atom, atom.conj().T),
                                       (derived.n_s + 1.0, cav, cav_dag),
                                       (derived.n_s, cav_dag, cav),
                                       (-derived.m_s, cav_dag, cav_dag),
                                       (-np.conj(derived.m_s), cav, cav)) if c != 0]
    h_eff = ops.hamiltonian - 0.5j * sum(c * (b @ a) for c, a, b in jumps)
    eye = np.eye(dim, dtype=complex)
    terms = [(1.0, -1j * h_eff, eye), (1.0, eye, 1j * h_eff.conj().T), *jumps]
    parts = [_kron_entries(c, a, b.T, size) for c, a, b in terms]
    keys, values = _coalesce(*(np.concatenate(p) for p in zip(*parts)))
    rows, cols = np.divmod(keys, size)
    return rows, cols, values


def _kron_entries(c: complex, x: np.ndarray, y: np.ndarray,
                  size: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, values) of c * kron(x, y) in a matrix of `size` columns,
    key = row * size + col.

    Only the products x[i, k] * y[j, l] of nonzero entries are formed, at
    row i*p + j and column k*q + l for y of shape (p, q); every other entry
    of the kron is an exact zero.
    """
    xi, xk = np.nonzero(x)
    yj, yl = np.nonzero(y)
    keys = np.add.outer(xi * (y.shape[0] * size) + xk * y.shape[1], yj * size + yl).ravel()
    return keys, c * np.multiply.outer(x[xi, xk], y[yj, yl]).ravel()


def _coalesce(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strictly increasing unique keys and the nonzero sums of their values.

    Each sum starts from zero and adds the values of its key in the order
    they are listed (a stable sort, then np.add.at, which adds one index at
    a time), as summing them into a dense zero matrix in that order would.
    Sums that are exactly zero are dropped with their keys.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    sums = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(sums, np.cumsum(first) - 1, values[order])
    nonzero = sums != 0
    return keys[first][nonzero], sums[nonzero]


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
    Real or complex, as super_op is.
    """
    hl = h * super_op
    step = np.eye(super_op.shape[0], dtype=hl.dtype) + hl
    term = hl
    for order in (2, 3, 4):
        term = (hl @ term) / order
        step += term
    return step


def _propagate(step_matrix: np.ndarray, vec: np.ndarray, steps: int) -> np.ndarray:
    """Rows vec, S vec, ..., S^steps vec for the step matrix S, shape (steps+1, d).

    Doubling: with rows 0..m-1 known and P = S^m, rows m..2m-1 are one
    matrix product away, then P <- P P. About log2(steps) products of
    growing height replace a Python loop of steps matrix-vector products.
    The rows are real or complex, as S and vec are.
    """
    states = np.empty((steps + 1, vec.size), dtype=np.result_type(step_matrix, vec))
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
    """S^steps vec by binary powering: log2(steps) squarings, no stored rows."""
    power = step_matrix
    while True:
        if steps & 1:
            vec = power @ vec
        steps >>= 1
        if not steps:
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


def _reachable_block(params: SystemParams,
                     cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(L[idx, idx], vec(rho_0)[idx], idx, diagonal) on the entries of vec(rho)
    that rho_0 reaches, diagonal being how many of them lie on the diagonal.

    idx is the support of vec(rho_0) closed under the exact nonzero pattern
    of the Liouvillian L, taken from the entries of liouvillian_superoperator
    by index gathers, so L[outside, idx] is exactly zero, entries outside idx
    stay exactly zero, and L[idx, idx] propagates the same linear map as L.
    The block is scattered from those entries; no dense L is formed. idx
    lists the diagonal entries, then the upper entries (i < j), then the
    matching (j, i) entries, each ascending, the order _real_form reads. A
    Lindblad L and a Hermitian rho_0 always give a support closed under
    transposition; any other support raises.
    """
    dim = 2 * (cutoff + 1)
    rows, cols, values = liouvillian_superoperator(build_operators(params, cutoff), derive(params))
    vec = initial_state(params, cutoff + 1).reshape(-1)
    reached = _reachable(rows, cols, vec != 0)
    state_rows, state_cols = np.divmod(reached, dim)
    transposed = state_cols * dim + state_rows
    if not np.array_equal(np.sort(transposed), reached):
        raise NumericalError("reachable block is not closed under transposition")
    diagonal = state_rows == state_cols
    upper = state_rows < state_cols
    idx = np.concatenate((reached[diagonal], reached[upper], transposed[upper]))
    position = np.full(vec.size, -1)
    position[idx] = np.arange(idx.size)
    i, j = position[rows], position[cols]
    inside = (i >= 0) & (j >= 0)
    generator = np.zeros((idx.size, idx.size), dtype=complex)
    generator[i[inside], j[inside]] = values[inside]
    return generator, vec[idx], idx, int(np.count_nonzero(diagonal))


def _real_form(generator: np.ndarray, start: np.ndarray,
               diagonal: int) -> tuple[np.ndarray, np.ndarray]:
    """The real generator and real start of a block in _reachable_block order.

    A Hermitian rho on the block is r = (d, x, y): the diagonal entries d,
    the upper entries x + iy and the lower ones x - iy. Then vec_dot = L vec
    becomes r_dot = G r, with the columns of L acting on d, on x
    (L[:, u] + L[:, l]) and on y (i (L[:, u] - L[:, l])), and G keeping the
    real parts of the rows of d and u and the imaginary parts of the rows
    of u; every entry of G takes one rounding.
    """
    end = (generator.shape[0] + diagonal) // 2
    upper, lower = generator[:, diagonal:end], generator[:, end:]
    cols = np.concatenate((generator[:, :diagonal], upper + lower, 1j * (upper - lower)), axis=1)
    real_generator = np.concatenate((cols[:end].real, cols[diagonal:end].imag))
    return real_generator, np.concatenate((start[:end].real, start[diagonal:end].imag))


def _complex_form(real: np.ndarray, diagonal: int) -> np.ndarray:
    """vec(rho)[idx] from real coordinates (..., |idx|) of _real_form, by
    slices: d and x fill the real parts, y the imaginary parts of the upper
    entries, and the lower entries are their exact conjugates."""
    end = (real.shape[-1] + diagonal) // 2
    out = np.empty(real.shape, dtype=complex)
    out[..., :end] = real[..., :end]
    out.imag[..., diagonal:end] = real[..., end:]
    np.conjugate(out[..., diagonal:end], out=out[..., end:])
    return out


def _trace_map(idx: np.ndarray, fock_dim: int) -> np.ndarray:
    """(4, len(idx)) 0/1 matrix taking vec(rho)[idx] to the row-major vec(Tr_cav rho):
    entry (a F + k, b F + l) adds to atom entry (a, b) exactly when k == l."""
    rows, cols = np.divmod(idx, 2 * fock_dim)
    (a, k), (b, l) = np.divmod(rows, fock_dim), np.divmod(cols, fock_dim)
    kept = np.flatnonzero(k == l)
    trace_map = np.zeros((4, idx.size))
    trace_map[2 * a[kept] + b[kept], kept] = 1.0
    return trace_map


def _group_blocks(states: np.ndarray, idx: np.ndarray, dim: int,
                  reduce: Callable[[np.ndarray], object]) -> list[tuple[np.ndarray, object]]:
    """(group, reduce(block)) for each group of basis states over which the
    (n, dim, dim) stack of matrices whose vec entries idx hold states, all
    others being zero, is block diagonal; block is the zero-filled (n, k, k)
    diagonal block on the k states of group.

    idx is closed under transposition (see _reachable_block), so states i
    and j are linked when entry (i, j) is in idx; each group is the sorted
    set of states _reachable along links from its lowest state not yet
    grouped, and its entries are placed through a state -> local position
    table. A state with no link belongs to no group: its row and column are
    zero. Each block is reduced and released before the next is built.
    """
    rows, cols = np.divmod(idx, dim)
    left = np.zeros(dim, dtype=bool)
    left[rows] = True
    out = []
    while left.any():
        group = _reachable(rows, cols, np.arange(dim) == np.argmax(left))
        left[group] = False
        local = np.full(dim, -1)
        local[group] = np.arange(group.size)
        inside = local[rows] >= 0
        block = np.zeros((states.shape[0], group.size, group.size), dtype=complex)
        block[:, local[rows[inside]], local[cols[inside]]] = states[:, inside]
        out.append((group, reduce(block)))
        del block
    return out


def evolve_master(params: SystemParams, cutoff: int | None = None,
                  steps: int = DEFAULT_STEPS) -> Trajectory:
    """Fixed-step RK4 integration of the master equation over [0, tau].

    Records the reachable entries of the joint state, the reduced atom
    state, and the reduced-state derivative at every grid point, and the
    trace as the sum of the reachable diagonal entries. Validates
    physicality (positivity floor -1e-6, checked in one pass over the
    _group_blocks of the joint state before the reduced states are formed,
    each by gate_min_eig: a batched
    Cholesky factorisation, with eigvalsh only where it fails, so the one
    possible flip against an exact spectrum is a pass whose least
    eigenvalue lies within round-off below the floor; non-finite states
    raise NoConvergence) and reruns the endpoint at cutoff+2 to confirm the
    truncation converged (trace distance <= 1e-8). The exact min_eigs of
    the returned trajectory are computed only when read.
    """
    if steps < MIN_STEPS:
        raise ValidationError(f"steps must be >= {MIN_STEPS}, got {steps}")
    if cutoff is None:
        cutoff = default_cutoff(derive(params))

    n = steps + 1
    fock_dim = cutoff + 1
    h = params.tau / steps
    generator, start, idx, diagonal = _reachable_block(params, cutoff)
    real_generator, real_start = _real_form(generator, start, diagonal)
    states = _complex_form(
        _propagate(_rk4_step_matrix(real_generator, h), real_start, steps), diagonal)
    dim = 2 * fock_dim
    traces = states[:, idx // dim == idx % dim].sum(axis=1).real
    worst = min(least for _, least in _group_blocks(
        states, idx, dim, lambda block: gate_min_eig(block, POSITIVITY_FLOOR)))
    if not worst >= POSITIVITY_FLOOR:
        raise PositivityViolated(
            f"min eigenvalue {worst:.3e} below {POSITIVITY_FLOOR:.1e}; reduce the step")
    trace_map = _trace_map(idx, fock_dim)
    rho_atom = (states @ trace_map.T).reshape(n, 2, 2)
    rho_atom_dot = (states @ (trace_map @ generator).T).reshape(n, 2, 2)

    # the cutoff+2 rerun needs only its endpoint
    generator, start, refined_idx, diagonal = _reachable_block(params, cutoff + 2)
    real_generator, real_start = _real_form(generator, start, diagonal)
    end = _propagate_endpoint(_rk4_step_matrix(real_generator, h), real_start, steps)
    refined = (_trace_map(refined_idx, fock_dim + 2) @ _complex_form(end, diagonal)).reshape(2, 2)
    _, trace_norm, _ = norms_of_hermitian_stack((rho_atom[-1] - refined)[None])
    conv_dist = float(0.5 * trace_norm[0])
    if not conv_dist <= CONVERGENCE_DISTANCE:
        raise CutoffNotConverged(
            f"cutoff {cutoff} vs {cutoff + 2}: endpoint trace distance "
            f"{conv_dist:.3e} exceeds {CONVERGENCE_DISTANCE:.1e}")

    return Trajectory(
        times=np.linspace(0.0, params.tau, n),
        rho_atom=rho_atom,
        rho_atom_dot=rho_atom_dot,
        fock_cutoff=cutoff,
        traces=traces,
        conv_dist=conv_dist,
        states=states,
        support=idx,
    )
