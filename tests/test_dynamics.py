import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqsl.dynamics import (CERTIFIED_DISTANCE, CONVERGENCE_DISTANCE, DEFAULT_STEPS,
                                POSITIVITY_FLOOR, SQUARING_CROSSOVER, BlockPlan, _atom_form,
                                _cosh_sinh, _defect_weights, _group_blocks, _rate_table,
                                complex_form, _oracle_trajectory, _propagate_endpoint,
                                _reachable_block, _reduced_endpoint, _rk4_step_matrix,
                                _trace_map, _certificates, analytic_coeffs,
                                analytic_trajectory, evolve_master,
                                initial_state, liouvillian_superoperator,
                                ode_oracle_coeffs)
from cavityqsl.errors import (CutoffNotConverged, NoConvergence, NumericalError,
                              PositivityViolated, ValidationError)
from cavityqsl import dynamics, linalg
from cavityqsl.linalg import (PLAN_CACHE_ENTRIES, eigvalsh, gate_min_eig,
                              norms_of_hermitian_stack, partial_trace_cavity_stack)
from cavityqsl.model import (DerivedParams, SystemParams, annihilation,
                             build_operators, default_cutoff, derive, matched_reservoir)
from cavityqsl.qsl import qsl_time
from cavityqsl.sweep import engine_row

# a point from the constrained detuning sweep, quiet reservoir
BASE = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, delta_c=3.0302247091075975,
                    gamma=1e-3, kappa=1e-3, r_e=0.1, theta_e=math.pi)

# decay_diff^2 = 16 g_s^2 exactly, driving the splitting root to zero
DEGENERATE = SystemParams(g=0.01, delta_a=1.0, delta_c=1.0, gamma=0.05, kappa=0.01)

# a quiet point started in (|e> + |g>)/sqrt(2): its block is 9 of 36 entries
TILTED = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, delta_c=3.03, gamma=1e-3,
                      kappa=1e-3, r_e=0.1, theta_e=math.pi, alpha=math.pi / 4)

# a chunk budget that no stack reaches: _group_blocks makes one pass
ONE_PASS = 1 << 62

# unmatched reservoir (n_s = sinh(r_p)^2, m_s != 0): default cutoff 10
NOISY = SystemParams(g=1.0, r_p=0.2, delta_a=2.0, delta_c=3.0, r_e=0.0,
                     theta_p=0.0, gamma=1e-3, kappa=0.05)

# both parity sectors linked by the tilted start: one group of 22 states
NOISY_TILTED = dataclasses.replace(NOISY, alpha=0.3)

# cos(pi/2) = 6e-17 keeps |e,0> in the support: one group of 3 states at
# cutoff 2, and three states in no group
ORTHOGONAL = dataclasses.replace(BASE, alpha=math.pi / 2)

# no symmetry: complex m_s, a squeezed reservoir of its own and a tilted start
GENERIC = SystemParams(g=1.0, r_p=0.3, delta_a=0.7, delta_c=1.3, theta_p=0.4, gamma=0.05,
                       kappa=0.1, r_e=0.2, theta_e=1.1, alpha=0.6)

# the two points of the noisy_master benchmark sweep at seed 0
SWEEP_NOISY = SystemParams(g=1.0, r_p=0.09474863703949193, delta_a=1.8213748223375132,
                           delta_c=2.8168746085326783, theta_p=0.0,
                           gamma=0.0009487010114756702, kappa=0.05376979953907141, r_e=0.0)
SWEEP_NOISIER = dataclasses.replace(SWEEP_NOISY, r_p=0.3360414436774937)

# matched at a negative drive phase where theta_e = pi - theta_p left
# |m_s| = 1.9e-15 and an 18-entry quiet block
NEGATIVE_PHASE = matched_reservoir(dataclasses.replace(
    BASE, r_p=1.0942448414759975, theta_p=-4.943160628139503))

# the UNSTABLE_RERUN point of test_sweep_cli.py: certified by its bound, sent
# to the rerun by its step norm, and the rerun is RK4-unstable
UNSTABLE_RERUN = SystemParams(g=49.962989696152846, delta_a=-4.501924659092477,
                              theta_p=0.20924688941484645, kappa=19.859707117645705,
                              r_e=1.4231886291382141e-05, tau=13.716958458202575)


def superop_entries(params, cutoff):
    """The liouvillian_superoperator of params at cutoff."""
    return liouvillian_superoperator(params, derive(params), cutoff)


def reachable_block(params, cutoff):
    """_reachable_block at cutoff on its own Liouvillian entries, with no
    defect: the block as a rerun plans it."""
    return _reachable_block(params, cutoff, superop_entries(params, cutoff), None)


def closed_form_reference(params, t, flip_root=False):
    """Test-local evaluation of the amplitude formulas, explicit root branch."""
    d = derive(params)
    diff = params.gamma - params.kappa + 2j * (params.delta_a - d.delta_s)
    total = params.gamma + params.kappa + 2j * (params.delta_a + d.delta_s)
    root = cmath.sqrt(diff * diff - 16.0 * d.g_s**2)
    if flip_root:
        root = -root
    env = cmath.exp(-0.25 * total * t)
    excited = env * (cmath.cosh(0.25 * root * t) - (diff / root) * cmath.sinh(0.25 * root * t))
    photon = (4.0 * d.g_s / (1j * root)) * env * cmath.sinh(0.25 * root * t)
    return excited, photon


def sequential_rk4_oracle(params, t, n):
    """Four-stage RK4 on the amplitude ODEs, one Python step at a time."""
    d = derive(params)
    coupling = -1j * np.array(
        [[params.delta_a - 0.5j * params.gamma, d.g_s],
         [d.g_s, d.delta_s - 0.5j * params.kappa]], dtype=complex)
    h = t / n
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
    return amps


def liouvillian(ops, derived, rho):
    """Direct action of the squeezed-picture master equation on rho.

    rho_dot = i[rho, H] - (1/2){ D(L_atom) + (n_s+1) D(L_cav) + n_s D(L_cav†)
    - m_s Dp(L_cav†) - m_s* Dp(L_cav) } rho, with D(o)r = o†or - 2oro† + ro†o
    and Dp(o)r = oor - 2oro + roo; the reference for liouvillian_superoperator.
    """
    rho = np.asarray(rho, dtype=complex)
    h = ops.hamiltonian

    def plain(o):
        od = o.conj().T
        odo = od @ o
        return odo @ rho - 2.0 * (o @ rho @ od) + rho @ odo

    def twophoton(o):
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


def dense_superoperator(params, cutoff, derived=None):
    """The dense L: the entries of liouvillian_superoperator scattered into
    zeros, with derive(params) by default."""
    derived = derive(params) if derived is None else derived
    rows, cols, values = liouvillian_superoperator(params, derived, cutoff)
    size = (2 * (cutoff + 1)) ** 2
    dense = np.zeros((size, size), dtype=complex)
    dense[rows, cols] = values
    return dense


def dense_reachable_block(super_op, vec, dim):
    """_reachable_block on a dense L and vec(rho_0) of dim x dim states: the
    closure by boolean products over the D x D nonzero pattern of L, the
    block by an np.ix_ gather."""
    pattern = super_op != 0
    inside = vec != 0
    frontier = inside
    while frontier.any():
        frontier = pattern[:, frontier].any(axis=1) & ~inside
        inside |= frontier
    reached = np.flatnonzero(inside)
    rows, cols = np.divmod(reached, dim)
    upper = rows < cols
    idx = np.concatenate((reached[rows == cols], reached[upper], (cols * dim + rows)[upper]))
    return super_op[np.ix_(idx, idx)], vec[idx], idx, int(np.count_nonzero(rows == cols))


def real_form(generator, start, diagonal):
    """The real generator and real start of a complex block in
    _reachable_block order, by slices: columns L[:, d], L[:, u] + L[:, l] and
    i (L[:, u] - L[:, l]); rows the real parts of d and u, then the
    imaginary parts of u."""
    end = (generator.shape[0] + diagonal) // 2
    upper, lower = generator[:, diagonal:end], generator[:, end:]
    cols = np.concatenate((generator[:, :diagonal], upper + lower, 1j * (upper - lower)), axis=1)
    real_generator = np.concatenate((cols[:end].real, cols[diagonal:end].imag))
    return real_generator, np.concatenate((start[:end].real, start[diagonal:end].imag))


def real_coordinates(vec, diagonal):
    """(d, x, y) of entries vec in _reachable_block order."""
    end = (vec.shape[-1] + diagonal) // 2
    return np.concatenate((vec[..., :end].real, vec[..., diagonal:end].imag), axis=-1)


def dense_kron_superoperator(ops, derived):
    """liouvillian_superoperator written with dense np.kron products."""
    eye = np.eye(ops.hamiltonian.shape[0], dtype=complex)
    atom = ops.lindblad_atom
    cav = ops.lindblad_cavity
    cav_dag = cav.conj().T
    jumps = ((1.0, atom, atom.conj().T),
             (derived.n_s + 1.0, cav, cav_dag),
             (derived.n_s, cav_dag, cav),
             (-derived.m_s, cav_dag, cav_dag),
             (-np.conj(derived.m_s), cav, cav))
    h_eff = ops.hamiltonian - 0.5j * sum(c * (b @ a) for c, a, b in jumps)
    super_op = np.kron(-1j * h_eff, eye) + np.kron(eye, (1j * h_eff.conj().T).T)
    for c, a, b in jumps:
        super_op += c * np.kron(a, b.T)
    return super_op


def dense_unit_generators(fock_dim):
    """The eight unit-rate generators of L, each the dense sum of the krons of
    its terms (A rho B is kron(A, B^T) on row-major vec): the dissipators
    o rho o† - {o† o, rho}/2 of lower (x) I, I (x) a and I (x) a†, the
    two-photon part at m_s = 1, the commutators -i[x, rho] of P_e (x) I,
    I (x) n and the coupling, and the two-photon part at m_s = i."""
    a = annihilation(fock_dim)
    eye_fock = np.eye(fock_dim)
    lower = np.kron([[0, 0], [1, 0]], eye_fock)
    cav = np.kron(np.eye(2), a)
    cav_dag = cav.conj().T
    coupling = np.kron([[0, 1], [0, 0]], a) + np.kron([[0, 0], [1, 0]], a.conj().T)
    eye = np.eye(2 * fock_dim, dtype=complex)

    def commutator(x):
        return np.kron(-1j * x, eye) + np.kron(eye, (1j * x).T)

    def dissipator(o):
        decay = o.conj().T @ o
        return np.kron(o, o.conj()) - 0.5 * np.kron(decay, eye) - 0.5 * np.kron(eye, decay.T)

    def two_photon(o):
        pair = o @ o
        return np.kron(o, o.T) - 0.5 * np.kron(pair, eye) - 0.5 * np.kron(eye, pair.T)

    return (dissipator(lower), dissipator(cav), dissipator(cav_dag),
            -two_photon(cav_dag) - two_photon(cav),
            commutator(np.kron([[1, 0], [0, 0]], eye_fock)), commutator(cav_dag @ cav),
            commutator(coupling), -1j * two_photon(cav_dag) + 1j * two_photon(cav))


def dense_kron_moduli(params, cutoff):
    """dense_kron_superoperator with every term, rate and factor entry
    replaced by its modulus: the scale of the rounding of its sums."""
    d = derive(params)
    a = np.abs(annihilation(cutoff + 1))
    eye_fock = np.eye(cutoff + 1)
    lower = np.kron([[0, 0], [1, 0]], eye_fock)
    cav = np.kron(np.eye(2), a)
    h = (abs(params.delta_a) * np.kron([[1, 0], [0, 0]], eye_fock) + abs(d.delta_s) * cav.T @ cav
         + d.g_s * (np.kron([[0, 1], [0, 0]], a) + np.kron([[0, 0], [1, 0]], a.T)))
    atom, cav = math.sqrt(params.gamma) * lower, math.sqrt(params.kappa) * cav
    jumps = ((1.0, atom, atom.T), (d.n_s + 1.0, cav, cav.T), (d.n_s, cav.T, cav),
             (abs(d.m_s), cav.T, cav.T), (abs(d.m_s), cav, cav))
    h_eff = h + 0.5 * sum(c * (b @ o) for c, o, b in jumps)
    eye = np.eye(h.shape[0])
    return np.kron(h_eff, eye) + np.kron(eye, h_eff.T) + sum(c * np.kron(o, b.T)
                                                             for c, o, b in jumps)


def joint_states(traj):
    """The (n, 2F, 2F) joint density matrices of a master trajectory, F =
    fock_cutoff + 1: its states scattered into zeros at their support."""
    n = len(traj.times)
    dim = 2 * (traj.fock_cutoff + 1)
    full = np.zeros((n, dim * dim), dtype=complex)
    full[:, traj.block.idx] = complex_form(traj.coords, traj.block.diagonal)
    return full.reshape(n, dim, dim)


def padded_gates(rho_full):
    """Trace, minimum eigenvalue and hermiticity error on the full stack."""
    adjoint = rho_full.conj().transpose(0, 2, 1)
    traces = np.einsum("tii->t", rho_full).real
    min_eigs = eigvalsh(0.5 * (rho_full + adjoint))[:, 0]
    return traces, min_eigs, float(np.abs(rho_full - adjoint).max())


def sequential_master_reference(params, cutoff, steps):
    """Full-space master path, one step-matrix product per grid point.

    Returns (rho_full, rho_atom, rho_atom_dot) with the derivative taken as
    L vec(rho) on the full space and both reduced states by partial trace.
    """
    super_op = dense_superoperator(params, cutoff)
    fock_dim = cutoff + 1
    dim = 2 * fock_dim
    step_matrix = _rk4_step_matrix(params.tau / steps * super_op)
    vec = initial_state(params, fock_dim).reshape(-1)
    states = np.empty((steps + 1, vec.size), dtype=complex)
    states[0] = vec
    for i in range(1, steps + 1):
        vec = step_matrix @ vec
        states[i] = vec
    rho_full = states.reshape(-1, dim, dim)
    rho_dot = (states @ super_op.T).reshape(-1, dim, dim)
    return (rho_full, partial_trace_cavity_stack(rho_full, 2, fock_dim),
            partial_trace_cavity_stack(rho_dot, 2, fock_dim))


def test_coeffs_at_time_zero():
    c = analytic_coeffs(BASE, 0.0)
    assert c.excited_amp == 1.0 + 0j
    assert c.photon_amp == 0j


def test_rate_combinations_exposed():
    c = analytic_coeffs(BASE, 0.5)
    d = derive(BASE)
    assert c.decay_diff == pytest.approx(
        BASE.gamma - BASE.kappa + 2j * (BASE.delta_a - d.delta_s), abs=1e-15)
    assert c.decay_sum == pytest.approx(
        BASE.gamma + BASE.kappa + 2j * (BASE.delta_a + d.delta_s), abs=1e-15)
    assert c.splitting_root**2 == pytest.approx(
        c.decay_diff**2 - 16.0 * d.g_s**2, rel=1e-12)


def test_resonant_lossless_rabi():
    # delta_a = delta_s = 0, gamma = kappa = 0: A = cos(g t), B = -i sin(g t)
    p = SystemParams(g=1.0)
    for t in (0.0, 0.3, 1.2, math.pi / 2):
        c = analytic_coeffs(p, t)
        assert c.excited_amp == pytest.approx(math.cos(t), abs=1e-12)
        assert c.photon_amp == pytest.approx(-1j * math.sin(t), abs=1e-12)


def test_detuned_lossless_rabi():
    # textbook transfer: |B|^2 = 4g^2/(D^2+4g^2) * sin^2(sqrt(D^2+4g^2) t/2)
    delta, g = 3.0, 1.5
    p = SystemParams(g=g, delta_a=delta)
    omega = math.sqrt(delta**2 + 4.0 * g**2)
    for t in (0.4, 1.0, 2.7):
        c = analytic_coeffs(p, t)
        expected = (4.0 * g**2 / omega**2) * math.sin(0.5 * omega * t) ** 2
        assert abs(c.photon_amp) ** 2 == pytest.approx(expected, abs=1e-12)
        assert abs(c.excited_amp) ** 2 + expected == pytest.approx(1.0, abs=1e-12)


def test_root_branch_irrelevant():
    for t in (0.2, 0.9):
        c = analytic_coeffs(BASE, t)
        plus = closed_form_reference(BASE, t, flip_root=False)
        minus = closed_form_reference(BASE, t, flip_root=True)
        assert c.excited_amp == pytest.approx(plus[0], abs=1e-13)
        assert c.excited_amp == pytest.approx(minus[0], abs=1e-13)
        assert c.photon_amp == pytest.approx(plus[1], abs=1e-13)
        assert c.photon_amp == pytest.approx(minus[1], abs=1e-13)


def test_closed_form_against_ode_oracle():
    rng = np.random.default_rng(42)
    cases = [BASE, DEGENERATE]
    for _ in range(8):
        cases.append(SystemParams(
            g=float(rng.uniform(0.5, 3.0)),
            delta_a=float(rng.uniform(-10.0, 10.0)),
            delta_c=float(rng.uniform(-10.0, 10.0)),
            gamma=float(rng.uniform(0.0, 0.1)),
            kappa=float(rng.uniform(0.0, 0.1))))
    for p in cases:
        for t in (0.37, 1.0):
            exact = analytic_coeffs(p, t)
            oracle = ode_oracle_coeffs(p, t)
            assert abs(exact.excited_amp - oracle.excited_amp) <= 1e-8
            assert abs(exact.photon_amp - oracle.photon_amp) <= 1e-8


def test_degenerate_root_uses_series_limit():
    c = analytic_coeffs(DEGENERATE, 0.8)
    assert abs(c.splitting_root) < 1e-8
    # continuity: a tiny detuning of gamma moves the result only slightly
    nudged = SystemParams(g=0.01, delta_a=1.0, delta_c=1.0,
                          gamma=0.05 + 1e-9, kappa=0.01)
    c2 = analytic_coeffs(nudged, 0.8)
    assert abs(c.excited_amp - c2.excited_amp) <= 1e-6
    assert abs(c.photon_amp - c2.photon_amp) <= 1e-6


# splitting roots: near-degenerate, oscillatory, overdamped, mixed, |y| = 1e5
# at t = 10, and x up to +-600
@pytest.mark.parametrize("root", [2e-8 * cmath.exp(0.7j), 1e-3 + 3j, 2.5, 1.3 - 2.1j,
                                  0.1 + 4e4j, 240 + 5j, -240 - 5j],
                         ids=["degenerate", "oscillatory", "overdamped", "mixed",
                              "fast-phase", "large-x", "large-negative-x"])
def test_real_pass_hyperbolics_match_complex_ones(root):
    t = np.linspace(0.0, 10.0, 2001)
    scale = 0.25 * complex(root)
    cosh, sinh = _cosh_sinh(scale, t)
    for got, want in ((cosh, np.cosh(scale * t)), (sinh, np.sinh(scale * t))):
        assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all()


def test_amplitude_norm_decay_law():
    # d/dt (|A|^2 + |B|^2) = -gamma |A|^2 - kappa |B|^2, centered difference
    p = SystemParams(g=1.0, r_p=0.2, delta_a=1.0, delta_c=0.5,
                     gamma=0.3, kappa=0.08)
    t, h = 0.3, 1e-5

    def norm_at(s):
        c = ode_oracle_coeffs(p, s, step=1e-5)
        return abs(c.excited_amp) ** 2 + abs(c.photon_amp) ** 2

    mid = ode_oracle_coeffs(p, t, step=1e-5)
    lhs = (norm_at(t + h) - norm_at(t - h)) / (2.0 * h)
    rhs = -p.gamma * abs(mid.excited_amp) ** 2 - p.kappa * abs(mid.photon_amp) ** 2
    assert abs(lhs - rhs) <= 1e-8


def test_oracle_step_guard():
    with pytest.raises(ValidationError, match="exceeds accuracy bound"):
        ode_oracle_coeffs(BASE, 1.0, step=0.1)
    with pytest.raises(ValidationError):
        ode_oracle_coeffs(BASE, 1.0, step=0.0)


def test_closed_form_rejects_superposition_start():
    tilted = SystemParams(g=1.0, alpha=0.3)
    with pytest.raises(ValidationError, match="excited start"):
        analytic_coeffs(tilted, 0.5)
    with pytest.raises(ValidationError, match="excited start"):
        analytic_trajectory(tilted)
    with pytest.raises(ValidationError, match="excited start"):
        ode_oracle_coeffs(tilted, 0.5)


def test_negative_time_rejected():
    with pytest.raises(ValidationError):
        analytic_coeffs(BASE, -0.1)
    with pytest.raises(ValidationError, match="t must be >= 0"):
        ode_oracle_coeffs(BASE, -0.1)


def test_min_steps_enforced():
    with pytest.raises(ValidationError):
        analytic_trajectory(BASE, steps=99)
    with pytest.raises(ValidationError):
        evolve_master(BASE, steps=99)


@pytest.mark.parametrize("engine", [analytic_trajectory, evolve_master])
def test_non_integer_steps_rejected(engine):
    with pytest.raises(ValidationError, match="steps must be an integer, got 150.5"):
        engine(BASE, steps=150.5)


def test_non_integer_cutoff_rejected():
    with pytest.raises(ValidationError, match="cutoff must be an integer, got 2.5"):
        evolve_master(BASE, cutoff=2.5, steps=100)


def test_numpy_integer_counts_accepted():
    traj = evolve_master(BASE, cutoff=np.int64(2), steps=np.int64(100))
    assert master_bytes(traj) == master_bytes(evolve_master(BASE, cutoff=2, steps=100))
    assert analytic_trajectory(BASE, steps=np.int32(100)).times.shape == (101,)


def test_analytic_trajectory_structure():
    traj = analytic_trajectory(BASE, steps=400)
    assert traj.times.shape == (401,)
    assert traj.times[0] == 0.0 and traj.times[-1] == BASE.tau
    assert traj.coords is None and traj.block is None
    assert traj.rho_atom.shape == (401, 2, 2)
    c = analytic_coeffs(BASE, float(traj.times[57]))
    state = np.diag([abs(c.excited_amp) ** 2, abs(c.photon_amp) ** 2])
    assert np.abs(traj.rho_atom[57] - state).max() <= 1e-12
    # trace deficit equals the decayed population, bounded by the decay rates
    assert 0.0 < traj.trace_err <= (BASE.gamma + BASE.kappa) * BASE.tau
    # rho_atom is diagonal, so its least eigenvalue is the smaller population
    pop_e, pop_p = traj.rho_atom[:, 0, 0].real, traj.rho_atom[:, 1, 1].real
    assert traj.min_eigs.tobytes() == np.minimum(pop_e, pop_p).tobytes()


@pytest.mark.parametrize("engine, params", [
    (analytic_trajectory, BASE), (evolve_master, BASE), (evolve_master, TILTED)],
    ids=["analytic", "quiet", "tilted"])
def test_complex_states_are_views_of_reduced(engine, params):
    traj = engine(params, steps=100)
    for stack, columns in ((traj.rho_atom, traj.reduced[:, :8]),
                           (traj.rho_atom_dot, traj.reduced[:, 8:])):
        assert np.shares_memory(stack, traj.reduced)
        assert stack.shape == (101, 2, 2)
        assert stack.reshape(-1, 4).view(float).tobytes() == columns.tobytes()


def test_analytic_reduced_holds_only_populations_and_rates():
    traj = analytic_trajectory(BASE, steps=100)
    # every column but Re rho_ee, Re rho_gg and their rates is +0.0, bit for bit
    rest = np.delete(traj.reduced, [0, 6, 8, 14], axis=1)
    assert rest.tobytes() == np.zeros(rest.shape).tobytes()
    assert (traj.reduced[:, 0] + traj.reduced[:, 6]).tobytes() == traj.traces.tobytes()


def test_analytic_derivative_is_ode_rhs():
    # centered difference of the populations converges at O(h^2) to the
    # recorded derivative, so at h = tau/2000 agreement is already tight
    traj = analytic_trajectory(BASE, steps=2000)
    h = traj.times[1] - traj.times[0]
    diff = (traj.rho_atom[2:] - traj.rho_atom[:-2]) / (2.0 * h)
    assert np.abs(diff - traj.rho_atom_dot[1:-1]).max() <= 1e-4


def test_initial_state_projector():
    p = SystemParams(g=1.0, alpha=0.6)
    rho = initial_state(p, fock_dim=3)
    assert rho.shape == (6, 6)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-15)
    assert rho[0, 0] == pytest.approx(math.cos(0.6) ** 2, abs=1e-15)
    assert rho[3, 3] == pytest.approx(math.sin(0.6) ** 2, abs=1e-15)
    assert rho[0, 3] == pytest.approx(math.cos(0.6) * math.sin(0.6), abs=1e-15)
    # pure: rho^2 = rho
    assert np.abs(rho @ rho - rho).max() <= 1e-14


def test_superoperator_matches_direct_action():
    p = SystemParams(g=1.0, r_p=0.3, delta_a=1.0, delta_c=2.0, theta_p=0.9,
                     gamma=0.07, kappa=0.04, r_e=0.7, theta_e=0.4)
    ops = build_operators(p, cutoff=2)
    d = derive(p)
    assert abs(d.m_s.imag) > 0  # genuinely complex two-photon term
    super_op = dense_superoperator(p, 2)
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = m + m.conj().T
    direct = liouvillian(ops, d, rho)
    via_super = (super_op @ rho.reshape(-1)).reshape(6, 6)
    assert np.abs(direct - via_super).max() <= 1e-12 * np.abs(direct).max()
    # generator preserves trace and hermiticity
    assert abs(np.trace(direct)) <= 1e-12 * np.abs(direct).max()
    assert np.abs(direct - direct.conj().T).max() <= 1e-12 * np.abs(direct).max()


def test_matched_reservoir_reduces_to_plain_dissipators():
    p = SystemParams(g=1.0, r_p=0.6, theta_p=1.3, delta_a=0.5, delta_c=1.5,
                     gamma=0.05, kappa=0.02, r_e=0.6, theta_e=math.pi - 1.3)
    full = dense_superoperator(p, 3)
    d = derive(p)
    plain = dense_superoperator(
        p, 3, DerivedParams(beta=d.beta, g_s=d.g_s, delta_s=d.delta_s, n_s=0.0, m_s=0j))
    assert np.abs(full - plain).max() <= 1e-12


def test_master_trajectory_physicality():
    traj = evolve_master(BASE, steps=500)
    assert traj.fock_cutoff == 2
    assert traj.trace_err <= 1e-9
    rho = joint_states(traj)
    assert np.abs(rho - rho.conj().transpose(0, 2, 1)).max() <= 1e-10
    assert traj.min_eigs.min() >= -1e-9
    assert traj.conv_dist <= 1e-8
    assert rho.shape == (501, 6, 6)


def test_master_stays_in_single_excitation_sector():
    traj = evolve_master(BASE, steps=300)
    # top Fock level (two quanta) never populates with a quiet reservoir
    occupancy = np.abs(joint_states(traj)[:, 2::3, 2::3]).max()
    assert occupancy <= 1e-12


def test_master_matches_closed_form_populations():
    traj = evolve_master(BASE, steps=1000)
    excited = np.array([analytic_coeffs(BASE, float(t)).excited_amp
                        for t in traj.times[::100]])
    pop = traj.rho_atom[::100, 0, 0].real
    assert np.abs(pop - np.abs(excited) ** 2).max() <= 1e-9
    # ground population is the complement: jumps refill |g,0>
    assert np.abs(traj.rho_atom[::100, 1, 1].real - (1.0 - np.abs(excited) ** 2)).max() <= 1e-9
    assert np.abs(traj.rho_atom[:, 0, 1]).max() <= 1e-13


def test_master_derivative_consistent_with_grid():
    traj = evolve_master(BASE, steps=2000)
    h = traj.times[1] - traj.times[0]
    diff = (traj.rho_atom[2:] - traj.rho_atom[:-2]) / (2.0 * h)
    assert np.abs(diff - traj.rho_atom_dot[1:-1]).max() <= 1e-4
    # derivative of a trace-preserving flow is traceless
    assert np.abs(np.einsum("tii->t", traj.rho_atom_dot)).max() <= 1e-12


def test_dark_start_is_stationary():
    p = SystemParams(g=1.0, gamma=0.1, kappa=0.1, alpha=math.pi / 2)
    traj = evolve_master(p, steps=200)
    target = np.diag([0.0, 1.0]).astype(complex)
    assert np.abs(traj.rho_atom - target).max() <= 1e-12
    assert np.abs(traj.rho_atom_dot).max() <= 1e-12


def test_superposition_start_runs_clean():
    p = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, delta_c=3.03, gamma=1e-3,
                     kappa=1e-3, r_e=0.1, theta_e=math.pi, alpha=math.pi / 4)
    traj = evolve_master(p, steps=500)
    assert traj.trace_err <= 1e-9
    assert traj.min_eigs.min() >= -1e-9
    # coherence between the atomic levels survives on this start
    assert np.abs(traj.rho_atom[-1, 0, 1]) > 1e-3


def test_richardson_step_halving():
    coarse = evolve_master(BASE, steps=1000)
    fine = evolve_master(BASE, steps=2000)
    assert np.abs(coarse.rho_atom[-1] - fine.rho_atom[-1]).max() <= 1e-9


def test_unstable_step_raises_positivity():
    # the failed gate reports the exact least eigenvalue
    with pytest.raises(PositivityViolated, match=r"min eigenvalue -1\.944e\+15 below -1\.0e-06"):
        evolve_master(SystemParams(g=1.0, delta_a=300.0), cutoff=2, steps=100)


@pytest.mark.parametrize("params", [BASE, TILTED, NOISY, NOISY_TILTED, SWEEP_NOISY,
                                    SWEEP_NOISIER, GENERIC],
                         ids=["quiet", "tilted", "noisy", "noisy-tilted", "sweep-noisy",
                              "sweep-noisier", "generic-rerun"])
def test_certified_point_forms_no_gate_chunk(params, monkeypatch):
    # the RK4 error bound certifies positivity (1.2e-8 to 4.2e-8 on the noisy
    # points, whose least eigenvalues read about -1e-20), so the gate's group
    # blocks are never formed, and the run is the same bytes as one that
    # forms them; GENERIC still reruns at cutoff+2
    monkeypatch.setattr("cavityqsl.dynamics.CERTIFIED_POSITIVITY", -math.inf)
    gated = master_bytes(evolve_master(params))
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("the positivity gate ran")

    monkeypatch.setattr(dynamics, "_group_blocks", refuse)
    assert master_bytes(evolve_master(params)) == gated


def test_hot_reservoir_needs_headroom():
    hot = SystemParams(g=1.0, r_e=0.25, kappa=0.3, tau=2.0)
    with pytest.raises(CutoffNotConverged):
        evolve_master(hot, cutoff=1, steps=400)
    # the default heuristic picks a cutoff that does converge
    traj = evolve_master(hot, steps=400)
    assert traj.fock_cutoff == 10
    assert traj.conv_dist <= 1e-8


@pytest.mark.parametrize("params, cutoff, size", [
    (BASE, 2, 5), (TILTED, 2, 9), (NOISY, 10, 242), (NOISY, 12, 338),
    (NEGATIVE_PHASE, 2, 5)])
def test_reachable_block_is_closed(params, cutoff, size):
    full = dense_superoperator(params, cutoff)
    generator, start, block = reachable_block(params, cutoff)
    idx = block.idx
    assert idx.size == size
    outside = np.setdiff1d(np.arange(full.shape[0]), idx)
    assert (full[np.ix_(outside, idx)] == 0).all()
    vec = initial_state(params, cutoff + 1).reshape(-1)
    assert np.isin(np.flatnonzero(vec), idx).all()
    assert (vec[outside] == 0).all()
    # bit for bit the real form of the block taken from the dense L
    want = dense_reachable_block(full, vec, 2 * (cutoff + 1))
    assert block.diagonal == want[3]
    assert idx.tobytes() == want[2].tobytes()
    ref_generator, ref_start = real_form(*want[:2], want[3])
    assert generator.dtype == start.dtype == np.float64
    assert start.tobytes() == ref_start.tobytes()
    assert generator.shape == ref_generator.shape
    # every nonzero entry bit for bit; a zero may differ in sign
    assert np.array_equal(generator, ref_generator)


def test_reachable_block_peak_memory():
    # the dense L alone is 7.0 MiB at cutoff 12, the 338 x 338 real block 0.9 MiB
    reachable_block(NOISY, 12)
    tracemalloc.start()
    try:
        reachable_block(NOISY, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 3.0


@settings(max_examples=40, deadline=None)
@given(r_p=st.floats(0.0, 1.0), theta_p=st.floats(-math.pi, math.pi),
       r_e=st.floats(0.0, 1.0), theta_e=st.floats(-math.pi, math.pi),
       alpha=st.floats(0.0, math.pi / 2), cutoff=st.integers(1, 4))
def test_reachable_support_is_transpose_closed_and_ordered(r_p, theta_p, r_e, theta_e,
                                                           alpha, cutoff):
    params = SystemParams(g=1.0, r_p=r_p, delta_a=0.7, delta_c=1.3, theta_p=theta_p,
                          gamma=0.05, kappa=0.1, r_e=r_e, theta_e=theta_e, alpha=alpha)
    _, _, block = reachable_block(params, cutoff)
    idx, diagonal = block.idx, block.diagonal
    dim = 2 * (cutoff + 1)
    end = (idx.size + diagonal) // 2
    assert idx.size == 2 * end - diagonal
    rows, cols = np.divmod(idx, dim)
    assert (rows[:diagonal] == cols[:diagonal]).all()
    assert (rows[diagonal:end] < cols[diagonal:end]).all()
    assert (np.diff(idx[:diagonal]) > 0).all() and (np.diff(idx[diagonal:end]) > 0).all()
    assert np.array_equal(idx[end:], cols[diagonal:end] * dim + rows[diagonal:end])


@pytest.mark.parametrize("params, cutoff", [(BASE, 2), (BASE, 4), (TILTED, 2), (TILTED, 4),
                                            (NOISY, 10), (NOISY, 12)])
def test_real_form_reproduces_block(params, cutoff):
    real_generator, real_start, block = reachable_block(params, cutoff)
    idx, diagonal = block.idx, block.diagonal
    dim = 2 * (cutoff + 1)
    full = dense_superoperator(params, cutoff)
    generator = full[np.ix_(idx, idx)]
    start = initial_state(params, cutoff + 1).reshape(-1)[idx]
    assert real_generator.dtype == real_start.dtype == np.float64
    assert real_generator.shape == generator.shape
    assert np.array_equal(complex_form(real_start, diagonal), start)
    # on a random Hermitian state of the support, G r is the real form of L vec
    rng = np.random.default_rng(cutoff)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vec = (m + m.conj().T).reshape(-1)[idx]
    real = real_coordinates(vec, diagonal)
    assert np.array_equal(complex_form(real, diagonal), vec)
    want = generator @ vec
    got = complex_form(real_generator @ real, diagonal)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_support_not_closed_under_transposition_raises(monkeypatch):
    # a lone coherence |e,0><g,0| is not Hermitian: its closure misses the transposes
    def coherence(params, fock_dim):
        rho = np.zeros((2 * fock_dim, 2 * fock_dim), dtype=complex)
        rho[0, fock_dim] = 1.0
        return rho

    monkeypatch.setattr("cavityqsl.dynamics.initial_state", coherence)
    with pytest.raises(NumericalError, match="transposition"):
        reachable_block(BASE, 2)


@pytest.mark.parametrize("params", [BASE, TILTED, NOISY], ids=["quiet", "tilted", "noisy"])
def test_master_states_are_exactly_hermitian(params):
    traj = evolve_master(params)
    rho = joint_states(traj)
    assert np.array_equal(rho, rho.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("params", [BASE, TILTED, NOISY], ids=["quiet", "tilted", "noisy"])
def test_master_matches_sequential_full_space_loop(params):
    traj = evolve_master(params)
    rho_full, rho_atom, rho_atom_dot = sequential_master_reference(
        params, traj.fock_cutoff, DEFAULT_STEPS)
    assert np.abs(joint_states(traj) - rho_full).max() <= 1e-12
    assert np.abs(traj.rho_atom - rho_atom).max() <= 1e-12
    assert np.abs(traj.rho_atom_dot - rho_atom_dot).max() <= 1e-12


def binary_powering_endpoint(step_matrix, vec, steps):
    """S^steps vec by binary powering alone: log2(steps) squarings."""
    power = step_matrix
    while True:
        if steps & 1:
            vec = power @ vec
        steps >>= 1
        if not steps:
            return vec
        power = power @ power


def cycles_permutation(lengths):
    """Permutation matrix made of cycles of the given lengths."""
    starts = np.cumsum([0, *lengths[:-1]])
    perm = np.concatenate([np.roll(np.arange(a, a + k), 1) for a, k in zip(starts, lengths)])
    return np.eye(sum(lengths))[perm]


# integer matrices whose powers are exact in float64 and differ up to 10,001
# steps: I + shift at 5 (binomial entries, below 2^53) and a permutation of
# order 5 * 7 * 8 * 9 * 11 = 27,720 at 40, one on each side of the crossover
EXACT_POWERS = [np.eye(5) + np.eye(5, k=1), cycles_permutation([5, 7, 8, 9, 11])]


@pytest.mark.parametrize("step_matrix", EXACT_POWERS, ids=["unipotent-5", "permutation-40"])
def test_endpoint_exponent_is_exact(step_matrix):
    size = step_matrix.shape[0]
    assert 5 < SQUARING_CROSSOVER <= 40
    checked = [*range(1, 301), 2000, 10_001]
    vec = start = np.arange(1.0, size + 1.0)
    want = {}
    for steps in range(1, checked[-1] + 1):
        vec = step_matrix @ vec
        want[steps] = vec
    for steps in checked:
        assert np.array_equal(_propagate_endpoint(step_matrix, start, steps), want[steps])


@pytest.mark.parametrize("params, size", [(BASE, 5), (TILTED, 9), (NOISY, 338),
                                          (NOISY_TILTED, 676)],
                         ids=["quiet", "tilted", "noisy", "noisy-tilted"])
def test_endpoint_matches_binary_powering(params, size):
    # the block of the cutoff+2 rerun
    generator, start, _ = reachable_block(params, default_cutoff(derive(params)) + 2)
    assert start.size == size
    step_matrix = _rk4_step_matrix(params.tau / DEFAULT_STEPS * generator)
    got = _propagate_endpoint(step_matrix, start, DEFAULT_STEPS)
    want = binary_powering_endpoint(step_matrix, start, DEFAULT_STEPS)
    if size < SQUARING_CROSSOVER:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def ordered_support(entries, dim):
    """The transpose closure of vec entries in _reachable_block order, and
    how many lie on the diagonal."""
    rows, cols = np.divmod(np.asarray(entries), dim)
    closed = np.union1d(rows * dim + cols, cols * dim + rows)
    rows, cols = np.divmod(closed, dim)
    upper = rows < cols
    idx = np.concatenate((closed[rows == cols], closed[upper], (cols * dim + rows)[upper]))
    return idx, int(np.count_nonzero(rows == cols))


def test_trace_map_is_the_partial_trace():
    rng = np.random.default_rng(3)
    fock_dim = 4
    dim = 2 * fock_dim
    m = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
    stack = m + m.conj().transpose(0, 2, 1)
    idx, diagonal = ordered_support(np.arange(dim * dim), dim)
    trace_map = _trace_map(idx, diagonal, fock_dim)
    assert trace_map.shape == (8, dim * dim) and set(np.unique(trace_map)) == {-1.0, 0.0, 1.0}
    # coords @ [M; M G]^T reads it as a C-contiguous float64 array of exact signs
    assert trace_map.dtype == np.float64 and trace_map.flags.c_contiguous
    assert not np.signbit(trace_map[trace_map == 0.0]).any()
    coords = real_coordinates(stack.reshape(5, -1)[:, idx], diagonal)
    via_map = _atom_form(coords @ trace_map.T)
    direct = partial_trace_cavity_stack(stack, 2, fock_dim)
    assert np.abs(via_map - direct).max() <= 1e-13
    # on a subset of entries the map reads only those entries
    idx, diagonal = ordered_support(rng.choice(dim * dim, size=20, replace=False), dim)
    masked = np.zeros((5, dim * dim), dtype=complex)
    masked[:, idx] = stack.reshape(5, -1)[:, idx]
    coords = real_coordinates(stack.reshape(5, -1)[:, idx], diagonal)
    via_block = _atom_form(coords @ _trace_map(idx, diagonal, fock_dim).T)
    direct = partial_trace_cavity_stack(masked.reshape(5, dim, dim), 2, fock_dim)
    assert np.abs(via_block - direct).max() <= 1e-13


@pytest.mark.parametrize("params", [BASE, DEGENERATE, SystemParams(g=2.5, delta_a=-9.0,
                                                                   delta_c=7.0, gamma=0.1)])
def test_oracle_matches_sequential_rk4(params):
    t, n = 1.0, 40000
    _, amps = _oracle_trajectory(params, t, t / n)
    # same step map; only the order of round-off differs (about n * eps each)
    assert np.abs(amps - sequential_rk4_oracle(params, t, n)).max() <= 1e-10


# the table depends on the cutoff alone: those of BASE and TILTED (2) and
# NOISY (10), and their cutoff+2
@pytest.mark.parametrize("cutoff", [2, 4, 10, 12])
def test_rate_table_columns_are_the_dense_krons_of_their_terms(cutoff):
    fock_dim = cutoff + 1
    rows, cols, table = _rate_table(fock_dim)
    size = (2 * fock_dim) ** 2
    assert (np.diff(rows * size + cols) > 0).all() and table.any(axis=1).all()
    for column, generator in enumerate(dense_unit_generators(fock_dim)):
        # the first four generators are real, the last four imaginary
        part, rest = (generator.real, generator.imag) if column < 4 else (generator.imag,
                                                                           generator.real)
        assert not rest.any()
        placed = np.zeros((size, size))
        placed[rows, cols] = table[:, column]
        assert np.array_equal(placed, part)


@pytest.mark.parametrize("params, cutoff", [(BASE, 2), (TILTED, 2), (NOISY, 10)],
                         ids=["quiet", "tilted", "noisy"])
@pytest.mark.parametrize("extra", [0, 2])
def test_superoperator_matches_dense_kron(params, cutoff, extra):
    cutoff += extra
    d = derive(params)
    want = dense_kron_superoperator(build_operators(params, cutoff), d)
    rows, cols, values = liouvillian_superoperator(params, d, cutoff)
    assert np.array_equal(rows * want.shape[0] + cols, np.flatnonzero(want))
    # each part of a value is a dot product of up to four rounded terms, and
    # so is each part of the dense sum: both lie within 2 eps of the exact
    # sum, in units of the sum of the moduli of its terms
    scale = dense_kron_moduli(params, cutoff)[rows, cols]
    want = want[rows, cols]
    eps = np.finfo(float).eps
    assert (np.abs(values.real - want.real) <= 4 * eps * scale).all()
    assert (np.abs(values.imag - want.imag) <= 4 * eps * scale).all()


@pytest.mark.parametrize("params, cutoff", [(BASE, 2), (TILTED, 4), (NOISY, 10), (NOISY, 12)],
                         ids=["quiet", "tilted", "noisy", "noisy-refined"])
def test_superoperator_entries_are_row_major_and_nonzero(params, cutoff):
    rows, cols, values = liouvillian_superoperator(params, derive(params), cutoff)
    size = (2 * (cutoff + 1)) ** 2
    assert rows.shape == cols.shape == values.shape and values.dtype == complex
    assert (np.diff(rows * size + cols) > 0).all()
    assert (values != 0).all()
    assert rows.min() >= 0 and cols.min() >= 0 and max(rows.max(), cols.max()) < size


def test_exact_zeros_shrink_the_pattern_from_one_table_per_cutoff():
    # without atomic decay, delta_a = 0 zeroes the |e,0> entry of H_eff
    linalg._plans.clear()
    sizes = []
    for delta_a in (2.0, 0.5, 0.0):
        params = dataclasses.replace(BASE, gamma=0.0, delta_a=delta_a)
        d = derive(params)
        want = dense_kron_superoperator(build_operators(params, 2), d)
        rows, cols, _ = liouvillian_superoperator(params, d, 2)
        assert np.array_equal(rows * want.shape[0] + cols, np.flatnonzero(want))
        sizes.append(rows.size)
    assert sizes[0] == sizes[1] > sizes[2]
    # a matched reservoir drops every entry that only n_s and m_s reach
    assert sizes[0] < _rate_table(3)[0].size
    liouvillian_superoperator(NOISY, derive(NOISY), 2)
    assert [key[1:] for key in linalg._plans if key[0] is _rate_table] == [(3,)]


def test_superoperator_rejects_bad_cutoff():
    for cutoff in (0, None, 2.0):
        with pytest.raises(ValidationError, match="cutoff must be"):
            liouvillian_superoperator(BASE, derive(BASE), cutoff)


@pytest.mark.parametrize("params", [BASE, TILTED, NOISY], ids=["quiet", "tilted", "noisy"])
def test_block_gates_match_padded_stack(params):
    traj = evolve_master(params)
    traces, min_eigs, herm_err = padded_gates(joint_states(traj))
    assert np.array_equal(traj.traces, traces)
    assert herm_err == 0.0
    assert np.abs(traj.min_eigs - min_eigs).max() <= 1e-15


@pytest.mark.parametrize("params, sizes", [(BASE, [2, 1]), (TILTED, [3]), (NOISY, [11, 11]),
                                            (NOISY_TILTED, [22]), (ORTHOGONAL, [3])],
                         ids=["quiet", "tilted", "noisy", "noisy-tilted", "orthogonal"])
def test_group_blocks_are_blocks_of_the_padded_stack(params, sizes, monkeypatch):
    traj = evolve_master(params)
    monkeypatch.setattr("cavityqsl.dynamics.GATE_CHUNK_BYTES", ONE_PASS)
    dim = 2 * (traj.fock_cutoff + 1)
    rho = joint_states(traj)
    blocks = list(_group_blocks(traj.coords, traj.block))
    assert [group.size for _, group, _ in blocks] == sizes
    for rows, group, block in blocks:
        assert rows == slice(0, DEFAULT_STEPS + 1)
        # bit for bit, signed zeros included
        assert block.tobytes() == rho[:, group[:, None], group].tobytes()
    # every state off the groups has a zero row and column
    off = np.setdiff1d(np.arange(dim), np.concatenate([g for _, g, _ in blocks]))
    assert not rho[:, off].any() and not rho[:, :, off].any()


@pytest.mark.parametrize("params, limit_mib", [(BASE, 1.0), (TILTED, 0.8), (NOISY, 6.0),
                                               (NOISY_TILTED, 14.0), (GENERIC, 23.0)],
                         ids=["quiet", "tilted", "noisy", "noisy-tilted", "generic-rerun"])
def test_master_point_peak_memory(params, limit_mib):
    # a (steps+1, 2F, 2F) zero-padded stack alone is 1.1 MiB quiet, 15 MiB
    # noisy. Certified noisy points peak in the doubling: the coordinates
    # (3.7 MiB noisy, 7.4 MiB noisy-tilted), three step-matrix powers (0.45
    # and 1.8 MiB each) and the entries of L' (0.2 MiB), 5.5 and 13.2 MiB in
    # all. GENERIC reruns at cutoff 12 while its coordinates are held: 22.1 MiB
    evolve_master(params)
    tracemalloc.start()
    try:
        evolve_master(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < limit_mib


@pytest.mark.parametrize("params, limit_mib", [(NOISY, 8.0), (NOISY_TILTED, 20.0)],
                         ids=["noisy", "noisy-tilted"])
def test_min_eigs_read_peak_memory(params, limit_mib):
    # min_eigs reads the gate's row chunks; over one chunk of all rows the
    # same read peaked at 19.0 MiB noisy and 38.4 MiB noisy-tilted
    evolve_master(params).min_eigs
    tracemalloc.start()
    try:
        evolve_master(params).min_eigs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < limit_mib


def test_analytic_row_peak_memory():
    # the (2001, 16) reduced array of the trajectory holds 250 KiB; with the
    # amplitudes still alive while it was filled, and the spectrum stacked
    # for the norms, the row peaked at 425 KiB. Each temporary more adds heap
    # churn: page faults per row that cost more than the arithmetic saved
    row = lambda: engine_row(BASE, "analytic", 0, 0.0, None, None, DEFAULT_STEPS)
    row()
    tracemalloc.start()
    try:
        row()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**10 < 384


def hermitian_stack_with_floor(k, least, n=40, slice_at=17, seed=0):
    """(n, k, k) exactly Hermitian stack whose spectra lie in [0.01, 1]
    except slice slice_at, whose least eigenvalue is least."""
    rng = np.random.default_rng(seed + k)
    spectra = rng.uniform(0.01, 1.0, size=(n, k))
    spectra[slice_at, rng.integers(k)] = least
    z = rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k))
    unitary, _ = np.linalg.qr(z)
    stack = (unitary * spectra[:, None, :]) @ unitary.conj().transpose(0, 2, 1)
    return 0.5 * (stack + stack.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("k", [1, 2, 3, 11])
@pytest.mark.parametrize("margin", [1e-3, -1e-3], ids=["below", "above"])
def test_gate_decides_as_eigvalsh(k, margin):
    stack = hermitian_stack_with_floor(k, POSITIVITY_FLOOR * (1.0 + margin))
    before = stack.copy()
    want = float(eigvalsh(stack)[:, 0].min())
    got = gate_min_eig(stack, POSITIVITY_FLOOR)
    assert (want >= POSITIVITY_FLOOR) == (margin < 0)
    assert (got >= POSITIVITY_FLOOR) == (want >= POSITIVITY_FLOOR)
    if margin > 0:
        # a failed gate reports the exact least eigenvalue
        assert got == want
    # the in-place diagonal shift is undone
    assert np.array_equal(stack, before)


@pytest.mark.parametrize("params", [BASE, TILTED, NOISY], ids=["quiet", "tilted", "noisy"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", ["diagonal", "coherence"])
def test_non_finite_states_are_no_convergence(params, value, entry, monkeypatch):
    traj = evolve_master(params, steps=200)
    idx, coords, diagonal = traj.block.idx, traj.coords.copy(), traj.block.diagonal
    if entry == "diagonal":
        coords[150, diagonal - 1] = value
    else:
        # the y coordinate of an upper entry and its conjugate partner
        coords[150, (idx.size + diagonal) // 2] = value
    monkeypatch.setattr("cavityqsl.dynamics.GATE_CHUNK_BYTES", 4096)
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergence, match="did not converge"):
        for _, _, block in _group_blocks(coords, traj.block):
            gate_min_eig(block, POSITIVITY_FLOOR)


def test_noisy_point_reads_no_spectrum_until_min_eigs(monkeypatch):
    calls = []
    lapack = np.linalg.eigvalsh

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return lapack(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    traj = evolve_master(NOISY)
    qsl_time(traj)
    assert calls == []
    first = traj.min_eigs
    # the gate's 15 row chunks of 2001 rows, each with both 11 x 11 groups
    assert calls == [(134, 11, 11)] * 28 + [(125, 11, 11)] * 2
    # computed once, then cached
    assert traj.min_eigs is first
    assert len(calls) == 30


@pytest.mark.parametrize("cutoff", [1, 2, 4, 10, 12])
@pytest.mark.parametrize("params", [BASE, TILTED, NOISY, GENERIC],
                         ids=["quiet", "tilted", "noisy", "generic"])
def test_real_generator_is_the_real_form_of_the_dense_block(params, cutoff):
    generator, start, plan = reachable_block(params, cutoff)
    idx, diagonal = plan.idx, plan.diagonal
    full = dense_superoperator(params, cutoff)
    vec = initial_state(params, cutoff + 1).reshape(-1)
    block, block_start, want_idx, want_diagonal = dense_reachable_block(full, vec, 2 * (cutoff + 1))
    assert np.array_equal(idx, want_idx) and diagonal == want_diagonal
    want, want_start = real_form(block, block_start, diagonal)
    assert generator.dtype == np.float64 and generator.shape == want.shape
    # equal values: every nonzero entry bit for bit, zeros up to their sign
    assert np.array_equal(generator, want)
    assert start.tobytes() == want_start.tobytes()


def group_blocks(monkeypatch, traj, chunk_bytes):
    """The (rows, group, block) of traj's _group_blocks, in chunks of at most
    chunk_bytes."""
    monkeypatch.setattr("cavityqsl.dynamics.GATE_CHUNK_BYTES", chunk_bytes)
    return list(_group_blocks(traj.coords, traj.block))


def gate_over(monkeypatch, traj, chunk_bytes, floor=POSITIVITY_FLOOR):
    return min(gate_min_eig(block, floor)
               for _, _, block in group_blocks(monkeypatch, traj, chunk_bytes))


@pytest.mark.parametrize("params", [BASE, TILTED, NOISY, NOISY_TILTED, ORTHOGONAL],
                         ids=["quiet", "tilted", "noisy", "noisy-tilted", "orthogonal"])
def test_gate_over_row_chunks_decides_as_one_pass(params, monkeypatch):
    traj = evolve_master(params, steps=300)
    # 2 KiB holds a few rows of an 11 x 11 block: dozens of chunks. A pass
    # reads +inf for k >= 3 and the exact least eigenvalue for k <= 2.
    one_pass = gate_over(monkeypatch, traj, ONE_PASS)
    assert gate_over(monkeypatch, traj, 2048) == one_pass >= POSITIVITY_FLOOR
    # a floor above the least eigenvalues fails slices in many chunks, and
    # the failed gate still reports the exact least eigenvalue of the stack
    floor = 0.5 * float(traj.min_eigs.max()) + 1e-3
    chunked = gate_over(monkeypatch, traj, 2048, floor)
    assert chunked == gate_over(monkeypatch, traj, ONE_PASS, floor) == traj.min_eigs.min()
    # the chunks of a group, stacked, are its whole block, and their row
    # slices run over the stack in order
    whole = {tuple(g): block for _, g, block in group_blocks(monkeypatch, traj, ONE_PASS)}
    pieces, spans = {}, {}
    for rows, group, block in group_blocks(monkeypatch, traj, 2048):
        pieces.setdefault(tuple(group), []).append(block)
        spans.setdefault(tuple(group), []).append((rows.start, rows.stop))
    assert whole.keys() == pieces.keys()
    for key, block in whole.items():
        assert len(pieces[key]) > 1
        assert np.concatenate(pieces[key]).tobytes() == block.tobytes()
        starts, stops = zip(*spans[key])
        assert starts[0] == 0 and stops[-1] == len(block) and starts[1:] == stops[:-1]
        assert [len(piece) for piece in pieces[key]] == [b - a for a, b in spans[key]]


def test_failed_gate_over_row_chunks_reports_the_same_value(monkeypatch):
    unstable = SystemParams(g=1.0, delta_a=300.0)
    with pytest.raises(PositivityViolated) as whole:
        evolve_master(unstable, cutoff=2, steps=100)
    monkeypatch.setattr("cavityqsl.dynamics.GATE_CHUNK_BYTES", 256)
    with pytest.raises(PositivityViolated) as chunked:
        evolve_master(unstable, cutoff=2, steps=100)
    assert str(chunked.value) == str(whole.value)


@pytest.mark.parametrize("params", [BASE, TILTED, NOISY], ids=["quiet", "tilted", "noisy"])
def test_states_are_rebuilt_from_the_coordinates_on_read(params):
    traj = evolve_master(params, steps=200)
    assert traj.coords.dtype == np.float64
    assert traj.coords.shape == (201, traj.block.idx.size)
    # the trajectory keeps no complex states; complex_form rebuilds them
    assert not hasattr(traj, "states")
    diagonal = traj.block.diagonal
    joint = complex_form(traj.coords, diagonal)
    assert joint.dtype == complex and joint.shape == traj.coords.shape
    # exactly Hermitian: each lower entry is the conjugate of its upper one
    end = (traj.block.idx.size + diagonal) // 2
    assert np.array_equal(joint[:, end:], np.conj(joint[:, diagonal:end]))
    assert not joint[:, :diagonal].imag.any()


@pytest.mark.parametrize("engine", [evolve_master, analytic_trajectory,
                                    lambda params, steps: analytic_coeffs(params, 0.5)],
                         ids=["master", "analytic", "coeffs"])
@pytest.mark.parametrize("delta_a", [1e200, 1e308])
def test_overflowing_propagation_is_no_convergence(engine, delta_a):
    # the propagation leaves the float range: no RuntimeWarning (an error
    # under this suite's warning filter), one NoConvergence that says so;
    # one instant of the closed form follows the trajectory's rule
    with pytest.raises(NoConvergence, match="propagation did not converge: non-finite"):
        engine(SystemParams(g=1.0, delta_a=delta_a), steps=100)


def master_bytes(traj):
    return [traj.coords.tobytes(), traj.reduced.tobytes(), traj.traces.tobytes(),
            traj.block.idx.tobytes(), traj.conv_dist]


# one point per pattern of L and rho_0: quiet, tilted, orthogonal, an exact
# zero in H, and noisy
PATTERNS = [BASE, dataclasses.replace(BASE, alpha=0.3),
            dataclasses.replace(BASE, alpha=math.pi / 2),
            dataclasses.replace(BASE, delta_a=0.0), NOISY]


def test_plan_cache_is_invisible():
    cold = []
    for params in PATTERNS:
        linalg._plans.clear()
        cold.append(master_bytes(evolve_master(params, steps=300)))
    # interleaved, each point finds the plans of all the others
    for _ in range(2):
        for params, want in zip(PATTERNS, cold):
            assert master_bytes(evolve_master(params, steps=300)) == want


def plan_arrays(plan):
    if isinstance(plan, np.ndarray):
        yield plan
    elif isinstance(plan, tuple):
        for part in plan:
            yield from plan_arrays(part)


def test_cached_plans_are_read_only():
    linalg._plans.clear()
    traj = evolve_master(TILTED, steps=100)
    # the rate tables at the cutoff and at cutoff+2, then the block's plan,
    # which holds the defect's structure
    arrays = [a for plan in linalg._plans.values() for a in plan_arrays(plan)]
    assert len(linalg._plans) == 3 and len(arrays) > 9
    assert traj.block.defect is not None
    for a in arrays + [traj.block.idx]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    traj.min_eigs
    assert len(linalg._plans) == 3


@pytest.mark.parametrize("params", [TILTED, NOISY], ids=["tilted", "noisy"])
def test_min_eigs_read_builds_no_plan(params):
    # the trajectory carries its block's plan, group tables included
    traj = evolve_master(params, steps=300)
    linalg._plans.clear()
    cold = traj.min_eigs
    assert not linalg._plans
    assert cold.tobytes() == evolve_master(params, steps=300).min_eigs.tobytes()


def test_plan_cache_holds_at_most_its_cap():
    linalg._plans.clear()
    first = master_bytes(evolve_master(BASE, cutoff=1, steps=100))
    made = set(linalg._plans)
    first_plans = set(made)
    # the rate tables at cutoffs 1 to 24, the block's plan at cutoff 1 and
    # those of two starts at cutoffs 2 to 22: 67 plans
    for cutoff in range(2, 23):
        for params in (BASE, TILTED):
            evolve_master(params, cutoff=cutoff, steps=100)
            made |= linalg._plans.keys()
            assert len(linalg._plans) <= PLAN_CACHE_ENTRIES
    assert len(made) > PLAN_CACHE_ENTRIES
    # the plans of cutoff 1 were dropped first and are rebuilt the same
    assert first_plans - linalg._plans.keys()
    assert master_bytes(evolve_master(BASE, cutoff=1, steps=100)) == first


def defect_weights(params, traj):
    """The _defect_weights of a master trajectory's block."""
    cutoff = traj.fock_cutoff
    entries, refined = (superop_entries(params, c) for c in (cutoff, cutoff + 2))
    return _defect_weights(entries, refined, traj.block)


def truncation_certificate(params, traj):
    """The certificate of evolve_master for a master trajectory, computed
    whether or not the trajectory used it."""
    truncation, _ = _certificates(traj.coords, traj.block, defect_weights(params, traj),
                                  math.inf, params.tau / (len(traj.times) - 1))
    return truncation


def hypot_truncation(params, traj):
    """The truncation certificate with the modulus of each (x, y) pair read
    exactly, as hypot(x, y), and weighted once by the pair's weight."""
    diagonal = traj.block.diagonal
    end = (traj.block.idx.size + diagonal) // 2
    coords = traj.coords
    modulus = np.hstack((np.abs(coords[:, :diagonal]),
                         np.hypot(coords[:, diagonal:end], coords[:, end:])))
    density = modulus @ defect_weights(params, traj)[:end]
    return 0.5 * np.trapezoid(density, dx=params.tau / (len(traj.times) - 1))


def rerun_distance(params, traj):
    """The endpoint trace distance to the cutoff+2 rerun, measured."""
    steps = len(traj.times) - 1
    cutoff = traj.fock_cutoff + 2
    rerun = _reduced_endpoint(params, cutoff, superop_entries(params, cutoff),
                              params.tau / steps, steps)
    _, trace_norm, _ = norms_of_hermitian_stack((traj.rho_atom[-1] - rerun)[None])
    return float(0.5 * trace_norm[0])


def embedded(rho, fock_dim):
    """A stack of joint states at fock_dim levels embedded at fock_dim + 2:
    each state keeps its atom index and Fock level, the new levels are empty."""
    n, dim, _ = rho.shape
    lift = np.arange(dim) + 2 * (np.arange(dim) >= fock_dim)
    out = np.zeros((n, dim + 4, dim + 4), dtype=complex)
    out[:, lift[:, None], lift] = rho
    return out


def dense_duhamel_bound(params, traj, chunk=250):
    """1/2 int_0^tau ||D rho(s)||_1 ds by the trapezoid rule, with the
    defect D rho = L' P rho - P L rho taken from the direct action of the
    master equation (liouvillian) and the trace norm from eigvalsh, row by
    row."""
    cutoff, derived = traj.fock_cutoff, derive(params)
    small, large = build_operators(params, cutoff), build_operators(params, cutoff + 2)
    rho = joint_states(traj)
    norms = np.empty(len(rho))
    for first in range(0, len(rho), chunk):
        part = rho[first:first + chunk]
        defect = (liouvillian(large, derived, embedded(part, cutoff + 1))
                  - embedded(liouvillian(small, derived, part), cutoff + 1))
        spectra = eigvalsh(0.5 * (defect + defect.conj().transpose(0, 2, 1)))
        norms[first:first + chunk] = np.abs(spectra).sum(axis=1)
    return 0.5 * np.trapezoid(norms, dx=params.tau / (len(rho) - 1))


@pytest.mark.parametrize("params, kind", [
    (BASE, "quiet"), (TILTED, "quiet"), (NOISY, "certified"), (NOISY_TILTED, "certified"),
    (GENERIC, "rerun"), (SWEEP_NOISY, "certified"), (SWEEP_NOISIER, "certified")],
    ids=["quiet", "tilted", "noisy", "noisy-tilted", "generic", "sweep-noisy", "sweep-noisier"])
def test_truncation_certificate_is_a_bound(params, kind):
    traj = evolve_master(params)
    bound = truncation_certificate(params, traj)
    # the entrywise l1 norm bounds the trace norm, row by row
    assert bound >= dense_duhamel_bound(params, traj)
    # hypot(x, y) <= |x| + |y| <= sqrt(2) hypot(x, y)
    reference = hypot_truncation(params, traj)
    assert reference * (1 - 1e-12) <= bound <= math.sqrt(2) * reference * (1 + 1e-12)
    # the two RK4 runs differ by round-off even where the truncation is
    # exact: 4.9e-17 on the tilted quiet point, whose bound is 0
    measured = rerun_distance(params, traj)
    assert bound >= measured - 1e-15
    if kind == "rerun":
        # GENERIC's bound, 8.8e-8, is loose: the point reruns
        assert bound > CERTIFIED_DISTANCE and traj.conv_dist == measured
    else:
        assert traj.conv_dist == bound <= CERTIFIED_DISTANCE
    if kind == "quiet":
        assert bound == 0.0


def test_uncertified_cutoff_reruns():
    # at cutoff 6 the noisy point's bound is 3.2e-7, above CERTIFIED_DISTANCE
    traj = evolve_master(NOISY, cutoff=6)
    assert truncation_certificate(NOISY, traj) > 100 * CERTIFIED_DISTANCE
    assert traj.conv_dist == rerun_distance(NOISY, traj) <= CONVERGENCE_DISTANCE
    # the rerun reuses the Liouvillian at cutoff 8 and adds the plan of its
    # block, which has no defect: a fourth plan after the two rate tables and
    # the block's
    linalg._plans.clear()
    evolve_master(NOISY, cutoff=6)
    assert len(linalg._plans) == 4
    blocks = [plan for plan in linalg._plans.values() if isinstance(plan, BlockPlan)]
    assert sorted(block.defect is None for block in blocks) == [False, True]


@pytest.mark.parametrize("params, cutoff, raises", [
    (NOISY, None, None), (NOISY, 6, None), (GENERIC, None, None),
    (UNSTABLE_RERUN, None, NoConvergence)],
    ids=["certified", "noisy-rerun", "generic-rerun", "unstable-rerun"])
def test_one_liouvillian_per_cutoff(params, cutoff, raises, monkeypatch):
    # L at the cutoff and L' at cutoff+2, each built once: the rerun reuses
    # L'; neither needs build_operators
    calls = []

    def counting(name):
        original = getattr(dynamics, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(dynamics, name, wrapper)

    counting("liouvillian_superoperator")
    counting("build_operators")
    if raises is None:
        evolve_master(params, cutoff)
    else:
        with pytest.raises(raises):
            evolve_master(params, cutoff)
    assert calls == ["liouvillian_superoperator"] * 2
