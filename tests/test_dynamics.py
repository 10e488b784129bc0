import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqsl.dynamics import (DEFAULT_STEPS, POSITIVITY_FLOOR, _coalesce,
                                _complex_form, _group_blocks,
                                _oracle_trajectory, _reachable_block,
                                _real_form, _rk4_step_matrix,
                                _trace_map, analytic_coeffs,
                                analytic_trajectory, evolve_master,
                                initial_state, liouvillian_superoperator,
                                ode_oracle_coeffs)
from cavityqsl.errors import (CutoffNotConverged, NoConvergence, NumericalError,
                              PositivityViolated, ValidationError)
from cavityqsl.linalg import eigvalsh, gate_min_eig, partial_trace_cavity_stack
from cavityqsl.model import (DerivedParams, SystemParams, build_operators, derive,
                             matched_reservoir)
from cavityqsl.qsl import qsl_time

# a point from the constrained detuning sweep, quiet reservoir
BASE = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, delta_c=3.0302247091075975,
                    gamma=1e-3, kappa=1e-3, r_e=0.1, theta_e=math.pi)

# decay_diff^2 = 16 g_s^2 exactly, driving the splitting root to zero
DEGENERATE = SystemParams(g=0.01, delta_a=1.0, delta_c=1.0, gamma=0.05, kappa=0.01)

# a quiet point started in (|e> + |g>)/sqrt(2): its block is 9 of 36 entries
TILTED = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, delta_c=3.03, gamma=1e-3,
                      kappa=1e-3, r_e=0.1, theta_e=math.pi, alpha=math.pi / 4)

# unmatched reservoir (n_s = sinh(r_p)^2, m_s != 0): default cutoff 10
NOISY = SystemParams(g=1.0, r_p=0.2, delta_a=2.0, delta_c=3.0, r_e=0.0,
                     theta_p=0.0, gamma=1e-3, kappa=0.05)

# matched at a negative drive phase where theta_e = pi - theta_p left
# |m_s| = 1.9e-15 and an 18-entry quiet block
NEGATIVE_PHASE = matched_reservoir(dataclasses.replace(
    BASE, r_p=1.0942448414759975, theta_p=-4.943160628139503))


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


def dense_superoperator(ops, derived):
    """The dense L: the entries of liouvillian_superoperator scattered into zeros."""
    rows, cols, values = liouvillian_superoperator(ops, derived)
    size = ops.hamiltonian.shape[0] ** 2
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


def joint_states(traj):
    """The (n, 2F, 2F) joint density matrices of a master trajectory, F =
    fock_cutoff + 1: its states scattered into zeros at their support."""
    n = len(traj.times)
    dim = 2 * (traj.fock_cutoff + 1)
    full = np.zeros((n, dim * dim), dtype=complex)
    full[:, traj.support] = traj.states
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
    super_op = dense_superoperator(build_operators(params, cutoff), derive(params))
    fock_dim = cutoff + 1
    dim = 2 * fock_dim
    step_matrix = _rk4_step_matrix(super_op, params.tau / steps)
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


def test_min_steps_enforced():
    with pytest.raises(ValidationError):
        analytic_trajectory(BASE, steps=99)
    with pytest.raises(ValidationError):
        evolve_master(BASE, steps=99)


def test_analytic_trajectory_structure():
    traj = analytic_trajectory(BASE, steps=400)
    assert traj.times.shape == (401,)
    assert traj.times[0] == 0.0 and traj.times[-1] == BASE.tau
    assert traj.states is None and traj.support is None
    assert traj.rho_atom.shape == (401, 2, 2)
    c = analytic_coeffs(BASE, float(traj.times[57]))
    state = np.diag([abs(c.excited_amp) ** 2, abs(c.photon_amp) ** 2])
    assert np.abs(traj.rho_atom[57] - state).max() <= 1e-12
    # trace deficit equals the decayed population, bounded by the decay rates
    assert 0.0 < traj.trace_err <= (BASE.gamma + BASE.kappa) * BASE.tau


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
    super_op = dense_superoperator(ops, d)
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
    ops = build_operators(p, cutoff=3)
    full = dense_superoperator(ops, derive(p))
    d = derive(p)
    plain = dense_superoperator(
        ops, DerivedParams(beta=d.beta, g_s=d.g_s, delta_s=d.delta_s,
                           n_s=0.0, m_s=0j))
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
    full = dense_superoperator(build_operators(params, cutoff), derive(params))
    block = _reachable_block(params, cutoff)
    idx = block[2]
    assert idx.size == size
    outside = np.setdiff1d(np.arange(full.shape[0]), idx)
    assert (full[np.ix_(outside, idx)] == 0).all()
    vec = initial_state(params, cutoff + 1).reshape(-1)
    assert np.isin(np.flatnonzero(vec), idx).all()
    assert (vec[outside] == 0).all()
    # bit for bit the block taken from the dense L
    want = dense_reachable_block(full, vec, 2 * (cutoff + 1))
    assert block[3] == want[3]
    for got, ref in zip(block[:3], want[:3]):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_reachable_block_peak_memory():
    # the dense L alone is 7.0 MiB at cutoff 12, the 338 x 338 block 1.7 MiB
    _reachable_block(NOISY, 12)
    tracemalloc.start()
    try:
        _reachable_block(NOISY, 12)
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
    _, _, idx, diagonal = _reachable_block(params, cutoff)
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
    generator, start, idx, diagonal = _reachable_block(params, cutoff)
    dim = 2 * (cutoff + 1)
    real_generator, real_start = _real_form(generator, start, diagonal)
    assert real_generator.dtype == real_start.dtype == np.float64
    assert real_generator.shape == generator.shape
    assert np.array_equal(_complex_form(real_start, diagonal), start)
    # on a random Hermitian state of the support, G r is the real form of L vec
    rng = np.random.default_rng(cutoff)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vec = (m + m.conj().T).reshape(-1)[idx]
    end = (idx.size + diagonal) // 2
    real = np.concatenate((vec[:end].real, vec[diagonal:end].imag))
    assert np.array_equal(_complex_form(real, diagonal), vec)
    want = generator @ vec
    got = _complex_form(real_generator @ real, diagonal)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_support_not_closed_under_transposition_raises(monkeypatch):
    # a lone coherence |e,0><g,0| is not Hermitian: its closure misses the transposes
    def coherence(params, fock_dim):
        rho = np.zeros((2 * fock_dim, 2 * fock_dim), dtype=complex)
        rho[0, fock_dim] = 1.0
        return rho

    monkeypatch.setattr("cavityqsl.dynamics.initial_state", coherence)
    with pytest.raises(NumericalError, match="transposition"):
        _reachable_block(BASE, 2)


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


def test_trace_map_is_the_partial_trace():
    rng = np.random.default_rng(3)
    fock_dim = 4
    dim = 2 * fock_dim
    stack = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
    trace_map = _trace_map(np.arange(dim * dim), fock_dim)
    via_map = (stack.reshape(5, -1) @ trace_map.T).reshape(5, 2, 2)
    direct = partial_trace_cavity_stack(stack, 2, fock_dim)
    assert np.abs(via_map - direct).max() <= 1e-13
    # on a subset of entries the map reads only those entries
    idx = np.sort(rng.choice(dim * dim, size=20, replace=False))
    masked = np.zeros((5, dim * dim), dtype=complex)
    masked[:, idx] = stack.reshape(5, -1)[:, idx]
    via_block = (stack.reshape(5, -1)[:, idx] @ _trace_map(idx, fock_dim).T).reshape(5, 2, 2)
    direct = partial_trace_cavity_stack(masked.reshape(5, dim, dim), 2, fock_dim)
    assert np.abs(via_block - direct).max() <= 1e-13


@pytest.mark.parametrize("params", [BASE, DEGENERATE, SystemParams(g=2.5, delta_a=-9.0,
                                                                   delta_c=7.0, gamma=0.1)])
def test_oracle_matches_sequential_rk4(params):
    t, n = 1.0, 40000
    _, amps = _oracle_trajectory(params, t, t / n)
    # same step map; only the order of round-off differs (about n * eps each)
    assert np.abs(amps - sequential_rk4_oracle(params, t, n)).max() <= 1e-10


@pytest.mark.parametrize("params, cutoff", [(BASE, 2), (TILTED, 2), (NOISY, 10)],
                         ids=["quiet", "tilted", "noisy"])
@pytest.mark.parametrize("extra", [0, 2])
def test_superoperator_matches_dense_kron(params, cutoff, extra):
    ops = build_operators(params, cutoff + extra)
    d = derive(params)
    assert np.array_equal(dense_superoperator(ops, d), dense_kron_superoperator(ops, d))


@pytest.mark.parametrize("params, cutoff", [(BASE, 2), (TILTED, 4), (NOISY, 10), (NOISY, 12)],
                         ids=["quiet", "tilted", "noisy", "noisy-refined"])
def test_superoperator_entries_are_row_major_and_nonzero(params, cutoff):
    ops = build_operators(params, cutoff)
    rows, cols, values = liouvillian_superoperator(ops, derive(params))
    size = ops.hamiltonian.shape[0] ** 2
    assert rows.shape == cols.shape == values.shape and values.dtype == complex
    assert (np.diff(rows * size + cols) > 0).all()
    assert (values != 0).all()
    assert rows.min() >= 0 and cols.min() >= 0 and max(rows.max(), cols.max()) < size


def test_coalesce_sums_in_listed_order_and_drops_zeros():
    keys = np.array([7, 3, 7, 7, 3, 1])
    values = np.array([1.0, 2.0, 1e16, -1e16, -2.0, 5j])
    got_keys, sums = _coalesce(keys, values)
    # key 7 sums (0 + 1) + 1e16 - 1e16 = 0 and key 3 sums to 0: both dropped
    assert np.array_equal(got_keys, [1]) and np.array_equal(sums, [5j])
    # listed the other way round, key 7 sums (0 - 1e16) + 1e16 + 1 = 1
    got_keys, sums = _coalesce(keys, np.array([-1e16, 2.0, 1e16, 1.0, -2.0, 5j]))
    assert np.array_equal(got_keys, [1, 7]) and np.array_equal(sums, [5j, 1.0])


@pytest.mark.parametrize("params", [BASE, TILTED, NOISY], ids=["quiet", "tilted", "noisy"])
def test_block_gates_match_padded_stack(params):
    traj = evolve_master(params)
    traces, min_eigs, herm_err = padded_gates(joint_states(traj))
    assert np.array_equal(traj.traces, traces)
    assert herm_err == 0.0
    assert np.abs(traj.min_eigs - min_eigs).max() <= 1e-15


@pytest.mark.parametrize("params, sizes", [(BASE, [2, 1]), (TILTED, [3]), (NOISY, [11, 11])],
                         ids=["quiet", "tilted", "noisy"])
def test_group_blocks_are_blocks_of_the_padded_stack(params, sizes):
    traj = evolve_master(params)
    dim = 2 * (traj.fock_cutoff + 1)
    rho = joint_states(traj)
    blocks = _group_blocks(traj.states, traj.support, dim, lambda block: block)
    assert [group.size for group, _ in blocks] == sizes
    for group, block in blocks:
        assert np.array_equal(block, rho[:, group[:, None], group])
    # every state off the groups has a zero row and column
    off = np.setdiff1d(np.arange(dim), np.concatenate([g for g, _ in blocks]))
    assert not rho[:, off].any() and not rho[:, :, off].any()


@pytest.mark.parametrize("params, limit_mib", [(BASE, 1.0), (NOISY, 25.0)],
                         ids=["quiet", "noisy"])
def test_master_point_peak_memory(params, limit_mib):
    # a (steps+1, 2F, 2F) zero-padded stack alone is 1.1 MiB quiet, 15 MiB noisy
    evolve_master(params)
    tracemalloc.start()
    try:
        evolve_master(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < limit_mib


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
def test_non_finite_states_are_no_convergence(params, value, entry):
    traj = evolve_master(params, steps=200)
    dim = 2 * (traj.fock_cutoff + 1)
    idx, states = traj.support, traj.states.copy()
    rows, cols = np.divmod(idx, dim)
    diagonal = np.count_nonzero(rows == cols)
    if entry == "diagonal":
        states[150, diagonal - 1] = value
    else:
        # an upper entry and its conjugate partner, as a Hermitian state has them
        end = (idx.size + diagonal) // 2
        states[150, [diagonal, end]] = value
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergence, match="did not converge"):
        _group_blocks(states, idx, dim, lambda block: gate_min_eig(block, POSITIVITY_FLOOR))


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
    assert calls == [(DEFAULT_STEPS + 1, 11, 11)] * 2
    # computed once, then cached
    assert traj.min_eigs is first
    assert len(calls) == 2
