import cmath
import math

import numpy as np
import pytest

from cavityqsl.dynamics import (DEFAULT_STEPS, analytic_atom_state,
                                analytic_coeffs, analytic_trajectory,
                                evolve_master, initial_state, liouvillian,
                                liouvillian_superoperator, ode_oracle_coeffs)
from cavityqsl.errors import (CutoffNotConverged, PositivityViolated,
                              StepTooLarge, ValidationError, WrongInitialState)
from cavityqsl.model import DerivedParams, SystemParams, build_operators, derive

# a point from the constrained detuning sweep, quiet reservoir
BASE = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, delta_c=3.0302247091075975,
                    gamma=1e-3, kappa=1e-3, r_e=0.1, theta_e=math.pi)

# decay_diff^2 = 16 g_s^2 exactly, driving the splitting root to zero
DEGENERATE = SystemParams(g=0.01, delta_a=1.0, delta_c=1.0, gamma=0.05, kappa=0.01)


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
    with pytest.raises(StepTooLarge):
        ode_oracle_coeffs(BASE, 1.0, step=0.1)
    with pytest.raises(ValidationError):
        ode_oracle_coeffs(BASE, 1.0, step=0.0)


def test_closed_form_rejects_superposition_start():
    tilted = SystemParams(g=1.0, alpha=0.3)
    with pytest.raises(WrongInitialState):
        analytic_coeffs(tilted, 0.5)
    with pytest.raises(WrongInitialState):
        analytic_trajectory(tilted)
    with pytest.raises(WrongInitialState):
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
    assert traj.rho_full is None
    assert traj.rho_atom.shape == (401, 2, 2)
    state = analytic_atom_state(BASE, float(traj.times[57]))
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
    super_op = liouvillian_superoperator(ops, d)
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
    full = liouvillian_superoperator(ops, derive(p))
    d = derive(p)
    plain = liouvillian_superoperator(
        ops, DerivedParams(beta=d.beta, g_s=d.g_s, delta_s=d.delta_s,
                           n_s=0.0, m_s=0j))
    assert np.abs(full - plain).max() <= 1e-12


def test_master_trajectory_physicality():
    traj = evolve_master(BASE, steps=500)
    assert traj.fock_cutoff == 2
    assert traj.trace_err <= 1e-9
    assert traj.herm_err <= 1e-10
    assert traj.min_eigs.min() >= -1e-9
    assert traj.conv_dist <= 1e-8
    assert traj.rho_full.shape == (501, 6, 6)


def test_master_stays_in_single_excitation_sector():
    traj = evolve_master(BASE, steps=300)
    # top Fock level (two quanta) never populates with a quiet reservoir
    occupancy = np.abs(traj.rho_full[:, 2::3, 2::3]).max()
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
    with pytest.raises(PositivityViolated):
        evolve_master(SystemParams(g=1.0, delta_a=300.0), cutoff=2, steps=100)


def test_hot_reservoir_needs_headroom():
    hot = SystemParams(g=1.0, r_e=0.25, kappa=0.3, tau=2.0)
    with pytest.raises(CutoffNotConverged):
        evolve_master(hot, cutoff=1, steps=400)
    # the default heuristic picks a cutoff that does converge
    traj = evolve_master(hot, steps=400)
    assert traj.fock_cutoff == 10
    assert traj.conv_dist <= 1e-8
