import math
from dataclasses import replace

import numpy as np
import pytest

from cavityqsl.dynamics import Trajectory, analytic_trajectory, evolve_master
from cavityqsl.errors import NotPure, NumericalError, ValidationError
from cavityqsl.linalg import eigvalsh, norms_of_hermitian_stack
from cavityqsl.model import SystemParams, derive
from cavityqsl.qsl import FROZEN_RATE, lambda_averages, qsl_time

BASE = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, delta_c=3.0302247091075975,
                    gamma=1e-3, kappa=1e-3, r_e=0.1, theta_e=math.pi)

P_EXCITED = np.diag([1.0, 0.0]).astype(complex)
P_GROUND = np.diag([0.0, 1.0]).astype(complex)


def synthetic(rho_atom, rho_atom_dot, tau=1.0):
    # the real and imaginary parts of the row-major states, then of the rates
    n = len(rho_atom)
    reduced = np.hstack([np.asarray(stack, dtype=complex).reshape(n, 4).view(float)
                         for stack in (rho_atom, rho_atom_dot)])
    return Trajectory(times=np.linspace(0.0, tau, n), reduced=reduced,
                      fock_cutoff=1, traces=np.ones(n), conv_dist=0.0)


def endpoint_result(start, end, n=5):
    """qsl_time of a synthetic trajectory from start to end at a constant
    rate diag(1, -1), so that no case is frozen by its rates."""
    d = np.diag([1.0, -1.0]).astype(complex)
    return qsl_time(synthetic([start] * (n - 1) + [end], [d] * n))


def test_bures_angle_trivial_cases():
    still = endpoint_result(P_EXCITED, P_EXCITED)
    assert still.bures == 0.0 and still.frozen
    assert endpoint_result(P_EXCITED, P_GROUND).bures == pytest.approx(math.pi / 2, abs=1e-12)
    half = 0.5 * np.eye(2, dtype=complex)
    assert endpoint_result(P_EXCITED, half).bures == pytest.approx(math.pi / 4, abs=1e-12)


@pytest.mark.parametrize("theta", [0.1, 0.7, 1.3, math.pi / 2])
def test_bures_angle_equals_state_angle(theta):
    # overlap of |e> with cos(t)|e> + sin(t)|g> is cos^2(t), so the angle is t
    psi = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    out = endpoint_result(P_EXCITED, np.outer(psi, psi.conj()))
    assert out.bures == pytest.approx(theta, abs=1e-12)


def test_bures_angle_requires_pure_reference():
    with pytest.raises(NotPure):
        endpoint_result(0.5 * np.eye(2, dtype=complex), P_EXCITED)


def test_bures_angle_overshoot_guard():
    slightly_over = endpoint_result(P_EXCITED, (1.0 + 5e-10) * P_EXCITED)
    assert slightly_over.bures == 0.0 and slightly_over.frozen
    with pytest.raises(NumericalError):
        endpoint_result(P_EXCITED, (1.0 + 5e-9) * P_EXCITED)
    with pytest.raises(NumericalError):
        endpoint_result(P_EXCITED, -5e-9 * P_EXCITED + P_GROUND * 0.0)


# the point of tests/test_sweep_cli.py's GROUND_DRIFT: a |g> start whose
# 1 - tr(rho_0 rho_t) (9.7e-14) is RK4 trace drift, while the population
# that moved to |e> is 1.3e-18
GROUND_DRIFT = SystemParams(g=0.02, r_p=0.0127, delta_a=-0.2032, delta_c=-0.3811,
                            gamma=0.6396, kappa=0.0119, tau=0.0017, alpha=math.pi / 2)


def test_infidelity_is_the_engine_rule():
    # master: the adjugate form reads the population that moved, not drift
    drift = evolve_master(GROUND_DRIFT)
    moved = drift.reduced[-1, 0]
    assert 0.5 * moved <= drift.infidelity <= 2.0 * moved
    assert drift.infidelity <= 1e-3 * drift.trace_err
    # analytic: the trace loss is physical, so 1 - rho_ee, bit for bit
    closed = analytic_trajectory(BASE)
    assert closed.infidelity == 1.0 - closed.reduced[-1, 0]
    # master: pure trace drift of the end state leaves 1 - F unchanged
    tilted = evolve_master(TILTED)
    reduced = tilted.reduced.copy()
    reduced[-1, :8] *= 1.0 + 1e-12
    drifted = replace(tilted, reduced=reduced)
    assert drifted.infidelity == pytest.approx(tilted.infidelity, rel=4e-16)
    # while 1 - tr(rho_0 rho_t) would read the drift
    plain = replace(drifted, coords=None, block=None)
    assert abs(plain.infidelity - replace(tilted, coords=None, block=None).infidelity) >= 1e-13


def test_lambda_averages_constant_derivative():
    n = 11
    d = np.diag([1.0, -1.0]).astype(complex)
    traj = synthetic([P_EXCITED] * n, [d] * n)
    op, tr, hs = lambda_averages(traj)
    assert op == pytest.approx(1.0, abs=1e-14)
    assert tr == pytest.approx(2.0, abs=1e-14)
    assert hs == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_lambda_averages_linear_derivative():
    # |rho_dot(t)| grows linearly, trapezoid integrates it exactly
    times = np.linspace(0.0, 1.0, 21)
    dots = [t * np.diag([1.0, -1.0]).astype(complex) for t in times]
    traj = synthetic([P_EXCITED] * 21, dots)
    op, tr, hs = lambda_averages(traj)
    assert op == pytest.approx(0.5, abs=1e-14)
    assert tr == pytest.approx(1.0, abs=1e-14)
    assert hs == pytest.approx(0.5 * math.sqrt(2.0), abs=1e-14)


def test_qsl_time_hand_computed():
    # angle pi/4 and rates (1, 2, sqrt(2)) give times (1/2, 1/4, 1/(2 sqrt 2))
    out = endpoint_result(P_EXCITED, 0.5 * np.eye(2, dtype=complex))
    assert out.bures == pytest.approx(math.pi / 4, abs=1e-12)
    assert out.t_op == pytest.approx(0.5, abs=1e-12)
    assert out.t_tr == pytest.approx(0.25, abs=1e-12)
    assert out.t_hs == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-12)
    assert out.t_qsl == out.t_op
    assert not out.frozen


def test_qsl_time_frozen_flow():
    n = 6
    zero = np.zeros((2, 2), dtype=complex)
    out = qsl_time(synthetic([P_EXCITED] * n, [zero] * n))
    assert out.frozen
    assert out.t_qsl == 0.0 and out.t_op == 0.0
    assert out.lambda_tr <= FROZEN_RATE


def test_zero_angle_is_frozen_above_the_round_off_rate():
    # the state ends where it started, but its rate average (2e-15 in the
    # trace norm) sits above FROZEN_RATE, as at an alpha = pi/2 start
    n = 6
    noise = np.diag([1e-15, -1e-15]).astype(complex)
    out = qsl_time(synthetic([P_EXCITED] * n, [noise] * n))
    assert out.bures == 0.0
    assert out.lambda_tr == pytest.approx(2e-15, rel=1e-12) and out.lambda_tr > FROZEN_RATE
    assert out.frozen
    assert (out.t_op, out.t_tr, out.t_hs, out.t_qsl) == (0.0, 0.0, 0.0, 0.0)


def test_trajectory_needs_two_points():
    with pytest.raises(ValidationError, match="need >= 2 grid points"):
        synthetic([P_EXCITED], [np.zeros((2, 2), dtype=complex)])


@pytest.mark.parametrize("field, value", [
    ("reduced", np.zeros((5, 8))), ("reduced", np.zeros((4, 16))),
    ("reduced", np.zeros((5, 16), dtype=np.float32)),
    ("reduced", np.zeros((5, 16), dtype=complex)), ("reduced", np.zeros((5, 16)).tolist()),
    ("reduced", np.zeros((16, 5)).T), ("traces", np.ones(3)), ("traces", [1.0] * 5)],
    ids=["states_only", "short", "float32", "complex", "list", "transposed",
         "traces_short", "traces_list"])
def test_trajectory_needs_a_real_16_column_reduced_array(field, value):
    # any other width, length, dtype or row stride would leave the complex
    # views empty, misaligned or impossible; a short or listed traces would
    # fail only later, in the trajectory CSV or in trace_err
    fields = {"reduced": np.zeros((5, 16)), "traces": np.ones(5), field: value}
    message = (r"reduced must be a real float64 array of shape \(5, 16\)"
               if field == "reduced" else r"traces must be a float64 array of shape \(5,\)")
    with pytest.raises(ValidationError, match=message):
        Trajectory(times=np.linspace(0.0, 1.0, 5), fock_cutoff=1, conv_dist=0.0, **fields)


# alpha = pi/4 starts in a superposition; r_e = 0 leaves an unmatched, noisy reservoir
TILTED = replace(BASE, alpha=math.pi / 4)
NOISY = replace(BASE, r_e=0.0, kappa=0.05)


@pytest.mark.parametrize("params", [BASE, TILTED, NOISY], ids=["quiet", "tilted", "noisy"])
def test_master_rates_have_diagonal_ratios(params):
    # L preserves trace, so every rho_atom_dot is traceless with eigenvalues
    # +w, -w, forcing lambda_tr = 2 lambda_op and lambda_hs = sqrt(2) lambda_op
    op, tr, hs = lambda_averages(evolve_master(params, steps=500))
    assert tr == pytest.approx(2.0 * op, rel=1e-12)
    assert hs == pytest.approx(math.sqrt(2.0) * op, rel=1e-12)


def test_lambda_quadrature_converges_under_halving():
    resonant = SystemParams(g=1.0, r_p=0.1, delta_a=derive(BASE).delta_s,
                            delta_c=BASE.delta_c, gamma=1e-3, kappa=1e-3,
                            r_e=0.1, theta_e=math.pi)
    coarse = lambda_averages(evolve_master(resonant, steps=1000))
    fine = lambda_averages(evolve_master(resonant, steps=2000))
    for a, b in zip(coarse, fine):
        assert a == pytest.approx(b, rel=1e-6)


def test_resonant_point_sits_on_plateau():
    resonant = SystemParams(g=1.0, r_p=0.1, delta_a=derive(BASE).delta_s,
                            delta_c=BASE.delta_c, gamma=1e-3, kappa=1e-3,
                            r_e=0.1, theta_e=math.pi)
    out = qsl_time(evolve_master(resonant))
    assert out.t_qsl >= 0.9 * resonant.tau
    assert out.t_qsl <= resonant.tau + 1e-6
    assert out.t_op >= out.t_hs >= out.t_tr


def test_far_detuned_point_sits_in_dip():
    detuned = SystemParams(g=1.0, r_p=0.1, delta_a=3.0 * derive(BASE).delta_s,
                           delta_c=BASE.delta_c, gamma=1e-3, kappa=1e-3,
                           r_e=0.1, theta_e=math.pi)
    out = qsl_time(evolve_master(detuned))
    assert out.t_qsl <= 0.1 * detuned.tau


def test_engines_agree_on_speed_limit():
    for delta_a in (-4.0, 0.0, 2.0, 6.0):
        p = SystemParams(g=1.0, r_p=0.1, delta_a=delta_a,
                         delta_c=BASE.delta_c, gamma=1e-3, kappa=1e-3,
                         r_e=0.1, theta_e=math.pi)
        a = qsl_time(analytic_trajectory(p))
        m = qsl_time(evolve_master(p))
        if m.t_op >= 0.1 * p.tau:
            assert a.t_op == pytest.approx(m.t_op, rel=2e-2)
        else:
            assert a.t_op == pytest.approx(m.t_op, abs=2e-2 * p.tau)


def test_ground_heavy_start_is_frozen():
    p = SystemParams(g=1.0, r_p=0.1, delta_a=2.0, delta_c=BASE.delta_c,
                     gamma=1e-3, kappa=1e-3, r_e=0.1, theta_e=math.pi,
                     alpha=math.pi / 2)
    out = qsl_time(evolve_master(p))
    assert out.frozen
    assert out.bures <= 1e-6
    assert out.t_qsl <= 1e-6 * p.tau


def symmetrized_norms(stack):
    """The norms as they were taken before the input had to be Hermitian:
    over the Hermitian part 0.5 (m + m^H) of each slice."""
    sym = 0.5 * (stack + stack.conj().transpose(0, 2, 1))
    w = np.ascontiguousarray(eigvalsh(sym).T)
    aw = np.abs(w)
    return aw.max(axis=0), aw.sum(axis=0), np.sqrt((w * w).sum(axis=0))


NOISY = SystemParams(g=1.0, r_p=0.2, delta_a=2.0, delta_c=3.0, r_e=0.0,
                     theta_p=0.0, gamma=1e-3, kappa=0.05)


@pytest.mark.parametrize("engine, params", [
    (analytic_trajectory, BASE), (evolve_master, BASE),
    (evolve_master, replace(BASE, alpha=math.pi / 4)), (evolve_master, NOISY),
    (evolve_master, replace(NOISY, alpha=0.3))],
    ids=["analytic", "quiet", "tilted", "noisy", "noisy-tilted"])
def test_rate_norms_need_no_symmetrizing(engine, params):
    # each engine's rho_atom_dot is exactly Hermitian, so its norms are
    # those of its Hermitian part, bit for bit
    rates = engine(params).rho_atom_dot
    got = norms_of_hermitian_stack(rates)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, symmetrized_norms(rates)))


@pytest.mark.parametrize("engine", [analytic_trajectory, evolve_master])
def test_lambda_averages_are_per_series_trapezoids(engine):
    # the time steps taken once change no bit of the three averages
    traj = engine(BASE)
    series = norms_of_hermitian_stack(traj.rho_atom_dot)
    span = float(traj.times[-1] - traj.times[0])
    want = [float(np.trapezoid(s, traj.times) / span) for s in series]
    assert lambda_averages(traj) == tuple(want)
