import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqsl.errors import ValidationError
from cavityqsl.model import (MAX_R_E, NOISY_CUTOFF, QUIET_CUTOFF, SystemParams,
                             annihilation, beta_of, bosonic_quadratic_spectrum,
                             build_operators, default_cutoff, derive,
                             matched_reservoir, squeeze_params)


def test_params_defaults_are_valid():
    p = SystemParams()
    assert p.g == 1.0 and p.tau == 1.0 and p.alpha == 0.0


@pytest.mark.parametrize("field,value", [
    ("g", 0.0), ("g", -1.0), ("tau", 0.0), ("gamma", -1e-9),
    ("kappa", -0.5), ("r_p", -0.1), ("r_e", -0.1),
    ("delta_a", float("nan")), ("delta_c", float("inf")),
])
def test_params_validation(field, value):
    with pytest.raises(ValidationError):
        SystemParams(**{field: value})


def test_params_reject_squeezing_past_float_range():
    # the largest r_p below threshold in float arithmetic
    top = 9.5307
    assert beta_of(top) < 1.0 and beta_of(top + 1e-3) == 1.0
    with pytest.raises(ValidationError, match="r_p must be below threshold"):
        SystemParams(r_p=top + 1e-3)
    with pytest.raises(ValidationError, match="r_e must be <="):
        SystemParams(r_e=MAX_R_E + 1.0)
    # at both limits every term derive forms is finite, whatever the phases
    for theta_e in (0.0, 1.0, math.pi):
        d = derive(SystemParams(r_p=top, r_e=MAX_R_E, theta_e=theta_e, theta_p=0.3))
        assert all(math.isfinite(x) for x in (d.n_s, d.m_s.real, d.m_s.imag, d.g_s))


def test_beta_literal():
    # tanh(0.2) written out through exponentials
    e = math.exp(0.4)
    assert beta_of(0.1) == pytest.approx((e - 1.0) / (e + 1.0), abs=1e-15)
    assert beta_of(0.0) == 0.0


def test_squeeze_params_round_trip():
    for ratio in (0.1, -0.55, 0.99):
        r_p = squeeze_params(ratio * 2.0, 2.0)
        assert math.tanh(2.0 * r_p) == pytest.approx(ratio, abs=1e-12)


@pytest.mark.parametrize("omega,delta", [(2.0, 2.0), (3.0, 2.0), (1.0, 0.0)])
def test_squeeze_params_threshold(omega, delta):
    with pytest.raises(ValidationError, match=r"must be < \|delta_c\|"):
        squeeze_params(omega, delta)


def test_derive_enhanced_coupling_and_detuning():
    d = derive(SystemParams(g=2.0, r_p=0.3, delta_c=5.0))
    assert d.g_s == pytest.approx(2.0 * math.cosh(0.3), abs=1e-14)
    beta = math.tanh(0.6)
    assert d.beta == pytest.approx(beta, abs=1e-15)
    assert d.delta_s == pytest.approx(5.0 * math.sqrt(1.0 - beta**2), abs=1e-13)


def test_derive_noise_against_unsqueezed_reservoir():
    # r_e = 0: occupation sinh^2(r_p), correlation -exp(-i theta_p) sinh(2 r_p)/2
    theta_p = 0.7
    d = derive(SystemParams(r_p=0.1, theta_p=theta_p))
    assert d.n_s == pytest.approx(math.sinh(0.1) ** 2, abs=1e-15)
    expected_m = -0.5 * math.sinh(0.2) * complex(math.cos(theta_p), -math.sin(theta_p))
    assert d.m_s == pytest.approx(expected_m, abs=1e-15)


def test_derive_noise_no_drive_squeezing():
    # r_p = 0: plain squeezed reservoir, n_s = sinh^2(r_e), |m_s| = sinh(2 r_e)/2
    d = derive(SystemParams(r_e=0.4, theta_e=1.1))
    assert d.n_s == pytest.approx(math.sinh(0.4) ** 2, abs=1e-15)
    assert abs(d.m_s) == pytest.approx(0.5 * math.sinh(0.8), abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.5),
       st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi, exclude_max=True))
def test_matched_reservoir_cancels_noise(r_p, theta_p):
    # exact zeros, not round-off: the quiet reachable block depends on them
    d = derive(matched_reservoir(SystemParams(r_p=r_p, theta_p=theta_p)))
    assert d.n_s == 0.0
    assert d.m_s == 0j


def direct_noise(p):
    """n_s and m_s as the direct hyperbolic sums, before the mismatch form."""
    phase_sum = p.theta_e + p.theta_p
    n_s = (math.sinh(p.r_e) ** 2 * math.cosh(2.0 * p.r_p)
           + math.sinh(p.r_p) ** 2
           + 0.5 * math.sinh(2.0 * p.r_p) * math.sinh(2.0 * p.r_e) * math.cos(phase_sum))
    m_s = -np.exp(-1j * p.theta_p) * (
        0.5 * math.sinh(2.0 * p.r_p) * math.cosh(2.0 * p.r_e)
        + 0.5 * math.sinh(2.0 * p.r_e)
        * (np.exp(1j * phase_sum) * math.cosh(p.r_p) ** 2
           + np.exp(-1j * phase_sum) * math.sinh(p.r_p) ** 2))
    return n_s, complex(m_s)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.5), st.floats(min_value=0.0, max_value=1.5),
       st.floats(min_value=0.0, max_value=2.0 * math.pi),
       st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_derive_noise_matches_direct_sums(r_p, r_e, theta_p, theta_e):
    p = SystemParams(r_p=r_p, r_e=r_e, theta_p=theta_p, theta_e=theta_e)
    d = derive(p)
    n_s, m_s = direct_noise(p)
    # relative to the size of the terms the direct sums cancel
    scale = math.cosh(2.0 * r_e) * math.cosh(2.0 * r_p)
    assert abs(d.n_s - n_s) <= 1e-12 * scale
    assert abs(d.m_s - m_s) <= 1e-12 * scale


def test_default_cutoff_quiet_vs_noisy():
    assert default_cutoff(derive(matched_reservoir(SystemParams(r_p=0.8)))) == QUIET_CUTOFF
    assert default_cutoff(derive(SystemParams(r_p=0.8))) == NOISY_CUTOFF


def test_annihilation_matrix():
    a = annihilation(3)
    expected = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
    assert np.abs(a - expected).max() == 0.0


def test_hamiltonian_single_excitation_block():
    p = SystemParams(g=1.3, r_p=0.25, delta_a=2.0, delta_c=3.0)
    d = derive(p)
    ops = build_operators(p, cutoff=4)
    h = ops.hamiltonian
    fock = 5
    idx_e0, idx_g1 = 0, fock + 1
    block = h[np.ix_([idx_e0, idx_g1], [idx_e0, idx_g1])]
    expected = np.array([[p.delta_a, d.g_s], [d.g_s, d.delta_s]])
    assert np.abs(block - expected).max() <= 1e-14
    # |g,0> is annihilated by H
    assert np.abs(h[:, fock]).max() == 0.0
    assert np.abs(h - h.conj().T).max() == 0.0


def test_hamiltonian_conserves_excitation_number():
    p = SystemParams(g=0.7, r_p=0.5, delta_a=-1.0, delta_c=2.5)
    ops = build_operators(p, cutoff=5)
    fock = 6
    n_cav = np.diag(np.arange(fock, dtype=complex))
    p_e = np.diag([1.0, 0.0]).astype(complex)
    n_exc = np.kron(p_e, np.eye(fock)) + np.kron(np.eye(2), n_cav)
    comm = ops.hamiltonian @ n_exc - n_exc @ ops.hamiltonian
    assert np.abs(comm).max() <= 1e-13


def test_lindblad_operators():
    p = SystemParams(gamma=0.04, kappa=0.09)
    ops = build_operators(p, cutoff=2)
    # atom jump moves |e,n> to |g,n> with weight sqrt(gamma)
    assert ops.lindblad_atom[3, 0] == pytest.approx(math.sqrt(0.04))
    assert np.count_nonzero(ops.lindblad_atom) == 3
    # cavity jump moves |x,1> to |x,0> with weight sqrt(kappa)
    assert ops.lindblad_cavity[0, 1] == pytest.approx(math.sqrt(0.09))
    assert ops.lindblad_cavity[4, 5] == pytest.approx(math.sqrt(0.09) * math.sqrt(2))


def test_build_operators_rejects_bad_cutoff():
    with pytest.raises(ValidationError):
        build_operators(SystemParams(), cutoff=0)


def test_quadratic_spectrum_is_harmonic():
    # below threshold the exact levels are E_n = n*delta_s + (delta_s-delta_c)/2
    delta_c, r_p = 2.0, 0.3
    beta = beta_of(r_p)
    omega_p = beta * delta_c
    delta_s = delta_c * math.sqrt(1.0 - beta**2)
    levels = bosonic_quadratic_spectrum(delta_c, omega_p, cutoff=60)
    gaps = np.diff(levels)[:5]
    assert np.abs(gaps - delta_s).max() <= 1e-9 * delta_s
    assert levels[0] == pytest.approx(0.5 * (delta_s - delta_c), abs=1e-9)


def test_quadratic_spectrum_above_threshold():
    with pytest.raises(ValidationError, match=r"must be < \|delta_c\|"):
        bosonic_quadratic_spectrum(1.0, 1.0, cutoff=20)
