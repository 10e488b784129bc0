"""Squeezed-picture model construction.

A two-level atom sits in a cavity whose mode is squeezed by a detuned
parametric drive. In the squeezed frame the system becomes a
Jaynes-Cummings model with enhanced coupling g_s = g*cosh(r_p) and
rescaled cavity detuning delta_s = delta_c*sqrt(1-beta^2), dissipating
into an effective reservoir whose occupation n_s and two-photon
correlation m_s vanish when the external reservoir squeezing matches
the drive (r_e = r_p, theta_e + theta_p = pi).

Units: hbar = 1, all rates in units of the bare coupling g, time in
units of 1/g.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace

import numpy as np
from numpy import kron

from .errors import ValidationError
from .linalg import dagger, eigvalsh

# Fock cutoff heuristics: with a quiet effective reservoir the dynamics stays
# in the <=1 excitation sector, so cutoff 2 keeps one spare level to detect
# leakage; a hot reservoir needs headroom.
QUIET_CUTOFF = 2
NOISY_CUTOFF = 10
NOISE_FLOOR = 1e-12

# derive's largest term, sinh(2 r_e) cosh(2 r_p), is below exp(2 (r_e + r_p)); with
# r_p below threshold (tanh(2 r_p) < 1 needs r_p < 9.54) it stays finite up to here.
MAX_R_E = 340.0


@dataclass(frozen=True)
class SystemParams:
    """Physical inputs. Rates in units of g, angles in radians, time in 1/g."""

    g: float = 1.0          # atom-cavity coupling, > 0
    r_p: float = 0.0        # drive squeezing parameter, >= 0
    delta_a: float = 0.0    # atom detuning
    delta_c: float = 0.0    # cavity detuning
    theta_p: float = 0.0    # drive phase
    gamma: float = 0.0      # atomic spontaneous emission rate, >= 0
    kappa: float = 0.0      # cavity decay rate, >= 0
    r_e: float = 0.0        # reservoir squeezing, >= 0
    theta_e: float = math.pi  # reservoir phase
    tau: float = 1.0        # driving time, > 0
    alpha: float = 0.0      # initial state angle: cos(a)|e,0> + sin(a)|g,0>

    def __post_init__(self) -> None:
        # the field names in order; dataclasses.fields would build a tuple per call
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.g <= 0:
            raise ValidationError(f"g must be > 0, got {self.g}")
        if self.tau <= 0:
            raise ValidationError(f"tau must be > 0, got {self.tau}")
        for name in ("gamma", "kappa", "r_p", "r_e"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if beta_of(self.r_p) == 1.0:
            raise ValidationError(
                f"r_p must be below threshold: tanh(2 r_p) rounds to 1 at r_p = {self.r_p}")
        if self.r_e > MAX_R_E:
            raise ValidationError(f"r_e must be <= {MAX_R_E}, got {self.r_e}")


@dataclass(frozen=True)
class DerivedParams:
    """Squeezed-picture quantities computed from SystemParams."""

    beta: float     # drive amplitude over cavity detuning, tanh(2 r_p)
    g_s: float      # enhanced coupling g*cosh(r_p)
    delta_s: float  # squeezed-picture cavity detuning
    n_s: float      # effective reservoir occupation
    m_s: complex    # effective two-photon correlation


@dataclass(frozen=True)
class ModelOperators:
    """Concrete matrices on the truncated atom (x) Fock basis."""

    hamiltonian: np.ndarray
    lindblad_atom: np.ndarray    # sqrt(gamma) * lowering (x) identity
    lindblad_cavity: np.ndarray  # sqrt(kappa) * identity (x) annihilation


def squeeze_params(omega_p_amplitude: float, delta_c: float) -> float:
    """Squeezing parameter r_p from the drive amplitude and cavity detuning.

    r_p = arctanh(omega_p/delta_c) / 2. The transform only exists below
    threshold, |omega_p| < |delta_c|.
    """
    if delta_c == 0.0 or abs(omega_p_amplitude) >= abs(delta_c):
        raise ValidationError(
            f"|omega_p| = {abs(omega_p_amplitude)} must be < |delta_c| = {abs(delta_c)}")
    return 0.5 * math.atanh(omega_p_amplitude / delta_c)


def beta_of(r_p: float) -> float:
    """Inverse of squeeze_params: beta = tanh(2 r_p)."""
    return math.tanh(2.0 * r_p)


def derive(params: SystemParams) -> DerivedParams:
    """Evaluate the squeezed-picture parameters, including reservoir noise.

    n_s and m_s follow the exact hyperbolic expressions for a squeezed
    reservoir seen through the drive transform, written in the mismatches
    dr = r_e - r_p and psi = (theta_e + theta_p) - pi:
    n_s = sinh^2(dr) + sinh(2 r_e) sinh(2 r_p) sin^2(psi/2) and
    m_s = e^{-i theta_p} [sinh(2 dr) - 2 sinh(2 r_e) cosh(2 r_p) sin^2(psi/2)
    + i sinh(2 r_e) sin(psi)] / 2. Every term carries a factor that is
    exactly zero at the matched reservoir, so both come out as exact zeros
    there instead of round-off.
    """
    beta = beta_of(params.r_p)
    g_s = params.g * math.cosh(params.r_p)
    delta_s = params.delta_c * math.sqrt(1.0 - beta * beta)
    dr = params.r_e - params.r_p
    psi = (params.theta_e + params.theta_p) - math.pi
    sinh_2re = math.sinh(2.0 * params.r_e)
    half_psi_sq = math.sin(0.5 * psi) ** 2
    n_s = math.sinh(dr) ** 2 + sinh_2re * math.sinh(2.0 * params.r_p) * half_psi_sq
    m_s = 0.5 * cmath.exp(-1j * params.theta_p) * complex(
        math.sinh(2.0 * dr) - 2.0 * sinh_2re * math.cosh(2.0 * params.r_p) * half_psi_sq,
        sinh_2re * math.sin(psi))
    return DerivedParams(beta=beta, g_s=g_s, delta_s=delta_s, n_s=n_s, m_s=m_s)


def matched_reservoir(params: SystemParams) -> SystemParams:
    """The same point with the reservoir matched to the drive, so n_s = m_s = 0.

    theta_p is reduced to t in [0, 2 pi] and theta_e set to pi - t: for such
    t the phase mismatch (pi - t) + t - pi that derive forms is exactly 0,
    which it need not be for an unreduced negative theta_p.
    """
    t = params.theta_p % (2.0 * math.pi)
    return replace(params, r_e=params.r_p, theta_p=t, theta_e=math.pi - t)


def default_cutoff(derived: DerivedParams) -> int:
    """Fock cutoff heuristic; the convergence check in dynamics validates it."""
    if max(abs(derived.n_s), abs(derived.m_s)) <= NOISE_FLOOR:
        return QUIET_CUTOFF
    return NOISY_CUTOFF


def check_count(name: str, value: int, least: int) -> None:
    """The one rule on a count: an integer (one that operator.index takes, so
    NumPy integers pass) of at least least."""
    try:
        operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")


def allocate(make, *args, **kwargs) -> np.ndarray:
    """make(*args, **kwargs), an array sized by valid counts; numpy's
    ValueError for a size it cannot represent is raised as MemoryError, since
    such a count is too large for memory."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise MemoryError(str(exc)) from None


def check_cutoff(cutoff: int | None) -> None:
    """The one rule on a Fock cutoff: at least 1 (None picks default_cutoff)."""
    if cutoff is not None:
        check_count("cutoff", cutoff, 1)


def annihilation(fock_dim: int) -> np.ndarray:
    """Truncated annihilation operator, a|n> = sqrt(n)|n-1>."""
    a = allocate(np.zeros, (fock_dim, fock_dim), dtype=complex)
    for n in range(1, fock_dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def _basis(fock_dim: int) -> tuple[np.ndarray, ...]:
    """The constant joint-space factors of build_operators and of the
    Liouvillian's rate table (dynamics._rate_table): P_e (x) I, I (x) n,
    raise (x) a, lower (x) a†, lower (x) I and I (x) a."""
    a = annihilation(fock_dim)
    raise_op = np.array([[0, 1], [0, 0]], dtype=complex)  # |e><g|
    lower_op = dagger(raise_op)
    eye_atom, eye_fock = np.eye(2, dtype=complex), np.eye(fock_dim, dtype=complex)
    return (kron(raise_op @ lower_op, eye_fock), kron(eye_atom, dagger(a) @ a),
            kron(raise_op, a), kron(lower_op, dagger(a)), kron(lower_op, eye_fock),
            kron(eye_atom, a))


def build_operators(params: SystemParams, cutoff: int) -> ModelOperators:
    """Assemble H and the Lindblad operators on the truncated basis.

    H = delta_a P_e (x) I + delta_s I (x) n + g_s (raise (x) a + lower (x) a†)
    with P_e the excited-state projector. Atom-major ordering, excited first.
    Each call builds its own _basis factors and returns new writeable arrays;
    the master path reads the Liouvillian's rate table instead
    (dynamics.liouvillian_superoperator), so this is the dense reference.
    """
    check_cutoff(cutoff)
    d = derive(params)
    excited, number, raise_a, lower_a_dag, lower, a = _basis(cutoff + 1)
    h = (params.delta_a * excited + d.delta_s * number + d.g_s * (raise_a + lower_a_dag))
    return ModelOperators(hamiltonian=h, lindblad_atom=math.sqrt(params.gamma) * lower,
                          lindblad_cavity=math.sqrt(params.kappa) * a)


def bosonic_quadratic_spectrum(delta_c: float, omega_p: float, cutoff: int) -> np.ndarray:
    """Eigenvalues of delta_c*n + (omega_p/2)(a^2 + a†^2), ascending.

    Consistency check on the squeezing transform: below threshold the exact
    spectrum is harmonic with spacing delta_s, which truncation reproduces
    for the low-lying levels. The top of the spectrum is a truncation
    artifact and should be excluded from comparisons.
    """
    if abs(omega_p) >= abs(delta_c):
        raise ValidationError(
            f"|omega_p| = {abs(omega_p)} must be < |delta_c| = {abs(delta_c)}")
    fock_dim = cutoff + 1
    a = annihilation(fock_dim)
    h = delta_c * (dagger(a) @ a) + 0.5 * omega_p * (a @ a + dagger(a) @ dagger(a))
    return eigvalsh(h)
