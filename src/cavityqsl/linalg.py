"""Dense complex-matrix kernel: tensor products, Hermitian spectra, norms,
and the cavity partial trace.

Matrices are plain complex128 numpy arrays in row-major order. Dimensions
here never exceed a few dozen, so everything is dense and direct. Basis
ordering is fixed globally as atom-major: index = atom_index * fock_dim +
fock_index, with atom index 0 = excited, 1 = ground.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

# Hermiticity gate, absolute per entry. Integrator round-off breaks symmetry
# at ~1e-12 worst case, well inside this.
HERMITICITY_TOL = 1e-10


class HermitianEig(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns


class HermitianNorms(NamedTuple):
    op: float
    tr: float
    hs: float


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the (left factor)-major index convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hermitianize(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return (M + M†)/2 after checking M was Hermitian within tol per entry."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max()
    if not dev <= tol:
        raise NotHermitian(f"deviation from Hermiticity {dev:.3e} exceeds {tol:.1e}")
    return 0.5 * (m + m.conj().T)


def hermitian_eig(m: np.ndarray, tol: float = HERMITICITY_TOL) -> HermitianEig:
    """Spectral decomposition of a Hermitian matrix, eigenvalues ascending."""
    sym = hermitianize(m, tol)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return HermitianEig(w, v)


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh, with a LAPACK failure raised as NoConvergence."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def norms_of_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> HermitianNorms:
    """Operator, trace, and Hilbert-Schmidt norms of a Hermitian matrix.

    Singular values of a Hermitian matrix are |eigenvalues|, so
    op = max|w|, tr = sum|w|, hs = sqrt(sum w^2). Always op <= hs <= tr.
    """
    w = eigvalsh(hermitianize(m, tol))
    aw = np.abs(w)
    return HermitianNorms(float(aw.max()), float(aw.sum()), float(np.sqrt((w * w).sum())))


def norms_of_hermitian_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized norms over a (n, d, d) stack of near-Hermitian matrices.

    Symmetrizes each slice, then runs one batched eigvalsh call. Used on the
    per-step derivative matrices of a trajectory, where a per-slice gate
    would dominate the runtime.
    """
    stack = np.asarray(stack, dtype=complex)
    sym = 0.5 * (stack + stack.conj().transpose(0, 2, 1))
    w = eigvalsh(sym)
    aw = np.abs(w)
    return aw.max(axis=1), aw.sum(axis=1), np.sqrt((w * w).sum(axis=1))


def partial_trace_cavity(rho: np.ndarray, atom_dim: int = 2, fock_dim: int | None = None) -> np.ndarray:
    """Trace out the Fock factor of a matrix on the atom (x) cavity space.

    Entry (i, j) of the result is sum_k rho[(i,k), (j,k)]; the trace is
    preserved exactly up to rounding.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {rho.shape}")
    if fock_dim is None:
        fock_dim, rem = divmod(rho.shape[0], atom_dim)
        if rem:
            raise DimensionMismatch(
                f"dimension {rho.shape[0]} is not a multiple of atom_dim={atom_dim}")
    if rho.shape[0] != atom_dim * fock_dim:
        raise DimensionMismatch(
            f"shape {rho.shape} does not factor as {atom_dim}x{fock_dim}")
    return rho.reshape(atom_dim, fock_dim, atom_dim, fock_dim).trace(axis1=1, axis2=3)


def partial_trace_cavity_stack(stack: np.ndarray, atom_dim: int, fock_dim: int) -> np.ndarray:
    """partial_trace_cavity applied along the first axis of a (n, d, d) stack."""
    n = stack.shape[0]
    if stack.shape[1] != atom_dim * fock_dim or stack.shape[2] != atom_dim * fock_dim:
        raise DimensionMismatch(
            f"stack shape {stack.shape} does not factor as {atom_dim}x{fock_dim}")
    return stack.reshape(n, atom_dim, fock_dim, atom_dim, fock_dim).trace(axis1=2, axis2=4)
