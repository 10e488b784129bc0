"""Dense complex-matrix kernel: Hermitian spectra, norms over stacks, and
the cavity partial trace over stacks, and the cache of index plans.

Matrices are plain complex128 numpy arrays in row-major order. Dimensions
here never exceed a few dozen, so everything is dense and direct. Hermitian
spectra of 1x1 and 2x2 slices -- the two-level atom's speed norms and the
small positivity groups of a quiet master point -- come from the closed
form; larger slices go to LAPACK. A positivity gate on larger slices asks
LAPACK for a Cholesky factorisation first and for the spectrum only when
that fails. Basis ordering is fixed globally as atom-major:
index = atom_index * fock_dim + fock_index, with atom index 0 = excited,
1 = ground.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .errors import NoConvergence, ValidationError

# Plans kept by cached_plan. A master point uses three: the Liouvillian's rate
# table at its cutoff and at cutoff+2, and its block's plan, which holds the
# defect's; a point that reruns at cutoff+2 adds that block's plan.
PLAN_CACHE_ENTRIES = 64

_plans: OrderedDict = OrderedDict()


def cached_plan(build, *key):
    """build(*key), built once per key and shared: index structure that
    depends on patterns, not on the values of a point. Arrays in key compare
    by dtype, shape and bytes. Every array of a plan is made read-only; at
    most PLAN_CACHE_ENTRIES plans are kept, the least recently used dropped
    first."""
    tag = (build, *((k.dtype.str, k.shape, k.tobytes()) if isinstance(k, np.ndarray) else k
                    for k in key))
    plan = _plans.pop(tag, None)
    if plan is None:
        plan = build(*key)
        _freeze(plan)
    _plans[tag] = plan
    if len(_plans) > PLAN_CACHE_ENTRIES:
        _plans.popitem(last=False)
    return plan


def _freeze(plan) -> None:
    if isinstance(plan, np.ndarray):
        plan.flags.writeable = False
    for part in plan if isinstance(plan, tuple) else ():
        _freeze(part)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian slice of a (..., k, k) stack,
    read from the lower triangle as np.linalg.eigvalsh reads it.

    k = 1 gives the real diagonal and k = 2 the closed form
    w = (p+q)/2 -+ hypot((p-q)/2, |b|) with p, q the diagonal and b the
    lower off-diagonal entry, halved before summing so that entries near
    the float range do not overflow; a non-finite entry they read gives a
    non-finite eigenvalue. Other k go to np.linalg.eigvalsh after a check
    that every entry is finite, since LAPACK reads only the lower triangle
    and can return finite eigenvalues for a NaN diagonal; its failure is
    raised as NoConvergence. A non-finite eigenvalue counts as a failure
    too.
    """
    m = np.asarray(m)
    k = m.shape[-1] if m.ndim >= 2 and m.shape[-2] == m.shape[-1] else 0
    if k == 1:
        w = m[..., 0].real.astype(float)
    elif k == 2:
        w = np.stack(_qubit_spectrum(m), axis=-1)
    else:
        if not np.isfinite(m).all():
            raise NoConvergence("Eigenvalues did not converge: non-finite input")
        try:
            w = np.linalg.eigvalsh(m)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
    _require_finite(w)
    return w


def _qubit_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The closed form (lo, hi) of eigvalsh on a stack of 2x2 slices."""
    p, q = m[..., 0, 0].real, m[..., 1, 1].real
    mean = 0.5 * p + 0.5 * q
    half = np.hypot(0.5 * p - 0.5 * q, np.abs(m[..., 1, 0]))
    return mean - half, mean + half


def _require_finite(w: np.ndarray) -> None:
    if not np.isfinite(w).all():
        raise NoConvergence("Eigenvalues did not converge: non-finite eigenvalues")


def gate_min_eig(m: np.ndarray, floor: float) -> float:
    """The least eigenvalue over a (n, k, k) stack of Hermitian slices when it
    is at or below floor; +inf, or the exact least eigenvalue, when it is
    above floor.

    k <= 2 takes the closed form of eigvalsh. For k >= 3 a batched Cholesky
    factorisation of m - floor I succeeds exactly when every eigenvalue
    exceeds floor, at a fraction of eigvalsh's cost; the shift is made in
    place on the diagonal of m and undone afterwards, so no shifted copy is
    formed.
    Only when the factorisation fails does eigvalsh give the exact least
    eigenvalue, and that value decides: a factorisation that fails by
    round-off never turns a pass into a fail. The one possible flip against
    eigvalsh is a pass where the exact least eigenvalue lies within round-off
    below floor. Non-finite input raises NoConvergence before the
    factorisation, which can pass it.
    """
    m = np.asarray(m)
    if not np.isfinite(m).all():
        raise NoConvergence("Eigenvalues did not converge: non-finite input")
    k = m.shape[-1]
    if k >= 3:
        diag = np.arange(k)
        saved = m[..., diag, diag]
        m[..., diag, diag] -= floor
        try:
            np.linalg.cholesky(m)
            return np.inf
        except np.linalg.LinAlgError:
            pass
        finally:
            m[..., diag, diag] = saved
    return float(eigvalsh(m)[..., 0].min())


def norms_of_hermitian_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Operator, trace and Hilbert-Schmidt norms over a (n, d, d) stack of
    Hermitian matrices, each read from its lower triangle as eigvalsh reads
    it; nothing symmetrizes the input.

    Singular values of a Hermitian matrix are |eigenvalues|, so
    op = max|w|, tr = sum|w|, hs = sqrt(sum w^2), and always
    op <= hs <= tr. The 2x2 slices of the atom take eigvalsh's closed form
    (lo, hi) as two arrays: op = max(|lo|, |hi|), tr = |lo| + |hi| and
    hs = sqrt(lo^2 + hi^2), with no stacked spectrum, bit for bit the sums
    below, and the same NoConvergence on a non-finite eigenvalue. Other
    sizes take one eigvalsh call and sum over axis 0 of the contiguous
    (d, n) transpose of the spectrum, which for d <= 6 adds in the same
    order as a sum over its axis 1 and avoids a strided reduction per slice.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.shape[-2:] == (2, 2):
        lo, hi = _qubit_spectrum(stack)
        hs = np.sqrt(lo * lo + hi * hi)
        np.abs(lo, out=lo)
        np.abs(hi, out=hi)
        op = np.maximum(lo, hi)
        _require_finite(op)  # max propagates NaN and inf
        return op, np.add(lo, hi, out=lo), hs
    w = np.ascontiguousarray(eigvalsh(stack).T)
    aw = np.abs(w)
    return aw.max(axis=0), aw.sum(axis=0), np.sqrt((w * w).sum(axis=0))


def partial_trace_cavity_stack(stack: np.ndarray, atom_dim: int, fock_dim: int) -> np.ndarray:
    """Trace out the Fock factor of each slice of a (n, d, d) stack on the
    atom (x) cavity space: out[t, i, j] = sum_k stack[t, (i,k), (j,k)]."""
    n = stack.shape[0]
    if stack.shape[1] != atom_dim * fock_dim or stack.shape[2] != atom_dim * fock_dim:
        raise ValidationError(
            f"stack shape {stack.shape} does not factor as {atom_dim}x{fock_dim}")
    return stack.reshape(n, atom_dim, fock_dim, atom_dim, fock_dim).trace(axis1=2, axis2=4)
