import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityqsl.errors import NoConvergence, ValidationError
from cavityqsl.linalg import (dagger, eigvalsh, norms_of_hermitian_stack,
                              partial_trace_cavity_stack)


def _random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def _index_sum_trace(m, fock):
    """Independent contraction: atom[i, j] = sum_n m[i*fock+n, j*fock+n]."""
    byhand = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for n in range(fock):
                byhand[i, j] += m[i * fock + n, j * fock + n]
    return byhand


def test_dagger():
    m = np.array([[1 + 2j, 3], [4j, 5]], dtype=complex)
    d = dagger(m)
    assert d[0, 1] == np.conj(m[1, 0])
    assert np.array_equal(dagger(d), m)


def test_hermitian_eig_two_by_two_closed_form():
    # eigenvalues of [[a, c], [conj(c), b]] from the quadratic formula
    a, b, c = 1.0, 3.0, 0.5 - 0.25j
    m = np.array([[a, c], [np.conj(c), b]])
    mean = 0.5 * (a + b)
    half = math.sqrt((0.5 * (a - b)) ** 2 + abs(c) ** 2)
    assert eigvalsh(m) == pytest.approx([mean - half, mean + half], abs=1e-12)


def _edge_slices(dim, rng):
    """Slices where a closed form can lose accuracy, order or range."""
    if dim == 1:
        return np.array([[[0.0]], [[-1e-150]], [[1e150]], [[-1e307]], [[1e307]]],
                        dtype=complex)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = 0.3 - 0.4j
    slices = [np.diag([2.0, -1.0]), np.diag([-1.0, 2.0]),  # diagonal
              np.outer(v, v.conj()),  # rank one
              1.5 * np.eye(2),  # exactly degenerate
              np.zeros((2, 2)),
              np.array([[0.0, np.conj(b)], [b, 0.0]])]  # off-diagonal only
    for scale in (1e-150, 1e150, 1e307):
        for _ in range(4):
            m = _random_hermitian(rng, 2)
            slices.append(scale * m / np.abs(m).max())
        slices.append(scale * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        slices.append(scale * np.array([[1.0, 0.0], [1.0j, -1.0]]))
    # p + q or p - q past the float range, with finite eigenvalues
    slices += [[[1e308, 1e307], [1e307, 1e308]], 1.5e308 * np.eye(2),
               [[-1e308, 5e307j], [-5e307j, 1e308]]]
    return np.array(slices, dtype=complex)


@pytest.mark.parametrize("dim", [1, 2])
def test_small_eigvalsh_matches_lapack(dim):
    # the closed-form branches against LAPACK, slice by slice
    rng = np.random.default_rng(dim)
    stack = np.concatenate([np.array([_random_hermitian(rng, dim) for _ in range(500)]),
                            _edge_slices(dim, rng)])
    # LAPACK reads the lower triangle and the real diagonal only
    scrambled = stack + 1j * np.diag(rng.normal(size=dim))
    upper_rows, upper_cols = np.triu_indices(dim, 1)
    scrambled[:, upper_rows, upper_cols] = 9.0 - 4.0j
    for m in (stack, scrambled):
        got = eigvalsh(m)
        want = np.linalg.eigvalsh(m)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert (got[:, 1:] >= got[:, :-1]).all()
        norm = np.abs(want).max(axis=1, keepdims=True)
        assert (np.abs(got - want) <= 1e-14 * norm).all()


@pytest.mark.parametrize("dim, row, col", [(1, 0, 0), (2, 0, 0), (2, 1, 1), (2, 1, 0)])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_eigvalsh_inf_input_is_no_convergence(dim, row, col, value):
    m = np.zeros((3, dim, dim), dtype=complex)
    m[1, row, col] = value
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergence, match="did not converge"):
        eigvalsh(m)


@pytest.mark.parametrize("dim", [1, 2])
def test_eigvalsh_nan_input_is_no_convergence(dim):
    # below 3x3 LAPACK returns NaN eigenvalues instead of failing
    with pytest.raises(NoConvergence, match="did not converge"):
        eigvalsh(np.full((4, dim, dim), np.nan, dtype=complex))


def test_eigvalsh_lapack_failure_is_no_convergence(monkeypatch):
    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NoConvergence, match="did not converge"):
        eigvalsh(np.eye(3, dtype=complex)[None])


@pytest.mark.parametrize("dim", [3, 11])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "imag-nan"])
@pytest.mark.parametrize("entry", ["diagonal", "upper"])
def test_eigvalsh_non_finite_entry_is_no_convergence(dim, value, entry):
    # LAPACK reads only the lower triangle and can return finite eigenvalues
    # for a NaN on the diagonal
    m = np.tile(np.eye(dim, dtype=complex), (4, 1, 1))
    m[2, 0, 0 if entry == "diagonal" else dim - 1] = value
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergence, match="did not converge"):
        eigvalsh(m)


@pytest.mark.parametrize("row, col", [(0, 0), (1, 1), (1, 0)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_norms_of_non_finite_qubit_slice_are_no_convergence(row, col, value):
    m = np.zeros((3, 2, 2), dtype=complex)
    m[1, row, col] = value
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergence, match="did not converge"):
        norms_of_hermitian_stack(m)


def test_norms_three_four_five():
    # diag(3, -4): op 4, trace 7, hs 5
    op, tr, hs = norms_of_hermitian_stack(np.diag([3.0, -4.0])[None])
    assert op[0] == pytest.approx(4.0, abs=1e-14)
    assert tr[0] == pytest.approx(7.0, abs=1e-14)
    assert hs[0] == pytest.approx(5.0, abs=1e-14)


def test_norms_zero_matrix():
    op, tr, hs = norms_of_hermitian_stack(np.zeros((1, 3, 3), dtype=complex))
    assert op[0] == tr[0] == hs[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_norm_ordering_and_unitary_invariance(dim, seed):
    rng = np.random.default_rng(seed)
    m = _random_hermitian(rng, dim)
    # conjugation by the eigenbasis of another Hermitian matrix
    basis = np.linalg.eigh(_random_hermitian(rng, dim))[1]
    (op, rot_op), (tr, rot_tr), (hs, rot_hs) = norms_of_hermitian_stack(
        np.array([m, basis @ m @ dagger(basis)]))
    assert op <= hs + 1e-12
    assert hs <= tr + 1e-12
    assert tr <= math.sqrt(dim) * hs + 1e-12
    assert rot_op == pytest.approx(op, rel=1e-10)
    assert rot_tr == pytest.approx(tr, rel=1e-10)
    assert rot_hs == pytest.approx(hs, rel=1e-10)


def test_norm_stack_matches_loop():
    # slice by slice against numpy's spectral, nuclear and Frobenius norms
    rng = np.random.default_rng(3)
    for dim in (2, 5):
        stack = np.array([_random_hermitian(rng, dim) for _ in range(7)])
        op, tr, hs = norms_of_hermitian_stack(stack)
        for k in range(7):
            assert op[k] == pytest.approx(np.linalg.norm(stack[k], 2), rel=1e-12)
            assert tr[k] == pytest.approx(np.linalg.norm(stack[k], "nuc"), rel=1e-12)
            assert hs[k] == pytest.approx(np.linalg.norm(stack[k], "fro"), rel=1e-12)


def test_norm_stack_reads_the_lower_triangle():
    # a slice is taken as Hermitian: its upper triangle and the imaginary
    # parts of its diagonal are not read, by the closed form (2 x 2) or LAPACK
    rng = np.random.default_rng(4)
    for dim in (2, 3):
        m = rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim, dim))
        lower = np.tril(m, -1)
        hermitian = lower + lower.conj().transpose(0, 2, 1) + np.real(m) * np.eye(dim)
        got = norms_of_hermitian_stack(m)
        want = norms_of_hermitian_stack(hermitian)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_norm_reductions_match_per_slice_sums(dim):
    # the reductions over the (dim, n) transpose add in the order of the
    # per-slice sums over axis 1 of the (n, dim) spectrum
    rng = np.random.default_rng(dim)
    scales = 10.0 ** rng.uniform(-8, 8, size=(500, 1, 1))
    stack = np.array([_random_hermitian(rng, dim) for _ in range(500)]) * scales
    w = eigvalsh(0.5 * (stack + stack.conj().transpose(0, 2, 1)))
    op, tr, hs = norms_of_hermitian_stack(stack)
    assert np.array_equal(op, np.abs(w).max(axis=1))
    assert np.array_equal(tr, np.abs(w).sum(axis=1))
    assert np.array_equal(hs, np.sqrt((w * w).sum(axis=1)))


def test_partial_trace_single_excitation_form():
    # |psi> = A |e,0> + B |g,1> reduces to diag(|A|^2, |B|^2)
    amp_e, amp_p = 0.6, 0.8j
    fock = 3
    psi = np.zeros(2 * fock, dtype=complex)
    psi[0] = amp_e
    psi[fock + 1] = amp_p
    rho = np.outer(psi, psi.conj())
    atom = partial_trace_cavity_stack(rho[None], 2, fock)[0]
    expected = np.diag([abs(amp_e) ** 2, abs(amp_p) ** 2])
    assert np.abs(atom - expected).max() <= 1e-15


def test_partial_trace_matches_index_sum():
    rng = np.random.default_rng(11)
    fock = 4
    m = _random_hermitian(rng, 2 * fock)
    atom = partial_trace_cavity_stack(m[None], 2, fock)[0]
    assert np.abs(atom - _index_sum_trace(m, fock)).max() <= 1e-13
    assert np.trace(atom) == pytest.approx(np.trace(m), rel=1e-13)


def test_partial_trace_rejects_wrong_dims():
    with pytest.raises(ValidationError, match="does not factor"):
        partial_trace_cavity_stack(np.eye(7, dtype=complex)[None], 2, 3)


def test_partial_trace_stack_matches_loop():
    rng = np.random.default_rng(5)
    fock = 3
    stack = np.array([_random_hermitian(rng, 2 * fock) for _ in range(4)])
    out = partial_trace_cavity_stack(stack, 2, fock)
    for k in range(4):
        assert np.abs(out[k] - _index_sum_trace(stack[k], fock)).max() <= 1e-13
