"""Numerical kernel: eigendecomposition, rank/range, PSD powers, subspaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedual import InvalidParameterError, Subspace, hermitian_eig, psd_power, rank_and_range
from framedual.linalg import (
    RANK_TOL,
    dft_matrix,
    full_rank_certificate,
    nonzero_mask,
    random_complex_block,
    random_complex_vector,
    random_unitary,
    subspace_equal,
    subspace_perp,
    substream,
)


def random_hermitian(rng, n):
    a = random_complex_vector(rng, n * n).reshape(n, n)
    return (a + a.conj().T) / 2


def test_eig_identity():
    w, v = hermitian_eig(np.eye(3))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_eig_diagonal_sorted():
    w, _ = hermitian_eig(np.diag([2.0, 0.0, 1.0]))
    np.testing.assert_allclose(w, [0.0, 1.0, 2.0])


def test_eig_reconstruction_random():
    a = random_hermitian(substream(42, 0), 8)
    w, v = hermitian_eig(a)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, a, atol=1e-10)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(8), atol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(InvalidParameterError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_defect_gate_holds_where_the_norms_overflow():
    # the Frobenius norms of both matrices overflow float64; the defect is
    # compared on a copy scaled by a power of two
    with pytest.raises(InvalidParameterError, match="not Hermitian"):
        hermitian_eig(np.array([[0.0, 1e200], [-1e200, 0.0]]))
    w, _ = hermitian_eig(np.array([[0.0, 1e200], [1e200, 0.0]]))
    assert w.tolist() == [-1e200, 1e200]


def test_eig_stack_matches_single_matrices():
    stack = np.stack([random_hermitian(substream(42, k), 5) for k in range(4)])
    w, v = hermitian_eig(stack)
    assert w.shape == (4, 5) and v.shape == (4, 5, 5)
    for k, a in enumerate(stack):
        wk, vk = hermitian_eig(a)
        assert w[k].tobytes() == wk.tobytes()
        assert v[k].tobytes() == vk.tobytes()


def test_eig_stack_checks_every_matrix():
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
    with pytest.raises(InvalidParameterError, match=r"matrix \(1,\)"):
        hermitian_eig(stack)
    with pytest.raises(InvalidParameterError):
        hermitian_eig(np.ones((2, 2, 3)))


INDEX_FORMS = {
    "range": lambda rows: rows,
    "list": list,
    "int64": lambda rows: np.array([i - 2**62 for i in rows], dtype=np.int64),
    "uint64": lambda rows: np.array([i + 2**63 for i in rows], dtype=np.uint64),
    "generator": lambda rows: (i for i in rows),
    "descending": lambda rows: list(reversed(rows)),
    "repeated": lambda rows: [i for i in rows for _ in range(2)][:len(rows)],
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(-2**63, 2**64 - 1), start=st.integers(0, 2**62),
       count=st.integers(0, 70), d=st.integers(1, 19), form=st.sampled_from(sorted(INDEX_FORMS)))
def test_block_draws_equal_substream_draws(seed, start, count, d, form):
    # any iterable of integers keys the rows, numpy integers included; an
    # index is taken mod 2^64, as substream takes it
    indices = list(INDEX_FORMS[form](range(start, start + count)))
    block = random_complex_block(seed, INDEX_FORMS[form](range(start, start + count)), d)
    assert block.shape == (count, d)
    for k, i in enumerate(indices):
        assert block[k].tobytes() == random_complex_vector(substream(seed, int(i)), d).tobytes()


def test_eig_extremes_are_rayleigh_extrema():
    # every Rayleigh quotient lies between the extreme eigenvalues, and the
    # extreme eigenvectors attain them
    rng = substream(7, 1)
    a = random_hermitian(rng, 6)
    w, v = hermitian_eig(a)
    quotients = []
    for _ in range(1000):
        x = random_complex_vector(rng, 6)
        quotients.append((np.vdot(x, a @ x) / np.vdot(x, x)).real)
    assert min(quotients) >= w[0] - 1e-9
    assert max(quotients) <= w[-1] + 1e-9
    for col, lam in ((v[:, 0], w[0]), (v[:, -1], w[-1])):
        assert np.vdot(col, a @ col).real == pytest.approx(lam, abs=1e-10)


def test_rank_zero_matrix():
    rank, rng_sub = rank_and_range(np.zeros((4, 3)))
    assert rank == 0 and rng_sub.dim == 0


def test_rank_one_outer_product():
    rng = substream(3, 0)
    u = random_complex_vector(rng, 5)
    v = random_complex_vector(rng, 4)
    rank, rng_sub = rank_and_range(np.outer(u, v.conj()))
    assert rank == 1
    assert subspace_equal(rng_sub, Subspace.from_columns(u[:, None]))


def test_rank_agrees_with_gram_rank():
    # two-route check: rank of a tall matrix equals the rank of its Gram
    rng = substream(11, 0)
    cols = random_complex_vector(rng, 6 * 3).reshape(6, 3)
    cols = np.concatenate([cols, cols[:, :1] + cols[:, 1:2]], axis=1)  # dependent col
    rank, _ = rank_and_range(cols)
    gram_evals, _ = hermitian_eig(cols.conj().T @ cols)
    gram_rank = int((gram_evals > 1e-9 * gram_evals[-1]).sum())
    assert rank == gram_rank == 3


def test_rank_invariant_under_unitary():
    rng = substream(12, 0)
    a = random_complex_vector(rng, 30).reshape(6, 5)
    rank1, range1 = rank_and_range(a)
    rank2, range2 = rank_and_range(a @ random_unitary(rng, 5))
    assert rank1 == rank2
    assert subspace_equal(range1, range2)


def test_psd_power_identity_inverse_sqrt():
    np.testing.assert_allclose(psd_power(np.eye(4), -0.5), np.eye(4), atol=1e-12)


def test_psd_power_pseudo_inverse_on_support():
    out = psd_power(np.diag([4.0, 0.0]), -0.5)
    np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-12)


def test_psd_power_sqrt_squares_back():
    rng = substream(5, 0)
    b = random_complex_vector(rng, 36).reshape(6, 6)
    a = b @ b.conj().T
    root = psd_power(a, 0.5)
    np.testing.assert_allclose(root @ root, a, atol=1e-9)
    np.testing.assert_allclose(psd_power(a, 1.0), a, atol=1e-9)


def test_psd_power_rejects_negative():
    with pytest.raises(InvalidParameterError):
        psd_power(np.diag([1.0, -1.0]), 0.5)


def test_subspace_equal_order_invariant():
    e = np.eye(3, dtype=complex)
    s1 = Subspace(3, e[:, [0, 1]])
    s2 = Subspace(3, e[:, [1, 0]])
    assert subspace_equal(s1, s2)


def test_subspace_equality_is_identity():
    # == compares objects and never raises; subspace_equal compares spans
    s1, s2 = Subspace(2, np.eye(2)), Subspace(2, np.eye(2))
    assert s1 == s1 and s1 != s2 and subspace_equal(s1, s2)


def test_one_zero_cut_on_the_energy_scale():
    # an eigenvalue is an energy, a singular value its root: one cut for both
    energies = np.array([1.0, 2e-9, 5e-10])
    np.testing.assert_array_equal(nonzero_mask(energies, 1e-9), [True, True, False])
    np.testing.assert_array_equal(nonzero_mask(np.sqrt(energies), 1e-9, singular=True),
                                  [True, True, False])
    assert rank_and_range(np.diag(np.sqrt(energies)), 1e-9)[0] == 2
    assert not nonzero_mask(np.zeros(3)).any() and not nonzero_mask(np.zeros(0)).any()


def matrix_with_energies(rng, p, q, energies):
    """A random p x q matrix whose A* A has the given nonzero eigenvalues."""
    m = len(energies)
    u, v = random_unitary(rng, p)[:, :m], random_unitary(rng, q)[:, :m]
    return (u * np.sqrt(energies)) @ v.conj().T


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from([0.5, 0.9, 1.1, 4.0]),
       st.integers(0, 2**32 - 1))
def test_certificate_decides_like_the_cut(p, q, ratio, seed):
    # lambda_min = ratio * rank_tol * (sum of the others): below the cut the
    # certificate must stand aside, at 4x it must hold, and whenever it holds
    # eigh agrees on the span and the trace
    rng = substream(seed, 0)
    m = min(p, q)
    others = 1.0 + rng.random(m - 1)
    energies = np.append(others, ratio * RANK_TOL * max(others.sum(), 1.0))
    a = matrix_with_energies(rng, p, q, energies)
    certificate = full_rank_certificate(a[None])
    if ratio < 1.0:
        assert certificate is None or m == 1
    if ratio == 4.0 or m == 1:
        assert certificate is not None
    if certificate is not None:
        w, _ = hermitian_eig(a.conj().T @ a)
        assert np.count_nonzero(nonzero_mask(w)) == m
        (trace,), (slack,) = certificate
        assert abs(w[-m:].sum() - trace) <= slack


def test_certificate_stands_aside():
    rng = substream(5, 0)
    a = matrix_with_energies(rng, 4, 4, [1.0, 2.0, 3.0, 4.0])
    assert full_rank_certificate(a[None]) is not None
    assert full_rank_certificate(a[None], rank_tol=0.5) is None
    singular = matrix_with_energies(rng, 4, 4, [1.0, 2.0, 3.0])
    assert full_rank_certificate(np.stack([a, singular])) is None
    assert full_rank_certificate(np.stack([a, np.zeros((4, 4))])) is None
    # underflowing, overflowing and non-finite entries
    assert full_rank_certificate(1e-160 * a[None]) is None
    assert full_rank_certificate(1e160 * a[None]) is None
    bad = a.copy()
    bad[0, 0] = np.inf
    assert full_rank_certificate(bad[None]) is None
    # the Gram route leaves eigh's zero eigenvalues to a cut above its noise
    wide = matrix_with_energies(rng, 2, 6, [1.0, 2.0])
    assert full_rank_certificate(wide[None]) is not None
    assert full_rank_certificate(wide[None], rank_tol=1e-20) is None
    assert full_rank_certificate(a[None], rank_tol=1e-20) is not None


def test_subspace_perp_and_neither():
    e = np.eye(2, dtype=complex)
    span0 = Subspace(2, e[:, [0]])
    span1 = Subspace(2, e[:, [1]])
    mixed = Subspace.from_columns((e[:, 0] + e[:, 1])[:, None])
    assert subspace_perp(span0, span1) and not subspace_equal(span0, span1)
    assert not subspace_perp(mixed, span0) and not subspace_equal(mixed, span0)


def test_subspace_ambient_mismatch():
    with pytest.raises(InvalidParameterError):
        subspace_equal(Subspace(2, np.eye(2)), Subspace(3, np.eye(3)))


def test_subspace_complement():
    e = np.eye(4, dtype=complex)
    s = Subspace(4, e[:, :1])
    comp = s.complement()
    assert comp.dim == 3
    assert subspace_perp(s, comp, tol=1e-12)


def test_substream_reproducible_and_order_free():
    a = random_complex_vector(substream(123, 5), 4)
    b = random_complex_vector(substream(123, 5), 4)
    np.testing.assert_array_equal(a, b)
    c = random_complex_vector(substream(123, 6), 4)
    assert np.abs(a - c).max() > 1e-3


def test_dft_matrix_unitary():
    f = dft_matrix(7)
    np.testing.assert_allclose(f.conj().T @ f, np.eye(7), atol=1e-12)
