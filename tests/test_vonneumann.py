"""Commutants, generated algebras, centers, trace states, membership."""

import numpy as np
import pytest

from framedual import (
    InvalidParameterError,
    OperatorSubspace,
    contains,
    cyclic_group,
    frame_operator,
    gabor_rep,
    GaborLattice,
    heisenberg_multiplier,
    left_regular,
    right_regular,
    trivial_multiplier,
)
from framedual.gabor import modulation, translation
from framedual.linalg import random_complex_vector, substream
from framedual.vonneumann import (center, commutant, double_commutant, is_factor,
                                  operator_subspaces_equal, trace_state)


def test_commutant_of_identity_is_everything():
    assert commutant([np.eye(3)]).dim == 9


def test_commutant_of_regular_rep_is_right_regular_span():
    g = cyclic_group(5)
    mu = trivial_multiplier(g)
    lam = left_regular(g, mu)
    rho = right_regular(g, mu)
    comm = commutant(lam.matrices)
    assert comm.dim == 5
    rho_span = OperatorSubspace.from_matrices(rho.matrices)
    assert operator_subspaces_equal(comm, rho_span)


def test_operator_subspace_copies_the_callers_basis():
    basis = np.zeros((1, 2, 2), dtype=complex)
    basis[0, 0, 0] = 1.0
    space = OperatorSubspace(basis)
    assert space.basis is not basis and not space.basis.flags.writeable
    basis[0, 0, 0] = 0.0  # the caller's array stays its own and writable
    assert space.basis[0, 0, 0] == 1.0 and space.dim == 1


def test_operator_subspace_equality_is_identity():
    # == compares objects and never raises; operator_subspaces_equal compares spans
    basis = np.eye(2)[None] / np.sqrt(2)
    s1, s2 = OperatorSubspace(basis), OperatorSubspace(basis)
    assert s1 == s1 and s1 != s2 and operator_subspaces_equal(s1, s2)


def test_commutant_of_irreducible_pair_is_scalars():
    # modulation and translation act irreducibly on C^n
    for n in (3, 4, 5):
        comm = commutant([modulation(n), translation(n)])
        assert comm.dim == 1
        assert contains(comm, np.eye(n) / np.sqrt(n))


def test_double_commutant_of_cyclic_regular_is_circulants():
    g = cyclic_group(4)
    lam = left_regular(g, trivial_multiplier(g))
    alg = double_commutant(lam.matrices)
    assert alg.dim == 4
    shift = lam.matrices[1]
    circulants = OperatorSubspace.from_matrices(
        np.stack([np.linalg.matrix_power(shift, k) for k in range(4)])
    )
    assert operator_subspaces_equal(alg, circulants)


def test_double_commutant_of_identity_is_scalars():
    assert double_commutant([np.eye(4)]).dim == 1


def test_double_commutant_idempotent():
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    once = double_commutant(lam.matrices)
    twice = double_commutant(once.basis)
    assert operator_subspaces_equal(once, twice)


def test_bicommutant_contains_generators_and_identity():
    rng = substream(53, 0)
    from framedual.linalg import random_unitary
    u = random_unitary(rng, 4)
    alg = double_commutant([u])
    assert contains(alg, u)
    assert contains(alg, u.conj().T)
    assert contains(alg, np.eye(4))


def test_commutant_three_times_equals_once():
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    once = commutant(lam.matrices)
    thrice = commutant(commutant(once.basis).basis)
    assert operator_subspaces_equal(once, thrice)


@pytest.mark.parametrize("mu_factory", [
    lambda: trivial_multiplier(cyclic_group(6)),
    lambda: heisenberg_multiplier(2),
    lambda: heisenberg_multiplier(3),
])
def test_regular_duality_commutant_equals_other_side(mu_factory):
    mu = mu_factory()
    lam = left_regular(mu.group, mu)
    rho = right_regular(mu.group, mu)
    assert operator_subspaces_equal(commutant(lam.matrices),
                                    double_commutant(rho.matrices))
    assert commutant(lam.matrices).dim == mu.group.order


def test_center_of_full_matrix_algebra():
    alg = double_commutant([modulation(3), translation(3)])
    assert alg.dim == 9
    ctr = center(alg)
    assert ctr.dim == 1
    assert is_factor(alg)


def test_center_of_abelian_algebra_is_itself():
    g = cyclic_group(4)
    lam = left_regular(g, trivial_multiplier(g))
    alg = double_commutant(lam.matrices)
    ctr = center(alg)
    assert ctr.dim == alg.dim == 4
    assert not is_factor(alg)


def test_heisenberg_regular_algebra_is_factor():
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    alg = double_commutant(lam.matrices)
    assert alg.dim == 4
    assert is_factor(alg)


def test_gabor_422_center_against_independent_route():
    # independent route: the center is also the commutant of generators plus
    # commutant basis taken together (one Sylvester kernel, no intersection)
    rep = gabor_rep(GaborLattice(4, 2, 2))
    alg = double_commutant(rep.matrices)
    ctr = center(alg)
    comm = commutant(rep.matrices)
    joint = commutant(np.concatenate([alg.basis, comm.basis]))
    assert ctr.dim == joint.dim == 4  # abelian algebra: center is everything
    assert operator_subspaces_equal(ctr, joint)


def test_center_rejects_non_algebra():
    span_m = OperatorSubspace.from_matrices([modulation(4)])
    with pytest.raises(InvalidParameterError):
        center(span_m)


def test_trace_state_identity_and_right_translations():
    g = cyclic_group(6)
    mu = trivial_multiplier(g)
    rho = right_regular(g, mu)
    chi_e = np.zeros(6)
    chi_e[g.identity] = 1.0
    assert trace_state(np.eye(6), chi_e) == pytest.approx(1.0)
    for k in range(6):
        expected = 1.0 if k == g.identity else 0.0
        assert trace_state(rho.matrices[k], chi_e) == pytest.approx(expected, abs=1e-14)


def test_trace_state_tracial_on_commutant():
    g = cyclic_group(6)
    mu = trivial_multiplier(g)
    lam = left_regular(g, mu)
    comm = commutant(lam.matrices)
    chi_e = np.zeros(6)
    chi_e[g.identity] = 1.0
    rng = substream(59, 0)
    for _ in range(100):
        ca = rng.standard_normal(comm.dim) + 1j * rng.standard_normal(comm.dim)
        cb = rng.standard_normal(comm.dim) + 1j * rng.standard_normal(comm.dim)
        a = np.tensordot(ca, comm.basis, axes=(0, 0))
        b = np.tensordot(cb, comm.basis, axes=(0, 0))
        lhs = trace_state(a @ b, chi_e)
        rhs = trace_state(b @ a, chi_e)
        assert abs(lhs - rhs) < 1e-10


def test_trace_state_positive_on_psd_elements():
    g = cyclic_group(4)
    lam = left_regular(g, trivial_multiplier(g))
    comm = commutant(lam.matrices)
    chi_e = np.zeros(4)
    chi_e[0] = 1.0
    rng = substream(61, 0)
    for _ in range(20):
        c = rng.standard_normal(comm.dim) + 1j * rng.standard_normal(comm.dim)
        a = np.tensordot(c, comm.basis, axes=(0, 0))
        val = trace_state(a.conj().T @ a, chi_e)
        assert val.real >= -1e-12 and abs(val.imag) < 1e-12


def test_contains_identity_and_rejects_outside():
    diag_alg = OperatorSubspace.from_matrices(
        np.stack([np.diag(np.eye(3)[k]) for k in range(3)]).astype(complex)
    )
    assert contains(diag_alg, np.eye(3))
    off = np.zeros((3, 3))
    off[0, 1] = 1.0
    assert not contains(diag_alg, off)


def test_frame_operator_lives_in_commutant(lam_heis2):
    comm = commutant(lam_heis2.matrices)
    rng = substream(67, 0)
    for _ in range(10):
        xi = random_complex_vector(rng, lam_heis2.dim)
        assert contains(comm, frame_operator(lam_heis2, xi))
