"""A representation's commutant, generated algebra and center by group
averaging, checked against the stacked Sylvester oracle of vonneumann."""

import numpy as np
import pytest
from hypothesis import given, settings

from framedual import (
    GaborLattice,
    NotProjectiveError,
    ProjectiveRep,
    adjoint_lattice,
    character_subrep,
    cyclic_group,
    gabor_rep,
    heisenberg_multiplier,
    left_regular,
    make_regular_subpair,
    right_regular,
    trivial_multiplier,
)
from conftest import random_reps
from framedual.linalg import dft_matrix, random_unitary, substream
from framedual.vonneumann import center, commutant, double_commutant, operator_subspace_residual

ORACLE_TOL = 1e-10  # principal-angle residual against the Sylvester route


def assert_matches_oracle(rep):
    comm, oracle_comm = rep.commutant(), commutant(rep.matrices)
    assert comm.dim == oracle_comm.dim
    assert operator_subspace_residual(comm, oracle_comm) <= ORACLE_TOL
    alg, oracle_alg = rep.algebra(), double_commutant(rep.matrices)
    assert alg.dim == oracle_alg.dim
    assert operator_subspace_residual(alg, oracle_alg) <= ORACLE_TOL
    ctr, oracle_ctr = rep.center(), center(oracle_alg)
    assert ctr.dim == oracle_ctr.dim
    assert operator_subspace_residual(ctr, oracle_ctr) <= ORACLE_TOL


@pytest.mark.parametrize("n", range(2, 13))
def test_regular_cyclic_matches_oracle(n):
    g = cyclic_group(n)
    assert_matches_oracle(left_regular(g, trivial_multiplier(g)))


@pytest.mark.parametrize("side", [left_regular, right_regular])
def test_heisenberg_z3xz3_matches_oracle(side):
    mu = heisenberg_multiplier(3)
    rep = side(mu.group, mu)
    assert_matches_oracle(rep)
    assert (rep.commutant().dim, rep.algebra().dim, rep.center().dim) == (9, 9, 1)


@pytest.mark.parametrize("lattice", [(4, 2, 2), (6, 1, 2), (6, 3, 2), (8, 2, 2), (8, 4, 1)])
def test_gabor_lattices_match_oracle(lattice):
    lat = GaborLattice(*lattice)
    assert_matches_oracle(gabor_rep(lat))
    assert_matches_oracle(gabor_rep(adjoint_lattice(lat)))


def test_regular_subrep_matches_oracle():
    g = cyclic_group(8)
    f = dft_matrix(8)[:, [0, 3, 5]]
    lam_p, rho_p = make_regular_subpair(g, trivial_multiplier(g), f @ f.conj().T)
    assert_matches_oracle(lam_p)
    assert_matches_oracle(rho_p)
    assert_matches_oracle(character_subrep(8, [1, 3, 5]))


@settings(max_examples=15, deadline=None)
@given(random_reps)
def test_random_cocycles_match_oracle(rep):
    assert_matches_oracle(rep)


@settings(max_examples=25, deadline=None)
@given(random_reps)
def test_average_is_an_orthogonal_projection_of_character_rank(rep):
    e = rep.group_average()
    assert np.abs(e @ e - e).max() < 1e-12
    assert np.abs(e - e.conj().T).max() < 1e-12
    traces = np.trace(rep.matrices, axis1=1, axis2=2)
    character_rank = np.sum(np.abs(traces) ** 2) / rep.group.order
    assert np.trace(e).real == pytest.approx(rep.commutant().dim, abs=1e-9)
    assert character_rank == pytest.approx(rep.commutant().dim, abs=1e-9)


def test_average_fixes_the_commutant():
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    e = lam.group_average()
    for k in lam.commutant().basis:
        assert np.abs(e @ k.reshape(-1) - k.reshape(-1)).max() < 1e-12


def test_non_projective_families_raise():
    g = cyclic_group(2)
    mu = trivial_multiplier(g)
    scaled = ProjectiveRep(g, mu, np.stack([np.eye(3), 2 * np.eye(3)]))
    with pytest.raises(NotProjectiveError):
        scaled.commutant()
    unitary = random_unitary(substream(71, 0), 3)  # its square is no scalar
    with pytest.raises(NotProjectiveError):
        ProjectiveRep(g, mu, np.stack([np.eye(3), unitary])).center()
