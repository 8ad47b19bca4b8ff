"""Commuting/dual pair certification and the duality sweep harness."""

import numpy as np
import pytest

from framedual import (
    GaborLattice,
    InvalidPairError,
    adjoint_lattice,
    certify_dual_pair,
    classify,
    cyclic_group,
    duality_sweep,
    from_cayley_table,
    gram_matrix,
    heisenberg_multiplier,
    is_commuting_pair,
    left_regular,
    make_gabor_pair,
    make_regular_pair,
    make_regular_subpair,
    parseval_normalize,
    trivial_multiplier,
    verify_duality,
)
from framedual.linalg import dft_matrix, random_complex_vector, substream
from conftest import dihedral_cayley


def test_regular_pair_is_commuting_trivial_and_twisted():
    for mu in (trivial_multiplier(cyclic_group(6)), heisenberg_multiplier(2)):
        lam, rho = make_regular_pair(mu.group, mu)
        check = is_commuting_pair(lam, rho)
        assert check.is_pair
        assert check.residual < 1e-10
        assert check.pi_commutant_dim == mu.group.order


def test_lambda_with_itself_abelian_is_commuting():
    g = cyclic_group(5)
    lam = left_regular(g, trivial_multiplier(g))
    assert is_commuting_pair(lam, lam).is_pair


def test_lambda_with_itself_dihedral_is_not_commuting():
    g = from_cayley_table(dihedral_cayley(4), label="D4")
    lam = left_regular(g, trivial_multiplier(g))
    check = is_commuting_pair(lam, lam)
    assert not check.is_pair
    # both spans have dimension |G| = 8, but they are different subspaces
    assert check.pi_commutant_dim == check.sigma_algebra_dim == 8
    assert check.residual > 0.5


def test_lambda_heisenberg_with_itself_not_commuting():
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    assert not is_commuting_pair(lam, lam).is_pair


def test_dim_mismatch_rejected():
    g = cyclic_group(3)
    lam3 = left_regular(g, trivial_multiplier(g))
    g4 = cyclic_group(4)
    lam4 = left_regular(g4, trivial_multiplier(g4))
    from framedual import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        is_commuting_pair(lam3, lam4)


def test_certify_regular_pair_feasible(lam_z6, rho_z6):
    report = certify_dual_pair(lam_z6, rho_z6, seed=7)
    assert report.feasible and report.infeasibility is None
    assert report.frame_vector is not None
    assert report.riesz_vector is not None
    assert report.frame_vector_sigma_bessel > 0
    assert report.parseval_frame_vector is not None
    parseval_cls = classify(lam_z6, report.parseval_frame_vector)
    assert parseval_cls.is_complete_frame and parseval_cls.is_parseval


def test_certify_subpair_infeasible_by_dimension():
    g = cyclic_group(8)
    mu = trivial_multiplier(g)
    f = dft_matrix(8)
    p = f[:, :5] @ f[:, :5].conj().T
    pi, sigma = make_regular_subpair(g, mu, p)
    report = certify_dual_pair(pi, sigma, seed=3)
    assert not report.feasible
    assert report.infeasibility == "dimension"
    assert report.commuting.is_pair  # still a commuting pair
    assert report.frame_vector is not None  # the subrep is a frame representation


def test_certify_subpair_full_projection_feasible():
    g = cyclic_group(8)
    mu = trivial_multiplier(g)
    pi, sigma = make_regular_subpair(g, mu, np.eye(8))
    report = certify_dual_pair(pi, sigma, seed=3)
    assert report.feasible


def test_certify_regular_pair_z8():
    g = cyclic_group(8)
    lam, rho = make_regular_pair(g, trivial_multiplier(g))
    assert certify_dual_pair(lam, rho, seed=1).feasible


def test_certify_rejects_negative_sample_count(lam_z6, rho_z6):
    from framedual import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        certify_dual_pair(lam_z6, rho_z6, n_samples=-1)
    report = certify_dual_pair(lam_z6, rho_z6, n_samples=0)
    assert report.n_samples == 0 and report.frame_vector is None


def test_verify_duality_identity_vector(lam_z6, rho_z6):
    e = np.zeros(6)
    e[0] = 1.0
    verdict = verify_duality(lam_z6, rho_z6, e)
    assert verdict.theorem_consistent
    assert verdict.pi_classification.is_parseval
    assert verdict.sigma_classification.is_orthonormal


def test_verify_duality_partial_support_vector():
    # (1,1,0)/sqrt(2) has nonvanishing DFT, so the regular orbit is a frame
    g = cyclic_group(3)
    mu = trivial_multiplier(g)
    lam, rho = make_regular_pair(g, mu)
    xi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    dft_values = np.fft.fft(xi)
    assert np.abs(dft_values).min() > 0.1  # oracle for completeness
    verdict = verify_duality(lam, rho, xi)
    assert verdict.pi_classification.is_complete_frame
    assert verdict.sigma_classification.is_riesz_sequence
    assert verdict.theorem_consistent


def test_verify_duality_negative_case_consistent():
    pi, sigma = make_gabor_pair(GaborLattice(4, 1, 2))
    verdict = verify_duality(pi, sigma, np.array([1.0, 0.0, 1.0, 0.0]))
    assert not verdict.pi_classification.is_complete_frame
    assert not verdict.sigma_classification.is_riesz_sequence
    assert verdict.clause_results["frame_riesz"] is True


def test_verify_duality_rejects_non_commuting_pair():
    g = from_cayley_table(dihedral_cayley(3), label="D3")
    lam = left_regular(g, trivial_multiplier(g))
    with pytest.raises(InvalidPairError):
        verify_duality(lam, lam, np.ones(6))


def test_verify_duality_clause_failure_on_non_dual_pair():
    # a commuting pair without the Riesz hypothesis can break the frame/Riesz
    # clause; this is exactly why a verdict, like a sweep, asserts it only
    # for dual pairs
    g = cyclic_group(6)
    mu = trivial_multiplier(g)
    f = dft_matrix(6)
    p = f[:, :3] @ f[:, :3].conj().T
    pi, sigma = make_regular_subpair(g, mu, p)
    rng = substream(11, 0)
    xi = random_complex_vector(rng, 3)
    verdict = verify_duality(pi, sigma, xi)
    assert verdict.pi_classification.is_complete_frame
    assert not verdict.sigma_classification.is_riesz_sequence
    assert not sigma.has_riesz_vector
    assert verdict.clause_results == {"frame_sequence": True}
    assert verdict.theorem_consistent


def test_sweep_regular_pair_consistent():
    g = cyclic_group(12)
    mu = trivial_multiplier(g)
    lam, rho = make_regular_pair(g, mu)
    report = duality_sweep(lam, rho, n_vectors=40, seed=5)
    assert report.n_inconsistent == 0
    assert report.clauses == ("frame_sequence", "frame_riesz", "parseval_orthonormal")
    assert report.n_skipped == 1  # the adversarial zero vector
    assert report.parseval_gram_defect < 1e-8
    assert not report.counterexamples


def test_sweep_heisenberg_pair_consistent():
    mu = heisenberg_multiplier(2)
    lam, rho = make_regular_pair(mu.group, mu)
    report = duality_sweep(lam, rho, n_vectors=40, seed=6)
    assert report.n_inconsistent == 0
    assert report.feasible


def test_sweep_infeasible_pair_downgrades_clauses():
    g = cyclic_group(6)
    mu = trivial_multiplier(g)
    f = dft_matrix(6)
    p = f[:, :4] @ f[:, :4].conj().T
    pi, sigma = make_regular_subpair(g, mu, p)
    report = duality_sweep(pi, sigma, n_vectors=20, seed=2)
    assert report.clauses == ("frame_sequence",)
    assert report.n_inconsistent == 0


def test_sweep_gabor_cross_group_uses_scale_free_clauses():
    pi, sigma = make_gabor_pair(GaborLattice(6, 1, 2))
    report = duality_sweep(pi, sigma, n_vectors=30, seed=3)
    assert report.clauses == ("frame_sequence", "frame_riesz")
    assert report.n_inconsistent == 0


def test_sweep_gabor_critical_lattice_all_clauses():
    # critical lattices are self-adjoint, so the strict same-group duality
    # applies, Parseval clause included
    lat = GaborLattice(4, 2, 2)
    assert adjoint_lattice(lat) == lat
    pi, sigma = make_gabor_pair(lat)
    report = duality_sweep(pi, sigma, n_vectors=30, seed=4)
    assert report.clauses == ("frame_sequence", "frame_riesz", "parseval_orthonormal")
    assert report.n_inconsistent == 0
    assert report.parseval_gram_defect < 1e-8


def test_sweep_raises_on_non_commuting():
    g = from_cayley_table(dihedral_cayley(3), label="D3")
    lam = left_regular(g, trivial_multiplier(g))
    with pytest.raises(InvalidPairError):
        duality_sweep(lam, lam, n_vectors=5, seed=1)


def test_gabor_pair_algebra_equality_12_3_2():
    pi, sigma = make_gabor_pair(GaborLattice(12, 3, 2))
    check = is_commuting_pair(pi, sigma)
    assert check.is_pair
    assert check.residual < 1e-8
    # algebra dimensions: (n/a)(n/b) monomials vs a*b monomials
    assert check.pi_commutant_dim == 3 * 2
    assert check.sigma_algebra_dim == 3 * 2


def test_gabor_full_lattice_duality_degenerates():
    # sigma is the trivial group; frame under pi iff the window is nonzero
    pi, sigma = make_gabor_pair(GaborLattice(6, 1, 1))
    assert sigma.group.order == 1
    report = duality_sweep(pi, sigma, n_vectors=20, seed=8)
    assert report.n_inconsistent == 0
    rng = substream(21, 0)
    g = random_complex_vector(rng, 6)
    verdict = verify_duality(pi, sigma, g)
    assert verdict.clause_results["frame_riesz"]
    assert verdict.pi_classification.is_complete_frame
    assert verdict.sigma_classification.is_riesz_sequence


PARSEVAL_LATTICES = [(12, 3, 2), (8, 2, 2), (6, 1, 1), (16, 2, 2), (12, 2, 3), (24, 4, 3)]


@pytest.mark.parametrize("lattice", PARSEVAL_LATTICES)
def test_parseval_windows_satisfy_every_clause(lattice):
    # a complete Parseval window has squared norm dim / |G_pi|, and its
    # adjoint orbit is orthogonal with that norm (Wexler-Raz), not orthonormal
    pi, sigma = make_gabor_pair(GaborLattice(*lattice))
    window = parseval_normalize(pi, random_complex_vector(substream(31, 0), pi.dim))
    verdict = verify_duality(pi, sigma, window)
    assert verdict.pi_classification.is_complete_frame and verdict.pi_classification.is_parseval
    assert verdict.clause_results == {"frame_sequence": True, "frame_riesz": True,
                                      "parseval_orthonormal": True}
    assert verdict.theorem_consistent
    scale = pi.dim / pi.group.order
    assert np.abs(gram_matrix(sigma, window) - scale * np.eye(sigma.group.order)).max() < 1e-13
    # the reported sigma classification is classify's
    assert verdict.sigma_classification == classify(sigma, window)
    assert not verdict.sigma_classification.is_orthonormal


def test_gabor_adjoint_roles_swap():
    lat = GaborLattice(12, 3, 2)
    pi1, sigma1 = make_gabor_pair(lat)
    pi2, sigma2 = make_gabor_pair(adjoint_lattice(lat))
    assert pi2.group == sigma1.group
    assert sigma2.group == pi1.group
    np.testing.assert_allclose(pi2.matrices, sigma1.matrices, atol=1e-12)
    np.testing.assert_allclose(sigma2.matrices, pi1.matrices, atol=1e-12)


def test_gabor_cert_notes_mention_group_gap():
    pi, sigma = make_gabor_pair(GaborLattice(6, 1, 2))
    report = certify_dual_pair(pi, sigma, seed=5)
    assert report.feasible
    assert "index groups differ" in report.notes
