"""Orbit analysis: operators, classification, normalization, dual-route
predicates, dilation, witnesses, and algebra parameterization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_reps
from framedual import (
    GaborLattice,
    InvalidParameterError,
    NoWitnessError,
    analysis_op,
    bessel_parameterize,
    classify,
    classify_block,
    cyclic_group,
    dilate_to_complete,
    frame_operator,
    gabor_rep,
    gram_matrix,
    heisenberg_multiplier,
    left_regular,
    orthogonal_range_witness,
    parseval_normalize,
    pi_orthogonal,
    pi_weakly_equivalent,
    trivial_multiplier,
)
from framedual.frames import _orbits, commutant_orbit, theta_range
from framedual.linalg import (
    dft_matrix,
    random_complex_vector,
    rank_and_range,
    subspace_equal,
    substream,
)


def lam_of(n):
    g = cyclic_group(n)
    return left_regular(g, trivial_multiplier(g))


def chi(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


def test_analysis_identity_orbit():
    np.testing.assert_allclose(analysis_op(lam_of(3), chi(3, 0)), np.eye(3),
                               atol=1e-14)


def test_analysis_zero_vector():
    np.testing.assert_allclose(analysis_op(lam_of(3), np.zeros(3)),
                               np.zeros((3, 3)))


def test_analysis_dimension_mismatch():
    with pytest.raises(InvalidParameterError):
        analysis_op(lam_of(3), np.ones(4))


def test_intertwining_with_left_regular():
    # Theta_xi pi(g) = lambda(g) Theta_xi, for ordinary and twisted cocycles
    for mu in (trivial_multiplier(cyclic_group(6)), heisenberg_multiplier(2)):
        lam = left_regular(mu.group, mu)
        rng = substream(71, mu.group.order)
        for _ in range(20):
            xi = random_complex_vector(rng, lam.dim)
            theta = analysis_op(lam, xi)
            worst = max(
                np.abs(theta @ lam.matrices[g] - lam.matrices[g] @ theta).max()
                for g in range(mu.group.order)
            )
            assert worst < 1e-9


def test_frame_operator_orthonormal_orbit():
    lam = lam_of(5)
    np.testing.assert_allclose(frame_operator(lam, chi(5, 0)), np.eye(5), atol=1e-12)
    np.testing.assert_allclose(gram_matrix(lam, chi(5, 0)), np.eye(5), atol=1e-12)


def test_frame_operator_two_term_hand_oracle():
    # lambda(Z2), xi = (1,1): S = 2 xi xi^*, eigenvalues (0, 4)
    lam = lam_of(2)
    xi = np.array([1.0, 1.0])
    s = frame_operator(lam, xi)
    np.testing.assert_allclose(s, [[2, 2], [2, 2]], atol=1e-12)
    cls = classify(lam, xi)
    assert cls.orbit_span_dim == 1
    assert cls.lower_bound == pytest.approx(4.0)
    assert cls.upper_bound == pytest.approx(4.0)
    assert cls.is_frame_sequence and not cls.is_complete_frame
    assert not cls.is_riesz_sequence  # the two orbit vectors coincide


def test_frame_operator_commutes_with_rep():
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    rng = substream(73, 0)
    xi = random_complex_vector(rng, 4)
    s = frame_operator(lam, xi)
    worst = max(np.abs(s @ m - m @ s).max() for m in lam.matrices)
    assert worst < 1e-10


def test_gram_commutes_with_left_regular():
    # the Gram matrix lives on the coefficient side and commutes with the
    # left regular image there
    mu = heisenberg_multiplier(2)
    pi = left_regular(mu.group, mu)
    lam_coeff = left_regular(mu.group, mu)
    rng = substream(74, 0)
    for _ in range(5):
        xi = random_complex_vector(rng, pi.dim)
        gram = gram_matrix(pi, xi)
        worst = max(np.abs(gram @ m - m @ gram).max() for m in lam_coeff.matrices)
        assert worst < 1e-10


def test_classify_orthonormal_basis_orbit():
    cls = classify(lam_of(6), chi(6, 0))
    assert cls.is_complete_frame and cls.is_parseval
    assert cls.is_riesz_sequence and cls.is_orthonormal
    assert cls.lower_bound == pytest.approx(1.0)
    assert cls.upper_bound == pytest.approx(1.0)


def test_classify_zero_vector():
    cls = classify(lam_of(4), np.zeros(4))
    assert not cls.is_frame_sequence and not cls.is_complete_frame
    assert not cls.is_riesz_sequence and not cls.is_orthonormal
    assert cls.orbit_span_dim == 0


def test_classify_degenerate_gabor_window():
    rep = gabor_rep(GaborLattice(4, 1, 2))
    cls = classify(rep, np.array([1.0, 0.0, 1.0, 0.0]))
    assert not cls.is_complete_frame
    assert cls.orbit_span_dim < 4


def test_classify_flag_consistency_random():
    reps = [lam_of(4), gabor_rep(GaborLattice(6, 2, 3)),
            left_regular(heisenberg_multiplier(2).group, heisenberg_multiplier(2))]
    rng = substream(79, 0)
    for rep in reps:
        for _ in range(30):
            cls = classify(rep, random_complex_vector(rng, rep.dim))
            assert cls.lower_bound <= cls.upper_bound + 1e-12
            if cls.is_orthonormal:
                assert cls.is_riesz_sequence
            if cls.is_complete_frame:
                assert cls.is_frame_sequence
            if cls.is_parseval:
                assert abs(cls.lower_bound - 1) <= cls.flag_tolerance
                assert abs(cls.upper_bound - 1) <= cls.flag_tolerance


def test_parseval_normalize_scaled_basis_vector():
    lam = lam_of(3)
    out = parseval_normalize(lam, 2.0 * chi(3, 0))
    np.testing.assert_allclose(out, chi(3, 0), atol=1e-12)


def test_parseval_normalize_keeps_orthonormal_orbit_vector():
    # flat-spectrum vectors have orthonormal regular orbits and stay fixed
    lam = lam_of(4)
    rng = substream(151, 0)
    phases = np.exp(2j * np.pi * rng.random(4))
    xi = dft_matrix(4) @ (phases / 2.0)
    np.testing.assert_allclose(gram_matrix(lam, xi), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(parseval_normalize(lam, xi), xi, atol=1e-12)


def test_parseval_normalize_projects_to_span_projection():
    rep = gabor_rep(GaborLattice(6, 1, 2))
    rng = substream(83, 0)
    for _ in range(10):
        xi = random_complex_vector(rng, 6)
        eta = parseval_normalize(rep, xi)
        s = frame_operator(rep, eta)
        orbit_cols = (rep.matrices @ xi).T
        proj = rank_and_range(orbit_cols)[1].projector()
        assert np.abs(s - proj).max() < 1e-9
        new_cols = (rep.matrices @ eta).T
        assert subspace_equal(rank_and_range(orbit_cols)[1], rank_and_range(new_cols)[1])


def test_parseval_normalize_is_scale_free():
    # a frame operator of a vector this small underflows to zero; S^-1/2 x
    # does not depend on the scale of x
    lam = lam_of(4)
    for tiny in (1e-170, 5e-324):
        assert np.array_equal(parseval_normalize(lam, tiny * chi(4, 0)), chi(4, 0))
        result = dilate_to_complete(lam, tiny * chi(4, 0), mode="parseval")
        assert np.array_equal(result.vector, chi(4, 0))
    rep = gabor_rep(GaborLattice(6, 1, 2))
    xi = random_complex_vector(substream(84, 0), 6)
    np.testing.assert_allclose(parseval_normalize(rep, np.ldexp(1.0, -900) * xi),
                               parseval_normalize(rep, xi), rtol=0, atol=1e-12)


def test_parseval_normalize_rejects_zero():
    with pytest.raises(InvalidParameterError):
        parseval_normalize(lam_of(3), np.zeros(3))


def test_pi_orthogonal_dft_split():
    lam = lam_of(2)
    f = dft_matrix(2)
    assert pi_orthogonal(lam, f[:, 0], f[:, 1])
    assert not pi_weakly_equivalent(lam, f[:, 0], f[:, 1])


def test_pi_predicates_on_equal_vectors():
    lam = lam_of(4)
    x = random_complex_vector(substream(89, 0), 4)
    assert pi_weakly_equivalent(lam, x, x)
    assert not pi_orthogonal(lam, x, x)


def test_pi_weak_equivalence_under_invertible_commutant_element():
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    comm = lam.commutant()
    rng = substream(97, 0)
    for _ in range(10):
        x = random_complex_vector(rng, 4)
        coeff = rng.standard_normal(comm.dim) + 1j * rng.standard_normal(comm.dim)
        a = np.tensordot(coeff, comm.basis, axes=(0, 0)) + 2.0 * np.eye(4)
        if abs(np.linalg.det(a)) < 1e-6:
            continue
        assert pi_weakly_equivalent(lam, x, a @ x)


def test_pi_predicates_route_agreement_random():
    # both routes agree on random pairs (the check raises on disagreement)
    reps = [lam_of(4), left_regular(heisenberg_multiplier(2).group,
                                    heisenberg_multiplier(2))]
    for rep in reps:
        rng = substream(101, rep.dim)
        for _ in range(100):
            x = random_complex_vector(rng, rep.dim)
            y = random_complex_vector(rng, rep.dim)
            pi_orthogonal(rep, x, y)
            pi_weakly_equivalent(rep, x, y)


def test_pi_predicates_structured_frequency_splits():
    # commutant orbits under the cyclic regular representation are exactly
    # the spectral-support subspaces, so frequency splits drive all regimes
    lam = lam_of(6)
    f = dft_matrix(6)
    x = f[:, [0, 2]] @ np.array([1.0, 2.0j])   # support {0, 2}
    y = f[:, [1, 4]] @ np.array([1.0, -1.0])   # disjoint support
    z = f[:, [0, 2]] @ np.array([3.0, 1.0])    # same support as x
    w = f[:, [0, 1]] @ np.array([1.0, 1.0])    # straddles both
    assert pi_orthogonal(lam, x, y)
    assert not pi_weakly_equivalent(lam, x, y)
    assert pi_weakly_equivalent(lam, x, z)
    assert not pi_orthogonal(lam, x, z)
    assert not pi_orthogonal(lam, x, w)
    assert not pi_weakly_equivalent(lam, x, w)


def test_pi_predicates_on_subrepresentation():
    from framedual import subrepresentation
    lam = lam_of(8)
    f = dft_matrix(8)
    p = f[:, :4] @ f[:, :4].conj().T
    sub = subrepresentation(lam, p)
    rng = substream(131, 0)
    for _ in range(20):
        x = random_complex_vector(rng, 4)
        y = random_complex_vector(rng, 4)
        pi_orthogonal(sub, x, y)        # raises on route disagreement
        pi_weakly_equivalent(sub, x, y)


def test_pi_orthogonal_zero_vector_edge():
    lam = lam_of(3)
    x = random_complex_vector(substream(103, 0), 3)
    assert pi_orthogonal(lam, np.zeros(3), x)
    assert not pi_weakly_equivalent(lam, np.zeros(3), x)
    assert pi_weakly_equivalent(lam, np.zeros(3), np.zeros(3))


def test_dilate_accepts_already_complete():
    lam = lam_of(4)
    res = dilate_to_complete(lam, chi(4, 0), seed=2)
    assert res.tries == 0
    np.testing.assert_allclose(res.h, np.zeros(4))


def test_negative_tries_rejected():
    lam = lam_of(4)
    with pytest.raises(InvalidParameterError):
        dilate_to_complete(lam, chi(4, 0), max_tries=-1)
    with pytest.raises(InvalidParameterError):
        bessel_parameterize(lam, chi(4, 0), chi(4, 0), max_tries=-1)
    assert dilate_to_complete(lam, chi(4, 0), max_tries=0).tries == 0


def test_exhausted_searches_raise_search_exhausted():
    from framedual import (CompletionExhaustedError, ConstructionFailureError,
                           ParameterizationError, SearchExhaustedError)
    lam = lam_of(8)
    deficient = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=complex)
    with pytest.raises(SearchExhaustedError, match="dilation failed after 0 tries") as info:
        dilate_to_complete(lam, deficient, max_tries=0)
    assert isinstance(info.value, ConstructionFailureError)
    assert dilate_to_complete(lam, deficient).tries >= 1
    # on the Gabor (4,1,2) rep the least-squares solution and the canonical
    # partial isometry are not unitary, so a random completion is needed
    pi = gabor_rep(GaborLattice(4, 1, 2))
    xi = parseval_normalize(pi, random_complex_vector(substream(7, 0), 4))
    eta = random_complex_vector(substream(9, 0), 4)
    with pytest.raises(CompletionExhaustedError, match="after 0 completions") as info:
        bessel_parameterize(pi, xi, eta, max_tries=0)
    assert isinstance(info.value, SearchExhaustedError)
    assert isinstance(info.value, ParameterizationError)
    bessel_parameterize(pi, xi, eta)


def test_dilate_frame_mode_dft_projection():
    lam = lam_of(4)
    f = dft_matrix(4)
    p = f[:, :2] @ f[:, :2].conj().T
    eta = p @ random_complex_vector(substream(107, 0), 4)
    res = dilate_to_complete(lam, eta, seed=9)
    assert pi_orthogonal(lam, res.vector, res.h)
    assert classify(lam, res.vector + res.h).is_complete_frame


@settings(max_examples=20, deadline=None)
@given(random_reps, st.integers(0, 2**32 - 1), st.sampled_from(["frame", "parseval"]))
def test_dilate_on_random_cocycles(rep, seed, mode):
    # eta = P z for a spectral projection P of a random self-adjoint element
    # of the commutant, cut between its extreme eigenvalues so that P != 0;
    # the result is checked from the orbit matrices, not through the library
    basis = rep.commutant().basis
    coeff = random_complex_vector(substream(seed, 0), len(basis))
    k = np.tensordot(coeff, basis, axes=(0, 0))
    w, v = np.linalg.eigh(k + k.conj().T)
    top = v[:, w > (w[0] + w[-1]) / 2]
    eta = top @ (top.conj().T @ random_complex_vector(substream(seed, 1), rep.dim))
    res = dilate_to_complete(rep, eta, mode=mode, seed=seed)
    if mode == "frame":
        np.testing.assert_array_equal(res.vector, eta)
    orbit_base, orbit_h = rep.matrices @ res.vector, rep.matrices @ res.h
    cross = np.linalg.norm(orbit_base.T @ orbit_h.conj())
    scale = np.linalg.norm(orbit_base) * max(np.linalg.norm(orbit_h), 1.0)
    assert cross <= 1e-7 * scale
    target = rep.matrices @ (res.vector + res.h)
    s = target.T @ target.conj()
    evals = np.linalg.eigvalsh(s)
    assert evals[0] > 1e-9 * evals[-1]
    if mode == "parseval":
        assert np.abs(s - np.eye(rep.dim)).max() <= 1e-8


def test_dilate_parseval_mode_two_dims():
    # lambda(Z2), eta = f0: h must be a unimodular multiple of f1 and the sum
    # must have identity frame operator
    lam = lam_of(2)
    f = dft_matrix(2)
    res = dilate_to_complete(lam, f[:, 0], mode="parseval", seed=4)
    s = frame_operator(lam, res.vector + res.h)
    np.testing.assert_allclose(s, np.eye(2), atol=1e-8)
    overlap = abs(np.vdot(f[:, 1], res.h))
    assert overlap == pytest.approx(np.linalg.norm(res.h), abs=1e-10)
    assert np.linalg.norm(res.h) == pytest.approx(1 / np.sqrt(2), abs=1e-8)


def test_dilate_rejects_zero_and_non_frame_rep():
    lam = lam_of(3)
    with pytest.raises(InvalidParameterError):
        dilate_to_complete(lam, np.zeros(3))
    # Z2 acting trivially on C^2: every orbit spans one dimension, so no
    # complete frame vector exists and dilation must refuse
    from framedual import ProjectiveRep, character_subrep
    base = character_subrep(2, [0])
    doubled = ProjectiveRep(base.group, base.multiplier,
                            np.stack([np.eye(2, dtype=complex)] * 2))
    with pytest.raises(InvalidParameterError):
        dilate_to_complete(doubled, np.array([1.0, 0.0]), seed=1)


def test_witness_two_dim_case():
    lam = lam_of(2)
    f = dft_matrix(2)
    x = orthogonal_range_witness(lam, f[:, 0], chi(2, 0))
    assert np.linalg.norm(x) > 0
    assert abs(np.vdot(f[:, 1], x)) == pytest.approx(np.linalg.norm(x), abs=1e-12)
    assert pi_orthogonal(lam, x, f[:, 0])


def test_witness_requires_deficient_range():
    lam = lam_of(3)
    generic = random_complex_vector(substream(109, 0), 3)
    assert classify(lam, generic).is_complete_frame
    with pytest.raises(NoWitnessError):
        orthogonal_range_witness(lam, generic, chi(3, 0))


def test_witness_requires_riesz_eta():
    lam = lam_of(2)
    f = dft_matrix(2)
    with pytest.raises(InvalidParameterError):
        orthogonal_range_witness(lam, f[:, 0], f[:, 1])  # f1-orbit is not Riesz


@pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-8])
def test_classification_and_analysis_range_share_the_zero_cut(delta):
    # the orbit's energies along the DFT basis are 1, 1, 1, delta^2: the
    # eigenvalue route and the singular-value routes must cut the same one
    lam = lam_of(4)
    x = np.linalg.solve(np.fft.fft(np.eye(4)) / 2, np.array([1, 1, 1, delta]))
    assert classify(lam, x).orbit_span_dim == 3
    assert theta_range(lam, x).dim == 3 and commutant_orbit(lam, x).dim == 3
    w = orthogonal_range_witness(lam, x, chi(4, 0))
    assert np.any(w) and pi_orthogonal(lam, w, x)


def test_witness_does_not_depend_on_the_scale_of_the_riesz_vector():
    lam = lam_of(4)
    xi = np.array([1, 1, 0, 0], dtype=complex)
    w = orthogonal_range_witness(lam, xi, 1e12 * chi(4, 0))
    assert np.any(w) and pi_orthogonal(lam, w, xi)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_non_finite_vector_entry_is_invalid_input(entry):
    # rejected before any arithmetic: a warning would fail this suite
    lam = lam_of(4)
    x = np.array([entry, 1, 0, 0], dtype=complex)
    calls = [classify, frame_operator, gram_matrix, analysis_op, parseval_normalize,
             theta_range, commutant_orbit, dilate_to_complete,
             lambda rep, v: orthogonal_range_witness(rep, v, chi(4, 0)),
             lambda rep, v: bessel_parameterize(rep, chi(4, 0), v),
             lambda rep, v: classify_block(rep, np.stack([chi(4, 0), v]))]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="must be finite"):
            call(lam, x)


def test_orbit_block_rows_are_single_vector_orbits():
    lam = lam_of(6)
    xs = np.stack([random_complex_vector(substream(31, i), 6) for i in range(5)])
    for ops in (lam.matrices, lam.commutant().basis, lam.algebra().basis):
        block = _orbits(ops, xs)
        assert block.shape == (5, ops.shape[0], 6)
        for k in range(5):
            np.testing.assert_array_equal(block[k], _orbits(ops, xs[k]))
            np.testing.assert_allclose(block[k], ops @ xs[k], rtol=0, atol=1e-14)
    with pytest.raises(InvalidParameterError, match="does not match"):
        _orbits(lam.matrices, np.zeros(5))


def test_witness_perp_to_commutant_orbit_of_target():
    # route-2 phrasing: the witness is orthogonal to the commutant orbit
    lam = lam_of(4)
    f = dft_matrix(4)
    xi = f[:, :2] @ np.array([1.0, 2.0], dtype=complex)  # deficient analysis range
    x = orthogonal_range_witness(lam, xi, chi(4, 0))
    comm = lam.commutant()
    overlaps = np.abs(np.array([np.vdot(b @ xi, x) for b in comm.basis]))
    assert overlaps.max() < 1e-10


def test_bessel_parameterize_identity_case():
    lam = lam_of(4)
    a = bessel_parameterize(lam, chi(4, 0), chi(4, 0))
    np.testing.assert_allclose(a, np.eye(4), atol=1e-10)


def test_bessel_parameterize_group_element():
    mu = heisenberg_multiplier(2)
    lam = left_regular(mu.group, mu)
    xi = chi(4, mu.group.identity)
    eta = lam.matrices[3] @ xi
    a = bessel_parameterize(lam, xi, eta)
    assert np.linalg.norm(a @ xi - eta) < 1e-9
    np.testing.assert_allclose(a, lam.matrices[3], atol=1e-9)


def test_bessel_parameterize_circulant_oracle():
    lam = lam_of(4)
    rng = substream(113, 0)
    for _ in range(5):
        eta = random_complex_vector(rng, 4)
        a = bessel_parameterize(lam, chi(4, 0), eta)
        circulant = sum(eta[k] * lam.matrices[k] for k in range(4))
        np.testing.assert_allclose(a, circulant, atol=1e-9)
        unitary_defect = np.abs(a.conj().T @ a - np.eye(4)).max()
        is_parseval = classify(lam, eta).is_parseval and \
            classify(lam, eta).is_complete_frame
        assert (unitary_defect < 1e-8) == is_parseval


def test_bessel_parameterize_flags_bad_base_vector():
    # a DFT column has a one-dimensional regular orbit, so no circulant can
    # map it onto a generic target and the residual gate must fire
    from framedual import ParameterizationError
    lam = lam_of(3)
    deficient = dft_matrix(3)[:, 0]
    eta = random_complex_vector(substream(127, 1), 3)
    with pytest.raises(ParameterizationError):
        bessel_parameterize(lam, deficient, eta)
