"""Orbit classification from one eigendecomposition of the frame operator,
over blocks of vectors, against the two-eigendecomposition route (frame
operator for the bounds, Gram matrix for the Riesz flag) it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_reps
from framedual import (
    FrameClassification,
    GaborLattice,
    InvalidParameterError,
    adjoint_lattice,
    character_subrep,
    classify,
    classify_block,
    cyclic_group,
    duality_sweep,
    frame_operator,
    gabor_rep,
    gram_matrix,
    heisenberg_multiplier,
    left_regular,
    make_gabor_pair,
    make_regular_pair,
    make_regular_subpair,
    right_regular,
    trivial_multiplier,
    verify_duality,
)
from framedual.duality import adversarial_vectors
from framedual.frames import FLAG_TOL
from framedual.linalg import (
    RANK_TOL,
    dft_matrix,
    hermitian_eig,
    random_complex_vector,
    substream,
)


def oracle_classify(rep, xi, rank_tol=RANK_TOL, flag_tol=FLAG_TOL) -> FrameClassification:
    """The former frames.classify: bounds and span from the spectrum of the
    frame operator, the Riesz flag from the rank of the Gram matrix, and the
    entrywise Gram test for the orthonormal flag on every vector."""
    x = np.asarray(xi, dtype=complex).reshape(-1)
    orbit = rep.matrices @ x
    n = orbit.shape[0]

    s_evals, _ = hermitian_eig(frame_operator(rep, x))
    lam_max = max(float(s_evals[-1]), 0.0)
    nonzero = s_evals[s_evals > rank_tol * lam_max] if lam_max > 0 else s_evals[:0]
    span_dim = int(nonzero.size)
    lower = float(nonzero[0]) if span_dim else 0.0
    upper = float(nonzero[-1]) if span_dim else 0.0

    is_frame_sequence = bool(np.linalg.norm(orbit[rep.group.identity]) > 0.0)
    is_complete = span_dim == rep.dim and is_frame_sequence
    is_parseval = is_frame_sequence and span_dim > 0 and \
        abs(lower - 1.0) <= flag_tol and abs(upper - 1.0) <= flag_tol

    gram = gram_matrix(rep, x)
    g_evals, _ = hermitian_eig(gram)
    g_max = max(float(g_evals[-1]), 0.0)
    gram_rank = int(np.count_nonzero(g_evals > rank_tol * g_max)) if g_max > 0 else 0
    is_riesz = gram_rank == n
    is_orthonormal = bool(np.abs(gram - np.eye(n)).max() < flag_tol)

    return FrameClassification(span_dim, lower, upper, is_complete, is_frame_sequence,
                               is_parseval, is_riesz, is_orthonormal, rank_tol, flag_tol)


def probe_vectors(rep, seed: int) -> np.ndarray:
    """Random draws, the same draws cut down by a projection in the
    commutant (rank-deficient orbits), and the sweep's adversarial set."""
    d = rep.dim
    draws = [random_complex_vector(substream(seed, i), d) for i in range(4)]
    basis = rep.commutant().basis
    k = np.tensordot(random_complex_vector(substream(seed, 99), len(basis)), basis, axes=(0, 0))
    w, v = np.linalg.eigh(k + k.conj().T)
    # a spectral projection of a self-adjoint commutant element commutes with pi
    p = v[:, w > 0] @ v[:, w > 0].conj().T
    projected = [p @ x for x in draws]
    adversarial = [vec for _, vec in adversarial_vectors(rep, seed)]
    return np.stack(draws + projected + adversarial)


def assert_block_matches_oracle(rep, xs):
    block = classify_block(rep, xs)
    for k, x in enumerate(xs):
        # dataclass equality: every flag equal and both bounds bit-equal
        assert block.row(k) == oracle_classify(rep, x), f"row {k}"
        assert classify(rep, x) == block.row(k)


def _fixed_reps():
    z8 = cyclic_group(8)
    mu3 = heisenberg_multiplier(3)
    f = dft_matrix(8)[:, [0, 3, 5]]
    lam_p, rho_p = make_regular_subpair(z8, trivial_multiplier(z8), f @ f.conj().T)
    reps = [left_regular(z8, trivial_multiplier(z8)), right_regular(z8, trivial_multiplier(z8)),
            left_regular(mu3.group, mu3), right_regular(mu3.group, mu3),
            lam_p, rho_p, character_subrep(8, [1, 3, 5])]
    for lattice in (GaborLattice(8, 2, 2), GaborLattice(12, 3, 2), GaborLattice(6, 1, 1)):
        reps += [gabor_rep(lattice), gabor_rep(adjoint_lattice(lattice))]
    return reps


FIXED_REPS = _fixed_reps()


@pytest.mark.parametrize("rep", FIXED_REPS, ids=lambda rep: rep.label)
def test_block_matches_oracle_on_fixed_reps(rep):
    assert_block_matches_oracle(rep, probe_vectors(rep, 3))


@settings(max_examples=30, deadline=None)
@given(random_reps, st.integers(0, 2**32 - 1))
def test_block_matches_oracle_on_random_cocycles(rep, seed):
    assert_block_matches_oracle(rep, probe_vectors(rep, seed))


@settings(max_examples=30, deadline=None)
@given(st.one_of(random_reps, st.sampled_from(FIXED_REPS)), st.integers(0, 2**32 - 1),
       st.booleans())
def test_frame_operator_and_gram_share_nonzero_spectrum(rep, seed, project):
    xs = probe_vectors(rep, seed)
    x = xs[4] if project else xs[0]
    s = np.linalg.eigvalsh(frame_operator(rep, x))
    g = np.linalg.eigvalsh(gram_matrix(rep, x))
    top = max(s.max(), g.max())
    s_nonzero, g_nonzero = s[s > RANK_TOL * top], g[g > RANK_TOL * top]
    assert s_nonzero.size == g_nonzero.size
    np.testing.assert_allclose(s_nonzero, g_nonzero, rtol=0, atol=1e-12 * top)
    assert abs(s.sum() - g.sum()) <= 1e-12 * top * max(s.size, g.size)


def test_block_rejects_wrong_shapes():
    lam = FIXED_REPS[0]
    with pytest.raises(InvalidParameterError):
        classify_block(lam, np.zeros(8))
    with pytest.raises(InvalidParameterError):
        classify_block(lam, np.zeros((3, 7)))
    with pytest.raises(InvalidParameterError):
        classify(lam, np.zeros(7))


def test_orthonormal_implies_riesz_at_loose_flag_tolerance():
    # at flag_tol >= 1/|G| the entrywise Gram test alone would call this
    # rank-deficient orbit orthonormal; the orthonormal flag now requires Riesz
    lam = FIXED_REPS[0]
    x = np.zeros(8, dtype=complex)
    x[:2] = 0.5
    assert oracle_classify(lam, x, flag_tol=1.0).is_orthonormal
    cls = classify(lam, x, flag_tol=1.0)
    assert not cls.is_riesz_sequence and not cls.is_orthonormal


def per_vector_sweep(pi, sigma, report, n_vectors, seed, flag_tol):
    """The sweep as a loop of verify_duality over the same draws."""
    tasks = [(f"random[{i}]", random_complex_vector(substream(seed, i), pi.dim))
             for i in range(n_vectors)] + adversarial_vectors(pi, seed)
    skipped, consistent, defect, counterexamples = 0, 0, 0.0, []
    for source, vec in tasks:
        if np.linalg.norm(vec) == 0.0:
            skipped += 1
            continue
        verdict = verify_duality(pi, sigma, vec, flag_tol=flag_tol, clauses=report.clauses)
        consistent += verdict.theorem_consistent
        if not verdict.theorem_consistent:
            counterexamples.append((source, verdict))
        pc = verdict.pi_classification
        if "parseval_orthonormal" in report.clauses and pc.is_complete_frame and pc.is_parseval:
            gram = gram_matrix(sigma, vec)
            defect = max(defect, float(np.abs(gram - np.eye(sigma.group.order)).max()))
    return skipped, consistent, len(counterexamples), defect, counterexamples


@pytest.mark.parametrize("pair, flag_tol", [
    (make_regular_pair(cyclic_group(4), trivial_multiplier(cyclic_group(4))), FLAG_TOL),
    # a flag tolerance this loose breaks the Parseval clause, so the sweep
    # has counterexamples to report
    (make_regular_pair(cyclic_group(4), trivial_multiplier(cyclic_group(4))), 2.0),
    (make_regular_pair(heisenberg_multiplier(2).group, heisenberg_multiplier(2)), 1.0),
    (make_gabor_pair(GaborLattice(12, 3, 2)), FLAG_TOL),
])
def test_sweep_blocks_match_per_vector_verdicts(pair, flag_tol):
    pi, sigma = pair
    n_vectors = 150  # two full blocks and a partial one
    report = duality_sweep(pi, sigma, n_vectors=n_vectors, seed=11, flag_tol=flag_tol)
    skipped, consistent, inconsistent, defect, counterexamples = \
        per_vector_sweep(pi, sigma, report, n_vectors, 11, flag_tol)
    assert (report.n_skipped, report.n_consistent, report.n_inconsistent) == \
        (skipped, consistent, inconsistent)
    assert report.parseval_gram_defect == defect
    assert [ce.source for ce in report.counterexamples] == [s for s, _ in counterexamples]
    for ce, (_, verdict) in zip(report.counterexamples, counterexamples):
        assert ce.verdict.clause_results == verdict.clause_results
        assert ce.verdict.pi_classification == verdict.pi_classification
        assert ce.verdict.sigma_classification == verdict.sigma_classification
        assert ce.vector.tobytes() == verdict.vector.tobytes()
    if flag_tol > FLAG_TOL:
        assert report.n_inconsistent > 0
