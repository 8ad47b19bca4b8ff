"""Orbit classification from one eigendecomposition of the frame operator,
over blocks of vectors, against the two-eigendecomposition route (frame
operator for the bounds, Gram matrix for the Riesz flag) it replaced; the
flags-only route of sweeps (a rank certificate on gathered or dense orbits,
eigh where it stands aside) against classify_block; and classification
under power-of-two scaling."""

import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_monomial_reps, random_reps, unbuilt
from framedual import (
    FrameClassification,
    GaborLattice,
    InvalidParameterError,
    ProjectiveRep,
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
    serialize,
    trivial_multiplier,
    verify_duality,
)
import framedual.duality as duality_module
import framedual.frames as frames_module
import framedual.linalg as linalg_module
import framedual.reps as reps_module
from framedual.duality import adversarial_vectors
from framedual.frames import (
    FLAG_TOL,
    OrbitFlags,
    _gathered_orbits,
    _orbit_flags,
    _orbits,
    _scaled_block,
    _scaled_flags,
    analysis_op,
    parseval_normalize,
)
from framedual.linalg import (
    RANK_TOL,
    dft_matrix,
    full_rank_certificate,
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
    """The sweep as a loop of verify_duality over the same draws, each
    verdict cut down to the clauses the sweep selected."""
    tasks = [(f"random[{i}]", random_complex_vector(substream(seed, i), pi.dim))
             for i in range(n_vectors)] + adversarial_vectors(pi, seed)
    skipped, consistent, defect, counterexamples = 0, 0, 0.0, []
    for source, vec in tasks:
        if np.linalg.norm(vec) == 0.0:
            skipped += 1
            continue
        verdict = verify_duality(pi, sigma, vec, flag_tol=flag_tol)
        clause_results = {name: verdict.clause_results[name] for name in report.clauses}
        verdict = replace(verdict, clause_results=clause_results,
                          theorem_consistent=all(clause_results.values()))
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
    n_vectors = 150  # two full blocks of the Gabor pair's 64 rows and a partial one
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


# --- the flags-only route of sweeps ------------------------------------------

CUT_RATIOS = (0.5, 1.0, 2.0, 4.0)       # lambda_min / lambda_max in units of rank_tol
WINDOW_STEPS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)   # frame bound - 1 in units of flag_tol


def decision_point_vectors(rep, seed: int) -> np.ndarray:
    """Vectors whose orbits sit at the two cuts the certificate must respect.

    x0 is a Parseval-normalized draw, so its frame operator S0 is the
    projection onto its orbit span.  Q, a spectral projection of
    S0 (K + K*) S0 for a commutant element K, commutes with pi and lies
    under S0; so x0 - (1 - s) Q x0 has nonzero frame spectrum {1, s^2}, and
    s^2 is put at CUT_RATIOS times rank_tol.  The scaled copies of x0 have
    frame bounds 1 + c flag_tol for c in WINDOW_STEPS.
    """
    x0 = parseval_normalize(rep, random_complex_vector(substream(seed, 7), rep.dim))
    s0 = frame_operator(rep, x0)
    basis = rep.commutant().basis
    k = np.tensordot(random_complex_vector(substream(seed, 98), len(basis)), basis, axes=(0, 0))
    w, v = np.linalg.eigh(s0 @ (k + k.conj().T) @ s0)
    top = v[:, w > 1e-8 * np.abs(w).max()]
    q_x0 = top @ (top.conj().T @ x0)
    at_cut = [x0 - (1.0 - np.sqrt(r * RANK_TOL)) * q_x0 for r in CUT_RATIOS]
    at_window = [np.sqrt(1.0 + c * FLAG_TOL) * x0 for c in WINDOW_STEPS]
    return np.stack(at_cut + at_window)


def assert_flags_match_classify_block(rep, xs):
    """_orbit_flags against classify_block on the whole block and on every
    row as a block of one, so that the certificate meets each row alone."""
    for block in [xs] + [x[None] for x in xs]:
        flags, reference = _orbit_flags(rep, block), classify_block(rep, block)
        for f in fields(OrbitFlags):
            np.testing.assert_array_equal(getattr(flags, f.name),
                                          getattr(reference, f.name), err_msg=f.name)


@settings(max_examples=30, deadline=None)
@given(st.one_of(random_reps, st.sampled_from(FIXED_REPS)), st.integers(0, 2**32 - 1))
def test_orbit_flags_match_classify_block(rep, seed):
    xs = np.concatenate([probe_vectors(rep, seed), decision_point_vectors(rep, seed)])
    assert_flags_match_classify_block(rep, xs)
    # random draws are decided by the certificate, not handed to eigh
    draws = xs[:4]
    assert full_rank_certificate(np.stack([analysis_op(rep, x) for x in draws])) is not None


@pytest.mark.parametrize("ratio", CUT_RATIOS)
def test_orbit_flags_at_the_rank_cut_of_z8(ratio):
    # lambda(Z8) with x = DFT^-1 (1, ..., 1, delta): the frame operator's
    # eigenvalues are 8 |x_hat|^2, so lambda_min / lambda_max = delta^2
    lam, rho = FIXED_REPS[0], FIXED_REPS[1]
    x_hat = np.ones(8, dtype=complex)
    x_hat[-1] = np.sqrt(ratio * RANK_TOL)
    x = dft_matrix(8).conj().T @ x_hat
    for rep in (lam, rho):
        assert_flags_match_classify_block(rep, x[None])
    if ratio != 1.0:  # at the cut itself roundoff decides
        assert classify(lam, x).orbit_span_dim == (8 if ratio > 1.0 else 7)


def counting_eigh(monkeypatch):
    """Replace hermitian_eig wherever framedual holds it; the returned list
    collects the shape of every call."""
    calls = []
    original = frames_module.hermitian_eig

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    for module in (frames_module, linalg_module, reps_module):
        monkeypatch.setattr(module, "hermitian_eig", counted)
    return calls


def test_sweep_runs_eigh_only_on_the_adversarial_block_and_the_searches(monkeypatch):
    lam, rho = FIXED_REPS[0], FIXED_REPS[1]
    calls = counting_eigh(monkeypatch)
    empty = duality_sweep(lam, rho, n_vectors=0, seed=4)
    without_draws = list(calls)
    calls.clear()
    report = duality_sweep(lam, rho, n_vectors=640, seed=4)
    assert (report.n_consistent, report.n_inconsistent) == (empty.n_consistent + 640, 0)
    assert calls == without_draws


def forcing_failures(monkeypatch, forced) -> list:
    """Make a sweep's frame_sequence clause fail on the random draws whose
    indices are in forced, whatever blocks they fall in; the returned list
    collects the draw indices of each block of random draws."""
    clause_results = duality_module._clause_results
    draw_block = duality_module.random_complex_block
    random_blocks = []
    current = []  # the draw indices of the block being decided, if random

    def recorded_draws(seed, rows, n):
        random_blocks.append(rows)
        current[:] = [rows]
        return draw_block(seed, rows, n)

    def with_forced_failures(pc, sc, clauses):
        results = clause_results(pc, sc, clauses)
        if current:
            results["frame_sequence"] = results["frame_sequence"] & \
                ~np.isin(current.pop(), forced)
        return results

    monkeypatch.setattr(duality_module, "random_complex_block", recorded_draws)
    monkeypatch.setattr(duality_module, "_clause_results", with_forced_failures)
    return random_blocks


def test_counterexample_rows_of_a_certified_block_are_classify_rows(monkeypatch):
    # force two counterexamples among the blocks of random draws; each block
    # itself is decided by the certificate, so only the two rows meet
    # classify_block
    lam, rho = FIXED_REPS[0], FIXED_REPS[1]
    forced = [5, 40]
    random_blocks = forcing_failures(monkeypatch, forced)
    blocks_classified = []
    classify_orbits = frames_module._classify_orbits

    def recorded(rep, orbits, *args):
        blocks_classified.append(len(orbits))
        return classify_orbits(rep, orbits, *args)

    monkeypatch.setattr(frames_module, "_classify_orbits", recorded)
    report = duality_sweep(lam, rho, n_vectors=100, seed=6)
    assert [ce.source for ce in report.counterexamples] == ["random[5]", "random[40]"]
    # the pi and sigma rows of the two counterexamples
    assert blocks_classified.count(len(forced)) == 2
    assert not {len(rows) for rows in random_blocks} & set(blocks_classified)
    draws = np.stack([random_complex_vector(substream(6, i), 8) for i in range(64)])
    for ce, k in zip(report.counterexamples, forced):
        assert ce.vector.tobytes() == draws[k].tobytes()
        for rep, cls in ((lam, ce.verdict.pi_classification),
                         (rho, ce.verdict.sigma_classification)):
            # == compares both bounds bit for bit
            assert cls == classify(rep, draws[k])
            assert cls == classify_block(rep, draws).row(k)


# --- the certificate on gathered monomial orbits ------------------------------

MONOMIAL_FIXED_REPS = [rep for rep in FIXED_REPS if rep.perm is not None]


def assert_certified_flags_are_classify_flags(rep, xs) -> int:
    """_orbit_flags on an unbuilt copy of rep, for the whole block and every
    row alone: the dense stack stays unbuilt, a block the certificates
    decide has classify_block's flags on the dense orbits, and any row they
    leave reaches eigh on an orbit bit-equal to the dense product, formed on
    another copy.  Returns the number of blocks
    the certificate decided."""
    decided = 0
    for block in [xs] + [x[None] for x in xs]:
        copy = unbuilt(rep)
        fallbacks = []
        classify_orbits = frames_module._classify_orbits
        with pytest.MonkeyPatch.context() as m:
            m.setattr(frames_module, "_classify_orbits",
                      lambda r, orbits, *args: fallbacks.append(orbits.copy())
                      or classify_orbits(r, orbits, *args))
            flags = _orbit_flags(copy, block)
        assert "matrices" not in vars(copy)
        # the rows no certificate decides reach eigh on their dense orbits
        dense = _orbits(unbuilt(rep).matrices, _scaled_block(rep, block)[0])
        rows = {orbit.tobytes() for orbit in dense}
        for orbits in fallbacks:
            assert all(orbit.tobytes() in rows for orbit in orbits)
        decided += not fallbacks
        reference = classify_block(rep, block)
        for f in fields(OrbitFlags):
            np.testing.assert_array_equal(getattr(flags, f.name),
                                          getattr(reference, f.name), err_msg=f.name)
    return decided


@settings(max_examples=30, deadline=None)
@given(st.one_of(random_monomial_reps, st.sampled_from(MONOMIAL_FIXED_REPS)),
       st.integers(0, 2**32 - 1))
def test_certificate_on_gathered_orbits_decides_as_classify_block(rep, seed):
    # blocks at the rank cut (lambda_min / lambda_max at 0.5 to 4 rank_tol)
    # and at the Parseval window, beside draws and the adversarial set
    xs = np.concatenate([probe_vectors(rep, seed), decision_point_vectors(rep, seed)])
    # the draws alone are decided by the certificate
    assert assert_certified_flags_are_classify_flags(rep, xs) >= 4
    # the orbit gap the certificate allows for: (dim + 3) eps of each entry
    gathered = _gathered_orbits(rep, xs, np.empty((len(xs), rep.group.order, rep.dim),
                                                  dtype=complex))
    dense = _orbits(rep.matrices, xs)
    gap = (rep.dim + 3) * np.finfo(float).eps * np.abs(dense)
    assert np.all(np.abs(gathered - dense) <= gap)


# --- scale -------------------------------------------------------------------

def times_power_of_two(x, k: int) -> np.ndarray:
    """2^k x, part by part, so that no power of two is formed."""
    return np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k)


def tight_at_a_power_of_four(cls) -> bool:
    """Both bounds within 1e-6 of one power of four: then some 2^k x is
    Parseval, or orthonormal, and those flags depend on the scale."""
    j = round(np.log(cls.upper_bound) / np.log(4.0))
    return cls.upper_bound <= cls.lower_bound * (1 + 1e-6) and \
        abs(cls.upper_bound / 4.0 ** j - 1.0) < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_reps, st.sampled_from(FIXED_REPS)), st.data())
def test_classification_is_scale_free(rep, data):
    # entries of at most 11 significant bits, so 2^k x is exact down to the
    # last subnormal, k = -1074
    parts = st.lists(st.integers(-1024, 1024), min_size=rep.dim, max_size=rep.dim)
    x = np.array(data.draw(parts)) + 1j * np.array(data.draw(parts))
    assume(np.any(x != 0))
    reference = classify(rep, x)
    assume(not tight_at_a_power_of_four(reference))
    # up to entries of 2^200; past a largest frame-operator entry of 2^485
    # eigh rescales by a factor that is not a power of two
    top = int(np.frexp(np.abs(x).max())[1])
    k = data.draw(st.integers(-1074, 200 - top), label="k")
    y = times_power_of_two(x, k)
    assert np.array_equal(times_power_of_two(y, -k), x)
    got = classify(rep, y)
    flags = _orbit_flags(rep, y[None])
    for f in fields(OrbitFlags):
        assert getattr(got, f.name) == getattr(reference, f.name), f.name
        assert getattr(flags, f.name)[0] == getattr(reference, f.name), f.name
    assert got.orbit_span_dim == reference.orbit_span_dim
    # exactly 4^k times the bounds, rounded once where that underflows
    assert got.lower_bound == np.ldexp(reference.lower_bound, 2 * k)
    assert got.upper_bound == np.ldexp(reference.upper_bound, 2 * k)


def test_tiny_vectors_keep_their_orbit():
    lam = left_regular(cyclic_group(4), trivial_multiplier(cyclic_group(4)))
    for tiny, bound in ((1e-160, 1e-160 ** 2), (1e-170, 0.0), (5e-324, 0.0)):
        cls = classify(lam, [tiny, 0, 0, 0])
        assert cls.orbit_span_dim == 4
        assert cls.is_frame_sequence and cls.is_complete_frame and cls.is_riesz_sequence
        assert not cls.is_parseval and not cls.is_orthonormal
        assert cls.lower_bound == cls.upper_bound == bound
        flags = _orbit_flags(lam, np.array([[tiny, 0, 0, 0]]))
        assert flags.is_complete_frame[0] and flags.is_riesz_sequence[0]
    # past flag_tol 1 a tiny orbit is Parseval and orthonormal: its own
    # bounds decide, not those of its scaled copy, which the certificate
    # would rule out of the window
    z8 = FIXED_REPS[0]
    phases = np.exp(1j * np.angle(random_complex_vector(substream(3, 0), 8)))
    xs = np.ldexp(0.95, -600) * phases[None]
    reference = classify_block(z8, xs, flag_tol=2.0)
    assert reference.is_parseval[0] and reference.is_orthonormal[0]
    flags = _orbit_flags(z8, xs, flag_tol=2.0)
    for f in fields(OrbitFlags):
        np.testing.assert_array_equal(getattr(flags, f.name), getattr(reference, f.name))


# --- the byte budget of sweeps -------------------------------------------------

DEFAULT_BUDGET = duality_module.SWEEP_BYTES


def dense_copy(rep):
    """rep stored as a dense stack, as a custom bundle is."""
    return ProjectiveRep(rep.group, rep.multiplier, rep.matrices, label=f"dense {rep.label}")


BUDGET_PAIRS = {
    "regular Z4": lambda: make_regular_pair(cyclic_group(4), trivial_multiplier(cyclic_group(4))),
    "heisenberg Z3xZ3": lambda: make_regular_pair(heisenberg_multiplier(3).group,
                                                  heisenberg_multiplier(3)),
    "gabor (12,3,2)": lambda: make_gabor_pair(GaborLattice(12, 3, 2)),
    "dense regular Z6": lambda: tuple(dense_copy(rep) for rep in make_regular_pair(
        cyclic_group(6), trivial_multiplier(cyclic_group(6)))),
}


@pytest.mark.parametrize("name, flag_tol, forced", [
    (name, FLAG_TOL, [3, 50]) for name in BUDGET_PAIRS
] + [("regular Z4", 2.0, []), ("heisenberg Z3xZ3", 0.5, [])])
def test_sweep_reports_do_not_depend_on_the_budget(name, flag_tol, forced, monkeypatch):
    pi, sigma = BUDGET_PAIRS[name]()
    forcing_failures(monkeypatch, forced)
    reports = []
    for budget in (1, DEFAULT_BUDGET, 2 ** 40):
        monkeypatch.setattr(duality_module, "SWEEP_BYTES", budget)
        report = duality_sweep(pi, sigma, n_vectors=90, seed=8, flag_tol=flag_tol)
        reports.append(json.dumps(serialize.report_to_json(report)))
    assert reports[1:] == reports[:1] * 2
    assert report.n_skipped == 1  # the adversarial zero vector
    assert report.n_inconsistent > 0
    assert {f"random[{k}]" for k in forced} <= {ce.source for ce in report.counterexamples}


def test_orbit_flags_in_chunks_are_classify_flags():
    # chunks of three rows: random draws, which the certificate decides,
    # beside projected draws, Parseval basis vectors, a tiny row and the
    # zero vector, which it hands to classify_block
    for rep in FIXED_REPS:
        xs = np.concatenate([probe_vectors(rep, 4), probe_vectors(rep, 5)[:2] * 2.0 ** -700])
        budget = 3 * 16 * rep.group.order * rep.dim
        flags = _scaled_flags(rep, *_scaled_block(rep, xs), budget=budget)
        reference = classify_block(rep, xs)
        for f in fields(OrbitFlags):
            np.testing.assert_array_equal(getattr(flags, f.name), getattr(reference, f.name),
                                          err_msg=f"{rep.label} {f.name}")


def sweep_array_sizes(monkeypatch) -> list:
    """The bytes of every array a 300-draw sweep on Gabor (16,1,1) forms for
    its blocks.  256 elements on C^16: 64 rows of orbits take 4 MiB, so the
    pi side goes four rows at a time, the one-element sigma side in blocks
    of 1152; the isotypic certificate's coefficients take a block's size."""
    pi, sigma = make_gabor_pair(GaborLattice(16, 1, 1))
    sizes = []

    def spy(module, name, arrays):
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            sizes.extend(a.nbytes for a in arrays(args, kwargs, out))
            return out
        monkeypatch.setattr(module, name, recorded)

    spy(frames_module, "full_rank_certificate",
        lambda args, kwargs, out: [args[0], kwargs["out"], kwargs["conj"]])
    spy(frames_module, "_classify_orbits", lambda args, kwargs, out: [args[1]])
    spy(frames_module, "_isotypic_flags", lambda args, kwargs, out: [args[1]])
    spy(duality_module, "random_complex_block", lambda args, kwargs, out: [out])
    spy(duality_module, "_rep_orbits", lambda args, kwargs, out: [out])
    report = duality_sweep(pi, sigma, n_vectors=300, seed=2)
    assert report.n_inconsistent == 0
    return sizes


def test_no_array_of_a_large_sweep_outgrows_the_budget(monkeypatch):
    sizes = sweep_array_sizes(monkeypatch)
    assert len(sizes) > 5
    assert max(sizes) <= DEFAULT_BUDGET


def test_no_orbit_chunk_of_a_large_sweep_outgrows_the_budget(monkeypatch):
    # without the isotypic certificate the pi side takes 75 chunks of orbits
    monkeypatch.setattr(frames_module, "_isotypic_flags",
                        lambda rep, block, *args: np.arange(len(block)))
    sizes = sweep_array_sizes(monkeypatch)
    assert len(sizes) > 100
    assert max(sizes) <= DEFAULT_BUDGET


# --- the isotypic certificate ------------------------------------------------

ISOTYPIC_REPS = [rep for rep in FIXED_REPS if rep.isotypic is not None]


def isotypic_vector(rep, norms) -> np.ndarray:
    """x = W y with ||y_chi||^2 = norms[chi] in each isotypic block, so the
    nonzero frame spectrum is (|G| / k) norms, each k times."""
    dec = rep.isotypic
    y = random_complex_vector(substream(len(norms), 3), rep.dim)
    sizes = np.diff(np.append(dec.starts, rep.dim))
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    y *= np.sqrt(np.asarray(norms, dtype=float)[blocks]
                 / np.add.reduceat(np.abs(y) ** 2, dec.starts)[blocks])
    return dec.basis @ y


def isotypic_decided(rep, xs) -> np.ndarray:
    """Which rows of xs the isotypic certificate decides."""
    flags = {name: np.empty(len(xs), dtype=bool) for name in frames_module._FLAG_NAMES}
    block, shift = _scaled_block(rep, xs)
    rest = frames_module._isotypic_flags(rep, block, shift, RANK_TOL, FLAG_TOL, flags, None)
    decided = np.ones(len(xs), dtype=bool)
    decided[rest] = False
    return decided


def test_reps_with_an_isotypic_decomposition():
    labels = {rep.label for rep in ISOTYPIC_REPS}
    assert {"lambda[Z8]", "rho[Z8]", "gabor[8;2,2]", "gabor[8;4,4]", "gabor[12;3,2]",
            "gabor[12;6,4]", "char[Z8|[1, 3, 5]]"} <= labels
    assert "lambda[Z3xZ3]" not in labels


@pytest.mark.parametrize("rep", ISOTYPIC_REPS, ids=lambda rep: rep.label)
def test_isotypic_flags_match_classify_block_on_draws(rep):
    draws = np.stack([random_complex_vector(substream(11, i), rep.dim) for i in range(300)])
    assert isotypic_decided(rep, draws).all()
    assert_flags_match_classify_block(rep, draws[:40])
    flags, reference = _orbit_flags(rep, draws), classify_block(rep, draws)
    for f in fields(OrbitFlags):
        np.testing.assert_array_equal(getattr(flags, f.name), getattr(reference, f.name))


@pytest.mark.parametrize("ratio", CUT_RATIOS)
def test_isotypic_flags_at_the_rank_cut_of_gabor_8_2_2(ratio):
    # one block's lambda_chi at ratio * rank_tol of the others'
    for rep in (gabor_rep(GaborLattice(8, 2, 2)), gabor_rep(GaborLattice(8, 4, 4))):
        blocks = len(rep.isotypic.starts)
        x = isotypic_vector(rep, [1.0] * (blocks - 1) + [ratio * RANK_TOL])
        # the certificate's cut is relative to the trace, not to the largest
        # eigenvalue: lambda_min / t is about ratio rank_tol / (k (blocks - 1))
        assert not isotypic_decided(rep, x[None]).any() or \
            ratio > rep.isotypic.degree * (blocks - 1)
        assert_flags_match_classify_block(rep, np.stack([x, x]))
        full = rep.isotypic.degree * blocks
        if ratio != 1.0:  # at the cut itself roundoff decides
            span = classify(rep, x).orbit_span_dim
            assert span == (full if ratio > 1.0 else full - rep.isotypic.degree)


@pytest.mark.parametrize("rep", ISOTYPIC_REPS, ids=lambda rep: rep.label)
def test_isotypic_flags_on_vanishing_parseval_and_tiny_rows(rep):
    dec = rep.isotypic
    blocks = len(dec.starts)
    vanishing = [isotypic_vector(rep, [1.0] * j + [0.0] + [1.0] * (blocks - j - 1))
                 for j in range(blocks)]
    draws = [random_complex_vector(substream(12, i), rep.dim) for i in range(3)]
    parseval = [parseval_normalize(rep, x) for x in draws]
    tiny = [x * 2.0 ** -700 for x in draws]
    xs = np.stack(vanishing + parseval + tiny + draws)
    decided = isotypic_decided(rep, xs)
    assert not decided[:-3].any() and decided[-3:].all()
    assert_flags_match_classify_block(rep, xs)


@pytest.mark.parametrize("pair", ["regular Z8", "gabor (12,3,2)"])
def test_sweep_reaches_the_rank_certificate_only_on_its_adversarial_blocks(pair, monkeypatch):
    z8 = cyclic_group(8)
    pi, sigma = (make_regular_pair(z8, trivial_multiplier(z8)) if pair == "regular Z8"
                 else make_gabor_pair(GaborLattice(12, 3, 2)))
    calls = []
    original = frames_module.full_rank_certificate
    monkeypatch.setattr(frames_module, "full_rank_certificate",
                        lambda a, *args, **kwargs: calls.append(a.shape)
                        or original(a, *args, **kwargs))
    empty = duality_sweep(pi, sigma, n_vectors=0, seed=5)
    without_draws = list(calls)
    calls.clear()
    report = duality_sweep(pi, sigma, n_vectors=3000, seed=5)
    assert (report.n_consistent, report.n_inconsistent) == (empty.n_consistent + 3000, 0)
    assert calls == without_draws


def test_a_certified_chunk_allocates_only_the_cholesky_factor(monkeypatch):
    # Heisenberg Z3xZ3 has no isotypic decomposition (an irreducible of
    # degree 3 three times), so its draws go to the rank certificate, on
    # orbits, their conjugate and the product all lent by the sweep's scratch
    mu3 = heisenberg_multiplier(3)
    rep = left_regular(mu3.group, mu3)
    assert rep.isotypic is None
    rows = frames_module._budget_rows(DEFAULT_BUDGET, 9, 9)
    xs = np.stack([random_complex_vector(substream(13, i), 9) for i in range(rows)])
    shift = np.zeros(rows, dtype=int)
    scratch = {}
    frames_module._chunk_flags(rep, xs, shift, RANK_TOL, FLAG_TOL, scratch)
    certified = []
    original = frames_module.full_rank_certificate
    monkeypatch.setattr(frames_module, "full_rank_certificate",
                        lambda *args, **kwargs: certified.append(original(*args, **kwargs))
                        or certified[-1])
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        frames_module._chunk_flags(rep, xs, shift, RANK_TOL, FLAG_TOL, scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert certified and certified[0] is not None
    factor = rows * 9 * 9 * 16
    assert factor > 64 * 2 ** 10
    assert peak - before <= factor + 16 * 2 ** 10
