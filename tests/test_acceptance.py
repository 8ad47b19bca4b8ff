"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is pinned here, not configured elsewhere.
"""

import time

import numpy as np
import pytest

from framedual import (
    GaborLattice,
    RouteDisagreementError,
    bessel_parameterize,
    certify_dual_pair,
    classify,
    cyclic_group,
    dilate_to_complete,
    direct_product,
    duality_sweep,
    frame_operator,
    gabor_rep,
    heisenberg_multiplier,
    left_regular,
    make_gabor_pair,
    make_regular_pair,
    make_regular_subpair,
    parseval_normalize,
    pi_orthogonal,
    pi_weakly_equivalent,
    trivial_multiplier,
)
from framedual.duality import adversarial_vectors, is_commuting_pair
from framedual.linalg import dft_matrix, random_complex_vector, substream
from framedual.vonneumann import commutant, double_commutant, operator_subspace_residual

RANK_TOL = 1e-9


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _criterion1_pairs():
    triv_groups = [
        cyclic_group(12),
        direct_product(cyclic_group(2), cyclic_group(4)),
        cyclic_group(16),
    ]
    pairs = [(g.label, make_regular_pair(g, trivial_multiplier(g))) for g in triv_groups]
    for n in (2, 3, 4):
        mu = heisenberg_multiplier(n)
        pairs.append((f"{mu.group.label}(heisenberg)", make_regular_pair(mu.group, mu)))
    return pairs


def test_criterion_1_regular_pair_sweeps():
    started = time.perf_counter()
    failures = []
    for label, (lam, rho) in _criterion1_pairs():
        report = duality_sweep(lam, rho, n_vectors=200, seed=7, rank_tol=RANK_TOL)
        if report.clauses != ("frame_sequence", "frame_riesz", "parseval_orthonormal"):
            failures.append(f"{label}: clauses {report.clauses}")
        if report.n_inconsistent:
            failures.append(f"{label}: {report.n_inconsistent} inconsistent")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(1, not failures,
            f"6 regular pairs x 200 draws, all clauses, {elapsed:.1f}s"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_2_commutant_duality():
    failures = []
    for label, (lam, rho) in _criterion1_pairs():
        left_comm = commutant(lam.matrices, RANK_TOL)
        right_alg = double_commutant(rho.matrices, RANK_TOL)
        resid = operator_subspace_residual(left_comm, right_alg)
        if left_comm.dim != right_alg.dim or resid >= 1e-8:
            failures.append(f"{label}: residual {resid:.2e}")
        group = lam.group
        triv_comm = commutant(left_regular(group, trivial_multiplier(group)).matrices,
                              RANK_TOL)
        if triv_comm.dim != group.order:
            failures.append(f"{label}: trivial commutant dim {triv_comm.dim}")
    _report(2, not failures,
            "commutant(lambda) = algebra(rho) and dim = |G| on all 6 groups"
            + (f"; failures: {failures}" if failures else ""))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_criterion_3_gabor_adjoint_duality():
    failures = []
    checked = 0
    for n in (4, 6, 8, 12):
        for a in _divisors(n):
            for b in _divisors(n):
                lat = GaborLattice(n, a, b)
                pi, sigma = make_gabor_pair(lat)
                check = is_commuting_pair(pi, sigma, tol=1e-8, rank_tol=RANK_TOL)
                if not check.is_pair:
                    failures.append(f"({n},{a},{b}): algebra residual {check.residual:.2e}")
                windows = [random_complex_vector(
                    substream(700 + n, (a * 13 + b) * 1000 + i), n) for i in range(50)]
                windows += [vec for _, vec in adversarial_vectors(pi, seed=701)]
                for w in windows:
                    if not np.linalg.norm(w):
                        continue
                    frame_side = classify(pi, w, RANK_TOL).is_complete_frame
                    riesz_side = classify(sigma, w, RANK_TOL).is_riesz_sequence
                    checked += 1
                    if frame_side != riesz_side:
                        failures.append(f"({n},{a},{b}): window breaks frame<->Riesz")
                        break
    pi, sigma = make_gabor_pair(GaborLattice(4, 1, 2))
    known = np.array([1.0, 0.0, 1.0, 0.0])
    if classify(pi, known, RANK_TOL).is_complete_frame:
        failures.append("known counterexample classified as a frame")
    if classify(sigma, known, RANK_TOL).is_riesz_sequence:
        failures.append("known counterexample classified as Riesz")
    _report(3, not failures,
            f"77 lattices: algebra equality and frame<->Riesz on {checked} windows; "
            "(4,1,2) counterexample detected"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_4_full_lattice_tightness():
    worst = 0.0
    for n in (4, 8, 16):
        rep = gabor_rep(GaborLattice(n, 1, 1))
        for i in range(20):
            g = random_complex_vector(substream(800 + n, i), n)
            s = frame_operator(rep, g)
            defect = np.abs(s - n * np.linalg.norm(g) ** 2 * np.eye(n)).max()
            worst = max(worst, float(defect))
    _report(4, worst < 1e-9, f"max |S - n|g|^2 I| = {worst:.2e} over 60 windows")


def _criterion5_reps():
    z8 = cyclic_group(8)
    z2xz4 = direct_product(cyclic_group(2), cyclic_group(4))
    heis = heisenberg_multiplier(2)
    return [
        ("lambda[Z8]", left_regular(z8, trivial_multiplier(z8))),
        ("lambda[Z2xZ4]", left_regular(z2xz4, trivial_multiplier(z2xz4))),
        ("lambda[Z2xZ2,heis]", left_regular(heis.group, heis)),
        ("gabor[6;1,2]", gabor_rep(GaborLattice(6, 1, 2))),
    ]


def test_criterion_5_dual_route_agreement():
    disagreements = 0
    total = 0
    for rep_idx, (label, rep) in enumerate(_criterion5_reps()):
        for i in range(500):
            rng = substream(500, rep_idx * 1000 + i)
            x = random_complex_vector(rng, rep.dim)
            y = random_complex_vector(rng, rep.dim)
            for predicate in (pi_orthogonal, pi_weakly_equivalent):
                total += 1
                try:
                    predicate(rep, x, y, tol=1e-7, rank_tol=RANK_TOL)
                except RouteDisagreementError:
                    disagreements += 1
    _report(5, disagreements == 0,
            f"{total} dual-route checks over 4 representations, "
            f"{disagreements} disagreements at gate 1e-7")


def _criterion6_reps():
    z6, z8 = cyclic_group(6), cyclic_group(8)
    z2xz4 = direct_product(cyclic_group(2), cyclic_group(4))
    heis = heisenberg_multiplier(2)
    return [
        left_regular(z6, trivial_multiplier(z6)),
        left_regular(z8, trivial_multiplier(z8)),
        left_regular(z2xz4, trivial_multiplier(z2xz4)),
        left_regular(heis.group, heis),
        gabor_rep(GaborLattice(6, 1, 2)),
    ]


def test_criterion_6_parseval_machinery():
    failures = []
    for rep_idx, rep in enumerate(_criterion6_reps()):
        for i in range(20):
            xi = random_complex_vector(substream(600 + rep_idx, i), rep.dim)
            eta = parseval_normalize(rep, xi, RANK_TOL)
            cls = classify(rep, eta, RANK_TOL)
            if not (abs(cls.lower_bound - 1) <= 1e-8 and abs(cls.upper_bound - 1) <= 1e-8):
                failures.append(f"rep{rep_idx} draw {i}: bounds "
                                f"({cls.lower_bound}, {cls.upper_bound})")
        base = None
        for i in range(20):
            xi = random_complex_vector(substream(650 + rep_idx, i), rep.dim)
            if classify(rep, xi, RANK_TOL).is_complete_frame:
                base = parseval_normalize(rep, xi, RANK_TOL)
                break
        if base is None:
            failures.append(f"rep{rep_idx}: no complete frame vector found")
            continue
        for i in range(20):
            rng = substream(660 + rep_idx, i)
            eta = random_complex_vector(rng, rep.dim)
            if i % 3 == 0:
                eta = parseval_normalize(rep, eta, RANK_TOL)
            a = bessel_parameterize(rep, base, eta, tol=1e-9, rank_tol=RANK_TOL)
            resid = np.linalg.norm(a @ base - eta)
            if resid >= 1e-9:
                failures.append(f"rep{rep_idx}: parameterization residual {resid:.2e}")
            unitary = np.abs(a.conj().T @ a - np.eye(rep.dim)).max() < 1e-8
            cls = classify(rep, eta, RANK_TOL)
            target_parseval = cls.is_complete_frame and cls.is_parseval
            if unitary != target_parseval:
                failures.append(f"rep{rep_idx}: unitary={unitary} but "
                                f"parseval={target_parseval}")
    _report(6, not failures,
            "100 normalizations Parseval within 1e-8; parameterization residual "
            "< 1e-9 with unitarity iff complete Parseval"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_7_dilation():
    z8 = cyclic_group(8)
    lam = left_regular(z8, trivial_multiplier(z8))
    f = dft_matrix(8)
    projections = [f[:, :k] @ f[:, :k].conj().T for k in (2, 4, 6)]
    failures = []
    for i in range(50):
        p = projections[i % 3]
        eta = p @ random_complex_vector(substream(770, i), 8)
        res = dilate_to_complete(lam, eta, mode="frame", seed=880 + i, max_tries=5,
                                 rank_tol=RANK_TOL)
        if not pi_orthogonal(lam, res.vector, res.h, rank_tol=RANK_TOL):
            failures.append(f"draw {i}: h not orthogonal")
        if not classify(lam, res.vector + res.h, RANK_TOL).is_complete_frame:
            failures.append(f"draw {i}: sum not complete")
        res_p = dilate_to_complete(lam, eta, mode="parseval", seed=880 + i,
                                   max_tries=5, rank_tol=RANK_TOL)
        s = frame_operator(lam, res_p.vector + res_p.h)
        if np.abs(s - np.eye(8)).max() > 1e-8:
            failures.append(f"draw {i}: parseval defect {np.abs(s - np.eye(8)).max():.2e}")
    _report(7, not failures,
            "50 dilations (frame + parseval modes) certified within 5 tries"
            + (f"; failures: {failures[:3]}" if failures else ""))


def _random_commutant_projection(group, rng):
    """Spectral projection of a random Hermitian commutant element; lies in
    the commutant algebra, with rank strictly between 0 and |G|."""
    lam = left_regular(group, trivial_multiplier(group))
    comm = commutant(lam.matrices, RANK_TOL)
    coeff = rng.standard_normal(comm.dim) + 1j * rng.standard_normal(comm.dim)
    h = np.tensordot(coeff, comm.basis, axes=(0, 0))
    h = (h + h.conj().T) / 2
    w, v = np.linalg.eigh(h)
    rank = int(rng.integers(1, group.order))
    basis = v[:, :rank]
    return basis @ basis.conj().T, rank


def test_criterion_8_feasibility_law():
    failures = []
    for gi, group in enumerate((cyclic_group(8), cyclic_group(12))):
        mu = trivial_multiplier(group)
        for i in range(5):
            rng = substream(810 + gi, i)
            p, rank = _random_commutant_projection(group, rng)
            pi, sigma = make_regular_subpair(group, mu, p)
            report = certify_dual_pair(pi, sigma, seed=820 + i, rank_tol=RANK_TOL)
            if report.feasible or report.infeasibility != "dimension":
                failures.append(f"{group.label} rank {rank}: "
                                f"reported {report.infeasibility}")
        pi, sigma = make_regular_subpair(group, mu, np.eye(group.order))
        report = certify_dual_pair(pi, sigma, seed=830, rank_tol=RANK_TOL)
        if not report.feasible:
            failures.append(f"{group.label}: full projection not feasible")
    _report(8, not failures,
            "10 strict commutant projections infeasible-by-dimension; identity feasible"
            + (f"; failures: {failures[:3]}" if failures else ""))


def _gram_schmidt_span(columns, tol=1e-9):
    """Pivoted modified Gram-Schmidt orthonormal basis of the column span;
    deliberately avoids SVD/eigh so the eigen-oracle stays independent."""
    cols = [np.array(c, dtype=complex) for c in columns]
    scale = max(np.linalg.norm(c) for c in cols)
    basis = []
    for _ in range(len(cols)):
        norms = [np.linalg.norm(c) for c in cols]
        k = int(np.argmax(norms))
        if norms[k] <= tol * scale:
            break
        q = cols[k] / norms[k]
        for _ in range(2):  # re-orthogonalize for stability
            for b in basis:
                q = q - b * np.vdot(b, q)
            q = q / np.linalg.norm(q)
        basis.append(q)
        cols = [c - q * np.vdot(q, c) for c in cols]
    return np.stack(basis, axis=1)


def _is_positive_definite(a):
    try:
        np.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False


def _bisect_extreme_eigs(a, iters=100):
    """Extreme eigenvalues of a Hermitian PD matrix by Cholesky bisection."""
    n = a.shape[0]
    hi = float(np.abs(a).sum(axis=1).max())  # Gershgorin upper bound
    lo, up = 0.0, hi
    for _ in range(iters):
        mid = (lo + up) / 2
        if _is_positive_definite(a - mid * np.eye(n)):
            lo = mid
        else:
            up = mid
    lam_min = (lo + up) / 2
    lo, up = 0.0, hi
    for _ in range(iters):
        mid = (lo + up) / 2
        if _is_positive_definite(mid * np.eye(n) - a):
            up = mid
        else:
            lo = mid
    lam_max = (lo + up) / 2
    return lam_min, lam_max


def test_criterion_9_eigen_oracle():
    reps = [rep for _, rep in _criterion5_reps()] + [gabor_rep(GaborLattice(8, 2, 2))]
    failures = []
    for i in range(50):
        rep = reps[i % len(reps)]
        xi = random_complex_vector(substream(900, i), rep.dim)
        cls = classify(rep, xi, RANK_TOL)
        s = frame_operator(rep, xi)
        orbit = rep.matrices @ xi
        span = _gram_schmidt_span(list(orbit))
        s_span = span.conj().T @ s @ span
        lam_min, lam_max = _bisect_extreme_eigs(s_span)
        rel_lo = abs(lam_min - cls.lower_bound) / cls.lower_bound
        rel_hi = abs(lam_max - cls.upper_bound) / cls.upper_bound
        if rel_lo >= 1e-6 or rel_hi >= 1e-6:
            failures.append(f"instance {i}: bisection mismatch {rel_lo:.2e}/{rel_hi:.2e}")
        rng = substream(901, i)
        for _ in range(1000):
            x = span @ random_complex_vector(rng, span.shape[1])
            q = np.vdot(x, s @ x).real / np.vdot(x, x).real
            if not (cls.lower_bound * (1 - 1e-6) <= q <= cls.upper_bound * (1 + 1e-6)):
                failures.append(f"instance {i}: quotient {q} outside bounds")
                break
    _report(9, not failures,
            "50 instances: frame bounds match independent Cholesky-bisection "
            "extremes within 1e-6 and contain 1000 Rayleigh quotients each"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_10_determinism(tmp_path):
    from framedual.cli import main

    outputs = []
    for tag, jobs in (("a", "1"), ("b", "8"), ("c", "1")):
        for idx, (group, multiplier) in enumerate((("Z12", "trivial"),
                                                   ("Z2xZ2", "heisenberg"))):
            out = tmp_path / f"{tag}{idx}.json"
            code = main(["sweep", "--pair", "regular", "--group", group,
                         "--multiplier", multiplier, "--n", "200", "--seed", "7",
                         "--jobs", jobs, "--output", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
    ok = outputs[0:2] == outputs[2:4] == outputs[4:6]
    _report(10, ok, "sweep reports byte-identical across --jobs 1/8 and repeated runs")
