"""Commuting-pair and dual-pair certification, the executable duality
theorem, canonical pair constructions, and randomized verification sweeps.

A pair (pi, sigma) acting on the same space is *commuting* when the
commutant of pi(G) equals the von Neumann algebra generated by sigma(G); it
is a *dual pair* when additionally pi admits a complete frame vector (which
in finite dimensions is automatically Bessel for sigma) and sigma admits a
Riesz vector.

pair_certificate decides the commuting condition without forming either
algebra.  sigma(G)'' lies in pi(G)' iff the generators commute, since a
projective image is spanned by words in its generators; the two algebras
are then equal iff their dimensions agree.  Both dimensions are facts of
the reps (ProjectiveRep.commutant_dim, the trace formula, and
ProjectiveRep.algebra_dim, the rank of the Hilbert-Schmidt Gram read off
its spectrum with a proven gap).  is_commuting_pair takes its verdict and
dimensions from the certificate and adds the principal-angle residual
between the two algebras, which certify-pair and sweep reports carry.

For dual pairs, three biconditional clauses tie the two orbit
classifications of one and the same vector together; the sweep machinery
hammers those clauses with seeded random and adversarial vectors and treats
any failure as a counterexample worth dumping.  Clauses read orbit flags
only, so sweeps take them from the isotypic certificate or a rank
certificate, the Riesz search from the rank certificate, and both run an
eigendecomposition only where the certificates stand aside or a
counterexample needs its bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPairError, InvalidParameterError
from .frames import (
    FLAG_TOL,
    FrameClassification,
    _budget_rows,
    _orbit_flags,
    _rep_orbits,
    _scaled_block,
    _scaled_flags,
    classify,
    classify_block,
    gram_matrix,
    parseval_normalize,
)
from .gabor import GaborLattice, adjoint_lattice, gabor_rep
from .groups import FiniteGroup, Multiplier
from .linalg import RANK_TOL, random_complex_block, random_complex_vector, substream
from .reps import ProjectiveRep, left_regular, right_regular, subrepresentation
from .vonneumann import operator_subspace_residual

PAIR_TOL = 1e-8  # gate on the largest entry of a generator commutator

ALL_CLAUSES = ("frame_sequence", "frame_riesz", "parseval_orthonormal")

# Seeded draws each witness search tries, in certify_dual_pair by default and
# in every sweep.
WITNESS_DRAWS = 50

# Substream index offsets keeping the random draws of the different
# search/sweep phases disjoint for one and the same seed.
_FRAME_SEARCH_BASE = 1_000_000
_RIESZ_SEARCH_BASE = 2_000_000

# Bytes that any one array a sweep forms for a block may take: the orbits of
# a block under either side, its draws, its Gram matrices.  A block holds as
# many rows as fit on the side with the smaller group, and the other side
# takes it in chunks (frames._scaled_flags).  288 KiB holds 64 rows of the
# lattice side of Gabor (12,3,2), |G| = 24 on C^12; a budget far larger
# gains little, and a sweep on a large pair holds no more than this.
SWEEP_BYTES = 288 * 2 ** 10


@dataclass(frozen=True)
class PairCertificate:
    """pair_certificate's decision of pi(G)' = sigma(G)'': the largest entry
    of pi(s) sigma(t) - sigma(t) pi(s) over the generators s of pi's group
    and t of sigma's, and the two dimensions."""

    is_pair: bool
    commutator: float
    pi_commutant_dim: int
    sigma_algebra_dim: int


@dataclass(frozen=True)
class CommutingPairCheck:
    """Verdict of the algebra comparison pi(G)' vs sigma(G)'': the verdict and
    dimensions of pair_certificate, and the principal-angle residual between
    the two algebras as subspaces of matrix space."""

    is_pair: bool
    residual: float
    pi_commutant_dim: int
    sigma_algebra_dim: int


@dataclass(frozen=True)
class DualPairReport:
    """What certify_dual_pair found: the commuting check, search results for
    the two witness vectors, and the feasibility verdict.

    ``infeasibility`` is None when feasible, otherwise one of
    "not-commuting", "no-frame-vector", "dimension" (a Riesz orbit cannot
    exist because the group outnumbers the dimension), or "empirical" (the
    seeded Riesz search came up empty without a dimension obstruction).
    """

    commuting: CommutingPairCheck
    frame_vector: np.ndarray | None
    frame_vector_sigma_bessel: float | None
    parseval_frame_vector: np.ndarray | None
    riesz_vector: np.ndarray | None
    feasible: bool
    infeasibility: str | None
    notes: str
    seed: int
    n_samples: int


@dataclass(frozen=True)
class DualityVerdict:
    """Both classifications of one vector plus the clause comparison."""

    vector: np.ndarray
    pi_classification: FrameClassification
    sigma_classification: FrameClassification
    clause_results: dict[str, bool]
    theorem_consistent: bool


@dataclass(frozen=True)
class SweepCounterexample:
    source: str
    vector: np.ndarray
    verdict: DualityVerdict


@dataclass(frozen=True)
class SweepReport:
    """Aggregate of a duality sweep; any inconsistency ships the offending
    vectors along."""

    label: str
    seed: int
    clauses: tuple[str, ...]
    n_random: int
    n_adversarial: int
    n_skipped: int
    n_consistent: int
    n_inconsistent: int
    feasible: bool
    commuting_residual: float
    parseval_gram_defect: float
    rank_tolerance: float
    flag_tolerance: float
    counterexamples: list[SweepCounterexample] = field(default_factory=list)


def pair_certificate(pi: ProjectiveRep, sigma: ProjectiveRep,
                     tol: float = PAIR_TOL) -> PairCertificate:
    """Decide pi(G)' = sigma(G)'' from generators and characters.

    The pair passes when every generator commutator has no entry above tol
    and pi.commutant_dim = sigma.algebra_dim.  Both reps must be projective
    unitary, as the constructions and verify_rep ensure.  A trace formula
    for dim pi(G)' farther than 1/4 from an integer raises
    NotProjectiveError.
    """
    if pi.dim != sigma.dim:
        raise InvalidParameterError(
            f"representations act on different spaces: {pi.dim} vs {sigma.dim}"
        )
    commutator = _generator_commutator(pi, sigma)
    comm_dim = pi.commutant_dim
    alg_dim = sigma.algebra_dim
    return PairCertificate(commutator <= tol and comm_dim == alg_dim, commutator,
                           comm_dim, alg_dim)


def _generator_commutator(pi: ProjectiveRep, sigma: ProjectiveRep) -> float:
    """The largest entry of |pi(s) sigma(t) - sigma(t) pi(s)| over the
    generators s of pi's group and t of sigma's (0.0 if either has none).

    For two monomial reps, row i of pi(s) sigma(t) holds
    phase_pi[s, i] phase_sigma[t, perm_pi[s, i]] in column
    perm_sigma[t, perm_pi[s, i]], and row i of sigma(t) pi(s) likewise with
    the roles swapped: a row whose two columns differ has entries of modulus
    1 in two places, one whose columns agree the difference of its values.
    """
    s = list(pi.group.generating_set.elements)
    t = list(sigma.group.generating_set.elements)
    if not (s and t):
        return 0.0
    if pi.perm is None or sigma.perm is None:
        a, b = pi.matrices[s][:, None], sigma.matrices[t][None]
        return float(np.abs(a @ b - b @ a).max())
    pp, qp = pi.perm[s], pi.phase[s]            # (|S_pi|, d)
    ps, qs = sigma.perm[t], sigma.phase[t]      # (|S_sigma|, d)
    # index [s, t, i]: row i of pi(s) sigma(t) and of sigma(t) pi(s)
    col_ab = ps[:, pp].transpose(1, 0, 2)
    col_ba = pp[:, ps]
    val_ab = qp[:, None] * qs[:, pp].transpose(1, 0, 2)
    val_ba = qs[None] * qp[:, ps]
    resid = np.where(col_ab == col_ba, np.abs(val_ab - val_ba),
                     np.maximum(np.abs(val_ab), np.abs(val_ba)))
    return float(resid.max())


def is_commuting_pair(pi: ProjectiveRep, sigma: ProjectiveRep,
                      tol: float = PAIR_TOL,
                      rank_tol: float = RANK_TOL) -> CommutingPairCheck:
    """The verdict and both dimensions of pair_certificate at tol, and the
    principal-angle residual between pi(G)' (the range of pi's group
    average) and sigma(G)'' (the span of sigma's image, cut at rank_tol) as
    subspaces of matrix space."""
    certificate = pair_certificate(pi, sigma, tol)
    residual = operator_subspace_residual(pi.commutant(), sigma.algebra(rank_tol))
    return CommutingPairCheck(certificate.is_pair, residual, certificate.pi_commutant_dim,
                              certificate.sigma_algebra_dim)


def certify_dual_pair(pi: ProjectiveRep, sigma: ProjectiveRep, seed: int = 0,
                      n_samples: int = WITNESS_DRAWS, tol: float = PAIR_TOL,
                      rank_tol: float = RANK_TOL,
                      flag_tol: float = FLAG_TOL) -> DualPairReport:
    """Certify the commuting condition and search seeded random vectors for
    the two witnesses a dual pair needs: a complete frame vector for pi
    (reported with its Bessel bound under sigma, which is automatically
    finite here) and a Riesz vector for sigma.

    Absence of a witness is a report, not an error.  A Riesz orbit needs at
    least as many dimensions as group elements, so that case is reported as
    infeasible by dimension without any sampling.
    """
    if n_samples < 0:
        raise InvalidParameterError(f"number of search draws must be >= 0, got {n_samples}")
    check = is_commuting_pair(pi, sigma, tol, rank_tol)
    frame_vector, riesz_vector = _witnesses(pi, sigma, seed, n_samples, rank_tol, flag_tol)
    bessel_bound = None
    parseval_vector = None
    if frame_vector is not None:
        bessel_bound = classify(sigma, frame_vector, rank_tol, flag_tol).upper_bound
        refined = parseval_normalize(pi, frame_vector, rank_tol)
        refined_cls = classify(pi, refined, rank_tol, flag_tol)
        if refined_cls.is_complete_frame and refined_cls.is_parseval:
            parseval_vector = refined
    riesz_blocked_by_dim = sigma.group.order > sigma.dim

    feasible = check.is_pair and frame_vector is not None and riesz_vector is not None
    if feasible:
        infeasibility = None
        if pi.group == sigma.group:
            notes = "dual pair certified"
        else:
            notes = ("dual pair certified; index groups differ, so only the "
                     "scale-free clauses (frame sequence, frame/Riesz) transfer")
    elif not check.is_pair:
        infeasibility = "not-commuting"
        notes = f"algebra equality fails with residual {check.residual:.3e}"
    elif frame_vector is None:
        infeasibility = "no-frame-vector"
        notes = f"no complete frame vector among {n_samples} seeded draws"
    elif riesz_blocked_by_dim:
        infeasibility = "dimension"
        notes = (f"no Riesz orbit can exist: group order {sigma.group.order} "
                 f"exceeds dimension {sigma.dim}")
    else:
        infeasibility = "empirical"
        notes = f"no Riesz vector among {n_samples} seeded draws (dimension permits one)"
    return DualPairReport(check, frame_vector, bessel_bound, parseval_vector,
                          riesz_vector, feasible, infeasibility, notes, seed, n_samples)


def _witnesses(pi: ProjectiveRep, sigma: ProjectiveRep, seed: int, n_samples: int,
               rank_tol: float, flag_tol: float) -> tuple[np.ndarray | None, np.ndarray | None]:
    """certify_dual_pair's witness search: the first of n_samples seeded
    draws whose pi-orbit is a complete frame, and the first whose
    sigma-orbit is a Riesz sequence (None when no draw is, or, without a
    draw, when sigma's group outnumbers the dimension)."""
    frame_vector = None
    for i in range(n_samples):
        xi = random_complex_vector(substream(seed, _FRAME_SEARCH_BASE + i), pi.dim)
        if classify(pi, xi, rank_tol, flag_tol).is_complete_frame:
            frame_vector = xi
            break
    riesz_vector = None
    if sigma.group.order <= sigma.dim:
        for i in range(n_samples):
            xi = random_complex_vector(substream(seed, _RIESZ_SEARCH_BASE + i), sigma.dim)
            if _orbit_flags(sigma, xi[None], rank_tol, flag_tol).is_riesz_sequence[0]:
                riesz_vector = xi
                break
    return frame_vector, riesz_vector


def verify_duality(pi: ProjectiveRep, sigma: ProjectiveRep, xi,
                   rank_tol: float = RANK_TOL, flag_tol: float = FLAG_TOL,
                   pair_tol: float = PAIR_TOL) -> DualityVerdict:
    """Classify one vector under both representations and compare the clause
    pattern the duality theorem asserts:

      frame_sequence        both orbits are frame sequences together
      frame_riesz           pi-orbit frames the whole space  <->  sigma-orbit Riesz
      parseval_orthonormal  pi-orbit complete Parseval       <->  sigma-orbit Gram
                                                                  within flag_tol of c I

    with c = dim / |G_pi|, the squared norm of every complete Parseval
    vector for pi (the trace of its frame operator, the identity, spread
    over |G_pi| orbit vectors); by the Wexler-Raz relations the sigma-orbit
    of such a vector is orthogonal with that norm.  Where |G_pi| = dim, as
    for every dual pair over one index group, c = 1 and the sigma side is
    classify's orthonormal flag.

    The last two clauses presuppose a dual pair, so the verdict holds them
    only when pi has a complete frame vector and sigma a Riesz vector
    (_theorem_clauses).  The vector's own flags prove either existence when
    they show one; only an existence they leave open is read from the law
    (ProjectiveRep.has_frame_vector, has_riesz_vector).  A pair that is not
    even commuting by pair_certificate at pair_tol raises InvalidPairError;
    no operator algebra is formed.
    """
    if not pair_certificate(pi, sigma, pair_tol).is_pair:
        raise InvalidPairError("representations do not form a commuting pair")
    x = np.asarray(xi, dtype=complex).reshape(-1)
    pc = classify(pi, x, rank_tol, flag_tol)
    sc = classify(sigma, x, rank_tol, flag_tol)
    dual = (pc.is_complete_frame or pi.has_frame_vector) and \
        (sc.is_riesz_sequence or sigma.has_riesz_vector)
    clauses = _theorem_clauses(dual, parseval=True)
    orthonormal = None
    scale = pi.dim / pi.group.order
    if "parseval_orthonormal" in clauses and scale != 1.0:
        gram = gram_matrix(sigma, x)
        orthonormal = sc.is_riesz_sequence and \
            bool(np.abs(gram - scale * np.eye(sigma.group.order)).max() < flag_tol)
    results = _clause_results(pc, sc, clauses, orthonormal)
    return DualityVerdict(x, pc, sc, results, all(results.values()))


def _theorem_clauses(dual: bool, parseval: bool) -> tuple[str, ...]:
    """The clauses the duality theorem asserts for a commuting pair: only
    frame_sequence unless the pair is dual (pi has a complete frame vector,
    sigma a Riesz vector); for a dual pair frame_riesz too, and
    parseval_orthonormal where the caller tests it (parseval)."""
    if not dual:
        return ("frame_sequence",)
    return ALL_CLAUSES if parseval else ("frame_sequence", "frame_riesz")


def _clause_results(pc, sc, clauses: tuple[str, ...], orthonormal=None) -> dict:
    """The clause comparisons of verify_duality, for one vector's
    FrameClassifications (bools) or a block's BlockClassifications (arrays).
    orthonormal is the sigma side of parseval_orthonormal, sc.is_orthonormal
    when None."""
    if orthonormal is None:
        orthonormal = sc.is_orthonormal
    results = {}
    if "frame_sequence" in clauses:
        results["frame_sequence"] = pc.is_frame_sequence == sc.is_frame_sequence
    if "frame_riesz" in clauses:
        results["frame_riesz"] = pc.is_complete_frame == sc.is_riesz_sequence
    if "parseval_orthonormal" in clauses:
        results["parseval_orthonormal"] = (pc.is_complete_frame & pc.is_parseval) == orthonormal
    return results


def adversarial_vectors(pi: ProjectiveRep, seed: int = 0,
                        rank_tol: float = RANK_TOL) -> list[tuple[str, np.ndarray]]:
    """Deterministic stress vectors for a sweep: every basis vector, a flat
    vector, simple two-point windows (which collapse orbits on structured
    lattices), three Parseval-normalized random draws, and the zero vector."""
    d = pi.dim
    out: list[tuple[str, np.ndarray]] = []
    eye = np.eye(d, dtype=complex)
    for k in range(d):
        out.append((f"basis[{k}]", eye[k]))
    out.append(("flat", np.ones(d, dtype=complex) / np.sqrt(d)))
    if d >= 2:
        out.append(("two-point[0,1]", (eye[0] + eye[1]) / np.sqrt(2)))
        half = d // 2
        if half > 1:
            out.append((f"two-point[0,{half}]", (eye[0] + eye[half]) / np.sqrt(2)))
        alternating = np.array([(-1.0) ** k for k in range(d)], dtype=complex)
        out.append(("alternating", alternating / np.sqrt(d)))
    for i in range(3):
        xi = random_complex_vector(substream(seed, i), d)
        out.append((f"parseval-normalized[{i}]", parseval_normalize(pi, xi, rank_tol)))
    out.append(("zero", np.zeros(d, dtype=complex)))
    return out


def duality_sweep(pi: ProjectiveRep, sigma: ProjectiveRep, n_vectors: int = 200,
                  seed: int = 0, rank_tol: float = RANK_TOL,
                  flag_tol: float = FLAG_TOL, pair_tol: float = PAIR_TOL,
                  label: str = "") -> SweepReport:
    """Check the duality clauses on seeded random draws plus the adversarial
    set.

    The pair is certified once up front, by is_commuting_pair and the
    witness search of certify_dual_pair, without the Bessel bound and
    Parseval refinement that only certify_dual_pair's report reads; a pair
    that is not even commuting raises InvalidPairError.  Clause selection
    (_theorem_clauses, as for verify_duality) follows what is actually a
    theorem for the pair at hand:
    all three clauses for a certified dual pair over one index group; only
    the scale-free clauses (frame sequence, frame/Riesz) when the index
    groups differ, as they do for adjoint Gabor pairs away from critical
    density, where a Parseval orbit on one side meets an orthogonal but not
    orthonormal orbit on the other; and only the frame-sequence clause for
    commuting pairs that are not dual.  A dual pair over one index group has
    |G| = dim (a complete frame orbit needs |G| >= dim, a Riesz orbit
    |G| <= dim), so the Parseval clause's sigma side is the orthonormal
    flag, as verify_duality's is there.  Draw i always uses substream
    (seed, i).

    Vectors go in blocks of as many rows as SWEEP_BYTES holds orbits of on
    the side with the smaller group; each block is checked and scaled once,
    and its flags come from frames._scaled_flags under both
    representations.  Each side tries three routes in turn: the
    isotypic certificate on the whole block, where the representation has
    an isotypic decomposition (ProjectiveRep.isotypic; the regular pairs of
    abelian groups with a trivial or degenerate cocycle, Gabor pairs and
    character families, not Heisenberg regular pairs), one dim x dim
    product per row; then, for the rows it leaves, the rank certificate in
    chunks whose orbits fit SWEEP_BYTES; then eigh on the chunks that
    stands aside for.  So no array a block forms outgrows the budget.  The
    arrays the chunks work in are kept for this call only.  An inconsistent
    vector's counterexample carries its rows of classify_block run on the
    inconsistent vectors of its block alone: the flags are the same, and the
    bounds those of classify.  No flag, count or bound depends on the
    budget.
    """
    if n_vectors < 0:
        raise InvalidParameterError(f"number of random draws must be >= 0, got {n_vectors}")
    commuting = is_commuting_pair(pi, sigma, pair_tol, rank_tol)
    if not commuting.is_pair:
        raise InvalidPairError(f"not a commuting pair (residual {commuting.residual:.3e})")
    witnesses = _witnesses(pi, sigma, seed, WITNESS_DRAWS, rank_tol, flag_tol)
    feasible = all(vector is not None for vector in witnesses)
    clauses = _theorem_clauses(feasible, parseval=pi.group == sigma.group)

    adversarial = adversarial_vectors(pi, seed, rank_tol=rank_tol)
    size = _budget_rows(SWEEP_BYTES, min(pi.group.order, sigma.group.order), pi.dim)

    def blocks():
        """(source of row k, block) for the random draws, then the adversarial set."""
        for start in range(0, n_vectors, size):
            rows = range(start, min(start + size, n_vectors))
            yield (lambda k, start=start: f"random[{start + k}]"), \
                random_complex_block(seed, rows, pi.dim)
        for start in range(0, len(adversarial), size):
            chunk = adversarial[start:start + size]
            yield [source for source, _ in chunk].__getitem__, \
                np.stack([vec for _, vec in chunk])

    n_skipped = n_consistent = n_inconsistent = 0
    gram_defect = 0.0
    counterexamples: list[SweepCounterexample] = []
    scratch: dict = {}
    for source, block in blocks():
        kept = np.flatnonzero((block != 0).any(axis=1))
        if len(kept) < len(block):
            n_skipped += len(block) - len(kept)
            block = block[kept]
        scaled, shift = _scaled_block(pi, block)
        pc = _scaled_flags(pi, scaled, shift, rank_tol, flag_tol, scratch, SWEEP_BYTES)
        sc = _scaled_flags(sigma, scaled, shift, rank_tol, flag_tol, scratch, SWEEP_BYTES)
        results = _clause_results(pc, sc, clauses)
        consistent = np.all(list(results.values()), axis=0)
        n_consistent += int(np.count_nonzero(consistent))
        n_inconsistent += int(np.count_nonzero(~consistent))
        if "parseval_orthonormal" in clauses:
            parseval = np.flatnonzero(pc.is_complete_frame & pc.is_parseval)
            if parseval.size:
                # one group on both sides: the block's rows fit the budget
                orbits = _rep_orbits(sigma, block[parseval])
                gram = orbits.conj() @ orbits.swapaxes(1, 2)
                gram_defect = max(gram_defect,
                                  float(np.abs(gram - np.eye(sigma.group.order)).max()))
        bad = np.flatnonzero(~consistent)
        if bad.size:
            pc_bad = _classified_rows(pi, block[bad], rank_tol, flag_tol)
            sc_bad = _classified_rows(sigma, block[bad], rank_tol, flag_tol)
            for j, k in enumerate(bad):
                clause_row = {name: bool(row[k]) for name, row in results.items()}
                verdict = DualityVerdict(block[k], pc_bad[j], sc_bad[j], clause_row, False)
                counterexamples.append(SweepCounterexample(source(int(kept[k])),
                                                           verdict.vector, verdict))

    return SweepReport(
        label=label or f"{pi.label} / {sigma.label}",
        seed=seed,
        clauses=clauses,
        n_random=n_vectors,
        n_adversarial=len(adversarial),
        n_skipped=n_skipped,
        n_consistent=n_consistent,
        n_inconsistent=n_inconsistent,
        feasible=feasible,
        commuting_residual=commuting.residual,
        parseval_gram_defect=gram_defect,
        rank_tolerance=rank_tol,
        flag_tolerance=flag_tol,
        counterexamples=counterexamples,
    )


def _classified_rows(rep: ProjectiveRep, rows: np.ndarray, rank_tol: float,
                     flag_tol: float) -> list[FrameClassification]:
    """classify_block's classification of each of rows, formed in chunks
    whose orbits fit SWEEP_BYTES."""
    size = _budget_rows(SWEEP_BYTES, rep.group.order, rep.dim)
    out = []
    for start in range(0, len(rows), size):
        classified = classify_block(rep, rows[start:start + size], rank_tol, flag_tol)
        out.extend(classified.row(j) for j in range(len(classified.orbit_span_dim)))
    return out


def make_regular_pair(group: FiniteGroup, mu: Multiplier) -> tuple[ProjectiveRep, ProjectiveRep]:
    """The left and right regular pair for (G, mu); a dual pair for every
    finite group and multiplier."""
    return left_regular(group, mu), right_regular(group, mu)


def make_regular_subpair(group: FiniteGroup, mu: Multiplier,
                         projection) -> tuple[ProjectiveRep, ProjectiveRep]:
    """Both regular representations cut down by one commuting projection.

    The projection must commute with both regular images (for abelian groups
    with ordinary multipliers, any commutant projection qualifies).
    """
    lam, rho = make_regular_pair(group, mu)
    return subrepresentation(lam, projection), subrepresentation(rho, projection)


def make_gabor_pair(lattice: GaborLattice) -> tuple[ProjectiveRep, ProjectiveRep]:
    """The lattice representation together with its adjoint-lattice partner.

    The two index groups differ in general, but the commuting condition is
    an operator-algebra statement and is certified as such.
    """
    return gabor_rep(lattice), gabor_rep(adjoint_lattice(lattice))
