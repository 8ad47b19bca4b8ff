"""Orbit analysis for projective representations: analysis, frame and Gram
operators, frame-bound classification, Parseval normalization, orthogonality
and weak equivalence of orbit ranges, dilation to complete frame vectors, and
parameterization inside the generated algebra.

Conventions.  The inner product is linear in the first argument.  For a
representation pi and a vector xi, the analysis operator maps y to the
coefficient sequence (<y, pi(g) xi>)_g, i.e. its matrix has row g equal to
the conjugate of pi(g) xi.  The frame operator is S = Theta* Theta (dim x
dim) and the Gram matrix is Theta Theta* (|G| x |G|).

Classification reads its flags from one eigendecomposition of S.  S and the
Gram matrix have the same nonzero spectrum, so the dimension of the orbit
span decides both completeness (span = dim) and the Riesz property (span =
|G|, impossible when |G| > dim).  The orthonormal flag stays the entrywise
Gram test at the flag tolerance, run only on Riesz orbits.  classify_block
does this for a block of vectors with one batched LAPACK call; classify is
a block of one.

Two predicates are computed along two independent routes each: once through
ranges of analysis operators and once through commutant orbits.  The two
routes must agree; a disagreement raises instead of returning, because it
means the package itself is inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vonneumann
from .errors import (
    CompletionExhaustedError,
    ConstructionFailureError,
    InvalidParameterError,
    NoWitnessError,
    ParameterizationError,
    RouteDisagreementError,
    SearchExhaustedError,
)
from .linalg import (
    RANK_TOL,
    Subspace,
    hermitian_eig,
    psd_power,
    random_complex_vector,
    rank_and_range,
    subspace_equal,
    subspace_perp,
    substream,
)
from .reps import ProjectiveRep

FLAG_TOL = 1e-8    # gate for Parseval / orthonormal flags
ROUTE_TOL = 1e-7   # principal-angle gate shared by both routes of the dual checks


@dataclass(frozen=True, repr=False)
class AnalysisOperator:
    """Matrix of the analysis map y -> (<y, pi(g) xi>)_g, with provenance."""

    matrix: np.ndarray  # shape (|G|, dim); row g = conj(pi(g) xi)
    rep: ProjectiveRep
    vector: np.ndarray

    def __repr__(self):
        return f"AnalysisOperator({self.rep.label!r}, shape={self.matrix.shape})"


@dataclass(frozen=True)
class FrameClassification:
    """Spectral verdict on an orbit {pi(g) xi}.

    The bounds are the extreme nonzero eigenvalues of the frame operator
    (zero decided by the relative cut ``rank_tolerance``); boolean flags are
    decided at ``flag_tolerance``.
    """

    orbit_span_dim: int
    lower_bound: float
    upper_bound: float
    is_complete_frame: bool
    is_frame_sequence: bool
    is_parseval: bool
    is_riesz_sequence: bool
    is_orthonormal: bool
    rank_tolerance: float
    flag_tolerance: float


def _orbit(rep: ProjectiveRep, xi) -> np.ndarray:
    x = np.asarray(xi, dtype=complex).reshape(-1)
    if x.size != rep.dim:
        raise InvalidParameterError(
            f"vector length {x.size} does not match representation dim {rep.dim}"
        )
    return rep.matrices @ x  # shape (|G|, dim)


def analysis_op(rep: ProjectiveRep, xi) -> AnalysisOperator:
    orbit = _orbit(rep, xi)
    return AnalysisOperator(orbit.conj(), rep, np.asarray(xi, dtype=complex).reshape(-1))


def frame_operator(rep: ProjectiveRep, xi) -> np.ndarray:
    """S = Theta* Theta = sum_g (pi(g) xi)(pi(g) xi)*; PSD, commutes with pi."""
    orbit = _orbit(rep, xi)
    return orbit.T @ orbit.conj()


def gram_matrix(rep: ProjectiveRep, xi) -> np.ndarray:
    """Gram[g, h] = <pi(h) xi, pi(g) xi>."""
    orbit = _orbit(rep, xi)
    return orbit.conj() @ orbit.T


@dataclass(frozen=True)
class BlockClassification:
    """FrameClassification of a block of vectors, one array entry per row."""

    orbit_span_dim: np.ndarray
    lower_bound: np.ndarray
    upper_bound: np.ndarray
    is_complete_frame: np.ndarray
    is_frame_sequence: np.ndarray
    is_parseval: np.ndarray
    is_riesz_sequence: np.ndarray
    is_orthonormal: np.ndarray
    rank_tolerance: float
    flag_tolerance: float

    def row(self, k: int) -> FrameClassification:
        return FrameClassification(
            orbit_span_dim=int(self.orbit_span_dim[k]),
            lower_bound=float(self.lower_bound[k]),
            upper_bound=float(self.upper_bound[k]),
            is_complete_frame=bool(self.is_complete_frame[k]),
            is_frame_sequence=bool(self.is_frame_sequence[k]),
            is_parseval=bool(self.is_parseval[k]),
            is_riesz_sequence=bool(self.is_riesz_sequence[k]),
            is_orthonormal=bool(self.is_orthonormal[k]),
            rank_tolerance=self.rank_tolerance,
            flag_tolerance=self.flag_tolerance,
        )


def classify_block(rep: ProjectiveRep, xs, rank_tol: float = RANK_TOL,
                   flag_tol: float = FLAG_TOL) -> BlockClassification:
    """Classify the orbit of every row of xs (shape (k, dim)) from one
    eigendecomposition of its frame operator.

    S = Theta* Theta and the Gram matrix Theta Theta* have the same nonzero
    spectrum, so an orbit is a Riesz sequence exactly when its span has
    dimension |G|.  The orthonormal flag is the entrywise Gram test at
    flag_tol, run only on Riesz rows (an orthonormal orbit is Riesz).
    """
    x = np.asarray(xs, dtype=complex)
    if x.ndim != 2 or x.shape[1] != rep.dim:
        raise InvalidParameterError(
            f"vector block of shape {x.shape} does not match representation dim {rep.dim}"
        )
    # one matrix-vector product per (row, g): the same arithmetic, bit for
    # bit, as a single vector's orbit rep.matrices @ x
    orbits = (rep.matrices[None] @ x[:, None, :, None])[..., 0]  # (k, |G|, dim)
    n, d = rep.group.order, rep.dim
    w, _ = hermitian_eig(orbits.swapaxes(1, 2) @ orbits.conj())
    lam_max = np.maximum(w[:, -1], 0.0)
    nonzero = (w > rank_tol * lam_max[:, None]) & (lam_max > 0.0)[:, None]
    span_dim = np.count_nonzero(nonzero, axis=1)
    spans = span_dim > 0
    rows = np.arange(x.shape[0])
    lower = np.where(spans, w[rows, np.minimum(d - span_dim, d - 1)], 0.0)
    upper = np.where(spans, w[:, -1], 0.0)

    is_frame_sequence = np.linalg.norm(orbits[:, rep.group.identity], axis=1) > 0.0
    is_parseval = is_frame_sequence & spans & \
        (np.abs(lower - 1.0) <= flag_tol) & (np.abs(upper - 1.0) <= flag_tol)
    is_riesz = span_dim == n
    is_orthonormal = np.zeros_like(is_riesz)
    riesz = orbits[is_riesz]
    gram = riesz.conj() @ riesz.swapaxes(1, 2)
    is_orthonormal[is_riesz] = np.abs(gram - np.eye(n)).max(axis=(1, 2)) < flag_tol

    return BlockClassification(
        orbit_span_dim=span_dim,
        lower_bound=lower,
        upper_bound=upper,
        is_complete_frame=(span_dim == d) & is_frame_sequence,
        is_frame_sequence=is_frame_sequence,
        is_parseval=is_parseval,
        is_riesz_sequence=is_riesz,
        is_orthonormal=is_orthonormal,
        rank_tolerance=rank_tol,
        flag_tolerance=flag_tol,
    )


def classify(rep: ProjectiveRep, xi, rank_tol: float = RANK_TOL,
             flag_tol: float = FLAG_TOL) -> FrameClassification:
    """Classify the orbit of xi: frame bounds on its span, completeness,
    Parseval property, Riesz and orthonormal sequence flags (a block of one
    for classify_block)."""
    x = np.asarray(xi, dtype=complex).reshape(1, -1)
    return classify_block(rep, x, rank_tol, flag_tol).row(0)


def parseval_normalize(rep: ProjectiveRep, xi, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Rescale xi to a Parseval frame vector for its own orbit span by
    applying the inverse square root of the frame operator (pseudo-inverse
    on the support).  The orbit span is unchanged."""
    x = np.asarray(xi, dtype=complex).reshape(-1)
    if np.linalg.norm(x) == 0.0:
        raise InvalidParameterError("cannot Parseval-normalize the zero vector")
    s = frame_operator(rep, x)
    return psd_power(s, -0.5, rank_tol) @ x


def theta_range(rep: ProjectiveRep, xi, rank_tol: float = RANK_TOL) -> Subspace:
    """Range of the analysis operator inside the coefficient space C^|G|."""
    theta = analysis_op(rep, xi).matrix
    return rank_and_range(theta, rank_tol)[1]


def commutant_orbit(rep: ProjectiveRep, xi,
                    comm: vonneumann.OperatorSubspace | None = None,
                    rank_tol: float = RANK_TOL) -> Subspace:
    """Span of {K xi : K in the commutant of pi(G)}."""
    x = np.asarray(xi, dtype=complex).reshape(-1)
    if comm is None:
        comm = rep.commutant()
    cols = (comm.basis @ x).T  # (dim, k)
    return rank_and_range(cols, rank_tol)[1]


def _dual_route(rep, x, y, predicate, tol, comm, rank_tol):
    r1 = predicate(theta_range(rep, x, rank_tol), theta_range(rep, y, rank_tol), tol)
    if comm is None:
        comm = rep.commutant()
    r2 = predicate(commutant_orbit(rep, x, comm, rank_tol),
                   commutant_orbit(rep, y, comm, rank_tol), tol)
    if r1 != r2:
        raise RouteDisagreementError(
            f"analysis-range route says {r1} but commutant-orbit route says {r2} "
            f"for {predicate.__name__} at gate {tol:.1e}"
        )
    return r1


def pi_orthogonal(rep: ProjectiveRep, x, y, tol: float = ROUTE_TOL,
                  comm: vonneumann.OperatorSubspace | None = None,
                  rank_tol: float = RANK_TOL) -> bool:
    """True iff the ranges of the two analysis operators are orthogonal.

    Verified along two routes (analysis ranges, commutant orbits); raises
    RouteDisagreementError if they differ.
    """
    return _dual_route(rep, x, y, subspace_perp, tol, comm, rank_tol)


def pi_weakly_equivalent(rep: ProjectiveRep, x, y, tol: float = ROUTE_TOL,
                         comm: vonneumann.OperatorSubspace | None = None,
                         rank_tol: float = RANK_TOL) -> bool:
    """True iff the two analysis operators have the same range closure,
    checked along the same two routes as pi_orthogonal."""
    return _dual_route(rep, x, y, subspace_equal, tol, comm, rank_tol)


def is_frame_representation(rep: ProjectiveRep, seed: int = 0, tries: int = 3,
                            rank_tol: float = RANK_TOL) -> bool:
    """A representation admits a complete frame vector iff a generic orbit
    spans; a few seeded draws decide this reliably."""
    for t in range(tries):
        xi = random_complex_vector(substream(seed, 900_000 + t), rep.dim)
        if classify(rep, xi, rank_tol).is_complete_frame:
            return True
    return False


@dataclass(frozen=True)
class DilationResult:
    """Certified output of dilate_to_complete.

    ``vector`` is the input vector actually used (Parseval-normalized first
    when mode="parseval"); ``vector + h`` is the certified complete frame
    vector.
    """

    h: np.ndarray
    vector: np.ndarray
    mode: str
    tries: int


def dilate_to_complete(rep: ProjectiveRep, eta, mode: str = "frame",
                       seed: int = 0, max_tries: int = 5,
                       rank_tol: float = RANK_TOL, flag_tol: float = FLAG_TOL,
                       route_tol: float = ROUTE_TOL) -> DilationResult:
    """Find h orthogonal to eta in the orbit-range sense such that the orbit
    of eta + h is a frame for the whole space.

    The candidate h is a random vector pushed into the orthogonal complement
    of the commutant orbit of eta (that projection commutes with the
    commutant, which forces orthogonality of the analysis ranges).  In
    parseval mode eta is Parseval-normalized first, the candidate is further
    confined to the orbit-span complement and normalized there, and the sum
    is certified to have frame operator equal to the identity.  Every return
    is gated by explicit certification; randomness only affects how many
    tries that takes, and SearchExhaustedError means max_tries were not
    enough.
    """
    if mode not in ("frame", "parseval"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if max_tries < 0:
        raise InvalidParameterError(f"number of tries must be >= 0, got {max_tries}")
    x = np.asarray(eta, dtype=complex).reshape(-1)
    if np.linalg.norm(x) == 0.0:
        raise InvalidParameterError("eta must be nonzero")
    if not is_frame_representation(rep, seed, rank_tol=rank_tol):
        raise InvalidParameterError(
            "representation admits no complete frame vector; dilation is impossible"
        )

    base = parseval_normalize(rep, x, rank_tol) if mode == "parseval" else x
    comm = rep.commutant()

    def certified(h, tries):
        if not pi_orthogonal(rep, base, h, route_tol, comm, rank_tol):
            return None
        target = base + h
        cls = classify(rep, target, rank_tol, flag_tol)
        if not cls.is_complete_frame:
            return None
        if mode == "parseval":
            s = frame_operator(rep, target)
            if np.abs(s - np.eye(rep.dim)).max() > flag_tol:
                return None
        return DilationResult(h=h, vector=base, mode=mode, tries=tries)

    result = certified(np.zeros(rep.dim, dtype=complex), 0)
    if result is not None:
        return result

    away_from = commutant_orbit(rep, base, comm, rank_tol).complement().projector()
    orbit_cols = (rep.matrices @ base).T
    span_perp = rank_and_range(orbit_cols, rank_tol)[1].complement().projector()

    last_reason = "no candidate passed certification"
    for t in range(max_tries):
        rng = substream(seed, t)
        h = away_from @ random_complex_vector(rng, rep.dim)
        if mode == "parseval":
            h = span_perp @ h
            norm = np.linalg.norm(h)
            if norm < 1e-12:
                last_reason = "candidate collapsed to zero after projections"
                continue
            h = psd_power(frame_operator(rep, h), -0.5, rank_tol) @ h
        result = certified(h, t + 1)
        if result is not None:
            return result
        last_reason = f"candidate {t} failed certification"
    raise SearchExhaustedError(
        f"dilation failed after {max_tries} tries ({last_reason}); "
        f"rep={rep.label}, mode={mode}, seed={seed}"
    )


def orthogonal_range_witness(rep: ProjectiveRep, xi, eta_riesz,
                             rank_tol: float = RANK_TOL,
                             route_tol: float = ROUTE_TOL) -> np.ndarray:
    """A nonzero vector whose analysis range is orthogonal to that of xi.

    Requires a Riesz orbit eta_riesz (so its analysis operator maps onto the
    whole coefficient space) and a strictly deficient analysis range for xi.
    The witness is the pseudo-inverse of the Riesz analysis operator applied
    to the complement-projected identity coefficient vector.
    """
    if not classify(rep, eta_riesz, rank_tol).is_riesz_sequence:
        raise InvalidParameterError("eta_riesz does not generate a Riesz sequence")
    theta_xi = analysis_op(rep, xi).matrix
    rank, rng_sub = rank_and_range(theta_xi, rank_tol)
    n = rep.group.order
    if rank == n:
        raise NoWitnessError("analysis range of xi is already the whole space")
    chi_e = np.zeros(n, dtype=complex)
    chi_e[rep.group.identity] = 1.0
    residual_coeff = chi_e - rng_sub.projector() @ chi_e
    theta_eta = analysis_op(rep, eta_riesz).matrix
    x = np.linalg.pinv(theta_eta) @ residual_coeff
    if np.linalg.norm(x) < 1e-12:
        raise ConstructionFailureError("witness collapsed to zero unexpectedly")
    if not pi_orthogonal(rep, x, xi, route_tol, rank_tol=rank_tol):
        raise ConstructionFailureError("witness failed the orthogonality certificate")
    return x


def _hs_project(algebra: vonneumann.OperatorSubspace, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the algebra span under the HS inner
    product; for a *-algebra this is the trace-preserving conditional
    expectation."""
    coeffs = np.einsum("kij,ij->k", algebra.basis.conj(), x)
    return np.tensordot(coeffs, algebra.basis, axes=(0, 0))


def _polar_partial_isometry(x: np.ndarray, rank_tol: float) -> np.ndarray:
    u, s, vh = np.linalg.svd(x)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(x)
    r = int(np.count_nonzero(s > rank_tol * s[0]))
    return u[:, :r] @ vh[:r]


def bessel_parameterize(rep: ProjectiveRep, xi_parseval, eta,
                        tol: float = 1e-9,
                        algebra: vonneumann.OperatorSubspace | None = None,
                        rank_tol: float = RANK_TOL, seed: int = 0,
                        max_tries: int = 8) -> np.ndarray:
    """Solve eta = A xi with A in the von Neumann algebra generated by the
    representation.  The returned A is unitary exactly when eta is a
    complete Parseval frame vector, and invertible exactly when eta is a
    complete frame vector.

    A minimal-norm least-squares solution over an HS-orthonormal basis of
    the algebra is tried first; when xi_parseval is separating for the
    algebra that solution is unique and already carries the right structure.
    Otherwise the canonical partial isometry E(eta xi*) E(xi xi*)^+ (a
    conditional-expectation quotient, which maps xi to eta because a
    complete Parseval vector has flat block Grams) is completed on the
    kernel of the evaluation map by a polar-corrected generic algebra
    element.  Every return path is certified; certification failure raises
    ParameterizationError, and CompletionExhaustedError (also a
    SearchExhaustedError) when max_tries completions all fail.
    """
    x = np.asarray(xi_parseval, dtype=complex).reshape(-1)
    y = np.asarray(eta, dtype=complex).reshape(-1)
    if x.size != rep.dim or y.size != rep.dim:
        raise InvalidParameterError("vector lengths do not match representation dim")
    if max_tries < 0:
        raise InvalidParameterError(f"number of tries must be >= 0, got {max_tries}")
    if algebra is None:
        algebra = rep.algebra(rank_tol)
    cols = (algebra.basis @ x).T  # (dim, k)
    coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
    a = np.tensordot(coeffs, algebra.basis, axes=(0, 0))
    resid = float(np.linalg.norm(a @ x - y))
    if resid > tol:
        raise ParameterizationError(
            f"no algebra element maps xi to eta within {tol:.1e} "
            f"(residual {resid:.3e}); xi may not be a complete Parseval frame vector"
        )

    cls = classify(rep, y, rank_tol)
    eye = np.eye(rep.dim)

    def structured_enough(m):
        if cls.is_complete_frame and cls.is_parseval:
            return np.abs(m.conj().T @ m - eye).max() < 1e-8
        if cls.is_complete_frame:
            sv = np.linalg.svd(m, compute_uv=False)
            return sv[-1] > 1e-6 * sv[0]
        return True

    if structured_enough(a):
        return a

    # evaluation map has a kernel here: rebuild from the canonical partial
    # isometry and complete it inside the algebra
    e_yx = _hs_project(algebra, np.outer(y, x.conj()))
    e_xx = _hs_project(algebra, np.outer(x, x.conj()))
    e_xx_pinv = psd_power(e_xx, -1.0, rank_tol)
    part = e_yx @ e_xx_pinv
    if float(np.linalg.norm(part @ x - y)) <= tol and structured_enough(part):
        return part
    right_proj = e_xx @ e_xx_pinv            # projection onto the non-kernel side
    left_proj = psd_power(part @ part.conj().T, 0.0, rank_tol)
    for t in range(max_tries):
        rng = substream(seed, 800_000 + t)
        z_coeffs = (rng.standard_normal(algebra.dim)
                    + 1j * rng.standard_normal(algebra.dim))
        z = np.tensordot(z_coeffs, algebra.basis, axes=(0, 0))
        completion = _polar_partial_isometry(
            (eye - left_proj) @ z @ (eye - right_proj), rank_tol)
        candidate = part + completion
        if float(np.linalg.norm(candidate @ x - y)) <= tol and \
                structured_enough(candidate) and \
                vonneumann.contains(algebra, candidate):
            return candidate
    raise CompletionExhaustedError(
        f"found solutions of A xi = eta but none with the structure the "
        f"classification of eta promises (complete={cls.is_complete_frame}, "
        f"parseval={cls.is_parseval}) after {max_tries} completions"
    )
