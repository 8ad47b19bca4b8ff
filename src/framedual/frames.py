"""Orbit analysis for projective representations: analysis, frame and Gram
operators, frame-bound classification, Parseval normalization, orthogonality
and weak equivalence of orbit ranges, dilation to complete frame vectors, and
parameterization inside the generated algebra.

Conventions.  The inner product is linear in the first argument.  For a
representation pi and a vector xi, the analysis operator maps y to the
coefficient sequence (<y, pi(g) xi>)_g, i.e. its matrix has row g equal to
the conjugate of pi(g) xi.  The frame operator is S = Theta* Theta (dim x
dim) and the Gram matrix is Theta Theta* (|G| x |G|).

Each decision is made once: _orbits is the only product of vectors with
an operator stack, every rank (eigenvalues of S, singular values of an
analysis matrix) is cut by linalg.nonzero_mask, so classification and the
range routes agree on every orbit dimension, and classify's Parseval flag
also certifies dilation.  Every orbit pi(g) x that a report reads is formed
by _rep_orbits from the slabs of ProjectiveRep.slabs: a representation in
monomial form scatters its dense stack about a MiB at a time and never
holds it whole, and the orbits are those of the whole stack bit for bit.

Classification reads its flags from one eigendecomposition of S.  S and the
Gram matrix have the same nonzero spectrum, so the dimension of the orbit
span decides both completeness (span = dim) and the Riesz property (span =
|G|, impossible when |G| > dim).  The orthonormal flag stays the entrywise
Gram test at the flag tolerance, run only on Riesz orbits.  classify_block
does this for a block of vectors with one batched LAPACK call; classify is
a block of one.  Callers that read flags only (sweeps, the Riesz search)
go through _orbit_flags, or, for a sweep, through _scaled_flags, and three
routes decide them in turn.  First the isotypic certificate
(_isotypic_flags), where the representation has an isotypic decomposition
(ProjectiveRep.isotypic: monomial form, an abelian group, a cocycle with
homomorphic exponents, and no irreducible of degree above 1 occurring
twice): one dim x dim product per row gives the frame spectrum in closed
form, and it decides every row whose blocks all clear the rank cut with a
margin and whose trace is far from that of a Parseval orbit.  A block of
one row, such as a draw of the Riesz search, skips it, as it would not
repay the decomposition.  The rows
it leaves go in chunks whose orbits fit a byte budget (a sweep's
SWEEP_BYTES), so the rows a chunk holds shrink as |G| dim grows.  Second,
a Cholesky certificate (linalg.full_rank_certificate) decides a chunk
whose orbits all span min(dim, |G|) dimensions and none of which can be
Parseval, from orbits gathered as phase * x[perm] when the representation
is stored in monomial form.  Last, any other chunk is classified as by
classify_block.  Every flag is proved or classify_block's, so none depends
on the route or the chunks.
Classification is scale-free: a row whose entries all lie below _SMALL is
scaled up by a power of two before its orbit is formed, and its bounds back
down by the square, both exact.  Whether any orbit is a complete frame is
no draw: dilation reads ProjectiveRep.has_frame_vector, a law proved from
the Gram spectrum of the representation.

Two predicates are computed along two independent routes each: once through
ranges of analysis operators and once through commutant orbits.  The two
routes must agree; a disagreement raises instead of returning, because it
means the package itself is inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
    _TRACE_MAX,
    _TRACE_MIN,
    RANK_TOL,
    Subspace,
    full_rank_certificate,
    hermitian_eig,
    nonzero_mask,
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

# Classification scales a row whose entries all lie below this up by a power
# of two.  Every other nonzero row has a frame operator with trace at least
# 2^-400 and largest entry at least 2^-400 / dim: far from underflow, and
# above 2^-485, below which LAPACK's eigh rescales by a factor that is not a
# power of two, so such a row's bounds scale exactly with it.
_SMALL = 2.0 ** -200


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


def _vectors(xs, d: int) -> np.ndarray:
    """xs as a complex vector (d,) or block (k, d), rejected for a wrong
    length or a non-finite entry."""
    x = np.asarray(xs, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise InvalidParameterError(
            f"vector of shape {x.shape} does not match representation dim {d}")
    if not np.isfinite(x).all():
        raise InvalidParameterError("vector entries must be finite")
    return x


def _orbits(ops: np.ndarray, xs) -> np.ndarray:
    """The (m, d, d) stack ops (a slab of an image, or a commutant or algebra
    basis) applied to one vector, shape (m, d), or to each row of a (k, d) block,
    shape (k, m, d), bit for bit as ops @ x.  A wrong length or a non-finite
    entry is rejected before any arithmetic; an overflowing orbit fails the
    finiteness check of its frame operator or of rank_and_range."""
    x = _vectors(xs, ops.shape[-1])
    block = x if x.ndim == 2 else x[None]
    with np.errstate(over="ignore", invalid="ignore"):
        orbits = (ops[None] @ block[:, None, :, None])[..., 0]
    return orbits if x.ndim == 2 else orbits[0]


def _rep_orbits(rep: ProjectiveRep, xs) -> np.ndarray:
    """The orbit pi(g) x of one vector, shape (|G|, dim), or of each row of a
    (k, dim) block, shape (k, |G|, dim): bit for bit _orbits(rep.matrices,
    xs), as each group element meets the same matrix-vector product on the
    same bytes, but formed slab by slab from rep.slabs(), so that a rep in
    monomial form never holds its dense stack."""
    x = _vectors(xs, rep.dim)
    block = x if x.ndim == 2 else x[None]
    orbits = np.empty((len(block), rep.group.order, rep.dim), dtype=complex)
    for start, slab in rep.slabs():
        orbits[:, start:start + len(slab)] = _orbits(slab, block)
    return orbits if x.ndim == 2 else orbits[0]


def analysis_op(rep: ProjectiveRep, xi) -> np.ndarray:
    """Matrix of the analysis map y -> (<y, pi(g) xi>)_g, shape (|G|, dim);
    row g is conj(pi(g) xi)."""
    return _rep_orbits(rep, xi).conj()


def _frame_operators(orbits: np.ndarray) -> np.ndarray:
    """S = Theta* Theta of each (..., |G|, dim) orbit, rejected if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = orbits.swapaxes(-1, -2) @ orbits.conj()
    if not np.isfinite(s).all():
        raise InvalidParameterError("the orbit overflows, or the vector is not finite")
    return s


def frame_operator(rep: ProjectiveRep, xi) -> np.ndarray:
    """S = Theta* Theta = sum_g (pi(g) xi)(pi(g) xi)*; PSD, commutes with pi."""
    return _frame_operators(_rep_orbits(rep, xi))


def gram_matrix(rep: ProjectiveRep, xi) -> np.ndarray:
    """Gram[g, h] = <pi(h) xi, pi(g) xi>."""
    orbit = _rep_orbits(rep, xi)
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
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return FrameClassification(**{name: v[k].item() if isinstance(v, np.ndarray) else v
                                      for name, v in values.items()})


def classify_block(rep: ProjectiveRep, xs, rank_tol: float = RANK_TOL,
                   flag_tol: float = FLAG_TOL) -> BlockClassification:
    """Classify the orbit of every row of xs (shape (k, dim)) from one
    eigendecomposition of its frame operator.

    S = Theta* Theta and the Gram matrix Theta Theta* have the same nonzero
    spectrum, so an orbit is a Riesz sequence exactly when its span has
    dimension |G|.  The orthonormal flag is the entrywise Gram test at
    flag_tol, run only on Riesz rows (an orthonormal orbit is Riesz).
    """
    block, shift = _scaled_block(rep, xs)
    return _classify_orbits(rep, _rep_orbits(rep, block), rank_tol, flag_tol, shift)


def _scaled_block(rep: ProjectiveRep, xs) -> tuple[np.ndarray, np.ndarray]:
    """The (k, dim) block xs, checked, and the power of two each row is
    scaled by: a row whose entries all lie below _SMALL in modulus is
    scaled so that the largest lies in [1/2, 1), exactly; other rows, and
    zero rows, are kept as they are (shift 0)."""
    if np.ndim(xs) != 2:
        raise InvalidParameterError(f"vector block of shape {np.shape(xs)} is not (k, dim)")
    block = _vectors(xs, rep.dim)
    largest = np.abs(block).max(axis=1, initial=0.0)
    small = (largest > 0.0) & (largest < _SMALL)
    if not small.any():
        return block, np.zeros(len(block), dtype=int)
    shift = np.where(small, -np.frexp(largest)[1], 0)
    scaled = np.empty_like(block)
    scaled.real = np.ldexp(block.real, shift[:, None])
    scaled.imag = np.ldexp(block.imag, shift[:, None])
    return scaled, shift


def _classify_orbits(rep: ProjectiveRep, orbits: np.ndarray, rank_tol: float,
                     flag_tol: float, shift: np.ndarray) -> BlockClassification:
    """classify_block on the (k, |G|, dim) orbits of its block, formed from
    rows scaled by 2^shift; the bounds, and the Gram matrices of the
    orthonormal test, are scaled back by 4^-shift."""
    n, d = rep.group.order, rep.dim
    w, _ = hermitian_eig(_frame_operators(orbits))
    span_dim = np.count_nonzero(nonzero_mask(w, rank_tol), axis=1)
    spans = span_dim > 0
    rows = np.arange(orbits.shape[0])
    back = -2 * shift
    lower = np.ldexp(np.where(spans, w[rows, np.minimum(d - span_dim, d - 1)], 0.0), back)
    upper = np.ldexp(np.where(spans, w[:, -1], 0.0), back)

    is_frame_sequence = (orbits[:, rep.group.identity] != 0).any(axis=1)
    is_parseval = is_frame_sequence & spans & \
        (np.abs(lower - 1.0) <= flag_tol) & (np.abs(upper - 1.0) <= flag_tol)
    is_riesz = span_dim == n
    is_orthonormal = np.zeros_like(is_riesz)
    riesz = orbits[is_riesz]
    gram = riesz.conj() @ riesz.swapaxes(1, 2)
    if shift.any():
        gram *= np.ldexp(1.0, back[is_riesz])[:, None, None]
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
    return classify_block(rep, np.reshape(xi, (1, -1)), rank_tol, flag_tol).row(0)


@dataclass(frozen=True)
class OrbitFlags:
    """The flags of a BlockClassification, without its span and bounds."""

    is_complete_frame: np.ndarray
    is_frame_sequence: np.ndarray
    is_parseval: np.ndarray
    is_riesz_sequence: np.ndarray
    is_orthonormal: np.ndarray


_FLAG_NAMES = tuple(f.name for f in fields(OrbitFlags))


def _orbit_flags(rep: ProjectiveRep, xs, rank_tol: float = RANK_TOL,
                 flag_tol: float = FLAG_TOL) -> OrbitFlags:
    """classify_block's flags for the rows of xs (shape (k, dim)), decided
    without an eigendecomposition where a certificate can: _scaled_flags on
    the block as _scaled_block checks and scales it, in one chunk."""
    return _scaled_flags(rep, *_scaled_block(rep, xs), rank_tol, flag_tol)


def _budget_rows(budget: int, order: int, dim: int) -> int:
    """The rows whose orbits under a group of the given order, (rows, order,
    dim) complex, fit in budget bytes; at least one."""
    return max(1, budget // (16 * order * dim))


def _scaled_flags(rep: ProjectiveRep, block: np.ndarray, shift: np.ndarray,
                  rank_tol: float = RANK_TOL, flag_tol: float = FLAG_TOL,
                  scratch: dict | None = None, budget: int | None = None) -> OrbitFlags:
    """_orbit_flags on a block that _scaled_block has checked and scaled by
    2^shift.

    The isotypic certificate (_isotypic_flags) decides what rows it can of
    a block of two or more, when the representation has an isotypic
    decomposition (ProjectiveRep.isotypic, built on first use at about the
    cost of the rank certificate on a few hundred rows, which a single row,
    such as a draw of the Riesz search, does not repay); the other rows
    go in chunks of _budget_rows(budget, |G|, dim) rows (all of them when
    budget is None), so that no orbit array a chunk forms exceeds budget
    bytes, each decided by the rank certificate or as classify_block does
    (_chunk_flags).  Every row's flags are either proved or
    classify_block's, so they do not depend on the chunks.  scratch, a
    dict the caller keeps for one sweep, lends the arrays that later blocks
    and chunks reuse: fresh arrays of that size cost page faults every time.
    """
    if len(block) < 2 or rep.isotypic is None:
        return _chunked_flags(rep, block, shift, rank_tol, flag_tol, scratch, budget)
    flags = {name: np.empty(len(block), dtype=bool) for name in _FLAG_NAMES}
    rest = _isotypic_flags(rep, block, shift, rank_tol, flag_tol, flags, scratch)
    if len(rest):
        others = _chunked_flags(rep, block[rest], shift[rest], rank_tol, flag_tol, scratch,
                                budget)
        for name in _FLAG_NAMES:
            flags[name][rest] = getattr(others, name)
    return OrbitFlags(**flags)


def _chunked_flags(rep: ProjectiveRep, block: np.ndarray, shift: np.ndarray, rank_tol: float,
                   flag_tol: float, scratch: dict | None, budget: int | None) -> OrbitFlags:
    """_chunk_flags on each chunk of _budget_rows(budget, |G|, dim) rows of
    block, all of them when budget is None."""
    n, d = rep.group.order, rep.dim
    rows = len(block) if budget is None else _budget_rows(budget, n, d)
    if rows >= len(block):
        return _chunk_flags(rep, block, shift, rank_tol, flag_tol, scratch)
    flags = {name: np.empty(len(block), dtype=bool) for name in _FLAG_NAMES}
    for start in range(0, len(block), rows):
        part = slice(start, start + rows)
        chunk = _chunk_flags(rep, block[part], shift[part], rank_tol, flag_tol, scratch)
        for name in _FLAG_NAMES:
            flags[name][part] = getattr(chunk, name)
    return OrbitFlags(**flags)


def _isotypic_flags(rep: ProjectiveRep, block: np.ndarray, shift: np.ndarray,
                    rank_tol: float, flag_tol: float, flags: dict,
                    scratch: dict | None) -> np.ndarray:
    """Write the flags of the rows of block that the isotypic certificate
    decides into flags (arrays over the rows, keyed by OrbitFlags field);
    return the indices of the other rows.  rep.isotypic must not be None.

    The certificate.  With W the basis of rep.isotypic (k the degree, one
    block of columns per central character chi), y = x conj(W) takes one
    product, and lambda_chi = (|G| / k) ||y_chi||^2, t = |G| ||x||^2.  A row
    is decided when it was not scaled (shift 0), t lies in
    [tiny / eps, max / 4], every lambda_chi exceeds (rank_tol + delta) t and
    |t - r| > r flag_tol + r delta t, for r = k times the number of blocks
    and delta = 8 (|G| + dim + 4)(sqrt(dim) + 1) eps + 3 error
    + 5 phase_error (the bounds of rep.isotypic).  Its orbit then spans r
    dimensions on classify_block's cut: it is a frame sequence, complete
    iff r = dim, Riesz iff r = |G|, and neither Parseval nor orthonormal.
    No row is decided when r < dim and rank_tol < r delta.

    Why.  Let pi_e be the exact representation of rep.isotypic and S_e its
    frame operator of x.  S_e lies in pi_e(G)', so by Schur orthogonality it
    acts on block chi as (|G| / k) tr(P_chi x x*) I_k when the block holds
    one irreducible of degree k, and as |G| P_chi x x* P_chi when k = 1; the
    blocks are orthogonal.  So the nonzero eigenvalues of S_e are the
    lambda_chi of the exact basis, each k times, r in all, summing to t,
    and the other dim - r are 0.  Against them:
    - y is computed within 2 (dim + 2) sqrt(dim) eps ||x|| + error ||x|| of
      x conj(W_e) (a length-dim product against entries of modulus
      1 / sqrt|O|), and the sums of squares within (2 dim + 1) eps, so each
      computed lambda_chi lies within
      ((4.02 (dim + 2) sqrt(dim) + 2 dim + 2) eps + 2.01 error) t of the
      exact one, and the computed t within (2 dim + 1) eps t of t;
    - classify_block's frame operator is formed from the stored rep, whose
      orbit vectors lie within phase_error ||x|| of pi_e's, so S differs
      from S_e by at most 2.01 phase_error t; forming it from the dense
      orbits and its eigh add at most (2 |G| + 4 dim + 11) eps t, as in
      linalg.full_rank_certificate's proof.  With Weyl's inequality each
      computed eigenvalue lies within e t of its exact counterpart, for
      e = (2 |G| + 4 dim + 11) eps + 2.01 phase_error.
    delta exceeds 1.01 times the sum of the relative lambda error, 2 e and
    the relative error of t.  So the r largest computed eigenvalues exceed
    rank_tol (1 + e) t, at least rank_tol times the largest, and the other
    dim - r, at most e t, lie at or under rank_tol (t / r - e t), which
    rank_tol >= r delta ensures: exactly r eigenvalues are nonzero.  A
    Parseval orbit has all r of them within flag_tol of 1 and an
    orthonormal one (Riesz, r = |G|) Gram diagonal entries within flag_tol
    of 1, so either has a trace within r flag_tol of r, and the computed
    eigenvalues sum to within r delta t of the computed t.  An unscaled
    nonzero row has an entry of modulus at least 2^-200, so its orbit at
    the identity is not zero.  Rows whose squares overflow fail the trace
    range, and are left to the other routes with the rest.
    """
    decomposition = rep.isotypic
    n, d, k = rep.group.order, rep.dim, decomposition.degree
    r = k * len(decomposition.starts)
    eps = np.finfo(float).eps
    delta = (8 * (n + d + 4) * (np.sqrt(d) + 1) * eps + 3 * decomposition.error
             + 5 * decomposition.phase_error)
    if r < d and rank_tol < r * delta:
        return np.arange(len(block))
    coefficients = np.matmul(block, decomposition.analysis,
                             out=_scratch(scratch, "isotypic", block.shape))
    values = np.ascontiguousarray(block).view(float)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.square(coefficients.view(float), out=coefficients.view(float))
        energy = np.add.reduceat(squares, 2 * decomposition.starts, axis=1) * (n // k)
        trace = np.einsum("ij,ij->i", values, values) * n
        decided = (shift == 0) & (trace >= _TRACE_MIN) & (trace <= _TRACE_MAX) \
            & (energy > ((rank_tol + delta) * trace)[:, None]).all(axis=1) \
            & (np.abs(trace - r) > r * flag_tol + r * delta * trace)
    for name, value in (("is_complete_frame", r == d), ("is_frame_sequence", True),
                        ("is_parseval", False), ("is_riesz_sequence", r == n),
                        ("is_orthonormal", False)):
        flags[name][decided] = value
    return np.flatnonzero(~decided)


def _chunk_flags(rep: ProjectiveRep, block: np.ndarray, shift: np.ndarray, rank_tol: float,
                 flag_tol: float, scratch: dict | None) -> OrbitFlags:
    """The flags of one chunk of _scaled_flags.

    The certificate runs on the orbits of the chunk: for a representation
    stored in monomial form, gathered as phase * x[perm], else the dense
    orbits classify_block forms.  When
    linalg.full_rank_certificate holds for them (conjugate analysis
    operators: their product is the conjugate of S; the gathered orbits lie
    within its orbit gap of the dense ones), every orbit spans
    m = min(dim, |G|) dimensions on classify_block's cut, which fixes the
    completeness and Riesz flags.  If moreover no row was scaled and each
    trace lies farther than m flag_tol + slack from m, no row is Parseval
    (its m nonzero eigenvalues would lie within flag_tol of 1) and none is
    orthonormal (its Gram diagonal would, and Riesz means m = |G|).  Any
    other chunk, and one whose orbit overflows, is classified as
    classify_block does, from the dense orbits, so every flag is either
    proved or classify_block's, bit for bit.
    """
    n, d = rep.group.order, rep.dim
    m = min(n, d)
    if rep.perm is None:
        orbits = _rep_orbits(rep, block)
    else:
        orbits = _gathered_orbits(rep, block, _scratch(scratch, "orbits", (len(block), n, d)))
    certificate = full_rank_certificate(orbits, rank_tol,
                                        out=_scratch(scratch, "product", (len(block), m, m)),
                                        conj=_scratch(scratch, "conj", orbits.shape))
    if certificate is not None:
        trace, slack = certificate
        if np.all((shift == 0) & (np.abs(trace - m) > m * flag_tol + slack)):
            is_frame_sequence = (orbits[:, rep.group.identity] != 0).any(axis=1)
            never = np.zeros_like(is_frame_sequence)
            return OrbitFlags(is_complete_frame=is_frame_sequence & (m == d),
                              is_frame_sequence=is_frame_sequence,
                              is_parseval=never,
                              is_riesz_sequence=np.full_like(never, m == n),
                              is_orthonormal=never)
    if rep.perm is not None:  # classify_block's own orbits, not the gathered ones
        orbits = _rep_orbits(rep, block)
    classified = _classify_orbits(rep, orbits, rank_tol, flag_tol, shift)
    return OrbitFlags(**{f.name: getattr(classified, f.name) for f in fields(OrbitFlags)})


def _gathered_orbits(rep: ProjectiveRep, block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The orbits of the rows of block under a rep stored in monomial form,
    phase[g, i] * x[perm[g, i]], written into out (shape (k, |G|, dim))."""
    np.take(block, rep.perm, axis=1, out=out, mode="clip")  # mode "raise" would buffer
    with np.errstate(over="ignore", invalid="ignore"):
        return np.multiply(out, rep.phase, out=out)


def _scratch(scratch: dict | None, name: str, shape: tuple) -> np.ndarray:
    """A complex array of the given shape: the leading rows of the one that
    scratch keeps under name and the trailing shape, grown as needed; a
    fresh array when scratch is None."""
    if scratch is None:
        return np.empty(shape, dtype=complex)
    key = (name, *shape[1:])
    kept = scratch.get(key)
    if kept is None or len(kept) < shape[0]:
        kept = scratch[key] = np.empty(shape, dtype=complex)
    return kept[:shape[0]]


def parseval_normalize(rep: ProjectiveRep, xi, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Rescale xi to a Parseval frame vector for its own orbit span by
    applying the inverse square root of the frame operator (pseudo-inverse
    on the support).  The orbit span is unchanged.

    S^-1/2 x does not change when x is scaled, so a vector whose entries all
    lie below _SMALL is first scaled up by a power of two, as classification
    does, and nothing is scaled back: its frame operator would underflow."""
    x = np.asarray(xi, dtype=complex).reshape(-1)
    if not np.any(x):
        raise InvalidParameterError("cannot Parseval-normalize the zero vector")
    x = _scaled_block(rep, _vectors(x, rep.dim)[None])[0][0]
    return psd_power(frame_operator(rep, x), -0.5, rank_tol) @ x


def theta_range(rep: ProjectiveRep, xi, rank_tol: float = RANK_TOL) -> Subspace:
    """Range of the analysis operator inside the coefficient space C^|G|."""
    return rank_and_range(analysis_op(rep, xi), rank_tol)[1]


def commutant_orbit(rep: ProjectiveRep, xi, rank_tol: float = RANK_TOL) -> Subspace:
    """Span of {K xi : K in the commutant of pi(G)}."""
    return rank_and_range(_orbits(rep.commutant().basis, xi).T, rank_tol)[1]


def _dual_route(rep, x, y, predicate, tol, rank_tol):
    r1 = predicate(theta_range(rep, x, rank_tol), theta_range(rep, y, rank_tol), tol)
    r2 = predicate(commutant_orbit(rep, x, rank_tol),
                   commutant_orbit(rep, y, rank_tol), tol)
    if r1 != r2:
        raise RouteDisagreementError(
            f"analysis-range route says {r1} but commutant-orbit route says {r2} "
            f"for {predicate.__name__} at gate {tol:.1e}"
        )
    return r1


def pi_orthogonal(rep: ProjectiveRep, x, y, tol: float = ROUTE_TOL,
                  rank_tol: float = RANK_TOL) -> bool:
    """True iff the ranges of the two analysis operators are orthogonal.

    Verified along two routes (analysis ranges, commutant orbits); raises
    RouteDisagreementError if they differ.
    """
    return _dual_route(rep, x, y, subspace_perp, tol, rank_tol)


def pi_weakly_equivalent(rep: ProjectiveRep, x, y, tol: float = ROUTE_TOL,
                         rank_tol: float = RANK_TOL) -> bool:
    """True iff the two analysis operators have the same range closure,
    checked along the same two routes as pi_orthogonal."""
    return _dual_route(rep, x, y, subspace_equal, tol, rank_tol)


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
    is certified to be a complete Parseval frame vector.  Every return
    is gated by explicit certification; randomness only affects how many
    tries that takes, and SearchExhaustedError means max_tries were not
    enough.  A representation that has no complete frame vector
    (ProjectiveRep.has_frame_vector) raises InvalidParameterError.
    """
    if mode not in ("frame", "parseval"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if max_tries < 0:
        raise InvalidParameterError(f"number of tries must be >= 0, got {max_tries}")
    x = np.asarray(eta, dtype=complex).reshape(-1)
    if not np.any(x):
        raise InvalidParameterError("eta must be nonzero")
    if not rep.has_frame_vector:
        raise InvalidParameterError(
            "representation admits no complete frame vector; dilation is impossible"
        )

    base = parseval_normalize(rep, x, rank_tol) if mode == "parseval" else x

    def certified(h, tries):
        if not pi_orthogonal(rep, base, h, route_tol, rank_tol):
            return None
        cls = classify(rep, base + h, rank_tol, flag_tol)
        if not cls.is_complete_frame or (mode == "parseval" and not cls.is_parseval):
            return None
        return DilationResult(h=h, vector=base, mode=mode, tries=tries)

    result = certified(np.zeros(rep.dim, dtype=complex), 0)
    if result is not None:
        return result

    away_from = commutant_orbit(rep, base, rank_tol).complement().projector()
    orbit_span = rank_and_range(_rep_orbits(rep, base).T, rank_tol)[1]
    span_perp = orbit_span.complement().projector()

    last_reason = "no candidate passed certification"
    for t in range(max_tries):
        draw = random_complex_vector(substream(seed, t), rep.dim)
        h = away_from @ draw
        if mode == "parseval":
            h = span_perp @ h
            # both projections are contractions: the draw sets the scale
            if not nonzero_mask(np.linalg.norm(h), rank_tol, singular=True,
                                scale=np.linalg.norm(draw)):
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
    rank, rng_sub = rank_and_range(analysis_op(rep, xi), rank_tol)
    n = rep.group.order
    if rank == n:
        raise NoWitnessError("analysis range of xi is already the whole space")
    chi_e = np.zeros(n, dtype=complex)
    chi_e[rep.group.identity] = 1.0
    residual_coeff = chi_e - rng_sub.projector() @ chi_e
    if not nonzero_mask(np.linalg.norm(residual_coeff), rank_tol, singular=True, scale=1.0):
        raise ConstructionFailureError(
            "the identity coefficient vector lies in the analysis range of xi")
    x = np.linalg.pinv(analysis_op(rep, eta_riesz)) @ residual_coeff
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
    r = int(np.count_nonzero(nonzero_mask(s, rank_tol, singular=True)))
    return u[:, :r] @ vh[:r]


def bessel_parameterize(rep: ProjectiveRep, xi_parseval, eta,
                        tol: float = 1e-9,
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
    if max_tries < 0:
        raise InvalidParameterError(f"number of tries must be >= 0, got {max_tries}")
    x = np.asarray(xi_parseval, dtype=complex).reshape(-1)
    y = np.asarray(eta, dtype=complex).reshape(-1)
    cls = classify(rep, y, rank_tol)
    algebra = rep.algebra(rank_tol)
    cols = _orbits(algebra.basis, x).T  # (dim, k)
    coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
    a = np.tensordot(coeffs, algebra.basis, axes=(0, 0))
    resid = float(np.linalg.norm(a @ x - y))
    if resid > tol:
        raise ParameterizationError(
            f"no algebra element maps xi to eta within {tol:.1e} "
            f"(residual {resid:.3e}); xi may not be a complete Parseval frame vector"
        )

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
