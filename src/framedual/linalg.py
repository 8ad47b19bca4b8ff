"""Dense complex linear-algebra kernel: Hermitian eigendecomposition, rank and
range decisions, semidefinite functional calculus, and subspace geometry.

Everything operates on plain ``complex128`` numpy arrays.  Every rank
decision goes through one relative cut, nonzero_mask, on the energy scale:
a PSD eigenvalue is zero up to ``rank_tol`` times the largest, a singular
value (the root of an energy) up to ``sqrt(rank_tol)`` times the largest.
eigh resolves eigenvalues only to about 1e-16 of the largest, so this is
the one scale on which all callers can agree where "zero" starts.
full_rank_certificate decides the same cut without eigenvalues, by one
Cholesky factorization, whenever every eigenvalue clears it with a margin
that covers rounding; otherwise it stands aside for eigh.
Randomness is always drawn from counter-based substreams keyed by
``(seed, index)``, which makes every sweep replayable and independent of
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# Default tolerances.  RANK_TOL is a per-call parameter and the CLI's --rank-tol;
# EIG_TOL is a parameter of hermitian_eig only; ORTH_TOL is fixed.
EIG_TOL = 1e-10    # relative Hermitian-defect gate for eigendecompositions
RANK_TOL = 1e-9    # relative energy below which eigenvalues (squared singular values) are zero
ORTH_TOL = 1e-10   # orthonormality slack accepted in stored bases

_U64 = 0xFFFFFFFFFFFFFFFF

# the traces full_rank_certificate accepts: above, underflow costs under
# eps of the trace; below, no product or eigendecomposition overflows
_TRACE_MIN = np.finfo(float).tiny / np.finfo(float).eps
_TRACE_MAX = np.finfo(float).max / 4


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite complex 2-d array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidParameterError(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidParameterError("matrix entries must be finite")
    return m


def nonzero_mask(values, rank_tol: float = RANK_TOL, *, singular: bool = False,
                 scale=None) -> np.ndarray:
    """Which values lie above the zero cut: eigenvalues above ``rank_tol *
    scale``, singular values above ``sqrt(rank_tol) * scale``.  ``scale``
    defaults to the largest value along the last axis (at least 0)."""
    v = np.asarray(values)
    if scale is None:
        scale = v.max(axis=-1, keepdims=True, initial=0.0)
    return v > (np.sqrt(rank_tol) if singular else rank_tol) * scale


def full_rank_certificate(a, rank_tol: float = RANK_TOL):
    """Certify, without eigenvalues, where nonzero_mask would cut the
    spectrum hermitian_eig computes for the product A* A of every matrix A
    in the stack a (shape (k, p, q)), or for its conjugate A^T conj(A),
    which has the same spectrum and the same rounding bounds.

    Let m = min(p, q), N = p + q, eps the machine epsilon and
    delta = 32 N eps.  M is A* A (q x q) when q <= p, else A A* (p x p, the
    Gram route); either way its spectrum is the nonzero spectrum of A* A,
    and t = tr M = ||A||_F^2.  One batched Cholesky factorization runs on
    M - (rank_tol + delta) tr(M) I.  If it succeeds for every matrix, the
    eigenvalues hermitian_eig(A* A) returns above nonzero_mask's cut are
    exactly the m largest, and those sum to within ``slack`` of the computed
    trace.  Then the result is ``(trace, slack)``, arrays of shape (k,) with
    slack = m delta trace.  Otherwise it is None: the factorization failed,
    a product is not finite, a trace lies outside [tiny / eps, max / 4],
    or, on the Gram route, rank_tol < m delta.

    Why delta suffices.  Rounding errors are bounded relative to t (the
    trace range keeps underflow below eps t and every product finite):
    - a computed product with inner dimension at most N is off by at most
      (N + 2) eps |A*| |A| entrywise, so by (N + 2) eps t in 2-norm, as
      || |A*| |A| ||_F <= ||A||_F^2; so is the computed trace;
    - hermitian_eig's eigenvalues are those of its symmetrized computed
      product up to a backward error of q eps ||A* A||_2 (LAPACK's "modest
      function of the order" taken as the order), so each lies within
      (N + 3) eps t of the exact one (Weyl's inequality);
    - if Cholesky runs to completion on a Hermitian H of order m (numpy
      reads one triangle), R* R = H + dH with |dH| <= gamma_{m+1} |R*| |R|
      (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.5).
      Since || |R*| |R| ||_2 <= ||R||_F^2 = tr(R* R), ||dH||_2 is at most
      2 (m + 1) eps tr(H), and R* R is positive definite, so
      lambda_min(H) > -2 (m + 1) eps t; forming H costs 2 eps t more.
    So success gives lambda_min(M) > (rank_tol + delta) t - (2N + 2m + 8) eps t
    (for rank_tol < 1; at larger values the factorization cannot succeed),
    and each of the m largest computed eigenvalues exceeds
    rank_tol t + (1 + rank_tol)(N + 3) eps t, above the cut rank_tol
    lambda_max: 12 N eps of delta covers the sum of these terms, and the
    rest is room for a larger eigh backward error.  On the
    Gram route the q - p exactly zero eigenvalues come out at most
    (N + 3) eps t, at or under the cut once rank_tol >= m delta, as
    lambda_max >= t / m.  The m largest computed eigenvalues sum to within
    m (N + 3) eps t of t, and t to within (N + 2) eps t of the computed
    trace: together under slack.
    """
    a = np.asarray(a, dtype=complex)
    p, q = a.shape[-2:]
    m = min(p, q)
    delta = 32 * (p + q) * np.finfo(float).eps
    gram_route = q > p
    if gram_route and rank_tol < m * delta:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        product = a @ a.conj().swapaxes(-1, -2) if gram_route \
            else a.conj().swapaxes(-1, -2) @ a
        if not np.isfinite(product).all():
            return None
    trace = np.trace(product, axis1=-2, axis2=-1).real
    if not np.all((trace >= _TRACE_MIN) & (trace <= _TRACE_MAX)):
        return None
    try:
        np.linalg.cholesky(product - ((rank_tol + delta) * trace)[..., None, None] * np.eye(m))
    except np.linalg.LinAlgError:
        return None
    return trace, m * delta * trace


def hermitian_eig(a, tol: float = EIG_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or of a stack of them.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary ``v`` so
    that ``a = v @ diag(w) @ v.conj().T``, matrix by matrix for a stack of
    shape ``(..., n, n)``.  A matrix whose Hermitian defect exceeds
    ``tol * ||a||`` is rejected; the defect that remains is folded away by
    symmetrizing before one LAPACK call over the whole stack.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidParameterError("hermitian_eig needs a square matrix or a stack of them")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidParameterError("matrix entries must be finite")
    adjoint = m.conj().swapaxes(-1, -2)
    scale = np.linalg.norm(m, axis=(-2, -1))
    defect = np.linalg.norm(m - adjoint, axis=(-2, -1))
    bad = defect > tol * np.maximum(scale, 1.0)
    if np.any(bad):
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f" {first}" if first else ""
        raise InvalidParameterError(
            f"matrix{where} is not Hermitian: defect "
            f"{defect[first]:.3e} exceeds {tol:.1e} * scale"
        )
    w, v = np.linalg.eigh((m + adjoint) / 2.0)
    return w, v


def psd_power(a, p: float, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Functional calculus ``a -> a**p`` for Hermitian PSD ``a``.

    Eigenvalues that nonzero_mask cuts are treated as zero and mapped to zero
    whatever ``p`` is, which realizes the pseudo-inverse
    convention for negative powers.  A negative eigenvalue beyond tolerance
    is an error.
    """
    w, v = hermitian_eig(a)
    amax = float(np.abs(w).max(initial=0.0))
    if w[0] < -rank_tol * amax:
        raise InvalidParameterError(
            f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
        )
    support = nonzero_mask(w, rank_tol)
    out = np.zeros_like(w)
    out[support] = w[support] ** p
    return (v * out) @ v.conj().T


@dataclass(frozen=True, repr=False, eq=False)
class Subspace:
    """A subspace of C^ambient_dim carried by an orthonormal column basis
    (== is identity; subspace_equal compares spans)."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim), orthonormal columns

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise InvalidParameterError("basis shape does not match ambient dimension")
        if b.shape[1]:
            gram = b.conj().T @ b
            if np.abs(gram - np.eye(b.shape[1])).max() > ORTH_TOL:
                raise InvalidParameterError("basis columns are not orthonormal")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_columns(cls, cols, rank_tol: float = RANK_TOL) -> "Subspace":
        """Orthonormalize the span of the given columns (rank-revealing)."""
        c = np.asarray(cols, dtype=complex)
        if c.ndim == 1:
            c = c[:, None]
        u, s, _ = np.linalg.svd(c, full_matrices=False)
        rank = int(np.count_nonzero(nonzero_mask(s, rank_tol, singular=True)))
        return cls(c.shape[0], u[:, :rank])

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def complement(self) -> "Subspace":
        if self.dim == 0:
            return Subspace(self.ambient_dim, np.eye(self.ambient_dim, dtype=complex))
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(self.ambient_dim, u[:, self.dim:])

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def _check_same_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise InvalidParameterError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def _max_sine(s_from: Subspace, s_target: Subspace) -> float:
    """Largest principal-angle sine of s_from measured against s_target."""
    if s_from.dim == 0:
        return 0.0
    b = s_from.basis
    if s_target.dim == 0:
        resid = b
    else:
        t = s_target.basis
        resid = b - t @ (t.conj().T @ b)
    sv = np.linalg.svd(resid, compute_uv=False)
    return float(min(sv[0], 1.0)) if sv.size else 0.0


def subspace_angle_residual(s1: Subspace, s2: Subspace) -> float:
    """Symmetric max principal-angle sine; 0 iff the subspaces coincide."""
    _check_same_ambient(s1, s2)
    return max(_max_sine(s1, s2), _max_sine(s2, s1))


def subspace_equal(s1: Subspace, s2: Subspace, tol: float = 1e-8) -> bool:
    _check_same_ambient(s1, s2)
    return s1.dim == s2.dim and subspace_angle_residual(s1, s2) < tol


def subspace_perp(s1: Subspace, s2: Subspace, tol: float = 1e-8) -> bool:
    """True iff every basis pair has |inner product| below tol."""
    _check_same_ambient(s1, s2)
    if s1.dim == 0 or s2.dim == 0:
        return True
    return float(np.abs(s1.basis.conj().T @ s2.basis).max()) < tol


def rank_and_range(a, rank_tol: float = RANK_TOL) -> tuple[int, Subspace]:
    """Numerical rank and an orthonormal basis of the column space of a
    finite matrix."""
    sub = Subspace.from_columns(as_matrix(a), rank_tol)
    return sub.dim, sub


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix, column k = (e^{-2 pi i j k / n} / sqrt(n))_j."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for draw ``index`` of stream ``seed``.

    Distinct (seed, index) pairs give statistically independent streams, and
    the result does not depend on how many other draws ran before this one.
    """
    key = np.array([seed & _U64, index & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_complex_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard complex Gaussian vector (unit component variance)."""
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)


def random_complex_block(seed: int, indices, n: int) -> np.ndarray:
    """Row k is ``random_complex_vector(substream(seed, indices[k]), n)``.

    One Philox generator is re-keyed for every row instead of building a
    fresh one per draw, which costs more than the draw itself.
    """
    indices = list(indices)
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bits)
    state = bits.state
    real = np.empty((len(indices), n))
    imag = np.empty((len(indices), n))
    for k, index in enumerate(indices):
        state["state"]["key"] = np.array([seed & _U64, index & _U64], dtype=np.uint64)
        state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        bits.state = state
        rng.standard_normal(out=real[k])
        rng.standard_normal(out=imag[k])
    return (real + 1j * imag) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR with phase-fixed R diagonal."""
    q, r = np.linalg.qr(random_complex_vector(rng, n * n).reshape(n, n))
    d = np.diagonal(r)
    phases = d / np.where(np.abs(d) > 0, np.abs(d), 1.0)
    return q * phases
