"""Dense complex linear-algebra kernel: Hermitian eigendecomposition, rank and
range decisions, semidefinite functional calculus, and subspace geometry.

Everything operates on plain ``complex128`` numpy arrays.  Rank decisions use
a single relative tolerance measured against the largest singular value (or
eigenvalue) of the input, so all callers agree on where "zero" starts.
Randomness is always drawn from counter-based substreams keyed by
``(seed, index)``, which makes every sweep replayable and independent of
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

# Default tolerances, overridable per call and through the CLI.
EIG_TOL = 1e-10    # relative Hermitian-defect gate for eigendecompositions
RANK_TOL = 1e-9    # relative cutoff below which singular/eigenvalues count as zero
ORTH_TOL = 1e-10   # orthonormality slack accepted in stored bases

_U64 = 0xFFFFFFFFFFFFFFFF


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite complex 2-d array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidParameterError(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidParameterError("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    x = np.asarray(v, dtype=complex).reshape(-1)
    if x.size and not np.all(np.isfinite(x)):
        raise InvalidParameterError("vector entries must be finite")
    return x


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

    Eigenvalues at or below ``rank_tol * lambda_max`` are treated as zero and
    mapped to zero whatever ``p`` is, which realizes the pseudo-inverse
    convention for negative powers.  A negative eigenvalue beyond tolerance
    is an error.
    """
    w, v = hermitian_eig(a)
    amax = float(np.abs(w).max(initial=0.0))
    if amax == 0.0:
        return np.zeros_like(np.asarray(a, dtype=complex))
    if w[0] < -rank_tol * amax:
        raise InvalidParameterError(
            f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
        )
    lam_max = max(float(w[-1]), 0.0)
    support = w > rank_tol * lam_max
    out = np.zeros_like(w)
    out[support] = w[support] ** p
    return (v * out) @ v.conj().T


@dataclass(frozen=True, repr=False)
class Subspace:
    """A subspace of C^ambient_dim carried by an orthonormal column basis."""

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
    def from_columns(cls, cols, ambient_dim: int | None = None,
                     rank_tol: float = RANK_TOL) -> "Subspace":
        """Orthonormalize the span of the given columns (rank-revealing)."""
        c = np.asarray(cols, dtype=complex)
        if c.ndim == 1:
            c = c[:, None]
        d = c.shape[0] if ambient_dim is None else ambient_dim
        if c.shape[0] != d:
            raise InvalidParameterError("column length does not match ambient dimension")
        if c.shape[1] == 0 or not np.any(c):
            return cls(d, np.zeros((d, 0), dtype=complex))
        u, s, _ = np.linalg.svd(c, full_matrices=False)
        rank = int(np.count_nonzero(s > rank_tol * s[0]))
        return cls(d, u[:, :rank])

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
    """Numerical rank and an orthonormal basis of the column space."""
    m = as_matrix(a)
    if m.shape[1] == 0 or not np.any(m):
        return 0, Subspace(m.shape[0], np.zeros((m.shape[0], 0), dtype=complex))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.count_nonzero(s > rank_tol * s[0]))
    return rank, Subspace(m.shape[0], u[:, :rank])


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
