"""Finite-dimensional von Neumann algebra calculus on matrix spaces.

Operator subspaces are stored as stacks of d x d matrices orthonormal under
the Hilbert-Schmidt inner product <X, Y> = tr(Y* X).

Two routes lead to commutants.  The operator spaces of a projective unitary
representation come from its group structure (ProjectiveRep.commutant,
.algebra and .center): the commutant is the range of the group average, the
generated algebra the span of the image.  The functions here serve arbitrary
operator families: commutant solves the null space of the stacked Sylvester
maps X -> U X - X U over the d^2-dimensional matrix space, and
double_commutant applies it twice.  Its cost grows like (number of
generators) * d^6, and the tests use it as the independent oracle for the
representation route.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import InvalidParameterError
from .linalg import ORTH_TOL, RANK_TOL, Subspace, subspace_angle_residual, subspace_equal


@dataclass(frozen=True, repr=False, eq=False)
class OperatorSubspace:
    """A linear subspace of d x d matrices with an HS-orthonormal basis
    (== is identity; operator_subspaces_equal compares spans)."""

    basis: np.ndarray  # shape (k, d, d), a read-only copy of the caller's array
    _owned: InitVar[bool] = False  # True for a basis the library just made: no copy

    def __post_init__(self, _owned):
        b = np.array(self.basis, dtype=complex, order="C", copy=None if _owned else True)
        if b.ndim != 3 or b.shape[1] != b.shape[2]:
            raise InvalidParameterError("basis must be a stack of square matrices")
        k, d = b.shape[0], b.shape[1]
        if k > d * d:
            raise InvalidParameterError("more basis matrices than the space can hold")
        if k:
            flat = b.reshape(k, d * d)
            gram = flat @ flat.conj().T
            if np.abs(gram - np.eye(k)).max() > ORTH_TOL:
                raise InvalidParameterError("basis is not HS-orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_matrices(cls, mats, rank_tol: float = RANK_TOL) -> "OperatorSubspace":
        """HS-orthonormalize the span of the given matrices."""
        m = np.asarray(mats, dtype=complex)
        if m.ndim == 2:
            m = m[None]
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise InvalidParameterError("expected square matrices")
        d = m.shape[1]
        if m.shape[0] == 0:
            return cls(np.zeros((0, d, d), dtype=complex))
        sub = Subspace.from_columns(m.reshape(m.shape[0], d * d).T, rank_tol=rank_tol)
        return cls(sub.basis.T.reshape(sub.dim, d, d), _owned=True)

    def vectorized(self) -> Subspace:
        """The same subspace viewed inside C^{d^2} (row-major vec)."""
        k, d = self.dim, self.ambient_dim
        return Subspace(d * d, self.basis.reshape(k, d * d).T)

    def __repr__(self):
        return f"OperatorSubspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def _op_stack(ops) -> np.ndarray:
    m = np.asarray(ops, dtype=complex)
    if m.ndim == 2:
        m = m[None]
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[0] == 0:
        raise InvalidParameterError("expected a nonempty stack of square matrices")
    return m


def commutant(ops, rank_tol: float = RANK_TOL) -> OperatorSubspace:
    """Basis of {X : X U = U X for every generator U}.

    Solved as the null space of the stacked maps vec(U X - X U) =
    (U (x) I - I (x) U^T) vec(X).  For unitary (or normal) generators the
    result is automatically a *-closed unital algebra.
    """
    mats = _op_stack(ops)
    d = mats.shape[1]
    eye = np.eye(d)
    blocks = [np.kron(u, eye) - np.kron(eye, u.T) for u in mats]
    stacked = np.vstack(blocks)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    # floor the cut at the generators' own scale: a stacked map that is zero
    # up to roundoff must yield the full space, not noise directions
    scale = max(float(s[0]), float(np.linalg.norm(mats, axis=(1, 2)).max()))
    kernel_rows = vh[s <= rank_tol * scale]
    basis = kernel_rows.conj().reshape(-1, d, d)
    return OperatorSubspace(basis, _owned=True)


def double_commutant(ops, rank_tol: float = RANK_TOL) -> OperatorSubspace:
    """The von Neumann algebra generated by the operators: adjoin adjoints,
    then take the commutant twice."""
    mats = _op_stack(ops)
    closed = np.concatenate([mats, mats.conj().transpose(0, 2, 1)])
    first = commutant(closed, rank_tol)
    return commutant(first.basis, rank_tol)


def operator_subspace_residual(s1: OperatorSubspace, s2: OperatorSubspace) -> float:
    """Symmetric max principal-angle sine between two operator subspaces."""
    return subspace_angle_residual(s1.vectorized(), s2.vectorized())


def operator_subspaces_equal(s1: OperatorSubspace, s2: OperatorSubspace,
                             tol: float = 1e-8) -> bool:
    return subspace_equal(s1.vectorized(), s2.vectorized(), tol)


def center(space: OperatorSubspace, rank_tol: float = RANK_TOL) -> OperatorSubspace:
    """Intersection of an algebra with its commutant.

    The intersection is the joint null space of the two stacked
    complement projectors, which stays stable when the bases are nearly
    aligned.  Inputs that are not double-commutant-stable are rejected.
    """
    generated = double_commutant(space.basis, rank_tol)
    if not operator_subspaces_equal(space, generated):
        raise InvalidParameterError(
            "input span is not an algebra (not double-commutant stable)"
        )
    comm = commutant(space.basis, rank_tol)
    d = space.ambient_dim
    d2 = d * d
    qa = space.basis.reshape(space.dim, d2).T
    qb = comm.basis.reshape(comm.dim, d2).T
    eye = np.eye(d2)
    stacked = np.vstack([eye - qa @ qa.conj().T, eye - qb @ qb.conj().T])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    cut = rank_tol * max(s[0], 1.0)
    basis = vh[s <= cut].conj().reshape(-1, d, d)
    return OperatorSubspace(basis, _owned=True)


def is_factor(space: OperatorSubspace, rank_tol: float = RANK_TOL) -> bool:
    """True iff the algebra has one-dimensional center (the scalars)."""
    return center(space, rank_tol).dim == 1


def trace_state(a, vector) -> complex:
    """The vector state A -> <A chi, chi>.

    On the algebras generated by either regular representation, evaluated at
    the identity basis vector, this is a faithful normalized trace.
    """
    a = np.asarray(a, dtype=complex)
    chi = np.asarray(vector, dtype=complex).reshape(-1)
    if a.shape != (chi.size, chi.size):
        raise InvalidParameterError("matrix and vector sizes do not match")
    return complex(np.vdot(chi, a @ chi))


def contains(space: OperatorSubspace, x, tol: float = 1e-8) -> bool:
    """Membership up to relative HS distance: the projection residual of x
    onto the span must stay below tol * ||x||_HS."""
    m = np.asarray(x, dtype=complex)
    d = space.ambient_dim
    if m.shape != (d, d):
        raise InvalidParameterError(f"expected a {d} x {d} matrix")
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return True
    flat = m.reshape(-1)
    q = space.basis.reshape(space.dim, d * d)
    resid = flat - q.T @ (q.conj() @ flat)
    return float(np.linalg.norm(resid)) < tol * norm
