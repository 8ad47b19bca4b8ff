"""Projective unitary representations of finite groups on C^dim.

A representation holds the cocycle mu that twists its compositions,
pi(g) pi(h) = mu(g, h) pi(gh), and its unitaries in one of two forms: a
dense stack, one matrix per group element, or the monomial form of the
built-in constructions (regular, monomial, Gabor and character reps), where
row i of pi(g) holds the single entry phase[g, i] in column perm[g, i] and
the dense stack is built on first read.

Its three operator spaces come from the group structure.  The group average
E(X) = |G|^-1 sum_g pi(g) X pi(g)* is the Hilbert-Schmidt-orthogonal
projection onto the commutant pi(G)' (the cocycle phases cancel inside it);
the generated algebra pi(G)'' is the span of the image; the center is the
image of that span under E.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, NotInvariantError, NotProjectiveError
from .groups import (
    FiniteGroup,
    Multiplier,
    certify_multiplier,
    cyclic_group,
    trivial_multiplier,
    validate_multiplier,
)
from .linalg import RANK_TOL, hermitian_eig
from .vonneumann import OperatorSubspace

REP_TOL = 1e-10  # default residual gate for unitarity and twisted composition
AVERAGE_TOL = 1e-8  # gate on the group average: self-adjoint, eigenvalues in {0, 1}


class ProjectiveRep:
    """Unitaries pi(g), g running over a finite group, with their cocycle.

    ProjectiveRep(group, multiplier, matrices) stores a copy of the
    (order, dim, dim) stack it is given.  The constructions of this module store the monomial
    form instead: perm and phase, integer and complex arrays of shape
    (order, dim), row i of pi(g) holding phase[g, i] in column perm[g, i].
    Then .matrices is scattered from them on first read and cached.  Either
    way .matrices is a read-only C-contiguous complex128 stack; perm and
    phase are None for a dense rep.  Instances are immutable.
    """

    perm: np.ndarray | None = None
    phase: np.ndarray | None = None

    def __init__(self, group: FiniteGroup, multiplier: Multiplier, matrices,
                 label: str = "pi"):
        m = np.array(matrices, dtype=complex, order="C")  # a copy: the caller keeps its array
        if m.ndim != 3 or m.shape[0] != group.order or m.shape[1] != m.shape[2]:
            raise InvalidParameterError(
                f"matrix stack shape {m.shape} does not fit group of order "
                f"{group.order}"
            )
        if m.shape[1] < 1:
            raise InvalidParameterError("representation dimension must be >= 1")
        m.setflags(write=False)
        vars(self).update(group=group, multiplier=multiplier, label=label, dim=m.shape[1],
                          matrices=m)

    @classmethod
    def _monomial(cls, group: FiniteGroup, multiplier: Multiplier, perm, phase,
                  label: str) -> "ProjectiveRep":
        """The monomial form, for callers that have checked it: perm holds a
        permutation of range(dim) per row, with phase of the same shape."""
        rep = cls.__new__(cls)
        perm = np.array(perm, dtype=np.intp)
        phase = np.array(phase, dtype=complex)
        perm.setflags(write=False)
        phase.setflags(write=False)
        vars(rep).update(group=group, multiplier=multiplier, label=label, dim=perm.shape[1],
                         perm=perm, phase=phase)
        return rep

    def __setattr__(self, name, value):
        raise AttributeError(f"ProjectiveRep is immutable: cannot set {name!r}")

    @cached_property
    def matrices(self) -> np.ndarray:
        """The (order, dim, dim) stack pi(g); read-only."""
        n, d = self.perm.shape
        mats = np.zeros((n, d, d), dtype=complex)
        mats[np.arange(n)[:, None], np.arange(d), self.perm] = self.phase
        mats.setflags(write=False)
        return mats

    def group_average(self) -> np.ndarray:
        """The d^2 x d^2 matrix of E(X) = |G|^-1 sum_g pi(g) X pi(g)* acting
        on row-major vec(X): sum_g pi(g) (x) conj(pi(g)) / |G|."""
        n, d = self.matrices.shape[0], self.dim
        flat = self.matrices.reshape(n, d * d)
        # (flat.T @ flat.conj())[(i, k), (j, l)] = sum_g pi(g)[i, k] conj(pi(g)[j, l])
        e = (flat.T @ flat.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3)
        return e.reshape(d * d, d * d) / n

    def commutant(self) -> OperatorSubspace:
        """pi(G)', the range of the group average, computed once per rep.

        E is an orthogonal projection for every projective unitary family,
        so its eigenvalues are 0 or 1 and the cut sits at 1/2.  A family for
        which E is not self-adjoint, has an eigenvalue off {0, 1}, or keeps a
        rank other than trace E = |G|^-1 sum_g |tr pi(g)|^2 is not projective
        unitary, and raises NotProjectiveError.
        """
        return self._commutant

    @cached_property
    def _commutant(self) -> OperatorSubspace:
        d = self.dim
        e = self.group_average()
        defect = float(np.abs(e - e.conj().T).max())
        w, v = np.linalg.eigh(e)
        off = float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())
        if defect > AVERAGE_TOL or off > AVERAGE_TOL:
            raise NotProjectiveError(
                f"group average of {self.label} is not an orthogonal projection "
                f"(self-adjoint defect {defect:.3e}, eigenvalue {off:.3e} off "
                f"{{0, 1}}); the family is not projective unitary"
            )
        keep = w > 0.5
        traces = np.trace(self.matrices, axis1=1, axis2=2)
        expected = float(np.sum(np.abs(traces) ** 2)) / self.group.order
        if int(keep.sum()) != round(expected):
            raise NotProjectiveError(
                f"group average of {self.label} keeps {int(keep.sum())} dimensions "
                f"but its trace is {expected:.6f}"
            )
        return OperatorSubspace(v[:, keep].T.reshape(-1, d, d), _owned=True)

    def algebra(self, rank_tol: float = RANK_TOL) -> OperatorSubspace:
        """pi(G)'', the span of the image: a projective unitary family is
        closed under products and adjoints up to phases."""
        return OperatorSubspace.from_matrices(self.matrices, rank_tol=rank_tol)

    def center(self, rank_tol: float = RANK_TOL) -> OperatorSubspace:
        """pi(G)'' intersected with pi(G)', the span of E(pi(h))."""
        n, d = self.matrices.shape[0], self.dim
        q = self.commutant().basis.reshape(-1, d * d)
        flat = self.matrices.reshape(n, d * d)
        images = (flat @ q.conj().T) @ q  # E(pi(h)) through the commutant's HS basis
        return OperatorSubspace.from_matrices(images.reshape(n, d, d), rank_tol=rank_tol)

    def __repr__(self):
        return (f"ProjectiveRep({self.label!r}, group={self.group.label!r}, "
                f"dim={self.dim})")


@dataclass(frozen=True)
class RepVerification:
    """Residuals of the unitarity / identity / twisted-composition checks,
    with the worst composition pair for debugging."""

    passed: bool
    unitarity_residual: float
    identity_residual: float
    composition_residual: float
    worst_pair: tuple[int, int] | None
    tolerance: float


def verify_rep(rep: ProjectiveRep, tol: float = REP_TOL) -> RepVerification:
    """Check that every matrix is unitary, pi(e) = I, and that
    pi(g) pi(h) = mu(g, h) pi(gh) holds for all pairs.

    As in validate_multiplier, a NaN or infinite residual fails its check and
    each residual field holds the largest finite residual, which keeps the
    report standard JSON.  A non-finite composition residual ranks above
    every finite one, so worst_pair names the first pair that has one.
    """
    mats = rep.matrices
    eye = np.eye(rep.dim)
    table = rep.multiplier.table
    with np.errstate(invalid="ignore"):  # inf - inf, inf * 0 in a stack with an infinite entry
        gram = np.einsum("gji,gjk->gik", mats.conj(), mats)
        unit_resid, unit_finite = _finite_max(np.abs(gram - eye[None]))
        id_resid, id_finite = _finite_max(np.abs(mats[rep.group.identity] - eye))
        comp_resid, worst, worst_pair = 0.0, 0.0, None
        for g, _, resid in _twisted_compositions(mats, rep.group, lambda g, p, t: table[g]):
            comp_resid = max(comp_resid, _finite_max(resid)[0])
            ranked = np.where(np.isnan(resid), np.inf, resid)
            h = int(ranked.argmax())
            if ranked[h] > worst:
                worst, worst_pair = float(ranked[h]), (g, h)
    passed = (unit_finite and id_finite and unit_resid <= tol and id_resid <= tol
              and worst <= tol)
    return RepVerification(passed, unit_resid, id_resid, comp_resid, worst_pair, tol)


def _finite_max(resid: np.ndarray) -> tuple[float, bool]:
    """The largest finite entry of resid (0.0 if there is none), and whether
    every entry is finite."""
    finite = np.isfinite(resid)
    return float(resid.max(where=finite, initial=0.0)), bool(finite.all())


def _twisted_compositions(mats: np.ndarray, group: FiniteGroup, scalars_for):
    """Compare pi(g) pi(h) with s(g, h) pi(gh) for every pair.

    Yields (g, s(g, .), residuals) per g, where residuals[h] is the largest
    entry of |pi(g) pi(h) - s(g, h) pi(gh)| and the row s(g, .) is
    scalars_for(g, prods, targets) on prods[h] = pi(g) pi(h) and
    targets[h] = pi(gh).  One set of (|G|, d, d) buffers serves all g: fresh
    temporaries of this size per g cost more in page faults than in
    arithmetic.
    """
    cay = group.cayley
    prods = np.empty_like(mats)
    targets = np.empty_like(mats)
    magnitudes = np.empty(mats.shape)
    for g in range(group.order):
        np.matmul(mats[g], mats, out=prods)
        np.take(mats, cay[g], axis=0, out=targets)
        scalars = scalars_for(g, prods, targets)
        targets *= scalars[:, None, None]
        prods -= targets
        yield g, scalars, np.abs(prods, out=magnitudes).max(axis=(1, 2))


def _require_valid(group: FiniteGroup, mu: Multiplier) -> None:
    """Reject a multiplier defined on another group, or one that fails
    validate_multiplier at UNIT_TOL, naming its first counterexample.

    certify_multiplier decides first, at O(|S| |G|^2); only a table it does
    not certify goes through the all-triples check.  The certificate passes
    only tables that the all-triples check passes, so the accepted tables
    and the messages of rejected ones are those of the all-triples check.
    """
    if not (mu.group == group):
        raise InvalidParameterError("multiplier is defined on a different group")
    if certify_multiplier(mu):
        return
    report = validate_multiplier(mu)
    if not report.passed:
        raise InvalidParameterError(
            f"invalid multiplier: first counterexample {report.counterexample}"
        )


def left_regular(group: FiniteGroup, mu: Multiplier) -> ProjectiveRep:
    """Left regular projective representation on C^|G|:
    column h of L(g) is mu(g, h) at row g*h, so row i holds mu(g, g^-1 i)
    in column g^-1 i."""
    _require_valid(group, mu)
    perm = group.cayley[group.inverse]
    phase = np.take_along_axis(mu.table, perm, axis=1)
    return ProjectiveRep._monomial(group, mu, perm, phase, label=f"lambda[{group.label}]")


def right_regular(group: FiniteGroup, mu: Multiplier) -> ProjectiveRep:
    """Right regular projective representation on C^|G|:
    column h of R(g) is mu(h, g^-1) at row h*g^-1.

    Its cocycle is nu(g, h) = mu(h^-1, g^-1).  This coincides with the
    entrywise conjugate of mu exactly when mu(g, g^-1) = 1 for all g (in
    particular for ordinary representations); in general the two differ by
    the coboundary of g -> mu(g, g^-1).
    """
    _require_valid(group, mu)
    inv = group.inverse
    perm = group.cayley.T  # row i = h g^-1 of R(g) holds mu(h, g^-1) in column h = i g
    phase = mu.table[perm, inv[:, None]]
    nu = Multiplier(group, mu.table[np.ix_(inv, inv)].T)
    return ProjectiveRep._monomial(group, nu, perm, phase, label=f"rho[{group.label}]")


def monomial_rep(group: FiniteGroup, mu: Multiplier, perm, phase,
                 label: str = "pi") -> ProjectiveRep:
    """Projective representation of monomial unitaries: row i of pi(g) holds
    the single entry phase[g, i] in column perm[g, i], so
    (pi(g) x)[i] = phase[g, i] x[perm[g, i]].

    The twisted composition is checked in that form: row i of pi(g) pi(h)
    holds phase[g, i] phase[h, perm[g, i]] in column perm[h, perm[g, i]],
    which must be column perm[gh, i] exactly, with value mu(g, h) phase[gh, i]
    within REP_TOL, and mu must be a cocycle at UNIT_TOL.  A row of perm that
    is not a permutation, a phase off the unit circle or a failed
    composition raises NotProjectiveError, an invalid mu then
    InvalidParameterError.  The rep stores perm and phase; its dense stack
    is built on first read of .matrices.

    A certificate decides first, at O(|S| |G| dim): certify_multiplier
    passes, and the composition check holds for g in the generating set S
    only, with phase residuals gated at REP_TOL / (3L) (L the depth of S).
    On any miss the check runs for every g and mu goes through
    _require_valid, so inputs are accepted, and rejected with the message
    of the first failing pair, exactly as by the check over all pairs.

    Why the generator rows suffice.  Write perm_g for i -> perm[g, i]; the
    column condition reads perm_gh = perm_h o perm_g.  Taking h = e in it
    for one s gives perm_e = id, and for a word g = s g' with the condition
    known for g', perm_(gh) = perm_(g'h) o perm_s = perm_h o perm_g' o perm_s
    = perm_h o perm_g: it holds for all pairs, exactly.  For the values let
    R(g, h) = pi(g) pi(h) - mu(g, h) pi(gh), a monomial matrix whose operator
    norm is its largest entry, and D the signed cocycle residual of
    certify_multiplier.  Expanding pi(s) pi(g') pi(h) both ways gives

        mu(s, g') R(g, h) = mu(g', h) R(s, g'h) + pi(s) R(g', h)
                            - R(s, g') pi(h) + D(s, g', h) pi(gh).

    With eps = REP_TOL / (3L) on the generator rows, D within
    UNIT_TOL / (3L) on the generator slices, and every modulus within
    REP_TOL of 1, induction on the word length bounds every R(g, h) by
    about (2L - 1) eps + L UNIT_TOL / (3L), which is under 0.68 REP_TOL; and
    R(e, h) is within eps plus twice the normalization residual of mu.
    """
    if not (mu.group == group):
        raise InvalidParameterError("multiplier is defined on a different group")
    n = group.order
    p = np.asarray(perm)
    ph = np.asarray(phase, dtype=complex)
    if p.ndim != 2 or p.shape[0] != n or ph.shape != p.shape or p.dtype.kind not in "iu":
        raise InvalidParameterError(
            f"perm {p.shape} ({p.dtype}) and phase {ph.shape} must be integer and "
            f"complex arrays of one shape (order {n}, dim)"
        )
    d = p.shape[1]
    if d < 1:
        raise InvalidParameterError("representation dimension must be >= 1")
    if p.min() < 0 or p.max() >= d:
        raise InvalidParameterError(f"perm entries must be column indices 0..{d - 1}")

    not_perm = np.flatnonzero((np.sort(p, axis=1) != np.arange(d)).any(axis=1))
    if not_perm.size:
        g = int(not_perm[0])
        raise NotProjectiveError(f"perm[{g}] is not a permutation; pi({g}) is not unitary")
    modulus_off = np.abs(np.abs(ph) - 1.0)
    if not modulus_off.max() <= REP_TOL:  # a NaN phase fails too
        g, i = np.unravel_index(int(modulus_off.argmax()), ph.shape)
        raise NotProjectiveError(
            f"phase[{g}, {i}] has modulus {abs(ph[g, i]):.6f}; pi({g}) is not unitary"
        )

    gens = group.generating_set
    certified = (gens.depth > 0
                 and _composition_failure(group, mu, p, ph, gens.elements,
                                          REP_TOL / (3 * gens.depth)) is None
                 and certify_multiplier(mu))
    if not certified:
        failure = _composition_failure(group, mu, p, ph, range(n), REP_TOL)
        if failure is not None:
            raise NotProjectiveError(failure)
        _require_valid(group, mu)

    return ProjectiveRep._monomial(group, mu, p, ph, label=label)


def _composition_failure(group: FiniteGroup, mu: Multiplier, p: np.ndarray,
                         ph: np.ndarray, elements, gate: float) -> str | None:
    """monomial_rep's composition check of pi(g) pi(h) against mu(g, h) pi(gh)
    for g in elements and every h: the message of the first failure, or None.

    Row i of the product has its entry in column support[h, i] =
    perm[h, perm[g, i]], which must be target[h, i] = perm[gh, i] exactly,
    and its value must lie within gate of mu(g, h) phase[gh, i].
    """
    cay = group.cayley
    for g in elements:
        support, target = p[:, p[g]], p[cay[g]]
        if not np.array_equal(support, target):
            h, i = np.argwhere(support != target)[0]
            return (f"pi({g}) pi({h}) is not a multiple of pi({g}*{h}): row {i} has its "
                    f"entry in column {support[h, i]}, not {target[h, i]}")
        resid = np.abs(ph[g] * ph[:, p[g]] - mu.table[g][:, None] * ph[cay[g]])
        if not resid.max() <= gate:  # a NaN residual fails too
            h, i = np.unravel_index(int(resid.argmax()), resid.shape)
            return (f"pi({g}) pi({h}) differs from mu({g},{h}) pi({g}*{h}) by "
                    f"{resid[h, i]:.3e} in row {i}")
    return None


def derive_multiplier(matrices, group: FiniteGroup, tol: float = 1e-8) -> Multiplier:
    """Recover the cocycle from operator compositions, for families whose
    cocycle is not known in closed form.

    For every pair, pi(g) pi(h) must be a scalar multiple of pi(gh); the
    scalar is read off as tr(pi(gh)* pi(g) pi(h)) / dim and renormalized to
    unit modulus.  A modulus off 1 by more than 1e-6, or a proportionality
    residual above tol, means the family is not projective.
    """
    mats = np.ascontiguousarray(matrices, dtype=complex)
    n = group.order
    if mats.ndim != 3 or mats.shape[0] != n or mats.shape[1] != mats.shape[2]:
        raise InvalidParameterError("matrix stack does not fit the group")
    d = mats.shape[1]

    def unit_scalars(g, prods, targets):
        scalars = np.vecdot(targets.reshape(n, d * d), prods.reshape(n, d * d)) / d
        moduli = np.abs(scalars)
        if np.any(np.abs(moduli - 1.0) > 1e-6):
            h = int(np.abs(moduli - 1.0).argmax())
            raise NotProjectiveError(
                f"composition at pair ({g},{h}) is proportional with |scalar|="
                f"{moduli[h]:.6f}, not unit modulus"
            )
        return scalars / moduli

    table = np.zeros((n, n), dtype=complex)
    for g, scalars, resid in _twisted_compositions(mats, group, unit_scalars):
        if resid.max() > tol:
            h = int(resid.argmax())
            raise NotProjectiveError(
                f"pi({g}) pi({h}) is not a scalar multiple of pi({g}*{h}): "
                f"residual {resid[h]:.3e}"
            )
        table[g] = scalars
    mu = Multiplier(group, table)
    report = validate_multiplier(mu, tol=max(tol, 1e-10))
    if not report.passed:
        raise NotProjectiveError(
            f"recovered table is not a cocycle: counterexample {report.counterexample}"
        )
    return mu


def subrepresentation(rep: ProjectiveRep, projection, tol: float = REP_TOL) -> ProjectiveRep:
    """Restrict a representation to the range of a commuting orthogonal
    projection, expressed in the eigenbasis of the projection.

    The basis is the eigenvalue-1 eigenvectors of the projection in eigh
    order, so restricted matrices are reproducible across runs.
    """
    p = np.asarray(projection, dtype=complex)
    d = rep.dim
    if p.shape != (d, d):
        raise InvalidParameterError(f"projection shape {p.shape} does not match dim {d}")
    if np.abs(p - p.conj().T).max() > tol or np.abs(p @ p - p).max() > tol:
        raise InvalidParameterError("matrix is not an orthogonal projection")
    comm = np.abs(p[None] @ rep.matrices - rep.matrices @ p[None]).max()
    if comm > tol:
        raise NotInvariantError(
            f"projection does not commute with the representation: residual {comm:.3e}"
        )
    w, v = hermitian_eig(p)
    basis = v[:, w > 0.5]
    if basis.shape[1] == 0:
        raise InvalidParameterError("projection is zero; no subrepresentation")
    restricted = np.einsum("ji,gjk,kl->gil", basis.conj(), rep.matrices, basis)
    return ProjectiveRep(rep.group, rep.multiplier, restricted,
                         label=f"{rep.label}|P(rank {basis.shape[1]})")


def character_subrep(n: int, freqs) -> ProjectiveRep:
    """Diagonal character representation of Z_n on the chosen frequency set:
    pi(g) = diag(exp(2 pi i g k / n), k in freqs).

    Unitarily equivalent to the restriction of the left regular
    representation of Z_n to the span of the DFT vectors with those
    frequencies.
    """
    group = cyclic_group(n)
    ks = sorted({int(k) % n for k in freqs})
    if not ks:
        raise InvalidParameterError("frequency set must be nonempty")
    g = np.arange(n)[:, None]
    phases = np.exp(2j * np.pi * g * np.asarray(ks)[None, :] / n)  # (n, |E|)
    perm = np.broadcast_to(np.arange(len(ks)), phases.shape)
    return ProjectiveRep._monomial(group, trivial_multiplier(group), perm, phases,
                                   label=f"char[Z{n}|{ks}]")
