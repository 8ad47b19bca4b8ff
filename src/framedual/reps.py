"""Projective unitary representations of finite groups on C^dim.

A representation holds the cocycle mu that twists its compositions,
pi(g) pi(h) = mu(g, h) pi(gh), and its unitaries in one of two forms: a
dense stack, one matrix per group element, or the monomial form of the
built-in constructions (regular, monomial, Gabor and character reps), where
row i of pi(g) holds the single entry phase[g, i] in column perm[g, i] and
the dense stack is built on first read.  Orbit routes read the stack through
ProjectiveRep.slabs, which never holds a monomial rep's stack whole.

Its three operator spaces come from the group structure.  The group average
E(X) = |G|^-1 sum_g pi(g) X pi(g)* is the Hilbert-Schmidt-orthogonal
projection onto the commutant pi(G)' (the cocycle phases cancel inside it);
the generated algebra pi(G)'' is the span of the image; the center is the
image of that span under E.

Three facts about a representation need none of these spaces, and each has
one formula, cached on the rep: its characters tr pi(g); dim pi(G)', the
trace formula |G|^-1 sum_g |tr pi(g)|^2; and the spectrum of the |G| x |G|
Hilbert-Schmidt Gram tr(pi(g)* pi(h)).  Writing pi as a sum of
mu-irreducibles sigma_i of degree d_i with multiplicity m_i, the nonzero
Gram eigenvalues are |G| m_i / d_i, each d_i^2 times (Schur orthogonality).
So the Gram spectrum gives dim pi(G)'' (its rank), whether pi has a
complete frame vector (m_i <= d_i for all i) and whether it has a Riesz
vector (m_i >= d_i for all i), the existence law of Han and Larson, each by
a cut that a proven gap separates from every eigenvalue.

A monomial rep of an abelian group whose cocycle is in homomorphic exponent
form, mu(g, h) = r[a_g b_h], also splits in closed form (ProjectiveRep.isotypic).
The radical Z of the commutator form a_g b_h - a_h b_g is central, every
mu-irreducible has the degree k = sqrt[G:Z], and the isotypic components
are the joint eigenspaces of the pi(z), z in Z, one per mu-character of Z
that occurs.  Their basis is built from exact integer exponents, not from
an eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, NotInvariantError, NotProjectiveError
from .groups import (
    FiniteGroup,
    _homomorphic_exponents,
    Multiplier,
    certify_multiplier,
    cyclic_group,
    time_frequency_multiplier,
    trivial_multiplier,
    validate_multiplier,
)
from .linalg import RANK_TOL, hermitian_eig
from .vonneumann import OperatorSubspace

REP_TOL = 1e-10  # default residual gate for unitarity and twisted composition
AVERAGE_TOL = 1e-8  # gate on the group average: self-adjoint, eigenvalues in {0, 1}
# ProjectiveRep.slabs scatters a monomial rep's dense stack this many bytes at
# a time (at least one element): small enough that the largest built-in reps
# never hold their stack, large enough that small reps take one slab.
SLAB_BYTES = 2 ** 20
# ProjectiveRep.isotypic reads a stored phase as a root of unity when it lies
# this close to one; the constructions' phases lie within about 1e-13.
PHASE_SNAP = 1e-11


class ProjectiveRep:
    """Unitaries pi(g), g running over a finite group, with their cocycle.

    ProjectiveRep(group, multiplier, matrices) stores a copy of the
    (order, dim, dim) stack it is given.  The constructions of this module store the monomial
    form instead: perm and phase, integer and complex arrays of shape
    (order, dim), row i of pi(g) holding phase[g, i] in column perm[g, i].
    Then .matrices is scattered from them on first read and cached.  Either
    way .matrices is a read-only C-contiguous complex128 stack; perm and
    phase are None for a dense rep.  Instances are immutable.  Code that
    needs each pi(g) once, as the orbit routes do, reads .slabs() instead.
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
        _scatter(self.perm, self.phase, mats)
        mats.setflags(write=False)
        return mats

    def slabs(self):
        """The stack pi(g) in consecutive read-only slabs, yielded as
        (start, slab) with slab[j] equal to .matrices[start + j].

        A dense rep yields its stored stack whole.  A rep in monomial form
        scatters about SLAB_BYTES of the stack at a time into one buffer
        and never builds .matrices: the next slab overwrites the last, so
        use each slab before asking for the next.
        """
        if self.perm is None:
            yield 0, self.matrices
            return
        n, d = self.perm.shape
        size = min(n, max(1, SLAB_BYTES // (16 * d * d)))
        buffer = np.zeros((size, d, d), dtype=complex)
        for start in range(0, n, size):
            perm, phase = self.perm[start:start + size], self.phase[start:start + size]
            slab = buffer[:len(perm)]
            _scatter(perm, phase, slab)
            view = slab.view()
            view.setflags(write=False)
            yield start, view
            _scatter(perm, 0.0, slab)  # zero again, for the next slab

    def group_average(self) -> np.ndarray:
        """The d^2 x d^2 matrix of E(X) = |G|^-1 sum_g pi(g) X pi(g)* acting
        on row-major vec(X): sum_g pi(g) (x) conj(pi(g)) / |G|."""
        n, d = self.matrices.shape[0], self.dim
        flat = self.matrices.reshape(n, d * d)
        # (flat.T @ flat.conj())[(i, k), (j, l)] = sum_g pi(g)[i, k] conj(pi(g)[j, l])
        e = (flat.T @ flat.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3)
        return e.reshape(d * d, d * d) / n

    @cached_property
    def characters(self) -> np.ndarray:
        """tr pi(g) for every g; read-only.  For a monomial rep the sum of
        phase[g, i] over the fixed points perm[g, i] = i, in O(|G| dim)."""
        if self.perm is None:
            chars = np.trace(self.matrices, axis1=1, axis2=2)
        else:
            chars = np.where(self.perm == np.arange(self.dim), self.phase, 0.0).sum(axis=1)
        chars.setflags(write=False)
        return chars

    @cached_property
    def commutant_dim(self) -> int:
        """dim pi(G)' = |G|^-1 sum_g |tr pi(g)|^2, the trace of the group
        average (Schur: the sum of the squared multiplicities).  A value
        farther than 1/4 from an integer raises NotProjectiveError."""
        value = float(np.sum(np.abs(self.characters) ** 2)) / self.group.order
        nearest = np.rint(value)
        if not abs(value - nearest) <= 0.25:  # a NaN fails too
            raise NotProjectiveError(
                f"trace formula for the commutant of {self.label} gives {value:.6f}, "
                f"not an integer; the family is not projective unitary"
            )
        return int(nearest)

    @cached_property
    def _gram_spectrum(self) -> np.ndarray:
        """The eigenvalues of the Hilbert-Schmidt Gram T[g, h] =
        tr(pi(g)* pi(h)), less some of its zeros when dim^2 < |G|.

        T = F F* for the |G| x dim^2 matrix F of flattened pi(g).  When
        dim^2 < |G| (a rep far from faithful, such as a few characters of a
        large cyclic group) the eigenvalues are those of the smaller F* F,
        summed over the slabs of the stack.  Otherwise, for a monomial rep,
        pi(g)* = conj mu(g^-1, g) pi(g^-1) gives
        T[g, h] = conj mu(g^-1, g) mu(g^-1, h) tr pi(g^-1 h), from the
        characters in O(|G|^2); a dense rep's Gram is formed from its stack.
        """
        n, d = self.group.order, self.dim
        if d * d < n:
            small = np.zeros((d * d, d * d), dtype=complex)
            for _, slab in self.slabs():
                flat = slab.reshape(len(slab), d * d)
                small += flat.T @ flat.conj()
            return np.linalg.eigvalsh(small)
        if self.perm is None:
            flat = self.matrices.reshape(n, -1)
            gram = flat.conj() @ flat.T
        else:
            inv, mu = self.group.inverse, self.multiplier
            elements = np.arange(n)
            gram = (mu.entries(inv, elements).conj()[:, None] * mu.entries(inv[:, None], elements)
                    * self.characters[self.group.cayley[inv]])
        return np.linalg.eigvalsh(gram)

    @property
    def algebra_dim(self) -> int:
        """dim pi(G)'', the rank of the Hilbert-Schmidt Gram, counted as its
        eigenvalues above sqrt|G| / 2: the nonzero ones are |G| m_i / d_i
        >= sqrt|G|, so the cut needs no tolerance."""
        n = self.group.order
        return int(np.count_nonzero(self._gram_spectrum > np.sqrt(n) / 2))

    @property
    def has_frame_vector(self) -> bool:
        """Whether some orbit pi(g) x spans C^dim: iff every mu-irreducible
        occurs with multiplicity m_i <= d_i (Han and Larson), that is iff
        every Gram eigenvalue |G| m_i / d_i is at most |G|.  One above |G| is
        at least |G| + |G| / d_i >= |G| + sqrt|G|, so the cut sits at
        |G| + sqrt|G| / 2 and needs no tolerance."""
        n = self.group.order
        return bool(np.all(self._gram_spectrum < n + np.sqrt(n) / 2))

    @property
    def has_riesz_vector(self) -> bool:
        """Whether some orbit pi(g) x is a Riesz sequence: iff every
        mu-irreducible occurs with multiplicity m_i >= d_i, that is iff all
        |G| Gram eigenvalues are |G| m_i / d_i >= |G| (the Gram has full rank
        only when every irreducible occurs).  Never when |G| > dim.  An
        eigenvalue below |G| is zero or at most |G| - |G| / d_i <=
        |G| - sqrt|G|, so the cut sits at |G| - sqrt|G| / 2 and needs no
        tolerance."""
        n = self.group.order
        return n <= self.dim and bool(self._gram_spectrum.min() > n - np.sqrt(n) / 2)

    @cached_property
    def isotypic(self) -> IsotypicDecomposition | None:
        """The splitting of pi over the central characters of the radical of
        its commutator form, computed once per rep; None where it does not
        apply or a block would hold several copies of an irreducible of
        degree above 1 (see _isotypic_decomposition)."""
        return _isotypic_decomposition(self)

    def commutant(self) -> OperatorSubspace:
        """pi(G)', the range of the group average, computed once per rep.

        E is an orthogonal projection for every projective unitary family,
        so its eigenvalues are 0 or 1 and the cut sits at 1/2.  A family for
        which E is not self-adjoint, has an eigenvalue off {0, 1}, or keeps a
        rank other than commutant_dim is not projective unitary, and raises
        NotProjectiveError.
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
        if int(keep.sum()) != self.commutant_dim:
            raise NotProjectiveError(
                f"group average of {self.label} keeps {int(keep.sum())} dimensions "
                f"but the trace formula gives {self.commutant_dim}"
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


@dataclass(frozen=True, eq=False)
class IsotypicDecomposition:
    """The isotypic blocks of a representation over an abelian group.

    radical holds the elements of Z, the radical of the commutator form;
    degree is k = sqrt[G:Z], the degree of every mu-irreducible.  basis is a
    unitary W (dim x dim): its columns starts[j] to starts[j + 1] - 1 (the
    last block runs to dim) span the j-th block, the joint eigenspace of the
    pi(z), z in Z, for one mu-character of Z, which holds multiplicities[j]
    copies of one mu-irreducible.  analysis is conj(W), so that the
    coefficients of a row x in the basis are x @ analysis.

    The bounds are proven, not measured: W lies within ``error`` of an exact
    isotypic basis in 2-norm, and every pi(g) within ``phase_error`` in
    2-norm of pi_e(g), an exact projective representation with the same
    perm and cocycle that W belongs to.
    """

    radical: np.ndarray
    degree: int
    basis: np.ndarray
    analysis: np.ndarray
    starts: np.ndarray
    multiplicities: np.ndarray
    error: float
    phase_error: float


def _isotypic_decomposition(rep: ProjectiveRep) -> IsotypicDecomposition | None:
    """ProjectiveRep.isotypic: the decomposition of a monomial rep over an
    abelian group with a cocycle in homomorphic exponent form, or None.

    None for a dense rep, the trivial group, a multiplier that is not in
    that form (groups._homomorphic_exponents), a group whose generators do
    not commute, phases farther than PHASE_SNAP from the lcm(n, |G|)-th
    roots of unity, and a block with k > 1 and more than one copy.  The last
    is seen early from commutant_dim when k > 1: with every m_chi <= 1,
    dim pi(G)' = sum m_chi^2 = sum m_chi = dim / k.

    Why it is exact.  Each phase is snapped to the nearest such root, and
    the snapped rep pi_e is checked in integers: perm[s h] = perm[h] o
    perm[s] and exponent(s, i) + exponent(h, perm[s, i]) = exponent(mu(s, h))
    + exponent(s h, i) mod lcm(n, |G|), for s in the generating set and
    every h.  That makes pi_e exactly projective with cocycle mu (the word
    argument of monomial_rep with no residuals), and pi(g) - pi_e(g) is
    monomial with entries at most the snapping distance.  The radical
    Z = {z : a_z b_t = a_t b_z mod n for every generator t} is central, as
    the commutator form is bimultiplicative; mu is symmetric on Z, so the
    pi_e(z) commute and mu-characters of Z exist (_radical_characters).  For
    an abelian group the mu-irreducibles correspond one to one to the
    mu-characters of Z and have degree k = sqrt[G:Z], so the isotypic
    blocks are the joint eigenspaces of pi_e(Z).  Z permutes the basis
    vectors; on the orbit O of e_i the projection onto the chi-eigenspace
    maps e_i to (1/|O|) sum_j conj(chi(z_j)) c(z_j) e_j (z_j any element
    taking e_i to a multiple c(z_j) e_j), or to 0, as chi does or does not
    agree with the stabilizer of e_i.  Normalized, these vectors form W,
    with every exponent an exact integer mod N |Z|, N = lcm(n, |G|).

    Rounding.  An entry exp(2 pi i q / M) / sqrt|O| is computed from
    q mod M within 24 eps / sqrt|O| (argument 19 eps, exp, the division);
    W - W_e is block diagonal over the orbits with |O| such entries in each
    row and column, so its 2-norm is at most 24 eps sqrt(max |O|).  A
    snapped root is computed the same way, so a stored phase lies within its
    measured distance plus 24 eps of the exact one.  Whether chi agrees with
    the stabilizer S_i of e_i is read from sum_s conj(chi(s)) c(s) over S_i,
    exactly |S_i| or 0 (the quotient of two mu-characters is a character),
    computed within about 50 |S_i| eps: the cut at |S_i| / 2 is exact.
    """
    if rep.perm is None:
        return None
    exponents = _homomorphic_exponents(rep.multiplier)
    if exponents is None:
        return None
    a, b, n = exponents
    group = rep.group
    order, d, cay = group.order, rep.dim, group.cayley
    gens = np.asarray(group.generating_set.elements)
    if not np.array_equal(cay[gens], cay[:, gens].T):
        return None
    form = np.multiply.outer(a, b[gens]) - np.multiply.outer(b, a[gens])
    radical = np.flatnonzero((form % n == 0).all(axis=1))
    degree = math.isqrt(order // len(radical))
    if degree * degree * len(radical) != order:
        return None
    if degree > 1 and rep.commutant_dim * degree != d:  # sum m^2 = dim / k needs every m = 1
        return None

    big = math.lcm(n, order)
    snapped = np.rint(np.angle(rep.phase) * (big / (2 * np.pi))).astype(np.int64) % big
    phase_error = float(np.abs(rep.phase - _roots(snapped, big)).max())
    if not phase_error <= PHASE_SNAP:
        return None
    for s in gens:  # pi_e(s) pi_e(h) = mu(s, h) pi_e(s h) for every h, row by row
        cocycle = -(a[s] * b % n) * (big // n)
        if not (np.array_equal(rep.perm[:, rep.perm[s]], rep.perm[cay[s]])
                and not np.any((snapped[s] + snapped[:, rep.perm[s]] - cocycle[:, None]
                                - snapped[cay[s]]) % big)):
            return None

    chars, modulus = _radical_characters(radical, a, b, n, big, cay, group.identity)
    # tau[z, i]: the basis vector pi(z) takes e_i to, with phase exponent c[z, i]
    tau = np.argsort(rep.perm[radical], axis=1)
    c = np.take_along_axis(snapped[radical], tau, axis=1) * (modulus // big)
    heads = np.flatnonzero(tau.min(axis=0) == np.arange(d))  # the first index of each orbit
    fixed = tau[:, heads] == heads
    kinds: dict = {}
    for j, column in enumerate(fixed.T):  # orbits by stabilizer
        kinds.setdefault(column.tobytes(), []).append(j)
    basis = np.zeros((d, d), dtype=complex)
    labels = []
    largest = column = 0
    for members in kinds.values():
        heads_k = heads[members]
        stabilizer = np.flatnonzero(fixed[:, members[0]])
        images = tau[:, heads_k[0]]
        by_image = np.argsort(images, kind="stable")
        movers = by_image[np.append(True, images[by_image][1:] != images[by_image][:-1])]
        # chi agrees with the stabilizer of e_i iff sum_s conj(chi(s)) c(s) = |stabilizer|,
        # else the sum is 0: cut at half, far above the rounding of the sums
        overlap = (_roots(-chars[:, stabilizer] % modulus, modulus)
                   @ _roots(c[np.ix_(stabilizer, heads_k)], modulus)).real
        _, agree = np.nonzero((overlap > len(stabilizer) / 2).T)
        size = len(movers)
        if len(agree) != len(heads_k) * size:
            return None
        agree = agree.reshape(len(heads_k), size)  # [orbit, u]: the characters it meets
        # column (orbit, u) holds conj(chi(z)) c(z) / sqrt|O| at the row z takes the head to
        q = c[np.ix_(movers, heads_k)].T[:, None, :] - chars[agree[:, :, None], movers]
        cols = column + np.arange(agree.size).reshape(agree.shape)
        basis[tau[np.ix_(movers, heads_k)].T[:, None, :], cols[:, :, None]] = \
            _roots(q % modulus, modulus) / np.sqrt(size)
        labels.append(agree.reshape(-1))
        largest, column = max(largest, size), column + agree.size
    labels = np.concatenate(labels)
    sizes = np.bincount(labels)
    sizes = sizes[sizes > 0]
    if np.any(sizes % degree) or (degree > 1 and np.any(sizes > degree)):
        return None
    by_label = np.argsort(labels, kind="stable")
    basis = np.ascontiguousarray(basis[:, by_label])
    labels = labels[by_label]
    starts = np.flatnonzero(np.append(True, labels[1:] != labels[:-1]))
    analysis = basis.conj()
    multiplicities = sizes // degree
    for array in (radical, basis, analysis, starts, multiplicities):
        array.setflags(write=False)
    eps = np.finfo(float).eps
    return IsotypicDecomposition(radical, degree, basis, analysis, starts, multiplicities,
                                 24 * eps * math.sqrt(largest), phase_error + 24 * eps)


def _roots(q: np.ndarray, modulus: int) -> np.ndarray:
    """exp(2 pi i q / modulus) for integers 0 <= q < modulus."""
    return np.exp(2j * np.pi * (q / modulus))


def _radical_characters(radical: np.ndarray, a: np.ndarray, b: np.ndarray, n: int,
                        base: int, cay: np.ndarray, identity: int) -> tuple[np.ndarray, int]:
    """Every mu-character of Z, chi(z) chi(w) = mu(z, w) chi(zw) with
    mu(z, w) = exp(-2 pi i (a_z b_w mod n) / n), as exponents: row j and the
    column of z's position in radical hold l with chi_j(z) = exp(2 pi i l / M),
    for the returned M = base |Z| (base a multiple of n).

    Characters of a subgroup H extend to H' = H u zH u ... u z^(o-1) H, o the
    least power with z^o in H: l(z^j) = j l(z) - sum_{i<j} m(z, z^i), and
    o l(z) = l(z^o) + sum_{i<o} m(z, z^i) has o solutions l(z) once the
    exponents are counted in units o times finer; then
    l(z^j h) = l(z^j) + l(h) - m(z^j, h).  mu is symmetric on Z, so its
    twisted group algebra is commutative and each extension is a
    mu-character; after every element the count is |Z| and M = base |Z|.
    """
    where = np.full(len(a), -1)
    where[radical] = np.arange(len(radical))
    inside = np.zeros(len(a), dtype=bool)
    inside[identity] = True
    members = np.array([identity])
    chars = np.zeros((1, len(radical)), dtype=np.int64)
    modulus = base

    def mu(g, h):
        return -(a[g] * b[h] % n) * (modulus // n) % modulus

    for z in radical:
        if inside[z]:
            continue
        powers = [identity]
        while not inside[cay[z, powers[-1]]]:
            powers.append(cay[z, powers[-1]])
        o, top = len(powers), cay[z, powers[-1]]
        powers = np.array(powers)
        modulus *= o
        chars *= o
        steps = mu(z, powers)  # m(z, z^i) for i < o; m(z, e) = 0
        first = (chars[:, where[top]] + steps.sum()) // o
        own = (first[:, None] + (modulus // o) * np.arange(o)).reshape(-1)
        at_powers = (np.arange(o) * own[:, None] - (np.cumsum(steps) - steps)) % modulus
        old = np.repeat(chars, o, axis=0)
        coset = cay[np.ix_(powers, members)]
        chars = old.copy()
        chars[:, where[coset]] = (at_powers[:, :, None] + old[:, where[members]][:, None, :]
                                  - mu(powers[:, None], members[None, :])) % modulus
        members = coset.reshape(-1)
        inside[members] = True
    return chars, modulus


def _scatter(perm: np.ndarray, phase, out: np.ndarray) -> None:
    """Write phase[g, i] to out[g, i, perm[g, i]] for every row g of perm,
    leaving the other entries of out as they are."""
    n, d = perm.shape
    out[np.arange(n)[:, None], np.arange(d), perm] = phase


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

    certify_multiplier decides first, at O(|S| |G|^2), or O(|S| |G| + n^2)
    for a multiplier in exponent form; only one it does not certify goes
    through validate_multiplier, whose reports are those of the all-triples
    check.  The certificate passes only tables that the all-triples check
    passes, so the accepted tables and the messages of rejected ones are
    those of the all-triples check.
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
    phase = mu.entries(np.arange(group.order)[:, None], perm)
    return ProjectiveRep._monomial(group, mu, perm, phase, label=f"lambda[{group.label}]")


def right_regular(group: FiniteGroup, mu: Multiplier) -> ProjectiveRep:
    """Right regular projective representation on C^|G|:
    column h of R(g) is mu(h, g^-1) at row h*g^-1.

    Its cocycle is nu(g, h) = mu(h^-1, g^-1).  This coincides with the
    entrywise conjugate of mu exactly when mu(g, g^-1) = 1 for all g (in
    particular for ordinary representations); in general the two differ by
    the coboundary of g -> mu(g, g^-1).  For mu in exponent form, nu is
    too: r[shift[h^-1] ramp[g^-1]] swaps the roles of shift and ramp.
    """
    _require_valid(group, mu)
    inv = group.inverse
    perm = group.cayley.T  # row i = h g^-1 of R(g) holds mu(h, g^-1) in column h = i g
    phase = mu.entries(perm, inv[:, None])
    if mu.modulus is None:
        nu = Multiplier(group, mu.table[np.ix_(inv, inv)].T)
    else:
        nu = time_frequency_multiplier(group, mu.ramp[inv], mu.shift[inv], mu.modulus)
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

    A certificate decides first, at O(|S| |G| dim) plus certify_multiplier's
    cost, reading mu one generator row at a time (so a multiplier in
    exponent form that certifies never builds its table): certify_multiplier
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
        resid = np.abs(ph[g] * ph[:, p[g]] - mu.row(g)[:, None] * ph[cay[g]])
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
