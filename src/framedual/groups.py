"""Finite groups as dense integer Cayley tables, and unit-circle 2-cocycles.

Group elements are the indices ``0 .. order-1``; multiplication, identity and
inversion are all table lookups, so there is no hashing or symbolic element
type anywhere.  A cocycle ("multiplier") is an order x order table of
unit-modulus complex numbers twisting operator compositions.  The built-in
cocycles (trivial, time-frequency and so Heisenberg and Gabor) are stored by
their integer exponents, mu(g, h) = exp(-2 pi i shift[g] ramp[h] / n): they
are certified in O(|S| |G| + n^2), a passing validation report comes from the
exponents in O(|S| |G| + n^2 |G|), not from all |G|^3 triples, and their table
is built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError

UNIT_TOL = 1e-12  # constructed tables are analytic; only fp error is allowed
ROUNDING = 4 * float(np.finfo(float).eps)  # rounding in one computed cocycle residual


class GeneratingSet(NamedTuple):
    """Group elements that generate the group, and the depth of the
    breadth-first search from the identity over them: every element is a
    product of at most depth generators (a finite group needs no inverses)."""

    elements: tuple[int, ...]
    depth: int


@dataclass(frozen=True, eq=False, repr=False)
class FiniteGroup:
    """A finite group given by its Cayley table.

    ``cayley[a, b]`` is the index of the product a*b, ``identity`` the index
    of the unit, and ``inverse[a]`` the index of a^{-1}.  Instances are
    immutable and safe to share.
    """

    cayley: np.ndarray
    identity: int
    inverse: np.ndarray
    label: str = "G"

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writeable
        cay = np.array(self.cayley, dtype=np.int64, order="C")
        inv = np.array(self.inverse, dtype=np.int64, order="C")
        cay.setflags(write=False)
        inv.setflags(write=False)
        object.__setattr__(self, "cayley", cay)
        object.__setattr__(self, "inverse", inv)

    @property
    def order(self) -> int:
        return self.cayley.shape[0]

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))

    @cached_property
    def generating_set(self) -> GeneratingSet:
        """A generating set S picked greedily from the table, and its depth
        L, the longest shortest word in S.  Computed once per group.

        While S generates a proper subgroup, the smallest element g outside
        it joins S with its squares g, g^2, g^4, ... up to the identity or a
        repeat.  The squares keep L near the number of binary digits of the
        element orders: Z_128 gets S = {1, 2, 4, ..., 64} and L = 7, where
        the generator 1 alone would give L = 127.
        """
        elements: list[int] = []
        while True:
            depths = _word_depths(self.cayley, self.identity, elements)
            outside = np.flatnonzero(depths < 0)
            if outside.size == 0:
                return GeneratingSet(tuple(elements), int(depths.max()))
            g = int(outside[0])
            while g != self.identity and g not in elements:
                elements.append(g)
                g = int(self.cayley[g, g])

    def op(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self is other or np.array_equal(self.cayley, other.cayley)

    def __repr__(self):
        return f"FiniteGroup({self.label!r}, order={self.order})"


def _word_depths(cayley: np.ndarray, identity: int, elements) -> np.ndarray:
    """Length of the shortest word in the elements for each group element,
    -1 for those outside the subgroup they generate (breadth-first search)."""
    depths = np.full(cayley.shape[0], -1, dtype=np.int64)
    depths[identity] = 0
    frontier = np.array([identity])
    steps = np.asarray(elements, dtype=np.int64)
    level = 0
    while frontier.size and steps.size:
        level += 1
        reached = cayley[frontier[:, None], steps]
        depths[reached[depths[reached] < 0]] = level
        frontier = np.flatnonzero(depths == level)
    return depths


def from_cayley_table(table, label: str = "G") -> FiniteGroup:
    """Build and fully validate a group from a raw Cayley table.

    Checks closure, associativity, a two-sided identity, and two-sided
    inverses; any violation raises InvalidParameterError naming the first
    offending entry.
    """
    try:
        cay = np.asarray(table)
    except ValueError as exc:  # ragged rows
        raise InvalidParameterError(f"Cayley table is not a square array: {exc}") from exc
    if cay.ndim != 2 or cay.shape[0] != cay.shape[1]:
        raise InvalidParameterError("Cayley table must be square")
    n = cay.shape[0]
    if n == 0:
        raise InvalidParameterError("a group needs at least one element")
    if cay.dtype.kind not in "iu":
        raise InvalidParameterError(f"Cayley entries must be integers, not {cay.dtype}")
    cay = cay.astype(np.int64)
    if cay.min() < 0 or cay.max() >= n:
        raise InvalidParameterError("Cayley entries must be element indices 0..n-1")

    identity = None
    for e in range(n):
        if np.array_equal(cay[e], np.arange(n)) and np.array_equal(cay[:, e], np.arange(n)):
            identity = e
            break
    if identity is None:
        raise InvalidParameterError("no two-sided identity element found")

    inverse = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        hits = np.flatnonzero(cay[a] == identity)
        for b in hits:
            if cay[b, a] == identity:
                inverse[a] = b
                break
        if inverse[a] < 0:
            raise InvalidParameterError(f"element {a} has no two-sided inverse")

    # associativity, row by row to bound memory at n^2 per step
    for a in range(n):
        left = cay[cay[a], :]          # (a*b)*c
        right = cay[a][cay]            # a*(b*c)
        if not np.array_equal(left, right):
            b, c = np.unravel_index(int(np.argmax(left != right)), left.shape)
            raise InvalidParameterError(
                f"associativity fails at ({a},{b},{c}): "
                f"({a}*{b})*{c}={left[b, c]} but {a}*({b}*{c})={right[b, c]}"
            )

    return FiniteGroup(cay, int(identity), inverse, label)


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group Z_n with addition mod n."""
    if n < 1:
        raise InvalidParameterError("cyclic group order must be >= 1")
    a = np.arange(n)
    cay = (a[:, None] + a[None, :]) % n
    return FiniteGroup(cay, 0, (-a) % n, label=f"Z{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Componentwise product on index pairs, flattened as i1 * |G2| + i2."""
    n1, n2 = g1.order, g2.order
    c1 = g1.cayley[:, None, :, None] * n2      # (n1, 1, n1, 1) scaled blocks
    c2 = g2.cayley[None, :, None, :]
    cay = (c1 + c2).reshape(n1 * n2, n1 * n2)
    identity = g1.identity * n2 + g2.identity
    inverse = (g1.inverse[:, None] * n2 + g2.inverse[None, :]).reshape(-1)
    return FiniteGroup(cay, identity, inverse, label=f"{g1.label}x{g2.label}")


class Multiplier:
    """A 2-cocycle on a finite group: a unit-modulus table mu[g, h].

    Multiplier(group, table) stores a copy of the order x order table it is
    given.  time_frequency_multiplier, and through it the other built-in
    cocycles, store the exponent form instead: integer arrays shift and
    ramp of shape (order,), reduced mod the modulus n, with
    mu[g, h] = roots[(shift[g] ramp[h]) mod n] for the n-th roots of unity
    roots[k] = exp(-2 pi i k / n).  Then .table is looked up on first read
    and cached, and row(g) gives one row without it.  Either way .table is a
    read-only C-contiguous complex128 array; shift, ramp and modulus are
    None for a dense multiplier.  Instances are immutable.
    """

    shift: np.ndarray | None = None
    ramp: np.ndarray | None = None
    modulus: int | None = None

    def __init__(self, group: FiniteGroup, table):
        t = np.array(table, dtype=complex, order="C")  # a copy: the caller keeps its array
        if t.shape != (group.order, group.order):
            raise InvalidParameterError(
                f"multiplier table shape {t.shape} does not match group order "
                f"{group.order}"
            )
        t.setflags(write=False)
        vars(self).update(group=group, table=t)

    @classmethod
    def _exponents(cls, group: FiniteGroup, shift, ramp, n: int) -> "Multiplier":
        """The exponent form, for callers that have checked it: shift and
        ramp integer arrays of shape (order,), n >= 1."""
        mu = cls.__new__(cls)
        shift = np.asarray(shift, dtype=np.int64) % n
        ramp = np.asarray(ramp, dtype=np.int64) % n
        shift.setflags(write=False)
        ramp.setflags(write=False)
        vars(mu).update(group=group, shift=shift, ramp=ramp, modulus=n)
        return mu

    def __setattr__(self, name, value):
        raise AttributeError(f"Multiplier is immutable: cannot set {name!r}")

    @cached_property
    def _roots(self) -> np.ndarray:
        """exp(-2 pi i k / n) for k = 0 .. n-1, the entries of the exponent form."""
        return np.exp(-2j * np.pi * np.arange(self.modulus) / self.modulus)

    @cached_property
    def table(self) -> np.ndarray:
        """The order x order table mu[g, h]; read-only."""
        t = self._roots[np.outer(self.shift, self.ramp) % self.modulus]
        t.setflags(write=False)
        return t

    def entries(self, rows, cols) -> np.ndarray:
        """mu(rows, cols) for indices that broadcast against each other, bit
        for bit .table[rows, cols]; the exponent form looks them up without
        building the table."""
        if self.modulus is None:
            return self.table[rows, cols]
        return self._roots[self.shift[rows] * self.ramp[cols] % self.modulus]

    def row(self, g: int) -> np.ndarray:
        """mu(g, .), bit for bit .table[g]."""
        return self.entries(g, slice(None))

    def __eq__(self, other):
        if not isinstance(other, Multiplier):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.table, other.table)

    def __repr__(self):
        return f"Multiplier(group={self.group.label!r}, order={self.group.order})"


@dataclass(frozen=True)
class MultiplierValidation:
    """Outcome of validate_multiplier: overall verdict plus the first
    counterexample, reported as (check name, offending indices)."""

    passed: bool
    unit_modulus_ok: bool
    normalization_ok: bool
    cocycle_ok: bool
    inverse_symmetry_ok: bool
    max_residual: float
    counterexample: tuple[str, tuple[int, ...]] | None
    tolerance: float


def validate_multiplier(mu: Multiplier, tol: float = UNIT_TOL) -> MultiplierValidation:
    """Check unit modulus, identity normalization, the cocycle identity over
    all triples, and the derived symmetry mu(g, g^-1) = mu(g^-1, g).

    It reports the largest residual and the first counterexample, and the
    validate command prints both.  A multiplier in exponent form whose
    exponents are homomorphisms gets its report from them, in
    O(|S| |G| + n^2 |G|) without its table, when every check passes; every
    other one, and every failing report, comes from the exhaustive scan of
    the table, O(|G|^3).  Constructions ask certify_multiplier first and
    come here only for a table it does not certify, so that the tables they
    accept and the counterexamples they reject with are this function's.

    A NaN or infinite residual fails its check, so a non-finite entry is the
    unit_modulus counterexample; max_residual is the largest finite
    residual, which keeps the report standard JSON.
    """
    report = _validate_exponents(mu, tol)
    if report is not None:
        return report
    group, t = mu.group, mu.table
    n = group.order
    cay = group.cayley
    worst = 0.0
    counterexample = None

    def check(kind, residual, locate) -> bool:
        nonlocal worst, counterexample
        residual = float(residual)
        if math.isfinite(residual):
            worst = max(worst, residual)
        ok = residual <= tol
        if not ok and counterexample is None:
            counterexample = (kind, locate())
        return ok

    mod_resid = np.abs(np.abs(t) - 1.0)
    unit_ok = check("unit_modulus", mod_resid.max(initial=0.0), lambda: _worst_at(mod_resid))

    e = group.identity
    column = np.abs(t[:, e] - 1.0)
    norm_ok = check("normalization", np.maximum(column.max(), np.abs(t[e, :] - 1.0).max()),
                    lambda: _worst_at(column))

    cocycle_ok = True
    with np.errstate(invalid="ignore"):  # inf * 0 in a table with an infinite entry
        for g1 in range(n):
            resid = _cocycle_residuals(t, cay, g1)
            cocycle_ok &= check("cocycle", resid.max(), lambda: (g1, *_worst_at(resid)))

    inv = group.inverse
    sym_resid = np.abs(t[np.arange(n), inv] - t[inv, np.arange(n)])
    sym_ok = check("inverse_symmetry", sym_resid.max(initial=0.0), lambda: _worst_at(sym_resid))

    passed = unit_ok and norm_ok and cocycle_ok and sym_ok
    return MultiplierValidation(passed, unit_ok, norm_ok, cocycle_ok, sym_ok,
                                worst, counterexample, tol)


def _validate_exponents(mu: Multiplier, tol: float) -> MultiplierValidation | None:
    """validate_multiplier's report from homomorphic exponents when it
    passes, bit for bit the exhaustive scan's; None sends every other case,
    and every failing one, to that scan.

    With a = shift and b = ramp homomorphisms into Z_n (see
    _homomorphic_exponents) and r the n-th roots of unity, the cocycle
    triple (g1, g2, g3) computes |r_i r_j - r_k r_l| with i = a1 (b2 + b3),
    j = a2 b3, k = (a1 + a2) b3 and l = a1 b2 (mod n).  That depends on
    (a1, (a2, b2), b3) only, and as g1, g2 and g3 vary independently the
    tuple takes every value in A x P x B, for A = a(G), B = b(G) and
    P = {(a_g, b_g)}.  So the residuals are computed once per value, one a1
    at a time, by _cocycle_residuals' numpy operations in the same operand
    order on fresh arrays of positive stride, which give the same bits on
    the same entries, and their maximum is the scan's.  The entries are
    r[A B], row and column e are r[0], and mu(g, g^-1) = r[-a_g b_g] =
    mu(g^-1, g), so the inverse symmetry residual is exactly 0.
    """
    exponents = _homomorphic_exponents(mu)
    if exponents is None:
        return None
    a, b, n = exponents
    r = mu._roots
    a_values, b_values = _distinct(a), _distinct(b)
    a2, b2 = np.divmod(_distinct(a * n + b), n)
    unit = np.abs(np.abs(r[np.multiply.outer(a_values, b_values) % n]) - 1.0).max()
    norm = np.abs(r[:1] - 1.0).max()
    cocycle = 0.0
    for a1 in a_values:
        lhs = r[a1 * (b2[:, None] + b_values) % n]
        lhs *= r[np.multiply.outer(a2, b_values) % n]       # r_i r_j
        rhs = r[np.multiply.outer(a1 + a2, b_values) % n]
        rhs *= r[a1 * b2 % n][:, None]                      # r_k r_l
        lhs -= rhs
        cocycle = max(cocycle, float(np.abs(lhs).max()))
    residuals = (float(unit), float(norm), cocycle)
    if not all(x <= tol for x in residuals):
        return None
    return MultiplierValidation(True, True, True, True, True, max(residuals), None, tol)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, like np.unique, which
    imports numpy.ma on first use (about 16 ms and a MiB with numpy 2.4)."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])]


def _worst_at(resid: np.ndarray) -> tuple[int, ...]:
    """Index of the largest residual, or of the first NaN."""
    return tuple(int(i) for i in np.unravel_index(int(resid.argmax()), resid.shape))


def _cocycle_residuals(t: np.ndarray, cay: np.ndarray, g1: int) -> np.ndarray:
    """|mu(g1, g2 g3) mu(g2, g3) - mu(g1 g2, g3) mu(g1, g2)| over (g2, g3)."""
    lhs = t[g1][cay]
    lhs *= t                               # mu(g1, g2 g3) mu(g2, g3)
    rhs = t[cay[g1]]
    rhs *= t[g1][:, None]                  # mu(g1 g2, g3) mu(g1, g2)
    lhs -= rhs
    return np.abs(lhs)


def certify_multiplier(mu: Multiplier) -> bool:
    """A sufficient test that validate_multiplier(mu) passes at UNIT_TOL;
    False means only that the exhaustive check has to decide.

    A multiplier in exponent form is certified from its exponents in
    O(|S| |G| + n^2), without its table.  A dense one, and one whose
    exponents miss that certificate, is certified from its table in
    O(|S| |G|^2).
    """
    if _certify_exponents(mu):
        return True
    return _certify_table(mu)


def _homomorphic_exponents(mu: Multiplier) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(shift, ramp, n) of a multiplier in exponent form when both are
    homomorphisms into Z_n; None for a dense multiplier, for exponents that
    are not, and on the trivial group, which has no generators and nothing
    to save.

    They are checked on the generator rows, x[s h] = x[s] + x[h] for s in S
    and every h.  Then they hold on all pairs, exactly: h = e gives
    x[e] = 0, and for a word g = s g' with the identity known for g',
    x[g h] = x[s] + x[g'] + x[h] = x[g] + x[h].
    """
    if mu.modulus is None:
        return None
    group, n = mu.group, mu.modulus
    gens = group.generating_set
    if gens.depth == 0:
        return None
    cay = group.cayley
    for x in (mu.shift, mu.ramp):
        if not all(np.array_equal(x[cay[s]], (x[s] + x) % n) for s in gens.elements):
            return None
    return mu.shift, mu.ramp, n


def _certify_exponents(mu: Multiplier) -> bool:
    """certify_multiplier on the exponent form: mu(g, h) = r[a_g b_h], with
    a = shift, b = ramp, r the n-th roots of unity and indices mod n.

    It checks that a and b are homomorphisms into Z_n, exactly on all pairs
    (_homomorphic_exponents).  So row and column e are r[0] and
    mu(g, g^-1) = r[-a_g b_g] = mu(g^-1, g): normalization holds when
    |r[0] - 1| <= UNIT_TOL, and inverse symmetry with residual 0.  The two
    sides of a cocycle triple, mu(g1, g2 g3) mu(g2, g3) and
    mu(g1 g2, g3) mu(g1, g2), are products r_i r_j and r_k r_l with
    i + j = k + l = a1 b2 + a1 b3 + a2 b3.

    Every index is a multiple of step = gcd(n, gcd(a) gcd(b)), so unit
    modulus and the products are checked on those roots only, by the
    computed D = max |r_i r_j - r_(i+j)|.  A computed complex product of two entries
    is within sqrt(5) u |x| |y| < 1.2 eps of the exact one whether or not
    numpy forms it with FMA (u = eps / 2; Brent, Percival and Zimmermann
    2007), and a computed modulus within a factor 1 + 2 eps of the exact
    one.  So each exact |r_i r_j - r_(i+j)| is at most D + 1.3 eps, and a
    residual that validate_multiplier computes is under 2 D + 6 eps, which
    is under 2 D + 2 ROUNDING.  The certificate passes when
    D <= UNIT_TOL / 2 - ROUNDING, about 5e-13; D is at most 3.1e-15 for
    every n up to 300.
    """
    exponents = _homomorphic_exponents(mu)
    if exponents is None:
        return False
    a, b, n = exponents
    step = math.gcd(n, int(np.gcd.reduce(a)) * int(np.gcd.reduce(b)))
    k = np.arange(0, n, step)
    r = mu._roots[k]
    if not (np.abs(np.abs(r) - 1.0).max() <= UNIT_TOL and abs(r[0] - 1.0) <= UNIT_TOL):
        return False
    drift = np.abs(np.multiply.outer(r, r) - mu._roots[np.add.outer(k, k) % n])
    return bool(drift.max() <= UNIT_TOL / 2 - ROUNDING)


def _certify_table(mu: Multiplier) -> bool:
    """certify_multiplier on the table, O(|S| |G|^2).

    Unit modulus and inverse symmetry are checked at UNIT_TOL, as
    validate_multiplier checks them.  The normalization and the cocycle
    residual, for g1 in the generating set S only, are gated at
    UNIT_TOL / (3L) - r, where L is the depth of S and r = ROUNDING bounds
    the rounding in one computed residual; so the exact residuals on these
    generator slices are at most eps = UNIT_TOL / (3L).

    Why that suffices.  Let D(a, b, c) = mu(a, bc) mu(b, c) - mu(ab, c) mu(a, b),
    the signed residual.  The five bracketings of a product abcd in the
    twisted group algebra give, for any table, the identity (D is a
    3-cocycle)

        mu(a, b) D(ab, c, d) = mu(a, bcd) D(b, c, d) + mu(abc, d) D(a, b, c)
                               + mu(b, c) D(a, bc, d) - mu(c, d) D(a, b, cd).

    Put a = s in S.  With u = max | |mu| - 1 | (at most UNIT_TOL), each
    factor has modulus in [1 - u, 1 + u], so
    |D(sb, c, d)| <= rho (|D(b, c, d)| + 3 eps) with rho = (1 + u) / (1 - u).
    Every g other than the identity is a word s b with b one letter
    shorter, so by induction on the length k <= L,
    |D(g, c, d)| <= (3k - 2) rho^(k - 1) eps; and |D(e, c, d)| =
    |mu(c, d)| |mu(e, cd) - mu(e, c)| <= 2 (1 + u) eps.  The certificate
    passes only when (3L - 2) rho^(L - 1) eps + r <= UNIT_TOL, so that every
    computed triple residual is within UNIT_TOL.  For analytic tables the
    generator slices hold the same roundoff as the full cube (1.3e-15 on
    the Gabor (16,1,1) table), far below the gate, which is 4.1e-14 for
    L = 8.
    """
    group, t = mu.group, mu.table
    depth = group.generating_set.depth
    u = float(np.abs(np.abs(t) - 1.0).max())
    if depth == 0 or not u <= UNIT_TOL:  # the trivial group: nothing to save
        return False
    eps = UNIT_TOL / (3 * depth)
    growth = (3 * depth - 2) * ((1.0 + u) / (1.0 - u)) ** (depth - 1)
    if not growth * eps + ROUNDING <= UNIT_TOL:
        return False
    gate = eps - ROUNDING
    e, n, inv = group.identity, group.order, group.inverse
    if not max(np.abs(t[:, e] - 1.0).max(), np.abs(t[e, :] - 1.0).max()) <= gate:
        return False
    if not np.abs(t[np.arange(n), inv] - t[inv, np.arange(n)]).max() <= UNIT_TOL:
        return False
    return all(_cocycle_residuals(t, group.cayley, s).max() <= gate
               for s in group.generating_set.elements)


def trivial_multiplier(group: FiniteGroup) -> Multiplier:
    """The constant-one cocycle (ordinary representations), in exponent
    form with n = 1."""
    zeros = np.zeros(group.order, dtype=np.int64)
    return time_frequency_multiplier(group, zeros, zeros, 1)


def time_frequency_multiplier(group: FiniteGroup, shift, ramp, n: int) -> Multiplier:
    """mu(g, h) = exp(-2 pi i (shift[g] ramp[h] mod n) / n), the scalar that
    T^shift[g] picks up moving past M^ramp[h] on C^n, in exponent form.

    The exponent is reduced mod n and the entry looked up among the n-th
    roots of unity, one exp per residue, so every entry carries the roundoff
    of one root whatever the size of shift[g] ramp[h].
    """
    shift, ramp = np.asarray(shift), np.asarray(ramp)
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    for name, x in (("shift", shift), ("ramp", ramp)):
        if x.shape != (group.order,) or x.dtype.kind not in "iu":
            raise InvalidParameterError(
                f"{name} {x.shape} ({x.dtype}) must be an integer array of shape "
                f"(order {group.order},)"
            )
    return Multiplier._exponents(group, shift, ramp, n)


def heisenberg_multiplier(n: int) -> Multiplier:
    """Time-frequency cocycle on Z_n x Z_n.

    With elements indexed (m, k) -> m*n + k, the table is
    exp(-2 pi i * k * m' / n), the scalar picked up when a translation power
    moves past a modulation power on C^n: the cocycle of the full Gabor
    lattice (n, 1, 1).
    """
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    group = direct_product(cyclic_group(n), cyclic_group(n))
    m, k = np.divmod(np.arange(n * n), n)
    return time_frequency_multiplier(group, k, m, n)


def conjugate_multiplier(mu: Multiplier) -> Multiplier:
    """Entrywise complex conjugate; again a valid cocycle."""
    return Multiplier(mu.group, mu.table.conj())
