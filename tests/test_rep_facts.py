"""The facts a ProjectiveRep reads from its characters and its Hilbert-Schmidt
Gram spectrum, held against the routes they replaced: commutant_dim against
the rank of the group average and the Sylvester commutant, algebra_dim
against the span of the image, and has_frame_vector and has_riesz_vector
against three seeded draws classified by their orbit flags."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedual import (
    GaborLattice,
    InvalidParameterError,
    ProjectiveRep,
    adjoint_lattice,
    cyclic_group,
    dilate_to_complete,
    direct_product,
    frame_operator,
    from_cayley_table,
    gabor_rep,
    heisenberg_multiplier,
    left_regular,
    monomial_rep,
    right_regular,
    trivial_multiplier,
)
from framedual.frames import _orbit_flags
from framedual.groups import time_frequency_multiplier
from framedual.linalg import RANK_TOL, random_complex_block
from framedual.vonneumann import commutant
from conftest import dihedral_cayley


def drawn_frame_vector(rep, seed: int = 0, rank_tol: float = RANK_TOL) -> bool:
    """The route has_frame_vector replaced: a complete frame vector exists
    iff a generic orbit spans, tried on three seeded draws."""
    draws = random_complex_block(seed, range(900_000, 900_003), rep.dim)
    return bool(_orbit_flags(rep, draws, rank_tol).is_complete_frame.any())


def drawn_riesz_vector(rep, seed: int = 0, rank_tol: float = RANK_TOL) -> bool:
    """A Riesz vector exists iff a generic orbit is a Riesz sequence, tried
    on three seeded draws."""
    draws = random_complex_block(seed, range(900_003, 900_006), rep.dim)
    return bool(_orbit_flags(rep, draws, rank_tol).is_riesz_sequence.any())


def assert_facts_match_oracles(rep, sylvester: bool = True):
    assert rep.commutant_dim == rep.commutant().dim
    if sylvester:
        assert rep.commutant_dim == commutant(rep.matrices).dim
    assert rep.algebra_dim == rep.algebra().dim
    assert rep.has_frame_vector == drawn_frame_vector(rep)
    assert rep.has_riesz_vector == drawn_riesz_vector(rep)


def direct_sum(*reps):
    """The block-diagonal sum of reps of one group and cocycle, stored dense."""
    dim = sum(rep.dim for rep in reps)
    stack = np.zeros((reps[0].group.order, dim, dim), dtype=complex)
    start = 0
    for rep in reps:
        stack[:, start:start + rep.dim, start:start + rep.dim] = rep.matrices
        start += rep.dim
    return ProjectiveRep(reps[0].group, reps[0].multiplier, stack,
                         label="+".join(rep.label for rep in reps))


def character_multiset(n: int, freqs) -> ProjectiveRep:
    """diag(exp(2 pi i g k / n), k in freqs) on Z_n, a frequency repeated as
    often as freqs lists it."""
    group = cyclic_group(n)
    ks = np.asarray(freqs) % n
    phase = np.exp(2j * np.pi * np.arange(n)[:, None] * ks[None, :] / n)
    perm = np.broadcast_to(np.arange(len(ks)), phase.shape)
    return monomial_rep(group, trivial_multiplier(group), perm, phase, label=f"chars{list(ks)}")


def tf_regular(a: int, b: int, s: tuple, r: tuple, side: str) -> ProjectiveRep:
    """A regular rep of Z_a x Z_b twisted by the time-frequency cocycle whose
    shift and ramp are the homomorphisms g -> s.g and g -> r.g into Z_n,
    n = gcd(a, b)."""
    group = direct_product(cyclic_group(a), cyclic_group(b))
    n = gcd(a, b)
    g1, g2 = np.divmod(np.arange(a * b), b)
    mu = time_frequency_multiplier(group, (s[0] * g1 + s[1] * g2) % n,
                                   (r[0] * g1 + r[1] * g2) % n, n)
    return (left_regular if side == "left" else right_regular)(group, mu)


sides = st.sampled_from(["left", "right"])


@settings(max_examples=40, deadline=None)
@given(orders=st.sampled_from([(2, 2), (2, 4), (3, 3), (2, 6), (4, 4)]),
       s=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       r=st.tuples(st.integers(0, 5), st.integers(0, 5)), side=sides)
def test_time_frequency_regular_reps(orders, s, r, side):
    rep = tf_regular(*orders, s, r, side)
    assert_facts_match_oracles(rep, sylvester=rep.dim <= 9)
    # a regular rep holds each irreducible d_i times
    assert rep.has_frame_vector and rep.has_riesz_vector


@settings(max_examples=10, deadline=None)
@given(orders=st.sampled_from([(2,), (5,), (2, 3), (2, 2, 2)]), side=sides)
def test_trivial_cocycle_regular_reps(orders, side):
    group = cyclic_group(orders[0])
    for n in orders[1:]:
        group = direct_product(group, cyclic_group(n))
    build = left_regular if side == "left" else right_regular
    assert_facts_match_oracles(build(group, trivial_multiplier(group)))


@settings(max_examples=6, deadline=None)
@given(n=st.sampled_from([2, 3]), side=sides)
def test_heisenberg_regular_reps(n, side):
    mu = heisenberg_multiplier(n)
    rep = (left_regular if side == "left" else right_regular)(mu.group, mu)
    assert_facts_match_oracles(rep)
    assert (rep.commutant_dim, rep.algebra_dim) == (n * n, n * n)


LATTICES = [GaborLattice(n, a, b) for n in (4, 6, 8, 12)
            for a in range(1, n + 1) if n % a == 0
            for b in range(1, n + 1) if n % b == 0]


@settings(max_examples=60, deadline=None)
@given(lattice=st.sampled_from(LATTICES), adjoint=st.booleans())
def test_gabor_lattices_and_adjoints(lattice, adjoint):
    rep = gabor_rep(adjoint_lattice(lattice) if adjoint else lattice)
    assert_facts_match_oracles(rep, sylvester=rep.dim <= 6)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4, 6]), data=st.data())
def test_character_multisets(n, data):
    freqs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 2))
    rep = character_multiset(n, freqs)
    assert_facts_match_oracles(rep)
    # each character is an irreducible of degree 1: a frame vector iff none
    # repeats, a Riesz vector iff every one of the n occurs
    assert rep.has_frame_vector == (len(set(freqs)) == len(freqs))
    assert rep.has_riesz_vector == (len(set(freqs)) == n)


def d5():
    return from_cayley_table(dihedral_cayley(5), label="D5")


# name: (rep, whether it has a complete frame vector)
DENSE_SUMS = {
    "lambda_Z4 + lambda_Z4": (lambda: direct_sum(*[left_regular(
        cyclic_group(4), trivial_multiplier(cyclic_group(4)))] * 2), False),
    "lambda_D5 + lambda_D5": (lambda: direct_sum(*[left_regular(
        d5(), trivial_multiplier(d5()))] * 2), False),
    "twisted Heisenberg lambda + lambda": (lambda: direct_sum(
        *[left_regular(heisenberg_multiplier(2).group, heisenberg_multiplier(2))] * 2), False),
    # the irreducible of degree 8 twice: m = 2 <= d = 8
    "gabor(8,1,1) + gabor(8,1,1)": (lambda: direct_sum(
        *[gabor_rep(GaborLattice(8, 1, 1))] * 2), True),
    # 6 group elements cannot frame C^12
    "gabor(12,6,4)": (lambda: gabor_rep(GaborLattice(12, 6, 4)), False),
    "lambda_D5 dense": (lambda: ProjectiveRep(
        d5(), trivial_multiplier(d5()), left_regular(d5(), trivial_multiplier(d5())).matrices),
        True),
}


@pytest.mark.parametrize("name", DENSE_SUMS)
def test_dense_sums_and_deficient_reps(name):
    build, frame_vector = DENSE_SUMS[name]
    rep = build()
    assert_facts_match_oracles(rep, sylvester=rep.dim <= 10)
    assert rep.has_frame_vector == frame_vector


@pytest.mark.parametrize("rep, frame, riesz", [
    # each irreducible twice: m = 2 > d = 1
    (DENSE_SUMS["lambda_Z4 + lambda_Z4"][0](), False, True),
    # |G| = 4 > dim = 2
    (character_multiset(4, [0, 1]), True, False),
], ids=["lambda_Z4 + lambda_Z4", "two characters of Z4"])
def test_existence_law_has_two_halves(rep, frame, riesz):
    assert (rep.has_frame_vector, rep.has_riesz_vector) == (frame, riesz)
    assert (drawn_frame_vector(rep), drawn_riesz_vector(rep)) == (frame, riesz)


def test_dilate_refuses_a_rep_without_frame_vector():
    rep = DENSE_SUMS["lambda_Z4 + lambda_Z4"][0]()
    x = np.zeros(rep.dim, dtype=complex)
    x[0] = 1.0
    with pytest.raises(InvalidParameterError, match="no complete frame vector"):
        dilate_to_complete(rep, x)


def test_gram_spectrum_has_the_proven_gaps():
    # eigenvalues |G| m / d: zero, at least sqrt|G|, and none in
    # (|G| - sqrt|G|, |G|) or (|G|, |G| + sqrt|G|)
    for rep in (DENSE_SUMS["lambda_D5 + lambda_D5"][0](), DENSE_SUMS["gabor(12,6,4)"][0](),
                character_multiset(6, [0, 0, 1, 2, 2, 2])):
        n = rep.group.order
        w = rep._gram_spectrum
        nonzero = w[w > np.sqrt(n) / 2]
        assert np.abs(w[w <= np.sqrt(n) / 2]).max(initial=0.0) < 1e-9
        assert nonzero.min() >= np.sqrt(n) - 1e-9
        assert not np.any((w > n + 1e-9) & (w < n + np.sqrt(n) - 1e-9))
        assert not np.any((w > n - np.sqrt(n) + 1e-9) & (w < n - 1e-9))


@pytest.mark.parametrize("rep", [character_multiset(12, [0, 3, 3]), character_multiset(7, [1]),
                                 direct_sum(character_multiset(9, [1, 4]))],
                         ids=["chars Z12 {0,3,3}", "char Z7 {1}", "dense chars Z9 {1,4}"])
def test_small_side_spectrum_is_the_grams(rep):
    # dim^2 < |G|: the spectrum comes from the dim^2 x dim^2 matrix F* F
    n, d = rep.group.order, rep.dim
    assert d * d < n
    flat = rep.matrices.reshape(n, -1)
    full = np.linalg.eigvalsh(flat.conj() @ flat.T)
    small = rep._gram_spectrum
    assert small.shape == (d * d,)
    np.testing.assert_allclose(small, full[n - d * d:], atol=1e-9)
    assert np.abs(full[:n - d * d]).max() < 1e-9


# --- the isotypic decomposition ----------------------------------------------


def block_sizes(dec) -> np.ndarray:
    return np.diff(np.append(dec.starts, len(dec.basis)))


def assert_isotypic_facts(rep):
    """rep.isotypic against the routes it stands beside: W unitary within its
    stated bound, k^2 |Z| = |G|, sum m^2 = commutant_dim, one block per
    dimension of the center (the group average), every pi(g) block diagonal
    in W, and lambda_chi the nonzero spectrum of the dense frame operator."""
    dec = rep.isotypic
    n, d, k = rep.group.order, rep.dim, dec.degree
    eps = np.finfo(float).eps
    defect = np.linalg.norm(dec.basis.conj().T @ dec.basis - np.eye(d), 2)
    assert defect <= 2 * dec.error + dec.error ** 2 + d * eps
    np.testing.assert_array_equal(dec.analysis, dec.basis.conj())
    assert k * k * len(dec.radical) == n
    assert np.all(block_sizes(dec) == k * dec.multiplicities)
    assert k == 1 or np.all(dec.multiplicities == 1)
    assert int(np.sum(dec.multiplicities ** 2)) == rep.commutant_dim
    assert len(dec.starts) == rep.center().dim
    blocks = np.repeat(np.arange(len(dec.starts)), block_sizes(dec))
    off_block = blocks[:, None] != blocks[None, :]
    in_basis = dec.basis.conj().T @ rep.matrices @ dec.basis
    assert np.abs(in_basis[:, off_block]).max(initial=0.0) < 1e-12
    for seed in range(3):
        x = random_complex_block(seed, [0], d)[0]
        y = x @ dec.analysis
        lam = np.add.reduceat(np.abs(y) ** 2, dec.starts) * (n // k)
        expected = np.sort(np.concatenate([np.repeat(lam, k), np.zeros(d - k * len(lam))]))
        spectrum = np.linalg.eigvalsh(frame_operator(rep, x))
        np.testing.assert_allclose(spectrum, expected, rtol=0, atol=1e-13 * spectrum[-1])


@settings(max_examples=40, deadline=None)
@given(orders=st.sampled_from([(2, 2), (2, 4), (3, 3), (2, 6), (4, 4)]),
       s=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       r=st.tuples(st.integers(0, 5), st.integers(0, 5)), side=sides)
def test_isotypic_decomposition_of_time_frequency_regular_reps(orders, s, r, side):
    rep = tf_regular(*orders, s, r, side)
    dec = rep.isotypic
    # a regular rep holds each irreducible d_i = k times, so it has a
    # decomposition iff k = 1, iff all |G| irreducibles have degree 1, iff
    # the center of its algebra has dimension |G|
    assert (dec is None) == (rep.center().dim != rep.dim)
    if dec is not None:
        assert dec.degree == 1 and len(dec.radical) == rep.dim
        assert_isotypic_facts(rep)


@settings(max_examples=60, deadline=None)
@given(lattice=st.sampled_from(LATTICES), adjoint=st.booleans())
def test_isotypic_decomposition_of_gabor_lattices_and_adjoints(lattice, adjoint):
    rep = gabor_rep(adjoint_lattice(lattice) if adjoint else lattice)
    if rep.group.order == 1:
        assert rep.isotypic is None
    elif rep.isotypic is not None:
        assert_isotypic_facts(rep)
    else:  # some mu-irreducible of degree above 1 occurs more than once
        k2 = rep.dim ** 2 // rep.commutant_dim  # sum m_i^2 = dim^2 / k^2 when every m_i = m
        assert k2 > 1


@pytest.mark.parametrize("lattice", [GaborLattice(8, 2, 2), GaborLattice(12, 3, 2),
                                     GaborLattice(16, 2, 2), GaborLattice(16, 4, 2)])
def test_isotypic_decomposition_of_sweep_lattices(lattice):
    for rep in (gabor_rep(lattice), gabor_rep(adjoint_lattice(lattice))):
        assert rep.isotypic is not None
        assert_isotypic_facts(rep)


def test_isotypic_decomposition_of_characters_and_trivial_cocycles():
    group = direct_product(cyclic_group(2), cyclic_group(3))
    for rep in (character_multiset(6, [0, 0, 1, 2, 2, 2]), character_multiset(7, [1]),
                left_regular(group, trivial_multiplier(group)),
                right_regular(group, trivial_multiplier(group))):
        assert rep.isotypic is not None and rep.isotypic.degree == 1
        assert_isotypic_facts(rep)


def test_isotypic_decomposition_is_none_where_it_does_not_apply():
    mu3 = heisenberg_multiplier(3)
    z1 = cyclic_group(1)
    z6 = cyclic_group(6)
    lam6 = left_regular(z6, trivial_multiplier(z6))
    d5 = from_cayley_table(dihedral_cayley(5))
    nonabelian = left_regular(d5, trivial_multiplier(d5))
    # phases off every root of unity: the same rep conjugated by a diagonal
    twist = np.exp(0.3j * np.arange(6))
    conjugated = monomial_rep(z6, trivial_multiplier(z6), lam6.perm,
                              lam6.phase * twist[None, :] / twist[lam6.perm])
    for rep in (left_regular(mu3.group, mu3), right_regular(mu3.group, mu3),
                ProjectiveRep(z6, lam6.multiplier, lam6.matrices, label="dense"),
                left_regular(z1, trivial_multiplier(z1)), nonabelian, conjugated):
        assert rep.isotypic is None, rep.label
