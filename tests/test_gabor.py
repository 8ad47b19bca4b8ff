"""Finite Gabor systems: operators, lattice representations, adjoint, Zak."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedual import (
    GaborLattice,
    InvalidParameterError,
    adjoint_lattice,
    classify,
    cyclic_group,
    direct_product,
    frame_operator,
    gabor_rep,
    heisenberg_multiplier,
    modulation,
    translation,
    verify_rep,
    zak_transform,
)
from framedual.reps import derive_multiplier
from framedual.linalg import random_complex_vector, substream


def test_translation_modulation_n2():
    np.testing.assert_allclose(translation(2), [[0, 1], [1, 0]])
    np.testing.assert_allclose(modulation(2), np.diag([1.0, -1.0]), atol=1e-15)


def test_commutation_relation():
    for n in (3, 4, 6):
        m, t = modulation(n), translation(n)
        np.testing.assert_allclose(m @ t, np.exp(2j * np.pi / n) * (t @ m), atol=1e-12)


def test_periodicity():
    for n in (2, 5):
        m, t = modulation(n), translation(n)
        np.testing.assert_allclose(np.linalg.matrix_power(t, n), np.eye(n), atol=1e-12)
        np.testing.assert_allclose(np.linalg.matrix_power(m, n), np.eye(n), atol=1e-12)


def test_operators_unitary():
    for op in (translation(5), modulation(5)):
        np.testing.assert_allclose(op.conj().T @ op, np.eye(5), atol=1e-12)


def test_gabor_rep_full_lattice_multiplier():
    rep = gabor_rep(GaborLattice(4, 1, 1))
    assert rep.group.order == 16 and rep.dim == 4
    assert verify_rep(rep).passed
    np.testing.assert_allclose(rep.multiplier.table, heisenberg_multiplier(4).table,
                               atol=1e-12)


@pytest.mark.parametrize("n", [3, 8, 28])
def test_heisenberg_multiplier_is_the_full_lattice_cocycle_bit_for_bit(n):
    # one time-frequency cocycle: heisenberg_multiplier(n) and the cocycle
    # gabor_rep writes down for (n, 1, 1) are the same lookup table
    table = gabor_rep(GaborLattice(n, 1, 1)).multiplier.table
    assert np.array_equal(heisenberg_multiplier(n).table, table)


def test_gabor_rep_trivial_lattice():
    rep = gabor_rep(GaborLattice(4, 4, 4))
    assert rep.group.order == 1
    np.testing.assert_allclose(rep.matrices[0], np.eye(4), atol=1e-15)


def test_gabor_rep_structure():
    rep = gabor_rep(GaborLattice(6, 2, 3))
    qm, qt = 3, 2
    for m in range(qm):
        mat = rep.matrices[m * qt]  # (m, 0): pure modulation, diagonal
        np.testing.assert_allclose(mat, np.diag(np.diagonal(mat)), atol=1e-14)
    for k in range(qt):
        mat = rep.matrices[k]  # (0, k): pure translation, a permutation
        np.testing.assert_allclose(np.abs(mat) @ np.ones(6), np.ones(6), atol=1e-14)
        assert set(np.round(np.abs(mat).reshape(-1), 12)) <= {0.0, 1.0}


def dense_gabor(lattice):
    """The dense route: every M^{am} @ T^{bk} as a full matrix product, the
    cocycle recovered from the compositions by derive_multiplier."""
    n, a, b = lattice.n, lattice.a, lattice.b
    qm, qt = n // a, n // b
    group = direct_product(cyclic_group(qm), cyclic_group(qt))
    t = translation(n)
    mats = np.stack([
        np.diag(np.exp(2j * np.pi * (a * m) * np.arange(n) / n))
        @ np.linalg.matrix_power(t, b * k)
        for m in range(qm) for k in range(qt)
    ])
    return mats, derive_multiplier(mats, group)


def assert_matches_dense_route(lattice):
    rep = gabor_rep(lattice)
    mats, mu = dense_gabor(lattice)
    assert np.array_equal(rep.matrices, mats)
    assert rep.multiplier.group == mu.group
    assert np.abs(rep.multiplier.table - mu.table).max() <= 1e-12


GABOR_LADDER = [(1, 1, 1), (4, 4, 4), (6, 2, 3), (8, 2, 2), (12, 3, 2), (12, 2, 3), (16, 1, 1)]


@pytest.mark.parametrize("n,a,b", GABOR_LADDER)
@pytest.mark.parametrize("adjoint", [False, True])
def test_gabor_rep_matches_dense_route(n, a, b, adjoint):
    lattice = GaborLattice(n, a, b)
    assert_matches_dense_route(adjoint_lattice(lattice) if adjoint else lattice)


@st.composite
def divisor_lattices(draw):
    n = draw(st.integers(1, 24))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    a, b = draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors))
    return GaborLattice(n, a, b)


# the dense route costs |G|^2 n^3, so its order is kept at 144 or below
@settings(max_examples=25, deadline=None)
@given(divisor_lattices().filter(lambda lat: (lat.n // lat.a) * (lat.n // lat.b) <= 144))
def test_gabor_rep_matches_dense_route_drawn(lattice):
    assert_matches_dense_route(lattice)


@pytest.mark.parametrize("n", [1, 6, 12, 16, 24, 30, 32, 48])
def test_gabor_cocycle_lookup_is_bit_equal_to_direct_exp(n):
    # the table is looked up among the n roots of unity; each entry must
    # keep the bits of exp(-2 pi i ((am')(bk) mod n) / n) evaluated in place
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for a in divisors:
        for b in divisors:
            qm, qt = n // a, n // b
            m, k = np.divmod(np.arange(qm * qt), qt)
            direct = np.exp(-2j * np.pi * (np.outer(b * k, a * m) % n) / n)
            table = gabor_rep(GaborLattice(n, a, b)).multiplier.table
            assert np.array_equal(table.view(np.uint64), direct.view(np.uint64))


def test_adjoint_lattice_values():
    assert adjoint_lattice(GaborLattice(12, 3, 2)) == GaborLattice(12, 6, 4)
    assert adjoint_lattice(GaborLattice(8, 1, 1)) == GaborLattice(8, 8, 8)


def test_adjoint_lattice_involution():
    for lat in (GaborLattice(12, 3, 2), GaborLattice(6, 2, 3), GaborLattice(4, 1, 2)):
        assert adjoint_lattice(adjoint_lattice(lat)) == lat


def test_lattice_validation():
    with pytest.raises(InvalidParameterError):
        GaborLattice(6, 4, 1)  # 4 does not divide 6
    with pytest.raises(InvalidParameterError):
        GaborLattice(6, 0, 1)


def test_zak_delta():
    out = zak_transform([1, 0, 0, 0], 2)
    np.testing.assert_allclose(out[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    np.testing.assert_allclose(out[1], [0, 0], atol=1e-14)


def test_zak_preserves_norm():
    rng = substream(31, 0)
    for _ in range(100):
        f = random_complex_vector(rng, 12)
        z = zak_transform(f, 3)
        assert z.shape == (3, 4)
        assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(f), abs=1e-12)


def test_zak_full_split_is_identity():
    f = random_complex_vector(substream(31, 1), 5)
    z = zak_transform(f, 5)
    assert z.shape == (5, 1)
    np.testing.assert_allclose(z[:, 0], f, atol=1e-12)


def test_zak_rejects_non_divisor():
    with pytest.raises(InvalidParameterError):
        zak_transform([1, 0, 0], 2)


def test_full_lattice_tightness():
    # orbit of any nonzero window under the full lattice is tight: S = n |g|^2 I
    for n in (4, 8):
        rep = gabor_rep(GaborLattice(n, 1, 1))
        rng = substream(37, n)
        for _ in range(5):
            g = random_complex_vector(rng, n)
            s = frame_operator(rep, g)
            target = n * np.linalg.norm(g) ** 2 * np.eye(n)
            assert np.abs(s - target).max() < 1e-9


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (6, 6)])
def test_density_dichotomy(a, b):
    # a frame needs group order >= dim; a Riesz sequence needs group order <= dim
    n = 6
    rep = gabor_rep(GaborLattice(n, a, b))
    order = rep.group.order
    rng = substream(41, a * 10 + b)
    for draw in range(50):
        g = random_complex_vector(rng, n)
        cls = classify(rep, g)
        if cls.is_complete_frame:
            assert order >= n
        if cls.is_riesz_sequence:
            assert order <= n
