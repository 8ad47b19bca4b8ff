"""Degenerate sizes: one-element groups, one-dimensional spaces."""

import numpy as np

from framedual import (
    GaborLattice,
    certify_dual_pair,
    character_subrep,
    classify,
    cyclic_group,
    duality_sweep,
    gabor_rep,
    heisenberg_multiplier,
    left_regular,
    make_regular_pair,
    trivial_multiplier,
    validate_multiplier,
    verify_rep,
    zak_transform,
)
from framedual.vonneumann import commutant


def test_trivial_group_regular_pair():
    g = cyclic_group(1)
    lam, rho = make_regular_pair(g, trivial_multiplier(g))
    assert verify_rep(lam).passed and verify_rep(rho).passed
    report = certify_dual_pair(lam, rho, seed=1)
    assert report.feasible
    sweep = duality_sweep(lam, rho, n_vectors=5, seed=1)
    assert sweep.n_inconsistent == 0


def test_heisenberg_n1_is_trivial():
    mu = heisenberg_multiplier(1)
    assert mu.group.order == 1
    assert validate_multiplier(mu).passed


def test_one_point_gabor():
    rep = gabor_rep(GaborLattice(1, 1, 1))
    assert rep.dim == 1 and rep.group.order == 1
    cls = classify(rep, np.array([2.0]))
    assert cls.is_complete_frame and cls.is_riesz_sequence
    assert cls.lower_bound == cls.upper_bound == 4.0
    assert not classify(rep, np.array([0.0])).is_frame_sequence


def test_one_point_zak():
    np.testing.assert_allclose(zak_transform([2.0], 1), [[2.0]])


def test_one_dim_character_rep():
    rep = character_subrep(1, [0])
    assert rep.dim == 1
    cls = classify(rep, np.array([1.0]))
    assert cls.is_orthonormal


def test_commutant_in_dimension_one():
    g = cyclic_group(1)
    lam = left_regular(g, trivial_multiplier(g))
    assert commutant(lam.matrices).dim == 1
